//! Bench for the Section IV claim that conjunctive query answering over the
//! MD ontologies is tractable (polynomial) in the size of the extensional
//! data: chase size and Boolean query answering time as the data grows, with
//! the rule set fixed.
//!
//! The chase is measured under both drivers — the naive
//! reference (full re-evaluation every round) and the delta-driven
//! semi-naive default — so the speedup of the semi-naive engine is visible
//! across the data-complexity sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ontodq_chase::{chase, chase_naive};
use ontodq_mdm::compile;
use ontodq_qa::{ConjunctiveQuery, DeterministicWsqAns};
use ontodq_workload::{generate, HospitalScale};
use std::hint::black_box;
use std::time::Duration;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_data_complexity");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    for &measurements in &[100usize, 200, 400] {
        let workload = generate(&HospitalScale::with_measurements(measurements));
        let compiled = compile(&workload.ontology);
        let edb_size = compiled.database.total_tuples();
        group.throughput(Throughput::Elements(edb_size as u64));

        // Chase growth with data (fixed rules): semi-naive default…
        group.bench_with_input(
            BenchmarkId::new("chase_seminaive", format!("edb={edb_size}")),
            &compiled,
            |b, compiled| {
                b.iter(|| {
                    black_box(chase(
                        black_box(&compiled.program),
                        black_box(&compiled.database),
                    ))
                })
            },
        );

        // …vs the naive reference oracle on the same instance.
        group.bench_with_input(
            BenchmarkId::new("chase_naive", format!("edb={edb_size}")),
            &compiled,
            |b, compiled| {
                b.iter(|| {
                    black_box(chase_naive(
                        black_box(&compiled.program),
                        black_box(&compiled.database),
                    ))
                })
            },
        );

        // Boolean conjunctive query answering (DeterministicWSQAns) on the
        // same growing data.
        let query = ConjunctiveQuery::parse(
            "Q() :- PatientUnit(Unit_0, d, p), WorkingSchedules(Unit_0, d, n, t).",
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::new("boolean_cq_wsqans", format!("edb={edb_size}")),
            &compiled,
            |b, compiled| {
                let engine = DeterministicWsqAns::new(&compiled.program, &compiled.database);
                b.iter(|| black_box(engine.answer_boolean(black_box(&query))))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
