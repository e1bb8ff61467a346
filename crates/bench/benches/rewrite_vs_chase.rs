//! Bench for the Section IV claim about upward-navigation ontologies: FO
//! (UCQ) rewriting answers conjunctive queries directly on the extensional
//! database, avoiding the chase altogether.  We measure both strategies on
//! the upward-only fragment of the hospital ontology and on scaled synthetic
//! instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ontodq_bench::upward_only_hospital;
use ontodq_mdm::compile;
use ontodq_qa::{answer_by_rewriting, ConjunctiveQuery, MaterializedEngine};
use ontodq_workload::{generate, HospitalScale};
use std::hint::black_box;
use std::time::Duration;

fn bench_rewrite_vs_chase(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite_vs_chase");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // Paper-scale: the hospital example, upward rule only.
    let compiled = compile(&upward_only_hospital());
    let query =
        ConjunctiveQuery::parse("Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".").unwrap();
    group.bench_function("hospital/fo_rewriting", |b| {
        b.iter(|| {
            black_box(answer_by_rewriting(
                black_box(&compiled.program),
                black_box(&compiled.database),
                black_box(&query),
            ))
        })
    });
    group.bench_function("hospital/chase_then_evaluate", |b| {
        b.iter(|| {
            let engine = MaterializedEngine::new(
                black_box(&compiled.program),
                black_box(&compiled.database),
            );
            black_box(engine.certain_answers(black_box(&query)))
        })
    });

    // Scaled synthetic instances: the gap widens as the data (and hence the
    // chase) grows, while the rewriting is fixed-size.
    for &measurements in &[100usize, 400] {
        let mut workload = generate(&HospitalScale::with_measurements(measurements));
        // Keep only the upward rule so the rewriting strategy is applicable.
        let upward_rules: Vec<_> = workload
            .ontology
            .rules()
            .iter()
            .filter(|r| r.head.iter().any(|a| a.predicate == "PatientUnit"))
            .cloned()
            .collect();
        let mut upward_only = ontodq_mdm::MdOntology::new("scaled-upward");
        for dim in workload.ontology.dimensions().values() {
            upward_only.add_dimension(dim.clone());
        }
        for schema in workload.ontology.relations().values() {
            upward_only.add_relation(schema.clone());
        }
        for relation in workload.ontology.data().relations() {
            for tuple in relation.iter() {
                upward_only
                    .add_tuple(relation.name(), tuple.values().to_vec())
                    .unwrap();
            }
        }
        for rule in upward_rules {
            upward_only.add_rule(rule);
        }
        workload.ontology = upward_only;
        let compiled = compile(&workload.ontology);
        let query =
            ConjunctiveQuery::parse("Q(d) :- PatientUnit(Unit_0, d, p), p = \"Patient_0\".")
                .unwrap();
        let edb = compiled.database.total_tuples();
        group.bench_with_input(
            BenchmarkId::new("scaled/fo_rewriting", format!("edb={edb}")),
            &compiled,
            |b, compiled| {
                b.iter(|| {
                    black_box(answer_by_rewriting(
                        black_box(&compiled.program),
                        black_box(&compiled.database),
                        black_box(&query),
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("scaled/chase_then_evaluate", format!("edb={edb}")),
            &compiled,
            |b, compiled| {
                b.iter(|| {
                    let engine = MaterializedEngine::new(
                        black_box(&compiled.program),
                        black_box(&compiled.database),
                    );
                    black_box(engine.certain_answers(black_box(&query)))
                })
            },
        );

        // FO rewriting with prepared (indexed) evaluation: the rewriting's
        // join indexes are built once on a copy of the EDB and reused.
        let mut prepared_db = compiled.database.clone();
        let ucq = ontodq_qa::rewrite(&compiled.program, &query);
        ucq.prepare(&mut prepared_db);
        group.bench_with_input(
            BenchmarkId::new("scaled/fo_rewriting_prepared", format!("edb={edb}")),
            &prepared_db,
            |b, prepared_db| b.iter(|| black_box(ucq.evaluate(black_box(prepared_db)))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rewrite_vs_chase);
criterion_main!(benches);
