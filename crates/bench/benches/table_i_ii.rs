//! Bench for Tables I/II: deriving the quality version `Measurements^q` from
//! the raw `Measurements` table through the Example 7 context (upward
//! navigation + thermometer guideline + nurse certification).

use criterion::{criterion_group, criterion_main, Criterion};
use ontodq_core::quality_answers;
use ontodq_core::{assess, scenarios};
use ontodq_mdm::fixtures::hospital;
use std::hint::black_box;
use std::time::Duration;

fn bench_table_i_ii(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_i_ii");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let context = scenarios::hospital_context();
    let instance = hospital::measurements_database();

    // The full assessment pipeline: compile, map, chase, extract D^q.
    group.bench_function("assess_measurements_to_quality_version", |b| {
        b.iter(|| {
            let result = assess(black_box(&context), black_box(&instance));
            black_box(result.quality_tuples("Measurements").len())
        })
    });

    // Quality query answering on a precomputed assessment (the repeated-use
    // case: one assessment, many doctor queries).
    let assessment = assess(&context, &instance);
    let query = scenarios::doctors_query();
    group.bench_function("doctors_query_quality_answers", |b| {
        b.iter(|| {
            black_box(quality_answers(
                black_box(&context),
                black_box(&assessment),
                black_box(&query),
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_table_i_ii);
criterion_main!(benches);
