//! Bench for the Section III syntactic analyses: weak-stickiness
//! classification and EGD separability checking on the hospital program and
//! on larger synthetic rule sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ontodq_bench::compiled_hospital;
use ontodq_datalog::{parse_program, Program};
use std::hint::black_box;
use std::time::Duration;

/// A synthetic program with `n` upward/downward rule pairs over a chain of
/// predicates, mimicking the shape of compiled MD ontologies.
fn synthetic_program(n: usize) -> Program {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!(
            "Up{i}(u, d, p) :- Low{i}(w, d, p), Link{i}(u, w).\n\
             Down{i}(w, d, n, z) :- Up{i}(u, d, n), Link{i}(u, w).\n"
        ));
    }
    parse_program(&text).expect("synthetic program parses")
}

fn bench_class_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("class_analysis");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let hospital = compiled_hospital();
    group.bench_function("classify_hospital_program", |b| {
        b.iter(|| black_box(ontodq_datalog::classify(black_box(&hospital.program))))
    });
    group.bench_function("separability_hospital_program", |b| {
        b.iter(|| black_box(ontodq_datalog::check_program(black_box(&hospital.program))))
    });

    for &rules in &[10usize, 40, 160] {
        let program = synthetic_program(rules);
        group.bench_with_input(
            BenchmarkId::new("classify_synthetic", format!("rule_pairs={rules}")),
            &program,
            |b, program| b.iter(|| black_box(ontodq_datalog::classify(black_box(program)))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_class_analysis);
criterion_main!(benches);
