//! Regenerate every table and figure of the paper's evaluation section and
//! print them as markdown (the source material of `EXPERIMENTS.md`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ontodq-bench --bin experiments            # everything
//! cargo run --release -p ontodq-bench --bin experiments -- table2  # one experiment
//! cargo run --release -p ontodq-bench --bin experiments -- --scale 4 scaling
//! ```
//!
//! Available experiment ids: `table1`, `table2`, `table3_4`, `table5`,
//! `example5`, `example7`, `fig1`, `fig2`, `classes`, `scaling`,
//! `chase_perf`, `intern_bench`, `service_throughput`, `recovery_bench`,
//! `query_perf`, `join_bench`, `retract_bench`, `faults_bench`,
//! `obs_bench`.
//!
//! `--scale N` multiplies the synthetic workload sizes of the scaling
//! experiments (`scaling`, `chase_perf`, `service_throughput`,
//! `recovery_bench`, `query_perf`); unknown ids or flags print usage and
//! exit non-zero.
//!
//! `chase_perf` additionally writes a machine-readable `BENCH_chase.json`
//! (naive vs semi-naive chase timings, rounds, trigger counts,
//! tuples/sec, plus a regression note against the pre-interning storage
//! layer), `intern_bench` writes `BENCH_intern.json` (symbol intern/resolve
//! rates and interned-vs-string join-probe throughput),
//! `service_throughput` writes `BENCH_service.json` (queries/sec at 1/2/4/8
//! worker threads; incremental vs from-scratch re-chase latency per update
//! batch), `recovery_bench` writes `BENCH_persist.json` (restart
//! strategies — cold start from scratch vs snapshot + WAL-tail replay vs
//! full-WAL replay — and the WAL-append overhead on the incremental write
//! path), `query_perf` writes `BENCH_query.json` (demand-driven
//! magic-set chase vs full materialization, per query-selectivity class
//! across scales), `join_bench` writes `BENCH_join.json`
//! (materializing vs id-returning probe cost over the columnar arena,
//! hash vs worst-case-optimal join kernels on the Zipf-skewed triangle
//! workload, and per-trigger counter costs), and `retract_bench` writes
//! `BENCH_retract.json` (delete-and-rederive retraction vs from-scratch
//! re-chase of the surviving EDB, across scales), `faults_bench`
//! writes `BENCH_faults.json` (the fault-injection layer's disarmed cost
//! on the durable write path, plus a degradation / probe-recovery drill),
//! and `obs_bench` writes `BENCH_obs.json` (the chase profiler's overhead:
//! semi-naive chase with per-rule profiling on vs off, CI-guarded to a
//! <= 3% ratio) so future changes have a perf trajectory to compare
//! against.

use ontodq_bench::{compiled_hospital, compiled_hospital_with_discharge, upward_only_hospital};
use ontodq_bench::{fmt_duration, MarkdownTable};
use ontodq_core::{assess, scenarios};
use ontodq_core::{plain_answers, quality_answers};
use ontodq_mdm::compile;
use ontodq_mdm::fixtures::hospital;
use ontodq_qa::{answer_by_rewriting, ConjunctiveQuery, DeterministicWsqAns, MaterializedEngine};
use ontodq_relational::{Tuple, Value};
use ontodq_workload::{generate, HospitalScale};
use std::time::Instant;

const EXPERIMENT_IDS: [&str; 19] = [
    "table1",
    "table2",
    "table3_4",
    "table5",
    "example5",
    "example7",
    "fig1",
    "fig2",
    "classes",
    "scaling",
    "chase_perf",
    "intern_bench",
    "service_throughput",
    "recovery_bench",
    "query_perf",
    "join_bench",
    "retract_bench",
    "faults_bench",
    "obs_bench",
];

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}\n");
    }
    eprintln!(
        "usage: experiments [--scale N] [ID ...]\n\
         \n\
         Run the named experiments (all of them when no ID is given).\n\
         \n\
         options:\n\
         \x20 --scale N   multiply synthetic workload sizes by N (default 1);\n\
         \x20             affects scaling, chase_perf, service_throughput,\n\
         \x20             recovery_bench and query_perf\n\
         \n\
         experiment ids:\n\
         \x20 {}",
        EXPERIMENT_IDS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = 1usize;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(value) = arg.strip_prefix("--scale=") {
            scale = value
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad scale '{value}'")));
        } else if arg == "--scale" {
            let value = args
                .next()
                .unwrap_or_else(|| usage("--scale needs a number"));
            scale = value
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad scale '{value}'")));
        } else if arg == "--help" || arg == "-h" {
            usage("");
        } else if arg.starts_with('-') {
            usage(&format!("unknown flag '{arg}'"));
        } else if arg == "all" || EXPERIMENT_IDS.contains(&arg.as_str()) {
            ids.push(arg);
        } else {
            usage(&format!("unknown experiment '{arg}'"));
        }
    }
    if scale == 0 {
        usage("--scale must be at least 1");
    }
    let want = |id: &str| ids.is_empty() || ids.iter().any(|f| f == id || f == "all");

    if want("table1") {
        table1();
    }
    if want("table2") {
        table2();
    }
    if want("table3_4") {
        table3_4();
    }
    if want("table5") {
        table5();
    }
    if want("example5") {
        example5();
    }
    if want("example7") {
        example7();
    }
    if want("fig1") {
        fig1();
    }
    if want("fig2") {
        fig2();
    }
    if want("classes") {
        classes();
    }
    if want("scaling") {
        scaling(scale);
    }
    if want("chase_perf") {
        chase_perf(scale);
    }
    if want("intern_bench") {
        intern_bench(scale);
    }
    if want("service_throughput") {
        service_throughput(scale);
    }
    if want("recovery_bench") {
        recovery_bench(scale);
    }
    if want("query_perf") {
        query_perf(scale);
    }
    if want("join_bench") {
        join_bench(scale);
    }
    if want("retract_bench") {
        retract_bench(scale);
    }
    if want("faults_bench") {
        faults_bench(scale);
    }
    if want("obs_bench") {
        obs_bench(scale);
    }
}

fn print_relation_table(title: &str, header: &[&str], tuples: &[Tuple]) {
    println!("### {title}\n");
    let mut table = MarkdownTable::new(header.iter().copied());
    for tuple in tuples {
        table.row(tuple.values().iter().map(|v| v.to_string()));
    }
    println!("{}", table.render());
}

/// Table I: the Measurements relation under assessment.
fn table1() {
    let db = hospital::measurements_database();
    let tuples = db.relation("Measurements").unwrap().tuples().to_vec();
    print_relation_table(
        "Table I — Measurements (instance under assessment)",
        &["Time", "Patient", "Value"],
        &tuples,
    );
}

/// Table II: the quality version of Measurements (Tom Waits' rows).
fn table2() {
    let context = scenarios::hospital_context();
    let instance = hospital::measurements_database();
    let start = Instant::now();
    let assessment = assess(&context, &instance);
    let elapsed = start.elapsed();
    let all = assessment.quality_tuples("Measurements");
    let toms: Vec<Tuple> = all
        .iter()
        .filter(|t| t.get(1) == Some(&Value::str(hospital::TOM_WAITS)))
        .cloned()
        .collect();
    print_relation_table(
        "Table II — Measurements^q restricted to Tom Waits (paper's Table II)",
        &["Time", "Patient", "Value"],
        &toms,
    );
    print_relation_table(
        "Full quality version Measurements^q (all patients)",
        &["Time", "Patient", "Value"],
        &all,
    );
    println!(
        "assessment: {} | {} | quality metrics: {}\n",
        fmt_duration(elapsed),
        assessment.chase.stats,
        assessment.metrics.relations.get("Measurements").unwrap()
    );
}

/// Tables III and IV: WorkingSchedules, Shifts, and the Shifts tuples
/// generated by downward navigation.
fn table3_4() {
    let ontology = hospital::ontology();
    let data = ontology.data();
    print_relation_table(
        "Table III — WorkingSchedules",
        &["Unit", "Day", "Nurse", "Type"],
        &data.relation("WorkingSchedules").unwrap().tuples(),
    );
    print_relation_table(
        "Table IV — Shifts (extensional)",
        &["Ward", "Day", "Nurse", "Shift"],
        &data.relation("Shifts").unwrap().tuples(),
    );
    let compiled = compiled_hospital();
    let chased = ontodq_chase::chase(&compiled.program, &compiled.database);
    let generated: Vec<Tuple> = chased
        .database
        .relation("Shifts")
        .unwrap()
        .iter()
        .filter(|t| !t.is_ground())
        .collect();
    print_relation_table(
        "Shifts tuples generated by downward navigation (rule (8); ⊥ = unknown shift)",
        &["Ward", "Day", "Nurse", "Shift"],
        &generated,
    );
}

/// Table V: DischargePatients and the form-(10) downward navigation it
/// triggers.
fn table5() {
    let ontology = hospital::ontology();
    print_relation_table(
        "Table V — DischargePatients",
        &["Institution", "Day", "Patient"],
        ontology
            .data()
            .relation("DischargePatients")
            .unwrap()
            .tuples()
            .as_slice(),
    );
    let compiled = compiled_hospital_with_discharge();
    let chased = ontodq_chase::chase(&compiled.program, &compiled.database);
    let invented: Vec<Tuple> = chased
        .database
        .relation("PatientUnit")
        .unwrap()
        .iter()
        .filter(|t| t.get(0).map(Value::is_null).unwrap_or(false))
        .collect();
    print_relation_table(
        "PatientUnit tuples generated by rule (9)/(10) (⊥ = unknown unit)",
        &["Unit", "Day", "Patient"],
        &invented,
    );
}

/// Example 5: Mark's shift dates via downward navigation, by both engines.
fn example5() {
    let compiled = compiled_hospital();
    let materialized = MaterializedEngine::new(&compiled.program, &compiled.database);
    let resolution = DeterministicWsqAns::new(&compiled.program, &compiled.database);
    println!("### Example 5 — Q'(d) ← Shifts(W2, d, Mark, s)\n");
    let mut table = MarkdownTable::new(["ward", "chase-based answers", "resolution-based answers"]);
    for ward in ["W1", "W2"] {
        let q =
            ConjunctiveQuery::parse(&format!("Q(d) :- Shifts({ward}, d, \"Mark\", s).")).unwrap();
        let a = materialized.certain_answers(&q);
        let b = resolution.answer_open(&q);
        table.row([
            ward.to_string(),
            format!(
                "{:?}",
                a.to_vec().iter().map(|t| t.to_string()).collect::<Vec<_>>()
            ),
            format!(
                "{:?}",
                b.to_vec().iter().map(|t| t.to_string()).collect::<Vec<_>>()
            ),
        ]);
    }
    println!("{}", table.render());
}

/// Example 7: the doctor's query, plain vs quality answers.
fn example7() {
    let context = scenarios::hospital_context();
    let instance = hospital::measurements_database();
    let assessment = assess(&context, &instance);
    println!("### Example 7 — the doctor's query, plain vs quality answers\n");
    let mut table = MarkdownTable::new(["query", "plain answers", "quality answers"]);
    let queries = [
        ("doctor's Sep/5 noon query", scenarios::doctors_query()),
        (
            "Tom Waits, all measurements",
            ConjunctiveQuery::parse("Q(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\".").unwrap(),
        ),
        (
            "Tom Waits, Sep/7 (intensive ward)",
            ConjunctiveQuery::parse(
                "Q(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\", t >= @Sep/7-00:00, t <= @Sep/7-23:59.",
            )
            .unwrap(),
        ),
    ];
    for (label, q) in queries {
        let plain = plain_answers(&instance, &q);
        let quality = quality_answers(&context, &assessment, &q);
        table.row([
            label.to_string(),
            plain.len().to_string(),
            quality.len().to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// Figure 1: the dimensions and the navigation directions of the rules.
fn fig1() {
    println!("### Figure 1 — dimensions and categorical relations\n");
    let ontology = hospital::ontology();
    let mut dims = MarkdownTable::new(["dimension", "categories (bottom → top)", "members"]);
    for dim in ontology.dimensions().values() {
        let mut cats: Vec<String> = dim.schema().categories().iter().cloned().collect();
        cats.sort_by_key(|c| dim.schema().level_of(c));
        dims.row([
            dim.name().to_string(),
            cats.join(" → "),
            dim.member_count().to_string(),
        ]);
    }
    println!("{}", dims.render());

    let mut rels = MarkdownTable::new([
        "categorical relation",
        "links (attribute → dimension.category)",
    ]);
    for schema in ontology.relations().values() {
        let links: Vec<String> = schema
            .links()
            .iter()
            .map(|(pos, d, c)| format!("{} → {d}.{c}", schema.attributes()[*pos].name()))
            .collect();
        rels.row([schema.name().to_string(), links.join(", ")]);
    }
    println!("{}", rels.render());

    let mut nav = MarkdownTable::new(["dimensional rule", "direction"]);
    for (index, direction) in ontodq_mdm::directions(&ontology) {
        let label = ontology.rules()[index]
            .label
            .clone()
            .unwrap_or_else(|| format!("rule #{index}"));
        nav.row([label, direction.to_string()]);
    }
    println!("{}", nav.render());
}

/// Figure 2: the context architecture, exercised end to end.
fn fig2() {
    println!("### Figure 2 — the MD context for quality assessment, end to end\n");
    let context = scenarios::hospital_context();
    let instance = hospital::measurements_database();
    let assessment = assess(&context, &instance);
    let mut table = MarkdownTable::new(["component", "summary"]);
    table.row([
        "instance D".to_string(),
        format!("{} Measurements tuples", instance.total_tuples()),
    ]);
    table.row(["context".to_string(), context.summary()]);
    table.row([
        "contextual instance after the chase".to_string(),
        format!(
            "{} relations, {} tuples ({} generated)",
            assessment.contextual_instance.relation_count(),
            assessment.contextual_instance.total_tuples(),
            assessment.chase.stats.tuples_added
        ),
    ]);
    table.row([
        "quality version D^q".to_string(),
        format!("{} tuples", assessment.quality_tuples("Measurements").len()),
    ]);
    table.row([
        "departure |D △ D^q|".to_string(),
        assessment.metrics.total_departure().to_string(),
    ]);
    table.row([
        "constraint violations surfaced".to_string(),
        assessment.chase.violations.len().to_string(),
    ]);
    println!("{}", table.render());
}

/// Section III claims: class membership and separability.
fn classes() {
    println!("### Section III claims — Datalog± class membership and separability\n");
    let mut table = MarkdownTable::new(["program", "class report", "EGDs separable"]);
    let base = compiled_hospital();
    table.row([
        "hospital (rules (7), (8), EGD (6))".to_string(),
        ontodq_datalog::classify(&base.program).to_string(),
        ontodq_datalog::check_program(&base.program)
            .all_separable()
            .to_string(),
    ]);
    let with10 = compiled_hospital_with_discharge();
    table.row([
        "hospital + form-(10) rule (9)".to_string(),
        ontodq_datalog::classify(&with10.program).to_string(),
        ontodq_datalog::check_program(&with10.program)
            .all_separable()
            .to_string(),
    ]);
    let mut with_unit_egd = hospital::ontology_with_discharge_rule();
    with_unit_egd
        .add_rule_text("u = u2 :- PatientUnit(u, d, p), PatientUnit(u2, d, p).")
        .unwrap();
    let compiled = compile(&with_unit_egd);
    table.row([
        "hospital + rule (9) + unit-level EGD".to_string(),
        ontodq_datalog::classify(&compiled.program).to_string(),
        ontodq_datalog::check_program(&compiled.program)
            .all_separable()
            .to_string(),
    ]);
    println!("{}", table.render());
}

/// Section IV claims: data-complexity scaling and rewriting vs chase.
fn scaling(scale: usize) {
    println!("### Section IV claims — scaling and strategy comparison\n");
    let mut table = MarkdownTable::new([
        "measurements",
        "chase tuples",
        "assess time",
        "quality tuples",
        "retention",
    ]);
    for &n in &[50usize, 100, 200, 400] {
        let workload = generate(&HospitalScale::with_measurements(n * scale));
        let context = workload.context();
        let start = Instant::now();
        let result = assess(&context, &workload.instance);
        let elapsed = start.elapsed();
        let metrics = result.metrics.relations.get("Measurements").unwrap();
        table.row([
            metrics.original_count.to_string(),
            result.chase.stats.tuples_added.to_string(),
            fmt_duration(elapsed),
            metrics.quality_count.to_string(),
            format!("{:.3}", metrics.retention_ratio()),
        ]);
    }
    println!("{}", table.render());

    println!("### FO rewriting vs chase-based answering (upward-only fragment)\n");
    let upward = upward_only_hospital();
    let compiled = compile(&upward);
    let q =
        ConjunctiveQuery::parse("Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".").unwrap();
    let start = Instant::now();
    let by_rewriting = answer_by_rewriting(&compiled.program, &compiled.database, &q);
    let rewriting_time = start.elapsed();
    let start = Instant::now();
    let engine = MaterializedEngine::new(&compiled.program, &compiled.database);
    let by_chase = engine.certain_answers(&q);
    let chase_time = start.elapsed();
    let mut table = MarkdownTable::new(["strategy", "answers", "time (includes setup)"]);
    table.row([
        "FO rewriting (no chase)".to_string(),
        by_rewriting.len().to_string(),
        fmt_duration(rewriting_time),
    ]);
    table.row([
        "chase + evaluate".to_string(),
        by_chase.len().to_string(),
        fmt_duration(chase_time),
    ]);
    println!("{}", table.render());
    assert_eq!(by_rewriting, by_chase);
}

/// Naive vs semi-naive chase on the scaled hospital workload,
/// printed as markdown and written to `BENCH_chase.json` for machine
/// consumption.
fn chase_perf(scale: usize) {
    use ontodq_chase::{chase, chase_naive};

    /// Semi-naive tuples/sec measured at the tip of PR 2, before the
    /// interned-symbol storage layer, at the seed `--scale 1` points
    /// (`(edb_tuples, tuples_per_second)`).  Kept as the regression
    /// baseline the JSON note compares against: throughput used to *fall*
    /// as the instance grew.
    const PRE_INTERNING_SEMINAIVE: [(usize, f64); 4] = [
        (828, 124_306.7),
        (1_218, 115_927.9),
        (1_968, 98_032.6),
        (3_468, 73_536.7),
    ];

    /// Semi-naive tuples/sec measured at the tip of PR 5, before the
    /// vectorized join engine and the staged batch firing path (per-trigger
    /// `Assignment` clones, `ground_atom` tuple materialization, separate
    /// head-satisfaction probe and insert), at the `--scale 1` points.
    /// The staged engine must stay at least 3x above the largest point.
    const PRE_STAGED_SEMINAIVE: [(usize, f64); 6] = [
        (828, 199_743.9),
        (1_218, 224_297.1),
        (1_968, 237_772.0),
        (3_468, 175_779.9),
        (6_468, 248_775.9),
        (12_468, 254_008.0),
    ];

    println!("### Chase engine — naive vs delta-driven semi-naive\n");
    let mut table = MarkdownTable::new([
        "edb tuples",
        "chased tuples",
        "rounds",
        "fired",
        "naive",
        "semi-naive",
        "speedup",
        "tuples/sec",
    ]);

    /// Best-of-`runs` wall-clock of `f`, with the last result returned.
    fn time_best<T>(runs: usize, mut f: impl FnMut() -> T) -> (std::time::Duration, T) {
        let mut best = std::time::Duration::MAX;
        let mut last = None;
        for _ in 0..runs {
            let start = Instant::now();
            let out = f();
            best = best.min(start.elapsed());
            last = Some(out);
        }
        (best, last.expect("runs >= 1"))
    }

    let mut entries: Vec<String> = Vec::new();
    let mut seminaive_curve: Vec<(usize, f64)> = Vec::new();
    // The two largest points push the EDB past 8x the seed's smallest
    // instance, where the pre-interning curve had already collapsed.
    for &measurements in &[100usize, 200, 400, 800, 1600, 3200] {
        let workload = generate(&HospitalScale::with_measurements(measurements * scale));
        let compiled = compile(&workload.ontology);
        let edb = compiled.database.total_tuples();

        let (naive_time, naive_result) =
            time_best(5, || chase_naive(&compiled.program, &compiled.database));
        let (semi_time, semi_result) =
            time_best(5, || chase(&compiled.program, &compiled.database));
        assert_eq!(
            naive_result.database.total_tuples(),
            semi_result.database.total_tuples(),
            "naive and semi-naive disagree on the chased instance size"
        );

        let speedup = naive_time.as_secs_f64() / semi_time.as_secs_f64().max(1e-9);
        let tuples_per_sec =
            semi_result.stats.tuples_added as f64 / semi_time.as_secs_f64().max(1e-9);
        seminaive_curve.push((edb, tuples_per_sec));
        let stats = &semi_result.stats;
        table.row([
            edb.to_string(),
            semi_result.database.total_tuples().to_string(),
            stats.rounds.to_string(),
            stats.triggers_fired.to_string(),
            fmt_duration(naive_time),
            fmt_duration(semi_time),
            format!("{speedup:.2}x"),
            format!("{tuples_per_sec:.0}"),
        ]);
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"edb_tuples\": {},\n",
                "      \"chased_tuples\": {},\n",
                "      \"rounds\": {},\n",
                "      \"triggers_fired\": {},\n",
                "      \"triggers_satisfied\": {},\n",
                "      \"tuples_added\": {},\n",
                "      \"naive_seconds\": {:.6},\n",
                "      \"seminaive_seconds\": {:.6},\n",
                "      \"speedup\": {:.3},\n",
                "      \"tuples_per_second\": {:.1}\n",
                "    }}"
            ),
            edb,
            semi_result.database.total_tuples(),
            stats.rounds,
            stats.triggers_fired,
            stats.triggers_satisfied,
            stats.tuples_added,
            naive_time.as_secs_f64(),
            semi_time.as_secs_f64(),
            speedup,
            tuples_per_sec,
        ));
    }
    println!("{}", table.render());

    // Regression note: pre-interning throughput fell with scale; the
    // interned storage layer must hold (or raise) it.
    let (first_edb, first_tps) = seminaive_curve.first().copied().unwrap_or((0, 0.0));
    let (last_edb, last_tps) = seminaive_curve.last().copied().unwrap_or((0, 0.0));
    let (pre_first_edb, pre_first_tps) = PRE_INTERNING_SEMINAIVE[0];
    let (pre_last_edb, pre_last_tps) = PRE_INTERNING_SEMINAIVE[PRE_INTERNING_SEMINAIVE.len() - 1];
    let (staged_base_edb, staged_base_tps) = PRE_STAGED_SEMINAIVE[PRE_STAGED_SEMINAIVE.len() - 1];
    let regression_note = format!(
        "pre-interning (PR 2, Vec<Value::Str(String)> tuples, SipHash joins) semi-naive \
         throughput FELL from {:.0} tuples/s at {} EDB tuples to {:.0} at {}; \
         post-interning (Sym(u32) values, Arc<[Value]> tuples, FxHash joins) it reached \
         {:.0} tuples/s at {} EDB tuples (PR 5); the columnar join engine with the \
         staged batch firing path (row-id probes, binder-stack bindings, fused \
         satisfaction-check+insert) runs at {:.0} tuples/s at {} EDB tuples and {:.0} \
         at {} — the curve must stay monotone-or-flat (largest-scale >= smallest-scale) \
         and the largest point at least 3x the PR-5 baseline",
        pre_first_tps,
        pre_first_edb,
        pre_last_tps,
        pre_last_edb,
        staged_base_tps,
        staged_base_edb,
        first_tps,
        first_edb,
        last_tps,
        last_edb,
    );
    let pre_baseline: Vec<String> = PRE_INTERNING_SEMINAIVE
        .iter()
        .map(|(edb, tps)| {
            format!("    {{ \"edb_tuples\": {edb}, \"tuples_per_second\": {tps:.1} }}")
        })
        .collect();
    let staged_baseline: Vec<String> = PRE_STAGED_SEMINAIVE
        .iter()
        .map(|(edb, tps)| {
            format!("    {{ \"edb_tuples\": {edb}, \"tuples_per_second\": {tps:.1} }}")
        })
        .collect();
    println!("note: {regression_note}\n");

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"chase_naive_vs_seminaive\",\n",
            "  \"workload\": \"scaled_hospital\",\n",
            "  \"regression_note\": \"{}\",\n",
            "  \"pre_interning_seminaive_baseline\": [\n{}\n  ],\n",
            "  \"pre_staged_seminaive_baseline\": [\n{}\n  ],\n",
            "  \"scales\": [\n{}\n  ]\n",
            "}}\n"
        ),
        regression_note,
        pre_baseline.join(",\n"),
        staged_baseline.join(",\n"),
        entries.join(",\n")
    );
    let path = "BENCH_chase.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Microbenchmark of the interned storage layer: symbol intern/resolve
/// rates, and join-probe throughput of interned `Value` keys under the
/// FxHash shim vs raw `String` keys under SipHash (the pre-interning
/// representation) — printed as markdown and written to
/// `BENCH_intern.json`.
fn intern_bench(scale: usize) {
    use ontodq_relational::{FxHashMap, SymbolInterner};
    use std::collections::HashMap;

    println!("### Interned-symbol storage layer — microbenchmarks\n");
    let distinct = 50_000 * scale;
    let probes = 2_000_000usize;
    let strings: Vec<String> = (0..distinct)
        .map(|i| format!("member-{:02}-{i}", i % 97))
        .collect();

    // Interning throughput on a fresh, isolated table (cold: every string
    // is new and takes the write path once).
    let table = SymbolInterner::new();
    let start = Instant::now();
    let syms: Vec<ontodq_relational::Sym> = strings.iter().map(|s| table.intern(s)).collect();
    let cold = start.elapsed();

    // Re-interning (warm: read path only).
    let start = Instant::now();
    for s in &strings {
        std::hint::black_box(table.intern(s));
    }
    let warm = start.elapsed();

    // Resolution.
    let start = Instant::now();
    for &sym in &syms {
        std::hint::black_box(table.resolve(sym));
    }
    let resolve = start.elapsed();

    // Join-probe throughput: interned Value keys + FxHash vs the
    // pre-interning shape (owned String keys + SipHash).
    let values: Vec<Value> = strings.iter().map(Value::str).collect();
    let mut interned_map: FxHashMap<Value, usize> = FxHashMap::default();
    for (i, v) in values.iter().enumerate() {
        interned_map.insert(*v, i);
    }
    let start = Instant::now();
    let mut hits = 0usize;
    for i in 0..probes {
        let v = &values[(i * 31) % values.len()];
        if interned_map.contains_key(v) {
            hits += 1;
        }
    }
    let interned_probe = start.elapsed();
    assert_eq!(hits, probes);

    let mut string_map: HashMap<String, usize> = HashMap::new();
    for (i, s) in strings.iter().enumerate() {
        string_map.insert(s.clone(), i);
    }
    let start = Instant::now();
    let mut hits = 0usize;
    for i in 0..probes {
        let s = &strings[(i * 31) % strings.len()];
        if string_map.contains_key(s.as_str()) {
            hits += 1;
        }
    }
    let string_probe = start.elapsed();
    assert_eq!(hits, probes);

    let rate = |n: usize, d: std::time::Duration| n as f64 / d.as_secs_f64().max(1e-9);
    let probe_speedup = string_probe.as_secs_f64() / interned_probe.as_secs_f64().max(1e-9);
    let mut table_md = MarkdownTable::new(["operation", "ops", "elapsed", "ops/sec"]);
    table_md.row([
        "intern (cold, new symbols)".to_string(),
        distinct.to_string(),
        fmt_duration(cold),
        format!("{:.0}", rate(distinct, cold)),
    ]);
    table_md.row([
        "intern (warm, read path)".to_string(),
        distinct.to_string(),
        fmt_duration(warm),
        format!("{:.0}", rate(distinct, warm)),
    ]);
    table_md.row([
        "resolve".to_string(),
        distinct.to_string(),
        fmt_duration(resolve),
        format!("{:.0}", rate(distinct, resolve)),
    ]);
    table_md.row([
        "probe interned Value (FxHash)".to_string(),
        probes.to_string(),
        fmt_duration(interned_probe),
        format!("{:.0}", rate(probes, interned_probe)),
    ]);
    table_md.row([
        "probe String (SipHash, pre-interning)".to_string(),
        probes.to_string(),
        fmt_duration(string_probe),
        format!("{:.0}", rate(probes, string_probe)),
    ]);
    println!("{}", table_md.render());
    println!("probe speedup (interned vs string keys): {probe_speedup:.2}x\n");

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"intern_bench\",\n",
            "  \"distinct_symbols\": {},\n",
            "  \"probes\": {},\n",
            "  \"intern_cold_per_second\": {:.1},\n",
            "  \"intern_warm_per_second\": {:.1},\n",
            "  \"resolve_per_second\": {:.1},\n",
            "  \"probe_interned_per_second\": {:.1},\n",
            "  \"probe_string_per_second\": {:.1},\n",
            "  \"probe_speedup\": {:.3}\n",
            "}}\n"
        ),
        distinct,
        probes,
        rate(distinct, cold),
        rate(distinct, warm),
        rate(distinct, resolve),
        rate(probes, interned_probe),
        rate(probes, string_probe),
        probe_speedup,
    );
    let path = "BENCH_intern.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// `ontodq-server` under load: read throughput against a snapshot at
/// 1/2/4/8 worker threads, and per-update-batch incremental re-chase
/// latency vs a from-scratch re-assessment — printed as markdown and
/// written to `BENCH_service.json`.
fn service_throughput(scale: usize) {
    use ontodq_server::{QualityService, WorkerPool};
    use std::sync::Arc;

    println!("### ontodq-server — snapshot read throughput and incremental re-chase\n");
    let measurements = 200 * scale;
    let workload = generate(&HospitalScale::with_measurements(measurements));
    let context = workload.context();
    let service = Arc::new(QualityService::new());
    service
        .register_context("scaled", context.clone(), workload.instance.clone())
        .expect("register the scaled context");

    // A mix of quality and plain query shapes over distinct patients, so the
    // prepared-query cache sees many keys rather than one hot entry.
    let patients: Vec<String> = (0..16).map(|p| format!("Patient_{p}")).collect();
    let queries: Vec<(String, bool)> = patients
        .iter()
        .enumerate()
        .map(|(index, patient)| {
            (
                format!("Measurements(t, p, v), p = \"{patient}\""),
                index % 2 == 0,
            )
        })
        .chain([
            ("PatientUnit(Unit_0, d, p)".to_string(), false),
            ("Measurements(t, p, v)".to_string(), true),
        ])
        .collect();

    // -------- read throughput at 1/2/4/8 workers --------
    let total_queries = 4_000 * scale;
    let mut table = MarkdownTable::new(["workers", "queries", "elapsed", "queries/sec"]);
    let mut throughput_entries: Vec<String> = Vec::new();
    for &workers in &[1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        let start = Instant::now();
        let receivers: Vec<_> = (0..total_queries)
            .map(|index| {
                let service = Arc::clone(&service);
                let (text, quality) = queries[index % queries.len()].clone();
                pool.submit(move || {
                    let response = if quality {
                        service.quality_answers("scaled", &text)
                    } else {
                        service.plain_answers("scaled", &text)
                    };
                    response.expect("bench queries answer").answers.len()
                })
            })
            .collect();
        let mut answered = 0usize;
        for receiver in receivers {
            answered += receiver
                .recv()
                .expect("worker delivers")
                .expect("bench jobs do not panic");
        }
        let elapsed = start.elapsed();
        let qps = total_queries as f64 / elapsed.as_secs_f64().max(1e-9);
        table.row([
            workers.to_string(),
            total_queries.to_string(),
            fmt_duration(elapsed),
            format!("{qps:.0}"),
        ]);
        throughput_entries.push(format!(
            "    {{ \"workers\": {workers}, \"queries\": {total_queries}, \"seconds\": {:.6}, \"queries_per_second\": {qps:.1}, \"answers\": {answered} }}",
            elapsed.as_secs_f64(),
        ));
    }
    println!("{}", table.render());

    // -------- incremental vs from-scratch re-chase per update batch --------
    println!("### update batches — incremental re-chase vs from-scratch\n");
    let batch_size = 10 * scale;
    let base: Vec<Tuple> = workload
        .instance
        .relation("Measurements")
        .expect("scaled instance has measurements")
        .tuples()
        .to_vec();
    let mut accumulated = workload.instance.clone();
    let mut table = MarkdownTable::new([
        "batch",
        "facts",
        "incremental",
        "from-scratch",
        "speedup",
        "derived",
    ]);
    let mut update_entries: Vec<String> = Vec::new();
    for batch_index in 0..5usize {
        // New readings at existing (time, patient) pairs with fresh values,
        // so they roll up through the Time dimension like real traffic.
        let batch: Vec<(String, Tuple)> = (0..batch_size)
            .map(|i| {
                let source = &base[(batch_index * batch_size + i) % base.len()];
                let value = 41.0 + (batch_index * batch_size + i) as f64 / 100.0;
                (
                    "Measurements".to_string(),
                    Tuple::new(vec![
                        *source.get(0).unwrap(),
                        *source.get(1).unwrap(),
                        Value::double(value),
                    ]),
                )
            })
            .collect();
        for (name, tuple) in &batch {
            accumulated.insert(name, tuple.clone()).unwrap();
        }

        let report = service
            .insert_facts("scaled", batch)
            .expect("bench batches apply");
        let incremental = report.elapsed;

        let start = Instant::now();
        let scratch = assess(&context, &accumulated);
        let from_scratch = start.elapsed();

        let speedup = from_scratch.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
        table.row([
            report.version.to_string(),
            report.new_facts.to_string(),
            fmt_duration(incremental),
            fmt_duration(from_scratch),
            format!("{speedup:.1}x"),
            report.derived.to_string(),
        ]);
        update_entries.push(format!(
            "    {{ \"batch\": {}, \"facts\": {}, \"incremental_seconds\": {:.6}, \"from_scratch_seconds\": {:.6}, \"speedup\": {:.2}, \"derived\": {}, \"from_scratch_quality_tuples\": {} }}",
            report.version,
            report.new_facts,
            incremental.as_secs_f64(),
            from_scratch.as_secs_f64(),
            speedup,
            report.derived,
            scratch.quality_tuples("Measurements").len(),
        ));
    }
    println!("{}", table.render());

    let cache = service.cache_stats();
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"service_throughput\",\n",
            "  \"workload\": \"scaled_hospital\",\n",
            "  \"scale\": {},\n",
            "  \"measurements\": {},\n",
            "  \"throughput\": [\n{}\n  ],\n",
            "  \"updates\": [\n{}\n  ],\n",
            "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"invalidations\": {}, \"entries\": {} }}\n",
            "}}\n"
        ),
        scale,
        measurements,
        throughput_entries.join(",\n"),
        update_entries.join(",\n"),
        cache.hits,
        cache.misses,
        cache.invalidations,
        cache.entries,
    );
    let path = "BENCH_service.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Durable-restart strategies of `ontodq-store`: cold start from scratch
/// (full re-chase) vs snapshot + WAL-tail replay vs full-WAL replay, plus
/// the WAL-append overhead on the incremental write path — printed as
/// markdown and written to `BENCH_persist.json`.
fn recovery_bench(scale: usize) {
    use ontodq_server::QualityService;
    use ontodq_store::{Store, StoreConfig};
    use std::sync::{Arc, Mutex};

    println!("### ontodq-store — restart strategies and WAL overhead\n");
    let measurements = 200 * scale;
    let workload = generate(&HospitalScale::with_measurements(measurements));
    let context = workload.context();
    let base: Vec<Tuple> = workload
        .instance
        .relation("Measurements")
        .expect("scaled instance has measurements")
        .tuples()
        .to_vec();
    let batch_count = 10usize;
    let batch_size = 10 * scale;
    let snapshot_at = 8usize; // batches folded in before the checkpoint
    let batches: Vec<Vec<(String, Tuple)>> = (0..batch_count)
        .map(|batch_index| {
            (0..batch_size)
                .map(|i| {
                    let source = &base[(batch_index * batch_size + i) % base.len()];
                    let value = 41.0 + (batch_index * batch_size + i) as f64 / 100.0;
                    (
                        "Measurements".to_string(),
                        Tuple::new(vec![
                            *source.get(0).unwrap(),
                            *source.get(1).unwrap(),
                            Value::double(value),
                        ]),
                    )
                })
                .collect()
        })
        .collect();

    let scratch_dir = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "ontodq-recovery-bench-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    // -------- WAL-append overhead on the incremental write path --------
    // The same batch sequence through an in-memory service and a durable
    // one; per-batch apply latency (incremental re-chase + snapshot swap,
    // plus WAL append + fsync on the durable side).
    let mut mem_total = std::time::Duration::ZERO;
    {
        let service = QualityService::new();
        service
            .register_context("scaled", context.clone(), workload.instance.clone())
            .expect("register in-memory context");
        for batch in &batches {
            mem_total += service
                .insert_facts("scaled", batch.clone())
                .expect("bench batches apply")
                .elapsed;
        }
    }
    let durable_dir = scratch_dir("overhead");
    let mut durable_total = std::time::Duration::ZERO;
    {
        let store = Store::open(&durable_dir, StoreConfig::default()).expect("open store");
        let service = QualityService::with_store(Arc::new(Mutex::new(store)));
        service
            .register_context("scaled", context.clone(), workload.instance.clone())
            .expect("register durable context");
        for batch in &batches {
            durable_total += service
                .insert_facts("scaled", batch.clone())
                .expect("bench batches apply")
                .elapsed;
        }
    }
    let mem_mean = mem_total.as_secs_f64() / batch_count as f64;
    let durable_mean = durable_total.as_secs_f64() / batch_count as f64;
    let overhead_ratio = durable_mean / mem_mean.max(1e-9);
    let _ = std::fs::remove_dir_all(&durable_dir);

    let mut table = MarkdownTable::new(["write path", "batches", "mean apply latency"]);
    table.row([
        "in-memory (no WAL)".to_string(),
        batch_count.to_string(),
        fmt_duration(std::time::Duration::from_secs_f64(mem_mean)),
    ]);
    table.row([
        "durable (WAL append + fsync)".to_string(),
        batch_count.to_string(),
        fmt_duration(std::time::Duration::from_secs_f64(durable_mean)),
    ]);
    println!("{}", table.render());
    println!("wal overhead ratio (durable / in-memory): {overhead_ratio:.3}x\n");

    // -------- restart strategies --------
    // Stage two data dirs: one checkpointed after `snapshot_at` batches
    // (snapshot + 2-batch tail) and one never checkpointed (full log).
    let snap_dir = scratch_dir("snap");
    {
        let store = Store::open(&snap_dir, StoreConfig::default()).expect("open store");
        let service = QualityService::with_store(Arc::new(Mutex::new(store)));
        service
            .register_context("scaled", context.clone(), workload.instance.clone())
            .expect("register");
        for batch in &batches[..snapshot_at] {
            service
                .insert_facts("scaled", batch.clone())
                .expect("apply");
        }
        service.persist_all().expect("checkpoint");
        for batch in &batches[snapshot_at..] {
            service
                .insert_facts("scaled", batch.clone())
                .expect("apply");
        }
    }
    let wal_dir = scratch_dir("wal");
    {
        let store = Store::open(&wal_dir, StoreConfig::default()).expect("open store");
        let service = QualityService::with_store(Arc::new(Mutex::new(store)));
        service
            .register_context("scaled", context.clone(), workload.instance.clone())
            .expect("register");
        for batch in &batches {
            service
                .insert_facts("scaled", batch.clone())
                .expect("apply");
        }
    }

    // (a) Cold start: re-chase everything from the accumulated facts.
    let mut accumulated = workload.instance.clone();
    for batch in &batches {
        for (name, tuple) in batch {
            accumulated.insert(name, tuple.clone()).expect("accumulate");
        }
    }
    let start = Instant::now();
    let cold_service = QualityService::new();
    cold_service
        .register_context("scaled", context.clone(), accumulated)
        .expect("cold start");
    let cold = start.elapsed();
    let cold_answers = cold_service
        .quality_answers("scaled", "Measurements(t, p, v)")
        .expect("cold answers")
        .answers
        .len();

    // (b) Snapshot + WAL-tail replay.
    let restart = |dir: &std::path::Path| {
        let start = Instant::now();
        let mut store = Store::open(dir, StoreConfig::default()).expect("open store");
        let mut recovery = store.recover().expect("recover");
        let service = QualityService::with_store(Arc::new(Mutex::new(store)));
        let summary = service
            .register_recovered(
                "scaled",
                context.clone(),
                workload.instance.clone(),
                &mut recovery,
            )
            .expect("register recovered");
        (start.elapsed(), service, summary)
    };
    let (snap_tail, snap_service, snap_summary) = restart(&snap_dir);
    assert!(snap_summary.restored_from_snapshot);
    assert_eq!(snap_summary.replayed_batches, batch_count - snapshot_at);

    // (c) Full-WAL replay (crash before the first checkpoint).
    let (full_replay, wal_service, wal_summary) = restart(&wal_dir);
    assert!(!wal_summary.restored_from_snapshot);
    assert_eq!(wal_summary.replayed_batches, batch_count);

    // All three restarts answer identically.
    for (label, service) in [("snapshot+tail", &snap_service), ("full-wal", &wal_service)] {
        let answers = service
            .quality_answers("scaled", "Measurements(t, p, v)")
            .expect("recovered answers")
            .answers
            .len();
        assert_eq!(answers, cold_answers, "{label} restart diverged");
    }
    let _ = std::fs::remove_dir_all(&snap_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);

    let speedup = cold.as_secs_f64() / snap_tail.as_secs_f64().max(1e-9);
    let mut table = MarkdownTable::new(["restart strategy", "time", "vs cold start"]);
    table.row([
        "cold start (full re-chase)".to_string(),
        fmt_duration(cold),
        "1.00x".to_string(),
    ]);
    table.row([
        format!("snapshot + {}-batch WAL tail", batch_count - snapshot_at),
        fmt_duration(snap_tail),
        format!("{speedup:.2}x faster"),
    ]);
    table.row([
        format!("full-WAL replay ({batch_count} batches)"),
        fmt_duration(full_replay),
        format!(
            "{:.2}x",
            cold.as_secs_f64() / full_replay.as_secs_f64().max(1e-9)
        ),
    ]);
    println!("{}", table.render());

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"recovery_bench\",\n",
            "  \"workload\": \"scaled_hospital\",\n",
            "  \"scale\": {},\n",
            "  \"measurements\": {},\n",
            "  \"batches\": {},\n",
            "  \"batch_facts\": {},\n",
            "  \"snapshot_at_batch\": {},\n",
            "  \"wal_overhead\": {{\n",
            "    \"mem_batch_seconds_mean\": {:.6},\n",
            "    \"durable_batch_seconds_mean\": {:.6},\n",
            "    \"overhead_ratio\": {:.3}\n",
            "  }},\n",
            "  \"restart\": {{\n",
            "    \"cold_start_seconds\": {:.6},\n",
            "    \"snapshot_tail_seconds\": {:.6},\n",
            "    \"full_wal_replay_seconds\": {:.6},\n",
            "    \"snapshot_tail_speedup_vs_cold\": {:.3}\n",
            "  }},\n",
            "  \"recovered_quality_answers\": {},\n",
            "  \"restarts_agree\": true\n",
            "}}\n"
        ),
        scale,
        measurements,
        batch_count,
        batch_size,
        snapshot_at,
        mem_mean,
        durable_mean,
        overhead_ratio,
        cold.as_secs_f64(),
        snap_tail.as_secs_f64(),
        full_replay.as_secs_f64(),
        speedup,
        cold_answers,
    );
    let path = "BENCH_persist.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Demand-driven (magic-set restricted chase) vs full-materialization query
/// latency across the selectivity spectrum of `ontodq-workload`'s query
/// generator — printed as markdown and written to `BENCH_query.json`.
///
/// Both paths start from the same compiled-but-unchased contextual instance
/// (what a server holds right after registration parsing, before any
/// materialization): "full" chases the whole program then evaluates, the
/// paper's materialize-then-query baseline; "demand" magic-transforms the
/// quality-rewritten query and chases only the relevant fragment.  Answers
/// are asserted equal on every query.
fn query_perf(scale: usize) {
    use ontodq_core::{compile_context, rewrite_to_quality};
    use ontodq_workload::{generate_queries, Selectivity};

    println!("### Demand-driven (magic-set) vs full-materialization query answering\n");
    let mut table = MarkdownTable::new([
        "measurements",
        "query",
        "class",
        "answers",
        "full (chase+eval)",
        "demand (magic+chase+eval)",
        "speedup",
        "demanded tuples",
        "full tuples",
    ]);

    /// Best-of-`runs` wall-clock of `f`, with the last result returned.
    fn time_best<T>(runs: usize, mut f: impl FnMut() -> T) -> (std::time::Duration, T) {
        let mut best = std::time::Duration::MAX;
        let mut last = None;
        for _ in 0..runs {
            let start = Instant::now();
            let out = f();
            best = best.min(start.elapsed());
            last = Some(out);
        }
        (best, last.expect("runs >= 1"))
    }

    let mut scale_entries: Vec<String> = Vec::new();
    let mut selective_speedup_at_largest = 0.0f64;
    let sizes = [100usize, 200, 400, 800];
    for (size_index, &measurements) in sizes.iter().enumerate() {
        let hospital_scale = HospitalScale::with_measurements(measurements * scale);
        let workload = generate(&hospital_scale);
        let context = workload.context();
        let (program, database) = compile_context(&context, &workload.instance);
        let queries = generate_queries(&hospital_scale, 2, 7);

        let mut query_entries: Vec<String> = Vec::new();
        let mut best_selective_speedup = 0.0f64;
        for spec in &queries {
            let query =
                ontodq_server::parse_query_text(&spec.text).expect("generated queries parse");
            let rewritten = rewrite_to_quality(&context, &query);

            let (full_time, full_answers) = time_best(3, || {
                let chased = ontodq_chase::chase(&program, &database);
                let tuples = ontodq_chase::evaluate_project(
                    &chased.database,
                    &rewritten.body,
                    &rewritten.answer_variables,
                );
                let answers: ontodq_qa::AnswerSet =
                    ontodq_qa::AnswerSet::from_tuples(tuples).certain();
                (answers, chased.stats.tuples_added)
            });
            let (demand_time, demand_answers) = time_best(3, || {
                let demand = ontodq_qa::answer_on_demand(&program, &database, &rewritten);
                (demand.answers, demand.chase.stats.tuples_added)
            });
            assert_eq!(
                full_answers.0, demand_answers.0,
                "demand vs full diverge on {} at {} measurements",
                spec.text, measurements
            );

            let speedup = full_time.as_secs_f64() / demand_time.as_secs_f64().max(1e-9);
            if spec.class != Selectivity::Broad {
                best_selective_speedup = best_selective_speedup.max(speedup);
            }
            table.row([
                (measurements * scale).to_string(),
                spec.label.clone(),
                spec.class.to_string(),
                full_answers.0.len().to_string(),
                fmt_duration(full_time),
                fmt_duration(demand_time),
                format!("{speedup:.1}x"),
                demand_answers.1.to_string(),
                full_answers.1.to_string(),
            ]);
            query_entries.push(format!(
                concat!(
                    "      {{ \"label\": \"{}\", \"class\": \"{}\", \"answers\": {}, ",
                    "\"full_seconds\": {:.6}, \"demand_seconds\": {:.6}, \"speedup\": {:.2}, ",
                    "\"demand_tuples_added\": {}, \"full_tuples_added\": {} }}"
                ),
                spec.label,
                spec.class,
                full_answers.0.len(),
                full_time.as_secs_f64(),
                demand_time.as_secs_f64(),
                speedup,
                demand_answers.1,
                full_answers.1,
            ));
        }
        if size_index == sizes.len() - 1 {
            selective_speedup_at_largest = best_selective_speedup;
        }
        scale_entries.push(format!(
            "    {{\n      \"measurements\": {},\n      \"queries\": [\n{}\n      ]\n    }}",
            measurements * scale,
            query_entries.join(",\n"),
        ));
    }
    println!("{}", table.render());
    println!(
        "selective speedup at largest scale (best point/narrow query): {selective_speedup_at_largest:.1}x\n"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"query_perf_demand_vs_materialize\",\n",
            "  \"workload\": \"scaled_hospital + querygen selectivity sweep\",\n",
            "  \"scale\": {},\n",
            "  \"selective_speedup_at_largest_scale\": {:.2},\n",
            "  \"note\": \"both paths start from the compiled, unchased contextual instance; ",
            "full = whole-program chase + evaluate, demand = magic-set transform + ",
            "relevance/binding-restricted chase + evaluate; answers asserted equal\",\n",
            "  \"scales\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale,
        selective_speedup_at_largest,
        scale_entries.join(",\n"),
    );
    let path = "BENCH_query.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Microbenchmark of the columnar join engine, written to `BENCH_join.json`:
///
/// 1. **Probe cost** — `select_ids_into` with every match materialized
///    through `row_tuple` (one `Tuple` allocation per matched row) vs the
///    bare id-returning probe (the join-internal path: row ids into a
///    reused buffer) over the skewed workload's hot-key relation.
/// 2. **Join kernels** — the forced hash path vs the forced
///    worst-case-optimal path (and the `Auto` planner) chasing the cyclic
///    triangle program over Zipf-skewed and uniform edges, with the
///    process-wide join counters diffed around each run and reported per
///    fired trigger (probes, galloping steps, WCO seeks, and tuple
///    materializations — the allocation proxy, since the workspace forbids
///    the `unsafe` a counting global allocator needs).
fn join_bench(scale: usize) {
    use ontodq_chase::{ChaseConfig, ChaseEngine, JoinEngine};
    use ontodq_relational::{JoinCounters, RelationInstance, RelationSchema, StampWindow};
    use ontodq_workload::{generate_skewed, SkewedScale};

    fn time_best<T>(runs: usize, mut f: impl FnMut() -> T) -> (std::time::Duration, T) {
        let mut best = std::time::Duration::MAX;
        let mut last = None;
        for _ in 0..runs {
            let start = Instant::now();
            let out = f();
            best = best.min(start.elapsed());
            last = Some(out);
        }
        (best, last.expect("runs >= 1"))
    }

    println!("### Join engine — probe cost and kernel comparison\n");

    // --- 1. Row-materializing vs id-returning probes. -------------------
    let probe_workload = generate_skewed(&SkewedScale::with_edges(4_000 * scale));
    let source = probe_workload
        .database
        .relation("R")
        .expect("the skewed workload always has R");
    let mut relation = RelationInstance::new(RelationSchema::untyped("R", 2));
    for tuple in source.iter() {
        relation.insert(tuple).unwrap();
    }
    relation.build_index(0);
    let keys: Vec<_> = relation
        .column(0)
        .expect("binary relation")
        .iter()
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let rounds = 64usize;

    let mut ids = Vec::new();
    let before_rows = JoinCounters::snapshot();
    let (row_time, row_matched) = time_best(3, || {
        let mut matched = 0usize;
        for _ in 0..rounds {
            for key in &keys {
                ids.clear();
                relation.select_ids_into(&[(0, *key)], StampWindow::all(), &mut ids);
                let rows: Vec<_> = ids.iter().map(|&r| relation.row_tuple(r)).collect();
                matched += rows.len();
            }
        }
        matched
    });
    let row_materialized = JoinCounters::snapshot()
        .since(&before_rows)
        .materializations;

    let before_ids = JoinCounters::snapshot();
    let (id_time, id_matched) = time_best(3, || {
        let mut matched = 0usize;
        for _ in 0..rounds {
            for key in &keys {
                ids.clear();
                relation.select_ids_into(&[(0, *key)], StampWindow::all(), &mut ids);
                matched += ids.len();
            }
        }
        matched
    });
    let id_materialized = JoinCounters::snapshot().since(&before_ids).materializations;
    assert_eq!(row_matched, id_matched, "probe paths disagree on matches");

    let probes = rounds * keys.len();
    let probe_speedup = row_time.as_secs_f64() / id_time.as_secs_f64().max(1e-9);
    let mut probe_table = MarkdownTable::new([
        "probe path",
        "probes",
        "matched rows",
        "time",
        "ns/probe",
        "tuples materialized",
    ]);
    for (label, time, materialized) in [
        (
            "ids + row_tuple (materializing)",
            row_time,
            row_materialized,
        ),
        ("select_ids_into (id-returning)", id_time, id_materialized),
    ] {
        probe_table.row([
            label.to_string(),
            probes.to_string(),
            row_matched.to_string(),
            fmt_duration(time),
            format!("{:.0}", time.as_secs_f64() * 1e9 / probes as f64),
            materialized.to_string(),
        ]);
    }
    println!("{}", probe_table.render());
    println!("note: id-returning probes are {probe_speedup:.2}x faster and allocation-free\n");

    // --- 2. Hash vs worst-case-optimal kernels on the triangle chase. ---
    let mut kernel_table = MarkdownTable::new([
        "edges/rel",
        "skew",
        "kernel",
        "triangles",
        "time",
        "probes/trigger",
        "gallops/trigger",
        "wco seeks/trigger",
        "materializations/trigger",
    ]);
    let mut kernel_entries: Vec<String> = Vec::new();
    let mut skewed_speedup = 0.0f64;
    for (skew_label, base) in [
        ("zipf-1.1", SkewedScale::with_edges(600 * scale)),
        ("uniform", SkewedScale::with_edges(600 * scale).uniform()),
    ] {
        let workload = generate_skewed(&base);
        let mut per_kernel: Vec<(String, f64)> = Vec::new();
        for (kernel_label, engine) in [
            ("hash", JoinEngine::Hash),
            ("leapfrog", JoinEngine::Leapfrog),
            ("auto", JoinEngine::Auto),
        ] {
            let run = || {
                ChaseEngine::new(ChaseConfig::with_join(engine))
                    .run(&workload.program, &workload.database)
            };
            let (time, result) = time_best(3, run);
            let before = JoinCounters::snapshot();
            let counted = run();
            let delta = JoinCounters::snapshot().since(&before);
            let triggers = counted.stats.triggers_fired.max(1) as f64;
            let triangles = result
                .database
                .relation("Tri")
                .map(|r| r.len())
                .unwrap_or(0);
            per_kernel.push((kernel_label.to_string(), time.as_secs_f64()));
            kernel_table.row([
                base.edges.to_string(),
                skew_label.to_string(),
                kernel_label.to_string(),
                triangles.to_string(),
                fmt_duration(time),
                format!("{:.2}", delta.probes as f64 / triggers),
                format!("{:.2}", delta.gallop_seeks as f64 / triggers),
                format!("{:.2}", delta.wco_seeks as f64 / triggers),
                format!("{:.2}", delta.materializations as f64 / triggers),
            ]);
            kernel_entries.push(format!(
                concat!(
                    "    {{\n",
                    "      \"edges_per_relation\": {},\n",
                    "      \"skew\": \"{}\",\n",
                    "      \"kernel\": \"{}\",\n",
                    "      \"triangles\": {},\n",
                    "      \"seconds\": {:.6},\n",
                    "      \"triggers_fired\": {},\n",
                    "      \"probes_per_trigger\": {:.3},\n",
                    "      \"gallop_seeks_per_trigger\": {:.3},\n",
                    "      \"wco_seeks_per_trigger\": {:.3},\n",
                    "      \"materializations_per_trigger\": {:.3}\n",
                    "    }}"
                ),
                base.edges,
                skew_label,
                kernel_label,
                triangles,
                time.as_secs_f64(),
                counted.stats.triggers_fired,
                delta.probes as f64 / triggers,
                delta.gallop_seeks as f64 / triggers,
                delta.wco_seeks as f64 / triggers,
                delta.materializations as f64 / triggers,
            ));
        }
        if skew_label.starts_with("zipf") {
            let hash = per_kernel.iter().find(|(k, _)| k == "hash").unwrap().1;
            let wco = per_kernel.iter().find(|(k, _)| k == "leapfrog").unwrap().1;
            skewed_speedup = hash / wco.max(1e-9);
        }
    }
    println!("{}", kernel_table.render());
    println!("note: on the skewed triangle the worst-case-optimal kernel is {skewed_speedup:.2}x the hash kernel\n");

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"join_bench\",\n",
            "  \"workload\": \"skewed triangle (R,S,T + Tri/Wedge program)\",\n",
            "  \"scale\": {},\n",
            "  \"probe\": {{\n",
            "    \"probes\": {},\n",
            "    \"matched_rows\": {},\n",
            "    \"select_seconds\": {:.6},\n",
            "    \"select_ids_into_seconds\": {:.6},\n",
            "    \"select_tuples_materialized\": {},\n",
            "    \"select_ids_into_tuples_materialized\": {},\n",
            "    \"id_path_speedup\": {:.3}\n",
            "  }},\n",
            "  \"skewed_wco_over_hash_speedup\": {:.3},\n",
            "  \"note\": \"materializations count Arc<[Value]> tuple builds, the observable ",
            "allocation proxy (no unsafe, so no counting global allocator); kernel runs are ",
            "whole chases of the cyclic triangle program, counters diffed per fired trigger\",\n",
            "  \"kernels\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale,
        probes,
        row_matched,
        row_time.as_secs_f64(),
        id_time.as_secs_f64(),
        row_materialized,
        id_materialized,
        probe_speedup,
        skewed_speedup,
        kernel_entries.join(",\n"),
    );
    let path = "BENCH_join.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Delete-and-rederive retraction vs from-scratch re-chase of the surviving
/// EDB, across scaled-hospital sizes — printed as markdown and written to
/// `BENCH_retract.json`.
///
/// For each scale, ~5% of the `Measurements` instance is retracted as one
/// batch.  The DRed column times [`ontodq_core::ResumableAssessment::retract_batch`]
/// on a fully-chased assessment; the from-scratch column times building a
/// fresh assessment (full chase) over the surviving instance — what the
/// server would pay for every correction without the retraction subsystem.
/// Both paths must agree on the resulting quality versions.
fn retract_bench(scale: usize) {
    use ontodq_core::ResumableAssessment;

    println!("### Retraction — delete-and-rederive vs from-scratch re-chase\n");
    let mut table = MarkdownTable::new([
        "measurements",
        "edb tuples",
        "retracted",
        "cascaded",
        "rederived",
        "dred",
        "from-scratch",
        "speedup",
    ]);

    let mut entries: Vec<String> = Vec::new();
    for &measurements in &[100usize, 200, 400, 800] {
        let workload = generate(&HospitalScale::with_measurements(measurements * scale));
        let context = workload.context();
        let live = workload.instance.relation("Measurements").unwrap().len();
        let victims: Vec<(String, Tuple)> = workload
            .instance
            .relation("Measurements")
            .unwrap()
            .iter()
            .take((live / 20).max(1))
            .map(|tuple| ("Measurements".to_string(), tuple))
            .collect();
        let mut surviving = workload.instance.clone();
        for (relation, tuple) in &victims {
            surviving.delete(relation, tuple);
        }

        // DRed: the retraction step alone, on a fully-chased assessment
        // (rebuilt per run — retraction mutates the writer).
        let mut dred_time = std::time::Duration::MAX;
        let mut stats = None;
        let mut dred_quality = None;
        for _ in 0..3 {
            let mut writer = ResumableAssessment::new(context.clone(), workload.instance.clone());
            let start = Instant::now();
            let result = writer.retract_batch(victims.iter().cloned());
            dred_time = dred_time.min(start.elapsed());
            stats = Some(result.stats);
            dred_quality = Some(writer.extract().0);
        }
        let stats = stats.expect("runs >= 1");

        // From-scratch: a full chase of the surviving instance.
        let mut scratch_time = std::time::Duration::MAX;
        let mut scratch_quality = None;
        for _ in 0..3 {
            let start = Instant::now();
            let mut writer = ResumableAssessment::new(context.clone(), surviving.clone());
            scratch_time = scratch_time.min(start.elapsed());
            scratch_quality = Some(writer.extract().0);
        }

        // Both paths must land on the same quality versions.
        let dred_quality = dred_quality.expect("runs >= 1");
        let scratch_quality = scratch_quality.expect("runs >= 1");
        assert_eq!(
            dred_quality.total_tuples(),
            scratch_quality.total_tuples(),
            "DRed and from-scratch disagree on the quality versions"
        );

        let edb = workload.instance.total_tuples();
        let speedup = scratch_time.as_secs_f64() / dred_time.as_secs_f64().max(1e-9);
        table.row([
            (measurements * scale).to_string(),
            edb.to_string(),
            stats.retracted.to_string(),
            stats.cascaded.to_string(),
            stats.rederived.to_string(),
            fmt_duration(dred_time),
            fmt_duration(scratch_time),
            format!("{speedup:.2}x"),
        ]);
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"measurements\": {},\n",
                "      \"edb_tuples\": {},\n",
                "      \"requested\": {},\n",
                "      \"retracted\": {},\n",
                "      \"cascaded\": {},\n",
                "      \"rederived\": {},\n",
                "      \"dred_seconds\": {:.6},\n",
                "      \"scratch_seconds\": {:.6},\n",
                "      \"speedup\": {:.3}\n",
                "    }}"
            ),
            measurements * scale,
            edb,
            stats.requested,
            stats.retracted,
            stats.cascaded,
            stats.rederived,
            dred_time.as_secs_f64(),
            scratch_time.as_secs_f64(),
            speedup,
        ));
    }
    println!("{}", table.render());

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"retract_dred_vs_scratch\",\n",
            "  \"workload\": \"scaled_hospital\",\n",
            "  \"note\": \"dred_seconds times ResumableAssessment::retract_batch (cascade + \
             tombstone + rederive) on a chased assessment; scratch_seconds times a full \
             fresh chase of the surviving EDB; DRed must be faster at every scale\",\n",
            "  \"scales\": [\n{}\n  ]\n",
            "}}\n"
        ),
        entries.join(",\n")
    );
    let path = "BENCH_retract.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The fault-injection layer's price when nothing is armed, and a
/// degradation drill through the health machine — printed as markdown and
/// written to `BENCH_faults.json`.
///
/// Every WAL write/fsync and snapshot write/rename in `ontodq-store` now
/// routes through an [`ontodq_store::IoPolicy`] decision point.  The bench
/// answers two questions: (1) what does that indirection cost on the
/// durable write path when the policy is the default passthrough vs an
/// armed-but-empty [`ontodq_store::FaultSchedule`] (a mutex acquisition
/// per guarded op), and (2) how expensive is the degradation round-trip —
/// a WAL fsync failure flips the service read-only, later writes are
/// refused at the admission check (no chase work), and one recovery probe
/// (`persist_all`) restores service.
fn faults_bench(scale: usize) {
    use ontodq_server::{QualityService, ServiceError};
    use ontodq_store::{FaultSchedule, IoOp, SharedIoPolicy, Store, StoreConfig};
    use std::sync::{Arc, Mutex};

    println!("### ontodq-store — fault-injection layer overhead and degradation drill\n");
    let measurements = 200 * scale;
    let workload = generate(&HospitalScale::with_measurements(measurements));
    let context = workload.context();
    let base: Vec<Tuple> = workload
        .instance
        .relation("Measurements")
        .expect("scaled instance has measurements")
        .tuples()
        .to_vec();
    let batch_count = 10usize;
    let batch_size = 10 * scale;
    let batches: Vec<Vec<(String, Tuple)>> = (0..batch_count)
        .map(|batch_index| {
            (0..batch_size)
                .map(|i| {
                    let source = &base[(batch_index * batch_size + i) % base.len()];
                    let value = 41.0 + (batch_index * batch_size + i) as f64 / 100.0;
                    (
                        "Measurements".to_string(),
                        Tuple::new(vec![
                            *source.get(0).unwrap(),
                            *source.get(1).unwrap(),
                            Value::double(value),
                        ]),
                    )
                })
                .collect()
        })
        .collect();

    let scratch_dir = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("ontodq-faults-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    // -------- disarmed overhead on the durable write path --------
    let run_batches = |service: &QualityService| {
        let mut total = std::time::Duration::ZERO;
        for batch in &batches {
            total += service
                .insert_facts("scaled", batch.clone())
                .expect("bench batches apply")
                .elapsed;
        }
        total.as_secs_f64() / batch_count as f64
    };

    // Untimed warmup so neither timed run pays the cold file-system and
    // allocator costs of the very first durable apply sequence.
    let warm_dir = scratch_dir("warmup");
    {
        let store = Store::open(&warm_dir, StoreConfig::default()).expect("open store");
        let service = QualityService::with_store(Arc::new(Mutex::new(store)));
        service
            .register_context("scaled", context.clone(), workload.instance.clone())
            .expect("register warmup context");
        run_batches(&service);
    }
    let _ = std::fs::remove_dir_all(&warm_dir);

    let pass_dir = scratch_dir("passthrough");
    let passthrough_mean = {
        let store = Store::open(&pass_dir, StoreConfig::default()).expect("open store");
        let service = QualityService::with_store(Arc::new(Mutex::new(store)));
        service
            .register_context("scaled", context.clone(), workload.instance.clone())
            .expect("register passthrough context");
        run_batches(&service)
    };
    let _ = std::fs::remove_dir_all(&pass_dir);

    let armed_dir = scratch_dir("armed");
    let armed_mean = {
        // An armed but empty schedule: every guarded op consults the
        // policy mutex and gets `Pass`.
        let policy: SharedIoPolicy = Arc::new(Mutex::new(FaultSchedule::new()));
        let store =
            Store::open_with_policy(&armed_dir, StoreConfig::default(), policy).expect("open");
        let service = QualityService::with_store(Arc::new(Mutex::new(store)));
        service
            .register_context("scaled", context.clone(), workload.instance.clone())
            .expect("register armed context");
        run_batches(&service)
    };
    let _ = std::fs::remove_dir_all(&armed_dir);
    let overhead_ratio = armed_mean / passthrough_mean.max(1e-9);

    let mut table = MarkdownTable::new(["write path", "batches", "mean apply latency"]);
    table.row([
        "durable, passthrough policy".to_string(),
        batch_count.to_string(),
        fmt_duration(std::time::Duration::from_secs_f64(passthrough_mean)),
    ]);
    table.row([
        "durable, armed empty schedule".to_string(),
        batch_count.to_string(),
        fmt_duration(std::time::Duration::from_secs_f64(armed_mean)),
    ]);
    println!("{}", table.render());
    println!("fault-layer overhead ratio (armed / passthrough): {overhead_ratio:.3}x\n");

    // -------- degradation drill --------
    // Fail the third WAL fsync: two batches ack, one lands in limbo, the
    // rest are refused read-only; a single probe checkpoint heals.
    let drill_dir = scratch_dir("drill");
    let schedule = Arc::new(Mutex::new(FaultSchedule::new()));
    schedule
        .lock()
        .expect("plan lock")
        .fail_nth(IoOp::WalFsync, 2);
    let policy: SharedIoPolicy = schedule;
    let store = Store::open_with_policy(&drill_dir, StoreConfig::default(), policy).expect("open");
    let service = QualityService::with_store(Arc::new(Mutex::new(store)));
    service.set_probe_interval(std::time::Duration::from_secs(3600));
    service
        .register_context("scaled", context.clone(), workload.instance.clone())
        .expect("register drill context");
    let mut acked = 0usize;
    let mut limbo = 0usize;
    let mut refused = 0usize;
    let mut refusal_total = std::time::Duration::ZERO;
    for batch in &batches {
        let start = Instant::now();
        match service.insert_facts("scaled", batch.clone()) {
            Ok(_) => acked += 1,
            Err(ServiceError::Store(_)) => limbo += 1,
            Err(ServiceError::Degraded(_)) => {
                refused += 1;
                refusal_total += start.elapsed();
            }
            Err(e) => panic!("drill: unexpected error: {e}"),
        }
    }
    let refusal_mean = refusal_total.as_secs_f64() / refused.max(1) as f64;
    let probe_start = Instant::now();
    service.persist_all().expect("the probe checkpoint heals");
    let probe_seconds = probe_start.elapsed().as_secs_f64();
    let healthy_after_probe = matches!(service.health().state, ontodq_server::Health::Healthy);
    let post_probe_write_ok = service.insert_facts("scaled", batches[0].clone()).is_ok();
    let _ = std::fs::remove_dir_all(&drill_dir);

    println!(
        "degradation drill: acked={acked} limbo={limbo} refused={refused} \
         (mean refusal {}), probe checkpoint {} -> healthy={healthy_after_probe}\n",
        fmt_duration(std::time::Duration::from_secs_f64(refusal_mean)),
        fmt_duration(std::time::Duration::from_secs_f64(probe_seconds)),
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"scale\": {},\n",
            "  \"measurements\": {},\n",
            "  \"batches\": {},\n",
            "  \"batch_size\": {},\n",
            "  \"write_path\": {{\n",
            "    \"passthrough_mean_seconds\": {:.6},\n",
            "    \"armed_schedule_mean_seconds\": {:.6},\n",
            "    \"overhead_ratio\": {:.3}\n",
            "  }},\n",
            "  \"degradation_drill\": {{\n",
            "    \"acked_batches\": {},\n",
            "    \"limbo_batches\": {},\n",
            "    \"refused_writes\": {},\n",
            "    \"refusal_mean_seconds\": {:.9},\n",
            "    \"probe_seconds\": {:.6},\n",
            "    \"healthy_after_probe\": {},\n",
            "    \"post_probe_write_ok\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        scale,
        measurements,
        batch_count,
        batch_size,
        passthrough_mean,
        armed_mean,
        overhead_ratio,
        acked,
        limbo,
        refused,
        refusal_mean,
        probe_seconds,
        healthy_after_probe,
        post_probe_write_ok,
    );
    let path = "BENCH_faults.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The chase profiler's overhead: the semi-naive chase of the scaled
/// hospital workload with per-rule profiling **on** (the production
/// default — every served context pays it) vs **off**, best-of-N at each
/// scale point.  Writes `BENCH_obs.json`; CI guards the overall
/// instrumented/uninstrumented ratio at <= 1.03 and re-checks the armed
/// (profile-on) throughput curve for monotone-or-flat scaling.
fn obs_bench(scale: usize) {
    use ontodq_chase::{ChaseConfig, ChaseEngine};

    println!("### Chase profiler overhead — profiling on vs off\n");
    let mut table = MarkdownTable::new([
        "edb tuples",
        "chased tuples",
        "profiled",
        "unprofiled",
        "overhead",
        "tuples/sec (profiled)",
    ]);

    /// Best-of-`runs` wall-clock of `f`, with the last result returned.
    fn time_best<T>(runs: usize, mut f: impl FnMut() -> T) -> (std::time::Duration, T) {
        let mut best = std::time::Duration::MAX;
        let mut last = None;
        for _ in 0..runs {
            let start = Instant::now();
            let out = f();
            best = best.min(start.elapsed());
            last = Some(out);
        }
        (best, last.expect("runs >= 1"))
    }

    let profiled_engine = ChaseEngine::new(ChaseConfig::default());
    let unprofiled_engine = ChaseEngine::new(ChaseConfig {
        profile: false,
        ..ChaseConfig::default()
    });

    let mut entries: Vec<String> = Vec::new();
    let mut profiled_total = 0.0f64;
    let mut unprofiled_total = 0.0f64;
    let mut armed_curve: Vec<(usize, f64)> = Vec::new();
    for &measurements in &[100usize, 200, 400, 800] {
        let workload = generate(&HospitalScale::with_measurements(measurements * scale));
        let compiled = compile(&workload.ontology);
        let edb = compiled.database.total_tuples();

        let (on_time, on_result) = time_best(5, || {
            profiled_engine.run(&compiled.program, &compiled.database)
        });
        let (off_time, off_result) = time_best(5, || {
            unprofiled_engine.run(&compiled.program, &compiled.database)
        });
        assert_eq!(
            on_result.database.total_tuples(),
            off_result.database.total_tuples(),
            "profiling must not change the chased instance"
        );
        assert!(
            on_result.profile.enabled && !off_result.profile.enabled,
            "the profile flag must round-trip onto the result"
        );

        let ratio = on_time.as_secs_f64() / off_time.as_secs_f64().max(1e-9);
        let tuples_per_sec = on_result.stats.tuples_added as f64 / on_time.as_secs_f64().max(1e-9);
        profiled_total += on_time.as_secs_f64();
        unprofiled_total += off_time.as_secs_f64();
        armed_curve.push((edb, tuples_per_sec));
        table.row([
            edb.to_string(),
            on_result.database.total_tuples().to_string(),
            fmt_duration(on_time),
            fmt_duration(off_time),
            format!("{:.1}%", (ratio - 1.0) * 100.0),
            format!("{tuples_per_sec:.0}"),
        ]);
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"edb_tuples\": {},\n",
                "      \"chased_tuples\": {},\n",
                "      \"tuples_added\": {},\n",
                "      \"profiled_seconds\": {:.6},\n",
                "      \"unprofiled_seconds\": {:.6},\n",
                "      \"overhead_ratio\": {:.4},\n",
                "      \"tuples_per_second_profiled\": {:.1}\n",
                "    }}"
            ),
            edb,
            on_result.database.total_tuples(),
            on_result.stats.tuples_added,
            on_time.as_secs_f64(),
            off_time.as_secs_f64(),
            ratio,
            tuples_per_sec,
        ));
    }
    println!("{}", table.render());

    let overall_ratio = profiled_total / unprofiled_total.max(1e-9);
    let (first_edb, first_tps) = armed_curve.first().copied().unwrap_or((0, 0.0));
    let (last_edb, last_tps) = armed_curve.last().copied().unwrap_or((0, 0.0));
    println!(
        "note: per-rule profiling is ON by default in every served context, so its \
         overhead rides every chase; overall instrumented/uninstrumented ratio \
         {overall_ratio:.4} (CI ceiling 1.03), armed throughput {first_tps:.0} tuples/s \
         at {first_edb} EDB tuples -> {last_tps:.0} at {last_edb}\n"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"chase_profiler_overhead\",\n",
            "  \"workload\": \"scaled_hospital\",\n",
            "  \"scale\": {},\n",
            "  \"overhead_ratio\": {:.4},\n",
            "  \"ceiling\": 1.03,\n",
            "  \"scales\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale,
        overall_ratio,
        entries.join(",\n")
    );
    let path = "BENCH_obs.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
