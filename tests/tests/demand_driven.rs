//! Demand-driven query answering equals full-materialization answering.
//!
//! The magic-set chase (`ontodq_datalog::magic_transform` →
//! `ontodq_chase::ChaseEngine::chase_for_query` → the `?d-` verb of
//! `ontodq-server`) is a different *evaluation strategy*, not different
//! semantics: its certain answers must equal those of the fully
//! materialized `?q-` path on every query — on the paper's hospital
//! fixture, on randomized scaled workloads across the selectivity
//! spectrum, and through the server's snapshot/caching machinery.
//! (Certain answers are ground tuples, so equality here is plain set
//! equality; labeled-null renaming cannot distinguish them.)

use ontodq_core::{
    assess, compile_context, quality_answers, quality_answers_on_demand, rewrite_to_quality,
    scenarios, ResumableAssessment,
};
use ontodq_integration_tests::query;
use ontodq_mdm::fixtures::hospital;
use ontodq_qa::AnswerSet;
use ontodq_relational::{Tuple, Value};
use ontodq_server::{parse_query_text, QualityService};
use ontodq_workload::{generate, generate_queries, HospitalScale, Selectivity};

// ---------------------------------------------------------------------
// Hospital fixture: the paper's running example.
// ---------------------------------------------------------------------

#[test]
fn hospital_demand_answers_equal_full_assessment() {
    let context = scenarios::hospital_context();
    let instance = hospital::measurements_database();
    let assessment = assess(&context, &instance);
    for text in [
        // The doctor's query of Examples 1 and 7.
        "Q(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\", t >= @Sep/5-11:45, t <= @Sep/5-12:15.",
        // Per-patient point lookups.
        "Q(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\".",
        "Q(t, p, v) :- Measurements(t, p, v), p = \"Lou Reed\".",
        // A broad scan (no usable binding: relevance restriction only).
        "Q(t, p, v) :- Measurements(t, p, v).",
        // Mixing quality-rewritten and contextual predicates.
        "Q(t, v) :- Measurements(t, p, v), PatientUnit(Standard, d, p).",
        // A Boolean query.
        "Q() :- Measurements(t, p, v), p = \"Tom Waits\".",
    ] {
        let q = query(text);
        assert_eq!(
            quality_answers_on_demand(&context, &instance, &q),
            quality_answers(&context, &assessment, &q),
            "demand vs full diverge on {text}"
        );
    }
}

#[test]
fn hospital_doctor_query_reproduces_example_7_on_demand() {
    let context = scenarios::hospital_context();
    let instance = hospital::measurements_database();
    let answers = quality_answers_on_demand(&context, &instance, &scenarios::doctors_query());
    // Exactly the one quality measurement of Example 7.
    assert_eq!(answers.len(), 1);
    let tuple = answers.to_vec().pop().unwrap();
    assert_eq!(tuple.get(1), Some(&Value::str(hospital::TOM_WAITS)));
    assert_eq!(tuple.get(2), Some(&Value::double(38.2)));
}

#[test]
fn demand_chase_materializes_a_fraction_of_the_instance() {
    let context = scenarios::hospital_context();
    let instance = hospital::measurements_database();
    let (program, database) = compile_context(&context, &instance);
    let q = rewrite_to_quality(
        &context,
        &query("Q(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\"."),
    );
    let full = ontodq_chase::chase(&program, &database);
    let demand = ontodq_qa::answer_on_demand(&program, &database, &q);
    assert!(
        demand.chase.stats.tuples_added < full.stats.tuples_added,
        "demanded {} >= full {}",
        demand.chase.stats.tuples_added,
        full.stats.tuples_added
    );
    assert!(!demand.answers.is_empty());
}

// ---------------------------------------------------------------------
// Randomized scaled workloads across the selectivity spectrum.
// ---------------------------------------------------------------------

fn assert_workload_agreement(scale: &HospitalScale, per_class: usize, query_seed: u64) {
    let workload = generate(scale);
    let context = workload.context();
    let assessment = assess(&context, &workload.instance);
    let mut saw_selective_win = false;
    let (program, database) = compile_context(&context, &workload.instance);
    let full_derived = assessment.chase.stats.tuples_added;
    for spec in generate_queries(scale, per_class, query_seed) {
        let q = parse_query_text(&spec.text).expect("generated queries parse");
        let expected = quality_answers(&context, &assessment, &q);
        let rewritten = rewrite_to_quality(&context, &q);
        let demand = ontodq_qa::answer_on_demand(&program, &database, &rewritten);
        assert_eq!(
            demand.answers, expected,
            "demand vs full diverge on {} (seed {query_seed}, {} measurements)",
            spec.text, scale.measurements
        );
        if spec.class != Selectivity::Broad && demand.chase.stats.tuples_added * 2 < full_derived {
            saw_selective_win = true;
        }
    }
    assert!(
        saw_selective_win,
        "no selective query demanded < half the full materialization"
    );
}

#[test]
fn scaled_workload_agreement_small() {
    assert_workload_agreement(&HospitalScale::small(), 3, 7);
}

#[test]
fn scaled_workload_agreement_medium_across_seeds() {
    for (data_seed, query_seed) in [(7u64, 11u64), (99, 23)] {
        let mut scale = HospitalScale::with_measurements(200);
        scale.seed = data_seed;
        assert_workload_agreement(&scale, 2, query_seed);
    }
}

// ---------------------------------------------------------------------
// Through the server: ?d- == ?q- on live snapshots, across updates.
// ---------------------------------------------------------------------

#[test]
fn server_demand_verb_equals_quality_verb_across_updates() {
    let service = QualityService::new();
    service
        .register_context(
            "hospital",
            scenarios::hospital_context(),
            hospital::measurements_database(),
        )
        .unwrap();
    let queries = [
        "Measurements(t, p, v), p = \"Tom Waits\"",
        "Measurements(t, p, v)",
        "PatientUnit(Standard, d, p)",
    ];
    let check = |version: u64| {
        for text in &queries {
            let quality = service.quality_answers("hospital", text).unwrap();
            let demand = service.demand_answers("hospital", text).unwrap();
            assert_eq!(quality.version, version);
            assert_eq!(demand.version, version);
            assert_eq!(
                quality.answers, demand.answers,
                "?d- vs ?q- diverge on {text} at version {version}"
            );
        }
    };
    check(0);
    // An applied batch bumps the version; both paths must see it.
    service
        .insert_facts(
            "hospital",
            vec![(
                "Measurements".to_string(),
                Tuple::new(vec![
                    Value::parse_time("Sep/6-11:05").unwrap(),
                    Value::str("Lou Reed"),
                    Value::double(39.9),
                ]),
            )],
        )
        .unwrap();
    check(1);
    // The demand answers are cached per version like ?q-.
    let first = service
        .demand_answers("hospital", "Measurements(t, p, v)")
        .unwrap();
    assert!(first.cached);
}

#[test]
fn server_demand_verb_on_scaled_context() {
    let workload = generate(&HospitalScale::small());
    let service = QualityService::new();
    service
        .register_context("scaled", workload.context(), workload.instance.clone())
        .unwrap();
    for spec in generate_queries(&workload.scale, 2, 5) {
        let quality = service.quality_answers("scaled", &spec.text).unwrap();
        let demand = service.demand_answers("scaled", &spec.text).unwrap();
        assert_eq!(
            quality.answers, demand.answers,
            "?d- vs ?q- diverge on {}",
            spec.text
        );
    }
}

// ---------------------------------------------------------------------
// The resumable path: demand answers track incremental batches.
// ---------------------------------------------------------------------

#[test]
fn resumable_demand_answers_track_batches_and_match_scratch() {
    let context = scenarios::hospital_context();
    let mut resumable =
        ResumableAssessment::new(context.clone(), hospital::measurements_database());
    let q = query("Q(t, p, v) :- Measurements(t, p, v).");
    let mut accumulated = hospital::measurements_database();
    for (time, patient, value) in [
        ("Sep/6-11:05", "Lou Reed", 39.9),
        ("Sep/6-12:00", "Lou Reed", 37.2),
    ] {
        let tuple = Tuple::new(vec![
            Value::parse_time(time).unwrap(),
            Value::str(patient),
            Value::double(value),
        ]);
        resumable
            .insert_batch([("Measurements".to_string(), tuple.clone())])
            .unwrap();
        accumulated.insert("Measurements", tuple).unwrap();
        let scratch = assess(&context, &accumulated);
        let expected: AnswerSet = quality_answers(&context, &scratch, &q);
        assert_eq!(resumable.answer_on_demand(&q), expected);
    }
}
