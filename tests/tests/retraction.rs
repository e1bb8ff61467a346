//! Equivalence of the retraction subsystem: delete-and-rederive
//! (`ChaseEngine::retract`, DRed) must produce the same instance as a
//! from-scratch chase of the surviving EDB, modulo labeled-null renaming,
//! under every join kernel — and randomized insert/retract
//! interleavings driven through the server must converge to the same
//! snapshot and the same quality answers as a fresh registration of the
//! surviving instance.

use ontodq_chase::{chase_naive, ChaseConfig, ChaseEngine, ChaseState, JoinEngine};
use ontodq_core::{compile_context, scenarios, Context, ContextError, ResumableAssessment};
use ontodq_datalog::{Program, Severity};
use ontodq_integration_tests::{canonicalize_database, databases_equivalent, retraction_program};
use ontodq_mdm::fixtures::hospital;
use ontodq_mdm::MdOntology;
use ontodq_relational::{Database, Tuple, Value};
use ontodq_server::{QualityService, ServiceError};
use ontodq_store::Recovery;
use ontodq_workload::{
    generate, generate_corrections, CorrectionOp, CorrectionScale, HospitalScale,
};

/// The three join kernels the retraction path must agree under: the
/// default `Auto` planner, and hash and leapfrog forced for every rule
/// body.  (Retraction resumes the semi-naive driver; the fresh naive chase
/// is the oracle.)
fn engines() -> Vec<(&'static str, ChaseEngine)> {
    [
        ("auto", JoinEngine::Auto),
        ("hash", JoinEngine::Hash),
        ("leapfrog", JoinEngine::Leapfrog),
    ]
    .into_iter()
    .map(|(name, join)| (name, ChaseEngine::new(ChaseConfig::with_join(join))))
    .collect()
}

/// Chase `db`, retract `victims` from `relation` through the engine's DRed
/// path, and assert the maintained instance equals a fresh naive chase of
/// the surviving EDB (modulo labeled-null renaming).
fn assert_retract_matches_fresh(
    program: &Program,
    db: &Database,
    relation: &str,
    victims: &[Tuple],
    label: &str,
) {
    let mut surviving = db.clone();
    for victim in victims {
        assert!(
            surviving.delete(relation, victim),
            "{label}: victim not present in the base instance"
        );
    }
    let fresh = chase_naive(program, &surviving);

    let requested: Vec<(String, Tuple)> = victims
        .iter()
        .map(|t| (relation.to_string(), t.clone()))
        .collect();
    for (name, engine) in engines() {
        let mut state = ChaseState::new(program, db);
        engine.resume(program, &mut state);
        let result = engine.retract(program, &mut state, &surviving, &requested);
        assert_eq!(
            result.stats.requested,
            victims.len(),
            "{label}/{name}: wrong requested count"
        );
        assert_eq!(
            result.stats.retracted,
            victims.len(),
            "{label}/{name}: some victims were not retracted"
        );
        assert!(
            databases_equivalent(state.database(), &fresh.database),
            "{label}/{name}: retract-then-rederive diverges from a fresh \
             chase of the surviving EDB\nmaintained:\n{:#?}\nfresh:\n{:#?}",
            canonicalize_database(state.database()),
            canonicalize_database(&fresh.database),
        );
    }
}

#[test]
fn hospital_retractions_match_fresh_chase_on_every_strategy() {
    // The paper's hospital context compiled over Table I: retractions hit
    // the *contextual* copy of `Measurements`, the relation the chase and
    // the quality rules actually read.
    let context = scenarios::hospital_context();
    let (program, database) = compile_context(&context, &hospital::measurements_database());
    let contextual = context
        .contextual_name_of("Measurements")
        .expect("hospital context maps Measurements")
        .to_string();
    let measurements: Vec<Tuple> = database
        .relation(&contextual)
        .map(|r| r.iter().collect())
        .unwrap_or_default();
    assert!(measurements.len() >= 2);
    // One victim, and separately a batch of half the relation.
    assert_retract_matches_fresh(
        &program,
        &database,
        &contextual,
        &measurements[..1],
        "hospital/single",
    );
    assert_retract_matches_fresh(
        &program,
        &database,
        &contextual,
        &measurements[..measurements.len() / 2],
        "hospital/batch",
    );
}

#[test]
fn scaled_workload_retractions_match_fresh_chase_on_every_strategy() {
    let workload = generate(&HospitalScale::with_measurements(80));
    let context = workload.context();
    let (program, database) = compile_context(&context, &workload.instance);
    let contextual = context
        .contextual_name_of("Measurements")
        .expect("scaled hospital context maps Measurements")
        .to_string();
    let measurements: Vec<Tuple> = database
        .relation(&contextual)
        .map(|r| r.iter().collect())
        .unwrap_or_default();
    // Every 3rd tuple: a third of the relation, spread across the instance.
    let victims: Vec<Tuple> = measurements.iter().step_by(3).cloned().collect();
    assert!(!victims.is_empty());
    assert_retract_matches_fresh(&program, &database, &contextual, &victims, "scaled");
}

/// The three-rule program whose EGD reads only *derived* relations, and
/// whose equated position `B[1]` holds the null rule 1 invents.
const DERIVED_EGD_RULES: [&str; 3] = [
    "B(x, z) :- P(x).",
    "K(x, y) :- A(x, y).",
    "z1 = z2 :- B(x, z1), K(x, z2).",
];

/// A context over the three-rule program: the two TGDs as contextual rules,
/// the EGD in the ontology, `facts` as its external source.
fn derived_egd_context(facts: Database) -> Context {
    let mut ontology = MdOntology::new("derived-egd");
    ontology.add_rule_text(DERIVED_EGD_RULES[2]).unwrap();
    Context::builder("derived-egd")
        .ontology(ontology)
        .contextual_rule(DERIVED_EGD_RULES[0])
        .contextual_rule(DERIVED_EGD_RULES[1])
        .external_source(facts)
        .build()
        .unwrap()
}

/// An EGD whose body reads only *derived* relations: `A(a, b)` reaches it
/// through `K`, and it equates `B(a, ⊥)`'s null with `b`.  EGDs are
/// checked, never applied, so the chase keeps `B(a, ⊥)` and reports no
/// violation (a null side is unknown, not a clash).  Retracting `A(a, b)`
/// through the maintained assessment must end where a fresh chase of the
/// surviving facts does.
#[test]
fn retraction_upstream_of_an_egd_over_derived_relations_matches_fresh_chase() {
    let context_over = derived_egd_context;
    let retracted = Tuple::from_iter(["a", "b"]);
    let mut facts = Database::new();
    facts.insert_values("P", ["a"]).unwrap();
    facts.insert("A", retracted.clone()).unwrap();

    let mut assessment = ResumableAssessment::new(context_over(facts.clone()), Database::new());
    let b = assessment
        .state()
        .database()
        .relation("B")
        .unwrap()
        .tuples();
    assert_eq!(b.len(), 1);
    assert!(
        b[0].get(1).unwrap().is_null(),
        "the EGD unified a null: {b:?}"
    );
    assert!(assessment.last_violations().is_empty());
    let result = assessment.retract_batch([("A".to_string(), retracted.clone())]);
    assert_eq!(result.stats.retracted, 1);

    facts.delete("A", &retracted);
    let (program, surviving) = compile_context(&context_over(facts), &Database::new());
    let fresh = chase_naive(&program, &surviving);
    assert!(
        databases_equivalent(assessment.state().database(), &fresh.database),
        "maintained:\n{:#?}\nfresh:\n{:#?}",
        canonicalize_database(assessment.state().database()),
        canonicalize_database(&fresh.database),
    );
}

/// The chase-level form of the same repro: `ChaseEngine::retract` alone,
/// with no caller-side guard, equals a fresh chase of the surviving facts
/// under every join kernel.
#[test]
fn chase_level_retraction_upstream_of_an_egd_matches_fresh_chase() {
    let program = ontodq_datalog::parse_program(&DERIVED_EGD_RULES.join("\n")).unwrap();
    let retracted = Tuple::from_iter(["a", "b"]);
    let mut db = Database::new();
    db.insert_values("P", ["a"]).unwrap();
    db.insert("A", retracted.clone()).unwrap();
    assert_retract_matches_fresh(&program, &db, "A", &[retracted], "derived-egd");
}

/// The server admits only separable EGDs: registering the three-rule
/// program is refused with the typed lint error naming L105, whose witness
/// is the null-bearing position the EGD equates — also on the recovery path
/// that a server with a data dir registers every context through.
#[test]
fn non_separable_egd_is_refused_at_registration() {
    let mut facts = Database::new();
    facts.insert_values("P", ["a"]).unwrap();
    facts.insert_values("A", ["a", "b"]).unwrap();
    let context = derived_egd_context(facts);
    let service = QualityService::new();
    let plain = service.register_context("derived-egd", context.clone(), Database::new());
    let recovered = service
        .register_recovered(
            "derived-egd",
            context,
            Database::new(),
            &mut Recovery::default(),
        )
        .map(|_| ());
    for result in [plain, recovered] {
        let Err(ServiceError::Context(ContextError::Rejected(diagnostics))) = result else {
            panic!("registration must fail with ContextError::Rejected, got {result:?}");
        };
        let l105 = diagnostics
            .iter()
            .find(|d| d.code == "L105")
            .expect("the rejection must name L105");
        assert_eq!(l105.severity, Severity::Error);
        assert_eq!(l105.witness.as_deref(), Some("B[1]"));
    }
    assert!(service.check("derived-egd").is_err());
}

/// Randomized (seeded, reproducible) insert/retract interleavings applied
/// through the live service must land on the same snapshot — same chased
/// instance modulo null renaming, same quality answers — as registering
/// the surviving instance from scratch.
#[test]
fn randomized_interleavings_through_the_server_match_from_scratch() {
    for seed in [11u64, 42, 99] {
        let scale = CorrectionScale {
            seed,
            ..CorrectionScale::small()
        };
        let workload = generate_corrections(&scale);
        let service = QualityService::new();
        service
            .register_context(
                "live",
                workload.base.context(),
                workload.base.instance.clone(),
            )
            .unwrap();

        let mut batches = 0u64;
        for op in &workload.ops {
            match op {
                CorrectionOp::Insert(facts) => {
                    let report = service.insert_facts("live", facts.clone()).unwrap();
                    batches += 1;
                    assert_eq!(report.version, batches, "seed {seed}: version skew");
                }
                CorrectionOp::Retract(facts) => {
                    let program = retraction_program(facts);
                    let report = service.retract_facts("live", &program).unwrap();
                    batches += 1;
                    assert_eq!(report.version, batches, "seed {seed}: version skew");
                    assert_eq!(
                        report.requested, report.retracted,
                        "seed {seed}: a live fact failed to retract"
                    );
                }
            }
        }

        let reference = QualityService::new();
        reference
            .register_context(
                "fresh",
                workload.base.context(),
                workload.surviving_instance(),
            )
            .unwrap();

        let live = service.snapshot("live").unwrap();
        let fresh = reference.snapshot("fresh").unwrap();
        assert!(
            databases_equivalent(&live.database, &fresh.database),
            "seed {seed}: maintained snapshot diverges from a from-scratch \
             chase of the surviving instance",
        );
        assert!(
            databases_equivalent(&live.quality, &fresh.quality),
            "seed {seed}: quality versions diverge",
        );
        for query in ["Measurements(t, p, v)", "Measurements(t, \"Patient_0\", v)"] {
            let live_answers = service.quality_answers("live", query).unwrap();
            let fresh_answers = reference.quality_answers("fresh", query).unwrap();
            assert_eq!(
                *live_answers.answers, *fresh_answers.answers,
                "seed {seed}: quality answers diverge on '{query}'",
            );
        }

        // The service counter tallies requested facts, one per `-fact.`.
        let requested_facts: u64 = workload
            .ops
            .iter()
            .filter_map(|op| match op {
                CorrectionOp::Retract(facts) => Some(facts.len() as u64),
                CorrectionOp::Insert(_) => None,
            })
            .sum();
        let counters = service.retraction_stats();
        assert_eq!(
            counters.retractions, requested_facts,
            "seed {seed}: retraction counter does not match the stream",
        );
    }
}

/// The navigation join the socket benchmark's oracle caught returning a
/// retracted reading (three atoms sharing variables, so `JoinEngine::Auto`
/// picks the leapfrog kernel, which used to enumerate tombstoned rows).
const NAVIGATION: &str = "Measurements(t, p, v), DayTime(d, t), PatientUnit(Unit_0, d, p)";
const ON_DAY_4: &str = "Measurements(t, p, v), DayTime(d, t), PatientUnit(Unit_0, d, p), d = Day_4";

/// Insert a reading, retract it, query: through the service, `?q-` over
/// the materialized snapshot and `?d-` over the demand chase must both
/// forget the reading.
#[test]
fn a_retracted_reading_leaves_the_navigation_join() {
    let workload = generate(&HospitalScale::with_measurements(200));
    let service = QualityService::new();
    service
        .register_context("scaled", workload.context(), workload.instance.clone())
        .unwrap();
    let before = service.quality_answers("scaled", ON_DAY_4).unwrap();
    // The README repro of the benchmark that found the defect: Patient_15
    // is in a Unit_0 ward on Day_4, so the reading joins through.
    let reading = (
        "Measurements".to_string(),
        Tuple::new(vec![
            Value::parse_time("Jan/5-12:00").unwrap(),
            Value::str("Patient_15"),
            Value::double(41.5),
        ]),
    );
    service
        .insert_facts("scaled", vec![reading.clone()])
        .unwrap();
    let with_reading = service.quality_answers("scaled", ON_DAY_4).unwrap();
    assert_eq!(with_reading.answers.len(), before.answers.len() + 1);

    let report = service
        .retract_facts("scaled", &retraction_program(&[reading]))
        .unwrap();
    assert_eq!(report.retracted, 1);
    let quality = service.quality_answers("scaled", ON_DAY_4).unwrap();
    let demand = service.demand_answers("scaled", ON_DAY_4).unwrap();
    assert_eq!(*quality.answers, *before.answers, "?q- kept the reading");
    assert_eq!(*demand.answers, *before.answers, "?d- kept the reading");
}

/// The same join straight on the engine: after a `delete`, the forced
/// leapfrog kernel must agree with the hash kernel — with and without hash
/// indexes on the tombstoned relation (its un-indexed scan paths were the
/// ones reading dead rows).
#[test]
fn leapfrog_and_hash_agree_after_a_delete() {
    use ontodq_chase::{chase, ensure_indexes, evaluate_with, JoinEngine};
    let workload = generate(&HospitalScale::with_measurements(200));
    let context = workload.context();
    let (program, database) = compile_context(&context, &workload.instance);
    let mut chased = chase(&program, &database).database;
    chased.merge(&workload.instance).unwrap();
    let query = ontodq_integration_tests::query(&format!("Q(t, p, v, d) :- {NAVIGATION}."));

    let answers = |db: &Database, engine: JoinEngine| {
        let mut found: Vec<String> = evaluate_with(db, &query.body, engine)
            .iter()
            .map(|a| a.to_string())
            .collect();
        found.sort();
        found
    };
    let full = answers(&chased, JoinEngine::Hash);
    assert!(!full.is_empty());
    assert_eq!(answers(&chased, JoinEngine::Leapfrog), full);

    // Tombstone every other reading the join reaches.
    let victims: Vec<Tuple> = chased
        .relation("Measurements")
        .unwrap()
        .iter()
        .step_by(2)
        .collect();
    for victim in &victims {
        assert!(chased.delete("Measurements", victim));
    }
    let survivors = answers(&chased, JoinEngine::Hash);
    assert!(survivors.len() < full.len(), "the deletes missed the join");
    assert_eq!(answers(&chased, JoinEngine::Leapfrog), survivors);
    assert_eq!(answers(&chased, JoinEngine::Auto), survivors);
    ensure_indexes(&mut chased, &query.body);
    assert_eq!(answers(&chased, JoinEngine::Leapfrog), survivors);
    assert_eq!(answers(&chased, JoinEngine::Hash), survivors);
}
