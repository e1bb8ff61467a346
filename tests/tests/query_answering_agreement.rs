//! Agreement of the three query-answering strategies (Section IV):
//! chase-then-evaluate, the deterministic resolution algorithm, and FO
//! rewriting on the upward-only fragment — plus the class-membership and
//! separability claims of Section III.

use ontodq_integration_tests::{compiled_hospital, query};
use ontodq_mdm::fixtures::hospital;
use ontodq_mdm::{compile, MdOntology};
use ontodq_qa::{answer_by_rewriting, DeterministicWsqAns, MaterializedEngine};

/// The hospital ontology restricted to the upward rule (7).
fn upward_only() -> MdOntology {
    let mut o = MdOntology::new("hospital-upward");
    o.add_dimension(hospital::hospital_dimension());
    o.add_dimension(hospital::time_dimension());
    for schema in hospital::categorical_schemas() {
        o.add_relation(schema);
    }
    for relation in hospital::ontology().data().relations() {
        for tuple in relation.iter() {
            o.add_tuple(relation.name(), tuple.values().to_vec())
                .unwrap();
        }
    }
    o.add_rule(hospital::patient_unit_rule());
    o
}

#[test]
fn claim_hospital_ontology_is_weakly_sticky() {
    let compiled = compiled_hospital();
    let report = ontodq_datalog::classify(&compiled.program);
    assert!(report.weakly_sticky);
    // The fixed dimension instances also make it weakly acyclic (terminating
    // chase), which is what makes the materialization oracle usable.
    assert!(report.weakly_acyclic);
    // It is neither linear nor guarded nor sticky — weak stickiness is the
    // operative class, as the paper argues.
    assert!(!report.linear);
    assert!(!report.guarded);
    assert!(!report.sticky);
}

#[test]
fn claim_egd_6_is_separable() {
    let compiled = compiled_hospital();
    let separability = ontodq_datalog::check_program(&compiled.program);
    assert_eq!(separability.egds.len(), 1);
    assert!(separability.all_separable());
}

#[test]
fn claim_form_10_rules_keep_weak_stickiness_but_threaten_separability() {
    let compiled = compile(&hospital::ontology_with_discharge_rule());
    let report = ontodq_datalog::classify(&compiled.program);
    assert!(report.weakly_sticky);
    // A unit-level EGD on PatientUnit is no longer syntactically separable
    // once rule (9) can write nulls into the Unit position.
    let mut extended = hospital::ontology_with_discharge_rule();
    extended
        .add_rule_text("u = u2 :- PatientUnit(u, d, p), PatientUnit(u2, d, p).")
        .unwrap();
    let compiled2 = compile(&extended);
    assert!(!ontodq_datalog::check_program(&compiled2.program).all_separable());
}

#[test]
fn resolution_and_materialization_agree_on_the_hospital_ontology() {
    let compiled = compiled_hospital();
    let materialized = MaterializedEngine::new(&compiled.program, &compiled.database);
    let resolution = DeterministicWsqAns::new(&compiled.program, &compiled.database);
    for text in [
        "Q(d) :- Shifts(W1, d, \"Mark\", s).",
        "Q(d) :- Shifts(W2, d, \"Mark\", s).",
        "Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".",
        "Q(u) :- PatientUnit(u, d, \"Lou Reed\").",
        "Q(n) :- Shifts(W4, d, n, s).",
        "Q(w) :- Shifts(w, d, \"Helen\", s).",
        "Q(p) :- PatientUnit(Terminal, d, p).",
    ] {
        let q = query(text);
        assert_eq!(
            resolution.answer_open(&q),
            materialized.certain_answers(&q),
            "strategies disagree on {text}"
        );
    }
}

#[test]
fn rewriting_materialization_and_resolution_agree_on_upward_only_ontologies() {
    let ontology = upward_only();
    assert!(ontodq_mdm::is_upward_only(&ontology));
    let compiled = compile(&ontology);
    let materialized = MaterializedEngine::new(&compiled.program, &compiled.database);
    let resolution = DeterministicWsqAns::new(&compiled.program, &compiled.database);
    for text in [
        "Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".",
        "Q(u, d) :- PatientUnit(u, d, \"Tom Waits\").",
        "Q(p) :- PatientUnit(Intensive, d, p).",
        "Q(p, d) :- PatientWard(W1, d, p).",
        "Q(u) :- PatientUnit(u, d, p), WorkingSchedules(u, d, n, t).",
    ] {
        let q = query(text);
        let by_rewriting = answer_by_rewriting(&compiled.program, &compiled.database, &q);
        let by_chase = materialized.certain_answers(&q);
        let by_resolution = resolution.answer_open(&q);
        assert_eq!(by_rewriting, by_chase, "rewriting vs chase on {text}");
        assert_eq!(by_resolution, by_chase, "resolution vs chase on {text}");
    }
}

#[test]
fn navigation_analysis_matches_the_rules() {
    let ontology = hospital::ontology();
    let report = ontodq_mdm::navigation_report(&ontology);
    assert_eq!(report.rules.len(), 2);
    assert_eq!(report.rules[0].1, ontodq_mdm::NavigationDirection::Upward);
    assert_eq!(report.rules[1].1, ontodq_mdm::NavigationDirection::Downward);
    assert!(!report.upward_only);
    assert!(report.value_invention);
    assert!(ontodq_mdm::is_upward_only(&upward_only()));
}

#[test]
fn boolean_queries_agree_between_resolution_and_materialization() {
    let compiled = compiled_hospital();
    let materialized = MaterializedEngine::new(&compiled.program, &compiled.database);
    let resolution = DeterministicWsqAns::new(&compiled.program, &compiled.database);
    for (text, expected) in [
        (
            "Q() :- PatientUnit(Standard, d, p), p = \"Tom Waits\".",
            true,
        ),
        (
            "Q() :- PatientUnit(Standard, d, p), p = \"Elvis Costello\".",
            false,
        ),
        ("Q() :- Shifts(W2, \"Sep/9\", \"Mark\", s).", true),
        ("Q() :- Shifts(W3, \"Sep/9\", \"Mark\", s).", false),
        (
            "Q() :- Shifts(W1, \"Sep/6\", \"Helen\", \"morning\").",
            true,
        ),
        (
            "Q() :- Shifts(W2, \"Sep/9\", \"Mark\", \"morning\").",
            false,
        ),
    ] {
        let q = query(text);
        assert_eq!(
            resolution.answer_boolean(&q),
            expected,
            "resolution on {text}"
        );
        assert_eq!(
            materialized.boolean(&q),
            expected,
            "materialization on {text}"
        );
    }
}
