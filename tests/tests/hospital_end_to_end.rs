//! End-to-end reproduction of the paper's running example:
//! Tables I–V, the dimensional rules (7)–(9), the inter-dimensional
//! constraint, the EGD (6), and the quality-assessment pipeline of
//! Section V (Example 7).

use ontodq_core::{assess, scenarios};
use ontodq_core::{plain_answers, quality_answers};
use ontodq_integration_tests::{compiled_hospital, hospital_engine, query};
use ontodq_mdm::fixtures::hospital;
use ontodq_relational::{Tuple, Value};
use ontodq_server::QualityService;

#[test]
fn table_i_is_loaded_exactly() {
    let db = hospital::measurements_database();
    let m = db.relation("Measurements").unwrap();
    assert_eq!(m.len(), 6);
    // Spot-check the first and last rows of Table I.
    assert!(m.contains(&Tuple::new(vec![
        Value::parse_time("Sep/5-12:10").unwrap(),
        Value::str("Tom Waits"),
        Value::double(38.2),
    ])));
    assert!(m.contains(&Tuple::new(vec![
        Value::parse_time("Sep/5-12:05").unwrap(),
        Value::str("Lou Reed"),
        Value::double(38.0),
    ])));
}

#[test]
fn tables_iii_iv_v_are_loaded_exactly() {
    let ontology = hospital::ontology();
    let data = ontology.data();
    // Table III.
    let ws = data.relation("WorkingSchedules").unwrap();
    assert_eq!(ws.len(), 5);
    assert!(ws.contains(&Tuple::from_iter(["Standard", "Sep/9", "Mark", "non-c."])));
    // Table IV.
    let shifts = data.relation("Shifts").unwrap();
    assert_eq!(shifts.len(), 3);
    assert!(shifts.contains(&Tuple::from_iter(["W1", "Sep/6", "Helen", "morning"])));
    // Table V.
    let discharge = data.relation("DischargePatients").unwrap();
    assert_eq!(discharge.len(), 3);
    assert!(discharge.contains(&Tuple::from_iter(["H2", "Oct/5", "Elvis Costello"])));
}

#[test]
fn example_1_upward_navigation_assigns_units_to_measup_days() {
    let engine = hospital_engine();
    // Tom Waits was in the standard care unit on Sep/5 and Sep/6 — the days
    // on which his measurements were taken with the right thermometer.
    let q = query("Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".");
    let answers = engine.certain_answers(&q);
    assert_eq!(answers.len(), 2);
    assert!(answers.contains(&Tuple::from_iter(["Sep/5"])));
    assert!(answers.contains(&Tuple::from_iter(["Sep/6"])));
}

#[test]
fn example_1_constraint_discards_the_intensive_ward_tuple() {
    let compiled = compiled_hospital();
    let result = ontodq_chase::chase(&compiled.program, &compiled.database);
    assert_eq!(result.violations.nc.len(), 1);
    let witness = &result.violations.nc[0].witness;
    // The violating tuple is the Sep/7 stay in the intensive ward W3.
    assert_eq!(
        witness.get(&ontodq_datalog::Variable::new("w")),
        Some(&Value::str("W3"))
    );
    assert_eq!(
        witness.get(&ontodq_datalog::Variable::new("d")),
        Some(&Value::str("Sep/7"))
    );
}

#[test]
fn example_2_and_5_downward_navigation_dates_for_mark() {
    let engine = hospital_engine();
    for ward in ["W1", "W2"] {
        let q = query(&format!("Q(d) :- Shifts({ward}, d, \"Mark\", s)."));
        assert_eq!(
            engine.certain_answers(&q).to_vec(),
            vec![Tuple::from_iter(["Sep/9"])],
            "Mark's shift dates in {ward}"
        );
    }
    // The shift attribute itself is unknown (a labeled null) — no certain
    // answer for it.
    let q = query("Q(s) :- Shifts(W2, \"Sep/9\", \"Mark\", s).");
    assert!(engine.certain_answers(&q).is_empty());
}

#[test]
fn example_6_discharge_rule_invents_units() {
    let compiled = ontodq_integration_tests::compiled_hospital_with_discharge();
    let result = ontodq_chase::chase(&compiled.program, &compiled.database);
    let pu = result.database.relation("PatientUnit").unwrap();
    let invented: Vec<_> = pu.iter().filter(|t| t.get(0).unwrap().is_null()).collect();
    // Tom Waits' Sep/9 discharge and Elvis Costello's Oct/5 discharge invent
    // unknown units; Lou Reed's Sep/6 discharge is already explained.
    assert_eq!(invented.len(), 2);
    let patients: Vec<_> = invented.iter().map(|t| *t.get(2).unwrap()).collect();
    assert!(patients.contains(&Value::str("Tom Waits")));
    assert!(patients.contains(&Value::str("Elvis Costello")));
}

#[test]
fn example_7_quality_assessment_reproduces_table_ii() {
    let context = scenarios::hospital_context();
    let instance = hospital::measurements_database();
    let assessment = assess(&context, &instance);

    // Tom Waits' quality measurements = Table II, exactly.
    let toms: Vec<Tuple> = assessment
        .quality_tuples("Measurements")
        .into_iter()
        .filter(|t| t.get(1) == Some(&Value::str(hospital::TOM_WAITS)))
        .collect();
    let expected = hospital::expected_quality_measurements();
    assert_eq!(toms.len(), expected.len());
    for t in &expected {
        assert!(toms.contains(t));
    }

    // Quality metrics: 4 of the 6 measurements survive.
    let metrics = assessment.metrics.relations.get("Measurements").unwrap();
    assert_eq!(metrics.original_count, 6);
    assert_eq!(metrics.quality_count, 4);
    assert_eq!(metrics.rejected, 2);
}

#[test]
fn example_7_doctors_query_quality_answers() {
    let context = scenarios::hospital_context();
    let instance = hospital::measurements_database();
    let assessment = assess(&context, &instance);
    let q = scenarios::doctors_query();

    let plain = plain_answers(&instance, &q);
    let quality = quality_answers(&context, &assessment, &q);
    // The Sep/5 noon measurement was taken under the required conditions, so
    // plain and quality answers coincide here…
    assert_eq!(plain, quality);
    assert_eq!(quality.len(), 1);

    // …but a query about Sep/7 (intensive-care day, B2 thermometer) returns a
    // plain answer with no quality counterpart.
    let q_sep7 = query(
        "Q(t, v) :- Measurements(t, p, v), p = \"Tom Waits\", t >= @Sep/7-00:00, t <= @Sep/7-23:59.",
    );
    assert_eq!(plain_answers(&instance, &q_sep7).len(), 1);
    assert!(quality_answers(&context, &assessment, &q_sep7).is_empty());
}

#[test]
fn quality_versions_are_monotone_subsets_for_filtering_contexts() {
    let context = scenarios::hospital_context();
    let instance = hospital::measurements_database();
    let assessment = assess(&context, &instance);
    let original = instance.relation("Measurements").unwrap();
    for tuple in assessment.quality_tuples("Measurements") {
        assert!(original.contains(&tuple));
    }
}

#[test]
fn thermometer_egd_is_satisfied_by_the_fixture_but_violated_by_mixed_brands() {
    let compiled = compiled_hospital();
    let clean = ontodq_chase::chase(&compiled.program, &compiled.database);
    assert!(clean.violations.egd.is_empty());

    // Swap W2's thermometer brand: now the standard unit mixes B1 and B2,
    // violating EGD (6).
    let mut dirty = compiled.database.clone();
    dirty
        .relation_mut("Thermometer")
        .unwrap()
        .retain(|t| t.get(0) != Some(&Value::str("W2")));
    dirty
        .insert("Thermometer", Tuple::from_iter(["W2", "B2", "Helen"]))
        .unwrap();
    let violated = ontodq_chase::chase(&compiled.program, &dirty);
    assert!(!violated.violations.egd.is_empty());
}

/// `!=` treats a labeled null as unknown: rule (8) invents a null shift for
/// every nurse-day it navigates down to, and "morning" is a possible value
/// of each, so only the two ground non-morning shifts are certain answers.
#[test]
fn inequality_against_a_null_shift_is_not_a_certain_answer() {
    let service = QualityService::new();
    service
        .register_context(
            "hospital",
            scenarios::hospital_context(),
            hospital::measurements_database(),
        )
        .unwrap();
    let response = service
        .plain_answers(
            "hospital",
            "Q(w, d, n) :- Shifts(w, d, n, s), s != \"morning\".",
        )
        .unwrap();
    let answers: Vec<&Tuple> = response.answers.iter().collect();
    assert_eq!(
        answers,
        [
            &Tuple::from_iter(["W4", "Sep/5", "Cathy"]),
            &Tuple::from_iter(["W4", "Sep/5", "Susan"]),
        ]
    );
}
