//! The paper's running example, reproduced as a reusable fixture.
//!
//! This module builds, verbatim from the paper:
//!
//! * **Figure 1** — the `Hospital` dimension (Ward → Unit → Institution →
//!   AllHospital) and the `Time` dimension (Time → Day → Month → Year →
//!   AllTime), with their member-level roll-ups;
//! * **Table I** — the `Measurements` relation under quality assessment
//!   (returned by [`measurements_database`], it is *not* part of the
//!   ontology — it is the instance `D` that gets mapped into the context);
//! * **Table II** — the expected quality version `Measurements^q`
//!   ([`expected_quality_measurements`]);
//! * **Tables III & IV** — `WorkingSchedules` and `Shifts`;
//! * **Table V** — `DischargePatients`;
//! * the categorical relation `PatientWard` (shown in Fig. 1) and the
//!   auxiliary `Thermometer` relation used by the EGD (6);
//! * the dimensional rules (7) and (8), the optional form-(10) rule (9)
//!   (`discharge_rule`), the inter-dimensional constraint of Example 1
//!   ("the intensive care unit has been closed since August 2005", encoded
//!   with a `ClosedMonth` categorical relation listing the months after
//!   August 2005 present in the data), and the EGD (6).
//!
//! The fixture's `PatientWard` data is chosen to be consistent with every
//! claim the paper makes about the example: Tom Waits is in standard-care
//! wards on Sep/5 and Sep/6 (so exactly the first two measurements are of
//! quality, reproducing Table II), in the intensive ward W3 on Sep/7 (the
//! tuple discarded by the closed-unit constraint), and in the terminal ward
//! W4 on Sep/9.

use crate::categorical::{CategoricalAttribute, CategoricalRelationSchema};
use crate::dimension_instance::DimensionInstance;
use crate::dimension_schema::DimensionSchema;
use crate::ontology::MdOntology;
use ontodq_datalog::{parse_rule, Rule, Tgd};
use ontodq_relational::{Attribute, AttributeType, Database, RelationSchema, Tuple, Value};

/// Patient name used throughout the example.
pub const TOM_WAITS: &str = "Tom Waits";
/// The second patient of Table I.
pub(crate) const LOU_REED: &str = "Lou Reed";
/// The thermometer brand the doctor expects.
pub(crate) const BRAND_B1: &str = "B1";
/// The other thermometer brand.
pub(crate) const BRAND_B2: &str = "B2";

/// The timestamps of Table I, in row order.
pub(crate) const MEASUREMENT_TIMES: [&str; 6] = [
    "Sep/5-12:10",
    "Sep/6-11:50",
    "Sep/7-12:15",
    "Sep/9-12:00",
    "Sep/6-11:05",
    "Sep/5-12:05",
];

/// The `Hospital` dimension instance of Fig. 1.
pub fn hospital_dimension() -> DimensionInstance {
    let schema = DimensionSchema::chain("Hospital", ["Ward", "Unit", "Institution", "AllHospital"]);
    let mut dim = DimensionInstance::new(schema);
    dim.add_rollup("Ward", "W1", "Unit", "Standard").unwrap();
    dim.add_rollup("Ward", "W2", "Unit", "Standard").unwrap();
    dim.add_rollup("Ward", "W3", "Unit", "Intensive").unwrap();
    dim.add_rollup("Ward", "W4", "Unit", "Terminal").unwrap();
    dim.add_rollup("Unit", "Standard", "Institution", "H1")
        .unwrap();
    dim.add_rollup("Unit", "Intensive", "Institution", "H1")
        .unwrap();
    dim.add_rollup("Unit", "Terminal", "Institution", "H2")
        .unwrap();
    dim.add_rollup("Institution", "H1", "AllHospital", "allHospital")
        .unwrap();
    dim.add_rollup("Institution", "H2", "AllHospital", "allHospital")
        .unwrap();
    dim
}

/// The `Time` dimension instance of Fig. 1.
///
/// Members of the bottom `Time` category are the measurement timestamps
/// (as [`Value::Time`]); `Day` members are the day strings used by the
/// categorical relations (`Sep/5`, …); `Month` members include
/// `August/2005` (mentioned by the constraint) and the months of the data.
pub fn time_dimension() -> DimensionInstance {
    let schema = DimensionSchema::chain("Time", ["Time", "Day", "Month", "Year", "AllTime"]);
    let mut dim = DimensionInstance::new(schema);
    // Timestamp → day roll-ups (DayTime in the paper).
    for time in MEASUREMENT_TIMES {
        let value = Value::parse_time(time).expect("fixture timestamps parse");
        let day = time.split('-').next().unwrap();
        dim.add_rollup("Time", value, "Day", day).unwrap();
    }
    // Day → month roll-ups (MonthDay in the paper).
    for day in ["Sep/5", "Sep/6", "Sep/7", "Sep/9"] {
        dim.add_rollup("Day", day, "Month", "September/2005")
            .unwrap();
    }
    dim.add_rollup("Day", "Oct/5", "Month", "October/2005")
        .unwrap();
    dim.add_member("Month", "August/2005").unwrap();
    // Month → year and year → all.
    for month in ["August/2005", "September/2005", "October/2005"] {
        dim.add_rollup("Month", month, "Year", "2005").unwrap();
    }
    dim.add_rollup("Year", "2005", "AllTime", "allTime")
        .unwrap();
    dim
}

/// The categorical relation schemas of the example.
pub fn categorical_schemas() -> Vec<CategoricalRelationSchema> {
    vec![
        CategoricalRelationSchema::new(
            "PatientWard",
            vec![
                CategoricalAttribute::categorical("Ward", "Hospital", "Ward"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Patient"),
            ],
        ),
        CategoricalRelationSchema::new(
            "PatientUnit",
            vec![
                CategoricalAttribute::categorical("Unit", "Hospital", "Unit"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Patient"),
            ],
        ),
        CategoricalRelationSchema::new(
            "WorkingSchedules",
            vec![
                CategoricalAttribute::categorical("Unit", "Hospital", "Unit"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Nurse"),
                CategoricalAttribute::non_categorical("Type"),
            ],
        ),
        CategoricalRelationSchema::new(
            "Shifts",
            vec![
                CategoricalAttribute::categorical("Ward", "Hospital", "Ward"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Nurse"),
                CategoricalAttribute::non_categorical("Shift"),
            ],
        ),
        CategoricalRelationSchema::new(
            "DischargePatients",
            vec![
                CategoricalAttribute::categorical("Institution", "Hospital", "Institution"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Patient"),
            ],
        ),
        CategoricalRelationSchema::new(
            "Thermometer",
            vec![
                CategoricalAttribute::categorical("Ward", "Hospital", "Ward"),
                CategoricalAttribute::non_categorical("Thermometertype"),
                CategoricalAttribute::non_categorical("Nurse"),
            ],
        ),
        CategoricalRelationSchema::new(
            "ClosedMonth",
            vec![CategoricalAttribute::categorical("Month", "Time", "Month")],
        ),
    ]
}

/// Rule (7): upward navigation from `PatientWard` to `PatientUnit`.
pub fn patient_unit_rule() -> Tgd {
    dimensional_rule(
        "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).",
        "rule-7-upward-patient-unit",
    )
}

/// Rule (8): downward navigation from `WorkingSchedules` to `Shifts`, with an
/// existential (null-producing) shift attribute.
pub(crate) fn shifts_rule() -> Tgd {
    dimensional_rule(
        "Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).",
        "rule-8-downward-shifts",
    )
}

/// Rule (9)/(10): downward navigation from `DischargePatients` to
/// `PatientUnit` with an existentially quantified *categorical* variable for
/// the unknown unit.  Not included in [`ontology`] by default because it
/// breaks the syntactic separability of the EGD (6); use
/// [`ontology_with_discharge_rule`] to include it.
pub(crate) fn discharge_rule() -> Tgd {
    dimensional_rule(
        "InstitutionUnit(i, u), PatientUnit(u, d, p) :- DischargePatients(i, d, p).",
        "rule-9-downward-discharge",
    )
}

fn dimensional_rule(text: &str, label: &str) -> Tgd {
    match parse_rule(text).expect("fixture rules parse") {
        Rule::Tgd(t) => t.labeled(label),
        other => panic!("fixture rule is not a TGD: {other:?}"),
    }
}

/// The full multidimensional ontology of the running example: both
/// dimensions, all categorical relations with their data (Tables III–V,
/// `PatientWard`, `Thermometer`, `ClosedMonth`), rules (7) and (8), the
/// closed-intensive-unit constraint, and the EGD (6).
pub fn ontology() -> MdOntology {
    let mut ontology = MdOntology::new("hospital");
    ontology.add_dimension(hospital_dimension());
    ontology.add_dimension(time_dimension());
    for schema in categorical_schemas() {
        ontology.add_relation(schema);
    }

    // PatientWard — consistent with Examples 1 and 7 and Table II.
    for (w, d, p) in [
        ("W1", "Sep/5", TOM_WAITS),
        ("W2", "Sep/6", TOM_WAITS),
        ("W3", "Sep/7", TOM_WAITS),
        ("W4", "Sep/9", TOM_WAITS),
        ("W2", "Sep/6", LOU_REED),
        ("W1", "Sep/5", LOU_REED),
    ] {
        ontology.add_tuple("PatientWard", [w, d, p]).unwrap();
    }

    // Table III: WorkingSchedules.
    for (u, d, n, t) in [
        ("Intensive", "Sep/5", "Cathy", "cert."),
        ("Standard", "Sep/5", "Helen", "cert."),
        ("Standard", "Sep/6", "Helen", "cert."),
        ("Terminal", "Sep/5", "Susan", "non-c."),
        ("Standard", "Sep/9", "Mark", "non-c."),
    ] {
        ontology
            .add_tuple("WorkingSchedules", [u, d, n, t])
            .unwrap();
    }

    // Table IV: Shifts.
    for (w, d, n, s) in [
        ("W4", "Sep/5", "Cathy", "night"),
        ("W1", "Sep/6", "Helen", "morning"),
        ("W4", "Sep/5", "Susan", "evening"),
    ] {
        ontology.add_tuple("Shifts", [w, d, n, s]).unwrap();
    }

    // Table V: DischargePatients.
    for (i, d, p) in [
        ("H1", "Sep/9", TOM_WAITS),
        ("H1", "Sep/6", LOU_REED),
        ("H2", "Oct/5", "Elvis Costello"),
    ] {
        ontology.add_tuple("DischargePatients", [i, d, p]).unwrap();
    }

    // Thermometer(Ward, Thermometertype; Nurse): standard-care wards use
    // brand B1, the others use B2 — consistent with the guideline.
    for (w, t, n) in [
        ("W1", BRAND_B1, "Helen"),
        ("W2", BRAND_B1, "Helen"),
        ("W3", BRAND_B2, "Cathy"),
        ("W4", BRAND_B2, "Susan"),
    ] {
        ontology.add_tuple("Thermometer", [w, t, n]).unwrap();
    }

    // Months during which the intensive care unit has been closed (the
    // months after August 2005 present in the data).
    for m in ["September/2005", "October/2005"] {
        ontology.add_tuple("ClosedMonth", [m]).unwrap();
    }

    // Dimensional rules (7) and (8).
    ontology.add_rule(patient_unit_rule());
    ontology.add_rule(shifts_rule());

    // Inter-dimensional constraint of Example 1/4: no patient was in the
    // intensive care unit after August 2005.
    ontology
        .add_rule_text(
            "! :- PatientWard(w, d, p), UnitWard(Intensive, w), MonthDay(m, d), ClosedMonth(m).",
        )
        .unwrap();

    // EGD (6): all thermometers used in a unit are of the same type.
    ontology
        .add_rule_text(
            "t = t2 :- Thermometer(w, t, n), Thermometer(w2, t2, n2), UnitWard(u, w), UnitWard(u, w2).",
        )
        .unwrap();

    ontology
}

/// The ontology extended with the form-(10) rule (9) of Example 6.
pub fn ontology_with_discharge_rule() -> MdOntology {
    let mut o = ontology();
    o.add_rule(discharge_rule());
    o
}

/// The relational schema of Table I (`Measurements`).
pub(crate) fn measurements_schema() -> RelationSchema {
    RelationSchema::new(
        "Measurements",
        vec![
            Attribute::new("Time", AttributeType::Time),
            Attribute::string("Patient"),
            Attribute::new("Value", AttributeType::Double),
        ],
    )
}

/// Table I as a database containing the single relation `Measurements` — the
/// instance `D` under quality assessment.
pub fn measurements_database() -> Database {
    let mut db = Database::new();
    db.create_relation(measurements_schema()).unwrap();
    for (time, patient, value) in [
        ("Sep/5-12:10", TOM_WAITS, 38.2),
        ("Sep/6-11:50", TOM_WAITS, 37.1),
        ("Sep/7-12:15", TOM_WAITS, 37.7),
        ("Sep/9-12:00", TOM_WAITS, 37.0),
        ("Sep/6-11:05", LOU_REED, 37.5),
        ("Sep/5-12:05", LOU_REED, 38.0),
    ] {
        db.insert(
            "Measurements",
            Tuple::new(vec![
                Value::parse_time(time).unwrap(),
                Value::str(patient),
                Value::double(value),
            ]),
        )
        .unwrap();
    }
    db
}

/// Table II: the expected quality version `Measurements^q` (Tom Waits'
/// measurements taken in the standard-care unit with a brand-B1 thermometer
/// by a certified nurse).
pub fn expected_quality_measurements() -> Vec<Tuple> {
    vec![
        Tuple::new(vec![
            Value::parse_time("Sep/5-12:10").unwrap(),
            Value::str(TOM_WAITS),
            Value::double(38.2),
        ]),
        Tuple::new(vec![
            Value::parse_time("Sep/6-11:50").unwrap(),
            Value::str(TOM_WAITS),
            Value::double(37.1),
        ]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::navigation::{self, NavigationDirection};
    use ontodq_chase::chase;

    #[test]
    fn dimensions_are_valid_strict_and_homogeneous() {
        for dim in [hospital_dimension(), time_dimension()] {
            assert!(dim.validate().is_ok(), "{} invalid", dim.name());
            assert!(
                dim.strictness_violations().is_empty(),
                "{} not strict",
                dim.name()
            );
            assert!(
                dim.homogeneity_violations().is_empty(),
                "{} not homogeneous",
                dim.name()
            );
        }
    }

    #[test]
    fn ontology_validates_and_has_expected_shape() {
        let o = ontology();
        assert!(o.validate().is_ok());
        let s = o.summary();
        assert_eq!(s.dimensions, 2);
        assert_eq!(s.categorical_relations, 7);
        assert_eq!(s.rules, 2);
        assert_eq!(s.egds, 1);
        assert_eq!(s.constraints, 1);
        // Table row counts.
        let data = o.data();
        assert_eq!(data.relation("PatientWard").unwrap().len(), 6);
        assert_eq!(data.relation("WorkingSchedules").unwrap().len(), 5);
        assert_eq!(data.relation("Shifts").unwrap().len(), 3);
        assert_eq!(data.relation("DischargePatients").unwrap().len(), 3);
    }

    #[test]
    fn navigation_directions_match_the_paper() {
        let o = ontology();
        let dirs = navigation::directions(&o);
        assert_eq!(dirs[0].1, NavigationDirection::Upward);
        assert_eq!(dirs[1].1, NavigationDirection::Downward);
        assert!(!navigation::is_upward_only(&o));
        let with_discharge = ontology_with_discharge_rule();
        assert_eq!(
            navigation::direction_of(&with_discharge, &discharge_rule()),
            NavigationDirection::Downward
        );
    }

    #[test]
    fn compiled_ontology_is_weakly_sticky_with_separable_egds() {
        let compiled = compile(&ontology());
        let report = ontodq_datalog::classify(&compiled.program);
        assert!(
            report.weakly_sticky,
            "hospital ontology must be weakly sticky"
        );
        let separability = ontodq_datalog::check_program(&compiled.program);
        assert!(separability.all_separable(), "EGD (6) must be separable");
        // With the form-(10) discharge rule, separability of a unit-level EGD
        // is no longer guaranteed syntactically (the paper's caveat) — but
        // the thermometer EGD (6) only equates Thermometer[1] values, which
        // the discharge rule never writes, so it stays separable.
        let compiled2 = compile(&ontology_with_discharge_rule());
        let report2 = ontodq_datalog::classify(&compiled2.program);
        assert!(report2.weakly_sticky);
    }

    #[test]
    fn chase_reproduces_the_papers_navigation_examples() {
        let compiled = compile(&ontology());
        let result = chase(&compiled.program, &compiled.database);
        // Upward navigation: Tom Waits was in the Standard unit on Sep/5 and
        // Sep/6 and in the Intensive unit on Sep/7 (Example 1).
        let pu = result.database.relation("PatientUnit").unwrap();
        assert!(pu.contains(&Tuple::from_iter(["Standard", "Sep/5", TOM_WAITS])));
        assert!(pu.contains(&Tuple::from_iter(["Standard", "Sep/6", TOM_WAITS])));
        assert!(pu.contains(&Tuple::from_iter(["Intensive", "Sep/7", TOM_WAITS])));
        // Downward navigation: Mark has (null-shift) shifts in W1 and W2 on
        // Sep/9 (Example 2 / Example 5).
        let shifts = result.database.relation("Shifts").unwrap();
        let marks: Vec<_> = shifts
            .iter()
            .filter(|t| t.get(2) == Some(&Value::str("Mark")))
            .collect();
        assert_eq!(marks.len(), 2);
        // The inter-dimensional constraint flags the Sep/7 intensive-ward
        // tuple (the "third tuple to be discarded").
        assert_eq!(result.violations.nc.len(), 1);
        // The EGD (6) is satisfied by the fixture data.
        assert!(result.violations.egd.is_empty());
    }

    #[test]
    fn discharge_rule_generates_patient_unit_with_unknown_unit() {
        let compiled = compile(&ontology_with_discharge_rule());
        let result = chase(&compiled.program, &compiled.database);
        let iu = result.database.relation("InstitutionUnit").unwrap();
        // InstitutionUnit holds the three dimension-level pairs plus one
        // fresh-null link per discharge tuple whose unit cannot already be
        // inferred: Lou Reed's Sep/6 discharge is satisfied by the Standard
        // unit (he was in W2 that day), while Tom Waits' Sep/9 and Elvis
        // Costello's Oct/5 discharges invent unknown units.
        assert_eq!(iu.len(), 5);
        let null_links: Vec<_> = iu.iter().filter(|t| t.get(1).unwrap().is_null()).collect();
        assert_eq!(null_links.len(), 2);
        // The invented units also appear in PatientUnit (shared nulls).
        let pu = result.database.relation("PatientUnit").unwrap();
        let null_units: Vec<_> = pu.iter().filter(|t| t.get(0).unwrap().is_null()).collect();
        assert_eq!(null_units.len(), 2);
        // An invented unit is unknown, not "not a Unit": the referential
        // constraint on PatientUnit.Unit must not fire on it, so only the
        // base ontology's one violation remains.
        assert_eq!(result.violations.len(), 1);
        assert_eq!(result.violations.nc.len(), 1);
    }

    #[test]
    fn measurements_match_table_i_and_expected_quality_table_ii() {
        let db = measurements_database();
        let m = db.relation("Measurements").unwrap();
        assert_eq!(m.len(), 6);
        let expected = expected_quality_measurements();
        assert_eq!(expected.len(), 2);
        for t in &expected {
            assert!(m.contains(t), "quality tuples are a subset of Table I");
        }
    }

    #[test]
    fn time_dimension_links_measurement_times_to_days() {
        let time = time_dimension();
        let noonish = Value::parse_time("Sep/5-12:10").unwrap();
        assert_eq!(
            time.roll_up("Time", &noonish, "Day"),
            [Value::str("Sep/5")].into()
        );
        assert_eq!(
            time.roll_up("Time", &noonish, "Month"),
            [Value::str("September/2005")].into()
        );
        assert_eq!(
            time.rollup_pairs("Day", "Month")
                .into_iter()
                .filter(|(_, month)| *month == Value::str("September/2005"))
                .count(),
            4
        );
    }
}
