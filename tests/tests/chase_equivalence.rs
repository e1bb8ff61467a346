//! Equivalence of the chase drivers and join kernels: the naive reference
//! oracle, the delta-driven semi-naive driver, and the semi-naive driver
//! with the hash and the worst-case-optimal (leapfrog) join kernels forced
//! reach identical final instances (modulo labeled-null renaming) and
//! identical violation sets, on the paper's hospital fixture, on generated
//! workload instances and on Zipf-skewed cyclic triangle workloads.

use ontodq_chase::{
    chase, chase_naive, ChaseConfig, ChaseEngine, ChaseResult, JoinEngine, TerminationReason,
};
use ontodq_datalog::{parse_program, Program};
use ontodq_integration_tests::{
    canonicalize_database, compiled_hospital, compiled_hospital_with_discharge,
    databases_equivalent, violation_summary,
};
use ontodq_relational::Database;
use ontodq_workload::{generate, generate_skewed, HospitalScale, SkewedScale};
use proptest::prelude::*;

/// Semi-naive chase with `join` forced for every rule body (the `Auto`
/// planner only picks leapfrog for cyclic shapes, so the forced variants
/// are what exercise each kernel on every fixture).
fn chase_with(join: JoinEngine, program: &Program, db: &Database) -> ChaseResult {
    ChaseEngine::new(ChaseConfig::with_join(join)).run(program, db)
}

/// The chase of `program` over `db` by every leg, labeled: the naive
/// oracle first, then semi-naive under `Auto`, forced hash and forced
/// leapfrog.
fn every_leg(program: &Program, db: &Database) -> [(&'static str, ChaseResult); 4] {
    [
        ("naive", chase_naive(program, db)),
        ("semi-naive", chase(program, db)),
        ("hash", chase_with(JoinEngine::Hash, program, db)),
        ("leapfrog", chase_with(JoinEngine::Leapfrog, program, db)),
    ]
}

/// Assert full equivalence of all four legs on one program + instance:
/// `naive == semi-naive == forced-hash == forced-leapfrog` modulo
/// labeled-null renaming.
fn assert_strategies_agree(program: &Program, db: &Database, label: &str) {
    let [(_, naive), rest @ ..] = every_leg(program, db);
    for (leg, result) in &rest {
        assert_eq!(
            naive.termination, result.termination,
            "{label}: {leg} termination diverges"
        );
        assert!(
            databases_equivalent(&naive.database, &result.database),
            "{label}: {leg} instance differs modulo null renaming\nnaive:\n{:#?}\n{leg}:\n{:#?}",
            canonicalize_database(&naive.database),
            canonicalize_database(&result.database),
        );
        assert_eq!(
            violation_summary(&naive.violations),
            violation_summary(&result.violations),
            "{label}: {leg} violation set diverges"
        );
        assert_eq!(
            naive.stats.tuples_added, result.stats.tuples_added,
            "{label}: {leg} generated a different number of tuples"
        );
        assert_eq!(
            naive.stats.nulls_created, result.stats.nulls_created,
            "{label}: {leg} invented a different number of nulls"
        );
    }
}

#[test]
fn hospital_fixture_instances_are_equivalent() {
    let compiled = compiled_hospital();
    assert_strategies_agree(&compiled.program, &compiled.database, "hospital");
}

#[test]
fn hospital_with_discharge_rule_is_equivalent() {
    let compiled = compiled_hospital_with_discharge();
    assert_strategies_agree(&compiled.program, &compiled.database, "hospital+rule(9)");
}

#[test]
fn generated_workload_instances_are_equivalent() {
    for scale in [
        HospitalScale::small(),
        HospitalScale::with_measurements(100),
    ] {
        let workload = generate(&scale);
        let compiled = ontodq_mdm::compile(&workload.ontology);
        assert_strategies_agree(
            &compiled.program,
            &compiled.database,
            &format!("workload(measurements={})", scale.measurements),
        );
    }
}

#[test]
fn skewed_triangle_workloads_are_equivalent() {
    for (label, scale) in [
        ("skewed", SkewedScale::small()),
        ("uniform", SkewedScale::small().uniform()),
        ("skewed-large", SkewedScale::with_edges(400)),
    ] {
        let workload = generate_skewed(&scale);
        assert_strategies_agree(
            &workload.program,
            &workload.database,
            &format!("triangle({label})"),
        );
    }
}

/// On the cyclic triangle body the `Auto` planner already picks the
/// worst-case-optimal path; forcing either kernel must not change the
/// result.
#[test]
fn auto_and_forced_kernels_agree_on_triangles() {
    let workload = generate_skewed(&SkewedScale::small());
    let auto = chase(&workload.program, &workload.database);
    let hash = chase_with(JoinEngine::Hash, &workload.program, &workload.database);
    let leapfrog = chase_with(JoinEngine::Leapfrog, &workload.program, &workload.database);
    assert!(databases_equivalent(&auto.database, &hash.database));
    assert!(databases_equivalent(&auto.database, &leapfrog.database));
    assert_eq!(auto.stats.tuples_added, hash.stats.tuples_added);
    assert_eq!(auto.stats.tuples_added, leapfrog.stats.tuples_added);
}

/// Regression: a full TGD whose head atoms are all zero-arity
/// (`Flagged() :- Thermometer(w, t, n).`) must fire on every leg.
/// The staged batch path encodes a trigger as `sum(head arities)` flat
/// values, which at arity 0 cannot carry a trigger count at all, so such
/// rules have to stay on the per-trigger path — at one point the
/// semi-naive driver silently dropped them.
#[test]
fn zero_arity_heads_fire_on_every_strategy() {
    let program = parse_program("Flagged() :- Thermometer(w, t, n).\n").unwrap();
    let mut db = Database::new();
    db.insert_values("Thermometer", ["W1", "B1", "Helen"])
        .unwrap();
    assert_strategies_agree(&program, &db, "zero-arity-head");
    let semi = chase(&program, &db);
    let flagged = semi
        .database
        .relation("Flagged")
        .expect("semi-naive chase derives Flagged()");
    assert_eq!(flagged.len(), 1);
}

#[test]
fn egd_unification_chains_are_equivalent() {
    let compiled = compiled_hospital();
    // The hospital program includes rule (8) (null shifts) and the EGD (6);
    // add an explicit shift and a second EGD equating shifts across days.
    // EGDs are checked, never applied: every leg must leave the null
    // shifts in place and report the same constant-constant clashes (the
    // null sides are unknown, not violations).
    let program = {
        let mut p = compiled.program.clone();
        let extra = parse_program("s = s2 :- Shifts(w, d, n, s), Shifts(w, d2, n, s2).\n").unwrap();
        for egd in extra.egds {
            p.egds.push(egd);
        }
        p
    };
    let mut db = compiled.database.clone();
    db.insert_values("Shifts", ["W1", "Sep/9", "Mark", "morning"])
        .unwrap();
    assert_strategies_agree(&program, &db, "hospital+chained-egds");
}

#[test]
fn violating_instances_report_the_same_violations() {
    let program = parse_program(
        "t = t2 :- Thermometer(w, t, n), Thermometer(w2, t2, n2), UnitWard(u, w), UnitWard(u, w2).\n\
         ! :- Thermometer(w, t, n), Banned(t).\n\
         Banned(B2).\n",
    )
    .unwrap();
    let mut db = Database::new();
    for (u, w) in [("Standard", "W1"), ("Standard", "W2")] {
        db.insert_values("UnitWard", [u, w]).unwrap();
    }
    db.insert_values("Thermometer", ["W1", "B1", "Helen"])
        .unwrap();
    db.insert_values("Thermometer", ["W2", "B2", "Susan"])
        .unwrap();
    let [(_, naive), rest @ ..] = every_leg(&program, &db);
    assert!(!naive.violations.is_empty());
    for (leg, result) in &rest {
        assert_eq!(
            violation_summary(&naive.violations),
            violation_summary(&result.violations),
            "{leg} violation set diverges"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random small graphs: the semi-naive transitive closure matches the
    /// naive one exactly (no nulls involved, so plain set equality).
    #[test]
    fn random_transitive_closures_agree(
        edges in proptest::collection::vec((0u8..8, 0u8..8), 0..24)
    ) {
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in &edges {
            db.insert_values("E", [format!("n{a}"), format!("n{b}")]).unwrap();
        }
        let [(_, naive), rest @ ..] = every_leg(&program, &db);
        prop_assert_eq!(naive.termination, TerminationReason::Fixpoint);
        for (_, result) in &rest {
            prop_assert_eq!(result.termination, TerminationReason::Fixpoint);
            prop_assert!(databases_equivalent(&naive.database, &result.database));
        }
    }

    /// Random scaled hospitals: full pipeline equivalence.
    #[test]
    fn random_scaled_hospitals_agree(
        units in 1usize..3,
        wards in 1usize..3,
        patients in 2usize..6,
        days in 2usize..5,
        measurements in 5usize..30,
        seed in 0u64..500,
    ) {
        let scale = HospitalScale {
            units,
            wards_per_unit: wards,
            patients,
            days,
            measurements,
            seed,
        };
        let workload = generate(&scale);
        let compiled = ontodq_mdm::compile(&workload.ontology);
        let [(_, naive), rest @ ..] = every_leg(&compiled.program, &compiled.database);
        for (_, result) in &rest {
            prop_assert!(databases_equivalent(&naive.database, &result.database));
            prop_assert_eq!(
                violation_summary(&naive.violations),
                violation_summary(&result.violations)
            );
        }
    }

    /// Random skewed triangle workloads: all four legs agree on the cyclic
    /// body that triggers the worst-case-optimal planner.
    #[test]
    fn random_skewed_triangles_agree(
        nodes in 4usize..32,
        edges in 8usize..120,
        tenths in 0u64..15,
        seed in 0u64..500,
    ) {
        let scale = SkewedScale {
            nodes,
            edges,
            exponent: tenths as f64 / 10.0,
            seed,
        };
        let workload = generate_skewed(&scale);
        let [(_, naive), rest @ ..] = every_leg(&workload.program, &workload.database);
        prop_assert_eq!(naive.termination, TerminationReason::Fixpoint);
        for (_, result) in &rest {
            prop_assert!(databases_equivalent(&naive.database, &result.database));
        }
    }
}
