//! Equivalence of the delta-driven semi-naive chase, the parallel per-rule
//! chase, the forced worst-case-optimal (leapfrog) join kernel and the
//! naive reference oracle: identical final instances (modulo labeled-null
//! renaming) and identical violation sets, on the paper's hospital
//! fixture, on generated workload instances and on Zipf-skewed cyclic
//! triangle workloads.

use ontodq_chase::{
    chase, chase_naive, ChaseConfig, ChaseEngine, ChaseMode, EvalStrategy, JoinEngine,
    TerminationReason,
};
use ontodq_datalog::parse_program;
use ontodq_integration_tests::{
    canonicalize_database, compiled_hospital, compiled_hospital_with_discharge,
    databases_equivalent, violation_summary,
};
use ontodq_relational::Database;
use ontodq_workload::{generate, generate_skewed, HospitalScale, SkewedScale};
use proptest::prelude::*;

/// Parallel chase with a pinned 4-worker team: `available_parallelism` can
/// be 1 on CI containers, and the suite must exercise the genuinely
/// concurrent path everywhere.
fn chase_parallel(program: &ontodq_datalog::Program, db: &Database) -> ontodq_chase::ChaseResult {
    ChaseEngine::new(ChaseConfig::parallel_with_threads(4)).run(program, db)
}

/// Semi-naive chase with the worst-case-optimal join kernel forced for
/// every rule body (the `Auto` planner only picks it for cyclic shapes, so
/// the forced variant is what exercises the kernel on every fixture).
fn chase_leapfrog(program: &ontodq_datalog::Program, db: &Database) -> ontodq_chase::ChaseResult {
    ChaseEngine::new(ChaseConfig::with_join(JoinEngine::Leapfrog)).run(program, db)
}

/// Assert full equivalence of all four strategies on one program +
/// instance: `naive == semi-naive == parallel == leapfrog` modulo
/// labeled-null renaming.
fn assert_strategies_agree(program: &ontodq_datalog::Program, db: &Database, label: &str) {
    let naive = chase_naive(program, db);
    let semi = chase(program, db);
    let parallel = chase_parallel(program, db);
    let leapfrog = chase_leapfrog(program, db);
    assert_eq!(
        naive.termination, semi.termination,
        "{label}: termination reasons diverge"
    );
    assert_eq!(
        naive.termination, parallel.termination,
        "{label}: parallel termination diverges"
    );
    assert_eq!(
        naive.termination, leapfrog.termination,
        "{label}: leapfrog termination diverges"
    );
    assert!(
        databases_equivalent(&naive.database, &semi.database),
        "{label}: instances differ modulo null renaming\nnaive:\n{:#?}\nsemi-naive:\n{:#?}",
        canonicalize_database(&naive.database),
        canonicalize_database(&semi.database),
    );
    assert!(
        databases_equivalent(&naive.database, &parallel.database),
        "{label}: parallel instance differs modulo null renaming\nnaive:\n{:#?}\nparallel:\n{:#?}",
        canonicalize_database(&naive.database),
        canonicalize_database(&parallel.database),
    );
    assert!(
        databases_equivalent(&naive.database, &leapfrog.database),
        "{label}: leapfrog instance differs modulo null renaming\nnaive:\n{:#?}\nleapfrog:\n{:#?}",
        canonicalize_database(&naive.database),
        canonicalize_database(&leapfrog.database),
    );
    assert_eq!(
        violation_summary(&naive.violations),
        violation_summary(&semi.violations),
        "{label}: violation sets diverge"
    );
    assert_eq!(
        violation_summary(&naive.violations),
        violation_summary(&parallel.violations),
        "{label}: parallel violation set diverges"
    );
    assert_eq!(
        violation_summary(&naive.violations),
        violation_summary(&leapfrog.violations),
        "{label}: leapfrog violation set diverges"
    );
    assert_eq!(
        naive.stats.tuples_added, leapfrog.stats.tuples_added,
        "{label}: leapfrog generated a different number of tuples"
    );
    assert_eq!(
        naive.stats.tuples_added, semi.stats.tuples_added,
        "{label}: different number of generated tuples"
    );
    assert_eq!(
        naive.stats.nulls_created, semi.stats.nulls_created,
        "{label}: different number of invented nulls"
    );
    // The parallel engine is deterministic: a second run reproduces the
    // instance exactly (same tuples, same null ids), not just up to
    // renaming.
    let parallel_again = chase_parallel(program, db);
    assert_eq!(
        canonicalize_database(&parallel.database),
        canonicalize_database(&parallel_again.database),
        "{label}: parallel run is not reproducible"
    );
    for relation in parallel.database.relations() {
        let again = parallel_again
            .database
            .relation(relation.name())
            .expect("reproduced run has the same relations");
        assert_eq!(
            relation.tuples(),
            again.tuples(),
            "{label}: parallel run is not byte-for-byte deterministic"
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
    let hash = ChaseEngine::new(ChaseConfig::with_join(JoinEngine::Hash))
        .run(&workload.program, &workload.database);
    let leapfrog = chase_leapfrog(&workload.program, &workload.database);
    assert!(databases_equivalent(&auto.database, &hash.database));
    assert!(databases_equivalent(&auto.database, &leapfrog.database));
    assert_eq!(auto.stats.tuples_added, hash.stats.tuples_added);
    assert_eq!(auto.stats.tuples_added, leapfrog.stats.tuples_added);
}

/// Regression: a full TGD whose head atoms are all zero-arity
/// (`Flagged() :- Thermometer(w, t, n).`) must fire on every strategy.
/// The staged batch path encodes a trigger as `sum(head arities)` flat
/// values, which at arity 0 cannot carry a trigger count at all, so such
/// rules have to stay on the per-trigger path — at one point the
/// semi-naive and parallel strategies silently dropped them.
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
    // EGDs are checked, never applied: every strategy must leave the null
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
    let naive = chase_naive(&program, &db);
    let semi = chase(&program, &db);
    let parallel = chase_parallel(&program, &db);
    assert!(!naive.violations.is_empty());
    assert_eq!(
        violation_summary(&naive.violations),
        violation_summary(&semi.violations)
    );
    assert_eq!(
        violation_summary(&naive.violations),
        violation_summary(&parallel.violations)
    );
}

#[test]
fn oblivious_mode_is_equivalent_too() {
    let compiled = compiled_hospital();
    let run = |strategy: EvalStrategy| {
        ChaseEngine::new(ChaseConfig {
            mode: ChaseMode::Oblivious,
            strategy,
            ..Default::default()
        })
        .run(&compiled.program, &compiled.database)
    };
    let naive = run(EvalStrategy::Naive);
    let semi = run(EvalStrategy::SemiNaive);
    let parallel = ChaseEngine::new(ChaseConfig {
        mode: ChaseMode::Oblivious,
        ..ChaseConfig::parallel_with_threads(4)
    })
    .run(&compiled.program, &compiled.database);
    assert!(databases_equivalent(&naive.database, &semi.database));
    assert!(databases_equivalent(&naive.database, &parallel.database));
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
        let naive = chase_naive(&program, &db);
        let semi = chase(&program, &db);
        let parallel = chase_parallel(&program, &db);
        let leapfrog = chase_leapfrog(&program, &db);
        prop_assert_eq!(naive.termination, TerminationReason::Fixpoint);
        prop_assert_eq!(semi.termination, TerminationReason::Fixpoint);
        prop_assert_eq!(parallel.termination, TerminationReason::Fixpoint);
        prop_assert!(databases_equivalent(&naive.database, &semi.database));
        prop_assert!(databases_equivalent(&naive.database, &parallel.database));
        prop_assert!(databases_equivalent(&naive.database, &leapfrog.database));
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
        let naive = chase_naive(&compiled.program, &compiled.database);
        let semi = chase(&compiled.program, &compiled.database);
        let parallel = chase_parallel(&compiled.program, &compiled.database);
        let leapfrog = chase_leapfrog(&compiled.program, &compiled.database);
        prop_assert!(databases_equivalent(&naive.database, &semi.database));
        prop_assert!(databases_equivalent(&naive.database, &parallel.database));
        prop_assert!(databases_equivalent(&naive.database, &leapfrog.database));
        prop_assert_eq!(
            violation_summary(&naive.violations),
            violation_summary(&semi.violations)
        );
        prop_assert_eq!(
            violation_summary(&naive.violations),
            violation_summary(&parallel.violations)
        );
        prop_assert_eq!(
            violation_summary(&naive.violations),
            violation_summary(&leapfrog.violations)
        );
    }

    /// Random skewed triangle workloads: all four strategies agree on the
    /// cyclic body that triggers the worst-case-optimal planner.
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
        let naive = chase_naive(&workload.program, &workload.database);
        let semi = chase(&workload.program, &workload.database);
        let parallel = chase_parallel(&workload.program, &workload.database);
        let leapfrog = chase_leapfrog(&workload.program, &workload.database);
        prop_assert_eq!(naive.termination, TerminationReason::Fixpoint);
        prop_assert!(databases_equivalent(&naive.database, &semi.database));
        prop_assert!(databases_equivalent(&naive.database, &parallel.database));
        prop_assert!(databases_equivalent(&naive.database, &leapfrog.database));
    }
}
