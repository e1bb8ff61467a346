//! # ontodq-chase
//!
//! Chase engine and conjunctive-body evaluation for `ontodq`, the Rust
//! reproduction of *"Extending Contexts with Ontologies for Multidimensional
//! Data Quality Assessment"* (Milani, Bertossi, Ariyan; ICDE 2014).
//!
//! The chase is the paper's data-completion mechanism: dimensional rules
//! generate data by navigating up or down the dimension hierarchies, possibly
//! introducing labeled nulls; dimensional constraints (EGDs and negative
//! constraints) restrict the admissible instances.  This crate provides:
//!
//! * `eval` — evaluation of rule bodies / conjunctive queries over a
//!   [`ontodq_relational::Database`] (the reference semantics reused by the
//!   query-answering algorithms in `ontodq-qa`),
//! * `chase` — the restricted chase of the TGDs (a semi-naive driver,
//!   and the naive driver kept as its reference oracle), with EGDs and
//!   negative constraints checked (never applied) on the result, and
//!   delete-and-rederive retraction ([`ChaseEngine::retract`]),
//! * `violation` and `profile` — structured reports of what the chase
//!   found and did ([`ChaseStats`]) and where its time went
//!   ([`ChaseProfile`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod chase;
mod eval;
mod profile;
mod violation;
mod wco;

pub use chase::{
    chase, chase_incremental, chase_naive, ensure_demand_indexes, ensure_rule_indexes, ChaseConfig,
    ChaseEngine, ChaseResult, ChaseState, RetractResult, RetractStats, TerminationReason,
};
pub use eval::{
    ensure_indexes, evaluate, evaluate_project, evaluate_with, is_satisfiable, JoinEngine,
};
pub use profile::{ChaseProfile, ChaseStats, DredTiming, RuleProfile};
pub use violation::{EgdViolation, NcViolation, Violations};

#[cfg(test)]
mod proptests {
    use super::*;
    use ontodq_datalog::{parse_program, Program};
    use ontodq_relational::Database;
    use proptest::prelude::*;

    /// Generate a small random two-column EDB.
    fn arb_edges(max: usize) -> impl Strategy<Value = Vec<(u8, u8)>> {
        proptest::collection::vec((0u8..8, 0u8..8), 0..max)
    }

    fn edge_db(edges: &[(u8, u8)]) -> Database {
        let mut db = Database::new();
        for (a, b) in edges {
            db.insert_values("E", [format!("n{a}"), format!("n{b}")])
                .unwrap();
        }
        db
    }

    fn transitive_closure_program() -> Program {
        parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap()
    }

    proptest! {
        /// The chase of a weakly-acyclic (here: null-free) program always
        /// reaches a fixpoint, and chasing again adds nothing (idempotence).
        #[test]
        fn chase_of_full_programs_terminates_and_is_idempotent(edges in arb_edges(20)) {
            let program = transitive_closure_program();
            let db = edge_db(&edges);
            let first = chase(&program, &db);
            prop_assert_eq!(first.termination, TerminationReason::Fixpoint);
            let second = chase(&program, &first.database);
            prop_assert_eq!(second.stats.tuples_added, 0);
        }

        /// The chase result contains the input instance (monotonicity).
        #[test]
        fn chase_is_monotone_wrt_input(edges in arb_edges(20)) {
            let program = transitive_closure_program();
            let db = edge_db(&edges);
            let result = chase(&program, &db);
            if let Ok(original) = db.relation("E") {
                let chased = result.database.relation("E").unwrap();
                for tuple in original.iter() {
                    prop_assert!(chased.contains(&tuple));
                }
            }
        }

        /// Transitive closure computed by the chase agrees with a direct
        /// Floyd-Warshall-style closure.
        #[test]
        fn chase_transitive_closure_is_correct(edges in arb_edges(15)) {
            let program = transitive_closure_program();
            let db = edge_db(&edges);
            let result = chase(&program, &db);
            // Reference closure over the at-most-8 node ids.
            let mut reach = [[false; 8]; 8];
            for (a, b) in &edges {
                reach[*a as usize][*b as usize] = true;
            }
            for k in 0..8 {
                for i in 0..8 {
                    for j in 0..8 {
                        if reach[i][k] && reach[k][j] {
                            reach[i][j] = true;
                        }
                    }
                }
            }
            let t = result.database.relation("T").ok();
            let mut expected = 0usize;
            for (i, row) in reach.iter().enumerate() {
                for (j, reachable) in row.iter().enumerate() {
                    if *reachable {
                        expected += 1;
                        let tuple = ontodq_relational::Tuple::from_iter([
                            format!("n{i}"),
                            format!("n{j}"),
                        ]);
                        prop_assert!(t.map(|r| r.contains(&tuple)).unwrap_or(false));
                    }
                }
            }
            prop_assert_eq!(t.map(|r| r.len()).unwrap_or(0), expected);
        }
    }
}
