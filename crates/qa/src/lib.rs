//! # ontodq-qa
//!
//! Query answering over multidimensional Datalog± ontologies — Section IV of
//! *"Extending Contexts with Ontologies for Multidimensional Data Quality
//! Assessment"* (Milani, Bertossi, Ariyan; ICDE 2014).
//!
//! Three complementary strategies are provided:
//!
//! * [`materialize::MaterializedEngine`] — chase the ontology once and
//!   evaluate queries on the materialized instance (the reference oracle),
//! * [`resolution::DeterministicWsqAns`] — the paper's deterministic
//!   top-down backtracking search for accepting resolution proof schemas,
//!   answering Boolean conjunctive queries directly over the extensional
//!   database and open queries by enumerating candidate substitutions,
//! * `rewrite` — first-order (union-of-CQ) rewriting for upward-navigation
//!   ontologies, evaluated directly on the extensional database,
//! * `demand` — demand-driven (magic-set) answering: the program is
//!   specialized to the query's bound constants and only the relevant
//!   fragment is chased.
//!
//! All strategies agree on certain answers for the ontologies the paper
//! considers; the integration tests and the benchmark harness exercise
//! exactly that agreement (and measure where each strategy pays off).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod demand;
mod materialize;
mod query;
mod resolution;
mod rewrite;

pub use demand::{answer_on_demand, certain_answers_on_demand, DemandAnswer};
pub use materialize::{certain_answers, MaterializedEngine};
pub use query::{AnswerSet, ConjunctiveQuery};
pub use resolution::DeterministicWsqAns;
pub use rewrite::{answer_by_rewriting, rewrite, UnionQuery};

// Compile-time thread-safety audit: `ontodq-server` prepares queries once
// and reuses them from every worker thread (the shared prepared-query
// cache), and ships answer sets across threads in `Arc`s.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConjunctiveQuery>();
    assert_send_sync::<AnswerSet>();
    assert_send_sync::<UnionQuery>();
    assert_send_sync::<MaterializedEngine>();
};
