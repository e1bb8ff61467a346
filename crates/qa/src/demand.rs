//! Demand-driven (magic-set) query answering.
//!
//! The materialization engine ([`crate::materialize::MaterializedEngine`])
//! chases the whole ontology before answering anything; for a selective
//! query that is almost all wasted work.  This module answers one query by
//! chasing only the fragment the query can observe: the program is
//! specialized with the magic-set transformation
//! ([`ontodq_datalog::magic_transform`]) and chased through
//! [`ontodq_chase::ChaseEngine::chase_for_query`], then the query is
//! evaluated on the demanded instance.  Certain answers equal the
//! materialization engine's (the equivalence the unit tests and
//! `tests/tests/demand_driven.rs` pin down); the work done is proportional
//! to the demanded portion.

use crate::query::{AnswerSet, ConjunctiveQuery};
use ontodq_chase::{ChaseEngine, ChaseResult};
use ontodq_datalog::Program;
use ontodq_relational::Database;

/// The answers to one demand-driven evaluation, with the chase step that
/// produced them (statistics show how little was materialized).
#[derive(Debug, Clone)]
pub struct DemandAnswer {
    /// The certain answers (null-free tuples).
    pub answers: AnswerSet,
    /// The demand-restricted chase step.
    pub chase: ChaseResult,
}

/// Answer `query` over `program` + `database` demand-driven: magic-transform
/// the program to the query's bound constants, chase only the relevant
/// fragment, evaluate.  Returns the certain answers together with the chase
/// statistics.
pub fn answer_on_demand(
    program: &Program,
    database: &Database,
    query: &ConjunctiveQuery,
) -> DemandAnswer {
    answer_on_demand_with(ChaseEngine::with_defaults(), program, database, query)
}

/// Like [`answer_on_demand`], with an explicit engine (budgets, join kernel).
pub(crate) fn answer_on_demand_with(
    engine: ChaseEngine,
    program: &Program,
    database: &Database,
    query: &ConjunctiveQuery,
) -> DemandAnswer {
    let chase = engine.chase_for_query(program, database, &query.body);
    let tuples =
        ontodq_chase::evaluate_project(&chase.database, &query.body, &query.answer_variables);
    DemandAnswer {
        answers: AnswerSet::from_tuples(tuples).certain(),
        chase,
    }
}

/// Convenience: just the certain answers of [`answer_on_demand`].
pub fn certain_answers_on_demand(
    program: &Program,
    database: &Database,
    query: &ConjunctiveQuery,
) -> AnswerSet {
    answer_on_demand(program, database, query).answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::MaterializedEngine;
    use ontodq_mdm::fixtures::hospital;

    fn compiled() -> (Program, Database) {
        let compiled = ontodq_mdm::compile(&hospital::ontology());
        (compiled.program, compiled.database)
    }

    #[test]
    fn demand_answers_equal_materialized_answers() {
        let (program, database) = compiled();
        let oracle = MaterializedEngine::new(&program, &database);
        for text in [
            "Q(d) :- Shifts(W2, d, \"Mark\", s).",
            "Q(d) :- Shifts(W1, d, \"Mark\", s).",
            "Q(u, d, p) :- PatientUnit(u, d, p).",
            "Q(d, p) :- PatientUnit(Standard, d, p).",
        ] {
            let query = ConjunctiveQuery::parse(text).unwrap();
            assert_eq!(
                certain_answers_on_demand(&program, &database, &query),
                oracle.certain_answers(&query),
                "demand vs materialized diverge on {text}"
            );
        }
    }

    #[test]
    fn demand_chase_is_smaller_than_materialization() {
        let (program, database) = compiled();
        let materialized = ontodq_chase::chase(&program, &database);
        let query = ConjunctiveQuery::parse("Q(d, p) :- PatientUnit(Standard, d, p).").unwrap();
        let demand = answer_on_demand(&program, &database, &query);
        assert!(
            demand.chase.stats.tuples_added < materialized.stats.tuples_added,
            "demanded {} vs materialized {}",
            demand.chase.stats.tuples_added,
            materialized.stats.tuples_added
        );
        assert!(!demand.answers.is_empty());
    }

    #[test]
    fn boolean_queries_answer_on_demand() {
        let (program, database) = compiled();
        let query =
            ConjunctiveQuery::parse("Q() :- PatientUnit(Standard, d, p), p = \"Tom Waits\".")
                .unwrap();
        let demand = answer_on_demand(&program, &database, &query);
        // A satisfied Boolean query has exactly the empty tuple as answer.
        assert_eq!(demand.answers.len(), 1);
    }
}
