//! Chase-then-evaluate query answering (the materialization baseline).
//!
//! For terminating (e.g. weakly acyclic) programs the simplest complete
//! strategy is to chase the extensional database to a (finite) universal
//! model and evaluate the query on the result.  Certain answers are the
//! null-free tuples.  This module is both a usable engine for the paper's
//! ontologies (whose chase terminates on fixed dimension instances) and the
//! reference oracle that the deterministic resolution algorithm and the FO
//! rewriting are tested against.
//!
//! Query evaluation is routed through the shared join engine of
//! `ontodq-chase`: the (semi-naive) chase builds hash indexes for every
//! rule-body join position and maintains them incrementally while
//! materializing, so queries over the chased instance hit indexed joins for
//! free.

use crate::query::{AnswerSet, ConjunctiveQuery};
use ontodq_chase::{chase, ChaseResult};
use ontodq_datalog::Program;
use ontodq_relational::Database;

/// A query-answering engine that materializes the chase once and evaluates
/// queries against the chased instance.
#[derive(Debug, Clone)]
pub struct MaterializedEngine {
    result: ChaseResult,
}

impl MaterializedEngine {
    /// Chase `program` over `database` with the default configuration.
    pub fn new(program: &Program, database: &Database) -> Self {
        Self {
            result: chase(program, database),
        }
    }

    /// The chased (materialized) instance.
    pub fn materialized(&self) -> &Database {
        &self.result.database
    }

    /// All answers to the query over the materialized instance, including
    /// tuples containing labeled nulls (the "possible" answers).
    pub(crate) fn all_answers(&self, query: &ConjunctiveQuery) -> AnswerSet {
        let tuples = ontodq_chase::evaluate_project(
            &self.result.database,
            &query.body,
            &query.answer_variables,
        );
        AnswerSet::from_tuples(tuples)
    }

    /// The certain answers (null-free tuples) to the query.
    pub fn certain_answers(&self, query: &ConjunctiveQuery) -> AnswerSet {
        self.all_answers(query).certain()
    }

    /// Answer a Boolean query: is the body satisfiable in the materialized
    /// instance?
    pub fn boolean(&self, query: &ConjunctiveQuery) -> bool {
        ontodq_chase::is_satisfiable(&self.result.database, &query.body)
    }
}

/// One-shot helper: chase and return the certain answers.
pub fn certain_answers(
    program: &Program,
    database: &Database,
    query: &ConjunctiveQuery,
) -> AnswerSet {
    MaterializedEngine::new(program, database).certain_answers(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_datalog::parse_program;
    use ontodq_mdm::fixtures::hospital;
    use ontodq_relational::Tuple;

    fn hospital_engine() -> MaterializedEngine {
        let compiled = ontodq_mdm::compile(&hospital::ontology());
        MaterializedEngine::new(&compiled.program, &compiled.database)
    }

    #[test]
    fn example_5_downward_navigation_query() {
        // "On which dates does Mark work in ward W1?" — the paper's Example 5
        // (and Example 2 asks about W2).  Downward navigation through rule
        // (8) yields Sep/9 for both wards.
        let engine = hospital_engine();
        let q_w1 = ConjunctiveQuery::parse("Q(d) :- Shifts(W1, d, \"Mark\", s).").unwrap();
        assert_eq!(
            engine.certain_answers(&q_w1).to_vec(),
            vec![Tuple::from_iter(["Sep/9"])]
        );
        let q_w2 = ConjunctiveQuery::parse("Q(d) :- Shifts(W2, d, \"Mark\", s).").unwrap();
        assert_eq!(
            engine.certain_answers(&q_w2).to_vec(),
            vec![Tuple::from_iter(["Sep/9"])]
        );
    }

    #[test]
    fn upward_navigation_answers_patient_unit_queries() {
        let engine = hospital_engine();
        let q = ConjunctiveQuery::parse("Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".")
            .unwrap();
        let answers = engine.certain_answers(&q);
        assert_eq!(answers.len(), 2);
        assert!(answers.contains(&Tuple::from_iter(["Sep/5"])));
        assert!(answers.contains(&Tuple::from_iter(["Sep/6"])));
    }

    #[test]
    fn boolean_queries() {
        let engine = hospital_engine();
        let yes = ConjunctiveQuery::parse("Q() :- PatientUnit(Intensive, d, p).").unwrap();
        assert!(engine.boolean(&yes));
        let no = ConjunctiveQuery::parse("Q() :- PatientUnit(Oncology, d, p).").unwrap();
        assert!(!engine.boolean(&no));
    }

    #[test]
    fn certain_answers_exclude_null_shift_values() {
        let engine = hospital_engine();
        // Asking for the shift value of Mark's generated tuples returns a
        // labeled null → not a certain answer.
        let q = ConjunctiveQuery::parse("Q(s) :- Shifts(W2, d, \"Mark\", s).").unwrap();
        assert!(engine.certain_answers(&q).is_empty());
        assert_eq!(engine.all_answers(&q).len(), 1);
    }

    #[test]
    fn one_shot_helper_matches_engine() {
        let compiled = ontodq_mdm::compile(&hospital::ontology());
        let q = ConjunctiveQuery::parse("Q(d) :- Shifts(W2, d, \"Mark\", s).").unwrap();
        let direct = certain_answers(&compiled.program, &compiled.database, &q);
        let engine = hospital_engine();
        assert_eq!(direct, engine.certain_answers(&q));
    }

    #[test]
    fn engine_reuses_single_materialization() {
        let compiled = ontodq_mdm::compile(&hospital::ontology());
        let engine = MaterializedEngine::new(&compiled.program, &compiled.database);
        // The materialized instance contains the generated PatientUnit and
        // Shifts data.
        assert!(engine.materialized().has_relation("PatientUnit"));
        assert!(engine.materialized().has_relation("Shifts"));
        assert!(engine.result.stats.tuples_added > 0);
    }

    #[test]
    fn chase_built_indexes_survive_into_query_evaluation() {
        let mut engine = hospital_engine();
        // The semi-naive chase indexed the rule-body join positions of the
        // hospital program; those indexes live on in the materialized
        // instance.
        assert!(engine
            .materialized()
            .relation("UnitWard")
            .unwrap()
            .has_index(1));
        // Preparing a query adds its own join/constant positions.
        let q = ConjunctiveQuery::parse("Q(d) :- Shifts(W2, d, \"Mark\", s).").unwrap();
        let before = engine.certain_answers(&q);
        ontodq_chase::ensure_indexes(&mut engine.result.database, &q.body);
        assert!(engine
            .materialized()
            .relation("Shifts")
            .unwrap()
            .has_index(0));
        assert_eq!(engine.certain_answers(&q), before);
    }

    #[test]
    fn works_on_plain_datalog_programs_too() {
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_values("E", ["a", "b"]).unwrap();
        db.insert_values("E", ["b", "c"]).unwrap();
        let q = ConjunctiveQuery::parse("Q(x, y) :- T(x, y).").unwrap();
        let answers = certain_answers(&program, &db, &q);
        assert_eq!(answers.len(), 3);
        assert!(answers.contains(&Tuple::from_iter(["a", "c"])));
    }
}
