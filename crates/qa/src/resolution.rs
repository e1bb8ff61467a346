//! `DeterministicWSQAns`: deterministic, top-down, backtracking query
//! answering for (weakly-sticky) Datalog± ontologies — Section IV of the
//! paper.
//!
//! The algorithm searches for an *accepting resolution proof schema*: a
//! tree whose leaves are ground atoms of the extensional database and whose
//! internal nodes are TGD applications entailing the query atoms.  Query
//! atoms are resolved left to right; at each step an atom is closed either by
//! matching an extensional tuple or by resolving it against a TGD head (whose
//! body atoms then become new sub-goals).  All decisions are kept on an
//! explicit backtracking stack (here: the recursion), restoring earlier
//! choices when a later atom cannot be resolved — the deterministic
//! counterpart of the non-deterministic `WeaklyStickyQAns` of Calì, Gottlob
//! and Pieris that the paper builds on.
//!
//! Existential head variables are handled soundly for *certain-answer*
//! semantics: resolving a goal against a head position that is existential
//! binds the goal's term to a fresh labeled null, which can never be matched
//! against a constant later on; a goal carrying a constant at an existential
//! position simply cannot be resolved through that rule.
//!
//! Open (non-Boolean) queries are answered as in the paper: candidate
//! substitutions for the answer variables are drawn from the constants of the
//! extensional database (its active domain), and each grounded Boolean query
//! is checked with the same procedure.

use crate::query::{AnswerSet, ConjunctiveQuery};
use ontodq_datalog::{Atom, Comparison, Program, Term, Tgd, Unifier, Variable};
use ontodq_relational::{Database, NullGenerator, StampWindow, Tuple, Value};
use std::collections::BTreeSet;

/// Configuration of the resolution-based answering procedure.
#[derive(Debug, Clone)]
pub(crate) struct ResolutionConfig {
    /// Maximum number of nested TGD resolutions along one proof branch.
    /// Weak stickiness bounds the necessary depth polynomially in the fixed
    /// rule set; the default is generous for the ontologies in this crate.
    pub(crate) max_rule_depth: usize,
    /// Upper bound on the number of candidate substitutions enumerated for
    /// open queries (|adom|^arity can explode; the guard keeps the engine
    /// predictable — exceeding it returns the answers found so far).
    pub(crate) max_open_candidates: usize,
}

impl Default for ResolutionConfig {
    fn default() -> Self {
        Self {
            max_rule_depth: 32,
            max_open_candidates: 1_000_000,
        }
    }
}

/// The deterministic resolution-based query answering engine.
#[derive(Debug, Clone)]
pub struct DeterministicWsqAns<'a> {
    program: &'a Program,
    database: &'a Database,
    config: ResolutionConfig,
}

impl<'a> DeterministicWsqAns<'a> {
    /// Create an engine over a program and an extensional database.
    pub fn new(program: &'a Program, database: &'a Database) -> Self {
        Self::with_config(program, database, ResolutionConfig::default())
    }

    /// Create an engine with an explicit configuration.
    pub(crate) fn with_config(
        program: &'a Program,
        database: &'a Database,
        config: ResolutionConfig,
    ) -> Self {
        Self {
            program,
            database,
            config,
        }
    }

    /// Answer a Boolean conjunctive query: is it entailed by the ontology
    /// (program + extensional database)?
    pub fn answer_boolean(&self, query: &ConjunctiveQuery) -> bool {
        let goals: Vec<Atom> = query.body.atoms.clone();
        let comparisons = query.body.comparisons.clone();
        let mut rename_counter = 0usize;
        let nulls = NullGenerator::starting_at(1_000_000);
        self.resolve(
            &goals,
            Unifier::new(),
            &comparisons,
            self.config.max_rule_depth,
            &mut rename_counter,
            &nulls,
        )
        .is_some()
    }

    /// Answer an open conjunctive query by enumerating candidate
    /// substitutions from the active domain and checking each grounded query.
    /// Only certain (null-free) answers are returned.
    pub fn answer_open(&self, query: &ConjunctiveQuery) -> AnswerSet {
        if query.is_boolean() {
            let mut answers = AnswerSet::new();
            if self.answer_boolean(query) {
                answers.insert(Tuple::new(vec![]));
            }
            return answers;
        }
        let mut answers = AnswerSet::new();
        let domain: Vec<Value> = self.candidate_domain(query);
        let arity = query.arity();
        let total = domain.len().checked_pow(arity as u32).unwrap_or(usize::MAX);
        let budget = total.min(self.config.max_open_candidates);
        let mut emitted = 0usize;
        let mut indices = vec![0usize; arity];
        if domain.is_empty() {
            return answers;
        }
        loop {
            if emitted >= budget {
                break;
            }
            emitted += 1;
            let tuple = Tuple::new(indices.iter().map(|&i| domain[i]).collect());
            let grounded = query.instantiate(&tuple);
            if self.answer_boolean(&grounded) {
                answers.insert(tuple);
            }
            // Advance the mixed-radix counter.
            let mut position = 0;
            loop {
                if position == arity {
                    return answers;
                }
                indices[position] += 1;
                if indices[position] < domain.len() {
                    break;
                }
                indices[position] = 0;
                position += 1;
            }
        }
        answers
    }

    /// The candidate constants for answer variables: the active domain of the
    /// extensional database plus constants mentioned by the program rules and
    /// the query itself.
    fn candidate_domain(&self, query: &ConjunctiveQuery) -> Vec<Value> {
        let mut domain: BTreeSet<Value> = self.database.active_domain();
        for tgd in &self.program.tgds {
            for atom in tgd.body().atoms.iter().chain(tgd.head.iter()) {
                for value in atom.constants() {
                    domain.insert(value);
                }
            }
        }
        for fact in &self.program.facts {
            for value in fact.atom().constants() {
                domain.insert(value);
            }
        }
        for atom in &query.body.atoms {
            for value in atom.constants() {
                domain.insert(value);
            }
        }
        domain.into_iter().filter(|v| v.is_constant()).collect()
    }

    /// Resolve all goals; returns the final unifier of the first accepting
    /// proof found, or `None`.
    fn resolve(
        &self,
        goals: &[Atom],
        unifier: Unifier,
        comparisons: &[Comparison],
        depth: usize,
        rename_counter: &mut usize,
        nulls: &NullGenerator,
    ) -> Option<Unifier> {
        let Some((goal, rest)) = goals.split_first() else {
            // All atoms resolved: check the comparison literals.
            return self
                .comparisons_hold(comparisons, &unifier)
                .then_some(unifier);
        };
        let goal = unifier.apply_atom(goal);

        // Choice (a): match the goal against an extensional (or
        // program-fact) tuple.
        if let Ok(relation) = self.database.relation(&goal.predicate) {
            if relation.schema().arity() == goal.arity() {
                // Bind constant positions to narrow the scan.
                let bindings: Vec<(usize, Value)> = goal
                    .terms
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| t.as_const().map(|v| (i, *v)))
                    .collect();
                let mut rows = Vec::new();
                relation.select_ids_into(&bindings, StampWindow::all(), &mut rows);
                for row in rows {
                    let tuple = relation.row_tuple(row);
                    let mut candidate = unifier.clone();
                    if unify_with_tuple(&mut candidate, &goal, &tuple) {
                        if let Some(result) =
                            self.resolve(rest, candidate, comparisons, depth, rename_counter, nulls)
                        {
                            return Some(result);
                        }
                    }
                }
            }
        }
        for fact in &self.program.facts {
            if fact.atom().predicate == goal.predicate && fact.atom().arity() == goal.arity() {
                let mut candidate = unifier.clone();
                if candidate.unify_atoms(&goal, fact.atom()) {
                    if let Some(result) =
                        self.resolve(rest, candidate, comparisons, depth, rename_counter, nulls)
                    {
                        return Some(result);
                    }
                }
            }
        }

        // Choice (b): resolve the goal against a TGD head.
        if depth == 0 {
            return None;
        }
        for tgd in &self.program.tgds {
            for head_index in 0..tgd.head.len() {
                *rename_counter += 1;
                let renamed = rename_apart(tgd, *rename_counter);
                let head_atom = &renamed.head[head_index];
                if head_atom.predicate != goal.predicate || head_atom.arity() != goal.arity() {
                    continue;
                }
                // Existential variables may not capture constants of the goal
                // (certain-answer semantics); bind them to fresh nulls first.
                let existential = renamed.existential_variables();
                let mut candidate = unifier.clone();
                let mut consistent = true;
                for var in &existential {
                    let fresh = Term::Const(Value::Null(nulls.fresh()));
                    if !candidate.unify_terms(&Term::Var(*var), &fresh) {
                        consistent = false;
                        break;
                    }
                }
                if !consistent {
                    continue;
                }
                if !candidate.unify_atoms(&goal, head_atom) {
                    continue;
                }
                // The TGD body atoms become new sub-goals, resolved before the
                // remaining goals (left-to-right, depth-first).
                let mut new_goals: Vec<Atom> = renamed.body().atoms.clone();
                new_goals.extend_from_slice(rest);
                if let Some(result) = self.resolve(
                    &new_goals,
                    candidate,
                    comparisons,
                    depth - 1,
                    rename_counter,
                    nulls,
                ) {
                    return Some(result);
                }
            }
        }
        None
    }

    fn comparisons_hold(&self, comparisons: &[Comparison], unifier: &Unifier) -> bool {
        comparisons.iter().all(|cmp| {
            let left = unifier.apply_term(&cmp.left);
            let right = unifier.apply_term(&cmp.right);
            match (left, right) {
                (Term::Const(l), Term::Const(r)) => cmp.op.eval(&l, &r).unwrap_or(false),
                // A comparison over an unresolved variable cannot be certain.
                _ => false,
            }
        })
    }
}

/// Unify a goal atom with a database tuple (constants on the tuple side).
fn unify_with_tuple(unifier: &mut Unifier, goal: &Atom, tuple: &Tuple) -> bool {
    goal.terms
        .iter()
        .zip(tuple.values())
        .all(|(term, value)| unifier.unify_terms(term, &Term::Const(*value)))
}

/// Rename a TGD's variables apart by suffixing them with a use counter.
fn rename_apart(tgd: &Tgd, counter: usize) -> Tgd {
    let mut unifier = Unifier::new();
    let vars: BTreeSet<Variable> = tgd
        .body_variables()
        .into_iter()
        .chain(tgd.head_variables())
        .collect();
    for var in vars {
        let renamed = var.renamed(counter);
        let bound = unifier.unify_terms(&Term::Var(var), &Term::Var(renamed));
        debug_assert!(bound);
    }
    let body = unifier.apply_conjunction(tgd.body());
    let head = tgd.head.iter().map(|a| unifier.apply_atom(a)).collect();
    let mut renamed = Tgd::with_heads(body.atoms, body.comparisons, head);
    renamed.label = tgd.label.clone();
    renamed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::MaterializedEngine;
    use ontodq_datalog::parse_program;
    use ontodq_mdm::fixtures::hospital;

    fn hospital_compiled() -> (Program, Database) {
        let compiled = ontodq_mdm::compile(&hospital::ontology());
        (compiled.program, compiled.database)
    }

    #[test]
    fn boolean_query_on_extensional_data() {
        let (program, db) = hospital_compiled();
        let engine = DeterministicWsqAns::new(&program, &db);
        let q = ConjunctiveQuery::parse("Q() :- PatientWard(W1, d, p).").unwrap();
        assert!(engine.answer_boolean(&q));
        let q2 = ConjunctiveQuery::parse("Q() :- PatientWard(W9, d, p).").unwrap();
        assert!(!engine.answer_boolean(&q2));
    }

    #[test]
    fn boolean_query_requiring_upward_navigation() {
        let (program, db) = hospital_compiled();
        let engine = DeterministicWsqAns::new(&program, &db);
        // PatientUnit is purely intensional: answering requires resolving
        // through rule (7).
        let q = ConjunctiveQuery::parse("Q() :- PatientUnit(Standard, d, p), p = \"Tom Waits\".")
            .unwrap();
        assert!(engine.answer_boolean(&q));
        let q2 = ConjunctiveQuery::parse("Q() :- PatientUnit(Terminal, d, p), p = \"Lou Reed\".")
            .unwrap();
        assert!(!engine.answer_boolean(&q2));
    }

    #[test]
    fn boolean_query_requiring_downward_navigation() {
        let (program, db) = hospital_compiled();
        let engine = DeterministicWsqAns::new(&program, &db);
        // Example 5: Mark has a shift in W2 on Sep/9 (with an unknown shift
        // value) — entailed through rule (8).
        let q = ConjunctiveQuery::parse("Q() :- Shifts(W2, \"Sep/9\", \"Mark\", s).").unwrap();
        assert!(engine.answer_boolean(&q));
        // But no particular shift value is certain.
        let q2 =
            ConjunctiveQuery::parse("Q() :- Shifts(W2, \"Sep/9\", \"Mark\", s), s = \"morning\".")
                .unwrap();
        assert!(!engine.answer_boolean(&q2));
    }

    #[test]
    fn existential_positions_do_not_capture_constants() {
        let (program, db) = hospital_compiled();
        let engine = DeterministicWsqAns::new(&program, &db);
        // Asking for a *specific* shift value that only exists as a null must
        // fail; the extensional Shifts tuples still answer their own values.
        let q = ConjunctiveQuery::parse("Q() :- Shifts(W1, \"Sep/6\", \"Helen\", \"morning\").")
            .unwrap();
        assert!(engine.answer_boolean(&q));
        let q2 = ConjunctiveQuery::parse("Q() :- Shifts(W2, \"Sep/9\", \"Mark\", \"morning\").")
            .unwrap();
        assert!(!engine.answer_boolean(&q2));
    }

    #[test]
    fn open_query_example_5() {
        let (program, db) = hospital_compiled();
        let engine = DeterministicWsqAns::new(&program, &db);
        let q = ConjunctiveQuery::parse("Q(d) :- Shifts(W2, d, \"Mark\", s).").unwrap();
        let answers = engine.answer_open(&q);
        assert_eq!(answers.to_vec(), vec![Tuple::from_iter(["Sep/9"])]);
    }

    #[test]
    fn open_answers_match_materialization_on_the_hospital_ontology() {
        let (program, db) = hospital_compiled();
        let resolution = DeterministicWsqAns::new(&program, &db);
        let materialized = MaterializedEngine::new(&program, &db);
        for text in [
            "Q(d) :- Shifts(W1, d, \"Mark\", s).",
            "Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".",
            "Q(u) :- PatientUnit(u, d, \"Tom Waits\").",
            "Q(n) :- Shifts(W2, d, n, s).",
            "Q(w, d) :- Shifts(w, d, \"Helen\", s).",
        ] {
            let q = ConjunctiveQuery::parse(text).unwrap();
            assert_eq!(
                resolution.answer_open(&q),
                materialized.certain_answers(&q),
                "disagreement on {text}"
            );
        }
    }

    #[test]
    fn recursive_programs_respect_the_depth_bound() {
        // Transitive closure: resolution must chain rule applications.
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            db.insert_values("E", [a, b]).unwrap();
        }
        let engine = DeterministicWsqAns::new(&program, &db);
        let q = ConjunctiveQuery::parse("Q() :- T(\"a\", \"d\").").unwrap();
        assert!(engine.answer_boolean(&q));
        // With a tiny depth bound the distant fact is no longer provable.
        let strict = DeterministicWsqAns::with_config(
            &program,
            &db,
            ResolutionConfig {
                max_rule_depth: 1,
                ..Default::default()
            },
        );
        assert!(!strict.answer_boolean(&q));
        // The bound does not affect directly provable goals.
        let q_close = ConjunctiveQuery::parse("Q() :- T(\"a\", \"b\").").unwrap();
        assert!(strict.answer_boolean(&q_close));
    }

    #[test]
    fn program_facts_participate_in_proofs() {
        let program = parse_program(
            "Unit(Standard).\n\
             KnownUnit(u) :- Unit(u).\n",
        )
        .unwrap();
        let db = Database::new();
        let engine = DeterministicWsqAns::new(&program, &db);
        let q = ConjunctiveQuery::parse("Q() :- KnownUnit(Standard).").unwrap();
        assert!(engine.answer_boolean(&q));
        let q2 = ConjunctiveQuery::parse("Q() :- KnownUnit(Oncology).").unwrap();
        assert!(!engine.answer_boolean(&q2));
    }

    #[test]
    fn boolean_open_query_wrapper() {
        let (program, db) = hospital_compiled();
        let engine = DeterministicWsqAns::new(&program, &db);
        let q = ConjunctiveQuery::parse("Q() :- PatientUnit(Standard, d, p).").unwrap();
        let answers = engine.answer_open(&q);
        assert_eq!(answers.len(), 1);
        assert!(answers.contains(&Tuple::new(vec![])));
    }

    #[test]
    fn open_candidate_budget_is_respected() {
        let (program, db) = hospital_compiled();
        let engine = DeterministicWsqAns::with_config(
            &program,
            &db,
            ResolutionConfig {
                max_open_candidates: 5,
                ..Default::default()
            },
        );
        let q = ConjunctiveQuery::parse("Q(u) :- PatientUnit(u, d, \"Tom Waits\").").unwrap();
        // The guard keeps the engine from enumerating the full domain; it may
        // find fewer answers but must not loop or panic.
        let answers = engine.answer_open(&q);
        assert!(answers.len() <= 5);
    }
}
