//! First-order (UCQ) query rewriting for upward-navigation ontologies —
//! Section IV of the paper.
//!
//! For ontologies whose dimensional rules only navigate upward (detected
//! syntactically by `ontodq_mdm::is_upward_only`), conjunctive
//! queries can be rewritten into a union of conjunctive queries that is
//! evaluated *directly* on the extensional database, with no chase and no
//! resolution search.  The rewriting repeatedly unfolds query atoms against
//! TGD heads (backward application of the rules), the classic
//! PerfectRef-style procedure adapted to the dimensional setting where
//! roll-up joins are replaced by parent–child atoms.
//!
//! Existential head variables are handled with the usual applicability
//! condition: a rule may be used to unfold an atom only if the terms at the
//! existential positions are variables that occur nowhere else in the query
//! (and are not answer variables) — otherwise the unfolding would lose the
//! join/selection on the unknown value.

use crate::query::{AnswerSet, ConjunctiveQuery};
use ontodq_datalog::{Atom, Comparison, Conjunction, Program, Term, Tgd, Unifier, Variable};
use ontodq_relational::Database;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Configuration of the rewriting procedure.
#[derive(Debug, Clone)]
pub(crate) struct RewriteConfig {
    /// Maximum number of distinct conjunctive queries generated.
    pub(crate) max_queries: usize,
    /// Maximum number of unfolding steps.
    pub(crate) max_steps: usize,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        Self {
            max_queries: 10_000,
            max_steps: 100_000,
        }
    }
}

/// A union of conjunctive queries (the rewriting output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionQuery {
    /// The disjuncts, all sharing the same answer arity.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// `true` when the union is empty (unsatisfiable).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Evaluate the union over an extensional database, returning certain
    /// (null-free) answers.  Evaluation goes through the shared join engine
    /// of `ontodq-chase`, so any hash indexes present on the database (built
    /// by [`UnionQuery::prepare`], by a prior chase, or by hand) are used.
    pub fn evaluate(&self, database: &Database) -> AnswerSet {
        let mut answers = AnswerSet::new();
        for query in &self.disjuncts {
            for tuple in
                ontodq_chase::evaluate_project(database, &query.body, &query.answer_variables)
            {
                if tuple.is_ground() {
                    answers.insert(tuple);
                }
            }
        }
        answers
    }

    /// Build the hash indexes every disjunct's join positions want
    /// (idempotent).  A rewriting is evaluated once per disjunct over the
    /// same extensional database, so shared join positions pay the build
    /// cost once and every disjunct profits.
    pub fn prepare(&self, database: &mut Database) {
        for query in &self.disjuncts {
            ontodq_chase::ensure_indexes(database, &query.body);
        }
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for q in &self.disjuncts {
            writeln!(f, "{q}")?;
        }
        Ok(())
    }
}

/// Rewrite a conjunctive query with respect to a program's TGDs, with the
/// default configuration.
pub fn rewrite(program: &Program, query: &ConjunctiveQuery) -> UnionQuery {
    rewrite_with(program, query, &RewriteConfig::default())
}

/// Rewrite with an explicit configuration.
pub(crate) fn rewrite_with(
    program: &Program,
    query: &ConjunctiveQuery,
    config: &RewriteConfig,
) -> UnionQuery {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut out: Vec<ConjunctiveQuery> = Vec::new();
    let mut queue: VecDeque<ConjunctiveQuery> = VecDeque::new();
    let canonical = |q: &ConjunctiveQuery| canonicalize(q);

    seen.insert(canonical(query));
    out.push(query.clone());
    queue.push_back(query.clone());

    let mut steps = 0usize;
    let mut rename_counter = 0usize;

    while let Some(current) = queue.pop_front() {
        for (atom_index, atom) in current.body.atoms.iter().enumerate() {
            for tgd in &program.tgds {
                for head_index in 0..tgd.head.len() {
                    steps += 1;
                    if steps > config.max_steps || out.len() >= config.max_queries {
                        return UnionQuery { disjuncts: out };
                    }
                    rename_counter += 1;
                    if let Some(unfolded) =
                        unfold(&current, atom_index, atom, tgd, head_index, rename_counter)
                    {
                        let key = canonical(&unfolded);
                        if seen.insert(key) {
                            out.push(unfolded.clone());
                            queue.push_back(unfolded);
                        }
                    }
                }
            }
        }
    }
    UnionQuery { disjuncts: out }
}

/// Rewrite and evaluate in one step.
pub fn answer_by_rewriting(
    program: &Program,
    database: &Database,
    query: &ConjunctiveQuery,
) -> AnswerSet {
    rewrite(program, query).evaluate(database)
}

/// Attempt to unfold `atom` (at `atom_index` in `query`) against head atom
/// `head_index` of `tgd`.  Returns the new query, or `None` when the rule is
/// not applicable.
fn unfold(
    query: &ConjunctiveQuery,
    atom_index: usize,
    atom: &Atom,
    tgd: &Tgd,
    head_index: usize,
    rename_counter: usize,
) -> Option<ConjunctiveQuery> {
    let renamed = rename_apart(tgd, rename_counter);
    let head = &renamed.head[head_index];
    if head.predicate != atom.predicate || head.arity() != atom.arity() {
        return None;
    }
    let existential = renamed.existential_variables();

    // Applicability of existential positions: the query term must be a
    // variable occurring nowhere else in the query and not an answer
    // variable.
    let occurrences = variable_occurrences(query);
    for (position, head_term) in head.terms.iter().enumerate() {
        let head_var = head_term.as_var();
        let is_existential = head_var.map(|v| existential.contains(v)).unwrap_or(false);
        if !is_existential {
            continue;
        }
        match &atom.terms[position] {
            Term::Const(_) => return None,
            Term::Var(v) => {
                if query.answer_variables.contains(v) {
                    return None;
                }
                if occurrences.get(v).copied().unwrap_or(0) > 1 {
                    return None;
                }
            }
        }
    }

    // Unify the query atom with the head.
    let mut unifier = Unifier::new();
    if !unifier.unify_atoms(atom, head) {
        return None;
    }

    // Answer variables must remain variables (we do not specialize the answer
    // tuple shape).
    for answer in &query.answer_variables {
        if unifier.apply_term(&Term::Var(*answer)).is_const() {
            return None;
        }
    }

    // Build the unfolded body: the other query atoms plus the rule body, all
    // under the unifier; comparisons are carried over.
    let mut atoms: Vec<Atom> = Vec::new();
    for (i, other) in query.body.atoms.iter().enumerate() {
        if i != atom_index {
            atoms.push(unifier.apply_atom(other));
        }
    }
    for body_atom in &renamed.body.atoms {
        atoms.push(unifier.apply_atom(body_atom));
    }
    let comparisons: Vec<Comparison> = query
        .body
        .comparisons
        .iter()
        .map(|c| {
            Comparison::new(
                unifier.apply_term(&c.left),
                c.op,
                unifier.apply_term(&c.right),
            )
        })
        .collect();

    // Rename answer variables through the unifier (a head variable may have
    // been substituted for them).
    let answer_variables: Vec<Variable> = query
        .answer_variables
        .iter()
        .map(|v| match unifier.apply_term(&Term::Var(*v)) {
            Term::Var(nv) => nv,
            Term::Const(_) => unreachable!("checked above"),
        })
        .collect();

    let mut body = Conjunction::positive(atoms);
    body.comparisons = comparisons;
    Some(ConjunctiveQuery::new(
        query.name.clone(),
        answer_variables,
        body,
    ))
}

/// Count variable occurrences across the query body and head.
fn variable_occurrences(query: &ConjunctiveQuery) -> BTreeMap<Variable, usize> {
    let mut counts: BTreeMap<Variable, usize> = BTreeMap::new();
    for atom in &query.body.atoms {
        for term in &atom.terms {
            if let Term::Var(v) = term {
                *counts.entry(*v).or_default() += 1;
            }
        }
    }
    for cmp in &query.body.comparisons {
        for term in [&cmp.left, &cmp.right] {
            if let Term::Var(v) = term {
                *counts.entry(*v).or_default() += 1;
            }
        }
    }
    counts
}

/// A canonical string for duplicate elimination: the query with variables
/// renamed to their first-occurrence index.
fn canonicalize(query: &ConjunctiveQuery) -> String {
    let mut mapping: BTreeMap<Variable, String> = BTreeMap::new();
    let mut next = 0usize;
    let mut canonical_term = |t: &Term| -> String {
        match t {
            Term::Var(v) => mapping
                .entry(*v)
                .or_insert_with(|| {
                    let name = format!("v{next}");
                    next += 1;
                    name
                })
                .clone(),
            Term::Const(c) => format!("c:{c}"),
        }
    };
    let mut parts: Vec<String> = Vec::new();
    parts.push(
        query
            .answer_variables
            .iter()
            .map(|v| canonical_term(&Term::Var(*v)))
            .collect::<Vec<_>>()
            .join(","),
    );
    // Sort atoms for a canonical order *after* canonical naming would change
    // semantics; keep body order (queries produced by unfolding in different
    // orders are treated as distinct, which only costs a few duplicates).
    for atom in &query.body.atoms {
        let args: Vec<String> = atom.terms.iter().map(&mut canonical_term).collect();
        parts.push(format!("{}({})", atom.predicate, args.join(",")));
    }
    for cmp in &query.body.comparisons {
        parts.push(format!(
            "{}{}{}",
            canonical_term(&cmp.left),
            cmp.op,
            canonical_term(&cmp.right)
        ));
    }
    parts.join("&")
}

/// Rename a TGD's variables apart (suffix by the counter).
fn rename_apart(tgd: &Tgd, counter: usize) -> Tgd {
    let mut unifier = Unifier::new();
    let vars: BTreeSet<Variable> = tgd
        .body_variables()
        .into_iter()
        .chain(tgd.head_variables())
        .collect();
    for var in vars {
        let renamed = Variable::new(format!("r{counter}_{}", var.name()));
        let bound = unifier.unify_terms(&Term::Var(var), &Term::Var(renamed));
        debug_assert!(bound);
    }
    Tgd {
        label: tgd.label.clone(),
        body: unifier.apply_conjunction(&tgd.body),
        head: tgd.head.iter().map(|a| unifier.apply_atom(a)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::MaterializedEngine;
    use ontodq_datalog::parse_program;
    use ontodq_mdm::fixtures::hospital;
    use ontodq_mdm::{compile, MdOntology};
    use ontodq_relational::Tuple;

    /// The hospital ontology restricted to its upward rule (7), the setting
    /// in which the paper's FO rewriting applies.
    fn upward_only_ontology() -> MdOntology {
        let mut o = MdOntology::new("hospital-upward");
        o.add_dimension(hospital::hospital_dimension());
        o.add_dimension(hospital::time_dimension());
        for schema in hospital::categorical_schemas() {
            o.add_relation(schema);
        }
        let source = hospital::ontology();
        // Copy the categorical data.
        for relation in source.data().relations() {
            for tuple in relation.iter() {
                let values: Vec<_> = tuple.values().to_vec();
                o.add_tuple(relation.name(), values).unwrap();
            }
        }
        o.add_rule(hospital::patient_unit_rule());
        o
    }

    #[test]
    fn rewriting_unfolds_patient_unit_into_patient_ward() {
        let compiled = compile(&upward_only_ontology());
        let q = ConjunctiveQuery::parse("Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".")
            .unwrap();
        let ucq = rewrite(&compiled.program, &q);
        // Original query plus one unfolding through rule (7).
        assert_eq!(ucq.len(), 2);
        let rendered = ucq.to_string();
        assert!(rendered.contains("PatientWard"));
        assert!(rendered.contains("UnitWard"));
    }

    #[test]
    fn rewriting_answers_match_materialization_on_upward_only_ontologies() {
        let ontology = upward_only_ontology();
        assert!(ontodq_mdm::is_upward_only(&ontology));
        let compiled = compile(&ontology);
        let materialized = MaterializedEngine::new(&compiled.program, &compiled.database);
        for text in [
            "Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".",
            "Q(u, d) :- PatientUnit(u, d, \"Lou Reed\").",
            "Q(p) :- PatientUnit(Intensive, d, p).",
            "Q(d) :- PatientWard(W1, d, p).",
            "Q(u) :- PatientUnit(u, d, p), WorkingSchedules(u, d, n, t).",
        ] {
            let q = ConjunctiveQuery::parse(text).unwrap();
            let rewritten = answer_by_rewriting(&compiled.program, &compiled.database, &q);
            let reference = materialized.certain_answers(&q);
            assert_eq!(rewritten, reference, "disagreement on {text}");
        }
    }

    #[test]
    fn rewriting_is_evaluated_without_the_chase() {
        // The point of the rewriting: it runs on the *raw* extensional
        // database (no PatientUnit tuples exist anywhere).
        let compiled = compile(&upward_only_ontology());
        assert!(compiled
            .database
            .relation("PatientUnit")
            .map(|r| r.is_empty())
            .unwrap_or(true));
        let q =
            ConjunctiveQuery::parse("Q(d) :- PatientUnit(Standard, d, \"Tom Waits\").").unwrap();
        let answers = answer_by_rewriting(&compiled.program, &compiled.database, &q);
        assert_eq!(answers.len(), 2);
        assert!(answers.contains(&Tuple::from_iter(["Sep/5"])));
        assert!(answers.contains(&Tuple::from_iter(["Sep/6"])));
    }

    #[test]
    fn existential_rules_are_not_unfolded_when_the_value_is_constrained() {
        // Rule (8) invents the shift value; a query that constrains the shift
        // cannot be answered by unfolding through it.
        let compiled = compile(&hospital::ontology());
        let q = ConjunctiveQuery::parse("Q(d) :- Shifts(W2, d, \"Mark\", s), s = \"morning\".")
            .unwrap();
        let ucq = rewrite(&compiled.program, &q);
        // Only the original disjunct remains (s occurs in the comparison, so
        // the existential applicability condition fails).
        assert_eq!(ucq.len(), 1);
        // An unconstrained shift variable can be unfolded away.
        let q2 = ConjunctiveQuery::parse("Q(d) :- Shifts(W2, d, \"Mark\", s).").unwrap();
        let ucq2 = rewrite(&compiled.program, &q2);
        assert_eq!(ucq2.len(), 2);
        let answers = ucq2.evaluate(&compiled.database);
        assert_eq!(answers.to_vec(), vec![Tuple::from_iter(["Sep/9"])]);
    }

    #[test]
    fn answer_variables_are_never_specialized_to_constants() {
        let program = parse_program("P(C1, x) :- R(x).\n").unwrap();
        let q = ConjunctiveQuery::parse("Q(a) :- P(a, b).").unwrap();
        let ucq = rewrite(&program, &q);
        // Unfolding would force the answer variable `a` to the constant C1 →
        // rejected; only the original query remains.
        assert_eq!(ucq.len(), 1);
    }

    #[test]
    fn recursive_rules_terminate_via_deduplication() {
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap();
        let q = ConjunctiveQuery::parse("Q(x, y) :- T(x, y).").unwrap();
        let config = RewriteConfig {
            max_queries: 50,
            max_steps: 5_000,
        };
        let ucq = rewrite_with(&program, &q, &config);
        assert!(ucq.len() <= 50);
        // The rewriting contains at least the one-step and two-step
        // unfoldings over E.
        let mut db = Database::new();
        db.insert_values("E", ["a", "b"]).unwrap();
        db.insert_values("E", ["b", "c"]).unwrap();
        let answers = ucq.evaluate(&db);
        assert!(answers.contains(&Tuple::from_iter(["a", "b"])));
        assert!(answers.contains(&Tuple::from_iter(["a", "c"])));
    }

    #[test]
    fn prepared_evaluation_builds_indexes_and_agrees_with_unprepared() {
        let ontology = upward_only_ontology();
        let compiled = compile(&ontology);
        let q = ConjunctiveQuery::parse("Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".")
            .unwrap();
        let plain = answer_by_rewriting(&compiled.program, &compiled.database, &q);
        let mut db = compiled.database.clone();
        let rewritten = rewrite(&compiled.program, &q);
        rewritten.prepare(&mut db);
        let prepared = rewritten.evaluate(&db);
        assert_eq!(plain, prepared);
        // The rewriting joins PatientWard and UnitWard on the ward variable;
        // preparation must have left an index behind on at least one of the
        // join positions.
        assert!(
            db.relation("PatientWard").unwrap().has_index(0)
                || db.relation("UnitWard").unwrap().has_index(1)
        );
    }

    #[test]
    fn union_query_helpers() {
        let q = ConjunctiveQuery::parse("Q(x) :- R(x).").unwrap();
        let ucq = UnionQuery { disjuncts: vec![q] };
        assert_eq!(ucq.len(), 1);
        assert!(!ucq.is_empty());
        assert!(ucq.to_string().contains("R(x)"));
        let empty = UnionQuery { disjuncts: vec![] };
        assert!(empty.is_empty());
        assert!(empty.evaluate(&Database::new()).is_empty());
    }
}
