//! Conjunctive queries and answer sets.

use ontodq_datalog::{parse_rule, Conjunction, Rule, Term, Variable};
use ontodq_relational::Tuple;
use std::collections::BTreeSet;
use std::fmt;

/// A conjunctive query `Q(x̄) ← body`.
///
/// When `answer_variables` is empty the query is Boolean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// Optional query name (defaults to `Q`).
    pub name: String,
    /// The answer (head) variables, in output order.
    pub answer_variables: Vec<Variable>,
    /// The query body.
    pub body: Conjunction,
}

impl ConjunctiveQuery {
    /// Construct a query.
    pub fn new(
        name: impl Into<String>,
        answer_variables: Vec<Variable>,
        body: Conjunction,
    ) -> Self {
        Self {
            name: name.into(),
            answer_variables,
            body,
        }
    }

    /// Parse a query written as a rule, e.g.
    /// `Q(d) :- Shifts(W2, d, Mark, s).`
    ///
    /// The head predicate name becomes the query name and the head variables
    /// become the answer variables (constants in the head are not allowed).
    pub fn parse(text: &str) -> Result<Self, String> {
        let rule = parse_rule(text).map_err(|e| e.to_string())?;
        match rule {
            Rule::Tgd(tgd) => {
                if tgd.head.len() != 1 {
                    return Err("a query must have a single head atom".into());
                }
                let head = &tgd.head[0];
                let mut answer_variables = Vec::new();
                for term in &head.terms {
                    match term {
                        Term::Var(v) => answer_variables.push(*v),
                        Term::Const(c) => {
                            return Err(format!(
                                "query heads may only contain variables, found constant {c}"
                            ))
                        }
                    }
                }
                // Safety: answer variables must occur in the body.
                let body_vars: BTreeSet<Variable> = tgd.body.variables().into_iter().collect();
                for v in &answer_variables {
                    if !body_vars.contains(v) {
                        return Err(format!("answer variable {v} does not occur in the body"));
                    }
                }
                Ok(Self::new(
                    head.predicate.clone(),
                    answer_variables,
                    tgd.body,
                ))
            }
            other => Err(format!("not a conjunctive query: {other}")),
        }
    }

    /// `true` when the query is Boolean (no answer variables).
    pub(crate) fn is_boolean(&self) -> bool {
        self.answer_variables.is_empty()
    }

    /// The arity of the answer relation.
    pub fn arity(&self) -> usize {
        self.answer_variables.len()
    }

    /// The predicates referenced by the query body (positive atoms only).
    pub fn predicates(&self) -> BTreeSet<String> {
        self.body
            .atoms
            .iter()
            .map(|a| a.predicate.clone())
            .collect()
    }

    /// The Boolean query obtained by substituting `tuple` for the answer
    /// variables (positionally).  Panics if the arity does not match.
    pub(crate) fn instantiate(&self, tuple: &Tuple) -> ConjunctiveQuery {
        assert_eq!(tuple.arity(), self.arity(), "arity mismatch in instantiate");
        let mut unifier = ontodq_datalog::Unifier::new();
        for (var, value) in self.answer_variables.iter().zip(tuple.values()) {
            let bound = unifier.unify_terms(&Term::Var(*var), &Term::Const(*value));
            debug_assert!(bound);
        }
        ConjunctiveQuery {
            name: self.name.clone(),
            answer_variables: Vec::new(),
            body: unifier.apply_conjunction(&self.body),
        }
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, v) in self.answer_variables.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") :- {}.", self.body)
    }
}

/// A set of answers to a conjunctive query: deduplicated tuples over the
/// answer variables, kept in sorted order for deterministic output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnswerSet {
    tuples: BTreeSet<Tuple>,
}

impl AnswerSet {
    /// The empty answer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an answer set from tuples.
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(tuples: I) -> Self {
        Self {
            tuples: tuples.into_iter().collect(),
        }
    }

    /// Add a tuple; returns `true` when it was new.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        self.tuples.insert(tuple)
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when there are no answers.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Does the set contain `tuple`?
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Iterate in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The answers as a sorted vector.
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.tuples.iter().cloned().collect()
    }

    /// Keep only the *certain* answers: tuples without labeled nulls.
    pub fn certain(&self) -> AnswerSet {
        AnswerSet {
            tuples: self
                .tuples
                .iter()
                .filter(|t| t.is_ground())
                .cloned()
                .collect(),
        }
    }
}

impl fmt::Display for AnswerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tuples {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

impl FromIterator<Tuple> for AnswerSet {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Self::from_tuples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_relational::{NullId, Value};

    #[test]
    fn parse_open_query() {
        let q = ConjunctiveQuery::parse("Q(d) :- Shifts(W2, d, \"Mark\", s).").unwrap();
        assert_eq!(q.name, "Q");
        assert_eq!(q.answer_variables, vec![Variable::new("d")]);
        assert_eq!(q.arity(), 1);
        assert!(!q.is_boolean());
        assert_eq!(q.predicates(), ["Shifts".to_string()].into());
    }

    #[test]
    fn parse_boolean_query() {
        let q = ConjunctiveQuery::parse("Q() :- PatientUnit(Standard, d, p).").unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.arity(), 0);
    }

    #[test]
    fn parse_rejects_bad_queries() {
        // Constant in the head.
        assert!(ConjunctiveQuery::parse("Q(W1) :- Shifts(W1, d, n, s).").is_err());
        // Answer variable not in the body.
        assert!(ConjunctiveQuery::parse("Q(x) :- Shifts(W1, d, n, s).").is_err());
        // Not a rule at all.
        assert!(ConjunctiveQuery::parse("Shifts(W1, Sep5, Helen, morning).").is_err());
        // Facts/EGDs are not queries.
        assert!(ConjunctiveQuery::parse("x = y :- R(x, y).").is_err());
    }

    #[test]
    fn instantiate_produces_boolean_query() {
        let q = ConjunctiveQuery::parse("Q(d, n) :- Shifts(W2, d, n, s).").unwrap();
        let b = q.instantiate(&Tuple::from_iter(["Sep/9", "Mark"]));
        assert!(b.is_boolean());
        let atom = &b.body.atoms[0];
        assert_eq!(atom.terms[1], Term::constant("Sep/9"));
        assert_eq!(atom.terms[2], Term::constant("Mark"));
        // The non-answer variable stays a variable.
        assert!(atom.terms[3].is_var());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn instantiate_panics_on_arity_mismatch() {
        let q = ConjunctiveQuery::parse("Q(d) :- Shifts(W2, d, n, s).").unwrap();
        let _ = q.instantiate(&Tuple::from_iter(["a", "b"]));
    }

    #[test]
    fn query_display_round_trips_through_parse() {
        let q = ConjunctiveQuery::parse("Q(d) :- Shifts(W2, d, n, s), n = \"Mark\".").unwrap();
        let reparsed = ConjunctiveQuery::parse(&q.to_string()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn answer_set_operations() {
        let mut answers = AnswerSet::new();
        assert!(answers.is_empty());
        assert!(answers.insert(Tuple::from_iter(["Sep/9"])));
        assert!(!answers.insert(Tuple::from_iter(["Sep/9"])));
        answers.insert(Tuple::from_iter(["Sep/5"]));
        assert_eq!(answers.len(), 2);
        assert!(answers.contains(&Tuple::from_iter(["Sep/5"])));
        // Sorted order.
        let v = answers.to_vec();
        assert_eq!(v[0], Tuple::from_iter(["Sep/5"]));
        assert_eq!(v[1], Tuple::from_iter(["Sep/9"]));
        assert_eq!(answers.to_string().lines().count(), 2);
    }

    #[test]
    fn certain_answers_drop_nulls() {
        let answers = AnswerSet::from_tuples([
            Tuple::from_iter(["Sep/9"]),
            Tuple::new(vec![Value::Null(NullId(0))]),
        ]);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers.certain().len(), 1);
        assert!(answers.certain().contains(&Tuple::from_iter(["Sep/9"])));
    }
}
