//! Atoms: relational atoms, built-in comparison atoms, and conjunctions.

use crate::term::{Term, Variable};
use ontodq_relational::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A relational atom `P(t1, …, tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Predicate name.
    pub predicate: String,
    /// Argument terms, in positional order.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(predicate: impl Into<String>, terms: Vec<Term>) -> Self {
        Self {
            predicate: predicate.into(),
            terms,
        }
    }

    /// Construct an atom whose arguments are all variables, named as given.
    pub fn with_vars(predicate: impl Into<String>, vars: &[&str]) -> Self {
        Self::new(predicate, vars.iter().map(|v| Term::var(*v)).collect())
    }

    /// The atom's arity.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The distinct variables appearing in the atom, in first-occurrence
    /// order.
    pub fn variables(&self) -> Vec<Variable> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if seen.insert(*v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// The constants appearing in the atom.
    pub fn constants(&self) -> Vec<Value> {
        self.terms
            .iter()
            .filter_map(|t| t.as_const().cloned())
            .collect()
    }

    /// `true` when every argument is a constant.
    pub(crate) fn is_ground(&self) -> bool {
        self.terms.iter().all(Term::is_const)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// Comparison operators available in built-in atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CompareOp {
    /// Equality.
    Eq,
    /// Inequality.
    Neq,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CompareOp {
    /// Evaluate the comparison on two values; `None` means *unknown*, which
    /// callers treat as "condition not satisfied".
    ///
    /// A labeled null stands for some unknown value (the naive-table reading
    /// of Imieliński & Lipski), so only what holds for every value of the
    /// null is known.  Equality is decided on all values: a null equals only
    /// itself, and `⊥ = c` failing is sound for certain answers.
    /// Inequality is known only between two constants, or between a null
    /// and itself (false); `⊥ != c` is unknown, since `c` may be the value.
    /// The order comparisons require two constants of comparable kinds
    /// (numeric with numeric, string with string, time with time).
    pub fn eval(self, left: &Value, right: &Value) -> Option<bool> {
        match self {
            CompareOp::Eq => Some(left == right),
            CompareOp::Neq => match (left, right) {
                (Value::Null(_), _) | (_, Value::Null(_)) if left != right => None,
                _ => Some(left != right),
            },
            _ => {
                let ordering = match (left, right) {
                    (Value::Str(a), Value::Str(b)) => a.as_str().cmp(b.as_str()),
                    (Value::Null(_), _) | (_, Value::Null(_)) => return None,
                    _ => {
                        let (a, b) = (left.numeric()?, right.numeric()?);
                        a.partial_cmp(&b)?
                    }
                };
                Some(match self {
                    CompareOp::Lt => ordering.is_lt(),
                    CompareOp::Le => ordering.is_le(),
                    CompareOp::Gt => ordering.is_gt(),
                    CompareOp::Ge => ordering.is_ge(),
                    CompareOp::Eq | CompareOp::Neq => unreachable!(),
                })
            }
        }
    }

    /// The textual form used by the parser and printer.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Neq => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A built-in comparison atom `t1 op t2`, used in rule bodies for selection
/// conditions (e.g. the doctor's time window `Sep/5-11:45 <= t`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Comparison {
    /// Left-hand term.
    pub left: Term,
    /// The operator.
    pub op: CompareOp,
    /// Right-hand term.
    pub right: Term,
}

impl Comparison {
    /// Construct a comparison.
    pub fn new(left: Term, op: CompareOp, right: Term) -> Self {
        Self { left, op, right }
    }

    /// The distinct variables in the comparison.
    pub fn variables(&self) -> Vec<Variable> {
        let mut out = Vec::new();
        for t in [&self.left, &self.right] {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        }
        out
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// A conjunction of literals forming a rule body: positive relational atoms,
/// negated relational atoms (used only in negative constraints, e.g. the
/// referential constraint `⊥ ← PatientUnit(u,d;p), ¬Unit(u)`), and built-in
/// comparisons.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Conjunction {
    /// Positive relational atoms.
    pub atoms: Vec<Atom>,
    /// Negated relational atoms.
    pub negated: Vec<Atom>,
    /// Built-in comparison atoms.
    pub comparisons: Vec<Comparison>,
}

impl Conjunction {
    /// A conjunction of positive atoms only.
    pub fn positive(atoms: Vec<Atom>) -> Self {
        Self {
            atoms,
            negated: Vec::new(),
            comparisons: Vec::new(),
        }
    }

    /// An empty conjunction (true).
    pub(crate) fn empty() -> Self {
        Self::default()
    }

    /// Add a negated atom (builder style).
    pub fn and_not(mut self, atom: Atom) -> Self {
        self.negated.push(atom);
        self
    }

    /// Add a comparison (builder style).
    pub fn and_compare(mut self, cmp: Comparison) -> Self {
        self.comparisons.push(cmp);
        self
    }

    /// All distinct variables, in first-occurrence order (positive atoms
    /// first, then negated atoms, then comparisons).
    pub fn variables(&self) -> Vec<Variable> {
        let mut out: Vec<Variable> = Vec::new();
        let mut push = |v: Variable| {
            if !out.contains(&v) {
                out.push(v);
            }
        };
        for a in self.atoms.iter().chain(self.negated.iter()) {
            for v in a.variables() {
                push(v);
            }
        }
        for c in &self.comparisons {
            for v in c.variables() {
                push(v);
            }
        }
        out
    }

    /// Variables appearing in more than one *positive* atom occurrence or
    /// more than once within a positive atom — the "shared"/join variables
    /// relevant to stickiness analysis.
    pub(crate) fn repeated_variables(&self) -> Vec<Variable> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<Variable, usize> = BTreeMap::new();
        for atom in &self.atoms {
            for term in &atom.terms {
                if let Term::Var(v) = term {
                    *counts.entry(*v).or_default() += 1;
                }
            }
        }
        counts
            .into_iter()
            .filter_map(|(v, n)| (n > 1).then_some(v))
            .collect()
    }

    /// `true` when the conjunction has no literals at all.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty() && self.negated.is_empty() && self.comparisons.is_empty()
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.atoms.len() + self.negated.len() + self.comparisons.len()
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, ", ")
            }
        };
        for a in &self.atoms {
            sep(f)?;
            write!(f, "{a}")?;
        }
        for a in &self.negated {
            sep(f)?;
            write!(f, "not {a}")?;
        }
        for c in &self.comparisons {
            sep(f)?;
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_relational::NullId;

    fn patient_ward() -> Atom {
        Atom::with_vars("PatientWard", &["w", "d", "p"])
    }

    #[test]
    fn atom_variables_and_positions() {
        let a = Atom::new("UnitWard", vec![Term::var("u"), Term::var("u")]);
        assert_eq!(a.variables(), vec![Variable::new("u")]);
        assert_eq!(a.arity(), 2);
        assert!(!a.is_ground());
    }

    #[test]
    fn ground_atom_detection() {
        let g = Atom::new("Unit", vec![Term::constant("Standard")]);
        assert!(g.is_ground());
        assert_eq!(g.constants(), vec![Value::str("Standard")]);
    }

    #[test]
    fn atom_display() {
        assert_eq!(patient_ward().to_string(), "PatientWard(w, d, p)");
        let mixed = Atom::new(
            "PatientUnit",
            vec![
                Term::constant("Standard"),
                Term::var("d"),
                Term::constant("Tom Waits"),
            ],
        );
        assert_eq!(mixed.to_string(), "PatientUnit(Standard, d, \"Tom Waits\")");
    }

    #[test]
    fn compare_eval_equality_on_all_kinds() {
        assert_eq!(
            CompareOp::Eq.eval(&Value::str("B1"), &Value::str("B1")),
            Some(true)
        );
        assert_eq!(
            CompareOp::Neq.eval(&Value::str("B1"), &Value::str("B2")),
            Some(true)
        );
        assert_eq!(
            CompareOp::Eq.eval(&Value::Null(NullId(0)), &Value::Null(NullId(0))),
            Some(true)
        );
        assert_eq!(
            CompareOp::Eq.eval(&Value::Null(NullId(0)), &Value::str("x")),
            Some(false)
        );
    }

    #[test]
    fn compare_eval_inequality_with_a_null_is_unknown() {
        let null = Value::Null(NullId(0));
        assert_eq!(CompareOp::Neq.eval(&null, &Value::str("x")), None);
        assert_eq!(CompareOp::Neq.eval(&Value::str("x"), &null), None);
        assert_eq!(CompareOp::Neq.eval(&null, &Value::Null(NullId(1))), None);
        assert_eq!(CompareOp::Neq.eval(&null, &null), Some(false));
    }

    #[test]
    fn compare_eval_order_on_numbers_and_times() {
        assert_eq!(
            CompareOp::Lt.eval(&Value::int(1), &Value::int(2)),
            Some(true)
        );
        assert_eq!(
            CompareOp::Ge.eval(&Value::double(2.0), &Value::int(2)),
            Some(true)
        );
        let a = Value::parse_time("Sep/5-11:45").unwrap();
        let b = Value::parse_time("Sep/5-12:10").unwrap();
        assert_eq!(CompareOp::Le.eval(&a, &b), Some(true));
        assert_eq!(CompareOp::Gt.eval(&a, &b), Some(false));
    }

    #[test]
    fn compare_eval_order_on_strings_and_incomparables() {
        assert_eq!(
            CompareOp::Lt.eval(&Value::str("a"), &Value::str("b")),
            Some(true)
        );
        assert_eq!(CompareOp::Lt.eval(&Value::str("a"), &Value::int(1)), None);
        assert_eq!(
            CompareOp::Lt.eval(&Value::Null(NullId(1)), &Value::int(1)),
            None
        );
    }

    #[test]
    fn conjunction_builder_and_variables() {
        let conj = Conjunction::positive(vec![
            patient_ward(),
            Atom::with_vars("UnitWard", &["u", "w"]),
        ])
        .and_not(Atom::with_vars("Closed", &["u"]))
        .and_compare(Comparison::new(
            Term::var("d"),
            CompareOp::Ge,
            Term::constant(Value::parse_time("Sep/5").unwrap()),
        ));
        let vars = conj.variables();
        assert_eq!(
            vars,
            vec![
                Variable::new("w"),
                Variable::new("d"),
                Variable::new("p"),
                Variable::new("u"),
            ]
        );
        assert_eq!(conj.len(), 4);
        assert!(!conj.is_empty());
    }

    #[test]
    fn repeated_variables_counts_positive_atoms_only() {
        let conj = Conjunction::positive(vec![
            Atom::with_vars("PatientWard", &["w", "d", "p"]),
            Atom::with_vars("UnitWard", &["u", "w"]),
        ])
        .and_not(Atom::with_vars("Closed", &["u"]));
        assert_eq!(conj.repeated_variables(), vec![Variable::new("w")]);
    }

    #[test]
    fn conjunction_display() {
        let conj = Conjunction::positive(vec![patient_ward()])
            .and_not(Atom::with_vars("Unit", &["u"]))
            .and_compare(Comparison::new(
                Term::var("p"),
                CompareOp::Eq,
                Term::constant("Tom Waits"),
            ));
        assert_eq!(
            conj.to_string(),
            "PatientWard(w, d, p), not Unit(u), p = \"Tom Waits\""
        );
    }
}
