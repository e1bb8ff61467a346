//! Substitutions: assignments of variables to values, and unifiers mapping
//! variables to terms.
//!
//! Two flavours are needed:
//!
//! * [`Assignment`] maps variables to ground [`Value`]s; it is what
//!   conjunctive-query evaluation and the chase produce when matching rule
//!   bodies against an instance.
//! * [`Unifier`] maps variables to [`Term`]s (possibly other variables); it
//!   is what resolution-based query answering and FO rewriting use when
//!   unifying query atoms with rule heads.

use crate::atom::{Atom, Comparison, Conjunction};
use crate::term::{Term, Variable};
use ontodq_relational::{Tuple, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A ground assignment of variables to values.
///
/// Stored as a flat vector sorted by the variables' interned ids: rule
/// bodies bind a handful of variables, and the join extends (clones) an
/// assignment once per candidate tuple — with interned `Copy` variables
/// and scalar values, a clone is one allocation plus a memcpy, lookups are
/// a short scan, and ordering never takes the interner's lock.  Iteration
/// (and [`Assignment`]'s `Display`) follows that id order: deterministic
/// within a process, but *not* lexicographic by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assignment {
    entries: Vec<(Variable, Value)>,
}

impl Assignment {
    /// The empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `var` to `value`; returns `false` (and leaves the assignment
    /// unchanged) when `var` is already bound to a different value.
    pub fn bind(&mut self, var: Variable, value: Value) -> bool {
        match self
            .entries
            .binary_search_by_key(&var.sym_id(), |(v, _)| v.sym_id())
        {
            Ok(position) => self.entries[position].1 == value,
            Err(position) => {
                self.entries.insert(position, (var, value));
                true
            }
        }
    }

    /// The value bound to `var`, if any.
    pub fn get(&self, var: &Variable) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(v, _)| v == var)
            .map(|(_, value)| value)
    }

    /// `true` when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterate over the bindings in a canonical (interned-id) order —
    /// deterministic within a process, independent of bind order.
    pub fn iter(&self) -> impl Iterator<Item = (&Variable, &Value)> {
        self.entries.iter().map(|(var, value)| (var, value))
    }

    /// Apply the assignment to a term: bound variables become constants,
    /// unbound variables and constants are returned unchanged.
    pub fn apply_term(&self, term: &Term) -> Term {
        match term {
            Term::Var(v) => match self.get(v) {
                Some(value) => Term::Const(*value),
                None => term.clone(),
            },
            Term::Const(_) => term.clone(),
        }
    }

    /// Apply the assignment to an atom.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom::new(
            atom.predicate.clone(),
            atom.terms.iter().map(|t| self.apply_term(t)).collect(),
        )
    }

    /// Turn a (fully bound) atom into a tuple of values; returns `None` if
    /// some argument remains a variable after applying the assignment.
    pub fn ground_atom(&self, atom: &Atom) -> Option<Tuple> {
        let mut values = Vec::with_capacity(atom.terms.len());
        for term in &atom.terms {
            match self.apply_term(term) {
                Term::Const(v) => values.push(v),
                Term::Var(_) => return None,
            }
        }
        Some(Tuple::new(values))
    }

    /// Try to extend the assignment so that `atom` matches `tuple`
    /// position-wise.  Constants must agree exactly; variables are bound (or
    /// checked against their existing binding).  Returns the extended
    /// assignment, or `None` on mismatch.  `self` is not modified.
    pub fn match_atom(&self, atom: &Atom, tuple: &Tuple) -> Option<Assignment> {
        if atom.arity() != tuple.arity() {
            return None;
        }
        // Reject constant and already-bound mismatches before paying for
        // the clone — the join calls this once per candidate tuple.
        for (term, value) in atom.terms.iter().zip(tuple.values()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        return None;
                    }
                }
                Term::Var(v) => {
                    if let Some(bound) = self.get(v) {
                        if bound != value {
                            return None;
                        }
                    }
                }
            }
        }
        let mut extended = self.clone();
        for (term, value) in atom.terms.iter().zip(tuple.values()) {
            if let Term::Var(v) = term {
                if !extended.bind(*v, *value) {
                    return None;
                }
            }
        }
        Some(extended)
    }

    /// Evaluate a comparison under this assignment.  Returns `false` when a
    /// side is unbound or the comparison is undefined on the operand kinds.
    pub fn satisfies_comparison(&self, cmp: &Comparison) -> bool {
        let left = match self.apply_term(&cmp.left) {
            Term::Const(v) => v,
            Term::Var(_) => return false,
        };
        let right = match self.apply_term(&cmp.right) {
            Term::Const(v) => v,
            Term::Var(_) => return false,
        };
        cmp.op.eval(&left, &right).unwrap_or(false)
    }

    /// Project the assignment onto `vars`, returning values in the given
    /// order; `None` if some variable is unbound.
    pub fn project(&self, vars: &[Variable]) -> Option<Tuple> {
        let mut values = Vec::with_capacity(vars.len());
        for v in vars {
            values.push(*self.get(v)?);
        }
        Some(Tuple::new(values))
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (var, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{var} ↦ {value}")?;
        }
        write!(f, "}}")
    }
}

/// A substitution of variables by terms (used for unification during
/// resolution and rewriting).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Unifier {
    map: BTreeMap<Variable, Term>,
}

impl Unifier {
    /// The empty unifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// The term bound to `var`, if any.
    pub fn get(&self, var: &Variable) -> Option<&Term> {
        self.map.get(var)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Resolve a term through the unifier, following chains of variable
    /// bindings (with an occurs-check-free walk; our terms are flat, so
    /// chains always terminate as long as bindings are acyclic, which
    /// [`Unifier::unify_terms`] maintains).
    pub(crate) fn walk(&self, term: &Term) -> Term {
        let mut current = term.clone();
        let mut steps = 0;
        while let Term::Var(v) = &current {
            match self.map.get(v) {
                Some(next) if steps < self.map.len() + 1 => {
                    current = next.clone();
                    steps += 1;
                }
                _ => break,
            }
        }
        current
    }

    /// Unify two terms, extending the unifier; returns `false` when the
    /// terms are not unifiable (distinct constants).
    pub fn unify_terms(&mut self, a: &Term, b: &Term) -> bool {
        let a = self.walk(a);
        let b = self.walk(b);
        match (a, b) {
            (Term::Const(x), Term::Const(y)) => x == y,
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                if t.as_var() == Some(&v) {
                    true
                } else {
                    self.map.insert(v, t);
                    true
                }
            }
        }
    }

    /// Unify two atoms; returns `false` when predicates or arities differ or
    /// some argument pair is not unifiable.
    pub fn unify_atoms(&mut self, a: &Atom, b: &Atom) -> bool {
        if a.predicate != b.predicate || a.arity() != b.arity() {
            return false;
        }
        a.terms
            .iter()
            .zip(&b.terms)
            .all(|(x, y)| self.unify_terms(x, y))
    }

    /// Apply the unifier to a term.
    pub fn apply_term(&self, term: &Term) -> Term {
        self.walk(term)
    }

    /// Apply the unifier to an atom.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom::new(
            atom.predicate.clone(),
            atom.terms.iter().map(|t| self.apply_term(t)).collect(),
        )
    }

    /// Apply the unifier to a conjunction (positive atoms, negated atoms and
    /// comparisons alike).
    pub fn apply_conjunction(&self, conj: &Conjunction) -> Conjunction {
        Conjunction {
            atoms: conj.atoms.iter().map(|a| self.apply_atom(a)).collect(),
            negated: conj.negated.iter().map(|a| self.apply_atom(a)).collect(),
            comparisons: conj
                .comparisons
                .iter()
                .map(|c| Comparison::new(self.apply_term(&c.left), c.op, self.apply_term(&c.right)))
                .collect(),
        }
    }
}

impl fmt::Display for Unifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (var, term)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{var} ↦ {term}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CompareOp;

    #[test]
    fn bind_respects_existing_bindings() {
        let mut a = Assignment::new();
        assert!(a.bind(Variable::new("x"), Value::str("W1")));
        assert!(a.bind(Variable::new("x"), Value::str("W1")));
        assert!(!a.bind(Variable::new("x"), Value::str("W2")));
        assert_eq!(a.get(&Variable::new("x")), Some(&Value::str("W1")));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn match_atom_binds_variables_and_checks_constants() {
        let atom = Atom::new("UnitWard", vec![Term::constant("Standard"), Term::var("w")]);
        let a = Assignment::new();
        let matched = a
            .match_atom(&atom, &Tuple::from_iter(["Standard", "W1"]))
            .unwrap();
        assert_eq!(matched.get(&Variable::new("w")), Some(&Value::str("W1")));
        assert!(a
            .match_atom(&atom, &Tuple::from_iter(["Intensive", "W3"]))
            .is_none());
        // Arity mismatch.
        assert!(a
            .match_atom(&atom, &Tuple::from_iter(["Standard"]))
            .is_none());
    }

    #[test]
    fn match_atom_enforces_join_consistency() {
        let atom = Atom::with_vars("D", &["x", "x"]);
        let a = Assignment::new();
        assert!(a.match_atom(&atom, &Tuple::from_iter(["v", "v"])).is_some());
        assert!(a.match_atom(&atom, &Tuple::from_iter(["v", "w"])).is_none());
    }

    #[test]
    fn ground_atom_requires_full_bindings() {
        let mut a = Assignment::new();
        a.bind(Variable::new("u"), Value::str("Standard"));
        let atom = Atom::with_vars("Unit", &["u"]);
        assert_eq!(a.ground_atom(&atom), Some(Tuple::from_iter(["Standard"])));
        let atom2 = Atom::with_vars("UnitWard", &["u", "w"]);
        assert_eq!(a.ground_atom(&atom2), None);
    }

    #[test]
    fn comparisons_evaluate_under_assignment() {
        let mut a = Assignment::new();
        a.bind(Variable::new("b"), Value::str("B1"));
        a.bind(
            Variable::new("t"),
            Value::parse_time("Sep/5-12:10").unwrap(),
        );
        assert!(a.satisfies_comparison(&Comparison::new(
            Term::var("b"),
            CompareOp::Eq,
            Term::constant("B1")
        )));
        assert!(a.satisfies_comparison(&Comparison::new(
            Term::var("t"),
            CompareOp::Le,
            Term::constant(Value::parse_time("Sep/5-12:15").unwrap())
        )));
        // Unbound variable → not satisfied.
        assert!(!a.satisfies_comparison(&Comparison::new(
            Term::var("zz"),
            CompareOp::Eq,
            Term::constant("B1")
        )));
    }

    #[test]
    fn projection_returns_values_in_order() {
        let mut a = Assignment::new();
        a.bind(Variable::new("d"), Value::str("Sep/9"));
        a.bind(Variable::new("n"), Value::str("Mark"));
        let t = a
            .project(&[Variable::new("n"), Variable::new("d")])
            .unwrap();
        assert_eq!(t, Tuple::from_iter(["Mark", "Sep/9"]));
        assert!(a.project(&[Variable::new("missing")]).is_none());
    }

    #[test]
    fn unifier_unifies_variables_and_constants() {
        let mut u = Unifier::new();
        assert!(u.unify_terms(&Term::var("x"), &Term::constant("W1")));
        assert!(u.unify_terms(&Term::var("y"), &Term::var("x")));
        assert_eq!(u.walk(&Term::var("y")), Term::constant("W1"));
        assert!(!u.unify_terms(&Term::constant("A"), &Term::constant("B")));
    }

    #[test]
    fn unify_atoms_checks_predicate_and_arity() {
        let mut u = Unifier::new();
        assert!(!u.unify_atoms(&Atom::with_vars("P", &["x"]), &Atom::with_vars("Q", &["x"])));
        assert!(!u.unify_atoms(
            &Atom::with_vars("P", &["x"]),
            &Atom::with_vars("P", &["x", "y"])
        ));
        let mut u = Unifier::new();
        assert!(u.unify_atoms(
            &Atom::new("P", vec![Term::var("x"), Term::constant("c")]),
            &Atom::new("P", vec![Term::constant("d"), Term::var("y")]),
        ));
        assert_eq!(u.walk(&Term::var("x")), Term::constant("d"));
        assert_eq!(u.walk(&Term::var("y")), Term::constant("c"));
    }

    #[test]
    fn apply_conjunction_rewrites_all_literal_kinds() {
        let mut u = Unifier::new();
        u.unify_terms(&Term::var("x"), &Term::constant("W1"));
        let conj = Conjunction::positive(vec![Atom::with_vars("P", &["x", "y"])])
            .and_not(Atom::with_vars("N", &["x"]))
            .and_compare(Comparison::new(
                Term::var("x"),
                CompareOp::Neq,
                Term::var("y"),
            ));
        let applied = u.apply_conjunction(&conj);
        assert_eq!(applied.atoms[0].terms[0], Term::constant("W1"));
        assert_eq!(applied.negated[0].terms[0], Term::constant("W1"));
        assert_eq!(applied.comparisons[0].left, Term::constant("W1"));
    }

    #[test]
    fn self_binding_is_a_noop() {
        let mut u = Unifier::new();
        assert!(u.unify_terms(&Term::var("x"), &Term::var("x")));
        assert!(u.is_empty());
    }
}
