//! Datalog± rules: tuple-generating dependencies (TGDs), equality-generating
//! dependencies (EGDs), negative constraints, and facts.
//!
//! These are the rule forms (1)–(4) and (10) of the paper:
//!
//! * form (1): referential negative constraints `⊥ ← R(ē;ā), ¬K(e)`,
//! * form (2): dimensional EGDs `x = x' ← R_i(…), …, D_n(…), …`,
//! * form (3): dimensional negative constraints `⊥ ← R_i(…), …, D_n(…), …`,
//! * form (4): dimensional rules (TGDs) `∃ā_z R_k(ē_k;ā_k) ← R_i(…), …, D_n(…), …`,
//! * form (10): downward rules with existential *categorical* variables and
//!   parent–child atoms in the head.

use crate::atom::{Atom, CompareOp, Comparison, Conjunction};
use crate::term::{Term, Variable};
use ontodq_relational::Tuple;
use std::collections::BTreeSet;
use std::fmt;

/// A tuple-generating dependency: `∃z̄ head ← body`, where the existential
/// variables `z̄` are exactly the head variables that do not occur in the
/// body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tgd {
    /// Optional rule label (used in diagnostics and chase profiles).
    pub label: Option<String>,
    /// The body conjunction.  TGD bodies contain no negated atoms.
    pub body: Conjunction,
    /// The head atoms (a conjunction; usually a single atom, but form (10)
    /// heads pair a categorical atom with parent–child atoms).
    pub head: Vec<Atom>,
}

impl Tgd {
    /// Construct a TGD with a single head atom.
    pub fn new(body: Conjunction, head: Atom) -> Self {
        Self {
            label: None,
            body,
            head: vec![head],
        }
    }

    /// Construct a TGD with a conjunctive head.
    pub(crate) fn with_heads(body: Conjunction, head: Vec<Atom>) -> Self {
        Self {
            label: None,
            body,
            head,
        }
    }

    /// Attach a label (builder style).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Variables occurring in the body.
    pub fn body_variables(&self) -> BTreeSet<Variable> {
        self.body.variables().into_iter().collect()
    }

    /// Variables occurring in the head.
    pub fn head_variables(&self) -> BTreeSet<Variable> {
        self.head.iter().flat_map(|a| a.variables()).collect()
    }

    /// The *frontier*: variables shared between body and head.
    pub fn frontier(&self) -> BTreeSet<Variable> {
        self.body_variables()
            .intersection(&self.head_variables())
            .cloned()
            .collect()
    }

    /// The existential variables: head variables not occurring in the body.
    pub fn existential_variables(&self) -> BTreeSet<Variable> {
        self.head_variables()
            .difference(&self.body_variables())
            .cloned()
            .collect()
    }

    /// `true` when the rule has no existential variables (a plain Datalog
    /// rule, possibly with a conjunctive head).
    pub fn is_full(&self) -> bool {
        self.existential_variables().is_empty()
    }

    /// `true` when the body consists of a single positive atom (the *linear*
    /// shape).
    pub(crate) fn is_linear(&self) -> bool {
        self.body.atoms.len() == 1 && self.body.negated.is_empty()
    }

    /// `true` when some body atom contains every body variable (the *guarded*
    /// shape).
    pub(crate) fn is_guarded(&self) -> bool {
        let body_vars = self.body_variables();
        self.body.atoms.iter().any(|a| {
            let atom_vars: BTreeSet<Variable> = a.variables().into_iter().collect();
            body_vars.is_subset(&atom_vars)
        })
    }

    /// Predicates appearing in the head.
    pub fn head_predicates(&self) -> Vec<&str> {
        self.head.iter().map(|a| a.predicate.as_str()).collect()
    }
}

impl fmt::Display for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, atom) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{atom}")?;
        }
        write!(f, " :- {}.", self.body)
    }
}

/// An equality-generating dependency: `x = y ← body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Egd {
    /// Optional rule label.
    pub label: Option<String>,
    /// The body conjunction.
    pub body: Conjunction,
    /// Left side of the head equality (a body variable).
    pub left: Variable,
    /// Right side of the head equality (a body variable).
    pub right: Variable,
}

impl Egd {
    /// Construct an EGD.
    pub fn new(body: Conjunction, left: Variable, right: Variable) -> Self {
        Self {
            label: None,
            body,
            left,
            right,
        }
    }

    /// Attach a label (builder style).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Variables occurring in the body.
    pub fn body_variables(&self) -> BTreeSet<Variable> {
        self.body.variables().into_iter().collect()
    }

    /// `true` when both equated variables occur in the body (well-formed).
    pub(crate) fn is_well_formed(&self) -> bool {
        let vars = self.body_variables();
        vars.contains(&self.left) && vars.contains(&self.right)
    }

    /// The EGD as a negative constraint, `⊥ ← body ∧ left ≠ right`: its
    /// witnesses are exactly the violations.  Under the null rule of
    /// [`CompareOp::Neq`] a side holding a labeled null is unknown, not a
    /// violation, so only two distinct constants are reported.
    pub fn violation_body(&self) -> Conjunction {
        self.body.clone().and_compare(Comparison::new(
            Term::Var(self.left),
            CompareOp::Neq,
            Term::Var(self.right),
        ))
    }
}

impl fmt::Display for Egd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {} :- {}.", self.left, self.right, self.body)
    }
}

/// A negative constraint: `⊥ ← body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NegativeConstraint {
    /// Optional rule label.
    pub label: Option<String>,
    /// The body conjunction; may contain negated atoms (form (1)).
    pub body: Conjunction,
}

impl NegativeConstraint {
    /// Construct a negative constraint.
    pub fn new(body: Conjunction) -> Self {
        Self { label: None, body }
    }

    /// Attach a label (builder style).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

impl fmt::Display for NegativeConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "! :- {}.", self.body)
    }
}

/// A ground fact `P(c1, …, cn).`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact(pub Atom);

impl Fact {
    /// Construct a fact; the atom must be ground.
    pub fn new(atom: Atom) -> Option<Self> {
        atom.is_ground().then_some(Fact(atom))
    }

    /// The underlying atom.
    pub fn atom(&self) -> &Atom {
        &self.0
    }

    /// The fact's arguments as a database tuple.
    pub fn tuple(&self) -> Tuple {
        Tuple::new(
            self.0
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(v) => *v,
                    Term::Var(_) => unreachable!("facts are ground"),
                })
                .collect(),
        )
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.", self.0)
    }
}

/// A ground retraction `-P(c1, …, cn).` — a request to delete the fact and
/// incrementally withdraw its consequences (delete-and-rederive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Retraction(pub Atom);

impl Retraction {
    /// Construct a retraction; the atom must be ground.
    pub fn new(atom: Atom) -> Option<Self> {
        atom.is_ground().then_some(Retraction(atom))
    }

    /// The underlying atom.
    pub fn atom(&self) -> &Atom {
        &self.0
    }
}

impl fmt::Display for Retraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "-{}.", self.0)
    }
}

/// A conditional delete `-Edge(x, y) :- Banned(x).` — every instantiation of
/// the head reachable through a body match is retracted.  Head variables not
/// bound by the body act as wildcards: the example deletes *all* edges out of
/// a banned node, whatever their target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionalDelete {
    /// Optional rule label.
    pub(crate) label: Option<String>,
    /// The single head atom naming what to delete.
    pub head: Atom,
    /// The body conjunction; may contain negated atoms and comparisons.
    pub body: Conjunction,
}

impl ConditionalDelete {
    /// Construct a conditional delete.
    pub fn new(body: Conjunction, head: Atom) -> Self {
        Self {
            label: None,
            head,
            body,
        }
    }

    /// Attach a label (builder style).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Head variables not bound by any positive body atom (the wildcard
    /// positions).
    pub(crate) fn wildcard_variables(&self) -> BTreeSet<Variable> {
        let body_vars: BTreeSet<Variable> = self.body.variables().into_iter().collect();
        self.head
            .variables()
            .into_iter()
            .filter(|v| !body_vars.contains(v))
            .collect()
    }
}

impl fmt::Display for ConditionalDelete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "-{} :- {}.", self.head, self.body)
    }
}

/// Any Datalog± rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rule {
    /// A tuple-generating dependency.
    Tgd(Tgd),
    /// An equality-generating dependency.
    Egd(Egd),
    /// A negative constraint.
    Constraint(NegativeConstraint),
    /// A ground fact.
    Fact(Fact),
    /// A ground retraction (`-P(ā).`).
    Retract(Retraction),
    /// A conditional delete (`-P(x̄) :- body.`).
    Delete(ConditionalDelete),
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Tgd(r) => write!(f, "{r}"),
            Rule::Egd(r) => write!(f, "{r}"),
            Rule::Constraint(r) => write!(f, "{r}"),
            Rule::Fact(r) => write!(f, "{r}"),
            Rule::Retract(r) => write!(f, "{r}"),
            Rule::Delete(r) => write!(f, "{r}"),
        }
    }
}

/// Convenience constructor for the common "head :- body atoms" TGD shape.
pub fn tgd(head: Atom, body_atoms: Vec<Atom>) -> Tgd {
    Tgd::new(Conjunction::positive(body_atoms), head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{CompareOp, Comparison};
    use crate::term::Term;

    /// Rule (7) of the paper: upward navigation from PatientWard to
    /// PatientUnit.
    fn rule7() -> Tgd {
        tgd(
            Atom::with_vars("PatientUnit", &["u", "d", "p"]),
            vec![
                Atom::with_vars("PatientWard", &["w", "d", "p"]),
                Atom::with_vars("UnitWard", &["u", "w"]),
            ],
        )
    }

    /// Rule (8) of the paper: downward navigation with an existential
    /// non-categorical variable `z` for the unknown shift.
    fn rule8() -> Tgd {
        tgd(
            Atom::with_vars("Shifts", &["w", "d", "n", "z"]),
            vec![
                Atom::with_vars("WorkingSchedules", &["u", "d", "n", "t"]),
                Atom::with_vars("UnitWard", &["u", "w"]),
            ],
        )
    }

    /// Rule (9) of the paper: downward navigation with an existential
    /// categorical variable `u` and a parent–child atom in the head.
    fn rule9() -> Tgd {
        Tgd::with_heads(
            Conjunction::positive(vec![Atom::with_vars("DischargePatients", &["i", "d", "p"])]),
            vec![
                Atom::with_vars("InstitutionUnit", &["i", "u"]),
                Atom::with_vars("PatientUnit", &["u", "d", "p"]),
            ],
        )
    }

    #[test]
    fn rule7_has_no_existentials_and_is_not_linear() {
        let r = rule7();
        assert!(r.is_full());
        assert!(r.existential_variables().is_empty());
        assert!(!r.is_linear());
        assert_eq!(
            r.frontier(),
            ["u", "d", "p"].iter().map(|v| Variable::new(*v)).collect()
        );
    }

    #[test]
    fn rule8_existential_is_z() {
        let r = rule8();
        assert!(!r.is_full());
        assert_eq!(
            r.existential_variables(),
            std::iter::once(Variable::new("z")).collect()
        );
    }

    #[test]
    fn rule9_existential_is_categorical_u() {
        let r = rule9();
        assert_eq!(
            r.existential_variables(),
            std::iter::once(Variable::new("u")).collect()
        );
        assert_eq!(r.head_predicates(), vec!["InstitutionUnit", "PatientUnit"]);
        assert!(r.is_linear());
        assert!(r.is_guarded());
    }

    #[test]
    fn guardedness_detection() {
        // Guard: the first atom contains every body variable.
        let guarded = tgd(
            Atom::with_vars("H", &["x"]),
            vec![
                Atom::with_vars("G", &["x", "y", "z"]),
                Atom::with_vars("P", &["x", "y"]),
            ],
        );
        assert!(guarded.is_guarded());
        // Rule (7) is not guarded: no single atom holds {w, d, p, u}.
        assert!(!rule7().is_guarded());
    }

    #[test]
    fn egd_well_formedness() {
        // Rule (6): all thermometers in a unit are of the same type.
        let body = Conjunction::positive(vec![
            Atom::with_vars("Thermometer", &["w", "t", "n"]),
            Atom::with_vars("Thermometer", &["w2", "t2", "n2"]),
            Atom::with_vars("UnitWard", &["u", "w"]),
            Atom::with_vars("UnitWard", &["u", "w2"]),
        ]);
        let egd = Egd::new(body, Variable::new("t"), Variable::new("t2"));
        assert!(egd.is_well_formed());
        let bad = Egd::new(Conjunction::empty(), Variable::new("a"), Variable::new("b"));
        assert!(!bad.is_well_formed());
    }

    #[test]
    fn constraint_display() {
        // The inter-dimensional constraint from Example 4.
        let nc = NegativeConstraint::new(Conjunction::positive(vec![
            Atom::with_vars("PatientWard", &["w", "d", "p"]),
            Atom::new(
                "UnitWard",
                vec![Term::constant("Intensive"), Term::var("w")],
            ),
            Atom::new(
                "MonthDay",
                vec![Term::constant("August/2005"), Term::var("d")],
            ),
        ]));
        let rendered = nc.to_string();
        assert!(rendered.starts_with("! :- PatientWard(w, d, p)"));
        assert!(rendered.contains("Intensive"));
    }

    #[test]
    fn fact_requires_ground_atom() {
        assert!(Fact::new(Atom::with_vars("Unit", &["u"])).is_none());
        let f = Fact::new(Atom::new("Unit", vec![Term::constant("Standard")])).unwrap();
        assert_eq!(f.to_string(), "Unit(Standard).");
        assert_eq!(f.atom().predicate, "Unit");
    }

    #[test]
    fn tgd_display_round_trip_shape() {
        let r = rule7();
        assert_eq!(
            r.to_string(),
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w)."
        );
        let with_cmp = Tgd::new(
            Conjunction::positive(vec![Atom::with_vars("M", &["t", "p", "v"])]).and_compare(
                Comparison::new(Term::var("p"), CompareOp::Eq, Term::constant("Tom Waits")),
            ),
            Atom::with_vars("Q", &["t", "p", "v"]),
        );
        assert_eq!(
            with_cmp.to_string(),
            "Q(t, p, v) :- M(t, p, v), p = \"Tom Waits\"."
        );
    }

    #[test]
    fn rule_enum_display_dispatch() {
        let r = Rule::Tgd(rule7());
        assert!(r.to_string().contains(":-"));
        let f = Rule::Fact(Fact::new(Atom::new("Unit", vec![Term::constant("Standard")])).unwrap());
        assert_eq!(f.to_string(), "Unit(Standard).");
    }

    #[test]
    fn retraction_requires_ground_atom() {
        assert!(Retraction::new(Atom::with_vars("Unit", &["u"])).is_none());
        let r = Retraction::new(Atom::new("Unit", vec![Term::constant("Standard")])).unwrap();
        assert_eq!(r.to_string(), "-Unit(Standard).");
        assert_eq!(r.atom().predicate, "Unit");
    }

    #[test]
    fn conditional_delete_wildcards_are_unbound_head_variables() {
        let del = ConditionalDelete::new(
            Conjunction::positive(vec![Atom::with_vars("Banned", &["x"])]),
            Atom::with_vars("Edge", &["x", "y"]),
        );
        assert_eq!(
            del.wildcard_variables(),
            std::iter::once(Variable::new("y")).collect()
        );
        assert_eq!(del.to_string(), "-Edge(x, y) :- Banned(x).");
    }

    #[test]
    fn labels_are_carried() {
        let r = rule7().labeled("rule-7");
        assert_eq!(r.label.as_deref(), Some("rule-7"));
        let e =
            Egd::new(Conjunction::empty(), Variable::new("x"), Variable::new("y")).labeled("egd-6");
        assert_eq!(e.label.as_deref(), Some("egd-6"));
        let c = NegativeConstraint::new(Conjunction::empty()).labeled("nc-1");
        assert_eq!(c.label.as_deref(), Some("nc-1"));
    }
}
