//! # ontodq-datalog
//!
//! The Datalog± language layer of `ontodq`, the Rust reproduction of
//! *"Extending Contexts with Ontologies for Multidimensional Data Quality
//! Assessment"* (Milani, Bertossi, Ariyan; ICDE 2014).
//!
//! Datalog± extends plain Datalog with existential quantification in rule
//! heads (tuple-generating dependencies, TGDs), equality-generating
//! dependencies (EGDs) and negative constraints — exactly the rule forms the
//! paper uses to express dimensional rules and dimensional constraints
//! (forms (1)–(4) and (10)).  This crate provides:
//!
//! * the term/atom/rule/program representation (`term`, `atom`, `rule`,
//!   `program`),
//! * ground assignments and unifiers (`substitution`),
//! * a concrete text syntax with a parser and round-tripping printers
//!   (`parser`),
//! * predicate and position dependency graphs (`graph`),
//! * the syntactic class analyses that the paper's tractability claims rest
//!   on — sticky, weakly sticky, linear, guarded, weakly guarded, weakly
//!   acyclic — and the EGD separability check (`analysis`).
//!
//! Chasing programs over data and answering queries live in `ontodq-chase`
//! and `ontodq-qa`; compiling multidimensional ontologies into programs lives
//! in `ontodq-mdm`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod analysis;
mod atom;
mod graph;
mod parser;
mod program;
mod rule;
mod substitution;
mod term;

pub use analysis::lint::{
    lint, lint_with, Diagnostic, LintReport, RuleRef, Severity, TerminationCertificate,
};
pub use analysis::{
    check_program, classify, classify_tgds, magic_transform, ClassReport, DatalogClass,
    DemandProgram, EgdSeparability, SeparabilityReport,
};
pub use atom::{Atom, CompareOp, Comparison, Conjunction};
pub use parser::{parse_program, parse_rule, ParseError};
pub use program::{Position, Program};
pub use rule::{tgd, ConditionalDelete, Egd, Fact, NegativeConstraint, Retraction, Rule, Tgd};
pub use substitution::{Assignment, Unifier};
pub use term::{Term, Variable};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Generate a predicate name (uppercase first letter).
    fn arb_predicate() -> impl Strategy<Value = String> {
        "[A-Z][a-zA-Z0-9]{0,6}"
    }

    /// Generate a variable name (lowercase first letter).
    fn arb_varname() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9]{0,4}"
    }

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            arb_varname().prop_map(Term::var),
            "[A-Z][a-zA-Z0-9_]{0,8}".prop_map(Term::constant),
            any::<i32>().prop_map(|i| Term::constant(ontodq_relational::Value::int(i as i64))),
        ]
    }

    fn arb_atom() -> impl Strategy<Value = Atom> {
        (arb_predicate(), proptest::collection::vec(arb_term(), 1..4))
            .prop_map(|(p, terms)| Atom::new(p, terms))
    }

    fn arb_tgd() -> impl Strategy<Value = Tgd> {
        (proptest::collection::vec(arb_atom(), 1..3), arb_atom())
            .prop_map(|(body, head)| Tgd::new(Conjunction::positive(body), head))
    }

    proptest! {
        /// Printing a TGD and parsing it back yields the same rule.
        #[test]
        fn tgd_print_parse_round_trip(tgd in arb_tgd()) {
            let printed = tgd.to_string();
            let reparsed = parse_rule(&printed).unwrap();
            match reparsed {
                Rule::Tgd(t) => prop_assert_eq!(t, tgd),
                other => prop_assert!(false, "unexpected rule kind: {:?}", other),
            }
        }

        /// Variables of an atom are a subset of its terms.
        #[test]
        fn atom_variables_subset_of_terms(atom in arb_atom()) {
            let vars = atom.variables();
            prop_assert!(vars.len() <= atom.arity());
            for v in vars {
                prop_assert!(atom.terms.iter().any(|t| t.as_var() == Some(&v)));
            }
        }

        /// The existential variables and the frontier partition the head
        /// variables of a TGD.
        #[test]
        fn existentials_and_frontier_partition_head_vars(tgd in arb_tgd()) {
            let head_vars = tgd.head_variables();
            let frontier = tgd.frontier();
            let existential = tgd.existential_variables();
            prop_assert!(frontier.is_disjoint(&existential));
            let union: std::collections::BTreeSet<_> =
                frontier.union(&existential).cloned().collect();
            prop_assert_eq!(union, head_vars);
        }

        /// Unifying an atom with itself always succeeds and produces a
        /// unifier under which the atom is unchanged.
        #[test]
        fn self_unification_is_identity(atom in arb_atom()) {
            let mut unifier = Unifier::new();
            prop_assert!(unifier.unify_atoms(&atom, &atom));
            prop_assert_eq!(unifier.apply_atom(&atom), atom);
        }

        /// Classification never panics and weak stickiness is implied by
        /// stickiness.
        #[test]
        fn sticky_implies_weakly_sticky(tgds in proptest::collection::vec(arb_tgd(), 0..5)) {
            let report = analysis::classify_tgds(&tgds);
            if report.sticky {
                prop_assert!(report.weakly_sticky);
            }
            if report.linear {
                prop_assert!(report.guarded);
            }
        }

        /// Programs survive a full print→parse→print cycle (idempotent
        /// pretty-printing).
        #[test]
        fn program_printing_is_stable(tgds in proptest::collection::vec(arb_tgd(), 1..4)) {
            let mut program = Program::new();
            for t in tgds {
                program.add_rule(Rule::Tgd(t));
            }
            let once = program.to_string();
            let reparsed = parse_program(&once).unwrap();
            let twice = reparsed.to_string();
            prop_assert_eq!(once, twice);
        }
    }
}
