//! Separability of EGDs from TGDs.
//!
//! Datalog± tractability results for TGD classes extend to programs with EGDs
//! only when the EGDs are *separable* (non-conflicting) from the TGDs: firing
//! the EGDs never changes the answers produced by the TGDs-only chase on
//! consistent instances, so query answering may ignore the EGDs apart from an
//! initial consistency check.
//!
//! The paper uses a sufficient syntactic condition (Section III): in the
//! multidimensional setting, an EGD is separable when the variables it
//! equates occur in its body **only at positions where no labeled null can
//! ever appear** — in MD ontologies these are the *categorical* positions,
//! whose values always come from the fixed dimension instances.  In the
//! general Datalog± setting we approximate "no null can appear" with the
//! complement of the affected positions of the TGD set, which is exactly the
//! guarantee required: if the equated values are always non-null constants,
//! an EGD violation is a hard inconsistency rather than a null unification,
//! so the chase result is not altered by the EGD.
//!
//! A separable EGD is the only kind the server admits: lint L105 reports a
//! non-separable one as an error, and `QualityService::register_context`
//! refuses a context with lint errors.  The chase therefore never applies an
//! EGD; it runs the TGDs alone and checks every EGD as a constraint, exactly
//! as Calì, Gottlob & Lukasiewicz answer queries under separable EGDs.

use crate::graph::PositionGraph;
use crate::program::{Position, Program};
use crate::rule::{Egd, Tgd};
use crate::term::{Term, Variable};
use std::collections::BTreeSet;

/// The separability verdict for one EGD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EgdSeparability {
    /// Index of the EGD in the program.
    pub egd_index: usize,
    /// Whether the sufficient syntactic condition holds.
    pub separable: bool,
    /// Positions of the equated variables that are affected (the witnesses
    /// for non-separability); empty when `separable` is true.
    pub offending_positions: Vec<Position>,
}

/// A report over all EGDs of a program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeparabilityReport {
    /// Per-EGD verdicts, in program order.
    pub egds: Vec<EgdSeparability>,
}

impl SeparabilityReport {
    /// `true` when every EGD satisfies the sufficient condition.
    pub fn all_separable(&self) -> bool {
        self.egds.iter().all(|e| e.separable)
    }
}

/// Positions at which `var` occurs in the body of `egd`.
fn body_positions_of(egd: &Egd, var: &Variable) -> Vec<Position> {
    let mut out = Vec::new();
    for atom in &egd.body.atoms {
        for (i, term) in atom.terms.iter().enumerate() {
            if let Term::Var(v) = term {
                if v == var {
                    out.push(Position::new(atom.predicate.clone(), i));
                }
            }
        }
    }
    out
}

/// Check one EGD against a set of affected positions.
pub(crate) fn check_egd(
    egd: &Egd,
    egd_index: usize,
    affected: &BTreeSet<Position>,
) -> EgdSeparability {
    let mut offending = Vec::new();
    for var in [&egd.left, &egd.right] {
        for pos in body_positions_of(egd, var) {
            if affected.contains(&pos) {
                offending.push(pos);
            }
        }
    }
    offending.sort();
    offending.dedup();
    EgdSeparability {
        egd_index,
        separable: offending.is_empty(),
        offending_positions: offending,
    }
}

/// Check every EGD of `program` against the affected positions of its TGDs.
pub fn check_program(program: &Program) -> SeparabilityReport {
    check_egds(&program.tgds, &program.egds)
}

/// Check explicit EGDs against explicit TGDs.
pub(crate) fn check_egds(tgds: &[Tgd], egds: &[Egd]) -> SeparabilityReport {
    let affected = PositionGraph::affected_positions(tgds);
    SeparabilityReport {
        egds: egds
            .iter()
            .enumerate()
            .map(|(i, e)| check_egd(e, i, &affected))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn egd_on_categorical_positions_is_separable() {
        // Rule (6) of the paper plus the dimensional rules: the equated
        // thermometer-type variables live at Thermometer[1], a position into
        // which no TGD ever writes, hence never affected.
        let program = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n\
             t = t2 :- Thermometer(w, t, n), Thermometer(w2, t2, n2), UnitWard(u, w), UnitWard(u, w2).\n",
        )
        .unwrap();
        let report = check_program(&program);
        assert!(report.all_separable());
        assert!(report
            .egds
            .iter()
            .filter(|e| !e.separable)
            .map(|e| e.egd_index)
            .collect::<Vec<_>>()
            .is_empty());
    }

    #[test]
    fn egd_on_existential_positions_is_flagged() {
        // The EGD equates shift values, but Shifts[3] is exactly where rule
        // (8) writes fresh nulls → not separable by the syntactic condition.
        let program = parse_program(
            "Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n\
             s = s2 :- Shifts(w, d, n, s), Shifts(w, d, n2, s2).\n",
        )
        .unwrap();
        let report = check_program(&program);
        assert!(!report.all_separable());
        assert_eq!(
            report
                .egds
                .iter()
                .filter(|e| !e.separable)
                .map(|e| e.egd_index)
                .collect::<Vec<_>>(),
            vec![0]
        );
        let offending = &report.egds[0].offending_positions;
        assert!(offending.contains(&Position::new("Shifts", 3)));
    }

    #[test]
    fn programs_without_egds_are_trivially_separable() {
        let program = parse_program("A(x) :- B(x).\n").unwrap();
        let report = check_program(&program);
        assert!(report.all_separable());
        assert!(report.egds.is_empty());
    }

    #[test]
    fn downward_rule_10_breaks_separability_for_categorical_egds() {
        // With a form-(10) rule, fresh nulls may appear at a *categorical*
        // position (PatientUnit[0]); an EGD equating unit values is then no
        // longer syntactically separable — exactly the caveat in the paper's
        // Example 6 discussion.
        let program = parse_program(
            "InstitutionUnit(i, u), PatientUnit(u, d, p) :- DischargePatients(i, d, p).\n\
             u = u2 :- PatientUnit(u, d, p), PatientUnit(u2, d, p).\n",
        )
        .unwrap();
        let report = check_program(&program);
        assert!(!report.all_separable());
        assert!(report.egds[0]
            .offending_positions
            .contains(&Position::new("PatientUnit", 0)));
    }
}
