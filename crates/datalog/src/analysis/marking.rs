//! The sticky-marking procedure of Calì, Gottlob and Pieris.
//!
//! Stickiness and weak stickiness are defined through a *marking* of variable
//! occurrences in TGD bodies:
//!
//! 1. (base) for every TGD σ and every variable `v` that occurs in the body
//!    of σ but **not** in its head, mark `v` in σ;
//! 2. (propagation) for every TGD σ and every frontier variable `v` of σ, if
//!    `v` occurs in the head of σ at a position that is *marked* — i.e. some
//!    marked variable of some TGD occurs at that position in that TGD's body
//!    — then mark `v` in σ; repeat until fixpoint.
//!
//! The program is **sticky** when no marked variable occurs more than once in
//! the body of its TGD; it is **weakly sticky** when every variable that
//! occurs more than once in a body is either non-marked or occurs at least
//! once in a position of finite rank.

use crate::program::Position;
use crate::rule::Tgd;
use crate::term::{Term, Variable};
use std::collections::BTreeSet;

/// The result of the marking procedure over a set of TGDs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Marking {
    /// Pairs (TGD index, variable) such that the variable is marked in the
    /// body of that TGD.
    marked: BTreeSet<(usize, Variable)>,
    /// Positions at which some marked variable occurs in the body of its TGD.
    marked_positions: BTreeSet<Position>,
}

impl Marking {
    /// Run the marking procedure to fixpoint.
    pub(crate) fn compute(tgds: &[Tgd]) -> Self {
        let mut marking = Marking::default();

        // Base step: body variables that do not appear in the head.
        for (idx, tgd) in tgds.iter().enumerate() {
            let head_vars = tgd.head_variables();
            for var in tgd.body_variables() {
                if !head_vars.contains(&var) {
                    marking.mark(idx, var, tgds);
                }
            }
        }

        // Propagation step, to fixpoint.
        loop {
            let mut changed = false;
            for (idx, tgd) in tgds.iter().enumerate() {
                for var in tgd.frontier() {
                    if marking.marked.contains(&(idx, var)) {
                        continue;
                    }
                    // Head positions of `var` in this TGD.
                    let occurs_at_marked_position = tgd.head.iter().any(|head_atom| {
                        head_atom.terms.iter().enumerate().any(|(i, term)| {
                            term.as_var() == Some(&var)
                                && marking
                                    .marked_positions
                                    .contains(&Position::new(head_atom.predicate.clone(), i))
                        })
                    });
                    if occurs_at_marked_position {
                        marking.mark(idx, var, tgds);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        marking
    }

    fn mark(&mut self, tgd_index: usize, var: Variable, tgds: &[Tgd]) {
        if !self.marked.insert((tgd_index, var)) {
            return;
        }
        // Record the body positions where the newly marked variable occurs.
        let tgd = &tgds[tgd_index];
        for atom in &tgd.body.atoms {
            for (i, term) in atom.terms.iter().enumerate() {
                if let Term::Var(v) = term {
                    if v == &var {
                        self.marked_positions
                            .insert(Position::new(atom.predicate.clone(), i));
                    }
                }
            }
        }
    }

    /// Is `var` marked in the body of TGD number `tgd_index`?
    pub(crate) fn is_marked(&self, tgd_index: usize, var: &Variable) -> bool {
        self.marked.contains(&(tgd_index, *var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn marking_of(text: &str) -> (Vec<Tgd>, Marking) {
        let program = parse_program(text).unwrap();
        let marking = Marking::compute(&program.tgds);
        (program.tgds, marking)
    }

    #[test]
    fn variables_dropped_by_the_head_are_marked() {
        // w and t are dropped by the heads, so both are marked; u, d, p, n
        // survive into heads and are not marked (no propagation applies).
        let (tgds, marking) = marking_of(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n",
        );
        assert!(marking.is_marked(0, &Variable::new("w")));
        assert!(!marking.is_marked(0, &Variable::new("u")));
        assert!(!marking.is_marked(0, &Variable::new("d")));
        assert!(marking.is_marked(1, &Variable::new("t")));
        assert!(marking.is_marked(1, &Variable::new("u")));
        assert!(!marking.is_marked(1, &Variable::new("w")));
        assert_eq!(tgds.len(), 2);
        // Marked positions include the body positions of w in rule 0.
        assert!(marking
            .marked_positions
            .contains(&Position::new("PatientWard", 0)));
        assert!(marking
            .marked_positions
            .contains(&Position::new("UnitWard", 1)));
    }

    #[test]
    fn propagation_marks_frontier_variables() {
        // In the first rule, y is dropped → marked → marks position Q[0] and
        // P[1]?  y occurs in body at Q(x,y)[1].  Then in the second rule the
        // frontier variable v occurs in the head at position Q[1]... build a
        // chain where propagation is required.
        let (_, marking) = marking_of(
            "P(x) :- Q(x, y).\n\
             Q(v, v) :- R(v).\n",
        );
        // Base: y marked in rule 0 → marked position Q[1].
        // Propagation: in rule 1, frontier var v occurs in head Q at position
        // 1 (a marked position) → v marked in rule 1.
        assert!(marking.is_marked(0, &Variable::new("y")));
        assert!(marking.is_marked(1, &Variable::new("v")));
        assert!(marking.marked_positions.contains(&Position::new("R", 0)));
    }

    #[test]
    fn no_marking_for_full_identity_rules() {
        let (_, marking) = marking_of("Copy(x, y) :- Orig(x, y).\n");
        assert!(marking.marked.is_empty());
        assert!(marking.marked_positions.is_empty());
    }

    #[test]
    fn propagation_reaches_fixpoint_over_chains() {
        // A chain of three rules where marking must flow backwards.
        let (_, marking) = marking_of(
            "A(x) :- B(x, y).\n\
             B(u, u) :- C(u, w).\n\
             C(v, v) :- D(v).\n",
        );
        assert!(marking.is_marked(0, &Variable::new("y")));
        assert!(marking.is_marked(1, &Variable::new("w")));
        // u is in the frontier of rule 1 and appears in the head at B[1],
        // which is marked (y occurs at B[1] in rule 0's body) → marked.
        assert!(marking.is_marked(1, &Variable::new("u")));
        // v occurs in rule 2's head at C[0] and C[1]; C[1] is marked because
        // w occurs there in rule 1's body → v marked.
        assert!(marking.is_marked(2, &Variable::new("v")));
    }
}
