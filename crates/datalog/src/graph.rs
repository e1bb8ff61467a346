//! Predicate- and position-level dependency graphs.
//!
//! Two graphs underpin the syntactic analyses:
//!
//! * the **predicate graph** (node = predicate, edge body → head) used for
//!   detecting which predicates a query or a quality goal can depend on;
//! * the **position dependency graph** (node = position, normal edges for
//!   value propagation, *special* edges for existential-value creation) used
//!   for weak acyclicity and for the finite-/infinite-rank split that the
//!   weak-stickiness test needs.

use crate::program::{Position, Program};
use crate::rule::Tgd;
use crate::term::Term;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Predicate-level dependency graph.
#[derive(Debug, Clone, Default)]
pub(crate) struct PredicateGraph {
    /// Edges: body predicate → head predicates it can feed.
    edges: BTreeMap<String, BTreeSet<String>>,
}

impl PredicateGraph {
    /// Build the predicate graph of a program (TGDs only; constraints and
    /// EGDs do not generate data).
    pub(crate) fn build(program: &Program) -> Self {
        let mut graph = PredicateGraph::default();
        for tgd in &program.tgds {
            for body_atom in &tgd.body().atoms {
                for head_atom in &tgd.head {
                    graph
                        .edges
                        .entry(body_atom.predicate.clone())
                        .or_default()
                        .insert(head_atom.predicate.clone());
                }
            }
        }
        graph
    }

    /// Every predicate from which some predicate in `targets` is reachable
    /// (the predicates a query over `targets` may depend on).
    pub(crate) fn ancestors_of(&self, targets: &[&str]) -> BTreeSet<String> {
        // Build the reverse adjacency on the fly.
        let mut reverse: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (from, tos) in &self.edges {
            for to in tos {
                reverse
                    .entry(to.as_str())
                    .or_default()
                    .insert(from.as_str());
            }
        }
        let mut seen: BTreeSet<String> = targets.iter().map(|s| s.to_string()).collect();
        let mut queue: VecDeque<String> = seen.iter().cloned().collect();
        while let Some(current) = queue.pop_front() {
            if let Some(preds) = reverse.get(current.as_str()) {
                for p in preds {
                    if seen.insert(p.to_string()) {
                        queue.push_back(p.to_string());
                    }
                }
            }
        }
        seen
    }
}

/// An edge of the position dependency graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PositionEdge {
    /// Source position (a body position of a frontier variable).
    pub(crate) from: Position,
    /// Target position (a head position).
    pub(crate) to: Position,
    /// `true` for *special* edges: the target position holds an existential
    /// variable, i.e. firing the rule creates a fresh null there.
    pub(crate) special: bool,
}

/// Position-level dependency graph of a set of TGDs.
#[derive(Debug, Clone, Default)]
pub(crate) struct PositionGraph {
    /// All positions of the program's schema.
    pub(crate) positions: BTreeSet<Position>,
    /// The edges.
    pub(crate) edges: Vec<PositionEdge>,
}

impl PositionGraph {
    /// Build the position graph from explicit TGDs and schema positions.
    pub(crate) fn from_tgds(tgds: &[Tgd], all_positions: Vec<Position>) -> Self {
        let mut graph = PositionGraph {
            positions: all_positions.into_iter().collect(),
            edges: Vec::new(),
        };
        for tgd in tgds {
            let existential = tgd.existential_variables();
            let frontier = tgd.frontier();
            for var in &frontier {
                // Body positions of the frontier variable.
                let mut body_positions = Vec::new();
                for atom in &tgd.body().atoms {
                    for (i, term) in atom.terms.iter().enumerate() {
                        if let Term::Var(v) = term {
                            if v == var {
                                body_positions.push(Position::new(atom.predicate.clone(), i));
                            }
                        }
                    }
                }
                for head_atom in &tgd.head {
                    for (i, term) in head_atom.terms.iter().enumerate() {
                        if let Term::Var(v) = term {
                            let head_pos = Position::new(head_atom.predicate.clone(), i);
                            if v == var {
                                // Normal edge: the frontier value propagates.
                                for bp in &body_positions {
                                    graph.edges.push(PositionEdge {
                                        from: bp.clone(),
                                        to: head_pos.clone(),
                                        special: false,
                                    });
                                }
                            } else if existential.contains(v) {
                                // Special edge: a fresh null is created at the
                                // existential position whenever the rule fires.
                                for bp in &body_positions {
                                    graph.edges.push(PositionEdge {
                                        from: bp.clone(),
                                        to: head_pos.clone(),
                                        special: true,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        graph.edges.sort();
        graph.edges.dedup();
        graph
    }

    /// Successors of a position (pairs of target position and edge
    /// specialness).
    pub(crate) fn successors(&self, from: &Position) -> Vec<(&Position, bool)> {
        self.edges
            .iter()
            .filter(|e| &e.from == from)
            .map(|e| (&e.to, e.special))
            .collect()
    }

    /// The set of positions that lie on or are reachable from a cycle that
    /// contains a special edge — the positions of **infinite rank**, where an
    /// unbounded number of fresh nulls may appear during the chase.
    pub(crate) fn infinite_rank_positions(&self) -> BTreeSet<Position> {
        // Step 1: find positions that are on a cycle through a special edge:
        // for each special edge (u ⇒ v), if u is reachable from v then every
        // node on some v→…→u path together with u, v lies on such a cycle.
        // It suffices to seed with v whenever u is reachable from v, and then
        // close under reachability.
        let mut seeds: BTreeSet<Position> = BTreeSet::new();
        for edge in self.edges.iter().filter(|e| e.special) {
            if self.reaches(&edge.to, &edge.from) {
                seeds.insert(edge.to.clone());
                seeds.insert(edge.from.clone());
            }
        }
        // Step 2: everything reachable from a seed has infinite rank.
        let mut infinite = seeds.clone();
        let mut queue: VecDeque<Position> = seeds.into_iter().collect();
        while let Some(current) = queue.pop_front() {
            for (next, _) in self.successors(&current) {
                if infinite.insert(next.clone()) {
                    queue.push_back(next.clone());
                }
            }
        }
        infinite
    }

    /// The positions of **finite rank** (complement of
    /// [`PositionGraph::infinite_rank_positions`] within the schema).
    pub(crate) fn finite_rank_positions(&self) -> BTreeSet<Position> {
        let infinite = self.infinite_rank_positions();
        self.positions
            .iter()
            .filter(|p| !infinite.contains(*p))
            .cloned()
            .collect()
    }

    /// Weak acyclicity: no cycle goes through a special edge.  Weakly acyclic
    /// TGD sets have a terminating (restricted) chase on every instance.
    pub(crate) fn is_weakly_acyclic(&self) -> bool {
        self.edges
            .iter()
            .filter(|e| e.special)
            .all(|e| !self.reaches(&e.to, &e.from))
    }

    /// A witness cycle through a special edge, when one exists: for the
    /// first special edge `u ⇒ v` (in sorted edge order) whose source is
    /// reachable from its target, the position sequence `u, v, …, u` — the
    /// concrete reason the program is not weakly acyclic, suitable for
    /// diagnostics.  `None` exactly when
    /// [`PositionGraph::is_weakly_acyclic`] holds.
    pub(crate) fn special_cycle(&self) -> Option<Vec<Position>> {
        for edge in self.edges.iter().filter(|e| e.special) {
            if let Some(path) = self.path(&edge.to, &edge.from) {
                let mut cycle = Vec::with_capacity(path.len() + 1);
                cycle.push(edge.from.clone());
                cycle.extend(path);
                return Some(cycle);
            }
        }
        None
    }

    /// A shortest path `from → … → to` (inclusive of both endpoints,
    /// following edges of either kind), or `None` when unreachable.  A
    /// trivial `from == to` path is the single position.
    fn path(&self, from: &Position, to: &Position) -> Option<Vec<Position>> {
        if from == to {
            return Some(vec![from.clone()]);
        }
        let mut parent: BTreeMap<Position, Position> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from.clone());
        while let Some(current) = queue.pop_front() {
            for (next, _) in self.successors(&current) {
                if next == from || parent.contains_key(next) {
                    continue;
                }
                parent.insert(next.clone(), current.clone());
                if next == to {
                    let mut path = vec![next.clone()];
                    let mut cursor = next;
                    while let Some(prev) = parent.get(cursor) {
                        path.push(prev.clone());
                        cursor = prev;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next.clone());
            }
        }
        None
    }

    /// Is `to` reachable from `from` following edges of either kind?
    fn reaches(&self, from: &Position, to: &Position) -> bool {
        if from == to {
            return true;
        }
        let mut seen = BTreeSet::new();
        seen.insert(from.clone());
        let mut queue = VecDeque::new();
        queue.push_back(from.clone());
        while let Some(current) = queue.pop_front() {
            for (next, _) in self.successors(&current) {
                if next == to {
                    return true;
                }
                if seen.insert(next.clone()) {
                    queue.push_back(next.clone());
                }
            }
        }
        false
    }

    /// The **affected** positions: positions where labeled nulls may appear
    /// during the chase.  A position is affected when an existential variable
    /// occurs there in some head, or when a frontier variable that occurs in
    /// the body *only* at affected positions occurs there in some head.
    pub(crate) fn affected_positions(tgds: &[Tgd]) -> BTreeSet<Position> {
        let mut affected: BTreeSet<Position> = BTreeSet::new();
        // Base case: existential positions.
        for tgd in tgds {
            let existential = tgd.existential_variables();
            for head_atom in &tgd.head {
                for (i, term) in head_atom.terms.iter().enumerate() {
                    if let Term::Var(v) = term {
                        if existential.contains(v) {
                            affected.insert(Position::new(head_atom.predicate.clone(), i));
                        }
                    }
                }
            }
        }
        // Fixpoint: propagate through frontier variables bound only at
        // affected body positions.
        loop {
            let mut changed = false;
            for tgd in tgds {
                let frontier = tgd.frontier();
                for var in &frontier {
                    let mut body_positions = Vec::new();
                    for atom in &tgd.body().atoms {
                        for (i, term) in atom.terms.iter().enumerate() {
                            if term.as_var() == Some(var) {
                                body_positions.push(Position::new(atom.predicate.clone(), i));
                            }
                        }
                    }
                    if body_positions.is_empty()
                        || !body_positions.iter().all(|p| affected.contains(p))
                    {
                        continue;
                    }
                    for head_atom in &tgd.head {
                        for (i, term) in head_atom.terms.iter().enumerate() {
                            if term.as_var() == Some(var) {
                                let pos = Position::new(head_atom.predicate.clone(), i);
                                if affected.insert(pos) {
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        affected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::parser::parse_program;
    use crate::rule::tgd;

    fn graph_of(program: &Program) -> PositionGraph {
        PositionGraph::from_tgds(
            &program.tgds,
            crate::analysis::classify::schema_positions(&program.tgds),
        )
    }

    fn hospital_like() -> Program {
        parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n",
        )
        .unwrap()
    }

    #[test]
    fn predicate_graph_edges_and_reachability() {
        let graph = PredicateGraph::build(&hospital_like());
        assert!(graph.edges["PatientWard"].contains("PatientUnit"));
        assert!(graph.edges["UnitWard"].contains("Shifts"));
        assert!(!graph.edges["WorkingSchedules"].contains("PatientUnit"));
        let anc = graph.ancestors_of(&["Shifts"]);
        assert!(anc.contains("WorkingSchedules"));
        assert!(anc.contains("UnitWard"));
        assert!(!anc.contains("PatientWard"));
    }

    #[test]
    fn position_graph_marks_special_edges() {
        let program = hospital_like();
        let graph = graph_of(&program);
        // Rule (8): WorkingSchedules[d]→Shifts[d] is normal; the existential
        // z at Shifts[3] gets special edges from every frontier body position.
        assert!(graph.edges.iter().any(|e| !e.special
            && e.from == Position::new("WorkingSchedules", 1)
            && e.to == Position::new("Shifts", 1)));
        assert!(graph
            .edges
            .iter()
            .any(|e| e.special && e.to == Position::new("Shifts", 3)));
        // Rule (7) has no existentials → no special edge into PatientUnit.
        assert!(!graph
            .edges
            .iter()
            .any(|e| e.special && e.to.predicate == "PatientUnit"));
    }

    #[test]
    fn hospital_rules_are_weakly_acyclic_with_finite_ranks() {
        let graph = graph_of(&hospital_like());
        assert!(graph.is_weakly_acyclic());
        assert!(graph.infinite_rank_positions().is_empty());
        assert_eq!(graph.finite_rank_positions(), graph.positions);
    }

    #[test]
    fn self_feeding_existential_rule_has_infinite_rank_positions() {
        // R(y, z) :- R(x, y). — the classic non-terminating chase shape.
        let program = parse_program("R(y, z) :- R(x, y).\n").unwrap();
        let graph = graph_of(&program);
        assert!(!graph.is_weakly_acyclic());
        let infinite = graph.infinite_rank_positions();
        assert!(infinite.contains(&Position::new("R", 0)));
        assert!(infinite.contains(&Position::new("R", 1)));
        assert!(graph.finite_rank_positions().is_empty());
    }

    #[test]
    fn affected_positions_base_and_propagation() {
        // T gets a null at position 1; that null can propagate into U[0].
        let program = parse_program(
            "T(x, z) :- S(x).\n\
             U(z) :- T(x, z).\n",
        )
        .unwrap();
        let affected = PositionGraph::affected_positions(&program.tgds);
        assert!(affected.contains(&Position::new("T", 1)));
        assert!(affected.contains(&Position::new("U", 0)));
        assert!(!affected.contains(&Position::new("T", 0)));
        assert!(!affected.contains(&Position::new("S", 0)));
    }

    #[test]
    fn affected_positions_require_all_body_occurrences_affected() {
        // The variable y occurs both at an affected position (T[1]) and a
        // non-affected one (S[0]), so V[0] is NOT affected.
        let program = parse_program(
            "T(x, z) :- S(x).\n\
             V(y) :- T(x, y), S(y).\n",
        )
        .unwrap();
        let affected = PositionGraph::affected_positions(&program.tgds);
        assert!(affected.contains(&Position::new("T", 1)));
        assert!(!affected.contains(&Position::new("V", 0)));
    }

    #[test]
    fn from_tgds_accepts_explicit_positions() {
        let tgds = vec![tgd(
            Atom::with_vars("B", &["x"]),
            vec![Atom::with_vars("A", &["x"])],
        )];
        let graph =
            PositionGraph::from_tgds(&tgds, vec![Position::new("A", 0), Position::new("B", 0)]);
        assert_eq!(graph.positions.len(), 2);
        assert_eq!(graph.edges.len(), 1);
        assert!(!graph.edges[0].special);
    }
}
