//! Worst-case-optimal (leapfrog-style) join over the columnar arena.
//!
//! The hash path in [`crate::eval`] joins **atom at a time**: pick the next
//! atom, enumerate its matching rows, recurse.  On cyclic or skewed bodies —
//! the triangle `R(x,y), S(y,z), T(z,x)` is the canonical case — any such
//! plan can generate intermediate results asymptotically larger than the
//! final output (`R ⋈ S` may be quadratic while the triangle count is not).
//! Worst-case-optimal joins avoid this by going **variable at a time**
//! (Ngo–Porat–Ré–Rudra; Veldhuizen's leapfrog triejoin is the classic
//! implementation): fix a global variable order, and for each variable
//! intersect the candidate values *across every atom containing it* before
//! moving on.  The work is then bounded by the AGM bound of the query, not
//! by the worst intermediate join.
//!
//! This implementation trades leapfrog's sorted-trie iterators for the
//! structures the arena already maintains:
//!
//! * each atom holds a **candidate set** of *live* row ids — initially its
//!   stamp window (a contiguous id range while the relation has no
//!   tombstones, the window's live ids otherwise) restricted by the atom's
//!   constants;
//! * binding a variable `v` to a value restricts the candidates of every
//!   atom containing `v`: through a sorted-postings intersection (galloping,
//!   [`intersect_sorted`]) when the position is hash-indexed, or a column
//!   filter otherwise — correctness never depends on an index being
//!   present;
//! * the candidate **values** for `v` are enumerated from the atom with the
//!   fewest candidate rows, in ascending row-id order of first occurrence,
//!   which makes the enumeration deterministic.
//!
//! Every restriction counts one *WCO seek* in the process-wide
//! [`ontodq_relational::counters`], surfaced by the server's
//! `!stats` and the join bench.

use crate::eval::{Binder, ResolvedAtom};
use ontodq_datalog::{Term, Variable};
use ontodq_relational::{intersect_sorted, record_wco_seek, FxHashSet, Value};

/// A per-atom candidate set of row ids, always sorted ascending.
enum Cand {
    /// A contiguous id range `[lo, hi)` — the initial stamp window of a
    /// relation without tombstones.
    Range(u32, u32),
    /// An explicit sorted id list, produced by restrictions.
    Ids(Vec<u32>),
}

impl Cand {
    fn len(&self) -> usize {
        match self {
            Cand::Range(lo, hi) => (hi - lo) as usize,
            Cand::Ids(ids) => ids.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn for_each(&self, f: &mut impl FnMut(u32)) {
        match self {
            Cand::Range(lo, hi) => (*lo..*hi).for_each(f),
            Cand::Ids(ids) => ids.iter().copied().for_each(f),
        }
    }
}

/// One variable of the join, with the atoms (and positions) it occurs in.
struct VarPlan {
    var: Variable,
    /// `(atom index, positions of the variable in that atom)`.
    occurrences: Vec<(usize, Vec<usize>)>,
}

/// Run the worst-case-optimal join over `atoms`, calling `stop` (on the
/// binder holding a complete assignment) at every leaf; `stop` returns
/// `true` to abort the search.  Returns whether the search was aborted.
///
/// Variables already bound in `binder` are treated as constants.  The
/// variable order puts join variables first — descending number of atoms
/// containing them, ties broken by first occurrence — so the tightest
/// intersections happen at the top of the search tree; solo variables
/// follow in occurrence order.
pub(crate) fn wco_join(
    atoms: &[ResolvedAtom],
    binder: &mut Binder,
    stop: &mut dyn FnMut(&mut Binder) -> bool,
) -> bool {
    // Initial candidates: the atom's stamp window restricted by constants
    // and pre-bound variables.
    let mut cands: Vec<Cand> = Vec::with_capacity(atoms.len());
    let mut bound: Vec<(usize, Value)> = Vec::new();
    for ra in atoms {
        bound.clear();
        for (i, term) in ra.atom.terms.iter().enumerate() {
            match term {
                Term::Const(v) => bound.push((i, *v)),
                Term::Var(v) => {
                    if let Some(value) = binder.get(v) {
                        bound.push((i, value));
                    }
                }
            }
        }
        // A contiguous range stands for "every row in the window", which is
        // only right while the relation has no tombstones; otherwise the
        // probe materializes the window's *live* ids.  Every later
        // restriction narrows one of these sets, so no candidate set ever
        // holds a dead row.
        let cand = if bound.is_empty() && ra.relation.dead_rows() == 0 {
            let range = ra.relation.window_range(ra.window);
            Cand::Range(range.start, range.end)
        } else {
            let mut ids = Vec::new();
            ra.relation.select_ids_into(&bound, ra.window, &mut ids);
            Cand::Ids(ids)
        };
        if cand.is_empty() {
            return false;
        }
        cands.push(cand);
    }

    // The global variable order.
    let mut plans: Vec<VarPlan> = Vec::new();
    for (a, ra) in atoms.iter().enumerate() {
        for (i, term) in ra.atom.terms.iter().enumerate() {
            let Term::Var(v) = term else { continue };
            if binder.get(v).is_some() {
                continue;
            }
            match plans.iter_mut().find(|p| p.var == *v) {
                Some(plan) => match plan.occurrences.iter_mut().find(|(ai, _)| *ai == a) {
                    Some((_, positions)) => positions.push(i),
                    None => plan.occurrences.push((a, vec![i])),
                },
                None => plans.push(VarPlan {
                    var: *v,
                    occurrences: vec![(a, vec![i])],
                }),
            }
        }
    }
    // Stable sort: join variables (≥ 2 atoms) before solo ones, wider
    // fan-in first; first-occurrence order breaks ties deterministically.
    plans.sort_by_key(|p| std::cmp::Reverse(p.occurrences.len()));

    enumerate(atoms, &plans, 0, &mut cands, binder, stop)
}

/// Bind the `vi`-th variable of the order to each of its candidate values
/// in turn, restricting every atom containing it, and recurse.
fn enumerate(
    atoms: &[ResolvedAtom],
    plans: &[VarPlan],
    vi: usize,
    cands: &mut Vec<Cand>,
    binder: &mut Binder,
    stop: &mut dyn FnMut(&mut Binder) -> bool,
) -> bool {
    let Some(plan) = plans.get(vi) else {
        return stop(binder);
    };
    // Enumerate candidate values from the occurrence with the fewest
    // candidate rows.
    let (seed_atom, seed_positions) = plan
        .occurrences
        .iter()
        .min_by_key(|(a, _)| cands[*a].len())
        .expect("a variable occurs somewhere");
    let seed_pos = seed_positions[0];
    let mut values: Vec<Value> = Vec::new();
    let mut seen: FxHashSet<Value> = FxHashSet::default();
    let column = atoms[*seed_atom]
        .relation
        .column(seed_pos)
        .expect("arity checked");
    cands[*seed_atom].for_each(&mut |row| {
        let value = column[row as usize];
        if seen.insert(value) {
            values.push(value);
        }
    });

    let mut aborted = false;
    'values: for value in values {
        // Restrict every atom containing the variable; remember the
        // replaced candidate sets so the branch can be undone.
        let mut undo: Vec<(usize, Cand)> = Vec::with_capacity(plan.occurrences.len());
        let mut dead_end = false;
        for (a, positions) in &plan.occurrences {
            let restricted = restrict(&atoms[*a], &cands[*a], positions, value);
            let empty = restricted.is_empty();
            undo.push((*a, std::mem::replace(&mut cands[*a], restricted)));
            if empty {
                dead_end = true;
                break;
            }
        }
        if !dead_end {
            let mark = binder.mark();
            binder.push(plan.var, value);
            let hit = enumerate(atoms, plans, vi + 1, cands, binder, stop);
            binder.truncate(mark);
            aborted = hit;
        }
        for (a, saved) in undo.into_iter().rev() {
            cands[a] = saved;
        }
        if aborted {
            break 'values;
        }
    }
    aborted
}

/// Restrict `cand` to the rows of `atom` whose value at every position in
/// `positions` equals `value`.  Uses the hash index's sorted postings when
/// one exists on the first position (clamped/intersected by galloping);
/// falls back to a column filter otherwise.
fn restrict(ra: &ResolvedAtom, cand: &Cand, positions: &[usize], value: Value) -> Cand {
    record_wco_seek();
    let first = positions[0];
    let mut ids: Vec<u32> = match (ra.relation.index(first), cand) {
        (Some(index), Cand::Range(lo, hi)) => {
            let postings = index.lookup(&value);
            let start = postings.partition_point(|&r| r < *lo);
            let end = postings.partition_point(|&r| r < *hi);
            postings[start..end].to_vec()
        }
        (Some(index), Cand::Ids(cand_ids)) => {
            let mut out = Vec::new();
            intersect_sorted(index.lookup(&value), cand_ids, &mut out);
            out
        }
        (None, _) => {
            let column = ra.relation.column(first).expect("arity checked");
            let mut out = Vec::new();
            cand.for_each(&mut |row| {
                if column[row as usize] == value {
                    out.push(row);
                }
            });
            out
        }
    };
    // A variable repeated within the atom: every other position must hold
    // the same value.
    for &pos in &positions[1..] {
        let column = ra.relation.column(pos).expect("arity checked");
        ids.retain(|&row| column[row as usize] == value);
    }
    Cand::Ids(ids)
}
