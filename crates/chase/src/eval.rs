//! Conjunctive-query evaluation over a database instance.
//!
//! Rule bodies (of TGDs, EGDs and negative constraints) and conjunctive
//! queries are conjunctions of relational atoms, negated atoms and built-in
//! comparisons.  Evaluation finds every [`Assignment`] of the variables to
//! database values under which all positive atoms are facts of the instance,
//! no negated atom is (an extension of the assignment to) a fact, and every
//! comparison holds.  A labeled null is an unknown value: a comparison or
//! negated atom that it makes undecidable is not satisfied.
//!
//! Two evaluation modes are provided:
//!
//! * [`evaluate`] joins over the **full** instance — the reference semantics
//!   that the chase's naive mode and the query-answering algorithms in
//!   `ontodq-qa` build on;
//! * [`evaluate_delta_with`] is the **semi-naive** mode: it only returns
//!   assignments in which at least one positive atom matches a row stamped
//!   *after* a given epoch (the delta).  It runs one rotated join per body
//!   position — position `i` restricted to the delta, positions before `i`
//!   restricted to the old rows, positions after `i` unrestricted — so each
//!   new trigger is discovered exactly once, through its first delta atom.
//!
//! # Join engines
//!
//! Both modes run over the columnar arena of `ontodq-relational` and never
//! materialize tuples: atoms are resolved to their relations once per join,
//! probes return **row ids** into reusable buffers
//! ([`RelationInstance::select_ids_into`]), matched values are read straight
//! out of the columns, and variable bindings live on a mark/rewind
//! `Binder` stack — an [`Assignment`] is only built at the leaves.  Two
//! join kernels share that substrate, selected per conjunction by
//! [`JoinEngine`]:
//!
//! * the **hash path**: an index-assisted nested-loop join with a greedy
//!   "most-bound atom first" ordering — optimal for the short, selective
//!   bodies that dominate chase rule sets;
//! * the **worst-case-optimal path** (see [`crate::wco`]): a
//!   leapfrog-style variable-at-a-time join picked by [`plan_uses_wco`]
//!   when a body has ≥ 3 atoms sharing variables, the regime (triangles,
//!   skewed multi-way joins) where any atom-at-a-time plan can blow up on
//!   intermediate results.
//!
//! [`ensure_indexes`] lets callers build the hash indexes a conjunction's
//! join positions benefit from (the chase engine does this for every rule
//! body, and the indexes are then maintained incrementally by
//! `ontodq-relational` as the chase inserts).
//!
//! [`RelationInstance::select_ids_into`]: ontodq_relational::RelationInstance::select_ids_into

use ontodq_datalog::{Assignment, Atom, Comparison, Conjunction, Term, Variable};
use ontodq_relational::{Database, RelationInstance, StampWindow, Value};

/// Which join kernel evaluates a conjunction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JoinEngine {
    /// Choose per conjunction: the worst-case-optimal path when the body
    /// has ≥ 3 atoms sharing variables (`plan_uses_wco`), the hash path
    /// otherwise.
    #[default]
    Auto,
    /// Always the index-assisted nested-loop (binary hash) join.
    Hash,
    /// Always the worst-case-optimal (leapfrog-style) join; conjunctions
    /// with fewer than two atoms fall back to the hash path, which is
    /// identical there.
    Leapfrog,
}

/// Does `engine` evaluate `conjunction` on the worst-case-optimal path?
///
/// The `Auto` heuristic: at least three positive atoms each sharing a
/// variable with some other atom.  Binary join plans on such bodies can
/// produce intermediate results asymptotically larger than the output
/// (the triangle query is the canonical case); bodies below the threshold
/// are small enough that the hash path's per-atom index probes win.
pub(crate) fn plan_uses_wco(conjunction: &Conjunction, engine: JoinEngine) -> bool {
    match engine {
        JoinEngine::Hash => false,
        JoinEngine::Leapfrog => conjunction.atoms.len() >= 2,
        JoinEngine::Auto => {
            if conjunction.atoms.len() < 3 {
                return false;
            }
            let var_sets: Vec<Vec<Variable>> =
                conjunction.atoms.iter().map(|a| a.variables()).collect();
            let sharing = var_sets
                .iter()
                .enumerate()
                .filter(|(i, vars)| {
                    vars.iter().any(|v| {
                        var_sets
                            .iter()
                            .enumerate()
                            .any(|(j, other)| j != *i && other.contains(v))
                    })
                })
                .count();
            sharing >= 3
        }
    }
}

/// An atom together with the stamp window its tuples must come from.
#[derive(Debug, Clone, Copy)]
struct PlannedAtom<'a> {
    atom: &'a Atom,
    window: StampWindow,
}

impl<'a> PlannedAtom<'a> {
    fn unrestricted(atom: &'a Atom) -> Self {
        Self {
            atom,
            window: StampWindow::all(),
        }
    }
}

/// An atom resolved against the database: the relation looked up **once**
/// per join (not once per recursion step), with the arity checked up front.
pub(crate) struct ResolvedAtom<'a> {
    pub(crate) atom: &'a Atom,
    pub(crate) relation: &'a RelationInstance,
    pub(crate) window: StampWindow,
}

/// Resolve all planned atoms, or `None` when some atom's relation is
/// missing or of the wrong arity — its extension is empty, so the whole
/// conjunction has no satisfying assignments.
fn resolve<'a>(db: &'a Database, planned: &[PlannedAtom<'a>]) -> Option<Vec<ResolvedAtom<'a>>> {
    let mut out = Vec::with_capacity(planned.len());
    for p in planned {
        let relation = db.relation(&p.atom.predicate).ok()?;
        if relation.schema().arity() != p.atom.arity() {
            return None;
        }
        out.push(ResolvedAtom {
            atom: p.atom,
            relation,
            window: p.window,
        });
    }
    Some(out)
}

/// A mark/rewind stack of variable bindings — the join's working state.
///
/// Entries are unsorted (push order); rule bodies bind a handful of
/// variables, so lookup is a short scan and backtracking is a truncate.
/// Unlike [`Assignment`] (which the old engine cloned once per candidate
/// row), the binder is mutated in place along the whole join — assignments
/// are materialized only at the leaves via [`Binder::to_assignment`].
#[derive(Debug, Default)]
pub(crate) struct Binder {
    entries: Vec<(Variable, Value)>,
}

impl Binder {
    pub(crate) fn from_assignment(seed: &Assignment) -> Self {
        Self {
            entries: seed.iter().map(|(v, val)| (*v, *val)).collect(),
        }
    }

    #[inline]
    pub(crate) fn get(&self, var: &Variable) -> Option<Value> {
        self.entries
            .iter()
            .find(|(v, _)| v == var)
            .map(|(_, val)| *val)
    }

    #[inline]
    pub(crate) fn mark(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub(crate) fn truncate(&mut self, mark: usize) {
        self.entries.truncate(mark);
    }

    #[inline]
    pub(crate) fn push(&mut self, var: Variable, value: Value) {
        self.entries.push((var, value));
    }

    pub(crate) fn to_assignment(&self) -> Assignment {
        let mut a = Assignment::new();
        for (var, value) in &self.entries {
            a.bind(*var, *value);
        }
        a
    }
}

/// Per-depth scratch buffers of the hash join, reused across every row and
/// every probe at that depth — the recursion allocates nothing per row.
#[derive(Debug, Default)]
struct Level {
    /// Candidate row ids of the current probe.
    ids: Vec<u32>,
    /// Positions bound by constants or already-bound variables.
    bound: Vec<(usize, Value)>,
    /// Positions holding variables unbound at depth entry, in term order
    /// (a repeated variable appears once per position; the second
    /// occurrence finds the first's binding on the stack and becomes an
    /// equality check).
    actions: Vec<(usize, Variable)>,
}

/// Evaluate a conjunction against a database, returning every satisfying
/// assignment (restricted to the conjunction's variables).
pub fn evaluate(db: &Database, conjunction: &Conjunction) -> Vec<Assignment> {
    evaluate_with(db, conjunction, JoinEngine::Auto)
}

/// [`evaluate`] with an explicit join-engine choice.
pub fn evaluate_with(
    db: &Database,
    conjunction: &Conjunction,
    engine: JoinEngine,
) -> Vec<Assignment> {
    let mut results = Vec::new();
    for_each_trigger(db, conjunction, None, engine, &mut |binder| {
        results.push(binder.to_assignment());
        false
    });
    results
}

/// Semi-naive evaluation: every satisfying assignment in which at least one
/// positive atom matches a row stamped strictly after `floor`.
///
/// Runs `conjunction.atoms.len()` rotated joins.  In rotation `i`, atom `i`
/// draws from the delta (`stamp > floor`), atoms before `i` from the old
/// rows (`stamp <= floor`) and atoms after `i` from the whole relation, so
/// the rotations partition the new assignments: each is produced exactly
/// once, by the rotation of its first delta atom.  Negated atoms and
/// comparisons are checked against the full instance, exactly as in
/// [`evaluate`].
pub(crate) fn evaluate_delta_with(
    db: &Database,
    conjunction: &Conjunction,
    floor: u64,
    engine: JoinEngine,
) -> Vec<Assignment> {
    let mut results = Vec::new();
    for_each_trigger(db, conjunction, Some(floor), engine, &mut |binder| {
        results.push(binder.to_assignment());
        false
    });
    results
}

/// Run the full (`floor: None`) or semi-naive delta (`floor: Some`)
/// evaluation of a conjunction, calling `emit` with the binder holding each
/// satisfying assignment instead of materializing [`Assignment`]s.
///
/// This is the chase's hot entry point: the binder's entries are the
/// complete bindings of the conjunction's variables, readable in place, so
/// a caller that only needs a few values per trigger (grounding a full
/// TGD's head, say) allocates nothing per row.  `emit` returns `true` to
/// abort the search.
pub(crate) fn for_each_trigger(
    db: &Database,
    conjunction: &Conjunction,
    floor: Option<u64>,
    engine: JoinEngine,
    emit: &mut dyn FnMut(&mut Binder) -> bool,
) {
    let Some(floor) = floor else {
        let planned: Vec<PlannedAtom> = conjunction
            .atoms
            .iter()
            .map(PlannedAtom::unrestricted)
            .collect();
        run_join(db, conjunction, planned, engine, emit);
        return;
    };
    let n = conjunction.atoms.len();
    for seed in 0..n {
        let mut order: Vec<PlannedAtom> = Vec::with_capacity(n);
        let mut rest: Vec<PlannedAtom> = Vec::with_capacity(n - 1);
        for (j, atom) in conjunction.atoms.iter().enumerate() {
            let window = match j.cmp(&seed) {
                std::cmp::Ordering::Less => StampWindow::old_up_to(floor),
                std::cmp::Ordering::Equal => StampWindow::delta_after(floor),
                std::cmp::Ordering::Greater => StampWindow::all(),
            };
            let planned = PlannedAtom { atom, window };
            if j == seed {
                order.push(planned);
            } else {
                rest.push(planned);
            }
        }
        // The delta atom leads (it is the most selective by construction);
        // the rest keep the greedy most-constants-first ordering.
        rest.sort_by_key(|p| std::cmp::Reverse(p.atom.constants().len()));
        order.extend(rest);
        run_join(db, conjunction, order, engine, emit);
    }
}

/// Dispatch a planned conjunction to the chosen join kernel, filtering each
/// complete assignment through the negated atoms and comparisons before
/// handing it to `emit` (which returns `true` to abort the search).
fn run_join(
    db: &Database,
    conjunction: &Conjunction,
    mut planned: Vec<PlannedAtom>,
    engine: JoinEngine,
    emit: &mut dyn FnMut(&mut Binder) -> bool,
) {
    let use_wco = plan_uses_wco(conjunction, engine);
    if !use_wco {
        // Greedy static ordering for the nested-loop path: atoms with more
        // constants first (most selective with no bindings yet).  Delta
        // rotations pre-order with the delta atom leading; their first atom
        // is pinned by construction (`sort` above already handled the
        // rest), so only re-sort when every window is unrestricted.
        if planned.iter().all(|p| p.window.is_all()) {
            planned.sort_by_key(|p| std::cmp::Reverse(p.atom.constants().len()));
        }
    }
    let resolved = match resolve(db, &planned) {
        Some(r) => r,
        None => return,
    };
    let mut binder = Binder::default();
    // The filter path allocates nothing per row: comparisons are evaluated
    // straight off the binder stack, and each negated atom is resolved once
    // per join and probed through the nested-loop kernel with a persistent
    // scratch level (the probe rewinds the binder, so the shared stack is
    // safe).  A negated atom that fails to resolve has an empty extension —
    // its negation holds vacuously.  A negated atom whose bindings hold a
    // labeled null is *unknown* (the null may stand for a value that makes
    // the atom a fact), and unknown is not satisfied: the same naive-table
    // rule `!=` follows ([`ontodq_datalog::CompareOp::eval`]).
    let negated_vars: Vec<Vec<Variable>> = conjunction
        .negated
        .iter()
        .map(|atom| atom.variables())
        .collect();
    let negated: Vec<Option<Vec<ResolvedAtom>>> = conjunction
        .negated
        .iter()
        .map(|atom| resolve(db, &[PlannedAtom::unrestricted(atom)]))
        .collect();
    let mut negated_scratch: Vec<Level> = (0..negated.len()).map(|_| Level::default()).collect();
    let mut leaf = |binder: &mut Binder| -> bool {
        for cmp in &conjunction.comparisons {
            if !binder_satisfies_comparison(binder, cmp) {
                return false;
            }
        }
        for vars in &negated_vars {
            if vars
                .iter()
                .any(|v| binder.get(v).is_some_and(|value| value.is_null()))
            {
                return false;
            }
        }
        for (atoms, scratch) in negated.iter().zip(negated_scratch.iter_mut()) {
            if let Some(atoms) = atoms {
                if hash_join(atoms, 0, binder, std::slice::from_mut(scratch), &mut |_| {
                    true
                }) {
                    return false;
                }
            }
        }
        emit(binder)
    };
    if use_wco {
        crate::wco::wco_join(&resolved, &mut binder, &mut leaf);
    } else {
        let mut scratch: Vec<Level> = (0..resolved.len()).map(|_| Level::default()).collect();
        hash_join(&resolved, 0, &mut binder, &mut scratch, &mut leaf);
    }
}

/// Does the conjunction have at least one satisfying assignment?
pub fn is_satisfiable(db: &Database, conjunction: &Conjunction) -> bool {
    !evaluate_limited(db, conjunction, 1).is_empty()
}

/// Like [`evaluate`], but stops after `limit` assignments have been found.
/// Always the hash path: early-exit workloads want the first answer fast,
/// not a worst-case-optimal enumeration of all of them.
pub(crate) fn evaluate_limited(
    db: &Database,
    conjunction: &Conjunction,
    limit: usize,
) -> Vec<Assignment> {
    let mut results = Vec::new();
    if limit == 0 {
        return results;
    }
    let planned: Vec<PlannedAtom> = conjunction
        .atoms
        .iter()
        .map(PlannedAtom::unrestricted)
        .collect();
    run_join(db, conjunction, planned, JoinEngine::Hash, &mut |binder| {
        results.push(binder.to_assignment());
        results.len() >= limit
    });
    results
}

/// Extend `assignment` so that all of `atoms` are satisfied; calls `found`
/// for every complete extension.  Used both for body evaluation and for the
/// restricted chase's "head already satisfied" check.
pub(crate) fn extend_over_atoms(
    db: &Database,
    atoms: &[&Atom],
    assignment: Assignment,
    found: &mut dyn FnMut(&Assignment),
) {
    let planned: Vec<PlannedAtom> = atoms.iter().map(|a| PlannedAtom::unrestricted(a)).collect();
    let resolved = match resolve(db, &planned) {
        Some(r) => r,
        None => return,
    };
    let mut binder = Binder::from_assignment(&assignment);
    let mut scratch: Vec<Level> = (0..resolved.len()).map(|_| Level::default()).collect();
    hash_join(&resolved, 0, &mut binder, &mut scratch, &mut |binder| {
        found(&binder.to_assignment());
        false
    });
}

/// Is there any extension of `assignment` satisfying all of `atoms`?
pub(crate) fn has_extension(db: &Database, atoms: &[&Atom], assignment: &Assignment) -> bool {
    let planned: Vec<PlannedAtom> = atoms.iter().map(|a| PlannedAtom::unrestricted(a)).collect();
    let resolved = match resolve(db, &planned) {
        Some(r) => r,
        None => return false,
    };
    let mut binder = Binder::from_assignment(assignment);
    let mut scratch: Vec<Level> = (0..resolved.len()).map(|_| Level::default()).collect();
    hash_join(&resolved, 0, &mut binder, &mut scratch, &mut |_| true)
}

/// The nested-loop kernel: at each depth, probe the current atom's relation
/// for candidate row ids under the bindings accumulated so far, then walk
/// the candidates binding the atom's free variables from the columns.
///
/// `stop` runs at the leaves and returns `true` to abort the whole search
/// (used by limits and existence checks).  Returns whether the search was
/// aborted.  The binder is always rewound to its entry state on return.
fn hash_join(
    atoms: &[ResolvedAtom],
    depth: usize,
    binder: &mut Binder,
    scratch: &mut [Level],
    stop: &mut dyn FnMut(&mut Binder) -> bool,
) -> bool {
    if depth == atoms.len() {
        return stop(binder);
    }
    let ra = &atoms[depth];
    // Take this depth's scratch out so the recursion can borrow the rest.
    let mut level = std::mem::take(&mut scratch[depth]);
    level.ids.clear();
    level.bound.clear();
    level.actions.clear();
    for (i, term) in ra.atom.terms.iter().enumerate() {
        match term {
            Term::Const(v) => level.bound.push((i, *v)),
            Term::Var(v) => match binder.get(v) {
                Some(value) => level.bound.push((i, value)),
                None => level.actions.push((i, *v)),
            },
        }
    }
    ra.relation
        .select_ids_into(&level.bound, ra.window, &mut level.ids);
    let mut aborted = false;
    'rows: for &row in &level.ids {
        let mark = binder.mark();
        for &(pos, var) in &level.actions {
            let value = ra
                .relation
                .value_at(row, pos)
                .copied()
                .expect("arity checked");
            match binder.get(&var) {
                // A repeated variable: its first occurrence in this very
                // row bound it; later occurrences must agree.
                Some(bound) => {
                    if bound != value {
                        binder.truncate(mark);
                        continue 'rows;
                    }
                }
                None => binder.push(var, value),
            }
        }
        let hit = hash_join(atoms, depth + 1, binder, scratch, stop);
        binder.truncate(mark);
        if hit {
            aborted = true;
            break;
        }
    }
    scratch[depth] = level;
    aborted
}

/// The value a term takes under the binder's current bindings.
#[inline]
fn binder_term_value(binder: &Binder, term: &Term) -> Option<Value> {
    match term {
        Term::Const(v) => Some(*v),
        Term::Var(v) => binder.get(v),
    }
}

/// [`Assignment::satisfies_comparison`] evaluated on the binder stack —
/// unbound operands fail the comparison, matching the assignment semantics.
fn binder_satisfies_comparison(binder: &Binder, cmp: &Comparison) -> bool {
    match (
        binder_term_value(binder, &cmp.left),
        binder_term_value(binder, &cmp.right),
    ) {
        (Some(left), Some(right)) => cmp.op.eval(&left, &right).unwrap_or(false),
        _ => false,
    }
}

/// Evaluate a conjunction and project each satisfying assignment onto
/// `projection`, deduplicating the resulting tuples.
pub fn evaluate_project(
    db: &Database,
    conjunction: &Conjunction,
    projection: &[ontodq_datalog::Variable],
) -> Vec<ontodq_relational::Tuple> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for assignment in evaluate(db, conjunction) {
        if let Some(tuple) = assignment.project(projection) {
            if seen.insert(tuple.clone()) {
                out.push(tuple);
            }
        }
    }
    out
}

/// The `(relation, position)` pairs of a conjunction that an equality join
/// or a constant selection can probe: positions holding a constant, or a
/// variable that also occurs elsewhere in the conjunction's positive part.
pub(crate) fn index_positions(conjunction: &Conjunction) -> Vec<(String, usize)> {
    use std::collections::HashMap;
    let mut occurrences: HashMap<&str, usize> = HashMap::new();
    // Negated atoms join too: each is probed once per satisfying assignment
    // of the positive part, with the shared variables bound — without an
    // index that existence probe degenerates to a relation scan per row.
    let all_atoms = || conjunction.atoms.iter().chain(conjunction.negated.iter());
    for atom in all_atoms() {
        for term in &atom.terms {
            if let Term::Var(v) = term {
                *occurrences.entry(v.name()).or_default() += 1;
            }
        }
    }
    let mut out = Vec::new();
    for atom in all_atoms() {
        for (position, term) in atom.terms.iter().enumerate() {
            let worth_indexing = match term {
                Term::Const(_) => true,
                Term::Var(v) => occurrences.get(v.name()).copied().unwrap_or(0) > 1,
            };
            if worth_indexing {
                out.push((atom.predicate.clone(), position));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Build the hash indexes `index_positions` suggests for `conjunction`,
/// skipping relations that do not exist (or whose arity disagrees) and
/// positions already indexed.  Indexes built here are maintained
/// incrementally by `ontodq-relational` on every subsequent insert, so the
/// chase pays the build cost once and keeps the lookup speed for the whole
/// run — and so does any query evaluated on the chased instance afterwards.
/// Both join kernels exploit them: the hash path for its probes, the
/// worst-case-optimal path for postings-list intersections.
///
/// Relations are tested read-only first and opened for writing only when an
/// index is really missing, so running this over a database whose relations
/// are shared with a snapshot (see `ontodq_relational::Database`) copies
/// nothing once the indexes exist.
pub fn ensure_indexes(db: &mut Database, conjunction: &Conjunction) {
    for (predicate, position) in index_positions(conjunction) {
        ensure_index(db, &predicate, position);
    }
}

/// Build the hash index on `position` of `predicate` unless the relation is
/// unknown, the position is out of range, or the index already exists.
pub(crate) fn ensure_index(db: &mut Database, predicate: &str, position: usize) {
    let missing = db
        .relation(predicate)
        .is_ok_and(|r| position < r.schema().arity() && !r.has_index(position));
    if missing {
        if let Ok(relation) = db.relation_mut(predicate) {
            relation.build_index(position);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_datalog::{CompareOp, Comparison, Variable};
    use ontodq_relational::Tuple;

    fn hospital_db() -> Database {
        let mut db = Database::new();
        for (u, w) in [
            ("Standard", "W1"),
            ("Standard", "W2"),
            ("Intensive", "W3"),
            ("Terminal", "W4"),
        ] {
            db.insert_values("UnitWard", [u, w]).unwrap();
        }
        for (w, d, p) in [
            ("W1", "Sep/5", "Tom Waits"),
            ("W1", "Sep/6", "Tom Waits"),
            ("W3", "Sep/7", "Tom Waits"),
            ("W2", "Sep/9", "Tom Waits"),
            ("W2", "Sep/6", "Lou Reed"),
            ("W1", "Sep/5", "Lou Reed"),
        ] {
            db.insert_values("PatientWard", [w, d, p]).unwrap();
        }
        db
    }

    #[test]
    fn single_atom_evaluation_binds_all_variables() {
        let db = hospital_db();
        let conj = Conjunction::positive(vec![Atom::with_vars("UnitWard", &["u", "w"])]);
        let results = evaluate(&db, &conj);
        assert_eq!(results.len(), 4);
        assert!(results
            .iter()
            .all(|a| a.get(&Variable::new("u")).is_some() && a.get(&Variable::new("w")).is_some()));
    }

    #[test]
    fn join_across_two_atoms() {
        let db = hospital_db();
        // Which unit was each patient in on each day?  (The body of rule (7).)
        let conj = Conjunction::positive(vec![
            Atom::with_vars("PatientWard", &["w", "d", "p"]),
            Atom::with_vars("UnitWard", &["u", "w"]),
        ]);
        let results = evaluate(&db, &conj);
        assert_eq!(results.len(), 6);
        // Tom Waits on Sep/7 was in ward W3, i.e. the Intensive unit.
        let tom_sep7: Vec<_> = results
            .iter()
            .filter(|a| {
                a.get(&Variable::new("p")) == Some(&Value::str("Tom Waits"))
                    && a.get(&Variable::new("d")) == Some(&Value::str("Sep/7"))
            })
            .collect();
        assert_eq!(tom_sep7.len(), 1);
        assert_eq!(
            tom_sep7[0].get(&Variable::new("u")),
            Some(&Value::str("Intensive"))
        );
    }

    #[test]
    fn constants_in_atoms_filter() {
        let db = hospital_db();
        let conj = Conjunction::positive(vec![Atom::new(
            "UnitWard",
            vec![Term::constant("Standard"), Term::var("w")],
        )]);
        let results = evaluate(&db, &conj);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn comparisons_filter_assignments() {
        let db = hospital_db();
        let conj = Conjunction::positive(vec![Atom::with_vars("PatientWard", &["w", "d", "p"])])
            .and_compare(Comparison::new(
                Term::var("p"),
                CompareOp::Eq,
                Term::constant("Lou Reed"),
            ));
        let results = evaluate(&db, &conj);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn negated_atoms_exclude_matches() {
        let mut db = hospital_db();
        db.insert_values("Closed", ["Intensive"]).unwrap();
        // Units that are not closed.
        let conj = Conjunction::positive(vec![Atom::with_vars("UnitWard", &["u", "w"])])
            .and_not(Atom::with_vars("Closed", &["u"]));
        let results = evaluate(&db, &conj);
        assert_eq!(results.len(), 3);
        assert!(results
            .iter()
            .all(|a| a.get(&Variable::new("u")) != Some(&Value::str("Intensive"))));
    }

    #[test]
    fn negation_on_unknown_relation_is_vacuously_true() {
        let db = hospital_db();
        let conj = Conjunction::positive(vec![Atom::with_vars("UnitWard", &["u", "w"])])
            .and_not(Atom::with_vars("DoesNotExist", &["u"]));
        assert_eq!(evaluate(&db, &conj).len(), 4);
    }

    #[test]
    fn unknown_positive_relation_has_empty_extension() {
        let db = hospital_db();
        let conj = Conjunction::positive(vec![Atom::with_vars("Missing", &["x"])]);
        assert!(evaluate(&db, &conj).is_empty());
        assert!(!is_satisfiable(&db, &conj));
    }

    #[test]
    fn arity_mismatch_yields_no_answers() {
        let db = hospital_db();
        let conj = Conjunction::positive(vec![Atom::with_vars("UnitWard", &["u", "w", "x"])]);
        assert!(evaluate(&db, &conj).is_empty());
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let mut db = Database::new();
        db.insert_values("E", ["a", "a"]).unwrap();
        db.insert_values("E", ["a", "b"]).unwrap();
        let conj = Conjunction::positive(vec![Atom::with_vars("E", &["x", "x"])]);
        let results = evaluate(&db, &conj);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get(&Variable::new("x")), Some(&Value::str("a")));
    }

    #[test]
    fn evaluate_limited_stops_early() {
        let db = hospital_db();
        let conj = Conjunction::positive(vec![Atom::with_vars("PatientWard", &["w", "d", "p"])]);
        assert_eq!(evaluate_limited(&db, &conj, 2).len(), 2);
        assert_eq!(evaluate_limited(&db, &conj, 0).len(), 0);
        assert!(is_satisfiable(&db, &conj));
    }

    #[test]
    fn evaluate_project_deduplicates() {
        let db = hospital_db();
        let conj = Conjunction::positive(vec![Atom::with_vars("PatientWard", &["w", "d", "p"])]);
        let patients = evaluate_project(&db, &conj, &[Variable::new("p")]);
        assert_eq!(patients.len(), 2);
        assert!(patients.contains(&Tuple::from_iter(["Tom Waits"])));
        assert!(patients.contains(&Tuple::from_iter(["Lou Reed"])));
    }

    #[test]
    fn has_extension_respects_partial_assignment() {
        let db = hospital_db();
        let atom = Atom::with_vars("UnitWard", &["u", "w"]);
        let mut assignment = Assignment::new();
        assignment.bind(Variable::new("u"), Value::str("Standard"));
        assert!(has_extension(&db, &[&atom], &assignment));
        let mut assignment2 = Assignment::new();
        assignment2.bind(Variable::new("u"), Value::str("Oncology"));
        assert!(!has_extension(&db, &[&atom], &assignment2));
    }

    #[test]
    fn indexes_do_not_change_results() {
        let mut db = hospital_db();
        let conj = Conjunction::positive(vec![
            Atom::with_vars("PatientWard", &["w", "d", "p"]),
            Atom::with_vars("UnitWard", &["u", "w"]),
        ]);
        let before = evaluate(&db, &conj).len();
        db.relation_mut("UnitWard").unwrap().build_index(1);
        db.relation_mut("PatientWard").unwrap().build_index(0);
        let after = evaluate(&db, &conj).len();
        assert_eq!(before, after);
    }

    // ------------------------------------------------------------------
    // Join-engine selection and hash/leapfrog agreement.
    // ------------------------------------------------------------------

    fn triangle_db() -> Database {
        let mut db = Database::new();
        // A small triangle pattern with one dead end.
        for (a, b) in [("a", "b"), ("b", "c"), ("a", "d")] {
            db.insert_values("R", [a, b]).unwrap();
        }
        for (a, b) in [("b", "c"), ("c", "a"), ("d", "b")] {
            db.insert_values("S", [a, b]).unwrap();
        }
        for (a, b) in [("c", "a"), ("b", "a")] {
            db.insert_values("T", [a, b]).unwrap();
        }
        db
    }

    fn triangle_body() -> Conjunction {
        Conjunction::positive(vec![
            Atom::with_vars("R", &["x", "y"]),
            Atom::with_vars("S", &["y", "z"]),
            Atom::with_vars("T", &["z", "x"]),
        ])
    }

    #[test]
    fn planner_picks_wco_for_shared_triple_joins_only() {
        assert!(plan_uses_wco(&triangle_body(), JoinEngine::Auto));
        assert!(!plan_uses_wco(&triangle_body(), JoinEngine::Hash));
        assert!(plan_uses_wco(&triangle_body(), JoinEngine::Leapfrog));
        // Two atoms: below the Auto threshold.
        let two = Conjunction::positive(vec![
            Atom::with_vars("R", &["x", "y"]),
            Atom::with_vars("S", &["y", "z"]),
        ]);
        assert!(!plan_uses_wco(&two, JoinEngine::Auto));
        assert!(plan_uses_wco(&two, JoinEngine::Leapfrog));
        // Three atoms but a cartesian product (no shared variables): hash.
        let cartesian = Conjunction::positive(vec![
            Atom::with_vars("R", &["a", "b"]),
            Atom::with_vars("S", &["c", "d"]),
            Atom::with_vars("T", &["e", "f"]),
        ]);
        assert!(!plan_uses_wco(&cartesian, JoinEngine::Auto));
    }

    fn as_set(results: &[Assignment]) -> std::collections::BTreeSet<String> {
        results.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn hash_and_leapfrog_agree_on_triangles() {
        let db = triangle_db();
        let conj = triangle_body();
        let hash = evaluate_with(&db, &conj, JoinEngine::Hash);
        let wco = evaluate_with(&db, &conj, JoinEngine::Leapfrog);
        assert_eq!(as_set(&hash), as_set(&wco));
        // The triangle a→b→c→a must be found by both.
        assert!(!hash.is_empty());
        // Auto picks WCO here and must agree too.
        let auto = evaluate(&db, &conj);
        assert_eq!(as_set(&hash), as_set(&auto));
    }

    #[test]
    fn hash_and_leapfrog_agree_with_indexes_constants_and_filters() {
        let mut db = triangle_db();
        ensure_indexes(&mut db, &triangle_body());
        let conj = Conjunction::positive(vec![
            Atom::with_vars("R", &["x", "y"]),
            Atom::with_vars("S", &["y", "z"]),
            Atom::new("T", vec![Term::var("z"), Term::constant("a")]),
        ])
        .and_compare(Comparison::new(
            Term::var("x"),
            CompareOp::Eq,
            Term::constant("a"),
        ));
        let hash = evaluate_with(&db, &conj, JoinEngine::Hash);
        let wco = evaluate_with(&db, &conj, JoinEngine::Leapfrog);
        assert_eq!(as_set(&hash), as_set(&wco));
    }

    #[test]
    fn leapfrog_handles_repeated_variables_and_dead_ends() {
        let mut db = Database::new();
        db.insert_values("E", ["a", "a"]).unwrap();
        db.insert_values("E", ["a", "b"]).unwrap();
        db.insert_values("F", ["a"]).unwrap();
        let conj = Conjunction::positive(vec![
            Atom::with_vars("E", &["x", "x"]),
            Atom::with_vars("F", &["x"]),
        ]);
        let hash = evaluate_with(&db, &conj, JoinEngine::Hash);
        let wco = evaluate_with(&db, &conj, JoinEngine::Leapfrog);
        assert_eq!(as_set(&hash), as_set(&wco));
        assert_eq!(wco.len(), 1);
    }

    #[test]
    fn delta_rotations_agree_across_engines() {
        let mut db = triangle_db();
        let watermark = db.epoch();
        db.advance_epoch();
        db.insert_values("R", ["c", "b"]).unwrap();
        db.insert_values("T", ["a", "c"]).unwrap();
        let conj = triangle_body();
        let hash = evaluate_delta_with(&db, &conj, watermark, JoinEngine::Hash);
        let wco = evaluate_delta_with(&db, &conj, watermark, JoinEngine::Leapfrog);
        assert_eq!(as_set(&hash), as_set(&wco));
        // And the delta is exactly the full-evaluation difference.
        let full_now = as_set(&evaluate_with(&db, &conj, JoinEngine::Hash));
        let mut db_old = triangle_db();
        ensure_indexes(&mut db_old, &conj);
        let full_old = as_set(&evaluate_with(&db_old, &conj, JoinEngine::Hash));
        let expected: std::collections::BTreeSet<String> =
            full_now.difference(&full_old).cloned().collect();
        assert_eq!(as_set(&hash), expected);
    }

    // ------------------------------------------------------------------
    // Semi-naive delta evaluation.
    // ------------------------------------------------------------------

    fn rule7_body() -> Conjunction {
        Conjunction::positive(vec![
            Atom::with_vars("PatientWard", &["w", "d", "p"]),
            Atom::with_vars("UnitWard", &["u", "w"]),
        ])
    }

    #[test]
    fn delta_with_floor_before_everything_equals_full_evaluation() {
        let db = hospital_db();
        // All rows are stamped 0 and the floor is below them only when we
        // compare against an epoch that precedes every insert; since stamps
        // start at 0, evaluate_delta_with over a fresh database needs the
        // pre-insert watermark.  Advance the epoch and re-insert to get a
        // clean split instead.
        let full: std::collections::BTreeSet<String> = evaluate(&db, &rule7_body())
            .iter()
            .map(|a| a.to_string())
            .collect();
        let mut db2 = Database::new();
        db2.advance_epoch(); // existing rows stamped 1 > floor 0
        for rel in db.relations() {
            for t in rel.iter() {
                db2.insert(rel.name(), t).unwrap();
            }
        }
        let delta: std::collections::BTreeSet<String> =
            evaluate_delta_with(&db2, &rule7_body(), 0, JoinEngine::Auto)
                .iter()
                .map(|a| a.to_string())
                .collect();
        assert_eq!(full, delta);
    }

    #[test]
    fn delta_after_current_epoch_is_empty() {
        let db = hospital_db();
        assert!(evaluate_delta_with(&db, &rule7_body(), db.epoch(), JoinEngine::Auto).is_empty());
    }

    #[test]
    fn delta_finds_exactly_the_new_joins_exactly_once() {
        let mut db = hospital_db();
        let watermark = db.epoch();
        db.advance_epoch();
        // One new PatientWard row joins two existing UnitWard rows... no:
        // W1 belongs to exactly one unit, so one new trigger.
        db.insert_values("PatientWard", ["W1", "Sep/9", "Nick Cave"])
            .unwrap();
        // One new UnitWard row re-parents nothing (fresh ward) but pairs
        // with no PatientWard rows.
        db.insert_values("UnitWard", ["Oncology", "W9"]).unwrap();
        let delta = evaluate_delta_with(&db, &rule7_body(), watermark, JoinEngine::Auto);
        assert_eq!(delta.len(), 1);
        assert_eq!(
            delta[0].get(&Variable::new("p")),
            Some(&Value::str("Nick Cave"))
        );
        // The full evaluation finds the old six plus the new one.
        assert_eq!(evaluate(&db, &rule7_body()).len(), 7);
    }

    #[test]
    fn delta_triggers_spanning_two_delta_atoms_are_not_duplicated() {
        let mut db = hospital_db();
        let watermark = db.epoch();
        db.advance_epoch();
        // Both atoms of the join are new: the trigger must appear exactly
        // once (found by the rotation of its first delta atom).
        db.insert_values("PatientWard", ["W9", "Sep/9", "Nick Cave"])
            .unwrap();
        db.insert_values("UnitWard", ["Oncology", "W9"]).unwrap();
        let delta = evaluate_delta_with(&db, &rule7_body(), watermark, JoinEngine::Auto);
        let nicks: Vec<_> = delta
            .iter()
            .filter(|a| a.get(&Variable::new("p")) == Some(&Value::str("Nick Cave")))
            .collect();
        assert_eq!(nicks.len(), 1);
    }

    #[test]
    fn delta_agrees_with_full_evaluation_difference() {
        let mut db = hospital_db();
        let before: std::collections::BTreeSet<String> = evaluate(&db, &rule7_body())
            .iter()
            .map(|a| a.to_string())
            .collect();
        let watermark = db.epoch();
        db.advance_epoch();
        db.insert_values("PatientWard", ["W2", "Sep/7", "Nick Cave"])
            .unwrap();
        db.insert_values("UnitWard", ["Standard", "W5"]).unwrap();
        db.insert_values("PatientWard", ["W5", "Sep/8", "Nick Cave"])
            .unwrap();
        let after: std::collections::BTreeSet<String> = evaluate(&db, &rule7_body())
            .iter()
            .map(|a| a.to_string())
            .collect();
        let delta: std::collections::BTreeSet<String> =
            evaluate_delta_with(&db, &rule7_body(), watermark, JoinEngine::Auto)
                .iter()
                .map(|a| a.to_string())
                .collect();
        let expected: std::collections::BTreeSet<String> =
            after.difference(&before).cloned().collect();
        assert_eq!(delta, expected);
    }

    #[test]
    fn delta_respects_comparison_filters() {
        let mut db = hospital_db();
        let watermark = db.epoch();
        db.advance_epoch();
        db.insert_values("PatientWard", ["W1", "Sep/9", "Nick Cave"])
            .unwrap();
        db.insert_values("PatientWard", ["W1", "Sep/9", "Lou Reed"])
            .unwrap();
        let conj = rule7_body().and_compare(Comparison::new(
            Term::var("p"),
            CompareOp::Eq,
            Term::constant("Nick Cave"),
        ));
        let delta = evaluate_delta_with(&db, &conj, watermark, JoinEngine::Auto);
        assert_eq!(delta.len(), 1);
    }

    #[test]
    fn index_positions_cover_joins_and_constants() {
        let conj = Conjunction::positive(vec![
            Atom::with_vars("PatientWard", &["w", "d", "p"]),
            Atom::new("UnitWard", vec![Term::constant("Standard"), Term::var("w")]),
        ]);
        let positions = index_positions(&conj);
        // w joins PatientWard.0 with UnitWard.1; the constant sits at
        // UnitWard.0.  d and p occur once each → not indexed.
        assert!(positions.contains(&("PatientWard".to_string(), 0)));
        assert!(positions.contains(&("UnitWard".to_string(), 0)));
        assert!(positions.contains(&("UnitWard".to_string(), 1)));
        assert!(!positions.contains(&("PatientWard".to_string(), 1)));
        assert!(!positions.contains(&("PatientWard".to_string(), 2)));
    }

    /// Index building is a write, but only when an index is missing: on a
    /// database sharing already-indexed relations it must copy nothing.
    #[test]
    fn ensure_indexes_leaves_indexed_shared_relations_shared() {
        let conj = Conjunction::positive(vec![
            Atom::with_vars("PatientWard", &["w", "d", "p"]),
            Atom::with_vars("UnitWard", &["u", "w"]),
        ]);
        let mut indexed = hospital_db();
        ensure_indexes(&mut indexed, &conj);
        let mut copy = indexed.clone();
        ensure_indexes(&mut copy, &conj);
        for name in ["PatientWard", "UnitWard"] {
            assert!(ontodq_relational::same_relation(
                indexed.shared_relation(name),
                copy.shared_relation(name)
            ));
        }
        // A missing index unshares exactly the relation that lacks it.
        let with_day = Conjunction::positive(vec![
            Atom::with_vars("PatientWard", &["w", "d", "p"]),
            Atom::with_vars("WorkingSchedules", &["u", "d", "n", "t"]),
        ]);
        ensure_indexes(&mut copy, &with_day);
        assert!(copy.relation("PatientWard").unwrap().has_index(1));
        assert!(!indexed.relation("PatientWard").unwrap().has_index(1));
        assert!(ontodq_relational::same_relation(
            indexed.shared_relation("UnitWard"),
            copy.shared_relation("UnitWard")
        ));
    }

    #[test]
    fn ensure_indexes_builds_and_is_idempotent() {
        let mut db = hospital_db();
        let conj = rule7_body();
        ensure_indexes(&mut db, &conj);
        assert!(db.relation("PatientWard").unwrap().has_index(0));
        assert!(db.relation("UnitWard").unwrap().has_index(1));
        // Unknown predicates and repeat calls are fine.
        let with_missing = Conjunction::positive(vec![Atom::with_vars("Nope", &["x", "x"])]);
        ensure_indexes(&mut db, &with_missing);
        ensure_indexes(&mut db, &conj);
        // Results are unchanged by the indexes.
        assert_eq!(evaluate(&db, &conj).len(), 6);
    }
}
