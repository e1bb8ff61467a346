//! Relation instances: duplicate-free sets of rows over a **columnar
//! arena**, with optional per-attribute hash indexes and per-row epoch
//! stamps.
//!
//! # Columnar layout
//!
//! A [`RelationInstance`] stores one dense `Vec<Value>` per attribute
//! (`Value`s are `Copy` scalars — interned symbols, integers, labeled
//! nulls), a parallel stamp column, and a hash table mapping row content to
//! row ids for set-semantics dedup.  **Row ids (`u32`) are the currency of
//! joins**: the allocation-free [`RelationInstance::select_ids_into`]
//! answers probes with ids, values are read straight out of the columns
//! with [`RelationInstance::value_at`], and a [`crate::Tuple`]
//! (`Arc<[Value]>`) is only materialized at API edges — parsing, the wire
//! protocol, snapshots — via [`RelationInstance::row_tuple`].
//!
//! # Epoch stamps
//!
//! Stamps are the substrate of the semi-naive (delta-driven) chase in
//! `ontodq-chase`: every insert records the relation's current epoch, and
//! [`StampWindow`]-restricted selection exposes exactly the rows added after a given epoch.  Stamps are kept
//! sorted (rows are only ever appended at the current epoch), which makes a
//! stamp window a **contiguous row-id range**: window restriction of an id set is
//! two binary searches, never a filter pass.
//!
//! # Tombstones
//!
//! Retraction ([`RelationInstance::delete`]) does not move rows: the row is
//! marked dead in a liveness bitmap, its entry is removed from the dedup
//! table and from every hash-index postings list, and its arena slot stays
//! behind as a **tombstone**.  Indexed probes never see dead rows (their
//! postings are gone); scan paths filter through the bitmap.  Row ids of
//! live rows — and with them the sorted-stamp window structure — are
//! untouched, so the semi-naive delta machinery keeps working across
//! deletions, and a re-inserted tuple gets a *fresh* row id stamped at the
//! current epoch (it re-enters the delta like any new fact).  Dead slots
//! are reclaimed wholesale by [`RelationInstance::compact`].

use crate::counters;
use crate::error::Result;
use crate::fxhash::{FxHashMap, FxHasher};
use crate::index::{clamp_sorted, HashIndex};
use crate::null::NullId;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A stamp restriction on a selection: rows whose insert epoch lies in
/// `(after, up_to]` (either bound may be absent).
///
/// The semi-naive chase evaluates each rule body once per body position,
/// restricting that position's atom to the *delta* (`after = previous
/// watermark`) and the earlier positions to the *old* rows (`up_to =
/// previous watermark`), so every new trigger is discovered exactly through
/// its first delta atom.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StampWindow {
    /// Exclusive lower bound: only rows stamped strictly later match.
    pub after: Option<u64>,
    /// Inclusive upper bound: only rows stamped at or before match.
    pub up_to: Option<u64>,
}

impl StampWindow {
    /// No restriction: all rows.
    pub fn all() -> Self {
        Self::default()
    }

    /// Only rows stamped strictly after `epoch` (the delta).
    pub fn delta_after(epoch: u64) -> Self {
        Self {
            after: Some(epoch),
            up_to: None,
        }
    }

    /// Only rows stamped at or before `epoch` (the old instance).
    pub fn old_up_to(epoch: u64) -> Self {
        Self {
            after: None,
            up_to: Some(epoch),
        }
    }

    /// `true` when the window imposes no restriction.
    pub fn is_all(&self) -> bool {
        self.after.is_none() && self.up_to.is_none()
    }
}

/// Hash of one row's values, used to key the dedup table.
fn hash_row<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut hasher = FxHasher::default();
    for v in values {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

/// An instance of a relation: a duplicate-free, insertion-ordered set of
/// rows over a [`RelationSchema`], stored columnarly (see the module docs).
#[derive(Debug, Clone)]
pub struct RelationInstance {
    schema: RelationSchema,
    /// One dense value vector per attribute; all the same length.
    columns: Vec<Vec<Value>>,
    /// Number of rows (kept separately so zero-arity relations work).
    rows: u32,
    /// Insert epoch of each row, parallel to the columns and non-decreasing.
    stamps: Vec<u64>,
    /// Row-content hash → candidate row ids (set-semantics dedup without
    /// storing materialized tuples).  Holds **live** rows only: deletion
    /// removes the entry, so a tombstoned tuple can be re-inserted.
    seen: FxHashMap<u64, Vec<u32>>,
    indexes: FxHashMap<usize, HashIndex>,
    /// Liveness bitmap, parallel to the columns: `false` marks a tombstoned
    /// row.  Empty is shorthand for "all rows live" until the first delete.
    live: Vec<bool>,
    /// Number of `false` entries in `live` (dead rows awaiting compaction).
    dead: u32,
    /// Epoch stamped onto new inserts; handed over by the owning
    /// [`crate::Database`] each time it opens the relation for writing (it
    /// may be stale in between).  Invariant: `epoch >= stamps.last()`.
    epoch: u64,
}

impl RelationInstance {
    /// An empty instance over `schema`.
    pub fn new(schema: RelationSchema) -> Self {
        let arity = schema.arity();
        Self {
            schema,
            columns: vec![Vec::new(); arity],
            rows: 0,
            stamps: Vec::new(),
            seen: FxHashMap::default(),
            indexes: FxHashMap::default(),
            live: Vec::new(),
            dead: 0,
            epoch: 0,
        }
    }

    /// The instance's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Relation name (shortcut for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of **live** rows (tombstoned rows are excluded).
    pub fn len(&self) -> usize {
        (self.rows - self.dead) as usize
    }

    /// `true` when the instance holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of physical arena slots, live rows plus tombstones.  Row ids
    /// range over `0..total_rows()`.
    pub fn total_rows(&self) -> usize {
        self.rows as usize
    }

    /// Number of tombstoned rows awaiting [`RelationInstance::compact`].
    pub fn dead_rows(&self) -> usize {
        self.dead as usize
    }

    /// Is row `row` live (not tombstoned)?  Out-of-range rows are not live.
    #[inline]
    pub fn is_live(&self, row: u32) -> bool {
        row < self.rows && self.live.get(row as usize).copied().unwrap_or(true)
    }

    /// Materialize the liveness bitmap so it can be indexed per row (the
    /// empty-means-all-live shorthand is expanded on the first tombstone).
    fn ensure_live_bitmap(&mut self) {
        if self.live.is_empty() {
            self.live = vec![true; self.rows as usize];
        }
    }

    /// Iterate over the **live** rows in insertion order, materializing each
    /// as a [`Tuple`].  An API-edge convenience — join code works on row ids
    /// and columns instead.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.rows)
            .filter(move |&r| self.is_live(r))
            .map(move |r| self.row_tuple(r))
    }

    /// All live rows materialized as tuples, in insertion order.
    pub fn tuples(&self) -> Vec<Tuple> {
        self.iter().collect()
    }

    /// Materialize row `row` as a [`Tuple`].
    ///
    /// # Panics
    /// When `row >= len()`.
    pub fn row_tuple(&self, row: u32) -> Tuple {
        debug_assert!(row < self.rows);
        counters::record_materializations(1);
        Tuple::new(
            self.columns
                .iter()
                .map(|c| c[row as usize])
                .collect::<Vec<_>>(),
        )
    }

    /// The value at (`row`, `position`), read straight from the column.
    /// `None` when the position is out of range.
    #[inline]
    pub fn value_at(&self, row: u32, position: usize) -> Option<&Value> {
        self.columns.get(position).map(|c| &c[row as usize])
    }

    /// The dense value vector of `position` (one entry per row), if in
    /// range.
    pub fn column(&self, position: usize) -> Option<&[Value]> {
        self.columns.get(position).map(Vec::as_slice)
    }

    /// The stamp of the most recently inserted row, if any.
    pub(crate) fn last_stamp(&self) -> Option<u64> {
        self.stamps.last().copied()
    }

    /// The insert epochs of all rows, parallel to the columns and
    /// non-decreasing.  Persistence layers serialize these alongside the
    /// rows so a reloaded instance keeps its delta structure (a chase
    /// resumed from stored watermarks sees exactly the rows it would have
    /// seen in the original process).
    pub fn stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// Approximate heap footprint of the arena in bytes: the value columns,
    /// the stamp column, the liveness bitmap, and the index postings.
    pub fn arena_bytes(&self) -> usize {
        let values: usize = self
            .columns
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<Value>())
            .sum();
        let stamps = self.stamps.capacity() * std::mem::size_of::<u64>();
        let live = self.live.capacity() * std::mem::size_of::<bool>();
        let postings: usize = self.indexes.values().map(HashIndex::postings_bytes).sum();
        values + stamps + live + postings
    }

    /// Approximate bytes held by tombstoned rows — the arena space a
    /// [`RelationInstance::compact`] would reclaim.  Dead rows keep their
    /// column, stamp and liveness slots but no index postings (those are
    /// removed at delete time).
    pub fn reclaimable_bytes(&self) -> usize {
        if self.dead == 0 {
            return 0;
        }
        let per_row = self.columns.len() * std::mem::size_of::<Value>()
            + std::mem::size_of::<u64>()
            + std::mem::size_of::<bool>();
        self.dead as usize * per_row
    }

    /// Insert `tuple` stamped with `stamp` instead of the current epoch —
    /// the reload path of persistence layers, which must reproduce the
    /// original stamp sequence exactly.
    ///
    /// Rows must be replayed in their original (insertion) order; `stamp` is
    /// clamped up to the last stamp so the non-decreasing invariant can
    /// never break, and the instance's insert epoch absorbs the stamp.
    pub fn insert_stamped(&mut self, tuple: Tuple, stamp: u64) -> Result<bool> {
        self.schema.validate(&tuple)?;
        self.epoch = stamp.max(self.last_stamp().unwrap_or(0));
        Ok(self.insert_unchecked(tuple))
    }

    /// Set the epoch stamped onto subsequent inserts.  Clamped so that the
    /// non-decreasing stamp invariant is preserved.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch.max(self.last_stamp().unwrap_or(0));
    }

    /// The first row id stamped strictly after `epoch` (possibly `len()`).
    pub(crate) fn first_row_after(&self, epoch: u64) -> u32 {
        self.stamps.partition_point(|s| *s <= epoch) as u32
    }

    /// The contiguous row-id range selected by `window` — stamps are
    /// non-decreasing, so a stamp window is always an id range.
    pub fn window_range(&self, window: StampWindow) -> std::ops::Range<u32> {
        let lo = window.after.map(|e| self.first_row_after(e)).unwrap_or(0);
        let hi = window
            .up_to
            .map(|e| self.first_row_after(e))
            .unwrap_or(self.rows);
        lo..hi.max(lo)
    }

    /// Does the instance contain `tuple`?
    pub fn contains(&self, tuple: &Tuple) -> bool {
        if tuple.arity() != self.columns.len() {
            return false;
        }
        self.find_row(tuple.values()).is_some()
    }

    /// The row id holding exactly `values`, if present.  `values` must have
    /// the relation's arity.
    fn find_row(&self, values: &[Value]) -> Option<u32> {
        self.find_hashed(hash_row(values.iter()), values)
    }

    /// [`RelationInstance::find_row`] with the row hash already computed.
    fn find_hashed(&self, hash: u64, values: &[Value]) -> Option<u32> {
        self.seen
            .get(&hash)?
            .iter()
            .copied()
            .find(|&row| self.row_equals(row, values))
    }

    #[inline]
    fn row_equals(&self, row: u32, values: &[Value]) -> bool {
        self.columns
            .iter()
            .zip(values)
            .all(|(c, v)| c[row as usize] == *v)
    }

    /// Insert a tuple, validating it against the schema.
    ///
    /// Returns `Ok(true)` when the tuple was new, `Ok(false)` when it was
    /// already present (set semantics).
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.schema.validate(&tuple)?;
        Ok(self.insert_unchecked(tuple))
    }

    /// Insert without schema validation; used by the Datalog± layer whose
    /// predicates are untyped.  The row is stamped with the current epoch,
    /// scattered into the columns, and live hash indexes are extended in
    /// place.
    pub fn insert_unchecked(&mut self, tuple: Tuple) -> bool {
        self.insert_row(tuple.values())
    }

    /// [`RelationInstance::insert_unchecked`] without the `Tuple` wrapper:
    /// append `values` (which must have the relation's arity) as a new row
    /// unless an equal row already exists.  The chase's batch firing path
    /// stages grounded head rows as flat value slices and inserts them
    /// through here, never materializing a `Tuple`.
    pub fn insert_slice_unchecked(&mut self, values: &[Value]) -> bool {
        self.insert_row(values)
    }

    /// Append `values` as a new row unless an equal row exists.
    fn insert_row(&mut self, values: &[Value]) -> bool {
        debug_assert_eq!(values.len(), self.columns.len());
        let hash = hash_row(values.iter());
        if self.find_hashed(hash, values).is_some() {
            return false;
        }
        let row = self.rows;
        for index in self.indexes.values_mut() {
            if let Some(value) = values.get(index.position()) {
                index.insert(row, value);
            }
        }
        for (column, value) in self.columns.iter_mut().zip(values) {
            column.push(*value);
        }
        self.stamps.push(self.epoch);
        self.seen.entry(hash).or_default().push(row);
        self.rows += 1;
        // The liveness bitmap stays in its empty (implicit) form until the
        // first delete; once materialized it must track every append.
        if !self.live.is_empty() {
            self.live.push(true);
        }
        true
    }

    /// Tombstone the row holding exactly `tuple`, if live: the row is
    /// marked dead, removed from the dedup table and from every hash-index
    /// postings list, and its arena slot stays behind until
    /// [`RelationInstance::compact`].  Returns whether a row was deleted.
    ///
    /// Surviving row ids (and the sorted stamp structure) are untouched, so
    /// resumable-chase watermarks stay exact across deletions; re-inserting
    /// the same tuple later creates a fresh row at the current epoch.
    pub fn delete(&mut self, tuple: &Tuple) -> bool {
        if tuple.arity() != self.columns.len() {
            return false;
        }
        match self.find_row(tuple.values()) {
            Some(row) => self.delete_row(row),
            None => false,
        }
    }

    /// Tombstone row `row` (see [`RelationInstance::delete`]).  Returns
    /// `false` when the row is out of range or already dead.
    pub fn delete_row(&mut self, row: u32) -> bool {
        if !self.is_live(row) {
            return false;
        }
        self.ensure_live_bitmap();
        self.live[row as usize] = false;
        self.dead += 1;
        // Drop the dedup entry so the tuple can come back as a fresh row.
        let values: Vec<Value> = self.columns.iter().map(|c| c[row as usize]).collect();
        let hash = hash_row(values.iter());
        if let Some(candidates) = self.seen.get_mut(&hash) {
            candidates.retain(|&r| r != row);
            if candidates.is_empty() {
                self.seen.remove(&hash);
            }
        }
        // Remove the row from every live index's postings.
        for index in self.indexes.values_mut() {
            if let Some(value) = values.get(index.position()) {
                index.remove(row, value);
            }
        }
        true
    }

    /// Rebuild the arena without its tombstones: dead slots are dropped,
    /// surviving rows keep their stamps (ids shift down),
    /// and indexes are rebuilt.  Returns the number of slots reclaimed.
    pub fn compact(&mut self) -> usize {
        if self.dead == 0 {
            return 0;
        }
        let arity = self.columns.len();
        let old_columns = std::mem::replace(&mut self.columns, vec![Vec::new(); arity]);
        let old_stamps = std::mem::take(&mut self.stamps);
        let old_live = std::mem::take(&mut self.live);
        let old_rows = self.rows;
        self.rows = 0;
        self.dead = 0;
        self.seen.clear();
        let mut row_buf: Vec<Value> = Vec::with_capacity(arity);
        let mut reclaimed = 0;
        for row in 0..old_rows as usize {
            if !old_live.get(row).copied().unwrap_or(true) {
                reclaimed += 1;
                continue;
            }
            row_buf.clear();
            row_buf.extend(old_columns.iter().map(|c| c[row]));
            self.insert_at_stamp(&row_buf, old_stamps[row]);
        }
        self.rebuild_indexes();
        reclaimed
    }

    /// Build (or rebuild) a hash index on `position`.  Tombstoned rows are
    /// skipped: an index built after a deletion must answer probes exactly
    /// like one maintained through [`RelationInstance::delete_row`].
    pub fn build_index(&mut self, position: usize) {
        let Some(column) = self.columns.get(position) else {
            return;
        };
        let mut index = HashIndex::new(position);
        for (row, value) in column.iter().enumerate() {
            let row = row as u32;
            if row < self.rows && self.live.get(row as usize).copied().unwrap_or(true) {
                index.insert(row, value);
            }
        }
        self.indexes.insert(position, index);
    }

    /// `true` if an index exists on `position`.
    pub fn has_index(&self, position: usize) -> bool {
        self.indexes.contains_key(&position)
    }

    /// The index on `position`, if one was built.
    pub fn index(&self, position: usize) -> Option<&HashIndex> {
        self.indexes.get(&position)
    }

    /// **Allocation-free probe**: append to `out` the ids (ascending) of
    /// rows inside `window` matching all of `bindings`.
    ///
    /// Among the indexed bound positions, the two shortest postings lists
    /// are combined with a galloping intersection (further indexed
    /// positions, being already id sets, are cheaper to verify per-row);
    /// remaining bound positions are checked against the columns.  A probe
    /// never materializes a tuple and only ever writes into `out`, which
    /// callers reuse across probes.  Bindings carry values by copy
    /// (`Value` is a two-word scalar) so callers can probe from their own
    /// mutable binding state without borrow gymnastics.
    pub fn select_ids_into(
        &self,
        bindings: &[(usize, Value)],
        window: StampWindow,
        out: &mut Vec<u32>,
    ) {
        counters::record_probe();
        let range = self.window_range(window);
        if range.is_empty() {
            return;
        }
        if bindings.is_empty() {
            if self.dead == 0 {
                out.extend(range);
            } else {
                out.extend(range.filter(|&r| self.is_live(r)));
            }
            return;
        }
        // A binding position beyond the arity matches nothing (rather than
        // panicking on the column access below) — the probe is a public API
        // and the row-oriented predecessor was total over bad positions.
        if bindings.iter().any(|(pos, _)| *pos >= self.columns.len()) {
            return;
        }
        // Gather the postings of every indexed bound position, shortest
        // first.
        let mut postings: Vec<&[u32]> = Vec::with_capacity(bindings.len());
        for (pos, value) in bindings {
            if let Some(index) = self.indexes.get(pos) {
                postings.push(clamp_sorted(index.lookup(value), range.start, range.end));
            }
        }
        postings.sort_by_key(|p| p.len());
        let unindexed: Vec<&(usize, Value)> = bindings
            .iter()
            .filter(|(pos, _)| !self.indexes.contains_key(pos))
            .collect();
        let matches_rest = |row: u32| -> bool {
            unindexed
                .iter()
                .all(|(pos, value)| self.columns[*pos][row as usize] == *value)
        };
        match postings.len() {
            0 => {
                // No index available: scan the window (skipping tombstones).
                let scan = |row: u32| -> bool {
                    self.is_live(row)
                        && bindings
                            .iter()
                            .all(|(pos, value)| self.columns[*pos][row as usize] == *value)
                };
                out.extend(range.filter(|&r| scan(r)));
            }
            1 => {
                out.extend(postings[0].iter().copied().filter(|&r| matches_rest(r)));
            }
            _ => {
                // Galloping intersection of the two shortest lists; any
                // further indexed positions are verified per survivor (their
                // postings are at least as long, so a column compare beats
                // another merge).
                let before = out.len();
                crate::index::intersect_sorted(postings[0], postings[1], out);
                let verify: Vec<&[u32]> = postings[2..].to_vec();
                if !verify.is_empty() || !unindexed.is_empty() {
                    let mut write = before;
                    for i in before..out.len() {
                        let row = out[i];
                        let ok = verify.iter().all(|p| crate::index::contains_sorted(p, row))
                            && matches_rest(row);
                        if ok {
                            out[write] = row;
                            write += 1;
                        }
                    }
                    out.truncate(write);
                }
            }
        }
    }

    /// Project every row onto `positions` (duplicates removed, insertion
    /// order preserved).
    pub fn project(&self, positions: &[usize]) -> Vec<Tuple> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for row in (0..self.rows).filter(|&r| self.is_live(r)) {
            let p = Tuple::new(
                positions
                    .iter()
                    .filter_map(|&pos| self.value_at(row, pos).copied())
                    .collect(),
            );
            if seen.insert(p.clone()) {
                out.push(p);
            }
        }
        out
    }

    /// Append `values` stamped `stamp` unless already present (dedup), not
    /// touching live indexes — used only by the rebuild paths, which
    /// rebuild indexes wholesale afterwards.  Rebuilds emit live rows only,
    /// so the liveness bitmap collapses back to its implicit all-live form.
    fn insert_at_stamp(&mut self, values: &[Value], stamp: u64) -> bool {
        let hash = hash_row(values.iter());
        if self.find_hashed(hash, values).is_some() {
            return false;
        }
        let row = self.rows;
        for (column, value) in self.columns.iter_mut().zip(values) {
            column.push(*value);
        }
        self.stamps.push(stamp);
        self.seen.entry(hash).or_default().push(row);
        self.rows += 1;
        true
    }

    /// Remove rows for which `keep` returns `false`; returns how many were
    /// removed.  Indexes are rebuilt; stamps of surviving rows are
    /// preserved.
    pub fn retain(&mut self, mut keep: impl FnMut(&Tuple) -> bool) -> usize {
        let arity = self.columns.len();
        let old_columns = std::mem::replace(&mut self.columns, vec![Vec::new(); arity]);
        let old_stamps = std::mem::take(&mut self.stamps);
        let old_live = std::mem::take(&mut self.live);
        let old_rows = self.rows;
        self.rows = 0;
        self.dead = 0;
        self.seen.clear();
        let mut removed = 0;
        for row in 0..old_rows as usize {
            if !old_live.get(row).copied().unwrap_or(true) {
                continue; // tombstones are dropped silently, not "removed"
            }
            let values: Vec<Value> = old_columns.iter().map(|c| c[row]).collect();
            if keep(&Tuple::new(values.clone())) {
                self.insert_at_stamp(&values, old_stamps[row]);
            } else {
                removed += 1;
            }
        }
        self.rebuild_indexes();
        removed
    }

    /// All labeled nulls occurring in any **live** row.
    pub fn nulls(&self) -> HashSet<NullId> {
        let mut out = HashSet::new();
        for column in &self.columns {
            for (row, value) in column.iter().enumerate() {
                if let Some(n) = value.as_null() {
                    if self.is_live(row as u32) {
                        out.insert(n);
                    }
                }
            }
        }
        out
    }

    /// The largest labeled-null id occurring in any **live** row, if any —
    /// a single pass over the columns, no set is built.
    pub fn max_null_id(&self) -> Option<u64> {
        let mut max = None;
        for column in &self.columns {
            for (row, value) in column.iter().enumerate() {
                if let Some(n) = value.as_null() {
                    if self.is_live(row as u32) {
                        max = max.max(Some(n.id()));
                    }
                }
            }
        }
        max
    }

    /// All constant values occurring in any **live** row.
    pub fn constants(&self) -> HashSet<Value> {
        let mut out = HashSet::new();
        for column in &self.columns {
            for (row, value) in column.iter().enumerate() {
                if value.is_constant() && self.is_live(row as u32) {
                    out.insert(*value);
                }
            }
        }
        out
    }

    fn rebuild_indexes(&mut self) {
        let positions: Vec<usize> = self.indexes.keys().copied().collect();
        for pos in positions {
            self.build_index(pos);
        }
    }
}

impl fmt::Display for RelationInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in self.iter() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RelationInstance {
        /// Rows matching all of `bindings`, materialized as tuples.
        fn probe(&self, bindings: &[(usize, &Value)]) -> Vec<Tuple> {
            self.probe_window(bindings, StampWindow::all())
        }

        /// [`RelationInstance::select_ids_into`] over `window`, materialized.
        fn probe_window(&self, bindings: &[(usize, &Value)], window: StampWindow) -> Vec<Tuple> {
            let owned: Vec<(usize, Value)> = bindings.iter().map(|(p, v)| (*p, **v)).collect();
            let mut ids = Vec::new();
            self.select_ids_into(&owned, window, &mut ids);
            ids.into_iter().map(|r| self.row_tuple(r)).collect()
        }

        /// The live rows inserted strictly after `epoch`, materialized in
        /// insertion order: the oracle the stamp tests compare against.
        pub(crate) fn delta_since(&self, epoch: u64) -> Vec<Tuple> {
            (self.first_row_after(epoch)..self.rows)
                .filter(|&r| self.is_live(r))
                .map(|r| self.row_tuple(r))
                .collect()
        }
    }
    use crate::schema::{Attribute, AttributeType};

    fn ward_schema() -> RelationSchema {
        RelationSchema::new(
            "UnitWard",
            vec![Attribute::string("Unit"), Attribute::string("Ward")],
        )
    }

    fn sample() -> RelationInstance {
        let mut r = RelationInstance::new(ward_schema());
        r.insert(Tuple::from_iter(["Standard", "W1"])).unwrap();
        r.insert(Tuple::from_iter(["Standard", "W2"])).unwrap();
        r.insert(Tuple::from_iter(["Intensive", "W3"])).unwrap();
        r.insert(Tuple::from_iter(["Terminal", "W4"])).unwrap();
        r
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = sample();
        assert_eq!(r.len(), 4);
        let added = r.insert(Tuple::from_iter(["Standard", "W1"])).unwrap();
        assert!(!added);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn insert_validates_schema() {
        let mut r = RelationInstance::new(RelationSchema::new(
            "R",
            vec![Attribute::new("n", AttributeType::Integer)],
        ));
        assert!(r.insert(Tuple::from_iter(["oops"])).is_err());
        assert!(r.insert(Tuple::from_iter([3i64])).is_ok());
    }

    #[test]
    fn columns_hold_the_rows_columnarly() {
        let r = sample();
        let units = r.column(0).unwrap();
        assert_eq!(units.len(), 4);
        assert_eq!(units[0], Value::str("Standard"));
        assert_eq!(units[2], Value::str("Intensive"));
        assert_eq!(r.value_at(3, 1), Some(&Value::str("W4")));
        assert_eq!(r.value_at(3, 9), None);
        assert!(r.column(2).is_none());
        assert_eq!(r.row_tuple(1), Tuple::from_iter(["Standard", "W2"]));
        assert!(r.arena_bytes() > 0);
    }

    #[test]
    fn select_without_index_scans() {
        let r = sample();
        let hits = r.probe(&[(0, &Value::str("Standard"))]);
        assert_eq!(hits.len(), 2);
        let none = r.probe(&[(0, &Value::str("Oncology"))]);
        assert!(none.is_empty());
    }

    #[test]
    fn select_with_index_matches_scan() {
        let mut r = sample();
        let scan: Vec<Tuple> = r.probe(&[(0, &Value::str("Standard"))]);
        r.build_index(0);
        assert!(r.has_index(0));
        let indexed: Vec<Tuple> = r.probe(&[(0, &Value::str("Standard"))]);
        assert_eq!(scan, indexed);
    }

    #[test]
    fn select_with_multiple_bindings() {
        let r = sample();
        let hits = r.probe(&[(0, &Value::str("Standard")), (1, &Value::str("W2"))]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0], Tuple::from_iter(["Standard", "W2"]));
    }

    #[test]
    fn select_with_two_indexes_gallops() {
        // A distinct payload column keeps every row alive through dedup so
        // the intersection actually has work to do.
        let mut r = RelationInstance::new(RelationSchema::untyped("R", 3));
        for i in 0..200i64 {
            r.insert(Tuple::new(vec![
                Value::int(i % 2),
                Value::int(i % 3),
                Value::int(i),
            ]))
            .unwrap();
        }
        let scan = r.probe(&[(0, &Value::int(0)), (1, &Value::int(0))]);
        r.build_index(0);
        r.build_index(1);
        let indexed = r.probe(&[(0, &Value::int(0)), (1, &Value::int(0))]);
        assert_eq!(scan, indexed);
        assert_eq!(indexed.len(), 200 / 6 + 1); // i ≡ 0 (mod 6)
    }

    #[test]
    fn select_ids_are_ascending_and_reusable() {
        let mut r = sample();
        r.build_index(0);
        let mut ids = vec![99u32; 4]; // pre-polluted scratch
        ids.clear();
        r.select_ids_into(&[(0, Value::str("Standard"))], StampWindow::all(), &mut ids);
        assert_eq!(ids, vec![0, 1]);
        ids.clear();
        r.select_ids_into(&[], StampWindow::all(), &mut ids);
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn select_empty_bindings_returns_all() {
        let r = sample();
        assert_eq!(r.probe(&[]).len(), 4);
    }

    #[test]
    fn select_out_of_range_position_matches_nothing() {
        // A binding position beyond the arity must return no rows (the
        // row-oriented predecessor's behavior), not panic on the column
        // access — on both the scan path and the indexed path.
        let mut r = sample();
        assert!(r.probe(&[(7, &Value::str("Standard"))]).is_empty());
        assert!(r
            .probe(&[(0, &Value::str("Standard")), (7, &Value::str("W1"))])
            .is_empty());
        r.build_index(0);
        let mut ids = vec![99u32];
        ids.clear();
        r.select_ids_into(
            &[(0, Value::str("Standard")), (7, Value::str("W1"))],
            StampWindow::all(),
            &mut ids,
        );
        assert!(ids.is_empty());
    }

    #[test]
    fn project_removes_duplicates() {
        let r = sample();
        let units = r.project(&[0]);
        assert_eq!(units.len(), 3);
        assert!(units.contains(&Tuple::from_iter(["Standard"])));
    }

    #[test]
    fn retain_removes_and_reports() {
        let mut r = sample();
        r.build_index(1);
        let removed = r.retain(|t| t.get(0) != Some(&Value::str("Intensive")));
        assert_eq!(removed, 1);
        assert_eq!(r.len(), 3);
        assert!(r.probe(&[(1, &Value::str("W3"))]).is_empty());
    }

    #[test]
    fn nulls_and_constants_views() {
        let mut r = RelationInstance::new(ward_schema());
        r.insert(Tuple::new(vec![Value::null(NullId(5)), Value::str("W9")]))
            .unwrap();
        assert_eq!(r.nulls().len(), 1);
        assert!(r.nulls().contains(&NullId(5)));
        assert_eq!(r.constants().len(), 1);
        assert!(r.constants().contains(&Value::str("W9")));
    }

    #[test]
    fn display_contains_schema_and_rows() {
        let r = sample();
        let rendered = r.to_string();
        assert!(rendered.contains("UnitWard"));
        assert!(rendered.contains("(Standard, W1)"));
    }

    #[test]
    fn zero_arity_relations_hold_at_most_one_row() {
        let mut r = RelationInstance::new(RelationSchema::untyped("Seed", 0));
        assert!(r.insert(Tuple::new(vec![])).unwrap());
        assert!(!r.insert(Tuple::new(vec![])).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Tuple::new(vec![])));
        let mut ids = Vec::new();
        r.select_ids_into(&[], StampWindow::all(), &mut ids);
        assert_eq!(ids, vec![0]);
        assert_eq!(r.tuples(), vec![Tuple::new(vec![])]);
    }

    // ------------------------------------------------------------------
    // Epoch stamping and delta tracking.
    // ------------------------------------------------------------------

    #[test]
    fn delta_since_sees_only_later_epochs() {
        let mut r = RelationInstance::new(ward_schema());
        r.insert(Tuple::from_iter(["Standard", "W1"])).unwrap();
        r.set_epoch(1);
        r.insert(Tuple::from_iter(["Standard", "W2"])).unwrap();
        r.set_epoch(2);
        r.insert(Tuple::from_iter(["Intensive", "W3"])).unwrap();

        assert_eq!(r.delta_since(0).len(), 2);
        assert_eq!(
            r.delta_since(1),
            vec![Tuple::from_iter(["Intensive", "W3"])]
        );
        assert!(r.delta_since(2).is_empty());
        // Nothing can be stamped after the maximum epoch.
        assert!(r.delta_since(u64::MAX).is_empty());
    }

    #[test]
    fn window_range_is_contiguous_ids() {
        let mut r = RelationInstance::new(ward_schema());
        r.insert(Tuple::from_iter(["Standard", "W1"])).unwrap();
        r.set_epoch(1);
        r.insert(Tuple::from_iter(["Standard", "W2"])).unwrap();
        r.insert(Tuple::from_iter(["Intensive", "W3"])).unwrap();
        assert_eq!(r.window_range(StampWindow::all()), 0..3);
        assert_eq!(r.window_range(StampWindow::old_up_to(0)), 0..1);
        assert_eq!(r.window_range(StampWindow::delta_after(0)), 1..3);
        assert_eq!(r.window_range(StampWindow::delta_after(5)), 3..3);
    }

    #[test]
    fn select_window_splits_old_and_delta() {
        let mut r = RelationInstance::new(ward_schema());
        r.insert(Tuple::from_iter(["Standard", "W1"])).unwrap();
        r.set_epoch(1);
        r.insert(Tuple::from_iter(["Standard", "W2"])).unwrap();
        r.build_index(0);

        let probe = Value::str("Standard");
        let binding = [(0usize, &probe)];
        let old = r.probe_window(&binding, StampWindow::old_up_to(0));
        assert_eq!(old, vec![Tuple::from_iter(["Standard", "W1"])]);
        let delta = r.probe_window(&binding, StampWindow::delta_after(0));
        assert_eq!(delta, vec![Tuple::from_iter(["Standard", "W2"])]);
        let all = r.probe_window(&binding, StampWindow::all());
        assert_eq!(all.len(), 2);
    }

    /// Replaying rows through `insert_stamped` must reproduce the original
    /// stamp sequence exactly, so delta queries behave identically after a
    /// reload.
    #[test]
    fn insert_stamped_round_trips_the_stamp_sequence() {
        let mut original = RelationInstance::new(ward_schema());
        original
            .insert(Tuple::from_iter(["Standard", "W1"]))
            .unwrap();
        original.set_epoch(3);
        original
            .insert(Tuple::from_iter(["Standard", "W2"]))
            .unwrap();
        original.set_epoch(7);
        original
            .insert(Tuple::from_iter(["Intensive", "W3"]))
            .unwrap();

        let mut reloaded = RelationInstance::new(original.schema().clone());
        for (tuple, stamp) in original.iter().zip(original.stamps().iter().copied()) {
            assert!(reloaded.insert_stamped(tuple, stamp).unwrap());
        }
        assert_eq!(reloaded.tuples(), original.tuples());
        assert_eq!(reloaded.stamps(), original.stamps());
        assert_eq!(reloaded.delta_since(3).len(), original.delta_since(3).len());
        // A regressing stamp is clamped, not a panic and not a broken sort.
        let mut clamped = RelationInstance::new(ward_schema());
        clamped
            .insert_stamped(Tuple::from_iter(["A", "W1"]), 5)
            .unwrap();
        clamped
            .insert_stamped(Tuple::from_iter(["B", "W2"]), 2)
            .unwrap();
        assert_eq!(clamped.stamps(), &[5, 5]);
    }

    // ------------------------------------------------------------------
    // Tombstones.
    // ------------------------------------------------------------------

    #[test]
    fn delete_tombstones_and_reinsert_gets_fresh_row() {
        let mut r = sample();
        r.set_epoch(3);
        assert!(r.delete(&Tuple::from_iter(["Standard", "W1"])));
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_rows(), 4);
        assert_eq!(r.dead_rows(), 1);
        assert!(!r.contains(&Tuple::from_iter(["Standard", "W1"])));
        assert!(!r.is_live(0));
        // Deleting again is a no-op.
        assert!(!r.delete(&Tuple::from_iter(["Standard", "W1"])));
        // Re-insert: fresh row at the current epoch, re-entering the delta.
        assert!(r.insert(Tuple::from_iter(["Standard", "W1"])).unwrap());
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_rows(), 5);
        assert_eq!(r.delta_since(2), vec![Tuple::from_iter(["Standard", "W1"])]);
    }

    #[test]
    fn delete_removes_index_postings_and_scan_agrees() {
        let mut r = sample();
        r.build_index(0);
        r.delete(&Tuple::from_iter(["Standard", "W1"]));
        let indexed = r.probe(&[(0, &Value::str("Standard"))]);
        assert_eq!(indexed, vec![Tuple::from_iter(["Standard", "W2"])]);
        // Unindexed path (scan) must agree.
        let scanned = r.probe(&[(1, &Value::str("W1"))]);
        assert!(scanned.is_empty());
        // Empty-bindings select skips the tombstone too.
        assert_eq!(r.probe(&[]).len(), 3);
        assert_eq!(r.iter().count(), 3);
    }

    /// Regression: an index built *after* a deletion must not resurrect
    /// the dead row — `HashIndex::build` over the raw column used to leak
    /// tombstoned rows into join probes (the chase builds join indexes
    /// lazily, so a fresh chase over a database with tombstones derived
    /// consequences of deleted facts).
    #[test]
    fn index_built_after_delete_skips_tombstoned_rows() {
        let mut r = sample();
        r.delete(&Tuple::from_iter(["Standard", "W1"]));
        r.build_index(0);
        let indexed = r.probe(&[(0, &Value::str("Standard"))]);
        assert_eq!(indexed, vec![Tuple::from_iter(["Standard", "W2"])]);
        assert_eq!(r.index(0).unwrap().lookup(&Value::str("Standard")).len(), 1);
    }

    #[test]
    fn compact_reclaims_dead_slots_preserving_stamps_and_supports() {
        let mut r = sample();
        r.set_epoch(2);
        r.insert(Tuple::from_iter(["Oncology", "W5"])).unwrap();
        assert!(!r.insert(Tuple::from_iter(["Standard", "W2"])).unwrap()); // duplicate
        r.build_index(0);
        r.delete(&Tuple::from_iter(["Standard", "W1"]));
        r.delete(&Tuple::from_iter(["Terminal", "W4"]));
        assert!(r.reclaimable_bytes() > 0);
        let reclaimed = r.compact();
        assert_eq!(reclaimed, 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_rows(), 3);
        assert_eq!(r.dead_rows(), 0);
        assert_eq!(r.reclaimable_bytes(), 0);
        // Stamps of survivors preserved (still sorted).
        assert_eq!(r.stamps(), &[0, 0, 2]);
        // Index rebuilt consistently.
        assert_eq!(r.probe(&[(0, &Value::str("Standard"))]).len(), 1);
        assert!(r.probe(&[(0, &Value::str("Terminal"))]).is_empty());
    }

    #[test]
    fn retain_skips_tombstones() {
        let mut r = sample();
        r.delete(&Tuple::from_iter(["Standard", "W1"]));
        let removed = r.retain(|t| t.get(0) != Some(&Value::str("Intensive")));
        assert_eq!(removed, 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.total_rows(), 2);
        assert!(!r.contains(&Tuple::from_iter(["Standard", "W1"])));
    }

    #[test]
    fn nulls_and_constants_skip_dead_rows() {
        let mut r = RelationInstance::new(ward_schema());
        r.insert(Tuple::new(vec![Value::null(NullId(5)), Value::str("W9")]))
            .unwrap();
        r.insert(Tuple::from_iter(["Standard", "W1"])).unwrap();
        r.delete(&Tuple::new(vec![Value::null(NullId(5)), Value::str("W9")]));
        assert!(r.nulls().is_empty());
        assert!(!r.constants().contains(&Value::str("W9")));
        assert!(r.constants().contains(&Value::str("W1")));
    }

    #[test]
    fn delta_since_skips_dead_rows() {
        let mut r = RelationInstance::new(ward_schema());
        r.insert(Tuple::from_iter(["Standard", "W1"])).unwrap();
        r.set_epoch(1);
        r.insert(Tuple::from_iter(["Standard", "W2"])).unwrap();
        r.insert(Tuple::from_iter(["Intensive", "W3"])).unwrap();
        r.delete(&Tuple::from_iter(["Standard", "W2"]));
        assert_eq!(
            r.delta_since(0),
            vec![Tuple::from_iter(["Intensive", "W3"])]
        );
    }

    #[test]
    fn set_epoch_never_regresses_below_last_stamp() {
        let mut r = RelationInstance::new(ward_schema());
        r.set_epoch(7);
        r.insert(Tuple::from_iter(["Standard", "W1"])).unwrap();
        r.set_epoch(3); // clamped to 7
        assert_eq!(r.epoch, 7);
        r.insert(Tuple::from_iter(["Standard", "W2"])).unwrap();
        assert_eq!(r.last_stamp(), Some(7));
        assert!(r.delta_since(6).len() == 2);
    }
}
