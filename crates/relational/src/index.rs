//! Hash indexes on relation instances.
//!
//! The chase and the query-answering algorithms repeatedly look up rows by
//! the value at a fixed position (e.g. "all `UnitWard` rows whose child is
//! `W1`").  A [`HashIndex`] maps a value at one position to the **row ids**
//! of the rows carrying it.  Row ids are `u32` — the currency of the
//! columnar join engine — and each postings list is sorted ascending (rows
//! are appended monotonically), so candidate sets from several indexes can
//! be combined with the galloping [`intersect_sorted`] without touching the
//! rows themselves.

use crate::counters;
use crate::fxhash::FxHashMap;
use crate::value::Value;

/// A single-attribute hash index over a relation's rows.
///
/// Postings are keyed by [`Value`] under the crate's FxHash shim
/// ([`crate::FxHashMap`]): keys are interned scalars, so both insert and probe
/// hash a handful of machine words.  Probes ([`HashIndex::lookup`]) take the
/// key by reference and return a borrowed sorted id slice — callers never
/// rebuild or clone a probe `Value`, and never allocate to ask a question.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    /// The indexed attribute position.
    position: usize,
    /// Value at `position` → sorted row ids of rows carrying that value.
    entries: FxHashMap<Value, Vec<u32>>,
}

impl HashIndex {
    /// An empty index on `position`.
    pub fn new(position: usize) -> Self {
        Self {
            position,
            entries: FxHashMap::default(),
        }
    }

    /// Build an index over an existing column (the dense value vector of
    /// the indexed position, one entry per row).
    pub fn build(position: usize, column: &[Value]) -> Self {
        let mut index = Self::new(position);
        for (row, value) in column.iter().enumerate() {
            index.insert(row as u32, value);
        }
        index
    }

    /// The indexed position.
    pub(crate) fn position(&self) -> usize {
        self.position
    }

    /// Record that `value` sits at the indexed position of row `row`.
    /// Rows must be appended in ascending id order (the relation's append
    /// path guarantees this), keeping every postings list sorted.
    pub fn insert(&mut self, row: u32, value: &Value) {
        self.entries.entry(*value).or_default().push(row);
    }

    /// Sorted row ids of rows whose indexed attribute equals `value`.
    pub fn lookup(&self, value: &Value) -> &[u32] {
        self.entries.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Remove row `row` from the postings list of `value` — the tombstone
    /// path of the arena: a deleted row must stop answering probes without
    /// a full index rebuild.  Postings are sorted, so removal is a binary
    /// search plus one shift; emptied postings lists are dropped entirely.
    /// Returns whether the row was present.
    pub(crate) fn remove(&mut self, row: u32, value: &Value) -> bool {
        let Some(ids) = self.entries.get_mut(value) else {
            return false;
        };
        let Ok(at) = ids.binary_search(&row) else {
            return false;
        };
        ids.remove(at);
        if ids.is_empty() {
            self.entries.remove(value);
        }
        true
    }

    /// Approximate heap footprint of the postings, in bytes.
    pub(crate) fn postings_bytes(&self) -> usize {
        self.entries
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<u32>())
            .sum()
    }
}

/// Clamp a sorted id slice to ids in `[lo, hi)` — a stamp window is a
/// contiguous id range, so window restriction of a postings list is two
/// binary searches.
pub(crate) fn clamp_sorted(ids: &[u32], lo: u32, hi: u32) -> &[u32] {
    let start = ids.partition_point(|&r| r < lo);
    let end = ids.partition_point(|&r| r < hi);
    &ids[start..end]
}

/// Galloping (exponential-search) intersection of two sorted id slices,
/// appended to `out`.
///
/// The search always gallops through the **longer** side for each element of
/// the shorter one, so the cost is `O(short · log(long/short))` — the regime
/// hash-join probe chains degenerate in (one huge postings list walked per
/// delta row) is exactly where this wins.  Each call records its seek count
/// in the process-wide `counters`.
pub fn intersect_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut base = 0usize;
    let mut seeks = 0u64;
    for &id in short {
        // Gallop: double the step until we overshoot, then binary search
        // the bracketed run.
        let rest = &long[base..];
        let mut step = 1usize;
        let mut bound = 0usize;
        while bound < rest.len() && rest[bound] < id {
            bound = bound * 2 + 1;
            step += 1;
        }
        seeks += step as u64;
        let hi = bound.min(rest.len());
        let lo = bound / 2;
        let offset = lo + rest[lo..hi].partition_point(|&r| r < id);
        base += offset;
        if base < long.len() && long[base] == id {
            out.push(id);
            base += 1;
        }
        if base >= long.len() {
            break;
        }
    }
    counters::record_gallop_seeks(seeks);
}

/// Is `id` contained in the sorted slice `ids`?  Binary search, counted as
/// one galloping seek.
pub(crate) fn contains_sorted(ids: &[u32], id: u32) -> bool {
    counters::record_gallop_seeks(1);
    ids.binary_search(&id).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HashIndex {
        /// Number of distinct keys in the index.
        fn distinct_keys(&self) -> usize {
            self.entries.len()
        }
    }

    fn column() -> Vec<Value> {
        // Second attribute of the classic UnitWard sample.
        vec![
            Value::str("Standard"),
            Value::str("Standard"),
            Value::str("Intensive"),
            Value::str("Terminal"),
        ]
    }

    #[test]
    fn build_and_lookup() {
        let index = HashIndex::build(1, &column());
        assert_eq!(index.lookup(&Value::str("Standard")), &[0, 1]);
        assert_eq!(index.lookup(&Value::str("Intensive")), &[2]);
        assert_eq!(index.lookup(&Value::str("Unknown")), &[] as &[u32]);
        assert_eq!(index.distinct_keys(), 3);
        assert_eq!(index.position(), 1);
    }

    #[test]
    fn incremental_insert_matches_bulk_build() {
        let col = column();
        let bulk = HashIndex::build(0, &col);
        let mut inc = HashIndex::new(0);
        for (row, v) in col.iter().enumerate() {
            inc.insert(row as u32, v);
        }
        for v in &col {
            assert_eq!(bulk.lookup(v), inc.lookup(v));
        }
    }

    #[test]
    fn postings_stay_sorted_under_append_order() {
        let mut index = HashIndex::new(0);
        for row in 0..100u32 {
            index.insert(row, &Value::int((row % 3) as i64));
        }
        for key in 0..3i64 {
            let ids = index.lookup(&Value::int(key));
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn remove_deletes_one_posting_and_drops_empty_lists() {
        let mut index = HashIndex::build(1, &column());
        assert!(index.remove(0, &Value::str("Standard")));
        assert_eq!(index.lookup(&Value::str("Standard")), &[1]);
        // Removing the same row again is a no-op.
        assert!(!index.remove(0, &Value::str("Standard")));
        // Unknown key: no-op.
        assert!(!index.remove(0, &Value::str("Oncology")));
        // Last posting of a key removes the key itself.
        assert!(index.remove(2, &Value::str("Intensive")));
        assert!(index.lookup(&Value::str("Intensive")).is_empty());
        assert_eq!(index.distinct_keys(), 2);
    }

    #[test]
    fn clamp_sorted_selects_the_window() {
        let ids = [1u32, 3, 5, 7, 9];
        assert_eq!(clamp_sorted(&ids, 0, 10), &ids);
        assert_eq!(clamp_sorted(&ids, 3, 8), &[3, 5, 7]);
        assert_eq!(clamp_sorted(&ids, 4, 5), &[] as &[u32]);
        assert_eq!(clamp_sorted(&ids, 9, 9), &[] as &[u32]);
    }

    #[test]
    fn galloping_intersection_equals_naive() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![1, 2, 3]),
            (vec![1, 2, 3], vec![]),
            (vec![1, 3, 5, 7], vec![2, 3, 4, 7, 8]),
            ((0..1000).collect(), vec![0, 500, 999, 1001]),
            (vec![5], (0..100).collect()),
            (
                (0..50).map(|i| i * 3).collect(),
                (0..50).map(|i| i * 5).collect(),
            ),
        ];
        for (a, b) in cases {
            let naive: Vec<u32> = a.iter().copied().filter(|x| b.contains(x)).collect();
            let mut fast = Vec::new();
            intersect_sorted(&a, &b, &mut fast);
            assert_eq!(fast, naive, "a={a:?} b={b:?}");
            // Symmetric.
            let mut rev = Vec::new();
            intersect_sorted(&b, &a, &mut rev);
            assert_eq!(rev, naive);
        }
    }

    #[test]
    fn contains_sorted_is_exact() {
        let ids = [2u32, 4, 6];
        assert!(contains_sorted(&ids, 4));
        assert!(!contains_sorted(&ids, 5));
        assert!(!contains_sorted(&[], 0));
    }
}
