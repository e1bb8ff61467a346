//! Process-wide join-engine counters.
//!
//! The columnar join kernels sit far below the server's public surface, so
//! their operational counters are plain relaxed atomics (like the
//! [`crate::SymbolInterner`]'s write counter) rather than values threaded
//! through every call signature.  `ontodq-server` surfaces a
//! [`JoinCounters::snapshot`] in `!stats`; benches diff snapshots around a measured
//! region to report per-trigger costs.
//!
//! The counters are monotone totals for the whole process, incremented with
//! `Ordering::Relaxed` — they are observability data, not synchronization,
//! and the increments are hoisted to once-per-probe granularity so the hot
//! loops stay atomic-free.

use std::sync::atomic::{AtomicU64, Ordering};

/// Id-returning probes answered by [`crate::RelationInstance::select_ids_into`].
static PROBES: AtomicU64 = AtomicU64::new(0);

/// Galloping (exponential-search) steps taken while intersecting sorted
/// row-id postings lists.
static GALLOP_SEEKS: AtomicU64 = AtomicU64::new(0);

/// Value seeks performed by the worst-case-optimal (leapfrog-style) join
/// path: one per candidate-set restriction to a join value.
static WCO_SEEKS: AtomicU64 = AtomicU64::new(0);

/// Tuples materialized out of the columnar arena
/// ([`crate::RelationInstance::row_tuple`] and everything built on it) —
/// each is one `Arc<[Value]>` allocation.  The workspace forbids `unsafe`,
/// so benches cannot hook the global allocator; this counter is the
/// observable proxy for the per-probe allocations the row-oriented engine
/// used to make (`Vec<&Tuple>` per probe, a `Tuple` clone per matched
/// row), which the id-returning probe path avoids entirely.
static MATERIALIZATIONS: AtomicU64 = AtomicU64::new(0);

/// Relations deep-copied because a write reached them while another
/// [`crate::Database`] (a published snapshot, typically) still shared them —
/// the copy-on-write cost of structural sharing.  A commit should bump this
/// once per relation it writes; a jump to "every relation" means some path
/// opens relations it does not write.
static RELATION_COPIES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the join counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinCounters {
    /// Total id-returning probes.
    pub probes: u64,
    /// Total galloping intersection steps.
    pub gallop_seeks: u64,
    /// Total worst-case-optimal value seeks.
    pub wco_seeks: u64,
    /// Total tuples materialized from the arena (one allocation each).
    pub materializations: u64,
    /// Total relations deep-copied on write while shared.
    pub relation_copies: u64,
}

impl JoinCounters {
    /// The current totals.
    pub fn snapshot() -> JoinCounters {
        JoinCounters {
            probes: PROBES.load(Ordering::Relaxed),
            gallop_seeks: GALLOP_SEEKS.load(Ordering::Relaxed),
            wco_seeks: WCO_SEEKS.load(Ordering::Relaxed),
            materializations: MATERIALIZATIONS.load(Ordering::Relaxed),
            relation_copies: RELATION_COPIES.load(Ordering::Relaxed),
        }
    }

    /// Counter deltas since `earlier` (saturating, so a stale baseline
    /// never underflows).
    pub fn since(&self, earlier: &JoinCounters) -> JoinCounters {
        JoinCounters {
            probes: self.probes.saturating_sub(earlier.probes),
            gallop_seeks: self.gallop_seeks.saturating_sub(earlier.gallop_seeks),
            wco_seeks: self.wco_seeks.saturating_sub(earlier.wco_seeks),
            materializations: self
                .materializations
                .saturating_sub(earlier.materializations),
            relation_copies: self.relation_copies.saturating_sub(earlier.relation_copies),
        }
    }
}

/// Record one id-returning probe.
#[inline]
pub(crate) fn record_probe() {
    PROBES.fetch_add(1, Ordering::Relaxed);
}

/// Record `n` galloping steps taken by a postings intersection.
#[inline]
pub(crate) fn record_gallop_seeks(n: u64) {
    if n > 0 {
        GALLOP_SEEKS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Record one worst-case-optimal value seek.
#[inline]
pub fn record_wco_seek() {
    WCO_SEEKS.fetch_add(1, Ordering::Relaxed);
}

/// Record `n` tuple materializations out of the arena.
#[inline]
pub(crate) fn record_materializations(n: u64) {
    if n > 0 {
        MATERIALIZATIONS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Record one copy-on-write deep copy of a shared relation.
#[inline]
pub(crate) fn record_relation_copy() {
    RELATION_COPIES.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_diffable() {
        let before = JoinCounters::snapshot();
        record_probe();
        record_gallop_seeks(3);
        record_wco_seek();
        record_materializations(2);
        record_relation_copy();
        record_gallop_seeks(0); // no-op
        record_materializations(0); // no-op
        let after = JoinCounters::snapshot();
        let delta = after.since(&before);
        // Other tests may run concurrently, so deltas are lower bounds.
        assert!(delta.probes >= 1);
        assert!(delta.gallop_seeks >= 3);
        assert!(delta.wco_seeks >= 1);
        assert!(delta.materializations >= 2);
        assert!(delta.relation_copies >= 1);
        // A stale (larger) baseline saturates instead of wrapping.
        assert_eq!(before.since(&after), JoinCounters::default());
    }
}
