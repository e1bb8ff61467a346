//! The store: one data directory holding the WAL and per-context snapshots.
//!
//! Layout:
//!
//! ```text
//! <data-dir>/
//!   wal/wal-00000000.log     append-only segments (rotated, CRC-checked)
//!   snap/<context>.snap      latest snapshot per context (atomic rename)
//! ```
//!
//! The store is deliberately policy-free: *when* to snapshot, *what* a
//! batch means, and which contexts exist is the server's business.  The
//! store guarantees (1) an acknowledged [`Store::append_batch`] is durable,
//! (2) [`Store::recover`] returns every context's newest snapshot plus
//! exactly the committed WAL batches newer than it, after healing a torn
//! tail, and (3) [`Store::compact`] only ever deletes log data the caller
//! has just superseded with snapshots.

use crate::error::{Result, StoreError};
use crate::io::{passthrough_policy, SharedIoPolicy};
use crate::snapshot::{
    load_snapshot, save_snapshot, snapshot_path, ContextImage, PersistedContext,
};
use crate::wal::{ReplayedBatch, Wal, WalConfig, WalStats};
use ontodq_relational::Tuple;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// Store tuning.
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Write-ahead-log tuning.
    pub(crate) wal: WalConfig,
}

/// Everything [`Store::recover`] found on disk, keyed by context name.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Latest snapshot per context, if one was ever saved.
    pub snapshots: BTreeMap<String, PersistedContext>,
    /// Committed WAL batches **newer than the snapshot** (all committed
    /// batches when the context has no snapshot), in application order.
    pub tails: BTreeMap<String, Vec<ReplayedBatch>>,
    /// Whether a torn tail record was detected and truncated during replay.
    pub truncated_tail: bool,
}

impl Recovery {
    /// `true` when the directory held no durable state at all.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty() && self.tails.is_empty()
    }
}

/// A durable store rooted at one data directory.
pub struct Store {
    data_dir: PathBuf,
    wal: Wal,
    /// Fault-injection policy shared with the WAL and the snapshot writer
    /// (the production passthrough unless a harness installed a schedule).
    policy: SharedIoPolicy,
    /// Context names whose durable state [`Store::recover`] surfaced but no
    /// caller has [`Store::claim`]ed yet.  While any remain, [`Store::compact`]
    /// refuses to run — their batches live only in the log, and deleting it
    /// would destroy the very state the recovery warning told the operator
    /// was still restorable.
    unclaimed: BTreeSet<String>,
    /// Time source for the snapshot-write histogram (and, via
    /// [`Store::set_clock`], the WAL's).
    clock: ontodq_obs::SharedClock,
    /// Latency of each whole snapshot save (encode + write + fsync +
    /// rename), µs.
    snapshot_histogram: Arc<ontodq_obs::Histogram>,
}

/// Shared handles to the store's latency histograms, for adoption into an
/// [`ontodq_obs::Registry`] (the server's `!metrics` surface).
#[derive(Debug, Clone)]
pub struct StoreMetrics {
    /// WAL append-group `write(2)` latency.
    pub wal_write: Arc<ontodq_obs::Histogram>,
    /// WAL append-group fsync latency.
    pub wal_fsync: Arc<ontodq_obs::Histogram>,
    /// Whole-snapshot save latency.
    pub snapshot_write: Arc<ontodq_obs::Histogram>,
}

impl Store {
    /// Open (creating if needed) the store at `data_dir` with the
    /// production passthrough I/O policy.
    pub fn open(data_dir: impl Into<PathBuf>, config: StoreConfig) -> Result<Self> {
        Self::open_with_policy(data_dir, config, passthrough_policy())
    }

    /// [`Store::open`] with an explicit fault-injection policy (see
    /// `crate::io`): every WAL append/fsync/rotation and snapshot
    /// write/fsync/rename consults it, so a test harness can reach every
    /// durability edge deterministically.
    pub fn open_with_policy(
        data_dir: impl Into<PathBuf>,
        config: StoreConfig,
        policy: SharedIoPolicy,
    ) -> Result<Self> {
        let data_dir = data_dir.into();
        fs::create_dir_all(&data_dir)?;
        fs::create_dir_all(data_dir.join("snap"))?;
        let wal = Wal::open_with_policy(data_dir.join("wal"), config.wal, policy.clone())?;
        Ok(Self {
            data_dir,
            wal,
            policy,
            unclaimed: BTreeSet::new(),
            clock: ontodq_obs::monotonic(),
            snapshot_histogram: Arc::new(ontodq_obs::Histogram::latency()),
        })
    }

    /// Replace the time source behind the store's latency histograms
    /// (deterministic tests inject a virtual clock).
    pub fn set_clock(&mut self, clock: ontodq_obs::SharedClock) {
        self.wal.set_clock(clock.clone());
        self.clock = clock;
    }

    /// Shared handles to the WAL and snapshot latency histograms.
    pub fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            wal_write: self.wal.write_histogram(),
            wal_fsync: self.wal.fsync_histogram(),
            snapshot_write: Arc::clone(&self.snapshot_histogram),
        }
    }

    /// Mark `context`'s recovered durable state as claimed (registered by
    /// the running configuration).  A no-op for contexts with no durable
    /// state.  Once every recovered context is claimed, [`Store::compact`]
    /// is allowed again.
    pub fn claim(&mut self, context: &str) {
        self.unclaimed.remove(context);
    }

    /// Durability counters (segment count, bytes, batches appended).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Append one applied batch for `context` and fsync it; `seq` is the
    /// snapshot version the batch produced.
    pub fn append_batch(
        &mut self,
        context: &str,
        seq: u64,
        facts: &[(String, Tuple)],
    ) -> Result<()> {
        self.wal.append_batch(context, seq, facts)
    }

    /// Append one applied retraction batch for `context` and fsync it;
    /// `facts` are the expanded concrete deletions.  Shares the per-context
    /// sequence with [`Store::append_batch`], so recovery replays inserts
    /// and retractions in exactly the order they were applied.
    pub fn append_retraction(
        &mut self,
        context: &str,
        seq: u64,
        facts: &[(String, Tuple)],
    ) -> Result<()> {
        self.wal.append_retraction(context, seq, facts)
    }

    /// Fsync the active WAL segment (clean-shutdown path; appends already
    /// fsync themselves).
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Save a snapshot of one context (atomic replace of any previous
    /// one).  Takes a borrowed [`ContextImage`] so callers holding writer
    /// locks never deep-clone the instance and chase state just to encode
    /// them.
    pub fn save_snapshot(&mut self, snapshot: &ContextImage<'_>) -> Result<()> {
        let start = self.clock.now_micros();
        let result = save_snapshot(
            &snapshot_path(&self.data_dir.join("snap"), snapshot.name),
            snapshot,
            &self.policy,
        );
        self.snapshot_histogram
            .observe(self.clock.now_micros().saturating_sub(start));
        result
    }

    /// Delete every WAL segment.  **Only sound immediately after saving
    /// snapshots of every context while no writer can append** — the server
    /// calls this holding all writer locks, so every logged batch is covered
    /// by the snapshots just written.  Refused while recovered state for an
    /// unclaimed context remains (see [`Store::claim`]): its batches exist
    /// only in the log.  Returns the number of segment files removed.
    pub fn compact(&mut self) -> Result<usize> {
        if !self.unclaimed.is_empty() {
            let names: Vec<&str> = self.unclaimed.iter().map(String::as_str).collect();
            return Err(StoreError::Data(format!(
                "refusing to compact: unclaimed durable state for context(s) [{}] \
                 lives in the log; restart with the flags that register them",
                names.join(", ")
            )));
        }
        self.wal.compact()
    }

    /// Read all durable state back: load every snapshot, replay the WAL
    /// (healing a torn tail), and bucket committed batches newer than each
    /// context's snapshot version.  Batches at or below the snapshot version
    /// are already folded into the snapshot and are dropped.
    pub fn recover(&mut self) -> Result<Recovery> {
        let mut recovery = Recovery::default();
        let snap_dir = self.data_dir.join("snap");
        for entry in fs::read_dir(&snap_dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("snap") {
                continue;
            }
            let snapshot = load_snapshot(&path)?;
            recovery.snapshots.insert(snapshot.name.clone(), snapshot);
        }
        let snapshots = &recovery.snapshots;
        let tails = &mut recovery.tails;
        let report = self.wal.replay(|batch| {
            let covered = snapshots
                .get(&batch.context)
                .map(|s| batch.seq <= s.version)
                .unwrap_or(false);
            if !covered {
                tails.entry(batch.context.clone()).or_default().push(batch);
            }
        })?;
        recovery.truncated_tail = report.truncated_tail;
        self.unclaimed = recovery
            .snapshots
            .keys()
            .chain(recovery.tails.keys())
            .cloned()
            .collect();
        Ok(recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_chase::ChaseState;
    use ontodq_relational::Database;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontodq-store-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fact(values: &[&str]) -> (String, Tuple) {
        ("M".to_string(), Tuple::from_iter(values.iter().copied()))
    }

    fn save_empty_snapshot(store: &mut Store, name: &str, version: u64) {
        let instance = Database::new();
        let state = ChaseState::from_parts(Database::new(), vec![], 0);
        store
            .save_snapshot(&ContextImage {
                name,
                version,
                program_fingerprint: 0,
                instance: &instance,
                state: &state,
            })
            .unwrap();
    }

    #[test]
    fn recovery_buckets_tails_after_the_snapshot_version() {
        let dir = temp_dir("buckets");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        for seq in 1..=4u64 {
            store
                .append_batch("hospital", seq, &[fact(&["a", &seq.to_string()])])
                .unwrap();
        }
        store
            .append_batch("scaled", 1, &[fact(&["s", "1"])])
            .unwrap();
        // Snapshot hospital at version 2: batches 3 and 4 form its tail;
        // scaled has no snapshot, so its whole history is the tail.
        save_empty_snapshot(&mut store, "hospital", 2);
        drop(store);

        let mut reopened = Store::open(&dir, StoreConfig::default()).unwrap();
        let recovery = reopened.recover().unwrap();
        assert_eq!(recovery.snapshots.len(), 1);
        assert_eq!(recovery.snapshots["hospital"].version, 2);
        let hospital_tail = &recovery.tails["hospital"];
        assert_eq!(
            hospital_tail.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(recovery.tails["scaled"].len(), 1);
        assert!(!recovery.truncated_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_preserves_insert_retract_interleaving() {
        use crate::wal::BatchKind;
        let dir = temp_dir("interleave");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        store
            .append_batch("hospital", 1, &[fact(&["a", "1"])])
            .unwrap();
        store
            .append_retraction("hospital", 2, &[fact(&["a", "1"])])
            .unwrap();
        store
            .append_batch("hospital", 3, &[fact(&["b", "2"])])
            .unwrap();
        // Snapshot at version 1: the retraction and the later insert form
        // the tail, in order.
        save_empty_snapshot(&mut store, "hospital", 1);
        drop(store);

        let mut reopened = Store::open(&dir, StoreConfig::default()).unwrap();
        let recovery = reopened.recover().unwrap();
        let tail = &recovery.tails["hospital"];
        assert_eq!(
            tail.iter().map(|b| (b.seq, b.kind)).collect::<Vec<_>>(),
            vec![(2, BatchKind::Retract), (3, BatchKind::Insert)]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_after_snapshots_leaves_no_tail() {
        let dir = temp_dir("compact");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        for seq in 1..=3u64 {
            store
                .append_batch("hospital", seq, &[fact(&["a", &seq.to_string()])])
                .unwrap();
        }
        save_empty_snapshot(&mut store, "hospital", 3);
        let removed = store.compact().unwrap();
        assert_eq!(removed, 1);
        assert_eq!(store.wal_stats().segments, 0);
        // Appends after compaction land in a fresh segment and recover as
        // the tail on top of the snapshot.
        store
            .append_batch("hospital", 4, &[fact(&["b", "4"])])
            .unwrap();
        drop(store);
        let mut reopened = Store::open(&dir, StoreConfig::default()).unwrap();
        let recovery = reopened.recover().unwrap();
        assert_eq!(recovery.snapshots["hospital"].version, 3);
        assert_eq!(recovery.tails["hospital"].len(), 1);
        assert_eq!(recovery.tails["hospital"][0].seq, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Compaction must not destroy durable state recovery surfaced for a
    /// context the current run never claimed — its batches live only in
    /// the log.
    #[test]
    fn compaction_is_refused_while_recovered_state_is_unclaimed() {
        let dir = temp_dir("unclaimed");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        store
            .append_batch("hospital", 1, &[fact(&["a", "1"])])
            .unwrap();
        store
            .append_batch("scaled", 1, &[fact(&["s", "1"])])
            .unwrap();
        drop(store);

        let mut reopened = Store::open(&dir, StoreConfig::default()).unwrap();
        let _ = reopened.recover().unwrap();
        reopened.claim("hospital"); // 'scaled' stays unclaimed
        let err = reopened.compact().unwrap_err();
        assert!(err.to_string().contains("scaled"), "got {err}");
        // The log is intact; claiming the leftover context unblocks it.
        reopened.claim("scaled");
        assert_eq!(reopened.compact().unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_empty_directory_recovers_to_nothing() {
        let dir = temp_dir("empty");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        let recovery = store.recover().unwrap();
        assert!(recovery.is_empty());
        assert_eq!(store.wal_stats(), WalStats::default());
        fs::remove_dir_all(&dir).unwrap();
    }
}
