//! The concurrent quality-assessment service.

use crate::cache::{CacheStats, QueryCache, QueryKind};
use crate::error::ServiceError;
use crate::pool::WorkerPool;
use crate::snapshot::Snapshot;
use ontodq_core::{Context, ResumableAssessment};
use ontodq_obs::{Counter, Histogram, Registry, SharedClock, SpanLog, SpanRecord};
use ontodq_qa::AnswerSet;
use ontodq_relational::{Database, JoinCounters, Tuple};
use ontodq_store::{BatchKind, ContextImage, Recovery, Store, WalStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// One registered context: an immutable snapshot slot for readers and a
/// serialized writer state.
struct ContextEntry {
    /// The context definition (immutable after registration; used for
    /// quality rewriting).
    context: Context,
    /// The compiled Datalog± program (immutable after registration; shared
    /// into every snapshot for the demand-driven path).
    program: Arc<ontodq_datalog::Program>,
    /// The current snapshot.  Readers hold this lock only long enough to
    /// clone the `Arc`; the writer only to swap it.  All query evaluation
    /// happens on the immutable snapshot outside any lock.
    snapshot: RwLock<Arc<Snapshot>>,
    /// The resumable chase state.  One writer at a time per context; readers
    /// never touch it.
    writer: Mutex<ResumableAssessment>,
    /// The static-analysis report of the compiled program (immutable after
    /// registration, like the program itself) — what `!check` prints and
    /// what the lint gauges sample, without touching the writer lock.
    lint: ontodq_datalog::LintReport,
}

impl ContextEntry {
    fn snapshot(&self) -> Arc<Snapshot> {
        // A poisoned slot only means a writer panicked somewhere between
        // building a snapshot and swapping it; the stored Arc is always a
        // complete snapshot (the swap is a single assignment), so readers
        // recover the value instead of propagating the panic.
        self.snapshot
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }
}

/// The service's write-availability state — see
/// [`QualityService::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Updates and queries are both served.
    Healthy,
    /// A durability failure poisoned the write path: queries are still
    /// served from the last good in-memory snapshots, updates are refused
    /// with [`ServiceError::Degraded`] until a recovery probe succeeds.
    Degraded,
    /// A recovery probe (snapshot-all + WAL compaction) is in flight;
    /// writes are refused until it resolves one way or the other.
    Recovering,
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Recovering => "recovering",
        })
    }
}

/// Point-in-time health of the service (`!health`).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Current state.
    pub state: Health,
    /// Why the service degraded (`None` when healthy).
    pub(crate) reason: Option<String>,
    /// Writes refused while degraded/recovering, process lifetime.
    pub(crate) refused_writes: u64,
    /// Recovery probes attempted, process lifetime.
    pub(crate) probes: u64,
}

/// Mutable health-machine state behind the service's health lock.
struct HealthState {
    state: Health,
    reason: Option<String>,
    /// When the last failure or probe happened, on the service clock — the
    /// backoff reference point (a reading of [`QualityService`]'s injected
    /// clock, so record/replay tests control the backoff deterministically).
    last_probe_micros: Option<u64>,
    /// Minimum spacing between recovery probes; writes arriving inside the
    /// window are refused without re-touching the store.
    probe_interval: Duration,
    refused_writes: u64,
    probes: u64,
}

impl HealthState {
    fn new() -> Self {
        Self {
            state: Health::Healthy,
            reason: None,
            last_probe_micros: None,
            probe_interval: Duration::from_secs(2),
            refused_writes: 0,
            probes: 0,
        }
    }

    fn degraded_reason(&self) -> String {
        self.reason
            .clone()
            .unwrap_or_else(|| "durability failure".to_string())
    }
}

/// What an applied update batch did.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// The snapshot version the batch produced.
    pub version: u64,
    /// Genuinely new extensional tuples in the batch (duplicates ignored).
    pub new_facts: usize,
    /// Tuples derived by the incremental re-chase.
    pub derived: usize,
    /// EGD/constraint violations observed by this step.
    pub(crate) violations: usize,
    /// Wall-clock time of the incremental re-chase + snapshot swap.
    pub elapsed: Duration,
}

/// What an applied retraction batch did (delete-and-rederive).
#[derive(Debug, Clone)]
pub struct RetractReport {
    /// The snapshot version the retraction produced.
    pub version: u64,
    /// Concrete facts the batch asked to retract (after conditional-delete
    /// expansion; requests for absent facts are counted here too).
    pub requested: usize,
    /// Extensional facts actually removed from the base.
    pub retracted: usize,
    /// Derived tuples condemned by the cascade.
    pub cascaded: usize,
    /// Tuples re-derived from surviving supports.
    pub rederived: usize,
    /// Wall-clock time of expansion + DRed + snapshot swap.
    pub(crate) elapsed: Duration,
}

/// Process-lifetime retraction counters, surfaced by `!stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetractionCounters {
    /// Concrete retraction requests applied (expanded conditional deletes
    /// included).
    pub retractions: u64,
    /// Derived tuples condemned by DRed cascades.
    pub(crate) cascaded_deletes: u64,
    /// Tuples re-derived from alternative supports after cascades.
    pub(crate) rederived: u64,
}

/// The answers to one query, with the snapshot version they came from.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The snapshot version the answers are valid for.
    pub version: u64,
    /// The certain answers.
    pub answers: Arc<AnswerSet>,
    /// Whether the answers came from the prepared-query cache.
    pub cached: bool,
}

/// How one context came back at startup — see
/// [`QualityService::register_recovered`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverySummary {
    /// Whether a snapshot was loaded (restart skipped the initial chase).
    pub restored_from_snapshot: bool,
    /// WAL-tail batches replayed through the incremental path.
    pub replayed_batches: usize,
    /// The snapshot version published after recovery.
    pub version: u64,
}

/// What [`QualityService::persist_all`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistReport {
    /// Contexts snapshotted.
    pub contexts: usize,
    /// WAL segment files deleted by the post-snapshot compaction.
    pub(crate) segments_removed: usize,
}

/// A concurrent, snapshot-isolated quality-assessment service.
///
/// Each registered context keeps its fully-chased instance as an immutable
/// [`Snapshot`] behind an `Arc`.  Reads clone the `Arc` and evaluate with no
/// further synchronization; writes go through a per-context writer lock,
/// fold the batch in with an **incremental re-chase**
/// ([`ontodq_core::ResumableAssessment`], resuming from the stored epoch
/// watermarks instead of re-chasing from scratch) and atomically swap the
/// snapshot.  Readers therefore never observe a half-applied batch, and a
/// long chase never blocks queries — they keep hitting the previous
/// snapshot until the swap.
///
/// A shared [`QueryCache`] memoizes parsed/rewritten queries per
/// `(context, query)` and their answers per snapshot version, so repeated
/// queries between updates cost a map lookup.
pub struct QualityService {
    contexts: RwLock<BTreeMap<String, Arc<ContextEntry>>>,
    cache: QueryCache,
    /// The durable store, when the server was started with `--data-dir`.
    /// Lock order everywhere: context map (read) → writer lock(s) in name
    /// order → store — `insert_facts` takes one writer then the store,
    /// `persist_all` takes every writer then the store, so the order is
    /// consistent and deadlock-free.
    store: Option<Arc<Mutex<Store>>>,
    /// The service-wide metric registry (`!metrics`): every layer's
    /// counters, gauges and latency histograms, adopted or created here.
    /// Per-service (not process-global) so concurrently running services
    /// — notably parallel tests — never share counters.
    registry: Registry,
    /// The clock every service-side duration is measured on.  Monotonic in
    /// production; a virtual clock under record/replay tests, which makes
    /// the `micros=` response fields deterministic.
    clock: SharedClock,
    /// Process-lifetime retraction counters (`!stats`): requests applied,
    /// cascade condemnations, re-derivations.  Recovery replay counts too —
    /// the counters describe work this process performed.  Registered in
    /// `registry`, read by `retraction_stats`.
    retractions: Arc<Counter>,
    cascaded_deletes: Arc<Counter>,
    rederived: Arc<Counter>,
    /// Apply-path latency histograms (insert / retract batches) and the
    /// DRed phase breakdown (cascade / delete / re-derive).
    insert_micros: Arc<Histogram>,
    retract_micros: Arc<Histogram>,
    dred_cascade_micros: Arc<Histogram>,
    dred_delete_micros: Arc<Histogram>,
    dred_rederive_micros: Arc<Histogram>,
    /// The slow-query ring (`!slow`): queries over the threshold, newest
    /// last, bounded so an unattended server cannot grow it.
    slow_log: SpanLog,
    /// Slow-query threshold in microseconds; 0 disables the log.
    slow_threshold_micros: AtomicU64,
    slow_queries_total: Arc<Counter>,
    /// Chase runs (initial chase or batch resume) executed for a context
    /// whose program carries no termination certificate.
    chase_uncertified: Arc<Counter>,
    /// The health state machine: `Healthy → Degraded (read-only) →
    /// Recovering → Healthy|Degraded`.  Store-wide, because a poisoned WAL
    /// refuses appends for every context.
    health: Mutex<HealthState>,
}

impl QualityService {
    /// An empty, in-memory-only service (no durability), timed on the
    /// monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(ontodq_obs::monotonic())
    }

    /// An empty, in-memory-only service timed on `clock` — the seam
    /// record/replay tests use to freeze every `micros=` response field.
    pub fn with_clock(clock: SharedClock) -> Self {
        let registry = Registry::new();
        let cache = QueryCache::new();
        cache.register_into(&registry);
        let retractions = registry.counter(
            "ontodq_retractions_total",
            "Concrete retraction requests applied (expanded conditional deletes included).",
            &[],
        );
        let cascaded_deletes = registry.counter(
            "ontodq_cascaded_deletes_total",
            "Derived tuples condemned by DRed cascades.",
            &[],
        );
        let rederived = registry.counter(
            "ontodq_rederived_total",
            "Tuples re-derived from alternative supports after cascades.",
            &[],
        );
        let insert_micros = registry.histogram(
            "ontodq_apply_micros",
            "Apply-path latency of one batch (incremental re-chase + snapshot swap).",
            &[("op", "insert")],
        );
        let retract_micros = registry.histogram(
            "ontodq_apply_micros",
            "Apply-path latency of one batch (incremental re-chase + snapshot swap).",
            &[("op", "retract")],
        );
        let dred_cascade_micros = registry.histogram(
            "ontodq_dred_phase_micros",
            "Delete-and-rederive phase latency per retraction batch.",
            &[("phase", "cascade")],
        );
        let dred_delete_micros = registry.histogram(
            "ontodq_dred_phase_micros",
            "Delete-and-rederive phase latency per retraction batch.",
            &[("phase", "delete")],
        );
        let dred_rederive_micros = registry.histogram(
            "ontodq_dred_phase_micros",
            "Delete-and-rederive phase latency per retraction batch.",
            &[("phase", "rederive")],
        );
        let slow_queries_total = registry.counter(
            "ontodq_slow_queries_total",
            "Queries whose end-to-end latency crossed --slow-query-micros.",
            &[],
        );
        let chase_uncertified = registry.counter(
            "ontodq_chase_uncertified_total",
            "Chase runs executed without a termination certificate (program not weakly acyclic).",
            &[],
        );
        Self {
            contexts: RwLock::new(BTreeMap::new()),
            cache,
            store: None,
            registry,
            clock,
            retractions,
            cascaded_deletes,
            rederived,
            insert_micros,
            retract_micros,
            dred_cascade_micros,
            dred_delete_micros,
            dred_rederive_micros,
            slow_log: SpanLog::new(128),
            slow_threshold_micros: AtomicU64::new(0),
            slow_queries_total,
            chase_uncertified,
            health: Mutex::new(HealthState::new()),
        }
    }

    /// Locked access to the context map for readers; a map poisoned by a
    /// panicking registration is still structurally valid (entries are
    /// inserted fully built), so recover the guard instead of cascading
    /// the panic into every session.
    fn read_contexts(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<ContextEntry>>> {
        self.contexts
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write_contexts(
        &self,
    ) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<ContextEntry>>> {
        self.contexts
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The health lock never protects data a panic could half-update (all
    /// fields are plain scalars assigned atomically), so recover it.
    fn lock_health(&self) -> std::sync::MutexGuard<'_, HealthState> {
        self.health
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// An empty service whose applied batches are appended to `store`'s
    /// write-ahead log and whose contexts can be snapshotted with
    /// [`QualityService::persist_all`].
    pub fn with_store(store: Arc<Mutex<Store>>) -> Self {
        Self::with_store_and_clock(store, ontodq_obs::monotonic())
    }

    /// [`QualityService::with_store`] timed on `clock`: the store's
    /// durability clock is re-seated onto the same seam and its WAL/snapshot
    /// histograms are adopted into the service registry, so one `!metrics`
    /// scrape covers the storage layer too.
    pub fn with_store_and_clock(store: Arc<Mutex<Store>>, clock: SharedClock) -> Self {
        let service = Self::with_clock(Arc::clone(&clock));
        {
            // Counter adoption only — a freshly opened store's lock cannot
            // be poisoned, and a poisoned one is recovered like everywhere
            // else (the metrics handles are plain Arcs).
            let mut guard = store
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.set_clock(clock);
            let metrics = guard.metrics();
            service.registry.adopt_histogram(
                "ontodq_wal_write_micros",
                "WAL record-group write latency (buffer to kernel).",
                &[],
                metrics.wal_write,
            );
            service.registry.adopt_histogram(
                "ontodq_wal_fsync_micros",
                "WAL fsync latency per acked append.",
                &[],
                metrics.wal_fsync,
            );
            service.registry.adopt_histogram(
                "ontodq_snapshot_write_micros",
                "Context snapshot write latency (serialize + temp + rename).",
                &[],
                metrics.snapshot_write,
            );
        }
        Self {
            store: Some(store),
            ..service
        }
    }

    /// `true` when a durable store is attached.
    pub(crate) fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Durability counters of the attached store (`None` without one).
    /// Counters are plain scalars, so a store lock poisoned by a panicked
    /// writer is recovered for this read-only peek.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.store.as_ref().map(|store| {
            store
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .wal_stats()
        })
    }

    /// Fsync the store's active WAL segment, best-effort — the
    /// clean-shutdown path (appends already fsync themselves, so this only
    /// matters for durability of the final group on exotic filesystems).
    /// Failures here are logged and swallowed: the session is exiting and
    /// has nobody to report to, and every acked batch already fsynced.
    pub fn sync_store(&self) {
        if let Some(store) = &self.store {
            match store.lock() {
                Ok(mut store) => {
                    if let Err(e) = store.sync() {
                        eprintln!("wal sync failed: {e}");
                    }
                }
                Err(_) => eprintln!("wal sync skipped: store lock poisoned"),
            }
        }
    }

    /// The current health of the service — see [`Health`].
    pub fn health(&self) -> HealthReport {
        let h = self.lock_health();
        HealthReport {
            state: h.state,
            reason: h.reason.clone(),
            refused_writes: h.refused_writes,
            probes: h.probes,
        }
    }

    /// Set the minimum spacing between recovery probes (default 2s).
    /// Tests set `Duration::ZERO` so the first write after a fault clears
    /// probes immediately.
    pub fn set_probe_interval(&self, interval: Duration) {
        self.lock_health().probe_interval = interval;
    }

    /// Enter read-only degradation, remembering why.  The backoff clock
    /// restarts so the next write inside the probe window is refused
    /// without touching the store again.
    fn degrade(&self, reason: &str) {
        let now = self.clock.now_micros();
        let mut h = self.lock_health();
        h.state = Health::Degraded;
        h.reason = Some(reason.to_string());
        h.last_probe_micros = Some(now);
    }

    fn mark_healthy(&self) {
        let mut h = self.lock_health();
        h.state = Health::Healthy;
        h.reason = None;
    }

    /// Gate on the write path: healthy services pass for free; degraded
    /// ones either refuse with [`ServiceError::Degraded`] (inside the probe
    /// backoff window, or while another writer's probe is in flight) or run
    /// one recovery probe — a full [`QualityService::persist_all`], whose
    /// fresh snapshots supersede the poisoned WAL and whose compaction
    /// clears the poison.  A successful probe returns the service to
    /// [`Health::Healthy`] and lets the gated write proceed.
    fn ensure_writable(&self) -> Result<(), ServiceError> {
        {
            let now = self.clock.now_micros();
            let mut h = self.lock_health();
            match h.state {
                Health::Healthy => return Ok(()),
                Health::Recovering => {
                    h.refused_writes += 1;
                    return Err(ServiceError::Degraded(h.degraded_reason()));
                }
                Health::Degraded => {
                    let interval_micros =
                        u64::try_from(h.probe_interval.as_micros()).unwrap_or(u64::MAX);
                    let due = h
                        .last_probe_micros
                        .is_none_or(|at| now.saturating_sub(at) >= interval_micros);
                    if !due {
                        h.refused_writes += 1;
                        return Err(ServiceError::Degraded(h.degraded_reason()));
                    }
                    h.state = Health::Recovering;
                    h.last_probe_micros = Some(now);
                    h.probes += 1;
                }
            }
        }
        // Probe outside the health lock — it snapshots every context and
        // can be slow.  Concurrent writers see `Recovering` and refuse.
        match self.persist_all() {
            Ok(_) => Ok(()), // persist_all marked the service healthy
            Err(e) => {
                let reason = format!("recovery probe failed: {e}");
                let now = self.clock.now_micros();
                let mut h = self.lock_health();
                h.state = Health::Degraded;
                h.reason = Some(reason.clone());
                h.last_probe_micros = Some(now);
                h.refused_writes += 1;
                Err(ServiceError::Degraded(reason))
            }
        }
    }

    /// Register a context under `name` with its initial instance under
    /// assessment; runs the initial full chase and publishes snapshot
    /// version 0.
    ///
    /// The initial instance is **not** written to the WAL: registration is
    /// deterministic from the server's configuration, so durability begins
    /// with the first applied batch (and with the first `!save` snapshot).
    ///
    /// # Errors
    /// [`ServiceError::DuplicateContext`] when the name is taken;
    /// [`ontodq_core::ContextError::Rejected`] (before any chase work) when
    /// static analysis finds an error-severity diagnostic.
    pub fn register_context(
        &self,
        name: &str,
        context: Context,
        instance: Database,
    ) -> Result<(), ServiceError> {
        // Fast duplicate probe before paying for the initial chase.  The
        // authoritative check is repeated under the write lock below (two
        // racing registrations may both pass the probe; one loses there).
        if self.read_contexts().contains_key(name) {
            return Err(ServiceError::DuplicateContext(name.to_string()));
        }
        // Static analysis gates the chase: a program with error-severity
        // diagnostics (unsafe rules, arity clashes, …) is rejected before
        // any chase work runs, carrying the full report back to the caller.
        // Compile, lint and chase outside the map lock: registration of a
        // large context must not stall queries against other contexts.
        let writer =
            ResumableAssessment::admit(context.clone(), instance, Arc::clone(&self.clock))?;
        self.register_writer(name, context, writer)
    }

    /// Register a context, recovering its durable state from `recovery`
    /// when present: a snapshot restores the chased instance and per-rule
    /// watermarks **without re-chasing**, then the WAL tail is replayed
    /// batch by batch through the incremental path.  Contexts with no
    /// durable state fall back to a plain registration over
    /// `initial_instance` (plus a full-WAL replay when only log records
    /// exist — the crash-before-first-snapshot case).
    ///
    /// Replayed batches are **not** re-appended to the WAL (they are
    /// already in it).
    pub fn register_recovered(
        &self,
        name: &str,
        context: Context,
        initial_instance: Database,
        recovery: &mut Recovery,
    ) -> Result<RecoverySummary, ServiceError> {
        if self.read_contexts().contains_key(name) {
            return Err(ServiceError::DuplicateContext(name.to_string()));
        }
        let snapshot = recovery.snapshots.remove(name);
        let tail = recovery.tails.remove(name).unwrap_or_default();
        let mut summary = RecoverySummary {
            restored_from_snapshot: snapshot.is_some(),
            ..RecoverySummary::default()
        };
        let mut writer = match snapshot {
            Some(persisted) => {
                let expected_fingerprint = persisted.program_fingerprint;
                let writer = ResumableAssessment::restore_with_clock(
                    context.clone(),
                    persisted.instance,
                    persisted.state,
                    persisted.version,
                    Arc::clone(&self.clock),
                );
                // The persisted watermarks are positional: they are only
                // meaningful for the rule set they were chased with.  A
                // changed context definition must fail loudly here — a
                // rule silently inheriting its predecessor's floor would
                // skip derivations with no error anywhere.
                if writer.program_fingerprint() != expected_fingerprint {
                    return Err(ServiceError::Store(format!(
                        "snapshot for context '{name}' was taken with a different rule set \
                         (context definition changed); wipe the data dir or restore the \
                         original definition"
                    )));
                }
                // The static-analysis gate of `register_context`, on the
                // report the restored writer computed anyway: a data dir
                // must not admit a program that a plain registration
                // refuses.
                if writer.lint_report().error_count() > 0 {
                    let diagnostics = writer.lint_report().diagnostics.clone();
                    return Err(ontodq_core::ContextError::Rejected(diagnostics).into());
                }
                writer
            }
            None => ResumableAssessment::admit(
                context.clone(),
                initial_instance,
                Arc::clone(&self.clock),
            )?,
        };
        for batch in tail {
            match batch.kind {
                BatchKind::Insert => {
                    writer.insert_batch(batch.facts).map_err(|e| {
                        ServiceError::Store(format!("replaying batch {}: {e}", batch.seq))
                    })?;
                }
                BatchKind::Retract => {
                    // Replay through the same delete-and-rederive path the
                    // live server used; the logged facts are already the
                    // expanded concrete deletions, so replay is
                    // deterministic even for conditional deletes.
                    let result = writer.retract_batch(batch.facts);
                    self.note_retraction(&result.stats);
                }
            }
            if writer.batches_applied() != batch.seq {
                return Err(ServiceError::Store(format!(
                    "WAL sequence gap for context '{name}': replayed batch {} as version {}",
                    batch.seq,
                    writer.batches_applied()
                )));
            }
            summary.replayed_batches += 1;
        }
        summary.version = writer.batches_applied();
        self.register_writer(name, context, writer)?;
        // Claim the name: once every recovered context is claimed, the
        // store allows `!save` to compact the log again (compaction is
        // refused while unclaimed durable state lives only in the WAL).
        if let Some(store) = &self.store {
            store
                .lock()
                .map_err(|_| {
                    ServiceError::Internal(
                        "store lock poisoned while claiming a recovered context".to_string(),
                    )
                })?
                .claim(name);
        }
        Ok(summary)
    }

    /// Publish an already-built writer as a registered context.
    fn register_writer(
        &self,
        name: &str,
        context: Context,
        mut writer: ResumableAssessment,
    ) -> Result<(), ServiceError> {
        let program = Arc::new(writer.program().clone());
        let chased = writer.contextual().clone();
        let snapshot = Self::build_snapshot(
            name,
            writer.batches_applied(),
            &mut writer,
            Arc::clone(&program),
            chased,
        )?;
        let lint = writer.lint_report().clone();
        if !lint.certificate.terminating {
            // The writer's construction chase (or snapshot restore) ran
            // without a termination certificate.
            self.chase_uncertified.inc();
        }
        let entry = Arc::new(ContextEntry {
            context,
            program,
            snapshot: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(writer),
            lint,
        });
        let mut map = self.write_contexts();
        if map.contains_key(name) {
            return Err(ServiceError::DuplicateContext(name.to_string()));
        }
        map.insert(name.to_string(), entry);
        Ok(())
    }

    /// Snapshot **every** registered context to the store, then compact the
    /// WAL (the snapshots supersede all logged batches).  All writer locks
    /// are held for the duration, so no batch can slip into the log between
    /// the last snapshot and the compaction — the pause is the price of the
    /// `!save` checkpoint, readers keep answering throughout.
    pub fn persist_all(&self) -> Result<PersistReport, ServiceError> {
        let store = self.store.as_ref().ok_or(ServiceError::NoStore)?;
        // Hold the map read lock for the whole checkpoint: a context
        // registered mid-save could otherwise apply (and log) a batch that
        // the compaction below would delete.
        let map = self.read_contexts();
        let mut guards: Vec<(&String, std::sync::MutexGuard<'_, ResumableAssessment>)> =
            Vec::with_capacity(map.len());
        for (name, entry) in map.iter() {
            // A writer lock poisoned by a panicked batch means that
            // context's chase state may be mid-mutation — snapshotting it
            // would persist the inconsistency, so the checkpoint refuses.
            let guard = entry.writer.lock().map_err(|_| {
                ServiceError::Internal(format!(
                    "writer for context '{name}' poisoned by a panicked update"
                ))
            })?;
            guards.push((name, guard));
        }
        let mut store = store.lock().map_err(|_| {
            ServiceError::Internal("store lock poisoned by a panicked writer".to_string())
        })?;
        for (name, writer) in &guards {
            // Borrowed image: no deep clone of the instance or chase state
            // while every writer is blocked on the checkpoint.
            store
                .save_snapshot(&ContextImage {
                    name,
                    version: writer.batches_applied(),
                    program_fingerprint: writer.program_fingerprint(),
                    instance: writer.instance(),
                    state: writer.state(),
                })
                .map_err(|e| ServiceError::Store(e.to_string()))?;
        }
        let segments_removed = store
            .compact()
            .map_err(|e| ServiceError::Store(e.to_string()))?;
        // Every context is snapshotted and the log is compacted: whatever
        // durability failure degraded the service is superseded.
        self.mark_healthy();
        Ok(PersistReport {
            contexts: guards.len(),
            segments_removed,
        })
    }

    /// The names of all registered contexts.
    pub fn context_names(&self) -> Vec<String> {
        self.read_contexts().keys().cloned().collect()
    }

    /// The current snapshot of `context` — the entry point for lock-free
    /// read paths that want to run many queries against one consistent
    /// version.
    pub fn snapshot(&self, context: &str) -> Result<Arc<Snapshot>, ServiceError> {
        Ok(self.entry(context)?.snapshot())
    }

    /// Apply a batch of facts to `context`: facts for mapped original
    /// relations update the instance under assessment and its contextual
    /// copy, everything else lands in the contextual instance; then an
    /// incremental re-chase brings the instance back to a universal model
    /// and the new snapshot is swapped in atomically.
    ///
    /// With a store attached, the **validated** batch is appended to the
    /// write-ahead log and fsynced before the new snapshot is published —
    /// under the writer lock, so log order equals application order.  A
    /// rejected batch is never logged.  If the append itself fails, the
    /// in-memory application stands but the error is surfaced as
    /// [`ServiceError::Store`]: the batch (and, until the next successful
    /// `!save`, every later one) is **not durable** — the store poisons the
    /// log rather than writing a gapped or torn sequence, and a `!save`
    /// checkpoint restores durability by superseding the log with fresh
    /// snapshots.  A failed append also flips the service to
    /// [`Health::Degraded`]: later writes are refused with
    /// [`ServiceError::Degraded`] until a recovery probe (an automatic
    /// `persist_all`, rate-limited by the probe interval) succeeds.
    pub fn insert_facts(
        &self,
        context: &str,
        facts: Vec<(String, Tuple)>,
    ) -> Result<UpdateReport, ServiceError> {
        self.ensure_writable()?;
        let entry = self.entry(context)?;
        let start = self.clock.now_micros();
        let mut writer = entry.writer.lock().map_err(|_| {
            ServiceError::Internal(format!(
                "writer for context '{context}' poisoned by a panicked update"
            ))
        })?;
        let outcome = writer.insert_batch(facts.iter().cloned())?;
        if !entry.lint.certificate.terminating {
            // This batch's incremental re-chase ran uncertified.
            self.chase_uncertified.inc();
        }
        let version = writer.batches_applied();
        let wal_error = self.append_to_wal(|store| store.append_batch(context, version, &facts));
        let derived = outcome.chase.stats.tuples_added;
        let violations = outcome.chase.violations.len();
        let snapshot = Self::build_snapshot(
            context,
            version,
            &mut writer,
            Arc::clone(&entry.program),
            outcome.chase.database,
        )?;
        // Swap even when the WAL append failed: the writer state already
        // advanced, and readers must keep seeing a snapshot consistent with
        // it — only durability is in doubt, and that is what the error says.
        // The slot lock is recovered on poison for the same reason as in
        // `ContextEntry::snapshot`: the swap is a single assignment.
        *entry
            .snapshot
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Arc::new(snapshot);
        // Release the writer lock only after the swap so versions are
        // published in order.
        drop(writer);
        let elapsed_micros = self.clock.now_micros().saturating_sub(start);
        self.insert_micros.observe(elapsed_micros);
        if let Some(reason) = wal_error {
            self.degrade(&reason);
            return Err(ServiceError::Store(reason));
        }
        Ok(UpdateReport {
            version,
            new_facts: outcome.new_facts,
            derived,
            violations,
            elapsed: Duration::from_micros(elapsed_micros),
        })
    }

    /// Apply a batch of retraction rules to `context`: ground retractions
    /// and conditional deletes are expanded against the current chased
    /// instance into concrete facts, those facts are deleted from the
    /// extensional base, and their derived consequences are withdrawn with
    /// **delete-and-rederive** (cascade the over-approximated closure, then
    /// re-derive survivors from alternative supports) before the new
    /// snapshot is swapped in atomically.  Version-keyed query memos
    /// invalidate by construction, exactly as for inserts.
    ///
    /// With a store attached, the **expanded** deletions are appended to
    /// the write-ahead log as a retraction record sharing the per-context
    /// sequence with insert batches, so recovery replays the interleaving
    /// in application order.  A failed append is surfaced as
    /// [`ServiceError::Store`] with the same durability semantics as
    /// [`QualityService::insert_facts`]: the in-memory application stands.
    pub fn retract_facts(
        &self,
        context: &str,
        retractions: &ontodq_datalog::Program,
    ) -> Result<RetractReport, ServiceError> {
        self.ensure_writable()?;
        let entry = self.entry(context)?;
        let start = self.clock.now_micros();
        let mut writer = entry.writer.lock().map_err(|_| {
            ServiceError::Internal(format!(
                "writer for context '{context}' poisoned by a panicked update"
            ))
        })?;
        let expanded = writer.expand_retractions(retractions);
        if !entry.lint.certificate.terminating {
            // The re-derivation resume of this retraction runs uncertified.
            self.chase_uncertified.inc();
        }
        let result = writer.retract_batch(expanded.iter().cloned());
        let stats = result.stats;
        let dred = &result.chase.profile.dred;
        if dred.batches > 0 {
            self.dred_cascade_micros.observe(dred.cascade_micros);
            self.dred_delete_micros.observe(dred.delete_micros);
            self.dred_rederive_micros.observe(dred.rederive_micros);
        }
        let version = writer.batches_applied();
        // Log even an empty expansion: the version advanced, and recovery
        // checks for per-context sequence gaps.
        let wal_error =
            self.append_to_wal(|store| store.append_retraction(context, version, &expanded));
        let snapshot = Self::build_snapshot(
            context,
            version,
            &mut writer,
            Arc::clone(&entry.program),
            result.chase.database,
        )?;
        *entry
            .snapshot
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Arc::new(snapshot);
        drop(writer);
        self.note_retraction(&stats);
        let elapsed_micros = self.clock.now_micros().saturating_sub(start);
        self.retract_micros.observe(elapsed_micros);
        if let Some(reason) = wal_error {
            self.degrade(&reason);
            return Err(ServiceError::Store(reason));
        }
        Ok(RetractReport {
            version,
            requested: stats.requested,
            retracted: stats.retracted,
            cascaded: stats.cascaded,
            rederived: stats.rederived,
            elapsed: Duration::from_micros(elapsed_micros),
        })
    }

    /// Run `append` against the store (when attached) and return the
    /// failure reason, if any.  A store lock poisoned by a panicked peer is
    /// reported as an append failure too: the WAL's in-memory bookkeeping
    /// may be mid-mutation, so pretending durability succeeded would lie.
    fn append_to_wal(
        &self,
        append: impl FnOnce(&mut Store) -> ontodq_store::Result<()>,
    ) -> Option<String> {
        let store = self.store.as_ref()?;
        match store.lock() {
            Ok(mut store) => append(&mut store).err().map(|e| e.to_string()),
            Err(_) => Some("store lock poisoned by a panicked writer".to_string()),
        }
    }

    /// Fold one applied retraction into the process-lifetime counters.
    fn note_retraction(&self, stats: &ontodq_chase::RetractStats) {
        self.retractions.add(stats.requested as u64);
        self.cascaded_deletes.add(stats.cascaded as u64);
        self.rederived.add(stats.rederived as u64);
    }

    /// Point-in-time retraction counters.
    pub fn retraction_stats(&self) -> RetractionCounters {
        RetractionCounters {
            retractions: self.retractions.get(),
            cascaded_deletes: self.cascaded_deletes.get(),
            rederived: self.rederived.get(),
        }
    }

    /// The certain answers to `text` (see
    /// [`crate::cache::parse_query_text`] for accepted spellings) over the
    /// current snapshot of `context`.
    pub fn plain_answers(&self, context: &str, text: &str) -> Result<QueryResponse, ServiceError> {
        self.query(context, QueryKind::Plain, text)
    }

    /// The quality answers: `text` is rewritten so assessed relations read
    /// their quality versions (the paper's clean query answering), then
    /// evaluated over the current snapshot.
    pub fn quality_answers(
        &self,
        context: &str,
        text: &str,
    ) -> Result<QueryResponse, ServiceError> {
        self.query(context, QueryKind::Quality, text)
    }

    /// **Demand-driven** quality answers (`?d-`): the query is rewritten to
    /// the quality versions like [`QualityService::quality_answers`], but
    /// instead of reading the snapshot's materialized instance the program
    /// is magic-set-specialized to the query's bound constants and only the
    /// relevant fragment of the pre-chase base is chased
    /// ([`Snapshot::demand_answers`]).  The answers are identical; the work
    /// profile is proportional to the demanded portion, and results are
    /// cached per snapshot version exactly like `?q-`.
    pub fn demand_answers(&self, context: &str, text: &str) -> Result<QueryResponse, ServiceError> {
        self.query(context, QueryKind::Demand, text)
    }

    /// Shared query path: prepare (cached), consult the answer memo for the
    /// snapshot's version, evaluate on miss.
    fn query(
        &self,
        context: &str,
        kind: QueryKind,
        text: &str,
    ) -> Result<QueryResponse, ServiceError> {
        let entry = self.entry(context)?;
        let prepared = self.cache.prepared(context, &entry.context, kind, text)?;
        let snapshot = entry.snapshot();
        if let Some(answers) = self
            .cache
            .cached_answers(context, kind, text, snapshot.version)
        {
            return Ok(QueryResponse {
                version: snapshot.version,
                answers,
                cached: true,
            });
        }
        let answers = Arc::new(match kind {
            QueryKind::Plain | QueryKind::Quality => snapshot.answers(&prepared),
            QueryKind::Demand => snapshot.demand_answers(&prepared),
        });
        self.cache
            .store_answers(context, kind, text, snapshot.version, answers.clone());
        Ok(QueryResponse {
            version: snapshot.version,
            answers,
            cached: false,
        })
    }

    /// Prepared-query cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The clock the service measures durations on (shared with the store
    /// and every context writer).
    pub(crate) fn clock(&self) -> SharedClock {
        Arc::clone(&self.clock)
    }

    /// The cumulative chase profile of `context`'s writer: per-rule
    /// evaluation counts, join time and kernel choice, EGD and DRed phase
    /// timings — everything the `!profile` verb prints.  Reads under the
    /// writer lock (cheap: the profile is cloned out, no chase work runs).
    pub(crate) fn chase_profile(
        &self,
        context: &str,
    ) -> Result<ontodq_chase::ChaseProfile, ServiceError> {
        let entry = self.entry(context)?;
        let writer = entry.writer.lock().map_err(|_| {
            ServiceError::Internal(format!(
                "writer for context '{context}' poisoned by a panicked update"
            ))
        })?;
        Ok(writer.profile().clone())
    }

    /// The static-analysis report of `context`'s compiled program — the
    /// `!check` payload: every diagnostic, the termination certificate, and
    /// the stratification outcome.  Reads the immutable report stored at
    /// registration; no writer lock is touched.
    pub fn check(&self, context: &str) -> Result<ontodq_datalog::LintReport, ServiceError> {
        Ok(self.entry(context)?.lint.clone())
    }

    /// Fold one served request into the per-verb latency histogram
    /// (`ontodq_request_micros{verb=…}`).  Called by the protocol layer
    /// after every non-empty request, so `!metrics` sees request-level
    /// latency for each verb including errors.
    pub(crate) fn observe_request(&self, verb: &str, micros: u64) {
        self.registry
            .histogram(
                "ontodq_request_micros",
                "End-to-end latency of one protocol request, by verb.",
                &[("verb", verb)],
            )
            .observe(micros);
    }

    /// Note one completed query for the slow-query log: when a threshold is
    /// armed (`--slow-query-micros`) and `micros` crosses it, the query text
    /// is recorded in the bounded ring surfaced by `!slow`.
    pub(crate) fn note_query(&self, verb: &str, text: &str, micros: u64) {
        let threshold = self.slow_threshold_micros.load(Ordering::Relaxed);
        if threshold == 0 || micros < threshold {
            return;
        }
        self.slow_queries_total.inc();
        self.slow_log.record(SpanRecord {
            name: verb.to_string(),
            detail: text.to_string(),
            start_micros: self.clock.now_micros().saturating_sub(micros),
            duration_micros: micros,
        });
    }

    /// Arm (or, with 0, disarm) the slow-query log.
    pub fn set_slow_query_threshold(&self, micros: u64) {
        self.slow_threshold_micros.store(micros, Ordering::Relaxed);
    }

    /// The armed slow-query threshold in microseconds (0: disabled).
    pub(crate) fn slow_query_threshold(&self) -> u64 {
        self.slow_threshold_micros.load(Ordering::Relaxed)
    }

    /// The retained slow-query records, oldest first.
    pub(crate) fn slow_queries(&self) -> Vec<SpanRecord> {
        self.slow_log.recent()
    }

    /// Render the whole registry in Prometheus text exposition format —
    /// the `!metrics` payload.  Point-in-time gauges (queue depth, health,
    /// per-context snapshot versions, per-rule chase profiles) are sampled
    /// into the registry here so the scrape is self-consistent; cumulative
    /// series (counters, histograms) were updated at their sources.
    pub fn render_metrics(&self, pool: &WorkerPool) -> String {
        // Worker-pool load: the wait histogram is adopted idempotently (the
        // first pool a service renders with wins the handle; in practice a
        // server has exactly one pool).
        self.registry.adopt_histogram(
            "ontodq_queue_wait_micros",
            "Time a query spent queued before a worker picked it up.",
            &[],
            pool.wait_histogram(),
        );
        self.registry
            .gauge(
                "ontodq_queue_depth",
                "Jobs admitted to the worker pool and not yet finished.",
                &[],
            )
            .set(pool.queued() as u64);
        self.registry
            .gauge(
                "ontodq_queue_depth_peak",
                "High-watermark of the worker-pool queue depth.",
                &[],
            )
            .set(pool.queued_peak() as u64);
        self.registry
            .gauge("ontodq_workers", "Worker threads in the shared pool.", &[])
            .set(pool.size() as u64);
        // Health machine: the state as an enum gauge plus its counters.
        let health = self.health();
        self.registry
            .gauge(
                "ontodq_health_state",
                "Service health: 0 healthy, 1 degraded, 2 recovering.",
                &[],
            )
            .set(match health.state {
                Health::Healthy => 0,
                Health::Degraded => 1,
                Health::Recovering => 2,
            });
        self.registry
            .gauge(
                "ontodq_refused_writes",
                "Writes refused while degraded or recovering, process lifetime.",
                &[],
            )
            .set(health.refused_writes);
        self.registry
            .gauge(
                "ontodq_recovery_probes",
                "Recovery probes attempted, process lifetime.",
                &[],
            )
            .set(health.probes);
        self.registry
            .gauge(
                "ontodq_slow_query_threshold_micros",
                "Armed slow-query threshold (0: log disabled).",
                &[],
            )
            .set(self.slow_query_threshold());
        // Copy-on-write traffic of the storage layer: a process-wide total
        // owned by `ontodq-relational`, mirrored here at scrape time.
        self.registry
            .counter(
                "ontodq_relation_copies_total",
                "Relations deep-copied because a write reached them while a snapshot still shared them.",
                &[],
            )
            .raise_to(JoinCounters::snapshot().relation_copies);
        // Per-context snapshot state and chase profiles.
        let entries: Vec<(String, Arc<ContextEntry>)> = self
            .read_contexts()
            .iter()
            .map(|(name, entry)| (name.clone(), Arc::clone(entry)))
            .collect();
        for (name, entry) in entries {
            let snapshot = entry.snapshot();
            let labels = [("context", name.as_str())];
            self.registry
                .gauge(
                    "ontodq_snapshot_version",
                    "Published snapshot version (batches applied).",
                    &labels,
                )
                .set(snapshot.version);
            self.registry
                .gauge(
                    "ontodq_snapshot_tuples",
                    "Tuples in the published snapshot's materialized instance.",
                    &labels,
                )
                .set(snapshot.total_tuples() as u64);
            self.registry
                .gauge(
                    "ontodq_lint_errors",
                    "Error-severity static-analysis diagnostics of this context's program.",
                    &labels,
                )
                .set(entry.lint.error_count() as u64);
            self.registry
                .gauge(
                    "ontodq_lint_warnings",
                    "Warning-severity static-analysis diagnostics of this context's program.",
                    &labels,
                )
                .set(entry.lint.warning_count() as u64);
            // Skip a writer a panicked update poisoned: the scrape must
            // never take a session down, and the other series still render.
            let Ok(writer) = entry.writer.lock() else {
                continue;
            };
            let profile = writer.profile().clone();
            drop(writer);
            self.registry
                .gauge(
                    "ontodq_chase_egd_micros",
                    "Cumulative EGD-check time in this context's chases.",
                    &labels,
                )
                .set(profile.egd_micros);
            self.registry
                .gauge(
                    "ontodq_chase_total_micros",
                    "Cumulative end-to-end chase driver time for this context.",
                    &labels,
                )
                .set(profile.total_micros);
            for rule in &profile.rules {
                if rule.evaluations == 0 {
                    continue;
                }
                let rule_labels = [("context", name.as_str()), ("rule", rule.label.as_str())];
                self.registry
                    .gauge(
                        "ontodq_rule_join_micros",
                        "Cumulative join time spent evaluating this rule.",
                        &rule_labels,
                    )
                    .set(rule.join_micros);
                self.registry
                    .gauge(
                        "ontodq_rule_fires",
                        "Batches in which this rule derived at least one new tuple.",
                        &rule_labels,
                    )
                    .set(rule.fires);
                self.registry
                    .gauge(
                        "ontodq_rule_tuples_added",
                        "Tuples this rule added to the instance, cumulative.",
                        &rule_labels,
                    )
                    .set(rule.tuples_added);
            }
        }
        self.registry.render_prometheus()
    }

    /// Assemble the `!stats` status line for `context` with `staged`
    /// session-local staged changes — one service-side snapshot of every
    /// counter family, byte-identical to the line the protocol printed
    /// before this consolidation.
    pub(crate) fn stats_line(&self, context: &str, staged: usize) -> Result<String, ServiceError> {
        let entry = self.entry(context)?;
        let snapshot = entry.snapshot();
        let cache = self.cache_stats();
        let interner_writes = ontodq_relational::SymbolInterner::global().write_acquisitions();
        let wal = self.wal_stats().unwrap_or_default();
        // Process-wide join-kernel counters (monotone totals across every
        // chase and query this process ran) and the snapshot's
        // columnar-arena footprint.
        let joins = JoinCounters::snapshot();
        let arena_bytes = snapshot.database.arena_bytes();
        // Tombstones make live vs physical rows distinct: the arena keeps
        // dead rows until compaction, and `reclaimable_bytes` is the share
        // a compaction would recover.
        let retract = self.retraction_stats();
        Ok(format!(
            "ok context={} version={} tuples={} staged={} cache_hits={} cache_misses={} cache_invalidations={} cache_entries={} cache_evictions={} interner_writes={} wal_segments={} wal_bytes={} probes={} gallops={} wco_seeks={} materializations={} arena_bytes={} live_rows={} total_rows={} reclaimable_bytes={} retractions={} cascaded_deletes={} rederived={} lint_errors={} lint_warnings={}",
            context,
            snapshot.version,
            snapshot.total_tuples(),
            staged,
            cache.hits,
            cache.misses,
            cache.invalidations,
            cache.entries,
            cache.evictions,
            interner_writes,
            wal.segments,
            wal.bytes,
            joins.probes,
            joins.gallop_seeks,
            joins.wco_seeks,
            joins.materializations,
            arena_bytes,
            snapshot.database.total_tuples(),
            snapshot.database.total_rows(),
            snapshot.database.reclaimable_bytes(),
            retract.retractions,
            retract.cascaded_deletes,
            retract.rederived,
            entry.lint.error_count(),
            entry.lint.warning_count(),
        ))
    }

    fn entry(&self, context: &str) -> Result<Arc<ContextEntry>, ServiceError> {
        self.read_contexts()
            .get(context)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownContext(context.to_string()))
    }

    /// Assemble a snapshot from the writer state: the chased contextual
    /// instance (`chased` — the clone the re-chase step already produced),
    /// merged with the original relations of the instance under assessment,
    /// plus the quality versions and metrics — and the pre-chase extensional
    /// base + program the demand-driven `?d-` path reads instead of any of
    /// the above.
    ///
    /// The base is the writer's pre-chase extensional instance merged with
    /// the **original-name** relations, so `?d-` sees exactly the relations
    /// `?q-` can reference (a mapped relation without a quality version
    /// keeps its original name through the rewrite).
    ///
    /// Nothing here copies a relation.  Databases share relations
    /// structurally: `chased` and the base clone are reference-count bumps,
    /// both merges *adopt* the original relations (neither target has a
    /// relation of those names), and extraction recomputes only the quality
    /// versions whose sources changed.  The copies a commit does pay happen
    /// earlier, in the writer: one per relation the batch writes, because
    /// the previous snapshot still holds it.  `program` is shared per
    /// context (`Arc`), never re-cloned per batch.
    fn build_snapshot(
        name: &str,
        version: u64,
        writer: &mut ResumableAssessment,
        program: Arc<ontodq_datalog::Program>,
        mut database: Database,
    ) -> Result<Snapshot, ServiceError> {
        // These merges re-add the instance's own relations into copies that
        // share its schema, so arity conflicts are impossible by
        // construction — but a broken invariant must surface as a typed
        // error, not a panic under the writer lock.
        database.merge(writer.instance()).map_err(|e| {
            ServiceError::Internal(format!(
                "original relations failed to merge into snapshot '{name}': {e}"
            ))
        })?;
        let (quality, metrics) = writer.extract();
        let mut base = writer.base_database().clone();
        base.merge(writer.instance()).map_err(|e| {
            ServiceError::Internal(format!(
                "original relations failed to merge into demand base '{name}': {e}"
            ))
        })?;
        Ok(Snapshot {
            version,
            database,
            base,
            program,
            quality,
            metrics,
        })
    }
}

impl Default for QualityService {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_core::scenarios;
    use ontodq_mdm::fixtures::hospital;
    use ontodq_relational::Value;

    fn hospital_service() -> QualityService {
        let service = QualityService::new();
        service
            .register_context(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
            )
            .unwrap();
        service
    }

    #[test]
    fn registration_publishes_version_zero() {
        let service = hospital_service();
        assert_eq!(service.context_names(), vec!["hospital".to_string()]);
        let snap = service.snapshot("hospital").unwrap();
        assert_eq!(snap.version, 0);
        assert!(snap.database.has_relation("Measurements"));
        assert!(snap.database.has_relation("Measurements_c"));
        assert!(snap.database.has_relation("Measurements_q"));
        assert!(snap.quality.has_relation("Measurements"));
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let service = hospital_service();
        let err = service
            .register_context("hospital", scenarios::hospital_context(), Database::new())
            .unwrap_err();
        assert!(matches!(err, ServiceError::DuplicateContext(_)));
    }

    #[test]
    fn malformed_contexts_are_rejected_not_panicked() {
        let service = QualityService::new();
        let builder = Context::builder("broken").contextual_rule("not a rule at all");
        let err = builder
            .build()
            .map_err(ServiceError::from)
            .and_then(|context| service.register_context("broken", context, Database::new()))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Context(_)));
        assert!(service.context_names().is_empty());
    }

    #[test]
    fn conflicting_external_source_is_refused_not_panicked() {
        // A 2-ary `Shifts` clashes with the hospital ontology's 4-ary
        // categorical relation of that name.
        let mut shifts = Database::new();
        shifts.insert_values("Shifts", ["W1", "Sep/5"]).unwrap();
        let service = QualityService::new();
        let err = Context::builder("conflict")
            .ontology(hospital::ontology())
            .copy_relation("Measurements")
            .external_source(shifts)
            .build()
            .map_err(ServiceError::from)
            .and_then(|context| {
                service.register_context("conflict", context, hospital::measurements_database())
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Context(ontodq_core::ContextError::ExternalSourceConflict(_))
        ));
        assert!(service.context_names().is_empty());
    }

    #[test]
    fn unknown_context_errors() {
        let service = QualityService::new();
        assert!(matches!(
            service.plain_answers("nope", "R(x)"),
            Err(ServiceError::UnknownContext(_))
        ));
    }

    #[test]
    fn quality_answers_match_the_batch_pipeline() {
        let service = hospital_service();
        let response = service
            .quality_answers("hospital", "Measurements(t, p, v), p = \"Tom Waits\"")
            .unwrap();
        let expected = hospital::expected_quality_measurements();
        assert_eq!(response.answers.len(), expected.len());
        for t in expected {
            assert!(response.answers.contains(&t));
        }
        // Plain answers see all six raw rows.
        let plain = service
            .plain_answers("hospital", "Measurements(t, p, v), p = \"Tom Waits\"")
            .unwrap();
        assert!(plain.answers.len() > response.answers.len());
    }

    #[test]
    fn inserts_bump_the_version_and_invalidate_cached_answers() {
        let service = hospital_service();
        let q = "Measurements(t, p, v)";
        let first = service.quality_answers("hospital", q).unwrap();
        assert!(!first.cached);
        let second = service.quality_answers("hospital", q).unwrap();
        assert!(second.cached);
        assert_eq!(first.answers, second.answers);

        // A new quality measurement: Lou Reed was in a standard-care ward on
        // Sep/6 with a certified nurse on duty, and Sep/6-11:05 is a known
        // `Time` member rolling up to Sep/6 — so the new reading (a second
        // value at that time) gains a quality version.
        let report = service
            .insert_facts(
                "hospital",
                vec![(
                    "Measurements".to_string(),
                    Tuple::new(vec![
                        Value::parse_time("Sep/6-11:05").unwrap(),
                        Value::str("Lou Reed"),
                        Value::double(39.9),
                    ]),
                )],
            )
            .unwrap();
        assert_eq!(report.version, 1);
        assert_eq!(report.new_facts, 1);

        let third = service.quality_answers("hospital", q).unwrap();
        assert_eq!(third.version, 1);
        assert!(!third.cached, "snapshot bump must invalidate the memo");
        assert_eq!(third.answers.len(), first.answers.len() + 1);
        let stats = service.cache_stats();
        assert!(stats.hits >= 1);
        assert!(stats.invalidations >= 1);
    }

    fn open_store(tag: &str, wipe: bool) -> (std::path::PathBuf, Arc<Mutex<Store>>) {
        let dir = std::env::temp_dir().join(format!("ontodq-service-{tag}-{}", std::process::id()));
        if wipe {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let store = Store::open(&dir, ontodq_store::StoreConfig::default()).unwrap();
        (dir, Arc::new(Mutex::new(store)))
    }

    fn lou_reed_fact() -> (String, Tuple) {
        (
            "Measurements".to_string(),
            Tuple::new(vec![
                Value::parse_time("Sep/6-11:05").unwrap(),
                Value::str("Lou Reed"),
                Value::double(39.9),
            ]),
        )
    }

    /// Full-WAL-replay restart: no snapshot was ever saved, so recovery is
    /// initial chase + replay of every logged batch, and the recovered
    /// service answers exactly like the one that never restarted.
    #[test]
    fn applied_batches_survive_a_restart_via_wal_replay() {
        let (dir, store) = open_store("walreplay", true);
        let service = QualityService::with_store(store);
        service
            .register_context(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
            )
            .unwrap();
        let report = service
            .insert_facts("hospital", vec![lou_reed_fact()])
            .unwrap();
        assert_eq!(report.version, 1);
        let live = service
            .quality_answers("hospital", "Measurements(t, p, v)")
            .unwrap();
        assert_eq!(service.wal_stats().unwrap().batches_appended, 1);
        drop(service);

        // "Restart": fresh store handle on the same directory.
        let (_, store) = open_store("walreplay", false);
        let mut recovery = store.lock().unwrap().recover().unwrap();
        let recovered = QualityService::with_store(store);
        let summary = recovered
            .register_recovered(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
                &mut recovery,
            )
            .unwrap();
        assert!(!summary.restored_from_snapshot);
        assert_eq!(summary.replayed_batches, 1);
        assert_eq!(summary.version, 1);
        let revived = recovered
            .quality_answers("hospital", "Measurements(t, p, v)")
            .unwrap();
        assert_eq!(revived.version, 1);
        assert_eq!(revived.answers, live.answers);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Snapshot + tail restart: `persist_all` checkpoints and compacts;
    /// batches applied after the checkpoint come back from the WAL tail on
    /// top of the restored snapshot, with no initial chase.
    #[test]
    fn persist_all_checkpoints_and_recovers_snapshot_plus_tail() {
        let (dir, store) = open_store("snaptail", true);
        let service = QualityService::with_store(store);
        service
            .register_context(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
            )
            .unwrap();
        service
            .insert_facts("hospital", vec![lou_reed_fact()])
            .unwrap();
        let persisted = service.persist_all().unwrap();
        assert_eq!(persisted.contexts, 1);
        assert_eq!(persisted.segments_removed, 1);
        assert_eq!(service.wal_stats().unwrap().segments, 0);
        // One more batch after the checkpoint: the WAL tail.
        service
            .insert_facts(
                "hospital",
                vec![(
                    "Measurements".to_string(),
                    Tuple::new(vec![
                        Value::parse_time("Sep/6-12:00").unwrap(),
                        Value::str("Lou Reed"),
                        Value::double(37.0),
                    ]),
                )],
            )
            .unwrap();
        let live = service
            .quality_answers("hospital", "Measurements(t, p, v)")
            .unwrap();
        drop(service);

        let (_, store) = open_store("snaptail", false);
        let mut recovery = store.lock().unwrap().recover().unwrap();
        let recovered = QualityService::with_store(store);
        let summary = recovered
            .register_recovered(
                "hospital",
                scenarios::hospital_context(),
                Database::new(), // must not be needed: the snapshot carries D
                &mut recovery,
            )
            .unwrap();
        assert!(summary.restored_from_snapshot);
        assert_eq!(summary.replayed_batches, 1);
        assert_eq!(summary.version, 2);
        let revived = recovered
            .quality_answers("hospital", "Measurements(t, p, v)")
            .unwrap();
        assert_eq!(revived.version, live.version);
        assert_eq!(revived.answers, live.answers);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot's watermarks are positional in the rule set; restoring
    /// under a *different* context definition must be refused loudly, not
    /// silently misapply old floors to new rules.
    #[test]
    fn a_changed_context_definition_is_rejected_at_restore() {
        let (dir, store) = open_store("fingerprint", true);
        let service = QualityService::with_store(store);
        service
            .register_context(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
            )
            .unwrap();
        service.persist_all().unwrap();
        drop(service);

        let (_, store) = open_store("fingerprint", false);
        let mut recovery = store.lock().unwrap().recover().unwrap();
        let recovered = QualityService::with_store(store);
        let changed = ontodq_workload::generate(&ontodq_workload::HospitalScale::small());
        let err = recovered
            .register_recovered(
                "hospital",
                changed.context(),
                Database::new(),
                &mut recovery,
            )
            .unwrap_err();
        assert!(
            matches!(&err, ServiceError::Store(msg) if msg.contains("different rule set")),
            "got {err}"
        );
        // The unchanged definition still restores fine.
        let mut recovery = {
            let (_, store) = open_store("fingerprint", false);
            let recovery = store.lock().unwrap().recover().unwrap();
            drop(store);
            recovery
        };
        let service = QualityService::new();
        let summary = service
            .register_recovered(
                "hospital",
                scenarios::hospital_context(),
                Database::new(),
                &mut recovery,
            )
            .unwrap();
        assert!(summary.restored_from_snapshot);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisting_without_a_store_is_rejected() {
        let service = hospital_service();
        assert!(!service.has_store());
        assert!(service.wal_stats().is_none());
        assert!(matches!(service.persist_all(), Err(ServiceError::NoStore)));
        // sync_store on a store-less service is a no-op, not a panic.
        service.sync_store();
    }

    /// Regression: a mapped relation *without* a quality version keeps its
    /// original name through the quality rewrite, and `?q-` reads it from
    /// the merged original relations — `?d-` must see it too (the demand
    /// base merges the instance), or the two verbs silently diverge.
    #[test]
    fn demand_answers_cover_mapped_relations_without_quality_versions() {
        let service = QualityService::new();
        let mut instance = Database::new();
        instance.insert_values("Notes", ["n1", "first"]).unwrap();
        instance.insert_values("Notes", ["n2", "second"]).unwrap();
        let context = Context::builder("notes-only")
            .copy_relation("Notes")
            .build()
            .unwrap();
        service
            .register_context("notes", context, instance)
            .unwrap();
        let quality = service.quality_answers("notes", "Notes(id, text)").unwrap();
        let demand = service.demand_answers("notes", "Notes(id, text)").unwrap();
        assert_eq!(quality.answers.len(), 2);
        assert_eq!(quality.answers, demand.answers);
        // Batches keep the two paths aligned.
        service
            .insert_facts(
                "notes",
                vec![("Notes".to_string(), Tuple::from_iter(["n3", "third"]))],
            )
            .unwrap();
        let quality = service.quality_answers("notes", "Notes(id, text)").unwrap();
        let demand = service.demand_answers("notes", "Notes(id, text)").unwrap();
        assert_eq!(quality.answers.len(), 3);
        assert_eq!(quality.answers, demand.answers);
    }

    /// Retract-after-insert through the service: the quality answers return
    /// to their pre-insert state, the version advances, and the memoized
    /// answers invalidate by construction.
    #[test]
    fn retract_facts_restore_the_pre_insert_answers() {
        let service = hospital_service();
        let q = "Measurements(t, p, v)";
        let before = service.quality_answers("hospital", q).unwrap();
        service
            .insert_facts("hospital", vec![lou_reed_fact()])
            .unwrap();
        let inserted = service.quality_answers("hospital", q).unwrap();
        assert_eq!(inserted.answers.len(), before.answers.len() + 1);

        let retraction =
            ontodq_datalog::parse_program("-Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).")
                .unwrap();
        let report = service.retract_facts("hospital", &retraction).unwrap();
        assert_eq!(report.version, 2);
        assert_eq!(report.requested, 1);
        assert_eq!(report.retracted, 1);
        let after = service.quality_answers("hospital", q).unwrap();
        assert_eq!(after.version, 2);
        assert!(!after.cached, "version bump must invalidate the memo");
        assert_eq!(after.answers, before.answers);
        let counters = service.retraction_stats();
        assert_eq!(counters.retractions, 1);
    }

    /// Conditional deletes expand against the live instance: one rule
    /// removes every matching row in one batch.
    #[test]
    fn conditional_deletes_expand_against_the_live_instance() {
        let service = hospital_service();
        let q = "Measurements(t, p, v)";
        let before = service.quality_answers("hospital", q).unwrap();
        assert!(!before.answers.is_empty());
        let delete_tom = ontodq_datalog::parse_program(
            "-Measurements(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\".",
        )
        .unwrap();
        let report = service.retract_facts("hospital", &delete_tom).unwrap();
        assert!(report.requested >= 2, "got {report:?}");
        assert_eq!(report.requested, report.retracted);
        let after = service
            .quality_answers("hospital", "Measurements(t, p, v), p = \"Tom Waits\"")
            .unwrap();
        assert!(after.answers.is_empty());
    }

    /// A retraction batch must survive a restart: the WAL retraction record
    /// replays through the same delete-and-rederive path, interleaved with
    /// insert batches in application order.
    #[test]
    fn retractions_survive_a_restart_via_wal_replay() {
        let (dir, store) = open_store("retractreplay", true);
        let service = QualityService::with_store(store);
        service
            .register_context(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
            )
            .unwrap();
        service
            .insert_facts("hospital", vec![lou_reed_fact()])
            .unwrap();
        let retraction =
            ontodq_datalog::parse_program("-Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).")
                .unwrap();
        let report = service.retract_facts("hospital", &retraction).unwrap();
        assert_eq!(report.version, 2);
        let live = service
            .quality_answers("hospital", "Measurements(t, p, v)")
            .unwrap();
        drop(service);

        let (_, store) = open_store("retractreplay", false);
        let mut recovery = store.lock().unwrap().recover().unwrap();
        let recovered = QualityService::with_store(store);
        let summary = recovered
            .register_recovered(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
                &mut recovery,
            )
            .unwrap();
        assert_eq!(summary.replayed_batches, 2);
        assert_eq!(summary.version, 2);
        let revived = recovered
            .quality_answers("hospital", "Measurements(t, p, v)")
            .unwrap();
        assert_eq!(revived.version, live.version);
        assert_eq!(revived.answers, live.answers);
        // Replay went through the retraction path, visibly.
        assert_eq!(recovered.retraction_stats().retractions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A deletion record for a context this configuration never registered
    /// must surface as a clean error (compaction refused, state preserved),
    /// never a panic.
    #[test]
    fn retraction_records_for_unknown_contexts_are_a_clean_error() {
        let (dir, store) = open_store("ghostretract", true);
        store
            .lock()
            .unwrap()
            .append_retraction("ghost", 1, &[lou_reed_fact()])
            .unwrap();
        drop(store);

        let (_, store) = open_store("ghostretract", false);
        let mut recovery = store.lock().unwrap().recover().unwrap();
        assert_eq!(recovery.tails["ghost"].len(), 1);
        let service = QualityService::with_store(store);
        service
            .register_recovered(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
                &mut recovery,
            )
            .unwrap();
        // The ghost context's deletion record still lives only in the log:
        // checkpointing must refuse to destroy it, with a clean error.
        let err = service.persist_all().unwrap_err();
        assert!(
            matches!(&err, ServiceError::Store(msg) if msg.contains("ghost")),
            "got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let service = hospital_service();
        let before = service.snapshot("hospital").unwrap();
        let count_before = before.database.relation("Measurements").unwrap().len();
        service
            .insert_facts(
                "hospital",
                vec![(
                    "Measurements".to_string(),
                    Tuple::new(vec![
                        Value::parse_time("Sep/6-12:00").unwrap(),
                        Value::str("Lou Reed"),
                        Value::double(36.9),
                    ]),
                )],
            )
            .unwrap();
        // The old snapshot still answers from its own frozen instance.
        assert_eq!(
            before.database.relation("Measurements").unwrap().len(),
            count_before
        );
        let after = service.snapshot("hospital").unwrap();
        assert_eq!(
            after.database.relation("Measurements").unwrap().len(),
            count_before + 1
        );
        assert_eq!(after.version, before.version + 1);
    }

    /// The health state machine end to end: a permanent WAL append failure
    /// degrades the service — the write that hit the fault reports a store
    /// error, later writes are refused with the typed degraded error while
    /// the probe backoff holds, reads keep answering from the in-memory
    /// state — and the first write after the backoff triggers an automatic
    /// recovery probe (a full checkpoint superseding the poisoned log) that
    /// returns the service to healthy.
    #[test]
    fn wal_failures_degrade_writes_and_probes_recover() {
        use ontodq_store::{FaultSchedule, IoOp, SharedIoPolicy};
        let dir =
            std::env::temp_dir().join(format!("ontodq-service-health-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schedule = Arc::new(Mutex::new(FaultSchedule::new()));
        // First batch appends fine; the second one's write fails hard.
        schedule.lock().unwrap().fail_nth(IoOp::WalWrite, 1);
        let policy: SharedIoPolicy = schedule.clone();
        let store = Arc::new(Mutex::new(
            Store::open_with_policy(&dir, ontodq_store::StoreConfig::default(), policy).unwrap(),
        ));
        let service = QualityService::with_store(store);
        service
            .register_context(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
            )
            .unwrap();
        assert_eq!(service.health().state, Health::Healthy);
        service
            .insert_facts("hospital", vec![lou_reed_fact()])
            .unwrap();

        let nick = (
            "Measurements".to_string(),
            Tuple::new(vec![
                Value::parse_time("Sep/7-09:15").unwrap(),
                Value::str("Nick Cave"),
                Value::double(37.5),
            ]),
        );
        let err = service
            .insert_facts("hospital", vec![nick.clone()])
            .unwrap_err();
        assert!(matches!(err, ServiceError::Store(_)), "got {err:?}");
        assert_eq!(service.health().state, Health::Degraded);

        // Reads still answer, from the in-memory state that includes the
        // applied-but-not-durable batch.
        let reads = service
            .quality_answers("hospital", "Measurements(t, p, v)")
            .unwrap();
        assert_eq!(reads.version, 2);

        // Inside the probe backoff, writes are refused with the typed
        // degraded error and counted.
        let cale = (
            "Measurements".to_string(),
            Tuple::new(vec![
                Value::parse_time("Sep/7-10:40").unwrap(),
                Value::str("John Cale"),
                Value::double(38.1),
            ]),
        );
        service.set_probe_interval(Duration::from_secs(3600));
        let err = service
            .insert_facts("hospital", vec![cale.clone()])
            .unwrap_err();
        assert!(matches!(err, ServiceError::Degraded(_)), "got {err:?}");
        assert!(service.health().refused_writes >= 1);
        assert_eq!(service.health().state, Health::Degraded);

        // With the backoff elapsed (interval zero), the same write runs the
        // recovery probe: fresh snapshots supersede the poisoned WAL, the
        // compaction clears the poison, and the write lands.
        service.set_probe_interval(Duration::ZERO);
        let report = service.insert_facts("hospital", vec![cale]).unwrap();
        assert_eq!(report.version, 3);
        let health = service.health();
        assert_eq!(health.state, Health::Healthy);
        assert_eq!(health.probes, 1);
        assert!(health.reason.is_none());

        // The recovered-on-disk state equals the in-memory state: snapshot
        // at version 2 (including the non-durable-at-the-time batch) plus
        // the version-3 WAL tail.
        drop(service);
        let mut store = Store::open(&dir, ontodq_store::StoreConfig::default()).unwrap();
        let mut recovery = store.recover().unwrap();
        let recovered = QualityService::new();
        let summary = recovered
            .register_recovered(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
                &mut recovery,
            )
            .unwrap();
        assert!(summary.restored_from_snapshot);
        assert_eq!(summary.version, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `persist_all` (the `!save` path) also exits degradation directly —
    /// an operator command, not just the automatic probe.
    #[test]
    fn explicit_save_exits_degradation() {
        use ontodq_store::{FaultSchedule, IoOp, SharedIoPolicy};
        let dir = std::env::temp_dir().join(format!("ontodq-service-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schedule = Arc::new(Mutex::new(FaultSchedule::new()));
        schedule.lock().unwrap().fail_nth(IoOp::WalFsync, 0);
        let policy: SharedIoPolicy = schedule.clone();
        let store = Arc::new(Mutex::new(
            Store::open_with_policy(&dir, ontodq_store::StoreConfig::default(), policy).unwrap(),
        ));
        let service = QualityService::with_store(store);
        service
            .register_context(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
            )
            .unwrap();
        // Permanent-looking fsync failure on the very first append (retries
        // see the schedule's `Fail` only once, but the heal path reseals and
        // the error kind is permanent, so no retry happens).
        let err = service
            .insert_facts("hospital", vec![lou_reed_fact()])
            .unwrap_err();
        assert!(matches!(err, ServiceError::Store(_)), "got {err:?}");
        assert_eq!(service.health().state, Health::Degraded);
        let report = service.persist_all().unwrap();
        assert_eq!(report.contexts, 1);
        assert_eq!(service.health().state, Health::Healthy);
        service
            .insert_facts(
                "hospital",
                vec![(
                    "Measurements".to_string(),
                    Tuple::new(vec![
                        Value::parse_time("Sep/7-11:00").unwrap(),
                        Value::str("Nico"),
                        Value::double(36.8),
                    ]),
                )],
            )
            .unwrap();
        assert_eq!(service.health().state, Health::Healthy);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
