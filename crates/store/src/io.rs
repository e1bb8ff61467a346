//! Deterministic fault injection for the durability layer.
//!
//! Every I/O edge the store's crash-safety argument depends on — WAL
//! segment creation, record-group writes, fsyncs, seals, heal
//! truncations, snapshot writes/fsyncs/renames, directory syncs — funnels
//! through an [`IoPolicy`].  Production uses the zero-cost
//! [`PassThrough`] policy (one uncontended mutex lock per operation,
//! noise next to the fsync it guards); tests install a seeded
//! [`FaultSchedule`] that injects `io::Error`s, short writes, and
//! crash-at-byte-N at chosen occurrences of chosen operations, making
//! every durability edge reachable in-process and deterministically.
//!
//! The fault vocabulary mirrors what real disks and kernels do:
//!
//! * **Fail** — the syscall returns an error; nothing was written.  A
//!   *transient* failure (`Interrupted`/`WouldBlock`/`TimedOut`) may be
//!   retried by the WAL's heal-and-retry path; anything else is
//!   permanent and poisons the log.
//! * **Short write** — only a prefix of the buffer reaches the file
//!   before the error: the torn-record shape recovery must truncate.
//! * **Crash** — a prefix reaches the file and the process is assumed
//!   dead: the error is marked as a simulated crash, the WAL skips its
//!   heal path (a dead process heals nothing), and every further guarded
//!   operation fails until the harness discards the instance and runs
//!   recovery, exactly like a restart after power loss.

use crate::error::{Result, StoreError};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One guarded I/O operation, identifying *where* in the durability path
/// a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IoOp {
    /// Creating and initializing a fresh WAL segment (magic + fsync).
    WalSegmentCreate,
    /// Writing one record group (symbol defs + batch) to the active segment.
    WalWrite,
    /// Fsyncing the record group just written.
    WalFsync,
    /// The final fsync when a segment is sealed at the rotation threshold.
    WalSeal,
    /// Truncating a torn segment back to its last known-good boundary
    /// (the WAL's self-heal path after a failed append).
    WalTruncate,
    /// Writing the snapshot temp file.
    SnapshotWrite,
    /// Fsyncing the snapshot temp file.
    SnapshotFsync,
    /// Renaming the snapshot temp file into place.
    SnapshotRename,
    /// Fsyncing a directory (making creates/renames/unlinks durable).
    DirSync,
}

impl IoOp {
    /// Every guarded operation, for schedule generators that pick one.
    pub const ALL: [IoOp; 9] = [
        IoOp::WalSegmentCreate,
        IoOp::WalWrite,
        IoOp::WalFsync,
        IoOp::WalSeal,
        IoOp::WalTruncate,
        IoOp::SnapshotWrite,
        IoOp::SnapshotFsync,
        IoOp::SnapshotRename,
        IoOp::DirSync,
    ];

    fn index(self) -> usize {
        match self {
            IoOp::WalSegmentCreate => 0,
            IoOp::WalWrite => 1,
            IoOp::WalFsync => 2,
            IoOp::WalSeal => 3,
            IoOp::WalTruncate => 4,
            IoOp::SnapshotWrite => 5,
            IoOp::SnapshotFsync => 6,
            IoOp::SnapshotRename => 7,
            IoOp::DirSync => 8,
        }
    }
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            IoOp::WalSegmentCreate => "wal-segment-create",
            IoOp::WalWrite => "wal-write",
            IoOp::WalFsync => "wal-fsync",
            IoOp::WalSeal => "wal-seal",
            IoOp::WalTruncate => "wal-truncate",
            IoOp::SnapshotWrite => "snapshot-write",
            IoOp::SnapshotFsync => "snapshot-fsync",
            IoOp::SnapshotRename => "snapshot-rename",
            IoOp::DirSync => "dir-sync",
        };
        f.write_str(name)
    }
}

/// What a policy tells a guarded operation to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Perform the real operation.
    Pass,
    /// Return an error of this kind without touching the file.  Transience
    /// is encoded in the kind: `Interrupted`, `WouldBlock` and `TimedOut`
    /// are retryable (see `StoreError::is_transient`); everything else
    /// is permanent.
    Fail(io::ErrorKind),
    /// Write only the first `keep` bytes of the buffer, then fail
    /// permanently — a torn write the process observes.  On non-write
    /// operations this degenerates to a permanent [`FaultDecision::Fail`].
    ShortWrite {
        /// Bytes of the buffer that reach the file before the error.
        keep: usize,
    },
    /// Write the first `keep` bytes, then simulate process death: the
    /// returned error satisfies `StoreError::is_simulated_crash` and the
    /// policy refuses all further operations until the harness runs
    /// recovery on a fresh instance.
    Crash {
        /// Bytes of the buffer that reach the file before the "crash".
        keep: usize,
    },
}

/// A fault-injection policy consulted before every guarded I/O operation.
///
/// `decide` receives the operation and the buffer length (0 for
/// fsync/rename/truncate) and returns what to do.  Implementations are
/// behind a mutex shared between the store and the test harness, so they
/// may keep mutable schedule state.
pub trait IoPolicy: Send {
    /// Decide the fate of one guarded operation.
    fn decide(&mut self, op: IoOp, len: usize) -> FaultDecision;
}

/// The production policy: every operation passes through untouched.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassThrough;

impl IoPolicy for PassThrough {
    fn decide(&mut self, _op: IoOp, _len: usize) -> FaultDecision {
        FaultDecision::Pass
    }
}

/// A policy handle shareable between a [`crate::Store`] (and its WAL and
/// snapshot writer) and the harness that scripted it.
pub type SharedIoPolicy = Arc<Mutex<dyn IoPolicy>>;

/// A fresh passthrough policy handle (the default for
/// [`crate::Store::open`]).
pub(crate) fn passthrough_policy() -> SharedIoPolicy {
    Arc::new(Mutex::new(PassThrough))
}

/// One planned fault: on the `nth` (0-based) occurrence of `op`, inject
/// `decision` instead of performing the operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedFault {
    /// Which guarded operation to hit.
    pub(crate) op: IoOp,
    /// Which occurrence of that operation (0-based) to hit.
    pub(crate) nth: u64,
    /// What to inject when it fires.
    pub(crate) decision: FaultDecision,
}

/// A deterministic fault schedule: counts occurrences of each guarded
/// operation and fires each `PlannedFault` exactly once when its
/// occurrence comes up.  After a [`FaultDecision::Crash`] fires, every
/// subsequent operation fails (the process is "dead") until the harness
/// abandons the instance.
///
/// Tests keep an `Arc<Mutex<FaultSchedule>>` and hand a coerced clone to
/// [`crate::Store::open_with_policy`], so they can inspect
/// [`FaultSchedule::injected`] and occurrence counts afterwards.
#[derive(Debug, Default)]
pub struct FaultSchedule {
    plan: Vec<(PlannedFault, bool)>,
    seen: [u64; IoOp::ALL.len()],
    injected: u64,
    crashed: bool,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing until faults are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one planned fault.
    pub(crate) fn push(&mut self, fault: PlannedFault) -> &mut Self {
        self.plan.push((fault, false));
        self
    }

    /// Fail the `nth` occurrence of `op` permanently (kind `Other`).
    pub fn fail_nth(&mut self, op: IoOp, nth: u64) -> &mut Self {
        self.push(PlannedFault {
            op,
            nth,
            decision: FaultDecision::Fail(io::ErrorKind::Other),
        })
    }

    /// Fail the `nth` occurrence of `op` transiently (kind `Interrupted`,
    /// retryable by the WAL's heal path).
    pub fn transient_nth(&mut self, op: IoOp, nth: u64) -> &mut Self {
        self.push(PlannedFault {
            op,
            nth,
            decision: FaultDecision::Fail(io::ErrorKind::Interrupted),
        })
    }

    /// Short-write the `nth` occurrence of `op`, keeping `keep` bytes.
    pub fn short_write_nth(&mut self, op: IoOp, nth: u64, keep: usize) -> &mut Self {
        self.push(PlannedFault {
            op,
            nth,
            decision: FaultDecision::ShortWrite { keep },
        })
    }

    /// Crash at the `nth` occurrence of `op` after `keep` bytes.
    pub fn crash_nth(&mut self, op: IoOp, nth: u64, keep: usize) -> &mut Self {
        self.push(PlannedFault {
            op,
            nth,
            decision: FaultDecision::Crash { keep },
        })
    }

    /// How many faults have fired so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Whether a crash fault has fired (the instance must be abandoned).
    pub fn crashed(&self) -> bool {
        self.crashed
    }
}

impl IoPolicy for FaultSchedule {
    fn decide(&mut self, op: IoOp, _len: usize) -> FaultDecision {
        if self.crashed {
            // The simulated process is dead: freeze the on-disk state by
            // refusing every further guarded operation.
            return FaultDecision::Fail(io::ErrorKind::Other);
        }
        let occurrence = self.seen[op.index()];
        self.seen[op.index()] += 1;
        for (fault, fired) in &mut self.plan {
            if !*fired && fault.op == op && fault.nth == occurrence {
                *fired = true;
                self.injected += 1;
                if let FaultDecision::Crash { .. } = fault.decision {
                    self.crashed = true;
                }
                return fault.decision;
            }
        }
        FaultDecision::Pass
    }
}

fn decide(policy: &SharedIoPolicy, op: IoOp, len: usize) -> FaultDecision {
    // A policy poisoned by a panicking test impl still holds valid state
    // (decide mutates counters only); recover it rather than panicking in
    // the durability path.
    match policy.lock() {
        Ok(mut guard) => guard.decide(op, len),
        Err(poisoned) => poisoned.into_inner().decide(op, len),
    }
}

fn injected_error(op: IoOp, kind: io::ErrorKind) -> StoreError {
    StoreError::Io(io::Error::new(kind, format!("injected {op} fault")))
}

/// `write_all` guarded by the policy.
pub(crate) fn guarded_write(
    policy: &SharedIoPolicy,
    op: IoOp,
    file: &mut File,
    bytes: &[u8],
) -> Result<()> {
    match decide(policy, op, bytes.len()) {
        FaultDecision::Pass => {
            file.write_all(bytes)?;
            Ok(())
        }
        FaultDecision::Fail(kind) => Err(injected_error(op, kind)),
        FaultDecision::ShortWrite { keep } => {
            let keep = keep.min(bytes.len());
            file.write_all(&bytes[..keep])?;
            Err(StoreError::Io(io::Error::new(
                io::ErrorKind::WriteZero,
                format!(
                    "injected short write at {op}: {keep} of {} bytes",
                    bytes.len()
                ),
            )))
        }
        FaultDecision::Crash { keep } => {
            let keep = keep.min(bytes.len());
            let _ = file.write_all(&bytes[..keep]);
            Err(StoreError::SimulatedCrash(format!(
                "{op} after {keep} of {} bytes",
                bytes.len()
            )))
        }
    }
}

/// `sync_data` guarded by the policy.
pub(crate) fn guarded_fsync(policy: &SharedIoPolicy, op: IoOp, file: &File) -> Result<()> {
    match decide(policy, op, 0) {
        FaultDecision::Pass => {
            file.sync_data()?;
            Ok(())
        }
        FaultDecision::Fail(kind) => Err(injected_error(op, kind)),
        FaultDecision::ShortWrite { .. } => Err(injected_error(op, io::ErrorKind::Other)),
        FaultDecision::Crash { .. } => {
            // The bytes already written stay in the (simulated) page
            // cache; whether they survive is recovery's problem.
            Err(StoreError::SimulatedCrash(format!("{op}")))
        }
    }
}

/// `set_len` guarded by the policy (the WAL heal path).
pub(crate) fn guarded_truncate(
    policy: &SharedIoPolicy,
    op: IoOp,
    file: &File,
    len: u64,
) -> Result<()> {
    match decide(policy, op, 0) {
        FaultDecision::Pass => {
            file.set_len(len)?;
            Ok(())
        }
        FaultDecision::Fail(kind) => Err(injected_error(op, kind)),
        FaultDecision::ShortWrite { .. } => Err(injected_error(op, io::ErrorKind::Other)),
        FaultDecision::Crash { .. } => Err(StoreError::SimulatedCrash(format!("{op}"))),
    }
}

/// `fs::rename` guarded by the policy.
pub(crate) fn guarded_rename(
    policy: &SharedIoPolicy,
    op: IoOp,
    from: &Path,
    to: &Path,
) -> Result<()> {
    match decide(policy, op, 0) {
        FaultDecision::Pass => {
            fs::rename(from, to)?;
            Ok(())
        }
        FaultDecision::Fail(kind) => Err(injected_error(op, kind)),
        FaultDecision::ShortWrite { .. } => Err(injected_error(op, io::ErrorKind::Other)),
        FaultDecision::Crash { .. } => Err(StoreError::SimulatedCrash(format!("{op}"))),
    }
}

/// Directory fsync guarded by the policy.
pub(crate) fn guarded_sync_dir(policy: &SharedIoPolicy, dir: &Path) -> Result<()> {
    match decide(policy, IoOp::DirSync, 0) {
        FaultDecision::Pass => {
            File::open(dir)?.sync_all()?;
            Ok(())
        }
        FaultDecision::Fail(kind) => Err(injected_error(IoOp::DirSync, kind)),
        FaultDecision::ShortWrite { .. } => {
            Err(injected_error(IoOp::DirSync, io::ErrorKind::Other))
        }
        FaultDecision::Crash { .. } => {
            Err(StoreError::SimulatedCrash(format!("{}", IoOp::DirSync)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_always_passes() {
        let mut p = PassThrough;
        for op in IoOp::ALL {
            assert_eq!(p.decide(op, 123), FaultDecision::Pass);
        }
    }

    #[test]
    fn schedules_fire_on_the_exact_occurrence_and_only_once() {
        let mut s = FaultSchedule::new();
        s.fail_nth(IoOp::WalFsync, 2);
        assert_eq!(s.decide(IoOp::WalFsync, 0), FaultDecision::Pass);
        assert_eq!(s.decide(IoOp::WalWrite, 10), FaultDecision::Pass);
        assert_eq!(s.decide(IoOp::WalFsync, 0), FaultDecision::Pass);
        assert!(matches!(
            s.decide(IoOp::WalFsync, 0),
            FaultDecision::Fail(io::ErrorKind::Other)
        ));
        assert_eq!(s.decide(IoOp::WalFsync, 0), FaultDecision::Pass);
        assert_eq!(s.injected(), 1);
        assert_eq!(s.seen[IoOp::WalFsync.index()], 4);
        assert_eq!(s.seen[IoOp::WalWrite.index()], 1);
    }

    #[test]
    fn a_crash_freezes_the_schedule_until_cleared() {
        let mut s = FaultSchedule::new();
        s.crash_nth(IoOp::WalWrite, 0, 3);
        assert!(matches!(
            s.decide(IoOp::WalWrite, 10),
            FaultDecision::Crash { keep: 3 }
        ));
        assert!(s.crashed());
        // Everything afterwards fails: the process is "dead".
        assert!(matches!(
            s.decide(IoOp::SnapshotRename, 0),
            FaultDecision::Fail(_)
        ));
    }

    #[test]
    fn transient_faults_use_a_retryable_kind() {
        let mut s = FaultSchedule::new();
        s.transient_nth(IoOp::WalWrite, 0);
        let FaultDecision::Fail(kind) = s.decide(IoOp::WalWrite, 1) else {
            panic!("expected a failure decision");
        };
        assert!(StoreError::Io(io::Error::new(kind, "x")).is_transient());
    }
}
