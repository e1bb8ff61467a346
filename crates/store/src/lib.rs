//! # ontodq-store
//!
//! Durable persistence for the `ontodq` quality-assessment service: a
//! write-ahead log of applied update batches, periodic snapshots of each
//! context's resumable chase state, crash recovery with torn-tail healing,
//! and log compaction.  `std`-only, like the rest of the workspace.
//!
//! Before this crate every byte of a running `ontodq-server` lived in
//! memory: a restart lost all registered contexts, applied batches and
//! chase watermarks and forced a from-scratch re-chase.  The store makes
//! restart an **incremental** operation:
//!
//! ```text
//! restart = load snapshot (instance + chased state + per-rule watermarks)
//!         + replay the WAL tail through the existing chase_incremental path
//! ```
//!
//! The pieces:
//!
//! * `codec` — an **interner-aware** binary codec.  Global
//!   [`ontodq_relational::Sym`] ids are process-local, so every file carries
//!   its own local symbol dictionary and data records reference strings by
//!   file-local id; replay re-interns each distinct string once per file.
//!   Databases serialize with their epoch and per-row insert stamps, so the
//!   delta structure the resumable chase depends on survives exactly.
//! * `wal` — an append-only, CRC32-checked, length-prefixed log of
//!   applied batches: one fsynced record group per `!flush`, segment
//!   rotation at a size threshold, and recovery that truncates a torn tail
//!   record and replays the committed prefix deterministically.
//! * `snapshot` — atomic per-context snapshots
//!   ([`PersistedContext`]): the instance under assessment, the chased
//!   contextual instance, and the [`ontodq_chase::ChaseState`] per-rule
//!   epoch watermarks and null counter.
//! * `io` — deterministic fault injection: an [`IoPolicy`] consulted at
//!   every durability edge (WAL writes/fsyncs/rotation, snapshot
//!   temp+rename), passthrough in production, a seeded [`FaultSchedule`]
//!   of injected errors, short writes and crash points under test.
//! * `store` — the [`Store`]: one data directory tying both together,
//!   with [`Store::recover`] returning each context's newest snapshot plus
//!   exactly the committed batches newer than it, and [`Store::compact`]
//!   deleting segments a fresh round of snapshots has superseded.
//!
//! See `docs/persistence.md` for the on-disk format specification and the
//! recovery algorithm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Durability code must degrade through typed errors, never panic on a
// fallible operation; tests are free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod codec;
mod error;
mod io;
mod snapshot;
mod store;
mod wal;

pub use error::{Result, StoreError};
pub use io::{FaultDecision, FaultSchedule, IoOp, IoPolicy, SharedIoPolicy};
pub use snapshot::{ContextImage, PersistedContext};
pub use store::{Recovery, Store, StoreConfig, StoreMetrics};
pub use wal::{BatchKind, ReplayedBatch, WalStats};

#[cfg(test)]
mod send_sync_audit {
    use super::*;

    /// The server shares the store across session threads behind a mutex;
    /// everything must cross threads.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn store_types_are_send_and_sync() {
        assert_send_sync::<Store>();
        assert_send_sync::<StoreConfig>();
        assert_send_sync::<PersistedContext>();
        assert_send_sync::<Recovery>();
        assert_send_sync::<WalStats>();
        assert_send_sync::<StoreError>();
    }
}
