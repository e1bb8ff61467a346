//! # ontodq-server
//!
//! A concurrent quality-assessment **service** over the `ontodq` pipeline:
//! the paper's long-lived context ontology, served.
//!
//! The batch pipeline (`ontodq-core`) re-chases from scratch on every call;
//! this crate turns the chased contextual instance into an *incrementally
//! maintained, served* artifact:
//!
//! * [`QualityService`] registers contexts and keeps each context's chased
//!   instance as an immutable [`Snapshot`] behind an `Arc` — reads clone the
//!   `Arc` and evaluate lock-free, writes fold fact batches in with an
//!   **incremental re-chase** ([`ontodq_chase::ChaseEngine::resume`], which
//!   resumes from the per-rule epoch watermarks of PR 1's delta machinery)
//!   and atomically swap the snapshot (snapshot isolation: readers never see
//!   a half-applied batch, writers never block readers);
//! * a [`QueryCache`] shared across the worker pool memoizes parsed and
//!   quality-rewritten queries per `(context, query)` and their answers per
//!   snapshot version (epoch-based invalidation);
//! * a fixed [`WorkerPool`] (`std::thread` + channel job queue) runs query
//!   evaluation, so parallelism is a deployment knob independent of the
//!   number of connections;
//! * a thread-per-connection TCP / stdin **line protocol**
//!   ([`serve_session`]: `+fact.`, `?- body.`, `?q- body.`, `?d- body.`,
//!   `!commands`) exposes the whole paper pipeline — contexts, chase,
//!   certain answers, quality versions, demand-driven magic-set answering —
//!   as a long-running server (`ontodq-server` binary; see
//!   `docs/protocol.md`);
//! * optional **durability** through `ontodq-store`
//!   ([`QualityService::with_store`], `--data-dir`): applied batches are
//!   appended to a CRC-checked write-ahead log inside the writer's flush
//!   path, `!save` snapshots every context (instance + chased state +
//!   per-rule epoch watermarks) and compacts the log, and startup recovery
//!   ([`QualityService::register_recovered`]) restores snapshot + WAL tail
//!   through the incremental chase instead of re-chasing from scratch (see
//!   `docs/persistence.md`).
//!
//! Everything is `std`-only: no external crates.
//!
//! ```
//! use ontodq_core::scenarios;
//! use ontodq_mdm::fixtures::hospital;
//! use ontodq_server::QualityService;
//!
//! let service = QualityService::new();
//! service
//!     .register_context(
//!         "hospital",
//!         scenarios::hospital_context(),
//!         hospital::measurements_database(),
//!     )
//!     .unwrap();
//!
//! // Lock-free read: Tom Waits' quality measurements (Table II).
//! let response = service
//!     .quality_answers("hospital", "Measurements(t, p, v), p = \"Tom Waits\"")
//!     .unwrap();
//! assert_eq!(response.answers.len(), 2);
//!
//! // A write batch: incremental re-chase + atomic snapshot swap.
//! use ontodq_relational::{Tuple, Value};
//! let report = service
//!     .insert_facts(
//!         "hospital",
//!         vec![(
//!             "Measurements".to_string(),
//!             Tuple::new(vec![
//!                 Value::parse_time("Sep/6-11:05").unwrap(),
//!                 Value::str("Lou Reed"),
//!                 Value::double(39.9),
//!             ]),
//!         )],
//!     )
//!     .unwrap();
//! assert_eq!(report.version, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Session and writer paths must degrade through typed errors, never panic
// on a fallible operation; tests are free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cache;
mod error;
mod pool;
mod protocol;
mod service;
mod snapshot;

pub use cache::{parse_query_text, CacheStats, QueryCache, QueryKind};
pub use error::ServiceError;
pub use pool::WorkerPool;
pub use protocol::{
    parse_facts, parse_request, parse_retractions, serve_session, serve_session_with, Request,
    SessionConfig,
};
pub use service::{
    Health, HealthReport, PersistReport, QualityService, QueryResponse, RecoverySummary,
    RetractReport, RetractionCounters, UpdateReport,
};
pub use snapshot::Snapshot;

#[cfg(test)]
mod send_sync_audit {
    use super::*;

    /// The snapshot-sharing design rests on these types crossing threads;
    /// compile-time assertions so a regression (an `Rc`, a raw pointer, a
    /// non-`Sync` cell) fails loudly here rather than deep in the server.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_types_are_send_and_sync() {
        assert_send_sync::<QualityService>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<QueryCache>();
        assert_send_sync::<WorkerPool>();
        assert_send_sync::<ServiceError>();
        assert_send_sync::<ontodq_relational::Database>();
        assert_send_sync::<ontodq_qa::AnswerSet>();
        assert_send_sync::<ontodq_qa::ConjunctiveQuery>();
        assert_send_sync::<ontodq_chase::ChaseState>();
        assert_send_sync::<ontodq_core::ResumableAssessment>();
    }
}
