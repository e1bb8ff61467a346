//! # ontodq-obs
//!
//! The workspace's observability layer, `std`-only like everything else:
//!
//! * a **clock seam** ([`Clock`], [`SharedClock`]; [`monotonic`] for
//!   production, [`frozen`] for replay) — every latency measurement and
//!   `micros=` response field reads time through an injected clock, so
//!   deterministic tests and the record/replay harness swap in a frozen
//!   clock and get byte-identical output with no masking;
//! * **lock-free instruments** ([`Counter`], [`Gauge`], [`Histogram`] with
//!   `p95`/`max` readout over fixed exponential buckets);
//! * a **[`Registry`]** mapping stable metric names (plus label sets) to
//!   instruments and rendering the whole state in the Prometheus text
//!   exposition format (the server's `!metrics` command);
//! * a **span ring** ([`SpanLog`], [`SpanRecord`]) — a bounded buffer of
//!   recent measured spans, backing the server's slow-query log (`!slow`).
//!
//! See `docs/observability.md` for the metric name inventory and the
//! threading of this crate through chase, store and server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod clock;
mod metrics;
mod trace;

pub use clock::{frozen, monotonic, Clock, SharedClock};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{SpanLog, SpanRecord};
