//! # ontodq-workload
//!
//! Synthetic workload generation for the `ontodq` benchmark harness.
//!
//! The paper evaluates its proposal on a running example only; to validate
//! its complexity claims empirically this crate provides:
//!
//! * `dimgen` — synthetic dimensions with configurable depth and fan-out
//!   (for the Fig. 1 navigation sweeps),
//! * `scaled_hospital` — a size-parameterized version of the hospital
//!   scenario (dimensions, categorical data, a `Measurements` instance under
//!   assessment, and the Example 7 quality context), used by the
//!   data-complexity and end-to-end assessment benchmarks,
//! * `querygen` — selectivity-sweeping query workloads over the scaled
//!   hospital (point lookups like the doctor's query vs. broad scans), for
//!   the demand-driven vs. full-materialization comparison,
//! * `corrections` — deterministic insert/retract interleavings over the
//!   scaled hospital, for the delete-and-rederive (`retract_bench`)
//!   comparison and the retraction equivalence suite,
//! * `skewed` — Zipf-skewed cyclic triangle workloads, the adversarial
//!   case for atom-at-a-time join plans and the benchmark target of the
//!   worst-case-optimal join path.
//!
//! All generators take explicit seeds so benchmark workloads are
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod corrections;
mod dimgen;
mod querygen;
mod scaled_hospital;
mod skewed;

pub use corrections::{generate_corrections, CorrectionOp, CorrectionScale, CorrectionWorkload};
pub use dimgen::{generate_linear_dimension, DimGenError, DimensionParams};
pub use querygen::{generate_queries, QuerySpec, Selectivity};
pub use scaled_hospital::{generate, HospitalScale, ScaledHospital};
pub use skewed::{generate_skewed, SkewedScale, SkewedWorkload};
