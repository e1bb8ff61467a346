//! # ontodq-core
//!
//! Ontological multidimensional contexts for data quality assessment — the
//! primary contribution of *"Extending Contexts with Ontologies for
//! Multidimensional Data Quality Assessment"* (Milani, Bertossi, Ariyan;
//! ICDE 2014), Section V and Fig. 2.
//!
//! An instance `D` under quality assessment is mapped into a [`Context`]
//! that bundles contextual copies of `D`'s relations, a multidimensional
//! ontology (`ontodq-mdm`), quality predicates, quality-version definitions
//! and external sources.  [`assess`] compiles everything into a single
//! Datalog± program, chases it (`ontodq-chase`), and extracts the quality
//! versions `D^q`; [`quality_answers`] rewrites queries over the
//! original relations into queries over the quality versions — the paper's
//! *quality query answering*.
//!
//! ```
//! use ontodq_core::{assess, plain_answers, quality_answers, scenarios};
//! use ontodq_mdm::fixtures::hospital;
//!
//! // The paper's running example end to end: Table I in, Table II out.
//! let context = scenarios::hospital_context();
//! let instance = hospital::measurements_database();
//! let assessment = assess(&context, &instance);
//!
//! let query = scenarios::doctors_query();
//! let quality = quality_answers(&context, &assessment, &query);
//! assert_eq!(quality.len(), 1); // the Sep/5-12:10 measurement is of quality
//! assert!(plain_answers(&instance, &query).len() >= quality.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod assessment;
mod clean_query;
mod context;
mod metrics;
pub mod scenarios;

pub use assessment::{
    assess, compile_context, lint_context, AssessmentResult, BatchOutcome, ResumableAssessment,
};
pub use clean_query::{
    plain_answers, quality_answers, quality_answers_on_demand, rewrite_to_quality,
};
pub use context::{Context, ContextBuilder, ContextError, QualityPredicate};
pub use metrics::{QualityMetrics, RelationQuality};
