//! # ontodq-mdm
//!
//! The extended Hurtado–Mendelzon multidimensional model of `ontodq`, the
//! Rust reproduction of *"Extending Contexts with Ontologies for
//! Multidimensional Data Quality Assessment"* (Milani, Bertossi, Ariyan;
//! ICDE 2014).
//!
//! The crate provides:
//!
//! * [`DimensionSchema`] / [`DimensionInstance`] — category DAGs, members,
//!   member-level roll-ups, strictness and homogeneity checks (the classical
//!   HM model),
//! * [`CategoricalRelationSchema`] — the paper's extension: relations whose
//!   categorical attributes are linked to categories at arbitrary levels of
//!   one or more dimensions,
//! * [`MdOntology`] — the multidimensional ontology `M = (S_M, D_M, Σ_M)`
//!   bundling dimensions, categorical relations with data, dimensional rules
//!   (forms (4)/(10)), dimensional EGDs (form (2)) and negative constraints
//!   (form (3)),
//! * `compile` — the translation into Datalog± (category predicates,
//!   parent–child predicates, referential constraints of form (1)) consumed
//!   by `ontodq-chase` and `ontodq-qa`,
//! * `navigation` — upward/downward direction analysis of dimensional
//!   rules, used to decide whether FO query rewriting applies,
//! * [`fixtures::hospital`] — the paper's running example, verbatim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod categorical;
mod compile;
mod dimension_instance;
mod dimension_schema;
mod error;
pub mod fixtures;
mod navigation;
mod ontology;

pub use categorical::{CategoricalAttribute, CategoricalRelationSchema};
pub use compile::{compile, CompiledOntology};
pub use dimension_instance::DimensionInstance;
pub use dimension_schema::DimensionSchema;
pub use error::MdError;
pub use navigation::{
    directions, is_upward_only, report as navigation_report, NavigationDirection, NavigationReport,
};
pub use ontology::{MdOntology, OntologySummary};
