//! # ontodq-bench
//!
//! Benchmark harness for the `ontodq` reproduction of *"Extending Contexts
//! with Ontologies for Multidimensional Data Quality Assessment"*.
//!
//! The paper's evaluation consists of a running example (Tables I–V,
//! Figures 1–2) and complexity claims.  This crate regenerates all of them:
//!
//! * the `experiments` binary (`cargo run --release -p ontodq-bench --bin
//!   experiments`) prints the reproduced tables and figure summaries as
//!   markdown — the source of `EXPERIMENTS.md`;
//! * the Criterion benches (`cargo bench`) measure the moving parts: quality
//!   assessment (Tables I/II, Fig. 2), dimensional navigation (Tables III–V,
//!   Fig. 1), data-complexity scaling, FO rewriting vs. chase, and the
//!   syntactic class analyses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod report;

pub use report::{fmt_duration, MarkdownTable};

use ontodq_mdm::fixtures::hospital;
use ontodq_mdm::{compile, CompiledOntology};

/// The compiled hospital ontology used by several benches.
pub fn compiled_hospital() -> CompiledOntology {
    compile(&hospital::ontology())
}

/// The compiled hospital ontology including the form-(10) discharge rule.
pub fn compiled_hospital_with_discharge() -> CompiledOntology {
    compile(&hospital::ontology_with_discharge_rule())
}

/// The hospital ontology restricted to the upward rule (7) — the fragment on
/// which FO rewriting applies.
pub fn upward_only_hospital() -> ontodq_mdm::MdOntology {
    let mut o = ontodq_mdm::MdOntology::new("hospital-upward");
    o.add_dimension(hospital::hospital_dimension());
    o.add_dimension(hospital::time_dimension());
    for schema in hospital::categorical_schemas() {
        o.add_relation(schema);
    }
    for relation in hospital::ontology().data().relations() {
        for tuple in relation.iter() {
            o.add_tuple(relation.name(), tuple.values().to_vec())
                .unwrap();
        }
    }
    o.add_rule(hospital::patient_unit_rule());
    o
}
