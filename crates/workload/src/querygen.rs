//! Synthetic query workloads over the scaled hospital.
//!
//! The demand-driven query path (`ontodq_chase::ChaseEngine::chase_for_query`)
//! wins exactly where a query is *selective* — the doctor asking for one
//! patient's measurements touches a sliver of the contextual ontology, while
//! a full scan demands everything.  This module generates query workloads
//! that sweep that selectivity axis over a [`crate::HospitalScale`], so
//! `experiments query_perf` can chart demand-driven vs. full-materialization
//! latency across the spectrum (and the integration suite can assert answer
//! equality on randomized query sets).
//!
//! All query texts use the server protocol's bare-body spelling, so the same
//! strings drive `?q-` / `?d-` sessions and the in-process
//! `ontodq_core::quality_answers_on_demand` path.

use crate::scaled_hospital::HospitalScale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// How much of the instance a query class touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Selectivity {
    /// A point lookup — one patient's measurements (the doctor's query
    /// shape): demand is a single magic seed.
    Point,
    /// A narrow slice — one patient *in the quality unit*: demand binds two
    /// positions of the generated `PatientUnit` data.
    Narrow,
    /// A broad scan — every measurement (or every patient of a unit): no
    /// usable binding, relevance restriction only.
    Broad,
}

impl fmt::Display for Selectivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Selectivity::Point => write!(f, "point"),
            Selectivity::Narrow => write!(f, "narrow"),
            Selectivity::Broad => write!(f, "broad"),
        }
    }
}

/// One generated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Short human-readable label (used in benchmark tables/JSON).
    pub label: String,
    /// The query body in protocol spelling (no trailing period needed).
    pub text: String,
    /// The selectivity class the query was generated for.
    pub class: Selectivity,
}

/// Generate a selectivity-sweeping query workload over `scale`:
/// `per_class` point lookups and narrow slices (patients drawn
/// deterministically from `seed`) plus the broad scans.  Queries reference
/// only relations/members every scaled-hospital instance has, so the same
/// workload is valid across scales.
pub fn generate_queries(scale: &HospitalScale, per_class: usize, seed: u64) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::new();
    let patients = scale.patients.max(1);
    for i in 0..per_class {
        let patient = rng.gen_range(0..patients);
        queries.push(QuerySpec {
            label: format!("point-{i}-patient-{patient}"),
            text: format!("Measurements(t, p, v), p = \"Patient_{patient}\""),
            class: Selectivity::Point,
        });
    }
    for i in 0..per_class {
        let patient = rng.gen_range(0..patients);
        queries.push(QuerySpec {
            label: format!("narrow-{i}-patient-{patient}"),
            text: format!("PatientUnit(Unit_0, d, p), p = \"Patient_{patient}\""),
            class: Selectivity::Narrow,
        });
    }
    queries.push(QuerySpec {
        label: "broad-measurements".to_string(),
        text: "Measurements(t, p, v)".to_string(),
        class: Selectivity::Broad,
    });
    queries.push(QuerySpec {
        label: "broad-quality-unit".to_string(),
        text: "PatientUnit(Unit_0, d, p)".to_string(),
        class: Selectivity::Broad,
    });
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let scale = HospitalScale::small();
        let a = generate_queries(&scale, 3, 7);
        let b = generate_queries(&scale, 3, 7);
        assert_eq!(a, b);
        let c = generate_queries(&scale, 3, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn all_classes_are_represented() {
        let scale = HospitalScale::small();
        let queries = generate_queries(&scale, 2, 7);
        assert_eq!(queries.len(), 2 + 2 + 2);
        for class in [Selectivity::Point, Selectivity::Narrow, Selectivity::Broad] {
            assert!(queries.iter().any(|q| q.class == class), "missing {class}");
        }
    }

    #[test]
    fn query_texts_reference_existing_patients() {
        let scale = HospitalScale::small();
        for q in generate_queries(&scale, 4, 99) {
            if let Some(start) = q.text.find("Patient_") {
                let digits: String = q.text[start + "Patient_".len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect();
                let id: usize = digits.parse().unwrap();
                assert!(id < scale.patients, "{} out of range", q.text);
            }
        }
    }
}
