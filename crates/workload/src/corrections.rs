//! Correction workloads: deterministic insert/retract interleavings.
//!
//! The paper's assessment workflow is dominated by *corrections* — a
//! quality version changes when bad source facts are withdrawn, not only
//! when new readings arrive.  This module generates reproducible streams of
//! insert and retract batches over the scaled hospital's `Measurements`
//! relation, for the delete-and-rederive benchmarks (`retract_bench`) and
//! the retraction equivalence suite.
//!
//! Invariants the generator maintains:
//!
//! * every retract batch targets facts that are **live** at that point of
//!   the stream (part of the base instance or inserted earlier and not yet
//!   retracted), so each retraction exercises the cascade path rather than
//!   degenerating to a no-op;
//! * generated facts are distinct — an insert never re-adds a live fact —
//!   so applying the stream to a set-semantics database is unambiguous;
//! * the whole stream is a pure function of [`CorrectionScale`] (explicit
//!   seed), so benchmark runs and test failures reproduce exactly.

use crate::scaled_hospital::{generate, HospitalScale, ScaledHospital};
use ontodq_relational::{Database, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One step of a correction workload: one batch to apply.
#[derive(Debug, Clone, PartialEq)]
pub enum CorrectionOp {
    /// Insert these facts as one batch (incremental re-chase).
    Insert(Vec<(String, Tuple)>),
    /// Retract these facts as one delete-and-rederive batch.
    Retract(Vec<(String, Tuple)>),
}

/// Size and shape parameters of a correction workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectionScale {
    /// The underlying scaled hospital.
    pub hospital: HospitalScale,
    /// Number of interleaved batches in the stream.
    pub batches: usize,
    /// Facts per batch.
    pub batch_size: usize,
    /// Percentage (0–100) of batches that are retractions.
    pub retract_percent: u32,
    /// RNG seed for the interleaving (independent of the hospital's seed).
    pub seed: u64,
}

impl CorrectionScale {
    /// A small default: 12 batches of 4 facts, 50% retractions.
    pub fn small() -> Self {
        Self {
            hospital: HospitalScale::small(),
            batches: 12,
            batch_size: 4,
            retract_percent: 50,
            seed: 11,
        }
    }
}

/// A generated correction workload: a base hospital plus an ordered stream
/// of insert/retract batches over its `Measurements` relation.
#[derive(Debug, Clone)]
pub struct CorrectionWorkload {
    /// The base scaled hospital (ontology, context shape, initial
    /// instance).
    pub base: ScaledHospital,
    /// The correction stream, in application order.
    pub ops: Vec<CorrectionOp>,
}

impl CorrectionWorkload {
    /// The extensional instance that survives applying every op in order:
    /// the base `Measurements` plus all inserted, minus all retracted
    /// facts.  A from-scratch chase of this instance is the reference
    /// answer the delete-and-rederive path must reproduce.
    pub fn surviving_instance(&self) -> Database {
        let mut instance = self.base.instance.clone();
        for op in &self.ops {
            match op {
                CorrectionOp::Insert(facts) => {
                    for (relation, tuple) in facts {
                        let _ = instance.insert(relation, tuple.clone());
                    }
                }
                CorrectionOp::Retract(facts) => {
                    for (relation, tuple) in facts {
                        instance.delete(relation, tuple);
                    }
                }
            }
        }
        instance
    }
}

fn fresh_measurement(rng: &mut StdRng, scale: &HospitalScale, serial: usize) -> Tuple {
    let day = rng.gen_range(0..scale.days.max(1));
    // Off-grid minutes, so generated readings never collide with the base
    // instance (whose times sit on the 9/12/15/18 o'clock grid).
    let minute = 10 * 60 + (serial % 120) as i64;
    let patient = rng.gen_range(0..scale.patients.max(1));
    let temperature = 35.0 + rng.gen_range(0..60) as f64 / 10.0;
    Tuple::new(vec![
        Value::time((day as i64) * 24 * 60 + minute),
        Value::str(format!("Patient_{patient}")),
        Value::double(temperature),
    ])
}

/// Generate a correction workload.
pub fn generate_corrections(scale: &CorrectionScale) -> CorrectionWorkload {
    let base = generate(&scale.hospital);
    let mut rng = StdRng::seed_from_u64(scale.seed);

    // The live pool: facts a retract batch may legally target.
    let mut pool: Vec<Tuple> = base
        .instance
        .relation("Measurements")
        .map(|r| r.iter().collect())
        .unwrap_or_default();
    let mut live: HashSet<Tuple> = pool.iter().cloned().collect();

    let mut serial = 0usize;
    let mut ops = Vec::with_capacity(scale.batches);
    for _ in 0..scale.batches {
        let retract = rng.gen_range(0..100) < scale.retract_percent && !pool.is_empty();
        if retract {
            let count = scale.batch_size.min(pool.len());
            let mut facts = Vec::with_capacity(count);
            for _ in 0..count {
                let index = rng.gen_range(0..pool.len());
                let tuple = pool.swap_remove(index);
                live.remove(&tuple);
                facts.push(("Measurements".to_string(), tuple));
            }
            ops.push(CorrectionOp::Retract(facts));
        } else {
            let mut facts = Vec::with_capacity(scale.batch_size);
            while facts.len() < scale.batch_size {
                let tuple = fresh_measurement(&mut rng, &scale.hospital, serial);
                serial += 1;
                if live.insert(tuple.clone()) {
                    pool.push(tuple.clone());
                    facts.push(("Measurements".to_string(), tuple));
                }
            }
            ops.push(CorrectionOp::Insert(facts));
        }
    }

    CorrectionWorkload { base, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_streams_are_reproducible() {
        let scale = CorrectionScale::small();
        let a = generate_corrections(&scale);
        let b = generate_corrections(&scale);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.ops.len(), scale.batches);
    }

    #[test]
    fn streams_mix_inserts_and_retractions() {
        let workload = generate_corrections(&CorrectionScale::small());
        let retracts = workload
            .ops
            .iter()
            .filter(|op| matches!(op, CorrectionOp::Retract(_)))
            .count();
        assert!(retracts > 0, "no retraction batches generated");
        assert!(retracts < workload.ops.len(), "no insert batches generated");
    }

    /// Every retract batch targets a fact that is live at that point of the
    /// stream — replaying onto a database must delete successfully every
    /// time.
    #[test]
    fn retractions_always_target_live_facts() {
        let workload = generate_corrections(&CorrectionScale::small());
        let mut instance = workload.base.instance.clone();
        for op in &workload.ops {
            match op {
                CorrectionOp::Insert(facts) => {
                    for (relation, tuple) in facts {
                        assert!(
                            instance.insert(relation, tuple.clone()).unwrap(),
                            "insert of a duplicate fact"
                        );
                    }
                }
                CorrectionOp::Retract(facts) => {
                    for (relation, tuple) in facts {
                        assert!(instance.delete(relation, tuple), "retract of a dead fact");
                    }
                }
            }
        }
        let surviving = workload.surviving_instance();
        assert_eq!(
            surviving.relation("Measurements").unwrap().len(),
            instance.relation("Measurements").unwrap().len()
        );
    }

    #[test]
    fn different_seeds_change_the_interleaving() {
        let mut scale = CorrectionScale::small();
        let a = generate_corrections(&scale);
        scale.seed = 99;
        let b = generate_corrections(&scale);
        assert_ne!(a.ops, b.ops);
    }
}
