//! Skewed multi-way join workloads.
//!
//! The scaled hospital exercises the chase on the paper's star-shaped
//! rules, whose bodies join on one or two shared variables and behave well
//! under atom-at-a-time hash plans.  The worst cases for such plans are
//! **cyclic** bodies over **skewed** data: in the triangle rule
//! `Tri(x, y, z) :- R(x, y), S(y, z), T(z, x)` a handful of hub nodes with
//! Zipf-distributed degrees make every pairwise intermediate (`R ⋈ S`)
//! quadratic in the hub degree while the triangle count stays small.  This
//! module generates exactly that shape, as the adversarial counterpart the
//! worst-case-optimal join path is measured against:
//!
//! * three binary edge relations `R`, `S`, `T` over a shared node domain,
//!   endpoints drawn from a Zipf(`exponent`) distribution (exponent 0 is
//!   uniform — the control case where hash plans are fine);
//! * a program with the cyclic triangle rule (picked up by the
//!   worst-case-optimal planner) and an acyclic wedge rule (kept on the
//!   hash path), so both engines do real work on the same instance.
//!
//! Generators take explicit seeds; identical scales produce identical
//! instances.

use ontodq_datalog::{parse_program, Program};
use ontodq_relational::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size and skew parameters of a generated triangle workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewedScale {
    /// Number of nodes in the shared domain.
    pub nodes: usize,
    /// Number of edges sampled into each of `R`, `S` and `T` (duplicates
    /// collapse, so the stored relations may be slightly smaller).
    pub edges: usize,
    /// Zipf exponent of the endpoint distribution; `0.0` is uniform,
    /// values around `1.0` give realistic heavy hubs.
    pub exponent: f64,
    /// RNG seed, so workloads are reproducible across runs.
    pub seed: u64,
}

impl SkewedScale {
    /// A small skewed default used by the equivalence tests.
    pub fn small() -> Self {
        Self {
            nodes: 24,
            edges: 160,
            exponent: 1.1,
            seed: 11,
        }
    }

    /// A scale with roughly `edges` tuples per relation and a node domain
    /// sized so hubs stay heavy — used by the join benchmark sweeps.
    pub fn with_edges(edges: usize) -> Self {
        Self {
            nodes: (edges / 6).max(8),
            edges,
            exponent: 1.1,
            seed: 11,
        }
    }

    /// The same scale with uniform (unskewed) endpoints.
    pub fn uniform(mut self) -> Self {
        self.exponent = 0.0;
        self
    }
}

/// A generated skewed-join workload: the edge instance and its program.
#[derive(Debug, Clone)]
pub struct SkewedWorkload {
    /// The edge relations `R`, `S`, `T`.
    pub database: Database,
    /// The triangle + wedge program over the edges.
    pub program: Program,
}

/// Inverse-CDF sampler for the Zipf distribution over `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for weight in &mut cdf {
            *weight /= total;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        // The rand shim only samples integer ranges; map a u64 draw onto
        // the unit interval.
        let u = rng.gen_range(0..u64::MAX) as f64 / u64::MAX as f64;
        self.cdf.partition_point(|&w| w < u).min(self.cdf.len() - 1)
    }
}

/// The program joined over the generated edges: the cyclic triangle rule
/// (the worst-case-optimal planner's target) and an acyclic wedge rule
/// (stays on the hash path under the default planner).
pub(crate) fn skewed_program() -> Program {
    parse_program(
        "Tri(x, y, z) :- R(x, y), S(y, z), T(z, x).\n\
         Wedge(x, z) :- R(x, y), S(y, z).\n",
    )
    .expect("the skewed-join program is well-formed")
}

/// Generate a skewed triangle workload.
pub fn generate_skewed(scale: &SkewedScale) -> SkewedWorkload {
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let zipf = Zipf::new(scale.nodes, scale.exponent);
    let mut database = Database::new();
    for relation in ["R", "S", "T"] {
        for _ in 0..scale.edges {
            let a = zipf.sample(&mut rng);
            let b = zipf.sample(&mut rng);
            database
                .insert_values(relation, [format!("n{a}"), format!("n{b}")])
                .expect("edge relations have a fixed binary schema");
        }
    }
    SkewedWorkload {
        database,
        program: skewed_program(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_chase::{chase, TerminationReason};

    #[test]
    fn generation_is_reproducible() {
        let scale = SkewedScale::small();
        let a = generate_skewed(&scale);
        let b = generate_skewed(&scale);
        for name in ["R", "S", "T"] {
            assert_eq!(
                a.database.relation(name).unwrap().tuples(),
                b.database.relation(name).unwrap().tuples(),
            );
        }
    }

    #[test]
    fn different_seeds_change_the_edges() {
        let scale = SkewedScale::small();
        let a = generate_skewed(&scale);
        let b = generate_skewed(&SkewedScale { seed: 99, ..scale });
        assert_ne!(
            a.database.relation("R").unwrap().tuples(),
            b.database.relation("R").unwrap().tuples(),
        );
    }

    #[test]
    fn zipf_endpoints_are_skewed_and_uniform_is_not() {
        // Large enough that duplicate-collapse on stored edges does not
        // flatten the hub's distinct out-degree.
        let scale = SkewedScale {
            nodes: 100,
            edges: 600,
            exponent: 1.2,
            seed: 11,
        };
        let skewed = generate_skewed(&scale);
        let uniform = generate_skewed(&scale.clone().uniform());
        let max_degree = |w: &SkewedWorkload| {
            let r = w.database.relation("R").unwrap();
            let mut counts = std::collections::HashMap::new();
            for t in r.iter() {
                *counts.entry(t.values()[0]).or_insert(0usize) += 1;
            }
            counts.into_values().max().unwrap_or(0)
        };
        // The hottest hub under Zipf(1.1) is far hotter than under uniform.
        assert!(max_degree(&skewed) > 2 * max_degree(&uniform));
    }

    #[test]
    fn triangle_program_chases_to_fixpoint() {
        let workload = generate_skewed(&SkewedScale::small());
        let result = chase(&workload.program, &workload.database);
        assert_eq!(result.termination, TerminationReason::Fixpoint);
        // Hubs guarantee at least one triangle at this density.
        assert!(!result.database.relation("Tri").unwrap().is_empty());
        assert!(!result.database.relation("Wedge").unwrap().is_empty());
    }
}
