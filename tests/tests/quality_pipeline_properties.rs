//! Property-based integration tests of the quality-assessment pipeline over
//! randomly scaled hospital workloads.

use ontodq_core::assess;
use ontodq_core::{plain_answers, quality_answers};
use ontodq_integration_tests::query;
use ontodq_workload::{generate, HospitalScale};
use proptest::prelude::*;

fn arb_scale() -> impl Strategy<Value = HospitalScale> {
    (
        1usize..4,
        1usize..4,
        2usize..8,
        2usize..8,
        5usize..60,
        0u64..1000,
    )
        .prop_map(
            |(units, wards, patients, days, measurements, seed)| HospitalScale {
                units,
                wards_per_unit: wards,
                patients,
                days,
                measurements,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The quality version of a filtering context is always a subset of the
    /// original instance.
    #[test]
    fn quality_version_is_subset_of_original(scale in arb_scale()) {
        let workload = generate(&scale);
        let context = workload.context();
        let result = assess(&context, &workload.instance);
        let original = workload.instance.relation("Measurements").unwrap();
        for tuple in result.quality_tuples("Measurements") {
            prop_assert!(original.contains(&tuple));
        }
        let metrics = result.metrics.relations.get("Measurements").unwrap();
        prop_assert_eq!(metrics.added, 0);
        prop_assert_eq!(metrics.retained, metrics.quality_count);
        prop_assert!(metrics.retention_ratio() >= 0.0 && metrics.retention_ratio() <= 1.0);
    }

    /// Quality answers to a monotone query are a subset of the plain answers.
    #[test]
    fn quality_answers_are_subset_of_plain_answers(scale in arb_scale()) {
        let workload = generate(&scale);
        let context = workload.context();
        let result = assess(&context, &workload.instance);
        let q = query("Q(t, p, v) :- Measurements(t, p, v).");
        let plain = plain_answers(&workload.instance, &q);
        let quality = quality_answers(&context, &result, &q);
        prop_assert!(quality.len() <= plain.len());
        for tuple in quality.iter() {
            prop_assert!(plain.contains(tuple));
        }
    }

    /// Assessment is deterministic: the same workload yields the same
    /// quality version and metrics.
    #[test]
    fn assessment_is_deterministic(scale in arb_scale()) {
        let workload = generate(&scale);
        let context = workload.context();
        let first = assess(&context, &workload.instance);
        let second = assess(&context, &workload.instance);
        prop_assert_eq!(
            first.quality_tuples("Measurements"),
            second.quality_tuples("Measurements")
        );
        prop_assert_eq!(first.metrics, second.metrics);
    }

    /// The generated workloads always compile into weakly-sticky programs
    /// with terminating chases (the paper's Section III claim, at scale).
    #[test]
    fn scaled_ontologies_stay_weakly_sticky(scale in arb_scale()) {
        let workload = generate(&scale);
        let compiled = ontodq_mdm::compile(&workload.ontology);
        let report = ontodq_datalog::classify(&compiled.program);
        prop_assert!(report.weakly_sticky);
        prop_assert!(report.weakly_acyclic);
        let chased = ontodq_chase::chase(&compiled.program, &compiled.database);
        prop_assert_eq!(chased.termination, ontodq_chase::TerminationReason::Fixpoint);
    }
}
