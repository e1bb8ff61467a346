//! Ready-made contexts for the paper's running example.
//!
//! [`hospital_context`] wires the hospital ontology
//! (`ontodq_mdm::fixtures::hospital`) into a full quality-assessment context,
//! exactly as Example 7 describes:
//!
//! * `Measurements` is mapped into the context as the copy `Measurements_c`;
//! * the quality predicates `TakenByNurse` and `TakenWithTherm` are defined
//!   over the contextual copy, the categorical relations and the `DayTime`
//!   parent–child predicate, encoding the doctor's expectations (certified
//!   nurse, brand-B1 thermometer — the institutional guideline ties B1 to
//!   the standard care unit);
//! * the expanded contextual relation `MeasurementsExt` (the paper's
//!   `Measurements'`) joins the copy with the quality predicates;
//! * the quality version `Measurements_q` selects the tuples that satisfy
//!   the quality conditions.

use crate::context::{Context, ContextBuilder};
use ontodq_mdm::fixtures::hospital;
use ontodq_qa::ConjunctiveQuery;

/// The context of Example 7, built over the hospital ontology.
pub fn hospital_context() -> Context {
    hospital_context_builder()
        .build()
        .expect("the Example 7 context is well-formed")
}

/// The builder of [`hospital_context`], for callers that add external
/// sources before building.
pub fn hospital_context_builder() -> ContextBuilder {
    Context::builder("hospital-quality-context")
        .ontology(hospital::ontology())
        .copy_relation("Measurements")
        .quality_predicate(
            "TakenByNurse",
            "each measurement is associated with the nurse on duty in the patient's unit and her certification status",
            &[
                "TakenByNurse(t, p, n, y) :- WorkingSchedules(u, d, n, y), DayTime(d, t), PatientUnit(u, d, p).",
            ],
        )
        .quality_predicate(
            "TakenWithTherm",
            "temperature measurements of patients in the standard care unit are taken with thermometers of brand B1 (institutional guideline)",
            &[
                "TakenWithTherm(t, p, B1) :- PatientUnit(Standard, d, p), DayTime(d, t).",
            ],
        )
        .contextual_rule(
            "MeasurementsExt(t, p, v, y, b) :- Measurements_c(t, p, v), TakenByNurse(t, p, n, y), TakenWithTherm(t, p, b).",
        )
        .quality_version(
            "Measurements",
            &[
                "Measurements_q(t, p, v) :- MeasurementsExt(t, p, v, y, b), y = \"cert.\", b = B1.",
            ],
        )
}

/// The doctor's query of Examples 1 and 7: "the body temperatures of Tom
/// Waits on September 5 taken around noon" (the quality conditions —
/// certified nurse, brand-B1 thermometer — live in the context, not in the
/// query).
pub fn doctors_query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse(
        "Q(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\", t >= @Sep/5-11:45, t <= @Sep/5-12:15.",
    )
    .expect("the doctor's query parses")
}

/// The downward-navigation query of Examples 2 and 5: "on which dates does
/// Mark have a shift in ward W2?".
pub fn marks_shift_query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("Q(d) :- Shifts(W2, d, \"Mark\", s).").expect("the shift query parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hospital_context_is_well_formed() {
        let ctx = hospital_context();
        assert_eq!(ctx.mappings.len(), 1);
        assert_eq!(ctx.quality_predicates.len(), 2);
        assert_eq!(ctx.quality_versions.len(), 1);
        assert!(ctx.ontology.validate().is_ok());
        // The quality predicates carry their documentation.
        assert!(ctx.quality_predicates[0].description.contains("nurse"));
        assert!(ctx.quality_predicates[1].description.contains("B1"));
    }

    #[test]
    fn canned_queries_parse_with_expected_shapes() {
        let dq = doctors_query();
        assert_eq!(dq.arity(), 3);
        assert_eq!(dq.body.comparisons.len(), 3);
        let mq = marks_shift_query();
        assert_eq!(mq.arity(), 1);
        assert_eq!(mq.predicates(), ["Shifts".to_string()].into());
    }
}
