//! Clean (quality) query answering — the paper's Section V, Example 7.
//!
//! A query `Q` posed over the original relations `S_i` is rewritten into
//! `Q^q` by replacing every occurrence of an assessed relation with its
//! quality version `S_i^q`; the rewritten query is answered over the
//! assessed contextual instance.  The answers are the *quality answers* to
//! `Q`: the answers supported by data that meets the context's quality
//! requirements.

use crate::assessment::AssessmentResult;
use crate::context::Context;
use ontodq_datalog::{Atom, Conjunction};
use ontodq_qa::{AnswerSet, ConjunctiveQuery};
use ontodq_relational::Database;

/// Rewrite a query over original relations into one over quality versions.
///
/// Only relations with a quality-version definition in the context are
/// renamed; other predicates (contextual predicates, categorical relations,
/// parent–child predicates) are left untouched, so mixed queries are allowed.
pub fn rewrite_to_quality(context: &Context, query: &ConjunctiveQuery) -> ConjunctiveQuery {
    let rename = |atom: &Atom| -> Atom {
        if context.quality_versions.contains_key(&atom.predicate) {
            Atom::new(context.quality_name_of(&atom.predicate), atom.terms.clone())
        } else {
            atom.clone()
        }
    };
    let body = Conjunction {
        atoms: query.body.atoms.iter().map(rename).collect(),
        negated: query.body.negated.iter().map(rename).collect(),
        comparisons: query.body.comparisons.clone(),
    };
    ConjunctiveQuery::new(
        format!("{}_q", query.name),
        query.answer_variables.clone(),
        body,
    )
}

/// Answer `query` (over original relations) with quality answers, using an
/// already-computed assessment.
pub fn quality_answers(
    context: &Context,
    assessment: &AssessmentResult,
    query: &ConjunctiveQuery,
) -> AnswerSet {
    let rewritten = rewrite_to_quality(context, query);
    let tuples = ontodq_chase::evaluate_project(
        &assessment.contextual_instance,
        &rewritten.body,
        &rewritten.answer_variables,
    );
    AnswerSet::from_tuples(tuples).certain()
}

/// Answer `query` over the *original* instance without any quality filtering
/// (the baseline the paper contrasts quality answers with).
pub fn plain_answers(instance: &Database, query: &ConjunctiveQuery) -> AnswerSet {
    let tuples = ontodq_chase::evaluate_project(instance, &query.body, &query.answer_variables);
    AnswerSet::from_tuples(tuples).certain()
}

/// **Demand-driven** quality answers, without a precomputed assessment: the
/// context is compiled over `instance`, the query is rewritten to the
/// quality versions, and only the fragment of the contextual ontology the
/// query can observe is chased (the magic-set transformation of
/// [`ontodq_datalog::magic_transform`], driven through
/// [`ontodq_chase::ChaseEngine::chase_for_query`]).
///
/// The answers equal [`quality_answers`] over a full [`crate::assess`] run;
/// the work done is proportional to the demanded portion — for a selective
/// query (the doctor asking about one patient), a small fraction of the
/// full materialization.
pub fn quality_answers_on_demand(
    context: &Context,
    instance: &Database,
    query: &ConjunctiveQuery,
) -> AnswerSet {
    let (program, database) = crate::assessment::compile_context(context, instance);
    let rewritten = rewrite_to_quality(context, query);
    ontodq_qa::certain_answers_on_demand(&program, &database, &rewritten)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assessment::assess;
    use crate::scenarios::{doctors_query, hospital_context};
    use ontodq_mdm::fixtures::hospital;
    use ontodq_relational::{Tuple, Value};

    #[test]
    fn rewriting_renames_only_assessed_relations() {
        let context = hospital_context();
        let q = ConjunctiveQuery::parse(
            "Q(t, v) :- Measurements(t, p, v), PatientUnit(Standard, d, p).",
        )
        .unwrap();
        let rewritten = rewrite_to_quality(&context, &q);
        assert_eq!(rewritten.name, "Q_q");
        assert_eq!(rewritten.body.atoms[0].predicate, "Measurements_q");
        assert_eq!(rewritten.body.atoms[1].predicate, "PatientUnit");
        assert_eq!(rewritten.answer_variables, q.answer_variables);
    }

    #[test]
    fn example_7_quality_answers_to_the_doctors_query() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let assessment = assess(&context, &instance);

        let query = doctors_query();
        // Plain answers: the raw table has one measurement for Tom Waits in
        // the Sep/5 11:45–12:15 window...
        let plain = plain_answers(&instance, &query);
        assert_eq!(plain.len(), 1);
        // ...and it happens to be of quality (standard unit, certified nurse,
        // B1 thermometer), so the quality answer keeps it.
        let quality = quality_answers(&context, &assessment, &query);
        assert_eq!(quality.len(), 1);
        let answer = quality.to_vec().pop().unwrap();
        assert_eq!(answer.get(1), Some(&Value::str(hospital::TOM_WAITS)));
        assert_eq!(answer.get(2), Some(&Value::double(38.2)));
    }

    #[test]
    fn quality_answers_drop_measurements_outside_the_standard_unit() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let assessment = assess(&context, &instance);
        // Tom Waits' Sep/7 measurement exists in the raw data…
        let q = ConjunctiveQuery::parse(
            "Q(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\", t >= @Sep/7-00:00, t <= @Sep/7-23:59.",
        )
        .unwrap();
        assert_eq!(plain_answers(&instance, &q).len(), 1);
        // …but it was taken in the intensive-care ward with a B2 thermometer,
        // so it has no quality counterpart.
        assert!(quality_answers(&context, &assessment, &q).is_empty());
    }

    #[test]
    fn all_tom_waits_quality_measurements_reproduce_table_ii() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let q = ConjunctiveQuery::parse("Q(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\".")
            .unwrap();
        let answers = quality_answers(&context, &assess(&context, &instance), &q);
        let expected: Vec<Tuple> = hospital::expected_quality_measurements();
        assert_eq!(answers.len(), expected.len());
        for t in expected {
            assert!(answers.contains(&t));
        }
    }

    #[test]
    fn demand_driven_answers_equal_full_assessment_answers() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let assessment = assess(&context, &instance);
        for text in [
            "Q(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\".",
            "Q(t, p, v) :- Measurements(t, p, v), p = \"Lou Reed\".",
            "Q(t, p, v) :- Measurements(t, p, v).",
            "Q(t, v) :- Measurements(t, p, v), PatientUnit(Standard, d, p).",
        ] {
            let q = ConjunctiveQuery::parse(text).unwrap();
            assert_eq!(
                quality_answers_on_demand(&context, &instance, &q),
                quality_answers(&context, &assessment, &q),
                "demand vs full diverge on {text}"
            );
        }
        // The doctor's query of Example 7, demand-driven.
        let q = doctors_query();
        assert_eq!(
            quality_answers_on_demand(&context, &instance, &q),
            quality_answers(&context, &assessment, &q)
        );
    }

    #[test]
    fn plain_and_quality_answers_agree_on_clean_data() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let assessment = assess(&context, &instance);
        // Lou Reed's measurements were all taken in standard-care wards by a
        // certified nurse, so quality answering changes nothing.
        let q =
            ConjunctiveQuery::parse("Q(t, v) :- Measurements(t, p, v), p = \"Lou Reed\".").unwrap();
        let plain = plain_answers(&instance, &q);
        let quality = quality_answers(&context, &assessment, &q);
        assert_eq!(plain, quality);
        assert_eq!(plain.len(), 2);
    }
}
