//! Quickstart: the paper's running example end to end.
//!
//! Reproduces Tables I and II and the doctor's query of Examples 1 and 7:
//! the `Measurements` table is mapped into a multidimensional context, the
//! quality version `Measurements^q` is derived through upward dimensional
//! navigation (PatientWard → PatientUnit) plus the thermometer guideline and
//! nurse-certification conditions, and the doctor's query is answered with
//! quality answers.
//!
//! Run with: `cargo run --bin quickstart`

use ontodq_core::{assess, scenarios};
use ontodq_core::{plain_answers, quality_answers};
use ontodq_mdm::fixtures::hospital;
use ontodq_relational::Value;

fn main() {
    // ------------------------------------------------------------------
    // Table I: the instance under quality assessment.
    // ------------------------------------------------------------------
    let instance = hospital::measurements_database();
    println!("== Table I: Measurements (the instance D under assessment) ==");
    for tuple in instance.relation("Measurements").unwrap().iter() {
        println!("  {tuple}");
    }

    // ------------------------------------------------------------------
    // The context: contextual copy of Measurements, the hospital MD
    // ontology, quality predicates and the quality-version definition.
    // ------------------------------------------------------------------
    let context = scenarios::hospital_context();
    println!("\n== Context ==\n  {}", context.summary());
    for qp in &context.quality_predicates {
        println!("  quality predicate {}: {}", qp.name, qp.description);
    }

    // ------------------------------------------------------------------
    // Assessment: chase the combined program, extract Measurements^q.
    // ------------------------------------------------------------------
    let assessment = assess(&context, &instance);
    println!("\n== chase: {} ==", assessment.chase.stats);
    println!(
        "== constraint violations observed in the contextual instance: {} ==",
        assessment.chase.violations.len()
    );

    println!("\n== Quality version Measurements^q ==");
    for tuple in assessment.quality_tuples("Measurements") {
        println!("  {tuple}");
    }
    println!("\n== Table II: Tom Waits' quality measurements ==",);
    for tuple in assessment
        .quality_tuples("Measurements")
        .iter()
        .filter(|t| t.get(1) == Some(&Value::str(hospital::TOM_WAITS)))
    {
        println!("  {tuple}");
    }

    // ------------------------------------------------------------------
    // Quality query answering (Example 7): the doctor's query.
    // ------------------------------------------------------------------
    let query = scenarios::doctors_query();
    println!("\n== The doctor's query ==\n  {query}");
    let plain = plain_answers(&instance, &query);
    let quality = quality_answers(&context, &assessment, &query);
    println!("  plain answers   ({}):", plain.len());
    for t in plain.iter() {
        println!("    {t}");
    }
    println!("  quality answers ({}):", quality.len());
    for t in quality.iter() {
        println!("    {t}");
    }

    // ------------------------------------------------------------------
    // Quality metrics: how much does D depart from D^q?
    // ------------------------------------------------------------------
    println!("\n== Quality metrics ==\n{}", assessment.metrics);
}
