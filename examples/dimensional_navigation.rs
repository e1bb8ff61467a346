//! Dimensional navigation: upward and downward data generation and the
//! query-answering algorithms of Section IV.
//!
//! Reproduces Examples 2 and 5 of the paper (Mark's shifts, obtained by
//! downward navigation through rule (8)), and contrasts the three
//! query-answering strategies implemented in `ontodq-qa`:
//! chase-then-evaluate, the deterministic resolution algorithm
//! (`DeterministicWSQAns`), and first-order rewriting (for the upward-only
//! fragment).
//!
//! Run with: `cargo run --bin dimensional_navigation`

use ontodq_mdm::compile;
use ontodq_mdm::fixtures::hospital;
use ontodq_qa::{answer_by_rewriting, ConjunctiveQuery, DeterministicWsqAns, MaterializedEngine};
use ontodq_relational::Value;

fn main() {
    let ontology = hospital::ontology();
    println!("== Hospital ontology ==\n  {}", ontology.summary());

    // ------------------------------------------------------------------
    // Navigation analysis: which rules navigate upward / downward?
    // ------------------------------------------------------------------
    let report = ontodq_mdm::navigation_report(&ontology);
    println!("\n== Navigation analysis ==");
    for (index, direction) in &report.rules {
        let label = ontology.rules()[*index]
            .label
            .clone()
            .unwrap_or_else(|| format!("rule #{index}"));
        println!("  {label}: {direction}");
    }
    println!("  upward-only ontology: {}", report.upward_only);
    println!(
        "  invents values (labeled nulls): {}",
        report.value_invention
    );

    let compiled = compile(&ontology);

    // ------------------------------------------------------------------
    // Downward navigation (Examples 2 and 5): Mark's shifts in W1 / W2.
    // ------------------------------------------------------------------
    println!("\n== Example 2 / 5: on which dates does Mark work in W2? ==");
    let materialized = MaterializedEngine::new(&compiled.program, &compiled.database);
    let resolution = DeterministicWsqAns::new(&compiled.program, &compiled.database);
    for ward in ["W1", "W2"] {
        let query =
            ConjunctiveQuery::parse(&format!("Q(d) :- Shifts({ward}, d, \"Mark\", s).")).unwrap();
        let by_chase = materialized.certain_answers(&query);
        let by_resolution = resolution.answer_open(&query);
        println!(
            "  ward {ward}: chase-based answers = {:?}, resolution-based answers = {:?}",
            by_chase
                .to_vec()
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>(),
            by_resolution
                .to_vec()
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>(),
        );
        assert_eq!(by_chase, by_resolution);
    }

    // The generated Shifts tuples carry labeled nulls for the unknown shift.
    println!("\n== Generated Shifts tuples for Mark (note the labeled nulls) ==");
    for tuple in materialized
        .materialized()
        .relation("Shifts")
        .unwrap()
        .iter()
        .filter(|t| t.get(2) == Some(&Value::str("Mark")))
    {
        println!("  {tuple}");
    }

    // ------------------------------------------------------------------
    // Upward navigation (Example 1): which units was Tom Waits in?
    // ------------------------------------------------------------------
    println!("\n== Upward navigation: Tom Waits' units per day ==");
    let query = ConjunctiveQuery::parse("Q(u, d) :- PatientUnit(u, d, \"Tom Waits\").").unwrap();
    for tuple in materialized.certain_answers(&query).iter() {
        println!("  {tuple}");
    }

    // ------------------------------------------------------------------
    // FO rewriting on the upward-only fragment: PatientUnit queries can be
    // answered without any chase.
    // ------------------------------------------------------------------
    println!("\n== FO rewriting (upward-only fragment) ==");
    let mut upward_only = ontodq_mdm::MdOntology::new("hospital-upward");
    upward_only.add_dimension(hospital::hospital_dimension());
    upward_only.add_dimension(hospital::time_dimension());
    for schema in hospital::categorical_schemas() {
        upward_only.add_relation(schema);
    }
    for relation in hospital::ontology().data().relations() {
        for tuple in relation.iter() {
            upward_only
                .add_tuple(relation.name(), tuple.values().to_vec())
                .unwrap();
        }
    }
    upward_only.add_rule(hospital::patient_unit_rule());
    assert!(ontodq_mdm::is_upward_only(&upward_only));
    let compiled_upward = compile(&upward_only);
    let query =
        ConjunctiveQuery::parse("Q(d) :- PatientUnit(Standard, d, p), p = \"Tom Waits\".").unwrap();
    let rewriting = ontodq_qa::rewrite(&compiled_upward.program, &query);
    println!("  query: {query}");
    println!("  rewriting ({} disjuncts):", rewriting.len());
    for disjunct in &rewriting.disjuncts {
        println!("    {disjunct}");
    }
    let answers = answer_by_rewriting(&compiled_upward.program, &compiled_upward.database, &query);
    println!(
        "  answers evaluated directly on the extensional database: {:?}",
        answers
            .to_vec()
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
    );
}
