//! Ontology analysis: the syntactic properties the paper's tractability
//! claims rest on.
//!
//! Compiles the hospital ontology to Datalog± and checks, programmatically,
//! the claims of Section III:
//!
//! * the dimensional rules fall in the weakly-sticky class (and here also in
//!   the weakly-acyclic class, since the dimension instances are fixed),
//! * the dimensional EGD (6) is separable from the TGDs,
//! * adding the form-(10) discharge rule keeps weak stickiness but moves
//!   nulls into categorical positions (the paper's separability caveat).
//!
//! Run with: `cargo run --bin ontology_analysis`

use ontodq_mdm::compile;
use ontodq_mdm::fixtures::hospital;

fn main() {
    // ------------------------------------------------------------------
    // The base ontology: rules (7) and (8).
    // ------------------------------------------------------------------
    let ontology = hospital::ontology();
    let compiled = compile(&ontology);
    println!("== Compiled hospital ontology ==");
    println!("  predicates: {}", compiled.program.predicates().len());
    println!("  TGDs: {}", compiled.program.tgds.len());
    println!("  EGDs: {}", compiled.program.egds.len());
    println!(
        "  negative constraints: {}",
        compiled.program.constraints.len()
    );
    println!("  extensional tuples: {}", compiled.database.total_tuples());

    let report = ontodq_datalog::classify(&compiled.program);
    println!("\n== Datalog± class membership (Section III claims) ==");
    println!("  {report}");
    assert!(report.weakly_sticky, "the paper's central syntactic claim");

    let separability = ontodq_datalog::check_program(&compiled.program);
    println!("\n== EGD separability ==");
    for egd in &separability.egds {
        println!(
            "  EGD #{}: separable = {} (offending positions: {:?})",
            egd.egd_index,
            egd.separable,
            egd.offending_positions
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
        );
    }
    assert!(separability.all_separable());

    // ------------------------------------------------------------------
    // Navigation directions and rewritability.
    // ------------------------------------------------------------------
    println!("\n== Navigation report ==");
    let nav = ontodq_mdm::navigation_report(&ontology);
    for (index, direction) in &nav.rules {
        println!("  rule #{index}: {direction}");
    }
    println!(
        "  FO rewriting applicable (upward-only): {}",
        nav.upward_only
    );

    // ------------------------------------------------------------------
    // Adding the form-(10) discharge rule (Example 6).
    // ------------------------------------------------------------------
    let extended = hospital::ontology_with_discharge_rule();
    let compiled_ext = compile(&extended);
    let report_ext = ontodq_datalog::classify(&compiled_ext.program);
    println!("\n== With the form-(10) discharge rule (Example 6) ==");
    println!("  {report_ext}");
    assert!(
        report_ext.weakly_sticky,
        "form-(10) rules preserve weak stickiness"
    );

    // A unit-level EGD is no longer syntactically separable once rule (9)
    // can put nulls into the Unit position of PatientUnit.
    let mut with_unit_egd = extended.clone();
    with_unit_egd
        .add_rule_text("u = u2 :- PatientUnit(u, d, p), PatientUnit(u2, d, p).")
        .unwrap();
    let compiled_egd = compile(&with_unit_egd);
    let separability_ext = ontodq_datalog::check_program(&compiled_egd.program);
    println!(
        "  a unit-level EGD added on top: all separable = {} (the paper's caveat)",
        separability_ext.all_separable()
    );
    assert!(!separability_ext.all_separable());

    // ------------------------------------------------------------------
    // The compiled program, printed in the crate's Datalog± syntax.
    // ------------------------------------------------------------------
    println!("\n== Rules and constraints of the compiled base ontology ==");
    for tgd in &compiled.program.tgds {
        println!("  {tgd}");
    }
    for egd in &compiled.program.egds {
        println!("  {egd}");
    }
    for nc in &compiled.program.constraints {
        println!("  {nc}");
    }
}
