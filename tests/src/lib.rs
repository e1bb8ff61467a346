//! Shared helpers for the `ontodq` integration tests.
//!
//! The integration tests span every crate of the workspace: they build the
//! paper's hospital scenario from `ontodq-mdm`, compile it to Datalog±, chase
//! it with `ontodq-chase`, answer queries with the three engines of
//! `ontodq-qa`, and run the full quality-assessment pipeline of
//! `ontodq-core`.

use ontodq_chase::Violations;
use ontodq_mdm::fixtures::hospital;
use ontodq_mdm::{compile, CompiledOntology};
use ontodq_qa::{ConjunctiveQuery, MaterializedEngine};
use ontodq_relational::{Database, NullId, Tuple, Value};
use std::collections::BTreeMap;

/// The compiled hospital ontology (rules (7), (8), constraint, EGD (6)).
pub fn compiled_hospital() -> CompiledOntology {
    compile(&hospital::ontology())
}

/// The compiled hospital ontology including the form-(10) discharge rule.
pub fn compiled_hospital_with_discharge() -> CompiledOntology {
    compile(&hospital::ontology_with_discharge_rule())
}

/// A materialized engine over the compiled hospital ontology.
pub fn hospital_engine() -> MaterializedEngine {
    let compiled = compiled_hospital();
    MaterializedEngine::new(&compiled.program, &compiled.database)
}

/// Parse a query, panicking with a readable message on failure.
pub fn query(text: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::parse(text).unwrap_or_else(|e| panic!("bad query '{text}': {e}"))
}

/// A canonical rendering of a database that is invariant under labeled-null
/// renaming: nulls are renumbered by first occurrence while scanning
/// relations in name order and tuples in a null-blind sorted order.  Two
/// chase results are equivalent modulo null renaming iff their canonical
/// renderings are equal (assuming, as in our fixtures, that tuples are
/// distinguishable by their constant parts).
pub fn canonicalize_database(db: &Database) -> Vec<String> {
    let mut mapping: BTreeMap<NullId, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for relation in db.relations() {
        // Sort tuples by a shape key that treats every null as equal, so the
        // traversal (and hence the canonical numbering) does not depend on
        // the engine's null-allocation order.
        let mut tuples: Vec<Tuple> = relation.iter().collect();
        tuples.sort_by_key(null_blind_key);
        for tuple in tuples {
            let mut rendered = format!("{}(", relation.name());
            for (i, value) in tuple.values().iter().enumerate() {
                if i > 0 {
                    rendered.push(',');
                }
                match value {
                    Value::Null(id) => {
                        let next = mapping.len();
                        let canonical = *mapping.entry(*id).or_insert(next);
                        rendered.push_str(&format!("⊥{canonical}"));
                    }
                    other => rendered.push_str(&other.to_string()),
                }
            }
            rendered.push(')');
            out.push(rendered);
        }
    }
    out.sort();
    out
}

fn null_blind_key(tuple: &Tuple) -> String {
    tuple
        .values()
        .iter()
        .map(|v| {
            if v.is_null() {
                "⊥".to_string()
            } else {
                v.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\u{1}")
}

/// `true` when two databases are identical up to a renaming of their labeled
/// nulls.
pub fn databases_equivalent(a: &Database, b: &Database) -> bool {
    canonicalize_database(a) == canonicalize_database(b)
}

/// A canonical, null-renaming-invariant summary of a violation report,
/// suitable for asserting that two chase strategies surfaced the same
/// violations.
pub fn violation_summary(violations: &Violations) -> Vec<String> {
    let render = |v: &Value| {
        if v.is_null() {
            "⊥".to_string()
        } else {
            v.to_string()
        }
    };
    let mut out: Vec<String> = violations
        .egd
        .iter()
        .map(|v| {
            // EGD violations are symmetric in left/right discovery order.
            let mut sides = [render(&v.left), render(&v.right)];
            sides.sort();
            format!("egd#{}:{}={}", v.egd_index, sides[0], sides[1])
        })
        .collect();
    out.extend(violations.nc.iter().map(|v| {
        let bindings: Vec<String> = v
            .witness
            .iter()
            .map(|(var, value)| format!("{var}={}", render(value)))
            .collect();
        format!("nc#{}:{}", v.constraint_index, bindings.join(","))
    }));
    out.sort();
    // Compare the *sets* of violations, whatever order (and multiplicity)
    // a driver or join kernel reports them in.
    out.dedup();
    out
}

/// Build the `-fact.`-shaped retraction program the server flushes: one
/// ground [`ontodq_datalog::Retraction`] per fact.
pub fn retraction_program(facts: &[(String, Tuple)]) -> ontodq_datalog::Program {
    use ontodq_datalog::{Atom, Retraction, Term};
    let mut program = ontodq_datalog::Program::new();
    for (relation, tuple) in facts {
        let terms: Vec<Term> = tuple.values().iter().map(|v| Term::constant(*v)).collect();
        let retraction =
            Retraction::new(Atom::new(relation.clone(), terms)).expect("workload facts are ground");
        program.retractions.push(retraction);
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_the_hospital_scenario() {
        let compiled = compiled_hospital();
        assert!(compiled.database.total_tuples() > 0);
        assert_eq!(compiled.program.tgds.len(), 2);
        let engine = hospital_engine();
        assert!(engine.materialized().has_relation("PatientUnit"));
        let q = query("Q(d) :- Shifts(W2, d, \"Mark\", s).");
        assert_eq!(q.arity(), 1);
    }
}
