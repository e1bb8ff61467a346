//! Navigation-direction analysis of dimensional rules.
//!
//! The paper distinguishes rules that navigate **upward** (data at a lower
//! category level generates data at a higher level, e.g. rule (7):
//! PatientWard → PatientUnit via `UnitWard`) from rules that navigate
//! **downward** (e.g. rule (8): WorkingSchedules → Shifts, and the form-(10)
//! rules with parent–child atoms in the head).  The distinction matters
//! operationally: ontologies whose rules only navigate upward admit
//! first-order query rewriting (Section IV), while downward navigation
//! requires value invention and hence chase- or resolution-based answering.

use crate::ontology::MdOntology;
use ontodq_datalog::{Atom, Tgd, Variable};
use std::collections::BTreeSet;
use std::fmt;

/// The navigation direction of a dimensional rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NavigationDirection {
    /// The rule propagates data from child levels to parent levels.
    Upward,
    /// The rule propagates data from parent levels to child levels.
    Downward,
    /// The rule shows evidence of both directions.
    Mixed,
    /// The rule does not join through any parent–child predicate.
    NonNavigational,
}

impl fmt::Display for NavigationDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NavigationDirection::Upward => "upward",
            NavigationDirection::Downward => "downward",
            NavigationDirection::Mixed => "mixed",
            NavigationDirection::NonNavigational => "non-navigational",
        };
        write!(f, "{name}")
    }
}

/// Variables occurring anywhere in `atoms`.
fn variables_of(atoms: &[&Atom]) -> BTreeSet<Variable> {
    atoms.iter().flat_map(|a| a.variables()).collect()
}

/// Analyze the navigation direction of one dimensional rule with respect to
/// an ontology (whose dimensions determine the parent–child predicates).
pub(crate) fn direction_of(ontology: &MdOntology, rule: &Tgd) -> NavigationDirection {
    let parent_child = ontology.parent_child_predicates();
    let category_names: BTreeSet<&str> = ontology
        .dimensions()
        .values()
        .flat_map(|d| d.schema().categories().iter().map(String::as_str))
        .collect();

    // Split the body into parent–child atoms and "data" atoms (categorical
    // relations or other ordinary predicates).
    let pc_atoms: Vec<&Atom> = rule
        .body
        .atoms
        .iter()
        .filter(|a| parent_child.contains_key(&a.predicate))
        .collect();
    let data_atoms: Vec<&Atom> = rule
        .body
        .atoms
        .iter()
        .filter(|a| {
            !parent_child.contains_key(&a.predicate)
                && !category_names.contains(a.predicate.as_str())
        })
        .collect();
    let head_atoms: Vec<&Atom> = rule.head.iter().collect();
    let head_pc_atoms: Vec<&Atom> = rule
        .head
        .iter()
        .filter(|a| parent_child.contains_key(&a.predicate))
        .collect();

    let body_data_vars = variables_of(&data_atoms);
    let head_vars = variables_of(&head_atoms);

    let mut upward = false;
    let mut downward = false;

    for pc in &pc_atoms {
        // Parent–child predicates are binary with the parent first.
        let (parent_term, child_term) = match (&pc.terms.first(), &pc.terms.get(1)) {
            (Some(p), Some(c)) => (*p, *c),
            _ => continue,
        };
        let parent_var = parent_term.as_var();
        let child_var = child_term.as_var();
        let child_in_body = child_var
            .map(|v| body_data_vars.contains(v))
            .unwrap_or(false);
        let parent_in_body = parent_var
            .map(|v| body_data_vars.contains(v))
            .unwrap_or(false);
        let child_in_head = child_var.map(|v| head_vars.contains(v)).unwrap_or(false);
        let parent_in_head = parent_var.map(|v| head_vars.contains(v)).unwrap_or(false);
        if child_in_body && parent_in_head {
            upward = true;
        }
        if parent_in_body && child_in_head {
            downward = true;
        }
    }

    // Form-(10) rules: a parent–child atom in the head witnesses downward
    // navigation towards an (often existential) child/parent member.
    if !head_pc_atoms.is_empty() {
        downward = true;
    }

    match (upward, downward) {
        (true, true) => NavigationDirection::Mixed,
        (true, false) => NavigationDirection::Upward,
        (false, true) => NavigationDirection::Downward,
        (false, false) => {
            if pc_atoms.is_empty() && head_pc_atoms.is_empty() {
                NavigationDirection::NonNavigational
            } else {
                // A parent–child join that neither imports nor exports a
                // level change (e.g. a pure filter) is treated as
                // non-navigational.
                NavigationDirection::NonNavigational
            }
        }
    }
}

/// Analyze every dimensional rule of the ontology.
pub fn directions(ontology: &MdOntology) -> Vec<(usize, NavigationDirection)> {
    ontology
        .rules()
        .iter()
        .enumerate()
        .map(|(i, r)| (i, direction_of(ontology, r)))
        .collect()
}

/// `true` when every dimensional rule navigates upward only (or not at all) —
/// the syntactic condition under which the paper's FO query rewriting applies.
pub fn is_upward_only(ontology: &MdOntology) -> bool {
    ontology.rules().iter().all(|r| {
        matches!(
            direction_of(ontology, r),
            NavigationDirection::Upward | NavigationDirection::NonNavigational
        )
    })
}

/// `true` when some rule introduces existential values (labeled nulls) —
/// downward rules with schema mismatches or form-(10) rules.
pub(crate) fn has_value_invention(ontology: &MdOntology) -> bool {
    ontology
        .rules()
        .iter()
        .any(|r| !r.existential_variables().is_empty())
}

/// A per-rule navigation report for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NavigationReport {
    /// (rule index, direction) pairs.
    pub rules: Vec<(usize, NavigationDirection)>,
    /// Whether the whole ontology is upward-only.
    pub upward_only: bool,
    /// Whether some rule invents values.
    pub value_invention: bool,
}

/// Build a [`NavigationReport`] for an ontology.
pub fn report(ontology: &MdOntology) -> NavigationReport {
    NavigationReport {
        rules: directions(ontology),
        upward_only: is_upward_only(ontology),
        value_invention: has_value_invention(ontology),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorical::{CategoricalAttribute, CategoricalRelationSchema};
    use crate::dimension_instance::DimensionInstance;
    use crate::dimension_schema::DimensionSchema;
    use ontodq_datalog::parse_rule;
    use ontodq_datalog::Rule;

    fn hospital_ontology() -> MdOntology {
        let schema =
            DimensionSchema::chain("Hospital", ["Ward", "Unit", "Institution", "AllHospital"]);
        let mut hospital = DimensionInstance::new(schema);
        hospital
            .add_rollup("Ward", "W1", "Unit", "Standard")
            .unwrap();
        hospital
            .add_rollup("Unit", "Standard", "Institution", "H1")
            .unwrap();
        hospital
            .add_rollup("Institution", "H1", "AllHospital", "allHospital")
            .unwrap();
        let time = DimensionSchema::chain("Time", ["Time", "Day", "Month", "Year", "AllTime"]);
        let mut time_instance = DimensionInstance::new(time);
        time_instance
            .add_rollup("Day", "Sep/5", "Month", "September/2005")
            .unwrap();

        let mut ontology = MdOntology::new("hospital");
        ontology.add_dimension(hospital);
        ontology.add_dimension(time_instance);
        ontology.add_relation(CategoricalRelationSchema::new(
            "PatientWard",
            vec![
                CategoricalAttribute::categorical("Ward", "Hospital", "Ward"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Patient"),
            ],
        ));
        ontology
    }

    fn tgd(text: &str) -> Tgd {
        match parse_rule(text).unwrap() {
            Rule::Tgd(t) => t,
            other => panic!("expected TGD, got {other:?}"),
        }
    }

    #[test]
    fn rule_7_is_upward() {
        let ontology = hospital_ontology();
        let rule = tgd("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).");
        assert_eq!(direction_of(&ontology, &rule), NavigationDirection::Upward);
    }

    #[test]
    fn rule_8_is_downward() {
        let ontology = hospital_ontology();
        let rule = tgd("Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).");
        assert_eq!(
            direction_of(&ontology, &rule),
            NavigationDirection::Downward
        );
    }

    #[test]
    fn rule_9_with_head_parent_child_atom_is_downward() {
        let ontology = hospital_ontology();
        let rule =
            tgd("InstitutionUnit(i, u), PatientUnit(u, d, p) :- DischargePatients(i, d, p).");
        assert_eq!(
            direction_of(&ontology, &rule),
            NavigationDirection::Downward
        );
    }

    #[test]
    fn rules_without_parent_child_joins_are_non_navigational() {
        let ontology = hospital_ontology();
        let rule = tgd("Copy(w, d, p) :- PatientWard(w, d, p).");
        assert_eq!(
            direction_of(&ontology, &rule),
            NavigationDirection::NonNavigational
        );
    }

    #[test]
    fn mixed_direction_is_detected() {
        let ontology = hospital_ontology();
        // The rule pushes ward-level data up to units *and* unit-level data
        // down to wards at the same time.
        let rule = tgd(
            "Both(u, w2) :- PatientWard(w, d, p), UnitWard(u, w), WorkingSchedules(u2, d, n, t), UnitWard(u2, w2).",
        );
        assert_eq!(direction_of(&ontology, &rule), NavigationDirection::Mixed);
    }

    #[test]
    fn upward_only_detection() {
        let mut ontology = hospital_ontology();
        ontology
            .add_rule_text("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).")
            .unwrap();
        assert!(is_upward_only(&ontology));
        assert!(!has_value_invention(&ontology));
        ontology
            .add_rule_text("Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).")
            .unwrap();
        assert!(!is_upward_only(&ontology));
        assert!(has_value_invention(&ontology));
        let report = report(&ontology);
        assert_eq!(report.rules.len(), 2);
        assert_eq!(report.rules[0].1, NavigationDirection::Upward);
        assert_eq!(report.rules[1].1, NavigationDirection::Downward);
        assert!(!report.upward_only);
        assert!(report.value_invention);
    }

    #[test]
    fn direction_display() {
        assert_eq!(NavigationDirection::Upward.to_string(), "upward");
        assert_eq!(NavigationDirection::Downward.to_string(), "downward");
        assert_eq!(NavigationDirection::Mixed.to_string(), "mixed");
        assert_eq!(
            NavigationDirection::NonNavigational.to_string(),
            "non-navigational"
        );
    }
}
