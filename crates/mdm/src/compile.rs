//! Compilation of a multidimensional ontology into a Datalog± program plus an
//! extensional database — the paper's Section III representation.
//!
//! The compilation produces:
//!
//! * **category predicates** `K`: one unary relation per category, holding
//!   the category's members (`Ward(W1)`, `Unit(Standard)`, …),
//! * **parent–child predicates** `O`: one binary relation per adjacency edge,
//!   named in the paper's style (`UnitWard(Standard, W1)`,
//!   `MonthDay(September/2005, Sep/5)`, …) with the *parent first*,
//! * **categorical predicates** `R`: the categorical relations and their
//!   data,
//! * **referential constraints** of form (1): one negative constraint per
//!   categorical attribute, `⊥ ← R(…, e, …), ¬K(e)`,
//! * the ontology's **dimensional rules** (forms (4)/(10)), **EGDs**
//!   (form (2)) and **negative constraints** (form (3)) verbatim.
//!
//! The result is a [`CompiledOntology`]: a [`Program`] (rules and
//! constraints) plus a [`Database`] (the extensional data `D_M`), with hash
//! indexes on both positions of every parent–child predicate and on the
//! categorical positions of every categorical relation.

use crate::ontology::MdOntology;
use ontodq_datalog::{Atom, Conjunction, NegativeConstraint, Program, Term};
use ontodq_relational::{Database, Tuple};

/// The result of compiling an [`MdOntology`].
#[derive(Debug, Clone)]
pub struct CompiledOntology {
    /// The Datalog± program: dimensional rules, EGDs, referential and
    /// dimensional negative constraints.
    pub program: Program,
    /// The extensional database: category members, parent–child pairs and
    /// categorical relation data.
    pub database: Database,
}

/// Compile an ontology (see the module docs for what it produces).
pub fn compile(ontology: &MdOntology) -> CompiledOntology {
    let mut program = Program::new();
    let mut database = ontology.data().clone();

    // Category predicates K and parent–child predicates O.
    for dimension in ontology.dimensions().values() {
        for category in dimension.schema().categories() {
            let relation = database.relation_or_create(category, 1);
            for member in dimension.members_of(category) {
                relation.insert_unchecked(Tuple::new(vec![member]));
            }
        }
        for (child, parent) in dimension.schema().edges() {
            let predicate = MdOntology::parent_child_predicate(&parent, &child);
            let relation = database.relation_or_create(&predicate, 2);
            for (child_member, parent_member) in dimension.rollup_pairs(&child, &parent) {
                relation.insert_unchecked(Tuple::new(vec![parent_member, child_member]));
            }
            relation.build_index(0);
            relation.build_index(1);
        }
    }

    // Referential constraints of form (1).
    for schema in ontology.relations().values() {
        let attribute_terms: Vec<Term> = schema
            .attributes()
            .iter()
            .map(|a| Term::var(format!("x_{}", a.name().to_lowercase())))
            .collect();
        for (position, _dimension, category) in schema.links() {
            let body =
                Conjunction::positive(vec![Atom::new(schema.name(), attribute_terms.clone())])
                    .and_not(Atom::new(category, vec![attribute_terms[position].clone()]));
            program
                .constraints
                .push(NegativeConstraint::new(body).labeled(format!(
                    "ref:{}.{}",
                    schema.name(),
                    schema.attributes()[position].name()
                )));
        }
    }

    // Dimensional rules and constraints, verbatim.
    program.tgds.extend(ontology.rules().iter().cloned());
    program.egds.extend(ontology.egds().iter().cloned());
    program
        .constraints
        .extend(ontology.constraints().iter().cloned());

    // Indexes on categorical positions.
    for schema in ontology.relations().values() {
        if let Ok(relation) = database.relation_mut(schema.name()) {
            for position in schema.categorical_positions() {
                relation.build_index(position);
            }
        }
    }

    CompiledOntology { program, database }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorical::{CategoricalAttribute, CategoricalRelationSchema};
    use crate::dimension_instance::DimensionInstance;
    use crate::dimension_schema::DimensionSchema;
    use ontodq_chase::chase;
    use ontodq_relational::Value;

    fn mini_ontology() -> MdOntology {
        let schema = DimensionSchema::chain("Hospital", ["Ward", "Unit", "Institution"]);
        let mut hospital = DimensionInstance::new(schema);
        hospital
            .add_rollup("Ward", "W1", "Unit", "Standard")
            .unwrap();
        hospital
            .add_rollup("Ward", "W2", "Unit", "Standard")
            .unwrap();
        hospital
            .add_rollup("Ward", "W3", "Unit", "Intensive")
            .unwrap();
        hospital
            .add_rollup("Unit", "Standard", "Institution", "H1")
            .unwrap();
        hospital
            .add_rollup("Unit", "Intensive", "Institution", "H1")
            .unwrap();

        let mut ontology = MdOntology::new("mini");
        ontology.add_dimension(hospital);
        ontology.add_relation(CategoricalRelationSchema::new(
            "PatientWard",
            vec![
                CategoricalAttribute::categorical("Ward", "Hospital", "Ward"),
                CategoricalAttribute::non_categorical("Day"),
                CategoricalAttribute::non_categorical("Patient"),
            ],
        ));
        ontology
            .add_tuple("PatientWard", ["W1", "Sep/5", "Tom Waits"])
            .unwrap();
        ontology
            .add_tuple("PatientWard", ["W3", "Sep/7", "Tom Waits"])
            .unwrap();
        ontology
            .add_rule_text("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).")
            .unwrap();
        ontology
    }

    #[test]
    fn category_and_parent_child_predicates_are_materialized() {
        let compiled = compile(&mini_ontology());
        let db = &compiled.database;
        assert_eq!(db.relation("Ward").unwrap().len(), 3);
        assert_eq!(db.relation("Unit").unwrap().len(), 2);
        assert_eq!(db.relation("Institution").unwrap().len(), 1);
        // Parent first, child second — as in the paper's UnitWard(u, w).
        assert!(db.contains("UnitWard", &Tuple::from_iter(["Standard", "W1"])));
        assert!(db.contains("InstitutionUnit", &Tuple::from_iter(["H1", "Intensive"])));
        // Categorical data is carried over.
        assert_eq!(db.relation("PatientWard").unwrap().len(), 2);
        // Parent–child predicates are indexed on both positions.
        let unit_ward = db.relation("UnitWard").unwrap();
        assert!(unit_ward.has_index(0) && unit_ward.has_index(1));
    }

    #[test]
    fn referential_constraints_are_emitted_per_categorical_attribute() {
        let compiled = compile(&mini_ontology());
        // One categorical attribute (Ward) → one referential constraint, plus
        // none of the dimensional kind.
        assert_eq!(compiled.program.constraints.len(), 1);
        let nc = &compiled.program.constraints[0];
        assert_eq!(nc.label.as_deref(), Some("ref:PatientWard.Ward"));
        assert_eq!(nc.body.atoms.len(), 1);
        assert_eq!(nc.body.negated.len(), 1);
        assert_eq!(nc.body.negated[0].predicate, "Ward");
    }

    #[test]
    fn chasing_the_compiled_ontology_performs_upward_navigation() {
        let compiled = compile(&mini_ontology());
        let result = chase(&compiled.program, &compiled.database);
        assert!(result.violations.is_empty());
        let pu = result.database.relation("PatientUnit").unwrap();
        assert_eq!(pu.len(), 2);
        assert!(pu.contains(&Tuple::from_iter(["Standard", "Sep/5", "Tom Waits"])));
        assert!(pu.contains(&Tuple::from_iter(["Intensive", "Sep/7", "Tom Waits"])));
    }

    #[test]
    fn referential_constraint_fires_on_bad_data() {
        let mut ontology = mini_ontology();
        // Insert a tuple whose ward is not a member; bypass the MD-level
        // check by writing into the compiled database instead.
        let compiled = compile(&ontology);
        let mut db = compiled.database.clone();
        db.insert("PatientWard", Tuple::from_iter(["W9", "Sep/8", "Lou Reed"]))
            .unwrap();
        let result = chase(&compiled.program, &db);
        assert_eq!(result.violations.nc.len(), 1);
        // The MD-level referential check reports the same problem.
        ontology
            .add_tuple("PatientWard", ["W9", "Sep/8", "Lou Reed"])
            .unwrap();
        assert_eq!(ontology.referential_violations().len(), 1);
    }

    #[test]
    fn compiled_dimensional_rules_are_weakly_sticky_and_weakly_acyclic() {
        let compiled = compile(&mini_ontology());
        let report = ontodq_datalog::classify(&compiled.program);
        assert!(report.weakly_sticky);
        assert!(report.weakly_acyclic);
    }

    #[test]
    fn category_members_become_unary_facts() {
        let compiled = compile(&mini_ontology());
        let ward = compiled.database.relation("Ward").unwrap();
        for w in ["W1", "W2", "W3"] {
            assert!(ward.contains(&Tuple::new(vec![Value::str(w)])));
        }
    }

    #[test]
    fn egds_and_dimensional_constraints_are_carried_over() {
        let mut ontology = mini_ontology();
        ontology
            .add_rule_text("! :- PatientWard(w, d, p), UnitWard(Intensive, w).")
            .unwrap();
        ontology
            .add_rule_text(
                "t = t2 :- Thermometer(w, t, n), Thermometer(w2, t2, n2), UnitWard(u, w), UnitWard(u, w2).",
            )
            .unwrap();
        let compiled = compile(&ontology);
        assert_eq!(compiled.program.egds.len(), 1);
        // 1 referential + 1 dimensional constraint.
        assert_eq!(compiled.program.constraints.len(), 2);
        assert_eq!(compiled.program.tgds.len(), 1);
    }
}
