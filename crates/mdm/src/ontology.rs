//! Multidimensional ontologies `M = (S_M, D_M, Σ_M)`.
//!
//! An [`MdOntology`] bundles:
//! * the dimensions (schemas + instances) — the paper's category predicates
//!   `K` and parent–child predicates `O` with their fixed extensions,
//! * the categorical relation schemas and their data — the predicates `R`,
//! * the dimensional rules (TGDs of forms (4) and (10)), dimensional
//!   constraints (EGDs of form (2) and negative constraints of form (3)),
//!   and, generated automatically at compile time, the referential
//!   constraints of form (1).

use crate::categorical::CategoricalRelationSchema;
use crate::dimension_instance::DimensionInstance;
use crate::error::{MdError, Result};
use ontodq_datalog::{parse_rule, Egd, NegativeConstraint, Rule, Tgd};
use ontodq_relational::{Database, Tuple, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A multidimensional ontology.
#[derive(Debug, Clone, Default)]
pub struct MdOntology {
    name: String,
    dimensions: BTreeMap<String, DimensionInstance>,
    relations: BTreeMap<String, CategoricalRelationSchema>,
    data: Database,
    rules: Vec<Tgd>,
    egds: Vec<Egd>,
    constraints: Vec<NegativeConstraint>,
}

impl MdOntology {
    /// An empty ontology.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The ontology's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add (or replace) a dimension instance.
    pub fn add_dimension(&mut self, dimension: DimensionInstance) -> &mut Self {
        self.dimensions
            .insert(dimension.name().to_string(), dimension);
        self
    }

    /// Add (or replace) a categorical relation schema.
    pub fn add_relation(&mut self, schema: CategoricalRelationSchema) -> &mut Self {
        self.data
            .create_relation(schema.to_relation_schema())
            .expect("categorical relation schemas convert to fresh relational schemas");
        self.relations.insert(schema.name().to_string(), schema);
        self
    }

    /// Add a tuple to a categorical relation.
    pub fn add_tuple<I, V>(&mut self, relation: &str, values: I) -> Result<()>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        if !self.relations.contains_key(relation) {
            return Err(MdError::UnknownCategoricalRelation(relation.to_string()));
        }
        self.data
            .insert(relation, Tuple::from_iter(values))
            .map(|_| ())
            .map_err(MdError::from)
    }

    /// Add a dimensional rule (TGD).
    pub fn add_rule(&mut self, rule: Tgd) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Parse a rule in the `ontodq-datalog` text syntax and add it to the
    /// ontology (TGDs become dimensional rules, EGDs dimensional EGDs,
    /// `! :- …` constraints dimensional constraints; facts are rejected —
    /// extensional data goes through [`MdOntology::add_tuple`]).
    pub fn add_rule_text(&mut self, text: &str) -> Result<&mut Self> {
        let rule = parse_rule(text).map_err(|e| MdError::Relational(e.to_string()))?;
        match rule {
            Rule::Tgd(t) => self.rules.push(t),
            Rule::Egd(e) => self.egds.push(e),
            Rule::Constraint(c) => self.constraints.push(c),
            Rule::Fact(f) => {
                return Err(MdError::Relational(format!(
                    "facts are not dimensional rules: {f}"
                )))
            }
            Rule::Retract(r) => {
                return Err(MdError::Relational(format!(
                    "retractions are not dimensional rules: {r}"
                )))
            }
            Rule::Delete(d) => {
                return Err(MdError::Relational(format!(
                    "conditional deletes are not dimensional rules: {d}"
                )))
            }
        }
        Ok(self)
    }

    /// The dimensions, keyed by name.
    pub fn dimensions(&self) -> &BTreeMap<String, DimensionInstance> {
        &self.dimensions
    }

    /// The dimension called `name`.
    pub(crate) fn dimension(&self, name: &str) -> Result<&DimensionInstance> {
        self.dimensions
            .get(name)
            .ok_or_else(|| MdError::UnknownDimension(name.to_string()))
    }

    /// The categorical relation schemas, keyed by name.
    pub fn relations(&self) -> &BTreeMap<String, CategoricalRelationSchema> {
        &self.relations
    }

    /// The categorical relation schema called `name`.
    pub fn relation(&self, name: &str) -> Result<&CategoricalRelationSchema> {
        self.relations
            .get(name)
            .ok_or_else(|| MdError::UnknownCategoricalRelation(name.to_string()))
    }

    /// The extensional data of the categorical relations.
    pub fn data(&self) -> &Database {
        &self.data
    }

    /// The dimensional rules.
    pub fn rules(&self) -> &[Tgd] {
        &self.rules
    }

    /// The dimensional EGDs.
    pub(crate) fn egds(&self) -> &[Egd] {
        &self.egds
    }

    /// The dimensional negative constraints.
    pub(crate) fn constraints(&self) -> &[NegativeConstraint] {
        &self.constraints
    }

    /// The name of the parent–child predicate for an adjacency edge, in the
    /// paper's style: `UnitWard`, `MonthDay`, `DayTime`, …
    pub(crate) fn parent_child_predicate(parent_category: &str, child_category: &str) -> String {
        format!("{parent_category}{child_category}")
    }

    /// All parent–child predicate names of the ontology, mapped to
    /// `(dimension, child category, parent category)`.
    pub(crate) fn parent_child_predicates(&self) -> BTreeMap<String, (String, String, String)> {
        let mut out = BTreeMap::new();
        for (dim_name, dim) in &self.dimensions {
            for (child, parent) in dim.schema().edges() {
                out.insert(
                    Self::parent_child_predicate(&parent, &child),
                    (dim_name.clone(), child.clone(), parent.clone()),
                );
            }
        }
        out
    }

    /// The arity of every relation the compiled ontology defines: the
    /// extensional data, the categorical relations, one unary predicate per
    /// category and one binary parent–child predicate per adjacency edge.
    /// Data merged into the compiled instance must agree with these.
    pub fn relation_arities(&self) -> BTreeMap<String, usize> {
        let mut out: BTreeMap<String, usize> = self
            .parent_child_predicates()
            .into_keys()
            .map(|predicate| (predicate, 2))
            .collect();
        for dimension in self.dimensions.values() {
            for category in dimension.schema().categories() {
                out.insert(category.clone(), 1);
            }
        }
        for (name, schema) in &self.relations {
            out.insert(name.clone(), schema.arity());
        }
        for name in self.data.relation_names() {
            if let Ok(relation) = self.data.relation(name) {
                out.insert(name.to_string(), relation.schema().arity());
            }
        }
        out
    }

    /// Check the referential integrity of the categorical data: every value
    /// at a categorical position must be a member of the linked category
    /// (labeled nulls are exempt — they stand for unknown members).  Returns
    /// all violations found.
    pub(crate) fn referential_violations(&self) -> Vec<MdError> {
        let mut violations = Vec::new();
        for (name, schema) in &self.relations {
            let Ok(instance) = self.data.relation(name) else {
                continue;
            };
            for (position, dimension, category) in schema.links() {
                let Ok(dim) = self.dimension(dimension) else {
                    violations.push(MdError::BadCategoricalAttribute {
                        relation: name.clone(),
                        attribute: schema.attributes()[position].name().to_string(),
                        reason: format!("unknown dimension '{dimension}'"),
                    });
                    continue;
                };
                if !dim.schema().has_category(category) {
                    violations.push(MdError::BadCategoricalAttribute {
                        relation: name.clone(),
                        attribute: schema.attributes()[position].name().to_string(),
                        reason: format!("dimension '{dimension}' has no category '{category}'"),
                    });
                    continue;
                }
                for tuple in instance.iter() {
                    let Some(value) = tuple.get(position) else {
                        continue;
                    };
                    if value.is_null() {
                        continue;
                    }
                    if !dim.is_member(category, value) {
                        violations.push(MdError::ReferentialViolation {
                            relation: name.clone(),
                            attribute: schema.attributes()[position].name().to_string(),
                            value: value.to_string(),
                        });
                    }
                }
            }
        }
        violations
    }

    /// Validate the ontology: dimension schemas are acyclic, categorical
    /// relation schemas are well-formed and their links resolve, and the data
    /// satisfies referential integrity.
    pub fn validate(&self) -> Result<()> {
        for dim in self.dimensions.values() {
            dim.validate()?;
        }
        for schema in self.relations.values() {
            schema.validate()?;
            for (_, dimension, category) in schema.links() {
                let dim =
                    self.dimension(dimension)
                        .map_err(|_| MdError::BadCategoricalAttribute {
                            relation: schema.name().to_string(),
                            attribute: "<link>".into(),
                            reason: format!("unknown dimension '{dimension}'"),
                        })?;
                if !dim.schema().has_category(category) {
                    return Err(MdError::UnknownCategory {
                        dimension: dimension.to_string(),
                        category: category.to_string(),
                    });
                }
            }
        }
        if let Some(violation) = self.referential_violations().into_iter().next() {
            return Err(violation);
        }
        Ok(())
    }

    /// Summary counts used by diagnostics and benches.
    pub fn summary(&self) -> OntologySummary {
        OntologySummary {
            dimensions: self.dimensions.len(),
            categories: self
                .dimensions
                .values()
                .map(|d| d.schema().categories().len())
                .sum(),
            members: self.dimensions.values().map(|d| d.member_count()).sum(),
            categorical_relations: self.relations.len(),
            categorical_tuples: self.data.total_tuples(),
            rules: self.rules.len(),
            egds: self.egds.len(),
            constraints: self.constraints.len(),
        }
    }
}

/// Summary counts of an ontology's components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OntologySummary {
    /// Number of dimensions.
    pub(crate) dimensions: usize,
    /// Total number of categories across dimensions.
    pub(crate) categories: usize,
    /// Total number of members across categories.
    pub members: usize,
    /// Number of categorical relations.
    pub(crate) categorical_relations: usize,
    /// Total number of tuples in categorical relations.
    pub(crate) categorical_tuples: usize,
    /// Number of dimensional rules.
    pub(crate) rules: usize,
    /// Number of dimensional EGDs.
    pub(crate) egds: usize,
    /// Number of dimensional negative constraints.
    pub(crate) constraints: usize,
}

impl fmt::Display for OntologySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} dimensions, {} categories, {} members, {} categorical relations ({} tuples), {} rules, {} EGDs, {} constraints",
            self.dimensions,
            self.categories,
            self.members,
            self.categorical_relations,
            self.categorical_tuples,
            self.rules,
            self.egds,
            self.constraints
        )
    }
}

impl fmt::Display for MdOntology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ontology {} {{", self.name)?;
        for dim in self.dimensions.values() {
            writeln!(f, "{}", dim.schema())?;
        }
        for rel in self.relations.values() {
            writeln!(f, "  {rel}")?;
        }
        for rule in &self.rules {
            writeln!(f, "  {rule}")?;
        }
        for egd in &self.egds {
            writeln!(f, "  {egd}")?;
        }
        for nc in &self.constraints {
            writeln!(f, "  {nc}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorical::CategoricalAttribute;
    use crate::dimension_schema::DimensionSchema;

    fn small_ontology() -> MdOntology {
        let schema =
            DimensionSchema::chain("Hospital", ["Ward", "Unit", "Institution", "AllHospital"]);
        let mut hospital = DimensionInstance::new(schema);
        hospital
            .add_rollup("Ward", "W1", "Unit", "Standard")
            .unwrap();
        hospital
            .add_rollup("Ward", "W2", "Unit", "Standard")
            .unwrap();
        hospital
            .add_rollup("Unit", "Standard", "Institution", "H1")
            .unwrap();
        hospital
            .add_rollup("Institution", "H1", "AllHospital", "allHospital")
            .unwrap();

        let mut ontology = MdOntology::new("hospital-mini");
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
            .add_rule_text("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).")
            .unwrap();
        ontology
    }

    #[test]
    fn ontology_accessors() {
        let o = small_ontology();
        assert_eq!(o.name(), "hospital-mini");
        assert!(o.dimension("Hospital").is_ok());
        assert!(o.dimension("Time").is_err());
        assert!(o.relation("PatientWard").is_ok());
        assert!(o.relation("Shifts").is_err());
        assert_eq!(o.rules().len(), 1);
        assert_eq!(o.data().relation("PatientWard").unwrap().len(), 1);
    }

    #[test]
    fn parent_child_predicate_naming_follows_the_paper() {
        assert_eq!(
            MdOntology::parent_child_predicate("Unit", "Ward"),
            "UnitWard"
        );
        let o = small_ontology();
        let pcs = o.parent_child_predicates();
        assert!(pcs.contains_key("UnitWard"));
        assert_eq!(
            pcs.get("UnitWard"),
            Some(&(
                "Hospital".to_string(),
                "Ward".to_string(),
                "Unit".to_string()
            ))
        );
        assert!(pcs.contains_key("InstitutionUnit"));
        assert!(pcs.contains_key("AllHospitalInstitution"));
    }

    #[test]
    fn add_tuple_requires_declared_relation() {
        let mut o = small_ontology();
        assert!(matches!(
            o.add_tuple("Shifts", ["W1", "Sep/5", "Helen", "night"]),
            Err(MdError::UnknownCategoricalRelation(_))
        ));
    }

    #[test]
    fn add_rule_text_dispatches_by_kind() {
        let mut o = small_ontology();
        o.add_rule_text("! :- PatientWard(w, d, p), UnitWard(Intensive, w).")
            .unwrap();
        o.add_rule_text(
            "t = t2 :- Thermometer(w, t, n), Thermometer(w2, t2, n2), UnitWard(u, w), UnitWard(u, w2).",
        )
        .unwrap();
        assert_eq!(o.constraints().len(), 1);
        assert_eq!(o.egds().len(), 1);
        assert!(o.add_rule_text("Unit(Standard).").is_err());
        assert!(o.add_rule_text("not a rule").is_err());
    }

    #[test]
    fn referential_violations_are_detected() {
        let mut o = small_ontology();
        assert!(o.referential_violations().is_empty());
        assert!(o.validate().is_ok());
        // W9 is not a ward member.
        o.add_tuple("PatientWard", ["W9", "Sep/5", "Lou Reed"])
            .unwrap();
        let violations = o.referential_violations();
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            MdError::ReferentialViolation { value, .. } if value == "W9"
        ));
        assert!(o.validate().is_err());
    }

    #[test]
    fn validate_rejects_links_to_unknown_categories() {
        let mut o = small_ontology();
        o.add_relation(CategoricalRelationSchema::new(
            "Bad",
            vec![CategoricalAttribute::categorical(
                "Wing", "Hospital", "Wing",
            )],
        ));
        assert!(o.validate().is_err());
        let mut o2 = small_ontology();
        o2.add_relation(CategoricalRelationSchema::new(
            "Bad2",
            vec![CategoricalAttribute::categorical(
                "City", "Location", "City",
            )],
        ));
        assert!(o2.validate().is_err());
    }

    #[test]
    fn summary_counts_components() {
        let o = small_ontology();
        let s = o.summary();
        assert_eq!(s.dimensions, 1);
        assert_eq!(s.categories, 4);
        assert_eq!(s.members, 5);
        assert_eq!(s.categorical_relations, 1);
        assert_eq!(s.categorical_tuples, 1);
        assert_eq!(s.rules, 1);
        assert!(s.to_string().contains("1 dimensions"));
    }

    #[test]
    fn display_renders_components() {
        let rendered = small_ontology().to_string();
        assert!(rendered.contains("ontology hospital-mini"));
        assert!(rendered.contains("dimension Hospital"));
        assert!(rendered.contains("PatientUnit(u, d, p) :- "));
    }

    #[test]
    fn nulls_are_exempt_from_referential_checking() {
        let mut o = small_ontology();
        o.data
            .insert(
                "PatientWard",
                Tuple::new(vec![
                    Value::Null(ontodq_relational::NullId(0)),
                    Value::str("Sep/5"),
                    Value::str("X"),
                ]),
            )
            .unwrap();
        assert!(o.referential_violations().is_empty());
    }
}
