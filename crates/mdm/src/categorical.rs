//! Categorical relations — the paper's extension of HM fact tables.
//!
//! A categorical relation has categorical attributes, each linked to a
//! category of some dimension (at *any* level, not only the bottom one), and
//! non-categorical attributes taking values from arbitrary domains.  The
//! paper writes them `R(ē; ā)` with `ē` the categorical and `ā` the
//! non-categorical attributes.

use crate::error::{MdError, Result};
use ontodq_relational::{Attribute, AttributeType, RelationSchema};
use std::fmt;

/// One attribute of a categorical relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CategoricalAttribute {
    /// A categorical attribute: its values are members of `category` in
    /// `dimension`.
    Categorical {
        /// Attribute name.
        name: String,
        /// Dimension the attribute is linked to.
        dimension: String,
        /// Category (level) within the dimension.
        category: String,
    },
    /// A non-categorical attribute with an arbitrary domain.
    NonCategorical {
        /// Attribute name.
        name: String,
        /// Value type.
        ty: AttributeType,
    },
}

impl CategoricalAttribute {
    /// Categorical attribute constructor.
    pub fn categorical(
        name: impl Into<String>,
        dimension: impl Into<String>,
        category: impl Into<String>,
    ) -> Self {
        CategoricalAttribute::Categorical {
            name: name.into(),
            dimension: dimension.into(),
            category: category.into(),
        }
    }

    /// Non-categorical attribute constructor (string typed).
    pub fn non_categorical(name: impl Into<String>) -> Self {
        CategoricalAttribute::NonCategorical {
            name: name.into(),
            ty: AttributeType::String,
        }
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        match self {
            CategoricalAttribute::Categorical { name, .. } => name,
            CategoricalAttribute::NonCategorical { name, .. } => name,
        }
    }

    /// `true` when the attribute is categorical.
    pub(crate) fn is_categorical(&self) -> bool {
        matches!(self, CategoricalAttribute::Categorical { .. })
    }

    /// The `(dimension, category)` the attribute is linked to, if categorical.
    pub(crate) fn link(&self) -> Option<(&str, &str)> {
        match self {
            CategoricalAttribute::Categorical {
                dimension,
                category,
                ..
            } => Some((dimension.as_str(), category.as_str())),
            CategoricalAttribute::NonCategorical { .. } => None,
        }
    }
}

impl fmt::Display for CategoricalAttribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CategoricalAttribute::Categorical {
                name,
                dimension,
                category,
            } => {
                write!(f, "{name} -> {dimension}.{category}")
            }
            CategoricalAttribute::NonCategorical { name, ty } => write!(f, "{name}: {ty}"),
        }
    }
}

/// Schema of a categorical relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoricalRelationSchema {
    name: String,
    attributes: Vec<CategoricalAttribute>,
}

impl CategoricalRelationSchema {
    /// Construct a categorical relation schema.
    pub fn new(name: impl Into<String>, attributes: Vec<CategoricalAttribute>) -> Self {
        Self {
            name: name.into(),
            attributes,
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All attributes in declaration order.
    pub fn attributes(&self) -> &[CategoricalAttribute] {
        &self.attributes
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Positions (0-based) of the categorical attributes.
    pub(crate) fn categorical_positions(&self) -> Vec<usize> {
        self.attributes
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.is_categorical().then_some(i))
            .collect()
    }

    /// The categorical links of the relation as
    /// `(position, dimension, category)` triples.
    pub fn links(&self) -> Vec<(usize, &str, &str)> {
        self.attributes
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.link().map(|(d, c)| (i, d, c)))
            .collect()
    }

    /// The corresponding relational schema (categorical attributes are
    /// string-typed member names; non-categorical attributes keep their
    /// declared type).
    pub(crate) fn to_relation_schema(&self) -> RelationSchema {
        RelationSchema::new(
            self.name.clone(),
            self.attributes
                .iter()
                .map(|a| match a {
                    CategoricalAttribute::Categorical { name, .. } => {
                        Attribute::new(name.clone(), AttributeType::Any)
                    }
                    CategoricalAttribute::NonCategorical { name, ty } => {
                        Attribute::new(name.clone(), *ty)
                    }
                })
                .collect(),
        )
    }

    /// Basic well-formedness: at least one categorical attribute, and
    /// attribute names are unique.
    pub fn validate(&self) -> Result<()> {
        if self.categorical_positions().is_empty() {
            return Err(MdError::BadCategoricalAttribute {
                relation: self.name.clone(),
                attribute: "<none>".into(),
                reason: "a categorical relation needs at least one categorical attribute".into(),
            });
        }
        let mut seen = std::collections::BTreeSet::new();
        for attr in &self.attributes {
            if !seen.insert(attr.name()) {
                return Err(MdError::BadCategoricalAttribute {
                    relation: self.name.clone(),
                    attribute: attr.name().to_string(),
                    reason: "duplicate attribute name".into(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for CategoricalRelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, attr) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{attr}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `PatientWard(Ward, Day; Patient)` from Example 3.
    fn patient_ward() -> CategoricalRelationSchema {
        CategoricalRelationSchema::new(
            "PatientWard",
            vec![
                CategoricalAttribute::categorical("Ward", "Hospital", "Ward"),
                CategoricalAttribute::categorical("Day", "Time", "Day"),
                CategoricalAttribute::non_categorical("Patient"),
            ],
        )
    }

    #[test]
    fn attribute_accessors() {
        let ward = CategoricalAttribute::categorical("Ward", "Hospital", "Ward");
        assert_eq!(ward.name(), "Ward");
        assert!(ward.is_categorical());
        assert_eq!(ward.link(), Some(("Hospital", "Ward")));

        let patient = CategoricalAttribute::non_categorical("Patient");
        assert!(!patient.is_categorical());
        assert_eq!(patient.link(), None);
        assert_eq!(patient.name(), "Patient");
    }

    #[test]
    fn schema_positions_and_links() {
        let schema = patient_ward();
        assert_eq!(schema.arity(), 3);
        assert_eq!(schema.categorical_positions(), vec![0, 1]);
        assert_eq!(schema.links().len(), 2);
    }

    #[test]
    fn conversion_to_relation_schema() {
        let rel = patient_ward().to_relation_schema();
        assert_eq!(rel.name(), "PatientWard");
        assert_eq!(rel.arity(), 3);
        assert_eq!(rel.attribute_names(), vec!["Ward", "Day", "Patient"]);
    }

    #[test]
    fn validation_catches_degenerate_schemas() {
        let no_categorical = CategoricalRelationSchema::new(
            "Plain",
            vec![CategoricalAttribute::non_categorical("a")],
        );
        assert!(matches!(
            no_categorical.validate(),
            Err(MdError::BadCategoricalAttribute { .. })
        ));

        let duplicate = CategoricalRelationSchema::new(
            "Dup",
            vec![
                CategoricalAttribute::categorical("x", "D", "C"),
                CategoricalAttribute::non_categorical("x"),
            ],
        );
        assert!(matches!(
            duplicate.validate(),
            Err(MdError::BadCategoricalAttribute { .. })
        ));

        assert!(patient_ward().validate().is_ok());
    }

    #[test]
    fn display_uses_semicolon_between_attribute_groups() {
        let rendered = patient_ward().to_string();
        assert!(rendered.starts_with("PatientWard("));
        assert!(rendered.contains("Ward -> Hospital.Ward"));
        assert!(rendered.contains("Patient: String"));
    }

    #[test]
    fn typed_non_categorical_attributes() {
        let schema = CategoricalRelationSchema::new(
            "Measurement",
            vec![
                CategoricalAttribute::categorical("Time", "Time", "Time"),
                CategoricalAttribute::NonCategorical {
                    name: "Value".into(),
                    ty: AttributeType::Double,
                },
            ],
        );
        let rel = schema.to_relation_schema();
        assert_eq!(rel.attribute_at(1).unwrap().ty, AttributeType::Double);
    }
}
