//! Errors of the multidimensional model layer.

use std::fmt;

/// Errors raised when building or validating multidimensional schemas,
/// instances and ontologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdError {
    /// A category was referenced that is not part of the dimension schema.
    UnknownCategory {
        /// Dimension name.
        dimension: String,
        /// Missing category name.
        category: String,
    },
    /// A dimension was referenced that is not part of the ontology.
    UnknownDimension(String),
    /// A categorical relation was referenced that is not declared.
    UnknownCategoricalRelation(String),
    /// The category DAG contains a cycle.
    CyclicCategoryGraph {
        /// Dimension name.
        dimension: String,
    },
    /// A parent-child edge was declared between categories that are not an
    /// edge of the category DAG.
    NotAdjacent {
        /// Dimension name.
        dimension: String,
        /// Child category.
        child: String,
        /// Parent category.
        parent: String,
    },
    /// A member-level roll-up references an undeclared member.
    UnknownMember {
        /// Dimension name.
        dimension: String,
        /// Category name.
        category: String,
        /// The undeclared member, rendered.
        member: String,
    },
    /// The dimension instance violates strictness: a member rolls up to two
    /// distinct members of the same parent category.
    StrictnessViolation {
        /// Dimension name.
        dimension: String,
        /// Child category.
        category: String,
        /// The offending member, rendered.
        member: String,
        /// Parent category in which two parents were found.
        parent_category: String,
    },
    /// The dimension instance violates homogeneity: a member has no parent in
    /// an adjacent parent category.
    HomogeneityViolation {
        /// Dimension name.
        dimension: String,
        /// Child category.
        category: String,
        /// The offending member, rendered.
        member: String,
        /// Parent category with no parent member.
        parent_category: String,
    },
    /// A categorical attribute refers to a dimension/category pair that does
    /// not exist.
    BadCategoricalAttribute {
        /// Relation name.
        relation: String,
        /// Attribute name.
        attribute: String,
        /// Explanation.
        reason: String,
    },
    /// A tuple of a categorical relation carries a value that is not a member
    /// of the category its attribute is linked to.
    ReferentialViolation {
        /// Relation name.
        relation: String,
        /// Attribute name.
        attribute: String,
        /// The offending value, rendered.
        value: String,
    },
    /// An underlying relational error.
    Relational(String),
}

impl fmt::Display for MdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdError::UnknownCategory { dimension, category } => {
                write!(f, "dimension '{dimension}' has no category '{category}'")
            }
            MdError::UnknownDimension(d) => write!(f, "unknown dimension '{d}'"),
            MdError::UnknownCategoricalRelation(r) => {
                write!(f, "unknown categorical relation '{r}'")
            }
            MdError::CyclicCategoryGraph { dimension } => {
                write!(f, "category graph of dimension '{dimension}' is cyclic")
            }
            MdError::NotAdjacent { dimension, child, parent } => write!(
                f,
                "categories '{child}' and '{parent}' are not adjacent in dimension '{dimension}'"
            ),
            MdError::UnknownMember { dimension, category, member } => write!(
                f,
                "'{member}' is not a member of category '{category}' of dimension '{dimension}'"
            ),
            MdError::StrictnessViolation { dimension, category, member, parent_category } => {
                write!(
                    f,
                    "strictness violated in dimension '{dimension}': member '{member}' of '{category}' has several parents in '{parent_category}'"
                )
            }
            MdError::HomogeneityViolation { dimension, category, member, parent_category } => {
                write!(
                    f,
                    "homogeneity violated in dimension '{dimension}': member '{member}' of '{category}' has no parent in '{parent_category}'"
                )
            }
            MdError::BadCategoricalAttribute { relation, attribute, reason } => write!(
                f,
                "bad categorical attribute '{relation}.{attribute}': {reason}"
            ),
            MdError::ReferentialViolation { relation, attribute, value } => write!(
                f,
                "referential violation: '{relation}.{attribute}' value '{value}' is not a category member"
            ),
            MdError::Relational(msg) => write!(f, "relational error: {msg}"),
        }
    }
}

impl std::error::Error for MdError {}

impl From<ontodq_relational::RelationalError> for MdError {
    fn from(e: ontodq_relational::RelationalError) -> Self {
        MdError::Relational(e.to_string())
    }
}

/// Result alias for the MD layer.
pub(crate) type Result<T> = std::result::Result<T, MdError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(MdError, &str)> = vec![
            (
                MdError::UnknownCategory {
                    dimension: "Hospital".into(),
                    category: "Wing".into(),
                },
                "Wing",
            ),
            (MdError::UnknownDimension("Time".into()), "Time"),
            (
                MdError::UnknownCategoricalRelation("Shifts".into()),
                "Shifts",
            ),
            (
                MdError::CyclicCategoryGraph {
                    dimension: "Hospital".into(),
                },
                "cyclic",
            ),
            (
                MdError::NotAdjacent {
                    dimension: "Hospital".into(),
                    child: "Ward".into(),
                    parent: "Institution".into(),
                },
                "not adjacent",
            ),
            (
                MdError::UnknownMember {
                    dimension: "Hospital".into(),
                    category: "Ward".into(),
                    member: "W9".into(),
                },
                "W9",
            ),
            (
                MdError::StrictnessViolation {
                    dimension: "Hospital".into(),
                    category: "Ward".into(),
                    member: "W1".into(),
                    parent_category: "Unit".into(),
                },
                "strictness",
            ),
            (
                MdError::HomogeneityViolation {
                    dimension: "Hospital".into(),
                    category: "Ward".into(),
                    member: "W1".into(),
                    parent_category: "Unit".into(),
                },
                "homogeneity",
            ),
            (
                MdError::BadCategoricalAttribute {
                    relation: "PatientWard".into(),
                    attribute: "Ward".into(),
                    reason: "no such category".into(),
                },
                "PatientWard.Ward",
            ),
            (
                MdError::ReferentialViolation {
                    relation: "PatientWard".into(),
                    attribute: "Ward".into(),
                    value: "W9".into(),
                },
                "referential",
            ),
            (MdError::Relational("boom".into()), "boom"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "display of {err:?} should contain {needle}"
            );
        }
    }

    #[test]
    fn relational_errors_convert() {
        let rel = ontodq_relational::RelationalError::UnknownRelation("X".into());
        let md: MdError = rel.into();
        assert!(md.to_string().contains("X"));
    }
}
