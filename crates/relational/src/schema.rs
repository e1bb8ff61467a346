//! Relation schemas and attribute typing.
//!
//! Every relation — contextual relations, categorical relations, and the
//! unary/binary predicates that the multidimensional compiler emits — is
//! described by a [`RelationSchema`]: a name plus an ordered list of typed
//! attributes.

use crate::error::{RelationalError, Result};
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;

/// The type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttributeType {
    /// Strings (names, member identifiers, …).
    String,
    /// 64-bit integers.
    Integer,
    /// Double-precision floats (measurement values, …).
    Double,
    /// Booleans.
    Boolean,
    /// Timestamps (minutes since an epoch; see [`Value::Time`]).
    Time,
    /// Any value accepted; used for predicates whose positions are untyped
    /// (the Datalog± layer treats all positions as `Any`).
    Any,
}

impl AttributeType {
    /// Does `value` conform to this type?  Labeled nulls conform to every
    /// type (they stand for an unknown domain value).
    pub(crate) fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null(_))
                | (AttributeType::Any, _)
                | (AttributeType::String, Value::Str(_))
                | (AttributeType::Integer, Value::Int(_))
                | (AttributeType::Double, Value::Double(_))
                | (AttributeType::Double, Value::Int(_))
                | (AttributeType::Boolean, Value::Bool(_))
                | (AttributeType::Time, Value::Time(_))
        )
    }
}

impl fmt::Display for AttributeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AttributeType::String => "String",
            AttributeType::Integer => "Integer",
            AttributeType::Double => "Double",
            AttributeType::Boolean => "Boolean",
            AttributeType::Time => "Time",
            AttributeType::Any => "Any",
        };
        write!(f, "{name}")
    }
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: String,
    /// Declared type.
    pub ty: AttributeType,
}

impl Attribute {
    /// Construct an attribute.
    pub fn new(name: impl Into<String>, ty: AttributeType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }

    /// A string-typed attribute (the most common case in the paper).
    pub fn string(name: impl Into<String>) -> Self {
        Self::new(name, AttributeType::String)
    }

    /// An untyped attribute.
    pub(crate) fn any(name: impl Into<String>) -> Self {
        Self::new(name, AttributeType::Any)
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.ty)
    }
}

/// Schema of a relation: a name and an ordered list of attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    name: String,
    attributes: Vec<Attribute>,
}

impl RelationSchema {
    /// Construct a schema from a name and attributes.
    pub fn new(name: impl Into<String>, attributes: Vec<Attribute>) -> Self {
        Self {
            name: name.into(),
            attributes,
        }
    }

    /// Construct a schema whose attributes are all [`AttributeType::Any`],
    /// named `a0..a{arity-1}` — the shape used for Datalog± predicates.
    pub fn untyped(name: impl Into<String>, arity: usize) -> Self {
        let attributes = (0..arity)
            .map(|i| Attribute::any(format!("a{i}")))
            .collect();
        Self {
            name: name.into(),
            attributes,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// The attributes in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Attribute names in declaration order.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name.as_str()).collect()
    }

    /// The attribute at `position`, if in range.
    pub fn attribute_at(&self, position: usize) -> Option<&Attribute> {
        self.attributes.get(position)
    }

    /// Validate a tuple against this schema: arity and attribute types.
    pub fn validate(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: self.name.clone(),
                expected: self.arity(),
                actual: tuple.arity(),
            });
        }
        for (attr, value) in self.attributes.iter().zip(tuple.values()) {
            if !attr.ty.admits(value) {
                return Err(RelationalError::TypeMismatch {
                    relation: self.name.clone(),
                    attribute: attr.name.clone(),
                    expected: attr.ty.to_string(),
                    actual: format!("{value} ({})", value.kind()),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, attr) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{attr}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::null::NullId;

    fn measurements_schema() -> RelationSchema {
        RelationSchema::new(
            "Measurements",
            vec![
                Attribute::new("Time", AttributeType::Time),
                Attribute::string("Patient"),
                Attribute::new("Value", AttributeType::Double),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let schema = measurements_schema();
        assert_eq!(schema.name(), "Measurements");
        assert_eq!(schema.arity(), 3);
        assert_eq!(schema.attribute_names(), vec!["Time", "Patient", "Value"]);
        assert_eq!(schema.attribute_at(2).unwrap().ty, AttributeType::Double);
    }

    #[test]
    fn validate_accepts_well_typed_tuples() {
        let schema = measurements_schema();
        let tuple = Tuple::new(vec![
            Value::parse_time("Sep/5-12:10").unwrap(),
            Value::str("Tom Waits"),
            Value::double(38.2),
        ]);
        assert!(schema.validate(&tuple).is_ok());
    }

    #[test]
    fn validate_accepts_nulls_at_any_position() {
        let schema = measurements_schema();
        let tuple = Tuple::new(vec![
            Value::null(NullId(0)),
            Value::null(NullId(1)),
            Value::null(NullId(2)),
        ]);
        assert!(schema.validate(&tuple).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let schema = measurements_schema();
        let tuple = Tuple::new(vec![Value::str("Tom Waits")]);
        assert!(matches!(
            schema.validate(&tuple),
            Err(RelationalError::ArityMismatch {
                expected: 3,
                actual: 1,
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_wrong_type() {
        let schema = measurements_schema();
        let tuple = Tuple::new(vec![
            Value::str("not a time"),
            Value::str("Tom Waits"),
            Value::double(38.2),
        ]);
        assert!(matches!(
            schema.validate(&tuple),
            Err(RelationalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn integers_are_admitted_where_doubles_are_expected() {
        assert!(AttributeType::Double.admits(&Value::int(37)));
    }

    #[test]
    fn any_admits_everything() {
        for v in [
            Value::str("x"),
            Value::int(1),
            Value::double(1.0),
            Value::bool(true),
            Value::time(0),
            Value::null(NullId(0)),
        ] {
            assert!(AttributeType::Any.admits(&v));
        }
    }

    #[test]
    fn untyped_schema_has_any_attributes() {
        let schema = RelationSchema::untyped("P", 4);
        assert_eq!(schema.arity(), 4);
        assert!(schema
            .attributes()
            .iter()
            .all(|a| a.ty == AttributeType::Any));
        assert_eq!(schema.attribute_names(), vec!["a0", "a1", "a2", "a3"]);
    }

    #[test]
    fn display_renders_schema() {
        let schema = measurements_schema();
        assert_eq!(
            schema.to_string(),
            "Measurements(Time: Time, Patient: String, Value: Double)"
        );
    }
}
