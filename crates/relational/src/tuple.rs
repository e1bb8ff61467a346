//! Tuples.

use crate::null::NullId;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A tuple of values.
///
/// The value storage is a shared `Arc<[Value]>`: cloning a tuple — which the
/// chase does constantly when the same row enters index postings, delta
/// windows, dedup sets and trigger batches — bumps a reference count instead
/// of copying the payload.  Tuples are immutable; the "mutating" helpers
/// (such as [`Tuple::project`]) build new tuples.  The
/// schema a tuple conforms to lives in the relation instance holding it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Construct a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// Construct a tuple from anything convertible into values.
    ///
    /// Deliberately an inherent method (not the `FromIterator` trait): the
    /// generic `V: Into<Value>` bound lets call sites write
    /// `Tuple::from_iter(["a", "b"])`, which trait-based collection cannot
    /// infer.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Self {
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at `position`, if in range.
    pub fn get(&self, position: usize) -> Option<&Value> {
        self.values.get(position)
    }

    /// `true` when no value in the tuple is a labeled null.
    pub fn is_ground(&self) -> bool {
        self.values.iter().all(Value::is_constant)
    }

    /// The labeled nulls occurring in the tuple, in positional order
    /// (duplicates preserved).
    pub fn nulls(&self) -> Vec<NullId> {
        self.values.iter().filter_map(Value::as_null).collect()
    }

    /// A copy of the tuple restricted to `positions`, in the given order.
    ///
    /// Out-of-range positions are silently skipped; callers validate
    /// positions against the schema beforehand.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple::new(
            positions
                .iter()
                .filter_map(|&p| self.values.get(p).copied())
                .collect(),
        )
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tuple::from_iter(["W1", "Sep/5", "Tom Waits"]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::str("W1")));
        assert_eq!(t.get(3), None);
        assert_eq!(t.values().len(), 3);
    }

    #[test]
    fn groundness_and_nulls() {
        let ground = Tuple::from_iter(["a", "b"]);
        assert!(ground.is_ground());
        assert!(ground.nulls().is_empty());

        let with_null = Tuple::new(vec![Value::str("a"), Value::null(NullId(7))]);
        assert!(!with_null.is_ground());
        assert_eq!(with_null.nulls(), vec![NullId(7)]);
    }

    #[test]
    fn projection_preserves_order_and_skips_out_of_range() {
        let t = Tuple::from_iter(["a", "b", "c"]);
        assert_eq!(t.project(&[2, 0]), Tuple::from_iter(["c", "a"]));
        assert_eq!(t.project(&[5]), Tuple::new(vec![]));
        assert_eq!(t.project(&[1, 1]), Tuple::from_iter(["b", "b"]));
    }

    #[test]
    fn display_renders_parenthesized_list() {
        let t = Tuple::from_iter(["W1", "Helen"]);
        assert_eq!(t.to_string(), "(W1, Helen)");
    }

    #[test]
    fn tuples_are_hashable_and_ordered() {
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        set.insert(Tuple::from_iter(["b"]));
        set.insert(Tuple::from_iter(["a"]));
        set.insert(Tuple::from_iter(["a"]));
        assert_eq!(set.len(), 2);
        assert_eq!(set.iter().next().unwrap(), &Tuple::from_iter(["a"]));
    }
}
