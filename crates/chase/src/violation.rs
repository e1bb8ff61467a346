//! Constraint violations observed during the chase or during consistency
//! checking.

use ontodq_datalog::Assignment;
use ontodq_relational::Value;
use std::fmt;

/// A violation of an equality-generating dependency: the body matched and the
/// two equated terms evaluate to distinct constants.  A side holding a
/// labeled null is unknown, never a violation.
#[derive(Debug, Clone, PartialEq)]
pub struct EgdViolation {
    /// Index of the EGD in the program.
    pub egd_index: usize,
    /// Optional label of the EGD.
    pub(crate) label: Option<String>,
    /// Value of the left-hand head variable.
    pub left: Value,
    /// Value of the right-hand head variable.
    pub right: Value,
    /// The body assignment that witnessed the violation.
    pub(crate) witness: Assignment,
}

impl fmt::Display for EgdViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = self
            .label
            .clone()
            .unwrap_or_else(|| format!("egd#{}", self.egd_index));
        write!(
            f,
            "EGD {label} violated: {} ≠ {} under {}",
            self.left, self.right, self.witness
        )
    }
}

/// A violation of a negative constraint: its body is satisfied.
#[derive(Debug, Clone, PartialEq)]
pub struct NcViolation {
    /// Index of the constraint in the program.
    pub constraint_index: usize,
    /// Optional label of the constraint.
    pub(crate) label: Option<String>,
    /// The body assignment that witnessed the violation.
    pub witness: Assignment,
}

impl fmt::Display for NcViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = self
            .label
            .clone()
            .unwrap_or_else(|| format!("nc#{}", self.constraint_index));
        write!(f, "constraint {label} violated under {}", self.witness)
    }
}

/// All violations observed in one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Violations {
    /// Hard EGD violations.
    pub egd: Vec<EgdViolation>,
    /// Negative-constraint violations.
    pub nc: Vec<NcViolation>,
}

impl Violations {
    /// `true` when no violation of either kind was observed.
    pub fn is_empty(&self) -> bool {
        self.egd.is_empty() && self.nc.is_empty()
    }

    /// Total number of violations.
    pub fn len(&self) -> usize {
        self.egd.len() + self.nc.len()
    }
}

impl fmt::Display for Violations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.egd {
            writeln!(f, "{v}")?;
        }
        for v in &self.nc {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_datalog::Variable;

    #[test]
    fn empty_and_len() {
        let mut v = Violations::default();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        v.nc.push(NcViolation {
            constraint_index: 0,
            label: None,
            witness: Assignment::new(),
        });
        assert!(!v.is_empty());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn displays_mention_labels_and_fallbacks() {
        let mut witness = Assignment::new();
        witness.bind(Variable::new("w"), Value::str("W3"));
        let egd = EgdViolation {
            egd_index: 2,
            label: None,
            left: Value::str("B1"),
            right: Value::str("B2"),
            witness: witness.clone(),
        };
        assert!(egd.to_string().contains("egd#2"));
        assert!(egd.to_string().contains("B1"));

        let nc = NcViolation {
            constraint_index: 1,
            label: Some("no-intensive-after-aug-2005".into()),
            witness,
        };
        assert!(nc.to_string().contains("no-intensive-after-aug-2005"));
        assert!(nc.to_string().contains("W3"));

        let all = Violations {
            egd: vec![egd],
            nc: vec![nc],
        };
        assert_eq!(all.to_string().lines().count(), 2);
    }
}
