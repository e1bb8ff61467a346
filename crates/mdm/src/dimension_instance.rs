//! Dimension instances: members of categories and the member-level
//! parent–child relation (roll-up), as in the Hurtado–Mendelzon model.

use crate::dimension_schema::DimensionSchema;
use crate::error::{MdError, Result};
use ontodq_relational::Value;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// An instance of a dimension: members per category and member-level
/// roll-up pairs along the adjacency edges of the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionInstance {
    schema: DimensionSchema,
    /// Category → its members.
    members: BTreeMap<String, BTreeSet<Value>>,
    /// (child category, parent category) → set of (child member, parent member).
    rollups: BTreeMap<(String, String), BTreeSet<(Value, Value)>>,
}

impl DimensionInstance {
    /// An empty instance over `schema`.
    pub fn new(schema: DimensionSchema) -> Self {
        Self {
            schema,
            members: BTreeMap::new(),
            rollups: BTreeMap::new(),
        }
    }

    /// The underlying schema.
    pub fn schema(&self) -> &DimensionSchema {
        &self.schema
    }

    /// The dimension's name.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Add a member to a category.
    pub fn add_member(&mut self, category: &str, member: impl Into<Value>) -> Result<&mut Self> {
        if !self.schema.has_category(category) {
            return Err(MdError::UnknownCategory {
                dimension: self.name().to_string(),
                category: category.to_string(),
            });
        }
        self.members
            .entry(category.to_string())
            .or_default()
            .insert(member.into());
        Ok(self)
    }

    /// Record that `child_member` (in `child_category`) rolls up to
    /// `parent_member` (in `parent_category`).  The categories must be
    /// adjacent in the schema and both members must have been declared;
    /// undeclared members are added implicitly for convenience.
    pub fn add_rollup(
        &mut self,
        child_category: &str,
        child_member: impl Into<Value>,
        parent_category: &str,
        parent_member: impl Into<Value>,
    ) -> Result<&mut Self> {
        if !self.schema.is_adjacent(child_category, parent_category) {
            return Err(MdError::NotAdjacent {
                dimension: self.name().to_string(),
                child: child_category.to_string(),
                parent: parent_category.to_string(),
            });
        }
        let child_member = child_member.into();
        let parent_member = parent_member.into();
        self.add_member(child_category, child_member)?;
        self.add_member(parent_category, parent_member)?;
        self.rollups
            .entry((child_category.to_string(), parent_category.to_string()))
            .or_default()
            .insert((child_member, parent_member));
        Ok(self)
    }

    /// The members of `category`.
    pub(crate) fn members_of(&self, category: &str) -> BTreeSet<Value> {
        self.members.get(category).cloned().unwrap_or_default()
    }

    /// Is `member` a member of `category`?
    pub(crate) fn is_member(&self, category: &str, member: &Value) -> bool {
        self.members
            .get(category)
            .map(|ms| ms.contains(member))
            .unwrap_or(false)
    }

    /// Total number of members across all categories.
    pub fn member_count(&self) -> usize {
        self.members.values().map(BTreeSet::len).sum()
    }

    /// The adjacency-level roll-up pairs between two adjacent categories.
    pub(crate) fn rollup_pairs(
        &self,
        child_category: &str,
        parent_category: &str,
    ) -> BTreeSet<(Value, Value)> {
        self.rollups
            .get(&(child_category.to_string(), parent_category.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// The direct parents of `member` (of `child_category`) in
    /// `parent_category`.
    pub(crate) fn parents_of_member(
        &self,
        child_category: &str,
        member: &Value,
        parent_category: &str,
    ) -> BTreeSet<Value> {
        self.rollup_pairs(child_category, parent_category)
            .into_iter()
            .filter_map(|(c, p)| (&c == member).then_some(p))
            .collect()
    }

    /// The transitive roll-up of `member` from `from_category` to
    /// `to_category` (the set of ancestors of the member in `to_category`,
    /// following any upward path).  Returns the member itself when the
    /// categories coincide.
    pub fn roll_up(
        &self,
        from_category: &str,
        member: &Value,
        to_category: &str,
    ) -> BTreeSet<Value> {
        if from_category == to_category {
            return if self.is_member(from_category, member) {
                std::iter::once(*member).collect()
            } else {
                BTreeSet::new()
            };
        }
        let mut result = BTreeSet::new();
        let mut queue: VecDeque<(String, Value)> = VecDeque::new();
        let mut seen: BTreeSet<(String, Value)> = BTreeSet::new();
        queue.push_back((from_category.to_string(), *member));
        while let Some((category, current)) = queue.pop_front() {
            for parent_category in self.schema.parents_of(&category) {
                for parent in self.parents_of_member(&category, &current, &parent_category) {
                    if parent_category == to_category {
                        result.insert(parent);
                    }
                    if seen.insert((parent_category.clone(), parent)) {
                        queue.push_back((parent_category.clone(), parent));
                    }
                }
            }
        }
        result
    }

    /// Check **strictness**: every member rolls up to at most one member of
    /// each (transitively) higher category.  Returns the violations found.
    pub fn strictness_violations(&self) -> Vec<MdError> {
        let mut violations = Vec::new();
        for (category, members) in &self.members {
            for upper in self.schema.categories() {
                if !self.schema.rolls_up_to(category, upper) {
                    continue;
                }
                for member in members {
                    let ancestors = self.roll_up(category, member, upper);
                    if ancestors.len() > 1 {
                        violations.push(MdError::StrictnessViolation {
                            dimension: self.name().to_string(),
                            category: category.clone(),
                            member: member.to_string(),
                            parent_category: upper.clone(),
                        });
                    }
                }
            }
        }
        violations
    }

    /// Check **homogeneity** (completeness of roll-ups): every member has at
    /// least one parent in every adjacent parent category.  Returns the
    /// violations found.
    pub fn homogeneity_violations(&self) -> Vec<MdError> {
        let mut violations = Vec::new();
        for (category, members) in &self.members {
            for parent_category in self.schema.parents_of(category) {
                for member in members {
                    if self
                        .parents_of_member(category, member, &parent_category)
                        .is_empty()
                    {
                        violations.push(MdError::HomogeneityViolation {
                            dimension: self.name().to_string(),
                            category: category.clone(),
                            member: member.to_string(),
                            parent_category: parent_category.clone(),
                        });
                    }
                }
            }
        }
        violations
    }

    /// Validate the instance: the schema must be acyclic and every roll-up
    /// pair must connect declared members of adjacent categories (the latter
    /// holds by construction through [`DimensionInstance::add_rollup`]).
    /// Strictness and homogeneity are *not* required — the HM model treats
    /// them as optional integrity constraints — but are reported separately
    /// by [`DimensionInstance::strictness_violations`] and
    /// [`DimensionInstance::homogeneity_violations`].
    pub fn validate(&self) -> Result<()> {
        self.schema.validate()
    }
}

impl fmt::Display for DimensionInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dimension instance {} {{", self.name())?;
        for (category, members) in &self.members {
            let rendered: Vec<String> = members.iter().map(|m| m.to_string()).collect();
            writeln!(f, "  {category}: {}", rendered.join(", "))?;
        }
        for ((child, parent), pairs) in &self.rollups {
            for (c, p) in pairs {
                writeln!(f, "  {child}:{c} -> {parent}:{p}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Hospital dimension instance of Fig. 1.
    pub(crate) fn hospital_instance() -> DimensionInstance {
        let schema =
            DimensionSchema::chain("Hospital", ["Ward", "Unit", "Institution", "AllHospital"]);
        let mut dim = DimensionInstance::new(schema);
        dim.add_rollup("Ward", "W1", "Unit", "Standard").unwrap();
        dim.add_rollup("Ward", "W2", "Unit", "Standard").unwrap();
        dim.add_rollup("Ward", "W3", "Unit", "Intensive").unwrap();
        dim.add_rollup("Ward", "W4", "Unit", "Terminal").unwrap();
        dim.add_rollup("Unit", "Standard", "Institution", "H1")
            .unwrap();
        dim.add_rollup("Unit", "Intensive", "Institution", "H1")
            .unwrap();
        dim.add_rollup("Unit", "Terminal", "Institution", "H2")
            .unwrap();
        dim.add_rollup("Institution", "H1", "AllHospital", "allHospital")
            .unwrap();
        dim.add_rollup("Institution", "H2", "AllHospital", "allHospital")
            .unwrap();
        dim
    }

    #[test]
    fn members_and_rollups_are_recorded() {
        let dim = hospital_instance();
        assert_eq!(dim.members_of("Ward").len(), 4);
        assert_eq!(dim.members_of("Unit").len(), 3);
        assert!(dim.is_member("Unit", &Value::str("Standard")));
        assert!(!dim.is_member("Unit", &Value::str("Oncology")));
        assert_eq!(dim.member_count(), 4 + 3 + 2 + 1);
        assert_eq!(dim.rollup_pairs("Ward", "Unit").len(), 4);
    }

    #[test]
    fn direct_parents_and_children() {
        let dim = hospital_instance();
        assert_eq!(
            dim.parents_of_member("Ward", &Value::str("W1"), "Unit"),
            [Value::str("Standard")].into()
        );
        assert!(dim
            .parents_of_member("Ward", &Value::str("W9"), "Unit")
            .is_empty());
    }

    #[test]
    fn transitive_roll_up_and_drill_down() {
        let dim = hospital_instance();
        assert_eq!(
            dim.roll_up("Ward", &Value::str("W1"), "Institution"),
            [Value::str("H1")].into()
        );
        assert_eq!(
            dim.roll_up("Ward", &Value::str("W4"), "Institution"),
            [Value::str("H2")].into()
        );
        // Same category: identity on members.
        assert_eq!(
            dim.roll_up("Unit", &Value::str("Standard"), "Unit"),
            [Value::str("Standard")].into()
        );
        assert!(dim
            .roll_up("Unit", &Value::str("Oncology"), "Unit")
            .is_empty());
    }

    #[test]
    fn hospital_instance_is_strict_and_homogeneous() {
        let dim = hospital_instance();
        assert!(dim.validate().is_ok());
        assert!(dim.strictness_violations().is_empty());
        assert!(dim.homogeneity_violations().is_empty());
    }

    #[test]
    fn strictness_violation_is_detected() {
        let mut dim = hospital_instance();
        // W1 now also rolls up to Intensive → two units for one ward.
        dim.add_rollup("Ward", "W1", "Unit", "Intensive").unwrap();
        let violations = dim.strictness_violations();
        assert!(!violations.is_empty());
        assert!(violations.iter().any(|v| matches!(
            v,
            MdError::StrictnessViolation { member, .. } if member == "W1"
        )));
    }

    #[test]
    fn homogeneity_violation_is_detected() {
        let mut dim = hospital_instance();
        // A new ward with no unit.
        dim.add_member("Ward", "W9").unwrap();
        let violations = dim.homogeneity_violations();
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            MdError::HomogeneityViolation { member, parent_category, .. }
                if member == "W9" && parent_category == "Unit"
        ));
    }

    #[test]
    fn add_member_and_rollup_validate_categories() {
        let mut dim = hospital_instance();
        assert!(matches!(
            dim.add_member("Wing", "X"),
            Err(MdError::UnknownCategory { .. })
        ));
        assert!(matches!(
            dim.add_rollup("Ward", "W1", "Institution", "H1"),
            Err(MdError::NotAdjacent { .. })
        ));
    }

    #[test]
    fn non_strict_dag_rollup_collects_all_ancestors() {
        let mut schema = DimensionSchema::new("Location");
        for c in ["City", "Province", "SalesRegion", "Country"] {
            schema.add_category(c);
        }
        schema.add_edge("City", "Province").unwrap();
        schema.add_edge("City", "SalesRegion").unwrap();
        schema.add_edge("Province", "Country").unwrap();
        schema.add_edge("SalesRegion", "Country").unwrap();
        let mut dim = DimensionInstance::new(schema);
        dim.add_rollup("City", "Ottawa", "Province", "Ontario")
            .unwrap();
        dim.add_rollup("City", "Ottawa", "SalesRegion", "East")
            .unwrap();
        dim.add_rollup("Province", "Ontario", "Country", "Canada")
            .unwrap();
        dim.add_rollup("SalesRegion", "East", "Country", "Canada")
            .unwrap();
        // Two paths, one ancestor: still strict at the Country level.
        assert_eq!(
            dim.roll_up("City", &Value::str("Ottawa"), "Country"),
            [Value::str("Canada")].into()
        );
        assert!(dim.strictness_violations().is_empty());
    }

    #[test]
    fn display_renders_members_and_edges() {
        let rendered = hospital_instance().to_string();
        assert!(rendered.contains("Ward: W1, W2, W3, W4"));
        assert!(rendered.contains("Ward:W1 -> Unit:Standard"));
    }
}
