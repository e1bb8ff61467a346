//! Dimension schemas: DAGs of categories with a parent–child relation, as in
//! the Hurtado–Mendelzon multidimensional model.
//!
//! A dimension schema has a set of categories and a set of *adjacency* edges
//! `child ≺ parent`.  The transitive closure of the adjacency relation is the
//! partial order `⊑` ("rolls up to"); the bottom categories are those with no
//! children, and a distinguished top category (conventionally `All`) may or
//! may not be present.

use crate::error::{MdError, Result};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A dimension schema: a named DAG of categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionSchema {
    name: String,
    categories: BTreeSet<String>,
    /// Adjacency edges: child category → parent categories.
    parents: BTreeMap<String, BTreeSet<String>>,
}

impl DimensionSchema {
    /// An empty dimension schema.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            categories: BTreeSet::new(),
            parents: BTreeMap::new(),
        }
    }

    /// Build a linear (chain) schema from bottom to top, e.g.
    /// `DimensionSchema::chain("Hospital", ["Ward", "Unit", "Institution", "AllHospital"])`.
    pub fn chain<I, S>(name: impl Into<String>, categories: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut schema = Self::new(name);
        let cats: Vec<String> = categories.into_iter().map(Into::into).collect();
        for c in &cats {
            schema.add_category(c.clone());
        }
        for pair in cats.windows(2) {
            schema
                .add_edge(pair[0].clone(), pair[1].clone())
                .expect("chain categories exist");
        }
        schema
    }

    /// The dimension's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a category (idempotent).
    pub(crate) fn add_category(&mut self, category: impl Into<String>) -> &mut Self {
        self.categories.insert(category.into());
        self
    }

    /// Add an adjacency edge `child ≺ parent`; both categories must exist.
    pub(crate) fn add_edge(
        &mut self,
        child: impl Into<String>,
        parent: impl Into<String>,
    ) -> Result<&mut Self> {
        let child = child.into();
        let parent = parent.into();
        for c in [&child, &parent] {
            if !self.categories.contains(c) {
                return Err(MdError::UnknownCategory {
                    dimension: self.name.clone(),
                    category: c.clone(),
                });
            }
        }
        self.parents.entry(child).or_default().insert(parent);
        Ok(self)
    }

    /// All categories.
    pub fn categories(&self) -> &BTreeSet<String> {
        &self.categories
    }

    /// Does the schema contain `category`?
    pub(crate) fn has_category(&self, category: &str) -> bool {
        self.categories.contains(category)
    }

    /// Direct parent categories of `category`.
    pub(crate) fn parents_of(&self, category: &str) -> BTreeSet<String> {
        self.parents.get(category).cloned().unwrap_or_default()
    }

    /// Direct child categories of `category`.
    pub(crate) fn children_of(&self, category: &str) -> BTreeSet<String> {
        self.parents
            .iter()
            .filter(|&(_child, parents)| parents.contains(category))
            .map(|(child, _parents)| child.clone())
            .collect()
    }

    /// The adjacency edges as (child, parent) pairs.
    pub(crate) fn edges(&self) -> Vec<(String, String)> {
        self.parents
            .iter()
            .flat_map(|(c, ps)| ps.iter().map(move |p| (c.clone(), p.clone())))
            .collect()
    }

    /// Is `child` adjacent to (a direct child of) `parent`?
    pub(crate) fn is_adjacent(&self, child: &str, parent: &str) -> bool {
        self.parents
            .get(child)
            .map(|ps| ps.contains(parent))
            .unwrap_or(false)
    }

    /// Does `lower` roll up (transitively, strictly) to `upper`?
    pub(crate) fn rolls_up_to(&self, lower: &str, upper: &str) -> bool {
        if lower == upper {
            return false;
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(lower.to_string());
        while let Some(current) = queue.pop_front() {
            for parent in self.parents_of(&current) {
                if parent == upper {
                    return true;
                }
                if seen.insert(parent.clone()) {
                    queue.push_back(parent);
                }
            }
        }
        false
    }

    /// The level of a category: the length of the longest upward path from a
    /// bottom category to it (bottom categories have level 0).  Returns
    /// `None` for unknown categories.
    pub fn level_of(&self, category: &str) -> Option<usize> {
        if !self.has_category(category) {
            return None;
        }
        // Longest path in a DAG via memoized DFS downwards.
        fn longest(
            schema: &DimensionSchema,
            cat: &str,
            memo: &mut BTreeMap<String, usize>,
        ) -> usize {
            if let Some(level) = memo.get(cat) {
                return *level;
            }
            let children = schema.children_of(cat);
            let level = if children.is_empty() {
                0
            } else {
                1 + children
                    .iter()
                    .map(|c| longest(schema, c, memo))
                    .max()
                    .unwrap_or(0)
            };
            memo.insert(cat.to_string(), level);
            level
        }
        let mut memo = BTreeMap::new();
        Some(longest(self, category, &mut memo))
    }

    /// Validate the schema: the category graph must be acyclic.
    pub fn validate(&self) -> Result<()> {
        // Kahn's algorithm over the child→parent edges.
        let mut indegree: BTreeMap<&str, usize> =
            self.categories.iter().map(|c| (c.as_str(), 0)).collect();
        for parents in self.parents.values() {
            for p in parents {
                *indegree.entry(p.as_str()).or_insert(0) += 1;
            }
        }
        let mut queue: VecDeque<&str> = indegree
            .iter()
            .filter_map(|(c, d)| (*d == 0).then_some(*c))
            .collect();
        let mut visited = 0;
        while let Some(cat) = queue.pop_front() {
            visited += 1;
            for p in self.parents_of(cat) {
                let d = indegree.get_mut(p.as_str()).unwrap();
                *d -= 1;
                if *d == 0 {
                    // Re-borrow the owned key from categories to keep lifetimes simple.
                    let key = self.categories.get(&p).unwrap();
                    queue.push_back(key.as_str());
                }
            }
        }
        if visited < self.categories.len() {
            return Err(MdError::CyclicCategoryGraph {
                dimension: self.name.clone(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for DimensionSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dimension {} {{", self.name)?;
        for (child, parent) in self.edges() {
            writeln!(f, "  {child} -> {parent}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Hospital dimension of Fig. 1: Ward → Unit → Institution → All.
    fn hospital() -> DimensionSchema {
        DimensionSchema::chain("Hospital", ["Ward", "Unit", "Institution", "AllHospital"])
    }

    #[test]
    fn chain_construction() {
        let h = hospital();
        assert_eq!(h.name(), "Hospital");
        assert_eq!(h.categories().len(), 4);
        assert!(h.is_adjacent("Ward", "Unit"));
        assert!(h.is_adjacent("Unit", "Institution"));
        assert!(!h.is_adjacent("Ward", "Institution"));
        assert!(h.validate().is_ok());
    }

    #[test]
    fn rolls_up_to_is_transitive_and_irreflexive() {
        let h = hospital();
        assert!(h.rolls_up_to("Ward", "Unit"));
        assert!(h.rolls_up_to("Ward", "Institution"));
        assert!(h.rolls_up_to("Ward", "AllHospital"));
        assert!(!h.rolls_up_to("Unit", "Ward"));
        assert!(!h.rolls_up_to("Ward", "Ward"));
        assert!(!h.rolls_up_to("Ward", "Day"));
    }

    #[test]
    fn levels_follow_longest_paths() {
        let h = hospital();
        assert_eq!(h.level_of("Ward"), Some(0));
        assert_eq!(h.level_of("Unit"), Some(1));
        assert_eq!(h.level_of("Institution"), Some(2));
        assert_eq!(h.level_of("AllHospital"), Some(3));
        assert_eq!(h.level_of("Wing"), None);
    }

    #[test]
    fn non_linear_dag_with_multiple_parents() {
        // A Location dimension where City rolls up to both Province and
        // SalesRegion.
        let mut loc = DimensionSchema::new("Location");
        for c in ["City", "Province", "SalesRegion", "Country"] {
            loc.add_category(c);
        }
        loc.add_edge("City", "Province").unwrap();
        loc.add_edge("City", "SalesRegion").unwrap();
        loc.add_edge("Province", "Country").unwrap();
        loc.add_edge("SalesRegion", "Country").unwrap();
        assert!(loc.validate().is_ok());
        assert_eq!(loc.parents_of("City").len(), 2);
        assert_eq!(loc.children_of("Country").len(), 2);
        assert_eq!(loc.level_of("Country"), Some(2));
    }

    #[test]
    fn add_edge_requires_existing_categories() {
        let mut schema = DimensionSchema::new("D");
        schema.add_category("A");
        let err = schema.add_edge("A", "B").unwrap_err();
        assert!(matches!(err, MdError::UnknownCategory { .. }));
    }

    #[test]
    fn cyclic_schema_is_rejected() {
        let mut schema = DimensionSchema::new("D");
        for c in ["A", "B", "C"] {
            schema.add_category(c);
        }
        schema.add_edge("A", "B").unwrap();
        schema.add_edge("B", "C").unwrap();
        schema.add_edge("C", "A").unwrap();
        assert!(matches!(
            schema.validate(),
            Err(MdError::CyclicCategoryGraph { .. })
        ));
    }

    #[test]
    fn display_lists_edges() {
        let rendered = hospital().to_string();
        assert!(rendered.contains("dimension Hospital"));
        assert!(rendered.contains("Ward -> Unit"));
    }
}
