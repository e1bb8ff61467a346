//! Quality metrics: how much an instance departs from its quality version.
//!
//! The paper frames quality as "how much `D` departs from its quality
//! version(s) `D^q`".  For each assessed relation we report the sizes of
//! `D`, `D^q`, their intersection, and derived ratios.

use ontodq_relational::Tuple;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Quality comparison for a single relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationQuality {
    /// Relation name.
    pub(crate) relation: String,
    /// |D| — tuples in the original relation.
    pub original_count: usize,
    /// |D^q| — tuples in the quality version.
    pub quality_count: usize,
    /// |D ∩ D^q| — original tuples that are also quality tuples.
    pub retained: usize,
    /// |D \ D^q| — original tuples rejected by the quality conditions.
    pub rejected: usize,
    /// |D^q \ D| — quality tuples not present in the original (possible when
    /// the context *completes* data rather than only filtering it).
    pub added: usize,
    /// The rejected tuples themselves (for reporting and cleaning).
    pub(crate) rejected_tuples: Vec<Tuple>,
}

impl RelationQuality {
    /// Compare an original relation with its quality version.
    pub(crate) fn compare(relation: &str, original: &[Tuple], quality: &[Tuple]) -> Self {
        let quality_set: HashSet<&Tuple> = quality.iter().collect();
        let original_set: HashSet<&Tuple> = original.iter().collect();
        let retained = original.iter().filter(|t| quality_set.contains(t)).count();
        let rejected_tuples: Vec<Tuple> = original
            .iter()
            .filter(|t| !quality_set.contains(t))
            .cloned()
            .collect();
        let added = quality.iter().filter(|t| !original_set.contains(t)).count();
        Self {
            relation: relation.to_string(),
            original_count: original.len(),
            quality_count: quality.len(),
            retained,
            rejected: rejected_tuples.len(),
            added,
            rejected_tuples,
        }
    }

    /// The fraction of original tuples that survive quality assessment
    /// (1.0 for empty originals — nothing to reject).
    pub fn retention_ratio(&self) -> f64 {
        if self.original_count == 0 {
            1.0
        } else {
            self.retained as f64 / self.original_count as f64
        }
    }

    /// The symmetric-difference size |D △ D^q| — the paper's departure
    /// measure.
    pub(crate) fn departure(&self) -> usize {
        self.rejected + self.added
    }
}

impl fmt::Display for RelationQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: |D|={}, |Dq|={}, retained={}, rejected={}, added={}, retention={:.3}, departure={}",
            self.relation,
            self.original_count,
            self.quality_count,
            self.retained,
            self.rejected,
            self.added,
            self.retention_ratio(),
            self.departure()
        )
    }
}

/// Quality metrics for all assessed relations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityMetrics {
    /// Per-relation metrics, keyed by relation name.
    pub relations: BTreeMap<String, RelationQuality>,
}

impl QualityMetrics {
    /// Overall retention ratio (micro-average across relations).
    pub(crate) fn overall_retention(&self) -> f64 {
        let (retained, total): (usize, usize) = self
            .relations
            .values()
            .fold((0, 0), |(r, t), m| (r + m.retained, t + m.original_count));
        if total == 0 {
            1.0
        } else {
            retained as f64 / total as f64
        }
    }

    /// Total departure across relations.
    pub fn total_departure(&self) -> usize {
        self.relations
            .values()
            .map(RelationQuality::departure)
            .sum()
    }
}

impl fmt::Display for QualityMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in self.relations.values() {
            writeln!(f, "{m}")?;
        }
        write!(
            f,
            "overall retention: {:.3}, total departure: {}",
            self.overall_retention(),
            self.total_departure()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: &[&str]) -> Tuple {
        Tuple::from_iter(values.iter().copied())
    }

    #[test]
    fn compare_counts_retained_rejected_added() {
        let original = vec![t(&["a"]), t(&["b"]), t(&["c"])];
        let quality = vec![t(&["a"]), t(&["d"])];
        let m = RelationQuality::compare("R", &original, &quality);
        assert_eq!(m.original_count, 3);
        assert_eq!(m.quality_count, 2);
        assert_eq!(m.retained, 1);
        assert_eq!(m.rejected, 2);
        assert_eq!(m.added, 1);
        assert_eq!(m.departure(), 3);
        assert!((m.retention_ratio() - 1.0 / 3.0).abs() < 1e-9);
        assert!(m.rejected_tuples.contains(&t(&["b"])));
        assert!(m.rejected_tuples.contains(&t(&["c"])));
        assert!(m.to_string().contains("retained=1"));
    }

    #[test]
    fn empty_relations_are_perfectly_clean() {
        let m = RelationQuality::compare("R", &[], &[]);
        assert_eq!(m.retention_ratio(), 1.0);
        assert_eq!(m.departure(), 0);
    }

    #[test]
    fn identical_relations_have_zero_departure() {
        let data = vec![t(&["a"]), t(&["b"])];
        let m = RelationQuality::compare("R", &data, &data);
        assert_eq!(m.retention_ratio(), 1.0);
        assert_eq!(m.departure(), 0);
        assert_eq!(m.rejected_tuples.len(), 0);
    }

    #[test]
    fn aggregate_metrics_combine_relations() {
        let mut metrics = QualityMetrics::default();
        metrics.relations.insert(
            "R".into(),
            RelationQuality::compare("R", &[t(&["a"]), t(&["b"])], &[t(&["a"])]),
        );
        metrics.relations.insert(
            "S".into(),
            RelationQuality::compare("S", &[t(&["x"])], &[t(&["x"])]),
        );
        assert!((metrics.overall_retention() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(metrics.total_departure(), 1);
        let rendered = metrics.to_string();
        assert!(rendered.contains("overall retention"));
        assert!(rendered.contains("R:"));
        assert!(rendered.contains("S:"));
    }

    #[test]
    fn empty_metrics_default_to_clean() {
        let metrics = QualityMetrics::default();
        assert_eq!(metrics.overall_retention(), 1.0);
        assert_eq!(metrics.total_departure(), 0);
    }
}
