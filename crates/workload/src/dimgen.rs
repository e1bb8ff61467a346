//! Synthetic dimension generation.
//!
//! The paper's evaluation is a running example; to validate its complexity
//! claims (PTIME data complexity, the cost of upward vs. downward
//! navigation) we need dimensions whose depth, fan-out and member counts can
//! be swept.  [`generate_linear_dimension`] builds a chain-shaped dimension
//! (like `Hospital` and `Time` in Fig. 1) with a configurable branching
//! factor per level.
//!
//! Member counts grow as `fanout^(depth-1)`, which overflows fast: a sweep
//! over depth 40 at fan-out 3 is already past `u64`.  All counting is
//! checked `u64` math — [`DimensionParams::members_at`] and
//! [`DimensionParams::total_members`] return a [`DimGenError`] instead of
//! silently wrapping (or panicking in debug builds) on extreme parameters.

use ontodq_mdm::{DimensionInstance, DimensionSchema};
use ontodq_relational::Value;
use std::fmt;

/// Why a synthetic-dimension computation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimGenError {
    /// `fanout^(depth-1-level)` (or the member-count sum) exceeds `u64`.
    Overflow {
        /// Dimension name.
        name: String,
        /// The requested fan-out.
        fanout: usize,
        /// The requested depth.
        depth: usize,
        /// The level whose member count overflowed (`None`: the total).
        level: Option<usize>,
    },
    /// The requested level does not exist (levels run `0..depth`).
    LevelOutOfRange {
        /// Dimension name.
        name: String,
        /// The offending level.
        level: usize,
        /// The dimension's depth.
        depth: usize,
    },
}

impl fmt::Display for DimGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimGenError::Overflow {
                name,
                fanout,
                depth,
                level,
            } => match level {
                Some(level) => write!(
                    f,
                    "dimension '{name}': member count fanout^(depth-1-level) = \
                     {fanout}^{} at level {level} overflows u64 (depth {depth})",
                    depth - 1 - level
                ),
                None => write!(
                    f,
                    "dimension '{name}': total member count overflows u64 \
                     (fanout {fanout}, depth {depth})"
                ),
            },
            DimGenError::LevelOutOfRange { name, level, depth } => write!(
                f,
                "dimension '{name}': level {level} out of range (levels run 0..{depth})"
            ),
        }
    }
}

impl std::error::Error for DimGenError {}

/// Parameters of a synthetic linear dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionParams {
    /// Dimension name; also used as the member-name prefix.
    pub(crate) name: String,
    /// Number of category levels, bottom to top (≥ 1).
    pub(crate) depth: usize,
    /// Fan-out: each member of level `i+1` has this many children at level
    /// `i`.  The top level has exactly one member.
    pub(crate) fanout: usize,
}

impl DimensionParams {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, depth: usize, fanout: usize) -> Self {
        Self {
            name: name.into(),
            depth: depth.max(1),
            fanout: fanout.max(1),
        }
    }

    /// The category name of level `level` (0 = bottom).
    pub fn category(&self, level: usize) -> String {
        format!("{}L{}", self.name, level)
    }

    /// The number of members at `level` (the top level has one member), as
    /// checked `u64` math.
    ///
    /// # Errors
    /// [`DimGenError::LevelOutOfRange`] for `level >= depth`, and
    /// [`DimGenError::Overflow`] when `fanout^(depth-1-level)` exceeds
    /// `u64` — deep/wide sweeps must fail loudly, not wrap.
    pub fn members_at(&self, level: usize) -> Result<u64, DimGenError> {
        if level >= self.depth {
            return Err(DimGenError::LevelOutOfRange {
                name: self.name.clone(),
                level,
                depth: self.depth,
            });
        }
        let overflow = || DimGenError::Overflow {
            name: self.name.clone(),
            fanout: self.fanout,
            depth: self.depth,
            level: Some(level),
        };
        let exponent = u32::try_from(self.depth - 1 - level).map_err(|_| overflow())?;
        (self.fanout as u64)
            .checked_pow(exponent)
            .ok_or_else(overflow)
    }

    /// Total members across all levels, as checked `u64` math.
    ///
    /// # Errors
    /// [`DimGenError::Overflow`] when any level's count — or the sum — does
    /// not fit in `u64`.
    pub(crate) fn total_members(&self) -> Result<u64, DimGenError> {
        let mut total: u64 = 0;
        for level in 0..self.depth {
            total = total.checked_add(self.members_at(level)?).ok_or_else(|| {
                DimGenError::Overflow {
                    name: self.name.clone(),
                    fanout: self.fanout,
                    depth: self.depth,
                    level: None,
                }
            })?;
        }
        Ok(total)
    }

    /// The member name of index `index` at `level`.
    pub fn member(&self, level: usize, index: u64) -> Value {
        Value::str(format!("{}_{}_{}", self.name, level, index))
    }
}

/// Generate a linear (chain) dimension instance from parameters.
///
/// Level `depth-1` is the single-member top; each member of level `i+1` has
/// `fanout` children at level `i`, numbered consecutively, so the instance is
/// strict and homogeneous by construction.
///
/// # Errors
/// [`DimGenError::Overflow`] when the parameters describe more members than
/// `u64` can count (a generation that could never finish anyway).
pub fn generate_linear_dimension(
    params: &DimensionParams,
) -> Result<DimensionInstance, DimGenError> {
    // Validate the whole sweep up front: the failure must be immediate, not
    // discovered after generating the (astronomically many) members of the
    // levels above the one that overflows.
    params.total_members()?;
    let categories: Vec<String> = (0..params.depth).map(|l| params.category(l)).collect();
    let schema = DimensionSchema::chain(params.name.clone(), categories.clone());
    let mut instance = DimensionInstance::new(schema);
    // Top level member(s).
    for index in 0..params.members_at(params.depth - 1)? {
        instance
            .add_member(
                &categories[params.depth - 1],
                params.member(params.depth - 1, index),
            )
            .expect("top category exists");
    }
    // Children level by level, top-down.
    for level in (0..params.depth - 1).rev() {
        let child_category = &categories[level];
        let parent_category = &categories[level + 1];
        for child_index in 0..params.members_at(level)? {
            let parent_index = child_index / params.fanout as u64;
            instance
                .add_rollup(
                    child_category,
                    params.member(level, child_index),
                    parent_category,
                    params.member(level + 1, parent_index),
                )
                .expect("adjacent categories");
        }
    }
    Ok(instance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_counts_follow_fanout() {
        let params = DimensionParams::new("Geo", 4, 3);
        assert_eq!(params.members_at(3), Ok(1));
        assert_eq!(params.members_at(2), Ok(3));
        assert_eq!(params.members_at(1), Ok(9));
        assert_eq!(params.members_at(0), Ok(27));
        assert_eq!(params.total_members(), Ok(1 + 3 + 9 + 27));
    }

    #[test]
    fn generated_dimension_is_valid_strict_homogeneous() {
        let params = DimensionParams::new("Geo", 4, 3);
        let dim = generate_linear_dimension(&params).unwrap();
        assert!(dim.validate().is_ok());
        assert!(dim.strictness_violations().is_empty());
        assert!(dim.homogeneity_violations().is_empty());
        assert_eq!(dim.member_count() as u64, params.total_members().unwrap());
    }

    #[test]
    fn rollup_reaches_the_single_top_member() {
        let params = DimensionParams::new("Geo", 3, 4);
        let dim = generate_linear_dimension(&params).unwrap();
        let bottom = params.category(0);
        let top = params.category(2);
        for index in 0..params.members_at(0).unwrap() {
            let ancestors = dim.roll_up(&bottom, &params.member(0, index), &top);
            assert_eq!(ancestors.len(), 1);
        }
    }

    #[test]
    fn drill_down_returns_fanout_children() {
        let params = DimensionParams::new("Geo", 3, 5);
        let dim = generate_linear_dimension(&params).unwrap();
        let parent = params.member(1, 0);
        let children = (0..params.members_at(0).unwrap())
            .filter(|&i| {
                dim.roll_up(
                    &params.category(0),
                    &params.member(0, i),
                    &params.category(1),
                )
                .contains(&parent)
            })
            .count();
        assert_eq!(children, 5);
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let params = DimensionParams::new("X", 0, 0);
        assert_eq!(params.depth, 1);
        assert_eq!(params.fanout, 1);
        let dim = generate_linear_dimension(&params).unwrap();
        assert_eq!(dim.member_count(), 1);
    }

    /// The regression the checked math pins down: the old unchecked
    /// `fanout.pow(depth - 1 - level)` wrapped (release) or panicked
    /// (debug) on deep/wide sweeps — now it is a clear, typed error.
    #[test]
    fn deep_wide_sweeps_error_instead_of_overflowing() {
        // 10^79 is far past u64.
        let wide = DimensionParams::new("Wide", 80, 10);
        let err = wide.members_at(0).unwrap_err();
        assert!(matches!(
            &err,
            DimGenError::Overflow {
                level: Some(0),
                fanout: 10,
                ..
            }
        ));
        assert!(err.to_string().contains("overflows u64"));
        assert!(wide.total_members().is_err());
        assert!(generate_linear_dimension(&wide).is_err());
        // 2^64 overflows, 2^63 still fits.
        let deep = DimensionParams::new("Deep", 65, 2);
        assert!(deep.members_at(0).is_err());
        assert_eq!(deep.members_at(1), Ok(1u64 << 63));
    }

    /// The extreme that *just* fits: a depth-64 binary chain has
    /// `2^64 - 1 = u64::MAX` members in total — every level's count and the
    /// sum are representable, so checked math must accept it.
    #[test]
    fn maximal_representable_sweep_is_accepted() {
        let params = DimensionParams::new("Max", 64, 2);
        assert_eq!(params.members_at(0), Ok(1u64 << 63));
        assert_eq!(params.total_members(), Ok(u64::MAX));
        // One more level and the *sum* overflows even though no single
        // level does more than double.
        let over = DimensionParams::new("Over", 65, 2);
        assert!(matches!(
            over.total_members().unwrap_err(),
            DimGenError::Overflow { level: None, .. }
                | DimGenError::Overflow { level: Some(_), .. }
        ));
    }

    #[test]
    fn out_of_range_levels_are_reported() {
        let params = DimensionParams::new("Geo", 3, 2);
        let err = params.members_at(3).unwrap_err();
        assert!(matches!(
            err,
            DimGenError::LevelOutOfRange {
                level: 3,
                depth: 3,
                ..
            }
        ));
        assert!(err.to_string().contains("out of range"));
    }
}
