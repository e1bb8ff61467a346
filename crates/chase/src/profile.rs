//! Chase statistics and per-rule profiling: what the chase did, and where
//! it spent its time.
//!
//! [`ChaseStats`] counts what every run did (rounds, fired and satisfied
//! triggers, tuples, nulls, EGD and constraint outcomes).
//! [`ChaseProfile`] is collected by both chase drivers (semi-naive and the
//! naive oracle) when
//! [`ChaseConfig::profile`](crate::ChaseConfig::profile) is on (the
//! default) and carried on [`ChaseResult`](crate::ChaseResult) *next to*
//! [`ChaseStats`] — stats stay timing-free and
//! `Eq`-comparable across drivers and join kernels, while the profile records wall time
//! (through the engine's injected [`Clock`](ontodq_obs::Clock)) and the
//! hash-vs-leapfrog kernel decision per rule, making the
//! [`JoinEngine::Auto`](crate::JoinEngine::Auto) heuristic auditable.
//!
//! Profiles are mergeable: a served context accumulates one profile across
//! every incremental resume, and the server's `!profile` command reports
//! the top rules by cumulative join time.

use ontodq_datalog::TerminationCertificate;
use std::fmt;

/// Aggregate statistics of a chase run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Number of rounds executed (a round applies every TGD once).
    pub rounds: usize,
    /// Number of triggers that actually fired (restricted chase skips
    /// satisfied ones).
    pub triggers_fired: usize,
    /// Number of triggers considered but skipped because the head was
    /// already satisfied.
    pub triggers_satisfied: usize,
    /// Number of tuples added across all relations.
    pub tuples_added: usize,
    /// Number of fresh labeled nulls invented.
    pub nulls_created: usize,
    /// Number of hard EGD violations (two distinct constants equated).
    pub(crate) egd_violations: usize,
    /// Number of negative-constraint violations observed.
    pub(crate) nc_violations: usize,
}

impl fmt::Display for ChaseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={}, fired={}, satisfied={}, tuples+={}, nulls+={}, egd-viol={}, nc-viol={}",
            self.rounds,
            self.triggers_fired,
            self.triggers_satisfied,
            self.tuples_added,
            self.nulls_created,
            self.egd_violations,
            self.nc_violations
        )
    }
}

/// Cumulative per-rule measurements (one per TGD, by rule index).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleProfile {
    /// Rule index in the program's TGD list.
    pub rule_index: usize,
    /// Rule label, or `tgd<i> -> <head predicates>` when unlabeled.
    pub label: String,
    /// Trigger-discovery joins run (once per rule per round).
    pub evaluations: u64,
    /// Triggers discovered across all evaluations (delta rows).
    pub delta_rows: u64,
    /// Triggers that fired (added at least one tuple).
    pub fires: u64,
    /// Triggers skipped because the head was already satisfied.
    pub satisfied: u64,
    /// Tuples this rule added.
    pub tuples_added: u64,
    /// Cumulative trigger-discovery (join) time, in microseconds.
    pub join_micros: u64,
    /// Evaluations that took the hash-join kernel.
    pub(crate) hash_evals: u64,
    /// Evaluations that took the worst-case-optimal (leapfrog) kernel.
    pub(crate) wco_evals: u64,
}

impl RuleProfile {
    /// Fold `other` (a later run of the same rule) into `self`.
    pub fn merge(&mut self, other: &RuleProfile) {
        self.evaluations += other.evaluations;
        self.delta_rows += other.delta_rows;
        self.fires += other.fires;
        self.satisfied += other.satisfied;
        self.tuples_added += other.tuples_added;
        self.join_micros += other.join_micros;
        self.hash_evals += other.hash_evals;
        self.wco_evals += other.wco_evals;
    }

    /// `hash`, `wco`, `mixed`, or `-` (never evaluated): which join kernel
    /// this rule's evaluations used.
    pub fn kernel(&self) -> &'static str {
        match (self.hash_evals > 0, self.wco_evals > 0) {
            (true, true) => "mixed",
            (true, false) => "hash",
            (false, true) => "wco",
            (false, false) => "-",
        }
    }
}

/// Phase timings of one or more DRed retraction batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DredTiming {
    /// Retraction batches folded into this timing.
    pub batches: u64,
    /// Phase 1: over-approximated consequence-closure time, µs.
    pub cascade_micros: u64,
    /// Phase 2: tombstoning time, µs.
    pub delete_micros: u64,
    /// Phase 3: re-derivation resume time, µs.
    pub rederive_micros: u64,
}

impl DredTiming {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &DredTiming) {
        self.batches += other.batches;
        self.cascade_micros += other.cascade_micros;
        self.delete_micros += other.delete_micros;
        self.rederive_micros += other.rederive_micros;
    }
}

/// The profile of one chase run (or the merged profile of many).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaseProfile {
    /// Whether the run collected measurements (false: everything is zero).
    pub enabled: bool,
    /// Per-rule measurements, indexed by TGD position.
    pub rules: Vec<RuleProfile>,
    /// Cumulative EGD-check time, µs (evaluating the EGDs as constraints
    /// after the TGD fixpoint).
    pub egd_micros: u64,
    /// End-to-end driver time, µs.
    pub total_micros: u64,
    /// DRed phase timings, when this profile covers retraction batches.
    pub dred: DredTiming,
    /// The [`TerminationCertificate`] the run(s) were configured with (see
    /// [`ChaseConfig::certificate`](crate::ChaseConfig::certificate)), when
    /// any; carried here so `!profile` / `!metrics` can report the class
    /// next to the timings.  Unlike the timing fields this survives
    /// `profile: false` runs — certification is not a measurement.
    pub certificate: Option<TerminationCertificate>,
    /// Error-severity diagnostics the engine attached across the merged
    /// runs (certificate invariant violations).
    pub lint_errors: u64,
    /// Warning-severity diagnostics the engine attached across the merged
    /// runs (uncertified-chase warnings).
    pub lint_warnings: u64,
}

impl ChaseProfile {
    /// An empty, disabled profile (what a `profile: false` run carries).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled profile with one zeroed [`RuleProfile`] per `labels`
    /// entry.
    pub(crate) fn for_rules(labels: Vec<String>) -> Self {
        Self {
            enabled: true,
            rules: labels
                .into_iter()
                .enumerate()
                .map(|(rule_index, label)| RuleProfile {
                    rule_index,
                    label,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        }
    }

    /// Fold `other` into `self`: per-rule sums matched by index (the rule
    /// list grows to cover `other`'s), scalar timings added.  Merging an
    /// enabled profile into a disabled one enables it.  The certificate and
    /// diagnostic counts merge even from disabled profiles — they are facts
    /// about the runs, not measurements.
    pub fn merge(&mut self, other: &ChaseProfile) {
        if self.certificate.is_none() {
            self.certificate = other.certificate.clone();
        }
        self.lint_errors += other.lint_errors;
        self.lint_warnings += other.lint_warnings;
        if !other.enabled {
            return;
        }
        self.enabled = true;
        for rule in &other.rules {
            if rule.rule_index >= self.rules.len() {
                self.rules
                    .resize_with(rule.rule_index + 1, Default::default);
            }
            let mine = &mut self.rules[rule.rule_index];
            mine.rule_index = rule.rule_index;
            if mine.label.is_empty() {
                mine.label = rule.label.clone();
            }
            mine.merge(rule);
        }
        self.egd_micros += other.egd_micros;
        self.total_micros += other.total_micros;
        self.dred.merge(&other.dred);
    }

    /// The rules that were evaluated at least once, ordered by descending
    /// cumulative join time (ties by rule index), truncated to `n`.
    pub fn top_by_join_micros(&self, n: usize) -> Vec<&RuleProfile> {
        let mut rules: Vec<&RuleProfile> =
            self.rules.iter().filter(|r| r.evaluations > 0).collect();
        rules.sort_by(|a, b| {
            b.join_micros
                .cmp(&a.join_micros)
                .then(a.rule_index.cmp(&b.rule_index))
        });
        rules.truncate(n);
        rules
    }

    /// Total join time across all rules, µs.
    pub fn join_micros(&self) -> u64 {
        self.rules.iter().map(|r| r.join_micros).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(index: usize, join_micros: u64, evaluations: u64) -> RuleProfile {
        RuleProfile {
            rule_index: index,
            label: format!("r{index}"),
            evaluations,
            join_micros,
            ..Default::default()
        }
    }

    #[test]
    fn merge_accumulates_by_rule_index() {
        let mut a = ChaseProfile::for_rules(vec!["r0".into(), "r1".into()]);
        a.rules[0].join_micros = 10;
        a.rules[0].evaluations = 1;
        let mut b = ChaseProfile::for_rules(vec!["r0".into(), "r1".into(), "r2".into()]);
        b.rules[0].join_micros = 5;
        b.rules[0].evaluations = 2;
        b.rules[2].fires = 3;
        b.egd_micros = 7;
        a.merge(&b);
        assert_eq!(a.rules.len(), 3);
        assert_eq!(a.rules[0].join_micros, 15);
        assert_eq!(a.rules[0].evaluations, 3);
        assert_eq!(a.rules[2].fires, 3);
        assert_eq!(a.egd_micros, 7);
    }

    #[test]
    fn merging_disabled_is_a_noop() {
        let mut a = ChaseProfile::for_rules(vec!["r0".into()]);
        a.rules[0].join_micros = 10;
        let before = a.clone();
        a.merge(&ChaseProfile::disabled());
        assert_eq!(a, before);
    }

    #[test]
    fn top_by_join_micros_orders_and_filters() {
        let mut profile = ChaseProfile {
            enabled: true,
            rules: vec![rule(0, 5, 1), rule(1, 50, 2), rule(2, 5, 1), rule(3, 0, 0)],
            ..Default::default()
        };
        profile.rules[3].join_micros = 99; // never evaluated → excluded
        let top = profile.top_by_join_micros(3);
        let order: Vec<usize> = top.iter().map(|r| r.rule_index).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn displays_are_informative() {
        let stats = ChaseStats {
            rounds: 2,
            tuples_added: 5,
            ..Default::default()
        };
        assert!(stats.to_string().contains("rounds=2"));
        assert!(stats.to_string().contains("tuples+=5"));
    }

    #[test]
    fn kernel_labels() {
        let mut r = rule(0, 0, 0);
        assert_eq!(r.kernel(), "-");
        r.hash_evals = 1;
        assert_eq!(r.kernel(), "hash");
        r.wco_evals = 1;
        assert_eq!(r.kernel(), "mixed");
        r.hash_evals = 0;
        assert_eq!(r.kernel(), "wco");
    }
}
