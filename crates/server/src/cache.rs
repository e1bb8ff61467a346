//! The prepared-query cache.
//!
//! Queries arrive as protocol text; parsing and quality-rewriting them is
//! pure per-`(context, query)` work, and their *answers* are pure
//! per-snapshot-version work.  The cache memoizes both layers:
//!
//! * the **prepared** layer (parsed [`ConjunctiveQuery`], quality-rewritten
//!   when asked with `?q-`) never expires — it only depends on the context's
//!   rewrite map, which is immutable after registration;
//! * the **answer** layer is keyed by the snapshot version that produced it
//!   and is invalidated *by construction* when the writer swaps in a new
//!   snapshot: a lookup with a newer version simply misses (counted as an
//!   invalidation) and the caller recomputes against the new snapshot.
//!
//! The cache is shared by every worker thread; the map lock is held only for
//! lookups and stores, never while a query is evaluated.

use crate::error::ServiceError;
use ontodq_core::{rewrite_to_quality, Context};
use ontodq_datalog::{parse_rule, Rule};
use ontodq_obs::Counter;
use ontodq_qa::{AnswerSet, ConjunctiveQuery};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Which answer semantics a query uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Certain answers over the snapshot as-is (`?-`).
    Plain,
    /// Certain answers after rewriting assessed relations to their quality
    /// versions (`?q-`) — the paper's quality query answering.
    Quality,
    /// Quality answers computed **demand-driven** (`?d-`): same rewrite as
    /// [`QueryKind::Quality`], evaluated by magic-set-restricted chase over
    /// the pre-chase base instead of the materialized snapshot.
    Demand,
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Answer-layer hits (query answered without touching the instance).
    pub hits: u64,
    /// Answer-layer misses for queries never answered before.
    pub misses: u64,
    /// Answer-layer misses because the snapshot version moved on (epoch
    /// invalidation).
    pub invalidations: u64,
    /// Number of prepared `(context, kind, query)` entries resident.
    pub entries: u64,
    /// Times the cache hit its size bound and ran a second-chance eviction
    /// sweep (cold entries dropped, hot entries retained).
    pub(crate) evictions: u64,
}

/// Default upper bound on resident prepared entries.  Query texts arrive
/// from untrusted connections; without a bound a client cycling unique
/// strings would grow server memory without limit.
const MAX_ENTRIES: usize = 8_192;

struct Entry {
    query: Arc<ConjunctiveQuery>,
    answers: Option<(u64, Arc<AnswerSet>)>,
    /// Second-chance bit: set on genuine *reuse* only (a prepared-layer
    /// lookup hit or an answer-layer hit), cleared by a bound-triggered
    /// sweep.  Admission, answer-miss probes and answer stores do not set
    /// it — the server's query path runs all three for every fresh query,
    /// so counting them would make one-shot shapes indistinguishable from a
    /// genuinely hot working set.
    hot: bool,
}

type Key = (String, QueryKind, String);

/// A concurrent `(context, query) → prepared query + versioned answers`
/// cache — see the module docs.
pub struct QueryCache {
    entries: Mutex<HashMap<Key, Entry>>,
    max_entries: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl QueryCache {
    /// The entry map, recovering a lock poisoned by a panicking peer: the
    /// closures run under this lock are all non-panicking map plumbing, so
    /// a poisoned guard only records that a peer died mid-lookup — the map
    /// itself is structurally intact and the cache (a pure memo) can
    /// always be used as found.
    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<Key, Entry>> {
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// An empty cache with the default size bound.
    pub fn new() -> Self {
        Self::with_max_entries(MAX_ENTRIES)
    }

    /// An empty cache bounded at `max_entries` resident prepared entries
    /// (at least 2).  When the bound is hit, a **second-chance sweep** runs:
    /// entries referenced since the previous sweep survive (their hot bit is
    /// cleared), cold entries are evicted, and if everything was hot an
    /// arbitrary half is retained — so a client cycling unique query strings
    /// can never wipe the hot working set the way a wholesale reset would
    /// (counted in [`CacheStats::evictions`]).
    pub(crate) fn with_max_entries(max_entries: usize) -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            max_entries: max_entries.max(2),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            invalidations: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
        }
    }

    /// Adopt the cache's counters into `registry`, so one `!metrics` scrape
    /// covers them alongside every other layer's instruments.  The counters
    /// stay owned here — `stats()` and the registry read the same atomics.
    pub(crate) fn register_into(&self, registry: &ontodq_obs::Registry) {
        registry.adopt_counter(
            "ontodq_cache_hits_total",
            "Answer-layer cache hits (query answered without touching the instance).",
            &[],
            Arc::clone(&self.hits),
        );
        registry.adopt_counter(
            "ontodq_cache_misses_total",
            "Answer-layer cache misses for queries never answered before.",
            &[],
            Arc::clone(&self.misses),
        );
        registry.adopt_counter(
            "ontodq_cache_invalidations_total",
            "Answer-layer misses because the snapshot version moved on.",
            &[],
            Arc::clone(&self.invalidations),
        );
        registry.adopt_counter(
            "ontodq_cache_evictions_total",
            "Second-chance eviction sweeps triggered by the size bound.",
            &[],
            Arc::clone(&self.evictions),
        );
    }

    /// The prepared form of `text` for `kind` under `context`, parsing (and
    /// quality-rewriting) on first sight.
    pub fn prepared(
        &self,
        context_name: &str,
        context: &Context,
        kind: QueryKind,
        text: &str,
    ) -> Result<Arc<ConjunctiveQuery>, ServiceError> {
        let key: Key = (context_name.to_string(), kind, text.to_string());
        if let Some(entry) = self.map().get_mut(&key) {
            entry.hot = true;
            return Ok(entry.query.clone());
        }
        // Parse outside the lock; a racing thread may do the same work, but
        // the outcome is identical and the first store wins.
        let parsed = parse_query_text(text)?;
        let query = Arc::new(match kind {
            QueryKind::Plain => parsed,
            QueryKind::Quality | QueryKind::Demand => rewrite_to_quality(context, &parsed),
        });
        let mut map = self.map();
        if map.len() >= self.max_entries && !map.contains_key(&key) {
            // Second chance: keep what was referenced since the last sweep.
            map.retain(|_, entry| std::mem::take(&mut entry.hot));
            if map.len() >= self.max_entries {
                // Everything was hot — fall back to retaining an arbitrary
                // half rather than refusing to admit new shapes.
                let target = self.max_entries / 2;
                let mut kept = 0usize;
                map.retain(|_, _| {
                    kept += 1;
                    kept <= target
                });
            }
            self.evictions.inc();
        }
        let entry = map.entry(key).or_insert(Entry {
            query: query.clone(),
            answers: None,
            hot: false,
        });
        Ok(entry.query.clone())
    }

    /// The memoized answers for `(context, kind, text)` **iff** they were
    /// computed against snapshot `version`; stale or absent memos count as
    /// invalidations/misses respectively.
    pub fn cached_answers(
        &self,
        context_name: &str,
        kind: QueryKind,
        text: &str,
        version: u64,
    ) -> Option<Arc<AnswerSet>> {
        let key: Key = (context_name.to_string(), kind, text.to_string());
        let mut map = self.map();
        match map.get_mut(&key) {
            Some(entry) => match entry.answers.as_ref() {
                Some((v, answers)) if *v == version => {
                    entry.hot = true;
                    self.hits.inc();
                    Some(answers.clone())
                }
                Some(_) => {
                    // Stale answers for a reused shape: the *prepared* layer
                    // was still useful, and `prepared` marked that reuse.
                    self.invalidations.inc();
                    None
                }
                None => {
                    self.misses.inc();
                    None
                }
            },
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Memoize `answers` as computed against snapshot `version`.  An entry
    /// computed against a newer version is never overwritten by a slower
    /// thread holding an older one.
    pub fn store_answers(
        &self,
        context_name: &str,
        kind: QueryKind,
        text: &str,
        version: u64,
        answers: Arc<AnswerSet>,
    ) {
        let key: Key = (context_name.to_string(), kind, text.to_string());
        let mut map = self.map();
        if let Some(entry) = map.get_mut(&key) {
            match &entry.answers {
                Some((v, _)) if *v > version => {}
                _ => entry.answers = Some((version, answers)),
            }
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            invalidations: self.invalidations.get(),
            entries: self.map().len() as u64,
            evictions: self.evictions.get(),
        }
    }
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Parse protocol query text into a [`ConjunctiveQuery`].
///
/// Two spellings are accepted:
///
/// * a full rule, `Q(d) :- Shifts(W2, d, n, s).` — the head names the
///   answer variables;
/// * a bare body, `Shifts(W2, d, n, s), n = "Mark".` — every variable of a
///   positive atom becomes an answer variable, in order of first appearance.
pub fn parse_query_text(text: &str) -> Result<ConjunctiveQuery, ServiceError> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(ServiceError::Parse("empty query".to_string()));
    }
    let normalized = if trimmed.ends_with('.') {
        trimmed.to_string()
    } else {
        format!("{trimmed}.")
    };
    if normalized.contains(":-") {
        return ConjunctiveQuery::parse(&normalized).map_err(ServiceError::Parse);
    }
    // Bare body: parse it through the negative-constraint form, which takes
    // exactly a conjunction, then surface the positive-atom variables.
    match parse_rule(&format!("! :- {normalized}")) {
        Ok(Rule::Constraint(nc)) => {
            let mut answer_variables = Vec::new();
            for atom in &nc.body.atoms {
                for v in atom.variables() {
                    if !answer_variables.contains(&v) {
                        answer_variables.push(v);
                    }
                }
            }
            Ok(ConjunctiveQuery::new("Q", answer_variables, nc.body))
        }
        Ok(other) => Err(ServiceError::Parse(format!(
            "expected a query body, got: {other}"
        ))),
        Err(e) => Err(ServiceError::Parse(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_body_queries_expose_positive_variables_in_order() {
        let q = parse_query_text("Shifts(W2, d, n, s), n = \"Mark\"").unwrap();
        assert_eq!(q.arity(), 3);
        let names: Vec<String> = q.answer_variables.iter().map(|v| v.to_string()).collect();
        assert_eq!(names, vec!["d", "n", "s"]);
    }

    #[test]
    fn full_rule_queries_keep_their_head() {
        let q = parse_query_text("Q(d) :- Shifts(W2, d, n, s).").unwrap();
        assert_eq!(q.arity(), 1);
        assert_eq!(q.name, "Q");
    }

    #[test]
    fn bad_query_text_is_a_parse_error() {
        assert!(matches!(
            parse_query_text("this is not a query"),
            Err(ServiceError::Parse(_))
        ));
        assert!(matches!(
            parse_query_text("   "),
            Err(ServiceError::Parse(_))
        ));
    }

    fn tiny_cache(max: usize) -> (QueryCache, ontodq_core::Context) {
        (
            QueryCache::with_max_entries(max),
            ontodq_core::scenarios::hospital_context(),
        )
    }

    fn query_text(i: usize) -> String {
        format!("Measurements(t, p, v), p = \"Patient_{i}\"")
    }

    /// Driving the cache past its bound must keep the hot working set: the
    /// old wholesale `clear()` silently discarded every hot entry (and its
    /// memoized answers) whenever a client cycled unique query strings.
    #[test]
    fn overflow_keeps_hot_entries_and_counts_evictions() {
        let (cache, context) = tiny_cache(4);
        for i in 0..4 {
            cache
                .prepared("h", &context, QueryKind::Quality, &query_text(i))
                .unwrap();
        }
        // Touch 0 and 1 (hot), and memoize answers for 0.
        cache
            .prepared("h", &context, QueryKind::Quality, &query_text(0))
            .unwrap();
        cache
            .prepared("h", &context, QueryKind::Quality, &query_text(1))
            .unwrap();
        let answers = Arc::new(AnswerSet::new());
        cache.store_answers("h", QueryKind::Quality, &query_text(0), 7, answers);
        assert_eq!(cache.stats().entries, 4);
        assert_eq!(cache.stats().evictions, 0);

        // A fifth shape triggers the sweep: cold 2 and 3 go, hot 0 and 1
        // survive with their memoized answers intact.
        cache
            .prepared("h", &context, QueryKind::Quality, &query_text(4))
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 3); // 0, 1, and the new 4
        assert!(cache
            .cached_answers("h", QueryKind::Quality, &query_text(0), 7)
            .is_some());
    }

    /// When every resident entry is hot the sweep falls back to retaining
    /// half, so new shapes are still admitted.
    #[test]
    fn overflow_with_all_hot_entries_retains_half() {
        let (cache, context) = tiny_cache(4);
        for i in 0..4 {
            cache
                .prepared("h", &context, QueryKind::Quality, &query_text(i))
                .unwrap();
            // Touch again: all hot.
            cache
                .prepared("h", &context, QueryKind::Quality, &query_text(i))
                .unwrap();
        }
        cache
            .prepared("h", &context, QueryKind::Quality, &query_text(9))
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 3); // half of 4 retained + the newcomer
    }

    /// A client cycling unique shapes evicts repeatedly but never starves
    /// the cache or panics — and a genuinely hot entry survives every sweep.
    #[test]
    fn sustained_unique_shape_cycling_preserves_the_hot_entry() {
        let (cache, context) = tiny_cache(4);
        let hot = query_text(1000);
        cache
            .prepared("h", &context, QueryKind::Quality, &hot)
            .unwrap();
        for i in 0..64 {
            // Keep the hot entry hot, then push a fresh shape.
            cache
                .prepared("h", &context, QueryKind::Quality, &hot)
                .unwrap();
            cache
                .prepared("h", &context, QueryKind::Quality, &query_text(i))
                .unwrap();
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        assert!(stats.entries <= 4);
        // The hot entry was never evicted: preparing it again is a map hit,
        // not a re-parse (observable through the entry count staying flat).
        let before = cache.stats().entries;
        cache
            .prepared("h", &context, QueryKind::Quality, &hot)
            .unwrap();
        assert_eq!(cache.stats().entries, before);
    }

    /// Regression: the server's query path runs prepared → cached_answers →
    /// store_answers for *every* query, including one-shot shapes.  Those
    /// probes must not count as "hot", or cycling unique strings would mark
    /// every entry hot and the sweep's fallback would evict half the real
    /// working set.
    #[test]
    fn one_shot_query_flow_does_not_defeat_the_second_chance_sweep() {
        let (cache, context) = tiny_cache(4);
        // A genuinely hot shape keeps being queried through the full flow
        // while one-shot shapes stream through the same flow around it.
        let hot = query_text(1000);
        let full_flow = |text: &str| {
            cache
                .prepared("h", &context, QueryKind::Quality, text)
                .unwrap();
            if cache
                .cached_answers("h", QueryKind::Quality, text, 0)
                .is_none()
            {
                cache.store_answers("h", QueryKind::Quality, text, 0, Arc::new(AnswerSet::new()));
            }
        };
        for i in 0..16 {
            full_flow(&hot);
            full_flow(&query_text(i));
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        // The hot shape survived every sweep: re-preparing it does not grow
        // the entry count (a map hit, not a re-admission).
        let before = cache.stats().entries;
        cache
            .prepared("h", &context, QueryKind::Quality, &hot)
            .unwrap();
        assert_eq!(cache.stats().entries, before);
        // And its memoized answers survived with it.
        assert!(cache
            .cached_answers("h", QueryKind::Quality, &hot, 0)
            .is_some());
    }

    #[test]
    fn demand_kind_is_cached_separately_from_quality() {
        let (cache, context) = tiny_cache(16);
        let text = query_text(0);
        let quality = cache
            .prepared("h", &context, QueryKind::Quality, &text)
            .unwrap();
        let demand = cache
            .prepared("h", &context, QueryKind::Demand, &text)
            .unwrap();
        // Same rewrite, distinct cache slots (answers are memoized per kind).
        assert_eq!(quality.body, demand.body);
        assert_eq!(cache.stats().entries, 2);
        cache.store_answers("h", QueryKind::Demand, &text, 3, Arc::new(AnswerSet::new()));
        assert!(cache
            .cached_answers("h", QueryKind::Demand, &text, 3)
            .is_some());
        assert!(cache
            .cached_answers("h", QueryKind::Quality, &text, 3)
            .is_none());
    }
}
