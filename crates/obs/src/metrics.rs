//! Lock-free metric primitives and the process registry.
//!
//! Three instrument kinds, all plain atomics on the hot path:
//!
//! * [`Counter`] — monotonically increasing `u64`;
//! * [`Gauge`] — last-written (or high-watermark) `u64`;
//! * [`Histogram`] — fixed exponential microsecond buckets with lock-free
//!   `observe`, plus `p50`/`p95`/`p99`/`max` readout.
//!
//! A [`Registry`] owns the name → handle map and renders everything in the
//! Prometheus text exposition format (`# HELP`/`# TYPE` headers, cumulative
//! `_bucket{le="…"}` series, `_sum`/`_count`).  Handles are `Arc`s: the hot
//! path clones one once and never touches the registry lock again.  Metric
//! handles created elsewhere (a WAL histogram owned by the store, a
//! queue-wait histogram owned by the worker pool) can be *adopted* into a
//! registry so one `!metrics` scrape covers every layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to `total` (never lowering it) — for mirroring a
    /// monotone total whose owner is not a [`Counter`] (a process-wide
    /// static, say) at scrape time; concurrent scrapes cannot double-count.
    pub fn raise_to(&self, total: u64) {
        self.value.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value (or high-watermark) gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in microseconds: a 1-2.5-5 ladder
/// from 1 µs to 10 s.  An implicit `+Inf` bucket catches the rest.
pub(crate) const DEFAULT_LATENCY_BOUNDS_MICROS: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// A fixed-bucket histogram with lock-free observation.
///
/// `observe` is three relaxed atomic adds and one `fetch_max`; readout
/// walks the buckets.  Concurrent readers may see a bucket updated before
/// the matching `count`/`sum` — readouts are approximate-point-in-time,
/// which is all a scrape needs.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram over `DEFAULT_LATENCY_BOUNDS_MICROS`.
    pub fn latency() -> Self {
        Self::with_bounds(DEFAULT_LATENCY_BOUNDS_MICROS)
    }

    /// A histogram over explicit ascending bucket upper bounds.
    pub(crate) fn with_bounds(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let slot = self.bounds.partition_point(|&bound| bound < value);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observed value (exact, unlike the bucketed quantiles).
    pub(crate) fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), resolved to the upper bound of the
    /// bucket containing it (the exact [`Histogram::max`] for the overflow
    /// bucket).  Returns 0 with no observations.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (slot, bucket) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(bucket.load(Ordering::Relaxed));
            if cumulative >= target {
                return match self.bounds.get(slot) {
                    Some(&bound) => bound,
                    None => self.max(),
                };
            }
        }
        self.max()
    }

    /// 95th percentile (bucket-resolved).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Bucket upper bounds.
    pub(crate) fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (non-cumulative), overflow bucket last.
    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// One registered instrument.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// One metric family: every label combination under one name.
#[derive(Debug)]
struct Family {
    help: String,
    /// Rendered label string (`label="value",…`, possibly empty) → handle.
    series: BTreeMap<String, Handle>,
}

/// The metric registry: name → family map plus the Prometheus renderer.
///
/// Registration is get-or-create keyed on `(name, labels)`; re-registering
/// returns the existing handle, so callers need no startup ordering.  The
/// internal lock guards only (de)registration and rendering — never the
/// instruments themselves.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Render a label set into its stable exposition form (sorted by caller,
/// values escaped per the Prometheus text format).
fn label_string(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (index, (key, value)) in labels.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{}\"", escape_label_value(value));
    }
    out
}

/// Escape a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], make: Handle) -> Handle {
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        family
            .series
            .entry(label_string(labels))
            .or_insert(make)
            .clone()
    }

    /// Get or register the counter `name{labels}`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let handle = self.register(
            name,
            help,
            labels,
            Handle::Counter(Arc::new(Counter::new())),
        );
        match handle {
            Handle::Counter(c) => c,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Get or register the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let handle = self.register(name, help, labels, Handle::Gauge(Arc::new(Gauge::new())));
        match handle {
            Handle::Gauge(g) => g,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Get or register the latency histogram `name{labels}`.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let handle = self.register(
            name,
            help,
            labels,
            Handle::Histogram(Arc::new(Histogram::latency())),
        );
        match handle {
            Handle::Histogram(h) => h,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Adopt an externally-owned counter under `name{labels}` (idempotent;
    /// an already-registered series keeps its original handle).
    pub fn adopt_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        counter: Arc<Counter>,
    ) {
        self.register(name, help, labels, Handle::Counter(counter));
    }

    /// Adopt an externally-owned histogram under `name{labels}`.
    pub fn adopt_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        histogram: Arc<Histogram>,
    ) {
        self.register(name, help, labels, Handle::Histogram(histogram));
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format, families sorted by name, series sorted by label string.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = family
                .series
                .values()
                .next()
                .map(Handle::kind)
                .unwrap_or("gauge");
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, handle) in family.series.iter() {
                match handle {
                    Handle::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", braced(labels), c.get());
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", braced(labels), g.get());
                    }
                    Handle::Histogram(h) => render_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &str, histogram: &Histogram) {
    let counts = histogram.bucket_counts();
    let mut cumulative = 0u64;
    for (slot, count) in counts.iter().enumerate() {
        cumulative = cumulative.saturating_add(*count);
        let le = match histogram.bounds().get(slot) {
            Some(bound) => bound.to_string(),
            None => "+Inf".to_string(),
        };
        let series = if labels.is_empty() {
            format!("le=\"{le}\"")
        } else {
            format!("{labels},le=\"{le}\"")
        };
        let _ = writeln!(out, "{name}_bucket{{{series}}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_sum{} {}", braced(labels), histogram.sum());
    let _ = writeln!(out, "{name}_count{} {}", braced(labels), histogram.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let counter = Counter::new();
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);

        let gauge = Gauge::new();
        gauge.set(7);
        assert_eq!(gauge.get(), 7);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let histogram = Histogram::with_bounds(&[10, 100, 1000]);
        for value in [1, 5, 10, 50, 200, 5000] {
            histogram.observe(value);
        }
        assert_eq!(histogram.count(), 6);
        assert_eq!(histogram.sum(), 5266);
        assert_eq!(histogram.max(), 5000);
        // Buckets: ≤10 → 3, ≤100 → 1, ≤1000 → 1, +Inf → 1.
        assert_eq!(histogram.bucket_counts(), vec![3, 1, 1, 1]);
        assert_eq!(histogram.quantile(0.50), 10);
        assert_eq!(histogram.quantile(1.0), 5000);
        assert_eq!(histogram.quantile(0.99), 5000);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let histogram = Histogram::latency();
        assert_eq!(histogram.quantile(0.50), 0);
        assert_eq!(histogram.quantile(0.99), 0);
        assert_eq!(histogram.max(), 0);
    }

    #[test]
    fn histogram_concurrent_writers_sum_exactly() {
        let histogram = Arc::new(Histogram::latency());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let histogram = Arc::clone(&histogram);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        histogram.observe(t * 1000 + i);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(histogram.count(), 8000);
        let expected: u64 = (0..8u64)
            .map(|t| (0..1000).map(|i| t * 1000 + i).sum::<u64>())
            .sum();
        assert_eq!(histogram.sum(), expected);
        assert_eq!(histogram.bucket_counts().iter().sum::<u64>(), 8000);
    }

    #[test]
    fn registry_get_or_register_returns_same_handle() {
        let registry = Registry::new();
        let a = registry.counter("ontodq_test_total", "help", &[("k", "v")]);
        let b = registry.counter("ontodq_test_total", "help", &[("k", "v")]);
        a.inc();
        assert_eq!(b.get(), 1);
        let other = registry.counter("ontodq_test_total", "help", &[("k", "w")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn render_prometheus_shape() {
        let registry = Registry::new();
        registry
            .counter(
                "ontodq_requests_total",
                "Requests served.",
                &[("verb", "query")],
            )
            .add(3);
        registry
            .gauge("ontodq_queue_depth", "Jobs queued.", &[])
            .set(2);
        let histogram = registry.histogram("ontodq_latency_micros", "Latency.", &[]);
        histogram.observe(7);
        let text = registry.render_prometheus();
        assert!(text.contains("# HELP ontodq_requests_total Requests served."));
        assert!(text.contains("# TYPE ontodq_requests_total counter"));
        assert!(text.contains("ontodq_requests_total{verb=\"query\"} 3"));
        assert!(text.contains("# TYPE ontodq_queue_depth gauge"));
        assert!(text.contains("ontodq_queue_depth 2"));
        assert!(text.contains("# TYPE ontodq_latency_micros histogram"));
        assert!(text.contains("ontodq_latency_micros_bucket{le=\"10\"} 1"));
        assert!(text.contains("ontodq_latency_micros_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("ontodq_latency_micros_sum 7"));
        assert!(text.contains("ontodq_latency_micros_count 1"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
