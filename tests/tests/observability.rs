//! Protocol-level observability suite: `!metrics` must be valid Prometheus
//! text exposition covering every instrumented layer, `!profile` must
//! surface the per-rule chase profile, `!slow` must dump the armed
//! slow-query ring — and all three must keep answering while the service is
//! degraded (an observability surface that goes dark exactly when things
//! break is worthless).
//!
//! The Prometheus validation uses an in-repo parser of the text exposition
//! format (`# HELP`/`# TYPE` headers, `name{labels} value` samples,
//! cumulative `_bucket` series ending in `+Inf`, `_sum`/`_count`
//! consistency) rather than string spot-checks, so a malformed scrape —
//! a sample before its `# TYPE`, a non-cumulative bucket ladder, a missing
//! `+Inf` — fails loudly no matter which series regresses.

use ontodq_core::scenarios;
use ontodq_mdm::fixtures::hospital;
use ontodq_server::{serve_session, QualityService, WorkerPool};
use ontodq_store::{FaultSchedule, IoOp, SharedIoPolicy, Store, StoreConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ontodq-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hospital_service() -> Arc<QualityService> {
    let service = Arc::new(QualityService::new());
    service
        .register_context(
            "hospital",
            scenarios::hospital_context(),
            hospital::measurements_database(),
        )
        .unwrap();
    service
}

fn run_session(service: &Arc<QualityService>, pool: &Arc<WorkerPool>, script: &str) -> String {
    let mut out = Vec::new();
    serve_session(service, pool, "hospital", script.as_bytes(), &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

// ---------------------------------------------------------------------------
// A minimal parser of the Prometheus text exposition format.
// ---------------------------------------------------------------------------

/// One sample: the full series name (including any `_bucket`/`_sum`/`_count`
/// suffix), its parsed label pairs, and the value.
#[derive(Debug, Clone)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// One metric family: its `# HELP` text, `# TYPE` kind and samples, in
/// exposition order.
#[derive(Debug, Default)]
struct Family {
    help: Option<String>,
    kind: Option<String>,
    samples: Vec<Sample>,
}

/// Parse a label block `key="value",…` (the text between `{` and `}`),
/// honoring the exposition escapes `\\`, `\"` and `\n`.
fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = block;
    loop {
        rest = rest.trim_start_matches(',');
        if rest.is_empty() {
            return Ok(labels);
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest}"))?;
        let key = rest[..eq].to_string();
        let mut chars = rest[eq + 1..].chars();
        if chars.next() != Some('"') {
            return Err(format!("label value must be quoted: {rest}"));
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label {key}")),
                },
                '"' => {
                    closed = true;
                    break;
                }
                other => value.push(other),
            }
        }
        if !closed {
            return Err(format!("unterminated label value for {key}"));
        }
        labels.push((key, value));
        rest = chars.as_str();
    }
}

/// The base family name a sample belongs to: histogram series drop their
/// `_bucket`/`_sum`/`_count` suffix when the prefix was declared a
/// histogram family.
fn family_of<'a>(name: &'a str, families: &BTreeMap<String, Family>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families
                .get(base)
                .is_some_and(|f| f.kind.as_deref() == Some("histogram"))
            {
                return base;
            }
        }
    }
    name
}

/// Parse a full exposition payload into families, enforcing the format's
/// structural rules: `# TYPE` precedes samples, every sample belongs to a
/// declared family, values parse as floats.
fn parse_prometheus(text: &str) -> Result<BTreeMap<String, Family>, String> {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("HELP without text: {line}"))?;
            let family = families.entry(name.to_string()).or_default();
            if family.kind.is_some() || !family.samples.is_empty() {
                return Err(format!("# HELP after TYPE/samples for {name}"));
            }
            family.help = Some(help.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("TYPE without kind: {line}"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown kind '{kind}' for {name}"));
            }
            let family = families.entry(name.to_string()).or_default();
            if family.kind.is_some() {
                return Err(format!("duplicate # TYPE for {name}"));
            }
            if !family.samples.is_empty() {
                return Err(format!("# TYPE after samples for {name}"));
            }
            family.kind = Some(kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // comment
        }
        // Sample: name[{labels}] value
        let (series, value) = match line.find('{') {
            Some(open) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("unclosed label block: {line}"))?;
                let labels = parse_labels(&line[open + 1..close])?;
                let value = line[close + 1..].trim();
                (
                    Sample {
                        name: line[..open].to_string(),
                        labels,
                        value: value
                            .parse()
                            .map_err(|_| format!("bad value '{value}' in: {line}"))?,
                    },
                    value,
                )
            }
            None => {
                let (name, value) = line
                    .rsplit_once(' ')
                    .ok_or_else(|| format!("sample without value: {line}"))?;
                (
                    Sample {
                        name: name.to_string(),
                        labels: Vec::new(),
                        value: value
                            .parse()
                            .map_err(|_| format!("bad value '{value}' in: {line}"))?,
                    },
                    value,
                )
            }
        };
        let _ = value;
        let base = family_of(&series.name, &families).to_string();
        let family = families
            .get_mut(&base)
            .ok_or_else(|| format!("sample before # TYPE: {}", series.name))?;
        if family.kind.is_none() {
            return Err(format!("sample before # TYPE: {}", series.name));
        }
        family.samples.push(series);
    }
    Ok(families)
}

/// Validate every histogram family: per label-set the `le` ladder is
/// cumulative (non-decreasing) and ends in `+Inf`, and the `_count` sample
/// equals the `+Inf` bucket.
fn validate_histograms(families: &BTreeMap<String, Family>) -> Result<(), String> {
    for (name, family) in families {
        if family.kind.as_deref() != Some("histogram") {
            continue;
        }
        // Group buckets by their labels minus `le`.
        let mut groups: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        for sample in &family.samples {
            let key: Vec<String> = sample
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let key = key.join(",");
            if sample.name.ends_with("_bucket") {
                let le = sample
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| format!("{name}: bucket without le label"))?;
                groups.entry(key).or_default().push((le, sample.value));
            } else if sample.name.ends_with("_count") {
                counts.insert(key, sample.value);
            } else if sample.name.ends_with("_sum") {
                sums.insert(key, sample.value);
            } else {
                return Err(format!(
                    "{name}: unexpected histogram series {}",
                    sample.name
                ));
            }
        }
        if groups.is_empty() {
            return Err(format!("{name}: histogram family without buckets"));
        }
        for (key, buckets) in &groups {
            let last = buckets
                .last()
                .ok_or_else(|| format!("{name}{{{key}}}: empty bucket ladder"))?;
            if last.0 != "+Inf" {
                return Err(format!("{name}{{{key}}}: ladder must end at +Inf"));
            }
            let mut previous = -1.0f64;
            for (le, cumulative) in buckets {
                if *cumulative < previous {
                    return Err(format!(
                        "{name}{{{key}}}: bucket le={le} not cumulative ({cumulative} < {previous})"
                    ));
                }
                previous = *cumulative;
            }
            let count = counts
                .get(key)
                .ok_or_else(|| format!("{name}{{{key}}}: missing _count"))?;
            if (count - last.1).abs() > f64::EPSILON {
                return Err(format!(
                    "{name}{{{key}}}: _count {count} != +Inf bucket {}",
                    last.1
                ));
            }
            if !sums.contains_key(key) {
                return Err(format!("{name}{{{key}}}: missing _sum"));
            }
        }
    }
    Ok(())
}

/// Extract the `!metrics` payload from a session transcript: the block of
/// lines from the first `# HELP` to the `ok` terminator.
fn metrics_payload(transcript: &str) -> String {
    let start = transcript
        .find("# HELP")
        .expect("transcript should contain a metrics payload");
    let rest = &transcript[start..];
    let end = rest.find("\nok\n").map(|i| i + 1).unwrap_or(rest.len());
    rest[..end].to_string()
}

// ---------------------------------------------------------------------------
// The suite.
// ---------------------------------------------------------------------------

/// A worked session's `!metrics` is valid Prometheus text exposition and
/// covers every instrumented layer: request/apply histograms, cache and
/// retraction counters, queue/health/snapshot gauges and the per-rule
/// chase profile.
#[test]
fn metrics_are_valid_prometheus_and_cover_every_layer() {
    let dir = temp_dir("coverage");
    let store = Arc::new(Mutex::new(
        Store::open(&dir, StoreConfig::default()).unwrap(),
    ));
    let service = Arc::new(QualityService::with_store(store));
    service
        .register_context(
            "hospital",
            scenarios::hospital_context(),
            hospital::measurements_database(),
        )
        .unwrap();
    let pool = Arc::new(WorkerPool::new(2));
    let out = run_session(
        &service,
        &pool,
        "?q- Measurements(t, p, v), p = \"Tom Waits\".\n\
         +Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).\n\
         !flush\n\
         -Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).\n\
         !flush\n\
         !save\n\
         !metrics\n\
         !quit\n",
    );
    let payload = metrics_payload(&out);
    let families = parse_prometheus(&payload).unwrap_or_else(|e| panic!("invalid scrape: {e}"));
    validate_histograms(&families).unwrap_or_else(|e| panic!("invalid histogram: {e}"));

    // One representative family per layer.
    for name in [
        "ontodq_request_micros",    // protocol
        "ontodq_apply_micros",      // service write path
        "ontodq_dred_phase_micros", // retraction engine
        "ontodq_cache_hits_total",  // query cache
        "ontodq_retractions_total",
        "ontodq_wal_write_micros", // storage
        "ontodq_wal_fsync_micros",
        "ontodq_snapshot_write_micros",
        "ontodq_queue_depth", // worker pool
        "ontodq_queue_wait_micros",
        "ontodq_health_state",     // health machine
        "ontodq_snapshot_version", // per-context state
        "ontodq_rule_join_micros", // chase profiler
        "ontodq_chase_total_micros",
        "ontodq_lint_errors", // static analysis
        "ontodq_lint_warnings",
        "ontodq_relation_copies_total", // storage layer copy-on-write
    ] {
        let family = families
            .get(name)
            .unwrap_or_else(|| panic!("scrape must cover {name}:\n{payload}"));
        assert!(family.help.is_some(), "{name} needs # HELP");
        assert!(
            !family.samples.is_empty(),
            "{name} declared but sampled nowhere"
        );
    }

    // Spot-check semantics: two applied batches → version gauge 2, and the
    // insert histogram saw exactly the flushed insert batch.
    let version = &families["ontodq_snapshot_version"].samples[0];
    assert_eq!(version.value, 2.0, "two flushes were applied");
    let apply_counts: f64 = families["ontodq_apply_micros"]
        .samples
        .iter()
        .filter(|s| s.name.ends_with("_count"))
        .map(|s| s.value)
        .sum();
    assert!(
        apply_counts >= 2.0,
        "insert + retract batches must be observed, got {apply_counts}"
    );
    // Static analysis: the hospital program lints error-free with exactly
    // the expected baseline warning (L102: the Shifts rule is outside the
    // quality-goal cone).
    let lint_errors = &families["ontodq_lint_errors"].samples[0];
    assert!(
        lint_errors
            .labels
            .iter()
            .any(|(k, v)| k == "context" && v == "hospital"),
        "lint gauges are per-context"
    );
    assert_eq!(lint_errors.value, 0.0, "hospital program lints error-free");
    assert_eq!(
        families["ontodq_lint_warnings"].samples[0].value, 1.0,
        "the hospital baseline is exactly one warning (L102 unreachable Shifts rule)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `!profile` reports the per-rule chase profile of the current context:
/// rule lines ordered by cumulative join time plus a summary status line.
#[test]
fn profile_reports_per_rule_chase_timings() {
    let service = hospital_service();
    let pool = Arc::new(WorkerPool::new(2));
    let out = run_session(
        &service,
        &pool,
        "+Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).\n\
         !flush\n\
         !profile\n\
         !profile hospital\n\
         !profile nope\n\
         !quit\n",
    );
    assert!(
        out.contains("rule=") && out.contains("kernel="),
        "profile should print per-rule lines: {out}"
    );
    assert!(
        out.contains("ok context=hospital rules="),
        "profile should end with the summary line: {out}"
    );
    assert!(
        out.contains("total_join_micros="),
        "summary should carry cumulative join time: {out}"
    );
    assert!(
        out.contains("err: unknown context 'nope'"),
        "an unknown context is an inline error: {out}"
    );
}

/// The slow-query log: disarmed it stays empty, armed it records queries
/// crossing the threshold, and `!slow` dumps verb, latency and query text.
#[test]
fn slow_log_records_queries_over_the_threshold() {
    let service = hospital_service();
    let pool = Arc::new(WorkerPool::new(2));

    // Disarmed (the default): nothing is recorded.
    let out = run_session(
        &service,
        &pool,
        "?q- Measurements(t, p, v), p = \"Tom Waits\".\n!slow\n!quit\n",
    );
    assert!(
        out.contains("ok slow=0 threshold_micros=0"),
        "disarmed log must stay empty: {out}"
    );

    // Armed at 1µs every real query crosses the threshold.
    service.set_slow_query_threshold(1);
    let out = run_session(
        &service,
        &pool,
        "?q- Measurements(t, p, v), p = \"Lou Reed\".\n!slow\n!quit\n",
    );
    assert!(
        out.contains("slow verb=quality_query")
            && out.contains("query=Measurements(t, p, v), p = \"Lou Reed\"."),
        "armed log must dump the slow query: {out}"
    );
    assert!(
        out.contains("threshold_micros=1"),
        "the dump reports the armed threshold: {out}"
    );
}

/// The observability surfaces must keep answering while the service is
/// degraded: `!metrics` still renders a valid scrape (with the health gauge
/// flipped), `!profile` and `!slow` still respond.  Going dark during an
/// incident would make the whole subsystem pointless.
#[test]
fn metrics_profile_and_slow_answer_while_degraded() {
    let dir = temp_dir("degraded");
    let schedule = Arc::new(Mutex::new(FaultSchedule::new()));
    schedule.lock().unwrap().fail_nth(IoOp::WalFsync, 0);
    let policy: SharedIoPolicy = schedule.clone();
    let store = Arc::new(Mutex::new(
        Store::open_with_policy(&dir, StoreConfig::default(), policy).unwrap(),
    ));
    let service = Arc::new(QualityService::with_store(store));
    service.set_probe_interval(Duration::from_secs(3600));
    service.set_slow_query_threshold(1);
    service
        .register_context(
            "hospital",
            scenarios::hospital_context(),
            hospital::measurements_database(),
        )
        .unwrap();
    let pool = Arc::new(WorkerPool::new(2));
    let out = run_session(
        &service,
        &pool,
        "+Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).\n\
         !flush\n\
         !health\n\
         ?q- Measurements(t, p, v), p = \"Lou Reed\".\n\
         !metrics\n\
         !profile\n\
         !slow\n\
         !quit\n",
    );
    assert!(
        out.contains("ok health=degraded"),
        "the fsync fault must degrade the service: {out}"
    );
    let payload = metrics_payload(&out);
    let families =
        parse_prometheus(&payload).unwrap_or_else(|e| panic!("degraded scrape invalid: {e}"));
    validate_histograms(&families).unwrap_or_else(|e| panic!("degraded histogram invalid: {e}"));
    assert_eq!(
        families["ontodq_health_state"].samples[0].value, 1.0,
        "the health gauge must report degraded"
    );
    assert!(
        out.contains("ok context=hospital rules="),
        "!profile must answer while degraded: {out}"
    );
    assert!(
        out.contains("slow verb=quality_query"),
        "!slow must answer while degraded: {out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `!health` line surfaces the pool's queue high-watermark and wait
/// percentile alongside the health machine's counters.
#[test]
fn health_line_surfaces_queue_pressure() {
    let service = hospital_service();
    let pool = Arc::new(WorkerPool::new(2));
    let out = run_session(
        &service,
        &pool,
        "?- Measurements(t, p, v).\n!health\n!quit\n",
    );
    assert!(
        out.contains("queue_peak=1"),
        "one dispatched query must raise the watermark to 1: {out}"
    );
    assert!(
        out.contains("queue_wait_p95="),
        "the wait percentile rides on the health line: {out}"
    );
}

/// Registry histograms stay consistent under concurrent writers: the
/// integration-level counterpart of the obs crate's unit test, hammering
/// one shared histogram from eight threads through the `Arc` handles the
/// registry hands out.
#[test]
fn histograms_are_consistent_under_concurrent_writers() {
    let registry = ontodq_obs::Registry::new();
    let histogram = registry.histogram("t_concurrent_micros", "test series", &[]);
    let threads = 8;
    let per_thread = 10_000u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let histogram = Arc::clone(&histogram);
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                histogram.observe(t * per_thread + i);
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(histogram.count(), threads * per_thread);
    let expected_sum: u64 = (0..threads * per_thread).sum();
    assert_eq!(histogram.sum(), expected_sum);
    // And the rendered exposition of the hammered registry still validates.
    let families = parse_prometheus(&registry.render_prometheus()).unwrap();
    validate_histograms(&families).unwrap();
    let count = families["t_concurrent_micros"]
        .samples
        .iter()
        .find(|s| s.name.ends_with("_count"))
        .unwrap()
        .value;
    assert_eq!(count, (threads * per_thread) as f64);
}
