//! One workload, end to end (R0 against the real server) and, in a traced
//! run, down the ladder.

use crate::drive::{drive, ActorReport, Control, CrashPlan};
use crate::ladder::{
    build_service, parse_replay, store_replay, worker_pool, Parts, PartsRung, ServiceRung,
    SessionRung, StoreReplay,
};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle::{check_q_equals_d, scaled_hospital, Model};
use crate::rung::{Rung, SocketRung, SocketWorld, FULL_SCAN};
use crate::scrape::Scrape;
use crate::server::{target_dir, Launch, ScratchDir, Server};
use crate::stats::{rate_per_second, Samples};
use crate::stream::{actors, Actor, Budget, Class, Op, Pacing, Sizing, Workload};
use crate::trace::{write_spans, Span, Tracer};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

/// Set-ups per run: at least `SETUPS_MIN`, then until `SETUP_BUDGET` is spent
/// or `SETUPS_MAX` are done (the small durable server comes up in ~13 ms and
/// needs many tries to be steady).  `setup_s` is the quickest of them — the
/// quiet level, as for every other figure — and the run uses the last.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_millis(2_000);
/// Share of the window a traced run measures on the socket and replays down
/// the ladder, and the floor that keeps a smoke run meaningful.
const TRACE_SHARE: f64 = 0.2;
const TRACE_FLOOR_S: f64 = 0.5;

/// What every run needs: the server binary, and the CPU everything is pinned
/// to (`None`: pinning was refused, the run is unpinned and noisier).
pub struct Bench {
    pub binary: PathBuf,
    pub cpu: Option<usize>,
}

/// Named values, in `BENCHMARK.json` order.
pub type Values = Vec<(&'static str, f64)>;

/// What one run hands to `main`.
pub struct RunResult {
    pub metrics: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Failed responses and failed self-checks, in words.
    pub problems: Vec<String>,
    /// Sample counts behind the percentiles, and other facts for the stamp.
    pub counts: Vec<(String, u64)>,
    /// A traced run's rung-by-rung medians, for people.
    pub ladder: Vec<String>,
    pub server_flags: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// One actor's report, spans and rung after a run.
struct Ran<R> {
    report: ActorReport,
    tracer: Tracer,
    rung: R,
}

/// Run every actor on its rung, one thread each.
fn run_actors<R: Rung>(
    actors: Vec<Actor>,
    rungs: Vec<R>,
    window: Duration,
    crash: Option<CrashPlan>,
    mut model: Option<&mut Model>,
    seed: u64,
    trace: bool,
) -> Vec<Ran<R>> {
    let epoch = Instant::now();
    let control = Control {
        window,
        warming: AtomicUsize::new(actors.len()),
        bounded_running: AtomicUsize::new(
            actors
                .iter()
                .filter(|a| a.budget != Budget::WhileOthersRun)
                .count(),
        ),
    };
    let control = &control;
    std::thread::scope(|scope| {
        let handles: Vec<_> = actors
            .into_iter()
            .zip(rungs)
            .enumerate()
            .map(|(i, (mut actor, mut rung))| {
                // The first actor is the one that writes.
                let model = if i == 0 { model.take() } else { None };
                scope.spawn(move || {
                    let mut tracer = match trace {
                        true => Tracer::on(epoch),
                        false => Tracer::off(),
                    };
                    let report = drive(
                        &mut actor,
                        &mut rung,
                        control,
                        crash,
                        model,
                        seed,
                        &mut tracer,
                    );
                    Ran {
                        report,
                        tracer,
                        rung,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an actor thread panicked"))
            .collect()
    })
}

/// The samples of `class`: one actor of a workload issues all of them.
fn samples_of<R>(ran: &[Ran<R>], class: Class) -> &Samples {
    ran.iter()
        .map(|r| &r.report.latency[class.index()])
        .max_by_key(|samples| samples.len())
        .expect("at least one actor")
}

/// Requests per second of the workload's reading connection (its last
/// actor) over its main phase.
fn throughput<R>(ran: &[Ran<R>]) -> f64 {
    let reader = &ran.last().expect("at least one actor").report;
    rate_per_second(&reader.main_ends, reader.period)
}

fn total<R>(ran: &[Ran<R>], f: impl Fn(&ActorReport) -> u64) -> u64 {
    ran.iter().map(|r| f(&r.report)).sum()
}

/// The socket run of one workload and everything observed around it.
struct SocketRun {
    ran: Vec<Ran<SocketRung>>,
    setup_s: Vec<f64>,
    before: Scrape,
    after: Scrape,
    peak_rss_mb: f64,
    problems: Vec<String>,
    flags: Vec<String>,
    window: Duration,
}

fn socket_run(
    bench: &Bench,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<SocketRun, String> {
    let io = |e: std::io::Error| format!("{}: {e}", workload.name());
    let sizing = Sizing { seconds };
    let mut setup_s = Vec::new();
    let mut last = None;
    let setting_up = Instant::now();
    for i in 0..SETUPS_MAX {
        if i >= SETUPS_MIN && setting_up.elapsed() >= SETUP_BUDGET {
            break;
        }
        // A durable server starts on an empty data directory every time.
        let data_dir = match workload.durable() {
            true => Some(ScratchDir::new(&format!("data-{i}")).map_err(io)?),
            false => None,
        };
        let launch = Launch {
            binary: bench.binary.clone(),
            scale: workload.scale(),
            data_dir: data_dir.as_ref().map(|d| d.path().to_path_buf()),
        };
        drop(last.take());
        let (server, conn, took) = Server::start(&launch).map_err(io)?;
        setup_s.push(took.as_secs_f64());
        last = Some((launch, server, conn, data_dir));
    }
    let (launch, server, mut conn, _data_dir) = last.expect("SETUPS_MIN > 0");
    let flags = launch.flags();
    let world = SocketWorld::new(launch, server);

    let before = Scrape::take(&mut conn).map_err(io)?;
    let cast = actors(workload, seed, sizing);
    let mut rungs = vec![SocketRung::new(world.clone(), conn)];
    for _ in 1..cast.len() {
        rungs.push(SocketRung::new(world.clone(), world.connect().map_err(io)?));
    }
    let hospital = scaled_hospital(workload.scale());
    let mut model = Model::new(&hospital);
    let crash = workload.durable().then(|| CrashPlan::for_sizing(sizing));
    let window = Duration::from_secs_f64(seconds);
    let mut ran = run_actors(cast, rungs, window, crash, Some(&mut model), seed, trace);

    // Checks after the window, on the quiet server.
    let mut problems = Vec::new();
    let (writer, readers) = ran.split_first_mut().expect("at least one actor");
    let after = Scrape::take(writer.rung.conn()).map_err(io)?;
    let served = writer.rung.conn().expect_ok(FULL_SCAN).map_err(io)?.data;
    if let Err(e) = model
        .catch_up(&writer.report.acked)
        .and_then(|()| model.check("at the end", served))
    {
        problems.push(e);
    }
    let mut sample = writer.report.oracle_sample.clone();
    for reader in readers.iter() {
        sample.extend(reader.report.oracle_sample.iter().cloned());
    }
    if let Err(e) = check_q_equals_d(writer.rung.conn(), &sample).map_err(io)? {
        problems.push(e);
    }
    // The durable server is killed after a fixed number of commits: its
    // peak then is comparable between runs; the respawned one's is not (how
    // far it gets depends on its speed).
    let peak_rss_mb = match &writer.report.crash {
        Some(crash) => crash.peak_rss_mb,
        None => world.peak_rss_mb().map_err(io)?,
    };

    for r in &ran {
        for failure in &r.report.failures {
            problems.push(format!("{}: {failure}", r.report.name));
        }
    }
    if !trace {
        // A traced window is a fifth of the run and may be too short for the
        // rarest class; its metrics are per layer, 0 where a layer is unused.
        for class in Class::ALL {
            if samples_of(&ran, class).is_empty() {
                problems.push(format!("no `{}` op completed", class.name()));
            }
        }
    }
    self_checks(workload, &ran, &after, seconds, &mut problems);
    Ok(SocketRun {
        ran,
        setup_s,
        before,
        after,
        peak_rss_mb,
        problems,
        flags,
        window,
    })
}

/// A workload that stops exercising its layer invalidates the run.
fn self_checks(
    workload: Workload,
    ran: &[Ran<SocketRung>],
    after: &Scrape,
    seconds: f64,
    problems: &mut Vec<String>,
) {
    let cached = total(ran, |r| r.cached) as f64;
    let uncached = total(ran, |r| r.uncached) as f64;
    let reads = (cached + uncached).max(1.0);
    match workload {
        Workload::ReadHot => {
            if cached / reads < 0.99 {
                problems.push(format!(
                    "read_hot: only {:.1}% of reads after warm-up were cached=true",
                    100.0 * cached / reads
                ));
            }
        }
        Workload::ReadCold => {
            if uncached / reads < 0.99 {
                problems.push(format!(
                    "read_cold: only {:.1}% of reads were cached=false",
                    100.0 * uncached / reads
                ));
            }
            if after.stat("cache_evictions") == 0.0 {
                problems.push("read_cold: the cache never reached its bound".to_string());
            }
        }
        Workload::CorrectDurable => {
            let writer = &ran[0].report;
            if writer.short_retracts > 0 {
                problems.push(format!(
                    "correct_durable: {} retracts removed fewer facts than requested",
                    writer.short_retracts
                ));
            }
            if writer.derived == 0 {
                problems.push("correct_durable: inserts derived no quality rows".to_string());
            }
            if writer.crash.is_none() {
                problems.push("correct_durable: the window ended before the kill".to_string());
            }
        }
        Workload::MixedFeed => {
            let feed = &ran[0].report;
            let lag = feed.lag.percentile(0.95);
            if lag >= 10_000.0 {
                problems.push(format!("mixed_feed: feed lag p95 {lag:.0} us"));
            }
            let utilisation = feed.busy.as_secs_f64() / seconds;
            if utilisation >= 0.6 {
                problems.push(format!("mixed_feed: feed utilisation {utilisation:.2}"));
            }
        }
    }
}

fn sample_counts(ran: &[Ran<impl Sized>]) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = Class::ALL
        .iter()
        .map(|c| {
            (
                format!("{}_samples", c.name()),
                samples_of(ran, *c).len() as u64,
            )
        })
        .collect();
    counts.push((
        "ops".to_string(),
        ran.iter().map(|r| r.report.ops_issued as u64).sum(),
    ));
    counts
}

/// The end-to-end run: tracing off.
pub fn end_to_end(
    bench: &Bench,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let run = socket_run(bench, workload, seed, seconds, false)?;
    // Every figure is taken at the machine's quiet level: see
    // `Samples::quiet_percentile`.
    let median = |class| samples_of(&run.ran, class).quiet_percentile(0.5);
    let values: BTreeMap<&str, f64> = [
        (
            "setup_s",
            run.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("ops_per_s", throughput(&run.ran)),
        ("q_p50_us", median(Class::Q)),
        ("d_p50_us", median(Class::D)),
        ("scan_p50_us", median(Class::Scan)),
        ("commit_p50_us", median(Class::Commit)),
        ("retract_p50_us", median(Class::Retract)),
        ("peak_rss_mb", run.peak_rss_mb),
    ]
    .into();
    Ok(RunResult {
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, values[m.name]))
            .collect(),
        attempted: total(&run.ran, |r| r.attempted),
        failed: total(&run.ran, |r| r.failed),
        counts: sample_counts(&run.ran),
        ladder: Vec::new(),
        problems: run.problems,
        server_flags: run.flags,
    })
}

/// Mean duration of the spans called `name`, and how many there were.
fn span_mean<'a>(spans: impl Iterator<Item = &'a Span>, name: &str) -> f64 {
    let mut samples = Samples::default();
    for span in spans.filter(|s| s.name == name) {
        samples.push(span.micros());
    }
    samples.mean()
}

/// Per root span of R3: its class name and the time of its children by name.
fn children_by_root(tracer: &Tracer) -> Vec<(&'static str, BTreeMap<&'static str, f64>)> {
    let spans = tracer.spans();
    let mut roots: BTreeMap<u32, (&'static str, BTreeMap<&'static str, f64>)> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.id, (s.name, BTreeMap::new())))
        .collect();
    for span in spans.iter().filter(|s| s.parent != 0) {
        if let Some((_, children)) = roots.get_mut(&span.parent) {
            *children.entry(span.name).or_default() += span.micros();
        }
    }
    roots.into_values().collect()
}

/// Replay the socket run's ops on in-process rungs built by `rung_for`.
fn replay<R: Rung>(
    workload: Workload,
    seed: u64,
    sizing: Sizing,
    socket: &[Ran<SocketRung>],
    trace: bool,
    mut rung_for: impl FnMut() -> Result<R, String>,
) -> Result<Vec<Ran<R>>, String> {
    let mut cast = actors(workload, seed, sizing);
    for (actor, ran) in cast.iter_mut().zip(socket) {
        // A closed loop repeats exactly the ops the socket run completed; the
        // feed keeps its count and schedule, its reader its stop rule.
        if actor.pacing == Pacing::Closed && actor.budget == Budget::Window {
            actor.budget = Budget::Count(ran.report.ops_issued);
        }
    }
    let rungs = cast
        .iter()
        .map(|_| rung_for())
        .collect::<Result<Vec<_>, _>>()?;
    let window = Duration::from_secs_f64(sizing.seconds);
    let ran = run_actors(cast, rungs, window, None, None, seed, trace);
    for r in &ran {
        if r.report.failed > 0 {
            return Err(format!(
                "{}: a replayed op failed: {:?}",
                workload.name(),
                r.report.failures
            ));
        }
    }
    Ok(ran)
}

/// The traced run: the socket run over a share of the window with spans on,
/// then the same ops down the ladder.
pub fn traced(
    bench: &Bench,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let window_s = (seconds * TRACE_SHARE).max(TRACE_FLOOR_S);
    let sizing = Sizing { seconds: window_s };
    let scale = workload.scale();
    let r0 = socket_run(bench, workload, seed, window_s, true)?;

    let service = |label| build_service(scale, workload.durable(), label);
    let r1_world = service("r1")?;
    let pool = worker_pool();
    let r1 = replay(workload, seed, sizing, &r0.ran, true, || {
        SessionRung::start(&r1_world.service, &pool)
    })?;
    let r2_world = service("r2")?;
    let r2 = replay(workload, seed, sizing, &r0.ran, true, || {
        Ok(ServiceRung {
            service: r2_world.service.clone(),
        })
    })?;
    // The same rung with span recording off: the cost of tracing itself.
    let r2_plain_world = service("r2-plain")?;
    let r2_plain = replay(workload, seed, sizing, &r0.ran, false, || {
        Ok(ServiceRung {
            service: r2_plain_world.service.clone(),
        })
    })?;
    let r3_world = build_service(scale, false, "r3")?;
    let parts = Parts::new(&r3_world, scale);
    let r3 = replay(workload, seed, sizing, &r0.ran, true, || {
        Ok(PartsRung {
            parts: parts.clone(),
        })
    })?;
    let mut store_tracer = Tracer::on(Instant::now());
    let r4 = match workload.durable() {
        true => store_replay(&r0.ran[0].report.acked, &mut store_tracer)?,
        false => StoreReplay::default(),
    };
    let r5 = {
        let mut ops: Vec<Op> = Vec::new();
        for (mut actor, ran) in actors(workload, seed, sizing).into_iter().zip(&r0.ran) {
            ops.extend((0..ran.report.ops_issued).map(|_| actor.stream.next_op()));
        }
        parse_replay(&ops)?
    };

    let mut problems = r0.problems.clone();
    write_trace(workload, seed, &r0.ran, &r1, &r2, &r3, &store_tracer)
        .unwrap_or_else(|e| problems.push(format!("cannot write the trace: {e}")));

    // Median time of a class on each rung.  Medians, because a traced window
    // holds a handful of commits and the first one after registration is an
    // outlier on every rung.
    let m0 = |c| samples_of(&r0.ran, c).quiet_percentile(0.5);
    let m1 = |c| samples_of(&r1, c).quiet_percentile(0.5);
    let m2 = |c| samples_of(&r2, c).quiet_percentile(0.5);
    let m3 = |c| samples_of(&r3, c).quiet_percentile(0.5);

    // R3's spans, regrouped per op.
    let mut hit = Samples::default();
    let mut miss = Samples::default();
    let (mut q_eval, mut scan_eval) = (Samples::default(), Samples::default());
    let mut retract_batch = Samples::default();
    for r in &r3 {
        for (class, children) in children_by_root(&r.tracer) {
            let time = |name| children.get(name).copied().unwrap_or(0.0);
            let cache = time("cache.prepare") + time("cache.lookup") + time("cache.store");
            if let Some(eval) = children.get("qa.eval") {
                miss.push(cache);
                match class {
                    "scan" => scan_eval.push(*eval),
                    _ => q_eval.push(*eval),
                }
            } else if children.contains_key("chase.demand") {
                miss.push(cache);
            } else if children.contains_key("cache.lookup") {
                hit.push(cache);
            } else if class == "retract" {
                retract_batch.push(time("core.expand") + time("core.retract_batch"));
            }
        }
    }
    let r3_spans = || r3.iter().flat_map(|r| r.tracer.spans());

    let writer = &r0.ran[0].report;
    let crash = writer.crash.clone().unwrap_or_default();
    // The store's counters live in the process that was killed.
    let store_scrape = if workload.durable() && writer.crash.is_some() {
        &crash.scrape
    } else {
        &r0.after
    };
    let delta = |key| r0.after.stat(key) - r0.before.stat(key);
    let lookups = delta("cache_hits") + delta("cache_misses") + delta("cache_invalidations");
    let ops = total(&r0.ran, |r| r.attempted).max(1) as f64;
    let per = |sum: u64, n: u64| sum as f64 / n.max(1) as f64;
    let flushes = store_scrape.series("ontodq_request_micros_count{verb=\"flush\"}");
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let feed = r0.ran.iter().find(|r| !r.report.lag.is_empty());

    // Ladder consistency: per class, a lower rung must not be slower than
    // the one above it (5% and 0.1 us of slack for timer noise).
    let mut inversions = 0;
    let mut ladder = Vec::new();
    for class in Class::ALL {
        let medians = [m0(class), m1(class), m2(class), m3(class)];
        let inverted = medians
            .windows(2)
            .any(|pair| pair[0] * 1.05 + 0.1 < pair[1]);
        inversions += inverted as u32;
        ladder.push(format!(
            "ladder {:<8} quiet median us  R0 {:>10.2}  R1 {:>10.2}  R2 {:>10.2}  R3 {:>10.2}{}",
            class.name(),
            medians[0],
            medians[1],
            medians[2],
            medians[3],
            if inverted { "  (not descending)" } else { "" }
        ));
    }

    let values: BTreeMap<&str, f64> = [
        ("tcp.q_us", m0(Class::Q) - m1(Class::Q)),
        ("tcp.scan_us", m0(Class::Scan) - m1(Class::Scan)),
        ("tcp.commit_us", m0(Class::Commit) - m1(Class::Commit)),
        ("protocol.q_us", m1(Class::Q) - m2(Class::Q)),
        ("protocol.scan_us", m1(Class::Scan) - m2(Class::Scan)),
        ("protocol.commit_us", m1(Class::Commit) - m2(Class::Commit)),
        ("protocol.parse_us", r5.mean()),
        (
            "protocol.bytes_out_per_op",
            per(total(&r0.ran, |r| r.bytes_in), ops as u64),
        ),
        ("pool.wait_p95_us", r0.after.health("queue_wait_p95")),
        ("pool.queue_peak", r0.after.health("queue_peak")),
        ("cache.hit_us", hit.mean()),
        ("cache.miss_us", miss.mean()),
        ("cache.hit_ratio", ratio(delta("cache_hits"), lookups)),
        ("cache.evictions", delta("cache_evictions")),
        ("cache.invalidations", delta("cache_invalidations")),
        ("qa.q_eval_us", q_eval.mean()),
        ("qa.scan_eval_us", scan_eval.mean()),
        ("chase.demand_us", span_mean(r3_spans(), "chase.demand")),
        (
            "chase.derived_per_commit",
            per(writer.derived, writer.inserts),
        ),
        (
            "chase.cascaded_per_retract",
            per(writer.cascaded, writer.retracts),
        ),
        (
            "chase.rederived_per_retract",
            per(writer.rederived, writer.retracts),
        ),
        (
            "core.insert_batch_us",
            span_mean(r3_spans(), "core.insert_batch"),
        ),
        ("core.retract_batch_us", retract_batch.mean()),
        ("core.extract_us", span_mean(r3_spans(), "core.extract")),
        ("core.register_us", r2_world.register_us),
        ("service.q_self_us", m2(Class::Q) - m3(Class::Q)),
        (
            "service.commit_self_us",
            m2(Class::Commit) - m3(Class::Commit) - r4.append.mean(),
        ),
        (
            "service.retract_self_us",
            m2(Class::Retract) - m3(Class::Retract) - r4.append.mean(),
        ),
        ("store.append_us", r4.append.mean()),
        (
            "store.fsync_p95_us",
            store_scrape.histogram_quantile("ontodq_wal_fsync_micros", 0.95),
        ),
        (
            "store.fsyncs_per_commit",
            ratio(
                store_scrape.series("ontodq_wal_fsync_micros_count"),
                flushes,
            ),
        ),
        (
            "store.wal_bytes_per_commit",
            per(r4.wal_bytes, r4.append.len() as u64),
        ),
        (
            "store.wal_bytes_per_fact",
            per(
                crash.scrape.stat("wal_bytes") as u64,
                crash.tail_facts as u64,
            ),
        ),
        (
            "store.save_us",
            store_scrape.histogram_mean("ontodq_request_micros", "{verb=\"save\"}"),
        ),
        ("store.recover_us", r4.recover_us),
        ("store.replayed_batches", crash.replayed_batches as f64),
        ("store.restart_s", crash.restart_s),
        ("workload.generate_us", r2_world.generate_us),
        ("relational.probes_per_op", delta("probes") / ops),
        (
            "relational.materializations_per_op",
            delta("materializations") / ops,
        ),
        ("relational.arena_bytes", r0.after.stat("arena_bytes")),
        (
            "relational.tombstone_ratio",
            ratio(
                r0.after.stat("total_rows") - r0.after.stat("live_rows"),
                r0.after.stat("total_rows"),
            ),
        ),
        (
            "feed.lag_p95_us",
            feed.map_or(0.0, |f| f.report.lag.percentile(0.95)),
        ),
        (
            "feed.utilisation",
            feed.map_or(0.0, |f| {
                f.report.busy.as_secs_f64() / r0.window.as_secs_f64()
            }),
        ),
        (
            "client.q_p99_us",
            samples_of(&r0.ran, Class::Q).quiet_percentile(0.99),
        ),
        (
            "client.d_p95_us",
            samples_of(&r0.ran, Class::D).quiet_percentile(0.95),
        ),
        (
            "client.commit_p95_us",
            samples_of(&r0.ran, Class::Commit).percentile(0.95),
        ),
        (
            "client.retract_p95_us",
            samples_of(&r0.ran, Class::Retract).percentile(0.95),
        ),
        (
            "client.fail_ratio",
            total(&r0.ran, |r| r.failed) as f64 / ops,
        ),
        (
            "trace.overhead_ratio",
            ratio(throughput(&r2_plain), throughput(&r2)),
        ),
        ("trace.ladder_inversions", inversions as f64),
    ]
    .into();

    let mut counts = sample_counts(&r0.ran);
    counts.push(("r4_appends".to_string(), r4.append.len() as u64));
    counts.push((
        "r4_recovered_batches".to_string(),
        r4.recovered_batches as u64,
    ));
    counts.push(("r5_lines".to_string(), r5.len() as u64));
    Ok(RunResult {
        metrics: PER_LAYER.iter().map(|m| (m.name, values[m.name])).collect(),
        attempted: total(&r0.ran, |r| r.attempted),
        failed: total(&r0.ran, |r| r.failed),
        problems,
        counts,
        ladder,
        server_flags: r0.flags,
    })
}

/// Write every rung's spans under the build output directory.
fn write_trace(
    workload: Workload,
    seed: u64,
    r0: &[Ran<SocketRung>],
    r1: &[Ran<SessionRung>],
    r2: &[Ran<ServiceRung>],
    r3: &[Ran<PartsRung>],
    store: &Tracer,
) -> std::io::Result<()> {
    let dir = target_dir().join("ontodq-e2e-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.tsv", workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "rung\tactor\top\tspan\tparent\tname\tstart_ns\tend_ns")?;
    fn rung<R>(out: &mut impl Write, name: &str, ran: &[Ran<R>]) -> std::io::Result<()> {
        for r in ran {
            write_spans(out, name, r.report.name, &r.tracer)?;
        }
        Ok(())
    }
    rung(&mut out, "R0", r0)?;
    rung(&mut out, "R1", r1)?;
    rung(&mut out, "R2", r2)?;
    rung(&mut out, "R3", r3)?;
    write_spans(&mut out, "R4", "store", store)?;
    out.flush()?;
    eprintln!("trace: {}", path.display());
    Ok(())
}
