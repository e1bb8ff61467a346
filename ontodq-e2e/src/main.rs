//! `ontodq-e2e`: a socket-level benchmark of the real `ontodq-server`.
//!
//! ```text
//! ontodq-e2e --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
//! ontodq-e2e [--seed N] [--seconds S]                           every workload, both ways
//! ontodq-e2e --smoke                                            the same, one second each
//! ontodq-e2e --check-repeat                                     two sets of runs, differences vs bounds
//! ```
//!
//! Run from the repository root.  See `README.md` beside this crate for the
//! workloads, the metrics and the ladder.

mod affinity;
mod bench;
mod drive;
mod json;
mod ladder;
mod metrics;
mod oracle;
mod rung;
mod scrape;
mod server;
mod stats;
mod stream;
mod trace;
mod wire;

use bench::{Bench, RunResult};
use json::Json;
use std::process::ExitCode;
use stream::Workload;

/// `run_seconds` of `BENCHMARK.json`, the default window.
const RUN_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 11;
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str = "\
usage: ontodq-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--check-repeat]
  --workload NAME   one of read_hot, read_cold, correct_durable, mixed_feed
                    (default: all four, end to end and traced)
  --seed N          seed of the request stream (default 11)
  --seconds S       measured window per run (default 20)
  --trace 0|1       0: end-to-end metrics, tracing off; 1: per-layer metrics
  --smoke           every workload with a one-second window, all checks on
  --check-repeat    measure the end-to-end suite twice (3 runs each) and compare
                    the medians with the bounds";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    check_repeat: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: None,
        check_repeat: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                options.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                let n = value("a number")?;
                options.seed = n.parse().map_err(|_| format!("bad seed '{n}'"))?;
            }
            "--seconds" => {
                let s = value("a number")?;
                options.seconds = s
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 120.0)
                    .ok_or(format!("bad seconds '{s}'"))?;
            }
            "--trace" => {
                options.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad trace flag '{other}'")),
                });
            }
            "--smoke" => options.seconds = SMOKE_SECONDS,
            "--check-repeat" => options.check_repeat = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(options)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and how the numbers were taken.
fn stamp(
    bench: &Bench,
    workload: Workload,
    options: &Options,
    trace: bool,
    result: &RunResult,
) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::Num(nproc as f64)),
        // The one CPU everything runs on (`affinity.rs`); null if unpinned.
        (
            "cpu",
            bench.cpu.map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
        ),
        // The server path always ends in release/ontodq-server.
        ("server_profile", Json::str("release")),
        (
            "bench_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", Json::str(git_commit())),
        (
            "server_flags",
            Json::Arr(result.server_flags.iter().map(Json::str).collect()),
        ),
        (
            "counts",
            Json::obj(
                result
                    .counts
                    .iter()
                    .map(|(name, n)| (name.clone(), Json::Num(*n as f64))),
            ),
        ),
    ])
}

fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// The result line of the builder's contract.
fn result_line(result: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "metrics",
            Json::obj(result.metrics.iter().map(|(name, value)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })),
        ),
    ])
}

/// One run, reported for people; the JSON result line is left to the caller.
fn run_one(
    bench: &Bench,
    workload: Workload,
    options: &Options,
    trace: bool,
) -> Result<RunResult, String> {
    let result = if trace {
        bench::traced(bench, workload, options.seed, options.seconds)?
    } else {
        bench::end_to_end(bench, workload, options.seed, options.seconds)?
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        workload.name(),
        options.seed,
        options.seconds,
        trace as u8
    );
    for (name, value) in &result.metrics {
        println!("{name:<36} {value:>16.3} {}", unit_of(name));
    }
    for (name, n) in &result.counts {
        println!("{name:<36} {n:>16}");
    }
    for line in &result.ladder {
        println!("{line}");
    }
    for problem in &result.problems {
        println!("FAILED: {problem}");
    }
    println!("stamp {}", stamp(bench, workload, options, trace, &result));
    Ok(result)
}

/// Every workload end to end, then traced; `true` when every check passed.
fn suite(bench: &Bench, options: &Options) -> Result<bool, String> {
    let mut correct = true;
    for trace in [false, true] {
        for workload in Workload::ALL {
            let result = run_one(bench, workload, options, trace)?;
            println!("{}", result_line(&result));
            correct &= result.correct();
        }
    }
    Ok(correct)
}

/// The bounds `BENCHMARK.json` fixes, by metric name.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = Json::parse(&text)?;
    let entries = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            name.map(str::to_string)
                .zip(bound)
                .ok_or_else(|| "an end_to_end entry lacks a name or a bound".to_string())
        })
        .collect()
}

/// Runs per side of `--check-repeat`.
const REPEAT_RUNS: usize = 3;

/// Measure the end-to-end suite twice with the same seed — two sets of
/// `REPEAT_RUNS` runs per workload, taken alternately so that a slow spell of
/// the machine falls on both — and compare the sets' medians: every metric
/// must repeat within its bound.
fn check_repeat(bench: &Bench, options: &Options) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..REPEAT_RUNS {
            for set in &mut sets {
                let run = run_one(bench, workload, options, false)?;
                ok &= run.correct();
                set.push(run);
            }
        }
        for (i, (name, _)) in sets[0][0].metrics.iter().enumerate() {
            let median = |set: &[RunResult]| {
                let mut values: Vec<f64> = set.iter().map(|run| run.metrics[i].1).collect();
                values.sort_by(f64::total_cmp);
                values[values.len() / 2]
            };
            let (a, b) = (median(&sets[0]), median(&sets[1]));
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .ok_or(format!("no bound for {name}"))?;
            let difference = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
            let within = difference <= bound;
            ok &= within;
            rows.push(format!(
                "{:<16} {:<16} {a:>14.3} {b:>14.3} {:>7.2}% of {:>4.0}% {}",
                workload.name(),
                name,
                100.0 * difference,
                100.0 * bound,
                if within { "ok" } else { "EXCEEDED" }
            ));
        }
    }
    println!("# repeatability: medians of two sets of {REPEAT_RUNS} runs, difference vs bound");
    for row in rows {
        println!("{row}");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = server::build_server().and_then(|binary| {
        // After the build, before anything that is measured exists.
        let cpu = affinity::pin_to_one_cpu()
            .map_err(|e| eprintln!("warning: running unpinned, expect noise: {e}"))
            .ok();
        let bench = Bench { binary, cpu };
        let bench = &bench;
        if options.check_repeat {
            return check_repeat(bench, &options);
        }
        match options.workload {
            Some(workload) => {
                let trace = options.trace.unwrap_or(false);
                let result = run_one(bench, workload, &options, trace)?;
                println!("{}", result_line(&result));
                Ok(result.correct())
            }
            None => suite(bench, &options),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a check failed; the run does not count");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{actors, Sizing};

    fn lines(workload: Workload, seed: u64, n: usize) -> Vec<String> {
        actors(workload, seed, Sizing { seconds: 2.0 })
            .into_iter()
            .flat_map(|mut actor| {
                (0..n)
                    .flat_map(|_| actor.stream.next_op().lines())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in Workload::ALL {
            // Past read_cold's pre-fill and read_hot's warm-up.
            let n = 9_500;
            let a = lines(workload, 11, n);
            assert_eq!(a, lines(workload, 11, n), "{}", workload.name());
            assert_ne!(a, lines(workload, 12, n), "{}", workload.name());
            assert!(a.iter().all(|l| l.ends_with('\n') && l.len() > 3));
        }
    }

    #[test]
    fn every_line_of_every_stream_parses() {
        for workload in Workload::ALL {
            let mut cast = actors(workload, 5, Sizing { seconds: 2.0 });
            let ops: Vec<_> = (0..9_000)
                .flat_map(|_| {
                    cast.iter_mut()
                        .map(|a| a.stream.next_op())
                        .collect::<Vec<_>>()
                })
                .collect();
            let parsed = ladder::parse_replay(&ops).unwrap();
            assert!(parsed.len() >= ops.len());
        }
    }

    #[test]
    fn cold_reads_never_repeat_within_the_cache_bound() {
        let mut reader = actors(Workload::ReadCold, 11, Sizing { seconds: 2.0 }).remove(0);
        let reads: Vec<String> = (0..40_000)
            .filter_map(|_| match reader.stream.next_op().kind {
                stream::OpKind::Read { line, .. } => Some(line.to_string()),
                _ => None,
            })
            .collect();
        let mut last_seen = std::collections::HashMap::new();
        for (i, line) in reads.iter().enumerate() {
            if let Some(previous) = last_seen.insert(line, i) {
                assert!(
                    i - previous > stream::CACHE_BOUND,
                    "{line} repeated after {}",
                    i - previous
                );
            }
        }
        let texts = stream::Texts::for_scale(Workload::ReadCold.scale());
        assert!(stream::Stream::cold_universe(texts) >= 3 * stream::CACHE_BOUND);
    }

    #[test]
    fn hot_sets_fit_the_cache() {
        let mut reader = actors(Workload::ReadHot, 11, Sizing { seconds: 2.0 }).remove(0);
        let distinct: std::collections::HashSet<String> = (0..50_000)
            .filter_map(|_| match reader.stream.next_op().kind {
                stream::OpKind::Read { line, .. } => Some(line.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(distinct.len(), stream::HOT_TEXTS + 30 + 8);
        assert!(distinct.len() < stream::CACHE_BOUND);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            metrics: vec![("setup_s", 0.18231), ("ops_per_s", 31234.5)],
            attempted: 1000,
            failed: 0,
            problems: Vec::new(),
            counts: Vec::new(),
            ladder: Vec::new(),
            server_flags: Vec::new(),
        };
        let line = result_line(&result).to_string();
        let parsed = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.18231));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn default_window_is_the_contract_window() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }
}
