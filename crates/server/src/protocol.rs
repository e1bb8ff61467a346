//! The line protocol front end.
//!
//! One session per connection (TCP) or per process (`--stdin`); each line is
//! a request, each request produces one or more response lines ending in an
//! `ok …` or `err: …` status line.  See `docs/protocol.md` for the full
//! specification.  Summary:
//!
//! ```text
//! +Measurements(@Sep/5-12:10, "Tom Waits", 38.2).   stage a fact
//! -Measurements(@Sep/5-12:10, "Tom Waits", 38.2).   stage a retraction
//! -Measurements(t, p, v) :- Measurements(t, p, v), p = "Tom Waits".
//!                                                   stage a conditional delete
//! !flush                                            apply staged facts (re-chase)
//! ?- Measurements(t, p, v), p = "Tom Waits".        plain certain answers
//! ?q- Measurements(t, p, v).                        quality answers
//! ?d- Measurements(t, p, v), p = "Tom Waits".       quality answers, demand-driven
//! !use CONTEXT                                      switch context
//! !contexts    !stats    !save    !health    !help    !quit
//! !metrics     !profile [CONTEXT]    !slow           observability
//! ```
//!
//! Staged facts are applied as **one batch** before any query (or on
//! `!flush`), so a client streaming many `+fact.` lines pays one incremental
//! re-chase, not one per fact.  Staged retractions are applied as one
//! delete-and-rederive batch *after* the staged inserts of the same flush.
//! Query evaluation is dispatched to the shared [`WorkerPool`]; the session
//! thread only parses, stages and prints.

use crate::cache::QueryKind;
use crate::error::ServiceError;
use crate::pool::WorkerPool;
use crate::service::QualityService;
use ontodq_datalog::{parse_program, Term};
use ontodq_relational::Tuple;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// One parsed protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `+Pred(c1, …, cn).` — stage a ground fact.
    InsertFact(String),
    /// `-Pred(c1, …, cn).` or `-Pred(x̄) :- body.` — stage a ground
    /// retraction or a conditional delete.
    RetractFact(String),
    /// `?- body.` — plain certain answers.
    PlainQuery(String),
    /// `?q- body.` — quality answers.
    QualityQuery(String),
    /// `?d- body.` — quality answers computed demand-driven (magic-set
    /// restricted chase over the pre-chase base, routing around the
    /// materialized snapshot).
    DemandQuery(String),
    /// `!flush` — apply the staged batch now.
    Flush,
    /// `!discard` — drop the staged batch without applying it.
    Discard,
    /// `!use NAME` — switch the session to another context.
    UseContext(String),
    /// `!contexts` — list registered contexts.
    Contexts,
    /// `!stats` — snapshot version, instance sizes, cache, interner and
    /// durability counters.
    Stats,
    /// `!save` — snapshot every context to the durable store and compact
    /// the write-ahead log.
    Save,
    /// `!health` — the service's health state (healthy / degraded /
    /// recovering), admission-control counters and durability status.
    Health,
    /// `!metrics` — every metric series in Prometheus text exposition
    /// format: request/apply/WAL latency histograms, cache and retraction
    /// counters, queue and health gauges, per-rule chase profiles.
    Metrics,
    /// `!profile [CONTEXT]` — the top chase rules by cumulative join time
    /// for the named context (default: the session's current one).
    Profile(String),
    /// `!check [CONTEXT]` — the static-analysis report of the named
    /// context's compiled program (default: the session's current one):
    /// every `ontodq-lint` diagnostic in machine-readable `diag …` line
    /// format, then a summary with the termination certificate.
    Check(String),
    /// `!slow` — dump the slow-query ring (armed with
    /// `--slow-query-micros`).
    Slow,
    /// `!help` — print the command summary.
    Help,
    /// `!quit` — end the session.
    Quit,
    /// Blank line or `# comment`.
    Empty,
}

/// Parse one protocol line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(Request::Empty);
    }
    if let Some(rest) = line.strip_prefix("?q-") {
        return Ok(Request::QualityQuery(rest.trim().to_string()));
    }
    if let Some(rest) = line.strip_prefix("?d-") {
        return Ok(Request::DemandQuery(rest.trim().to_string()));
    }
    if let Some(rest) = line.strip_prefix("?-") {
        return Ok(Request::PlainQuery(rest.trim().to_string()));
    }
    if let Some(rest) = line.strip_prefix('+') {
        return Ok(Request::InsertFact(rest.trim().to_string()));
    }
    if let Some(rest) = line.strip_prefix('-') {
        return Ok(Request::RetractFact(rest.trim().to_string()));
    }
    if let Some(rest) = line.strip_prefix('!') {
        let mut parts = rest.trim().splitn(2, char::is_whitespace);
        let command = parts.next().unwrap_or_default();
        let argument = parts.next().unwrap_or("").trim();
        return match (command, argument) {
            ("flush", "") => Ok(Request::Flush),
            ("discard", "") => Ok(Request::Discard),
            ("use", name) if !name.is_empty() => Ok(Request::UseContext(name.to_string())),
            ("contexts", "") => Ok(Request::Contexts),
            ("stats", "") => Ok(Request::Stats),
            ("save", "") => Ok(Request::Save),
            ("health", "") => Ok(Request::Health),
            ("metrics", "") => Ok(Request::Metrics),
            ("profile", arg) => Ok(Request::Profile(arg.to_string())),
            ("check", arg) => Ok(Request::Check(arg.to_string())),
            ("slow", "") => Ok(Request::Slow),
            ("help", "") => Ok(Request::Help),
            ("quit", "") | ("exit", "") => Ok(Request::Quit),
            _ => Err(format!("unknown command '!{rest}' (try !help)")),
        };
    }
    Err(format!(
        "unrecognized line '{line}' (facts start with '+', retractions with '-', \
         queries with '?-' or '?q-', commands with '!')"
    ))
}

/// Parse the text after `+` into `(predicate, tuple)` facts.
///
/// The text must be one or more ground facts in rule syntax (e.g.
/// `Measurements(@Sep/5-12:10, "Tom Waits", 38.2).`); rules are rejected —
/// the program is fixed by the registered context.
///
/// String constants are routed through the global
/// [`ontodq_relational::SymbolInterner`] **here, once per staged batch**:
/// the tuples handed to the service carry fixed-width interned symbols, so
/// the whole downstream write path (batch validation, incremental re-chase,
/// snapshot swap) performs no further interning — and repeated constants
/// (the common case for protocol traffic) resolve on the interner's shared
/// read path without ever taking its write lock.
///
/// Interning happens at parse time, i.e. *before* schema validation, and
/// interned strings are never freed — distinct constants from rejected or
/// discarded batches still occupy the table.  Deployments exposed to
/// untrusted clients should cap line/batch sizes upstream (the same place
/// connection quotas live).
pub fn parse_facts(text: &str) -> Result<Vec<(String, Tuple)>, ServiceError> {
    let normalized = if text.trim_end().ends_with('.') {
        text.to_string()
    } else {
        format!("{text}.")
    };
    let program = parse_program(&normalized).map_err(|e| ServiceError::Parse(e.to_string()))?;
    if program.rule_count() != program.facts.len() {
        return Err(ServiceError::Parse(
            "only ground facts may be inserted; rules are fixed by the context".to_string(),
        ));
    }
    if program.facts.is_empty() {
        return Err(ServiceError::Parse("no fact found".to_string()));
    }
    let mut facts = Vec::with_capacity(program.facts.len());
    for fact in &program.facts {
        let atom = fact.atom();
        let mut values = Vec::with_capacity(atom.terms.len());
        for term in &atom.terms {
            match term {
                Term::Const(v) => values.push(*v),
                // The parser upholds "facts are ground" today, but this line
                // is fed by untrusted clients: a variable slipping through a
                // future parser change must be a protocol error, never a
                // panic that takes the session (or a pool worker) down.
                Term::Var(v) => {
                    return Err(ServiceError::Parse(format!(
                        "fact {atom} is not ground: '{v}' is a variable \
                         (constants are capitalized or quoted)"
                    )))
                }
            }
        }
        facts.push((atom.predicate.clone(), Tuple::new(values)));
    }
    Ok(facts)
}

/// Parse the text after `-` into a program holding only retraction rules:
/// ground retractions (`-P(c̄).`) and conditional deletes
/// (`-P(x̄) :- body.`).
///
/// The leading `-` the request parser stripped is restored before parsing,
/// so the text goes through the ordinary rule grammar; anything that is not
/// a retraction-kind rule is rejected (the context's rule set is fixed).
/// Expansion of conditional deletes against the live instance happens at
/// flush time, under the writer lock — staging is purely syntactic.
pub fn parse_retractions(text: &str) -> Result<ontodq_datalog::Program, ServiceError> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(ServiceError::Parse("no retraction found".to_string()));
    }
    let normalized = if trimmed.ends_with('.') {
        format!("-{trimmed}")
    } else {
        format!("-{trimmed}.")
    };
    let program = parse_program(&normalized).map_err(|e| ServiceError::Parse(e.to_string()))?;
    if program.rule_count() != program.retractions.len() + program.deletions.len() {
        return Err(ServiceError::Parse(
            "only retractions may follow '-'; rules are fixed by the context".to_string(),
        ));
    }
    if program.rule_count() == 0 {
        return Err(ServiceError::Parse("no retraction found".to_string()));
    }
    Ok(program)
}

const HELP: &str = "\
+Fact(c1, ..., cn).   stage a ground fact for the current context
-Fact(c1, ..., cn).   stage a retraction (delete-and-rederive on flush)
-Head(...) :- body.   stage a conditional delete (expanded at flush time)
!flush                apply staged inserts, then staged retractions
!discard              drop staged facts/retractions without applying them
?- body.              plain certain answers (auto-flushes staged facts)
?q- body.             quality answers over the quality versions
?d- body.             quality answers, demand-driven (magic-set chase)
!use NAME             switch context        !contexts  list contexts
!stats                versions, cache, wal  !help      this text
!save                 snapshot all contexts to the store, compact the wal
!health               health state (healthy/degraded/recovering), queue load
!metrics              every metric series, Prometheus text exposition format
!profile [CONTEXT]    top chase rules by cumulative join time
!check [CONTEXT]      static-analysis report: diagnostics + termination certificate
!slow                 recent slow queries (arm with --slow-query-micros)
!quit                 end the session";

/// `true` when an io error just means the peer went away — a normal way
/// for a session to end, not a fault to propagate (and certainly nothing to
/// poison a session thread over).
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Per-session tunables for [`serve_session_with`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// How many consecutive timed-out reads (`WouldBlock`/`TimedOut`, the
    /// kinds a socket read deadline produces) the session tolerates before
    /// disconnecting the idle client.  Each strike spans one OS-level read
    /// timeout (`--idle-timeout` sets the deadline; the strike budget
    /// multiplies it).  Partial lines received before a timeout are kept
    /// and completed by the next read.
    pub max_idle_strikes: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            max_idle_strikes: 3,
        }
    }
}

/// Serve one session: read protocol lines from `reader`, write responses to
/// `writer`, until EOF or `!quit` — with the default [`SessionConfig`].
///
/// However the session ends — `!quit`, EOF, idle timeout, or the client
/// vanishing — the store's active WAL segment is flushed and fsynced before
/// the session thread winds down (failures there are logged and swallowed:
/// every acked batch already fsynced), and a disconnect on the write path
/// is swallowed too (a client that hangs up mid-answer ends the session
/// cleanly instead of surfacing `BrokenPipe` out of the session thread).
pub fn serve_session<R: BufRead, W: Write>(
    service: &Arc<QualityService>,
    pool: &Arc<WorkerPool>,
    default_context: &str,
    reader: R,
    writer: W,
) -> std::io::Result<()> {
    serve_session_with(
        service,
        pool,
        default_context,
        reader,
        writer,
        &SessionConfig::default(),
    )
}

/// [`serve_session`] with explicit per-session tunables.
pub fn serve_session_with<R: BufRead, W: Write>(
    service: &Arc<QualityService>,
    pool: &Arc<WorkerPool>,
    default_context: &str,
    reader: R,
    mut writer: W,
    config: &SessionConfig,
) -> std::io::Result<()> {
    let result = session_loop(service, pool, default_context, reader, &mut writer, config);
    // Durability before thread teardown, on every exit path.
    service.sync_store();
    match result {
        Err(e) if is_disconnect(&e) => Ok(()),
        other => other,
    }
}

/// The session's staged-but-unapplied work: insert facts and retraction
/// rules.  The next flush applies the inserts as one batch, then the
/// retractions as one delete-and-rederive batch.
#[derive(Default)]
struct Staged {
    facts: Vec<(String, Tuple)>,
    retractions: ontodq_datalog::Program,
}

impl Staged {
    fn len(&self) -> usize {
        self.facts.len() + self.retractions.rule_count()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn clear(&mut self) {
        self.facts.clear();
        self.retractions = ontodq_datalog::Program::new();
    }
}

/// The session loop proper; io errors (including disconnects) propagate to
/// [`serve_session_with`], which classifies them.
fn session_loop<R: BufRead, W: Write>(
    service: &Arc<QualityService>,
    pool: &Arc<WorkerPool>,
    default_context: &str,
    mut reader: R,
    writer: &mut W,
    config: &SessionConfig,
) -> std::io::Result<()> {
    let mut context = default_context.to_string();
    let mut staged = Staged::default();
    let clock = service.clock();
    // The read buffer persists across reads: a read deadline elapsing
    // mid-line leaves the partial bytes here (`read_line` appends what it
    // got before the error) and the next read completes them, so slow
    // clients never lose input to a timeout — only silent ones lose the
    // session.
    let mut buffer = String::new();
    let mut idle_strikes: u32 = 0;

    loop {
        match reader.read_line(&mut buffer) {
            Ok(0) => break, // EOF
            Ok(_) => idle_strikes = 0,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A read deadline elapsed.  Strike the client; disconnect
                // after the budget so an abandoned connection cannot pin a
                // session thread forever.
                idle_strikes += 1;
                if idle_strikes >= config.max_idle_strikes.max(1) {
                    // Best effort — the peer may be long gone.
                    let _ = writeln!(writer, "err: idle timeout, closing session");
                    let _ = writer.flush();
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        let line = std::mem::take(&mut buffer);
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(message) => {
                writeln!(writer, "err: {message}")?;
                writer.flush()?;
                continue;
            }
        };
        // Per-verb request timing (`ontodq_request_micros{verb=…}`),
        // observed after the handler regardless of outcome — errors are
        // served requests too.  `!quit` breaks out before the observation:
        // its only latency is the goodbye line.
        let verb = match &request {
            Request::Empty | Request::Quit => None,
            Request::InsertFact(_) => Some("insert"),
            Request::RetractFact(_) => Some("retract"),
            Request::PlainQuery(_) => Some("query"),
            Request::QualityQuery(_) => Some("quality_query"),
            Request::DemandQuery(_) => Some("demand_query"),
            Request::Flush => Some("flush"),
            Request::Discard => Some("discard"),
            Request::UseContext(_) => Some("use"),
            Request::Contexts => Some("contexts"),
            Request::Stats => Some("stats"),
            Request::Save => Some("save"),
            Request::Health => Some("health"),
            Request::Metrics => Some("metrics"),
            Request::Profile(_) => Some("profile"),
            Request::Check(_) => Some("check"),
            Request::Slow => Some("slow"),
            Request::Help => Some("help"),
        };
        let request_start = clock.now_micros();
        match request {
            Request::Empty => continue,
            Request::Quit => {
                writeln!(writer, "ok bye")?;
                writer.flush()?;
                break;
            }
            Request::Help => writeln!(writer, "{HELP}\nok")?,
            Request::Contexts => {
                let names = service.context_names();
                writeln!(writer, "ok contexts={}", names.join(","))?;
            }
            Request::UseContext(name) => {
                if !staged.is_empty() {
                    // Staged changes belong to the context they were staged
                    // for; switching would silently apply them elsewhere.
                    writeln!(
                        writer,
                        "err: {} change(s) staged for context '{context}'; !flush them first",
                        staged.len()
                    )?;
                } else if service.context_names().iter().any(|n| n == &name) {
                    context = name;
                    writeln!(writer, "ok context={context}")?;
                } else {
                    writeln!(writer, "err: unknown context '{name}'")?;
                }
            }
            Request::Stats => match service.stats_line(&context, staged.len()) {
                Ok(line) => writeln!(writer, "{line}")?,
                Err(e) => writeln!(writer, "err: {e}")?,
            },
            Request::Save => match service.persist_all() {
                Ok(report) => writeln!(
                    writer,
                    "ok saved contexts={} segments_removed={}",
                    report.contexts, report.segments_removed,
                )?,
                Err(e) => writeln!(writer, "err: {e}")?,
            },
            Request::Health => {
                let health = service.health();
                let bound = pool.queue_bound();
                let bound = if bound == usize::MAX {
                    "unbounded".to_string()
                } else {
                    bound.to_string()
                };
                let reason = health
                    .reason
                    .as_deref()
                    .map(|r| format!(" reason=\"{r}\""))
                    .unwrap_or_default();
                writeln!(
                    writer,
                    "ok health={} store={} queued={} queue_bound={} refused_writes={} probes={} queue_peak={} queue_wait_p95={}{}",
                    health.state,
                    if service.has_store() {
                        "attached"
                    } else {
                        "none"
                    },
                    pool.queued(),
                    bound,
                    health.refused_writes,
                    health.probes,
                    pool.queued_peak(),
                    pool.wait_histogram().p95(),
                    reason,
                )?;
            }
            Request::Metrics => {
                // Gauges are sampled at scrape time; counters/histograms
                // were updated at their sources.  The payload is the
                // standard Prometheus text exposition format, one series
                // block per family, terminated by the usual `ok` line.
                write!(writer, "{}", service.render_metrics(pool))?;
                writeln!(writer, "ok")?;
            }
            Request::Profile(name) => {
                let name = if name.is_empty() {
                    context.clone()
                } else {
                    name
                };
                match service.chase_profile(&name) {
                    Ok(profile) => {
                        for rule in profile.top_by_join_micros(10) {
                            writeln!(
                                writer,
                                "rule={} evals={} delta_rows={} fires={} satisfied={} tuples={} join_micros={} kernel={} label=\"{}\"",
                                rule.rule_index,
                                rule.evaluations,
                                rule.delta_rows,
                                rule.fires,
                                rule.satisfied,
                                rule.tuples_added,
                                rule.join_micros,
                                rule.kernel(),
                                rule.label,
                            )?;
                        }
                        writeln!(
                            writer,
                            "ok context={} rules={} total_join_micros={} egd_micros={} chase_micros={} dred_batches={}",
                            name,
                            profile.rules.iter().filter(|r| r.evaluations > 0).count(),
                            profile.join_micros(),
                            profile.egd_micros,
                            profile.total_micros,
                            profile.dred.batches,
                        )?;
                    }
                    Err(e) => writeln!(writer, "err: {e}")?,
                }
            }
            Request::Check(name) => {
                let name = if name.is_empty() {
                    context.clone()
                } else {
                    name
                };
                match service.check(&name) {
                    Ok(report) => {
                        for diagnostic in &report.diagnostics {
                            writeln!(writer, "{}", diagnostic.line())?;
                        }
                        writeln!(writer, "ok check context={name} {}", report.summary())?;
                    }
                    Err(e) => writeln!(writer, "err: {e}")?,
                }
            }
            Request::Slow => {
                let records = service.slow_queries();
                for record in &records {
                    writeln!(
                        writer,
                        "slow verb={} micros={} start={} query={}",
                        record.name, record.duration_micros, record.start_micros, record.detail,
                    )?;
                }
                writeln!(
                    writer,
                    "ok slow={} threshold_micros={}",
                    records.len(),
                    service.slow_query_threshold(),
                )?;
            }
            Request::InsertFact(text) => match parse_facts(&text) {
                Ok(facts) => {
                    staged.facts.extend(facts);
                    writeln!(writer, "ok staged={}", staged.len())?;
                }
                Err(e) => writeln!(writer, "err: {e}")?,
            },
            Request::RetractFact(text) => match parse_retractions(&text) {
                Ok(program) => {
                    staged.retractions.extend(program);
                    writeln!(writer, "ok staged={}", staged.len())?;
                }
                Err(e) => writeln!(writer, "err: {e}")?,
            },
            Request::Discard => {
                let dropped = staged.len();
                staged.clear();
                writeln!(writer, "ok discarded={dropped}")?;
            }
            Request::Flush => {
                match flush(service, &context, &mut staged) {
                    Ok((None, None)) => writeln!(writer, "ok applied new=0 (nothing staged)")?,
                    Ok((inserted, retracted)) => {
                        if let Some(report) = inserted {
                            writeln!(
                                writer,
                                "ok applied new={} derived={} version={} violations={} micros={}",
                                report.new_facts,
                                report.derived,
                                report.version,
                                report.violations,
                                report.elapsed.as_micros(),
                            )?;
                        }
                        if let Some(report) = retracted {
                            writeln!(
                                writer,
                                "ok retracted requested={} removed={} cascaded={} rederived={} version={} violations={} micros={}",
                                report.requested,
                                report.retracted,
                                report.cascaded,
                                report.rederived,
                                report.version,
                                report.violations,
                                report.elapsed.as_micros(),
                            )?;
                        }
                    }
                    Err(e) => writeln!(writer, "err: {e}")?,
                };
            }
            ref request @ (Request::PlainQuery(ref text)
            | Request::QualityQuery(ref text)
            | Request::DemandQuery(ref text)) => {
                let text = text.clone();
                let kind = match request {
                    Request::QualityQuery(_) => QueryKind::Quality,
                    Request::DemandQuery(_) => QueryKind::Demand,
                    _ => QueryKind::Plain,
                };
                // Writes are visible to the writer's own subsequent reads:
                // staged facts are applied before answering.
                if let Err(e) = flush(service, &context, &mut staged) {
                    writeln!(writer, "err: {e}")?;
                    writer.flush()?;
                    continue;
                }
                // Evaluate on the shared worker pool.
                let slow_text = text.clone();
                let job_service = Arc::clone(service);
                let job_context = context.clone();
                let receiver = pool.submit(move || match kind {
                    QueryKind::Plain => job_service.plain_answers(&job_context, &text),
                    QueryKind::Quality => job_service.quality_answers(&job_context, &text),
                    QueryKind::Demand => job_service.demand_answers(&job_context, &text),
                });
                // Three layers: the channel (closed only if the pool died
                // mid-shutdown), the job outcome (panics surface as
                // `JobPanicked`), and the service result proper.
                let outcome = receiver
                    .recv()
                    .map_err(|_| ServiceError::PoolClosed)
                    .and_then(|job| job)
                    .and_then(|response| response);
                match outcome {
                    Ok(response) => {
                        for tuple in response.answers.iter() {
                            writeln!(writer, "{tuple}")?;
                        }
                        writeln!(
                            writer,
                            "ok answers={} version={} cached={}",
                            response.answers.len(),
                            response.version,
                            response.cached,
                        )?;
                    }
                    Err(e) => writeln!(writer, "err: {e}")?,
                }
                // Slow-query log: the end-to-end latency the client saw
                // (auto-flush + queue wait + evaluation), against the armed
                // threshold.  A disabled threshold makes this a no-op.
                if let Some(verb) = verb {
                    let micros = clock.now_micros().saturating_sub(request_start);
                    service.note_query(verb, &slow_text, micros);
                }
            }
        }
        if let Some(verb) = verb {
            service.observe_request(verb, clock.now_micros().saturating_sub(request_start));
        }
        writer.flush()?;
    }
    Ok(())
}

/// Apply the staged work, if any: the insert batch first, then the
/// retraction batch (so a flush that stages both inserts and retractions of
/// the same fact nets to its absence).
///
/// On a *rejection* of the insert batch (parse/schema error) all staged
/// work is kept — batches are applied atomically (a rejected batch changed
/// nothing), so the client can drop or fix the offending fact and `!flush`
/// again.  A [`ServiceError::Store`] is different: the batch **was**
/// applied in memory and only its durability failed, so the applied part is
/// cleared (re-flushing it would double-apply) and the error is surfaced as
/// the status line.  Retractions have no rejection path — expansion of a
/// rule matching nothing is an applied no-op — so their staged rules are
/// always consumed by the attempt.
fn flush(
    service: &Arc<QualityService>,
    context: &str,
    staged: &mut Staged,
) -> Result<
    (
        Option<crate::service::UpdateReport>,
        Option<crate::service::RetractReport>,
    ),
    ServiceError,
> {
    let inserted = if staged.facts.is_empty() {
        None
    } else {
        match service.insert_facts(context, staged.facts.clone()) {
            Ok(report) => {
                staged.facts.clear();
                Some(report)
            }
            Err(e @ ServiceError::Store(_)) => {
                staged.facts.clear();
                return Err(e);
            }
            Err(e) => return Err(e),
        }
    };
    let retracted = if staged.retractions.rule_count() == 0 {
        None
    } else {
        let program = std::mem::take(&mut staged.retractions);
        Some(service.retract_facts(context, &program)?)
    };
    Ok((inserted, retracted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_core::scenarios;
    use ontodq_mdm::fixtures::hospital;

    fn session_output(input: &str) -> String {
        let service = Arc::new(QualityService::new());
        service
            .register_context(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
            )
            .unwrap();
        let pool = Arc::new(WorkerPool::new(2));
        let mut output = Vec::new();
        serve_session(&service, &pool, "hospital", input.as_bytes(), &mut output).unwrap();
        String::from_utf8(output).unwrap()
    }

    #[test]
    fn parse_request_covers_every_form() {
        assert_eq!(parse_request(""), Ok(Request::Empty));
        assert_eq!(parse_request("# hi"), Ok(Request::Empty));
        assert_eq!(
            parse_request("+R(a)."),
            Ok(Request::InsertFact("R(a).".to_string()))
        );
        assert_eq!(
            parse_request("-R(a)."),
            Ok(Request::RetractFact("R(a).".to_string()))
        );
        assert_eq!(
            parse_request("-R(x) :- S(x)."),
            Ok(Request::RetractFact("R(x) :- S(x).".to_string()))
        );
        assert_eq!(
            parse_request("?- R(x)."),
            Ok(Request::PlainQuery("R(x).".to_string()))
        );
        assert_eq!(
            parse_request("?q- R(x)."),
            Ok(Request::QualityQuery("R(x).".to_string()))
        );
        assert_eq!(
            parse_request("?d- R(x)."),
            Ok(Request::DemandQuery("R(x).".to_string()))
        );
        assert_eq!(parse_request("!flush"), Ok(Request::Flush));
        assert_eq!(parse_request("!discard"), Ok(Request::Discard));
        assert_eq!(
            parse_request("!use scaled"),
            Ok(Request::UseContext("scaled".to_string()))
        );
        assert_eq!(parse_request("!contexts"), Ok(Request::Contexts));
        assert_eq!(parse_request("!stats"), Ok(Request::Stats));
        assert_eq!(parse_request("!save"), Ok(Request::Save));
        assert_eq!(parse_request("!metrics"), Ok(Request::Metrics));
        assert_eq!(
            parse_request("!profile"),
            Ok(Request::Profile(String::new()))
        );
        assert_eq!(
            parse_request("!profile hospital"),
            Ok(Request::Profile("hospital".to_string()))
        );
        assert_eq!(parse_request("!check"), Ok(Request::Check(String::new())));
        assert_eq!(
            parse_request("!check hospital"),
            Ok(Request::Check("hospital".to_string()))
        );
        assert_eq!(parse_request("!slow"), Ok(Request::Slow));
        assert_eq!(parse_request("!help"), Ok(Request::Help));
        assert_eq!(parse_request("!quit"), Ok(Request::Quit));
        assert!(parse_request("!nope").is_err());
        assert!(parse_request("garbage").is_err());
    }

    #[test]
    fn facts_parse_to_predicate_tuple_pairs() {
        let facts = parse_facts("Measurements(@Sep/5-12:10, \"Tom Waits\", 38.2).").unwrap();
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].0, "Measurements");
        assert_eq!(facts[0].1.arity(), 3);
        // Rules are rejected.
        assert!(parse_facts("R(x) :- S(x).").is_err());
        assert!(parse_facts("").is_err());
    }

    #[test]
    fn end_to_end_stdin_session() {
        let out = session_output(
            "?q- Measurements(t, p, v), p = \"Tom Waits\".\n\
             +Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).\n\
             ?q- Measurements(t, p, v), p = \"Lou Reed\".\n\
             !stats\n\
             !quit\n",
        );
        // Tom's two quality rows from version 0.
        assert!(out.contains("ok answers=2 version=0"));
        // The staged fact is applied before Lou's query: 2 original quality
        // rows + the new reading.
        assert!(out.contains("ok staged=1"));
        assert!(out.contains("39.9"));
        assert!(out.contains("ok answers=3 version=1"));
        assert!(out.contains("ok context=hospital version=1"));
        assert!(out.trim_end().ends_with("ok bye"));
    }

    #[test]
    fn retractions_parse_to_retraction_programs() {
        let program =
            parse_retractions("Measurements(@Sep/5-12:10, \"Tom Waits\", 38.2).").unwrap();
        assert_eq!(program.retractions.len(), 1);
        assert!(program.deletions.is_empty());
        let program =
            parse_retractions("Measurements(t, p, v) :- Measurements(t, p, v), p = \"X\".")
                .unwrap();
        assert_eq!(program.deletions.len(), 1);
        // Non-retraction rules and junk are rejected.
        assert!(parse_retractions("").is_err());
        assert!(parse_retractions("R(x), S(x)").is_err());
    }

    /// The full correction loop over one stdin session: insert → query →
    /// retract → query, with the answers changing both times, and the new
    /// `!stats` counters visible.
    #[test]
    fn end_to_end_retraction_session() {
        let out = session_output(
            "+Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).\n\
             ?q- Measurements(t, p, v), p = \"Lou Reed\".\n\
             -Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).\n\
             !flush\n\
             ?q- Measurements(t, p, v), p = \"Lou Reed\".\n\
             !stats\n\
             !quit\n",
        );
        // The insert is auto-flushed by the first query; Lou has 3 quality
        // rows at version 1.
        assert!(out.contains("ok answers=3 version=1"), "got:\n{out}");
        // The retraction applies on !flush and removes the row again.
        assert!(
            out.contains("ok retracted requested=1 removed=1"),
            "got:\n{out}"
        );
        assert!(out.contains("ok answers=2 version=2"), "got:\n{out}");
        // New counters are on the stats line.
        assert!(out.contains("retractions=1"));
        assert!(out.contains("live_rows="));
        assert!(out.contains("total_rows="));
        assert!(out.contains("reclaimable_bytes="));
    }

    /// Conditional deletes stage like ground retractions and expand at
    /// flush time against the live instance.
    #[test]
    fn conditional_deletes_work_through_the_protocol() {
        let out = session_output(
            "-Measurements(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\".\n\
             !flush\n\
             ?- Measurements(t, p, v), p = \"Tom Waits\".\n\
             !quit\n",
        );
        // All four raw Tom Waits rows are condemned by the one rule.
        assert!(out.contains("ok staged=1"));
        assert!(out.contains("requested=4 removed=4"), "got:\n{out}");
        assert!(out.contains("ok answers=0 version=1"), "got:\n{out}");
    }

    /// A retraction reports the violations of the instance it leaves:
    /// retracting the category member `Ward(W1)` leaves every `PatientWard`
    /// row in W1 violating the form (1) referential constraint
    /// `! :- PatientWard(w, d, p), not Ward(w).`, so the count rises above
    /// the one the preceding insert reported.
    #[test]
    fn retraction_reply_counts_the_violations_it_leaves() {
        let out = session_output(
            "+Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).\n\
             !flush\n\
             -Ward(W1).\n\
             !flush\n\
             !quit\n",
        );
        let violations = |prefix: &str| -> usize {
            let line = out
                .lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("no '{prefix}' line in:\n{out}"));
            let field = line
                .split(' ')
                .find_map(|kv| kv.strip_prefix("violations="))
                .unwrap_or_else(|| panic!("no violations= in '{line}'"));
            field.parse().unwrap()
        };
        assert!(
            out.contains("ok retracted requested=1 removed=1 cascaded=0 rederived=0 version=2 "),
            "got:\n{out}"
        );
        assert!(
            violations("ok retracted") > violations("ok applied"),
            "got:\n{out}"
        );
    }

    /// `?d-` answers must equal `?q-` answers line for line — the
    /// demand-driven path is a different evaluation strategy, not different
    /// semantics — and both must see the session's own staged writes.
    #[test]
    fn demand_queries_equal_quality_queries_end_to_end() {
        let out = session_output(
            "?q- Measurements(t, p, v), p = \"Tom Waits\".\n\
             ?d- Measurements(t, p, v), p = \"Tom Waits\".\n\
             +Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).\n\
             ?d- Measurements(t, p, v), p = \"Lou Reed\".\n\
             ?q- Measurements(t, p, v), p = \"Lou Reed\".\n\
             ?d- Measurements(t, p, v), p = \"Lou Reed\".\n\
             !quit\n",
        );
        // Tom's two quality rows, by both paths, against version 0.
        assert_eq!(out.matches("ok answers=2 version=0").count(), 2);
        // The staged fact is applied before the demand query runs; Lou then
        // has three quality rows by both paths (the repeated demand query a
        // third time, from the cache).
        assert_eq!(out.matches("ok answers=3 version=1").count(), 3);
        assert!(out.contains("cached=true"));
    }

    /// Regression: a non-ground fact from an untrusted client must be a
    /// protocol error, never a panic — neither in `parse_facts` nor
    /// anywhere downstream.  (The `unreachable!("facts are ground")` this
    /// replaces would have taken the whole session thread down.)
    #[test]
    fn non_ground_facts_are_rejected_not_panicked() {
        for text in [
            "Measurements(x, p, v).",
            "Measurements(@Sep/5-12:10, p, 38.2).",
            "Measurements(_t, \"Tom Waits\", 38.2).",
        ] {
            let err = parse_facts(text).unwrap_err();
            assert!(
                matches!(err, ServiceError::Parse(_)),
                "{text}: expected a parse error, got {err:?}"
            );
        }
        // The session stays alive and reports the error inline.
        let out = session_output(
            "+Measurements(x, p, v).\n\
             ?q- Measurements(t, p, v), p = \"Tom Waits\".\n\
             !quit\n",
        );
        assert!(out.contains("err:"));
        assert!(out.contains("ok answers=2 version=0"));
        assert!(out.trim_end().ends_with("ok bye"));
    }

    /// `!stats` surfaces the cache's entry and eviction counters, so a
    /// cache that thrashes (or one that stops admitting) is observable from
    /// the protocol.
    #[test]
    fn stats_surface_cache_entries_and_evictions() {
        let out = session_output(
            "?q- Measurements(t, p, v).\n\
             !stats\n\
             !quit\n",
        );
        assert!(out.contains("cache_entries=1"));
        assert!(out.contains("cache_evictions=0"));
    }

    #[test]
    fn use_refuses_to_carry_staged_facts_across_contexts() {
        let out = session_output(
            "+Measurements(@Sep/6-11:05, \"Lou Reed\", 39.9).\n\
             !use hospital\n\
             !discard\n\
             !use hospital\n\
             ?q- Measurements(t, p, v), p = \"Lou Reed\".\n\
             !quit\n",
        );
        // Switching with staged facts is refused, even to the same name…
        assert!(out.contains("err: 1 change(s) staged for context 'hospital'"));
        // …discarding clears them, after which switching works and the
        // discarded fact never reached the instance (Lou keeps 2 quality
        // rows).
        assert!(out.contains("ok discarded=1"));
        assert!(out.contains("ok context=hospital"));
        assert!(out.contains("ok answers=2 version=0"));
    }

    #[test]
    fn failed_flush_keeps_the_staged_batch_for_retry() {
        let out = session_output(
            "+Measurements(@Sep/6-11:05, \"Lou Reed\").\n\
             !flush\n\
             !stats\n\
             !discard\n\
             !quit\n",
        );
        // The wrong-arity fact stages fine but the batch is rejected
        // atomically…
        assert!(out.contains("ok staged=1"));
        assert!(out.contains("err: data error"));
        // …and stays staged (visible in !stats) until discarded.
        assert!(out.contains("staged=1 cache_hits"));
        assert!(out.contains("ok discarded=1"));
    }

    /// `parse_facts` routes every string constant through the global
    /// interner at parse time, once per batch: re-parsing a batch whose
    /// constants are already interned performs zero write-lock
    /// acquisitions (retried because the counter is process-global and
    /// sibling tests may intern concurrently).
    #[test]
    fn reparsing_a_batch_stays_on_the_interner_read_path() {
        let batch = "Measurements(@Sep/5-12:10, \"Tom Waits\", 38.2).\n\
                     Measurements(@Sep/6-11:50, \"Tom Waits\", 37.1).";
        let first = parse_facts(batch).unwrap();
        assert_eq!(first.len(), 2);
        let interner = ontodq_relational::SymbolInterner::global();
        let mut clean = false;
        for _ in 0..10 {
            let before = interner.write_acquisitions();
            let again = parse_facts(batch).unwrap();
            assert_eq!(first, again);
            if interner.write_acquisitions() == before {
                clean = true;
                break;
            }
        }
        assert!(
            clean,
            "re-parsing a known batch took the interner write lock"
        );
    }

    /// `!stats` surfaces the interner, durability and join-engine counters
    /// plus the arena footprint; `!save` without a store is an inline
    /// error, not a dead session.
    #[test]
    fn stats_and_save_report_durability_state() {
        let out = session_output("!stats\n!save\n!stats\n!quit\n");
        assert!(out.contains("interner_writes="));
        assert!(out.contains("wal_segments=0 wal_bytes=0"));
        assert!(out.contains("probes="));
        assert!(out.contains("gallops="));
        assert!(out.contains("wco_seeks="));
        assert!(out.contains("materializations="));
        assert!(out.contains("arena_bytes="));
        assert!(out.contains("err: no durable store attached"));
        assert!(out.trim_end().ends_with("ok bye"));
    }

    /// A client that hangs up mid-response must end the session cleanly:
    /// the write-path disconnect is swallowed, not propagated (and never a
    /// panic).
    #[test]
    fn a_disconnecting_client_ends_the_session_cleanly() {
        struct Hangup {
            budget: usize,
        }
        impl Write for Hangup {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget < buf.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "client went away",
                    ));
                }
                self.budget -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let service = Arc::new(QualityService::new());
        service
            .register_context(
                "hospital",
                scenarios::hospital_context(),
                hospital::measurements_database(),
            )
            .unwrap();
        let pool = Arc::new(WorkerPool::new(2));
        // Enough budget for the first status line, then the pipe breaks
        // mid-answer-stream.
        let input = "!stats\n?- Measurements(t, p, v).\n!stats\n!quit\n";
        for budget in [0usize, 8, 64, 200] {
            let result = serve_session(
                &service,
                &pool,
                "hospital",
                input.as_bytes(),
                Hangup { budget },
            );
            assert!(result.is_ok(), "budget {budget}: {result:?}");
        }
    }

    #[test]
    fn errors_are_reported_inline_and_do_not_kill_the_session() {
        let out = session_output(
            "?- not a query at all\n\
             +R(x) :- S(x).\n\
             !use nope\n\
             ?- Measurements(t, p, v).\n\
             !quit\n",
        );
        assert!(out.matches("err:").count() >= 3);
        assert!(out.contains("ok answers=6 version=0"));
    }
}
