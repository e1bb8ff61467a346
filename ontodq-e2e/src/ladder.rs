//! The layer ladder: the rungs below the socket, each a public entry point
//! of the workspace's crates.
//!
//! | rung | executes an op through |
//! |---|---|
//! | R0 | the real server over loopback TCP (`rung.rs`) |
//! | R1 | `serve_session_with` in this process, over a Unix socket pair |
//! | R2 | `QualityService::{quality_answers, demand_answers, insert_facts, retract_facts, persist_all}` |
//! | R3 | `QueryCache::{prepared, cached_answers, store_answers}`, `Snapshot::{answers, demand_answers}`, `ResumableAssessment::{insert_batch, expand_retractions, retract_batch, extract}` |
//! | R4 | bare `Store::{append_batch, append_retraction, recover}` in a scratch directory |
//! | R5 | `parse_request` / `parse_facts` / `parse_retractions` alone |
//!
//! A layer's self time is the difference between adjacent rungs.

use crate::oracle::{scaled_hospital, Acked};
use crate::rung::{exchange_op, Action, Done, Outcome, Rung};
use crate::server::{ScratchDir, WORKERS};
use crate::stats::{micros, Samples};
use crate::stream::{Class, Op, OpKind};
use crate::trace::Tracer;
use crate::wire::{Conn, Reply};
use ontodq_core::{scenarios, Context, ResumableAssessment};
use ontodq_mdm::fixtures::hospital;
use ontodq_relational::Tuple;
use ontodq_server::{
    parse_facts, parse_request, parse_retractions, serve_session_with, QualityService, QueryCache,
    QueryKind, Request, ServiceError, SessionConfig, WorkerPool,
};
use ontodq_store::{Store, StoreConfig};
use std::hint::black_box;
use std::io::{self, BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The context every session of the benchmark works in.
const CONTEXT: &str = "scaled";

/// A service built the way `ontodq-server`'s `main` builds it: the hospital
/// fixture, then the generated `scaled` context, on a store when durable.
pub struct InProcess {
    pub service: Arc<QualityService>,
    pub context: Context,
    /// `ontodq_workload::generate` for the scaled hospital.
    pub generate_us: f64,
    /// Registering `scaled`: compile, lint and the initial chase.
    pub register_us: f64,
    _data_dir: Option<ScratchDir>,
}

pub fn build_service(scale: usize, durable: bool, label: &str) -> Result<InProcess, String> {
    let text = |e: &dyn std::fmt::Display| e.to_string();
    let data_dir = match durable {
        true => Some(ScratchDir::new(label).map_err(|e| text(&e))?),
        false => None,
    };
    let (service, mut recovery) = match &data_dir {
        Some(dir) => {
            let mut store =
                Store::open(dir.path(), StoreConfig::default()).map_err(|e| text(&e))?;
            let recovery = store.recover().map_err(|e| text(&e))?;
            let service = QualityService::with_store(Arc::new(Mutex::new(store)));
            (service, Some(recovery))
        }
        None => (QualityService::new(), None),
    };
    let mut register = |name: &str, context: Context, instance| match recovery.as_mut() {
        Some(recovery) => service
            .register_recovered(name, context, instance, recovery)
            .map(|_| ()),
        None => service.register_context(name, context, instance),
    };
    register(
        "hospital",
        scenarios::hospital_context(),
        hospital::measurements_database(),
    )
    .map_err(|e| text(&e))?;
    let generating = Instant::now();
    let scaled = scaled_hospital(scale);
    let generate_us = micros(generating.elapsed());
    let context = scaled.context();
    let registering = Instant::now();
    register(CONTEXT, context.clone(), scaled.instance.clone()).map_err(|e| text(&e))?;
    let register_us = micros(registering.elapsed());
    Ok(InProcess {
        service: Arc::new(service),
        context,
        generate_us,
        register_us,
        _data_dir: data_dir,
    })
}

/// A query line's kind and text, through the server's own request parser.
fn parse_query(line: &str) -> Result<(QueryKind, String), String> {
    match parse_request(line)? {
        Request::QualityQuery(text) => Ok((QueryKind::Quality, text)),
        Request::DemandQuery(text) => Ok((QueryKind::Demand, text)),
        Request::PlainQuery(text) => Ok((QueryKind::Plain, text)),
        other => Err(format!("not a query: {other:?}")),
    }
}

fn parse_batch(facts: &[String]) -> Result<Vec<(String, Tuple)>, ServiceError> {
    let mut parsed = Vec::with_capacity(facts.len());
    for fact in facts {
        parsed.extend(parse_facts(fact)?);
    }
    Ok(parsed)
}

fn parse_retraction_batch(facts: &[String]) -> Result<ontodq_datalog::Program, ServiceError> {
    let mut program = ontodq_datalog::Program::new();
    for fact in facts {
        program.extend(parse_retractions(fact)?);
    }
    Ok(program)
}

fn failed(start: Instant, error: impl std::fmt::Display) -> Done {
    Done {
        start,
        end: Instant::now(),
        outcome: Outcome::Failed(error.to_string()),
        bytes: 0,
    }
}

// ---------------------------------------------------------------- R1

/// R1: one protocol session served in this process, wired the way the
/// server's `main` wires a TCP connection (`BufReader` in, `BufWriter` out)
/// but over a Unix socket pair.  A socket pair rather than channels: blocking
/// socket reads are woken the same way TCP reads are, so the difference to R0
/// is the TCP/IP path and the process boundary, not a different scheduler
/// regime (a futex-woken channel hop costs more than loopback TCP here).
pub struct SessionRung {
    conn: Option<Conn<UnixStream>>,
    session: Option<std::thread::JoinHandle<io::Result<()>>>,
    reply: Reply,
}

impl SessionRung {
    pub fn start(
        service: &Arc<QualityService>,
        pool: &Arc<WorkerPool>,
    ) -> Result<SessionRung, String> {
        let text = |e: io::Error| e.to_string();
        let (ours, theirs) = UnixStream::pair().map_err(text)?;
        let reader = BufReader::new(theirs.try_clone().map_err(text)?);
        let writer = BufWriter::new(theirs);
        let (service, pool) = (Arc::clone(service), Arc::clone(pool));
        let session = std::thread::spawn(move || {
            serve_session_with(
                &service,
                &pool,
                "hospital",
                reader,
                writer,
                &SessionConfig::default(),
            )
        });
        let mut conn = Conn::over(ours.try_clone().map_err(text)?, ours);
        let used = conn.expect_ok(&format!("!use {CONTEXT}")).map(|_| ());
        let rung = SessionRung {
            conn: Some(conn),
            session: Some(session),
            reply: Reply::default(),
        };
        used.map_err(text)?;
        Ok(rung)
    }
}

impl Rung for SessionRung {
    fn exec(&mut self, action: Action<'_>, op_id: u32, parent: u32, tracer: &mut Tracer) -> Done {
        let (Action::Op(op), Some(conn)) = (action, self.conn.as_mut()) else {
            return failed(Instant::now(), "the session rung cannot restart");
        };
        let start = Instant::now();
        match exchange_op(conn, op, &mut self.reply, op_id, parent, tracer) {
            Ok((outcome, bytes)) => Done {
                start,
                end: Instant::now(),
                outcome,
                bytes,
            },
            Err(e) => failed(start, format!("session: {e}")),
        }
    }
}

impl Drop for SessionRung {
    fn drop(&mut self) {
        // Closing our end is EOF for the session loop; the join surfaces a
        // session panic.
        self.conn = None;
        if let Some(session) = self.session.take() {
            if !matches!(session.join(), Ok(Ok(()))) {
                eprintln!("warning: an in-process session ended abnormally");
            }
        }
    }
}

/// The pool an in-process session rung shares, sized like the server's.
pub fn worker_pool() -> Arc<WorkerPool> {
    Arc::new(WorkerPool::with_queue_bound(WORKERS, 1024))
}

// ---------------------------------------------------------------- R2

/// R2: the service's public methods, with no protocol in front.
pub struct ServiceRung {
    pub service: Arc<QualityService>,
}

impl Rung for ServiceRung {
    fn exec(&mut self, action: Action<'_>, _: u32, _: u32, _: &mut Tracer) -> Done {
        let Action::Op(op) = action else {
            return failed(Instant::now(), "the service rung cannot restart");
        };
        let service = &self.service;
        // Parsing belongs to the protocol layer: it happens before the clock
        // starts.
        let prepared = Instant::now();
        let (start, outcome) = match &op.kind {
            OpKind::Read { line, .. } => {
                let (kind, text) = match parse_query(line) {
                    Ok(split) => split,
                    Err(e) => return failed(prepared, e),
                };
                let start = Instant::now();
                let response = match kind {
                    QueryKind::Quality => service.quality_answers(CONTEXT, &text),
                    QueryKind::Demand => service.demand_answers(CONTEXT, &text),
                    QueryKind::Plain => service.plain_answers(CONTEXT, &text),
                };
                let outcome = response.map(|r| Outcome::Read {
                    answers: black_box(&r.answers).len() as u64,
                    cached: r.cached,
                });
                (start, outcome)
            }
            OpKind::Write {
                class: Class::Commit,
                facts,
            } => {
                let batch = match parse_batch(facts) {
                    Ok(batch) => batch,
                    Err(e) => return failed(prepared, e),
                };
                let start = Instant::now();
                let outcome = service
                    .insert_facts(CONTEXT, batch)
                    .map(|r| Outcome::Inserted {
                        new: r.new_facts as u64,
                        derived: r.derived as u64,
                    });
                (start, outcome)
            }
            OpKind::Write { facts, .. } => {
                let program = match parse_retraction_batch(facts) {
                    Ok(program) => program,
                    Err(e) => return failed(prepared, e),
                };
                let start = Instant::now();
                let outcome =
                    service
                        .retract_facts(CONTEXT, &program)
                        .map(|r| Outcome::Retracted {
                            requested: r.requested as u64,
                            removed: r.retracted as u64,
                            cascaded: r.cascaded as u64,
                            rederived: r.rederived as u64,
                        });
                (start, outcome)
            }
            OpKind::Save => {
                let start = Instant::now();
                (start, service.persist_all().map(|_| Outcome::Saved))
            }
        };
        let end = Instant::now();
        Done {
            start,
            end,
            outcome: outcome.unwrap_or_else(|e| Outcome::Failed(e.to_string())),
            bytes: 0,
        }
    }
}

// ---------------------------------------------------------------- R3

/// What the R3 rungs of one run share: the pieces a `QualityService` is made
/// of, driven one by one.
pub struct Parts {
    /// Publishes the snapshots reads evaluate on.  Kept in step with `writer`
    /// by applying every batch here too, outside the clock.
    service: Arc<QualityService>,
    context: Context,
    cache: QueryCache,
    writer: Mutex<ResumableAssessment>,
}

impl Parts {
    pub fn new(in_process: &InProcess, scale: usize) -> Arc<Parts> {
        let scaled = scaled_hospital(scale);
        Arc::new(Parts {
            service: Arc::clone(&in_process.service),
            context: in_process.context.clone(),
            cache: QueryCache::new(),
            writer: Mutex::new(ResumableAssessment::new(scaled.context(), scaled.instance)),
        })
    }
}

/// R3: cache, snapshot evaluation and the resumable assessment, each called
/// directly and each under its own span.
pub struct PartsRung {
    pub parts: Arc<Parts>,
}

impl PartsRung {
    fn read(
        &self,
        line: &str,
        op_id: u32,
        parent: u32,
        tracer: &mut Tracer,
    ) -> Result<(Instant, Instant, Outcome), String> {
        let parts = &*self.parts;
        let (kind, text) = parse_query(line)?;
        let text = text.as_str();
        let snapshot = parts.service.snapshot(CONTEXT).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let prepared = parts
            .cache
            .prepared(CONTEXT, &parts.context, kind, text)
            .map_err(|e| e.to_string())?;
        let looked_up = Instant::now();
        tracer.leaf("cache.prepare", op_id, parent, start, looked_up);
        let hit = parts
            .cache
            .cached_answers(CONTEXT, kind, text, snapshot.version);
        let probed = Instant::now();
        tracer.leaf("cache.lookup", op_id, parent, looked_up, probed);
        let (answers, cached, end) = match hit {
            Some(answers) => (answers, true, probed),
            None => {
                let (name, answers) = match kind {
                    QueryKind::Demand => ("chase.demand", snapshot.demand_answers(&prepared)),
                    _ => ("qa.eval", snapshot.answers(&prepared)),
                };
                let answers = Arc::new(answers);
                let evaluated = Instant::now();
                tracer.leaf(name, op_id, parent, probed, evaluated);
                parts.cache.store_answers(
                    CONTEXT,
                    kind,
                    text,
                    snapshot.version,
                    Arc::clone(&answers),
                );
                let stored = Instant::now();
                tracer.leaf("cache.store", op_id, parent, evaluated, stored);
                (answers, false, stored)
            }
        };
        let outcome = Outcome::Read {
            answers: black_box(&answers).len() as u64,
            cached,
        };
        Ok((start, end, outcome))
    }

    fn write(
        &self,
        class: Class,
        facts: &[String],
        op_id: u32,
        parent: u32,
        tracer: &mut Tracer,
    ) -> Result<(Instant, Instant, Outcome), String> {
        let parts = &*self.parts;
        let text = |e: ServiceError| e.to_string();
        let mut writer = parts.writer.lock().map_err(|_| "writer poisoned")?;
        if class == Class::Commit {
            let batch = parse_batch(facts).map_err(text)?;
            let start = Instant::now();
            let applied = writer
                .insert_batch(batch.iter().cloned())
                .map_err(|e| e.to_string())?;
            let chased = Instant::now();
            tracer.leaf("core.insert_batch", op_id, parent, start, chased);
            black_box(writer.extract());
            let end = Instant::now();
            tracer.leaf("core.extract", op_id, parent, chased, end);
            parts.service.insert_facts(CONTEXT, batch).map_err(text)?;
            let outcome = Outcome::Inserted {
                new: applied.new_facts as u64,
                derived: applied.chase.stats.tuples_added as u64,
            };
            Ok((start, end, outcome))
        } else {
            let program = parse_retraction_batch(facts).map_err(text)?;
            let start = Instant::now();
            let expanded = writer.expand_retractions(&program);
            let expanded_at = Instant::now();
            tracer.leaf("core.expand", op_id, parent, start, expanded_at);
            let result = writer.retract_batch(expanded);
            let retracted = Instant::now();
            tracer.leaf("core.retract_batch", op_id, parent, expanded_at, retracted);
            black_box(writer.extract());
            let end = Instant::now();
            tracer.leaf("core.extract", op_id, parent, retracted, end);
            parts
                .service
                .retract_facts(CONTEXT, &program)
                .map_err(text)?;
            let outcome = Outcome::Retracted {
                requested: result.stats.requested as u64,
                removed: result.stats.retracted as u64,
                cascaded: result.stats.cascaded as u64,
                rederived: result.stats.rederived as u64,
            };
            Ok((start, end, outcome))
        }
    }
}

impl Rung for PartsRung {
    fn exec(&mut self, action: Action<'_>, op_id: u32, parent: u32, tracer: &mut Tracer) -> Done {
        let began = Instant::now();
        let result = match action {
            Action::Restart => Err("the parts rung cannot restart".to_string()),
            Action::Op(Op {
                kind: OpKind::Read { line, .. },
                ..
            }) => self.read(line, op_id, parent, tracer),
            Action::Op(Op {
                kind: OpKind::Write { class, facts },
                ..
            }) => self.write(*class, facts, op_id, parent, tracer),
            // A checkpoint is the store's work (R4), not this rung's.
            Action::Op(Op {
                kind: OpKind::Save, ..
            }) => Ok((began, began, Outcome::Saved)),
        };
        match result {
            Ok((start, end, outcome)) => Done {
                start,
                end,
                outcome,
                bytes: 0,
            },
            Err(e) => failed(began, e),
        }
    }
}

// ---------------------------------------------------------------- R4

/// What the bare store did with the run's write batches.
#[derive(Default)]
pub struct StoreReplay {
    /// Per append: encode, write and fsync.
    pub append: Samples,
    pub wal_bytes: u64,
    /// `Store::recover` over the log the appends left.
    pub recover_us: f64,
    pub recovered_batches: usize,
}

/// R4: append every acknowledged batch to a fresh store, then recover it.
pub fn store_replay(acked: &[Acked], tracer: &mut Tracer) -> Result<StoreReplay, String> {
    let text = |e: ontodq_store::StoreError| e.to_string();
    let dir = ScratchDir::new("r4").map_err(|e| e.to_string())?;
    let mut replay = StoreReplay::default();
    {
        let mut store = Store::open(dir.path(), StoreConfig::default()).map_err(text)?;
        for (i, (class, facts)) in acked.iter().enumerate() {
            let batch = parse_batch(facts).map_err(|e| e.to_string())?;
            let seq = i as u64 + 1;
            let start = Instant::now();
            if *class == Class::Commit {
                store.append_batch(CONTEXT, seq, &batch).map_err(text)?;
            } else {
                store
                    .append_retraction(CONTEXT, seq, &batch)
                    .map_err(text)?;
            }
            let end = Instant::now();
            tracer.leaf("store.append", seq as u32, 0, start, end);
            replay.append.push(micros(end - start));
        }
        replay.wal_bytes = store.wal_stats().bytes;
    }
    let mut store = Store::open(dir.path(), StoreConfig::default()).map_err(text)?;
    let start = Instant::now();
    let recovery = store.recover().map_err(text)?;
    let end = Instant::now();
    tracer.leaf("store.recover", 0, 0, start, end);
    replay.recover_us = micros(end - start);
    replay.recovered_batches = recovery.tails.get(CONTEXT).map_or(0, Vec::len);
    Ok(replay)
}

// ---------------------------------------------------------------- R5

/// R5: parse every request line of `ops` and nothing else; mean µs a line.
pub fn parse_replay(ops: &[Op]) -> Result<Samples, String> {
    let mut samples = Samples::default();
    for op in ops {
        for line in op.lines() {
            let start = Instant::now();
            let request = parse_request(&line)?;
            match &request {
                Request::InsertFact(text) => {
                    black_box(parse_facts(text).map_err(|e| e.to_string())?);
                }
                Request::RetractFact(text) => {
                    black_box(parse_retractions(text).map_err(|e| e.to_string())?);
                }
                other => {
                    black_box(other);
                }
            }
            samples.push(micros(start.elapsed()));
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Phase;

    /// The in-memory session against the paper's hospital fixture: Tom
    /// Waits has two quality measurements (Table II), a commit is applied
    /// and invalidates the cached answer, and the session ends cleanly on EOF.
    #[test]
    fn session_rung_serves_the_hospital_fixture() {
        let service = Arc::new(QualityService::new());
        service
            .register_context(
                CONTEXT,
                scenarios::hospital_context(),
                hospital::measurements_database(),
            )
            .unwrap();
        // `serve_session_with` starts in "hospital"; the rung switches to
        // the benchmark's context name.
        service
            .register_context(
                "hospital",
                scenarios::hospital_context(),
                Default::default(),
            )
            .unwrap();
        let pool = worker_pool();
        let mut rung = SessionRung::start(&service, &pool).unwrap();
        let mut tracer = Tracer::on(Instant::now());

        let query = Op {
            phase: Phase::Main,
            kind: OpKind::Read {
                class: Class::Q,
                line: Arc::from("?q- Measurements(t, p, v), p = \"Tom Waits\".\n"),
            },
        };
        let done = rung.exec(Action::Op(&query), 1, 0, &mut tracer);
        assert!(
            matches!(
                done.outcome,
                Outcome::Read {
                    answers: 2,
                    cached: false
                }
            ),
            "{:?}",
            done.outcome
        );
        assert!(done.end >= done.start && done.bytes > 0);
        let again = rung.exec(Action::Op(&query), 2, 0, &mut tracer);
        assert!(matches!(
            again.outcome,
            Outcome::Read {
                answers: 2,
                cached: true
            }
        ));

        let commit = Op {
            phase: Phase::Main,
            kind: OpKind::Write {
                class: Class::Commit,
                facts: vec!["Measurements(@Sep/5-12:15, \"Tom Waits\", 38.4).".to_string()],
            },
        };
        let root = tracer.open();
        let done = rung.exec(Action::Op(&commit), 3, root, &mut tracer);
        assert!(
            matches!(done.outcome, Outcome::Inserted { new: 1, .. }),
            "{:?}",
            done.outcome
        );
        let lines: Vec<_> = tracer.spans().iter().filter(|s| s.parent == root).collect();
        assert_eq!(lines.len(), 2, "one span per protocol line of the commit");

        // The commit moved the snapshot version: the cached answer is stale.
        let after = rung.exec(Action::Op(&query), 4, 0, &mut tracer);
        assert!(
            matches!(after.outcome, Outcome::Read { cached: false, .. }),
            "{:?}",
            after.outcome
        );

        let bad = Op {
            phase: Phase::Main,
            kind: OpKind::Read {
                class: Class::Q,
                line: Arc::from("?q- Measurements(t, p.\n"),
            },
        };
        assert!(matches!(
            rung.exec(Action::Op(&bad), 5, 0, &mut tracer).outcome,
            Outcome::Failed(_)
        ));
        drop(rung);
    }

    /// Every rung reports the same outcomes for the same ops.
    #[test]
    fn service_and_parts_rungs_agree() {
        let scale = 1;
        let a = build_service(scale, false, "t-a").unwrap();
        let b = build_service(scale, false, "t-b").unwrap();
        let mut service = ServiceRung {
            service: Arc::clone(&a.service),
        };
        let mut parts = PartsRung {
            parts: Parts::new(&b, scale),
        };
        let mut stream = crate::stream::actors(
            crate::stream::Workload::CorrectDurable,
            3,
            crate::stream::Sizing { seconds: 1.0 },
        )
        .remove(0)
        .stream;
        let mut tracer = Tracer::on(Instant::now());
        let mut derived = 0;
        for i in 0..120 {
            let op = stream.next_op();
            let root = tracer.open();
            let x = service.exec(Action::Op(&op), i, root, &mut tracer).outcome;
            let y = parts.exec(Action::Op(&op), i, root, &mut tracer).outcome;
            match (&x, &y) {
                (Outcome::Read { answers: m, .. }, Outcome::Read { answers: n, .. }) => {
                    assert_eq!(m, n)
                }
                (
                    Outcome::Inserted { new: m, derived: d },
                    Outcome::Inserted { new: n, derived: e },
                ) => {
                    assert_eq!((m, d), (n, e));
                    derived += d;
                }
                (Outcome::Retracted { removed: m, .. }, Outcome::Retracted { removed: n, .. }) => {
                    assert_eq!(m, n)
                }
                // No store attached: `!save` is refused by the service and
                // skipped by the parts rung.
                (Outcome::Failed(_), Outcome::Saved) => {}
                other => panic!("rungs disagree on op {i}: {other:?}"),
            }
        }
        assert!(derived > 0, "on-grid inserts must derive quality rows");
        assert!(tracer
            .spans()
            .iter()
            .any(|s| s.name == "core.retract_batch"));
        assert!(tracer.spans().iter().any(|s| s.name == "qa.eval"));
    }

    #[test]
    fn bare_store_replays_and_recovers() {
        let acked: Vec<Acked> = vec![
            (
                Class::Commit,
                vec!["Measurements(@Jan/2-09:00, \"Patient_1\", 40.01).".to_string()],
            ),
            (
                Class::Retract,
                vec!["Measurements(@Jan/2-09:00, \"Patient_1\", 40.01).".to_string()],
            ),
        ];
        let replay = store_replay(&acked, &mut Tracer::off()).unwrap();
        assert_eq!(replay.append.len(), 2);
        assert_eq!(replay.recovered_batches, 2);
        assert!(replay.wal_bytes > 0 && replay.recover_us > 0.0);
    }
}
