//! A rung is one way of executing an op: over the socket against the real
//! server (R0, here) or against a public entry point further down the stack
//! (R1–R3, `ladder.rs`).  The driver, the pacing and the checks are the same
//! on every rung, so a layer's time is the difference between two rungs.

use crate::scrape::Scrape;
use crate::server::{Launch, Server};
use crate::stream::{Class, Op, OpKind};
use crate::trace::Tracer;
use crate::wire::{field_u64, Conn, Reply};
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the driver asks a rung to do: an op of the stream, or — on the
/// socket rung of a durable workload — the crash it injects itself.
pub enum Action<'a> {
    Op(&'a Op),
    /// SIGKILL the server, respawn it on the same data directory, reconnect.
    Restart,
}

/// What an executed action reported.
#[derive(Debug)]
pub enum Outcome {
    /// `err:` status, a refused or malformed response, or an I/O error.
    Failed(String),
    Read {
        /// Compared across rungs by the ladder's tests.
        #[cfg_attr(not(test), allow(dead_code))]
        answers: u64,
        cached: bool,
    },
    Inserted {
        #[cfg_attr(not(test), allow(dead_code))]
        new: u64,
        derived: u64,
    },
    Retracted {
        requested: u64,
        removed: u64,
        cascaded: u64,
        rederived: u64,
    },
    Saved,
    Restarted(Box<Restarted>),
}

/// Evidence collected around an injected crash.
#[derive(Debug)]
pub struct Restarted {
    /// `?q- Measurements(t, p, v).` just before the kill and once the
    /// respawned server is ready.
    pub answers_before: Vec<String>,
    pub answers_after: Vec<String>,
    /// Snapshot version the recovered server reports.
    pub version_after: u64,
    /// SIGKILL → respawn → `!use scaled` ok.
    pub restart: Duration,
    /// The server's counters just before the kill.
    pub scrape_before: Scrape,
    /// `VmHWM` of the killed process, MiB.
    pub peak_rss_mb: f64,
}

pub struct Done {
    pub start: Instant,
    pub end: Instant,
    pub outcome: Outcome,
    /// Response bytes received (socket and session rungs).
    pub bytes: usize,
}

pub trait Rung: Send {
    /// Execute `action`; child spans go under `parent`, the op's root span,
    /// which the driver opened and will close.
    fn exec(&mut self, action: Action<'_>, op_id: u32, parent: u32, tracer: &mut Tracer) -> Done;

    /// Whether [`Action::Restart`] is supported.
    fn can_restart(&self) -> bool {
        false
    }
}

/// The whole-instance query the answer oracle digests.
pub const FULL_SCAN: &str = "?q- Measurements(t, p, v).";

/// Parse the status line of a query, `!flush` or `!save` into an outcome,
/// checking it against what the op asked for.
pub fn outcome_of(kind: &OpKind, status: &str, rows: usize) -> Outcome {
    if !status.starts_with("ok") {
        return Outcome::Failed(status.to_string());
    }
    let number = |key| field_u64(status, key);
    let parsed = match kind {
        OpKind::Read { .. } => number("answers")
            .zip(crate::wire::field(status, "cached"))
            .filter(|(answers, _)| *answers == rows as u64)
            .map(|(answers, cached)| Outcome::Read {
                answers,
                cached: cached == "true",
            }),
        OpKind::Write {
            class: Class::Commit,
            facts,
        } => number("new")
            .zip(number("derived"))
            .filter(|(new, _)| *new == facts.len() as u64)
            .map(|(new, derived)| Outcome::Inserted { new, derived }),
        OpKind::Write { .. } => (|| {
            Some(Outcome::Retracted {
                requested: number("requested")?,
                removed: number("removed")?,
                cascaded: number("cascaded")?,
                rederived: number("rederived")?,
            })
        })(),
        OpKind::Save => status.starts_with("ok saved").then_some(Outcome::Saved),
    };
    parsed.unwrap_or_else(|| Outcome::Failed(format!("unexpected status: {status}")))
}

/// Send an op's lines over `conn`, one per write, each answered before the
/// next is sent; the last status is the op's.  Returns the outcome and the
/// response bytes.
pub fn exchange_op<S: Read + Write>(
    conn: &mut Conn<S>,
    op: &Op,
    reply: &mut Reply,
    op_id: u32,
    parent: u32,
    tracer: &mut Tracer,
) -> io::Result<(Outcome, usize)> {
    let mut bytes = 0;
    match &op.kind {
        OpKind::Read { line, .. } => {
            conn.exchange(line, false, reply)?;
            bytes = reply.bytes;
        }
        OpKind::Write { .. } | OpKind::Save => {
            for line in op.lines() {
                let sent = Instant::now();
                conn.exchange(&line, false, reply)?;
                bytes += reply.bytes;
                if tracer.enabled() {
                    let name = if line.starts_with('!') {
                        "line.verb"
                    } else {
                        "line.stage"
                    };
                    tracer.leaf(name, op_id, parent, sent, Instant::now());
                }
                if !reply.is_ok() {
                    break;
                }
            }
        }
    }
    Ok((outcome_of(&op.kind, &reply.status, reply.rows), bytes))
}

/// The server process a socket run talks to, shared by its connections.
pub struct SocketWorld {
    pub launch: Launch,
    server: Mutex<Option<Server>>,
}

impl SocketWorld {
    pub fn new(launch: Launch, server: Server) -> Arc<SocketWorld> {
        Arc::new(SocketWorld {
            launch,
            server: Mutex::new(Some(server)),
        })
    }

    fn server(&self) -> std::sync::MutexGuard<'_, Option<Server>> {
        self.server
            .lock()
            .expect("no thread panics holding the server")
    }

    pub fn connect(&self) -> io::Result<Conn> {
        self.server()
            .as_ref()
            .expect("a server is running between restarts")
            .connect()
    }

    /// `VmHWM` of the live server, MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        self.server()
            .as_ref()
            .expect("a server is running between restarts")
            .peak_rss_mb()
    }
}

/// R0: the real server over loopback TCP.
pub struct SocketRung {
    world: Arc<SocketWorld>,
    conn: Conn,
    reply: Reply,
}

impl SocketRung {
    pub fn new(world: Arc<SocketWorld>, conn: Conn) -> SocketRung {
        SocketRung {
            world,
            conn,
            reply: Reply::default(),
        }
    }

    pub fn conn(&mut self) -> &mut Conn {
        &mut self.conn
    }

    fn restart(&mut self) -> io::Result<Restarted> {
        let answers_before = self.conn.expect_ok(FULL_SCAN)?.data;
        let scrape_before = Scrape::take(&mut self.conn)?;
        let mut slot = self.world.server();
        let server = slot.take().expect("a server is running");
        let peak_rss_mb = server.peak_rss_mb()?;
        let killed = Instant::now();
        server.kill()?;
        let (server, conn, _) = Server::start(&self.world.launch)?;
        let restart = killed.elapsed();
        *slot = Some(server);
        drop(slot);
        self.conn = conn;
        let stats = self.conn.expect_ok("!stats")?;
        Ok(Restarted {
            answers_before,
            answers_after: self.conn.expect_ok(FULL_SCAN)?.data,
            version_after: field_u64(&stats.status, "version").unwrap_or(0),
            restart,
            scrape_before,
            peak_rss_mb,
        })
    }
}

impl Rung for SocketRung {
    fn exec(&mut self, action: Action<'_>, op_id: u32, parent: u32, tracer: &mut Tracer) -> Done {
        let start = Instant::now();
        let result = match action {
            Action::Op(op) => {
                exchange_op(&mut self.conn, op, &mut self.reply, op_id, parent, tracer)
            }
            Action::Restart => self.restart().map(|r| (Outcome::Restarted(Box::new(r)), 0)),
        };
        let end = Instant::now();
        let (outcome, bytes) = result.unwrap_or_else(|e| (Outcome::Failed(format!("i/o: {e}")), 0));
        Done {
            start,
            end,
            outcome,
            bytes,
        }
    }

    fn can_restart(&self) -> bool {
        self.world.launch.data_dir.is_some()
    }
}
