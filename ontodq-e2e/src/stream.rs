//! The four workloads and their seeded request streams.
//!
//! A stream is a pure function of `(workload, actor, seed, sizing)`: the same
//! arguments give a byte-identical sequence of protocol lines, so every rung
//! of the ladder replays exactly what the socket run sent.  `--seed` drives
//! only the request stream; the server's data (`--scale N`, generator seed 7)
//! is fixed in the server binary.

use std::collections::VecDeque;
use std::sync::Arc;

/// Entries the server's prepared-query cache holds before it sweeps
/// (`MAX_ENTRIES` in `crates/server/src/cache.rs`).
pub const CACHE_BOUND: usize = 8_192;
/// Distinct hot texts of `read_hot`: fits the cache bound 13 times over.
pub const HOT_TEXTS: usize = 600;
/// `read_hot` alternates bursts of this many corrections (about 0.3 s on
/// the 145k-tuple instance) with this many hot reads (about 3.5 s).
pub const HOT_CYCLE_WRITES: usize = 12;
pub const HOT_CYCLE_READS: usize = 150_000;
/// Hot texts the `mixed_feed` reader cycles.  Every feed commit makes each
/// miss once: 50 texts x 4 commits/s is a tenth of the reader's 2,000
/// requests/s, so `q_p50_us` sits firmly on the hit side.
pub const FEED_HOT_TEXTS: usize = 50;
/// Open-loop feed rate of `mixed_feed`, commits per second.
pub const FEED_HZ: f64 = 4.0;
/// Open-loop rate of the `mixed_feed` reader, requests per second: about a
/// quarter of the one CPU together with the feed.  A closed-loop reader would
/// saturate the CPU the commits need, and commit latency would then measure
/// how the scheduler splits a CPU between five threads (it varied 3x).
pub const FEED_READER_HZ: f64 = 2_000.0;
/// Every how many reader requests a `?d-` (4 a second: a demand chase is
/// 5 ms of the CPU the commits need, and one in every commit would put its
/// own variance into `commit_p50_us`) and a scan come.
const FEED_D_STRIDE: usize = 499;
const FEED_SCAN_STRIDE: usize = 1_993;
/// Distinct cheap point queries `read_cold` sends before its window, so the
/// window starts with a nearly full cache and the sweep at the bound (the
/// eviction path) runs inside even the shortest window.
pub const COLD_PREFILL: usize = CACHE_BOUND - 64;

/// The op classes a latency is reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `?q-` point, narrow or navigation query.
    Q,
    /// `?d-` demand-driven point query.
    D,
    /// `?q-` over a value range: hundreds of answer rows.
    Scan,
    /// Insert batch: k `+fact.` lines and `!flush`.
    Commit,
    /// Retract batch: k `-fact.` lines and `!flush`.
    Retract,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Q,
        Class::D,
        Class::Scan,
        Class::Commit,
        Class::Retract,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Q => "q",
            Class::D => "d",
            Class::Scan => "scan",
            Class::Commit => "commit",
            Class::Retract => "retract",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Where in a run an op sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Timed per op, but not counted in the throughput (`read_hot`'s
    /// corrections, each burst applied before the cache is warmed again).
    Prelude,
    /// Neither timed nor counted: cache warm-up and pre-fill.
    Warmup,
    /// Timed per op and counted in `ops_per_s`.
    Main,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// One query line, newline included.
    Read { class: Class, line: Arc<str> },
    /// One batch of ground facts (`Measurements(...).`, no `+`/`-` prefix).
    Write { class: Class, facts: Vec<String> },
    /// `!save`: checkpoint and compact the WAL.
    Save,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub phase: Phase,
    pub kind: OpKind,
}

impl Op {
    /// The protocol lines the op sends, in order, newline-terminated.
    pub fn lines(&self) -> Vec<String> {
        match &self.kind {
            OpKind::Read { line, .. } => vec![line.to_string()],
            OpKind::Write { class, facts } => {
                let sign = if *class == Class::Commit { '+' } else { '-' };
                facts
                    .iter()
                    .map(|fact| format!("{sign}{fact}\n"))
                    .chain(std::iter::once("!flush\n".to_string()))
                    .collect()
            }
            OpKind::Save => vec!["!save\n".to_string()],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    ReadCold,
    CorrectDurable,
    MixedFeed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadHot,
        Workload::ReadCold,
        Workload::CorrectDurable,
        Workload::MixedFeed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::ReadCold => "read_cold",
            Workload::CorrectDurable => "correct_durable",
            Workload::MixedFeed => "mixed_feed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The server's `--scale`: hundreds of generated measurements.
    pub fn scale(self) -> usize {
        match self {
            Workload::CorrectDurable => 2,
            _ => 50,
        }
    }

    /// Whether the server runs with `--data-dir`.
    pub fn durable(self) -> bool {
        self == Workload::CorrectDurable
    }
}

/// Run-length-dependent sizes.  Everything that is a count scales with the
/// measured seconds, so a smoke run and a traced run (a fifth of the window)
/// keep the same proportions.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub seconds: f64,
}

impl Sizing {
    fn scaled(self, per_second: f64, floor: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(floor)
    }

    /// `correct_durable` checkpoints every this many commits; the kill
    /// lands half-way between two checkpoints.
    pub fn save_every(self) -> usize {
        self.scaled(50.0, 20)
    }

    /// Commits the `mixed_feed` feed sends, one every `1/FEED_HZ` seconds.
    pub fn feed_ops(self) -> usize {
        self.scaled(FEED_HZ, 2)
    }
}

/// How an actor's ops are spaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Next op when the previous one completes.
    Closed,
    /// Op `i` is due `i / hz` seconds after the start, whatever happened to
    /// the ones before; latency counts from the due time.
    Open { hz: f64 },
}

/// When an actor stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// At the end of the measured window.
    Window,
    /// After this many ops.
    Count(usize),
    /// When every counted or windowed actor of the workload has stopped.
    WhileOthersRun,
}

pub struct Actor {
    pub name: &'static str,
    pub pacing: Pacing,
    pub budget: Budget,
    pub stream: Stream,
}

/// The actors of one workload: at most two connections.
pub fn actors(workload: Workload, seed: u64, sizing: Sizing) -> Vec<Actor> {
    let texts = Texts::for_scale(workload.scale());
    let closed = |name, kind| Actor {
        name,
        pacing: Pacing::Closed,
        budget: Budget::Window,
        stream: Stream::new(kind, seed, texts),
    };
    match workload {
        Workload::ReadHot => vec![closed("reader", Kind::ReadHot)],
        Workload::ReadCold => vec![closed("reader", Kind::ReadCold)],
        Workload::CorrectDurable => vec![closed(
            "corrector",
            Kind::Correct {
                save_every: sizing.save_every(),
            },
        )],
        Workload::MixedFeed => vec![
            Actor {
                name: "feed",
                pacing: Pacing::Open { hz: FEED_HZ },
                budget: Budget::Count(sizing.feed_ops()),
                stream: Stream::new(Kind::Feed, seed, texts),
            },
            Actor {
                pacing: Pacing::Open { hz: FEED_READER_HZ },
                budget: Budget::WhileOthersRun,
                ..closed("reader", Kind::FeedReader)
            },
        ],
    }
}

/// SplitMix64: the request stream must not change when the workspace's
/// `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded walk over `0..m` that visits every id once before repeating any
/// (`id = a·k + b mod m`, `a` coprime to `m`).
#[derive(Debug, Clone)]
struct Walk {
    a: usize,
    b: usize,
    m: usize,
    k: usize,
}

impl Walk {
    fn new(rng: &mut Rng, m: usize) -> Self {
        let gcd = |mut x: usize, mut y: usize| {
            while y != 0 {
                (x, y) = (y, x % y);
            }
            x
        };
        let a = loop {
            let a = 1 + rng.below(m);
            if gcd(a, m) == 1 {
                break a;
            }
        };
        Walk {
            a,
            b: rng.below(m),
            m,
            k: 0,
        }
    }

    fn next(&mut self) -> usize {
        let id = (self.a * (self.k % self.m) + self.b) % self.m;
        self.k += 1;
        id
    }
}

/// Query and fact texts over the generated hospital of one `--scale`.
#[derive(Debug, Clone, Copy)]
pub struct Texts {
    patients: usize,
    days: usize,
    units: usize,
}

/// Value thresholds in hundredths of a degree: the generated temperatures
/// lie in 36.0..=39.9.
const THRESHOLDS: usize = 400;

impl Texts {
    /// Mirrors `HospitalScale::with_measurements(scale * 100)`.
    pub fn for_scale(scale: usize) -> Self {
        let shape = ontodq_workload::HospitalScale::with_measurements(scale * 100);
        Texts {
            patients: shape.patients,
            days: shape.days,
            units: shape.units,
        }
    }

    fn threshold(x: usize) -> String {
        format!("{:.2}", 36.0 + x as f64 / 100.0)
    }

    fn point(self, patient: usize) -> String {
        format!("Measurements(t, p, v), p = \"Patient_{patient}\".")
    }

    fn point_above(self, id: usize) -> String {
        let (patient, x) = (id / THRESHOLDS, id % THRESHOLDS);
        format!(
            "Measurements(t, p, v), p = \"Patient_{patient}\", v >= {}.",
            Self::threshold(x)
        )
    }

    /// The cheapest distinct text there is (~50 us a miss): a point lookup
    /// on the materialized quality version.
    fn prefill(self, id: usize) -> String {
        let (patient, x) = (id / THRESHOLDS, id % THRESHOLDS);
        format!(
            "Measurements_q(t, p, v), p = \"Patient_{patient}\", v >= {}.",
            Self::threshold(x)
        )
    }

    fn narrow(self, id: usize) -> String {
        let (unit, patient) = (id % self.units, id / self.units);
        format!("PatientUnit(Unit_{unit}, d, p), p = \"Patient_{patient}\".")
    }

    fn narrow_except(self, id: usize) -> String {
        let (day, rest) = (id % self.days, id / self.days);
        let (unit, patient) = (rest % self.units, rest / self.units);
        format!("PatientUnit(Unit_{unit}, d, p), p = \"Patient_{patient}\", d != Day_{day}.")
    }

    fn nav(self, id: usize) -> String {
        let (day, x) = (id / THRESHOLDS, id % THRESHOLDS);
        format!(
            "Measurements(t, p, v), DayTime(d, t), PatientUnit(Unit_0, d, p), d = Day_{day}, v >= {}.",
            Self::threshold(x)
        )
    }

    /// Thresholds in the lower half of the value range: at `--scale 50` at
    /// least half of the ~850 quality rows answer, a response well over the
    /// server's 8 KiB write buffer.
    fn scan(self, x: usize) -> String {
        format!("Measurements(t, p, v), v > {}.", Self::threshold(x % 200))
    }
}

fn read(phase: Phase, class: Class, line: Arc<str>) -> Op {
    Op {
        phase,
        kind: OpKind::Read { class, line },
    }
}

fn line(prefix: &str, body: &str) -> Arc<str> {
    Arc::from(format!("{prefix} {body}\n"))
}

/// Generates insert and retract batches of `Measurements` facts.
///
/// Times sit on the Time dimension's 09/12/15/18:00 grid, so an inserted
/// reading joins `DayTime` and can derive `Measurements_q` rows (the
/// off-grid minutes of `ontodq_workload::corrections` never do).  Values
/// start at 40.00 and rise by 0.01 per fact: distinct from each other and
/// from the generated 36.0..=39.9 readings, so every insert is new and every
/// retract hits a live fact.
#[derive(Debug, Clone)]
struct Writes {
    rng: Rng,
    texts: Texts,
    batch: usize,
    /// A retract targets the oldest live batch once more than this many are
    /// live; until then the slot inserts instead.
    lag: usize,
    serial: usize,
    live: VecDeque<Vec<String>>,
}

impl Writes {
    fn new(seed: u64, texts: Texts, batch: usize, lag: usize) -> Self {
        Writes {
            rng: Rng::new(seed ^ 0x57A7E),
            texts,
            batch,
            lag,
            serial: 0,
            live: VecDeque::new(),
        }
    }

    fn fact(&mut self) -> String {
        let day = self.rng.below(self.texts.days) as i64;
        let hour = [9, 12, 15, 18][self.rng.below(4)];
        let patient = self.rng.below(self.texts.patients);
        self.serial += 1;
        format!(
            "Measurements(@{}, \"Patient_{patient}\", {:.2}).",
            ontodq_relational::Value::format_time(day * 24 * 60 + hour * 60),
            40.0 + self.serial as f64 / 100.0,
        )
    }

    fn insert(&mut self, phase: Phase) -> Op {
        let facts: Vec<String> = (0..self.batch).map(|_| self.fact()).collect();
        self.live.push_back(facts.clone());
        Op {
            phase,
            kind: OpKind::Write {
                class: Class::Commit,
                facts,
            },
        }
    }

    fn retract(&mut self, phase: Phase) -> Op {
        if self.live.len() <= self.lag {
            return self.insert(phase);
        }
        let facts = self
            .live
            .pop_front()
            .expect("more live batches than the lag");
        Op {
            phase,
            kind: OpKind::Write {
                class: Class::Retract,
                facts,
            },
        }
    }
}

/// The patient a batch's first fact names: what a read-back asks for.
fn first_patient(facts: &[String]) -> &str {
    let fact = &facts[0];
    let start = fact.find('"').expect("facts quote their patient") + 1;
    let end = start + fact[start..].find('"').expect("closing quote");
    &fact[start..end]
}

enum Kind {
    ReadHot,
    ReadCold,
    Correct { save_every: usize },
    Feed,
    FeedReader,
}

/// One actor's op sequence.
pub struct Stream {
    kind: Kind,
    rng: Rng,
    texts: Texts,
    issued: usize,
    writes: Writes,
    /// Hot `?q-`, `?d-` and scan lines (read_hot, the mixed_feed reader).
    hot_q: Vec<Arc<str>>,
    hot_d: Vec<Arc<str>>,
    hot_scan: Vec<Arc<str>>,
    /// Cold universes, each visited without repeats.
    cold_point: Walk,
    cold_narrow: Walk,
    cold_nav: Walk,
    cold_d: Walk,
    cold_scan: Walk,
    cold_prefill: Walk,
    /// `correct_durable`: the read-back owed after the last write, and the
    /// writes since the last `!save`.
    read_back: Option<String>,
    writes_issued: usize,
    saves_issued: usize,
    /// `read_hot`: main-phase reads so far.
    reads_issued: usize,
}

impl Stream {
    fn new(kind: Kind, seed: u64, texts: Texts) -> Self {
        let mut rng = Rng::new(seed);
        // Hot set: two thirds point, one third narrow, over a seeded choice
        // of patients.
        let hot_total = match kind {
            Kind::FeedReader => FEED_HOT_TEXTS,
            _ => HOT_TEXTS,
        };
        let mut patients = Walk::new(&mut rng, texts.patients);
        let mut narrows = Walk::new(&mut rng, texts.patients * texts.units);
        let hot_q = (0..hot_total)
            .map(|i| match (&kind, i % 3) {
                // The feed reader's set is point-only: every commit makes it
                // all miss once, and a narrow miss costs four point misses.
                (Kind::FeedReader, _) | (_, 0 | 1) => line("?q-", &texts.point(patients.next())),
                _ => line("?q-", &texts.narrow(narrows.next())),
            })
            .collect();
        let hot_d = (0..30)
            .map(|_| line("?d-", &texts.point(patients.next())))
            .collect();
        let hot_scan = (0..8).map(|i| line("?q-", &texts.scan(i * 25))).collect();
        let (batch, lag) = match kind {
            // Retracts target facts inserted 50 commits (25 inserts) earlier:
            // live rows stay level while tombstones grow.
            Kind::Correct { .. } => (4, 25),
            Kind::Feed => (10, 2),
            _ => (4, 2),
        };
        let point_universe = texts.patients * THRESHOLDS;
        Stream {
            writes: Writes::new(seed, texts, batch, lag),
            cold_point: Walk::new(&mut rng, point_universe),
            cold_narrow: Walk::new(&mut rng, texts.patients * texts.units * texts.days),
            cold_nav: Walk::new(&mut rng, texts.days * THRESHOLDS),
            cold_d: Walk::new(&mut rng, point_universe),
            cold_scan: Walk::new(&mut rng, 200),
            cold_prefill: Walk::new(&mut rng, point_universe),
            kind,
            rng,
            texts,
            issued: 0,
            hot_q,
            hot_d,
            hot_scan,
            read_back: None,
            writes_issued: 0,
            saves_issued: 0,
            reads_issued: 0,
        }
    }

    /// Ops after which the main phase's pattern repeats: slices of this many
    /// ops hold the same mix.
    pub fn period(&self) -> usize {
        match self.kind {
            Kind::ReadHot => 20_000,
            Kind::ReadCold => 250,
            // 50 commits with their read-backs: 5 `?d-`, 1 scan.
            Kind::Correct { .. } => 100,
            Kind::Feed => 10,
            Kind::FeedReader => FEED_SCAN_STRIDE,
        }
    }

    /// How many distinct texts the cold reader draws from (three times the
    /// cache bound is the floor the workload is defined by).
    #[cfg(test)]
    pub fn cold_universe(texts: Texts) -> usize {
        texts.patients * THRESHOLDS * 2
            + texts.patients * texts.units * texts.days
            + texts.days * THRESHOLDS
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        match self.kind {
            Kind::ReadHot => self.read_hot(i),
            Kind::ReadCold => self.read_cold(i),
            Kind::Correct { save_every } => self.correct(save_every),
            Kind::Feed => {
                // Alternately: with 80 commits in a 20 s window neither class
                // can spare samples to the other.
                if i % 2 == 1 {
                    self.writes.retract(Phase::Main)
                } else {
                    self.writes.insert(Phase::Main)
                }
            }
            Kind::FeedReader => {
                let warm = self.hot_q.len() + self.hot_scan.len();
                if i < warm {
                    return self.warm_up(i);
                }
                let j = i - warm + 1;
                // Prime strides: at 2,000 requests/s a `?d-` every 100th and a
                // scan every 2,000th would recur every 50 ms and 1 s, locked
                // in phase with the feed's 250 ms for the whole run, and a
                // run would measure whichever phase it happened to start in.
                if j % FEED_SCAN_STRIDE == 101 {
                    let line = self.hot_scan[(j / FEED_SCAN_STRIDE) % self.hot_scan.len()].clone();
                    read(Phase::Main, Class::Scan, line)
                } else if j.is_multiple_of(FEED_D_STRIDE) {
                    let body = self.texts.point_above(self.cold_d.next());
                    read(Phase::Main, Class::D, line("?d-", &body))
                } else {
                    let pick = self.rng.below(self.hot_q.len());
                    read(Phase::Main, Class::Q, self.hot_q[pick].clone())
                }
            }
        }
    }

    /// One pass over every hot text, uncounted.
    fn warm_up(&mut self, i: usize) -> Op {
        let q = self.hot_q.len();
        let (class, line) = if i < q {
            (Class::Q, &self.hot_q[i])
        } else if i < q + self.hot_scan.len() {
            (Class::Scan, &self.hot_scan[i - q])
        } else {
            (Class::D, &self.hot_d[i - q - self.hot_scan.len()])
        };
        read(Phase::Warmup, class, line.clone())
    }

    /// Cycles of a burst of corrections, a warm-up pass and hot reads.  The
    /// bursts are spread over the window rather than bunched at its start, so
    /// that a disturbed stretch of the machine cannot cover all of them.
    fn read_hot(&mut self, i: usize) -> Op {
        let warm = self.hot_q.len() + self.hot_scan.len() + self.hot_d.len();
        let position = i % (HOT_CYCLE_WRITES + warm + HOT_CYCLE_READS);
        if position < HOT_CYCLE_WRITES {
            return if position.is_multiple_of(2) {
                self.writes.insert(Phase::Prelude)
            } else {
                self.writes.retract(Phase::Prelude)
            };
        }
        if position < HOT_CYCLE_WRITES + warm {
            return self.warm_up(position - HOT_CYCLE_WRITES);
        }
        self.reads_issued += 1;
        let j = self.reads_issued;
        if j % 20_000 == 500 {
            let line = self.hot_scan[(j / 20_000) % self.hot_scan.len()].clone();
            read(Phase::Main, Class::Scan, line)
        } else if j.is_multiple_of(20) {
            let pick = self.rng.below(self.hot_d.len());
            read(Phase::Main, Class::D, self.hot_d[pick].clone())
        } else {
            let pick = self.rng.below(self.hot_q.len());
            read(Phase::Main, Class::Q, self.hot_q[pick].clone())
        }
    }

    fn read_cold(&mut self, i: usize) -> Op {
        if i < COLD_PREFILL {
            // Plain `?-` texts: a different cache key from every `?q-` and
            // `?d-` text of the window, so the pre-fill repeats none of them.
            let body = self.texts.prefill(self.cold_prefill.next());
            return read(Phase::Warmup, Class::Q, line("?-", &body));
        }
        // Blocks of 250 requests: 3 scans, 2 commits, 2 retracts, 20 `?d-`,
        // 223 `?q-` of three shapes.
        let slot = (i - COLD_PREFILL) % 250;
        match slot {
            83 | 166 | 249 => {
                let body = self.texts.scan(self.cold_scan.next());
                read(Phase::Main, Class::Scan, line("?q-", &body))
            }
            41 | 124 => self.writes.insert(Phase::Main),
            20 | 207 => self.writes.retract(Phase::Main),
            _ if slot % 12 == 5 => {
                let body = self.texts.point_above(self.cold_d.next());
                read(Phase::Main, Class::D, line("?d-", &body))
            }
            _ => {
                // 35% point, 45% narrow, 20% navigation: the median falls a
                // third of the way into the narrow queries, far from either
                // neighbouring mode.
                let body = match self.rng.below(100) {
                    0..=34 => self.texts.point_above(self.cold_point.next()),
                    35..=79 => self.texts.narrow_except(self.cold_narrow.next()),
                    _ => self.texts.nav(self.cold_nav.next()),
                };
                read(Phase::Main, Class::Q, line("?q-", &body))
            }
        }
    }

    /// Alternating insert and retract batches, each followed by a read-back
    /// of the corrected patient (every 10th through `?d-`, every 50th a
    /// value-range scan), `!save` every `save_every` writes.
    fn correct(&mut self, save_every: usize) -> Op {
        if let Some(patient) = self.read_back.take() {
            let n = self.writes_issued;
            let body = format!("Measurements(t, p, v), p = \"{patient}\".");
            return if n.is_multiple_of(50) {
                let body = self.texts.scan(self.cold_scan.next());
                read(Phase::Main, Class::Scan, line("?q-", &body))
            } else if n.is_multiple_of(10) {
                read(Phase::Main, Class::D, line("?d-", &body))
            } else {
                read(Phase::Main, Class::Q, line("?q-", &body))
            };
        }
        if self.writes_issued / save_every > self.saves_issued {
            self.saves_issued += 1;
            return Op {
                phase: Phase::Main,
                kind: OpKind::Save,
            };
        }
        let op = if self.writes_issued.is_multiple_of(2) {
            self.writes.insert(Phase::Main)
        } else {
            self.writes.retract(Phase::Main)
        };
        self.writes_issued += 1;
        if let OpKind::Write { facts, .. } = &op.kind {
            self.read_back = Some(first_patient(facts).to_string());
        }
        op
    }
}
