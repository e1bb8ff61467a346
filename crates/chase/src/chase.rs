//! The chase procedure for Datalog± programs.
//!
//! The chase is the data-completion mechanism of the paper: dimensional rules
//! (TGDs) *generate* data through upward or downward navigation, possibly
//! inventing labeled nulls for unknown non-categorical values (rule (8)) or
//! unknown category members (rule (9)/(10)); dimensional constraints (EGDs
//! and negative constraints) restrict the admissible instances — they are
//! checked on the chased instance, never applied to it.
//!
//! The chase is the **restricted** (standard) chase: a trigger fires only
//! when the rule head is not already satisfied by an extension of the
//! trigger.  It has two drivers:
//!
//! * the **semi-naive** driver ([`ChaseEngine::run`], [`ChaseEngine::resume`])
//!   discovers each round's triggers by seeding the join from the *delta* of
//!   each body atom — the rows stamped after the rule's previous evaluation
//!   watermark (see [`ontodq_relational::StampWindow`] and
//!   [`crate::eval::evaluate_delta_with`]).  Work per round is proportional
//!   to the new tuples, not to the whole instance;
//! * the **naive** driver ([`ChaseEngine::run_naive`], [`chase_naive`])
//!   re-evaluates every rule body over the full instance every round — the
//!   reference oracle the semi-naive driver is tested against (equivalence
//!   modulo labeled-null renaming).
//!
//! EGDs are checked, never applied: after the TGD fixpoint, every EGD and
//! every negative constraint is evaluated as a constraint on the final
//! instance.  An EGD is violated only where it equates two distinct
//! constants; a side holding a labeled null is unknown, not a violation.
//! This is exact for *separable* EGDs, the only kind lint L105 admits
//! (see `ontodq_datalog::separability`).
//!
//! For long-lived instances that receive update batches, the per-rule
//! watermarks can be carried *across* chase runs: [`ChaseState`] +
//! [`ChaseEngine::resume`] (or the [`chase_incremental`] shorthand) re-chase
//! only the consequences of newly inserted facts instead of starting from
//! scratch — the machinery behind `ontodq-server`'s incrementally maintained
//! snapshots.

use crate::eval::{
    ensure_index, ensure_indexes, evaluate_delta_with, evaluate_with, extend_over_atoms,
    for_each_trigger, has_extension, plan_uses_wco, JoinEngine,
};
use crate::profile::{ChaseProfile, ChaseStats, DredTiming};
use crate::violation::{EgdViolation, NcViolation, Violations};
use ontodq_datalog::{magic_transform, DemandProgram};
use ontodq_datalog::{Assignment, Atom, Conjunction, Program, Term, Tgd};
use ontodq_obs::SharedClock;
use ontodq_relational::{
    same_relation, Database, NullGenerator, RelationInstance, StampWindow, Tuple, Value,
};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Configuration of a chase run.
#[derive(Debug, Clone)]
pub struct ChaseConfig {
    /// Maximum number of rounds (a round applies every TGD to every current
    /// trigger); exceeded runs terminate with
    /// [`TerminationReason::RoundLimit`].  Both budgets are a safety net:
    /// a weakly-acyclic program reaches [`TerminationReason::Fixpoint`]
    /// unless its instance outgrows them, and a caller that needs the whole
    /// model treats any other reason as an error.
    pub max_rounds: usize,
    /// Maximum number of tuples the chase may add before stopping with
    /// [`TerminationReason::TupleLimit`].
    pub max_new_tuples: usize,
    /// Whether to check negative constraints on the final instance.
    pub check_constraints: bool,
    /// Join kernel for rule-body evaluation.  [`JoinEngine::Auto`] (the
    /// default) picks the worst-case-optimal path per rule when its body
    /// has ≥ 3 atoms sharing variables and the hash path otherwise; the
    /// explicit variants force one kernel for A/B comparisons and the
    /// equivalence suites.
    pub join: JoinEngine,
    /// Collect a per-rule [`ChaseProfile`] (join time, delta sizes, fires,
    /// kernel choice) while chasing.  On by default — the cost is a few
    /// clock reads per rule per round; `false` skips every measurement
    /// (the `obs_bench` experiment quantifies the difference).
    pub profile: bool,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        Self {
            max_rounds: 1_000,
            max_new_tuples: 1_000_000,
            check_constraints: true,
            join: JoinEngine::Auto,
            profile: true,
        }
    }
}

impl ChaseConfig {
    /// The default configuration with a forced join kernel
    /// ([`JoinEngine::Hash`] or [`JoinEngine::Leapfrog`] for every rule body
    /// regardless of shape).
    pub fn with_join(join: JoinEngine) -> Self {
        Self {
            join,
            ..Default::default()
        }
    }
}

/// Why the chase stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationReason {
    /// No rule application changed the instance: a TGD fixpoint (a
    /// universal model, when no constraint is violated) was reached.
    Fixpoint,
    /// The round budget was exhausted.
    RoundLimit,
    /// The new-tuple budget was exhausted.
    TupleLimit,
}

/// The outcome of a chase run.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The chased database (the input instance plus all generated tuples).
    pub database: Database,
    /// Aggregate statistics.
    pub stats: ChaseStats,
    /// EGD and negative-constraint violations observed.
    pub violations: Violations,
    /// Why the run stopped.
    pub termination: TerminationReason,
    /// Per-rule profile (join time, delta sizes, kernel choice); disabled
    /// and empty unless [`ChaseConfig::profile`] is on.  Kept out of
    /// [`ChaseStats`] so stats stay timing-free and comparable across
    /// drivers and join kernels.
    pub profile: ChaseProfile,
}

/// Statistics of one [`ChaseEngine::retract`] batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetractStats {
    /// Facts the caller asked to delete.
    pub requested: usize,
    /// Requested facts that were actually present and got tombstoned.
    pub retracted: usize,
    /// Additional facts tombstoned by the over-approximated consequence
    /// cascade (the DRed delete phase).
    pub cascaded: usize,
    /// Tuples re-inserted by the re-derivation chase (survivors with
    /// alternative supports, plus their downstream consequences).
    pub rederived: usize,
}

impl fmt::Display for RetractStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requested={}, retracted={}, cascaded={}, rederived={}",
            self.requested, self.retracted, self.cascaded, self.rederived
        )
    }
}

/// The outcome of a [`ChaseEngine::retract`] batch: the deletion statistics
/// plus the [`ChaseResult`] of the re-derivation chase (whose database is
/// the maintained instance).
#[derive(Debug, Clone)]
pub struct RetractResult {
    /// Deletion statistics.
    pub stats: RetractStats,
    /// The re-derivation chase's result (statistics, violations, and a
    /// snapshot of the maintained instance).
    pub chase: ChaseResult,
}

/// Persistent chase state for **incremental re-chasing**.
///
/// A `ChaseState` owns the working instance together with the per-rule
/// epoch watermarks ("floors") of the delta-driven semi-naive driver and
/// the next fresh labeled-null id.  It is the resumable counterpart of
/// [`ChaseEngine::run`]: after an initial [`ChaseEngine::resume`] has chased
/// the state to a fixpoint, new extensional facts can be appended with
/// [`ChaseState::insert_batch`] and a further `resume` call performs an
/// **incremental re-chase** — trigger discovery is seeded from the rows
/// stamped after each rule's stored watermark, so work is proportional to
/// the update batch and its consequences, not to the whole instance.
///
/// ```
/// use ontodq_chase::{chase, chase_incremental, ChaseState};
/// use ontodq_datalog::parse_program;
/// use ontodq_relational::{Database, Tuple};
///
/// let program = parse_program(
///     "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).\n",
/// ).unwrap();
/// let mut db = Database::new();
/// db.insert_values("E", ["a", "b"]).unwrap();
///
/// // Initial chase, keeping the resumable state.
/// let mut state = ChaseState::new(&program, &db);
/// chase_incremental(&program, &mut state);
///
/// // A later update batch: only the new tuples are re-joined.
/// state.insert_batch([("E".to_string(), Tuple::from_iter(["b", "c"]))]);
/// let incremental = chase_incremental(&program, &mut state);
///
/// // The incremental result equals a from-scratch chase of all facts.
/// db.insert_values("E", ["b", "c"]).unwrap();
/// let scratch = chase(&program, &db);
/// assert_eq!(
///     incremental.database.relation("T").unwrap().len(),
///     scratch.database.relation("T").unwrap().len(),
/// );
/// ```
///
/// The state is tied to the program it was chased with: rules are identified
/// by index, so resuming with a *different* program is only meaningful when
/// the original rules keep their positions (appending new rules is fine —
/// their floors start at `None`, i.e. a full first evaluation).
#[derive(Debug, Clone)]
pub struct ChaseState {
    database: Database,
    tgd_floor: Vec<Option<u64>>,
    next_null: u64,
    /// Per negative constraint (indexed like `program.constraints`), the
    /// outcome of its last check — see [`memoized_witnesses`].  Not
    /// persisted: a restored state re-checks everything once.
    checked_ncs: Vec<Option<CheckedConstraint>>,
    /// The same memo for the EGDs (indexed like `program.egds`).
    checked_egds: Vec<Option<CheckedConstraint>>,
}

/// The last check of one negative constraint or EGD: the versions of its
/// body relations it ran against (pinned handles) and the witnesses it
/// found.
#[derive(Debug, Clone)]
struct CheckedConstraint {
    sources: Vec<Option<Arc<RelationInstance>>>,
    witnesses: Vec<Assignment>,
}

impl ChaseState {
    /// Seed a resumable state from `database` (cloned — its relations stay
    /// shared until the chase writes them) for `program`: the program's
    /// facts are loaded, every predicate the program mentions is
    /// registered, and all rule watermarks start at `None` (never
    /// evaluated), so the first [`ChaseEngine::resume`] performs a full
    /// chase.
    pub fn new(program: &Program, database: &Database) -> Self {
        let mut state = Self::from_parts(database.clone(), Vec::new(), 0);
        state.sync_with(program);
        state
    }

    /// The current working instance (extensional facts plus everything the
    /// chase derived so far).
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The current epoch of the working instance.
    pub fn epoch(&self) -> u64 {
        self.database.epoch()
    }

    /// Append a batch of extensional facts, stamping them **after** every
    /// stored rule watermark so the next [`ChaseEngine::resume`] discovers
    /// exactly the triggers they enable.  Returns the number of genuinely
    /// new tuples (duplicates are ignored).
    ///
    /// # Errors
    /// Fails when a fact conflicts with its relation's schema (arity or
    /// attribute types) or when two facts disagree on a new relation's
    /// arity.  The whole batch is validated up front, so on error **nothing
    /// is applied** — a long-lived state is never left half-updated.
    pub fn insert_batch<I>(&mut self, facts: I) -> ontodq_relational::Result<usize>
    where
        I: IntoIterator<Item = (String, Tuple)>,
    {
        let facts: Vec<(String, Tuple)> = facts.into_iter().collect();
        let mut fresh_arities: std::collections::BTreeMap<&str, usize> =
            std::collections::BTreeMap::new();
        for (predicate, tuple) in &facts {
            match self.database.relation(predicate) {
                Ok(relation) => relation.schema().validate(tuple)?,
                Err(_) => {
                    let arity = *fresh_arities.entry(predicate).or_insert(tuple.arity());
                    if arity != tuple.arity() {
                        return Err(ontodq_relational::RelationalError::ArityMismatch {
                            relation: predicate.clone(),
                            expected: arity,
                            actual: tuple.arity(),
                        });
                    }
                }
            }
        }
        let mut added = 0;
        for (predicate, tuple) in facts {
            if self
                .database
                .insert(&predicate, tuple)
                .expect("batch was validated before application")
            {
                added += 1;
            }
        }
        Ok(added)
    }

    /// The per-TGD evaluation watermarks, indexed like `program.tgds`
    /// (`None` = never evaluated).  Exposed — together with
    /// [`ChaseState::next_null`] and [`ChaseState::database`] — so
    /// persistence layers (`ontodq-store`) can serialize a resumable state
    /// and restore it with
    /// [`ChaseState::from_parts`]; a restart then replays only the WAL tail
    /// through [`ChaseEngine::resume`] instead of re-chasing from scratch.
    pub fn tgd_floors(&self) -> &[Option<u64>] {
        &self.tgd_floor
    }

    /// The id the next freshly invented labeled null will get.
    pub fn next_null(&self) -> u64 {
        self.next_null
    }

    /// Reassemble a state from persisted parts — the inverse of reading
    /// [`ChaseState::database`] / [`ChaseState::tgd_floors`] /
    /// [`ChaseState::next_null`].
    ///
    /// The caller owes the same contract a live state maintains: the
    /// watermark vectors are positional, so the state is only meaningful for
    /// a program whose rules sit at the positions they had when the parts
    /// were captured (recompiling the same context deterministically, as
    /// recovery does, satisfies this).  The null counter is additionally
    /// clamped above every null occurring in `database`, so fresh nulls can
    /// never collide even with a stale persisted counter.
    pub fn from_parts(database: Database, tgd_floor: Vec<Option<u64>>, next_null: u64) -> Self {
        let floor = database.max_null_id().map(|n| n + 1).unwrap_or(0);
        Self {
            database,
            tgd_floor,
            next_null: next_null.max(floor),
            checked_ncs: Vec::new(),
            checked_egds: Vec::new(),
        }
    }

    /// Build the rule-body indexes of `program` on the working instance now
    /// ([`ensure_rule_indexes`]) instead of on the next resume — for callers
    /// about to share the instance with a snapshot (index before you share).
    pub fn ensure_rule_indexes(&mut self, program: &Program) {
        ensure_rule_indexes(program, &mut self.database);
    }

    /// Re-align the state with `program` before a resume: load any new
    /// program facts, register new predicates, and extend the watermark
    /// vectors so appended rules get a full first evaluation.
    ///
    /// Runs before every resume and retraction, so it only writes what is
    /// actually missing: a fact already present or a predicate already
    /// registered opens no relation (nothing shared with a snapshot is
    /// copied), and the null counter — kept above every null of the
    /// instance since construction — is only raised over the nulls of the
    /// facts just loaded, never by re-scanning the instance.
    fn sync_with(&mut self, program: &Program) {
        for fact in &program.facts {
            let predicate = &fact.atom().predicate;
            let tuple = fact.tuple();
            if self.database.contains(predicate, &tuple) {
                continue;
            }
            if let Some(max) = tuple.nulls().iter().map(|n| n.id()).max() {
                self.next_null = self.next_null.max(max + 1);
            }
            self.database
                .relation_or_create(predicate, tuple.arity())
                .insert_unchecked(tuple);
        }
        for (predicate, arity) in program.predicates() {
            if !self.database.has_relation(&predicate) {
                self.database.relation_or_create(&predicate, arity);
            }
        }
        self.tgd_floor.resize(program.tgds.len(), None);
    }
}

/// The witnesses of constraint `index` (with body `body`) over `db`, through
/// the memo `checked` — every resume reports them all, but a constraint is
/// only re-evaluated when a relation its body reads has changed since its
/// last check.  Relations are copied on write, so "unchanged" is pointer
/// identity with the handles pinned then
/// ([`ontodq_relational::same_relation`]): a commit re-audits the
/// constraints over the relations it touched, not the whole instance.
fn memoized_witnesses<'m>(
    checked: &'m mut Vec<Option<CheckedConstraint>>,
    db: &Database,
    index: usize,
    body: &Conjunction,
    join: JoinEngine,
) -> &'m [Assignment] {
    let sources: Vec<Option<Arc<RelationInstance>>> = body
        .atoms
        .iter()
        .chain(body.negated.iter())
        .map(|atom| db.shared_relation(&atom.predicate).cloned())
        .collect();
    if checked.len() <= index {
        checked.resize(index + 1, None);
    }
    let slot = &mut checked[index];
    let current = slot.as_ref().is_some_and(|last| {
        last.sources.len() == sources.len()
            && last
                .sources
                .iter()
                .zip(&sources)
                .all(|(then, now)| same_relation(then.as_ref(), now.as_ref()))
    });
    if !current {
        *slot = Some(CheckedConstraint {
            witnesses: evaluate_with(db, body, join),
            sources,
        });
    }
    &slot.as_ref().expect("filled above").witnesses
}

/// Build hash indexes on the join positions of every rule body of `program`
/// (TGDs, EGDs, negative constraints); they are maintained incrementally by
/// `ontodq-relational` from then on.  What both chase drivers run first;
/// relations that do not exist (yet) are skipped, and a relation whose
/// indexes all exist is not opened.
///
/// Existential TGDs additionally get an index on every *frontier*
/// position of each head atom: the restricted chase probes the head
/// relation once per trigger (`has_extension`), and without an index
/// that probe is a scan of a relation that grows with every fired
/// trigger — a quadratic term that dominated large instances.
///
/// **Index before you share.**  Relations are copied on write, and building
/// an index is a write: callers that are about to clone a long-lived
/// instance (into a [`ChaseState`], a snapshot, …) should run this on it
/// *first*, so the clones start out with the indexes and never have to
/// unshare a relation just to index it.
pub fn ensure_rule_indexes(program: &Program, db: &mut Database) {
    for tgd in &program.tgds {
        ensure_indexes(db, tgd.body());
        if !tgd.is_full() {
            let frontier = tgd.frontier();
            for atom in &tgd.head {
                for (position, term) in atom.terms.iter().enumerate() {
                    let probed = match term {
                        Term::Const(_) => true,
                        Term::Var(v) => frontier.contains(v),
                    };
                    if probed {
                        ensure_index(db, &atom.predicate, position);
                    }
                }
            }
        }
    }
    for egd in &program.egds {
        ensure_indexes(db, &egd.body);
    }
    for nc in &program.constraints {
        ensure_indexes(db, &nc.body);
    }
}

/// [`ensure_rule_indexes`], plus the indexes any **magic-set
/// specialization** of `program` ([`ChaseEngine::chase_for_query`]) can ask
/// for: a guarded copy of a single-head rule prepends a magic atom over
/// some of the head's terms to the body, which turns every body position
/// holding a head variable into a join position.  Run once on a long-lived
/// extensional base, it lets every later demand chase run entirely on
/// shared relations — a `?d-` then allocates only what it derives.
pub fn ensure_demand_indexes(program: &Program, db: &mut Database) {
    ensure_rule_indexes(program, db);
    for tgd in &program.tgds {
        if let [head] = &tgd.head[..] {
            let mut guarded = tgd.body().clone();
            guarded
                .atoms
                .insert(0, Atom::new("__magic_guard", head.terms.clone()));
            ensure_indexes(db, &guarded);
        }
    }
}

/// Can `tgd`'s triggers take the staged batch path
/// ([`stage_full_tgd_triggers`] + [`ChaseEngine::apply_staged_triggers`])?
///
/// Only full TGDs: they invent no nulls, and their "head already satisfied"
/// check degenerates to "every head row is already present", which the
/// insert itself answers.  Existential heads need fresh nulls per trigger
/// and keep the [`ChaseEngine::fire_trigger`] path.  So do rules whose heads
/// are all zero-arity atoms (`P() :- Q(x).`): the flat buffer encodes a
/// trigger as `sum(head arities)` values, which at 0 cannot represent "some
/// triggers fired" at all.
fn batchable(tgd: &Tgd) -> bool {
    tgd.is_full() && tgd.head.iter().map(|a| a.arity()).sum::<usize>() > 0
}

/// Ground the head of a **full** TGD for every (delta-)trigger of its
/// body, appending the head rows to a flat value buffer in trigger order
/// (`sum(head arities)` values per trigger), ready for the arena's
/// slice-insert path — no per-trigger `Assignment`, `Tuple` or `Vec` is
/// ever built.
///
/// Bindings are read in place from the join's binder stack
/// ([`crate::eval::for_each_trigger`]); a full TGD's head variables are all
/// frontier variables, so every term resolves without inventing nulls.
fn stage_full_tgd_triggers(
    db: &Database,
    tgd: &Tgd,
    floor: Option<u64>,
    join: JoinEngine,
) -> Vec<Value> {
    let mut staged = Vec::new();
    for_each_trigger(db, tgd.body(), floor, join, &mut |binder| {
        for atom in &tgd.head {
            for term in &atom.terms {
                staged.push(match term {
                    Term::Const(v) => *v,
                    Term::Var(v) => binder
                        .get(v)
                        .expect("full TGD head variables are bound by the body"),
                });
            }
        }
        false
    });
    staged
}

/// A rule's display label for profiles: its declared label, or
/// `tgd<i> -> <head predicates>` when unlabeled.
fn rule_label(index: usize, tgd: &Tgd) -> String {
    match &tgd.label {
        Some(label) => label.clone(),
        None => format!("tgd{index}->{}", tgd.head_predicates().join(",")),
    }
}

/// Mutable chase-run state shared between the drivers.
struct RunState {
    nulls: NullGenerator,
    stats: ChaseStats,
    violations: Violations,
    /// Per-rule measurements (disabled unless [`ChaseConfig::profile`]).
    profile: ChaseProfile,
}

/// The chase engine.
#[derive(Debug, Clone)]
pub struct ChaseEngine {
    config: ChaseConfig,
    /// Time source for the profiler (monotonic unless a caller injected a
    /// virtual clock for deterministic replay).
    clock: SharedClock,
}

impl Default for ChaseEngine {
    fn default() -> Self {
        Self::new(ChaseConfig::default())
    }
}

impl ChaseEngine {
    /// An engine with the given configuration (and the production
    /// monotonic clock).
    pub fn new(config: ChaseConfig) -> Self {
        Self {
            config,
            clock: ontodq_obs::monotonic(),
        }
    }

    /// An engine with default configuration (restricted semi-naive chase,
    /// generous budgets, EGDs and constraints checked).
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// Replace the profiler's time source (see [`ontodq_obs::Clock`]) —
    /// deterministic tests inject [`ontodq_obs::frozen`].
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// A fresh per-rule profile honoring [`ChaseConfig::profile`].
    fn fresh_profile(&self, program: &Program) -> ChaseProfile {
        if !self.config.profile {
            return ChaseProfile::disabled();
        }
        ChaseProfile::for_rules(
            program
                .tgds
                .iter()
                .enumerate()
                .map(|(index, tgd)| rule_label(index, tgd))
                .collect(),
        )
    }

    /// Clock read gated on profiling (0 when off, so the disabled path
    /// never touches the clock).
    fn profile_now(&self) -> u64 {
        if self.config.profile {
            self.clock.now_micros()
        } else {
            0
        }
    }

    /// Record one trigger-discovery evaluation of `tgd` into the profile.
    fn note_eval(
        &self,
        profile: &mut ChaseProfile,
        tgd_index: usize,
        tgd: &Tgd,
        micros: u64,
        delta_rows: u64,
    ) {
        if !profile.enabled {
            return;
        }
        let rule = &mut profile.rules[tgd_index];
        rule.evaluations += 1;
        rule.delta_rows += delta_rows;
        rule.join_micros += micros;
        if plan_uses_wco(tgd.body(), self.config.join) {
            rule.wco_evals += 1;
        } else {
            rule.hash_evals += 1;
        }
    }

    /// Attribute the firing outcome of one rule's batch to its profile by
    /// diffing the global stats across the batch.
    fn note_outcome(
        profile: &mut ChaseProfile,
        tgd_index: usize,
        stats: &ChaseStats,
        fired_before: usize,
        satisfied_before: usize,
        added_before: usize,
    ) {
        if !profile.enabled {
            return;
        }
        let rule = &mut profile.rules[tgd_index];
        rule.fires += (stats.triggers_fired - fired_before) as u64;
        rule.satisfied += (stats.triggers_satisfied - satisfied_before) as u64;
        rule.tuples_added += (stats.tuples_added - added_before) as u64;
    }

    /// Run the chase of `program` over `database` (which is not modified; the
    /// result carries the chased instance, sharing with `database` every
    /// relation the chase did not write).
    pub fn run(&self, program: &Program, database: &Database) -> ChaseResult {
        // Seeded exactly like a resumable state: a clone sharing every
        // relation of `database` (only what the chase writes is copied),
        // the program's facts loaded, every predicate it mentions
        // registered, and the null counter above every null present.
        let mut state = ChaseState::new(program, database);
        self.chase_state(program, &mut state, false)
    }

    /// Run the chase of `program` over `database` with the **naive** driver:
    /// every rule body is re-evaluated over the full instance every round.
    ///
    /// This is the reference oracle the semi-naive driver of
    /// [`ChaseEngine::run`] is tested against: the two reach the same
    /// instance modulo labeled-null renaming, with the same violations.  It
    /// runs under the engine's own budgets, join kernel and profiler.  It
    /// never resumes: [`ChaseEngine::resume`]
    /// and [`ChaseEngine::retract`] are semi-naive only.
    pub fn run_naive(&self, program: &Program, database: &Database) -> ChaseResult {
        let mut state = ChaseState::new(program, database);
        self.chase_state(program, &mut state, true)
    }

    /// Resume the chase of `program` over a persistent [`ChaseState`].
    ///
    /// The first call on a fresh state performs a full (delta-driven
    /// semi-naive, restricted) chase; subsequent calls after
    /// [`ChaseState::insert_batch`] perform an **incremental re-chase**:
    /// every rule's trigger discovery is seeded from the rows stamped after
    /// its stored watermark, so only consequences of the new facts are
    /// recomputed.  The state's watermarks, null counter and working
    /// instance are updated in place; the returned [`ChaseResult`] carries a
    /// snapshot of the chased instance — a clone that *shares* every
    /// relation with the state (one reference-count bump each; the state
    /// copies a relation only when it next writes it) — plus the statistics
    /// and violations of *this* resume step (the negative-constraint and
    /// EGD violations of the full final instance are reported every time; a
    /// constraint is re-evaluated only when a relation its body reads
    /// changed since the previous resume).
    ///
    /// The incremental result is a universal model of the program over the
    /// accumulated facts, so certain query answers agree with a from-scratch
    /// chase of the same fact set (the instances themselves may differ by
    /// labeled nulls a from-scratch restricted chase would not invent).
    pub fn resume(&self, program: &Program, state: &mut ChaseState) -> ChaseResult {
        state.sync_with(program);
        self.chase_state(program, state, false)
    }

    /// Chase `state` to a TGD fixpoint with the naive driver when `naive`
    /// is set and the semi-naive one otherwise, then check the constraints:
    /// the shared body of [`ChaseEngine::run`], [`ChaseEngine::run_naive`]
    /// and [`ChaseEngine::resume`].
    fn chase_state(&self, program: &Program, state: &mut ChaseState, naive: bool) -> ChaseResult {
        let mut run = RunState {
            nulls: NullGenerator::starting_at(state.next_null),
            stats: ChaseStats::default(),
            violations: Violations::default(),
            profile: self.fresh_profile(program),
        };

        let run_start = self.profile_now();
        let db = &mut state.database;
        let termination = if naive {
            self.naive_rounds(program, db, &mut run)
        } else {
            self.seminaive_rounds(program, db, &mut run, &mut state.tgd_floor)
        };
        if self.config.profile {
            run.profile.total_micros = self.profile_now().saturating_sub(run_start);
        }
        state.next_null = run.nulls.peek();
        if self.config.check_constraints {
            self.check_constraints(program, state, &mut run);
        }
        ChaseResult {
            database: state.database.clone(),
            stats: run.stats,
            violations: run.violations,
            termination,
            profile: run.profile,
        }
    }

    /// Check every negative constraint and EGD of `program` on the state's
    /// instance, recording each witness as a violation.  An EGD is checked
    /// as the negative constraint [`ontodq_datalog::Egd::violation_body`],
    /// so it is violated only by two distinct constants; both kinds go
    /// through the state's memo, so only a constraint whose body relations
    /// changed since its last check is evaluated again.
    fn check_constraints(&self, program: &Program, state: &mut ChaseState, run: &mut RunState) {
        let join = self.config.join;
        for (index, nc) in program.constraints.iter().enumerate() {
            let witnesses = memoized_witnesses(
                &mut state.checked_ncs,
                &state.database,
                index,
                &nc.body,
                join,
            );
            for witness in witnesses {
                run.stats.nc_violations += 1;
                run.violations.nc.push(NcViolation {
                    constraint_index: index,
                    label: nc.label.clone(),
                    witness: witness.clone(),
                });
            }
        }
        let egd_start = self.profile_now();
        for (index, egd) in program.egds.iter().enumerate() {
            let body = egd.violation_body();
            let witnesses =
                memoized_witnesses(&mut state.checked_egds, &state.database, index, &body, join);
            for witness in witnesses {
                let side = |var| *witness.get(var).expect("EGD sides are body variables");
                run.stats.egd_violations += 1;
                run.violations.egd.push(EgdViolation {
                    egd_index: index,
                    label: egd.label.clone(),
                    left: side(&egd.left),
                    right: side(&egd.right),
                    witness: witness.clone(),
                });
            }
        }
        if self.config.profile {
            run.profile.egd_micros += self.profile_now().saturating_sub(egd_start);
        }
    }

    // ------------------------------------------------------------------
    // Naive driver: the reference oracle.
    // ------------------------------------------------------------------

    fn naive_rounds(
        &self,
        program: &Program,
        db: &mut Database,
        state: &mut RunState,
    ) -> TerminationReason {
        // Both drivers join through the same indexes, so
        // naive-vs-semi-naive comparisons isolate the delta-evaluation gain
        // rather than conflating it with hash-index vs full-scan joins.
        ensure_rule_indexes(program, db);
        let mut termination = TerminationReason::Fixpoint;
        'rounds: for round in 1..=self.config.max_rounds {
            state.stats.rounds = round;
            let mut changed = false;

            // TGD application over the full instance.
            for (tgd_index, tgd) in program.tgds.iter().enumerate() {
                let eval_start = self.profile_now();
                let fired_before = state.stats.triggers_fired;
                let satisfied_before = state.stats.triggers_satisfied;
                let added_before = state.stats.tuples_added;
                let triggers = evaluate_with(db, tgd.body(), self.config.join);
                if self.config.profile {
                    self.note_eval(
                        &mut state.profile,
                        tgd_index,
                        tgd,
                        self.profile_now().saturating_sub(eval_start),
                        triggers.len() as u64,
                    );
                }
                let mut limited = false;
                for assignment in triggers {
                    if state.stats.tuples_added >= self.config.max_new_tuples {
                        termination = TerminationReason::TupleLimit;
                        limited = true;
                        break;
                    }
                    changed |= self.fire_trigger(tgd, &assignment, db, state);
                }
                Self::note_outcome(
                    &mut state.profile,
                    tgd_index,
                    &state.stats,
                    fired_before,
                    satisfied_before,
                    added_before,
                );
                if limited {
                    break 'rounds;
                }
            }

            if !changed {
                termination = TerminationReason::Fixpoint;
                break;
            }
            if round == self.config.max_rounds {
                termination = TerminationReason::RoundLimit;
            }
        }
        termination
    }

    // ------------------------------------------------------------------
    // Semi-naive driver: delta-driven trigger discovery.
    // ------------------------------------------------------------------

    /// The semi-naive driver over per-rule evaluation watermarks: a rule's
    /// next evaluation only joins through rows stamped after its previous
    /// one, and `None` means "never evaluated" → full join (the seeding
    /// round).  The floors live in the [`ChaseState`], so they carry across
    /// [`ChaseEngine::resume`] calls.
    fn seminaive_rounds(
        &self,
        program: &Program,
        db: &mut Database,
        state: &mut RunState,
        tgd_floor: &mut [Option<u64>],
    ) -> TerminationReason {
        ensure_rule_indexes(program, db);

        let mut termination = TerminationReason::Fixpoint;
        'rounds: for round in 1..=self.config.max_rounds {
            state.stats.rounds = round;
            let mut changed = false;

            for (tgd_index, tgd) in program.tgds.iter().enumerate() {
                // Everything stamped up to `watermark` is visible to this
                // evaluation; the rule's own inserts land strictly after it
                // (epoch advanced below), so they form the next delta.
                let watermark = db.epoch();
                let floor = tgd_floor[tgd_index];
                let eval_start = self.profile_now();
                let fired_before = state.stats.triggers_fired;
                let satisfied_before = state.stats.triggers_satisfied;
                let added_before = state.stats.tuples_added;
                if batchable(tgd) {
                    let staged = stage_full_tgd_triggers(db, tgd, floor, self.config.join);
                    if self.config.profile {
                        let chunk: usize = tgd.head.iter().map(|a| a.arity()).sum();
                        self.note_eval(
                            &mut state.profile,
                            tgd_index,
                            tgd,
                            self.profile_now().saturating_sub(eval_start),
                            (staged.len() / chunk.max(1)) as u64,
                        );
                    }
                    db.advance_epoch();
                    let (batch_changed, limited) =
                        self.apply_staged_triggers(tgd, &staged, db, state);
                    changed |= batch_changed;
                    Self::note_outcome(
                        &mut state.profile,
                        tgd_index,
                        &state.stats,
                        fired_before,
                        satisfied_before,
                        added_before,
                    );
                    if limited {
                        // Leave the floor untouched: the unfired remainder
                        // of this rule's triggers must be re-discoverable
                        // if the run is resumed from its [`ChaseState`].
                        termination = TerminationReason::TupleLimit;
                        break 'rounds;
                    }
                } else {
                    let triggers = match floor {
                        None => evaluate_with(db, tgd.body(), self.config.join),
                        Some(floor) => evaluate_delta_with(db, tgd.body(), floor, self.config.join),
                    };
                    if self.config.profile {
                        self.note_eval(
                            &mut state.profile,
                            tgd_index,
                            tgd,
                            self.profile_now().saturating_sub(eval_start),
                            triggers.len() as u64,
                        );
                    }
                    db.advance_epoch();
                    let mut limited = false;
                    for assignment in triggers {
                        if state.stats.tuples_added >= self.config.max_new_tuples {
                            // Leave the floor untouched, as above.
                            termination = TerminationReason::TupleLimit;
                            limited = true;
                            break;
                        }
                        changed |= self.fire_trigger(tgd, &assignment, db, state);
                    }
                    Self::note_outcome(
                        &mut state.profile,
                        tgd_index,
                        &state.stats,
                        fired_before,
                        satisfied_before,
                        added_before,
                    );
                    if limited {
                        break 'rounds;
                    }
                }
                // Only after every discovered trigger has been processed is
                // the delta up to `watermark` really consumed.
                tgd_floor[tgd_index] = Some(watermark);
            }

            if !changed {
                termination = TerminationReason::Fixpoint;
                break;
            }
            if round == self.config.max_rounds {
                termination = TerminationReason::RoundLimit;
            }
        }
        termination
    }

    // ------------------------------------------------------------------
    // Shared trigger machinery.
    // ------------------------------------------------------------------

    /// Apply one rule's staged trigger batch: one `chunks_exact` slice per
    /// trigger, inserted through the arena's slice path
    /// ([`ontodq_relational::RelationInstance::insert_slice_unchecked`]).
    ///
    /// For a full TGD under the restricted chase, a trigger is *satisfied*
    /// exactly when every one of its head rows is already present — i.e.
    /// when the inserts all report duplicates — so the satisfaction probe
    /// and the insert fuse into a single hash lookup per head atom, and the
    /// per-trigger statistics come out identical to the
    /// [`ChaseEngine::fire_trigger`] path.  Returns
    /// `(changed, hit_tuple_limit)`; on a tuple-limit hit the remaining
    /// triggers are dropped unconsumed, exactly like the assignment path
    /// (the caller leaves the rule's floor untouched so a resume
    /// rediscovers them).
    fn apply_staged_triggers(
        &self,
        tgd: &Tgd,
        staged: &[Value],
        db: &mut Database,
        state: &mut RunState,
    ) -> (bool, bool) {
        let chunk: usize = tgd.head.iter().map(|a| a.arity()).sum();
        // `batchable` keeps zero-arity-head rules off this path (a 0-sized
        // chunk cannot encode trigger counts); guard anyway so a future
        // caller cannot hit `chunks_exact(0)`'s panic.  And with no trigger
        // staged, do not even open the head relation: opening one shared
        // with a snapshot would copy it for nothing.
        if chunk == 0 || staged.is_empty() {
            return (false, false);
        }
        let mut changed = false;
        if let [atom] = &tgd.head[..] {
            // Single-head rules (the common case): resolve the relation
            // once per batch instead of once per trigger.
            let max_new_tuples = self.config.max_new_tuples;
            let relation = db.relation_or_create(&atom.predicate, atom.arity());
            for row in staged.chunks_exact(chunk) {
                if state.stats.tuples_added >= max_new_tuples {
                    return (changed, true);
                }
                if relation.insert_slice_unchecked(row) {
                    state.stats.tuples_added += 1;
                    state.stats.triggers_fired += 1;
                    changed = true;
                } else {
                    state.stats.triggers_satisfied += 1;
                }
            }
            return (changed, false);
        }
        for row in staged.chunks_exact(chunk) {
            if state.stats.tuples_added >= self.config.max_new_tuples {
                return (changed, true);
            }
            let mut offset = 0;
            let mut any_added = false;
            for atom in &tgd.head {
                let slice = &row[offset..offset + atom.arity()];
                offset += atom.arity();
                if db
                    .relation_or_create(&atom.predicate, atom.arity())
                    .insert_slice_unchecked(slice)
                {
                    state.stats.tuples_added += 1;
                    any_added = true;
                }
            }
            if any_added {
                state.stats.triggers_fired += 1;
                changed = true;
            } else {
                state.stats.triggers_satisfied += 1;
            }
        }
        (changed, false)
    }

    /// Process one TGD trigger: skip it when its head is already satisfied,
    /// else fire — inventing fresh nulls for existential variables and
    /// inserting the instantiated head atoms.  Returns whether the database
    /// changed.
    fn fire_trigger(
        &self,
        tgd: &Tgd,
        assignment: &ontodq_datalog::Assignment,
        db: &mut Database,
        state: &mut RunState,
    ) -> bool {
        // Skip the trigger when the head is already satisfied by some
        // extension of the assignment.  Full TGDs fall through instead:
        // their only extension is the trigger itself, so the inserts below
        // double as the satisfaction check (all-duplicates == satisfied).
        if !tgd.is_full() {
            let head_atoms: Vec<_> = tgd.head.iter().collect();
            if has_extension(db, &head_atoms, assignment) {
                state.stats.triggers_satisfied += 1;
                return false;
            }
        }

        let mut extended = assignment.clone();
        for var in tgd.existential_variables() {
            let fresh = Value::Null(state.nulls.fresh());
            state.stats.nulls_created += 1;
            extended.bind(var, fresh);
        }
        let mut changed = false;
        for head_atom in &tgd.head {
            let tuple = extended
                .ground_atom(head_atom)
                .expect("head variables are bound by the trigger and fresh nulls");
            if db
                .relation_or_create(&head_atom.predicate, head_atom.arity())
                .insert_unchecked(tuple)
            {
                state.stats.tuples_added += 1;
                changed = true;
            }
        }
        if tgd.is_full() && !changed {
            state.stats.triggers_satisfied += 1;
            return false;
        }
        state.stats.triggers_fired += 1;
        changed
    }
}

impl ChaseEngine {
    /// **Delete-and-rederive (DRed)** retraction of extensional facts from a
    /// maintained [`ChaseState`].
    ///
    /// The three phases, in order:
    ///
    /// 1. **Over-approximate.**  Compute the transitive consequence closure
    ///    of `requested` *against the still-visible instance* — triggers are
    ///    enumerated before anything is tombstoned, so simultaneous
    ///    deletions cannot hide each other's triggers.  The closure is
    ///    computed by evaluation: each condemned fact is unified into every
    ///    matching rule-body atom, the rest of the body is joined out, and
    ///    the grounded heads (or, for existential heads, every row matching
    ///    the frontier-ground positions) are condemned in turn.
    ///    Facts in `protected` — the surviving extensional base — are never
    ///    condemned (explicitly requested facts bypass protection).
    /// 2. **Delete.**  Tombstone every condemned fact
    ///    ([`Database::delete`]); live row ids and the sorted-stamp window
    ///    structure are untouched, so unaffected rules' watermarks stay
    ///    exact.
    /// 3. **Re-derive.**  Reset the watermarks of exactly the rules whose
    ///    heads write a touched relation and run a normal
    ///    [`ChaseEngine::resume`]: their full re-evaluation re-fires every
    ///    surviving trigger — dedup skips tuples that were never deleted,
    ///    while a tuple with an alternative support is re-inserted as a
    ///    fresh row at the current epoch and propagates through the other
    ///    rules' deltas like any new fact.
    ///
    /// The resulting instance satisfies retract-then-rederive ==
    /// fresh-chase-of-the-surviving-EDB (modulo labeled-null renaming), with
    /// no caller-side guard: EGDs never rewrite the instance (they are
    /// checked as constraints after the re-derivation), so every derived
    /// row is a TGD consequence the cascade can condemn.
    pub fn retract(
        &self,
        program: &Program,
        state: &mut ChaseState,
        protected: &Database,
        requested: &[(String, Tuple)],
    ) -> RetractResult {
        state.sync_with(program);
        // Seeds: the requested facts actually present (deduplicated,
        // discovery order preserved).
        let mut seeds: Vec<(String, Tuple)> = Vec::new();
        let mut seen: HashSet<(String, Tuple)> = HashSet::new();
        for (predicate, tuple) in requested {
            if state.database.contains(predicate, tuple) {
                let fact = (predicate.clone(), tuple.clone());
                if seen.insert(fact.clone()) {
                    seeds.push(fact);
                }
            }
        }
        // Phase 1: over-approximated consequence closure, computed while
        // every fact is still visible.
        let cascade_start = self.profile_now();
        let condemned = self.cascade_consequences(program, &state.database, protected, &seeds);
        // Phase 2: tombstone the closure.
        let delete_start = self.profile_now();
        let seed_set: HashSet<&(String, Tuple)> = seeds.iter().collect();
        let mut stats = RetractStats {
            requested: requested.len(),
            ..Default::default()
        };
        let mut touched: BTreeSet<&str> = BTreeSet::new();
        for fact in &condemned {
            if state.database.delete(&fact.0, &fact.1) {
                if seed_set.contains(fact) {
                    stats.retracted += 1;
                } else {
                    stats.cascaded += 1;
                }
                touched.insert(&fact.0);
            }
        }
        // No row id is in flight between the phases: the point at which
        // relations that are now mostly tombstones are rebuilt.
        state.database.compact_sparse();
        // Phase 3: re-open exactly the rules that can write a touched
        // relation, then resume — the restricted chase's dedup makes the
        // re-evaluation a no-op on everything that survived.
        for (index, tgd) in program.tgds.iter().enumerate() {
            if tgd
                .head
                .iter()
                .any(|atom| touched.contains(atom.predicate.as_str()))
            {
                state.tgd_floor[index] = None;
            }
        }
        let rederive_start = self.profile_now();
        let mut chase = self.resume(program, state);
        stats.rederived = chase.stats.tuples_added;
        if self.config.profile {
            chase.profile.dred = DredTiming {
                batches: 1,
                cascade_micros: delete_start.saturating_sub(cascade_start),
                delete_micros: rederive_start.saturating_sub(delete_start),
                rederive_micros: self.profile_now().saturating_sub(rederive_start),
            };
        }
        RetractResult { stats, chase }
    }

    /// The DRed delete-phase closure: worklist over condemned facts, each
    /// unified into every matching body atom of every rule, the rest of the
    /// body joined against the (still fully visible) instance.
    fn cascade_consequences(
        &self,
        program: &Program,
        db: &Database,
        protected: &Database,
        seeds: &[(String, Tuple)],
    ) -> Vec<(String, Tuple)> {
        let mut condemned: Vec<(String, Tuple)> = Vec::new();
        let mut seen: HashSet<(String, Tuple)> = HashSet::new();
        let mut queue: VecDeque<(String, Tuple)> = VecDeque::new();
        for seed in seeds {
            if seen.insert(seed.clone()) {
                condemned.push(seed.clone());
                queue.push_back(seed.clone());
            }
        }
        let empty = Assignment::new();
        let mut candidates: Vec<(String, Tuple)> = Vec::new();
        while let Some((predicate, tuple)) = queue.pop_front() {
            candidates.clear();
            for tgd in &program.tgds {
                for (position, atom) in tgd.body().atoms.iter().enumerate() {
                    if atom.predicate != predicate {
                        continue;
                    }
                    let Some(partial) = empty.match_atom(atom, &tuple) else {
                        continue;
                    };
                    let rest: Vec<&Atom> = tgd
                        .body()
                        .atoms
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != position)
                        .map(|(_, a)| a)
                        .collect();
                    extend_over_atoms(db, &rest, partial, &mut |assignment| {
                        // `extend_over_atoms` handles positive atoms only;
                        // comparisons are checked here.
                        if !tgd
                            .body()
                            .comparisons
                            .iter()
                            .all(|cmp| assignment.satisfies_comparison(cmp))
                        {
                            return;
                        }
                        for head in &tgd.head {
                            match assignment.ground_atom(head) {
                                Some(grounded) => {
                                    if db.contains(&head.predicate, &grounded) {
                                        candidates.push((head.predicate.clone(), grounded));
                                    }
                                }
                                None => {
                                    // Existential positions stay unbound:
                                    // every present row matching the
                                    // frontier-ground positions is an
                                    // over-approximated consequence.
                                    let bindings: Vec<(usize, Value)> = head
                                        .terms
                                        .iter()
                                        .enumerate()
                                        .filter_map(|(pos, term)| {
                                            match assignment.apply_term(term) {
                                                Term::Const(value) => Some((pos, value)),
                                                Term::Var(_) => None,
                                            }
                                        })
                                        .collect();
                                    if let Ok(relation) = db.relation(&head.predicate) {
                                        let mut rows = Vec::new();
                                        relation.select_ids_into(
                                            &bindings,
                                            StampWindow::all(),
                                            &mut rows,
                                        );
                                        for row in rows {
                                            candidates.push((
                                                head.predicate.clone(),
                                                relation.row_tuple(row),
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    });
                }
            }
            for fact in candidates.drain(..) {
                if protected.contains(&fact.0, &fact.1) {
                    continue;
                }
                if seen.insert(fact.clone()) {
                    condemned.push(fact.clone());
                    queue.push_back(fact);
                }
            }
        }
        condemned
    }

    /// **Demand-driven chase**: specialize `program` to `query` with the
    /// magic-set transformation
    /// ([`ontodq_datalog::magic_transform`]) and chase only the
    /// fragment the query can observe.
    ///
    /// The input instance is pruned to the relevant relations, the magic
    /// seed facts are inserted so they form the first delta, and the
    /// specialized program runs through the engine's regular delta-driven
    /// semi-naive machinery.  Negative constraints are not
    /// checked — demand-driven evaluation answers queries, the full
    /// assessment path audits consistency.
    ///
    /// Certain answers to `query` over the result equal those over a full
    /// chase of `program` (modulo labeled-null renaming); the resulting
    /// instance itself contains only the demanded portion.
    pub fn chase_for_query(
        &self,
        program: &Program,
        database: &Database,
        query: &Conjunction,
    ) -> ChaseResult {
        let demand = magic_transform(program, query);
        self.chase_demand(database, &demand)
    }

    /// Run an already-computed [`DemandProgram`] (the reusable half of
    /// [`ChaseEngine::chase_for_query`], for callers that answer the same
    /// query shape against many instances).
    pub(crate) fn chase_demand(&self, database: &Database, demand: &DemandProgram) -> ChaseResult {
        // Prune: the demand chase only ever reads the relevant relations.
        let names: Vec<&str> = demand.relevant.iter().map(String::as_str).collect();
        let mut db = database.restrict_to(&names);
        // Seed the magic relations; the engine's first evaluation of every
        // rule is a full join (floors start at `None`), so the seeds are
        // discovered exactly like a first delta.
        for (predicate, tuple) in &demand.seeds {
            db.relation_or_create(predicate, tuple.arity())
                .insert_unchecked(tuple.clone());
        }
        let engine = ChaseEngine::new(ChaseConfig {
            check_constraints: false,
            ..self.config.clone()
        })
        .with_clock(self.clock.clone());
        engine.run(&demand.program, &db)
    }
}

/// Convenience function: run the restricted semi-naive chase with default
/// configuration.
pub fn chase(program: &Program, database: &Database) -> ChaseResult {
    ChaseEngine::with_defaults().run(program, database)
}

/// Convenience function: run the restricted chase with the naive driver,
/// the reference oracle, under the default configuration — see
/// [`ChaseEngine::run_naive`].
pub fn chase_naive(program: &Program, database: &Database) -> ChaseResult {
    ChaseEngine::with_defaults().run_naive(program, database)
}

/// Convenience function: resume the chase of `program` over `state` with the
/// default engine configuration — see [`ChaseEngine::resume`].  Call once on
/// a fresh [`ChaseState`] for the initial full chase, then again after each
/// [`ChaseState::insert_batch`] for an incremental re-chase.
pub fn chase_incremental(program: &Program, state: &mut ChaseState) -> ChaseResult {
    ChaseEngine::with_defaults().resume(program, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_datalog::parse_program;
    use ontodq_relational::Tuple;

    fn hospital_db() -> Database {
        let mut db = Database::new();
        for (u, w) in [
            ("Standard", "W1"),
            ("Standard", "W2"),
            ("Intensive", "W3"),
            ("Terminal", "W4"),
        ] {
            db.insert_values("UnitWard", [u, w]).unwrap();
        }
        for (w, d, p) in [
            ("W1", "Sep/5", "Tom Waits"),
            ("W1", "Sep/6", "Tom Waits"),
            ("W3", "Sep/7", "Tom Waits"),
            ("W2", "Sep/9", "Tom Waits"),
            ("W2", "Sep/6", "Lou Reed"),
            ("W1", "Sep/5", "Lou Reed"),
        ] {
            db.insert_values("PatientWard", [w, d, p]).unwrap();
        }
        for (u, d, n, t) in [
            ("Intensive", "Sep/5", "Cathy", "cert"),
            ("Standard", "Sep/5", "Helen", "cert"),
            ("Standard", "Sep/6", "Helen", "cert"),
            ("Terminal", "Sep/5", "Susan", "non-c"),
            ("Standard", "Sep/9", "Mark", "non-c"),
        ] {
            db.insert_values("WorkingSchedules", [u, d, n, t]).unwrap();
        }
        db
    }

    /// One engine per join kernel: the default `Auto` planner, then hash
    /// and leapfrog forced for every rule body.
    fn engines() -> [ChaseEngine; 3] {
        [
            ChaseEngine::with_defaults(),
            ChaseEngine::new(ChaseConfig::with_join(JoinEngine::Hash)),
            ChaseEngine::new(ChaseConfig::with_join(JoinEngine::Leapfrog)),
        ]
    }

    /// The chase of `program` over `db` by every driver, for tests that
    /// must hold under each: the naive oracle, then the semi-naive driver
    /// under each join kernel.
    fn every_driver(program: &Program, db: &Database) -> Vec<ChaseResult> {
        let mut results = vec![chase_naive(program, db)];
        results.extend(engines().iter().map(|engine| engine.run(program, db)));
        results
    }

    #[test]
    fn upward_navigation_rule7_generates_patient_unit() {
        let program =
            parse_program("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n")
                .unwrap();
        for result in every_driver(&program, &hospital_db()) {
            assert_eq!(result.termination, TerminationReason::Fixpoint);
            let pu = result.database.relation("PatientUnit").unwrap();
            // Six PatientWard tuples, each rolled up to exactly one unit.
            assert_eq!(pu.len(), 6);
            assert!(pu.contains(&Tuple::from_iter(["Intensive", "Sep/7", "Tom Waits"])));
            assert!(pu.contains(&Tuple::from_iter(["Standard", "Sep/5", "Tom Waits"])));
            assert!(result.violations.is_empty());
            assert_eq!(result.stats.nulls_created, 0);
        }
    }

    #[test]
    fn downward_navigation_rule8_creates_null_shifts() {
        let program =
            parse_program("Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n")
                .unwrap();
        for result in every_driver(&program, &hospital_db()) {
            let shifts = result.database.relation("Shifts").unwrap();
            // Standard unit has 2 wards; Intensive and Terminal have 1 each.
            // WorkingSchedules: Intensive×1, Standard×3, Terminal×1 → 1 + 3*2 + 1 = 8.
            assert_eq!(shifts.len(), 8);
            assert_eq!(result.stats.nulls_created, 8);
            // Mark works in the Standard unit on Sep/9 → shifts in W1 and W2.
            let marks: Vec<_> = shifts
                .iter()
                .filter(|t| t.get(2) == Some(&Value::str("Mark")))
                .collect();
            assert_eq!(marks.len(), 2);
            assert!(marks.iter().all(|t| t.get(3).unwrap().is_null()));
            let wards: Vec<_> = marks.iter().map(|t| *t.get(0).unwrap()).collect();
            assert!(wards.contains(&Value::str("W1")));
            assert!(wards.contains(&Value::str("W2")));
        }
    }

    #[test]
    fn restricted_chase_reaches_fixpoint_and_is_idempotent() {
        let program =
            parse_program("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n")
                .unwrap();
        let first = chase(&program, &hospital_db());
        let second = chase(&program, &first.database);
        assert_eq!(second.stats.tuples_added, 0);
        assert_eq!(second.termination, TerminationReason::Fixpoint);
        assert_eq!(
            first.database.relation("PatientUnit").unwrap().len(),
            second.database.relation("PatientUnit").unwrap().len()
        );
    }

    #[test]
    fn non_terminating_program_hits_round_or_tuple_limit() {
        let program = parse_program("R(y, z) :- R(x, y).\n").unwrap();
        let mut db = Database::new();
        db.insert_values("R", ["a", "b"]).unwrap();
        let engine = ChaseEngine::new(ChaseConfig {
            max_rounds: 10,
            max_new_tuples: 50,
            ..Default::default()
        });
        for result in [engine.run(&program, &db), engine.run_naive(&program, &db)] {
            assert_ne!(result.termination, TerminationReason::Fixpoint);
            assert!(result.stats.tuples_added > 0);
        }
    }

    #[test]
    fn egd_on_distinct_constants_is_a_hard_violation() {
        let program = parse_program(
            "t = t2 :- Thermometer(w, t, n), Thermometer(w2, t2, n2), UnitWard(u, w), UnitWard(u, w2).\n",
        )
        .unwrap();
        let mut db = hospital_db();
        db.insert_values("Thermometer", ["W1", "B1", "Helen"])
            .unwrap();
        db.insert_values("Thermometer", ["W2", "B2", "Susan"])
            .unwrap();
        for result in every_driver(&program, &db) {
            assert!(!result.violations.egd.is_empty());
            assert!(
                !(result.termination == TerminationReason::Fixpoint
                    && result.violations.is_empty())
            );
            let v = &result.violations.egd[0];
            let pair = (v.left, v.right);
            assert!(
                pair == (Value::str("B1"), Value::str("B2"))
                    || pair == (Value::str("B2"), Value::str("B1"))
            );
        }
    }

    /// A rule guarded by `z != "a"` must not fire on an invented null: "a"
    /// is a possible value of the null, so `T(b)` is not a certain fact.
    #[test]
    fn inequality_on_an_invented_null_does_not_fire_a_rule() {
        let program = parse_program(
            "S(x, z) :- P(x).\n\
             T(x) :- S(x, z), z != \"a\".\n",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_values("P", ["b"]).unwrap();
        for result in every_driver(&program, &db) {
            assert_eq!(result.database.relation("S").unwrap().len(), 1);
            assert!(result.database.relation("T").unwrap().is_empty());
        }
    }

    #[test]
    fn negative_constraint_violations_are_reported() {
        // "No patient was in the intensive care unit after August 2005" —
        // modelled here with the Intensive ward W3 and a violating tuple.
        let program =
            parse_program("! :- PatientWard(w, d, p), UnitWard(Intensive, w).\n").unwrap();
        for result in every_driver(&program, &hospital_db()) {
            assert_eq!(result.violations.nc.len(), 1);
            assert_eq!(result.stats.nc_violations, 1);
            assert!(
                !(result.termination == TerminationReason::Fixpoint
                    && result.violations.is_empty())
            );
        }
    }

    /// Every resume reports every violation of the current instance, though
    /// a constraint is re-evaluated only when a relation its body reads
    /// changed: unrelated batches carry the witnesses forward, and inserts,
    /// retractions and negated atoms all bring the answer up to date.
    #[test]
    fn constraint_violations_stay_current_across_resumes() {
        let program = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             ! :- PatientWard(w, d, p), UnitWard(Intensive, w).\n\
             ! :- PatientUnit(u, d, p), not Unit(u).\n\
             Unit(Standard).\nUnit(Intensive).\n",
        )
        .unwrap();
        let engine = ChaseEngine::with_defaults();
        let fact = |relation: &str, values: &[&str]| {
            (
                relation.to_string(),
                Tuple::from_iter(values.iter().copied()),
            )
        };
        let mut state = ChaseState::new(&program, &hospital_db());
        // One patient-day in the intensive ward; no `Terminal` unit declared
        // (no patient is in its ward W4 yet, so nothing refers to it).
        let by_constraint = |result: &ChaseResult| {
            let mut counts = [0usize; 2];
            for violation in &result.violations.nc {
                counts[violation.constraint_index] += 1;
            }
            counts
        };
        assert_eq!(by_constraint(&engine.resume(&program, &mut state)), [1, 0]);
        // A batch touching neither constraint: both are carried forward.
        state
            .insert_batch([fact(
                "WorkingSchedules",
                &["Standard", "Sep/7", "Ann", "cert"],
            )])
            .unwrap();
        assert_eq!(by_constraint(&engine.resume(&program, &mut state)), [1, 0]);
        // A new fact in a body relation, and a derived one under negation.
        state
            .insert_batch([
                fact("PatientWard", &["W3", "Sep/8", "Lou Reed"]),
                fact("PatientWard", &["W4", "Sep/8", "Nick Cave"]),
            ])
            .unwrap();
        assert_eq!(by_constraint(&engine.resume(&program, &mut state)), [2, 1]);
        // Declaring the unit repairs the referential constraint only.
        state.insert_batch([fact("Unit", &["Terminal"])]).unwrap();
        assert_eq!(by_constraint(&engine.resume(&program, &mut state)), [2, 0]);
        // A retraction withdraws the witnesses it supported.
        let mut surviving = hospital_db();
        surviving
            .insert_values("PatientWard", ["W4", "Sep/8", "Nick Cave"])
            .unwrap();
        let gone = [
            fact("PatientWard", &["W3", "Sep/8", "Lou Reed"]),
            fact("PatientWard", &["W3", "Sep/7", "Tom Waits"]),
        ];
        let result = engine.retract(&program, &mut state, &surviving, &gone);
        assert_eq!(by_constraint(&result.chase), [0, 0]);
    }

    /// EGDs are checked exactly like negative constraints: a batch that
    /// makes two distinct constants meet is reported, every later resume
    /// reports the clash again, and a resume whose batch touches no relation
    /// the EGD reads does not re-evaluate its body.
    #[test]
    fn egd_violations_stay_current_across_resumes() {
        let program = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             t = t2 :- Thermometer(w, t, n), Thermometer(w2, t2, n2), UnitWard(u, w), UnitWard(u, w2).\n",
        )
        .unwrap();
        let engine = ChaseEngine::with_defaults();
        let fact =
            |relation: &str, values: [&str; 3]| (relation.to_string(), Tuple::from_iter(values));
        let mut state = ChaseState::new(&program, &hospital_db());
        state
            .insert_batch([fact("Thermometer", ["W1", "B1", "Helen"])])
            .unwrap();
        assert!(engine
            .resume(&program, &mut state)
            .violations
            .egd
            .is_empty());

        // W2 shares the Standard unit with W1 but uses another brand.
        state
            .insert_batch([fact("Thermometer", ["W2", "B2", "Susan"])])
            .unwrap();
        let clash = engine.resume(&program, &mut state).violations.egd;
        let mut pairs: Vec<_> = clash.iter().map(|v| (v.left, v.right)).collect();
        pairs.sort();
        assert_eq!(
            pairs,
            [
                (Value::str("B1"), Value::str("B2")),
                (Value::str("B2"), Value::str("B1"))
            ]
        );

        // An unrelated batch: the clash is reported again from the memo.
        let memo = |state: &ChaseState| {
            let checked = state.checked_egds[0].as_ref().expect("checked");
            checked.witnesses.as_ptr()
        };
        let before = memo(&state);
        state
            .insert_batch([fact("PatientWard", ["W1", "Sep/10", "Nick Cave"])])
            .unwrap();
        let later = engine.resume(&program, &mut state);
        assert_eq!(later.stats.tuples_added, 1);
        assert_eq!(later.violations.egd, clash);
        assert_eq!(memo(&state), before, "the EGD body was re-evaluated");
    }

    #[test]
    fn referential_constraint_with_negation() {
        let program = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             ! :- PatientUnit(u, d, p), not Unit(u).\n\
             Unit(Standard).\nUnit(Intensive).\nUnit(Terminal).\n",
        )
        .unwrap();
        let result = chase(&program, &hospital_db());
        // Every generated unit is declared → no violation.
        assert!(result.violations.nc.is_empty());

        // Drop one Unit fact → violations appear.
        let program2 = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             ! :- PatientUnit(u, d, p), not Unit(u).\n\
             Unit(Standard).\nUnit(Terminal).\n",
        )
        .unwrap();
        let result2 = chase(&program2, &hospital_db());
        assert!(!result2.violations.nc.is_empty());
    }

    #[test]
    fn conjunctive_head_rule_10_links_fresh_unit() {
        // Rule (9) of the paper: DischargePatients generates PatientUnit with
        // an unknown unit, plus the InstitutionUnit link for that unit.
        let program = parse_program(
            "InstitutionUnit(i, u), PatientUnit(u, d, p) :- DischargePatients(i, d, p).\n",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_values("DischargePatients", ["H1", "Sep/9", "Tom Waits"])
            .unwrap();
        for result in every_driver(&program, &db) {
            let iu = result.database.relation("InstitutionUnit").unwrap();
            let pu = result.database.relation("PatientUnit").unwrap();
            assert_eq!(iu.len(), 1);
            assert_eq!(pu.len(), 1);
            // The same fresh null links both atoms.
            let unit_in_iu = *iu.tuples()[0].get(1).unwrap();
            let unit_in_pu = *pu.tuples()[0].get(0).unwrap();
            assert!(unit_in_iu.is_null());
            assert_eq!(unit_in_iu, unit_in_pu);
            assert_eq!(result.stats.nulls_created, 1);
        }
    }

    #[test]
    fn chase_does_not_mutate_the_input_database() {
        let program =
            parse_program("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n")
                .unwrap();
        let db = hospital_db();
        let before = db.total_tuples();
        let _ = chase(&program, &db);
        assert_eq!(db.total_tuples(), before);
        assert!(!db.has_relation("PatientUnit"));
    }

    #[test]
    fn facts_from_the_program_are_loaded() {
        let program =
            parse_program("Unit(Standard).\nUnit(Intensive).\nCopy(x) :- Unit(x).\n").unwrap();
        let result = chase(&program, &Database::new());
        assert_eq!(result.database.relation("Unit").unwrap().len(), 2);
        assert_eq!(result.database.relation("Copy").unwrap().len(), 2);
    }

    // ------------------------------------------------------------------
    // Semi-naive vs naive agreement.
    // ------------------------------------------------------------------

    #[test]
    fn seminaive_matches_naive_on_recursive_datalog() {
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "e")] {
            db.insert_values("E", [a, b]).unwrap();
        }
        let naive = chase_naive(&program, &db);
        let semi = chase(&program, &db);
        assert_eq!(naive.termination, TerminationReason::Fixpoint);
        assert_eq!(semi.termination, TerminationReason::Fixpoint);
        let nt: std::collections::BTreeSet<_> =
            naive.database.relation("T").unwrap().iter().collect();
        let st: std::collections::BTreeSet<_> =
            semi.database.relation("T").unwrap().iter().collect();
        assert_eq!(nt, st);
        // The semi-naive run considers strictly fewer (or equally many)
        // satisfied triggers than full re-evaluation every round.
        assert!(semi.stats.triggers_satisfied <= naive.stats.triggers_satisfied);
    }

    // ------------------------------------------------------------------
    // Resumable / incremental chase.
    // ------------------------------------------------------------------

    #[test]
    fn first_resume_equals_a_full_chase() {
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            db.insert_values("E", [a, b]).unwrap();
        }
        let scratch = chase(&program, &db);
        let mut state = ChaseState::new(&program, &db);
        let resumed = chase_incremental(&program, &mut state);
        assert_eq!(resumed.termination, TerminationReason::Fixpoint);
        assert_eq!(
            resumed.database.relation("T").unwrap().len(),
            scratch.database.relation("T").unwrap().len()
        );
        assert_eq!(resumed.stats.tuples_added, scratch.stats.tuples_added);
    }

    #[test]
    fn incremental_rechase_matches_from_scratch_and_is_cheaper() {
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap();
        let mut db = Database::new();
        for i in 0..20 {
            db.insert_values("E", [format!("n{i}"), format!("n{}", i + 1)])
                .unwrap();
        }
        let mut state = ChaseState::new(&program, &db);
        let initial = chase_incremental(&program, &mut state);
        assert_eq!(initial.termination, TerminationReason::Fixpoint);

        // Append one edge and re-chase incrementally.
        let added = state
            .insert_batch([("E".to_string(), Tuple::from_iter(["n20", "n21"]))])
            .unwrap();
        assert_eq!(added, 1);
        let incremental = chase_incremental(&program, &mut state);
        assert_eq!(incremental.termination, TerminationReason::Fixpoint);

        let mut full_db = db.clone();
        full_db.insert_values("E", ["n20", "n21"]).unwrap();
        let scratch = chase(&program, &full_db);
        let st: std::collections::BTreeSet<_> =
            scratch.database.relation("T").unwrap().iter().collect();
        let it: std::collections::BTreeSet<_> =
            incremental.database.relation("T").unwrap().iter().collect();
        assert_eq!(st, it);
        // The incremental step only derived the new paths (those ending in
        // n21), a strict subset of the full re-derivation.
        assert!(incremental.stats.tuples_added < scratch.stats.tuples_added);
        assert_eq!(incremental.stats.tuples_added, 21);
    }

    #[test]
    fn resume_empty_batch_is_a_cheap_noop() {
        let program =
            parse_program("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n")
                .unwrap();
        let mut state = ChaseState::new(&program, &hospital_db());
        let _ = chase_incremental(&program, &mut state);
        let again = chase_incremental(&program, &mut state);
        assert_eq!(again.stats.tuples_added, 0);
        assert_eq!(again.stats.triggers_fired, 0);
        assert_eq!(again.termination, TerminationReason::Fixpoint);
    }

    /// Round-tripping a state through its persisted parts must be invisible
    /// to the resumable path: a state rebuilt with `from_parts` resumes
    /// exactly like the original (same incremental derivations, no spurious
    /// re-evaluation of old rows, no null collisions).
    #[test]
    fn state_rebuilt_from_parts_resumes_identically() {
        let program =
            parse_program("Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n")
                .unwrap();
        let mut live = ChaseState::new(&program, &hospital_db());
        let _ = chase_incremental(&program, &mut live);

        let mut rebuilt = ChaseState::from_parts(
            live.database().clone(),
            live.tgd_floors().to_vec(),
            live.next_null(),
        );
        assert_eq!(rebuilt.next_null(), live.next_null());
        assert_eq!(rebuilt.tgd_floors(), live.tgd_floors());

        let batch = [(
            "WorkingSchedules".to_string(),
            Tuple::from_iter(["Intensive", "Sep/9", "Rita", "cert"]),
        )];
        live.insert_batch(batch.clone()).unwrap();
        rebuilt.insert_batch(batch).unwrap();
        let from_live = chase_incremental(&program, &mut live);
        let from_rebuilt = chase_incremental(&program, &mut rebuilt);
        assert_eq!(
            from_rebuilt.stats.tuples_added,
            from_live.stats.tuples_added
        );
        assert_eq!(
            from_rebuilt.stats.triggers_fired,
            from_live.stats.triggers_fired
        );
        assert_eq!(
            from_rebuilt.database.total_tuples(),
            from_live.database.total_tuples()
        );
        // A stale persisted null counter is clamped above the database's
        // nulls rather than trusted.
        let clamped = ChaseState::from_parts(live.database().clone(), vec![], 0);
        assert!(clamped.next_null() > live.database().max_null_id().unwrap_or(0));
    }

    #[test]
    fn fresh_nulls_after_resume_do_not_collide() {
        let program =
            parse_program("Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n")
                .unwrap();
        let mut state = ChaseState::new(&program, &hospital_db());
        let initial = chase_incremental(&program, &mut state);
        let nulls_before = initial.database.nulls().len();
        // A new schedule row triggers downward navigation again → new nulls,
        // distinct from all existing ones.
        state
            .insert_batch([(
                "WorkingSchedules".to_string(),
                Tuple::from_iter(["Intensive", "Sep/9", "Rita", "cert"]),
            )])
            .unwrap();
        let resumed = chase_incremental(&program, &mut state);
        assert_eq!(resumed.stats.nulls_created, 1);
        assert_eq!(resumed.database.nulls().len(), nulls_before + 1);
    }

    #[test]
    fn insert_batch_rejects_bad_batches_atomically() {
        let program = parse_program("T(x, y) :- E(x, y).\n").unwrap();
        let mut db = Database::new();
        db.insert_values("E", ["a", "b"]).unwrap();
        let mut state = ChaseState::new(&program, &db);
        // A bad fact anywhere in the batch rejects the whole batch: the
        // valid leading fact must not be applied.
        let before = state.database().total_tuples();
        let err = state.insert_batch([
            ("E".to_string(), Tuple::from_iter(["c", "d"])),
            ("E".to_string(), Tuple::from_iter(["only-one"])),
        ]);
        assert!(err.is_err());
        assert_eq!(state.database().total_tuples(), before);
        // Two facts disagreeing on a brand-new relation's arity are rejected
        // too.
        let err = state.insert_batch([
            ("Fresh".to_string(), Tuple::from_iter(["x"])),
            ("Fresh".to_string(), Tuple::from_iter(["x", "y"])),
        ]);
        assert!(err.is_err());
        assert!(!state.database().has_relation("Fresh"));
    }

    #[test]
    fn seminaive_builds_indexes_for_rule_bodies() {
        let program =
            parse_program("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n")
                .unwrap();
        let result = chase(&program, &hospital_db());
        // The join variable w sits at PatientWard.0 and UnitWard.1.
        assert!(result
            .database
            .relation("PatientWard")
            .unwrap()
            .has_index(0));
        assert!(result.database.relation("UnitWard").unwrap().has_index(1));
        // The naive reference driver builds the same indexes, so driver
        // comparisons isolate the delta-evaluation gain.
        let naive = chase_naive(&program, &hospital_db());
        assert!(naive.database.relation("PatientWard").unwrap().has_index(0));
    }

    // ------------------------------------------------------------------
    // Demand-driven (magic-set) chase.
    // ------------------------------------------------------------------

    /// The certain answers to `query` over `db`, as sorted ground tuples.
    fn certain(db: &Database, query: &ontodq_datalog::Conjunction) -> Vec<Tuple> {
        let vars = query.variables();
        let mut out: Vec<Tuple> = crate::eval::evaluate_project(db, query, &vars)
            .into_iter()
            .filter(|t| t.is_ground())
            .collect();
        out.sort();
        out
    }

    fn query_body(text: &str) -> ontodq_datalog::Conjunction {
        match ontodq_datalog::parse_rule(&format!("! :- {text}")).unwrap() {
            ontodq_datalog::Rule::Constraint(nc) => nc.body,
            other => panic!("expected a body, got {other}"),
        }
    }

    #[test]
    fn demand_chase_answers_equal_full_chase_answers() {
        let program = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n",
        )
        .unwrap();
        let db = hospital_db();
        let full = chase(&program, &db);
        for text in [
            "PatientUnit(u, d, p), p = \"Tom Waits\".",
            "PatientUnit(Standard, d, p).",
            "Shifts(W2, d, n, s).",
            "PatientUnit(u, d, p).",
        ] {
            let query = query_body(text);
            let demanded = ChaseEngine::with_defaults().chase_for_query(&program, &db, &query);
            assert_eq!(
                certain(&demanded.database, &query),
                certain(&full.database, &query),
                "demand answers diverge for {text}"
            );
        }
    }

    #[test]
    fn demand_chase_does_less_work_for_selective_queries() {
        let program =
            parse_program("PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n")
                .unwrap();
        let db = hospital_db();
        let full = chase(&program, &db);
        let query = query_body("PatientUnit(u, d, p), p = \"Lou Reed\".");
        let demanded = ChaseEngine::with_defaults().chase_for_query(&program, &db, &query);
        // Only Lou Reed's two ward rows roll up; the full chase derives six.
        assert_eq!(demanded.stats.tuples_added, 2);
        assert_eq!(full.stats.tuples_added, 6);
        assert!(
            demanded.database.relation("PatientUnit").unwrap().len()
                < full.database.relation("PatientUnit").unwrap().len()
        );
    }

    #[test]
    fn demand_chase_prunes_irrelevant_relations_and_rules() {
        let program = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n",
        )
        .unwrap();
        let db = hospital_db();
        let query = query_body("PatientUnit(u, d, p), p = \"Tom Waits\".");
        let demanded = ChaseEngine::with_defaults().chase_for_query(&program, &db, &query);
        // The Shifts rule (and its null invention) never runs, and the
        // WorkingSchedules relation is not even copied.
        assert_eq!(demanded.stats.nulls_created, 0);
        assert!(!demanded.database.has_relation("WorkingSchedules"));
        assert!(!demanded.database.has_relation("Shifts"));
    }

    #[test]
    fn demand_chase_agrees_under_recursion() {
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap();
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("x", "y")] {
            db.insert_values("E", [a, b]).unwrap();
        }
        let full = chase(&program, &db);
        let query = query_body("T(s, y), s = \"a\".");
        let demanded = ChaseEngine::with_defaults().chase_for_query(&program, &db, &query);
        assert_eq!(
            certain(&demanded.database, &query),
            certain(&full.database, &query)
        );
        // The x→y component is never explored.
        assert!(demanded.stats.tuples_added < full.stats.tuples_added);
    }

    #[test]
    fn demand_chase_works_with_every_strategy() {
        let program = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n",
        )
        .unwrap();
        let db = hospital_db();
        let full = chase(&program, &db);
        let query = query_body("PatientUnit(u, d, p), p = \"Tom Waits\".");
        let expected = certain(&full.database, &query);
        for engine in engines() {
            let demanded = engine.chase_for_query(&program, &db, &query);
            assert_eq!(certain(&demanded.database, &query), expected);
        }
    }

    // ------------------------------------------------------------------
    // Delete-and-rederive (DRed) retraction.
    // ------------------------------------------------------------------

    fn closure_program() -> Program {
        parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap()
    }

    fn edge_facts(edges: &[(&str, &str)]) -> Database {
        let mut db = Database::new();
        for (a, b) in edges {
            db.insert_values("E", [*a, *b]).unwrap();
        }
        db
    }

    fn relation_tuples(db: &Database, name: &str) -> HashSet<Tuple> {
        db.relation(name)
            .map(|r| r.iter().collect())
            .unwrap_or_default()
    }

    #[test]
    fn retract_cascades_and_rederives_alternative_supports() {
        let program = closure_program();
        // a→b→c plus the direct edge a→c: T(a,c) has two supports.
        let db = edge_facts(&[("a", "b"), ("b", "c"), ("a", "c")]);
        let engine = ChaseEngine::with_defaults();
        let mut state = ChaseState::new(&program, &db);
        engine.resume(&program, &mut state);
        assert_eq!(state.database().relation("T").unwrap().len(), 3);

        let protected = edge_facts(&[("b", "c"), ("a", "c")]);
        let result = engine.retract(
            &program,
            &mut state,
            &protected,
            &[("E".to_string(), Tuple::from_iter(["a", "b"]))],
        );
        assert_eq!(result.stats.requested, 1);
        assert_eq!(result.stats.retracted, 1);
        // The over-approximation condemns T(a,b) and T(a,c); T(a,c) comes
        // back from its surviving direct-edge support.
        assert!(result.stats.cascaded >= 2);
        assert!(result.stats.rederived >= 1);
        let t = relation_tuples(state.database(), "T");
        assert!(!t.contains(&Tuple::from_iter(["a", "b"])));
        assert!(t.contains(&Tuple::from_iter(["a", "c"])));
        assert!(t.contains(&Tuple::from_iter(["b", "c"])));
        // Equivalence with a fresh chase of the surviving EDB.
        let fresh = chase(&program, &protected);
        assert_eq!(t, relation_tuples(&fresh.database, "T"));
        assert_eq!(
            relation_tuples(state.database(), "E"),
            relation_tuples(&fresh.database, "E"),
        );
    }

    #[test]
    fn retract_of_simultaneous_deletions_is_computed_before_tombstoning() {
        // A 2-cycle: deleting both edges at once must condemn everything,
        // even though each deletion hides the other's triggers.
        let program = closure_program();
        let db = edge_facts(&[("a", "b"), ("b", "a")]);
        let engine = ChaseEngine::with_defaults();
        let mut state = ChaseState::new(&program, &db);
        engine.resume(&program, &mut state);
        let protected = Database::new();
        let result = engine.retract(
            &program,
            &mut state,
            &protected,
            &[
                ("E".to_string(), Tuple::from_iter(["a", "b"])),
                ("E".to_string(), Tuple::from_iter(["b", "a"])),
            ],
        );
        assert_eq!(result.stats.retracted, 2);
        assert_eq!(result.stats.rederived, 0);
        assert!(state.database().relation("E").unwrap().is_empty());
        assert!(state.database().relation("T").unwrap().is_empty());
    }

    #[test]
    fn retract_missing_fact_is_a_noop() {
        let program = closure_program();
        let db = edge_facts(&[("a", "b")]);
        let engine = ChaseEngine::with_defaults();
        let mut state = ChaseState::new(&program, &db);
        engine.resume(&program, &mut state);
        let result = engine.retract(
            &program,
            &mut state,
            &db,
            &[("E".to_string(), Tuple::from_iter(["x", "y"]))],
        );
        assert_eq!(result.stats.requested, 1);
        assert_eq!(result.stats.retracted, 0);
        assert_eq!(result.stats.cascaded, 0);
        assert_eq!(state.database().relation("T").unwrap().len(), 1);
    }

    #[test]
    fn retract_condemns_existential_consequences_by_frontier_positions() {
        // Shifts(w, d, n, z) invents a null per (schedule, ward) pair; the
        // null position is existential, so the cascade must find the
        // consequence rows through their frontier-ground positions.
        let program =
            parse_program("Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n")
                .unwrap();
        let db = hospital_db();
        let engine = ChaseEngine::with_defaults();
        let mut state = ChaseState::new(&program, &db);
        engine.resume(&program, &mut state);
        assert_eq!(state.database().relation("Shifts").unwrap().len(), 8);

        // Delete Cathy's Intensive schedule: exactly her W3 shift must go.
        let mut protected = db.clone();
        let cathy = Tuple::from_iter(["Intensive", "Sep/5", "Cathy", "cert"]);
        protected
            .relation_mut("WorkingSchedules")
            .unwrap()
            .delete(&cathy);
        let result = engine.retract(
            &program,
            &mut state,
            &protected,
            &[("WorkingSchedules".to_string(), cathy)],
        );
        assert_eq!(result.stats.retracted, 1);
        assert_eq!(result.stats.cascaded, 1);
        let shifts = state.database().relation("Shifts").unwrap();
        assert_eq!(shifts.len(), 7);
        assert!(!shifts
            .iter()
            .any(|t| t.get(2) == Some(&Value::str("Cathy"))));
        // Fresh-chase equivalence modulo null renaming: compare the
        // null-free projections.
        let fresh = chase(&program, &protected);
        let project = |db: &Database| -> HashSet<Tuple> {
            db.relation("Shifts")
                .map(|r| {
                    r.iter()
                        .map(|t| Tuple::new(t.values()[..3].to_vec()))
                        .collect()
                })
                .unwrap_or_default()
        };
        assert_eq!(project(state.database()), project(&fresh.database));
    }

    #[test]
    fn retract_keeps_incremental_inserts_working_afterwards() {
        // Interleave: insert, chase, retract, insert again — the watermarks
        // must stay exact through the whole sequence.
        let program = closure_program();
        let engine = ChaseEngine::with_defaults();
        let mut state = ChaseState::new(&program, &edge_facts(&[("a", "b")]));
        engine.resume(&program, &mut state);
        state
            .insert_batch([("E".to_string(), Tuple::from_iter(["b", "c"]))])
            .unwrap();
        engine.resume(&program, &mut state);
        assert_eq!(state.database().relation("T").unwrap().len(), 3);

        let protected = edge_facts(&[("b", "c")]);
        engine.retract(
            &program,
            &mut state,
            &protected,
            &[("E".to_string(), Tuple::from_iter(["a", "b"]))],
        );
        assert_eq!(state.database().relation("T").unwrap().len(), 1);

        state
            .insert_batch([("E".to_string(), Tuple::from_iter(["c", "d"]))])
            .unwrap();
        engine.resume(&program, &mut state);
        let expected = chase(&program, &edge_facts(&[("b", "c"), ("c", "d")]));
        assert_eq!(
            relation_tuples(state.database(), "T"),
            relation_tuples(&expected.database, "T"),
        );
    }

    #[test]
    fn demand_chase_never_checks_constraints() {
        let program = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             ! :- PatientUnit(u, d, p), not Unit(u).\n",
        )
        .unwrap();
        let query = query_body("PatientUnit(u, d, p).");
        let demanded =
            ChaseEngine::with_defaults().chase_for_query(&program, &hospital_db(), &query);
        // The full chase would flag every generated unit; the demand path
        // answers the query without auditing.
        assert!(demanded.violations.is_empty());
        assert_eq!(demanded.termination, TerminationReason::Fixpoint);
    }

    /// A full rule plus an existential rule over the hospital fixture, so
    /// the profiler is exercised on both the staged and the fire-trigger
    /// paths.
    fn profiled_program() -> Program {
        parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n",
        )
        .unwrap()
    }

    #[test]
    fn profile_counts_agree_with_stats_across_strategies() {
        let program = profiled_program();
        for (driver, result) in every_driver(&program, &hospital_db())
            .into_iter()
            .enumerate()
        {
            let profile = &result.profile;
            assert!(profile.enabled, "profiling is on by default");
            assert_eq!(profile.rules.len(), program.tgds.len());
            let fires: u64 = profile.rules.iter().map(|r| r.fires).sum();
            let satisfied: u64 = profile.rules.iter().map(|r| r.satisfied).sum();
            let added: u64 = profile.rules.iter().map(|r| r.tuples_added).sum();
            assert_eq!(fires, result.stats.triggers_fired as u64, "driver {driver}");
            assert_eq!(satisfied, result.stats.triggers_satisfied as u64);
            assert_eq!(added, result.stats.tuples_added as u64);
            // Every rule was evaluated at least once per executed round,
            // and each evaluation chose exactly one join kernel.
            for rule in &profile.rules {
                assert!(rule.evaluations >= 1);
                assert_eq!(rule.hash_evals + rule.wco_evals, rule.evaluations);
                assert!(!rule.label.is_empty());
            }
        }
    }

    #[test]
    fn profile_can_be_disabled() {
        let program = profiled_program();
        let config = ChaseConfig {
            profile: false,
            ..Default::default()
        };
        let result = ChaseEngine::new(config).run(&program, &hospital_db());
        assert!(!result.profile.enabled);
        assert!(result.profile.rules.is_empty());
        assert_eq!(result.profile.total_micros, 0);
    }

    #[test]
    fn profile_times_through_the_injected_clock() {
        // A frozen virtual clock forces every measured duration to zero —
        // the determinism contract the record/replay harness relies on.
        let program = profiled_program();
        let engine = ChaseEngine::with_defaults().with_clock(ontodq_obs::frozen());
        let result = engine.run(&program, &hospital_db());
        assert!(result.profile.enabled);
        assert_eq!(result.profile.total_micros, 0);
        assert_eq!(result.profile.join_micros(), 0);
        assert_eq!(result.profile.egd_micros, 0);
    }
}
