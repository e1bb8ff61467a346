//! The assessment pipeline: map `D` into the context, chase, and extract the
//! quality versions `S^q` (Fig. 2 of the paper, left to right).
//!
//! Two entry points are provided: [`assess`] runs the whole pipeline once
//! (batch mode), while [`ResumableAssessment`] keeps the chase
//! state alive so update batches can be folded in with an **incremental
//! re-chase** ([`ontodq_chase::ChaseEngine::resume`]) instead of starting
//! from scratch — the write path of `ontodq-server`.

use crate::context::{Context, ContextError};
use crate::metrics::{QualityMetrics, RelationQuality};
use ontodq_chase::{
    ensure_demand_indexes, ChaseConfig, ChaseEngine, ChaseResult, ChaseState, RetractResult,
};
use ontodq_datalog::{lint_with, LintReport, Program};
use ontodq_mdm::compile;
use ontodq_relational::{same_relation, Database, RelationInstance, RelationSchema, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The result of assessing an instance against a context.
#[derive(Debug, Clone)]
pub struct AssessmentResult {
    /// The full chased contextual instance: contextual copies, ontology data,
    /// generated categorical data, quality predicates and quality versions.
    pub contextual_instance: Database,
    /// The quality versions of the original relations, under their *original*
    /// names and schemas — the instance `D^q` of the paper.
    pub quality_database: Database,
    /// Per-relation quality metrics comparing `D` with `D^q`.
    pub metrics: QualityMetrics,
    /// The chase result (statistics, violations, profile).
    pub chase: ChaseResult,
}

impl AssessmentResult {
    /// The quality version of `relation` (tuples of `{relation}_q`, renamed
    /// back to the original schema).  Unknown relations yield an empty list.
    pub fn quality_tuples(&self, relation: &str) -> Vec<Tuple> {
        self.quality_database
            .relation(relation)
            .map(|r| r.tuples().to_vec())
            .unwrap_or_default()
    }
}

/// Assess `instance` against `context`.
pub fn assess(context: &Context, instance: &Database) -> AssessmentResult {
    let (program, database) = compile_context(context, instance);

    // Chase, under the program's termination certificate: a
    // certified-terminating program hitting the tuple budget becomes an
    // error diagnostic instead of silent truncation.
    let chase = certified_engine(
        ontodq_datalog::TerminationCertificate::of_program(&program),
        ontodq_obs::monotonic(),
    )
    .run(&program, &database);

    // Extract quality versions and metrics.
    let (quality_database, metrics) = extract_quality(context, instance, &chase.database);

    AssessmentResult {
        contextual_instance: chase.database.clone(),
        quality_database,
        metrics,
        chase,
    }
}

/// Steps 1–4 of the pipeline: compile the ontology, map `instance` into the
/// context under the contextual names, merge external sources, and append
/// the context's own rules — yielding the Datalog± program and the
/// pre-chase contextual instance.
///
/// Exposed so demand-driven callers (and benchmarks) can obtain the
/// program/instance pair once and then answer many queries without paying
/// the full chase — see [`crate::clean_query::quality_answers_on_demand`].
pub fn compile_context(context: &Context, instance: &Database) -> (Program, Database) {
    // 1. Compile the multidimensional ontology.
    let compiled = compile(&context.ontology);
    let mut database = compiled.database.clone();
    let mut program = compiled.program.clone();

    // 2. Map the instance under assessment into the context: contextual
    //    copies keep the original tuples under the contextual names.
    for mapping in &context.mappings {
        if let Ok(relation) = instance.relation(mapping.original()) {
            let contextual =
                database.relation_or_create(mapping.contextual(), relation.schema().arity());
            for tuple in relation.iter() {
                contextual.insert_unchecked(tuple.clone());
            }
        }
    }

    // 3. External sources become part of the contextual instance.
    //    `ContextBuilder::build` refused every external relation whose arity
    //    differs from the ontology's or that shadows a contextual copy, so
    //    the merge only adds relations or unions same-arity ones.
    let merged = database.merge(&context.external_sources);
    debug_assert!(merged.is_ok(), "a built context merges: {merged:?}");

    // 4. The context's own rules (contextual predicates, quality predicates,
    //    quality versions) join the program.
    program.tgds.extend(context.context_rules());

    (program, database)
}

/// Statically analyse the compiled program of `context` over `instance`:
/// run `ontodq-lint` with the deployment knowledge only the pipeline has —
/// the extensional relations the pre-chase contextual instance actually
/// provides, and the context's goal predicates (its quality predicates and versions) as the
/// reachability goals.
///
/// The report's [`ontodq_datalog::TerminationCertificate`] is what
/// [`ResumableAssessment`] hands to the chase engine; its error-severity
/// diagnostics are what `ontodq-server` rejects registrations over
/// ([`crate::context::ContextError::Rejected`]).
pub fn lint_context(context: &Context, instance: &Database) -> LintReport {
    let (program, database) = compile_context(context, instance);
    lint_compiled(context, &program, &database)
}

/// The default chase engine, running under `certificate` and timing its
/// profile on `clock`.
fn certified_engine(
    certificate: ontodq_datalog::TerminationCertificate,
    clock: ontodq_obs::SharedClock,
) -> ChaseEngine {
    ChaseEngine::new(ChaseConfig {
        certificate: Some(certificate),
        ..ChaseConfig::default()
    })
    .with_clock(clock)
}

/// [`lint_context`] for an already-compiled program/instance pair.
fn lint_compiled(context: &Context, program: &Program, database: &Database) -> LintReport {
    let edb: BTreeSet<String> = database
        .relation_names()
        .into_iter()
        .map(str::to_string)
        .collect();
    lint_with(program, Some(&edb), &context.goal_predicates())
}

/// Steps 6–7 of the pipeline: extract the quality versions under the
/// original names/schemas from a chased contextual instance, and compute the
/// per-relation departure metrics against `instance`.
///
/// Exposed so long-lived services (`ontodq-server`) can re-extract after an
/// incremental re-chase without re-running the whole pipeline.
pub(crate) fn extract_quality(
    context: &Context,
    instance: &Database,
    chased: &Database,
) -> (Database, QualityMetrics) {
    let mut quality_database = Database::new();
    let mut metrics = QualityMetrics::default();
    for (original, spec) in &context.quality_versions {
        let (version, quality) = extract_relation(
            original,
            instance.relation(original).ok(),
            chased.relation(&spec.quality_name).ok(),
        );
        quality_database.insert_relation(version);
        metrics.relations.insert(original.clone(), quality);
    }
    (quality_database, metrics)
}

/// One relation's share of [`extract_quality`]: the quality version of
/// `original` — the ground tuples of its chased `…_q` relation `source`,
/// under the original name and schema — and its departure metrics against
/// the `assessed` relation of the instance.  A missing `source` yields an
/// empty quality version (created anyway, so callers can distinguish "empty
/// quality version" from "not assessed").
fn extract_relation(
    original: &str,
    assessed: Option<&RelationInstance>,
    source: Option<&RelationInstance>,
) -> (RelationInstance, RelationQuality) {
    let schema = assessed
        .map(|r| r.schema().clone())
        .unwrap_or_else(|| RelationSchema::untyped(original, 0));
    let mut version = RelationInstance::new(schema);
    let mut quality_tuples = Vec::new();
    for tuple in source.into_iter().flat_map(RelationInstance::iter) {
        // Quality versions are certain data: drop tuples with nulls (and
        // any the original schema rejects).
        if tuple.is_ground() && version.insert(tuple.clone()).unwrap_or(false) {
            quality_tuples.push(tuple);
        }
    }
    let original_tuples = assessed.map(RelationInstance::tuples).unwrap_or_default();
    let quality = RelationQuality::compare(original, &original_tuples, &quality_tuples);
    (version, quality)
}

/// The outcome of folding one update batch into a [`ResumableAssessment`].
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Number of genuinely new extensional tuples the batch contributed.
    pub new_facts: usize,
    /// The incremental re-chase step: a snapshot of the chased contextual
    /// instance plus the statistics and violations of this step only.
    pub chase: ChaseResult,
}

/// A long-lived assessment that folds update batches in with an incremental
/// re-chase instead of re-running the pipeline from scratch.
///
/// The batch pipeline ([`assess`]) recompiles, re-maps and re-chases the
/// whole contextual instance on every call.  `ResumableAssessment` compiles
/// once, chases once, and then keeps the [`ChaseState`] (per-rule epoch
/// watermarks, null counter, working instance) alive; each
/// [`ResumableAssessment::insert_batch`] stamps the new facts into the delta
/// and resumes the chase, so the work done is proportional to the update and
/// its consequences.  This is the write path behind the snapshot-swapping
/// `QualityService` of the `ontodq-server` crate.
///
/// Facts whose predicate is a mapped original relation (e.g. `Measurements`
/// when the context maps `Measurements ↦ Measurements_c`) are inserted into
/// the instance under assessment *and* into its contextual copy; all other
/// predicates (categorical relations, parent–child predicates, external
/// data) go directly into the contextual instance.
#[derive(Debug, Clone)]
pub struct ResumableAssessment {
    context: Context,
    program: Program,
    instance: Database,
    /// The pre-chase contextual instance (compiled ontology data, contextual
    /// copies, external sources, plus every applied batch fact): the
    /// extensional base the demand-driven query path chases from.
    base: Database,
    engine: ChaseEngine,
    state: ChaseState,
    /// Violations of the most recent chase step, kept without the instance
    /// snapshot a full [`ChaseResult`] carries: holding that would pin the
    /// superseded version of every relation, so the next batch would copy
    /// each relation it writes even when no snapshot is alive.
    last_violations: ontodq_chase::Violations,
    batches_applied: u64,
    /// Cumulative per-rule chase profile, merged across the initial chase
    /// and every batch folded in since (see
    /// [`ontodq_chase::ChaseProfile`]).
    profile: ontodq_chase::ChaseProfile,
    /// The static-analysis report of the compiled program (computed once at
    /// construction; the program never changes afterwards).
    lint: LintReport,
    /// What [`ResumableAssessment::extract`] produced last time.
    extracted: Extracted,
}

/// The last extraction of a [`ResumableAssessment`], kept so the next one
/// redoes only the relations that changed.
#[derive(Debug, Clone, Default)]
struct Extracted {
    /// Per assessed relation, the two relations its entry was computed from
    /// — the original in the instance and its `…_q` version in the chased
    /// instance — pinned by their shared handles.  Relations are copied on
    /// write, so a handle that is still pointer-identical to the database's
    /// current one proves the relation has not changed since.
    sources: BTreeMap<String, [Option<Arc<RelationInstance>>; 2]>,
    quality: Database,
    metrics: QualityMetrics,
}

impl ResumableAssessment {
    /// Compile `context` over `instance` and run the initial full chase.
    pub fn new(context: Context, instance: Database) -> Self {
        let (program, database) = compile_context(&context, &instance);
        let lint = lint_compiled(&context, &program, &database);
        Self::chase_compiled(
            context,
            instance,
            program,
            database,
            lint,
            ontodq_obs::monotonic(),
        )
    }

    /// Admit `context` over `instance`: compile and lint it once, refuse it
    /// when the lint report carries an error-severity diagnostic, and only
    /// then run the initial full chase.  The profiler times on `clock` (see
    /// [`ontodq_obs::Clock`]) — the server passes its own clock down so
    /// deterministic-replay tests freeze every timing at once.
    ///
    /// # Errors
    /// [`ContextError::Rejected`] with the full diagnostic list when the
    /// program has an error-severity diagnostic (unsafe rules, arity
    /// clashes, a non-separable EGD, …); no chase work has run then.
    pub fn admit(
        context: Context,
        instance: Database,
        clock: ontodq_obs::SharedClock,
    ) -> Result<Self, ContextError> {
        let (program, database) = compile_context(&context, &instance);
        let lint = lint_compiled(&context, &program, &database);
        if lint.error_count() > 0 {
            return Err(ContextError::Rejected(lint.diagnostics));
        }
        Ok(Self::chase_compiled(
            context, instance, program, database, lint, clock,
        ))
    }

    /// Run the initial full chase of a compiled and linted context, under
    /// the lint report's termination certificate.
    fn chase_compiled(
        context: Context,
        instance: Database,
        program: Program,
        mut database: Database,
        lint: LintReport,
        clock: ontodq_obs::SharedClock,
    ) -> Self {
        // Index before sharing: the chase state below starts as a clone of
        // the base, and every snapshot as a clone of both.  With the
        // indexes in place first, the extensional relations the chase never
        // writes stay one shared copy across base, state and snapshots, and
        // a demand chase over the base finds every index it asks for.
        ensure_demand_indexes(&program, &mut database);
        let engine = certified_engine(lint.certificate.clone(), clock);
        let mut state = ChaseState::new(&program, &database);
        let initial = engine.resume(&program, &mut state);
        Self {
            context,
            program,
            instance,
            base: database,
            engine,
            state,
            last_violations: initial.violations,
            batches_applied: 0,
            profile: initial.profile,
            lint,
            extracted: Extracted::default(),
        }
    }

    /// Rebuild an assessment from persisted state **without re-chasing**:
    /// the recovery path of `ontodq-store`.
    ///
    /// `instance` is the persisted instance under assessment `D` and `state`
    /// the persisted [`ChaseState`] (chased contextual instance, per-rule
    /// epoch watermarks, null counter).  The Datalog± program is recompiled
    /// from `context` — compilation is deterministic, so the persisted
    /// watermark vectors line up with the recompiled rule positions.  The
    /// caller then folds any write-ahead-log tail in through the regular
    /// [`ResumableAssessment::insert_batch`] path, each batch paying only an
    /// incremental re-chase.  `clock` times the profiler.
    ///
    /// The last-step statistics start out empty (the step that produced the
    /// persisted state ran in another process).
    pub fn restore_with_clock(
        context: Context,
        instance: Database,
        mut state: ChaseState,
        batches_applied: u64,
        clock: ontodq_obs::SharedClock,
    ) -> Self {
        let (program, mut base) = compile_context(&context, &instance);
        // Recover the extensional base for the demand-driven path: the
        // persisted instance carries the mapped relations, and the chased
        // state's *extensional* relations (never rule heads, so the chase
        // added nothing to them) carry any categorical/external facts that
        // were streamed in before the snapshot.
        for predicate in program.edb_predicates() {
            if let Ok(relation) = state.database().relation(&predicate) {
                for tuple in relation.iter() {
                    let _ = base.insert(&predicate, tuple.clone());
                }
            }
        }
        let lint = lint_compiled(&context, &program, &base);
        // Index before sharing, as at construction (persisted relations
        // come back without indexes; the first resume would otherwise copy
        // every one of them out of the snapshot published in between).
        ensure_demand_indexes(&program, &mut base);
        state.ensure_rule_indexes(&program);
        Self {
            context,
            program,
            instance,
            base,
            engine: certified_engine(lint.certificate.clone(), clock),
            state,
            last_violations: ontodq_chase::Violations::default(),
            batches_applied,
            profile: ontodq_chase::ChaseProfile::disabled(),
            lint,
            extracted: Extracted::default(),
        }
    }

    /// The resumable chase state (chased contextual instance, per-rule epoch
    /// watermarks, null counter) — what persistence layers serialize, and
    /// what [`ResumableAssessment::restore_with_clock`] takes back.
    pub fn state(&self) -> &ChaseState {
        &self.state
    }

    /// The combined Datalog± program (ontology + context rules).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A stable fingerprint of the compiled rule set — TGDs, EGDs and
    /// negative constraints, hashed **in positional order** through the
    /// process-independent [`ontodq_relational::FxHasher`] over their
    /// rendered text.  Persistence layers store it next to a serialized
    /// [`ChaseState`]: the state's watermark vectors are positional, so
    /// they are only meaningful for a program whose rules render
    /// identically at the same positions.  A mismatch at restore time means
    /// the context definition changed since the snapshot and the state
    /// must not be trusted.
    pub fn program_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = ontodq_relational::FxHasher::default();
        self.program.tgds.len().hash(&mut hasher);
        for tgd in &self.program.tgds {
            tgd.to_string().hash(&mut hasher);
        }
        self.program.egds.len().hash(&mut hasher);
        for egd in &self.program.egds {
            egd.to_string().hash(&mut hasher);
        }
        self.program.constraints.len().hash(&mut hasher);
        for nc in &self.program.constraints {
            nc.to_string().hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The instance under assessment `D`, including every batch applied so
    /// far.
    pub fn instance(&self) -> &Database {
        &self.instance
    }

    /// The chased contextual instance (live working copy).
    pub fn contextual(&self) -> &Database {
        self.state.database()
    }

    /// The pre-chase extensional base (compiled ontology data, contextual
    /// copies, external sources, applied batches) — what the demand-driven
    /// query path chases from.
    pub fn base_database(&self) -> &Database {
        &self.base
    }

    /// **Demand-driven quality answers** to `query`: the query is rewritten
    /// so assessed relations read their quality versions, the combined
    /// program is specialized to the query's bound constants (magic-set
    /// transformation), and only the relevant fragment of the extensional
    /// base is chased — routing entirely around the materialized instance.
    ///
    /// The answers equal [`crate::clean_query::quality_answers`] over the
    /// full assessment (certain answers, modulo nothing: both are ground).
    pub fn answer_on_demand(&self, query: &ontodq_qa::ConjunctiveQuery) -> ontodq_qa::AnswerSet {
        let rewritten = crate::clean_query::rewrite_to_quality(&self.context, query);
        ontodq_qa::certain_answers_on_demand(&self.program, &self.base, &rewritten)
    }

    /// Violations observed by the most recent chase step.
    pub fn last_violations(&self) -> &ontodq_chase::Violations {
        &self.last_violations
    }

    /// Number of update batches folded in since construction.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// The cumulative per-rule chase profile across the initial chase and
    /// every batch since — what the server's `!profile` command reports.
    pub fn profile(&self) -> &ontodq_chase::ChaseProfile {
        &self.profile
    }

    /// The static-analysis report of the compiled program (see
    /// [`lint_context`]): every diagnostic, the termination certificate the
    /// chase engine runs under, and the stratification outcome.
    pub fn lint_report(&self) -> &LintReport {
        &self.lint
    }

    /// Fold a batch of new facts in and incrementally re-chase.
    ///
    /// # Errors
    /// Fails when a fact conflicts with its relation's schema.  Both the
    /// instance-under-assessment side and the contextual side of the batch
    /// are validated before anything is applied, so on error the assessment
    /// is unchanged and no re-chase runs (the batch is atomic).
    pub fn insert_batch<I>(&mut self, facts: I) -> ontodq_relational::Result<BatchOutcome>
    where
        I: IntoIterator<Item = (String, Tuple)>,
    {
        let mut staged = Vec::new();
        let mut originals = Vec::new();
        let mut fresh_arities: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for (predicate, tuple) in facts {
            if let Some(contextual) = self.context.contextual_name_of(&predicate) {
                // A mapped original relation: lands in D and in its
                // contextual copy.  Validate the D side now (the contextual
                // side is validated by `ChaseState::insert_batch`); apply
                // only after the whole batch has been validated.
                match self.instance.relation(&predicate) {
                    Ok(relation) => relation.schema().validate(&tuple)?,
                    Err(_) => {
                        let arity = *fresh_arities
                            .entry(predicate.clone())
                            .or_insert(tuple.arity());
                        if arity != tuple.arity() {
                            return Err(ontodq_relational::RelationalError::ArityMismatch {
                                relation: predicate.clone(),
                                expected: arity,
                                actual: tuple.arity(),
                            });
                        }
                    }
                }
                originals.push((predicate, tuple.clone()));
                staged.push((contextual.to_string(), tuple));
            } else {
                staged.push((predicate, tuple));
            }
        }
        // Contextual side first: it validates the full staged batch and
        // applies atomically; only then is the D side (already validated
        // above) applied.
        let new_facts = self.state.insert_batch(staged.iter().cloned())?;
        // The batch also joins the extensional base of the demand-driven
        // query path (the staged side already carries contextual names).
        for (predicate, tuple) in &staged {
            let _ = self.base.insert(predicate, tuple.clone());
        }
        for (predicate, tuple) in originals {
            self.instance
                .insert(&predicate, tuple)
                .expect("the instance side of the batch was validated before application");
        }
        let chase = self.engine.resume(&self.program, &mut self.state);
        self.last_violations = chase.violations.clone();
        self.profile.merge(&chase.profile);
        self.batches_applied += 1;
        Ok(BatchOutcome { new_facts, chase })
    }

    /// Retract a batch of extensional facts and incrementally withdraw their
    /// consequences (delete-and-rederive).
    ///
    /// Facts are named as update batches are: a mapped original relation is
    /// deleted from the instance under assessment *and* from its contextual
    /// copy; other predicates are deleted from the contextual instance
    /// directly.  Facts that are not present are counted in
    /// [`ontodq_chase::RetractStats::requested`] but otherwise ignored.
    pub fn retract_batch<I>(&mut self, facts: I) -> RetractResult
    where
        I: IntoIterator<Item = (String, Tuple)>,
    {
        let mut seeds = Vec::new();
        for (predicate, tuple) in facts {
            if let Some(contextual) = self.context.contextual_name_of(&predicate) {
                let contextual = contextual.to_string();
                if let Ok(relation) = self.instance.relation_mut(&predicate) {
                    relation.delete(&tuple);
                }
                self.base.delete(&contextual, &tuple);
                seeds.push((contextual, tuple));
            } else {
                self.base.delete(&predicate, &tuple);
                seeds.push((predicate, tuple));
            }
        }
        // A long-lived assessment must not pay for every fact it ever
        // retracted (the chase state reclaims its own in `retract`).
        self.instance.compact_sparse();
        self.base.compact_sparse();
        let result = self
            .engine
            .retract(&self.program, &mut self.state, &self.base, &seeds);
        self.last_violations = result.chase.violations.clone();
        self.profile.merge(&result.chase.profile);
        self.batches_applied += 1;
        result
    }

    /// Expand the retraction rules of a parsed `program` — ground `-P(ā).`
    /// retractions and conditional `-P(x̄) :- body.` deletes — into the
    /// concrete facts they condemn **right now**, named under the original
    /// (user-facing) predicates so the list can be fed to
    /// [`ResumableAssessment::retract_batch`].
    ///
    /// Conditional-delete bodies are evaluated against the chased contextual
    /// instance (mapped predicates are rewritten to their contextual names)
    /// by the shared evaluator, so a comparison or negated atom that a
    /// labeled null makes undecidable does not hold; head variables not
    /// bound by the body act as wildcards over the extensional rows of the
    /// head relation.
    pub fn expand_retractions(&self, program: &Program) -> Vec<(String, Tuple)> {
        use ontodq_datalog::{Atom, Conjunction, Term};
        let mut out = Vec::new();
        let mut seen: std::collections::HashSet<(String, Tuple)> = std::collections::HashSet::new();
        for retraction in &program.retractions {
            let atom = retraction.atom();
            let values: Vec<_> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(v) => *v,
                    Term::Var(_) => unreachable!("retractions are ground"),
                })
                .collect();
            let fact = (atom.predicate.clone(), Tuple::new(values));
            if seen.insert(fact.clone()) {
                out.push(fact);
            }
        }
        for delete in &program.deletions {
            let rewrite = |atom: &Atom| -> Atom {
                match self.context.contextual_name_of(&atom.predicate) {
                    Some(contextual) => Atom::new(contextual, atom.terms.clone()),
                    None => atom.clone(),
                }
            };
            let body = Conjunction {
                atoms: delete.body.atoms.iter().map(rewrite).collect(),
                negated: delete.body.negated.iter().map(rewrite).collect(),
                comparisons: delete.body.comparisons.clone(),
            };
            // Wildcard candidates come from the user-visible extensional
            // rows of the head relation.
            let head = &delete.head;
            let candidates: Vec<Tuple> =
                if self.context.contextual_name_of(&head.predicate).is_some() {
                    self.instance
                        .relation(&head.predicate)
                        .map(|r| r.iter().collect())
                        .unwrap_or_default()
                } else {
                    self.base
                        .relation(&head.predicate)
                        .map(|r| r.iter().collect())
                        .unwrap_or_default()
                };
            for assignment in ontodq_chase::evaluate(self.state.database(), &body) {
                for tuple in &candidates {
                    let matches = head.terms.len() == tuple.arity()
                        && head.terms.iter().zip(tuple.values()).all(|(term, value)| {
                            match assignment.apply_term(term) {
                                Term::Const(v) => v == *value,
                                Term::Var(_) => true,
                            }
                        });
                    if matches {
                        let fact = (head.predicate.clone(), tuple.clone());
                        if seen.insert(fact.clone()) {
                            out.push(fact);
                        }
                    }
                }
            }
        }
        out
    }

    /// Extract the current quality versions and metrics (steps 6–7 of the
    /// pipeline) from the live chased instance — the same result as
    /// `extract_quality`, but only the assessed relations whose original
    /// or `…_q` relation changed since the previous call are recomputed;
    /// the rest are carried forward (shared, not copied).
    pub fn extract(&mut self) -> (Database, QualityMetrics) {
        let chased = self.state.database();
        for (original, spec) in &self.context.quality_versions {
            let sources = [
                self.instance.shared_relation(original).cloned(),
                chased.shared_relation(&spec.quality_name).cloned(),
            ];
            let unchanged = self.extracted.sources.get(original).is_some_and(|last| {
                same_relation(last[0].as_ref(), sources[0].as_ref())
                    && same_relation(last[1].as_ref(), sources[1].as_ref())
            });
            if unchanged {
                continue;
            }
            let (version, quality) =
                extract_relation(original, sources[0].as_deref(), sources[1].as_deref());
            self.extracted.quality.insert_relation(version);
            self.extracted
                .metrics
                .relations
                .insert(original.clone(), quality);
            self.extracted.sources.insert(original.clone(), sources);
        }
        (
            self.extracted.quality.clone(),
            self.extracted.metrics.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ResumableAssessment {
        /// The current quality versions and metrics, as [`assess`] over the
        /// accumulated instance reports them.
        fn assessment(&self) -> (Database, QualityMetrics) {
            extract_quality(&self.context, &self.instance, self.state.database())
        }
    }

    fn tuples(quality: &Database, relation: &str) -> Vec<Tuple> {
        quality
            .relation(relation)
            .map(|r| r.tuples().to_vec())
            .unwrap_or_default()
    }
    use crate::scenarios::hospital_context;
    use ontodq_mdm::fixtures::hospital;
    use ontodq_relational::Value;

    #[test]
    fn assessment_reproduces_table_ii_for_tom_waits() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let result = assess(&context, &instance);

        // The quality version exists under the original name and schema.
        let quality = result.quality_tuples("Measurements");
        // Tom Waits' quality measurements are exactly the two rows of
        // Table II.
        let toms: Vec<_> = quality
            .iter()
            .filter(|t| t.get(1) == Some(&Value::str(hospital::TOM_WAITS)))
            .cloned()
            .collect();
        let expected = hospital::expected_quality_measurements();
        assert_eq!(toms.len(), 2);
        for t in &expected {
            assert!(toms.contains(t), "missing expected quality tuple {t}");
        }
    }

    #[test]
    fn quality_version_is_a_subset_of_the_original() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let result = assess(&context, &instance);
        let original = instance.relation("Measurements").unwrap();
        for t in result.quality_tuples("Measurements") {
            assert!(
                original.contains(&t),
                "quality tuple {t} not in the original"
            );
        }
    }

    #[test]
    fn metrics_quantify_departure_from_quality_version() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let result = assess(&context, &instance);
        let m = result.metrics.relations.get("Measurements").unwrap();
        assert_eq!(m.original_count, 6);
        // Tom's two standard-unit rows plus Lou Reed's two standard-unit rows
        // satisfy the quality conditions.
        assert_eq!(m.quality_count, 4);
        assert_eq!(m.retained, 4);
        assert_eq!(m.rejected, 2);
        assert!((m.retention_ratio() - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn contextual_instance_contains_generated_dimensional_data() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let result = assess(&context, &instance);
        assert!(result.contextual_instance.has_relation("PatientUnit"));
        assert!(result.contextual_instance.has_relation("Measurements_c"));
        assert!(result.contextual_instance.has_relation("TakenWithTherm"));
        assert!(result.chase.stats.tuples_added > 0);
        // The closed-intensive-unit constraint flags the Sep/7 tuple, so the
        // contextual instance is not violation-free.
        assert!(!result.chase.violations.is_empty());
        assert_eq!(result.chase.violations.nc.len(), 1);
    }

    #[test]
    fn assessing_an_empty_instance_yields_empty_quality_versions() {
        let context = hospital_context();
        let result = assess(&context, &Database::new());
        assert!(result.quality_tuples("Measurements").is_empty());
        let m = result.metrics.relations.get("Measurements").unwrap();
        assert_eq!(m.original_count, 0);
        assert_eq!(m.quality_count, 0);
        assert_eq!(m.retention_ratio(), 1.0);
    }

    #[test]
    fn unknown_relations_have_no_quality_tuples() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let result = assess(&context, &instance);
        assert!(result.quality_tuples("DoesNotExist").is_empty());
    }

    #[test]
    fn resumable_assessment_matches_batch_assessment_initially() {
        let context = hospital_context();
        let instance = hospital::measurements_database();
        let batch = assess(&context, &instance);
        let resumable = ResumableAssessment::new(context, instance);
        let snap = resumable.assessment();
        assert_eq!(
            tuples(&snap.0, "Measurements"),
            batch.quality_tuples("Measurements")
        );
        assert_eq!(snap.1.relations, batch.metrics.relations);
    }

    #[test]
    fn incremental_batches_match_from_scratch_assessment() {
        // Start from an EMPTY instance, stream the measurements in across
        // two batches, and require the final quality version to equal the
        // one-shot assessment of the full instance.
        let context = hospital_context();
        let full = hospital::measurements_database();
        let all: Vec<Tuple> = full.relation("Measurements").unwrap().tuples().to_vec();

        let mut resumable = ResumableAssessment::new(context.clone(), Database::new());
        assert!(tuples(&resumable.assessment().0, "Measurements").is_empty());

        let (first, second) = all.split_at(all.len() / 2);
        for batch in [first, second] {
            let outcome = resumable
                .insert_batch(
                    batch
                        .iter()
                        .map(|t| ("Measurements".to_string(), t.clone())),
                )
                .unwrap();
            assert_eq!(outcome.new_facts, batch.len());
        }
        assert_eq!(resumable.batches_applied(), 2);

        let scratch = assess(&context, &full);
        let snap = resumable.assessment();
        let mut incremental = tuples(&snap.0, "Measurements");
        let mut from_scratch = scratch.quality_tuples("Measurements");
        incremental.sort();
        from_scratch.sort();
        assert_eq!(incremental, from_scratch);
        assert_eq!(
            snap.1.relations.get("Measurements"),
            scratch.metrics.relations.get("Measurements")
        );
    }

    #[test]
    fn retract_batch_matches_from_scratch_assessment() {
        let context = hospital_context();
        let full = hospital::measurements_database();
        let all: Vec<Tuple> = full.relation("Measurements").unwrap().tuples().to_vec();
        let victim = all[0].clone();

        let mut resumable = ResumableAssessment::new(context.clone(), full.clone());
        let result = resumable.retract_batch([("Measurements".to_string(), victim.clone())]);
        assert_eq!(result.stats.requested, 1);
        assert_eq!(result.stats.retracted, 1);
        assert!(!resumable.instance().contains("Measurements", &victim));

        let mut survivors = full.clone();
        survivors.delete("Measurements", &victim);
        let scratch = assess(&context, &survivors);
        let mut incremental = tuples(&resumable.assessment().0, "Measurements");
        let mut from_scratch = scratch.quality_tuples("Measurements");
        incremental.sort();
        from_scratch.sort();
        assert_eq!(incremental, from_scratch);
    }

    /// A long stream of corrections (each reading retracted a few batches
    /// after it was inserted) leaves no database of the assessment holding
    /// more tombstones than live rows, and still equals the from-scratch
    /// assessment of what survived.
    #[test]
    fn a_long_correction_stream_does_not_accumulate_tombstones() {
        let context = hospital_context();
        let full = hospital::measurements_database();
        let template = full.relation("Measurements").unwrap().tuples()[0].clone();
        let reading = |i: usize| {
            let mut values = template.values().to_vec();
            values[2] = Value::double(40.0 + i as f64 / 100.0);
            ("Measurements".to_string(), Tuple::new(values))
        };

        let mut resumable = ResumableAssessment::new(context.clone(), full.clone());
        let mut survivors = full;
        for i in 0..60 {
            resumable.insert_batch([reading(i)]).unwrap();
            survivors.insert("Measurements", reading(i).1).unwrap();
            if i >= 3 {
                let result = resumable.retract_batch([reading(i - 3)]);
                assert_eq!(result.stats.retracted, 1);
                survivors.delete("Measurements", &reading(i - 3).1);
            }
        }
        for db in [
            resumable.instance(),
            resumable.base_database(),
            resumable.contextual(),
        ] {
            for relation in db.relations() {
                assert!(
                    relation.dead_rows() <= relation.len(),
                    "{} holds {} tombstones for {} live rows",
                    relation.name(),
                    relation.dead_rows(),
                    relation.len()
                );
            }
        }
        let scratch = assess(&context, &survivors);
        let mut incremental = tuples(&resumable.assessment().0, "Measurements");
        let mut from_scratch = scratch.quality_tuples("Measurements");
        incremental.sort();
        from_scratch.sort();
        assert_eq!(incremental, from_scratch);
    }

    #[test]
    fn retract_batch_of_missing_fact_changes_nothing() {
        let context = hospital_context();
        let mut resumable = ResumableAssessment::new(context, hospital::measurements_database());
        let before = resumable.contextual().total_tuples();
        let result = resumable.retract_batch([(
            "Measurements".to_string(),
            Tuple::new(vec![
                Value::parse_time("Sep/9-09:00").unwrap(),
                Value::str("Nobody"),
                Value::double(36.6),
            ]),
        )]);
        assert_eq!(result.stats.requested, 1);
        assert_eq!(result.stats.retracted, 0);
        assert_eq!(result.stats.cascaded, 0);
        assert_eq!(resumable.contextual().total_tuples(), before);
    }

    #[test]
    fn expand_retractions_grounds_conditional_deletes() {
        let context = hospital_context();
        let full = hospital::measurements_database();
        let tom_waits: Vec<Tuple> = full
            .relation("Measurements")
            .unwrap()
            .iter()
            .filter(|t| t.get(1) == Some(&Value::str("Tom Waits")))
            .collect();
        assert!(!tom_waits.is_empty());

        let mut resumable = ResumableAssessment::new(context.clone(), full.clone());
        let deletion = ontodq_datalog::parse_program(
            "-Measurements(t, p, v) :- Measurements(t, p, v), p = \"Tom Waits\".\n",
        )
        .unwrap();
        let expanded = resumable.expand_retractions(&deletion);
        assert_eq!(expanded.len(), tom_waits.len());
        assert!(expanded.iter().all(|(name, t)| {
            name == "Measurements" && t.get(1) == Some(&Value::str("Tom Waits"))
        }));

        let result = resumable.retract_batch(expanded);
        assert_eq!(result.stats.retracted, tom_waits.len());
        let mut survivors = full.clone();
        for t in &tom_waits {
            survivors.delete("Measurements", t);
        }
        let scratch = assess(&context, &survivors);
        let mut incremental = tuples(&resumable.assessment().0, "Measurements");
        let mut from_scratch = scratch.quality_tuples("Measurements");
        incremental.sort();
        from_scratch.sort();
        assert_eq!(incremental, from_scratch);
    }

    /// A conditional delete whose negated atom meets a labeled null does
    /// not condemn anything: `not Q(⊥)` is unknown, not true.
    #[test]
    fn conditional_delete_negation_over_a_null_condemns_nothing() {
        let mut facts = Database::new();
        facts.insert_values("P", ["b"]).unwrap();
        facts.insert_values("Q", ["a"]).unwrap();
        let context = Context::builder("null-negation")
            .contextual_rule("S(x, z) :- P(x).")
            .external_source(facts)
            .build()
            .unwrap();
        let resumable = ResumableAssessment::new(context, Database::new());
        let deletion = ontodq_datalog::parse_program("-P(x) :- S(x, z), not Q(z).\n").unwrap();
        assert!(resumable.expand_retractions(&deletion).is_empty());
    }

    #[test]
    fn rejected_batches_leave_the_assessment_unchanged() {
        let context = hospital_context();
        let mut resumable = ResumableAssessment::new(context, hospital::measurements_database());
        let instance_before = resumable.instance().total_tuples();
        let contextual_before = resumable.contextual().total_tuples();
        let batches_before = resumable.batches_applied();
        // A batch with a valid fact followed by a wrong-arity fact must be
        // rejected wholesale: neither side applied, no re-chase run.
        let good = hospital::expected_quality_measurements()[0].clone();
        let err = resumable.insert_batch([
            ("Measurements".to_string(), good),
            ("Measurements".to_string(), Tuple::from_iter(["only-one"])),
        ]);
        assert!(err.is_err());
        assert_eq!(resumable.instance().total_tuples(), instance_before);
        assert_eq!(resumable.contextual().total_tuples(), contextual_before);
        assert_eq!(resumable.batches_applied(), batches_before);
    }

    /// `restore` must be invisible to the incremental pipeline: an
    /// assessment rebuilt from another assessment's persisted parts folds
    /// the next batch in exactly like the original would have.
    #[test]
    fn restored_assessment_continues_like_the_original() {
        let context = hospital_context();
        let mut live = ResumableAssessment::new(context.clone(), hospital::measurements_database());
        live.insert_batch([(
            "Measurements".to_string(),
            Tuple::new(vec![
                Value::parse_time("Sep/6-11:05").unwrap(),
                Value::str("Lou Reed"),
                Value::double(39.9),
            ]),
        )])
        .unwrap();

        let mut restored = ResumableAssessment::restore_with_clock(
            context,
            live.instance().clone(),
            live.state().clone(),
            live.batches_applied(),
            ontodq_obs::monotonic(),
        );
        assert_eq!(restored.batches_applied(), 1);
        assert_eq!(
            restored.contextual().total_tuples(),
            live.contextual().total_tuples()
        );

        let next = [(
            "Measurements".to_string(),
            Tuple::new(vec![
                Value::parse_time("Sep/6-12:00").unwrap(),
                Value::str("Lou Reed"),
                Value::double(37.2),
            ]),
        )];
        let live_outcome = live.insert_batch(next.clone()).unwrap();
        let restored_outcome = restored.insert_batch(next).unwrap();
        assert_eq!(restored_outcome.new_facts, live_outcome.new_facts);
        assert_eq!(
            restored_outcome.chase.stats.tuples_added,
            live_outcome.chase.stats.tuples_added
        );
        let (live_quality, live_metrics) = live.extract();
        let (restored_quality, restored_metrics) = restored.extract();
        assert_eq!(
            restored_quality.relation("Measurements").unwrap().tuples(),
            live_quality.relation("Measurements").unwrap().tuples()
        );
        assert_eq!(restored_metrics.relations, live_metrics.relations);
    }

    #[test]
    fn answer_on_demand_tracks_applied_batches() {
        use ontodq_qa::ConjunctiveQuery;
        let context = hospital_context();
        let mut resumable =
            ResumableAssessment::new(context.clone(), hospital::measurements_database());
        let q = ConjunctiveQuery::parse("Q(t, p, v) :- Measurements(t, p, v), p = \"Lou Reed\".")
            .unwrap();
        let before = resumable.answer_on_demand(&q);
        assert_eq!(
            before,
            crate::clean_query::quality_answers(
                &context,
                &assess(&context, resumable.instance()),
                &q
            )
        );

        // A new quality reading for Lou Reed joins the demand-driven answers
        // without any full re-materialization.
        resumable
            .insert_batch([(
                "Measurements".to_string(),
                Tuple::new(vec![
                    Value::parse_time("Sep/6-11:05").unwrap(),
                    Value::str("Lou Reed"),
                    Value::double(39.9),
                ]),
            )])
            .unwrap();
        let after = resumable.answer_on_demand(&q);
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(
            after,
            crate::clean_query::quality_answers(
                &context,
                &assess(&context, resumable.instance()),
                &q
            )
        );
        // The extensional base carries the batch under the contextual name.
        assert!(resumable.base_database().has_relation("Measurements_c"));
    }

    #[test]
    fn restored_assessment_answers_on_demand_identically() {
        use ontodq_qa::ConjunctiveQuery;
        let context = hospital_context();
        let mut live = ResumableAssessment::new(context.clone(), hospital::measurements_database());
        live.insert_batch([(
            "Measurements".to_string(),
            Tuple::new(vec![
                Value::parse_time("Sep/6-11:05").unwrap(),
                Value::str("Lou Reed"),
                Value::double(39.9),
            ]),
        )])
        .unwrap();
        let restored = ResumableAssessment::restore_with_clock(
            context,
            live.instance().clone(),
            live.state().clone(),
            live.batches_applied(),
            ontodq_obs::monotonic(),
        );
        let q = ConjunctiveQuery::parse("Q(t, p, v) :- Measurements(t, p, v).").unwrap();
        assert_eq!(restored.answer_on_demand(&q), live.answer_on_demand(&q));
    }

    #[test]
    fn mapped_facts_land_in_instance_and_contextual_copy() {
        let context = hospital_context();
        let mut resumable = ResumableAssessment::new(context, Database::new());
        let tuple = hospital::expected_quality_measurements()[0].clone();
        resumable
            .insert_batch([("Measurements".to_string(), tuple.clone())])
            .unwrap();
        assert!(resumable.instance().contains("Measurements", &tuple));
        assert!(resumable.contextual().contains("Measurements_c", &tuple));
        // The re-chase re-derived the quality version for the new tuple.
        let (quality, _) = resumable.extract();
        assert!(quality.contains("Measurements", &tuple));
    }
}
