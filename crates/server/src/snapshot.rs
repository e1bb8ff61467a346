//! Immutable point-in-time views of an assessed context.

use ontodq_chase::{evaluate_project, ChaseEngine};
use ontodq_core::QualityMetrics;
use ontodq_datalog::Program;
use ontodq_qa::{AnswerSet, ConjunctiveQuery};
use ontodq_relational::Database;
use std::sync::Arc;

/// An immutable, fully-chased view of one registered context.
///
/// Snapshots are shared as `Arc<Snapshot>`: readers clone the `Arc` (one
/// brief read-lock on the slot holding it) and then evaluate queries with no
/// locking at all, while the writer path chases the *next* version and swaps
/// the slot atomically — writers never block readers and a reader always
/// sees a consistent instance (snapshot isolation).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotone snapshot version: 0 after registration, +1 per applied
    /// update batch.  Doubles as the prepared-query cache invalidation key.
    pub version: u64,
    /// The queryable instance: the chased contextual instance (contextual
    /// copies, generated dimensional data, quality predicates, quality
    /// versions under `…_q` names) **plus** the original relations of the
    /// instance under assessment, so queries may mix original, contextual
    /// and quality predicates.
    pub database: Database,
    /// The **pre-chase** extensional base (compiled ontology data,
    /// contextual copies, external sources, applied batches): what the
    /// demand-driven `?d-` path chases from, routing around the
    /// materialized instance entirely.
    pub base: Database,
    /// The combined Datalog± program (ontology + context rules) the
    /// demand-driven path specializes per query.
    pub program: Arc<Program>,
    /// The quality versions under the original relation names/schemas
    /// (the paper's `D^q`).
    pub quality: Database,
    /// Per-relation departure metrics of `D` vs `D^q`.
    pub metrics: QualityMetrics,
}

impl Snapshot {
    /// The certain answers to `query` over this snapshot (labeled-null
    /// answers are dropped).  Entirely lock-free: the snapshot is immutable.
    pub fn answers(&self, query: &ConjunctiveQuery) -> AnswerSet {
        let tuples = evaluate_project(&self.database, &query.body, &query.answer_variables);
        AnswerSet::from_tuples(tuples).certain()
    }

    /// The certain answers to `query` computed **demand-driven**: the
    /// program is specialized to the query's bound constants (magic-set
    /// transformation) and only the relevant fragment of the pre-chase
    /// [`Snapshot::base`] is chased — the materialized instance is never
    /// read.  Answers equal [`Snapshot::answers`] for the same (already
    /// quality-rewritten) query; the point is the work profile, which is
    /// proportional to the demanded portion.  Lock-free like every other
    /// snapshot read.
    pub fn demand_answers(&self, query: &ConjunctiveQuery) -> AnswerSet {
        let chased =
            ChaseEngine::with_defaults().chase_for_query(&self.program, &self.base, &query.body);
        let tuples = evaluate_project(&chased.database, &query.body, &query.answer_variables);
        AnswerSet::from_tuples(tuples).certain()
    }

    /// Total number of tuples visible to queries.
    pub fn total_tuples(&self) -> usize {
        self.database.total_tuples()
    }
}
