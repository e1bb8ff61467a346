//! Structural-sharing suite: databases share relations (`Arc`) and copy on
//! write, so a commit pays for the relations it touches, not for the
//! instance.  Two invariants keep that honest:
//!
//! * **Isolation** — a held `Arc<Snapshot>` is frozen: no later insert,
//!   retraction, conditional delete or compaction may show through it,
//!   however many relations it still shares with the writer;
//! * **Sharing** — a write unshares only what it writes.  Every other
//!   relation stays pointer-identical between consecutive snapshots and
//!   between a snapshot and the writer's state, reads copy nothing, and the
//!   process-wide `relation_copies` counter is bounded by the number of
//!   relations written — so a change that silently unshares the instance
//!   fails here, not in a benchmark.

use ontodq_core::ResumableAssessment;
use ontodq_datalog::parse_program;
use ontodq_integration_tests::retraction_program;
use ontodq_relational::{same_relation, Database, JoinCounters, Tuple, Value};
use ontodq_server::QualityService;
use ontodq_workload::{
    generate, generate_corrections, CorrectionOp, CorrectionScale, HospitalScale,
};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// `relation_copies` is a process-wide counter and the tests of one binary
/// run on parallel threads: tests that diff it (or copy relations) take
/// this lock so the deltas they assert on are their own.
static COUNTER: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    COUNTER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn copies() -> u64 {
    JoinCounters::snapshot().relation_copies
}

/// A new reading that reaches the quality version: the time and patient of
/// a reading `quality` already accepts (so every quality condition holds
/// for it), with a value of its own.
fn accepted_reading(quality: &Database, value: f64) -> (String, Tuple) {
    let accepted = quality
        .relation("Measurements")
        .unwrap()
        .iter()
        .next()
        .expect("the quality version is not empty");
    let tuple = Tuple::new(vec![
        *accepted.get(0).unwrap(),
        *accepted.get(1).unwrap(),
        Value::double(value),
    ]);
    ("Measurements".to_string(), tuple)
}

/// The relations of `a` that are not pointer-identical in `b`.
fn unshared(a: &Database, b: &Database) -> BTreeSet<String> {
    a.relation_names()
        .into_iter()
        .filter(|name| !same_relation(a.shared_relation(name), b.shared_relation(name)))
        .map(str::to_string)
        .collect()
}

fn names(list: &[&str]) -> BTreeSet<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// (a) A held snapshot renders byte-identically before and after a seeded
/// stream of inserts and retractions, a conditional delete, and a
/// compaction of a database sharing its relations.
#[test]
fn a_held_snapshot_is_frozen_under_every_kind_of_write() {
    let _guard = serial();
    let workload = generate_corrections(&CorrectionScale {
        seed: 23,
        ..CorrectionScale::small()
    });
    let service = QualityService::new();
    service
        .register_context(
            "live",
            workload.base.context(),
            workload.base.instance.clone(),
        )
        .unwrap();
    // Start from a version that already carries a batch, so the held
    // snapshot shares relations the writer has written before.
    let first = accepted_reading(&service.snapshot("live").unwrap().quality, 41.5);
    service.insert_facts("live", vec![first]).unwrap();

    let held = service.snapshot("live").unwrap();
    let render = |db: &Database| db.to_string();
    let before = (
        render(&held.database),
        render(&held.base),
        render(&held.quality),
    );

    for op in &workload.ops {
        match op {
            CorrectionOp::Insert(facts) => {
                service.insert_facts("live", facts.clone()).unwrap();
            }
            CorrectionOp::Retract(facts) => {
                let program = retraction_program(facts);
                let report = service.retract_facts("live", &program).unwrap();
                assert_eq!(report.requested, report.retracted);
            }
        }
    }
    // Compaction rewrites arenas wholesale; on a database that shares its
    // relations with snapshots it must rewrite private copies only.
    let streamed = service.snapshot("live").unwrap();
    assert!(
        streamed.database.dead_rows() > 0,
        "retractions left no tombstones"
    );
    let streamed_before = render(&streamed.database);
    let mut compacted = streamed.database.clone();
    assert!(compacted.compact() > 0);
    assert_eq!(compacted.dead_rows(), 0);
    assert_eq!(
        render(&compacted),
        streamed_before,
        "compaction changed the live rows"
    );
    assert_eq!(render(&streamed.database), streamed_before);
    assert!(
        streamed.database.dead_rows() > 0,
        "compacting a clone reached the snapshot"
    );

    // A delete wide enough to leave `Measurements` mostly tombstones makes
    // the writer itself reclaim them (`Database::compact_sparse`) — under
    // the held snapshots, which must not notice.
    let conditional =
        parse_program("-Measurements(t, p, v) :- Measurements(t, p, v), v >= 38.0.").unwrap();
    let report = service.retract_facts("live", &conditional).unwrap();
    assert!(report.retracted > 0, "the conditional delete hit nothing");
    let latest = service.snapshot("live").unwrap();
    let measurements = latest.database.relation("Measurements").unwrap();
    assert!(measurements.dead_rows() <= measurements.len());
    assert!(
        measurements.total_rows()
            < streamed
                .database
                .relation("Measurements")
                .unwrap()
                .total_rows(),
        "the writer reclaimed nothing"
    );
    assert_eq!(render(&streamed.database), streamed_before);

    assert_eq!(latest.version, held.version + workload.ops.len() as u64 + 1);
    let after = (
        render(&held.database),
        render(&held.base),
        render(&held.quality),
    );
    assert!(
        before == after,
        "a later write showed through a held snapshot"
    );
}

/// (b) After a one-fact `Measurements` commit everything the batch did not
/// write is still the same allocation — across snapshots, and between the
/// snapshot and the writer — reads copy nothing, and the copy counter is
/// bounded by the relations written, for insert, retract and `?d-`.
#[test]
fn a_commit_unshares_only_the_relations_it_writes() {
    let _guard = serial();
    let scaled = generate(&HospitalScale::with_measurements(500));
    let context = scaled.context();

    // --- Through the service: consecutive snapshots. ---
    let service = QualityService::new();
    service
        .register_context("scaled", context.clone(), scaled.instance.clone())
        .unwrap();
    let v0 = service.snapshot("scaled").unwrap();
    let fact = accepted_reading(&v0.quality, 41.5);

    // The relations a `Measurements` fact reaches: the original, its
    // contextual copy, and the two rule heads downstream of it.
    let chased_written = names(&[
        "Measurements",
        "Measurements_c",
        "MeasurementsExt",
        "Measurements_q",
    ]);
    let base_written = names(&["Measurements", "Measurements_c"]);
    // One copy per written relation per database that owns it: the
    // instance (`Measurements`), the base (`Measurements_c`) and the chased
    // state (`Measurements_c`, `MeasurementsExt`, `Measurements_q`).
    let written = 5;

    let start = copies();
    let report = service.insert_facts("scaled", vec![fact.clone()]).unwrap();
    let insert_copies = copies() - start;
    assert_eq!(report.new_facts, 1);
    assert!(
        report.derived > 0,
        "the reading did not reach the quality version"
    );
    let v1 = service.snapshot("scaled").unwrap();
    assert_eq!(unshared(&v0.database, &v1.database), chased_written);
    assert_eq!(unshared(&v0.base, &v1.base), base_written);
    assert!(
        unshared(&v0.quality, &v1.quality) == names(&["Measurements"]),
        "the quality version was not re-extracted"
    );
    assert!(
        insert_copies <= written,
        "a one-fact commit copied {insert_copies} relations, wrote {written}"
    );

    // Reads: `?q-` copies nothing; `?d-` copies at most the base relations
    // its demand chase derives into (declared-but-empty categorical
    // relations such as `PatientUnit`) — never one it only reads.
    let derived_in_base = v1
        .program
        .idb_predicates()
        .iter()
        .filter(|p| v1.base.has_relation(p))
        .count() as u64;
    let start = copies();
    let text = "Measurements(t, p, v), PatientUnit(Unit_0, d, p), DayTime(d, t)";
    let quality = service.quality_answers("scaled", text).unwrap();
    assert_eq!(copies() - start, 0, "a ?q- read copied a relation");
    let demand = service.demand_answers("scaled", text).unwrap();
    assert!(!demand.cached);
    assert_eq!(*quality.answers, *demand.answers);
    assert!(!demand.answers.is_empty());
    assert!(
        copies() - start <= derived_in_base,
        "a ?d- read copied a relation it does not write"
    );
    let still = service.snapshot("scaled").unwrap();
    assert!(unshared(&v1.database, &still.database).is_empty());
    assert!(unshared(&v1.base, &still.base).is_empty());

    // A retraction of the same fact writes the same relations.
    let program = retraction_program(std::slice::from_ref(&fact));
    let start = copies();
    let report = service.retract_facts("scaled", &program).unwrap();
    let retract_copies = copies() - start;
    assert_eq!(report.retracted, 1);
    let v2 = service.snapshot("scaled").unwrap();
    assert_eq!(unshared(&v1.database, &v2.database), chased_written);
    assert_eq!(unshared(&v1.base, &v2.base), base_written);
    assert!(
        retract_copies <= written,
        "a one-fact retraction copied {retract_copies} relations, wrote {written}"
    );
    // A commit that changes nothing in an assessed relation carries its
    // quality version forward instead of re-extracting it.
    let shift = (
        "WorkingSchedules".to_string(),
        Tuple::from_iter(["Unit_9", "Day_0", "Nurse_new", "cert."]),
    );
    service.insert_facts("scaled", vec![shift]).unwrap();
    let v3 = service.snapshot("scaled").unwrap();
    assert!(unshared(&v2.quality, &v3.quality).is_empty());

    // --- On the writer itself: snapshot vs. state vs. base. ---
    let mut writer = ResumableAssessment::new(context, scaled.instance.clone());
    let extensional = unshared(writer.contextual(), writer.base_database());
    assert!(
        !extensional.contains("WorkingSchedules") && !extensional.contains("DayTime"),
        "base and chased state do not share their extensional relations: {extensional:?}"
    );
    let pinned = writer.contextual().clone();
    let outcome = writer.insert_batch([fact]).unwrap();
    assert!(unshared(writer.contextual(), &outcome.chase.database).is_empty());
    let mut state_written = chased_written.clone();
    state_written.remove("Measurements");
    assert_eq!(unshared(&pinned, writer.contextual()), state_written);
}
