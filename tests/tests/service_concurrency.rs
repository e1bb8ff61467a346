//! Concurrent-equivalence suite for `ontodq-server`.
//!
//! The service promises snapshot isolation with incrementally re-chased
//! writes.  The contract under test:
//!
//! * **Equivalence**: every answer set a reader observes at snapshot
//!   version `v` must equal the certain answers computed by a *fresh
//!   from-scratch chase* of exactly the facts applied up to batch `v`
//!   (certain answers are labeled-null-free, so they agree across universal
//!   models regardless of null renaming);
//! * **Isolation**: readers racing a writer only ever see whole versions,
//!   never a half-applied batch;
//! * **Regression**: an incremental re-chase derives the same ground
//!   instance as a full re-chase on the hospital fixture (ground atoms of a
//!   universal model are exactly the certain atoms, so two universal models
//!   of the same facts share them).

use ontodq_chase::{chase, chase_incremental, evaluate_project, ChaseState};
use ontodq_core::{assess, rewrite_to_quality, scenarios, Context};
use ontodq_mdm::fixtures::hospital;
use ontodq_qa::AnswerSet;
use ontodq_relational::{Database, Tuple, Value};
use ontodq_server::{parse_query_text, QualityService};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// A deterministic update schedule: per batch, facts for the instance under
/// assessment (`Measurements`) and facts for contextual/categorical
/// relations.
fn update_batches() -> Vec<Vec<(String, Tuple)>> {
    let measurements: Vec<Tuple> = hospital::measurements_database()
        .relation("Measurements")
        .unwrap()
        .tuples()
        .to_vec();
    let m = |t: &Tuple| ("Measurements".to_string(), t.clone());
    vec![
        // Batch 1: the first two Table I rows.
        vec![m(&measurements[0]), m(&measurements[1])],
        // Batch 2: two more rows plus a new working schedule (downward
        // navigation invents a null shift for Rita).
        vec![
            m(&measurements[2]),
            m(&measurements[3]),
            (
                "WorkingSchedules".to_string(),
                Tuple::from_iter(["Intensive", "Sep/9", "Rita", "cert."]),
            ),
        ],
        // Batch 3: the rest of Table I.
        vec![m(&measurements[4]), m(&measurements[5])],
        // Batch 4: an explicit shift fact beside the null shifts invented
        // earlier for the same nurse and day.
        vec![(
            "Shifts".to_string(),
            Tuple::from_iter(["W1", "Sep/9", "Mark", "morning"]),
        )],
        // Batch 5: one duplicate (a no-op) and one genuinely new reading at
        // a known timestamp.
        vec![
            m(&measurements[0]),
            (
                "Measurements".to_string(),
                Tuple::new(vec![
                    Value::parse_time("Sep/5-12:05").unwrap(),
                    Value::str(hospital::TOM_WAITS),
                    Value::double(39.0),
                ]),
            ),
        ],
    ]
}

const QUERIES: [(&str, bool); 5] = [
    ("Measurements(t, p, v)", false),
    ("Measurements(t, p, v)", true),
    ("Measurements(t, p, v), p = \"Tom Waits\"", true),
    ("PatientUnit(Standard, d, p)", false),
    ("Shifts(w, d, n, s), n = \"Mark\"", false),
];

/// The from-scratch oracle for one version: assess the prefix instance under
/// the hospital context with the prefix contextual facts as external sources
/// (exactly how the service folds non-mapped facts in), then answer over
/// chased-instance ∪ instance, as a snapshot does.
fn oracle_answers(
    context: &Context,
    instance: &Database,
    contextual_extras: &Database,
) -> BTreeMap<(String, bool), AnswerSet> {
    let oracle_context = scenarios::hospital_context_builder()
        .external_source(contextual_extras.clone())
        .build()
        .unwrap();
    let assessment = assess(&oracle_context, instance);
    let mut database = assessment.contextual_instance.clone();
    database.merge(instance).unwrap();

    let mut expected = BTreeMap::new();
    for (text, quality) in QUERIES {
        let parsed = parse_query_text(text).unwrap();
        let query = if quality {
            rewrite_to_quality(context, &parsed)
        } else {
            parsed
        };
        let tuples = evaluate_project(&database, &query.body, &query.answer_variables);
        expected.insert(
            (text.to_string(), quality),
            AnswerSet::from_tuples(tuples).certain(),
        );
    }
    expected
}

/// Precompute the oracle for every version 0..=batches.
fn oracle_per_version(
    context: &Context,
    batches: &[Vec<(String, Tuple)>],
) -> Vec<BTreeMap<(String, bool), AnswerSet>> {
    let mut instance = Database::new();
    let mut extras = Database::new();
    let mut expected = vec![oracle_answers(context, &instance, &extras)];
    for batch in batches {
        for (predicate, tuple) in batch {
            if predicate == "Measurements" {
                instance.insert(predicate, tuple.clone()).unwrap();
            } else {
                extras.insert(predicate, tuple.clone()).unwrap();
            }
        }
        expected.push(oracle_answers(context, &instance, &extras));
    }
    expected
}

/// ≥ 4 reader threads race a writer applying the update schedule; every
/// observed `(version, answers)` pair must match the from-scratch oracle
/// for that version.
#[test]
fn concurrent_readers_always_see_a_from_scratch_equivalent_snapshot() {
    const READERS: usize = 4;
    let context = scenarios::hospital_context();
    let batches = update_batches();
    let expected = Arc::new(oracle_per_version(&context, &batches));
    let final_version = batches.len() as u64;

    let service = Arc::new(QualityService::new());
    service
        .register_context("hospital", context, Database::new())
        .unwrap();

    std::thread::scope(|scope| {
        // The writer: one batch at a time, with small pauses so readers
        // genuinely interleave with intermediate versions.
        let writer_service = Arc::clone(&service);
        let writer_batches = batches.clone();
        scope.spawn(move || {
            for (index, batch) in writer_batches.into_iter().enumerate() {
                std::thread::sleep(Duration::from_millis(2));
                let report = writer_service.insert_facts("hospital", batch).unwrap();
                assert_eq!(report.version, index as u64 + 1);
            }
        });

        for reader in 0..READERS {
            let service = Arc::clone(&service);
            let expected = Arc::clone(&expected);
            scope.spawn(move || {
                let mut observed = BTreeSet::new();
                let mut iterations = 0usize;
                loop {
                    iterations += 1;
                    // Stagger the query mix per reader.
                    let (text, quality) = QUERIES[(reader + iterations) % QUERIES.len()];
                    let response = if quality {
                        service.quality_answers("hospital", text).unwrap()
                    } else {
                        service.plain_answers("hospital", text).unwrap()
                    };
                    let want = expected[response.version as usize]
                        .get(&(text.to_string(), quality))
                        .unwrap();
                    assert_eq!(
                        *response.answers, *want,
                        "reader {reader} at version {} answered {text} (quality={quality}) \
                         differently from a from-scratch chase",
                        response.version
                    );
                    observed.insert(response.version);
                    if response.version == final_version && iterations >= 50 {
                        break;
                    }
                    if iterations.is_multiple_of(8) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                assert!(observed.contains(&final_version));
            });
        }
    });

    // After the race: the final snapshot is version `final_version` and the
    // cache has seen traffic from all readers.
    let snapshot = service.snapshot("hospital").unwrap();
    assert_eq!(snapshot.version, final_version);
    let stats = service.cache_stats();
    assert!(stats.hits > 0, "repeated queries should hit the cache");
    assert!(stats.entries >= QUERIES.len() as u64 - 1);
}

/// Regression: incremental re-chase == full re-chase on the hospital
/// fixture, compared on ground atoms (identical across universal models)
/// and on the canned example queries.
#[test]
fn incremental_rechase_equals_full_rechase_on_hospital_fixture() {
    let compiled = ontodq_mdm::compile(&hospital::ontology());
    let program = &compiled.program;

    // Split the extensional database: hold back all WorkingSchedules rows
    // and half the PatientWard rows, stream them back in two batches.
    let mut initial = compiled.database.clone();
    let schedules: Vec<Tuple> = initial
        .relation("WorkingSchedules")
        .unwrap()
        .tuples()
        .to_vec();
    let wards: Vec<Tuple> = initial.relation("PatientWard").unwrap().tuples().to_vec();
    let held_wards: Vec<Tuple> = wards.iter().skip(wards.len() / 2).cloned().collect();
    {
        let held: BTreeSet<Tuple> = held_wards.iter().cloned().collect();
        initial
            .relation_mut("WorkingSchedules")
            .unwrap()
            .retain(|_| false);
        initial
            .relation_mut("PatientWard")
            .unwrap()
            .retain(|t| !held.contains(t));
    }

    let mut state = ChaseState::new(program, &initial);
    let _ = chase_incremental(program, &mut state);
    state
        .insert_batch(
            held_wards
                .iter()
                .map(|t| ("PatientWard".to_string(), t.clone())),
        )
        .unwrap();
    let _ = chase_incremental(program, &mut state);
    state
        .insert_batch(
            schedules
                .iter()
                .map(|t| ("WorkingSchedules".to_string(), t.clone())),
        )
        .unwrap();
    let incremental = chase_incremental(program, &mut state);

    let scratch = chase(program, &compiled.database);
    assert!(incremental.violations.nc.len() == scratch.violations.nc.len());

    // Ground atoms must agree relation by relation.
    let ground = |db: &Database| -> BTreeMap<String, BTreeSet<Tuple>> {
        db.relations()
            .map(|r| {
                (
                    r.name().to_string(),
                    r.iter().filter(|t| t.is_ground()).collect(),
                )
            })
            .collect()
    };
    let incremental_ground = ground(&incremental.database);
    let scratch_ground = ground(&scratch.database);
    for (name, tuples) in &scratch_ground {
        assert_eq!(
            incremental_ground.get(name).unwrap_or(&BTreeSet::new()),
            tuples,
            "ground atoms of {name} diverged between incremental and full chase"
        );
    }

    // And the canned example query agrees (certain answers).
    let query = scenarios::marks_shift_query();
    let a = evaluate_project(&incremental.database, &query.body, &query.answer_variables);
    let b = evaluate_project(&scratch.database, &query.body, &query.answer_variables);
    assert_eq!(
        AnswerSet::from_tuples(a).certain(),
        AnswerSet::from_tuples(b).certain()
    );
}

/// The service's incremental path must agree with the one-shot pipeline on
/// the full hospital workload streamed in one-measurement batches.
#[test]
fn streamed_service_state_matches_one_shot_assessment() {
    let context = scenarios::hospital_context();
    let full = hospital::measurements_database();
    let service = QualityService::new();
    service
        .register_context("hospital", context.clone(), Database::new())
        .unwrap();

    for tuple in full.relation("Measurements").unwrap().iter() {
        service
            .insert_facts(
                "hospital",
                vec![("Measurements".to_string(), tuple.clone())],
            )
            .unwrap();
    }

    let snapshot = service.snapshot("hospital").unwrap();
    let one_shot = assess(&context, &full);
    let mut streamed: Vec<Tuple> = snapshot
        .quality
        .relation("Measurements")
        .unwrap()
        .tuples()
        .to_vec();
    let mut batch: Vec<Tuple> = one_shot.quality_tuples("Measurements");
    streamed.sort();
    batch.sort();
    assert_eq!(streamed, batch);
    assert_eq!(
        snapshot.metrics.relations.get("Measurements"),
        one_shot.metrics.relations.get("Measurements")
    );
}

/// Snapshot readers never contend on the interner's write path.
///
/// Once a context is registered and its instance chased, every symbol a
/// reader can touch — instance constants, chased derivations, the prepared
/// queries' constants — is already in the global symbol table, so query
/// evaluation runs entirely on the interner's shared read path.  The
/// [`ontodq_relational::SymbolInterner::write_acquisitions`] counter ticks
/// once per *new* symbol; a reader phase must not move it.
///
/// The counter is process-global and the test harness runs tests in
/// parallel, so a concurrent test interning a brand-new string could bump
/// it mid-phase; the distinct-symbol supply of a test run is finite, so we
/// retry a few times and require at least one clean (zero-delta) phase.
#[test]
fn snapshot_readers_never_take_the_interner_write_path() {
    use ontodq_relational::SymbolInterner;

    let service = Arc::new(QualityService::new());
    service
        .register_context(
            "hospital",
            scenarios::hospital_context(),
            hospital::measurements_database(),
        )
        .unwrap();
    let queries = [
        ("Measurements(t, p, v)", false),
        ("Measurements(t, p, v), p = \"Tom Waits\"", false),
        ("Measurements(t, p, v)", true),
        ("Measurements(t, p, v), p = \"Tom Waits\"", true),
    ];
    // Warm every query shape once: parsing a query interns any constant its
    // text introduces (ours reuse instance constants, but the warm-up makes
    // the phase below insensitive to that).
    for (text, quality) in queries {
        let response = if quality {
            service.quality_answers("hospital", text)
        } else {
            service.plain_answers("hospital", text)
        };
        response.unwrap();
    }

    let interner = SymbolInterner::global();
    let mut clean_phase = false;
    for _ in 0..10 {
        let before = interner.write_acquisitions();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        for (text, quality) in queries {
                            let response = if quality {
                                service.quality_answers("hospital", text)
                            } else {
                                service.plain_answers("hospital", text)
                            };
                            assert!(response.unwrap().answers.len() <= 16);
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        if interner.write_acquisitions() == before {
            clean_phase = true;
            break;
        }
        // Another test interned a new symbol mid-phase; let the suite's
        // distinct-symbol supply drain and try again.
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        clean_phase,
        "snapshot readers kept interning new symbols — the read path is taking the write lock"
    );
}
