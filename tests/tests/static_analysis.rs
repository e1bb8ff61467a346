//! End-to-end suite for the `ontodq-lint` static-analysis engine (PR 10):
//! the shipped fixtures lint clean against a pinned baseline, unsafe
//! programs are rejected at registration with structured diagnostics,
//! uncertified (non-weakly-acyclic) programs chase behind an explicit
//! warning and bump `ontodq_chase_uncertified_total`, the `!check` protocol
//! verb reports the termination certificate, and — the property — every
//! randomly generated program the linter *certifies* terminating really
//! does chase to `Fixpoint` on all three evaluation strategies.

use ontodq_chase::{ChaseConfig, ChaseEngine, JoinEngine, TerminationReason};
use ontodq_core::{lint_context, scenarios, Context, ContextError};
use ontodq_datalog::DatalogClass;
use ontodq_datalog::{parse_program, Severity, TerminationCertificate};
use ontodq_mdm::fixtures::hospital;
use ontodq_relational::{Database, Tuple, Value};
use ontodq_server::{serve_session, QualityService, ServiceError, WorkerPool};
use ontodq_workload::{generate, HospitalScale};
use proptest::prelude::*;
use std::sync::Arc;

fn run_session(service: &Arc<QualityService>, pool: &Arc<WorkerPool>, script: &str) -> String {
    let mut out = Vec::new();
    serve_session(service, pool, "hospital", script.as_bytes(), &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// A context whose quality predicate uses a head variable bound only by a
/// comparison atom — the canonical L001 safety violation.
fn unsafe_context() -> Context {
    Context::builder("unsafe-quality-context")
        .ontology(hospital::ontology())
        .copy_relation("Measurements")
        .quality_predicate(
            "Bad",
            "head variable v is bound only by the comparison, never by a positive atom",
            &["Bad(t, v) :- Measurements_c(t, p, x), v > 38."],
        )
        .quality_version(
            "Measurements",
            &["Measurements_q(t, p, v) :- Measurements_c(t, p, v)."],
        )
        .build()
        .expect("the context itself is well-formed; only the linter objects")
}

/// A context carrying a TGD whose position graph has a cycle through a
/// special edge (`Reaches[1] ⇒ Reaches[1]`): not weakly acyclic, so the
/// chase runs without a termination certificate.
fn cyclic_context() -> Context {
    Context::builder("cyclic-context")
        .ontology(hospital::ontology())
        .copy_relation("Measurements")
        .contextual_rule("Reaches(y, z) :- Reaches(x, y).")
        .quality_version(
            "Measurements",
            &["Measurements_q(t, p, v) :- Measurements_c(t, p, v)."],
        )
        .build()
        .expect("the cyclic context is well-formed; it is merely uncertified")
}

// ---------------------------------------------------------------------------
// Fixture baselines: the programs the repository ships must stay lint-clean.
// ---------------------------------------------------------------------------

/// The hospital fixture (the paper's running example) lints with zero
/// errors, a weakly-acyclic termination certificate, and exactly the
/// pinned warning baseline: L102 on the Shifts rule (no quality query
/// depends on it).
#[test]
fn hospital_fixture_is_certified_with_pinned_baseline() {
    let report = lint_context(
        &scenarios::hospital_context(),
        &hospital::measurements_database(),
    );
    assert_eq!(
        report.error_count(),
        0,
        "hospital must carry no lint errors"
    );
    assert!(report.certificate.terminating, "hospital must be certified");
    assert_eq!(report.certificate.class, DatalogClass::WeaklyAcyclic);
    assert!(report.certificate.witness_cycle.is_empty());
    assert!(report.strata.is_some(), "hospital must stratify");
    let warnings = report.warnings();
    assert_eq!(
        warnings.len(),
        1,
        "warning baseline drifted; update docs/analysis.md if intentional: {:?}",
        warnings
    );
    assert_eq!(warnings[0].code, "L102");
    assert_eq!(warnings[0].witness.as_deref(), Some("Shifts"));
}

/// The scaled-hospital workload generator (what `--scale` registers and the
/// `scaled_assessment` example runs) also lints error-free and certified,
/// at several seeds.
#[test]
fn scaled_workload_contexts_lint_error_free() {
    for seed in [0, 7, 42] {
        let workload = generate(&HospitalScale {
            seed,
            ..HospitalScale::small()
        });
        let report = lint_context(&workload.context(), &workload.instance);
        assert_eq!(
            report.error_count(),
            0,
            "scaled workload (seed {seed}) must carry no lint errors: {:?}",
            report.errors()
        );
        assert!(
            report.certificate.terminating,
            "scaled workload (seed {seed}) must be certified terminating"
        );
    }
}

// ---------------------------------------------------------------------------
// Registration gate: unsafe programs never reach the chase.
// ---------------------------------------------------------------------------

/// Registering a context with an unsafe rule fails with the structured
/// `Rejected` error carrying the L001 diagnostic — the program is refused
/// before any chase state is built.
#[test]
fn unsafe_rule_is_rejected_at_registration() {
    let service = QualityService::new();
    let result = service.register_context(
        "unsafe",
        unsafe_context(),
        hospital::measurements_database(),
    );
    let Err(ServiceError::Context(ContextError::Rejected(diagnostics))) = result else {
        panic!("registration must fail with ContextError::Rejected, got {result:?}");
    };
    let l001 = diagnostics
        .iter()
        .find(|d| d.code == "L001")
        .expect("the rejection must carry the L001 safety diagnostic");
    assert_eq!(l001.severity, Severity::Error);
    assert_eq!(l001.witness.as_deref(), Some("v"));
    assert!(
        l001.rule.is_some(),
        "the diagnostic must anchor to the offending rule"
    );
    // The rejected context must not be registered at all.
    assert!(service.check("unsafe").is_err());
    // The error's rendering names the static-analysis gate.
    let message = ServiceError::Context(ContextError::Rejected(diagnostics)).to_string();
    assert!(
        message.contains("rejected by static analysis"),
        "unexpected rendering: {message}"
    );
}

// ---------------------------------------------------------------------------
// Uncertified programs: warn, count, but still run.
// ---------------------------------------------------------------------------

/// A non-weakly-acyclic context registers fine (warnings are not errors),
/// `check` reports `certified=no` with the L106 warning and a witness
/// cycle, and every chase over it bumps `ontodq_chase_uncertified_total`.
#[test]
fn uncertified_context_warns_and_counts_chases() {
    let service = Arc::new(QualityService::new());
    service
        .register_context(
            "cyclic",
            cyclic_context(),
            hospital::measurements_database(),
        )
        .expect("uncertified contexts register with warnings, not errors");

    let report = service.check("cyclic").unwrap();
    assert!(!report.certificate.terminating);
    assert!(
        !report.certificate.witness_cycle.is_empty(),
        "an uncertified program must carry a witness cycle"
    );
    assert!(
        report.certificate.rendered_cycle().contains("Reaches"),
        "the witness cycle must run through Reaches: {}",
        report.certificate.rendered_cycle()
    );
    let l106 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "L106")
        .expect("uncertified programs must carry the L106 warning");
    assert_eq!(l106.severity, Severity::Warn);

    // Registration chased once without a certificate; inserting facts
    // chases again — the counter must track both.
    let pool = Arc::new(WorkerPool::new(2));
    service
        .insert_facts(
            "cyclic",
            vec![(
                "Measurements".to_string(),
                Tuple::new(vec![
                    Value::parse_time("Sep/6-11:05").unwrap(),
                    Value::str("Lou Reed"),
                    Value::double(39.9),
                ]),
            )],
        )
        .expect("inserting into the uncertified context still works");
    let metrics = service.render_metrics(&pool);
    let uncertified = metrics
        .lines()
        .find(|l| l.starts_with("ontodq_chase_uncertified_total"))
        .expect("the uncertified-chase counter must be exposed");
    let value: f64 = uncertified
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("counter value parses");
    assert!(
        value >= 2.0,
        "register + insert must both count as uncertified chases: {uncertified}"
    );
}

// ---------------------------------------------------------------------------
// Engine-level certificate diagnostics: C001 / C002.
// ---------------------------------------------------------------------------

/// A certified program that hits the tuple budget is an engine invariant
/// violation: the result carries the C001 error diagnostic and the profile
/// counts it.
#[test]
fn certified_tuple_budget_hit_is_an_invariant_error() {
    let program = parse_program("B(x) :- A(x).\nC(x) :- B(x).\n").unwrap();
    let certificate = TerminationCertificate::of_program(&program);
    assert!(certificate.terminating, "plain Datalog is weakly acyclic");
    let mut db = Database::new();
    for i in 0..8 {
        db.insert_values("A", [format!("a{i}")]).unwrap();
    }
    let config = ChaseConfig {
        max_new_tuples: 3,
        certificate: Some(certificate),
        ..Default::default()
    };
    let result = ChaseEngine::new(config).run(&program, &db);
    assert_eq!(result.termination, TerminationReason::TupleLimit);
    let c001 = result
        .diagnostics
        .iter()
        .find(|d| d.code == "C001")
        .expect("truncating a certified chase must raise C001");
    assert_eq!(c001.severity, Severity::Error);
    assert!(c001.message.contains("invariant violation"));
    assert_eq!(result.profile.lint_errors, 1);
    assert_eq!(
        result.profile.certificate.as_ref().map(|c| c.terminating),
        Some(true),
        "the profile must carry the certificate the run was configured with"
    );
}

/// An uncertified program chases behind the C002 pre-chase warning — even
/// when the run happens to reach a fixpoint — and the warning carries the
/// special-edge witness cycle.
#[test]
fn uncertified_chase_attaches_prechase_warning() {
    let program = parse_program("Reaches(y, z) :- Reaches(x, y).\n").unwrap();
    let certificate = TerminationCertificate::of_program(&program);
    assert!(!certificate.terminating, "the self-feeding TGD is not WA");
    let mut db = Database::new();
    // No Reaches facts: the chase reaches a fixpoint immediately, but the
    // missing certificate must still be reported.
    db.insert_values("Seed", ["s"]).unwrap();
    let config = ChaseConfig {
        certificate: Some(certificate),
        ..Default::default()
    };
    let result = ChaseEngine::new(config).run(&program, &db);
    assert_eq!(result.termination, TerminationReason::Fixpoint);
    let c002 = result
        .diagnostics
        .iter()
        .find(|d| d.code == "C002")
        .expect("an uncertified run must raise C002");
    assert_eq!(c002.severity, Severity::Warn);
    assert!(
        c002.witness.as_deref().unwrap_or("").contains("Reaches"),
        "C002 must carry the witness cycle: {:?}",
        c002.witness
    );
    assert_eq!(result.profile.lint_warnings, 1);
}

/// With no certificate configured (plain library callers), the engine
/// attaches no diagnostics at all — historical behavior is unchanged.
#[test]
fn chase_without_certificate_attaches_no_diagnostics() {
    let program = parse_program("B(x) :- A(x).\n").unwrap();
    let mut db = Database::new();
    db.insert_values("A", ["a"]).unwrap();
    let result = ChaseEngine::with_defaults().run(&program, &db);
    assert_eq!(result.termination, TerminationReason::Fixpoint);
    assert!(result.diagnostics.is_empty());
    assert!(result.profile.certificate.is_none());
}

// ---------------------------------------------------------------------------
// Protocol surface: the !check verb and the lint fields of !stats.
// ---------------------------------------------------------------------------

/// `!check` prints the machine-readable diagnostic lines followed by the
/// certificate summary; `!stats` exposes the lint counts.
#[test]
fn check_verb_reports_certificate_and_diagnostics() {
    let service = Arc::new(QualityService::new());
    service
        .register_context(
            "hospital",
            scenarios::hospital_context(),
            hospital::measurements_database(),
        )
        .unwrap();
    let pool = Arc::new(WorkerPool::new(2));

    let out = run_session(
        &service,
        &pool,
        "!check\n!check hospital\n!check nowhere\n!stats\n",
    );
    assert!(
        out.contains("diag code=L102 severity=warn"),
        "!check must print the baseline warning line: {out}"
    );
    assert!(
        out.contains("ok check context=hospital class=weakly-acyclic certified=yes"),
        "!check must print the certificate summary: {out}"
    );
    assert!(
        out.contains("errors=0 warnings=1"),
        "!check must count the baseline diagnostics: {out}"
    );
    assert!(
        out.contains("err: unknown context 'nowhere'"),
        "!check on an unknown context must fail cleanly: {out}"
    );
    assert!(
        out.contains("lint_errors=0") && out.contains("lint_warnings=1"),
        "!stats must expose the lint counts: {out}"
    );
}

// ---------------------------------------------------------------------------
// The property: certification is sound.
// ---------------------------------------------------------------------------

/// Render one random atom over the fixed vocabulary `P/1, Q/2, R/2` with
/// variables drawn from `vars`.
fn arb_atom(vars: &'static [&'static str]) -> impl Strategy<Value = String> {
    let var = prop_oneof![Just(vars[0]), Just(vars[1]), Just(vars[2]), Just(vars[3]),];
    let var2 = prop_oneof![Just(vars[0]), Just(vars[1]), Just(vars[2]), Just(vars[3]),];
    let var3 = prop_oneof![Just(vars[0]), Just(vars[1]), Just(vars[2]), Just(vars[3]),];
    (0usize..3, var, var2, var3).prop_map(|(p, a, b, c)| match p {
        0 => format!("P({a})"),
        1 => format!("Q({b}, {c})"),
        _ => format!("R({a}, {c})"),
    })
}

/// One random TGD: 1–2 body atoms over `x, y, z` and a head over
/// `x, y, z, w` — `w` (and any head variable absent from the body) is
/// existentially quantified, so special edges genuinely occur.
fn arb_rule() -> impl Strategy<Value = String> {
    const BODY_VARS: &[&str] = &["x", "y", "z", "x"];
    const HEAD_VARS: &[&str] = &["x", "y", "z", "w"];
    (
        proptest::collection::vec(arb_atom(BODY_VARS), 1..3),
        arb_atom(HEAD_VARS),
    )
        .prop_map(|(body, head)| format!("{head} :- {}.", body.join(", ")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness of the termination certificate: whenever the linter
    /// certifies a random program weakly acyclic, the restricted chase
    /// reaches `Fixpoint` — with no diagnostics — on the naive driver and on
    /// the semi-naive driver under every join kernel alike.
    #[test]
    fn certified_random_programs_always_reach_fixpoint(
        rules in proptest::collection::vec(arb_rule(), 1..5)
    ) {
        let program = parse_program(&rules.join("\n")).unwrap();
        let certificate = TerminationCertificate::of_program(&program);
        if !certificate.terminating {
            // Uncertified draws are out of scope for this property (their
            // chases may legitimately run to the budget).
            return Ok(());
        }
        let mut db = Database::new();
        db.insert_values("P", ["a"]).unwrap();
        db.insert_values("Q", ["a", "b"]).unwrap();
        db.insert_values("R", ["b", "a"]).unwrap();
        let certified = |join| {
            ChaseEngine::new(ChaseConfig {
                certificate: Some(certificate.clone()),
                ..ChaseConfig::with_join(join)
            })
        };
        let engines = [
            certified(JoinEngine::Auto),
            certified(JoinEngine::Hash),
            certified(JoinEngine::Leapfrog),
        ];
        let results = std::iter::once(engines[0].run_naive(&program, &db))
            .chain(engines.iter().map(|engine| engine.run(&program, &db)));
        for result in results {
            prop_assert_eq!(
                result.termination,
                TerminationReason::Fixpoint,
                "certified program must terminate ({}): {}",
                certificate,
                rules.join(" ")
            );
            prop_assert!(
                result.diagnostics.is_empty(),
                "a certified fixpoint run must be diagnostic-free: {:?}",
                result.diagnostics
            );
        }
    }
}
