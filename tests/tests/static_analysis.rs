//! End-to-end suite for the `ontodq-lint` static-analysis engine: the
//! shipped fixtures lint clean against a pinned baseline, unsafe and
//! uncertified (non-weakly-acyclic) programs are refused at registration
//! with structured diagnostics, a certified program whose initial chase
//! stops on a budget is refused as incomplete, the `!check` protocol verb
//! reports the termination certificate, and — the property — every
//! randomly generated program the linter *certifies* terminating really
//! does chase to `Fixpoint` on all three evaluation strategies.

use ontodq_chase::{ChaseConfig, ChaseEngine, JoinEngine, TerminationReason};
use ontodq_core::{lint_context, scenarios, Context, ContextError};
use ontodq_datalog::DatalogClass;
use ontodq_datalog::{lint, parse_program, Severity, TerminationCertificate};
use ontodq_mdm::compile;
use ontodq_mdm::fixtures::hospital;
use ontodq_relational::Database;
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

/// The hospital context plus an external source `Reaches_c(a, b)` and a
/// contextual rule whose position graph has a cycle through a special edge
/// (`Reaches_c[1] ⇒ Reaches_c[1]`): not weakly acyclic, and its chase never
/// reaches a fixpoint — each round invents one more null.
fn uncertified_context() -> Context {
    let mut reaches = Database::new();
    reaches.insert_values("Reaches_c", ["a", "b"]).unwrap();
    scenarios::hospital_context_builder()
        .external_source(reaches)
        .contextual_rule("Reaches_c(y, z) :- Reaches_c(x, y).")
        .build()
        .expect("the context is well-formed; it is merely uncertified")
}

/// Transitive closure over a copied edge relation: plain Datalog, so
/// weakly acyclic and certified.
fn closure_context() -> Context {
    Context::builder("closure-context")
        .copy_relation("E")
        .contextual_rule("T(x, y) :- E_c(x, y).")
        .contextual_rule("T(x, z) :- T(x, y), E_c(y, z).")
        .quality_version("E", &["E_q(x, y) :- E_c(x, y), T(x, y)."])
        .build()
        .expect("the closure context is well-formed")
}

// ---------------------------------------------------------------------------
// Fixture baselines: the programs the repository ships must stay lint-clean.
// ---------------------------------------------------------------------------

/// Both paper-form ontologies are weakly acyclic with no L105 or L106, and
/// the hospital fixture (the paper's running example) lints with zero
/// errors, a weakly-acyclic termination certificate, and exactly the
/// pinned warning baseline: L102 on the Shifts rule (no quality query
/// depends on it).
#[test]
fn hospital_fixture_is_certified_with_pinned_baseline() {
    for ontology in [
        hospital::ontology(),
        hospital::ontology_with_discharge_rule(),
    ] {
        let report = lint(&compile(&ontology).program);
        assert_eq!(report.certificate.class, DatalogClass::WeaklyAcyclic);
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.code != "L105" && d.code != "L106"),
            "paper-form ontologies must be separable and certified: {:?}",
            report.diagnostics
        );
    }
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
// Termination: only certified programs whose chase reaches a fixpoint.
// ---------------------------------------------------------------------------

/// A non-weakly-acyclic context is refused at registration with the L106
/// error and its special-edge witness cycle, and is not registered.
#[test]
fn uncertified_context_is_refused_at_registration() {
    let service = QualityService::new();
    let result = service.register_context(
        "uncertified",
        uncertified_context(),
        hospital::measurements_database(),
    );
    let Err(ServiceError::Context(ContextError::Rejected(diagnostics))) = result else {
        panic!("registration must fail with ContextError::Rejected, got {result:?}");
    };
    let l106 = diagnostics
        .iter()
        .find(|d| d.code == "L106")
        .expect("the refusal must carry the L106 diagnostic");
    assert_eq!(l106.severity, Severity::Error);
    assert!(
        l106.witness.as_deref().unwrap_or("").contains("Reaches_c"),
        "the witness cycle must run through Reaches_c: {:?}",
        l106.witness
    );
    assert!(service.check("uncertified").is_err());
}

/// A certified program whose initial chase stops on the round budget (a
/// 1,100-edge chain needs 1,100 closure rounds; the default budget is
/// 1,000) is refused as `Incomplete`, and nothing is registered.
#[test]
fn certified_chase_that_stops_short_is_refused() {
    let mut chain = Database::new();
    for i in 0..1_100 {
        chain
            .insert_values("E", [format!("n{i}"), format!("n{}", i + 1)])
            .unwrap();
    }
    let context = closure_context();
    let report = lint_context(&context, &chain);
    assert_eq!(report.error_count(), 0, "{:?}", report.errors());
    assert!(report.certificate.terminating);

    let service = QualityService::new();
    let result = service.register_context("chain", context, chain);
    let Err(ServiceError::Context(ContextError::Incomplete { reason })) = result else {
        panic!("registration must fail with ContextError::Incomplete, got {result:?}");
    };
    assert_eq!(reason, TerminationReason::RoundLimit);
    assert!(service.check("chain").is_err());
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
    /// reaches `Fixpoint` on the naive driver and on the semi-naive driver
    /// under every join kernel alike.
    #[test]
    fn certified_random_programs_always_reach_fixpoint(
        rules in proptest::collection::vec(arb_rule(), 1..5)
    ) {
        let program = parse_program(&rules.join("\n")).unwrap();
        let certificate = TerminationCertificate::of_program(&program);
        if !certificate.terminating {
            // Uncertified draws are out of scope for this property: the
            // admission door refuses them.
            return Ok(());
        }
        let mut db = Database::new();
        db.insert_values("P", ["a"]).unwrap();
        db.insert_values("Q", ["a", "b"]).unwrap();
        db.insert_values("R", ["b", "a"]).unwrap();
        let engines = [JoinEngine::Auto, JoinEngine::Hash, JoinEngine::Leapfrog]
            .map(|join| ChaseEngine::new(ChaseConfig::with_join(join)));
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
        }
    }
}
