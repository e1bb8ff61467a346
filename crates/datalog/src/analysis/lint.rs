//! `ontodq-lint`: static diagnostics over Datalog± programs.
//!
//! The paper's tractability story is *syntactic* — multidimensional
//! ontologies compiled from rule forms (1)–(4)/(10) are weakly sticky, and
//! weakly-acyclic programs have a terminating restricted chase.  This module
//! turns the classifiers ([`mod@crate::analysis::classify`]), the position graph
//! ([`crate::graph::PositionGraph`]) and the separability check
//! ([`crate::analysis::separability`]) into a single linting pass producing
//! structured [`Diagnostic`]s, plus a [`TerminationCertificate`] the chase
//! engine consumes (`ontodq_chase::ChaseConfig`): certified programs turn a
//! tuple-budget truncation into a loud invariant error, uncertified programs
//! chase behind an explicit warning.
//!
//! Diagnostic codes (catalogued in `docs/analysis.md`):
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | L001 | error | head/equated variable not bound by a positive body atom |
//! | L002 | error | negated-atom or comparison variable unbound in positive body |
//! | L003 | error | malformed rule shape (empty head/body, negation in a TGD body) |
//! | L004 | error | predicate used with inconsistent arities |
//! | L005 | error | negation cycle — the program is not stratifiable |
//! | L101 | warn  | dead rule: a body predicate is fed by no EDB relation and no head |
//! | L102 | warn  | rule derives only predicates no quality query depends on |
//! | L103 | warn  | cartesian product: rule body has disconnected variable components |
//! | L104 | warn  | duplicate rule (shadowed by an identical earlier rule) |
//! | L105 | error | EGD is not separable from the TGDs (it could meet a labeled null) |
//! | L106 | warn  | no termination certificate: chase may only stop on budgets |
//! | L201 | info  | class-lattice placement of the program |

use crate::analysis::classify::{classify_tgds, ClassReport, DatalogClass};
use crate::analysis::separability;
use crate::graph::{PositionGraph, PredicateGraph};
use crate::program::{Position, Program};
use crate::rule::Tgd;
use crate::term::Variable;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: nothing to fix, something worth knowing.
    Info,
    /// Suspicious but runnable; the program's semantics may not be what the
    /// author intended, or a guarantee is missing.
    Warn,
    /// The program is rejected: running it would be unsound or impossible.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// Which rule of the program a diagnostic points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleRef {
    /// Rule kind: `tgd`, `egd`, `constraint` or `delete`.
    pub(crate) kind: &'static str,
    /// Index within the program's list of that kind.
    pub(crate) index: usize,
    /// The rule, rendered back to its concrete syntax.
    pub(crate) text: String,
}

impl fmt::Display for RuleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.kind, self.index)
    }
}

/// One structured finding of the linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`L001`, …; see the module table).
    pub code: &'static str,
    /// Error / warn / info.
    pub severity: Severity,
    /// The rule the finding anchors to (`None` for program-level findings).
    pub rule: Option<RuleRef>,
    /// Human-readable statement of the problem.
    pub message: String,
    /// The concrete witness (a variable, a position cycle, an arity set…)
    /// when one exists.
    pub witness: Option<String>,
}

impl Diagnostic {
    /// A diagnostic with no rule anchor and no witness (builder root; chain
    /// `Diagnostic::at` / [`Diagnostic::witnessed`] to attach them).
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Self {
            code,
            severity,
            rule: None,
            message: message.into(),
            witness: None,
        }
    }

    /// Anchor the diagnostic to a rule.
    pub(crate) fn at(mut self, kind: &'static str, index: usize, text: impl Into<String>) -> Self {
        self.rule = Some(RuleRef {
            kind,
            index,
            text: text.into(),
        });
        self
    }

    /// Attach a concrete witness.
    pub fn witnessed(mut self, witness: impl Into<String>) -> Self {
        self.witness = Some(witness.into());
        self
    }

    /// The machine-readable line format used by the server's `!check` verb
    /// and the `ontodq-lint` binary:
    /// `diag code=L001 severity=error rule=tgd#2 message="…" witness="…"`.
    pub fn line(&self) -> String {
        let mut out = format!("diag code={} severity={}", self.code, self.severity);
        if let Some(rule) = &self.rule {
            out.push_str(&format!(" rule={rule}"));
        }
        out.push_str(&format!(" message={:?}", self.message));
        if let Some(witness) = &self.witness {
            out.push_str(&format!(" witness={witness:?}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    /// The human-oriented form; [`Diagnostic::line`] is the machine format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity, self.code)?;
        if let Some(rule) = &self.rule {
            write!(f, " {rule}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(witness) = &self.witness {
            write!(f, " (witness: {witness})")?;
        }
        Ok(())
    }
}

/// The chase-termination verdict the classifier can certify.
///
/// `terminating` is `true` exactly when the TGD set is **weakly acyclic**
/// (Fagin et al.): the restricted chase then reaches a fixpoint on every
/// instance.  The other classes (linear, guarded, sticky, weakly sticky)
/// buy decidable query answering, not chase termination, so they do not
/// certify.  When the program is not weakly acyclic, `witness_cycle` holds a
/// position-graph cycle through a special edge — the concrete reason an
/// unbounded number of fresh nulls may be created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminationCertificate {
    /// Most specific class-lattice placement.
    pub class: DatalogClass,
    /// Full membership report.
    pub report: ClassReport,
    /// `true` when the restricted chase is guaranteed to terminate.
    pub terminating: bool,
    /// A cycle through a special edge (`from ⇒ … → from`) when not
    /// terminating; empty otherwise.
    pub witness_cycle: Vec<Position>,
}

impl TerminationCertificate {
    /// Classify `tgds` and extract a witness cycle when termination cannot
    /// be certified.
    pub(crate) fn of_tgds(tgds: &[Tgd]) -> Self {
        let report = classify_tgds(tgds);
        let witness_cycle = if report.weakly_acyclic {
            Vec::new()
        } else {
            let positions = crate::analysis::classify::schema_positions(tgds);
            PositionGraph::from_tgds(tgds, positions)
                .special_cycle()
                .unwrap_or_default()
        };
        Self {
            class: report.most_specific,
            terminating: report.weakly_acyclic,
            witness_cycle,
            report,
        }
    }

    /// Classify a whole program's TGDs.
    pub fn of_program(program: &Program) -> Self {
        Self::of_tgds(&program.tgds)
    }

    /// The witness cycle rendered as `R[1] -> S[0] -> R[1]` (empty string
    /// when terminating).
    pub fn rendered_cycle(&self) -> String {
        self.witness_cycle
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

impl fmt::Display for TerminationCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "class={} certified={}",
            self.class,
            if self.terminating { "yes" } else { "no" }
        )
    }
}

/// The result of linting one program: every diagnostic plus the termination
/// certificate and the stratification outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, program order within each check, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// The chase-termination certificate of the program's TGDs.
    pub certificate: TerminationCertificate,
    /// Number of strata of the (currently negation-free) predicate
    /// dependency graph; `None` when the program is not stratifiable.
    pub strata: Option<usize>,
}

impl LintReport {
    /// Findings of severity [`Severity::Error`].
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.of_severity(Severity::Error)
    }

    /// Findings of severity [`Severity::Warn`].
    pub fn warnings(&self) -> Vec<&Diagnostic> {
        self.of_severity(Severity::Warn)
    }

    fn of_severity(&self, severity: Severity) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .collect()
    }

    /// Number of error findings.
    pub fn error_count(&self) -> usize {
        self.errors().len()
    }

    /// Number of warning findings.
    pub fn warning_count(&self) -> usize {
        self.warnings().len()
    }

    /// One-line summary: `class=… certified=… errors=N warnings=M`.
    pub fn summary(&self) -> String {
        format!(
            "{} errors={} warnings={}",
            self.certificate,
            self.error_count(),
            self.warning_count()
        )
    }
}

/// Lint a standalone program (no instance, no quality goals): the dead-rule
/// and reachability lints that need that context are skipped.
pub fn lint(program: &Program) -> LintReport {
    lint_with(program, None, &[])
}

/// Lint a program with its deployment context: `edb` names the extensional
/// relations the instance actually provides (enables the dead-rule lint),
/// `goals` names the predicates queries are asked against — for a context,
/// its quality predicates and quality versions (enables the reachability
/// lint).
pub fn lint_with(
    program: &Program,
    edb: Option<&BTreeSet<String>>,
    goals: &[String],
) -> LintReport {
    let mut diagnostics = Vec::new();

    check_arities(program, &mut diagnostics);
    check_shapes(program, &mut diagnostics);
    check_safety(program, &mut diagnostics);
    let strata = check_stratification(program, &mut diagnostics);
    check_dead_rules(program, edb, &mut diagnostics);
    check_reachability(program, goals, &mut diagnostics);
    check_cartesian_products(program, &mut diagnostics);
    check_duplicates(program, &mut diagnostics);
    check_separability(program, &mut diagnostics);

    let certificate = TerminationCertificate::of_program(program);
    if !certificate.terminating {
        diagnostics.push(
            Diagnostic::new(
                "L106",
                Severity::Warn,
                format!(
                    "no termination certificate: the TGD set is {} (not weakly acyclic), \
                     so the chase may only stop on its round/tuple budgets",
                    certificate.class
                ),
            )
            .witnessed(format!(
                "special-edge cycle: {}",
                certificate.rendered_cycle()
            )),
        );
    }
    diagnostics.push(Diagnostic::new(
        "L201",
        Severity::Info,
        format!(
            "program classified as {}: {}",
            certificate.class, certificate.report
        ),
    ));

    diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));
    LintReport {
        diagnostics,
        certificate,
        strata,
    }
}

/// L004: every use of a predicate (rules, facts, deletions) must agree on
/// its arity.
fn check_arities(program: &Program, out: &mut Vec<Diagnostic>) {
    let mut arities: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    let mut record = |predicate: &str, arity: usize| {
        arities
            .entry(predicate.to_string())
            .or_default()
            .insert(arity);
    };
    for tgd in &program.tgds {
        for atom in tgd
            .body
            .atoms
            .iter()
            .chain(tgd.body.negated.iter())
            .chain(tgd.head.iter())
        {
            record(&atom.predicate, atom.arity());
        }
    }
    for egd in &program.egds {
        for atom in egd.body.atoms.iter().chain(egd.body.negated.iter()) {
            record(&atom.predicate, atom.arity());
        }
    }
    for nc in &program.constraints {
        for atom in nc.body.atoms.iter().chain(nc.body.negated.iter()) {
            record(&atom.predicate, atom.arity());
        }
    }
    for fact in &program.facts {
        record(&fact.atom().predicate, fact.atom().arity());
    }
    for retraction in &program.retractions {
        record(&retraction.atom().predicate, retraction.atom().arity());
    }
    for delete in &program.deletions {
        record(&delete.head.predicate, delete.head.arity());
        for atom in delete.body.atoms.iter().chain(delete.body.negated.iter()) {
            record(&atom.predicate, atom.arity());
        }
    }
    for (predicate, seen) in arities {
        if seen.len() > 1 {
            out.push(
                Diagnostic::new(
                    "L004",
                    Severity::Error,
                    format!("predicate '{predicate}' is used with inconsistent arities"),
                )
                .witnessed(format!(
                    "arities {{{}}}",
                    seen.iter()
                        .map(|a| a.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )),
            );
        }
    }
}

/// L003: structural rule shapes the engine cannot run.
fn check_shapes(program: &Program, out: &mut Vec<Diagnostic>) {
    for (i, tgd) in program.tgds.iter().enumerate() {
        if tgd.head.is_empty() {
            out.push(
                Diagnostic::new("L003", Severity::Error, "TGD has an empty head").at(
                    "tgd",
                    i,
                    tgd.to_string(),
                ),
            );
        }
        if tgd.body.atoms.is_empty() {
            out.push(
                Diagnostic::new("L003", Severity::Error, "TGD has no positive body atoms").at(
                    "tgd",
                    i,
                    tgd.to_string(),
                ),
            );
        }
        if !tgd.body.negated.is_empty() {
            out.push(
                Diagnostic::new(
                    "L003",
                    Severity::Error,
                    "negated body atoms in TGDs are not supported by the chase yet",
                )
                .at("tgd", i, tgd.to_string()),
            );
        }
    }
    for (i, delete) in program.deletions.iter().enumerate() {
        if delete.body.atoms.is_empty() {
            out.push(
                Diagnostic::new(
                    "L003",
                    Severity::Error,
                    "conditional delete has no positive body atoms",
                )
                .at("delete", i, delete.to_string()),
            );
        }
    }
}

/// L001/L002: range restriction.  Every variable the rule *uses* — in its
/// head (unless purely existential), in an equated pair, in a negated atom
/// or in a comparison — must be bound by at least one positive body atom.
fn check_safety(program: &Program, out: &mut Vec<Diagnostic>) {
    for (i, tgd) in program.tgds.iter().enumerate() {
        let positive = positive_variables(&tgd.body.atoms);
        for var in tgd.head_variables() {
            // Head variables absent from the whole body are existential
            // (they become fresh labeled nulls); head variables present in
            // the body but only in a negated atom or comparison are unsafe.
            if !positive.contains(&var) && tgd.body_variables().contains(&var) {
                out.push(
                    Diagnostic::new(
                        "L001",
                        Severity::Error,
                        format!("head variable '{var}' is not bound by any positive body atom"),
                    )
                    .at("tgd", i, tgd.to_string())
                    .witnessed(var.to_string()),
                );
            }
        }
        check_body_safety(&tgd.body, &positive, "tgd", i, &tgd.to_string(), out);
    }
    for (i, egd) in program.egds.iter().enumerate() {
        let positive = positive_variables(&egd.body.atoms);
        for var in [&egd.left, &egd.right] {
            if !positive.contains(var) {
                out.push(
                    Diagnostic::new(
                        "L001",
                        Severity::Error,
                        format!("equated variable '{var}' is not bound by any positive body atom"),
                    )
                    .at("egd", i, egd.to_string())
                    .witnessed(var.to_string()),
                );
            }
        }
        check_body_safety(&egd.body, &positive, "egd", i, &egd.to_string(), out);
    }
    for (i, nc) in program.constraints.iter().enumerate() {
        let positive = positive_variables(&nc.body.atoms);
        check_body_safety(&nc.body, &positive, "constraint", i, &nc.to_string(), out);
    }
    for (i, delete) in program.deletions.iter().enumerate() {
        let positive = positive_variables(&delete.body.atoms);
        let wildcards = delete.wildcard_variables();
        for var in delete.head.variables() {
            if !wildcards.contains(&var) && !positive.contains(&var) {
                out.push(
                    Diagnostic::new(
                        "L001",
                        Severity::Error,
                        format!(
                            "deletion head variable '{var}' is neither a wildcard nor bound by a \
                             positive body atom"
                        ),
                    )
                    .at("delete", i, delete.to_string())
                    .witnessed(var.to_string()),
                );
            }
        }
        check_body_safety(
            &delete.body,
            &positive,
            "delete",
            i,
            &delete.to_string(),
            out,
        );
    }
}

/// Variables bound by the positive atoms of a body.
fn positive_variables(atoms: &[crate::atom::Atom]) -> BTreeSet<Variable> {
    atoms.iter().flat_map(|a| a.variables()).collect()
}

/// The shared negated-atom / comparison half of the safety check.
fn check_body_safety(
    body: &crate::atom::Conjunction,
    positive: &BTreeSet<Variable>,
    kind: &'static str,
    index: usize,
    text: &str,
    out: &mut Vec<Diagnostic>,
) {
    for atom in &body.negated {
        for var in atom.variables() {
            if !positive.contains(&var) {
                out.push(
                    Diagnostic::new(
                        "L002",
                        Severity::Error,
                        format!(
                            "variable '{var}' of negated atom {atom} is not bound by any \
                             positive body atom"
                        ),
                    )
                    .at(kind, index, text.to_string())
                    .witnessed(var.to_string()),
                );
            }
        }
    }
    for comparison in &body.comparisons {
        for var in comparison.variables() {
            if !positive.contains(&var) {
                out.push(
                    Diagnostic::new(
                        "L002",
                        Severity::Error,
                        format!(
                            "comparison variable '{var}' is not bound by any positive body atom"
                        ),
                    )
                    .at(kind, index, text.to_string())
                    .witnessed(var.to_string()),
                );
            }
        }
    }
}

/// L005 + the strata count.  Strata are computed over the predicate
/// dependency graph with positive edges (`stratum(head) ≥ stratum(body)`)
/// and negative edges (`stratum(head) > stratum(negated body)`); a program
/// is stratifiable iff no cycle passes through a negative edge.  TGD bodies
/// are negation-free today (L003 rejects them), so this pass is the
/// prerequisite shipped ahead of the negation language feature.
fn check_stratification(program: &Program, out: &mut Vec<Diagnostic>) -> Option<usize> {
    let mut predicates: BTreeSet<String> = BTreeSet::new();
    // (from, to, negative)
    let mut edges: Vec<(String, String, bool)> = Vec::new();
    for tgd in &program.tgds {
        for head in &tgd.head {
            predicates.insert(head.predicate.clone());
            for atom in &tgd.body.atoms {
                predicates.insert(atom.predicate.clone());
                edges.push((atom.predicate.clone(), head.predicate.clone(), false));
            }
            for atom in &tgd.body.negated {
                predicates.insert(atom.predicate.clone());
                edges.push((atom.predicate.clone(), head.predicate.clone(), true));
            }
        }
    }
    let mut stratum: BTreeMap<&str, usize> = predicates.iter().map(|p| (p.as_str(), 0)).collect();
    let bound = predicates.len().max(1);
    for _ in 0..=bound {
        let mut changed = false;
        for (from, to, negative) in &edges {
            let floor = stratum[from.as_str()] + usize::from(*negative);
            if stratum[to.as_str()] < floor {
                *stratum
                    .get_mut(to.as_str())
                    .expect("stratum key inserted above") = floor;
                changed = true;
            }
        }
        if !changed {
            let max = stratum.values().copied().max().unwrap_or(0);
            return Some(max + 1);
        }
    }
    // No fixpoint within |predicates| sweeps: some cycle raises a stratum
    // unboundedly, which only a negative edge can do.
    let cycle: Vec<&str> = stratum
        .iter()
        .filter(|(_, s)| **s > bound)
        .map(|(p, _)| *p)
        .collect();
    out.push(
        Diagnostic::new(
            "L005",
            Severity::Error,
            "the program is not stratifiable: a dependency cycle passes through negation",
        )
        .witnessed(cycle.join(", ")),
    );
    None
}

/// L101: a rule whose positive body mentions a predicate fed by no EDB
/// relation, no program fact and no rule head can never fire.
fn check_dead_rules(program: &Program, edb: Option<&BTreeSet<String>>, out: &mut Vec<Diagnostic>) {
    let Some(edb) = edb else {
        return; // Without instance knowledge every base predicate may be EDB.
    };
    let heads: BTreeSet<&str> = program
        .tgds
        .iter()
        .flat_map(|t| t.head.iter())
        .map(|a| a.predicate.as_str())
        .collect();
    let facts: BTreeSet<&str> = program
        .facts
        .iter()
        .map(|f| f.atom().predicate.as_str())
        .collect();
    for (i, tgd) in program.tgds.iter().enumerate() {
        for atom in &tgd.body.atoms {
            let p = atom.predicate.as_str();
            if !edb.contains(p) && !heads.contains(p) && !facts.contains(p) {
                out.push(
                    Diagnostic::new(
                        "L101",
                        Severity::Warn,
                        format!(
                            "dead rule: body predicate '{p}' is fed by no EDB relation, no fact \
                             and no rule head, so the rule can never fire"
                        ),
                    )
                    .at("tgd", i, tgd.to_string())
                    .witnessed(p.to_string()),
                );
            }
        }
    }
}

/// L102: with quality goals known, a rule every head predicate of which is
/// outside the goals' dependency cone contributes nothing to any answer.
fn check_reachability(program: &Program, goals: &[String], out: &mut Vec<Diagnostic>) {
    if goals.is_empty() {
        return;
    }
    let graph = PredicateGraph::build(program);
    let goal_refs: Vec<&str> = goals.iter().map(|g| g.as_str()).collect();
    let needed = graph.ancestors_of(&goal_refs);
    for (i, tgd) in program.tgds.iter().enumerate() {
        let heads: Vec<&str> = tgd.head.iter().map(|a| a.predicate.as_str()).collect();
        if heads.iter().all(|h| !needed.contains(*h)) {
            out.push(
                Diagnostic::new(
                    "L102",
                    Severity::Warn,
                    format!(
                        "unreachable rule: no quality query depends on {}",
                        heads.join(", ")
                    ),
                )
                .at("tgd", i, tgd.to_string())
                .witnessed(heads.join(", ")),
            );
        }
    }
}

/// L103: positive body atoms that split into several variable-connected
/// components multiply instead of joining.
fn check_cartesian_products(program: &Program, out: &mut Vec<Diagnostic>) {
    for (i, tgd) in program.tgds.iter().enumerate() {
        if let Some(witness) = cartesian_components(&tgd.body.atoms) {
            out.push(
                Diagnostic::new(
                    "L103",
                    Severity::Warn,
                    "rule body is a cartesian product: its atoms split into variable-disjoint \
                     components",
                )
                .at("tgd", i, tgd.to_string())
                .witnessed(witness),
            );
        }
    }
}

/// `Some(rendered components)` when `atoms` form more than one
/// variable-connected component.
fn cartesian_components(atoms: &[crate::atom::Atom]) -> Option<String> {
    if atoms.len() < 2 {
        return None;
    }
    // Union-find over atom indices, linked through shared variables.
    let mut parent: Vec<usize> = (0..atoms.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let mut owner: BTreeMap<Variable, usize> = BTreeMap::new();
    for (i, atom) in atoms.iter().enumerate() {
        for var in atom.variables() {
            match owner.get(&var) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        parent[a] = b;
                    }
                }
                None => {
                    owner.insert(var, i);
                }
            }
        }
    }
    let mut components: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, atom) in atoms.iter().enumerate() {
        let root = find(&mut parent, i);
        components.entry(root).or_default().push(atom.to_string());
    }
    (components.len() > 1).then(|| {
        components
            .values()
            .map(|atoms| format!("{{{}}}", atoms.join(", ")))
            .collect::<Vec<_>>()
            .join(" x ")
    })
}

/// L104: a TGD textually identical (modulo label) to an earlier one.
fn check_duplicates(program: &Program, out: &mut Vec<Diagnostic>) {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for (i, tgd) in program.tgds.iter().enumerate() {
        let mut unlabeled = tgd.clone();
        unlabeled.label = None;
        let rendered = unlabeled.to_string();
        match seen.get(&rendered) {
            Some(&first) => out.push(
                Diagnostic::new(
                    "L104",
                    Severity::Warn,
                    format!("duplicate rule: identical to tgd#{first}"),
                )
                .at("tgd", i, tgd.to_string())
                .witnessed(format!("tgd#{first}")),
            ),
            None => {
                seen.insert(rendered, i);
            }
        }
    }
}

/// L105: surface the EGD-separability verdicts of
/// [`crate::analysis::separability`] as diagnostics.  An error: the chase
/// checks EGDs as constraints over constants and never unifies a null, which
/// is exact only for separable EGDs.
fn check_separability(program: &Program, out: &mut Vec<Diagnostic>) {
    let report = separability::check_program(program);
    for verdict in &report.egds {
        if !verdict.separable {
            let egd = &program.egds[verdict.egd_index];
            out.push(
                Diagnostic::new(
                    "L105",
                    Severity::Error,
                    "EGD is not separable from the TGDs: it equates values at positions where \
                     labeled nulls may appear, and EGDs are checked, never applied",
                )
                .at("egd", verdict.egd_index, egd.to_string())
                .witnessed(
                    verdict
                        .offending_positions
                        .iter()
                        .map(|p| p.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_hospital_rules_lint_clean() {
        let program = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n",
        )
        .unwrap();
        let report = lint(&program);
        assert!(
            report.error_count() == 0,
            "unexpected errors: {:?}",
            report.errors()
        );
        assert_eq!(report.warning_count(), 0);
        assert!(report.certificate.terminating);
        assert_eq!(report.strata, Some(1));
        // The only diagnostic is the L201 class info.
        assert_eq!(codes(&report), vec!["L201"]);
    }

    #[test]
    fn comparison_only_head_variable_is_unsafe() {
        let program = parse_program("Q(x, y) :- P(x), y > 5.\n").unwrap();
        let report = lint(&program);
        assert!(report.error_count() > 0);
        let error = &report.errors()[0];
        assert_eq!(error.code, "L001");
        assert_eq!(error.witness.as_deref(), Some("y"));
        assert!(error.rule.as_ref().unwrap().kind == "tgd");
    }

    #[test]
    fn unbound_comparison_variable_is_unsafe() {
        let program = parse_program("Q(x) :- P(x), z > 5.\n").unwrap();
        let report = lint(&program);
        assert!(report.diagnostics.iter().any(|d| d.code == "L002"));
    }

    #[test]
    fn pure_existential_head_variables_are_fine() {
        let program = parse_program("Shifts(w, z) :- Ward(w).\n").unwrap();
        let report = lint(&program);
        assert!(report.error_count() == 0);
    }

    #[test]
    fn arity_mismatch_is_flagged() {
        let program = parse_program("P(x) :- Q(x).\nR(x, y) :- Q(x, y).\n").unwrap();
        let report = lint(&program);
        assert!(report.diagnostics.iter().any(|d| d.code == "L004"
            && d.severity == Severity::Error
            && d.message.contains("'Q'")));
    }

    #[test]
    fn dead_rule_needs_edb_knowledge() {
        let program = parse_program("P(x) :- Ghost(x).\n").unwrap();
        // Without an EDB set the lint stays silent.
        assert!(lint(&program).error_count() == 0);
        // With one that lacks 'Ghost' the rule is dead.
        let edb: BTreeSet<String> = ["Real".to_string()].into_iter().collect();
        let report = lint_with(&program, Some(&edb), &[]);
        let dead: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L101")
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].witness.as_deref(), Some("Ghost"));
    }

    #[test]
    fn unreachable_rule_relative_to_goals() {
        let program = parse_program(
            "Useful(x) :- Base(x).\n\
             Orphan(x) :- Base(x).\n",
        )
        .unwrap();
        let report = lint_with(&program, None, &["Useful".to_string()]);
        let unreachable: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L102")
            .collect();
        assert_eq!(unreachable.len(), 1);
        assert_eq!(unreachable[0].rule.as_ref().unwrap().index, 1);
    }

    #[test]
    fn cartesian_product_bodies_are_flagged() {
        let program = parse_program("Pair(x, y) :- Left(x), Right(y).\n").unwrap();
        let report = lint(&program);
        let cartesian: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L103")
            .collect();
        assert_eq!(cartesian.len(), 1);
        assert!(cartesian[0].witness.as_deref().unwrap().contains(" x "));
        // A connected body is not.
        let joined = parse_program("Pair(x, y) :- Left(x, y), Right(y).\n").unwrap();
        assert!(!lint(&joined).diagnostics.iter().any(|d| d.code == "L103"));
    }

    #[test]
    fn duplicate_rules_are_flagged() {
        let program = parse_program(
            "P(x) :- Q(x).\n\
             P(x) :- Q(x).\n",
        )
        .unwrap();
        let report = lint(&program);
        let dups: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L104")
            .collect();
        assert_eq!(dups.len(), 1);
        assert_eq!(dups[0].rule.as_ref().unwrap().index, 1);
    }

    #[test]
    fn non_separable_egd_is_surfaced() {
        let program = parse_program(
            "Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n\
             s = s2 :- Shifts(w, d, n, s), Shifts(w, d, n2, s2).\n",
        )
        .unwrap();
        let report = lint(&program);
        assert!(report
            .errors()
            .iter()
            .any(|d| d.code == "L105" && d.witness.as_deref().unwrap().contains("Shifts[3]")));
    }

    #[test]
    fn uncertified_program_gets_witness_cycle() {
        let program = parse_program("R(y, z) :- R(x, y).\n").unwrap();
        let report = lint(&program);
        assert!(!report.certificate.terminating);
        assert!(!report.certificate.witness_cycle.is_empty());
        let warn = report
            .diagnostics
            .iter()
            .find(|d| d.code == "L106")
            .expect("uncertified warning");
        assert!(warn.witness.as_deref().unwrap().contains("R[1]"));
        assert!(report.summary().contains("certified=no"));
    }

    #[test]
    fn certificate_of_weakly_acyclic_program_certifies() {
        let program = parse_program("T(x, z) :- S(x).\nU(z) :- T(x, z).\n").unwrap();
        let cert = TerminationCertificate::of_program(&program);
        assert!(cert.terminating);
        assert!(cert.witness_cycle.is_empty());
        assert_eq!(cert.rendered_cycle(), "");
    }

    #[test]
    fn diagnostic_line_format_is_machine_readable() {
        let program = parse_program("Q(x, y) :- P(x), y > 5.\n").unwrap();
        let report = lint(&program);
        let line = report.errors()[0].line();
        assert!(line.starts_with("diag code=L001 severity=error rule=tgd#0"));
        assert!(line.contains("message=\""));
        assert!(line.contains("witness=\"y\""));
    }

    #[test]
    fn errors_sort_before_warnings_and_info() {
        let program = parse_program(
            "Pair(x, y) :- Left(x), Right(y).\n\
             Q(a, b) :- P(a), b > 5.\n",
        )
        .unwrap();
        let report = lint(&program);
        let severities: Vec<Severity> = report.diagnostics.iter().map(|d| d.severity).collect();
        let mut sorted = severities.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(severities, sorted);
    }

    #[test]
    fn negation_free_programs_collapse_to_one_stratum() {
        // Positive edges only require stratum(head) >= stratum(body), so a
        // negation-free chain stays in a single stratum.
        let program = parse_program(
            "B(x) :- A(x).\n\
             C(x) :- B(x).\n",
        )
        .unwrap();
        let report = lint(&program);
        assert_eq!(report.strata, Some(1));
    }
}
