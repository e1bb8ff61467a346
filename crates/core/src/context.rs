//! Contexts for data quality assessment — the paper's Section V (and Fig. 2).
//!
//! A [`Context`] packages everything needed to assess an instance `D`:
//!
//! * **schema mappings** that send each relation of `D` to a *contextual
//!   copy* (the paper's `Measurements^c`) or footprint inside the context,
//! * the **multidimensional ontology** `M` (dimensions, categorical
//!   relations, dimensional rules and constraints),
//! * **contextual rules** defining additional contextual predicates (the
//!   paper's `Measurements'`) and **quality predicates** `P_i` (the paper's
//!   `TakenByNurse`, `TakenWithTherm`),
//! * **quality-version definitions**: rules whose heads are the quality
//!   versions `S_i^q` of the original relations,
//! * optional **external sources** `E_i` (extra extensional data).
//!
//! A context is *assessed* against an instance by
//! [`crate::assessment::assess`], which compiles everything into one Datalog±
//! program, chases it, and extracts the quality versions.

use ontodq_datalog::{parse_rule, Diagnostic, Rule, Severity, Tgd};
use ontodq_mdm::MdOntology;
use ontodq_relational::Database;
use std::collections::BTreeMap;
use std::fmt;

/// Why a [`Context`] could not be built.
///
/// Contexts used to panic on malformed rule texts; a long-running service
/// registers contexts on behalf of callers, so construction failures must be
/// reportable instead of fatal — [`ContextBuilder::build`] returns the first
/// error it accumulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContextError {
    /// A rule text did not parse at all.
    BadRuleText {
        /// The offending rule text.
        text: String,
        /// The parser's diagnostic.
        message: String,
    },
    /// A rule text parsed, but not to a TGD (contexts only contribute TGDs;
    /// constraints belong to the ontology).
    NotATgd {
        /// The offending rule text.
        text: String,
        /// What it parsed to instead.
        parsed: String,
    },
    /// An external source cannot join the contextual instance: two sources
    /// disagree on a relation schema, or an external relation conflicts
    /// with the ontology's relation or a contextual copy of that name.
    ExternalSourceConflict(String),
    /// The compiled program failed static analysis: `ontodq-lint` reported
    /// error-severity diagnostics (unsafe rules, arity clashes, …).  Carries
    /// **every** diagnostic of the report — errors first — so callers can
    /// show the full picture, not just the first failure.
    Rejected(Vec<Diagnostic>),
}

impl fmt::Display for ContextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextError::BadRuleText { text, message } => {
                write!(f, "bad rule text '{text}': {message}")
            }
            ContextError::NotATgd { text, parsed } => {
                write!(f, "expected a TGD rule, got '{parsed}' (from '{text}')")
            }
            ContextError::ExternalSourceConflict(message) => {
                write!(f, "external sources conflict: {message}")
            }
            ContextError::Rejected(diagnostics) => {
                let errors = diagnostics
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .count();
                write!(f, "program rejected by static analysis ({errors} errors)")?;
                for diagnostic in diagnostics {
                    write!(f, "; {diagnostic}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ContextError {}

/// How a relation of the instance under assessment enters the context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SchemaMapping {
    /// The relation is copied verbatim into a contextual relation (a
    /// "nickname"); the paper's `Measurements ↦ Measurements^c`.
    Copy {
        /// Relation name in the instance under assessment.
        original: String,
        /// Name of the contextual copy.
        contextual: String,
    },
}

impl SchemaMapping {
    /// The default contextual copy mapping for `relation`, using the paper's
    /// `R ↦ R_c` naming.
    pub(crate) fn copy_of(relation: &str) -> Self {
        SchemaMapping::Copy {
            original: relation.to_string(),
            contextual: format!("{relation}_c"),
        }
    }

    /// The original relation name.
    pub(crate) fn original(&self) -> &str {
        match self {
            SchemaMapping::Copy { original, .. } => original,
        }
    }

    /// The contextual relation name.
    pub(crate) fn contextual(&self) -> &str {
        match self {
            SchemaMapping::Copy { contextual, .. } => contextual,
        }
    }
}

impl fmt::Display for SchemaMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaMapping::Copy {
                original,
                contextual,
            } => {
                write!(f, "{original} ↦ {contextual} (copy)")
            }
        }
    }
}

/// A named quality predicate `P_i` and its defining rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityPredicate {
    /// Predicate name (e.g. `TakenWithTherm`).
    pub name: String,
    /// Defining rules (their heads use `name`).
    pub(crate) rules: Vec<Tgd>,
    /// Human-readable statement of the quality requirement it captures.
    pub description: String,
}

/// The definition of the quality version `S^q` of one original relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QualityVersionSpec {
    /// The original relation name `S`.
    pub(crate) original: String,
    /// The name of the quality-version predicate (default `S_q`).
    pub(crate) quality_name: String,
    /// The rules defining the quality version.
    pub(crate) rules: Vec<Tgd>,
}

/// A context for data quality assessment.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// Context name, for diagnostics.
    pub(crate) name: String,
    /// Mappings from the instance under assessment into the context.
    pub(crate) mappings: Vec<SchemaMapping>,
    /// The multidimensional ontology `M`.
    pub(crate) ontology: MdOntology,
    /// Rules defining additional contextual predicates (e.g. the expanded
    /// `Measurements'` relation).
    pub(crate) contextual_rules: Vec<Tgd>,
    /// Quality predicates `P_i`.
    pub quality_predicates: Vec<QualityPredicate>,
    /// Quality-version definitions, keyed by original relation name.
    pub(crate) quality_versions: BTreeMap<String, QualityVersionSpec>,
    /// External sources `E_i` (extra extensional data available to the
    /// context).
    pub(crate) external_sources: Database,
}

impl Context {
    /// Start building a context.
    pub fn builder(name: impl Into<String>) -> ContextBuilder {
        ContextBuilder {
            context: Context {
                name: name.into(),
                ..Default::default()
            },
            errors: Vec::new(),
        }
    }

    /// The quality-version predicate name for `relation` (`{relation}_q` by
    /// default, or whatever the spec declares).
    pub(crate) fn quality_name_of(&self, relation: &str) -> String {
        self.quality_versions
            .get(relation)
            .map(|spec| spec.quality_name.clone())
            .unwrap_or_else(|| format!("{relation}_q"))
    }

    /// The contextual-copy name for `relation`, if a mapping exists.
    pub fn contextual_name_of(&self, relation: &str) -> Option<&str> {
        self.mappings
            .iter()
            .find(|m| m.original() == relation)
            .map(|m| m.contextual())
    }

    /// The context's goal predicates: every quality predicate `P_i` plus
    /// every quality-version predicate `S_i^q` — the outputs an assessment
    /// extracts.  The linter's reachability analysis treats rules outside
    /// the cone of these goals as unreachable.
    pub(crate) fn goal_predicates(&self) -> Vec<String> {
        let mut goals: Vec<String> = self
            .quality_predicates
            .iter()
            .map(|qp| qp.name.clone())
            .collect();
        goals.extend(
            self.quality_versions
                .values()
                .map(|spec| spec.quality_name.clone()),
        );
        goals.sort();
        goals.dedup();
        goals
    }

    /// All rules contributed by the context itself (contextual rules, quality
    /// predicates, quality versions) — the ontology's rules are added
    /// separately during assessment.
    pub(crate) fn context_rules(&self) -> Vec<Tgd> {
        let mut rules = self.contextual_rules.clone();
        for qp in &self.quality_predicates {
            rules.extend(qp.rules.iter().cloned());
        }
        for spec in self.quality_versions.values() {
            rules.extend(spec.rules.iter().cloned());
        }
        rules
    }

    /// Summary line for diagnostics.
    pub fn summary(&self) -> String {
        format!(
            "context '{}': {} mappings, {} contextual rules, {} quality predicates, {} quality versions, ontology: {}",
            self.name,
            self.mappings.len(),
            self.contextual_rules.len(),
            self.quality_predicates.len(),
            self.quality_versions.len(),
            self.ontology.summary()
        )
    }
}

/// Fluent builder for [`Context`].
///
/// The builder stays chainable even when a rule text is malformed: errors
/// are accumulated and surfaced by [`ContextBuilder::build`], so a service
/// registering caller-supplied contexts can reject them gracefully instead
/// of panicking.
#[derive(Debug, Clone, Default)]
pub struct ContextBuilder {
    context: Context,
    errors: Vec<ContextError>,
}

impl ContextBuilder {
    /// Attach the multidimensional ontology.
    pub fn ontology(mut self, ontology: MdOntology) -> Self {
        self.context.ontology = ontology;
        self
    }

    /// Map `relation` into the context as a verbatim copy named
    /// `{relation}_c`.
    pub fn copy_relation(mut self, relation: &str) -> Self {
        self.context.mappings.push(SchemaMapping::copy_of(relation));
        self
    }

    /// Add a contextual rule from text.  A text that does not parse to a TGD
    /// is recorded as an error and reported by [`ContextBuilder::build`].
    pub fn contextual_rule(mut self, text: &str) -> Self {
        match parse_tgd(text) {
            Ok(tgd) => self.context.contextual_rules.push(tgd),
            Err(e) => self.errors.push(e),
        }
        self
    }

    /// Add a quality predicate defined by the given rule texts.
    pub fn quality_predicate(mut self, name: &str, description: &str, rule_texts: &[&str]) -> Self {
        let mut rules = Vec::new();
        for text in rule_texts {
            match parse_tgd(text) {
                Ok(tgd) => rules.push(tgd),
                Err(e) => self.errors.push(e),
            }
        }
        self.context.quality_predicates.push(QualityPredicate {
            name: name.to_string(),
            rules,
            description: description.to_string(),
        });
        self
    }

    /// Define the quality version of `relation` by the given rule texts
    /// (their heads must use the `{relation}_q` predicate).
    pub fn quality_version(mut self, relation: &str, rule_texts: &[&str]) -> Self {
        let mut rules = Vec::new();
        for text in rule_texts {
            match parse_tgd(text) {
                Ok(tgd) => rules.push(tgd),
                Err(e) => self.errors.push(e),
            }
        }
        let spec = QualityVersionSpec {
            original: relation.to_string(),
            quality_name: format!("{relation}_q"),
            rules,
        };
        self.context
            .quality_versions
            .insert(relation.to_string(), spec);
        self
    }

    /// Add an external source relation (extra extensional data).
    pub fn external_source(mut self, database: Database) -> Self {
        // Merge rather than replace, so several sources can be added.
        let mut merged = self.context.external_sources.clone();
        match merged.merge(&database) {
            Ok(_) => self.context.external_sources = merged,
            Err(e) => self
                .errors
                .push(ContextError::ExternalSourceConflict(e.to_string())),
        }
        self
    }

    /// Finish building.
    ///
    /// # Errors
    /// Returns the first error accumulated while building — a malformed rule
    /// text, a non-TGD rule, or an external-source schema conflict: two
    /// sources disagreeing on a relation, an external relation whose arity
    /// differs from the ontology's relation of that name, or one that
    /// shadows a contextual copy.
    pub fn build(mut self) -> Result<Context, ContextError> {
        if !self.errors.is_empty() {
            return Err(self.errors.remove(0));
        }
        self.context.check_external_sources()?;
        Ok(self.context)
    }
}

impl Context {
    /// Refuse external relations that cannot merge into the compiled
    /// contextual instance, so that `compile_context` only ever unions
    /// same-arity relations.
    fn check_external_sources(&self) -> Result<(), ContextError> {
        let arities = self.ontology.relation_arities();
        for name in self.external_sources.relation_names() {
            let Ok(relation) = self.external_sources.relation(name) else {
                continue;
            };
            let arity = relation.schema().arity();
            if let Some(&expected) = arities.get(name) {
                if expected != arity {
                    return Err(ContextError::ExternalSourceConflict(format!(
                        "external relation '{name}' has arity {arity}, \
                         the ontology's has arity {expected}"
                    )));
                }
            }
            if let Some(mapping) = self.mappings.iter().find(|m| m.contextual() == name) {
                return Err(ContextError::ExternalSourceConflict(format!(
                    "external relation '{name}' shadows the contextual copy of '{}'",
                    mapping.original()
                )));
            }
        }
        Ok(())
    }
}

fn parse_tgd(text: &str) -> Result<Tgd, ContextError> {
    match parse_rule(text) {
        Ok(Rule::Tgd(t)) => Ok(t),
        Ok(other) => Err(ContextError::NotATgd {
            text: text.to_string(),
            parsed: other.to_string(),
        }),
        Err(e) => Err(ContextError::BadRuleText {
            text: text.to_string(),
            message: e.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_mdm::fixtures::hospital;

    fn sample_context() -> Context {
        Context::builder("hospital-context")
            .ontology(hospital::ontology())
            .copy_relation("Measurements")
            .contextual_rule(
                "MeasurementsExt(t, p, v, y, b) :- Measurements_c(t, p, v), TakenByNurse(t, p, n, y), TakenWithTherm(t, p, b).",
            )
            .quality_predicate(
                "TakenWithTherm",
                "temperatures in the standard care unit are taken with brand B1 thermometers",
                &["TakenWithTherm(t, p, B1) :- PatientUnit(Standard, d, p), DayTime(d, t)."],
            )
            .quality_version(
                "Measurements",
                &["Measurements_q(t, p, v) :- MeasurementsExt(t, p, v, y, b), y = \"cert.\", b = B1."],
            )
            .build()
            .expect("the sample context is well-formed")
    }

    #[test]
    fn builder_assembles_all_parts() {
        let ctx = sample_context();
        assert_eq!(ctx.name, "hospital-context");
        assert_eq!(ctx.mappings.len(), 1);
        assert_eq!(ctx.contextual_rules.len(), 1);
        assert_eq!(ctx.quality_predicates.len(), 1);
        assert_eq!(ctx.quality_versions.len(), 1);
        assert_eq!(
            ctx.contextual_name_of("Measurements"),
            Some("Measurements_c")
        );
        assert_eq!(ctx.contextual_name_of("Other"), None);
        assert_eq!(ctx.quality_name_of("Measurements"), "Measurements_q");
        assert_eq!(ctx.quality_name_of("Other"), "Other_q");
        assert!(ctx.summary().contains("hospital-context"));
    }

    #[test]
    fn context_rules_concatenate_all_rule_groups() {
        let ctx = sample_context();
        let rules = ctx.context_rules();
        assert_eq!(rules.len(), 3);
        let heads: Vec<&str> = rules
            .iter()
            .flat_map(|r| r.head.iter().map(|a| a.predicate.as_str()))
            .collect();
        assert!(heads.contains(&"MeasurementsExt"));
        assert!(heads.contains(&"TakenWithTherm"));
        assert!(heads.contains(&"Measurements_q"));
    }

    #[test]
    fn schema_mapping_helpers() {
        let m = SchemaMapping::copy_of("Measurements");
        assert_eq!(m.original(), "Measurements");
        assert_eq!(m.contextual(), "Measurements_c");
        assert!(m.to_string().contains("copy"));
    }

    #[test]
    fn explicit_copy_names_and_external_sources() {
        let mut external = Database::new();
        external
            .insert_values("NurseRegistry", ["Helen", "cert."])
            .unwrap();
        let mut builder = Context::builder("ctx");
        builder.context.mappings.push(SchemaMapping::Copy {
            original: "Measurements".to_string(),
            contextual: "MeasurementsContextCopy".to_string(),
        });
        let ctx = builder.external_source(external).build().unwrap();
        assert_eq!(
            ctx.contextual_name_of("Measurements"),
            Some("MeasurementsContextCopy")
        );
        assert_eq!(
            ctx.external_sources
                .relation("NurseRegistry")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn bad_rule_text_is_an_error_not_a_panic() {
        let err = Context::builder("ctx")
            .contextual_rule("this is not a rule")
            .build()
            .unwrap_err();
        assert!(matches!(err, ContextError::BadRuleText { .. }));
        assert!(err.to_string().contains("bad rule text"));
    }

    #[test]
    fn non_tgd_rule_text_is_an_error() {
        let err = Context::builder("ctx")
            .contextual_rule("! :- R(x).")
            .build()
            .unwrap_err();
        assert!(matches!(err, ContextError::NotATgd { .. }));
        assert!(err.to_string().contains("expected a TGD"));
    }

    #[test]
    fn first_of_several_errors_is_reported() {
        let err = Context::builder("ctx")
            .contextual_rule("garbage")
            .quality_version("R", &["! :- R(x)."])
            .build()
            .unwrap_err();
        assert!(matches!(err, ContextError::BadRuleText { .. }));
    }

    #[test]
    fn external_source_conflicts_are_errors() {
        let mut a = Database::new();
        a.insert_values("E", ["x"]).unwrap();
        let mut b = Database::new();
        b.insert_values("E", ["x", "y"]).unwrap();
        let err = Context::builder("ctx")
            .external_source(a)
            .external_source(b)
            .build()
            .unwrap_err();
        assert!(matches!(err, ContextError::ExternalSourceConflict(_)));
    }
}
