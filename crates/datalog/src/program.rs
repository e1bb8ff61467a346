//! Datalog± programs: collections of TGDs, EGDs, negative constraints and
//! facts over a common schema.

use crate::atom::Atom;
use crate::rule::{ConditionalDelete, Egd, Fact, NegativeConstraint, Retraction, Rule, Tgd};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A position in the schema: a predicate name and a 0-based argument index.
///
/// Positions are the unit of the syntactic analyses (stickiness, weak
/// acyclicity, affectedness): `PatientWard[0]` is "the Ward argument of
/// PatientWard".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Position {
    /// Predicate name.
    pub(crate) predicate: String,
    /// Argument index (0-based).
    pub(crate) index: usize,
}

impl Position {
    /// Construct a position.
    pub fn new(predicate: impl Into<String>, index: usize) -> Self {
        Self {
            predicate: predicate.into(),
            index,
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.predicate, self.index)
    }
}

/// A Datalog± program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Tuple-generating dependencies (the paper's dimensional rules).
    pub tgds: Vec<Tgd>,
    /// Equality-generating dependencies (dimensional constraints, form (2)).
    pub egds: Vec<Egd>,
    /// Negative constraints (forms (1) and (3)).
    pub constraints: Vec<NegativeConstraint>,
    /// Ground facts (extensional data expressed as rules).
    pub facts: Vec<Fact>,
    /// Ground retractions (`-P(ā).` — deletion workload, not ontology).
    pub retractions: Vec<Retraction>,
    /// Conditional deletes (`-P(x̄) :- body.`).
    pub deletions: Vec<ConditionalDelete>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add any rule.
    pub(crate) fn add_rule(&mut self, rule: Rule) {
        match rule {
            Rule::Tgd(r) => self.tgds.push(r),
            Rule::Egd(r) => self.egds.push(r),
            Rule::Constraint(r) => self.constraints.push(r),
            Rule::Fact(r) => self.facts.push(r),
            Rule::Retract(r) => self.retractions.push(r),
            Rule::Delete(r) => self.deletions.push(r),
        }
    }

    /// Total number of rules of all kinds.
    pub fn rule_count(&self) -> usize {
        self.tgds.len()
            + self.egds.len()
            + self.constraints.len()
            + self.facts.len()
            + self.retractions.len()
            + self.deletions.len()
    }

    /// All rules, in kind order (TGDs, EGDs, constraints, facts,
    /// retractions, conditional deletes).
    pub fn rules(&self) -> Vec<Rule> {
        let mut out: Vec<Rule> = Vec::with_capacity(self.rule_count());
        out.extend(self.tgds.iter().cloned().map(Rule::Tgd));
        out.extend(self.egds.iter().cloned().map(Rule::Egd));
        out.extend(self.constraints.iter().cloned().map(Rule::Constraint));
        out.extend(self.facts.iter().cloned().map(Rule::Fact));
        out.extend(self.retractions.iter().cloned().map(Rule::Retract));
        out.extend(self.deletions.iter().cloned().map(Rule::Delete));
        out
    }

    /// Predicate names with their arities, as observed across all rules.
    ///
    /// When a predicate appears with inconsistent arities the first observed
    /// arity wins; [`Program::validate`] reports the inconsistency.
    pub fn predicates(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        let mut record = |atom: &Atom| {
            out.entry(atom.predicate.clone()).or_insert(atom.arity());
        };
        for tgd in &self.tgds {
            tgd.body.atoms.iter().for_each(&mut record);
            tgd.body.negated.iter().for_each(&mut record);
            tgd.head.iter().for_each(&mut record);
        }
        for egd in &self.egds {
            egd.body.atoms.iter().for_each(&mut record);
            egd.body.negated.iter().for_each(&mut record);
        }
        for nc in &self.constraints {
            nc.body.atoms.iter().for_each(&mut record);
            nc.body.negated.iter().for_each(&mut record);
        }
        for fact in &self.facts {
            record(fact.atom());
        }
        for retraction in &self.retractions {
            record(retraction.atom());
        }
        for delete in &self.deletions {
            record(&delete.head);
            delete.body.atoms.iter().for_each(&mut record);
            delete.body.negated.iter().for_each(&mut record);
        }
        out
    }

    /// Predicates that occur in some TGD head (the intensional predicates).
    pub fn idb_predicates(&self) -> BTreeSet<String> {
        self.tgds
            .iter()
            .flat_map(|t| t.head.iter().map(|a| a.predicate.clone()))
            .collect()
    }

    /// Predicates that occur only in bodies and facts (the extensional
    /// predicates).
    pub fn edb_predicates(&self) -> BTreeSet<String> {
        let idb = self.idb_predicates();
        self.predicates()
            .keys()
            .filter(|p| !idb.contains(*p))
            .cloned()
            .collect()
    }

    /// Structural validation: consistent arities, well-formed EGDs, TGD
    /// bodies without negation.  Returns a list of human-readable problems
    /// (empty when the program is well-formed).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // Arity consistency.
        let mut arities: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        let mut record = |atom: &Atom| {
            arities
                .entry(atom.predicate.clone())
                .or_default()
                .insert(atom.arity());
        };
        for tgd in &self.tgds {
            tgd.body.atoms.iter().for_each(&mut record);
            tgd.body.negated.iter().for_each(&mut record);
            tgd.head.iter().for_each(&mut record);
        }
        for egd in &self.egds {
            egd.body.atoms.iter().for_each(&mut record);
        }
        for nc in &self.constraints {
            nc.body.atoms.iter().for_each(&mut record);
            nc.body.negated.iter().for_each(&mut record);
        }
        for fact in &self.facts {
            record(fact.atom());
        }
        for retraction in &self.retractions {
            record(retraction.atom());
        }
        for delete in &self.deletions {
            record(&delete.head);
            delete.body.atoms.iter().for_each(&mut record);
            delete.body.negated.iter().for_each(&mut record);
        }
        for (pred, seen) in &arities {
            if seen.len() > 1 {
                problems.push(format!(
                    "predicate '{pred}' used with multiple arities: {seen:?}"
                ));
            }
        }
        // TGD shape.
        for (i, tgd) in self.tgds.iter().enumerate() {
            if !tgd.body.negated.is_empty() {
                problems.push(format!("TGD #{i} has negated body atoms"));
            }
            if tgd.head.is_empty() {
                problems.push(format!("TGD #{i} has an empty head"));
            }
            if tgd.body.atoms.is_empty() {
                problems.push(format!("TGD #{i} has no positive body atoms"));
            }
        }
        // EGD shape.
        for (i, egd) in self.egds.iter().enumerate() {
            if !egd.is_well_formed() {
                problems.push(format!(
                    "EGD #{i} equates variables that do not both occur in its body"
                ));
            }
        }
        // Conditional-delete shape: the body must be evaluable (at least one
        // positive atom); wildcard head variables are fine.
        for (i, delete) in self.deletions.iter().enumerate() {
            if delete.body.atoms.is_empty() {
                problems.push(format!(
                    "conditional delete #{i} has no positive body atoms"
                ));
            }
        }
        problems
    }

    /// Merge another program's rules into this one.
    pub fn extend(&mut self, other: Program) {
        self.tgds.extend(other.tgds);
        self.egds.extend(other.egds);
        self.constraints.extend(other.constraints);
        self.facts.extend(other.facts);
        self.retractions.extend(other.retractions);
        self.deletions.extend(other.deletions);
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in self.rules() {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Conjunction};
    use crate::rule::tgd;
    use crate::term::{Term, Variable};

    fn sample_program() -> Program {
        let mut program = Program::new();
        program.tgds.push(tgd(
            Atom::with_vars("PatientUnit", &["u", "d", "p"]),
            vec![
                Atom::with_vars("PatientWard", &["w", "d", "p"]),
                Atom::with_vars("UnitWard", &["u", "w"]),
            ],
        ));
        program.egds.push(Egd::new(
            Conjunction::positive(vec![
                Atom::with_vars("Thermometer", &["w", "t", "n"]),
                Atom::with_vars("Thermometer", &["w2", "t2", "n2"]),
                Atom::with_vars("UnitWard", &["u", "w"]),
                Atom::with_vars("UnitWard", &["u", "w2"]),
            ]),
            Variable::new("t"),
            Variable::new("t2"),
        ));
        program.constraints.push(NegativeConstraint::new(
            Conjunction::positive(vec![Atom::with_vars("PatientUnit", &["u", "d", "p"])])
                .and_not(Atom::with_vars("Unit", &["u"])),
        ));
        program
            .facts
            .push(Fact::new(Atom::new("Unit", vec![Term::constant("Standard")])).unwrap());
        program
    }

    #[test]
    fn rule_bookkeeping() {
        let p = sample_program();
        assert_eq!(p.rule_count(), 4);
        assert_eq!(p.rules().len(), 4);
        assert_eq!(p.tgds.len(), 1);
        assert_eq!(p.egds.len(), 1);
        assert_eq!(p.constraints.len(), 1);
        assert_eq!(p.facts.len(), 1);
    }

    #[test]
    fn predicates_and_positions() {
        let p = sample_program();
        let preds = p.predicates();
        assert_eq!(preds.get("PatientWard"), Some(&3));
        assert_eq!(preds.get("UnitWard"), Some(&2));
        assert_eq!(preds.get("Unit"), Some(&1));
        assert_eq!(preds.get("Thermometer"), Some(&3));
    }

    #[test]
    fn idb_edb_split() {
        let p = sample_program();
        let idb = p.idb_predicates();
        assert!(idb.contains("PatientUnit"));
        assert!(!idb.contains("PatientWard"));
        let edb = p.edb_predicates();
        assert!(edb.contains("PatientWard"));
        assert!(edb.contains("UnitWard"));
        assert!(!edb.contains("PatientUnit"));
    }

    #[test]
    fn validation_accepts_sample() {
        assert!(sample_program().validate().is_empty());
    }

    #[test]
    fn validation_flags_arity_conflicts() {
        let mut p = sample_program();
        p.facts.push(
            Fact::new(Atom::new(
                "Unit",
                vec![Term::constant("Standard"), Term::constant("extra")],
            ))
            .unwrap(),
        );
        let problems = p.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("Unit"));
    }

    #[test]
    fn validation_flags_bad_tgds_and_egds() {
        let mut p = Program::new();
        p.tgds.push(Tgd::with_heads(
            Conjunction::positive(vec![Atom::with_vars("P", &["x"])])
                .and_not(Atom::with_vars("N", &["x"])),
            vec![],
        ));
        p.egds.push(Egd::new(
            Conjunction::positive(vec![Atom::with_vars("P", &["x"])]),
            Variable::new("x"),
            Variable::new("zzz"),
        ));
        let problems = p.validate();
        assert_eq!(problems.len(), 3);
    }

    #[test]
    fn extend_merges_programs() {
        let mut a = sample_program();
        let mut b = Program::new();
        b.tgds.push(tgd(
            Atom::with_vars("Q", &["x"]),
            vec![Atom::with_vars("P", &["x"])],
        ));
        a.extend(b);
        assert_eq!(a.tgds.len(), 2);
    }

    #[test]
    fn display_renders_every_rule() {
        let rendered = sample_program().to_string();
        assert!(rendered.contains("PatientUnit(u, d, p) :- "));
        assert!(rendered.contains("t = t2 :- "));
        assert!(rendered.contains("! :- "));
        assert!(rendered.contains("Unit(Standard)."));
    }

    #[test]
    fn position_display() {
        assert_eq!(
            Position::new("PatientWard", 0).to_string(),
            "PatientWard[0]"
        );
    }
}
