//! Magic-set (demand) transformation for goal-directed chase evaluation.
//!
//! The paper's tractability story rests on a query needing only the
//! *relevant* portion of the contextual ontology — yet a materialized chase
//! derives everything.  [`magic_transform`] specializes a Datalog± program to
//! one conjunctive-query body so a bottom-up (chase) evaluator computes only
//! what the query can observe:
//!
//! 1. **Relevance restriction** — only rules whose head predicates the query
//!    (transitively) depends on are kept, via the predicate dependency graph
//!    ([`crate::graph::PredicateGraph::ancestors_of`]).
//! 2. **Sideways information passing** — the query's bound constants
//!    (constants in atoms, plus `x = c` comparisons) become *adornments*:
//!    each demanded predicate `P` with bound positions gets a magic predicate
//!    `__magic_P_<adornment>` seeded with the constants, every rule deriving
//!    `P` gets a copy guarded by the magic atom, and demand is propagated
//!    into the rule's own intensional body atoms through magic propagation
//!    rules — the standard generalized magic-set construction, adapted to
//!    Datalog±:
//!    * a bound head position holding an **existential** variable cannot be
//!      guarded (the guard would capture the variable and suppress null
//!      invention), so such rules fall back to unguarded-but-relevant;
//!    * rules with **conjunctive heads** (form (10)) are never guarded — a
//!      guard for one head atom would silently starve the others;
//!    * predicates the query reads under negation, and everything feeding
//!      them, are derived **unrestricted**: negation reads a predicate's
//!      full extension, not just the demanded slice.
//!
//! The original predicate names are kept (guards are *added*, predicates are
//! not renamed), so a demanded relation holds the union of all demanded
//! derivations plus its extensional rows — a superset of what the query
//! needs and a subset of the full chase, which is exactly the soundness
//! envelope certain-answer equality needs.
//!
//! EGDs and negative constraints are dropped: the chase checks both as
//! constraints and never lets them change data, and demand-driven evaluation
//! answers queries, it does not audit consistency (the full assessment path
//! does).

use crate::atom::{Atom, CompareOp, Conjunction};
use crate::graph::PredicateGraph;
use crate::program::Program;
use crate::rule::Tgd;
use crate::term::{Term, Variable};
use ontodq_relational::{Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A set of bound argument positions (0-based) of one predicate.
pub(crate) type BoundSet = BTreeSet<usize>;

/// The output of [`magic_transform`]: a query-specialized program plus the
/// magic seed facts that start the demand propagation.
#[derive(Debug, Clone)]
pub struct DemandProgram {
    /// The specialized program: relevance-restricted rules, magic-guarded
    /// copies, magic propagation rules and relevant facts.  No EGDs and no
    /// negative constraints.
    pub program: Program,
    /// Magic seed facts `(magic predicate, constants tuple)` extracted from
    /// the query's bound positions; the caller inserts them before chasing
    /// (they seed the first delta).
    pub seeds: Vec<(String, Tuple)>,
    /// Every predicate the demand chase reads or writes (excluding the
    /// magic predicates): the extensional relations to retain when pruning
    /// the input instance.
    pub relevant: BTreeSet<String>,
}

/// The name of the magic predicate for `predicate` under `bound` positions,
/// e.g. `__magic_PatientUnit_ffb` for arity 3 with position 2 bound.  The
/// `__magic_` prefix is reserved: ontology and context predicates follow the
/// paper's capitalized naming, so generated magic predicates cannot collide
/// with them.
fn magic_name(predicate: &str, bound: &BoundSet, arity: usize) -> String {
    let adornment: String = (0..arity)
        .map(|i| if bound.contains(&i) { 'b' } else { 'f' })
        .collect();
    format!("__magic_{predicate}_{adornment}")
}

/// Constants the query equates variables with (`x = c` / `c = x`
/// comparisons).  A variable equated to two distinct constants is dropped
/// (the query is unsatisfiable; leaving the variable unbound stays sound).
fn query_constants(query: &Conjunction) -> BTreeMap<Variable, Value> {
    let mut map: BTreeMap<Variable, Value> = BTreeMap::new();
    let mut conflicting: BTreeSet<Variable> = BTreeSet::new();
    for cmp in &query.comparisons {
        if cmp.op != CompareOp::Eq {
            continue;
        }
        if let (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) =
            (&cmp.left, &cmp.right)
        {
            if let Some(previous) = map.insert(*v, *c) {
                if previous != *c {
                    conflicting.insert(*v);
                }
            }
        }
    }
    for v in conflicting {
        map.remove(&v);
    }
    map
}

/// One pending demand: a predicate, either fully (`None`) or under a set of
/// bound positions.
type Demand = (String, Option<BoundSet>);

/// Specialize `program` to `query` — see the module docs for the
/// construction and its soundness envelope.
pub fn magic_transform(program: &Program, query: &Conjunction) -> DemandProgram {
    let graph = PredicateGraph::build(program);
    let idb = program.idb_predicates();

    // ------------------------------------------------------------------
    // Phase 1: relevance closure.
    // ------------------------------------------------------------------
    let seeds: Vec<&str> = query
        .atoms
        .iter()
        .chain(query.negated.iter())
        .map(|a| a.predicate.as_str())
        .collect();
    let relevant = graph.ancestors_of(&seeds);

    // Predicates that must be derived unrestricted (no magic guards): the
    // ancestors of the query's negated atoms — negation reads a predicate's
    // full extension, not just the demanded slice.
    let unrestricted_seeds: Vec<&str> =
        query.negated.iter().map(|a| a.predicate.as_str()).collect();
    let unrestricted = graph.ancestors_of(&unrestricted_seeds);

    let included_tgds: Vec<&Tgd> = program
        .tgds
        .iter()
        .filter(|t| t.head.iter().any(|a| relevant.contains(&a.predicate)))
        .collect();

    // ------------------------------------------------------------------
    // Phase 2: demand worklist over (predicate, adornment) pairs.
    // ------------------------------------------------------------------
    let constants = query_constants(query);
    let mut full_demand: BTreeSet<String> = BTreeSet::new();
    let mut bound_demands: BTreeMap<String, BTreeSet<BoundSet>> = BTreeMap::new();
    let mut seed_facts: BTreeMap<(String, BoundSet), BTreeSet<Tuple>> = BTreeMap::new();
    let mut queue: VecDeque<Demand> = VecDeque::new();

    let mut demand_full =
        |pred: &str, full: &mut BTreeSet<String>, queue: &mut VecDeque<Demand>| {
            if full.insert(pred.to_string()) {
                queue.push_back((pred.to_string(), None));
            }
        };
    let mut demand_bound = |pred: &str,
                            bs: BoundSet,
                            bounds: &mut BTreeMap<String, BTreeSet<BoundSet>>,
                            queue: &mut VecDeque<Demand>| {
        if bounds
            .entry(pred.to_string())
            .or_default()
            .insert(bs.clone())
        {
            queue.push_back((pred.to_string(), Some(bs)));
        }
    };

    // Every intensional predicate that must stay unrestricted is demanded in
    // full up front (the feeders of a negated atom are not always reachable
    // from the query's own demand propagation).
    for pred in unrestricted.iter() {
        if idb.contains(pred) && relevant.contains(pred) {
            demand_full(pred, &mut full_demand, &mut queue);
        }
    }
    for atom in &query.negated {
        if idb.contains(&atom.predicate) {
            demand_full(&atom.predicate, &mut full_demand, &mut queue);
        }
    }

    // Demands from the query's own atoms: bound positions are positions
    // holding a constant or a constant-equated variable.
    for atom in &query.atoms {
        if !idb.contains(&atom.predicate) {
            continue;
        }
        let mut bs = BoundSet::new();
        let mut values: Vec<Value> = Vec::new();
        for (position, term) in atom.terms.iter().enumerate() {
            let value = match term {
                Term::Const(c) => Some(*c),
                Term::Var(v) => constants.get(v).copied(),
            };
            if let Some(value) = value {
                bs.insert(position);
                values.push(value);
            }
        }
        if bs.is_empty() || unrestricted.contains(&atom.predicate) {
            demand_full(&atom.predicate, &mut full_demand, &mut queue);
        } else {
            seed_facts
                .entry((atom.predicate.clone(), bs.clone()))
                .or_default()
                .insert(Tuple::new(values));
            demand_bound(&atom.predicate, bs, &mut bound_demands, &mut queue);
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: process demands, emitting guarded copies and propagation
    // rules as each (predicate, adornment) pair is first seen.
    // ------------------------------------------------------------------
    let mut out = Program::new();
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    let mut push_rule = |tgd: Tgd, out: &mut Program, emitted: &mut BTreeSet<String>| -> bool {
        let key = tgd.to_string();
        if emitted.insert(key) {
            out.tgds.push(tgd);
            true
        } else {
            false
        }
    };

    while let Some((pred, demand)) = queue.pop_front() {
        for tgd in included_tgds
            .iter()
            .filter(|t| t.head.iter().any(|a| a.predicate == pred))
        {
            // Guardability of this rule under this demand.
            let guardable_bs = match (&demand, tgd.head.len()) {
                (Some(bs), 1) if !unrestricted.contains(&pred) => {
                    let head = &tgd.head[0];
                    let body_vars = tgd.body_variables();
                    let guardable = bs.iter().all(|&k| match head.terms.get(k) {
                        Some(Term::Const(_)) => true,
                        Some(Term::Var(v)) => body_vars.contains(v),
                        None => false,
                    });
                    guardable.then(|| bs.clone())
                }
                // Conjunctive heads and unrestricted predicates are never
                // guarded; a full demand never is.
                _ => None,
            };

            match guardable_bs {
                Some(bs) => {
                    let head = &tgd.head[0];
                    let magic = magic_name(&pred, &bs, head.arity());
                    let guard =
                        Atom::new(magic, bs.iter().map(|&k| head.terms[k].clone()).collect());
                    let bound_vars: BTreeSet<Variable> = bs
                        .iter()
                        .filter_map(|&k| head.terms[k].as_var().copied())
                        .collect();
                    let body = tgd.body();
                    let mut atoms = vec![guard.clone()];
                    atoms.extend(body.atoms.iter().cloned());
                    let mut guarded =
                        Tgd::with_heads(atoms, body.comparisons.clone(), tgd.head.clone());
                    guarded.label = tgd.label.clone();
                    push_rule(guarded, &mut out, &mut emitted);
                    propagate_body(
                        tgd,
                        &bound_vars,
                        Some(&guard),
                        &idb,
                        &unrestricted,
                        &mut full_demand,
                        &mut bound_demands,
                        &mut seed_facts,
                        &mut queue,
                        &mut demand_full,
                        &mut demand_bound,
                        &mut out,
                        &mut emitted,
                        &mut push_rule,
                    );
                }
                None => {
                    // Unguarded: the rule joins in full (relevance-restricted
                    // only).  Conjunctive heads additionally demand every
                    // head predicate in full, so their co-derived relations
                    // are complete too.
                    if tgd.head.len() > 1 {
                        for atom in &tgd.head {
                            demand_full(&atom.predicate, &mut full_demand, &mut queue);
                        }
                    }
                    push_rule((*tgd).clone(), &mut out, &mut emitted);
                    propagate_body(
                        tgd,
                        &BTreeSet::new(),
                        None,
                        &idb,
                        &unrestricted,
                        &mut full_demand,
                        &mut bound_demands,
                        &mut seed_facts,
                        &mut queue,
                        &mut demand_full,
                        &mut demand_bound,
                        &mut out,
                        &mut emitted,
                        &mut push_rule,
                    );
                }
            }
        }
    }

    // Relevant facts.
    for fact in &program.facts {
        if relevant.contains(&fact.atom().predicate) {
            out.facts.push(fact.clone());
        }
    }

    // Magic predicates some emitted rule actually consumes or derives.
    let mut magic_preds: BTreeSet<String> = BTreeSet::new();
    for tgd in &out.tgds {
        for atom in tgd.body().atoms.iter().chain(tgd.head.iter()) {
            if atom.predicate.starts_with("__magic_") {
                magic_preds.insert(atom.predicate.clone());
            }
        }
    }

    // Flatten the seed map, dropping seeds no guard consumes — either the
    // predicate ended up fully demanded, or every rule under this demand
    // fell back to the unguarded copy (existential bound position, …).
    let mut seeds: Vec<(String, Tuple)> = Vec::new();
    for ((pred, bs), tuples) in seed_facts {
        if full_demand.contains(&pred) {
            continue;
        }
        // Resolve the arity from the program; the rule side used the head
        // atom's arity, which the program's arity-consistency validation
        // keeps equal.
        let fallback = bs.iter().max().map(|m| m + 1).unwrap_or(0);
        let arity = program.predicates().get(&pred).copied().unwrap_or(fallback);
        let name = magic_name(&pred, &bs, arity);
        if !magic_preds.contains(&name) {
            continue;
        }
        for tuple in tuples {
            seeds.push((name.clone(), tuple));
        }
    }

    DemandProgram {
        program: out,
        seeds,
        relevant,
    }
}

/// Propagate demand from one rule's (possibly guarded) evaluation into its
/// intensional body atoms; emits magic propagation rules / seeds and
/// enqueues the new demands.
#[allow(clippy::too_many_arguments)]
fn propagate_body(
    tgd: &Tgd,
    bound_vars: &BTreeSet<Variable>,
    guard: Option<&Atom>,
    idb: &BTreeSet<String>,
    unrestricted: &BTreeSet<String>,
    full_demand: &mut BTreeSet<String>,
    bound_demands: &mut BTreeMap<String, BTreeSet<BoundSet>>,
    seed_facts: &mut BTreeMap<(String, BoundSet), BTreeSet<Tuple>>,
    queue: &mut VecDeque<Demand>,
    demand_full: &mut impl FnMut(&str, &mut BTreeSet<String>, &mut VecDeque<Demand>),
    demand_bound: &mut impl FnMut(
        &str,
        BoundSet,
        &mut BTreeMap<String, BTreeSet<BoundSet>>,
        &mut VecDeque<Demand>,
    ),
    out: &mut Program,
    emitted: &mut BTreeSet<String>,
    push_rule: &mut impl FnMut(Tgd, &mut Program, &mut BTreeSet<String>) -> bool,
) {
    for atom in &tgd.body().atoms {
        if !idb.contains(&atom.predicate) {
            continue;
        }
        if unrestricted.contains(&atom.predicate) {
            demand_full(&atom.predicate, full_demand, queue);
            continue;
        }
        let mut bs = BoundSet::new();
        let mut terms: Vec<Term> = Vec::new();
        for (position, term) in atom.terms.iter().enumerate() {
            let bound = match term {
                Term::Const(_) => true,
                Term::Var(v) => bound_vars.contains(v),
            };
            if bound {
                bs.insert(position);
                terms.push(term.clone());
            }
        }
        if bs.is_empty() {
            demand_full(&atom.predicate, full_demand, queue);
            continue;
        }
        let magic = magic_name(&atom.predicate, &bs, atom.arity());
        match guard {
            Some(guard) => {
                let propagation = Tgd::new(vec![guard.clone()], Atom::new(magic, terms));
                push_rule(propagation, out, emitted);
            }
            None => {
                // No guard: the demand is unconditional, so the magic facts
                // are seeds rather than derived.  All bound terms are
                // constants here (no guard means no bound variables).
                let values: Vec<Value> =
                    terms.iter().filter_map(|t| t.as_const().copied()).collect();
                if values.len() == terms.len() {
                    seed_facts
                        .entry((atom.predicate.clone(), bs.clone()))
                        .or_default()
                        .insert(Tuple::new(values));
                }
            }
        }
        demand_bound(&atom.predicate, bs, bound_demands, queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::rule::Rule;

    /// Rule copies that carry a magic guard atom (a non-magic head).
    fn guarded_rules(demand: &DemandProgram) -> usize {
        demand
            .program
            .tgds
            .iter()
            .filter(|t| {
                !t.head[0].predicate.starts_with("__magic_")
                    && t.body()
                        .atoms
                        .iter()
                        .any(|a| a.predicate.starts_with("__magic_"))
            })
            .count()
    }

    /// Magic propagation rules (a magic head).
    fn propagation_rules(demand: &DemandProgram) -> usize {
        demand
            .program
            .tgds
            .iter()
            .filter(|t| t.head.len() == 1 && t.head[0].predicate.starts_with("__magic_"))
            .count()
    }

    fn hospital_rules() -> Program {
        parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n",
        )
        .unwrap()
    }

    fn body_of(text: &str) -> Conjunction {
        match crate::parser::parse_rule(&format!("! :- {text}")).unwrap() {
            Rule::Constraint(nc) => nc.body,
            other => panic!("expected a constraint body, got {other}"),
        }
    }

    #[test]
    fn irrelevant_rules_are_pruned() {
        let program = hospital_rules();
        let demand = magic_transform(&program, &body_of("PatientUnit(u, d, p)."));
        // The Shifts rule cannot feed PatientUnit.
        assert!(demand
            .program
            .tgds
            .iter()
            .all(|t| t.head_predicates() != vec!["Shifts"]));
        assert!(demand.relevant.contains("PatientWard"));
        assert!(demand.relevant.contains("UnitWard"));
        assert!(!demand.relevant.contains("WorkingSchedules"));
    }

    #[test]
    fn unbound_queries_are_relevance_restricted_only() {
        let program = hospital_rules();
        let demand = magic_transform(&program, &body_of("PatientUnit(u, d, p)."));
        assert!(guarded_rules(&demand) == 0);
        assert!(demand.seeds.is_empty());
        // The PatientUnit rule survives verbatim.
        assert_eq!(demand.program.tgds.len(), 1);
        assert_eq!(demand.program.tgds[0], program.tgds[0]);
    }

    #[test]
    fn bound_constants_produce_guards_and_seeds() {
        let program = hospital_rules();
        let demand = magic_transform(
            &program,
            &body_of("PatientUnit(u, d, p), p = \"Tom Waits\"."),
        );
        assert!(guarded_rules(&demand) > 0);
        assert_eq!(guarded_rules(&demand), 1);
        assert_eq!(demand.seeds.len(), 1);
        let (magic, tuple) = &demand.seeds[0];
        assert_eq!(magic, "__magic_PatientUnit_ffb");
        assert_eq!(tuple, &Tuple::from_iter(["Tom Waits"]));
        // The guarded rule leads with the magic atom over the frontier var.
        let guarded = demand
            .program
            .tgds
            .iter()
            .find(|t| t.head_predicates() == vec!["PatientUnit"])
            .unwrap();
        assert_eq!(guarded.body().atoms[0].predicate, "__magic_PatientUnit_ffb");
        assert_eq!(guarded.body().atoms[0].terms, vec![Term::var("p")]);
    }

    #[test]
    fn constants_inside_query_atoms_bind_too() {
        let program = hospital_rules();
        let demand = magic_transform(&program, &body_of("PatientUnit(Standard, d, p)."));
        assert!(guarded_rules(&demand) > 0);
        assert_eq!(demand.seeds.len(), 1);
        assert_eq!(demand.seeds[0].0, "__magic_PatientUnit_bff");
        assert_eq!(demand.seeds[0].1, Tuple::from_iter(["Standard"]));
    }

    #[test]
    fn demand_propagates_through_recursive_rules() {
        let program = parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- T(x, y), E(y, z).\n",
        )
        .unwrap();
        let demand = magic_transform(&program, &body_of("T(a, y), a = \"n0\"."));
        // Both T rules get guarded copies, and the recursive rule propagates
        // demand back into T (x stays bound across the recursion).
        assert_eq!(guarded_rules(&demand), 2);
        assert!(propagation_rules(&demand) >= 1);
        let propagation = demand
            .program
            .tgds
            .iter()
            .find(|t| t.head[0].predicate.starts_with("__magic_T_"))
            .unwrap();
        assert_eq!(propagation.body().atoms[0].predicate, "__magic_T_bf");
        assert_eq!(
            demand.seeds,
            vec![("__magic_T_bf".to_string(), Tuple::from_iter(["n0"]),)]
        );
    }

    #[test]
    fn existential_head_positions_disable_the_guard() {
        // z is existential: a guard on position 3 would capture it and
        // suppress null invention — the rule must stay unguarded.
        let program = hospital_rules();
        let demand = magic_transform(&program, &body_of("Shifts(w, d, n, s), s = \"morning\"."));
        assert!(guarded_rules(&demand) == 0);
        assert!(demand.seeds.is_empty());
        assert!(demand
            .program
            .tgds
            .iter()
            .any(|t| t.head_predicates() == vec!["Shifts"]
                && !t.body().atoms[0].predicate.starts_with("__magic_")));
    }

    #[test]
    fn bindable_positions_of_existential_rules_are_still_guarded() {
        // w is a frontier variable of the Shifts rule: binding the ward is
        // fine even though the shift position is existential.
        let program = hospital_rules();
        let demand = magic_transform(&program, &body_of("Shifts(W2, d, n, s)."));
        assert!(guarded_rules(&demand) > 0);
        assert_eq!(demand.seeds[0].0, "__magic_Shifts_bfff");
        assert_eq!(demand.seeds[0].1, Tuple::from_iter(["W2"]));
    }

    #[test]
    fn conjunctive_heads_are_never_guarded() {
        let program = parse_program(
            "InstitutionUnit(i, u), PatientUnit(u, d, p) :- DischargePatients(i, d, p).\n",
        )
        .unwrap();
        let demand = magic_transform(
            &program,
            &body_of("PatientUnit(u, d, p), p = \"Tom Waits\"."),
        );
        assert!(guarded_rules(&demand) == 0);
        assert_eq!(demand.program.tgds.len(), 1);
        assert_eq!(demand.program.tgds[0], program.tgds[0]);
    }

    #[test]
    fn negated_query_atoms_force_full_derivation() {
        let program = hospital_rules();
        let demand = magic_transform(
            &program,
            &body_of("PatientUnit(u, d, p), p = \"Tom Waits\", not Shifts(w, d, n, s)."),
        );
        // Shifts must be derived in full for negation-as-failure to agree
        // with the full chase; PatientUnit could be guarded, but here it is
        // not unrestricted, so its guard stands.
        assert!(demand.relevant.contains("WorkingSchedules"));
        assert!(demand
            .program
            .tgds
            .iter()
            .any(|t| t.head_predicates() == vec!["Shifts"]
                && !t.body().atoms[0].predicate.starts_with("__magic_")));
    }

    #[test]
    fn relevant_facts_ride_along() {
        let mut program = hospital_rules();
        program.extend(parse_program("UnitWard(Standard, W1).\nOther(A1).\n").unwrap());
        let demand = magic_transform(&program, &body_of("PatientUnit(u, d, p)."));
        assert_eq!(demand.program.facts.len(), 1);
        assert_eq!(demand.program.facts[0].atom().predicate, "UnitWard");
    }

    #[test]
    fn constraints_are_dropped() {
        let program = parse_program(
            "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
             ! :- PatientUnit(u, d, p), not Unit(u).\n\
             u = u2 :- PatientUnit(u, d, p), PatientUnit(u2, d, p).\n",
        )
        .unwrap();
        let demand = magic_transform(&program, &body_of("PatientUnit(u, d, p)."));
        assert!(demand.program.constraints.is_empty());
        assert!(demand.program.egds.is_empty());
    }

    #[test]
    fn contradictory_equalities_leave_the_variable_unbound() {
        let program = hospital_rules();
        let demand = magic_transform(
            &program,
            &body_of("PatientUnit(u, d, p), p = \"Tom Waits\", p = \"Lou Reed\"."),
        );
        assert!(guarded_rules(&demand) == 0);
        assert!(demand.seeds.is_empty());
    }

    #[test]
    fn magic_names_encode_predicate_and_adornment() {
        let bs: BoundSet = [0, 2].into_iter().collect();
        assert_eq!(magic_name("PatientUnit", &bs, 3), "__magic_PatientUnit_bfb");
        assert_eq!(magic_name("T", &BoundSet::new(), 2), "__magic_T_ff");
    }
}
