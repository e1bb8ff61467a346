//! End-to-end coverage of the interned + columnar storage layer: parse →
//! intern → Display → parse round-trips, cross-database symbol behaviour,
//! the invariance of `Value`'s total order under interning, and a
//! property test pinning the columnar arena's selects to a row-oriented
//! scan oracle.

use ontodq_datalog::parse_program;
use ontodq_relational::{
    Database, RelationInstance, RelationSchema, StampWindow, SymbolInterner, Tuple, Value,
};
use proptest::prelude::*;

/// Parsing rule text interns every string constant; printing the parsed
/// program resolves the symbols back; re-parsing the printed text yields
/// the same program.  This is the user-visible face of the interning
/// contract: interning never changes what a constant *means*.
#[test]
fn parse_intern_display_parse_is_the_identity() {
    let source = "PatientUnit(u, d, p) :- PatientWard(w, d, p), UnitWard(u, w).\n\
                  Shifts(W1, \"Sep/9\", \"Mark Knopfler\", \"morning\").\n\
                  Unit(Standard).\n\
                  ! :- PatientUnit(u, d, p), not Unit(u).\n";
    let program = parse_program(source).unwrap();
    let printed = program.to_string();
    let reparsed = parse_program(&printed).unwrap();
    assert_eq!(printed, reparsed.to_string());
    // The quoted constants round-trip to the *same interned symbols*.
    let fact = &reparsed.facts[0];
    let tuple = ontodq_datalog::Assignment::new()
        .ground_atom(fact.atom())
        .unwrap();
    assert_eq!(tuple.get(2), Some(&Value::str("Mark Knopfler")));
    assert_eq!(
        tuple.get(2).unwrap().as_sym(),
        Value::str("Mark Knopfler").as_sym()
    );
}

/// Every `Database` shares the process-wide symbol table, so tuples built
/// against one database are directly usable (comparable, containable) in
/// another — symbols do not need translation at database boundaries.
#[test]
fn symbols_are_shared_across_databases() {
    let mut a = Database::new();
    let mut b = Database::new();
    a.insert_values("R", ["shared-constant", "x"]).unwrap();
    b.insert_values("R", ["shared-constant", "x"]).unwrap();
    let t = a.relation("R").unwrap().tuples()[0].clone();
    assert!(b.contains("R", &t));
    assert_eq!(
        a.relation("R").unwrap().tuples()[0]
            .get(0)
            .unwrap()
            .as_sym(),
        b.relation("R").unwrap().tuples()[0]
            .get(0)
            .unwrap()
            .as_sym()
    );
    // Both hand out the same shared table.
    assert!(std::ptr::eq(a.interner(), b.interner()));
    assert!(std::ptr::eq(a.interner(), SymbolInterner::global()));
}

/// Isolated tables (for embedders that must not share the global symbol
/// space) assign ids independently and never leak entries into each other
/// or into the global table.
#[test]
fn isolated_interner_tables_do_not_interfere() {
    let first = SymbolInterner::new();
    let second = SymbolInterner::new();
    let unique = "storage-layer-isolation-test-constant";
    let in_first = first.intern(unique);
    assert_eq!(second.lookup(unique), None);
    assert_eq!(first.resolve(in_first), Some(unique));
    // Ids restart from zero per table.
    assert_eq!(in_first.id(), 0);
    assert_eq!(second.intern("other").id(), 0);
    // Nothing reached the global table through the isolated ones.
    assert_eq!(SymbolInterner::global().lookup(unique), None);
}

/// The total order on values (and tuples) after interning equals the
/// lexicographic order of the raw strings — sorting answer sets, active
/// domains and BTree keys behaves exactly as before the storage change.
#[test]
fn value_total_order_equals_string_order() {
    let raw = [
        "Ward W10", "ward w2", "W1", "Ω-unit", "", "Sep/5", "Sep/10", "standard", "Standard",
    ];
    let mut by_string: Vec<&str> = raw.to_vec();
    by_string.sort_unstable();
    let mut by_value: Vec<Value> = raw.iter().map(Value::str).collect();
    by_value.sort();
    let resolved: Vec<&str> = by_value.iter().map(|v| v.as_str().unwrap()).collect();
    assert_eq!(resolved, by_string);

    // Tuples order lexicographically by their values, mixed kinds keep the
    // documented cross-kind rank order.
    let mut tuples = vec![
        Tuple::from_iter(["b", "a"]),
        Tuple::from_iter(["a", "z"]),
        Tuple::from_iter(["a", "b"]),
    ];
    tuples.sort();
    assert_eq!(
        tuples,
        vec![
            Tuple::from_iter(["a", "b"]),
            Tuple::from_iter(["a", "z"]),
            Tuple::from_iter(["b", "a"]),
        ]
    );
    assert!(Value::int(5) < Value::str("5"));
    assert!(Value::str("anything") < Value::null(ontodq_relational::NullId(0)));
}

/// The active domain — a `BTreeSet<Value>` — iterates in string order, the
/// order open-query candidate enumeration relies on.
#[test]
fn active_domain_iterates_in_string_order() {
    let mut db = Database::new();
    db.insert_values("R", ["zeta", "alpha"]).unwrap();
    db.insert_values("R", ["mike", "bravo"]).unwrap();
    let domain: Vec<String> = db.active_domain().iter().map(|v| v.to_string()).collect();
    let mut sorted = domain.clone();
    sorted.sort();
    assert_eq!(domain, sorted);
}

/// One generated workload for the columnar-vs-oracle property: a sequence
/// of stamped inserts (small domain, so duplicates and hot join keys are
/// frequent), which columns to hash-index, which positions to bind, and a
/// stamp window.
#[derive(Debug, Clone)]
struct ArenaCase {
    rows: Vec<(u8, u8, u8, u64)>,
    index_cols: Vec<usize>,
    bind0: Option<u8>,
    bind2: Option<u8>,
    after: Option<u64>,
    up_to: Option<u64>,
}

fn arb_arena_case() -> impl Strategy<Value = ArenaCase> {
    (
        proptest::collection::vec((0u8..6, 0u8..6, 0u8..4, 0u64..3), 0..48),
        proptest::collection::vec(0usize..3, 0..3),
        proptest::option::of(0u8..7),
        proptest::option::of(0u8..5),
        proptest::option::of(0u64..16),
        proptest::option::of(0u64..16),
    )
        .prop_map(|(rows, index_cols, bind0, bind2, after, up_to)| ArenaCase {
            rows,
            index_cols,
            bind0,
            bind2,
            after,
            up_to,
        })
}

proptest! {
    /// The columnar arena's `select_ids_into` probe (rows materialized with
    /// `row_tuple`) returns exactly what
    /// a row-oriented scan over an `(tuple, stamp)` oracle returns — same
    /// rows, same (insertion) order — for every combination of random
    /// inserts, non-decreasing stamps, indexed and unindexed bindings, and
    /// stamp windows.  This pins the id-returning probe path (postings
    /// intersection, window clamping, scan fallback) to the semantics the
    /// row-oriented storage had before the columnar rewrite.
    #[test]
    fn columnar_selects_match_row_scan_oracle(case in arb_arena_case()) {
        let mut arena = RelationInstance::new(RelationSchema::untyped("R", 3));
        let mut oracle: Vec<(Tuple, u64)> = Vec::new();
        let mut stamp = 0u64;
        for (a, b, c, bump) in &case.rows {
            stamp += bump;
            let tuple = Tuple::new(vec![
                Value::str(format!("v{a}")),
                Value::str(format!("v{b}")),
                Value::int(*c as i64),
            ]);
            let added = arena.insert_stamped(tuple.clone(), stamp).unwrap();
            let fresh = !oracle.iter().any(|(t, _)| *t == tuple);
            prop_assert_eq!(added, fresh, "duplicate detection diverged");
            if fresh {
                oracle.push((tuple, stamp));
            }
        }
        for &col in &case.index_cols {
            arena.build_index(col);
        }

        let mut bindings: Vec<(usize, Value)> = Vec::new();
        if let Some(a) = case.bind0 {
            bindings.push((0, Value::str(format!("v{a}"))));
        }
        if let Some(c) = case.bind2 {
            bindings.push((2, Value::int(c as i64)));
        }
        let window = StampWindow {
            after: case.after,
            up_to: case.up_to,
        };

        let matches = |t: &Tuple| bindings.iter().all(|(p, v)| t.get(*p) == Some(v));
        let in_window = |s: u64| {
            case.after.map(|a| s > a).unwrap_or(true)
                && case.up_to.map(|u| s <= u).unwrap_or(true)
        };

        let select = |window: StampWindow| {
            let mut ids = Vec::new();
            arena.select_ids_into(&bindings, window, &mut ids);
            ids.into_iter().map(|r| arena.row_tuple(r)).collect::<Vec<Tuple>>()
        };
        let expected_all: Vec<Tuple> = oracle
            .iter()
            .filter(|(t, _)| matches(t))
            .map(|(t, _)| t.clone())
            .collect();
        prop_assert_eq!(select(StampWindow::all()), expected_all);

        let expected_window: Vec<Tuple> = oracle
            .iter()
            .filter(|(t, s)| matches(t) && in_window(*s))
            .map(|(t, _)| t.clone())
            .collect();
        prop_assert_eq!(select(window), expected_window);

        // The stamp column round-trips the oracle's stamps exactly, in
        // insertion order.
        let stamps: Vec<u64> = oracle.iter().map(|(_, s)| *s).collect();
        prop_assert_eq!(arena.stamps(), stamps.as_slice());
        for (t, _) in &oracle {
            prop_assert!(arena.contains(t));
        }
    }
}
