//! # ontodq-relational
//!
//! In-memory relational substrate for the `ontodq` system — the Rust
//! reproduction of *"Extending Contexts with Ontologies for Multidimensional
//! Data Quality Assessment"* (Milani, Bertossi, Ariyan; ICDE 2014).
//!
//! The crate provides the data model every other layer builds on:
//!
//! * [`Value`] — domain constants (strings, integers, doubles, booleans,
//!   timestamps) and **labeled nulls** introduced by existential rules,
//! * [`Tuple`], [`RelationSchema`], [`RelationInstance`] — typed relations
//!   with set semantics and optional hash `index`es,
//! * [`Database`] — named collections of relations playing the roles of the
//!   instance under assessment `D`, the contextual instance `C`, and the
//!   extensional data `D_M` of the multidimensional ontology,
//!
//! The substrate is deliberately free of external dependencies and free of
//! query-processing logic: conjunctive-query evaluation lives in
//! `ontodq-chase`, and everything ontology-specific lives in `ontodq-datalog`
//! and `ontodq-mdm`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod counters;
mod database;
mod error;
mod fxhash;
mod index;
mod interner;
mod null;
mod relation;
mod schema;
mod tuple;
mod value;

pub use counters::{record_wco_seek, JoinCounters};
pub use database::{same_relation, Database};
pub use error::{RelationalError, Result};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use index::{intersect_sorted, HashIndex};
pub use interner::{Sym, SymbolInterner};
pub use null::{NullGenerator, NullId};
pub use relation::{RelationInstance, StampWindow};
pub use schema::{Attribute, AttributeType, RelationSchema};
pub use tuple::Tuple;
pub use value::Value;

// Compile-time thread-safety audit: `ontodq-server` shares immutable
// `Arc<Database>` snapshots across reader threads and moves whole databases
// between writer and worker threads, so the substrate must stay `Send +
// Sync` (no interior mutability, no `Rc`).  A regression fails right here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Value>();
    assert_send_sync::<Tuple>();
    assert_send_sync::<RelationInstance>();
    assert_send_sync::<Database>();
    assert_send_sync::<NullGenerator>();
    assert_send_sync::<HashIndex>();
    assert_send_sync::<Sym>();
    assert_send_sync::<SymbolInterner>();
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            "[a-zA-Z0-9 ]{0,12}".prop_map(Value::str),
            any::<i64>().prop_map(Value::int),
            any::<f64>()
                .prop_filter("finite", |d| d.is_finite())
                .prop_map(Value::double),
            any::<bool>().prop_map(Value::bool),
            (0i64..1_000_000).prop_map(Value::time),
            (0u64..64).prop_map(|id| Value::null(NullId(id))),
        ]
    }

    proptest! {
        /// The order on values is total and consistent with equality.
        #[test]
        fn value_order_is_total(a in arb_value(), b in arb_value()) {
            use std::cmp::Ordering;
            match a.cmp(&b) {
                Ordering::Equal => prop_assert_eq!(&a, &b),
                Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
                Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            }
        }

        /// Equal values hash identically.
        #[test]
        fn equal_values_hash_equal(a in arb_value()) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let b = a;
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }

        /// Time parsing and formatting round-trip.
        #[test]
        fn time_round_trips(minutes in 0i64..(365 * 24 * 60)) {
            let rendered = Value::format_time(minutes);
            let parsed = Value::parse_time(&rendered).unwrap();
            prop_assert_eq!(parsed, Value::time(minutes));
        }

        /// Inserting the same tuples twice leaves a relation unchanged
        /// (set semantics), regardless of the tuples generated.
        #[test]
        fn relation_insert_is_idempotent(
            rows in proptest::collection::vec(proptest::collection::vec(arb_value(), 3), 0..20)
        ) {
            let schema = RelationSchema::untyped("R", 3);
            let mut rel = RelationInstance::new(schema);
            for row in &rows {
                rel.insert_unchecked(Tuple::new(row.clone()));
            }
            let size = rel.len();
            for row in &rows {
                rel.insert_unchecked(Tuple::new(row.clone()));
            }
            prop_assert_eq!(rel.len(), size);
        }

        /// Selection with an index agrees with a full scan.
        #[test]
        fn indexed_select_equals_scan(
            rows in proptest::collection::vec(proptest::collection::vec(arb_value(), 2), 0..30),
            probe in arb_value()
        ) {
            let schema = RelationSchema::untyped("R", 2);
            let mut scan_rel = RelationInstance::new(schema.clone());
            let mut idx_rel = RelationInstance::new(schema);
            for row in &rows {
                scan_rel.insert_unchecked(Tuple::new(row.clone()));
                idx_rel.insert_unchecked(Tuple::new(row.clone()));
            }
            idx_rel.build_index(0);
            let bindings = vec![(0usize, probe)];
            let select = |rel: &RelationInstance| {
                let mut ids = Vec::new();
                rel.select_ids_into(&bindings, StampWindow::all(), &mut ids);
                ids.into_iter().map(|r| rel.row_tuple(r)).collect::<Vec<Tuple>>()
            };
            prop_assert_eq!(select(&scan_rel), select(&idx_rel));
        }

    }
}
