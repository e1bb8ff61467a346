//! Databases: named collections of relation instances, shared structurally.
//!
//! A [`Database`] maps relation names to `Arc<RelationInstance>`, so
//! `Database::clone` is one reference-count bump per relation and two
//! databases (a published snapshot and the writer's working state, say)
//! hold the same arena until one of them writes to it.  Every mutating path
//! opens its relation through [`Database::relation_mut`], which deep-copies
//! the relation only when another database still shares it
//! (`Arc::make_mut`) — a write pays for the relations it touches, never for
//! the instance.  See `docs/columnar.md`, "Structural sharing".

use crate::counters;
use crate::error::{RelationalError, Result};
use crate::interner::SymbolInterner;
use crate::null::NullId;
use crate::relation::RelationInstance;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A database instance: a map from relation names to relation instances.
///
/// A `Database` plays several roles in the system:
/// * the instance `D` under quality assessment,
/// * the contextual instance `C` (including the copies/footprints of `D`),
/// * the extensional data `D_M` of the multidimensional ontology
///   (category members, parent–child relations, categorical relations),
/// * the working instance of the chase.
///
/// Relations are reference-counted and copied on write (see the module
/// docs): cloning a database is cheap, and operations that turn out to be
/// no-ops — deleting an absent tuple, compacting without tombstones —
/// leave every relation shared.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Arc<RelationInstance>>,
    /// Monotone epoch counter stamped onto inserts; advanced by
    /// [`Database::advance_epoch`] (the chase advances it once per round so
    /// each relation's delta is exactly the rows produced since the previous
    /// round).  The epoch lives here, not on the relations: a relation
    /// learns the current value when it is next opened for writing, so
    /// ticking the clock never touches (and never unshares) a relation.
    epoch: u64,
}

/// Make `slot` uniquely owned — deep-copying the relation when another
/// database still shares it — and hand it the database's current `epoch`.
fn open(slot: &mut Arc<RelationInstance>, epoch: u64) -> &mut RelationInstance {
    if Arc::get_mut(slot).is_none() {
        counters::record_relation_copy();
    }
    let relation = Arc::make_mut(slot);
    relation.set_epoch(epoch);
    relation
}

/// Do two optional relation handles (see [`Database::shared_relation`])
/// denote the same version of a relation — both absent, or both the very
/// same allocation?  Relations are copied on write, so a handle pinned
/// earlier that is still the same as the database's current one proves the
/// relation has not changed in between: the test memoized derivations
/// (quality versions, constraint checks) carry results forward on.
pub fn same_relation(a: Option<&Arc<RelationInstance>>, b: Option<&Arc<RelationInstance>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch: rows inserted now are stamped with it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The symbol table this database's string constants live in.
    ///
    /// All databases share the process-wide [`SymbolInterner`] (see its
    /// docs for the interning contract), so symbols — and therefore tuples
    /// — are freely comparable and movable across databases.  Batch loaders
    /// (CSV, the server's fact protocol) intern through this handle once at
    /// parse time; everything downstream operates on fixed-width ids.
    pub fn interner(&self) -> &'static SymbolInterner {
        SymbolInterner::global()
    }

    /// Advance the epoch by one, so that subsequent inserts are
    /// distinguishable from all existing rows by their stamps (see
    /// [`crate::StampWindow`]).  Returns the new epoch.  No
    /// relation is touched: each picks the epoch up when it is next opened
    /// for writing.
    pub fn advance_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Raise the epoch to at least `epoch`.  The reload path of persistence
    /// layers: a serialized database records its epoch explicitly (it may
    /// sit above every row stamp after batches that inserted nothing new),
    /// and rule watermarks reference epochs, so the exact value must
    /// survive a round trip.  Unlike [`Database::advance_epoch`] this never
    /// decreases the epoch and is a no-op when `epoch` is not ahead.
    pub fn raise_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Register an empty relation with `schema`.
    ///
    /// Registering the same name twice is fine when the schemas agree and an
    /// error otherwise.
    pub fn create_relation(&mut self, schema: RelationSchema) -> Result<()> {
        let name = schema.name().to_string();
        match self.relations.get(&name) {
            None => {
                self.relations
                    .insert(name, Arc::new(RelationInstance::new(schema)));
                Ok(())
            }
            Some(existing) if existing.schema() == &schema => Ok(()),
            Some(_) => Err(RelationalError::SchemaConflict(name)),
        }
    }

    /// Register a relation instance wholesale (replacing any existing
    /// relation of the same name).  The database epoch absorbs the
    /// relation's stamps so delta queries stay meaningful.
    pub fn insert_relation(&mut self, relation: RelationInstance) {
        self.adopt(Arc::new(relation));
    }

    /// Register an already shared relation (replacing any existing relation
    /// of the same name) without copying it; the epoch absorbs its stamps
    /// as in [`Database::insert_relation`].
    fn adopt(&mut self, relation: Arc<RelationInstance>) {
        self.epoch = self.epoch.max(relation.last_stamp().unwrap_or(0));
        self.relations.insert(relation.name().to_string(), relation);
    }

    /// Does the database know a relation called `name`?
    pub fn has_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// The relation called `name`.
    pub fn relation(&self, name: &str) -> Result<&RelationInstance> {
        self.relations
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| RelationalError::UnknownRelation(name.to_string()))
    }

    /// The shared handle of the relation called `name`, if any.  Two
    /// databases hold the *same* arena exactly when their handles are
    /// [`Arc::ptr_eq`]; holding a clone of the handle pins that version of
    /// the relation (the owning database copies on its next write).
    pub fn shared_relation(&self, name: &str) -> Option<&Arc<RelationInstance>> {
        self.relations.get(name)
    }

    /// Mutable access to the relation called `name`: the relation is opened
    /// for writing, i.e. deep-copied first when another database still
    /// shares it, and stamped with the current epoch.  Callers that may
    /// turn out not to write should test through [`Database::relation`]
    /// first so a no-op never unshares anything.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut RelationInstance> {
        let epoch = self.epoch;
        self.relations
            .get_mut(name)
            .map(|slot| open(slot, epoch))
            .ok_or_else(|| RelationalError::UnknownRelation(name.to_string()))
    }

    /// The relation called `name` opened for writing (see
    /// [`Database::relation_mut`]), creating an untyped one of arity
    /// `arity` when missing.  Used by the Datalog± layer, whose predicates
    /// need not be declared in advance.
    pub fn relation_or_create(&mut self, name: &str, arity: usize) -> &mut RelationInstance {
        let epoch = self.epoch;
        let slot = self.relations.entry(name.to_string()).or_insert_with(|| {
            Arc::new(RelationInstance::new(RelationSchema::untyped(name, arity)))
        });
        open(slot, epoch)
    }

    /// Insert a tuple into relation `name`, creating an untyped relation of
    /// matching arity when the relation is unknown.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> Result<bool> {
        if !self.relations.contains_key(name) {
            self.create_relation(RelationSchema::untyped(name, tuple.arity()))?;
        }
        self.relation_mut(name)?.insert(tuple)
    }

    /// Insert a tuple built from anything convertible into values.
    pub fn insert_values<I, V>(&mut self, name: &str, values: I) -> Result<bool>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.insert(name, Tuple::from_iter(values))
    }

    /// Does relation `name` contain `tuple`?  Unknown relations contain
    /// nothing.
    pub fn contains(&self, name: &str, tuple: &Tuple) -> bool {
        self.relations
            .get(name)
            .map(|r| r.contains(tuple))
            .unwrap_or(false)
    }

    /// Iterate over the relation instances in name order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationInstance> {
        self.relations.values().map(Arc::as_ref)
    }

    /// The names of all relations, in name order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Total number of **live** tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations().map(RelationInstance::len).sum()
    }

    /// Total number of physical arena slots across all relations (live rows
    /// plus tombstones).
    pub fn total_rows(&self) -> usize {
        self.relations().map(RelationInstance::total_rows).sum()
    }

    /// Total number of tombstoned rows across all relations.
    pub fn dead_rows(&self) -> usize {
        self.relations().map(RelationInstance::dead_rows).sum()
    }

    /// Tombstone the row holding exactly `tuple` in relation `name`.
    /// Returns whether a live row was deleted; unknown relations hold
    /// nothing, so deleting from one is `false`, not an error.  Deleting an
    /// absent tuple leaves the relation shared.
    pub fn delete(&mut self, name: &str, tuple: &Tuple) -> bool {
        self.contains(name, tuple)
            && self
                .relation_mut(name)
                .map(|r| r.delete(tuple))
                .unwrap_or(false)
    }

    /// Compact every relation's arena, dropping tombstoned slots.  Returns
    /// the total number of slots reclaimed.  Relations without tombstones
    /// are not opened (and so stay shared).
    pub fn compact(&mut self) -> usize {
        self.compact_where(|r| r.dead_rows() > 0)
    }

    /// Compact the relations whose tombstones outnumber their live rows;
    /// the others keep theirs.  Returns the number of slots reclaimed.
    ///
    /// This is what a long-lived writer calls after each batch of
    /// deletions: a relation is rebuilt only after at least as many
    /// deletions as it has rows left, so reclamation is amortized constant
    /// work per deletion, and no arena grows past twice its live rows —
    /// whatever copies, scans or persists a relation pays for what it
    /// holds, not for everything it ever held.  Row ids shift (stamps are
    /// kept), so call it between batches, never while row ids are in
    /// flight.
    pub fn compact_sparse(&mut self) -> usize {
        self.compact_where(|r| r.dead_rows() > r.len())
    }

    fn compact_where(&mut self, wanted: impl Fn(&RelationInstance) -> bool) -> usize {
        let epoch = self.epoch;
        self.relations
            .values_mut()
            .filter(|r| wanted(r))
            .map(|slot| open(slot, epoch).compact())
            .sum()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Approximate heap footprint of the columnar arenas across all
    /// relations (value columns + stamp columns + index postings), in
    /// bytes.  Surfaced by the server's `!stats`.  A relation shared with
    /// another database is counted in full by each of them: the figure is
    /// what this database *references*, not what it exclusively owns.
    pub fn arena_bytes(&self) -> usize {
        self.relations().map(RelationInstance::arena_bytes).sum()
    }

    /// Approximate bytes held by tombstoned rows across all relations — the
    /// space a [`Database::compact`] would reclaim.
    pub fn reclaimable_bytes(&self) -> usize {
        self.relations()
            .map(RelationInstance::reclaimable_bytes)
            .sum()
    }

    /// All constants appearing anywhere in the database (the *active
    /// domain*), in sorted order.  Open conjunctive query answering draws
    /// candidate substitutions from this set.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.relations().flat_map(|r| r.constants()).collect()
    }

    /// All labeled nulls appearing anywhere in the database.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.relations().flat_map(|r| r.nulls()).collect()
    }

    /// The largest labeled-null id in the database, if any; used to seed
    /// fresh-null generation when starting a chase.
    pub fn max_null_id(&self) -> Option<u64> {
        self.relations()
            .filter_map(RelationInstance::max_null_id)
            .max()
    }

    /// Merge another database into this one: relations are created as needed
    /// and tuples unioned.  Returns the number of new tuples.
    ///
    /// A relation this database does not have yet is **adopted** — the two
    /// databases share it until either writes — and an existing relation is
    /// opened only when `other` actually holds tuples it lacks.
    pub fn merge(&mut self, other: &Database) -> Result<usize> {
        let mut added = 0;
        for (name, theirs) in &other.relations {
            let Some(ours) = self.relations.get(name) else {
                added += theirs.len();
                self.adopt(Arc::clone(theirs));
                continue;
            };
            let missing: Vec<Tuple> = theirs.iter().filter(|t| !ours.contains(t)).collect();
            if missing.is_empty() {
                continue;
            }
            let target = self.relation_mut(name)?;
            for tuple in missing {
                if target.insert(tuple)? {
                    added += 1;
                }
            }
        }
        Ok(added)
    }

    /// A database holding only the relations named in `names` (unknown names
    /// are skipped), shared with this one.
    pub fn restrict_to(&self, names: &[&str]) -> Database {
        let mut db = Database::new();
        db.epoch = self.epoch;
        for name in names {
            if let Some(rel) = self.relations.get(*name) {
                db.adopt(Arc::clone(rel));
            }
        }
        db
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for relation in self.relations() {
            write!(f, "{relation}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn sample() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new(
            "PatientWard",
            vec![
                Attribute::string("Ward"),
                Attribute::string("Day"),
                Attribute::string("Patient"),
            ],
        ))
        .unwrap();
        db.insert_values("PatientWard", ["W1", "Sep/5", "Tom Waits"])
            .unwrap();
        db.insert_values("PatientWard", ["W2", "Sep/6", "Tom Waits"])
            .unwrap();
        db.insert_values("UnitWard", ["Standard", "W1"]).unwrap();
        db.insert_values("UnitWard", ["Standard", "W2"]).unwrap();
        db
    }

    #[test]
    fn create_and_lookup() {
        let db = sample();
        assert!(db.has_relation("PatientWard"));
        assert!(db.has_relation("UnitWard"));
        assert!(!db.has_relation("Shifts"));
        assert_eq!(db.relation("PatientWard").unwrap().len(), 2);
        assert!(db.relation("Shifts").is_err());
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.total_tuples(), 4);
    }

    #[test]
    fn create_relation_is_idempotent_for_equal_schemas() {
        let mut db = sample();
        let schema = db.relation("UnitWard").unwrap().schema().clone();
        assert!(db.create_relation(schema).is_ok());
        // Conflicting schema is rejected.
        let conflicting = RelationSchema::untyped("UnitWard", 3);
        assert!(matches!(
            db.create_relation(conflicting),
            Err(RelationalError::SchemaConflict(_))
        ));
    }

    #[test]
    fn insert_auto_creates_untyped_relations() {
        let mut db = Database::new();
        assert!(db.insert_values("Fresh", ["a", "b"]).unwrap());
        assert_eq!(db.relation("Fresh").unwrap().schema().arity(), 2);
    }

    #[test]
    fn contains_handles_unknown_relations() {
        let db = sample();
        assert!(db.contains("UnitWard", &Tuple::from_iter(["Standard", "W1"])));
        assert!(!db.contains("UnitWard", &Tuple::from_iter(["Standard", "W9"])));
        assert!(!db.contains("Nope", &Tuple::from_iter(["x"])));
    }

    #[test]
    fn active_domain_collects_constants() {
        let db = sample();
        let domain = db.active_domain();
        assert!(domain.contains(&Value::str("Tom Waits")));
        assert!(domain.contains(&Value::str("Standard")));
        assert!(domain.contains(&Value::str("W1")));
    }

    #[test]
    fn nulls_span_relations() {
        let mut db = sample();
        db.insert(
            "Shifts",
            Tuple::new(vec![Value::str("W1"), Value::null(NullId(3))]),
        )
        .unwrap();
        db.insert("Other", Tuple::new(vec![Value::null(NullId(3))]))
            .unwrap();
        assert_eq!(db.nulls().len(), 1);
        assert_eq!(db.max_null_id(), Some(3));
    }

    #[test]
    fn merge_unions_tuples() {
        let mut a = sample();
        let mut b = Database::new();
        b.insert_values("UnitWard", ["Intensive", "W3"]).unwrap();
        b.insert_values("UnitWard", ["Standard", "W1"]).unwrap(); // duplicate
        let added = a.merge(&b).unwrap();
        assert_eq!(added, 1);
        assert_eq!(a.relation("UnitWard").unwrap().len(), 3);
    }

    #[test]
    fn restrict_to_keeps_only_named_relations() {
        let db = sample();
        let restricted = db.restrict_to(&["UnitWard", "DoesNotExist"]);
        assert_eq!(restricted.relation_count(), 1);
        assert!(restricted.has_relation("UnitWard"));
    }

    #[test]
    fn relation_or_create_defaults_to_untyped() {
        let mut db = Database::new();
        db.relation_or_create("P", 3)
            .insert_unchecked(Tuple::from_iter(["a", "b", "c"]));
        assert_eq!(db.relation("P").unwrap().len(), 1);
        // A second call reuses the existing relation.
        db.relation_or_create("P", 3)
            .insert_unchecked(Tuple::from_iter(["d", "e", "f"]));
        assert_eq!(db.relation("P").unwrap().len(), 2);
    }

    #[test]
    fn relation_names_are_sorted() {
        let db = sample();
        assert_eq!(db.relation_names(), vec!["PatientWard", "UnitWard"]);
    }

    #[test]
    fn advance_epoch_partitions_inserts_into_deltas() {
        let mut db = sample();
        let before = db.epoch();
        let epoch = db.advance_epoch();
        assert_eq!(epoch, before + 1);
        db.insert_values("UnitWard", ["Oncology", "W9"]).unwrap();
        // Auto-created relations also pick up the current epoch.
        db.insert_values("Fresh", ["x"]).unwrap();
        let delta = db.relation("UnitWard").unwrap().delta_since(before);
        assert_eq!(delta, &[Tuple::from_iter(["Oncology", "W9"])]);
        assert_eq!(db.relation("Fresh").unwrap().delta_since(before).len(), 1);
        assert!(db
            .relation("PatientWard")
            .unwrap()
            .delta_since(before)
            .is_empty());
    }

    #[test]
    fn raise_epoch_restores_an_epoch_above_all_stamps() {
        let mut db = sample();
        db.advance_epoch();
        db.advance_epoch(); // epoch 2, no rows stamped past 0
        let mut reloaded = Database::new();
        for relation in db.relations() {
            reloaded.insert_relation(relation.clone());
        }
        // Absorbing the relations only recovers max stamp (0), not the
        // advanced epoch.
        assert_eq!(reloaded.epoch(), 0);
        reloaded.raise_epoch(db.epoch());
        assert_eq!(reloaded.epoch(), 2);
        // Raising backwards is a no-op.
        reloaded.raise_epoch(1);
        assert_eq!(reloaded.epoch(), 2);
        // New inserts land strictly after the restored epoch boundary.
        reloaded
            .insert_values("UnitWard", ["Oncology", "W9"])
            .unwrap();
        assert_eq!(
            reloaded.relation("UnitWard").unwrap().delta_since(1).len(),
            1
        );
    }

    #[test]
    fn delete_tombstones_and_compact_reclaims() {
        let mut db = sample();
        assert!(db.delete("UnitWard", &Tuple::from_iter(["Standard", "W1"])));
        assert!(!db.delete("UnitWard", &Tuple::from_iter(["Standard", "W1"])));
        assert!(!db.delete("Nope", &Tuple::from_iter(["x"])));
        assert_eq!(db.total_tuples(), 3);
        assert_eq!(db.total_rows(), 4);
        assert_eq!(db.dead_rows(), 1);
        assert!(db.reclaimable_bytes() > 0);
        assert_eq!(db.compact(), 1);
        assert_eq!(db.total_rows(), 3);
        assert_eq!(db.dead_rows(), 0);
        assert_eq!(db.reclaimable_bytes(), 0);
        assert!(!db.contains("UnitWard", &Tuple::from_iter(["Standard", "W1"])));
    }

    /// `compact_sparse` rebuilds a relation only once its tombstones
    /// outnumber its live rows, keeps stamps, and leaves a relation that is
    /// not yet sparse — shared or not — alone.
    #[test]
    fn compact_sparse_reclaims_only_mostly_dead_relations() {
        let mut db = sample();
        db.advance_epoch();
        db.insert_values("UnitWard", ["Standard", "W3"]).unwrap();
        let held = db.clone();
        assert!(db.delete("UnitWard", &Tuple::from_iter(["Standard", "W1"])));
        assert!(db.delete(
            "PatientWard",
            &Tuple::from_iter(["W1", "Sep/5", "Tom Waits"])
        ));
        // One dead row against two (resp. one) live ones: nothing is sparse.
        assert_eq!(db.compact_sparse(), 0);
        assert_eq!(db.dead_rows(), 2);
        assert!(db.delete("UnitWard", &Tuple::from_iter(["Standard", "W2"])));
        assert_eq!(db.compact_sparse(), 2);
        let unit_ward = db.relation("UnitWard").unwrap();
        assert_eq!((unit_ward.total_rows(), unit_ward.dead_rows()), (1, 0));
        assert_eq!(
            unit_ward.delta_since(0),
            &[Tuple::from_iter(["Standard", "W3"])]
        );
        assert_eq!(db.relation("PatientWard").unwrap().dead_rows(), 1);
        assert_eq!(held.total_tuples(), 5);
        assert_eq!(held.dead_rows(), 0);
    }

    /// The relations of `a` that are the very same allocation in `b`.
    fn shared(a: &Database, b: &Database) -> Vec<String> {
        a.relation_names()
            .into_iter()
            .filter(|n| same_relation(a.shared_relation(n), b.shared_relation(n)))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn clones_share_relations_until_one_writes() {
        let original = sample();
        let mut copy = original.clone();
        assert_eq!(shared(&original, &copy), ["PatientWard", "UnitWard"]);
        let before = crate::JoinCounters::snapshot().relation_copies;
        copy.insert_values("UnitWard", ["Oncology", "W9"]).unwrap();
        // Exactly the written relation was copied; the original is intact.
        assert!(crate::JoinCounters::snapshot().relation_copies > before);
        assert_eq!(shared(&original, &copy), ["PatientWard"]);
        assert_eq!(original.relation("UnitWard").unwrap().len(), 2);
        assert_eq!(copy.relation("UnitWard").unwrap().len(), 3);
        // A second write to the now-private relation copies nothing more.
        let private = Arc::clone(copy.shared_relation("PatientWard").unwrap());
        copy.insert_values("UnitWard", ["Oncology", "W10"]).unwrap();
        assert!(Arc::ptr_eq(
            &private,
            copy.shared_relation("PatientWard").unwrap()
        ));
    }

    #[test]
    fn no_op_writes_leave_every_relation_shared() {
        let mut original = sample();
        original
            .insert(
                "Shifts",
                Tuple::new(vec![Value::str("W1"), Value::null(NullId(3))]),
            )
            .unwrap();
        let all = ["PatientWard", "Shifts", "UnitWard"];
        let mut copy = original.clone();
        copy.advance_epoch();
        copy.raise_epoch(9);
        assert_eq!(copy.compact(), 0);
        assert!(!copy.delete("UnitWard", &Tuple::from_iter(["Standard", "W9"])));
        assert!(!copy.delete("Nope", &Tuple::from_iter(["x"])));
        copy.create_relation(original.relation("UnitWard").unwrap().schema().clone())
            .unwrap();
        assert_eq!(copy.merge(&original).unwrap(), 0);
        assert_eq!(shared(&original, &copy), all);
        // Each real write opens only the relation it changes.
        assert!(copy
            .insert(
                "Shifts",
                Tuple::new(vec![Value::str("W2"), Value::null(NullId(4))])
            )
            .unwrap());
        assert_eq!(shared(&original, &copy), ["PatientWard", "UnitWard"]);
        assert!(copy.delete("UnitWard", &Tuple::from_iter(["Standard", "W1"])));
        assert_eq!(copy.compact(), 1);
        assert_eq!(shared(&original, &copy), ["PatientWard"]);
        assert_eq!(original.total_tuples(), 5);
        assert_eq!(original.nulls().len(), 1);
    }

    #[test]
    fn merge_and_restrict_adopt_relations_instead_of_copying() {
        let source = sample();
        let mut target = Database::new();
        target.insert_values("Other", ["x"]).unwrap();
        assert_eq!(target.merge(&source).unwrap(), 4);
        assert_eq!(shared(&source, &target), ["PatientWard", "UnitWard"]);
        let restricted = source.restrict_to(&["UnitWard"]);
        assert_eq!(shared(&restricted, &source), ["UnitWard"]);
    }

    /// The epoch lives on the database: a relation that sat out several
    /// ticks while shared must stamp its next rows with the *current* epoch
    /// once it is opened, or delta windows would miss them.
    #[test]
    fn rows_written_after_sharing_carry_the_current_epoch() {
        let mut db = sample();
        let snapshot = db.clone();
        let before = db.advance_epoch();
        db.advance_epoch();
        db.insert_values("UnitWard", ["Oncology", "W9"]).unwrap();
        let relation = db.relation("UnitWard").unwrap();
        assert_eq!(relation.last_stamp(), Some(db.epoch()));
        assert_eq!(
            relation.delta_since(before),
            [Tuple::from_iter(["Oncology", "W9"])]
        );
        assert!(relation.delta_since(db.epoch()).is_empty());
        // The snapshot still sees the old rows at the old stamps.
        let frozen = snapshot.relation("UnitWard").unwrap();
        assert_eq!(frozen.len(), 2);
        assert_eq!(frozen.last_stamp(), Some(0));
        // A clone taken at a lower epoch keeps stamping at its own.
        let mut stale = snapshot.clone();
        stale.insert_values("UnitWard", ["Oncology", "W9"]).unwrap();
        assert_eq!(
            stale.relation("UnitWard").unwrap().last_stamp(),
            Some(snapshot.epoch())
        );
    }
}
