//! The interner-aware binary codec.
//!
//! Every persisted artifact (WAL segment, snapshot) is a sequence of framed
//! records over the same primitive encoding.  String data never appears
//! inline in data records: each file carries its own **local symbol
//! dictionary** — symbol-definition records mapping a file-local `u32` id to
//! the UTF-8 string — and data records reference strings by local id.  The
//! global [`Sym`] ids of the producing process are deliberately *not*
//! persisted: they are first-intern-order identities and mean nothing in
//! another process.  On replay each distinct string is re-interned into the
//! global table exactly once per file (when its definition record is read),
//! and all decoded values carry the *new* process's symbols.
//!
//! Primitives are little-endian fixed width.  A [`Value`] is one tag byte
//! plus its payload:
//!
//! | tag | variant | payload |
//! |---|---|---|
//! | 0 | `Str` | `u32` local symbol id |
//! | 1 | `Int` | `i64` |
//! | 2 | `Double` | `u64` IEEE-754 bits |
//! | 3 | `Bool` | `u8` |
//! | 4 | `Time` | `i64` minutes |
//! | 5 | `Null` | `u64` labeled-null id |
//!
//! Labeled-null ids are stable process-local integers and are persisted
//! verbatim (snapshots also persist the next-null counter, so recovery can
//! never re-mint a persisted id).
//!
//! A database is serialized with its epoch, and every row with its insert
//! stamp, so the delta structure the resumable chase depends on survives the
//! round trip bit-for-bit.

use crate::error::{Result, StoreError};
use ontodq_relational::{
    Attribute, AttributeType, Database, NullId, RelationInstance, RelationSchema, Sym, Tuple, Value,
};
use std::collections::HashMap;
use std::path::Path;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected) — std has no checksum, so the
// classic 256-entry table is generated at compile time.
// ---------------------------------------------------------------------------

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Primitive writers.
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// The cursor: a bounds-checked reader over one record payload.
// ---------------------------------------------------------------------------

/// A bounds-checked reader over a decoded record payload.  All take-methods
/// fail (rather than panic) on truncated input, so a torn or corrupt record
/// surfaces as a [`StoreError::Corrupt`] with the file it came from.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8], path: &'a Path) -> Self {
        Self { buf, pos: 0, path }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn corrupt(&self, reason: impl Into<String>) -> StoreError {
        StoreError::corrupt(self.path, reason)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| self.corrupt(format!("record truncated at byte {}", self.pos)))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn take_i64(&mut self) -> Result<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn take_str(&mut self, len: usize) -> Result<&'a str> {
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| self.corrupt("symbol definition is not valid UTF-8"))
    }
}

// ---------------------------------------------------------------------------
// Local symbol dictionaries.
// ---------------------------------------------------------------------------

/// The encode side of a file-local symbol dictionary: assigns dense local
/// ids to the distinct strings a file references, collecting newly assigned
/// entries so the caller can emit their symbol-definition records *before*
/// the data record that references them.
#[derive(Debug, Default)]
pub(crate) struct DictWriter {
    /// Global symbol id → local id (globals are process-unique, so they key
    /// the map; their numeric value is never written out).
    locals: HashMap<u32, u32>,
    /// Entries assigned since the last [`DictWriter::drain_new`], in
    /// assignment order.
    fresh: Vec<(u32, &'static str)>,
}

impl DictWriter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The local id of `sym`, assigning the next dense id on first sight.
    pub(crate) fn local(&mut self, sym: Sym) -> u32 {
        let next = self.locals.len() as u32;
        *self.locals.entry(sym.id()).or_insert_with(|| {
            self.fresh.push((next, sym.as_str()));
            next
        })
    }

    /// The local id of an arbitrary string (interned first — idempotent for
    /// strings the process already knows, which is every string reachable
    /// from live data).
    pub(crate) fn local_str(&mut self, text: &str) -> u32 {
        self.local(Sym::new(text))
    }

    /// Dictionary entries assigned since the previous drain, in assignment
    /// order — the symbol-definition records owed before the next data
    /// record.
    pub(crate) fn drain_new(&mut self) -> Vec<(u32, &'static str)> {
        std::mem::take(&mut self.fresh)
    }
}

/// The decode side: file-local id → re-interned global symbol.  Each
/// distinct string costs one intern per file, after which every reference is
/// a dense-array lookup.
#[derive(Debug, Default)]
pub(crate) struct DictReader {
    symbols: Vec<Sym>,
}

impl DictReader {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Define the next local id.  Definitions must arrive densely in id
    /// order (the writer assigns them that way).
    pub(crate) fn define(&mut self, local: u32, text: &str, path: &Path) -> Result<()> {
        if local as usize != self.symbols.len() {
            return Err(StoreError::corrupt(
                path,
                format!(
                    "symbol definition out of order: got id {local}, expected {}",
                    self.symbols.len()
                ),
            ));
        }
        self.symbols.push(Sym::new(text));
        Ok(())
    }

    pub(crate) fn resolve(&self, local: u32, path: &Path) -> Result<Sym> {
        self.symbols
            .get(local as usize)
            .copied()
            .ok_or_else(|| StoreError::corrupt(path, format!("undefined symbol id {local}")))
    }
}

// ---------------------------------------------------------------------------
// Values and tuples.
// ---------------------------------------------------------------------------

const TAG_STR: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_TIME: u8 = 4;
const TAG_NULL: u8 = 5;

pub(crate) fn encode_value(buf: &mut Vec<u8>, dict: &mut DictWriter, value: &Value) {
    match value {
        Value::Str(sym) => {
            put_u8(buf, TAG_STR);
            put_u32(buf, dict.local(*sym));
        }
        Value::Int(i) => {
            put_u8(buf, TAG_INT);
            put_i64(buf, *i);
        }
        Value::Double(d) => {
            put_u8(buf, TAG_DOUBLE);
            put_u64(buf, d.to_bits());
        }
        Value::Bool(b) => {
            put_u8(buf, TAG_BOOL);
            put_u8(buf, *b as u8);
        }
        Value::Time(t) => {
            put_u8(buf, TAG_TIME);
            put_i64(buf, *t);
        }
        Value::Null(id) => {
            put_u8(buf, TAG_NULL);
            put_u64(buf, id.id());
        }
    }
}

pub(crate) fn decode_value(cursor: &mut Cursor<'_>, dict: &DictReader) -> Result<Value> {
    let tag = cursor.take_u8()?;
    Ok(match tag {
        TAG_STR => Value::Str(dict.resolve(cursor.take_u32()?, cursor.path)?),
        TAG_INT => Value::Int(cursor.take_i64()?),
        TAG_DOUBLE => Value::Double(f64::from_bits(cursor.take_u64()?)),
        TAG_BOOL => Value::Bool(cursor.take_u8()? != 0),
        TAG_TIME => Value::Time(cursor.take_i64()?),
        TAG_NULL => Value::Null(NullId(cursor.take_u64()?)),
        other => return Err(cursor.corrupt(format!("unknown value tag {other}"))),
    })
}

pub(crate) fn encode_tuple(buf: &mut Vec<u8>, dict: &mut DictWriter, tuple: &Tuple) {
    put_u16(buf, tuple.arity() as u16);
    for value in tuple.values() {
        encode_value(buf, dict, value);
    }
}

pub(crate) fn decode_tuple(cursor: &mut Cursor<'_>, dict: &DictReader) -> Result<Tuple> {
    let arity = cursor.take_u16()? as usize;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(cursor, dict)?);
    }
    Ok(Tuple::new(values))
}

// ---------------------------------------------------------------------------
// Schemas and databases.
// ---------------------------------------------------------------------------

fn type_tag(ty: AttributeType) -> u8 {
    match ty {
        AttributeType::String => 0,
        AttributeType::Integer => 1,
        AttributeType::Double => 2,
        AttributeType::Boolean => 3,
        AttributeType::Time => 4,
        AttributeType::Any => 5,
    }
}

fn type_from_tag(tag: u8, cursor: &Cursor<'_>) -> Result<AttributeType> {
    Ok(match tag {
        0 => AttributeType::String,
        1 => AttributeType::Integer,
        2 => AttributeType::Double,
        3 => AttributeType::Boolean,
        4 => AttributeType::Time,
        5 => AttributeType::Any,
        other => return Err(cursor.corrupt(format!("unknown attribute type tag {other}"))),
    })
}

fn encode_schema(buf: &mut Vec<u8>, dict: &mut DictWriter, schema: &RelationSchema) {
    put_u32(buf, dict.local_str(schema.name()));
    put_u16(buf, schema.arity() as u16);
    for attribute in schema.attributes() {
        put_u32(buf, dict.local_str(&attribute.name));
        put_u8(buf, type_tag(attribute.ty));
    }
}

fn decode_schema(cursor: &mut Cursor<'_>, dict: &DictReader) -> Result<RelationSchema> {
    let name = dict.resolve(cursor.take_u32()?, cursor.path)?;
    let arity = cursor.take_u16()? as usize;
    let mut attributes = Vec::with_capacity(arity);
    for _ in 0..arity {
        let attr_name = dict.resolve(cursor.take_u32()?, cursor.path)?;
        let tag = cursor.take_u8()?;
        attributes.push(Attribute::new(
            attr_name.as_str(),
            type_from_tag(tag, cursor)?,
        ));
    }
    Ok(RelationSchema::new(name.as_str(), attributes))
}

/// Serialize a whole database: epoch, then every relation with its schema
/// and **physical** rows — stamp, liveness byte, tuple — in arena order (stamps stay sorted on replay).  Tombstoned rows are
/// persisted too, so the delta structure *and* the retraction bookkeeping
/// survive the round trip bit-for-bit.
pub(crate) fn encode_database(buf: &mut Vec<u8>, dict: &mut DictWriter, db: &Database) {
    put_u64(buf, db.epoch());
    put_u32(buf, db.relation_count() as u32);
    for relation in db.relations() {
        encode_schema(buf, dict, relation.schema());
        put_u32(buf, relation.total_rows() as u32);
        let stamps = relation.stamps();
        for row in 0..relation.total_rows() as u32 {
            put_u64(buf, stamps[row as usize]);
            put_u8(buf, relation.is_live(row) as u8);
            encode_tuple(buf, dict, &relation.row_tuple(row));
        }
    }
}

/// The inverse of [`encode_database`]: rows are replayed with their original
/// stamps and liveness, and the serialized epoch is restored
/// exactly (it may sit above every stamp).
pub(crate) fn decode_database(cursor: &mut Cursor<'_>, dict: &DictReader) -> Result<Database> {
    let epoch = cursor.take_u64()?;
    let relation_count = cursor.take_u32()? as usize;
    let mut db = Database::new();
    for _ in 0..relation_count {
        let schema = decode_schema(cursor, dict)?;
        let rows = cursor.take_u32()? as usize;
        let name = schema.name().to_string();
        let mut relation = RelationInstance::new(schema);
        for row in 0..rows {
            let stamp = cursor.take_u64()?;
            let live = match cursor.take_u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(cursor.corrupt(format!("unknown liveness byte {other}")));
                }
            };
            let tuple = decode_tuple(cursor, dict)?;
            // Physical rows are pairwise distinct among the *live* subset,
            // and a dead row is tombstoned immediately after its append —
            // which drops it from the dedup map — so every append lands in
            // a fresh slot and the arena layout is reproduced exactly.
            if !relation.insert_stamped(tuple, stamp)? {
                return Err(
                    cursor.corrupt(format!("duplicate physical row {row} in relation '{name}'"))
                );
            }
            if !live {
                relation.delete_row(row as u32);
            }
        }
        db.insert_relation(relation);
    }
    db.raise_epoch(epoch);
    Ok(db)
}

/// Serialize a watermark vector (`None` = never evaluated).
pub(crate) fn encode_floors(buf: &mut Vec<u8>, floors: &[Option<u64>]) {
    put_u32(buf, floors.len() as u32);
    for floor in floors {
        match floor {
            Some(epoch) => {
                put_u8(buf, 1);
                put_u64(buf, *epoch);
            }
            None => put_u8(buf, 0),
        }
    }
}

pub(crate) fn decode_floors(cursor: &mut Cursor<'_>) -> Result<Vec<Option<u64>>> {
    let len = cursor.take_u32()? as usize;
    let mut floors = Vec::with_capacity(len);
    for _ in 0..len {
        floors.push(match cursor.take_u8()? {
            0 => None,
            1 => Some(cursor.take_u64()?),
            other => return Err(cursor.corrupt(format!("unknown floor tag {other}"))),
        });
    }
    Ok(floors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn round_trip_db(db: &Database) -> Database {
        let path = PathBuf::from("test.bin");
        let mut dict = DictWriter::new();
        let mut buf = Vec::new();
        encode_database(&mut buf, &mut dict, db);
        let mut reader = DictReader::new();
        for (local, text) in dict.drain_new() {
            reader.define(local, text, &path).unwrap();
        }
        let mut cursor = Cursor::new(&buf, &path);
        let decoded = decode_database(&mut cursor, &reader).unwrap();
        assert!(cursor.is_empty());
        decoded
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn values_round_trip_through_the_dictionary() {
        let path = PathBuf::from("test.bin");
        let values = vec![
            Value::str("Tom Waits"),
            Value::str("Tom Waits"), // repeated: one dictionary entry
            Value::int(-42),
            Value::double(38.2),
            Value::bool(true),
            Value::parse_time("Sep/5-12:10").unwrap(),
            Value::null(NullId(7)),
        ];
        let mut dict = DictWriter::new();
        let mut buf = Vec::new();
        for v in &values {
            encode_value(&mut buf, &mut dict, v);
        }
        let defs = dict.drain_new();
        assert_eq!(defs.len(), 1, "repeated strings share one entry");
        let mut reader = DictReader::new();
        for (local, text) in defs {
            reader.define(local, text, &path).unwrap();
        }
        let mut cursor = Cursor::new(&buf, &path);
        for v in &values {
            assert_eq!(&decode_value(&mut cursor, &reader).unwrap(), v);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn databases_round_trip_with_stamps_and_epoch() {
        let mut db = Database::new();
        db.insert_values("PatientWard", ["W1", "Sep/5", "Tom Waits"])
            .unwrap();
        db.advance_epoch();
        db.insert_values("PatientWard", ["W2", "Sep/6", "Lou Reed"])
            .unwrap();
        db.insert(
            "Shifts",
            Tuple::new(vec![Value::str("W1"), Value::null(NullId(3))]),
        )
        .unwrap();
        db.advance_epoch(); // epoch strictly above every stamp
        let decoded = round_trip_db(&db);
        assert_eq!(decoded.epoch(), db.epoch());
        assert_eq!(decoded.relation_names(), db.relation_names());
        for relation in db.relations() {
            let got = decoded.relation(relation.name()).unwrap();
            assert_eq!(got.tuples(), relation.tuples());
            assert_eq!(got.stamps(), relation.stamps());
            assert_eq!(got.schema(), relation.schema());
        }
    }

    #[test]
    fn databases_round_trip_tombstones_and_support_counts() {
        let mut db = Database::new();
        db.insert_values("E", ["a", "b"]).unwrap();
        db.advance_epoch();
        db.insert_values("E", ["b", "c"]).unwrap();
        db.insert_values("E", ["c", "d"]).unwrap();
        db.advance_epoch();
        // Tombstone one row, and delete-then-reinsert another so the arena
        // holds a dead row before a live duplicate.
        let e = db.relation_mut("E").unwrap();
        e.delete(&Tuple::from_iter(["b", "c"]));
        e.delete(&Tuple::from_iter(["c", "d"]));
        e.insert(Tuple::from_iter(["c", "d"])).unwrap();
        assert_eq!(e.total_rows(), 4);
        assert_eq!(e.dead_rows(), 2);

        let decoded = round_trip_db(&db);
        assert_eq!(decoded.epoch(), db.epoch());
        let got = decoded.relation("E").unwrap();
        let want = db.relation("E").unwrap();
        assert_eq!(got.total_rows(), want.total_rows());
        assert_eq!(got.dead_rows(), want.dead_rows());
        assert_eq!(got.stamps(), want.stamps());
        for row in 0..want.total_rows() as u32 {
            assert_eq!(got.is_live(row), want.is_live(row), "row {row}");
            assert_eq!(got.row_tuple(row), want.row_tuple(row), "row {row}");
        }
        assert_eq!(got.tuples(), want.tuples());
    }

    #[test]
    fn truncated_payloads_are_corruption_not_panics() {
        let path = PathBuf::from("test.bin");
        let mut dict = DictWriter::new();
        let mut buf = Vec::new();
        encode_tuple(&mut buf, &mut dict, &Tuple::from_iter(["a", "b"]));
        let mut reader = DictReader::new();
        for (local, text) in dict.drain_new() {
            reader.define(local, text, &path).unwrap();
        }
        for cut in 0..buf.len() {
            let mut cursor = Cursor::new(&buf[..cut], &path);
            assert!(decode_tuple(&mut cursor, &reader).is_err());
        }
        // Undefined symbol ids are corruption too.
        let empty = DictReader::new();
        let mut cursor = Cursor::new(&buf, &path);
        assert!(decode_tuple(&mut cursor, &empty).is_err());
    }

    #[test]
    fn floors_round_trip() {
        let path = PathBuf::from("test.bin");
        let floors = vec![None, Some(0), Some(17), None];
        let mut buf = Vec::new();
        encode_floors(&mut buf, &floors);
        let mut cursor = Cursor::new(&buf, &path);
        assert_eq!(decode_floors(&mut cursor).unwrap(), floors);
        assert!(cursor.is_empty());
    }
}
