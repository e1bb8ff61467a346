//! Context snapshots: the durable image of one registered context.
//!
//! A snapshot file (`snap/<context>.snap`) captures everything a restart
//! needs to resume *incrementally* instead of re-chasing from scratch:
//!
//! * the instance under assessment `D` (all applied batches folded in),
//! * the chased contextual instance — the working database of the
//!   resumable [`ChaseState`], with every row's insert stamp and the
//!   database epoch, so the delta structure survives,
//! * the **per-rule epoch watermarks** (TGD floors) and the
//!   next-labeled-null counter of the [`ChaseState`],
//! * the per-context version (number of applied batches), which tells
//!   recovery which WAL records are already included (replay resumes at
//!   `seq > version`).
//!
//! Files use the same framing and local-dictionary codec as WAL segments
//! (magic `ODQSNP4\n`, symbol-definition records, then one snapshot
//! record), and are written to a temporary sibling, fsynced, and renamed
//! into place — a crash mid-save leaves the previous snapshot intact.
//! Format version 4 persists physical arena rows (stamp, liveness, tuple)
//! so tombstones survive restarts, and carries no EGD watermarks (EGDs are
//! checked, never applied, so they have no floors).  A file of any other
//! version is
//! reported as [`StoreError::Corrupt`], and [`crate::Store::recover`]
//! propagates that error: recovery refuses the data directory rather than
//! fall back to the WAL, which [`crate::Store::compact`] may already have
//! emptied on the strength of that snapshot.

use crate::codec::{
    decode_database, decode_floors, encode_database, encode_floors, put_u32, put_u64, Cursor,
    DictReader, DictWriter,
};
use crate::error::{Result, StoreError};
use crate::io::{
    guarded_fsync, guarded_rename, guarded_sync_dir, guarded_write, IoOp, SharedIoPolicy,
};
use crate::wal::{frame, parse_frame, REC_SYMDEF};
use ontodq_chase::ChaseState;
use ontodq_relational::Database;
use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
const SNAPSHOT_MAGIC: &[u8; 8] = b"ODQSNP4\n";

/// Record type: the snapshot body (exactly one per file, after its symbol
/// definitions).
const REC_SNAPSHOT: u8 = 3;

/// A borrowed view of one context's durable state — what
/// [`crate::Store::save_snapshot`] serializes.  Borrowing matters: the
/// server captures snapshots while holding **every** writer lock, so the
/// encode path must not force a deep clone of each instance and chase
/// state first.
#[derive(Debug, Clone, Copy)]
pub struct ContextImage<'a> {
    /// Context name (the registration key).
    pub name: &'a str,
    /// Number of update batches folded in; WAL replay resumes at
    /// `seq > version`.
    pub version: u64,
    /// Fingerprint of the compiled rule set the chase state's positional
    /// watermarks belong to (`ResumableAssessment::program_fingerprint` on
    /// the server side); restore refuses a state whose program changed.
    pub program_fingerprint: u64,
    /// The instance under assessment `D`.
    pub instance: &'a Database,
    /// The resumable chase state (chased contextual instance + watermarks +
    /// null counter).
    pub state: &'a ChaseState,
}

/// The owned counterpart of [`ContextImage`], as read back on recovery.
#[derive(Debug, Clone)]
pub struct PersistedContext {
    /// Context name (the registration key).
    pub(crate) name: String,
    /// Number of update batches folded in when the snapshot was taken.
    pub version: u64,
    /// Rule-set fingerprint captured at save time.
    pub program_fingerprint: u64,
    /// The instance under assessment `D`.
    pub instance: Database,
    /// The resumable chase state.
    pub state: ChaseState,
}

/// Write `snapshot` to `path` atomically (temp file + fsync + rename),
/// with every durability edge guarded by `policy`.
pub(crate) fn save_snapshot(
    path: &Path,
    snapshot: &ContextImage<'_>,
    policy: &SharedIoPolicy,
) -> Result<()> {
    let mut dict = DictWriter::new();
    let mut body = vec![REC_SNAPSHOT];
    put_u32(&mut body, dict.local_str(snapshot.name));
    put_u64(&mut body, snapshot.version);
    put_u64(&mut body, snapshot.program_fingerprint);
    encode_database(&mut body, &mut dict, snapshot.instance);
    encode_database(&mut body, &mut dict, snapshot.state.database());
    encode_floors(&mut body, snapshot.state.tgd_floors());
    put_u64(&mut body, snapshot.state.next_null());

    let mut bytes = SNAPSHOT_MAGIC.to_vec();
    for (local, text) in dict.drain_new() {
        let mut def = vec![REC_SYMDEF];
        put_u32(&mut def, local);
        put_u32(&mut def, text.len() as u32);
        def.extend_from_slice(text.as_bytes());
        frame(&mut bytes, &def)?;
    }
    frame(&mut bytes, &body)?;

    let tmp = path.with_extension("snap.tmp");
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut file = File::create(&tmp)?;
    guarded_write(policy, IoOp::SnapshotWrite, &mut file, &bytes)?;
    guarded_fsync(policy, IoOp::SnapshotFsync, &file)?;
    drop(file);
    // A failure up to and including the rename leaves the previous
    // snapshot untouched — the temp file is garbage a later save
    // overwrites — so snapshot faults never lose committed state, only
    // the checkpoint attempt.
    guarded_rename(policy, IoOp::SnapshotRename, &tmp, path)?;
    // Persist the rename itself: the WAL is compacted right after a
    // checkpoint on the strength of this snapshot, so the directory entry
    // must be durable before the segment unlinks can be.
    if let Some(parent) = path.parent() {
        guarded_sync_dir(policy, parent)?;
    }
    Ok(())
}

/// Load the snapshot at `path`.
pub(crate) fn load_snapshot(path: &Path) -> Result<PersistedContext> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(StoreError::corrupt(path, "bad snapshot magic"));
    }
    let mut dict = DictReader::new();
    let mut offset = SNAPSHOT_MAGIC.len();
    loop {
        let remaining = &bytes[offset..];
        if remaining.is_empty() {
            return Err(StoreError::corrupt(path, "snapshot record missing"));
        }
        let framed = parse_frame(remaining)
            .ok_or_else(|| StoreError::corrupt(path, format!("invalid record at byte {offset}")))?;
        let mut cursor = Cursor::new(framed.payload, path);
        match cursor.take_u8()? {
            REC_SYMDEF => {
                let local = cursor.take_u32()?;
                let len = cursor.take_u32()? as usize;
                let text = cursor.take_str(len)?;
                dict.define(local, text, path)?;
            }
            REC_SNAPSHOT => {
                let name = dict.resolve(cursor.take_u32()?, path)?.as_str().to_string();
                let version = cursor.take_u64()?;
                let program_fingerprint = cursor.take_u64()?;
                let instance = decode_database(&mut cursor, &dict)?;
                let contextual = decode_database(&mut cursor, &dict)?;
                let tgd_floors = decode_floors(&mut cursor)?;
                let next_null = cursor.take_u64()?;
                if !cursor.is_empty() {
                    return Err(StoreError::corrupt(path, "trailing bytes after snapshot"));
                }
                return Ok(PersistedContext {
                    name,
                    version,
                    program_fingerprint,
                    instance,
                    state: ChaseState::from_parts(contextual, tgd_floors, next_null),
                });
            }
            other => {
                return Err(StoreError::corrupt(
                    path,
                    format!("unexpected record type {other} at byte {offset}"),
                ))
            }
        }
        offset += framed.total_len;
    }
}

/// The snapshot path of `context` inside the snapshot directory.
pub(crate) fn snapshot_path(dir: &Path, context: &str) -> PathBuf {
    // Context names come from the registration API and may contain
    // path-hostile characters; escape everything but a safe alphabet.
    // Fixed six hex digits per escape (code points reach U+10FFFF), so the
    // mapping is prefix-free and two distinct names can never collide.
    let mut name = String::with_capacity(context.len());
    for c in context.chars() {
        if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
            name.push(c);
        } else {
            name.push_str(&format!("%{:06x}", c as u32));
        }
    }
    dir.join(format!("{name}.snap"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontodq_chase::chase_incremental;
    use ontodq_datalog::parse_program;
    use ontodq_relational::Tuple;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontodq-snap-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshots_round_trip_chase_state_exactly() {
        let dir = temp_dir("roundtrip");
        let program =
            parse_program("Shifts(w, d, n, z) :- WorkingSchedules(u, d, n, t), UnitWard(u, w).\n")
                .unwrap();
        let mut db = Database::new();
        db.insert_values("UnitWard", ["Standard", "W1"]).unwrap();
        db.insert_values("WorkingSchedules", ["Standard", "Sep/5", "Anna", "cert"])
            .unwrap();
        let mut state = ChaseState::new(&program, &db);
        let _ = chase_incremental(&program, &mut state);
        state
            .insert_batch([(
                "WorkingSchedules".to_string(),
                Tuple::from_iter(["Standard", "Sep/6", "Mark", "cert"]),
            )])
            .unwrap();
        let _ = chase_incremental(&program, &mut state);

        let image = ContextImage {
            name: "unit/ward context",
            version: 5,
            program_fingerprint: 0xFEED_F00D,
            instance: &db,
            state: &state,
        };
        let path = snapshot_path(&dir, image.name);
        save_snapshot(&path, &image, &crate::io::passthrough_policy()).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.name, image.name);
        assert_eq!(loaded.version, 5);
        assert_eq!(loaded.program_fingerprint, 0xFEED_F00D);
        assert_eq!(loaded.state.next_null(), state.next_null());
        assert_eq!(loaded.state.tgd_floors(), state.tgd_floors());
        assert_eq!(loaded.state.database().epoch(), state.database().epoch());
        for relation in state.database().relations() {
            let got = loaded.state.database().relation(relation.name()).unwrap();
            assert_eq!(got.tuples(), relation.tuples());
            assert_eq!(got.stamps(), relation.stamps());
        }
        // A resumed chase from the loaded state is a no-op, exactly like the
        // live one.
        let mut resumed = loaded.state;
        let result = chase_incremental(&program, &mut resumed);
        assert_eq!(result.stats.tuples_added, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_save_leaves_the_previous_snapshot_intact() {
        let dir = temp_dir("atomic");
        let instance = Database::new();
        let state = ChaseState::from_parts(Database::new(), vec![], 0);
        let image = ContextImage {
            name: "ctx",
            version: 1,
            program_fingerprint: 0,
            instance: &instance,
            state: &state,
        };
        let path = snapshot_path(&dir, "ctx");
        save_snapshot(&path, &image, &crate::io::passthrough_policy()).unwrap();
        // Simulate a crash mid-save: a stale temp file must not shadow or
        // corrupt the committed snapshot.
        fs::write(path.with_extension("snap.tmp"), b"garbage").unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.version, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshots_are_detected() {
        let dir = temp_dir("corrupt");
        let instance = Database::new();
        let state = ChaseState::from_parts(Database::new(), vec![None], 3);
        let image = ContextImage {
            name: "ctx",
            version: 1,
            program_fingerprint: 0,
            instance: &instance,
            state: &state,
        };
        let path = snapshot_path(&dir, "ctx");
        save_snapshot(&path, &image, &crate::io::passthrough_policy()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(StoreError::Corrupt { .. })
        ));

        // A well-formed snapshot of the previous format version (it carried
        // EGD watermarks) is refused, by the loader and by recovery alike.
        let mut store = crate::Store::open(&dir, crate::StoreConfig::default()).unwrap();
        let path = snapshot_path(&dir.join("snap"), "ctx");
        save_snapshot(&path, &image, &crate::io::passthrough_policy()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[..SNAPSHOT_MAGIC.len()].copy_from_slice(b"ODQSNP3\n");
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(store.recover(), Err(StoreError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_paths_escape_hostile_names() {
        let dir = PathBuf::from("/data/snap");
        let path = snapshot_path(&dir, "../../etc/passwd");
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(!name.contains(".."));
        assert!(!name.contains('/'));
        assert!(path.starts_with(&dir));
        // Distinct names stay distinct after escaping — including the
        // supplementary-plane edge where a 5-hex-digit code point could
        // otherwise collide with a 4-digit one plus a literal digit.
        assert_ne!(snapshot_path(&dir, "a/b"), snapshot_path(&dir, "a%002fb"));
        assert_ne!(
            snapshot_path(&dir, "\u{10000}"),
            snapshot_path(&dir, "\u{1000}0")
        );
    }
}
