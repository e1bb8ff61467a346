//! The append-only write-ahead log.
//!
//! One record per applied update batch (`!flush`), framed as
//! `[u32 payload_len][u32 crc32(payload)][payload]` over the codec of
//! [`crate::codec`].  Batches referencing strings the current segment has
//! not defined yet are preceded by the owed symbol-definition records;
//! definitions and their batch are written as **one** `write` followed by
//! one `fsync`, so a batch is durable before it is acknowledged and a crash
//! can only tear the final group.
//!
//! Segments rotate at a size threshold ([`WalConfig::segment_bytes`]); each
//! segment starts with the magic `ODQWAL1\n` and a fresh local dictionary,
//! so any segment is decodable in isolation (portability across processes,
//! one re-intern per distinct string per segment).
//!
//! Recovery ([`Wal::replay`]) scans segments in id order.  A short header,
//! an over-long length, or a CRC mismatch **in the final segment** is a torn
//! tail: the file is truncated at the last valid record boundary and replay
//! stops — every fully committed batch before the tear survives.  The same
//! damage in a non-final segment cannot be a torn write (later segments were
//! created after it was sealed) and is reported as corruption instead.
//! After replay the tail segment is sealed: new appends go to a fresh
//! segment, so the writer never needs to reconstruct a partial dictionary.

use crate::codec::{crc32, put_u32, put_u64, Cursor, DictReader, DictWriter};
use crate::error::{Result, StoreError};
use crate::io::{
    guarded_fsync, guarded_sync_dir, guarded_truncate, guarded_write, IoOp, SharedIoPolicy,
};
use ontodq_relational::Tuple;
use std::fs::{self, File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Magic bytes opening every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"ODQWAL1\n";

/// Record type: one local symbol definition (`u32` local id, `u32` byte
/// length, UTF-8 bytes).
pub(crate) const REC_SYMDEF: u8 = 1;

/// Record type: one applied update batch.
pub(crate) const REC_BATCH: u8 = 2;

/// Record type: one applied retraction batch.  Same payload layout as
/// [`REC_BATCH`]; the facts are the **expanded** concrete deletions (never
/// unexpanded conditional-delete rules), so replay is deterministic no
/// matter what state the database reaches in between.
///
/// (`3` is taken by the snapshot record of [`crate::snapshot`] — the two
/// files share one framing, so tags stay globally unique.)
pub(crate) const REC_RETRACT: u8 = 4;

/// Bytes of framing per record (length + CRC).
const FRAME_BYTES: u64 = 8;

/// Write-ahead-log tuning.
#[derive(Debug, Clone)]
pub(crate) struct WalConfig {
    /// Rotate to a new segment once the current one exceeds this many bytes.
    pub(crate) segment_bytes: u64,
    /// How many times a *transient* append failure (`Interrupted`,
    /// `WouldBlock`, `TimedOut`) is retried — after healing the segment
    /// back to its last good boundary — before the log is poisoned.
    pub(crate) append_retries: u32,
    /// Base back-off between append retries (multiplied by the attempt
    /// number).
    pub(crate) retry_backoff: Duration,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 * 1024 * 1024,
            append_retries: 2,
            retry_backoff: Duration::from_millis(1),
        }
    }
}

/// Durability counters surfaced through the server's `!stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Number of segment files on disk (sealed + active).
    pub segments: u64,
    /// Total bytes across all segment files.
    pub bytes: u64,
    /// Batches appended through this handle since it was opened.
    pub batches_appended: u64,
    /// Transient append failures healed by retrying into a fresh segment.
    pub(crate) append_retries: u64,
}

/// Whether a replayed batch inserted or retracted its facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// An update batch: the facts were inserted.
    Insert,
    /// A retraction batch: the facts were deleted (delete-and-rederive).
    Retract,
}

/// One batch decoded from the log during replay.
#[derive(Debug, Clone)]
pub struct ReplayedBatch {
    /// The context the batch was applied to.
    pub(crate) context: String,
    /// The snapshot version the batch produced (per-context, monotone).
    pub seq: u64,
    /// Whether the facts were inserted or retracted.
    pub kind: BatchKind,
    /// The facts of the batch, in application order.
    pub facts: Vec<(String, Tuple)>,
}

/// What [`Wal::replay`] saw.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReplayReport {
    /// Batches handed to the visitor.
    pub(crate) batches: usize,
    /// Whether a torn tail record was detected and truncated away.
    pub(crate) truncated_tail: bool,
}

/// The active segment being appended to.
struct OpenSegment {
    path: PathBuf,
    file: File,
    len: u64,
    dict: DictWriter,
}

/// An append-only, CRC-checked, segment-rotated write-ahead log.
pub(crate) struct Wal {
    dir: PathBuf,
    config: WalConfig,
    policy: SharedIoPolicy,
    current: Option<OpenSegment>,
    next_segment_id: u64,
    sealed_segments: u64,
    sealed_bytes: u64,
    batches_appended: u64,
    append_retries: u64,
    /// Set (to the failure reason) by a failed append; while set, further
    /// appends fail fast — see [`Wal::append_batch`].  Cleared by
    /// [`Wal::compact`], whose snapshots supersede the damaged log.
    poisoned: Option<String>,
    /// Time source for the latency histograms below (monotonic unless a
    /// caller injected a virtual clock — see [`Wal::set_clock`]).
    clock: ontodq_obs::SharedClock,
    /// Latency of each append group's `write(2)`, µs.
    write_histogram: Arc<ontodq_obs::Histogram>,
    /// Latency of each append group's fsync, µs.
    fsync_histogram: Arc<ontodq_obs::Histogram>,
}

/// What [`Wal::try_append`] did.  `Err` from `try_append` always means
/// *nothing of this group is durably committed*; a failure after the
/// group's own fsync succeeded is reported here instead, so the retry
/// loop can never duplicate a committed record.
enum AppendOutcome {
    /// The group is durable and the segment is in a clean state.
    Committed,
    /// The group is durable but the rotation seal that followed failed.
    CommittedSealFailed(StoreError),
}

impl Wal {
    /// Open (creating if needed) the log directory under `policy` (the
    /// production passthrough or a fault-injection schedule, see
    /// [`crate::io`]).  Existing segments are left untouched until
    /// [`Wal::replay`]; new appends go to a fresh segment numbered after the
    /// newest existing one.
    pub(crate) fn open_with_policy(
        dir: impl Into<PathBuf>,
        config: WalConfig,
        policy: SharedIoPolicy,
    ) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segments = Self::segment_paths(&dir)?;
        let next_segment_id = segments.last().map(|(id, _)| id + 1).unwrap_or(0);
        let mut sealed_bytes = 0;
        for (_, path) in &segments {
            sealed_bytes += fs::metadata(path)?.len();
        }
        Ok(Self {
            dir,
            config,
            policy,
            current: None,
            next_segment_id,
            sealed_segments: segments.len() as u64,
            sealed_bytes,
            batches_appended: 0,
            append_retries: 0,
            poisoned: None,
            clock: ontodq_obs::monotonic(),
            write_histogram: Arc::new(ontodq_obs::Histogram::latency()),
            fsync_histogram: Arc::new(ontodq_obs::Histogram::latency()),
        })
    }

    /// Replace the histogram time source (deterministic tests inject a
    /// virtual clock).
    pub(crate) fn set_clock(&mut self, clock: ontodq_obs::SharedClock) {
        self.clock = clock;
    }

    /// The `write(2)` latency histogram (shared handle, adoptable into an
    /// [`ontodq_obs::Registry`]).
    pub(crate) fn write_histogram(&self) -> Arc<ontodq_obs::Histogram> {
        Arc::clone(&self.write_histogram)
    }

    /// The fsync latency histogram (shared handle).
    pub(crate) fn fsync_histogram(&self) -> Arc<ontodq_obs::Histogram> {
        Arc::clone(&self.fsync_histogram)
    }

    /// The segment files of `dir`, sorted by segment id.
    fn segment_paths(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
        let mut segments = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(id) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                segments.push((id, path));
            }
        }
        segments.sort();
        Ok(segments)
    }

    /// Durability counters.
    pub(crate) fn stats(&self) -> WalStats {
        let (active_segments, active_bytes) = match &self.current {
            Some(segment) => (1, segment.len),
            None => (0, 0),
        };
        WalStats {
            segments: self.sealed_segments + active_segments,
            bytes: self.sealed_bytes + active_bytes,
            batches_appended: self.batches_appended,
            append_retries: self.append_retries,
        }
    }

    /// Append one applied batch and fsync it.  Returns only after the bytes
    /// are durable.
    ///
    /// **Any** failed append — segment creation, framing, write, fsync —
    /// poisons the log for writes: the active segment (if any) is abandoned
    /// and every further append fails fast until [`Wal::compact`] wipes the
    /// log after a fresh round of snapshots.  The caller applies batches in
    /// memory before logging them, so a batch whose append failed is
    /// missing from the log no matter *why* the append failed; appending
    /// later batches around it would either bury a torn record mid-segment
    /// — recovery truncates at the first bad frame, silently discarding
    /// everything acknowledged after it — or punch a hole in the
    /// per-context sequence that bricks recovery.  Failing fast keeps the
    /// on-disk sequence an exact committed prefix.
    pub(crate) fn append_batch(
        &mut self,
        context: &str,
        seq: u64,
        facts: &[(String, Tuple)],
    ) -> Result<()> {
        self.append_record(REC_BATCH, context, seq, facts)
    }

    /// Append one applied retraction batch and fsync it; `facts` are the
    /// expanded concrete deletions.  Same durability and poisoning contract
    /// as [`Wal::append_batch`] — insertions and retractions share one
    /// per-context sequence, so replay interleaves them exactly as applied.
    pub(crate) fn append_retraction(
        &mut self,
        context: &str,
        seq: u64,
        facts: &[(String, Tuple)],
    ) -> Result<()> {
        self.append_record(REC_RETRACT, context, seq, facts)
    }

    fn append_record(
        &mut self,
        tag: u8,
        context: &str,
        seq: u64,
        facts: &[(String, Tuple)],
    ) -> Result<()> {
        if let Some(reason) = &self.poisoned {
            return Err(StoreError::Data(format!(
                "wal disabled by an earlier append failure ({reason}); \
                 checkpoint (!save) to restore durability"
            )));
        }
        let mut attempt: u32 = 0;
        loop {
            match self.try_append(tag, context, seq, facts) {
                Ok(AppendOutcome::Committed) => return Ok(()),
                Ok(AppendOutcome::CommittedSealFailed(e)) => {
                    // The group is durable (its own fsync succeeded); only
                    // the redundant rotation seal failed.  Retrying would
                    // duplicate a committed record — a seq the recovery
                    // gap check rejects — so poison instead and surface
                    // the error: the caller treats durability of *later*
                    // writes as suspect until a checkpoint.
                    self.poisoned = Some(e.to_string());
                    return Err(e);
                }
                Err(e) if e.is_simulated_crash() => {
                    // The process is "dead": no healing (a crashed process
                    // heals nothing), no retry.  Whatever torn prefix hit
                    // the disk is exactly what recovery must truncate.
                    self.abandon_current();
                    self.poisoned = Some(e.to_string());
                    return Err(e);
                }
                Err(e) => {
                    // Nothing of the group is committed.  Heal the segment
                    // back to its last good record boundary and seal it;
                    // a transient failure is then safe to retry into a
                    // fresh segment (never around the tear — burying a
                    // torn record mid-segment would make recovery truncate
                    // away batches acknowledged after it).
                    let healed = self.heal_after_failed_append();
                    if healed && e.is_transient() && attempt < self.config.append_retries {
                        attempt += 1;
                        self.append_retries += 1;
                        std::thread::sleep(self.config.retry_backoff * attempt);
                        continue;
                    }
                    self.abandon_current();
                    self.poisoned = Some(e.to_string());
                    return Err(e);
                }
            }
        }
    }

    /// After a failed, non-crash append: truncate the active segment back
    /// to its last known-good record boundary (`OpenSegment::len` only
    /// advances after a successful write + fsync, so it *is* that
    /// boundary), fsync the truncation, and seal the segment so a retry
    /// starts a fresh one.  Returns `false` — leaving the caller to
    /// poison the log — if the heal itself fails; the torn bytes then sit
    /// in what is now the final segment, where recovery truncates them.
    fn heal_after_failed_append(&mut self) -> bool {
        let Some(segment) = self.current.take() else {
            // The failure was in segment creation: nothing on disk to heal.
            return true;
        };
        let healed = guarded_truncate(&self.policy, IoOp::WalTruncate, &segment.file, segment.len)
            .and_then(|()| guarded_fsync(&self.policy, IoOp::WalSeal, &segment.file));
        self.sealed_segments += 1;
        self.sealed_bytes += segment.len;
        healed.is_ok()
    }

    /// Close the active segment without healing (crash / give-up paths);
    /// counters fold in whatever the file actually holds.
    fn abandon_current(&mut self) {
        if let Some(abandoned) = self.current.take() {
            self.sealed_segments += 1;
            self.sealed_bytes += fs::metadata(&abandoned.path)
                .map(|m| m.len())
                .unwrap_or(abandoned.len);
        }
    }

    /// One append attempt.  `Err` always means nothing of the group is
    /// durably committed; a post-commit failure (rotation seal) comes back
    /// as [`AppendOutcome::CommittedSealFailed`] so the caller never
    /// retries a committed record.
    fn try_append(
        &mut self,
        tag: u8,
        context: &str,
        seq: u64,
        facts: &[(String, Tuple)],
    ) -> Result<AppendOutcome> {
        if self.current.is_none() {
            self.current = Some(self.create_segment()?);
        }
        let segment = self.current.as_mut().expect("segment opened above");

        // Encode the batch first so the dictionary learns which strings it
        // references; the owed definitions are framed *before* the batch in
        // the same write group.
        let mut batch = vec![tag];
        put_u32(&mut batch, segment.dict.local_str(context));
        put_u64(&mut batch, seq);
        put_u32(&mut batch, facts.len() as u32);
        for (predicate, tuple) in facts {
            put_u32(&mut batch, segment.dict.local_str(predicate));
            crate::codec::encode_tuple(&mut batch, &mut segment.dict, tuple);
        }

        let mut batch_frame = Vec::new();
        frame(&mut batch_frame, &batch)?;
        let mut group = Vec::new();
        for (local, text) in segment.dict.drain_new() {
            let mut def = vec![REC_SYMDEF];
            put_u32(&mut def, local);
            put_u32(&mut def, text.len() as u32);
            def.extend_from_slice(text.as_bytes());
            frame(&mut group, &def)?;
        }
        group.extend_from_slice(&batch_frame);

        let write_start = self.clock.now_micros();
        guarded_write(&self.policy, IoOp::WalWrite, &mut segment.file, &group)?;
        let fsync_start = self.clock.now_micros();
        self.write_histogram
            .observe(fsync_start.saturating_sub(write_start));
        guarded_fsync(&self.policy, IoOp::WalFsync, &segment.file)?;
        self.fsync_histogram
            .observe(self.clock.now_micros().saturating_sub(fsync_start));
        segment.len += group.len() as u64;
        self.batches_appended += 1;

        if segment.len >= self.config.segment_bytes {
            if let Err(e) = self.seal_current() {
                return Ok(AppendOutcome::CommittedSealFailed(e));
            }
        }
        Ok(AppendOutcome::Committed)
    }

    /// Flush and fsync the active segment, if any.  Called on clean
    /// shutdown so the final group is never left to the OS page cache.
    pub(crate) fn sync(&mut self) -> Result<()> {
        if let Some(segment) = &mut self.current {
            segment.file.sync_data()?;
        }
        Ok(())
    }

    /// Replay every committed batch in segment order, handing each to
    /// `on_batch`.  Detects and truncates a torn tail (see module docs),
    /// then seals the tail segment so subsequent appends start fresh.
    pub(crate) fn replay(
        &mut self,
        mut on_batch: impl FnMut(ReplayedBatch),
    ) -> Result<ReplayReport> {
        let segments = Self::segment_paths(&self.dir)?;
        let mut report = ReplayReport::default();
        for (index, (_, path)) in segments.iter().enumerate() {
            let is_last = index + 1 == segments.len();
            let truncated = self.replay_segment(path, is_last, &mut on_batch, &mut report)?;
            report.truncated_tail |= truncated;
        }
        // Recompute counters from a fresh listing: truncation may have
        // shrunk the tail or removed an empty torn segment entirely.
        let remaining = Self::segment_paths(&self.dir)?;
        self.sealed_bytes = 0;
        for (_, path) in &remaining {
            self.sealed_bytes += fs::metadata(path)?.len();
        }
        self.sealed_segments = remaining.len() as u64;
        Ok(report)
    }

    /// Replay one segment; returns whether its tail was truncated.
    fn replay_segment(
        &self,
        path: &Path,
        is_last: bool,
        on_batch: &mut impl FnMut(ReplayedBatch),
        report: &mut ReplayReport,
    ) -> Result<bool> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            // A segment so torn even the magic is incomplete can only be the
            // last one (rotation writes the magic before advertising the
            // segment); anywhere else it is corruption.
            if is_last && bytes.len() < SEGMENT_MAGIC.len() {
                fs::remove_file(path)?;
                return Ok(true);
            }
            return Err(StoreError::corrupt(path, "bad segment magic"));
        }

        let mut dict = DictReader::new();
        let mut offset = SEGMENT_MAGIC.len();
        loop {
            let remaining = &bytes[offset..];
            if remaining.is_empty() {
                return Ok(false);
            }
            let framed = match parse_frame(remaining) {
                Some(framed) => framed,
                None => {
                    // Short header, over-long length, or CRC mismatch.
                    if is_last {
                        truncate_file(path, offset as u64)?;
                        return Ok(true);
                    }
                    return Err(StoreError::corrupt(
                        path,
                        format!("invalid record at byte {offset} of a sealed segment"),
                    ));
                }
            };
            // A CRC-valid record that fails to decode is not a torn write —
            // the bytes are the bytes that were written — so structural
            // decode errors are corruption even in the last segment.
            let mut cursor = Cursor::new(framed.payload, path);
            match cursor.take_u8()? {
                REC_SYMDEF => {
                    let local = cursor.take_u32()?;
                    let len = cursor.take_u32()? as usize;
                    let text = cursor.take_str(len)?;
                    dict.define(local, text, path)?;
                }
                tag @ (REC_BATCH | REC_RETRACT) => {
                    let context = dict.resolve(cursor.take_u32()?, path)?.as_str().to_string();
                    let seq = cursor.take_u64()?;
                    let count = cursor.take_u32()? as usize;
                    let mut facts = Vec::with_capacity(count);
                    for _ in 0..count {
                        let predicate =
                            dict.resolve(cursor.take_u32()?, path)?.as_str().to_string();
                        let tuple = crate::codec::decode_tuple(&mut cursor, &dict)?;
                        facts.push((predicate, tuple));
                    }
                    report.batches += 1;
                    on_batch(ReplayedBatch {
                        context,
                        seq,
                        kind: if tag == REC_BATCH {
                            BatchKind::Insert
                        } else {
                            BatchKind::Retract
                        },
                        facts,
                    });
                }
                other => {
                    return Err(StoreError::corrupt(
                        path,
                        format!("unknown record type {other} at byte {offset}"),
                    ))
                }
            }
            offset += framed.total_len;
        }
    }

    /// Delete **every** segment, sealed and active.  Only sound when every
    /// batch in the log is covered by a snapshot — the store enforces that
    /// by compacting only while it holds all writer locks, right after
    /// snapshotting every context.  Returns the number of files removed.
    pub(crate) fn compact(&mut self) -> Result<usize> {
        if let Some(segment) = self.current.take() {
            segment.file.sync_data()?;
        }
        let segments = Self::segment_paths(&self.dir)?;
        for (_, path) in &segments {
            fs::remove_file(path)?;
        }
        // Persist the unlinks.  Ordering with the snapshots that justified
        // this compaction is the caller's side: `save_snapshot` fsyncs the
        // snapshot directory after its rename, so by the time the unlinks
        // can hit the disk the covering snapshots already have.
        guarded_sync_dir(&self.policy, &self.dir)?;
        self.sealed_segments = 0;
        self.sealed_bytes = 0;
        // The snapshots that justified this compaction supersede whatever a
        // failed append left behind; the log is empty and trustworthy again.
        self.poisoned = None;
        Ok(segments.len())
    }

    /// Force the poisoned state, as a real append failure would — test
    /// hook for the failure semantics (real fsync errors are not
    /// injectable from safe code).
    #[cfg(test)]
    pub(crate) fn poison_for_test(&mut self, reason: &str) {
        if let Some(segment) = self.current.take() {
            self.sealed_segments += 1;
            self.sealed_bytes += segment.len;
        }
        self.poisoned = Some(reason.to_string());
    }

    fn create_segment(&mut self) -> Result<OpenSegment> {
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        let path = self.dir.join(format!("wal-{id:08}.log"));
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        let initialized = guarded_write(
            &self.policy,
            IoOp::WalSegmentCreate,
            &mut file,
            SEGMENT_MAGIC,
        )
        .and_then(|()| guarded_fsync(&self.policy, IoOp::WalSegmentCreate, &file))
        // Make the new directory entry itself durable: fsyncing the file
        // alone does not persist its name in the directory, and a power
        // loss could otherwise drop the whole segment — every acknowledged
        // batch in it — without any torn-tail signal at recovery.
        .and_then(|()| guarded_sync_dir(&self.policy, &self.dir));
        if let Err(e) = initialized {
            // A retried append would create the *next* segment id, turning
            // this torn-magic file into a non-final segment recovery rejects
            // as corrupt — unlink it while the process is still alive.  (A
            // simulated crash skips the cleanup, exactly like a real one:
            // the short file is then the final segment, which recovery
            // removes itself.)
            if !e.is_simulated_crash() {
                let _ = fs::remove_file(&path);
            }
            return Err(e);
        }
        Ok(OpenSegment {
            path,
            file,
            len: SEGMENT_MAGIC.len() as u64,
            dict: DictWriter::new(),
        })
    }

    fn seal_current(&mut self) -> Result<()> {
        if let Some(segment) = self.current.take() {
            // `len` tracks the file exactly (it only advances on committed
            // groups), so the counters never need a metadata round trip.
            let sealed = guarded_fsync(&self.policy, IoOp::WalSeal, &segment.file);
            self.sealed_segments += 1;
            self.sealed_bytes += segment.len;
            sealed?;
        }
        Ok(())
    }
}

/// Frame `payload` into `out`: length, CRC, bytes.  Fails (rather than
/// silently truncating the length field) on payloads beyond the `u32`
/// framing limit — a snapshot body is one record, so a colossal context
/// must be rejected at save time, not discovered as corruption at the next
/// recovery.
pub(crate) fn frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        StoreError::Data(format!(
            "record payload of {} bytes exceeds the 4 GiB framing limit",
            payload.len()
        ))
    })?;
    put_u32(out, len);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
    Ok(())
}

pub(crate) struct Framed<'a> {
    pub(crate) payload: &'a [u8],
    pub(crate) total_len: usize,
}

/// Parse one `[len][crc][payload]` frame off the front of `bytes`; `None`
/// when the frame is incomplete or fails its checksum (a torn write).
pub(crate) fn parse_frame(bytes: &[u8]) -> Option<Framed<'_>> {
    if bytes.len() < FRAME_BYTES as usize {
        return None;
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let payload = bytes.get(8..8 + len)?;
    if crc32(payload) != crc {
        return None;
    }
    Some(Framed {
        payload,
        total_len: FRAME_BYTES as usize + len,
    })
}

fn truncate_file(path: &Path, len: u64) -> Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FaultSchedule;
    use ontodq_relational::Value;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    impl Wal {
        /// Open (creating if needed) the log directory with the production
        /// passthrough I/O policy.
        fn open(dir: impl Into<PathBuf>, config: WalConfig) -> Result<Self> {
            Self::open_with_policy(dir, config, crate::io::passthrough_policy())
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontodq-wal-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fact(predicate: &str, values: &[&str]) -> (String, Tuple) {
        (
            predicate.to_string(),
            Tuple::from_iter(values.iter().copied()),
        )
    }

    fn collect_replay(wal: &mut Wal) -> (Vec<ReplayedBatch>, ReplayReport) {
        let mut batches = Vec::new();
        let report = wal.replay(|b| batches.push(b)).unwrap();
        (batches, report)
    }

    #[test]
    fn appended_batches_replay_in_order_across_reopen() {
        let dir = temp_dir("order");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append_batch("hospital", 1, &[fact("M", &["a", "b"])])
            .unwrap();
        wal.append_batch("hospital", 2, &[fact("M", &["c", "d"]), fact("N", &["e"])])
            .unwrap();
        wal.append_batch("scaled", 1, &[fact("M", &["f", "g"])])
            .unwrap();
        assert_eq!(wal.stats().batches_appended, 3);
        drop(wal);

        let mut reopened = Wal::open(&dir, WalConfig::default()).unwrap();
        let (batches, report) = collect_replay(&mut reopened);
        assert!(!report.truncated_tail);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].context, "hospital");
        assert_eq!(batches[0].seq, 1);
        assert_eq!(batches[1].facts.len(), 2);
        assert_eq!(batches[2].context, "scaled");
        assert_eq!(
            batches[1].facts[0].1,
            Tuple::new(vec![Value::str("c"), Value::str("d")])
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retraction_records_replay_interleaved_with_inserts() {
        let dir = temp_dir("retract");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append_batch("hospital", 1, &[fact("M", &["a", "b"])])
            .unwrap();
        wal.append_retraction("hospital", 2, &[fact("M", &["a", "b"])])
            .unwrap();
        wal.append_batch("hospital", 3, &[fact("M", &["c", "d"])])
            .unwrap();
        drop(wal);

        let mut reopened = Wal::open(&dir, WalConfig::default()).unwrap();
        let (batches, report) = collect_replay(&mut reopened);
        assert!(!report.truncated_tail);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].kind, BatchKind::Insert);
        assert_eq!(batches[1].kind, BatchKind::Retract);
        assert_eq!(batches[1].seq, 2);
        assert_eq!(batches[1].facts, vec![fact("M", &["a", "b"])]);
        assert_eq!(batches[2].kind, BatchKind::Insert);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tails_with_retraction_records_truncate_at_every_cut_point() {
        let dir = temp_dir("torn-retract");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append_batch("hospital", 1, &[fact("M", &["a", "b"])])
            .unwrap();
        wal.append_retraction("hospital", 2, &[fact("M", &["a", "b"])])
            .unwrap();
        wal.append_retraction("hospital", 3, &[fact("N", &["e"])])
            .unwrap();
        drop(wal);
        let (_, path) = Wal::segment_paths(&dir).unwrap().pop().unwrap();
        let full = fs::read(&path).unwrap();

        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
            let mut batches = Vec::new();
            wal.replay(|b| batches.push(b)).unwrap();
            // Always a clean prefix of the committed sequence, kinds intact.
            assert!(batches.len() <= 3, "phantom batch at cut {cut}");
            for (i, b) in batches.iter().enumerate() {
                assert_eq!(b.seq, i as u64 + 1, "cut {cut}");
                let want = if i == 0 {
                    BatchKind::Insert
                } else {
                    BatchKind::Retract
                };
                assert_eq!(b.kind, want, "cut {cut}");
            }
            // The truncation healed the file: a second recovery is clean.
            drop(wal);
            let mut again = Wal::open(&dir, WalConfig::default()).unwrap();
            let mut second = Vec::new();
            let report = again.replay(|b| second.push(b)).unwrap();
            assert!(!report.truncated_tail, "cut {cut} not healed");
            assert_eq!(second.len(), batches.len());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_at_the_size_threshold() {
        let dir = temp_dir("rotate");
        let mut wal = Wal::open(
            &dir,
            WalConfig {
                segment_bytes: 256,
                ..WalConfig::default()
            },
        )
        .unwrap();
        for seq in 1..=20u64 {
            wal.append_batch(
                "hospital",
                seq,
                &[fact("Measurements", &["some-ward", "some-patient"])],
            )
            .unwrap();
        }
        let stats = wal.stats();
        assert!(stats.segments > 1, "expected rotation, got {stats:?}");
        drop(wal);
        let mut reopened = Wal::open(&dir, WalConfig::default()).unwrap();
        let (batches, _) = collect_replay(&mut reopened);
        assert_eq!(batches.len(), 20);
        assert_eq!(batches.last().unwrap().seq, 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tails_are_truncated_at_every_cut_point() {
        let dir = temp_dir("torn");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append_batch("hospital", 1, &[fact("M", &["a", "b"])])
            .unwrap();
        wal.append_batch("hospital", 2, &[fact("M", &["c", "d"])])
            .unwrap();
        drop(wal);
        let (_, path) = Wal::segment_paths(&dir).unwrap().pop().unwrap();
        let full = fs::read(&path).unwrap();

        // Cutting anywhere strictly inside the file must recover a clean
        // prefix of the committed batches (never an error, never a phantom
        // batch).
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
            let mut batches = Vec::new();
            let report = wal.replay(|b| batches.push(b)).unwrap();
            assert!(
                batches.len() <= 2,
                "phantom batch at cut {cut}: {batches:?}"
            );
            for (i, b) in batches.iter().enumerate() {
                assert_eq!(b.seq, i as u64 + 1);
            }
            // Cuts at a record-group boundary leave a valid shorter log (no
            // tear to report); any other cut must be flagged and healed so
            // that a second recovery is clean either way.
            drop(wal);
            let mut again = Wal::open(&dir, WalConfig::default()).unwrap();
            let mut second = Vec::new();
            let second_report = again.replay(|b| second.push(b)).unwrap();
            assert!(!second_report.truncated_tail, "cut {cut} not healed");
            assert_eq!(second.len(), batches.len());
            let _ = report;
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_a_sealed_segment_is_an_error_not_a_truncation() {
        let dir = temp_dir("sealed");
        let mut wal = Wal::open(
            &dir,
            WalConfig {
                segment_bytes: 64,
                ..WalConfig::default()
            },
        )
        .unwrap();
        for seq in 1..=6u64 {
            wal.append_batch("hospital", seq, &[fact("M", &["x", "y"])])
                .unwrap();
        }
        drop(wal);
        let segments = Wal::segment_paths(&dir).unwrap();
        assert!(segments.len() >= 2);
        // Flip a byte in the FIRST segment's data area.
        let (_, first) = &segments[0];
        let mut bytes = fs::read(first).unwrap();
        let target = bytes.len() - 2;
        bytes[target] ^= 0xFF;
        fs::write(first, &bytes).unwrap();
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        let err = wal.replay(|_| {}).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "got {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// After an append failure the log refuses further appends (no gapped
    /// or buried-tear sequences) until compaction supersedes it; the
    /// surviving log replays as an exact committed prefix.
    #[test]
    fn a_poisoned_wal_fails_fast_until_compaction() {
        let dir = temp_dir("poison");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append_batch("hospital", 1, &[fact("M", &["a", "b"])])
            .unwrap();
        wal.poison_for_test("simulated fsync failure");
        let err = wal
            .append_batch("hospital", 2, &[fact("M", &["c", "d"])])
            .unwrap_err();
        assert!(err.to_string().contains("wal disabled"), "got {err}");
        // The committed prefix is still replayable.
        let (batches, _) = collect_replay(&mut Wal::open(&dir, WalConfig::default()).unwrap());
        assert_eq!(batches.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![1]);
        // Compaction (after fresh snapshots) heals the log for writes.
        wal.compact().unwrap();
        wal.append_batch("hospital", 3, &[fact("M", &["e", "f"])])
            .unwrap();
        let (batches, _) = collect_replay(&mut Wal::open(&dir, WalConfig::default()).unwrap());
        assert_eq!(batches.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A transient write/fsync failure is healed (segment truncated back
    /// to its last good boundary and sealed) and the whole group retried
    /// into a fresh segment — the append succeeds, nothing is duplicated,
    /// and the retry is visible in the stats.
    #[test]
    fn transient_append_failures_heal_by_retrying_into_a_fresh_segment() {
        let dir = temp_dir("transient");
        let schedule = Arc::new(Mutex::new(FaultSchedule::new()));
        schedule.lock().unwrap().transient_nth(IoOp::WalFsync, 1);
        let mut wal = Wal::open_with_policy(&dir, WalConfig::default(), schedule.clone()).unwrap();
        for seq in 1..=3u64 {
            wal.append_batch("hospital", seq, &[fact("M", &["a", &seq.to_string()])])
                .unwrap();
        }
        assert_eq!(wal.stats().append_retries, 1);
        assert!(wal.poisoned.is_none());
        // The healed segment plus the fresh one both replay; every batch
        // appears exactly once, in order.
        drop(wal);
        let (batches, report) = collect_replay(&mut Wal::open(&dir, WalConfig::default()).unwrap());
        assert!(!report.truncated_tail);
        assert_eq!(
            batches.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A permanent failure exhausts no retries, poisons the log, and the
    /// surviving log is exactly the acked prefix.
    #[test]
    fn permanent_append_failures_poison_and_keep_the_acked_prefix() {
        let dir = temp_dir("permanent");
        let schedule = Arc::new(Mutex::new(FaultSchedule::new()));
        schedule.lock().unwrap().fail_nth(IoOp::WalWrite, 1);
        let mut wal = Wal::open_with_policy(&dir, WalConfig::default(), schedule.clone()).unwrap();
        wal.append_batch("hospital", 1, &[fact("M", &["a", "1"])])
            .unwrap();
        let err = wal
            .append_batch("hospital", 2, &[fact("M", &["a", "2"])])
            .unwrap_err();
        assert!(!err.is_transient());
        assert!(wal.poisoned.is_some());
        let fast = wal
            .append_batch("hospital", 3, &[fact("M", &["a", "3"])])
            .unwrap_err();
        assert!(fast.to_string().contains("wal disabled"), "got {fast}");
        drop(wal);
        let (batches, _) = collect_replay(&mut Wal::open(&dir, WalConfig::default()).unwrap());
        assert_eq!(batches.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash mid-write leaves the torn prefix on disk (no healing — the
    /// process is "dead"); recovery truncates it and replays exactly the
    /// acked batches.
    #[test]
    fn a_crash_mid_write_leaves_a_torn_tail_recovery_truncates() {
        let dir = temp_dir("crash");
        let schedule = Arc::new(Mutex::new(FaultSchedule::new()));
        schedule.lock().unwrap().crash_nth(IoOp::WalWrite, 1, 5);
        let mut wal = Wal::open_with_policy(&dir, WalConfig::default(), schedule.clone()).unwrap();
        wal.append_batch("hospital", 1, &[fact("M", &["a", "1"])])
            .unwrap();
        let err = wal
            .append_batch("hospital", 2, &[fact("M", &["a", "2"])])
            .unwrap_err();
        assert!(err.is_simulated_crash(), "got {err}");
        drop(wal);
        // Recovery on a fresh instance: the 5 torn bytes are truncated
        // away and only the acked batch survives.
        let mut reopened = Wal::open(&dir, WalConfig::default()).unwrap();
        let (batches, report) = collect_replay(&mut reopened);
        assert!(report.truncated_tail);
        assert_eq!(batches.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_supersedes_all_segments() {
        let dir = temp_dir("compact");
        let mut wal = Wal::open(
            &dir,
            WalConfig {
                segment_bytes: 64,
                ..WalConfig::default()
            },
        )
        .unwrap();
        for seq in 1..=6u64 {
            wal.append_batch("hospital", seq, &[fact("M", &["x", "y"])])
                .unwrap();
        }
        let removed = wal.compact().unwrap();
        assert!(removed >= 2);
        assert_eq!(wal.stats().segments, 0);
        // The log is empty, and appending afterwards starts a fresh segment.
        wal.append_batch("hospital", 7, &[fact("M", &["z", "w"])])
            .unwrap();
        drop(wal);
        let mut reopened = Wal::open(&dir, WalConfig::default()).unwrap();
        let (batches, _) = collect_replay(&mut reopened);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].seq, 7);
        fs::remove_dir_all(&dir).unwrap();
    }
}
