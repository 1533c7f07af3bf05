//! Checkpointed model/policy store: durable control-plane state.
//!
//! The decision *log* ([`crate::segment`]) makes exploration data crash-safe;
//! this module does the same for the learned state that interprets it — the
//! incumbent policy, registry version, RNG stream positions, joiner state,
//! and the conservation-ledger counters. A checkpoint is an opaque payload
//! (the serve crate encodes its own struct with the binary record codec,
//! [`crate::codec`]) wrapped in the same defensive framing the segments
//! use:
//!
//! ```text
//! blob := magic "HVCK" | version: u32 LE | seq: u64 LE
//!       | len: u32 LE | crc32(payload): u32 LE | payload
//! ```
//!
//! Promotion is atomic: a blob is staged in full, then published under its
//! sequence number in one step (rename on a directory store, map insert on
//! the in-memory store) — a reader never observes a half-published
//! checkpoint *except* through deliberate fault injection, which is exactly
//! what the validation path is for. [`load_latest_filtered`] walks checkpoints newest
//! to oldest and returns the first one that validates; everything newer is
//! counted discarded, never silently skipped. Retention keeps the last K
//! checkpoints ([`CheckpointWriter`]), pruning oldest-first.
//!
//! Determinism: framing adds no timestamps or randomness — a checkpoint's
//! bytes are a pure function of its payload and sequence number, so
//! same-seed runs publish byte-identical checkpoints.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::segment::crc32;

/// Magic prefix of every checkpoint blob.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"HVCK";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Fixed header size: magic + version + seq + len + crc.
pub const CHECKPOINT_HEADER_LEN: usize = 4 + 4 + 8 + 4 + 4;

/// Upper bound on a checkpoint payload; a length field above this is
/// treated as corruption rather than an allocation request.
pub const MAX_CHECKPOINT_LEN: usize = 1 << 28;

/// Why a checkpoint blob failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob is shorter than the fixed header.
    Truncated,
    /// The magic prefix is wrong — not a checkpoint at all.
    BadMagic,
    /// The format version is newer than this build understands.
    BadVersion(u32),
    /// The length field disagrees with the actual byte count.
    BadLength,
    /// The payload does not match its CRC32.
    BadChecksum,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadLength => write!(f, "checkpoint length mismatch"),
            CheckpointError::BadChecksum => write!(f, "checkpoint checksum mismatch"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Frames a payload into a complete checkpoint blob for sequence `seq`.
pub fn encode_checkpoint(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut blob = Vec::with_capacity(CHECKPOINT_HEADER_LEN + payload.len());
    blob.extend_from_slice(&CHECKPOINT_MAGIC);
    blob.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    blob.extend_from_slice(&seq.to_le_bytes());
    blob.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    blob.extend_from_slice(&crc32(payload).to_le_bytes());
    blob.extend_from_slice(payload);
    blob
}

/// Validates a checkpoint blob and returns `(seq, payload)`.
///
/// Every failure mode is a distinct [`CheckpointError`]: truncation (torn
/// write), wrong magic, unknown version, length mismatch, and checksum
/// mismatch (bit rot) are all detected — a damaged checkpoint can be
/// *counted*, never half-trusted.
pub fn decode_checkpoint(blob: &[u8]) -> Result<(u64, &[u8]), CheckpointError> {
    if blob.len() < CHECKPOINT_HEADER_LEN {
        return Err(CheckpointError::Truncated);
    }
    if blob[0..4] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(blob[4..8].try_into().unwrap());
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let seq = u64::from_le_bytes(blob[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(blob[16..20].try_into().unwrap()) as usize;
    if len > MAX_CHECKPOINT_LEN || blob.len() - CHECKPOINT_HEADER_LEN != len {
        return Err(CheckpointError::BadLength);
    }
    let crc = u32::from_le_bytes(blob[20..24].try_into().unwrap());
    let payload = &blob[CHECKPOINT_HEADER_LEN..];
    if crc32(payload) != crc {
        return Err(CheckpointError::BadChecksum);
    }
    Ok((seq, payload))
}

// ---------------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------------

/// Where checkpoint blobs live. `publish` must be atomic: after it returns,
/// a reader sees either the whole blob under `seq` or nothing — unless the
/// caller deliberately publishes damaged bytes (fault injection), in which
/// case validation catches it downstream.
pub trait CheckpointStore {
    /// Atomically publishes `bytes` as checkpoint `seq`, replacing any
    /// previous blob at that sequence.
    fn publish(&mut self, seq: u64, bytes: &[u8]) -> io::Result<()>;
    /// Sequence numbers of every stored checkpoint, ascending.
    fn list(&self) -> io::Result<Vec<u64>>;
    /// Reads the blob stored under `seq`.
    fn read(&self, seq: u64) -> io::Result<Vec<u8>>;
    /// Removes the blob stored under `seq` (idempotent).
    fn remove(&mut self, seq: u64) -> io::Result<()>;
}

/// A shared in-memory checkpoint store: the test/simulation stand-in for a
/// checkpoint directory. Cloning shares the underlying storage, so a
/// harness can damage checkpoints "at rest" while the service owns a
/// writer over the same store.
#[derive(Debug, Clone, Default)]
pub struct MemoryCheckpoints {
    inner: Arc<Mutex<BTreeMap<u64, Vec<u8>>>>,
}

impl MemoryCheckpoints {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, Vec<u8>>> {
        // Poison recovery: blobs are replaced whole, never edited in place,
        // so a panicked publisher leaves a consistent map.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fault injection: truncates checkpoint `seq` to `keep_frac` of its
    /// bytes (clamped to `[1, len - 1]`) — the at-rest image of a crash
    /// mid-write on a store without atomic rename. Returns `false` if the
    /// checkpoint does not exist or is too short to tear.
    pub fn tear(&self, seq: u64, keep_frac: f64) -> bool {
        let mut guard = self.lock();
        let Some(bytes) = guard.get_mut(&seq) else {
            return false;
        };
        if bytes.len() < 2 {
            return false;
        }
        let keep = ((bytes.len() as f64 - 1.0) * keep_frac.clamp(0.0, 1.0)) as usize;
        let keep = keep.clamp(1, bytes.len() - 1);
        bytes.truncate(keep);
        true
    }

    /// Fault injection: XORs one payload byte of checkpoint `seq` (bit rot;
    /// header left intact so the damage is a checksum failure, not a parse
    /// failure). Returns `false` if the checkpoint is missing, has no
    /// payload, or `xor == 0`.
    pub fn corrupt(&self, seq: u64, xor: u8) -> bool {
        if xor == 0 {
            return false;
        }
        let mut guard = self.lock();
        let Some(bytes) = guard.get_mut(&seq) else {
            return false;
        };
        if bytes.len() <= CHECKPOINT_HEADER_LEN {
            return false;
        }
        bytes[CHECKPOINT_HEADER_LEN] ^= xor;
        true
    }

    /// Raw bytes of checkpoint `seq`, if present (test introspection).
    pub fn raw(&self, seq: u64) -> Option<Vec<u8>> {
        self.lock().get(&seq).cloned()
    }
}

impl CheckpointStore for MemoryCheckpoints {
    fn publish(&mut self, seq: u64, bytes: &[u8]) -> io::Result<()> {
        self.lock().insert(seq, bytes.to_vec());
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        Ok(self.lock().keys().copied().collect())
    }

    fn read(&self, seq: u64) -> io::Result<Vec<u8>> {
        self.lock()
            .get(&seq)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("checkpoint {seq}")))
    }

    fn remove(&mut self, seq: u64) -> io::Result<()> {
        self.lock().remove(&seq);
        Ok(())
    }
}

/// A directory of checkpoint files: `ckpt-<seq>.ckpt`, published via the
/// classic stage-then-rename dance so a crash mid-publish leaves either the
/// previous checkpoint set or the new file, never a half-written `.ckpt`.
#[derive(Debug, Clone)]
pub struct DirCheckpoints {
    dir: PathBuf,
}

impl DirCheckpoints {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DirCheckpoints { dir })
    }

    fn path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:020}.ckpt"))
    }
}

impl CheckpointStore for DirCheckpoints {
    fn publish(&mut self, seq: u64, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("ckpt-{seq:020}.tmp"));
        fs::write(&tmp, bytes)?;
        // Atomic promotion: the blob becomes visible under its final name
        // in one rename, or not at all.
        fs::rename(&tmp, self.path(seq))
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".ckpt"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    fn read(&self, seq: u64) -> io::Result<Vec<u8>> {
        fs::read(self.path(seq))
    }

    fn remove(&mut self, seq: u64) -> io::Result<()> {
        match fs::remove_file(self.path(seq)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
}

// ---------------------------------------------------------------------------
// Writer + recovery
// ---------------------------------------------------------------------------

/// Publishes framed checkpoints with keep-last-K retention.
#[derive(Debug)]
pub struct CheckpointWriter<C> {
    store: C,
    keep_last: usize,
    next_seq: u64,
}

impl<C: CheckpointStore> CheckpointWriter<C> {
    /// Wraps a store, resuming the sequence counter past any checkpoint
    /// already present (so a restarted writer never overwrites history).
    ///
    /// `keep_last` is clamped to at least 1 — retention that keeps nothing
    /// would defeat the point of checkpointing.
    pub fn new(store: C, keep_last: usize) -> io::Result<Self> {
        let next_seq = store.list()?.last().map_or(0, |s| s + 1);
        Ok(CheckpointWriter {
            store,
            keep_last: keep_last.max(1),
            next_seq,
        })
    }

    /// Sequence number the next [`CheckpointWriter::write`] will publish.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Frames `payload`, publishes it under the next sequence number, and
    /// prunes retention. Returns the published sequence number.
    pub fn write(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.write_damaged(payload, |blob| blob)
    }

    /// Like [`CheckpointWriter::write`], but runs the framed blob through
    /// `damage` before publishing — the fault-injection entry point for
    /// torn and corrupted checkpoint writes. Production code has no
    /// business here.
    pub fn write_damaged(
        &mut self,
        payload: &[u8],
        damage: impl FnOnce(Vec<u8>) -> Vec<u8>,
    ) -> io::Result<u64> {
        let seq = self.next_seq;
        let blob = damage(encode_checkpoint(seq, payload));
        self.store.publish(seq, &blob)?;
        self.next_seq = seq + 1;
        // Retention: prune oldest-first down to the keep budget. A damaged
        // newest checkpoint still counts toward the budget — recovery falls
        // back within the kept window.
        let seqs = self.store.list()?;
        if seqs.len() > self.keep_last {
            for &old in &seqs[..seqs.len() - self.keep_last] {
                self.store.remove(old)?;
            }
        }
        Ok(seq)
    }

    /// Borrows the underlying store.
    pub fn store(&self) -> &C {
        &self.store
    }

    /// Returns the underlying store.
    pub fn into_store(self) -> C {
        self.store
    }
}

/// What [`load_latest_filtered`] found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointRecovery {
    /// Checkpoints examined, newest first.
    pub scanned: u64,
    /// Damaged checkpoints skipped on the way to a valid one. Counted,
    /// never silent: the caller is expected to surface this in metrics.
    pub discarded: u64,
    /// Sequence number of the checkpoint that validated, if any.
    pub loaded_seq: Option<u64>,
}

/// Loads the newest checkpoint that validates and that `parse` accepts,
/// walking backwards over the rest. Returns the parsed payload alongside
/// the accounting.
///
/// A checkpoint fails over to its predecessor on *any* validation error:
/// truncation, bad magic/version, length mismatch, or checksum mismatch —
/// plus an unreadable blob on a real filesystem. The caller's `parse` then
/// gets the first say on each structurally valid payload (newest first);
/// returning `None` counts the checkpoint discarded and continues to the
/// predecessor. This is how the serve crate folds payload decode failures
/// into the same never-silent fallback as checksum failures.
pub fn load_latest_filtered<C: CheckpointStore, T>(
    store: &C,
    mut parse: impl FnMut(u64, &[u8]) -> Option<T>,
) -> (Option<T>, CheckpointRecovery) {
    let mut rec = CheckpointRecovery::default();
    let seqs = store.list().unwrap_or_default();
    for &seq in seqs.iter().rev() {
        rec.scanned += 1;
        let parsed = store
            .read(seq)
            .ok()
            .and_then(|blob| decode_checkpoint(&blob).ok().map(|(s, p)| (s, p.to_vec())))
            .filter(|&(framed_seq, _)| framed_seq == seq)
            .and_then(|(_, payload)| parse(seq, &payload));
        match parsed {
            Some(value) => {
                rec.loaded_seq = Some(seq);
                return (Some(value), rec);
            }
            None => rec.discarded += 1,
        }
    }
    (None, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accept_all(_seq: u64, payload: &[u8]) -> Option<Vec<u8>> {
        Some(payload.to_vec())
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("{{\"model\":{i}}}").into_bytes()
    }

    #[test]
    fn encode_decode_round_trip() {
        let blob = encode_checkpoint(7, &payload(7));
        let (seq, body) = decode_checkpoint(&blob).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(body, payload(7).as_slice());
    }

    #[test]
    fn every_header_failure_is_distinct() {
        let blob = encode_checkpoint(1, &payload(1));
        assert_eq!(
            decode_checkpoint(&blob[..CHECKPOINT_HEADER_LEN - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_checkpoint(&bad), Err(CheckpointError::BadMagic));
        let mut bad = blob.clone();
        bad[4] = 0xEE;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(CheckpointError::BadVersion(_))
        ));
        let mut bad = blob.clone();
        bad.pop();
        assert_eq!(decode_checkpoint(&bad), Err(CheckpointError::BadLength));
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(decode_checkpoint(&bad), Err(CheckpointError::BadChecksum));
    }

    #[test]
    fn writer_publishes_and_prunes_keep_last_k() {
        let store = MemoryCheckpoints::new();
        let mut w = CheckpointWriter::new(store.clone(), 3).unwrap();
        for i in 0..6 {
            assert_eq!(w.write(&payload(i)).unwrap(), i);
        }
        assert_eq!(store.list().unwrap(), vec![3, 4, 5]);
        let (latest, rec) = load_latest_filtered(&store, accept_all);
        assert_eq!(latest.unwrap(), payload(5));
        assert_eq!(rec.loaded_seq, Some(5));
        assert_eq!(rec.discarded, 0);
    }

    #[test]
    fn writer_resumes_sequence_past_existing_checkpoints() {
        let store = MemoryCheckpoints::new();
        let mut w = CheckpointWriter::new(store.clone(), 4).unwrap();
        w.write(&payload(0)).unwrap();
        w.write(&payload(1)).unwrap();
        drop(w);
        let mut w2 = CheckpointWriter::new(store.clone(), 4).unwrap();
        assert_eq!(w2.next_seq(), 2);
        assert_eq!(w2.write(&payload(2)).unwrap(), 2);
    }

    #[test]
    fn torn_newest_falls_back_to_previous_valid() {
        let store = MemoryCheckpoints::new();
        let mut w = CheckpointWriter::new(store.clone(), 4).unwrap();
        w.write(&payload(0)).unwrap();
        w.write(&payload(1)).unwrap();
        w.write(&payload(2)).unwrap();
        assert!(store.tear(2, 0.5));
        let (latest, rec) = load_latest_filtered(&store, accept_all);
        assert_eq!(latest.unwrap(), payload(1));
        assert_eq!(rec.loaded_seq, Some(1));
        assert_eq!(rec.discarded, 1);
        assert_eq!(rec.scanned, 2);
    }

    #[test]
    fn corrupted_payload_is_detected_and_counted() {
        let store = MemoryCheckpoints::new();
        let mut w = CheckpointWriter::new(store.clone(), 4).unwrap();
        w.write(&payload(0)).unwrap();
        w.write(&payload(1)).unwrap();
        assert!(store.corrupt(1, 0x10));
        let (latest, rec) = load_latest_filtered(&store, accept_all);
        assert_eq!(latest.unwrap(), payload(0));
        assert_eq!(rec.discarded, 1);
    }

    #[test]
    fn all_checkpoints_damaged_loads_nothing_but_counts_everything() {
        let store = MemoryCheckpoints::new();
        let mut w = CheckpointWriter::new(store.clone(), 4).unwrap();
        w.write(&payload(0)).unwrap();
        w.write(&payload(1)).unwrap();
        assert!(store.tear(0, 0.3));
        assert!(store.corrupt(1, 0x01));
        let (latest, rec) = load_latest_filtered(&store, accept_all);
        assert!(latest.is_none());
        assert_eq!(rec.scanned, 2);
        assert_eq!(rec.discarded, 2);
        assert_eq!(rec.loaded_seq, None);
    }

    #[test]
    fn parse_filter_failures_keep_walking() {
        let store = MemoryCheckpoints::new();
        let mut w = CheckpointWriter::new(store.clone(), 4).unwrap();
        w.write(b"good").unwrap();
        w.write(b"bad").unwrap();
        let (latest, rec) = load_latest_filtered(&store, |_, p| {
            (p == b"good").then(|| String::from_utf8(p.to_vec()).unwrap())
        });
        assert_eq!(latest.unwrap(), "good");
        assert_eq!(rec.discarded, 1);
        assert_eq!(rec.loaded_seq, Some(0));
    }

    #[test]
    fn dir_store_round_trips_with_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("harvest-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = DirCheckpoints::open(&dir).unwrap();
        store
            .publish(0, &encode_checkpoint(0, &payload(0)))
            .unwrap();
        store
            .publish(1, &encode_checkpoint(1, &payload(1)))
            .unwrap();
        assert_eq!(store.list().unwrap(), vec![0, 1]);
        let (latest, rec) = load_latest_filtered(&store, accept_all);
        assert_eq!(latest.unwrap(), payload(1));
        assert_eq!(rec.loaded_seq, Some(1));
        store.remove(0).unwrap();
        store.remove(0).unwrap(); // idempotent
        assert_eq!(store.list().unwrap(), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn framed_seq_must_match_published_slot() {
        let store = {
            let mut s = MemoryCheckpoints::new();
            // A blob framed for seq 9 published under slot 3: replay
            // confusion, rejected.
            s.publish(3, &encode_checkpoint(9, &payload(9))).unwrap();
            s
        };
        let (latest, rec) = load_latest_filtered(&store, accept_all);
        assert!(latest.is_none());
        assert_eq!(rec.discarded, 1);
    }
}
