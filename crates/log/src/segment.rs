//! Crash-safe log segments: checksummed, length-prefixed record frames.
//!
//! The records of [`crate::record`] are the *logical* format; this module
//! is the *durable* one. A decision log that tears mid-record under a
//! crash silently poisons every `⟨x, a, r, p⟩` triple scavenged from it, so
//! the serve loop writes records as framed segments:
//!
//! ```text
//! frame   := len: u32 LE | crc32(payload): u32 LE | payload
//! payload := one LogRecord in the binary layout of crate::codec
//! segment := frame*          (rotated by record count / byte size)
//! ```
//!
//! Recovery ([`scan_segment`], and [`recover_segment`] built on it) replays
//! the **longest valid prefix** of each segment — every frame up to the
//! first length/checksum/parse failure — and *quarantines* the damaged
//! tail: the remaining bytes are never parsed,
//! but every record frame still identifiable in them is counted, so the
//! accounting invariant `enqueued == written + dropped + quarantined` can be
//! checked end-to-end. Corruption is counted, never silently skipped.
//!
//! Determinism: framing adds no timestamps, padding, or randomness — the
//! segment bytes are a pure function of the record stream and the rotation
//! points, so same-seed runs of the serve loop produce byte-identical
//! segments and byte-identical recovered prefixes.

use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::codec::{self, RecordRef};
use crate::record::LogRecord;

/// Frame header size: 4-byte length + 4-byte CRC32.
pub const FRAME_HEADER_LEN: usize = 8;

/// Upper bound on a single frame payload; a length field above this is
/// treated as corruption rather than an allocation request.
pub const MAX_FRAME_LEN: usize = 1 << 24;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320), computed in-crate:
// the build environment vendors no checksum crate. Slice-by-8: eight
// 256-entry tables, generated at compile time, fold eight bytes per step.
// ---------------------------------------------------------------------------

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[s][i] is the CRC of byte i followed by s zero bytes.
    let mut i = 0;
    while i < 256 {
        let mut s = 1;
        while s < 8 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            s += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends a finished CRC32 over more bytes:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, so a checksum can span
/// non-contiguous buffers without copying them together.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut blocks = bytes.chunks_exact(8);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Serializes one record into a complete frame (header + payload).
pub fn encode_frame(record: &LogRecord) -> io::Result<Vec<u8>> {
    let mut frame = Vec::new();
    encode_frame_into(record, &mut frame)?;
    Ok(frame)
}

/// Appends one record's complete frame to `out`: the payload is encoded
/// in place behind a header patched afterwards. Fails, leaving `out` as it
/// was, when the payload exceeds [`MAX_FRAME_LEN`], since recovery would
/// reject such a frame.
fn encode_frame_into(record: &LogRecord, out: &mut Vec<u8>) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    codec::encode_record(record, out);
    let len = out.len() - start - FRAME_HEADER_LEN;
    if len > MAX_FRAME_LEN {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("record payload of {len} bytes exceeds the {MAX_FRAME_LEN} byte frame limit"),
        ));
    }
    let crc = crc32(&out[start + FRAME_HEADER_LEN..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Where segment bytes go. Implementations must make `append` atomic with
/// respect to concurrent readers of *other* segments; within one segment the
/// writer is the only appender.
pub trait SegmentSink {
    /// Appends raw bytes to the given segment, creating it if needed.
    fn append(&mut self, segment: u64, bytes: &[u8]) -> io::Result<()>;
    /// Flushes any buffering for the given segment.
    fn flush(&mut self, segment: u64) -> io::Result<()>;
}

/// A null sink for benchmarks: bytes are framed and discarded.
impl SegmentSink for io::Sink {
    fn append(&mut self, _segment: u64, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)
    }
    fn flush(&mut self, _segment: u64) -> io::Result<()> {
        Ok(())
    }
}

/// A shared in-memory segment store: the test/simulation stand-in for a
/// directory of segment files. Cloning shares the underlying storage, so a
/// harness can keep a handle while the writer thread owns the sink.
///
/// All internal locking recovers from poisoning: a writer incarnation that
/// panics mid-append leaves bytes exactly as appended so far (crash
/// semantics), and the next reader or incarnation proceeds.
#[derive(Debug, Clone, Default)]
pub struct MemorySegments {
    inner: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl MemorySegments {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        // Poison recovery: the byte vectors are always in a consistent
        // (append-only) state, so a panicked appender loses nothing.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of every segment's bytes, in segment order.
    pub fn snapshot(&self) -> Vec<Vec<u8>> {
        self.lock().clone()
    }

    /// Number of segments (including a possibly-empty current one).
    pub fn segment_count(&self) -> usize {
        self.lock().len()
    }

    /// Replaces the entire segment list. Callers that keep an active
    /// writer over this store must re-anchor it (via
    /// [`SegmentedLogWriter::with_start`]) at the new segment count.
    pub fn replace_all(&self, segments: Vec<Vec<u8>>) {
        *self.lock() = segments;
    }

    /// Recovers all records: longest valid prefix per segment, with the
    /// damaged remainders counted in the stats.
    pub fn recover(&self) -> (Vec<LogRecord>, RecoveryStats) {
        let segments = self.snapshot();
        recover_segments(&segments)
    }

    /// Fault injection: XORs one byte inside the *payload* of frame
    /// `frame_index` of `segment` (bit rot in record data, headers intact).
    /// Returns `false` if the target frame does not exist or `xor == 0`.
    pub fn corrupt_payload(&self, segment: usize, frame_index: usize, xor: u8) -> bool {
        if xor == 0 {
            return false;
        }
        let mut guard = self.lock();
        let Some(bytes) = guard.get_mut(segment) else {
            return false;
        };
        let spans = frame_spans(bytes);
        let Some(&(start, total)) = spans.get(frame_index) else {
            return false;
        };
        if total <= FRAME_HEADER_LEN {
            return false;
        }
        bytes[start + FRAME_HEADER_LEN] ^= xor;
        true
    }

    /// Fault injection: tears the final frame of `segment`, keeping
    /// `keep_frac` of its bytes (clamped to `[1, frame_len - 1]`) — the
    /// at-rest image of a crash mid-append. Returns `false` if the segment
    /// has no complete final frame to tear.
    pub fn tear_tail(&self, segment: usize, keep_frac: f64) -> bool {
        let mut guard = self.lock();
        let Some(bytes) = guard.get_mut(segment) else {
            return false;
        };
        let spans = frame_spans(bytes);
        let Some(&(start, total)) = spans.last() else {
            return false;
        };
        if start + total != bytes.len() {
            return false; // already torn
        }
        let keep = ((total as f64 - 1.0) * keep_frac.clamp(0.0, 1.0)) as usize;
        let keep = keep.clamp(1, total - 1);
        bytes.truncate(start + keep);
        true
    }
}

impl SegmentSink for MemorySegments {
    fn append(&mut self, segment: u64, bytes: &[u8]) -> io::Result<()> {
        let mut guard = self.lock();
        let idx = segment as usize;
        while guard.len() <= idx {
            guard.push(Vec::new());
        }
        guard[idx].extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self, _segment: u64) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Rotation thresholds for [`SegmentedLogWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Rotate after this many records in a segment.
    pub max_records: usize,
    /// Rotate after this many bytes in a segment.
    pub max_bytes: usize,
    /// Rotate when a segment spans more than this many nanoseconds of
    /// *record* time (the logical, caller-stamped clock — wall time never
    /// enters the format). `u64::MAX` disables time-based rotation.
    pub max_span_ns: u64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            max_records: 1024,
            max_bytes: 256 * 1024,
            max_span_ns: u64::MAX,
        }
    }
}

/// Observer notified each time a segment is sealed. The counts are a
/// deterministic observable: rotation thresholds and crash-seal points
/// are functions of the record stream, not of wall-clock timing — so a
/// histogram of sealed-segment sizes is byte-stable across same-seed
/// runs. The final, never-sealed segment is not reported.
pub trait SealObserver: Send + Sync {
    /// Called once per sealed segment with its record and byte counts.
    fn segment_sealed(&self, records: usize, bytes: usize);
}

/// Why [`SegmentedLogWriter::write_all`] stopped before the end of its
/// group. Every record before `written` is in the sink; the `failed`
/// records after them may be partly there.
#[derive(Debug)]
pub struct GroupWriteError {
    /// Records of the group appended before the failure.
    pub written: usize,
    /// Records the failure covers, starting at `written`: the one record
    /// that did not encode or rotate, or every record of a refused append.
    pub failed: usize,
    /// What went wrong.
    pub error: io::Error,
}

/// Writes framed records into rotating segments of a [`SegmentSink`].
pub struct SegmentedLogWriter<S> {
    sink: S,
    cfg: SegmentConfig,
    segment: u64,
    records_in_segment: usize,
    bytes_in_segment: usize,
    first_ts_in_segment: Option<u64>,
    observer: Option<Arc<dyn SealObserver>>,
    /// Reused buffer for the frames of one group within one segment:
    /// steady-state writes allocate nothing.
    frames: Vec<u8>,
}

impl<S: fmt::Debug> fmt::Debug for SegmentedLogWriter<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentedLogWriter")
            .field("sink", &self.sink)
            .field("cfg", &self.cfg)
            .field("segment", &self.segment)
            .field("records_in_segment", &self.records_in_segment)
            .field("bytes_in_segment", &self.bytes_in_segment)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl<S: SegmentSink> SegmentedLogWriter<S> {
    /// Wraps a sink, starting at segment 0.
    pub fn new(sink: S, cfg: SegmentConfig) -> Self {
        Self::with_start(sink, cfg, 0)
    }

    /// Wraps a sink, appending from `first_segment` onward. This is the
    /// warm-restart entry point: a restarted writer resumes *past* the
    /// segments its previous incarnation sealed instead of overwriting
    /// segment 0.
    pub fn with_start(sink: S, cfg: SegmentConfig, first_segment: u64) -> Self {
        SegmentedLogWriter {
            sink,
            cfg,
            segment: first_segment,
            records_in_segment: 0,
            bytes_in_segment: 0,
            first_ts_in_segment: None,
            observer: None,
            frames: Vec::new(),
        }
    }

    /// Registers a [`SealObserver`]; replaces any previous one.
    pub fn set_observer(&mut self, observer: Arc<dyn SealObserver>) {
        self.observer = Some(observer);
    }

    /// Index of the segment currently being appended to.
    pub fn current_segment(&self) -> u64 {
        self.segment
    }

    /// Frames and appends one record, rotating first if the current segment
    /// is full: the one-record case of [`write_all`](Self::write_all).
    /// Returns the number of frame bytes appended.
    pub fn write(&mut self, record: &LogRecord) -> io::Result<usize> {
        self.write_all(std::slice::from_ref(record))
            .map_err(|e| e.error)
    }

    /// Frames and appends `records` in order. Before each record the
    /// writer rotates if the current segment is full, so segments end at
    /// exactly the record boundaries one [`write`](Self::write) per record
    /// would give them, with the same [`SealObserver`] calls. A
    /// [`LogRecord::Batch`] is one frame but counts as its batch length
    /// toward the record-rotation threshold, so segment sizes stay bounded
    /// in *logical* records regardless of batching. The frames bound for
    /// one segment are encoded back to back into one buffer and handed to
    /// the sink in one `append`. Returns the number of frame bytes
    /// appended.
    pub fn write_all(&mut self, records: &[LogRecord]) -> Result<usize, GroupWriteError> {
        let mut frames = std::mem::take(&mut self.frames);
        frames.clear();
        let result = self.write_group(records, &mut frames);
        self.frames = frames;
        result
    }

    fn write_group(
        &mut self,
        records: &[LogRecord],
        frames: &mut Vec<u8>,
    ) -> Result<usize, GroupWriteError> {
        let mut appended = 0;
        // Index of the first record whose frame sits in `frames`.
        let mut pending = 0;
        for (i, record) in records.iter().enumerate() {
            let ts = record.timestamp_ns();
            let span_full = self
                .first_ts_in_segment
                .is_some_and(|first| ts.saturating_sub(first) >= self.cfg.max_span_ns);
            if self.records_in_segment >= self.cfg.max_records
                || self.bytes_in_segment >= self.cfg.max_bytes
                || span_full
            {
                appended += self.append_frames(frames, pending, i)?;
                pending = i;
                self.rotate().map_err(|error| GroupWriteError {
                    written: i,
                    failed: 1,
                    error,
                })?;
            }
            let start = frames.len();
            if let Err(error) = encode_frame_into(record, frames) {
                self.append_frames(frames, pending, i)?;
                return Err(GroupWriteError {
                    written: i,
                    failed: 1,
                    error,
                });
            }
            self.records_in_segment += record.record_count();
            self.bytes_in_segment += frames.len() - start;
            self.first_ts_in_segment.get_or_insert(ts);
        }
        Ok(appended + self.append_frames(frames, pending, records.len())?)
    }

    /// Appends the buffered frames of records `from..to` to the current
    /// segment and empties the buffer.
    fn append_frames(
        &mut self,
        frames: &mut Vec<u8>,
        from: usize,
        to: usize,
    ) -> Result<usize, GroupWriteError> {
        if frames.is_empty() {
            return Ok(0);
        }
        let len = frames.len();
        let result = self.sink.append(self.segment, frames);
        frames.clear();
        result.map(|()| len).map_err(|error| GroupWriteError {
            written: from,
            failed: to - from,
            error,
        })
    }

    /// Appends raw bytes to the current segment without frame accounting.
    /// Exists for fault injection (torn writes) and tests; a production
    /// caller has no business here.
    pub fn append_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sink.append(self.segment, bytes)?;
        self.bytes_in_segment += bytes.len();
        Ok(())
    }

    /// Seals the current segment (if non-empty) and starts a new one. Called
    /// on rotation thresholds and by the supervisor after a writer crash, so
    /// a torn tail never receives further appends.
    pub fn rotate(&mut self) -> io::Result<()> {
        if self.records_in_segment == 0 && self.bytes_in_segment == 0 {
            return Ok(());
        }
        self.sink.flush(self.segment)?;
        if let Some(observer) = &self.observer {
            observer.segment_sealed(self.records_in_segment, self.bytes_in_segment);
        }
        self.segment += 1;
        self.records_in_segment = 0;
        self.bytes_in_segment = 0;
        self.first_ts_in_segment = None;
        Ok(())
    }

    /// Flushes the sink for the current segment.
    pub fn flush(&mut self) -> io::Result<()> {
        self.sink.flush(self.segment)
    }

    /// Returns the sink.
    pub fn into_sink(mut self) -> io::Result<S> {
        self.sink.flush(self.segment)?;
        Ok(self.sink)
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What recovery found in one segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentRecovery {
    /// Records replayed from the longest valid prefix.
    pub recovered: usize,
    /// Record frames counted in the quarantined tail (identifiable frames
    /// plus one for a trailing partial frame).
    pub quarantined_records: usize,
    /// Bytes in the quarantined tail.
    pub quarantined_bytes: usize,
}

impl SegmentRecovery {
    /// True when the whole segment replayed.
    pub fn is_clean(&self) -> bool {
        self.quarantined_bytes == 0
    }
}

/// Aggregate recovery stats across segments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Segments examined.
    pub segments: usize,
    /// Segments with a quarantined tail.
    pub corrupt_segments: usize,
    /// Records replayed across all segments.
    pub recovered: usize,
    /// Record frames quarantined across all segments.
    pub quarantined_records: usize,
    /// Bytes quarantined across all segments.
    pub quarantined_bytes: usize,
}

impl RecoveryStats {
    /// Counts one more segment's recovery.
    pub(crate) fn add(&mut self, seg: &SegmentRecovery) {
        self.segments += 1;
        self.recovered += seg.recovered;
        self.quarantined_records += seg.quarantined_records;
        self.quarantined_bytes += seg.quarantined_bytes;
        self.corrupt_segments += usize::from(!seg.is_clean());
    }
}

/// Walks frame headers without validating checksums, returning
/// `(start, total_len)` spans of structurally complete frames.
fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut off = 0;
    while bytes.len() - off >= FRAME_HEADER_LEN {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_LEN || off + FRAME_HEADER_LEN + len > bytes.len() {
            break;
        }
        spans.push((off, FRAME_HEADER_LEN + len));
        off += FRAME_HEADER_LEN + len;
    }
    spans
}

/// Counts the logical records still identifiable in a quarantined tail:
/// for every structurally complete frame whose payload still validates,
/// its [`LogRecord::record_count`] (a batch frame quarantines its whole
/// batch); one per frame that no longer parses; plus one for trailing
/// partial bytes. When corruption hits a length header the walk stops
/// early and the remainder counts as a single frame — an undercount is
/// possible there, a silent skip is not.
fn count_tail(tail: &[u8]) -> usize {
    let spans = frame_spans(tail);
    let mut count = 0;
    let mut walked = 0;
    for &(start, len) in &spans {
        let payload = &tail[start + FRAME_HEADER_LEN..start + len];
        let crc = u32::from_le_bytes(tail[start + 4..start + 8].try_into().unwrap());
        let parsed = (crc32(payload) == crc)
            .then(|| RecordRef::parse(payload))
            .flatten();
        count += parsed.map_or(1, |r| r.record_count());
        walked += len;
    }
    count + usize::from(walked < tail.len())
}

/// The frame at `off`, parsed: its payload view and its total length, or
/// `None` when its length header overruns the bytes, its payload fails
/// its CRC32 (checked only when `verify`), or the payload does not parse.
fn frame_at(bytes: &[u8], off: usize, verify: bool) -> Option<(RecordRef<'_>, usize)> {
    if bytes.len() - off < FRAME_HEADER_LEN {
        return None;
    }
    let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte field")) as usize;
    if len > MAX_FRAME_LEN || off + FRAME_HEADER_LEN + len > bytes.len() {
        return None;
    }
    let payload = &bytes[off + FRAME_HEADER_LEN..off + FRAME_HEADER_LEN + len];
    if verify {
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4-byte field"));
        if crc32(payload) != crc {
            return None;
        }
    }
    Some((RecordRef::parse(payload)?, FRAME_HEADER_LEN + len))
}

/// Walks frames from the start of `bytes` until one is invalid, visiting
/// each valid frame's logical records in order — a batch as one
/// [`RecordRef::Decision`] per decision — and returns how many records it
/// visited and the length of the valid prefix. A frame's records are
/// visited only once its whole payload has parsed.
fn walk_frames<'a>(
    bytes: &'a [u8],
    verify: bool,
    visit: &mut impl FnMut(RecordRef<'a>),
) -> (usize, usize) {
    let mut records = 0;
    let mut off = 0;
    while let Some((record, advance)) = frame_at(bytes, off, verify) {
        match record {
            RecordRef::Batch(batch) => {
                records += batch.len();
                batch
                    .decisions()
                    .for_each(|d| visit(RecordRef::Decision(d)));
            }
            other => {
                records += 1;
                visit(other);
            }
        }
        off += advance;
    }
    (records, off)
}

/// Scans one segment in place: visits every record of its longest valid
/// prefix and returns what recovery found plus the prefix's length in
/// bytes.
///
/// A frame is valid when its length header fits the remaining bytes, its
/// payload matches its CRC32, and the payload parses as a record. The scan
/// stops at the first invalid frame; everything after it is quarantined
/// and counted by its tail scan. [`LogRecord::Batch`] frames are visited
/// as their individual decisions (each counted in `recovered`), and only
/// after the whole batch has parsed: a batch that fails at its last
/// decision visits none of them.
///
/// Nothing is allocated: the views borrow `bytes`.
pub fn scan_segment<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(RecordRef<'a>),
) -> (SegmentRecovery, usize) {
    let (recovered, prefix) = walk_frames(bytes, true, &mut visit);
    let mut stats = SegmentRecovery {
        recovered,
        ..SegmentRecovery::default()
    };
    let tail = &bytes[prefix..];
    if !tail.is_empty() {
        stats.quarantined_records = count_tail(tail);
        stats.quarantined_bytes = tail.len();
    }
    (stats, prefix)
}

/// Visits the records of a prefix [`scan_segment`] already validated,
/// without checking its CRCs again: the second pass of a reader that
/// scans once to learn the prefix, then reads it again.
///
/// # Panics
///
/// Panics when `prefix` does not parse to its end — it was not a prefix
/// [`scan_segment`] returned.
pub fn replay_prefix<'a>(prefix: &'a [u8], mut visit: impl FnMut(RecordRef<'a>)) {
    let (_, end) = walk_frames(prefix, false, &mut visit);
    assert_eq!(end, prefix.len(), "not a prefix scan_segment validated");
}

/// Replays the longest valid prefix of one segment as owned records:
/// [`scan_segment`], collecting. The recovered stream — and everything
/// downstream of it: scavenging, training, replay comparison — is identical
/// whether the writer framed records one at a time or in batches.
pub fn recover_segment(bytes: &[u8]) -> (Vec<LogRecord>, SegmentRecovery) {
    let mut records = Vec::new();
    let (stats, _) = scan_segment(bytes, |r| records.push(r.to_record()));
    (records, stats)
}

/// Replays the longest valid prefix of every segment, concatenated in
/// segment order, with aggregate accounting.
pub fn recover_segments(segments: &[Vec<u8>]) -> (Vec<LogRecord>, RecoveryStats) {
    let mut records = Vec::new();
    let mut stats = RecoveryStats::default();
    for bytes in segments {
        let (mut recs, seg) = recover_segment(bytes);
        stats.add(&seg);
        records.append(&mut recs);
    }
    (records, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::OutcomeRecord;

    fn outcome(id: u64) -> LogRecord {
        LogRecord::Outcome(OutcomeRecord {
            request_id: id,
            timestamp_ns: id * 10,
            reward: id as f64 * 0.5,
        })
    }

    /// Builds one segment, returning its bytes, the records, and the byte
    /// offset where each frame starts (plus the end offset).
    fn build_segment(n: u64) -> (Vec<u8>, Vec<LogRecord>, Vec<usize>) {
        let records: Vec<LogRecord> = (0..n).map(outcome).collect();
        let mut bytes = Vec::new();
        let mut offsets = vec![0];
        for r in &records {
            bytes.extend_from_slice(&encode_frame(r).unwrap());
            offsets.push(bytes.len());
        }
        (bytes, records, offsets)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_definition_at_every_length_and_split() {
        let bytewise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        };
        let data: Vec<u8> = (0..67u32).map(|i| (i * 151 + 7) as u8).collect();
        for n in 0..data.len() {
            assert_eq!(crc32(&data[..n]), bytewise(&data[..n]), "length {n}");
            for split in 0..=n {
                let (a, b) = data[..n].split_at(split);
                assert_eq!(crc32_update(crc32(a), b), crc32(&data[..n]));
            }
        }
    }

    #[test]
    fn clean_segment_round_trips() {
        let (bytes, records, _) = build_segment(20);
        let (out, stats) = recover_segment(&bytes);
        assert_eq!(out, records);
        assert_eq!(stats.recovered, 20);
        assert!(stats.is_clean());
    }

    #[test]
    fn truncation_recovers_longest_prefix_and_counts_the_tail() {
        let (bytes, records, offsets) = build_segment(5);
        // Cut mid-way through the fourth frame.
        let cut = offsets[3] + (offsets[4] - offsets[3]) / 2;
        let (out, stats) = recover_segment(&bytes[..cut]);
        assert_eq!(out, records[..3]);
        assert_eq!(stats.recovered, 3);
        assert_eq!(stats.quarantined_records, 1);
        assert_eq!(stats.quarantined_bytes, cut - offsets[3]);
    }

    #[test]
    fn truncation_on_a_frame_boundary_is_clean() {
        let (bytes, records, offsets) = build_segment(5);
        let (out, stats) = recover_segment(&bytes[..offsets[2]]);
        assert_eq!(out, records[..2]);
        assert!(stats.is_clean());
    }

    #[test]
    fn payload_corruption_quarantines_the_exact_remainder() {
        let (mut bytes, records, offsets) = build_segment(6);
        // Flip one payload byte in frame 2: frames 2..6 are quarantined and
        // every one of them is still counted via its intact header.
        bytes[offsets[2] + FRAME_HEADER_LEN + 3] ^= 0xFF;
        let (out, stats) = recover_segment(&bytes);
        assert_eq!(out, records[..2]);
        assert_eq!(stats.quarantined_records, 4);
        assert_eq!(stats.quarantined_bytes, bytes.len() - offsets[2]);
    }

    #[test]
    fn header_corruption_is_counted_never_skipped() {
        let (mut bytes, _, offsets) = build_segment(4);
        // Smash frame 1's length field into garbage that overruns the
        // segment: the walk cannot identify the following frames, but the
        // tail still counts as at least one quarantined record.
        bytes[offsets[1]] = 0xFF;
        bytes[offsets[1] + 3] = 0xFF;
        let (out, stats) = recover_segment(&bytes);
        assert_eq!(stats.recovered, out.len());
        assert_eq!(stats.recovered, 1);
        assert!(stats.quarantined_records >= 1);
        assert!(stats.quarantined_bytes > 0);
    }

    #[test]
    fn writer_rotates_by_record_count() {
        let mut w = SegmentedLogWriter::new(
            MemorySegments::new(),
            SegmentConfig {
                max_records: 3,
                max_bytes: usize::MAX,
                max_span_ns: u64::MAX,
            },
        );
        for i in 0..7 {
            w.write(&outcome(i)).unwrap();
        }
        let store = w.into_sink().unwrap();
        let segments = store.snapshot();
        assert_eq!(segments.len(), 3);
        let (records, stats) = store.recover();
        assert_eq!(records.len(), 7);
        assert_eq!(stats.recovered, 7);
        assert_eq!(stats.quarantined_records, 0);
        assert_eq!(stats.corrupt_segments, 0);
    }

    #[test]
    fn writer_rotates_by_record_time_span() {
        let mut w = SegmentedLogWriter::new(
            MemorySegments::new(),
            SegmentConfig {
                max_records: usize::MAX,
                max_bytes: usize::MAX,
                max_span_ns: 100,
            },
        );
        // outcome(i) is stamped at i*10 ns: spans close at 100 ns, so the
        // stream splits at timestamps 100 and 200.
        for i in 0..25 {
            w.write(&outcome(i)).unwrap();
        }
        let store = w.into_sink().unwrap();
        assert_eq!(store.segment_count(), 3);
        let (records, stats) = store.recover();
        assert_eq!(records.len(), 25);
        assert!(stats.quarantined_records == 0);
    }

    #[test]
    fn with_start_resumes_past_existing_segments() {
        let store = MemorySegments::new();
        let cfg = SegmentConfig {
            max_records: 4,
            max_bytes: usize::MAX,
            max_span_ns: u64::MAX,
        };
        let mut w = SegmentedLogWriter::new(store.clone(), cfg);
        for i in 0..6 {
            w.write(&outcome(i)).unwrap();
        }
        drop(w); // crash: the writer dies without sealing segment 1
        let mut w2 =
            SegmentedLogWriter::with_start(store.clone(), cfg, store.segment_count() as u64);
        assert_eq!(w2.current_segment(), 2);
        for i in 6..9 {
            w2.write(&outcome(i)).unwrap();
        }
        drop(w2);
        // Nothing overwritten: all nine records recover, in order.
        let (records, stats) = store.recover();
        assert_eq!(stats.recovered, 9);
        let ids: Vec<u64> = records.iter().map(|r| r.request_id()).collect();
        assert_eq!(ids, (0..9).collect::<Vec<u64>>());
    }

    #[test]
    fn memory_store_tear_and_corrupt_helpers_hit_their_targets() {
        let mut w = SegmentedLogWriter::new(MemorySegments::new(), SegmentConfig::default());
        for i in 0..10 {
            w.write(&outcome(i)).unwrap();
        }
        let store = w.into_sink().unwrap();
        assert!(store.tear_tail(0, 0.5));
        assert!(store.corrupt_payload(0, 4, 0x01));
        assert!(!store.corrupt_payload(0, 99, 0x01));
        assert!(!store.corrupt_payload(7, 0, 0x01));
        let (records, stats) = store.recover();
        // Frames 0..4 replay; 4..9 quarantined by the payload flip; the torn
        // frame 9 counts too.
        assert_eq!(records.len(), 4);
        assert_eq!(stats.recovered, 4);
        assert_eq!(stats.quarantined_records, 6);
        assert_eq!(stats.corrupt_segments, 1);
    }

    #[test]
    fn batch_frames_recover_as_flattened_decisions() {
        use crate::record::{BatchDecision, BatchRecord};
        let entry = |id: u64| BatchDecision {
            request_id: id,
            timestamp_ns: id * 10,
            shared_features: vec![id as f64],
            action_features: None,
            num_actions: 2,
            action: (id % 2) as usize,
            propensity: Some(0.5),
            reward: None,
        };
        let batch = |ids: std::ops::Range<u64>| {
            LogRecord::Batch(BatchRecord {
                component: "serve".to_string(),
                decisions: ids.map(entry).collect(),
            })
        };
        let mut w = SegmentedLogWriter::new(
            MemorySegments::new(),
            SegmentConfig {
                max_records: 4,
                max_bytes: usize::MAX,
                max_span_ns: u64::MAX,
            },
        );
        // 3 + 3 logical records in two frames: the first frame fills the
        // segment past its 4-record threshold, so the second rotates.
        w.write(&batch(0..3)).unwrap();
        w.write(&batch(3..6)).unwrap();
        w.write(&outcome(6)).unwrap();
        let store = w.into_sink().unwrap();
        assert_eq!(store.segment_count(), 2);
        let (records, stats) = store.recover();
        assert_eq!(stats.recovered, 7);
        // Batches flatten to plain decisions, ids in order.
        let ids: Vec<u64> = records.iter().map(|r| r.request_id()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(records[..6].iter().all(|r| r.is_decision()));
    }

    #[test]
    fn quarantined_batch_frames_count_their_whole_batch() {
        use crate::record::{BatchDecision, BatchRecord};
        let batch = LogRecord::Batch(BatchRecord {
            component: "serve".to_string(),
            decisions: (0..5)
                .map(|id| BatchDecision {
                    request_id: id,
                    timestamp_ns: 0,
                    shared_features: vec![],
                    action_features: None,
                    num_actions: 2,
                    action: 0,
                    propensity: Some(0.5),
                    reward: None,
                })
                .collect(),
        });
        let mut bytes = encode_frame(&outcome(100)).unwrap();
        bytes.extend_from_slice(&encode_frame(&batch).unwrap());
        // Corrupt the *first* frame's payload: recovery stops there, but the
        // intact batch frame behind it still counts all 5 records.
        bytes[FRAME_HEADER_LEN + 1] ^= 0x10;
        let (records, stats) = recover_segment(&bytes);
        assert!(records.is_empty());
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.quarantined_records, 6);
        assert_eq!(stats.quarantined_bytes, bytes.len());
    }

    #[test]
    fn a_batch_failing_at_its_last_decision_visits_none_of_them() {
        use crate::record::{BatchDecision, BatchRecord};
        let batch = LogRecord::Batch(BatchRecord {
            component: "serve".to_string(),
            decisions: (0..3)
                .map(|id| BatchDecision {
                    request_id: id,
                    timestamp_ns: 0,
                    shared_features: vec![id as f64; 2],
                    action_features: None,
                    num_actions: 2,
                    action: 0,
                    propensity: Some(0.5),
                    reward: None,
                })
                .collect(),
        });
        // Cut the last byte of the last decision's last feature, then frame
        // the payload with a matching CRC: the frame is intact, the record
        // is not.
        let mut payload = Vec::new();
        codec::encode_record(&batch, &mut payload);
        payload.pop();
        assert!(codec::decode_record(&payload).is_none());
        let mut bytes = encode_frame(&outcome(7)).unwrap();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let bad_frame_at = bytes.len() - FRAME_HEADER_LEN - payload.len();
        bytes.extend_from_slice(&encode_frame(&outcome(8)).unwrap());

        let mut visited = Vec::new();
        let (stats, prefix) = scan_segment(&bytes, |r| visited.push(r.to_record()));
        assert_eq!(visited, vec![outcome(7)]);
        assert_eq!(prefix, bad_frame_at);
        assert_eq!(stats.recovered, 1);
        // The bad frame counts as one record, the intact outcome after it
        // as another.
        assert_eq!(stats.quarantined_records, 2);
        assert_eq!(stats.quarantined_bytes, bytes.len() - bad_frame_at);
        assert_eq!(recover_segment(&bytes), (vec![outcome(7)], stats));
    }

    #[test]
    fn recovery_accounts_every_record_under_tearing() {
        // Conservation through a torn tail: recovered + quarantined == written.
        let mut w = SegmentedLogWriter::new(
            MemorySegments::new(),
            SegmentConfig {
                max_records: 4,
                max_bytes: usize::MAX,
                max_span_ns: u64::MAX,
            },
        );
        for i in 0..11 {
            w.write(&outcome(i)).unwrap();
        }
        let store = w.into_sink().unwrap();
        store.tear_tail(1, 0.3);
        let (_, stats) = store.recover();
        assert_eq!(stats.recovered + stats.quarantined_records, 11);
    }
}
