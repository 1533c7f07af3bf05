//! The binary record codec: one versioned little-endian layout for every
//! record the system frames.
//!
//! Log segment payloads ([`crate::segment`]) carry [`LogRecord`]s in this
//! layout, and the wire protocol's request, response and ops bodies
//! (`harvest-wire`) are built from the same [`Encoder`]/[`Decoder`]
//! primitives, so recovery, the portfolio scan and the socket all read one
//! format. Primitives:
//!
//! ```text
//! u8 | u32 | u64   fixed width, little-endian
//! f64              raw IEEE-754 bits as a u64 (bit-exact: -0.0 and NaN payloads survive)
//! varint           unsigned LEB128, canonical (no redundant continuation bytes)
//! str              varint byte length | UTF-8 bytes
//! f64s             varint count | count × f64
//! ```
//!
//! A [`LogRecord`] payload:
//!
//! ```text
//! record   := CODEC_VERSION: u8 | tag: u8 | body
//! tag 0    := request_id: u64 | timestamp_ns: u64 | component: str | choice     (decision)
//! tag 1    := request_id: u64 | timestamp_ns: u64 | reward: f64                  (outcome)
//! tag 2    := component: str | n: varint | n × (request_id: u64 | timestamp_ns: u64 | choice)
//! choice   := num_actions: varint | action: varint | flags: u8
//!             | [propensity: f64] | [reward: f64] | shared_features: f64s
//!             | [rows: varint | rows × f64s]                                   (action features)
//! flags    := bit 0 propensity present | bit 1 reward present | bit 2 action features present
//! ```
//!
//! A batch (tag 2) interns its component once for all of its decisions.
//!
//! Determinism: encoding is a pure function of the record — no padding,
//! no maps, no float formatting — so same-seed runs frame byte-identical
//! payloads. Decoding is strict: an unknown version, tag or flag bit, a
//! non-canonical varint, invalid UTF-8, a length that overruns the
//! payload, or trailing bytes all reject it. Every accepted payload
//! therefore has exactly one encoding.
//!
//! Reading: [`RecordRef::parse`] is the one parser. It checks every byte
//! of a payload and returns a view that borrows it, so a decision's
//! features stay in the payload until they are read, and reading a view
//! never fails. [`decode_record`] makes that view owned; the portfolio
//! scan reads views directly and never copies a decision.

use crate::record::{BatchDecision, BatchRecord, DecisionRecord, LogRecord, OutcomeRecord};

/// The layout version written as the first payload byte.
pub const CODEC_VERSION: u8 = 1;

/// Bytes in an outcome payload: version, tag, id, stamp and reward. Every
/// outcome has exactly this size, which bounds how many a buffer can hold.
pub const OUTCOME_PAYLOAD_LEN: usize = 2 + 8 + 8 + 8;

const TAG_DECISION: u8 = 0;
const TAG_OUTCOME: u8 = 1;
const TAG_BATCH: u8 = 2;

const HAS_PROPENSITY: u8 = 1;
const HAS_REWARD: u8 = 1 << 1;
const HAS_ACTION_FEATURES: u8 = 1 << 2;

/// Appends primitives to a byte buffer.
#[derive(Debug)]
pub struct Encoder<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Encoder<'a> {
    /// Appends to `out`, after whatever it already holds.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Encoder { out }
    }

    /// One byte.
    pub fn put_u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// A fixed-width `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// A fixed-width `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its raw bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// An unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.out.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.out.push(v as u8);
    }

    /// A length or count.
    pub fn put_len(&mut self, n: usize) {
        self.put_varint(n as u64);
    }

    /// A length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }

    /// A count-prefixed `f64` vector.
    pub fn put_f64s(&mut self, xs: &[f64]) {
        self.put_len(xs.len());
        self.out.reserve(xs.len() * 8);
        for x in xs {
            self.out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

/// Reads primitives from the front of a byte slice. Every read returns
/// `None` instead of panicking when the bytes are short or malformed.
#[derive(Debug)]
pub struct Decoder<'a> {
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Reads from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { rest: bytes }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.rest.len() {
            return None;
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Some(head)
    }

    fn take_array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)
            .map(|b| b.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    pub fn take_u8(&mut self) -> Option<u8> {
        self.take_array::<1>().map(|[b]| b)
    }

    /// A fixed-width `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// A fixed-width `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// An `f64` from its raw bits.
    pub fn take_f64(&mut self) -> Option<f64> {
        self.take_u64().map(f64::from_bits)
    }

    /// A canonical unsigned LEB128 varint of at most 64 bits.
    pub fn take_varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.take_u8()?;
            let bits = u64::from(b & 0x7F);
            if i == 9 && bits > 1 {
                return None; // overflows 64 bits
            }
            v |= bits << (7 * i);
            if b & 0x80 == 0 {
                // A zero final byte after the first is a redundant
                // continuation: reject it so encodings stay unique.
                return (i == 0 || b != 0).then_some(v);
            }
        }
        None
    }

    /// A length or count that fits `usize`.
    pub fn take_len(&mut self) -> Option<usize> {
        usize::try_from(self.take_varint()?).ok()
    }

    /// A count of items that each occupy at least `min_item_bytes` bytes.
    /// Counts the remaining bytes cannot hold are rejected, so a damaged
    /// or hostile count never turns into a huge allocation.
    pub fn take_count(&mut self, min_item_bytes: usize) -> Option<usize> {
        let n = self.take_len()?;
        (n.checked_mul(min_item_bytes.max(1))? <= self.rest.len()).then_some(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Option<&'a str> {
        let n = self.take_len()?;
        std::str::from_utf8(self.take(n)?).ok()
    }

    /// A count-prefixed `f64` vector.
    pub fn take_f64s(&mut self) -> Option<Vec<f64>> {
        self.take_f64s_ref().map(|xs| xs.to_vec())
    }

    /// A count-prefixed `f64` vector, borrowed: its floats decode only when
    /// read.
    pub(crate) fn take_f64s_ref(&mut self) -> Option<F64sRef<'a>> {
        let n = self.take_count(8)?;
        self.take(n * 8).map(|bytes| F64sRef { bytes })
    }

    /// Succeeds only when every byte has been consumed: trailing bytes
    /// make the payload invalid.
    pub fn finish(self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

/// A borrowed `f64s` field: the raw little-endian bits of `len()` floats,
/// decoded one at a time as they are read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F64sRef<'a> {
    bytes: &'a [u8],
}

impl<'a> F64sRef<'a> {
    /// The number of floats.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// The floats, in order, bit-exact.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
    }

    /// The floats as an owned vector.
    pub(crate) fn to_vec(self) -> Vec<f64> {
        self.iter().collect()
    }
}

/// A decision's borrowed per-action feature rows: `len()` [`F64sRef`]s
/// laid end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionRowsRef<'a> {
    rows: usize,
    bytes: &'a [u8],
}

impl<'a> ActionRowsRef<'a> {
    /// The number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// The rows, in action order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = F64sRef<'a>> + 'a {
        let mut dec = Decoder::new(self.bytes);
        (0..self.rows).map(move |_| dec.take_f64s_ref().expect(VALIDATED))
    }

    /// The rows as owned vectors.
    pub(crate) fn to_vecs(self) -> Vec<Vec<f64>> {
        self.iter().map(|row| row.to_vec()).collect()
    }
}

/// A decision read in place from a payload: every field of a
/// [`DecisionRecord`], with the features still in the payload's bytes. A
/// batched decision carries its batch's component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRef<'a> {
    /// Correlates this decision with its outcome.
    pub request_id: u64,
    /// Nanoseconds since the start of the trace.
    pub timestamp_ns: u64,
    /// The component that logged the decision.
    pub component: &'a str,
    /// Size of the eligible action set.
    pub num_actions: usize,
    /// The action taken.
    pub action: usize,
    /// The decision probability, when the logging site knew it.
    pub propensity: Option<f64>,
    /// The reward, when it was known synchronously.
    pub reward: Option<f64>,
    /// Shared context features at decision time.
    pub shared_features: F64sRef<'a>,
    /// Per-action features, if the action set carries them.
    pub action_features: Option<ActionRowsRef<'a>>,
}

impl DecisionRef<'_> {
    /// The owned [`BatchDecision`] (the record minus its component).
    pub(crate) fn to_batch_decision(self) -> BatchDecision {
        BatchDecision {
            request_id: self.request_id,
            timestamp_ns: self.timestamp_ns,
            shared_features: self.shared_features.to_vec(),
            action_features: self.action_features.map(|rows| rows.to_vecs()),
            num_actions: self.num_actions,
            action: self.action,
            propensity: self.propensity,
            reward: self.reward,
        }
    }

    /// The owned [`DecisionRecord`].
    pub fn to_record(&self) -> DecisionRecord {
        self.to_batch_decision().into_decision(self.component)
    }
}

/// A batch frame read in place: its component and its decisions' bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRef<'a> {
    component: &'a str,
    len: usize,
    body: &'a [u8],
}

impl<'a> BatchRef<'a> {
    /// The number of decisions.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The decisions, in decision order.
    pub(crate) fn decisions(&self) -> impl ExactSizeIterator<Item = DecisionRef<'a>> + 'a {
        let component = self.component;
        let mut dec = Decoder::new(self.body);
        (0..self.len).map(move |_| take_entry(&mut dec, component).expect(VALIDATED))
    }
}

/// One record payload read in place: the borrowed twin of [`LogRecord`].
///
/// [`RecordRef::parse`] is the codec's only parser: it checks the whole
/// payload, so every view it returns reads without failing, and
/// [`decode_record`] is this view made owned.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordRef<'a> {
    /// A decision record.
    Decision(DecisionRef<'a>),
    /// An outcome record (it has no borrowed fields).
    Outcome(OutcomeRecord),
    /// A batch of decisions under one component.
    Batch(BatchRef<'a>),
}

/// Why reading a view cannot fail: [`RecordRef::parse`] walked every byte.
const VALIDATED: &str = "RecordRef::parse validated the payload";

impl<'a> RecordRef<'a> {
    /// Parses one record payload, or `None` when the bytes are not exactly
    /// one valid encoding. Nothing is copied or allocated.
    pub fn parse(payload: &'a [u8]) -> Option<RecordRef<'a>> {
        let mut dec = Decoder::new(payload);
        if dec.take_u8()? != CODEC_VERSION {
            return None;
        }
        let record = match dec.take_u8()? {
            TAG_DECISION => {
                let request_id = dec.take_u64()?;
                let timestamp_ns = dec.take_u64()?;
                let component = dec.take_str()?;
                RecordRef::Decision(take_choice(&mut dec, request_id, timestamp_ns, component)?)
            }
            TAG_OUTCOME => RecordRef::Outcome(OutcomeRecord {
                request_id: dec.take_u64()?,
                timestamp_ns: dec.take_u64()?,
                reward: dec.take_f64()?,
            }),
            TAG_BATCH => {
                let component = dec.take_str()?;
                // Ids, stamp and the choice's fixed part: at least 20 bytes.
                let len = dec.take_count(20)?;
                let body = dec.rest;
                for _ in 0..len {
                    take_entry(&mut dec, component)?;
                }
                let body = &body[..body.len() - dec.rest.len()];
                RecordRef::Batch(BatchRef {
                    component,
                    len,
                    body,
                })
            }
            _ => return None,
        };
        dec.finish()?;
        Some(record)
    }

    /// The logical records this payload holds: a batch's length, else 1
    /// (see [`LogRecord::record_count`]).
    pub(crate) fn record_count(&self) -> usize {
        match self {
            RecordRef::Batch(b) => b.len(),
            _ => 1,
        }
    }

    /// The owned record.
    pub fn to_record(&self) -> LogRecord {
        match self {
            RecordRef::Decision(d) => LogRecord::Decision(d.to_record()),
            RecordRef::Outcome(o) => LogRecord::Outcome(o.clone()),
            RecordRef::Batch(b) => LogRecord::Batch(BatchRecord {
                component: b.component.to_string(),
                decisions: b.decisions().map(|d| d.to_batch_decision()).collect(),
            }),
        }
    }
}

fn put_choice(
    enc: &mut Encoder<'_>,
    num_actions: usize,
    action: usize,
    propensity: Option<f64>,
    reward: Option<f64>,
    shared_features: &[f64],
    action_features: Option<&Vec<Vec<f64>>>,
) {
    enc.put_len(num_actions);
    enc.put_len(action);
    let mut flags = 0;
    if propensity.is_some() {
        flags |= HAS_PROPENSITY;
    }
    if reward.is_some() {
        flags |= HAS_REWARD;
    }
    if action_features.is_some() {
        flags |= HAS_ACTION_FEATURES;
    }
    enc.put_u8(flags);
    if let Some(p) = propensity {
        enc.put_f64(p);
    }
    if let Some(r) = reward {
        enc.put_f64(r);
    }
    enc.put_f64s(shared_features);
    if let Some(rows) = action_features {
        enc.put_len(rows.len());
        for row in rows {
            enc.put_f64s(row);
        }
    }
}

/// Reads the fields a decision stores after its id, stamp and component.
fn take_choice<'a>(
    dec: &mut Decoder<'a>,
    request_id: u64,
    timestamp_ns: u64,
    component: &'a str,
) -> Option<DecisionRef<'a>> {
    let num_actions = dec.take_len()?;
    let action = dec.take_len()?;
    let flags = dec.take_u8()?;
    if flags & !(HAS_PROPENSITY | HAS_REWARD | HAS_ACTION_FEATURES) != 0 {
        return None;
    }
    let propensity = if flags & HAS_PROPENSITY != 0 {
        Some(dec.take_f64()?)
    } else {
        None
    };
    let reward = if flags & HAS_REWARD != 0 {
        Some(dec.take_f64()?)
    } else {
        None
    };
    let shared_features = dec.take_f64s_ref()?;
    let action_features = if flags & HAS_ACTION_FEATURES != 0 {
        // Every row costs at least its one-byte count.
        let rows = dec.take_count(1)?;
        let start = dec.rest;
        for _ in 0..rows {
            dec.take_f64s_ref()?;
        }
        Some(ActionRowsRef {
            rows,
            bytes: &start[..start.len() - dec.rest.len()],
        })
    } else {
        None
    };
    Some(DecisionRef {
        request_id,
        timestamp_ns,
        component,
        num_actions,
        action,
        propensity,
        reward,
        shared_features,
        action_features,
    })
}

/// Reads one batch entry: id, stamp, then the choice.
fn take_entry<'a>(dec: &mut Decoder<'a>, component: &'a str) -> Option<DecisionRef<'a>> {
    let request_id = dec.take_u64()?;
    let timestamp_ns = dec.take_u64()?;
    take_choice(dec, request_id, timestamp_ns, component)
}

/// Bytes a decision typically costs besides its component and features:
/// id and stamp, one-byte action count, action and flags, both optional
/// `f64`s, and the feature count.
const DECISION_HINT: usize = 16 + 3 + 16 + 1;

/// A close upper estimate of a record's encoded size (exact for records
/// without per-action features), so encoding reserves once.
fn size_hint(record: &LogRecord) -> usize {
    let decision = |features: usize| DECISION_HINT + 8 * features;
    2 + match record {
        LogRecord::Decision(d) => 1 + d.component.len() + decision(d.shared_features.len()),
        LogRecord::Outcome(_) => 24,
        LogRecord::Batch(b) => {
            2 + b.component.len()
                + b.decisions
                    .iter()
                    .map(|d| decision(d.shared_features.len()))
                    .sum::<usize>()
        }
    }
}

/// Appends the payload encoding of `record` to `out`.
pub fn encode_record(record: &LogRecord, out: &mut Vec<u8>) {
    out.reserve(size_hint(record));
    let mut enc = Encoder::new(out);
    enc.put_u8(CODEC_VERSION);
    match record {
        LogRecord::Decision(d) => {
            enc.put_u8(TAG_DECISION);
            enc.put_u64(d.request_id);
            enc.put_u64(d.timestamp_ns);
            enc.put_str(&d.component);
            put_choice(
                &mut enc,
                d.num_actions,
                d.action,
                d.propensity,
                d.reward,
                &d.shared_features,
                d.action_features.as_ref(),
            );
        }
        LogRecord::Outcome(o) => {
            enc.put_u8(TAG_OUTCOME);
            enc.put_u64(o.request_id);
            enc.put_u64(o.timestamp_ns);
            enc.put_f64(o.reward);
        }
        LogRecord::Batch(b) => {
            enc.put_u8(TAG_BATCH);
            enc.put_str(&b.component);
            enc.put_len(b.decisions.len());
            for d in &b.decisions {
                enc.put_u64(d.request_id);
                enc.put_u64(d.timestamp_ns);
                put_choice(
                    &mut enc,
                    d.num_actions,
                    d.action,
                    d.propensity,
                    d.reward,
                    &d.shared_features,
                    d.action_features.as_ref(),
                );
            }
        }
    }
}

/// Decodes one record payload, or `None` when the bytes are not exactly
/// one valid encoding: [`RecordRef::parse`], made owned.
pub fn decode_record(payload: &[u8]) -> Option<LogRecord> {
    RecordRef::parse(payload).map(|r| r.to_record())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(record: &LogRecord) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(record, &mut out);
        out
    }

    fn decision() -> DecisionRecord {
        DecisionRecord {
            request_id: (3 << 40) | 17,
            timestamp_ns: 1_000_000,
            component: "serve".to_string(),
            shared_features: vec![0.25, -0.0, f64::MAX, 1e-300],
            action_features: Some(vec![vec![0.1, 0.2], vec![0.3, 0.4]]),
            num_actions: 2,
            action: 1,
            propensity: Some(0.55),
            reward: None,
        }
    }

    #[test]
    fn every_record_kind_round_trips() {
        let mut plain = decision();
        plain.action_features = None;
        plain.propensity = None;
        plain.reward = Some(-3.5);
        let records = [
            LogRecord::Decision(decision()),
            LogRecord::Decision(plain.clone()),
            LogRecord::Outcome(OutcomeRecord {
                request_id: u64::MAX,
                timestamp_ns: 7,
                reward: 0.75,
            }),
            LogRecord::Batch(BatchRecord {
                component: "serve".to_string(),
                decisions: vec![decision().into(), plain.into()],
            }),
            LogRecord::Batch(BatchRecord {
                component: String::new(),
                decisions: vec![],
            }),
        ];
        for r in &records {
            assert_eq!(decode_record(&encoded(r)).as_ref(), Some(r));
        }
    }

    #[test]
    fn floats_keep_their_exact_bits() {
        let mut d = decision();
        d.shared_features = vec![-0.0, f64::NAN, f64::INFINITY];
        let Some(LogRecord::Decision(back)) = decode_record(&encoded(&LogRecord::Decision(d)))
        else {
            panic!("decision must decode");
        };
        let bits: Vec<u64> = back.shared_features.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            bits,
            vec![
                (-0.0f64).to_bits(),
                f64::NAN.to_bits(),
                f64::INFINITY.to_bits()
            ]
        );
    }

    #[test]
    fn an_outcome_payload_is_twenty_six_bytes() {
        let o = LogRecord::Outcome(OutcomeRecord {
            request_id: 1,
            timestamp_ns: 2,
            reward: 3.0,
        });
        assert_eq!(encoded(&o).len(), 2 + 8 + 8 + 8);
        assert_eq!(encoded(&o).len(), OUTCOME_PAYLOAD_LEN);
    }

    #[test]
    fn every_strict_prefix_and_any_extension_is_rejected() {
        let bytes = encoded(&LogRecord::Decision(decision()));
        for cut in 0..bytes.len() {
            assert_eq!(decode_record(&bytes[..cut]), None, "prefix of {cut} bytes");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(decode_record(&longer), None);
    }

    #[test]
    fn unknown_version_tag_and_flags_are_rejected() {
        let bytes = encoded(&LogRecord::Decision(decision()));
        let mut bad_version = bytes.clone();
        bad_version[0] = CODEC_VERSION + 1;
        assert_eq!(decode_record(&bad_version), None);
        let mut bad_tag = bytes.clone();
        bad_tag[1] = 9;
        assert_eq!(decode_record(&bad_tag), None);
        // version, tag, id, stamp, "serve", num_actions, action, flags.
        let flags_at = 2 + 16 + 6 + 2;
        let mut bad_flags = bytes;
        bad_flags[flags_at] |= 1 << 5;
        assert_eq!(decode_record(&bad_flags), None);
    }

    #[test]
    fn varints_are_canonical_and_bounded() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            Encoder::new(&mut out).put_varint(v);
            let mut dec = Decoder::new(&out);
            assert_eq!(dec.take_varint(), Some(v));
            assert!(dec.finish().is_some());
        }
        // 0 spelled with a redundant continuation byte.
        assert_eq!(Decoder::new(&[0x80, 0x00]).take_varint(), None);
        // 11 bytes, or a 10th byte carrying more than bit 63.
        assert_eq!(Decoder::new(&[0xFF; 11]).take_varint(), None);
        let mut over = vec![0xFF; 9];
        over.push(0x02);
        assert_eq!(Decoder::new(&over).take_varint(), None);
    }

    #[test]
    fn counts_the_payload_cannot_hold_are_rejected() {
        let mut out = Vec::new();
        Encoder::new(&mut out).put_varint(1 << 40);
        out.extend_from_slice(&[0; 16]);
        assert_eq!(Decoder::new(&out).take_f64s(), None);
        assert_eq!(Decoder::new(&out).take_count(1), None);
    }
}
