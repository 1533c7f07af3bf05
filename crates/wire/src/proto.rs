//! Typed request/response bodies carried inside wire frames.
//!
//! Bodies use the binary layout of [`harvest_log::codec`] — the primitives
//! the log segments use — so encoding is a pure function of the message
//! and byte-stable across same-seed runs. Four request types mirror the
//! service surface: `Decide`,
//! `DecideBatch`, `Reward`, and `Ping`. Responses never use `Error` for
//! overload or degraded operation: overload answers `Shed` with an explicit
//! reason, and a degraded service answers a normal `Decision` served by the
//! safe arm with valid propensities (`degraded = true`). `Error` is
//! reserved for genuinely invalid requests (an out-of-range shard, an
//! internal serve failure).
//!
//! ```text
//! body     := CODEC_VERSION: u8 | tag: u8 | fields
//! request  := 0 Ping        nonce: u64
//!           | 1 Decide      shard: u32 | now_ns: u64 | budget_ns: u64 | context
//!           | 2 DecideBatch shard: u32 | now_ns: u64 | budget_ns: u64 | n: varint | n × context
//!           | 3 Reward      request_id: u64 | now_ns: u64 | reward: f64
//! context  := flags: u8 (bit 0: per-action features) | shared: f64s
//!             | num_actions: varint             (flag clear)
//!             | rows: varint | rows × f64s      (flag set; one row per action)
//! response := 0 Pong        nonce: u64
//!           | 1 Decision    decision
//!           | 2 Batch       n: varint | n × decision
//!           | 3 RewardAck   request_id: u64 | outcome: u8
//!           | 4 Shed        reason: u8
//!           | 5 Error       message: str
//! decision := request_id: u64 | shard: u32 | action: u32 | propensity: f64
//!             | generation: u64 | flags: u8 (bit 0 explored, bit 1 degraded)
//! ```
//!
//! Decoding is as strict as the log codec's: a body that is not exactly
//! one valid encoding — including a context no [`SimpleContext`]
//! constructor would accept — is [`CorruptKind::BadPayload`].

use harvest_core::{Context, SimpleContext};
use harvest_log::codec::{Decoder, Encoder, CODEC_VERSION};
use harvest_serve::{Decision, JoinOutcome};

use crate::frame::{decode_frame, encode_frame_with, CorruptKind, Decoded, FrameKind};

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline, never queued or shed.
    Ping {
        /// Echoed back in the pong.
        nonce: u64,
    },
    /// Serve one decision.
    Decide {
        /// Target decision shard.
        shard: u32,
        /// The caller's logical clock stamp for this decision.
        now_ns: u64,
        /// Deadline budget in logical ns from `now_ns`; 0 means no
        /// deadline. Work still queued past the deadline is shed without
        /// touching a shard.
        budget_ns: u64,
        /// The decision context.
        context: SimpleContext,
    },
    /// Serve a batch of decisions on one shard, all stamped `now_ns`.
    DecideBatch {
        /// Target decision shard.
        shard: u32,
        /// The caller's logical clock stamp for the whole batch.
        now_ns: u64,
        /// Deadline budget in logical ns from `now_ns`; 0 = none.
        budget_ns: u64,
        /// The decision contexts.
        contexts: Vec<SimpleContext>,
    },
    /// Report the delayed reward for an earlier decision.
    Reward {
        /// The decision's request id.
        request_id: u64,
        /// The caller's logical clock stamp for the reward observation.
        now_ns: u64,
        /// The observed reward.
        reward: f64,
    },
}

impl Request {
    /// The caller's logical clock stamp, used to advance the server clock
    /// (pings carry none and advance nothing).
    pub fn stamp_ns(&self) -> Option<u64> {
        match self {
            Request::Ping { .. } => None,
            Request::Decide { now_ns, .. }
            | Request::DecideBatch { now_ns, .. }
            | Request::Reward { now_ns, .. } => Some(*now_ns),
        }
    }

    /// Admission weight in logical decisions: what this request costs
    /// against rate limits and the pending-work budget.
    pub fn weight(&self) -> u64 {
        match self {
            Request::Ping { .. } => 0,
            Request::Decide { .. } | Request::Reward { .. } => 1,
            Request::DecideBatch { contexts, .. } => contexts.len() as u64,
        }
    }

    /// The contexts a decide request asks to serve: one for `Decide`, the
    /// whole batch for `DecideBatch`, none for anything else.
    pub fn contexts(&self) -> &[SimpleContext] {
        match self {
            Request::Decide { context, .. } => std::slice::from_ref(context),
            Request::DecideBatch { contexts, .. } => contexts,
            Request::Ping { .. } | Request::Reward { .. } => &[],
        }
    }
}

/// A served decision, as it crosses the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireDecision {
    /// Unique id correlating this decision with its delayed reward.
    pub request_id: u64,
    /// The shard that served it.
    pub shard: u32,
    /// The chosen action.
    pub action: u32,
    /// The exact probability with which `action` was chosen.
    pub propensity: f64,
    /// Whether the exploration branch fired.
    pub explored: bool,
    /// The policy generation that made the call.
    pub generation: u64,
    /// Whether the safe fallback policy served this (breaker open). Still
    /// carries an exact propensity and is logged normally server-side.
    pub degraded: bool,
}

impl From<&Decision> for WireDecision {
    fn from(d: &Decision) -> Self {
        WireDecision {
            request_id: d.request_id,
            shard: d.shard as u32,
            action: d.action as u32,
            propensity: d.propensity,
            explored: d.explored,
            generation: d.generation,
            degraded: d.degraded,
        }
    }
}

/// Why a request was shed instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The connection exceeded its token-bucket rate limit.
    RateLimited,
    /// The server's pending-work budget is full.
    QueueFull,
    /// The request's deadline budget lapsed before a shard was reached.
    DeadlineExpired,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineExpired => "deadline_expired",
        };
        f.write_str(name)
    }
}

/// The reward join verdict, as it crosses the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireJoinOutcome {
    /// Joined inside the TTL; an outcome record was logged.
    Joined,
    /// The decision was already joined.
    Duplicate,
    /// The decision's TTL had lapsed.
    Expired,
    /// No decision with this id was ever tracked.
    Unknown,
    /// Lost in flight before reaching the joiner (chaos drop).
    Lost,
}

impl From<JoinOutcome> for WireJoinOutcome {
    fn from(o: JoinOutcome) -> Self {
        match o {
            JoinOutcome::Joined => WireJoinOutcome::Joined,
            JoinOutcome::Duplicate => WireJoinOutcome::Duplicate,
            JoinOutcome::Expired => WireJoinOutcome::Expired,
            JoinOutcome::Unknown => WireJoinOutcome::Unknown,
            JoinOutcome::Lost => WireJoinOutcome::Lost,
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong {
        /// The ping's nonce, echoed.
        nonce: u64,
    },
    /// One served decision.
    Decision(WireDecision),
    /// A served batch, in context order.
    Batch(Vec<WireDecision>),
    /// The reward join verdict.
    RewardAck {
        /// The decision's request id, echoed.
        request_id: u64,
        /// What the joiner decided.
        outcome: WireJoinOutcome,
    },
    /// The request was refused by admission control. Not an error: the
    /// client is told exactly why and may retry or back off.
    Shed {
        /// Why admission refused it.
        reason: ShedReason,
    },
    /// A genuinely invalid request (bad shard, internal failure). Never
    /// used for overload or degraded operation.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

const REQ_PING: u8 = 0;
const REQ_DECIDE: u8 = 1;
const REQ_DECIDE_BATCH: u8 = 2;
const REQ_REWARD: u8 = 3;

const RESP_PONG: u8 = 0;
const RESP_DECISION: u8 = 1;
const RESP_BATCH: u8 = 2;
const RESP_REWARD_ACK: u8 = 3;
const RESP_SHED: u8 = 4;
const RESP_ERROR: u8 = 5;

const CTX_PER_ACTION: u8 = 1;
const DECISION_EXPLORED: u8 = 1;
const DECISION_DEGRADED: u8 = 1 << 1;
/// Encoded size of one [`WireDecision`].
const DECISION_LEN: usize = 8 + 4 + 4 + 8 + 8 + 1;

impl ShedReason {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            ShedReason::RateLimited => 0,
            ShedReason::QueueFull => 1,
            ShedReason::DeadlineExpired => 2,
        }
    }

    pub(crate) fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => ShedReason::RateLimited,
            1 => ShedReason::QueueFull,
            2 => ShedReason::DeadlineExpired,
            _ => return None,
        })
    }
}

impl WireJoinOutcome {
    fn to_byte(self) -> u8 {
        match self {
            WireJoinOutcome::Joined => 0,
            WireJoinOutcome::Duplicate => 1,
            WireJoinOutcome::Expired => 2,
            WireJoinOutcome::Unknown => 3,
            WireJoinOutcome::Lost => 4,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => WireJoinOutcome::Joined,
            1 => WireJoinOutcome::Duplicate,
            2 => WireJoinOutcome::Expired,
            3 => WireJoinOutcome::Unknown,
            4 => WireJoinOutcome::Lost,
            _ => return None,
        })
    }
}

fn put_context(enc: &mut Encoder<'_>, ctx: &SimpleContext) {
    match ctx.per_action_features() {
        None => {
            enc.put_u8(0);
            enc.put_f64s(ctx.shared_features());
            enc.put_len(ctx.num_actions());
        }
        Some(rows) => {
            enc.put_u8(CTX_PER_ACTION);
            enc.put_f64s(ctx.shared_features());
            enc.put_len(rows.len());
            for row in rows {
                enc.put_f64s(row);
            }
        }
    }
}

fn take_context(dec: &mut Decoder<'_>) -> Option<SimpleContext> {
    let flags = dec.take_u8()?;
    let shared = dec.take_f64s()?;
    match flags {
        0 => {
            let n = dec.take_len()?;
            (n > 0).then(|| SimpleContext::new(shared, n))
        }
        CTX_PER_ACTION => {
            // Every row costs at least its one-byte count.
            let rows = dec.take_count(1)?;
            let rows = (0..rows)
                .map(|_| dec.take_f64s())
                .collect::<Option<Vec<_>>>()?;
            let dim = rows.first()?.len();
            rows.iter()
                .all(|r| r.len() == dim)
                .then(|| SimpleContext::with_action_features(shared, rows))
        }
        _ => None,
    }
}

fn put_decision(enc: &mut Encoder<'_>, d: &WireDecision) {
    enc.put_u64(d.request_id);
    enc.put_u32(d.shard);
    enc.put_u32(d.action);
    enc.put_f64(d.propensity);
    enc.put_u64(d.generation);
    let mut flags = 0;
    if d.explored {
        flags |= DECISION_EXPLORED;
    }
    if d.degraded {
        flags |= DECISION_DEGRADED;
    }
    enc.put_u8(flags);
}

fn take_decision(dec: &mut Decoder<'_>) -> Option<WireDecision> {
    let request_id = dec.take_u64()?;
    let shard = dec.take_u32()?;
    let action = dec.take_u32()?;
    let propensity = dec.take_f64()?;
    let generation = dec.take_u64()?;
    let flags = dec.take_u8()?;
    if flags & !(DECISION_EXPLORED | DECISION_DEGRADED) != 0 {
        return None;
    }
    Some(WireDecision {
        request_id,
        shard,
        action,
        propensity,
        explored: flags & DECISION_EXPLORED != 0,
        generation,
        degraded: flags & DECISION_DEGRADED != 0,
    })
}

fn put_request(out: &mut Vec<u8>, req: &Request) {
    let mut enc = Encoder::new(out);
    enc.put_u8(CODEC_VERSION);
    match req {
        Request::Ping { nonce } => {
            enc.put_u8(REQ_PING);
            enc.put_u64(*nonce);
        }
        Request::Decide {
            shard,
            now_ns,
            budget_ns,
            context,
        } => {
            enc.put_u8(REQ_DECIDE);
            enc.put_u32(*shard);
            enc.put_u64(*now_ns);
            enc.put_u64(*budget_ns);
            put_context(&mut enc, context);
        }
        Request::DecideBatch {
            shard,
            now_ns,
            budget_ns,
            contexts,
        } => {
            enc.put_u8(REQ_DECIDE_BATCH);
            enc.put_u32(*shard);
            enc.put_u64(*now_ns);
            enc.put_u64(*budget_ns);
            enc.put_len(contexts.len());
            for ctx in contexts {
                put_context(&mut enc, ctx);
            }
        }
        Request::Reward {
            request_id,
            now_ns,
            reward,
        } => {
            enc.put_u8(REQ_REWARD);
            enc.put_u64(*request_id);
            enc.put_u64(*now_ns);
            enc.put_f64(*reward);
        }
    }
}

fn put_response(out: &mut Vec<u8>, resp: &Response) {
    let mut enc = Encoder::new(out);
    enc.put_u8(CODEC_VERSION);
    match resp {
        Response::Pong { nonce } => {
            enc.put_u8(RESP_PONG);
            enc.put_u64(*nonce);
        }
        Response::Decision(d) => {
            enc.put_u8(RESP_DECISION);
            put_decision(&mut enc, d);
        }
        Response::Batch(ds) => {
            enc.put_u8(RESP_BATCH);
            enc.put_len(ds.len());
            for d in ds {
                put_decision(&mut enc, d);
            }
        }
        Response::RewardAck {
            request_id,
            outcome,
        } => {
            enc.put_u8(RESP_REWARD_ACK);
            enc.put_u64(*request_id);
            enc.put_u8(outcome.to_byte());
        }
        Response::Shed { reason } => {
            enc.put_u8(RESP_SHED);
            enc.put_u8(reason.to_byte());
        }
        Response::Error { message } => {
            enc.put_u8(RESP_ERROR);
            enc.put_str(message);
        }
    }
}

fn take_request(dec: &mut Decoder<'_>) -> Option<Request> {
    if dec.take_u8()? != CODEC_VERSION {
        return None;
    }
    Some(match dec.take_u8()? {
        REQ_PING => Request::Ping {
            nonce: dec.take_u64()?,
        },
        REQ_DECIDE => Request::Decide {
            shard: dec.take_u32()?,
            now_ns: dec.take_u64()?,
            budget_ns: dec.take_u64()?,
            context: take_context(dec)?,
        },
        REQ_DECIDE_BATCH => {
            let shard = dec.take_u32()?;
            let now_ns = dec.take_u64()?;
            let budget_ns = dec.take_u64()?;
            // Flags, shared count and action count: at least 3 bytes.
            let n = dec.take_count(3)?;
            let contexts = (0..n)
                .map(|_| take_context(dec))
                .collect::<Option<Vec<_>>>()?;
            Request::DecideBatch {
                shard,
                now_ns,
                budget_ns,
                contexts,
            }
        }
        REQ_REWARD => Request::Reward {
            request_id: dec.take_u64()?,
            now_ns: dec.take_u64()?,
            reward: dec.take_f64()?,
        },
        _ => return None,
    })
}

fn take_response(dec: &mut Decoder<'_>) -> Option<Response> {
    if dec.take_u8()? != CODEC_VERSION {
        return None;
    }
    Some(match dec.take_u8()? {
        RESP_PONG => Response::Pong {
            nonce: dec.take_u64()?,
        },
        RESP_DECISION => Response::Decision(take_decision(dec)?),
        RESP_BATCH => {
            let n = dec.take_count(DECISION_LEN)?;
            Response::Batch((0..n).map(|_| take_decision(dec)).collect::<Option<_>>()?)
        }
        RESP_REWARD_ACK => Response::RewardAck {
            request_id: dec.take_u64()?,
            outcome: WireJoinOutcome::from_byte(dec.take_u8()?)?,
        },
        RESP_SHED => Response::Shed {
            reason: ShedReason::from_byte(dec.take_u8()?)?,
        },
        RESP_ERROR => Response::Error {
            message: dec.take_str()?.to_string(),
        },
        _ => return None,
    })
}

/// Runs `take` over the whole payload: any failure or trailing byte is
/// [`CorruptKind::BadPayload`].
pub(crate) fn decode_body<T>(
    payload: &[u8],
    take: impl FnOnce(&mut Decoder<'_>) -> Option<T>,
) -> Result<T, CorruptKind> {
    let mut dec = Decoder::new(payload);
    let value = take(&mut dec).ok_or(CorruptKind::BadPayload)?;
    dec.finish().ok_or(CorruptKind::BadPayload)?;
    Ok(value)
}

/// Encodes a request into a complete wire frame.
pub fn encode_request(seq: u64, req: &Request) -> Vec<u8> {
    encode_frame_with(FrameKind::Request, seq, |out| put_request(out, req))
}

/// Encodes a response into a complete wire frame.
pub fn encode_response(seq: u64, resp: &Response) -> Vec<u8> {
    encode_frame_with(FrameKind::Response, seq, |out| put_response(out, resp))
}

/// Parses a request body from frame payload bytes.
pub fn decode_request_payload(payload: &[u8]) -> Result<Request, CorruptKind> {
    decode_body(payload, take_request)
}

/// Parses a response body from frame payload bytes.
pub fn decode_response_payload(payload: &[u8]) -> Result<Response, CorruptKind> {
    decode_body(payload, take_response)
}

/// Decodes one whole request frame (frame layer + body in one step — the
/// deterministic transports use this; the TCP reader streams through
/// [`FrameDecoder`](crate::frame::FrameDecoder) instead).
pub fn decode_request_frame(buf: &[u8]) -> Result<(u64, Request, usize), CorruptKind> {
    match decode_frame(buf) {
        Decoded::Frame {
            kind: FrameKind::Request,
            seq,
            payload,
            consumed,
        } => Ok((seq, decode_request_payload(&payload)?, consumed)),
        Decoded::Frame { .. } => Err(CorruptKind::UnknownKind),
        Decoded::Corrupt(kind) => Err(kind),
        Decoded::Incomplete => Err(CorruptKind::BadPayload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::WIRE_HEADER_LEN;

    #[test]
    fn requests_round_trip_through_frames() {
        let reqs = [
            Request::Ping { nonce: 5 },
            Request::Decide {
                shard: 1,
                now_ns: 1_000,
                budget_ns: 500,
                context: SimpleContext::new(vec![0.25, 0.5], 3),
            },
            Request::DecideBatch {
                shard: 0,
                now_ns: 2_000,
                budget_ns: 0,
                contexts: vec![
                    SimpleContext::contextless(2),
                    SimpleContext::new(vec![1.0], 2),
                    SimpleContext::with_action_features(vec![0.5], vec![vec![1.0], vec![2.0]]),
                    SimpleContext::with_action_features(vec![], vec![vec![], vec![]]),
                ],
            },
            Request::Reward {
                request_id: (3 << 40) | 7,
                now_ns: 3_000,
                reward: 0.75,
            },
        ];
        for (i, req) in reqs.iter().enumerate() {
            let frame = encode_request(i as u64, req);
            let (seq, back, consumed) = decode_request_frame(&frame).expect("valid frame");
            assert_eq!(seq, i as u64);
            assert_eq!(&back, req);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn responses_round_trip_through_frames() {
        let resps = [
            Response::Pong { nonce: 9 },
            Response::Decision(WireDecision {
                request_id: 1,
                shard: 0,
                action: 2,
                propensity: 0.85,
                explored: false,
                generation: 3,
                degraded: false,
            }),
            Response::Batch(vec![]),
            Response::RewardAck {
                request_id: 1,
                outcome: WireJoinOutcome::Joined,
            },
            Response::Shed {
                reason: ShedReason::QueueFull,
            },
            Response::Error {
                message: "shard 9 out of range".to_string(),
            },
        ];
        for (i, resp) in resps.iter().enumerate() {
            let frame = encode_response(i as u64, resp);
            match decode_frame(&frame) {
                Decoded::Frame {
                    kind: FrameKind::Response,
                    seq,
                    payload,
                    ..
                } => {
                    assert_eq!(seq, i as u64);
                    let back = decode_response_payload(&payload).expect("valid body");
                    assert_eq!(&back, resp);
                }
                other => panic!("expected response frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn bodies_no_constructor_accepts_are_bad_payloads() {
        let body = |ctx: &[u8]| {
            let mut out = vec![CODEC_VERSION, REQ_DECIDE];
            out.extend_from_slice(&[0; 4 + 8 + 8]);
            out.extend_from_slice(ctx);
            out
        };
        // A well-formed baseline: no shared features, 3 slot actions.
        assert!(decode_request_payload(&body(&[0, 0, 3])).is_ok());
        let rejected: [&[u8]; 5] = [
            &[0, 0, 0],              // zero actions
            &[CTX_PER_ACTION, 0, 0], // no action rows
            // Ragged rows: one row of one feature, one of none.
            &[CTX_PER_ACTION, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[4, 0, 3],    // unknown context flag
            &[0, 0, 3, 0], // trailing byte
        ];
        for ctx in rejected {
            assert_eq!(
                decode_request_payload(&body(ctx)),
                Err(CorruptKind::BadPayload),
                "{ctx:?}"
            );
        }
        assert_eq!(
            decode_response_payload(&[CODEC_VERSION, RESP_SHED, 3]),
            Err(CorruptKind::BadPayload)
        );
    }

    #[test]
    fn a_32_feature_decide_frame_stays_small() {
        let frame = encode_request(
            0,
            &Request::Decide {
                shard: 0,
                now_ns: 1,
                budget_ns: 0,
                context: SimpleContext::new(vec![0.5; 32], 8),
            },
        );
        // Header, version + tag, shard, stamps, flags, counts, features.
        assert_eq!(frame.len(), WIRE_HEADER_LEN + 2 + 4 + 16 + 1 + 1 + 256 + 1);
    }

    #[test]
    fn weights_follow_the_request_shape() {
        let ping = Request::Ping { nonce: 0 };
        assert_eq!(ping.weight(), 0);
        let batch = Request::DecideBatch {
            shard: 3,
            now_ns: 0,
            budget_ns: 0,
            contexts: vec![SimpleContext::contextless(2); 5],
        };
        assert_eq!(batch.weight(), 5);
        let reward = Request::Reward {
            request_id: (2 << 40) | 123,
            now_ns: 0,
            reward: 1.0,
        };
        assert_eq!(reward.weight(), 1);
    }
}
