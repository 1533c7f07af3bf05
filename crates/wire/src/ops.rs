//! The ops-plane scrape protocol: typed queries and report bodies carried
//! in [`FrameKind::Ops`] frames.
//!
//! A scrape is read-only observability traffic: it renders an export the
//! service already produces (Prometheus text, the JSON snapshot, the
//! window series, active alerts, or the alert event log) and ships it back
//! as an opaque string body. Scrapes pass the same admission door as
//! decisions — per-connection token bucket and the pending-work budget,
//! weight 1 — so a scrape storm degrades into explicit `Shed` answers
//! instead of starving the hot path. Unlike decisions, scrapes carry no
//! logical-clock stamp and never advance the server clock: observing the
//! system must not perturb the same-seed byte-equivalence the decision
//! path guarantees. For the same reason ops traffic keeps its own ledger
//! (`ops_requested == ops_served + ops_shed`) instead of leaking into the
//! decision ledger.
//!
//! Bodies use the [`harvest_log::codec`] primitives, as request and
//! response bodies do, and decode as strictly:
//!
//! ```text
//! query    := CODEC_VERSION: u8 | tag: u8
//!             (0 Prometheus, 1 Snapshot, 2 Series, 3 Alerts,
//!              4 AlertEvents, 5 Leaderboard, 6 WirePrometheus)
//! response := CODEC_VERSION: u8 | 0 Report | body: str
//!           | CODEC_VERSION: u8 | 1 Shed   | reason: u8
//! ```

use harvest_log::codec::{Encoder, CODEC_VERSION};

use crate::frame::{encode_frame_with, CorruptKind, FrameKind};
use crate::proto::{decode_body, ShedReason};

/// What a scrape client wants rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpsQuery {
    /// The service's Prometheus text exposition (scope families included
    /// when the time-series plane is enabled).
    Prometheus,
    /// The structured JSON observability snapshot.
    Snapshot,
    /// The windowed time-series export (JSON), one object per sealed
    /// window frame.
    Series,
    /// The current watchdog alert states (JSON).
    Alerts,
    /// The full alert event log (JSON lines, one fire/clear event each).
    AlertEvents,
    /// The latest training round's ranked portfolio leaderboard (JSON) —
    /// per-candidate estimate, confidence interval, ESS, clipped mass.
    Leaderboard,
    /// The wire layer's own Prometheus exposition (frames, sheds, queue
    /// waits) — the transport observing itself.
    WirePrometheus,
}

/// Every query, in declaration order: a query's tag (`query as u8`) is its
/// index here.
const QUERIES: [OpsQuery; 7] = [
    OpsQuery::Prometheus,
    OpsQuery::Snapshot,
    OpsQuery::Series,
    OpsQuery::Alerts,
    OpsQuery::AlertEvents,
    OpsQuery::Leaderboard,
    OpsQuery::WirePrometheus,
];

/// What the server answers a scrape with.
#[derive(Debug, Clone, PartialEq)]
pub enum OpsResponse {
    /// The rendered export. Same seed, same call sequence ⇒ byte-identical
    /// `body` across runs.
    Report {
        /// The export text: Prometheus exposition, JSON, or JSON lines
        /// depending on the query.
        body: String,
    },
    /// Admission refused the scrape; retry or back off.
    Shed {
        /// Why admission refused it.
        reason: ShedReason,
    },
}

const RESP_REPORT: u8 = 0;
const RESP_SHED: u8 = 1;

/// Encodes a scrape query into a complete ops frame.
pub fn encode_ops_query(seq: u64, query: &OpsQuery) -> Vec<u8> {
    encode_frame_with(FrameKind::Ops, seq, |out| {
        out.extend_from_slice(&[CODEC_VERSION, *query as u8])
    })
}

/// Encodes a scrape answer into a complete ops frame.
pub fn encode_ops_response(seq: u64, resp: &OpsResponse) -> Vec<u8> {
    encode_frame_with(FrameKind::Ops, seq, |out| {
        let mut enc = Encoder::new(out);
        enc.put_u8(CODEC_VERSION);
        match resp {
            OpsResponse::Report { body } => {
                enc.put_u8(RESP_REPORT);
                enc.put_str(body);
            }
            OpsResponse::Shed { reason } => {
                enc.put_u8(RESP_SHED);
                enc.put_u8(reason.to_byte());
            }
        }
    })
}

/// Parses a scrape query from ops-frame payload bytes.
pub fn decode_ops_query_payload(payload: &[u8]) -> Result<OpsQuery, CorruptKind> {
    decode_body(payload, |dec| {
        if dec.take_u8()? != CODEC_VERSION {
            return None;
        }
        QUERIES.get(usize::from(dec.take_u8()?)).copied()
    })
}

/// Parses a scrape answer from ops-frame payload bytes.
pub fn decode_ops_response_payload(payload: &[u8]) -> Result<OpsResponse, CorruptKind> {
    decode_body(payload, |dec| {
        if dec.take_u8()? != CODEC_VERSION {
            return None;
        }
        Some(match dec.take_u8()? {
            RESP_REPORT => OpsResponse::Report {
                body: dec.take_str()?.to_string(),
            },
            RESP_SHED => OpsResponse::Shed {
                reason: ShedReason::from_byte(dec.take_u8()?)?,
            },
            _ => return None,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, Decoded};

    #[test]
    fn ops_queries_round_trip_through_frames() {
        let queries = [
            OpsQuery::Prometheus,
            OpsQuery::Snapshot,
            OpsQuery::Series,
            OpsQuery::Alerts,
            OpsQuery::AlertEvents,
            OpsQuery::Leaderboard,
            OpsQuery::WirePrometheus,
        ];
        for (i, q) in queries.iter().enumerate() {
            let frame = encode_ops_query(i as u64, q);
            match decode_frame(&frame) {
                Decoded::Frame {
                    kind: FrameKind::Ops,
                    seq,
                    payload,
                    consumed,
                } => {
                    assert_eq!(seq, i as u64);
                    assert_eq!(consumed, frame.len());
                    assert_eq!(&decode_ops_query_payload(&payload).expect("body"), q);
                }
                other => panic!("expected ops frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn ops_responses_round_trip_through_frames() {
        let resps = [
            OpsResponse::Report {
                body: "# HELP harvest_decisions_total ...\n".to_string(),
            },
            OpsResponse::Shed {
                reason: ShedReason::RateLimited,
            },
        ];
        for (i, r) in resps.iter().enumerate() {
            let frame = encode_ops_response(i as u64, r);
            match decode_frame(&frame) {
                Decoded::Frame {
                    kind: FrameKind::Ops,
                    seq,
                    payload,
                    ..
                } => {
                    assert_eq!(seq, i as u64);
                    assert_eq!(&decode_ops_response_payload(&payload).expect("body"), r);
                }
                other => panic!("expected ops frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_ops_bodies_are_bad_payloads() {
        let queries: [&[u8]; 5] = [
            &[CODEC_VERSION, 7],     // unknown tag
            &[CODEC_VERSION, 0, 0],  // trailing byte
            &[CODEC_VERSION + 1, 0], // unknown version
            &[CODEC_VERSION],        // truncated
            b"\"Prometheus\"",       // the old JSON body
        ];
        for body in queries {
            assert_eq!(
                decode_ops_query_payload(body),
                Err(CorruptKind::BadPayload),
                "{body:?}"
            );
        }
        let responses: [&[u8]; 5] = [
            &[CODEC_VERSION, 2],                        // unknown tag
            &[CODEC_VERSION, 1, 0, 0],                  // trailing byte
            &[CODEC_VERSION, 1, 3],                     // unknown shed reason
            &[CODEC_VERSION, 0, 5, b'a'],               // body overruns the payload
            b"{\"Shed\":{\"reason\":\"RateLimited\"}}", // the old JSON body
        ];
        for body in responses {
            assert_eq!(
                decode_ops_response_payload(body),
                Err(CorruptKind::BadPayload),
                "{body:?}"
            );
        }
    }

    #[test]
    fn ops_frames_are_distinct_from_request_frames() {
        let frame = encode_ops_query(7, &OpsQuery::Prometheus);
        // The request-path decoder must refuse an ops frame rather than
        // misparse it.
        assert!(crate::proto::decode_request_frame(&frame).is_err());
    }
}
