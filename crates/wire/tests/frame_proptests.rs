//! Property tests for the wire frame codec, mirroring the invariants the
//! log segment format is held to (`crates/log/src/segment.rs`):
//!
//! 1. **Round-trip**: every request and response type survives
//!    encode → frame → decode bit-exactly, for arbitrary bodies.
//! 2. **Truncation**: cutting a valid frame at *any* offset yields a clean
//!    `Incomplete` — never a panic, never a mis-parse.
//! 3. **Corruption**: flipping any byte(s) of a valid frame is always
//!    detected (bad magic / bad version / bad CRC / parked incomplete) —
//!    a damaged frame never decodes as a valid frame.
//! 4. **Totality**: arbitrary garbage bytes never panic the decoder, and
//!    arbitrary read fragmentation never changes what a stream decodes to.

use proptest::prelude::*;

use harvest_core::SimpleContext;
use harvest_wire::{
    decode_frame, decode_request_frame, decode_response_payload, encode_request, encode_response,
    Decoded, FrameDecoder, FrameKind, Request, Response, ShedReason, WireDecision, WireJoinOutcome,
};

fn arb_context() -> impl Strategy<Value = SimpleContext> {
    (
        proptest::collection::vec(-100.0f64..100.0, 0..5),
        1usize..6,
        proptest::option::of(proptest::collection::vec(-1.0f64..1.0, 0..3)),
    )
        .prop_map(|(features, k, action_row)| match action_row {
            // Per-action features: k rows of one shared dimension.
            Some(row) => SimpleContext::with_action_features(
                features,
                (0..k)
                    .map(|a| row.iter().map(|x| x + a as f64).collect())
                    .collect(),
            ),
            None => SimpleContext::new(features, k),
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u64>().prop_map(|nonce| Request::Ping { nonce }),
        (0u32..16, 0u64..1 << 40, 0u64..1 << 30, arb_context()).prop_map(
            |(shard, now_ns, budget_ns, context)| Request::Decide {
                shard,
                now_ns,
                budget_ns,
                context,
            }
        ),
        (
            0u32..16,
            0u64..1 << 40,
            0u64..1 << 30,
            proptest::collection::vec(arb_context(), 0..6)
        )
            .prop_map(
                |(shard, now_ns, budget_ns, contexts)| Request::DecideBatch {
                    shard,
                    now_ns,
                    budget_ns,
                    contexts,
                }
            ),
        (any::<u64>(), 0u64..1 << 40, -100.0f64..100.0).prop_map(|(request_id, now_ns, reward)| {
            Request::Reward {
                request_id,
                now_ns,
                reward,
            }
        }),
    ]
}

fn arb_decision() -> impl Strategy<Value = WireDecision> {
    (
        any::<u64>(),
        0u32..16,
        0u32..8,
        0.001f64..1.0,
        any::<bool>(),
        0u64..100,
        any::<bool>(),
    )
        .prop_map(
            |(request_id, shard, action, propensity, explored, generation, degraded)| {
                WireDecision {
                    request_id,
                    shard,
                    action,
                    propensity,
                    explored,
                    generation,
                    degraded,
                }
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u64>().prop_map(|nonce| Response::Pong { nonce }),
        arb_decision().prop_map(Response::Decision),
        proptest::collection::vec(arb_decision(), 0..6).prop_map(Response::Batch),
        (
            any::<u64>(),
            prop_oneof![
                Just(WireJoinOutcome::Joined),
                Just(WireJoinOutcome::Duplicate),
                Just(WireJoinOutcome::Expired),
                Just(WireJoinOutcome::Unknown),
                Just(WireJoinOutcome::Lost),
            ]
        )
            .prop_map(|(request_id, outcome)| Response::RewardAck {
                request_id,
                outcome,
            }),
        prop_oneof![
            Just(ShedReason::RateLimited),
            Just(ShedReason::QueueFull),
            Just(ShedReason::DeadlineExpired),
        ]
        .prop_map(|reason| Response::Shed { reason }),
        proptest::collection::vec(32u8..127, 0..40).prop_map(|bytes| Response::Error {
            message: String::from_utf8(bytes).expect("printable ascii"),
        }),
    ]
}

proptest! {
    #[test]
    fn any_request_round_trips(seq in any::<u64>(), req in arb_request()) {
        let frame = encode_request(seq, &req);
        let (back_seq, back, consumed) =
            decode_request_frame(&frame).expect("own encoding must decode");
        prop_assert_eq!(back_seq, seq);
        prop_assert_eq!(back, req);
        prop_assert_eq!(consumed, frame.len());
    }

    #[test]
    fn any_response_round_trips(seq in any::<u64>(), resp in arb_response()) {
        let frame = encode_response(seq, &resp);
        match decode_frame(&frame) {
            Decoded::Frame { kind, seq: back_seq, payload, consumed } => {
                prop_assert_eq!(kind, FrameKind::Response);
                prop_assert_eq!(back_seq, seq);
                prop_assert_eq!(consumed, frame.len());
                let back = decode_response_payload(&payload).expect("own body must parse");
                prop_assert_eq!(back, resp);
            }
            other => prop_assert!(false, "expected a frame, got {:?}", other),
        }
    }

    #[test]
    fn truncation_at_any_offset_is_incomplete(
        seq in any::<u64>(),
        req in arb_request(),
    ) {
        let frame = encode_request(seq, &req);
        for cut in 0..frame.len() {
            prop_assert_eq!(
                decode_frame(&frame[..cut]),
                Decoded::Incomplete,
                "cut at {} of {} must be incomplete",
                cut,
                frame.len()
            );
        }
    }

    #[test]
    fn any_corruption_is_detected(
        seq in any::<u64>(),
        req in arb_request(),
        offset in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut frame = encode_request(seq, &req);
        let i = (offset % frame.len() as u64) as usize;
        frame[i] ^= flip;
        match decode_frame(&frame) {
            // A flipped length byte may inflate `len` past the buffer:
            // the decoder parks at Incomplete rather than trusting the
            // unverifiable prefix. Every other damage is Corrupt. What a
            // flip can never be is a successfully decoded frame.
            Decoded::Incomplete | Decoded::Corrupt(_) => {}
            Decoded::Frame { .. } => prop_assert!(
                false,
                "flip of byte {} decoded as a valid frame",
                i
            ),
        }
    }

    #[test]
    fn garbage_never_panics_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        // Whatever these bytes are, classification is total: one of the
        // three verdicts, no panic. (Genuinely valid garbage is possible
        // only by colliding CRC32 — vanishingly unlikely at 96 bytes.)
        let _ = decode_frame(&bytes);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let _ = dec.next_frame();
    }

    #[test]
    fn fragmentation_never_changes_the_decoded_stream(
        reqs in proptest::collection::vec((any::<u64>(), arb_request()), 1..5),
        chunk in 1usize..48,
    ) {
        let stream: Vec<u8> = reqs
            .iter()
            .flat_map(|(seq, req)| encode_request(*seq, req))
            .collect();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.extend(piece);
            while let Some((kind, seq, payload)) =
                dec.next_frame().expect("no corruption in a clean stream")
            {
                prop_assert_eq!(kind, FrameKind::Request);
                got.push((seq, payload));
            }
        }
        prop_assert_eq!(dec.buffered(), 0);
        prop_assert_eq!(got.len(), reqs.len());
        for ((got_seq, payload), (seq, req)) in got.iter().zip(&reqs) {
            prop_assert_eq!(got_seq, seq);
            let back = harvest_wire::decode_request_payload(payload)
                .expect("fragmented body must parse");
            prop_assert_eq!(&back, req);
        }
    }
}
