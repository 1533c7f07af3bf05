//! Isolated layer timings for the traced run: each public layer function
//! timed on its own, over the records and requests this run produced.

use std::hint::black_box;
use std::time::Instant;

use harvest_core::SimpleContext;
use harvest_log::record::LogRecord;
use harvest_log::segment::{
    crc32, encode_frame, recover_segments, MemorySegments, SegmentConfig, SegmentedLogWriter,
    FRAME_HEADER_LEN,
};
use harvest_serve::{DecisionBatch, SEQ_BITS};
use harvest_wire::{
    decode_request_frame, decode_response_payload, encode_request, encode_response, Request,
    Response, WireDecision, WIRE_HEADER_LEN,
};

use crate::episode::boot;
use crate::inputs::{Inputs, BATCH, TICK_NS};
use crate::stats::median;

/// Repetitions of each isolated timing; the median is reported.
const REPS: usize = 3;
/// Requests and responses the wire codec timings run over.
const WIRE_SAMPLE: usize = 4096;
/// Decisions per idle-twin pass: with their rewards' outcome records they
/// stay below the log ring's capacity, so the twin never waits on its
/// writer.
pub const IDLE_DECISIONS: usize = 2048;
/// Rewards timed per idle-twin pass.
const IDLE_REWARDS: usize = 1024;

/// Per-item cost in nanoseconds of `f` over `items`, median of [`REPS`].
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                f(item);
            }
            t.elapsed().as_nanos() as f64 / items.len().max(1) as f64
        })
        .collect();
    median(&runs)
}

/// Costs of the log segment layer, per record.
#[derive(Debug, Clone, Copy)]
pub struct SegmentCosts {
    /// `encode_frame` (JSON encode plus CRC and header).
    pub encode_ns: f64,
    /// `crc32` over one frame payload.
    pub crc_ns: f64,
    /// `SegmentedLogWriter::write` into a fresh `MemorySegments`.
    pub append_ns: f64,
    /// `recover_segments` over this run's log.
    pub recover_ns: f64,
}

pub fn segment_costs(segments: &[Vec<u8>], records: &[LogRecord]) -> SegmentCosts {
    let encode_ns = per_item_ns(records, |r| {
        black_box(encode_frame(black_box(r)).expect("records encode"));
    });
    let frames: Vec<Vec<u8>> = records
        .iter()
        .map(|r| encode_frame(r).expect("records encode"))
        .collect();
    let crc_ns = per_item_ns(&frames, |f| {
        black_box(crc32(black_box(&f[FRAME_HEADER_LEN..])));
    });
    let append_ns = median(
        &(0..REPS)
            .map(|_| {
                let mut w =
                    SegmentedLogWriter::new(MemorySegments::new(), SegmentConfig::default());
                let t = Instant::now();
                for r in records {
                    w.write(black_box(r)).expect("memory append");
                }
                let ns = t.elapsed().as_nanos() as f64;
                black_box(w.into_sink().expect("memory sink"));
                ns / records.len().max(1) as f64
            })
            .collect::<Vec<_>>(),
    );
    let recover_ns = median(
        &(0..REPS)
            .map(|_| {
                let t = Instant::now();
                let (recs, stats) = recover_segments(black_box(segments));
                let ns = t.elapsed().as_nanos() as f64;
                black_box(recs);
                ns / stats.recovered.max(1) as f64
            })
            .collect::<Vec<_>>(),
    );
    SegmentCosts {
        encode_ns,
        crc_ns,
        append_ns,
        recover_ns,
    }
}

/// Costs of the wire proto codec on this run's `Decide` traffic.
#[derive(Debug, Clone, Copy)]
pub struct WireCosts {
    pub request_encode_ns: f64,
    pub request_decode_ns: f64,
    /// `encode_response` plus `decode_response_payload` of one decision.
    pub response_codec_ns: f64,
    /// Mean frame size of one `Decide` request.
    pub request_bytes: f64,
}

pub fn wire_costs(contexts: &[SimpleContext], records: &[LogRecord]) -> WireCosts {
    let requests: Vec<Request> = contexts
        .iter()
        .take(WIRE_SAMPLE)
        .enumerate()
        .map(|(i, ctx)| Request::Decide {
            shard: 0,
            now_ns: (i as u64 + 1) * TICK_NS,
            budget_ns: 0,
            context: ctx.clone(),
        })
        .collect();
    let request_encode_ns = per_item_ns(&requests, |r| {
        black_box(encode_request(7, black_box(r)));
    });
    let frames: Vec<Vec<u8>> = requests.iter().map(|r| encode_request(7, r)).collect();
    let request_decode_ns = per_item_ns(&frames, |f| {
        black_box(decode_request_frame(black_box(f)).expect("own frames decode"));
    });
    let request_bytes =
        frames.iter().map(|f| f.len() as f64).sum::<f64>() / frames.len().max(1) as f64;
    let responses: Vec<Response> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Decision(d) => Some(Response::Decision(WireDecision {
                request_id: d.request_id,
                shard: (d.request_id >> SEQ_BITS) as u32,
                action: d.action as u32,
                propensity: d.propensity.unwrap_or(1.0),
                explored: false,
                generation: 1,
                degraded: false,
            })),
            _ => None,
        })
        .take(WIRE_SAMPLE)
        .collect();
    let response_codec_ns = per_item_ns(&responses, |r| {
        let frame = encode_response(7, black_box(r));
        black_box(decode_response_payload(&frame[WIRE_HEADER_LEN..]).expect("own frames decode"));
    });
    WireCosts {
        request_encode_ns,
        request_decode_ns,
        response_codec_ns,
        request_bytes,
    }
}

/// Caller-side cost of the decide path on an idle twin service (same
/// policy and contexts, nothing else running).
#[derive(Debug, Clone, Copy)]
pub struct IdleCosts {
    /// One `decide`.
    pub decide_ns: f64,
    /// One `decide_batch` of [`BATCH`] contexts.
    pub batch_ns: f64,
    /// One `reward` that joins.
    pub reward_ns: f64,
}

pub fn idle_costs(seed: u64, inputs: &Inputs) -> IdleCosts {
    let contexts = &inputs.contexts[..IDLE_DECISIONS.min(inputs.contexts.len())];
    let mut decide = Vec::with_capacity(REPS);
    let mut batch = Vec::with_capacity(REPS);
    let mut reward = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let svc = boot(seed, true, &inputs.incumbent);
        let mut ids = Vec::with_capacity(contexts.len());
        let t = Instant::now();
        for (i, ctx) in contexts.iter().enumerate() {
            let d = svc
                .decide(0, (i as u64 + 1) * TICK_NS, ctx)
                .expect("idle decide");
            ids.push(black_box(d).request_id);
        }
        decide.push(t.elapsed().as_nanos() as f64 / contexts.len() as f64);
        let now_ns = (contexts.len() as u64 + 1) * TICK_NS;
        let rewarded = &ids[..IDLE_REWARDS.min(ids.len())];
        let t = Instant::now();
        for &id in rewarded {
            black_box(svc.reward(id, now_ns, 0.5));
        }
        reward.push(t.elapsed().as_nanos() as f64 / rewarded.len().max(1) as f64);
        black_box(svc.shutdown().expect("idle twin drains"));

        let svc = boot(seed, true, &inputs.incumbent);
        let mut out = DecisionBatch::with_capacity(BATCH);
        let calls = contexts.len() / BATCH;
        let t = Instant::now();
        for (b, chunk) in contexts.chunks_exact(BATCH).enumerate() {
            svc.decide_batch(0, (b as u64 + 1) * TICK_NS, chunk, &mut out)
                .expect("idle decide_batch");
            black_box(out.len());
        }
        batch.push(t.elapsed().as_nanos() as f64 / calls as f64);
        black_box(svc.shutdown().expect("idle twin drains"));
    }
    IdleCosts {
        decide_ns: median(&decide),
        batch_ns: median(&batch),
        reward_ns: median(&reward),
    }
}
