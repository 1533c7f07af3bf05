//! Property-based tests (proptest) over the workspace's core invariants.
//!
//! These cover the laws the estimators and data structures must uphold for
//! *any* input, not just the hand-picked cases of the unit tests.

use proptest::prelude::*;

use harvest::core::linalg::Matrix;
use harvest::core::policy::{
    validate_distribution, ConstantPolicy, EpsilonGreedyPolicy, StochasticPolicy, UniformPolicy,
    WeightedPolicy,
};
use harvest::core::sample::RewardScaling;
use harvest::core::simulate::simulate_exploration;
use harvest::core::{
    Dataset, FullFeedbackDataset, FullFeedbackSample, LoggedDecision, SimpleContext,
};
use harvest::estimators::{EstimatorKind, OffPolicyEvaluator};
use harvest::logs::nginx::{parse_line, NginxLogLine};
use harvest::logs::reward::{reconstruct_rewards, AccessEvent, EvictionEvent};
use harvest::simnet::{EventQueue, SimTime};

/// Strategy: a logged decision over `k` featureless actions.
fn decision(k: usize) -> impl Strategy<Value = LoggedDecision<SimpleContext>> {
    (0..k, -10.0f64..10.0, 0.05f64..=1.0).prop_map(move |(action, reward, propensity)| {
        LoggedDecision {
            context: SimpleContext::contextless(k),
            action,
            reward,
            propensity,
        }
    })
}

proptest! {
    #[test]
    fn event_queue_pops_sorted_and_fifo_stable(
        times in proptest::collection::vec(0u64..1_000, 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(ev.at >= lt, "time order violated");
                if ev.at == lt {
                    prop_assert!(ev.event > li, "FIFO tie-break violated");
                }
            }
            last = Some((ev.at, ev.event));
        }
    }

    #[test]
    fn reward_scaling_round_trips(lo in -1e6f64..1e6, span in 1e-6f64..1e6, x in -1e6f64..1e6) {
        let hi = lo + span;
        let s = RewardScaling::from_range(lo, hi);
        let rel = |a: f64, b: f64| (a - b).abs() / (1.0 + a.abs().max(b.abs()));
        prop_assert!(rel(s.invert(s.apply(x)), x) < 1e-9);
        prop_assert!(s.apply(lo).abs() < 1e-9);
        prop_assert!((s.apply(hi) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stochastic_policies_emit_valid_distributions(
        k in 1usize..12,
        eps in 0.0f64..=1.0,
        weights in proptest::collection::vec(0.01f64..10.0, 1..12)
    ) {
        let ctx = SimpleContext::contextless(k);
        validate_distribution(&UniformPolicy::new().action_probabilities(&ctx)).unwrap();
        let eg = EpsilonGreedyPolicy::new(ConstantPolicy::new(0), eps).unwrap();
        validate_distribution(&eg.action_probabilities(&ctx)).unwrap();
        let w = WeightedPolicy::new(weights).unwrap();
        validate_distribution(&w.action_probabilities(&ctx)).unwrap();
    }

    #[test]
    fn sampled_propensities_match_reported_distribution(
        k in 1usize..8,
        eps in 0.01f64..=1.0,
        seed in 0u64..1_000
    ) {
        use rand::SeedableRng;
        let ctx = SimpleContext::contextless(k);
        let pol = EpsilonGreedyPolicy::new(ConstantPolicy::new(k / 2), eps).unwrap();
        let probs = pol.action_probabilities(&ctx);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (a, p) = pol.sample(&ctx, &mut rng);
        prop_assert!(a < k);
        prop_assert!((p - probs[a]).abs() < 1e-12);
    }

    #[test]
    fn ips_on_own_data_with_unit_propensity_is_mean_reward(
        rewards in proptest::collection::vec(-5.0f64..5.0, 1..100),
    ) {
        // A point-mass logging policy (p = 1) evaluated on itself must
        // reproduce the empirical mean exactly.
        let samples: Vec<_> = rewards.iter().map(|&r| LoggedDecision {
            context: SimpleContext::contextless(3),
            action: 1,
            reward: r,
            propensity: 1.0,
        }).collect();
        let data = Dataset::from_samples(samples).unwrap();
        let est = OffPolicyEvaluator::new(EstimatorKind::Ips)
            .evaluate(&data, &ConstantPolicy::new(1));
        let mean = rewards.iter().sum::<f64>() / rewards.len() as f64;
        prop_assert!((est.value - mean).abs() < 1e-9);
        prop_assert_eq!(est.matched, rewards.len());
    }

    #[test]
    fn snips_stays_within_matched_reward_range(
        samples in proptest::collection::vec(decision(4), 1..200),
        target in 0usize..4
    ) {
        let data = Dataset::from_samples(samples.clone()).unwrap();
        let pol = ConstantPolicy::new(target);
        let est = OffPolicyEvaluator::new(EstimatorKind::Snips).evaluate(&data, &pol);
        if est.matched > 0 {
            let matched: Vec<f64> = samples.iter()
                .filter(|s| s.action == target)
                .map(|s| s.reward)
                .collect();
            let lo = matched.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = matched.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(est.value >= lo - 1e-9 && est.value <= hi + 1e-9,
                "snips {} outside [{lo}, {hi}]", est.value);
        }
    }

    #[test]
    fn exploration_simulation_reveals_only_true_rewards(
        rewards_matrix in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..1.0, 3), 1..50),
        seed in 0u64..500
    ) {
        use rand::SeedableRng;
        let samples: Vec<_> = rewards_matrix.iter().cloned().map(|rewards| {
            FullFeedbackSample { context: SimpleContext::contextless(3), rewards }
        }).collect();
        let full = FullFeedbackDataset::from_samples(samples).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let expl = simulate_exploration(&full, &UniformPolicy::new(), &mut rng);
        prop_assert_eq!(expl.len(), rewards_matrix.len());
        for (s, row) in expl.iter().zip(&rewards_matrix) {
            prop_assert_eq!(s.reward, row[s.action]);
            prop_assert!((s.propensity - 1.0/3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn spd_solves_have_small_residuals(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..1.0, 4), 4..20),
        b in proptest::collection::vec(-1.0f64..1.0, 4)
    ) {
        let mut gram = Matrix::zeros(4, 4);
        for r in &rows {
            gram.rank1_update(r, 1.0);
        }
        gram.add_diagonal(0.5); // ridge => strictly PD
        let w = gram.solve_spd(&b).unwrap();
        let back = gram.mat_vec(&w);
        for i in 0..4 {
            prop_assert!((back[i] - b[i]).abs() < 1e-8, "residual at {i}");
        }
    }

    #[test]
    fn nginx_lines_round_trip(
        addr_a in 1u8..255, addr_b in 1u8..255,
        msec in 0.0f64..1e6,
        status in 100u16..600,
        bytes in 0u64..1_000_000,
        rt in 0.0f64..100.0,
        conns in proptest::collection::vec(0u32..1000, 1..16),
        req_id in 0u64..u64::MAX / 2,
        upstream_pick in 0usize..16,
    ) {
        let upstream = upstream_pick % conns.len();
        let line = NginxLogLine {
            remote_addr: format!("10.0.{addr_a}.{addr_b}"),
            msec: (msec * 1e6).round() / 1e6, // quantized to the format's precision
            method: "GET".to_string(),
            uri: "/api/v1/x".to_string(),
            protocol: "HTTP/1.1".to_string(),
            status,
            body_bytes: bytes,
            upstream,
            request_time: (rt * 1e6).round() / 1e6,
            connections: conns,
            request_id: req_id,
        };
        let parsed = parse_line(&line.format_line()).unwrap();
        prop_assert_eq!(parsed, line);
    }

    #[test]
    fn reconstructed_rewards_are_capped_and_non_negative(
        accesses in proptest::collection::vec((0u64..1_000, 0u64..20), 0..300),
        evictions in proptest::collection::vec((0u64..1_000, 0u64..20), 1..50),
        horizon in 1.0f64..1000.0
    ) {
        let acc: Vec<AccessEvent> = accesses.iter().map(|&(t, k)| AccessEvent {
            timestamp_ns: t * 1_000_000_000,
            key: k,
        }).collect();
        let ev: Vec<EvictionEvent> = evictions.iter().map(|&(t, k)| EvictionEvent {
            timestamp_ns: t * 1_000_000_000,
            key: k,
        }).collect();
        let rewards = reconstruct_rewards(&acc, &ev, horizon);
        prop_assert_eq!(rewards.len(), ev.len());
        for r in &rewards {
            prop_assert!(r.time_to_next_access_s >= 0.0);
            prop_assert!(r.time_to_next_access_s <= horizon);
            if r.censored {
                prop_assert_eq!(r.time_to_next_access_s, horizon);
            }
        }
    }

    #[test]
    fn dataset_split_partitions_in_order(
        samples in proptest::collection::vec(decision(3), 0..100),
        cut in 0usize..120
    ) {
        let data = Dataset::from_samples(samples.clone()).unwrap();
        let (train, test) = data.split_at(cut);
        prop_assert_eq!(train.len() + test.len(), samples.len());
        let rejoined: Vec<_> = train.iter().chain(test.iter()).cloned().collect();
        prop_assert_eq!(rejoined, samples);
    }
}

// ---------------------------------------------------------------------------
// Crash-safe segment properties: the checksummed frame format must replay
// exactly the longest valid prefix under any truncation or payload
// corruption, quarantining (counting, never silently skipping) the rest.
// ---------------------------------------------------------------------------

use harvest::logs::record::{BatchDecision, BatchRecord, LogRecord, OutcomeRecord};
use harvest::logs::segment::{
    encode_frame, recover_segment, replay_prefix, scan_segment, MemorySegments, SegmentConfig,
    SegmentedLogWriter,
};

/// Strategy: one decision, with optional propensity, reward and per-action
/// features — every shape the binary codec's flags select.
fn segment_decision() -> impl Strategy<Value = BatchDecision> {
    (
        any::<u64>(),
        0u64..u64::MAX / 2,
        proptest::collection::vec(-1e9f64..1e9, 0..6),
        1usize..6,
        proptest::option::of(0.0f64..=1.0),
        proptest::option::of(-1e9f64..1e9),
        proptest::option::of(proptest::collection::vec(-1.0f64..1.0, 0..3)),
    )
        .prop_map(
            |(id, t, shared, k, propensity, reward, row)| BatchDecision {
                request_id: id,
                timestamp_ns: t,
                shared_features: shared,
                action_features: row.map(|r| vec![r; k]),
                num_actions: k,
                action: (id % k as u64) as usize,
                propensity,
                reward,
            },
        )
}

/// Strategy: one record of any kind — decision, outcome, or batch — with
/// arbitrary finite fields, so the codec's every tag and flag is covered.
fn segment_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (any::<u64>(), 0u64..u64::MAX / 2, -1e9f64..1e9).prop_map(|(id, t, r)| {
            LogRecord::Outcome(OutcomeRecord {
                request_id: id,
                timestamp_ns: t,
                reward: r,
            })
        }),
        segment_decision().prop_map(|d| LogRecord::Decision(d.into_decision("serve"))),
        proptest::collection::vec(segment_decision(), 0..4).prop_map(|decisions| {
            LogRecord::Batch(BatchRecord {
                component: "batch".to_string(),
                decisions,
            })
        }),
    ]
}

/// What recovery yields for `records`: batches flatten into decisions.
fn recovered_view(records: &[LogRecord]) -> Vec<LogRecord> {
    records
        .iter()
        .flat_map(|r| match r {
            LogRecord::Batch(b) => b.flatten().map(LogRecord::Decision).collect::<Vec<_>>(),
            other => vec![other.clone()],
        })
        .collect()
}

/// One segment of `records`, plus the byte offset each frame starts at.
fn framed(records: &[LogRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut start_of = Vec::new();
    for r in records {
        start_of.push(bytes.len());
        bytes.extend_from_slice(&encode_frame(r).unwrap());
    }
    (bytes, start_of)
}

proptest! {
    // Checksum round-trip: whatever goes through the segmented writer comes
    // back exactly, in order, clean, regardless of rotation boundaries.
    #[test]
    fn segments_round_trip_any_records(
        records in proptest::collection::vec(segment_record(), 0..60),
        max_records in 1usize..10,
    ) {
        let store = MemorySegments::new();
        let mut writer = SegmentedLogWriter::new(
            store.clone(),
            SegmentConfig { max_records, max_bytes: usize::MAX, max_span_ns: u64::MAX },
        );
        for r in &records {
            writer.write(r).unwrap();
        }
        writer.flush().unwrap();
        let (recovered, stats) = store.recover();
        let expected = recovered_view(&records);
        prop_assert_eq!(&recovered, &expected);
        prop_assert_eq!(stats.recovered, expected.len());
        prop_assert_eq!(stats.quarantined_records, 0);
        prop_assert_eq!(stats.corrupt_segments, 0);
    }

    // Truncation at ANY byte offset: recovery replays exactly the frames
    // wholly inside the prefix; a non-empty partial tail is quarantined as
    // exactly one record and every surviving byte is accounted for.
    #[test]
    fn truncation_recovers_exactly_the_longest_valid_prefix(
        records in proptest::collection::vec(segment_record(), 1..30),
        cut_frac in 0.0f64..=1.0,
    ) {
        let (bytes, start_of) = framed(&records);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let truncated = &bytes[..cut.min(bytes.len())];

        // Frames wholly inside the prefix.
        let complete = start_of
            .iter()
            .skip(1)
            .chain(std::iter::once(&bytes.len()))
            .filter(|&&end| end <= truncated.len())
            .count();
        let (recovered, stats) = recover_segment(truncated);
        let expected = recovered_view(&records[..complete]);
        prop_assert_eq!(&recovered, &expected);
        prop_assert_eq!(stats.recovered, expected.len());
        let valid_end = start_of.get(complete).copied().unwrap_or(bytes.len());
        let partial_bytes = truncated.len() - valid_end;
        prop_assert_eq!(stats.quarantined_records, usize::from(partial_bytes > 0));
        prop_assert_eq!(stats.quarantined_bytes, partial_bytes);
    }

    // Payload corruption (one XORed byte): recovery stops at the damaged
    // frame and quarantines it plus everything after it — the damaged
    // frame as one record, every later frame (still structurally walkable
    // and intact) with its full record count.
    #[test]
    fn payload_corruption_quarantines_the_damaged_suffix(
        records in proptest::collection::vec(segment_record(), 1..30),
        frame_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let (mut bytes, start_of) = framed(&records);
        let target = ((records.len() as f64) * frame_frac) as usize % records.len();
        // Corrupt strictly inside the payload (past the 8-byte header).
        let frame_end = start_of.get(target + 1).copied().unwrap_or(bytes.len());
        let payload_len = frame_end - start_of[target] - 8;
        let hit = start_of[target] + 8 + ((payload_len as f64 * byte_frac) as usize).min(payload_len - 1);
        bytes[hit] ^= xor;

        let (recovered, stats) = recover_segment(&bytes);
        let expected = recovered_view(&records[..target]);
        prop_assert_eq!(&recovered, &expected);
        prop_assert_eq!(stats.recovered, expected.len());
        let intact_after: usize = records[target + 1..].iter().map(LogRecord::record_count).sum();
        prop_assert_eq!(stats.quarantined_records, 1 + intact_after);
        prop_assert_eq!(stats.quarantined_bytes, bytes.len() - start_of[target]);
    }

    // Any single flipped byte — length, checksum or payload — is caught:
    // recovery keeps exactly the frames before the damaged one, never a
    // record that was not written, and quarantines the rest.
    #[test]
    fn any_single_byte_flip_is_detected_and_counted(
        records in proptest::collection::vec(segment_record(), 1..20),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let (mut bytes, start_of) = framed(&records);
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= xor;
        let target = start_of.partition_point(|&s| s <= pos) - 1;

        let (recovered, stats) = recover_segment(&bytes);
        let expected = recovered_view(&records[..target]);
        prop_assert_eq!(&recovered, &expected);
        prop_assert_eq!(stats.recovered, expected.len());
        prop_assert!(stats.quarantined_records >= 1);
        prop_assert_eq!(stats.quarantined_bytes, bytes.len() - start_of[target]);
    }

    // The in-place scan is recovery without the copies: for any stream,
    // truncation and flipped byte it visits exactly the records
    // `recover_segment` returns, reports the same ledger, and its valid
    // prefix replays (without CRCs) to the same records again.
    #[test]
    fn scan_visits_exactly_what_recovery_returns(
        records in proptest::collection::vec(segment_record(), 0..20),
        cut_frac in 0.0f64..=1.0,
        flip in proptest::option::of((0.0f64..1.0, 1u8..=255)),
    ) {
        let (mut bytes, _) = framed(&records);
        if let (Some((pos_frac, xor)), false) = (flip, bytes.is_empty()) {
            let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
            bytes[pos] ^= xor;
        }
        bytes.truncate(((bytes.len() as f64) * cut_frac) as usize);

        let (recovered, want) = recover_segment(&bytes);
        let mut visited = Vec::new();
        let (got, prefix) = scan_segment(&bytes, |r| visited.push(r.to_record()));
        prop_assert_eq!(&visited, &recovered);
        prop_assert_eq!(got, want);
        prop_assert_eq!(prefix, bytes.len() - got.quarantined_bytes);
        let mut replayed = Vec::new();
        replay_prefix(&bytes[..prefix], |r| replayed.push(r.to_record()));
        prop_assert_eq!(&replayed, &recovered);
    }
}

// ---------------------------------------------------------------------------
// Prometheus exposition conformance: every page the workspace produces —
// the service export (serve + scope + trace families) and the wire
// front-end's own metrics page — must satisfy the exposition grammar the
// scraper-facing validator enforces (HELP/TYPE before samples, no family
// interleaving or duplicates, histograms closed with +Inf/_sum/_count),
// for ANY workload shape: decision count, reward mix, injected door
// sheds, tick cadence, gate rounds, and scrape traffic are all drawn by
// proptest.
// ---------------------------------------------------------------------------

use std::sync::Arc;

use harvest::logs::segment::MemorySegments as PromSegments;
use harvest::obs::validate_exposition;
use harvest::serve::{DecisionService, ScopeConfig, ServeConfig, TrainerConfig};
use harvest::wire::{Duplex, OpsQuery, OpsResponse, WireConfig, WireCore};

proptest! {
    // Each case builds a live service (writer thread and all), so keep the
    // case count modest; the shapes explored per case are what matter.
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn every_exposition_the_workspace_produces_conforms(
        seed in any::<u64>(),
        decisions in 1usize..120,
        burst in 0u64..300,
        ticks in 1u64..5,
        train in any::<bool>(),
        scrapes in 0usize..4,
    ) {
        use rand::{Rng, SeedableRng};
        let store = PromSegments::new();
        let cfg = ServeConfig::builder()
            .shards(2)
            .epsilon(0.2)
            .master_seed(seed)
            .component("prom-conformance")
            .trainer(TrainerConfig::builder().lambda(1e-3).build())
            .scope(
                ScopeConfig::builder()
                    .window_ns(10_000_000)
                    .windows(16)
                    .build(),
            )
            .build()
            .expect("valid config");
        let svc = DecisionService::new(cfg, store.clone());
        let mut traffic = rand::rngs::StdRng::seed_from_u64(seed);
        let mut now_ns = 0u64;
        for i in 0..decisions {
            now_ns += 1_000_000;
            let x: f64 = traffic.gen_range(0.0..1.0);
            let ctx = SimpleContext::new(vec![x], 2);
            let d = svc.decide(i % 2, now_ns, &ctx).expect("decide");
            svc.reward(d.request_id, now_ns + 500_000, if d.action == 0 { x } else { 1.0 - x });
        }
        svc.metrics_handle().record_admission_shed_n(burst);
        while svc.metrics().log_backlog > 0 {
            std::thread::yield_now();
        }
        if train {
            let _ = svc.train_and_maybe_promote(&store.snapshot());
        }
        for t in 1..=ticks {
            svc.scope_tick(now_ns + t * 10_000_000);
        }

        // The wire front-end's own page, after a proptest-chosen amount of
        // scrape traffic has moved its ops ledger.
        let svc = Arc::new(svc);
        let core = Arc::new(WireCore::new(Arc::clone(&svc), WireConfig::default()));
        let duplex = Duplex::new(core.clone());
        let mut conn = duplex.connect();
        for _ in 0..scrapes {
            match conn.ops(&OpsQuery::Prometheus).expect("scrape") {
                OpsResponse::Report { .. } | OpsResponse::Shed { .. } => {}
            }
        }
        let wire_page = core.metrics().export_prometheus();
        prop_assert!(
            validate_exposition(&wire_page).is_ok(),
            "wire exposition violated: {:?}",
            validate_exposition(&wire_page)
        );

        // The service page — serve counters, stage/scope families, trace
        // health, quality gauges when a gate round ran — scraped remotely
        // must be the same conforming bytes.
        let remote = match conn.ops(&OpsQuery::Prometheus).expect("scrape") {
            OpsResponse::Report { body } => body,
            OpsResponse::Shed { reason } => panic!("scrape shed: {reason}"),
        };
        let local = svc.export_prometheus();
        prop_assert!(
            validate_exposition(&local).is_ok(),
            "service exposition violated: {:?}",
            validate_exposition(&local)
        );
        prop_assert_eq!(remote, local);

        drop(conn);
        drop(duplex);
        drop(core);
        let svc = Arc::try_unwrap(svc).ok().expect("wire handles released");
        svc.shutdown().expect("clean shutdown");
    }
}
