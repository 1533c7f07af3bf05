//! Property tests for the portfolio evaluator's headline invariant: the
//! parallel scavenge+merge over segment logs is **bit-for-bit identical**
//! to the sequential pass — for any workload shape, any segment size, any
//! worker count, and with at-rest log damage quarantining arbitrary
//! suffixes.
//!
//! Floating-point addition is not associative, so this only holds because
//! the evaluator fixes the partition (one partial per segment) and the
//! merge order (segment index), leaving the thread schedule nothing to
//! influence. These tests are the fence around that design.
//!
//! Parallel-versus-sequential cannot see a change that moves both passes
//! alike, so one golden log also pins the leaderboard bytes themselves.

use proptest::prelude::*;

use harvest::core::scorer::LinearScorer;
use harvest::estimators::{Candidate, EvaluatorConfig, GreedyScorerCandidate, PortfolioEvaluator};
use harvest::logs::record::{DecisionRecord, LogRecord, OutcomeRecord};
use harvest::logs::segment::{MemorySegments, SegmentConfig, SegmentedLogWriter};
use harvest::serve::{apply_at_rest_faults, AtRestFault, ChaosPlan};

/// A deterministic ε-greedy workload: x sweeps a low-discrepancy sequence,
/// rewards cross at x = 0.5, and odd requests resolve through outcome
/// records that trail their decisions (often into the next segment).
fn build_segments(n: usize, max_records: usize, outcome_burst: usize) -> Vec<Vec<u8>> {
    let mut w = SegmentedLogWriter::new(
        MemorySegments::new(),
        SegmentConfig {
            max_records,
            max_bytes: usize::MAX,
            max_span_ns: u64::MAX,
        },
    );
    let mut pending: Vec<(u64, f64)> = Vec::new();
    for i in 0..n as u64 {
        let x = ((i as f64) * 0.618_033_988_749_895).fract();
        let action = (i % 3 == 0) as usize;
        let propensity = if action == 0 { 0.7 } else { 0.3 };
        let reward = if action == 0 { x } else { 1.0 - x };
        let deferred = i % 2 == 1;
        w.write(&LogRecord::Decision(DecisionRecord {
            request_id: i,
            timestamp_ns: i * 1_000,
            component: "portfolio-prop".to_string(),
            shared_features: vec![x],
            action_features: None,
            num_actions: 2,
            action,
            propensity: Some(propensity),
            reward: (!deferred).then_some(reward),
        }))
        .unwrap();
        if deferred {
            pending.push((i, reward));
        }
        if pending.len() >= outcome_burst {
            for (rid, r) in pending.drain(..) {
                w.write(&LogRecord::Outcome(OutcomeRecord {
                    request_id: rid,
                    timestamp_ns: rid * 1_000 + 500,
                    reward: r,
                }))
                .unwrap();
            }
        }
    }
    for (rid, r) in pending.drain(..) {
        w.write(&LogRecord::Outcome(OutcomeRecord {
            request_id: rid,
            timestamp_ns: rid * 1_000 + 500,
            reward: r,
        }))
        .unwrap();
    }
    w.into_sink().unwrap().snapshot()
}

/// A k-candidate portfolio of distinct threshold policies.
fn evaluator(k: usize, parallelism: usize) -> PortfolioEvaluator {
    PortfolioEvaluator::builder()
        .config(
            EvaluatorConfig::builder()
                .clip(10.0)
                .delta(0.05)
                .parallelism(parallelism)
                .build(),
        )
        .candidates((0..k).map(|j| {
            let theta = 0.1 + 0.8 * (j as f64 + 0.5) / k as f64;
            Candidate::new(
                format!("cand-{j:02}"),
                GreedyScorerCandidate::new(
                    LinearScorer::PerAction {
                        weights: vec![vec![1.0, 0.0], vec![-1.0, 2.0 * theta]],
                    },
                    0.1,
                ),
            )
        }))
        .model(LinearScorer::PerAction {
            weights: vec![vec![1.0, 0.0], vec![-1.0, 1.0]],
        })
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Clean logs: any (workload, segmentation, k, worker count) pair of
    // passes produces the same bytes.
    #[test]
    fn parallel_equals_sequential_on_clean_logs(
        n in 40usize..400,
        max_records in 8usize..96,
        outcome_burst in 1usize..64,
        k in 1usize..14,
        workers in 2usize..9,
    ) {
        let segments = build_segments(n, max_records, outcome_burst);
        let (seq, seq_rec) = evaluator(k, 1).evaluate_segments(&segments);
        let (par, par_rec) = evaluator(k, workers).evaluate_segments(&segments);
        prop_assert_eq!(&seq_rec, &par_rec);
        prop_assert_eq!(&seq, &par);
        // Bit-for-bit, through the serialized form CI and dashboards see.
        prop_assert_eq!(seq.to_json(), par.to_json());
        prop_assert_eq!(seq.n, n);
        prop_assert_eq!(seq.entries.len(), k);
    }

    // Damaged logs: at-rest corruption quarantines arbitrary suffixes;
    // the quarantine decisions and the surviving scores must still be
    // schedule-independent.
    #[test]
    fn parallel_equals_sequential_under_at_rest_chaos(
        n in 120usize..400,
        max_records in 8usize..48,
        segment_frac in 0.0f64..1.0,
        frame_frac in 0.0f64..1.0,
        tear_frac in 0.0f64..1.0,
        keep_frac in 0.1f64..0.9,
        xor in 1u8..255,
        workers in 2usize..9,
    ) {
        let store = MemorySegments::new();
        store.replace_all(build_segments(n, max_records, 32));
        let plan = ChaosPlan::none()
            .damage_at_rest(AtRestFault::CorruptPayload {
                segment_frac,
                frame_frac,
                xor,
            })
            .damage_at_rest(AtRestFault::TearTail {
                segment_frac: tear_frac,
                keep_frac,
            });
        prop_assert!(apply_at_rest_faults(&plan, &store) > 0);
        let damaged = store.snapshot();

        let (seq, seq_rec) = evaluator(6, 1).evaluate_segments(&damaged);
        let (par, par_rec) = evaluator(6, workers).evaluate_segments(&damaged);
        prop_assert_eq!(&seq_rec, &par_rec);
        prop_assert_eq!(&seq, &par);
        prop_assert_eq!(seq.to_json(), par.to_json());
        // The ledger accounts for the damage instead of hiding it.
        prop_assert!(seq_rec.quarantined_records > 0);
        prop_assert_eq!(seq.quarantined, seq_rec.quarantined_records);
        prop_assert!(seq.n <= n);
    }

    // The exported leaderboard JSON is a pure function of the log bytes:
    // rebuilding the same workload reproduces it exactly.
    #[test]
    fn leaderboard_json_is_deterministic(
        n in 40usize..250,
        max_records in 8usize..64,
        k in 1usize..10,
    ) {
        let a = evaluator(k, 4)
            .evaluate_segments(&build_segments(n, max_records, 16))
            .0
            .to_json();
        let b = evaluator(k, 4)
            .evaluate_segments(&build_segments(n, max_records, 16))
            .0
            .to_json();
        prop_assert_eq!(a, b);
    }
}

/// SplitMix64 draws in `[-1, 1)`: the golden log's feature source, fixed
/// here so the log never depends on a library's generator.
fn golden_draw(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    2.0 * ((z >> 11) as f64 / (1u64 << 53) as f64) - 1.0
}

/// The golden log: single and batched decisions over 10 actions (a full
/// tile of eight plus a padded one) and 3 actions, some with per-action
/// features; inline rewards, outcomes that override them, outcomes that
/// land segments later, outcomes superseded by a later one, orphan
/// outcomes, decisions that never resolve, invalid decisions of every
/// kind, and one damaged segment.
fn golden_segments() -> Vec<Vec<u8>> {
    use harvest::logs::record::{BatchDecision, BatchRecord};
    let mut w = SegmentedLogWriter::new(
        MemorySegments::new(),
        SegmentConfig {
            max_records: 24,
            max_bytes: usize::MAX,
            max_span_ns: u64::MAX,
        },
    );
    let mut rng = 42u64;
    let mut deferred: Vec<(u64, f64)> = Vec::new();
    let mut batch: Vec<BatchDecision> = Vec::new();
    for i in 0..360u64 {
        let num_actions = if i % 7 == 3 { 3 } else { 10 };
        let shared: Vec<f64> = (0..4).map(|_| golden_draw(&mut rng)).collect();
        let mut action = (golden_draw(&mut rng).abs() * num_actions as f64) as usize;
        let mut action_features = (i % 5 == 1).then(|| {
            (0..num_actions)
                .map(|_| (0..2).map(|_| golden_draw(&mut rng)).collect::<Vec<f64>>())
                .collect::<Vec<_>>()
        });
        let reward = 0.5 + 0.5 * golden_draw(&mut rng);
        match i % 31 {
            // Invalid: the action is out of range.
            13 => action = num_actions,
            // Invalid: ragged per-action features.
            17 => action_features = Some((0..num_actions).map(|a| vec![1.0; 1 + a % 2]).collect()),
            _ => {}
        }
        let propensity = (i % 4 != 2).then_some(if i % 3 == 0 { 0.55 } else { 0.05 });
        // Inline rewards on even ids; odd ids resolve through an outcome
        // written up to 40 decisions later; every ninth id never resolves.
        let inline = i % 2 == 0;
        if !inline && i % 9 != 0 {
            deferred.push((i, reward));
            // A superseded outcome: the later one for this id must win.
            if i % 13 == 1 {
                w.write(&LogRecord::Outcome(OutcomeRecord {
                    request_id: i,
                    timestamp_ns: i * 1_000 + 100,
                    reward: -5.0,
                }))
                .unwrap();
            }
        }
        // Every eleventh inline reward is overridden by a later outcome.
        if inline && i % 11 == 0 {
            deferred.push((i, 1.0 - reward));
        }
        let d = BatchDecision {
            request_id: i,
            timestamp_ns: i * 1_000,
            shared_features: shared,
            action_features,
            num_actions,
            action,
            propensity,
            reward: inline.then_some(reward),
        };
        if i % 3 == 0 {
            w.write(&LogRecord::Decision(d.into_decision("golden")))
                .unwrap();
        } else {
            batch.push(d);
            if batch.len() == 4 {
                w.write(&LogRecord::Batch(BatchRecord {
                    component: "golden".to_string(),
                    decisions: std::mem::take(&mut batch),
                }))
                .unwrap();
            }
        }
        if deferred.len() >= 20 {
            for (id, r) in deferred.drain(..) {
                // A NaN outcome makes its decision invalid.
                let r = if id % 29 == 5 { f64::NAN } else { r };
                w.write(&LogRecord::Outcome(OutcomeRecord {
                    request_id: id,
                    timestamp_ns: id * 1_000 + 500,
                    reward: r,
                }))
                .unwrap();
            }
            // An orphan: no decision ever carries this id.
            w.write(&LogRecord::Outcome(OutcomeRecord {
                request_id: 1_000_000 + i,
                timestamp_ns: i * 1_000 + 700,
                reward: 0.25,
            }))
            .unwrap();
        }
    }
    for (id, r) in deferred.drain(..) {
        w.write(&LogRecord::Outcome(OutcomeRecord {
            request_id: id,
            timestamp_ns: id * 1_000 + 500,
            reward: r,
        }))
        .unwrap();
    }
    let store = w.into_sink().unwrap();
    assert!(store.corrupt_payload(4, 3, 0x20));
    store.snapshot()
}

/// The golden portfolio: greedy candidates over 10 weight rows, one over
/// only 3 rows (actions past them score `-∞`), a pure greedy one, the
/// uniform incumbent, and a 10-row DR model.
fn golden_evaluator(parallelism: usize) -> PortfolioEvaluator {
    use harvest::core::policy::UniformPolicy;
    use harvest::estimators::portfolio::StochasticCandidate;
    let mut rng = 7u64;
    let mut rows = |n: usize| -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| (0..5).map(|_| golden_draw(&mut rng)).collect())
            .collect()
    };
    let model = LinearScorer::PerAction { weights: rows(10) };
    let mut candidates: Vec<Candidate> = (0..5)
        .map(|j| {
            Candidate::new(
                format!("greedy-{j}"),
                GreedyScorerCandidate::new(LinearScorer::PerAction { weights: rows(10) }, 0.1),
            )
        })
        .collect();
    candidates.push(Candidate::new(
        "short-rows",
        GreedyScorerCandidate::new(LinearScorer::PerAction { weights: rows(3) }, 0.2),
    ));
    candidates.push(Candidate::new(
        "pure-greedy",
        GreedyScorerCandidate::new(LinearScorer::PerAction { weights: rows(10) }, 0.0),
    ));
    candidates.push(Candidate::new(
        "uniform",
        StochasticCandidate(UniformPolicy::new()),
    ));
    PortfolioEvaluator::builder()
        .config(
            EvaluatorConfig::builder()
                .clip(10.0)
                .delta(0.05)
                .parallelism(parallelism)
                .build(),
        )
        .candidates(candidates)
        .model(model)
        .build()
        .unwrap()
}

/// The leaderboard and recovery ledger of the golden log as the
/// recover-then-scavenge evaluator computed them, before scoring moved to
/// action panels and recovery to in-place scans: any change to a join, a
/// skip rule, a score or the order of a floating-point addition changes
/// these bytes.
const GOLDEN_JSON: &str = concat!(
    r#"{"n":298,"segments":23,"quarantined":18,"skipped":62,"entries":["#,
    r#"{"rank":1,"name":"uniform","ips":{"point":0.8192483148586797,"lcb":-0.4193841672424573,"ucb":2.0578807969598167,"ess":163.37504974228762,"n":298},"snips":{"point":0.48503840628056927,"lcb":-0.7535940758205677,"ucb":1.7236708883817062,"ess":163.37504974228762,"n":298},"dr":{"point":0.7059200949242392,"lcb":-1.3123598409389248,"ucb":2.7242000307874035,"ess":163.37504974228762,"n":298},"ess":163.37504974228762,"clipped_mass":0},"#,
    r#"{"rank":2,"name":"short-rows","ips":{"point":0.682707195955588,"lcb":-0.3955109892052878,"ucb":1.760925381116464,"ess":44.26533858160169,"n":298},"snips":{"point":0.4917992281329173,"lcb":-1.1525993775525754,"ucb":2.13619783381841,"ess":44.26533858160169,"n":298},"dr":{"point":0.653571047150466,"lcb":-2.1469101493759695,"ucb":3.4540522436769017,"ess":44.26533858160169,"n":298},"ess":44.26533858160169,"clipped_mass":0.684289406807272},"#,
    r#"{"rank":3,"name":"greedy-2","ips":{"point":0.5375937623026285,"lcb":-0.4378056768354056,"ucb":1.5129932014406626,"ess":31.647972846899417,"n":298},"snips":{"point":0.5055435077460275,"lcb":-1.1646341066063066,"ucb":2.175721122098362,"ess":31.647972846899417,"n":298},"dr":{"point":1.0726568644655403,"lcb":-2.717882436612049,"ucb":4.86319616554313,"ess":31.647972846899417,"n":298},"ess":31.647972846899417,"clipped_mass":0.659341254894522},"#,
    r#"{"rank":4,"name":"greedy-3","ips":{"point":0.5306194227996671,"lcb":-0.5043054969378215,"ucb":1.5655443425371556,"ess":29.419564656113437,"n":298},"snips":{"point":0.5613717038417577,"lcb":-1.2127417813428658,"ucb":2.335485189026381,"ess":29.419564656113437,"n":298},"dr":{"point":0.8982972208264097,"lcb":-2.5678802991679444,"ucb":4.364474740820763,"ess":29.419564656113437,"n":298},"ess":29.419564656113437,"clipped_mass":0.7011313457819851},"#,
    r#"{"rank":5,"name":"greedy-1","ips":{"point":0.5312332269384097,"lcb":-0.43684726839715515,"ucb":1.4993137222739745,"ess":34.714609304399,"n":298},"snips":{"point":0.4659539878533837,"lcb":-1.228155904479121,"ucb":2.1600638801858882,"ess":34.714609304399,"n":298},"dr":{"point":0.922792296229054,"lcb":-2.770850562548999,"ucb":4.616435155007107,"ess":34.714609304399,"n":298},"ess":34.714609304399,"clipped_mass":0.7898149612525701},"#,
    r#"{"rank":6,"name":"pure-greedy","ips":{"point":0.3847411394728746,"lcb":-0.4758885477278558,"ucb":1.245370826673605,"ess":25.866790253033997,"n":298},"snips":{"point":0.40794057920198284,"lcb":-1.232331966006752,"ucb":2.048213124410718,"ess":25.866790253033997,"n":298},"dr":{"point":0.596241599137063,"lcb":-3.4329303381004848,"ucb":4.6254135363746105,"ess":25.866790253033997,"n":298},"ess":25.866790253033997,"clipped_mass":0.7376362112321879},"#,
    r#"{"rank":7,"name":"greedy-4","ips":{"point":0.6239662662130421,"lcb":-0.4058357160642312,"ucb":1.6537682484903153,"ess":37.10055647868815,"n":298},"snips":{"point":0.5060023870481374,"lcb":-1.2878102746453528,"ucb":2.2998150487416273,"ess":37.10055647868815,"n":298},"dr":{"point":1.3741681737533875,"lcb":-4.1019554006345755,"ucb":6.850291748141351,"ess":37.10055647868815,"n":298},"ess":37.10055647868815,"clipped_mass":0.8152491151083604},"#,
    r#"{"rank":8,"name":"greedy-0","ips":{"point":0.6410284666559097,"lcb":-0.3827497421086662,"ucb":1.6648066754204858,"ess":39.900308491694396,"n":298},"snips":{"point":0.48519472185741686,"lcb":-1.3165426614326263,"ucb":2.28693210514746,"ess":39.900308491694396,"n":298},"dr":{"point":0.7468240399283265,"lcb":-3.0663950767146537,"ucb":4.560043156571306,"ess":39.900308491694396,"n":298},"ess":39.900308491694396,"clipped_mass":0.8536890410186004}]}"#,
);
const GOLDEN_RECOVERY: &str = "RecoveryStats { segments: 23, corrupt_segments: 1, recovered: 539, quarantined_records: 18, quarantined_bytes: 612 }";

#[test]
fn golden_leaderboard_bytes_are_pinned() {
    let segments = golden_segments();
    for workers in [1, 3] {
        let (report, recovery) = golden_evaluator(workers).evaluate_segments(&segments);
        assert_eq!(report.to_json(), GOLDEN_JSON, "{workers} workers");
        assert_eq!(
            format!("{recovery:?}"),
            GOLDEN_RECOVERY,
            "{workers} workers"
        );
    }
}
