//! The two joins of logged decisions with their outcomes agree on which
//! decisions count and what reward each one has: the owned-record harvest
//! pipeline over recovered records, and the in-place segment join the
//! portfolio pass and the serve trainer read. A decision logged with a
//! propensity outside `(0, 1]` is skipped by one and dropped by the other,
//! and never reaches an estimate.

use harvest_core::policy::UniformPolicy;
use harvest_core::scorer::LinearScorer;
use harvest_core::SimpleContext;
use harvest_estimators::{Candidate, GreedyScorerCandidate, PortfolioEvaluator};
use harvest_log::record::{DecisionRecord, LogRecord, OutcomeRecord};
use harvest_log::scavenge::SegmentJoin;
use harvest_log::segment::{MemorySegments, SegmentConfig, SegmentedLogWriter};
use harvest_log::{recover_segments, HarvestPipeline, KnownPropensity};

fn decision(id: u64) -> LogRecord {
    LogRecord::Decision(DecisionRecord {
        request_id: id,
        timestamp_ns: id,
        component: "evaluable".to_string(),
        shared_features: vec![id as f64 / 10.0],
        action_features: None,
        num_actions: 2,
        action: (id % 2) as usize,
        propensity: Some(0.5),
        reward: None,
    })
}

fn outcome(id: u64, reward: f64) -> LogRecord {
    LogRecord::Outcome(OutcomeRecord {
        request_id: id,
        timestamp_ns: id + 100,
        reward,
    })
}

/// `records` written to a store that rotates every `max_records`.
fn write(records: &[LogRecord], max_records: usize) -> MemorySegments {
    let cfg = SegmentConfig {
        max_records,
        ..SegmentConfig::default()
    };
    let mut w = SegmentedLogWriter::new(MemorySegments::new(), cfg);
    for r in records {
        w.write(r).unwrap();
    }
    w.into_sink().unwrap()
}

/// The `(request_id, reward)` of every decision each join keeps, after
/// checking that the two lists are equal.
fn joins_agree(segments: &[Vec<u8>]) -> Vec<(u64, f64)> {
    let (records, _) = recover_segments(segments);
    let (data, report) = HarvestPipeline::new(KnownPropensity::new(UniformPolicy::new()), true)
        .run(&records)
        .unwrap();
    let owned: Vec<(u64, f64)> = report
        .request_ids
        .iter()
        .zip(data.iter())
        .map(|(&id, s)| (id, s.reward))
        .collect();
    let join = SegmentJoin::new(segments, 1);
    let mut in_place = Vec::new();
    let mut context = SimpleContext::contextless(1);
    for i in 0..segments.len() {
        join.replay(i, &mut context, |id, d| in_place.push((id, d.reward)));
    }
    assert_eq!(owned.len(), data.len());
    assert_eq!(in_place, owned);
    in_place
}

#[test]
fn an_outcome_in_a_later_segment_joins_its_decision() {
    let records: Vec<LogRecord> = (0..6)
        .map(decision)
        .chain((0..6).map(|id| outcome(id, id as f64)))
        .collect();
    let store = write(&records, 4);
    assert_eq!(store.segment_count(), 3);
    let joined = joins_agree(&store.snapshot());
    assert_eq!(joined, (0..6).map(|id| (id, id as f64)).collect::<Vec<_>>());
}

#[test]
fn the_last_of_duplicate_outcomes_wins() {
    let records = [
        decision(1),
        outcome(1, 0.2),
        decision(2),
        outcome(2, 0.3),
        outcome(1, 0.9),
    ];
    let joined = joins_agree(&write(&records, 2).snapshot());
    assert_eq!(joined, [(1, 0.9), (2, 0.3)]);
}

#[test]
fn an_orphan_outcome_joins_nothing() {
    let records = [decision(1), outcome(99, 0.5), outcome(1, 0.7), decision(2)];
    let joined = joins_agree(&write(&records, 3).snapshot());
    assert_eq!(joined, [(1, 0.7)]);
}

#[test]
fn a_quarantined_tail_drops_out_of_both_joins() {
    let records: Vec<LogRecord> = (0..12)
        .flat_map(|id| [decision(id), outcome(id, 1.0)])
        .collect();
    let store = write(&records, 8);
    let clean = joins_agree(&store.snapshot()).len();
    // Bit rot in the middle segment's third frame quarantines the rest of
    // that segment: three decisions and their outcomes.
    assert!(store.corrupt_payload(1, 2, 0x40));
    let damaged = store.snapshot();
    assert_eq!(recover_segments(&damaged).1.quarantined_records, 6);
    assert_eq!(joins_agree(&damaged).len(), clean - 3);
}

#[test]
fn an_invalid_propensity_is_skipped_as_the_pipeline_drops_it() {
    let scorer = LinearScorer::PerAction {
        weights: vec![vec![1.0, 0.0], vec![-1.0, 1.0]],
    };
    let evaluator = PortfolioEvaluator::builder()
        .candidate(Candidate::new(
            "greedy",
            GreedyScorerCandidate::new(scorer.clone(), 0.1),
        ))
        .model(scorer)
        .build()
        .unwrap();
    for bad in [0.0, 2.0, f64::NAN] {
        let records: Vec<LogRecord> = (0..20u64)
            .map(|id| {
                let x = (id as f64 + 0.5) / 20.0;
                LogRecord::Decision(DecisionRecord {
                    request_id: id,
                    timestamp_ns: id,
                    component: "evaluable".to_string(),
                    shared_features: vec![x],
                    action_features: None,
                    num_actions: 2,
                    action: (id % 2) as usize,
                    propensity: Some(if id == 7 { bad } else { 0.5 }),
                    reward: Some(x),
                })
            })
            .collect();
        let mut w = SegmentedLogWriter::new(MemorySegments::new(), SegmentConfig::default());
        for r in &records {
            w.write(r).unwrap();
        }
        let (report, _) = evaluator.evaluate_segments(&w.into_sink().unwrap().snapshot());
        let (data, harvest) =
            HarvestPipeline::new(KnownPropensity::new(UniformPolicy::new()), true)
                .run(&records)
                .unwrap();
        assert_eq!(harvest.dropped_invalid_propensity, 1, "p = {bad}");
        assert_eq!(report.skipped, 1, "p = {bad}");
        assert_eq!(report.n, data.len(), "p = {bad}");
        let e = &report.entries[0];
        for est in [e.ips, e.snips, e.dr] {
            assert!(
                est.point.is_finite() && est.ess.is_finite(),
                "p = {bad}: {e:?}"
            );
            assert_eq!(est.n, 19, "p = {bad}");
        }
    }
}
