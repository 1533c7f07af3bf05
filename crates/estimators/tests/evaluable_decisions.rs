//! The portfolio's in-place segment fold and the owned-record harvest
//! pipeline agree on which logged decisions count: a decision logged with a
//! propensity outside `(0, 1]` is skipped by one and dropped by the other,
//! and never reaches an estimate.

use harvest_core::policy::UniformPolicy;
use harvest_core::scorer::LinearScorer;
use harvest_estimators::{Candidate, GreedyScorerCandidate, PortfolioEvaluator};
use harvest_log::record::{DecisionRecord, LogRecord};
use harvest_log::segment::{MemorySegments, SegmentConfig, SegmentedLogWriter};
use harvest_log::{HarvestPipeline, KnownPropensity};

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
