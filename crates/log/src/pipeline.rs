//! The end-to-end harvest pipeline: scavenge → infer → dataset.

use harvest_core::{Dataset, HarvestError, LoggedDecision, SimpleContext};

use crate::propensity::PropensityModel;
use crate::record::LogRecord;
use crate::scavenge::{evaluable, scavenge, ScavengeStats};

/// What the pipeline produced, with provenance counters for the report a
/// real deployment would want.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HarvestReport {
    /// Scavenging counters (step 1).
    pub scavenge: ScavengeStats,
    /// Samples whose propensity came straight from the log.
    pub logged_propensities: usize,
    /// Samples whose propensity was inferred by the model (step 2).
    pub inferred_propensities: usize,
    /// Samples dropped because even the inferred propensity was invalid.
    pub dropped_invalid_propensity: usize,
    /// The minimum propensity in the final dataset — the `ε` of Eq. 1.
    pub min_propensity: f64,
    /// The request id of each dataset sample, in dataset order: exactly the
    /// decisions this harvest made usable.
    pub request_ids: Vec<u64>,
}

/// The harvesting methodology as a reusable component: give it raw log
/// records and a propensity model, get exploration data.
///
/// For records held in memory, such as parsed nginx lines, which log no
/// propensity. The serve loop's own segments are read in place by
/// [`SegmentJoin`](crate::scavenge::SegmentJoin) instead, under the same
/// [`evaluable`] rule.
#[derive(Debug, Clone)]
pub struct HarvestPipeline<M> {
    propensity_model: M,
    /// Whether to trust propensities found in the log over the model.
    prefer_logged: bool,
}

impl<M: PropensityModel<SimpleContext>> HarvestPipeline<M> {
    /// Creates a pipeline that uses `propensity_model` for records lacking
    /// a logged propensity (and, if `prefer_logged` is false, for all
    /// records).
    pub fn new(propensity_model: M, prefer_logged: bool) -> Self {
        HarvestPipeline {
            propensity_model,
            prefer_logged,
        }
    }

    /// Runs steps 1–2 on a record stream, producing a validated dataset and
    /// a provenance report.
    pub fn run(
        &self,
        records: &[LogRecord],
    ) -> Result<(Dataset<SimpleContext>, HarvestReport), HarvestError> {
        let (samples, scavenge_stats) = scavenge(records);
        let mut report = HarvestReport {
            scavenge: scavenge_stats,
            min_propensity: f64::INFINITY,
            ..HarvestReport::default()
        };
        let mut dataset = Dataset::new();
        for s in samples {
            let logged = s.propensity.filter(|_| self.prefer_logged);
            if logged.is_some() {
                report.logged_propensities += 1;
            } else {
                report.inferred_propensities += 1;
            }
            // The reward was joined by `scavenge`; the rule's propensity
            // half decides whether the sample counts.
            let fallback = || self.propensity_model.propensity(&s.context, s.action);
            let Ok((reward, p)) = evaluable(None, Some(s.reward), logged, fallback) else {
                report.dropped_invalid_propensity += 1;
                continue;
            };
            report.min_propensity = report.min_propensity.min(p);
            report.request_ids.push(s.request_id);
            dataset.push(LoggedDecision {
                context: s.context,
                action: s.action,
                reward,
                propensity: p,
            })?;
        }
        if dataset.is_empty() {
            report.min_propensity = 0.0;
        }
        Ok((dataset, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propensity::KnownPropensity;
    use crate::record::{DecisionRecord, OutcomeRecord};
    use harvest_core::policy::UniformPolicy;

    fn decision(id: u64, action: usize, propensity: Option<f64>) -> LogRecord {
        LogRecord::Decision(DecisionRecord {
            request_id: id,
            timestamp_ns: id,
            component: "t".to_string(),
            shared_features: vec![id as f64],
            action_features: None,
            num_actions: 4,
            action,
            propensity,
            reward: None,
        })
    }

    fn outcome(id: u64, reward: f64) -> LogRecord {
        LogRecord::Outcome(OutcomeRecord {
            request_id: id,
            timestamp_ns: id + 1,
            reward,
        })
    }

    #[test]
    fn end_to_end_with_known_propensities() {
        let records = vec![
            decision(1, 0, None),
            decision(2, 3, None),
            outcome(1, 0.5),
            outcome(2, 0.9),
        ];
        let pipeline = HarvestPipeline::new(KnownPropensity::new(UniformPolicy::new()), true);
        let (data, report) = pipeline.run(&records).unwrap();
        assert_eq!(data.len(), 2);
        assert_eq!(report.scavenge.joined, 2);
        assert_eq!(report.inferred_propensities, 2);
        assert_eq!(report.min_propensity, 0.25);
        assert_eq!(report.request_ids, vec![1, 2]);
        for s in &data {
            assert_eq!(s.propensity, 0.25);
        }
    }

    #[test]
    fn logged_propensities_win_when_preferred() {
        let records = vec![decision(1, 0, Some(0.4)), outcome(1, 1.0)];
        let pipeline = HarvestPipeline::new(KnownPropensity::new(UniformPolicy::new()), true);
        let (data, report) = pipeline.run(&records).unwrap();
        assert_eq!(data.samples()[0].propensity, 0.4);
        assert_eq!(report.logged_propensities, 1);
        // With prefer_logged = false the model overrides.
        let pipeline = HarvestPipeline::new(KnownPropensity::new(UniformPolicy::new()), false);
        let (data, _) = pipeline.run(&records).unwrap();
        assert_eq!(data.samples()[0].propensity, 0.25);
    }

    #[test]
    fn invalid_logged_propensities_are_dropped_and_counted() {
        let records = vec![decision(1, 0, Some(0.0)), outcome(1, 1.0)];
        let pipeline = HarvestPipeline::new(KnownPropensity::new(UniformPolicy::new()), true);
        let (data, report) = pipeline.run(&records).unwrap();
        assert!(data.is_empty());
        assert_eq!(report.dropped_invalid_propensity, 1);
        assert_eq!(report.min_propensity, 0.0);
        assert!(report.request_ids.is_empty());
    }

    #[test]
    fn unjoined_records_do_not_reach_the_dataset() {
        let records = vec![decision(1, 0, Some(0.5))]; // no outcome
        let pipeline = HarvestPipeline::new(KnownPropensity::new(UniformPolicy::new()), true);
        let (data, report) = pipeline.run(&records).unwrap();
        assert!(data.is_empty());
        assert_eq!(report.scavenge.missing_outcome, 1);
    }
}
