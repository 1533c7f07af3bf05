//! Property tests for the log pipeline: join laws, group writes, and the
//! durability layer's checkpoint framing.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use harvest_core::policy::UniformPolicy;
use harvest_log::checkpoint::{
    load_latest_filtered, CheckpointStore, CheckpointWriter, MemoryCheckpoints,
};
use harvest_log::pipeline::HarvestPipeline;
use harvest_log::propensity::KnownPropensity;
use harvest_log::record::{BatchDecision, BatchRecord, DecisionRecord, LogRecord, OutcomeRecord};
use harvest_log::scavenge::scavenge;
use harvest_log::segment::{MemorySegments, SealObserver, SegmentConfig, SegmentedLogWriter};

fn accept_all(_seq: u64, payload: &[u8]) -> Option<Vec<u8>> {
    Some(payload.to_vec())
}

fn arb_decision() -> impl Strategy<Value = DecisionRecord> {
    (
        0u64..1000,
        0u64..1_000_000,
        proptest::collection::vec(-100.0f64..100.0, 0..6),
        1usize..8,
        proptest::option::of(0.05f64..1.0),
        proptest::option::of(-10.0f64..10.0),
    )
        .prop_map(|(id, ts, shared, k, propensity, reward)| DecisionRecord {
            request_id: id,
            timestamp_ns: ts,
            component: "prop".to_string(),
            shared_features: shared,
            action_features: None,
            num_actions: k,
            action: (id as usize) % k,
            propensity,
            reward,
        })
}

proptest! {
    #[test]
    fn scavenge_join_accounting_balances(
        decisions in proptest::collection::vec(arb_decision(), 0..50)
    ) {
        let records: Vec<LogRecord> = decisions.iter().cloned().map(LogRecord::Decision).collect();
        let (samples, stats) = scavenge(&records);
        // Every decision is either joined (had inline reward), missing its
        // outcome, or invalid.
        prop_assert_eq!(
            stats.joined + stats.missing_outcome + stats.invalid,
            decisions.len()
        );
        prop_assert_eq!(samples.len(), stats.joined);
        prop_assert_eq!(stats.orphan_outcomes, 0);
    }

    #[test]
    fn pipeline_output_is_always_a_valid_dataset(
        decisions in proptest::collection::vec(arb_decision(), 0..50)
    ) {
        let records: Vec<LogRecord> = decisions.iter().cloned().map(LogRecord::Decision).collect();
        let pipeline = HarvestPipeline::new(KnownPropensity::new(UniformPolicy::new()), true);
        let (dataset, report) = pipeline.run(&records).unwrap();
        // Validation is enforced sample-by-sample: everything in the
        // dataset has a usable propensity and finite reward.
        for s in &dataset {
            prop_assert!(s.propensity > 0.0 && s.propensity <= 1.0);
            prop_assert!(s.reward.is_finite());
        }
        prop_assert!(dataset.len() <= decisions.len());
        prop_assert_eq!(
            report.logged_propensities + report.inferred_propensities,
            dataset.len() + report.dropped_invalid_propensity
        );
    }
}

proptest! {
    #[test]
    fn checkpoint_round_trips_and_retention_keeps_the_newest(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..8),
        keep_last in 1usize..4,
    ) {
        let mut w = CheckpointWriter::new(MemoryCheckpoints::new(), keep_last).unwrap();
        for p in &payloads {
            w.write(p).unwrap();
        }
        let store = w.into_store();
        let (loaded, rec) = load_latest_filtered(&store, accept_all);
        // The newest payload always loads back verbatim, arbitrary bytes
        // included, and retention never scans a damaged blob on the way.
        prop_assert_eq!(loaded.as_deref(), Some(payloads.last().unwrap().as_slice()));
        prop_assert_eq!(rec.discarded, 0);
        prop_assert_eq!(rec.loaded_seq, Some(payloads.len() as u64 - 1));
        prop_assert!(store.list().unwrap().len() <= keep_last);
    }

    #[test]
    fn checkpoint_truncated_at_any_offset_falls_back_to_previous_valid(
        older in proptest::collection::vec(any::<u8>(), 0..100),
        newer in proptest::collection::vec(any::<u8>(), 0..100),
        frac in 0.0f64..1.0,
    ) {
        let mut w = CheckpointWriter::new(MemoryCheckpoints::new(), 8).unwrap();
        w.write(&older).unwrap();
        let seq = w.write(&newer).unwrap();
        let mut store = w.into_store();
        // A torn write is any strictly-short prefix — header boundary,
        // mid-header, mid-payload, empty; every offset must be detected.
        let blob = store.raw(seq).unwrap();
        let cut = (((blob.len()) as f64) * frac) as usize;
        store.publish(seq, &blob[..cut.min(blob.len() - 1)]).unwrap();
        let (loaded, rec) = load_latest_filtered(&store, accept_all);
        prop_assert_eq!(loaded.as_deref(), Some(older.as_slice()));
        prop_assert_eq!(rec.discarded, 1);
        prop_assert_eq!(rec.loaded_seq, Some(0));
    }

    #[test]
    fn any_single_byte_corruption_is_detected_and_counted(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..255,
    ) {
        let mut w = CheckpointWriter::new(MemoryCheckpoints::new(), 8).unwrap();
        let seq = w.write(&payload).unwrap();
        let mut store = w.into_store();
        // Flip one byte anywhere: magic, version, seq, length, checksum, or
        // payload. Every position must fail validation — a flipped seq
        // field parses but no longer matches its slot.
        let mut blob = store.raw(seq).unwrap();
        let pos = (((blob.len() - 1) as f64) * pos_frac) as usize;
        blob[pos] ^= xor;
        store.publish(seq, &blob).unwrap();
        let (loaded, rec) = load_latest_filtered(&store, accept_all);
        prop_assert!(loaded.is_none(), "one-byte flip at {pos} validated");
        prop_assert_eq!(rec.discarded, 1);
    }
}

/// Any of the three record kinds, with stamps free to run backwards so
/// time-based rotation fires at arbitrary points.
fn arb_record() -> impl Strategy<Value = LogRecord> {
    let batch_decision = (arb_decision(), 0u64..1_000_000).prop_map(|(d, ts)| BatchDecision {
        request_id: d.request_id,
        timestamp_ns: ts,
        shared_features: d.shared_features,
        action_features: d.action_features,
        num_actions: d.num_actions,
        action: d.action,
        propensity: d.propensity,
        reward: d.reward,
    });
    prop_oneof![
        arb_decision().prop_map(LogRecord::Decision),
        proptest::collection::vec(batch_decision, 0..5).prop_map(|decisions| {
            LogRecord::Batch(BatchRecord {
                component: "batch".to_string(),
                decisions,
            })
        }),
        (0u64..1000, 0u64..1_000_000, -10.0f64..10.0).prop_map(|(id, ts, reward)| {
            LogRecord::Outcome(OutcomeRecord {
                request_id: id,
                timestamp_ns: ts,
                reward,
            })
        }),
    ]
}

/// Records every `segment_sealed` call in order.
#[derive(Default)]
struct Seals(Mutex<Vec<(usize, usize)>>);

impl SealObserver for Seals {
    fn segment_sealed(&self, records: usize, bytes: usize) {
        self.0.lock().unwrap().push((records, bytes));
    }
}

/// Runs `write` against a fresh writer and returns the segment bytes and
/// the seal calls it left.
fn written(
    cfg: SegmentConfig,
    write: impl FnOnce(&mut SegmentedLogWriter<MemorySegments>),
) -> (Vec<Vec<u8>>, Vec<(usize, usize)>) {
    let seals = Arc::new(Seals::default());
    let mut writer = SegmentedLogWriter::new(MemorySegments::new(), cfg);
    writer.set_observer(Arc::clone(&seals) as Arc<dyn SealObserver>);
    write(&mut writer);
    let segments = writer.into_sink().unwrap().snapshot();
    let seals = seals.0.lock().unwrap().clone();
    (segments, seals)
}

proptest! {
    #[test]
    fn group_writes_match_one_write_per_record(
        records in proptest::collection::vec(arb_record(), 0..40),
        max_records in 1usize..12,
        max_bytes in 1usize..4096,
        max_span_ns in prop_oneof![Just(u64::MAX), 1u64..2_000_000],
        cuts in proptest::collection::vec(0usize..41, 0..6),
    ) {
        let cfg = SegmentConfig { max_records, max_bytes, max_span_ns };
        let single = written(cfg, |w| {
            for record in &records {
                w.write(record).unwrap();
            }
        });
        // Any split into consecutive groups, empty groups included, and
        // the whole stream as one group.
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(records.len())).collect();
        bounds.push(0);
        bounds.push(records.len());
        bounds.sort_unstable();
        let grouped = written(cfg, |w| {
            for pair in bounds.windows(2) {
                w.write_all(&records[pair[0]..pair[1]]).unwrap();
            }
        });
        prop_assert_eq!(&grouped, &single);
        let whole = written(cfg, |w| {
            w.write_all(&records).unwrap();
        });
        prop_assert_eq!(&whole, &single);
    }
}
