//! Property tests for the log pipeline: join laws and the durability
//! layer's checkpoint framing.

use proptest::prelude::*;

use harvest_core::policy::UniformPolicy;
use harvest_log::checkpoint::{load_latest, CheckpointStore, CheckpointWriter, MemoryCheckpoints};
use harvest_log::pipeline::HarvestPipeline;
use harvest_log::propensity::KnownPropensity;
use harvest_log::record::{DecisionRecord, LogRecord};
use harvest_log::scavenge::scavenge;

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
        let (loaded, rec) = load_latest(&store);
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
        let (loaded, rec) = load_latest(&store);
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
        let (loaded, rec) = load_latest(&store);
        prop_assert!(loaded.is_none(), "one-byte flip at {pos} validated");
        prop_assert_eq!(rec.discarded, 1);
    }
}
