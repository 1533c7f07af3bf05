//! At-rest fault application: simulated disk damage between run and recovery.
//!
//! The in-flight fault classes (writer kills, torn writes, reward drops,
//! shard wedges, trainer crashes) are injected while the service runs.
//! At-rest faults model what happens *after* the process is gone — bit rot
//! and torn final writes discovered only when the segments are read back.
//! [`apply_at_rest_faults`] translates a [`ChaosPlan`]'s fractional damage
//! coordinates into concrete `(segment, frame)` targets against a
//! [`MemorySegments`] store, so the same plan damages the same bytes no
//! matter how many segments the run produced.

use harvest_log::segment::{scan_segment, MemorySegments};
use harvest_sim_net::fault::{AtRestFault, ChaosPlan};

/// Resolves a fraction in `[0, 1]` to an index in `0..n`. Returns `None`
/// when there is nothing to index into.
fn frac_index(frac: f64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let clamped = frac.clamp(0.0, 1.0);
    Some(((clamped * n as f64) as usize).min(n - 1))
}

/// Applies every at-rest fault in `plan` to `store`, returning how many
/// actually landed (a fault misses when the store is empty, the target
/// segment has no complete frames, or a tear finds an already-torn tail).
///
/// Damage is deliberately restricted to what a real crash or bit flip can
/// produce — payload corruption inside one frame, or truncation of a
/// segment's final frame — so recovery accounting stays exact: each landed
/// fault quarantines the damaged frame and (for corruption) the frames
/// after it in that segment, never a partial mystery.
pub fn apply_at_rest_faults(plan: &ChaosPlan, store: &MemorySegments) -> usize {
    let mut landed = 0;
    for fault in plan.at_rest() {
        match *fault {
            AtRestFault::CorruptPayload {
                segment_frac,
                frame_frac,
                xor,
            } => {
                let snapshot = store.snapshot();
                let Some(seg) = frac_index(segment_frac, snapshot.len()) else {
                    continue;
                };
                // Count the complete frames actually in the target segment
                // so the frame fraction lands inside it.
                let (recovery, _) = scan_segment(&snapshot[seg], |_| {});
                let Some(frame) = frac_index(frame_frac, recovery.recovered) else {
                    continue;
                };
                if store.corrupt_payload(seg, frame, xor) {
                    landed += 1;
                }
            }
            AtRestFault::TearTail {
                segment_frac,
                keep_frac,
            } => {
                let Some(seg) = frac_index(segment_frac, store.segment_count()) else {
                    continue;
                };
                if store.tear_tail(seg, keep_frac) {
                    landed += 1;
                }
            }
        }
    }
    landed
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_log::record::{LogRecord, OutcomeRecord};
    use harvest_log::segment::{SegmentConfig, SegmentedLogWriter};

    fn record(id: u64) -> LogRecord {
        LogRecord::Outcome(OutcomeRecord {
            request_id: id,
            timestamp_ns: id * 10,
            reward: (id % 3) as f64,
        })
    }

    fn filled_store(records: u64, per_segment: usize) -> MemorySegments {
        let store = MemorySegments::new();
        let mut writer = SegmentedLogWriter::new(
            store.clone(),
            SegmentConfig {
                max_records: per_segment,
                max_bytes: usize::MAX,
                max_span_ns: u64::MAX,
            },
        );
        for id in 0..records {
            writer.write(&record(id)).unwrap();
        }
        writer.flush().unwrap();
        store
    }

    #[test]
    fn corruption_quarantines_the_targeted_suffix() {
        let store = filled_store(20, 5);
        let plan = ChaosPlan::none().damage_at_rest(AtRestFault::CorruptPayload {
            segment_frac: 0.0,
            frame_frac: 0.5,
            xor: 0xFF,
        });
        assert_eq!(apply_at_rest_faults(&plan, &store), 1);
        let (records, stats) = store.recover();
        // Segment 0 frame 2 is corrupt: frames 2..5 of that segment are
        // quarantined, every other segment is intact.
        assert_eq!(stats.recovered, 17);
        assert_eq!(stats.quarantined_records, 3);
        assert_eq!(stats.corrupt_segments, 1);
        assert_eq!(records.len(), 17);
    }

    #[test]
    fn tear_quarantines_exactly_the_final_frame() {
        let store = filled_store(10, 5);
        let plan = ChaosPlan::none().damage_at_rest(AtRestFault::TearTail {
            segment_frac: 1.0,
            keep_frac: 0.5,
        });
        assert_eq!(apply_at_rest_faults(&plan, &store), 1);
        let (_, stats) = store.recover();
        assert_eq!(stats.recovered, 9);
        assert_eq!(stats.quarantined_records, 1);
    }

    #[test]
    fn faults_against_an_empty_store_miss_harmlessly() {
        let store = MemorySegments::new();
        let plan = ChaosPlan::none()
            .damage_at_rest(AtRestFault::CorruptPayload {
                segment_frac: 0.5,
                frame_frac: 0.5,
                xor: 1,
            })
            .damage_at_rest(AtRestFault::TearTail {
                segment_frac: 0.5,
                keep_frac: 0.5,
            });
        assert_eq!(apply_at_rest_faults(&plan, &store), 0);
        let (records, stats) = store.recover();
        assert!(records.is_empty());
        assert_eq!(stats.quarantined_records, 0);
    }

    #[test]
    fn same_plan_same_damage() {
        let plan = ChaosPlan::none()
            .damage_at_rest(AtRestFault::CorruptPayload {
                segment_frac: 0.7,
                frame_frac: 0.3,
                xor: 0x42,
            })
            .damage_at_rest(AtRestFault::TearTail {
                segment_frac: 0.2,
                keep_frac: 0.4,
            });
        let a = filled_store(50, 8);
        let b = filled_store(50, 8);
        apply_at_rest_faults(&plan, &a);
        apply_at_rest_faults(&plan, &b);
        assert_eq!(a.snapshot(), b.snapshot());
        let (ra, sa) = a.recover();
        let (rb, sb) = b.recover();
        assert_eq!(ra.len(), rb.len());
        assert_eq!(sa.quarantined_records, sb.quarantined_records);
    }
}
