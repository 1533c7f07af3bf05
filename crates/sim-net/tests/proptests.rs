//! Property tests for the simulation substrate.

use proptest::prelude::*;

use harvest_sim_net::event::{Control, Simulator};
use harvest_sim_net::fault::{Fault, FaultKind, FaultPlan};
use harvest_sim_net::rng::{fork_rng, fork_seed};
use harvest_sim_net::stats::{QuantileSketch, RunningStats};
use harvest_sim_net::time::{SimDuration, SimTime};
use harvest_sim_net::workload::{KeyDistribution, ZipfKeys};

proptest! {
    #[test]
    fn sim_time_round_trips_through_seconds(nanos in 0u64..u64::MAX / 2) {
        let t = SimTime::from_nanos(nanos);
        let back = SimTime::from_secs_f64(t.as_secs_f64());
        // f64 has 52 mantissa bits; round-trip error is bounded by the
        // magnitude's ulp.
        let err = back.as_nanos().abs_diff(t.as_nanos());
        prop_assert!(err as f64 <= t.as_nanos() as f64 * 1e-9 + 1.0, "err {err}");
    }

    #[test]
    fn duration_addition_is_commutative_and_monotone(
        a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4
    ) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!(da + db, db + da);
        prop_assert!(da + db >= da);
        let t = SimTime::from_nanos(a);
        prop_assert!(t + db >= t);
    }

    #[test]
    fn simulator_clock_is_monotone_over_arbitrary_schedules(
        times in proptest::collection::vec(0u64..1_000_000, 1..100)
    ) {
        let mut sim: Simulator<()> = Simulator::new();
        for &t in &times {
            sim.schedule(SimTime::from_nanos(t), ());
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0u64;
        sim.run(|sim, _| {
            assert!(sim.now() >= last);
            last = sim.now();
            seen += 1;
            Control::Continue
        });
        prop_assert_eq!(seen, times.len() as u64);
        prop_assert_eq!(last.as_nanos(), *times.iter().max().unwrap());
    }

    #[test]
    fn fork_seed_is_stable_and_label_sensitive(seed in any::<u64>()) {
        prop_assert_eq!(fork_seed(seed, "x"), fork_seed(seed, "x"));
        prop_assert_ne!(fork_seed(seed, "x"), fork_seed(seed, "y"));
    }

    #[test]
    fn running_stats_merge_is_associative_enough(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        cut in 0usize..100
    ) {
        let cut = cut.min(xs.len());
        let mut whole = RunningStats::new();
        for &x in &xs { whole.push(x); }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..cut] { a.push(x); }
        for &x in &xs[cut..] { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-4 * (1.0 + whole.variance()));
    }

    #[test]
    fn quantiles_are_monotone_in_q(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..200),
        q1 in 0.0f64..1.0, q2 in 0.0f64..1.0
    ) {
        let mut sketch = QuantileSketch::new();
        for &x in &xs { sketch.push(x); }
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let lo = sketch.quantile(lo_q).unwrap();
        let hi = sketch.quantile(hi_q).unwrap();
        prop_assert!(lo <= hi + 1e-12);
        // Quantiles are bounded by the sample range.
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo >= min - 1e-12 && hi <= max + 1e-12);
    }

    #[test]
    fn fault_effects_never_speed_things_up(
        targets in proptest::collection::vec((0usize..4, 0u64..100, 1u64..50), 0..20),
        probe_t in 0u64..150, probe_target in 0usize..4
    ) {
        let faults: Vec<Fault> = targets.iter().map(|&(target, start, len)| Fault {
            target,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(start + len),
            kind: FaultKind::SlowDown { factor: 3.0 },
        }).collect();
        let plan = FaultPlan::from_faults(faults);
        let base = SimDuration::from_millis(100);
        if let Some(eff) = plan.effect(probe_target, SimTime::from_secs(probe_t)) {
            prop_assert!(eff.apply(base) >= base);
        }
    }

    #[test]
    fn zipf_samples_stay_in_range(n in 1u64..500, s in 0.0f64..3.0, seed in 0u64..100) {
        let mut z = ZipfKeys::new(n, s, 1);
        let mut rng = fork_rng(seed, "zipf-prop");
        for _ in 0..100 {
            prop_assert!(z.sample_key(&mut rng) < n);
        }
        prop_assert_eq!(z.key_count(), Some(n));
    }
}
