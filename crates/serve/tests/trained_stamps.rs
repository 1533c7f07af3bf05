//! A decision trace is stamped `trained` only when its decision entered
//! the round's dataset: the harvest reports those request ids, and the
//! service stamps exactly them.

use harvest_core::SimpleContext;
use harvest_log::segment::MemorySegments;
use harvest_serve::{DecisionService, ServeConfig};

#[test]
fn a_decision_dropped_by_the_harvest_is_never_stamped_trained() {
    let store = MemorySegments::new();
    let cfg = ServeConfig::builder()
        .shards(2)
        .epsilon(0.2)
        .master_seed(29)
        .build()
        .unwrap();
    let svc = DecisionService::new(cfg, store.clone());
    let ctx = SimpleContext::new(vec![0.5], 2);
    let mut ids = Vec::new();
    for i in 0..50u64 {
        let d = svc.decide((i % 2) as usize, i * 10, &ctx).unwrap();
        // The service accepts a NaN reward; the harvest drops it.
        let r = if i == 17 { f64::NAN } else { 1.0 };
        svc.reward(d.request_id, i * 10 + 5, r);
        ids.push(d.request_id);
    }
    while svc.metrics().log_backlog > 0 {
        std::thread::yield_now();
    }
    let report = svc.train_and_maybe_promote(&store.snapshot()).unwrap();
    assert_eq!(report.gate.n, 49);
    let traces = svc
        .obs()
        .expect("obs is on by default")
        .tracer()
        .export_sorted();
    assert_eq!(traces.len(), 50);
    for t in &traces {
        let want = if t.id == ids[17] { None } else { Some(0) };
        assert_eq!(t.trained_round, want, "decision {}", t.id);
    }
    svc.shutdown().unwrap();
}
