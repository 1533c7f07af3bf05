//! Every config rule the service would otherwise panic on is refused as
//! `ServeError::InvalidConfig`, identically through the nested builder and
//! through `ServeConfig::builder()`.

use harvest_serve::{BreakerConfig, EngineConfig, ServeConfig, ServeError};

fn invalid<T: std::fmt::Debug>(result: Result<T, ServeError>) -> bool {
    matches!(result, Err(ServeError::InvalidConfig { .. }))
}

#[test]
fn zero_shards_is_refused_by_both_builders() {
    assert!(invalid(EngineConfig::builder().shards(0).build()));
    assert!(invalid(ServeConfig::builder().shards(0).build()));
}

#[test]
fn epsilon_outside_the_unit_interval_is_refused_by_both_builders() {
    for eps in [0.0, -0.5, 1.5, f64::NAN] {
        assert!(
            invalid(EngineConfig::builder().epsilon(eps).build()),
            "{eps}"
        );
        assert!(
            invalid(ServeConfig::builder().epsilon(eps).build()),
            "{eps}"
        );
    }
    assert!(EngineConfig::builder().epsilon(1.0).build().is_ok());
    assert!(ServeConfig::builder().epsilon(1.0).build().is_ok());
}

#[test]
fn zero_breaker_thresholds_are_refused_by_both_builders() {
    let zeroed: [fn(&mut BreakerConfig); 3] = [
        |b| b.window = 0,
        |b| b.trip_faults = 0,
        |b| b.rearm_healthy = 0,
    ];
    for zero in zeroed {
        let mut breaker = BreakerConfig::default();
        zero(&mut breaker);
        let nested = BreakerConfig::builder()
            .window(breaker.window)
            .trip_faults(breaker.trip_faults)
            .rearm_healthy(breaker.rearm_healthy)
            .build();
        assert!(invalid(nested), "{breaker:?}");
        assert!(
            invalid(ServeConfig::builder().breaker(breaker).build()),
            "{breaker:?}"
        );
    }
    assert!(BreakerConfig::builder().build().is_ok());
}
