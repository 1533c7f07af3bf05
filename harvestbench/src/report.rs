//! Metric names, the result line, and provenance.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("harvested_per_sec", "decisions/s"),
    ("harvest_fraction", "ratio"),
    ("decide_p50_us", "us"),
    ("decide_p95_us", "us"),
    ("eval_decisions_per_sec", "decisions/s"),
    ("log_bytes_per_decision", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. A metric a
/// workload does not exercise reads 0 and is listed as such.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("serve.engine.decide_idle_ns", "ns"),
    ("serve.engine.decide_batch_us_p50", "us"),
    ("serve.logger.blocked_share", "ratio"),
    ("serve.logger.backlog_p50", "records"),
    ("serve.logger.backlog_max", "records"),
    ("serve.logger.drain_ms", "ms"),
    ("serve.logger.enqueued", "count"),
    ("serve.logger.written", "count"),
    ("serve.logger.dropped", "count"),
    ("serve.logger.quarantined", "count"),
    ("serve.joiner.reward_us_p50", "us"),
    ("serve.joiner.hits", "count"),
    ("serve.joiner.late", "count"),
    ("serve.joiner.unknown", "count"),
    ("serve.joiner.timed_out", "count"),
    ("log.segment.encode_ns", "ns"),
    ("log.segment.crc_ns", "ns"),
    ("log.segment.append_ns", "ns"),
    ("log.segment.frame_bytes", "B"),
    ("log.segment.recover_ns", "ns"),
    ("estimators.portfolio.k1_pass_ms", "ms"),
    ("estimators.portfolio.fold_ns", "ns"),
    ("wire.request_encode_ns", "ns"),
    ("wire.request_decode_ns", "ns"),
    ("wire.response_codec_ns", "ns"),
    ("wire.request_bytes", "B"),
    ("wire.shed", "count"),
    ("wire.errored", "count"),
    ("obs.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("layers.explained_share", "ratio"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
    /// Episodes or passes measured.
    pub runs: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// A JSON number; non-finite values have no JSON form and read 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of standard output: correctness, the operation ledger,
/// and each expected metric with its unit. Missing or non-finite metrics
/// make the run incorrect.
pub fn result_line(outcome: &Outcome, expected: &[(&'static str, &'static str)]) -> String {
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let metrics: Vec<String> = expected
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
            correct &= value.is_finite();
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Where and from what the numbers came.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, runs: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "provenance workload={workload} seed={seed} seconds={seconds} trace={} runs={runs} nproc={nproc} profile={profile} commit={} source_digest={}",
        u8::from(trace),
        env("HARVESTBENCH_COMMIT"),
        env("HARVESTBENCH_SOURCE_DIGEST"),
    )
}

/// Resets this process's peak resident set (VmHWM) to its current
/// resident set, so the next [`peak_rss_mb`] reads the peak since now.
/// Where the kernel refuses, the next reading is the process peak so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_uses_only_the_allowed_characters() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory on its own
        };
        let squashed: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squashed.contains(&entry), "{name} ({unit}) missing");
        }
        let listed = squashed.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_flags_missing_metrics() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5);
        let line = result_line(&o, &END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&o, &END_TO_END[..2]).starts_with("{\"correct\": false"));
    }
}
