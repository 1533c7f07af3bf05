//! Windowed time series over the logical clock.
//!
//! Snapshots show *levels*; operators debug with *rates*. This module
//! turns the crate's cumulative counters, gauges, and histograms into a
//! fixed-width ring of **window frames** — each frame holding the exact
//! integer counter deltas, the histogram of just that window's samples
//! (per-bucket subtraction of cumulative snapshots, see
//! [`Histogram::delta_since`]), and the last gauge values observed in
//! the window.
//!
//! Time is the caller's logical clock: window `w` covers
//! `[w·width, (w+1)·width)` nanoseconds, and the engine is fed by
//! explicit [`WindowSeries::observe`] calls carrying `now_ns` plus the
//! current cumulative [`SeriesSample`]. Crossing a window boundary seals
//! the open window against the **last sample observed inside it** —
//! asynchronous progress between ticks is invisible, so the sealed
//! frames are a pure function of the `(now_ns, sample)` tick sequence,
//! which is itself a pure function of the seed. Same seed, same bytes.
//!
//! Frames merge associatively across shards or replicas
//! ([`SeriesFrame::merge`]): counter deltas add, histogram deltas merge
//! exactly, gauges are right-biased (the merged-in observer wins). The
//! ring holds the most recent `capacity` frames; evictions are counted,
//! never silent.

use crate::hist::{Histogram, HistogramSummary};
use serde::Serialize;
use std::collections::VecDeque;

/// Sizing and cadence of a [`WindowSeries`].
#[derive(Clone, Copy, Debug)]
pub struct SeriesConfig {
    /// Window width in logical nanoseconds (clamped to ≥ 1).
    pub window_ns: u64,
    /// Frames retained in the ring (clamped to ≥ 1); older frames are
    /// evicted and counted.
    pub capacity: usize,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        Self {
            window_ns: 1_000_000_000,
            capacity: 64,
        }
    }
}

/// One cumulative observation of every tracked series, in schema order.
/// Counters and histograms must be monotone between observations (they
/// are cumulative snapshots); gauges are instantaneous.
#[derive(Clone, Debug, Default)]
pub struct SeriesSample {
    /// Cumulative counters as `(name, total)`.
    pub counters: Vec<(String, u64)>,
    /// Instantaneous gauges as `(name, value)`.
    pub gauges: Vec<(String, f64)>,
    /// Cumulative histograms as `(name, snapshot)`.
    pub hists: Vec<(String, Histogram)>,
}

impl SeriesSample {
    /// An empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a cumulative counter.
    pub fn counter(&mut self, name: &str, total: u64) -> &mut Self {
        self.counters.push((name.to_string(), total));
        self
    }

    /// Append an instantaneous gauge.
    pub fn gauge(&mut self, name: &str, value: f64) -> &mut Self {
        self.gauges.push((name.to_string(), value));
        self
    }

    /// Append a cumulative histogram snapshot.
    pub fn hist(&mut self, name: &str, snapshot: Histogram) -> &mut Self {
        self.hists.push((name.to_string(), snapshot));
        self
    }

    fn counter_named(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn hist_named(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// One sealed window: deltas for counters and histograms, last values
/// for gauges.
#[derive(Clone, Debug)]
pub struct SeriesFrame {
    /// Window index (`start_ns / window_ns`).
    pub window: u64,
    /// Counter deltas over the window, in schema order.
    pub counters: Vec<(String, u64)>,
    /// Last gauge values observed in (or carried into) the window.
    pub gauges: Vec<(String, f64)>,
    /// Histograms of just this window's samples.
    pub hists: Vec<(String, Histogram)>,
}

impl SeriesFrame {
    /// Counter delta by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Gauge last-value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Window histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Fold another observer's frame for the **same window** into this
    /// one: counter deltas add, histogram deltas merge exactly, gauges
    /// are right-biased (`other` wins; its unknown names are appended).
    /// Addition and exact histogram merge commute and associate, and
    /// right-bias is associative, so multi-way merges are order-robust
    /// left-to-right.
    pub fn merge(&mut self, other: &SeriesFrame) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine = *v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.hists {
            match self.hists.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.hists.push((name.clone(), h.clone())),
            }
        }
    }
}

/// Serialized form of one frame (histograms as summaries).
#[derive(Clone, Debug, Serialize)]
pub struct FrameExport {
    /// Window index.
    pub window: u64,
    /// Window start, logical ns.
    pub start_ns: u64,
    /// Window end (exclusive), logical ns.
    pub end_ns: u64,
    /// Counter deltas.
    pub counters: Vec<(String, u64)>,
    /// Gauge last-values.
    pub gauges: Vec<(String, f64)>,
    /// Window histogram summaries.
    pub hists: Vec<(String, HistogramSummary)>,
}

/// Serialized form of a whole series ring.
#[derive(Clone, Debug, Serialize)]
pub struct SeriesExport {
    /// Window width, logical ns.
    pub window_ns: u64,
    /// Frames sealed and evicted from the ring, oldest-first.
    pub evicted: u64,
    /// Retained frames, oldest-first.
    pub frames: Vec<FrameExport>,
}

/// The windowed time-series engine: feed it cumulative samples stamped
/// with logical time, read back sealed per-window frames. See the
/// module docs for the model.
pub struct WindowSeries {
    window_ns: u64,
    capacity: usize,
    /// Index of the window currently accumulating, with the last
    /// cumulative sample observed inside it.
    open: Option<(u64, SeriesSample)>,
    /// Cumulative state at the last seal — the subtrahend for the next
    /// window's deltas.
    sealed_cum: Option<SeriesSample>,
    frames: VecDeque<SeriesFrame>,
    evicted: u64,
}

impl WindowSeries {
    /// An empty series under `cfg`.
    pub fn new(cfg: SeriesConfig) -> Self {
        Self {
            window_ns: cfg.window_ns.max(1),
            capacity: cfg.capacity.max(1),
            open: None,
            sealed_cum: None,
            frames: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Window width in logical ns.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Frames evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Retained frames, oldest-first.
    pub fn frames(&self) -> impl Iterator<Item = &SeriesFrame> {
        self.frames.iter()
    }

    /// The most recently sealed frame, if any.
    pub fn last_frame(&self) -> Option<&SeriesFrame> {
        self.frames.back()
    }

    /// Observe the cumulative state `sample` at logical time `now_ns`.
    /// Seals every window that ended at or before `now_ns` and returns
    /// the newly sealed frames (oldest-first); an observation inside the
    /// still-open window seals nothing and returns empty.
    ///
    /// Windows with no observation of their own seal as **gap frames**:
    /// zero counter deltas, empty histograms, gauges carried forward.
    /// Activity between the last in-window observation and the next one
    /// lands in the window that observation falls in — sample-point
    /// attribution, deterministic for a deterministic tick sequence.
    pub fn observe(&mut self, now_ns: u64, sample: SeriesSample) -> Vec<SeriesFrame> {
        let w = now_ns / self.window_ns;
        let (open_idx, open_last) = match self.open.take() {
            None => {
                self.open = Some((w, sample));
                return Vec::new();
            }
            Some(o) => o,
        };
        if w <= open_idx {
            // Still inside (or logically behind) the open window: the
            // newest cumulative view wins.
            self.open = Some((open_idx, sample));
            return Vec::new();
        }
        let mut sealed = Vec::new();
        // Seal the open window against its last in-window observation.
        let frame = Self::delta_frame(open_idx, &open_last, self.sealed_cum.as_ref());
        sealed.push(frame);
        // Gap windows between the open window and the new one observed
        // nothing: their deltas are zero by construction.
        for gap in (open_idx + 1)..w {
            sealed.push(Self::delta_frame(gap, &open_last, Some(&open_last)));
        }
        self.sealed_cum = Some(open_last);
        self.open = Some((w, sample));
        for frame in &sealed {
            self.frames.push_back(frame.clone());
            while self.frames.len() > self.capacity {
                self.frames.pop_front();
                self.evicted += 1;
            }
        }
        sealed
    }

    /// The frame for window `idx`: `cum − prev` deltas, gauge
    /// last-values from `cum`.
    fn delta_frame(idx: u64, cum: &SeriesSample, prev: Option<&SeriesSample>) -> SeriesFrame {
        let counters = cum
            .counters
            .iter()
            .map(|(name, total)| {
                let before = prev.and_then(|p| p.counter_named(name)).unwrap_or(0);
                (name.clone(), total.saturating_sub(before))
            })
            .collect();
        let hists = cum
            .hists
            .iter()
            .map(|(name, h)| {
                let delta = match prev.and_then(|p| p.hist_named(name)) {
                    Some(before) => h.delta_since(before),
                    None => h.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        SeriesFrame {
            window: idx,
            counters,
            gauges: cum.gauges.clone(),
            hists,
        }
    }

    /// The retained ring as a serializable export (histograms as
    /// summaries), oldest-first. Byte-identical across same-seed runs
    /// once serialized with the crate's deterministic JSON.
    pub fn export(&self) -> SeriesExport {
        SeriesExport {
            window_ns: self.window_ns,
            evicted: self.evicted,
            frames: self
                .frames
                .iter()
                .map(|f| FrameExport {
                    window: f.window,
                    start_ns: f.window * self.window_ns,
                    end_ns: (f.window + 1) * self.window_ns,
                    counters: f.counters.clone(),
                    gauges: f.gauges.clone(),
                    hists: f
                        .hists
                        .iter()
                        .map(|(n, h)| (n.clone(), h.summary()))
                        .collect(),
                })
                .collect(),
        }
    }

    /// The export serialized as deterministic JSON.
    pub fn export_json(&self) -> String {
        serde_json::to_string(&self.export()).expect("series export serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(decisions: u64, ess: f64, lat: &[u64]) -> SeriesSample {
        let mut s = SeriesSample::new();
        s.counter("decisions", decisions);
        s.gauge("ess", ess);
        let mut h = Histogram::new();
        for &v in lat {
            h.record(v);
        }
        s.hist("latency", h);
        s
    }

    #[test]
    fn windows_seal_exact_deltas() {
        let mut series = WindowSeries::new(SeriesConfig {
            window_ns: 100,
            capacity: 8,
        });
        assert!(series.observe(10, sample(5, 0.9, &[3])).is_empty());
        assert!(series.observe(90, sample(12, 0.8, &[3, 7])).is_empty());
        let sealed = series.observe(150, sample(20, 0.7, &[3, 7, 40]));
        assert_eq!(sealed.len(), 1);
        let f = &sealed[0];
        assert_eq!(f.window, 0);
        assert_eq!(f.counter("decisions"), 12);
        assert_eq!(f.gauge("ess"), Some(0.8));
        assert_eq!(f.hist("latency").unwrap().count(), 2);
        // Next seal subtracts the previous cumulative state.
        let sealed = series.observe(250, sample(21, 0.6, &[3, 7, 40]));
        assert_eq!(sealed[0].counter("decisions"), 8);
        assert_eq!(sealed[0].hist("latency").unwrap().count(), 1);
    }

    #[test]
    fn zero_sizes_clamp_to_one() {
        let mut series = WindowSeries::new(SeriesConfig {
            window_ns: 0,
            capacity: 0,
        });
        assert_eq!(series.window_ns(), 1);
        for t in 0..3 {
            series.observe(t, sample(t + 1, 0.5, &[]));
        }
        // Two windows sealed into a one-frame ring: the older is evicted.
        assert_eq!(series.frames().count(), 1);
        assert_eq!(series.evicted(), 1);
    }

    #[test]
    fn gap_windows_seal_empty_with_carried_gauges() {
        let mut series = WindowSeries::new(SeriesConfig {
            window_ns: 100,
            capacity: 8,
        });
        series.observe(50, sample(5, 0.9, &[3]));
        let sealed = series.observe(450, sample(9, 0.5, &[3, 8]));
        assert_eq!(sealed.len(), 4); // windows 0..=3 sealed
        assert_eq!(sealed[0].counter("decisions"), 5);
        for gap in &sealed[1..] {
            assert_eq!(gap.counter("decisions"), 0);
            assert_eq!(gap.hist("latency").unwrap().count(), 0);
            assert_eq!(gap.gauge("ess"), Some(0.9));
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut series = WindowSeries::new(SeriesConfig {
            window_ns: 10,
            capacity: 2,
        });
        for t in 0..5u64 {
            series.observe(t * 10, sample(t, 0.0, &[]));
        }
        assert_eq!(series.frames().count(), 2);
        assert_eq!(series.evicted(), 2);
        assert_eq!(series.last_frame().unwrap().window, 3);
    }

    #[test]
    fn merge_is_associative_and_adds_deltas() {
        let mk = |d: u64, lat: u64| SeriesFrame {
            window: 7,
            counters: vec![("decisions".into(), d)],
            gauges: vec![("ess".into(), d as f64)],
            hists: vec![("latency".into(), {
                let mut h = Histogram::new();
                h.record(lat);
                h
            })],
        };
        let (a, b, c) = (mk(1, 10), mk(2, 20), mk(4, 30));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.counter("decisions"), 7);
        assert_eq!(left.counter("decisions"), right.counter("decisions"));
        assert_eq!(left.gauge("ess"), right.gauge("ess"));
        assert_eq!(
            left.hist("latency").unwrap().summary(),
            right.hist("latency").unwrap().summary()
        );
    }

    #[test]
    fn export_json_is_deterministic() {
        let run = || {
            let mut series = WindowSeries::new(SeriesConfig {
                window_ns: 100,
                capacity: 4,
            });
            for t in 1..6u64 {
                series.observe(t * 70, sample(t * 3, 1.0 / t as f64, &[t, t * 100]));
            }
            series.export_json()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"window_ns\":100"));
    }
}
