//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the harness side of every public call, kept in
//! memory, and written out once the run ends. A span's self time is its
//! duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. `parent` indexes the same span list; `op` ties a
/// decision's decide and reward calls together (its request id), 0 when
/// the span belongs to no single decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Disabled recorders cost one branch per call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u32, enabled: bool) -> Self {
        Recorder {
            epoch,
            thread,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its index in this recorder, or
    /// `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            thread: self.thread,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is filled in by [`Recorder::close`], so
    /// children can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = self.now_ns();
        self.record(name, now, now, parent, 0)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Moves this recorder's spans into `into`; spans without a parent get
    /// `root`.
    pub fn drain_into(&mut self, into: &mut Vec<Span>, root: Option<usize>) {
        append(into, self.spans.drain(..), root);
    }
}

/// Appends `spans` to `into`, re-basing their parent indices; spans
/// without a parent get `root`.
pub fn append(into: &mut Vec<Span>, spans: impl IntoIterator<Item = Span>, root: Option<usize>) {
    let base = into.len();
    into.extend(spans.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + base).or(root),
        ..s
    }));
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// union of its children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = union_len(kids, s.start_ns, s.end_ns);
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], w: &mut impl Write) -> io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"thread\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.thread
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            // Two overlapping children (parallel callers) cover 10..70.
            span("caller", 10, 60, Some(0)),
            span("caller", 20, 70, Some(0)),
            span("call", 15, 25, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], 40);
        assert_eq!(t["caller"], 40 + 50);
        assert_eq!(t["call"], 10);
    }

    #[test]
    fn drain_rebases_parents_and_adopts_orphans() {
        let epoch = Instant::now();
        let mut all = vec![span("root", 0, 10, None)];
        let mut r = Recorder::new(epoch, 1, true);
        let outer = r.record("outer", 1, 9, None, 0);
        r.record("inner", 2, 3, outer, 42);
        r.drain_into(&mut all, Some(0));
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert_eq!((all[2].op, all[2].thread), (42, 1));
        let mut off = Recorder::new(epoch, 0, false);
        assert_eq!(off.record("x", 0, 1, None, 0), None);
    }
}
