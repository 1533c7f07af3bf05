//! The three workloads and the metrics each run reports.
//!
//! * `harvest_inproc`: 2 shard-affine caller threads, `decide_batch` of 16
//!   then `reward`, in process.
//! * `harvest_wire`: the same traffic as single `Decide` and `Reward` calls
//!   over 2 loopback `TcpClient` connections.
//! * `replay_portfolio`: set-up writes a log with one in-process caller;
//!   the timed part repeats k = 16 portfolio passes over it.
//!
//! Untraced runs report the end-to-end metrics. Traced runs cycle three
//! episode modes (harness spans on; spans off; spans and `ObsConfig` off),
//! report the per-layer metrics, and write the spans out.

use std::collections::BTreeMap;
use std::time::Instant;

use harvest_estimators::PortfolioEvaluator;
use harvest_log::record::LogRecord;

use crate::episode::{self, evaluator, Episode, Ledger, Mode, Plan, Transport, PARALLELISM};
use crate::inputs::{candidate_scorers, Inputs};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted, supported, tail};
use crate::trace::{self, self_times, Recorder, Span};

/// Decisions per episode. Small episodes, many of them: the median over
/// dozens of short episodes rides out the bursts of a shared host, and at
/// 4096 decisions per shard the service's decision tracer (4096 traces
/// per trace shard) never wraps, so every episode measures the same
/// regime.
pub const INPROC_DECISIONS: usize = 8_192;
pub const WIRE_DECISIONS: usize = 8_192;
/// Decisions in each log the replay set-up writes.
pub const REPLAY_DECISIONS: usize = 8_192;
/// Fewest episodes (per mode) or passes a run measures.
const MIN_EPISODES: usize = 6;
const MIN_PASSES: usize = 10;
/// Set-ups per replay run (split across the modes of a traced run).
const REPLAY_SETUPS: usize = 24;
/// Latency samples pooled per group before taking its percentiles, so
/// even p99 has at least 10 samples beyond it. The reported tail is p95:
/// on a shared 2-vCPU host p99 of a closed loop with more threads than
/// cores tracks the hypervisor's scheduling (it moved 2-3x under a CPU
/// hog while p95 moved under 5 %), so only p95 can carry a bound.
const GROUP_SAMPLES: usize = 1_000;

const SPANS: Mode = Mode {
    spans: true,
    obs: true,
};
const PLAIN: Mode = Mode {
    spans: false,
    obs: true,
};
const NO_OBS: Mode = Mode {
    spans: false,
    obs: false,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Inproc,
    Wire,
    Replay,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "harvest_inproc" => Some(Workload::Inproc),
            "harvest_wire" => Some(Workload::Wire),
            "replay_portfolio" => Some(Workload::Replay),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn modes(&self) -> &'static [Mode] {
        if self.trace {
            &[SPANS, PLAIN, NO_OBS]
        } else {
            &[PLAIN]
        }
    }

    fn budget_left(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() < self.seconds as f64
    }
}

/// Runs the workload; returns the outcome and the recorded spans.
pub fn run(args: &Args, epoch: Instant) -> (Outcome, Vec<Span>) {
    let incumbent = Inputs::generate(args.seed, 0).incumbent;
    let scorers = candidate_scorers(args.seed, &incumbent, episode::PORTFOLIO_K);
    let k1 = evaluator(&scorers[..1], &incumbent);
    let k16 = evaluator(&scorers, &incumbent);
    let (transport, decisions) = match args.workload {
        Workload::Inproc => (Transport::InProc { callers: 2 }, INPROC_DECISIONS),
        Workload::Wire => (Transport::Wire { conns: 2 }, WIRE_DECISIONS),
        Workload::Replay => (Transport::InProc { callers: 1 }, REPLAY_DECISIONS),
    };
    let plan = Plan {
        seed: args.seed,
        transport,
        decisions,
        k1: &k1,
        k16: (args.workload != Workload::Replay).then_some(&k16),
        epoch,
    };
    if args.workload == Workload::Replay {
        replay(args, &plan, &k16)
    } else {
        serving(args, &plan)
    }
}

fn serving(args: &Args, plan: &Plan<'_>) -> (Outcome, Vec<Span>) {
    let modes = args.modes();
    let start = Instant::now();
    let mut eps: Vec<Episode> = Vec::new();
    while eps.len() < MIN_EPISODES * modes.len() || args.budget_left(start) {
        let mode = modes[eps.len() % modes.len()];
        let ep = episode::run(plan, mode, args.trace && mode == SPANS);
        if ep.log.is_some() {
            eps.iter_mut().for_each(|e| e.log = None);
        }
        eps.push(ep);
    }
    let mut o = Outcome {
        runs: eps.len(),
        ..Outcome::default()
    };
    let mut ledger = Ledger::default();
    if args.trace {
        let log = eps
            .iter_mut()
            .find_map(|e| e.log.take())
            .expect("a spans-on episode kept its log");
        let k1_s = median(&of_mode(&eps, SPANS, |e| e.k1_s));
        let k16_s = median(&of_mode(&eps, SPANS, |e| e.k16.map_or(f64::NAN, |k| k.0)));
        let costs = per_layer(&mut o, args, plan, &eps, &log, (k1_s, k16_s));
        serving_layer_sum(&mut o, plan, &eps, &costs);
    } else {
        let setup_s: Vec<f64> = eps.iter().map(|e| e.setup_s).collect();
        let eval: Vec<f64> = eps
            .iter()
            .filter_map(|e| e.k16.map(|(s, joined)| joined as f64 / s))
            .collect();
        end_to_end(&mut o, &mut ledger, &eps, &setup_s, median(&eval));
    }
    finish(o, ledger, eps, Vec::new())
}

fn replay(args: &Args, plan: &Plan<'_>, k16: &PortfolioEvaluator) -> (Outcome, Vec<Span>) {
    let modes = args.modes();
    let mut eps: Vec<Episode> = Vec::new();
    let mut setup_s = Vec::new();
    for i in 0..REPLAY_SETUPS {
        let t = Instant::now();
        let ep = episode::run(plan, modes[i % modes.len()], true);
        setup_s.push(t.elapsed().as_secs_f64());
        eps.iter_mut().for_each(|e| e.log = None);
        eps.push(ep);
    }
    // Every set-up writes the same log: one caller, one seed.
    let log = eps
        .last_mut()
        .and_then(|e| e.log.take())
        .expect("the last set-up keeps its log");
    let harvested = eps.last().map_or(0, |e| e.harvested);

    let mut ledger = Ledger::default();
    let mut rec = Recorder::new(plan.epoch, 0, args.trace);
    let root = rec.open("replay", None);
    let (mut k1_s, mut k16_s) = (Vec::new(), Vec::new());
    let mut first_json: Option<String> = None;
    let mut pass_rss = Vec::new();
    let start = Instant::now();
    while k16_s.len() < MIN_PASSES || args.budget_left(start) {
        if args.trace {
            let span = rec.open("estimators.evaluate_k1", root);
            let t = Instant::now();
            let (report, _) = plan.k1.evaluate_segments(&log.0);
            k1_s.push(t.elapsed().as_secs_f64());
            rec.close(span);
            ledger.op(report.n as u64 == harvested, || {
                format!("k=1 replay joined {} of {harvested}", report.n)
            });
        }
        let span = rec.open("estimators.evaluate_k16", root);
        crate::report::reset_peak_rss();
        let t = Instant::now();
        let (report, recovery) = k16.evaluate_segments(&log.0);
        k16_s.push(t.elapsed().as_secs_f64());
        pass_rss.push(crate::report::peak_rss_mb());
        rec.close(span);
        ledger.op(
            report.n as u64 == harvested && recovery.quarantined_records == 0,
            || format!("k=16 replay joined {} of {harvested}", report.n),
        );
        let json = report.to_json();
        match &first_json {
            None => first_json = Some(json),
            Some(first) => ledger.op(*first == json, || {
                "portfolio report differs between passes of one log".to_string()
            }),
        }
    }
    rec.close(root);

    let mut o = Outcome {
        runs: eps.len() + k16_s.len() + k1_s.len(),
        ..Outcome::default()
    };
    let k16_median = median(&k16_s);
    if args.trace {
        let costs = per_layer(&mut o, args, plan, &eps, &log, (median(&k1_s), k16_median));
        // Layer sum: segment recovery (spread over the pass's workers) plus
        // the per-candidate fold, against the k = 16 pass wall time.
        let recover_ms = log.1.len() as f64 * costs.segment.recover_ns / PARALLELISM as f64 / 1e6;
        let fold_ms = episode::PORTFOLIO_K as f64
            * harvested as f64
            * o.metrics["estimators.portfolio.fold_ns"]
            / 1e6;
        let share = (recover_ms + fold_ms) / (k16_median * 1e3);
        o.set("layers.explained_share", share);
        o.note(format!(
            "layer sum: log.segment recovery {recover_ms:.1} ms + estimators.portfolio fold {fold_ms:.1} ms = {share:.3} of the {:.1} ms k=16 pass",
            k16_median * 1e3
        ));
    } else {
        end_to_end(
            &mut o,
            &mut ledger,
            &eps,
            &setup_s,
            harvested as f64 / k16_median,
        );
        // The replay's own work is the timed passes: its peak is theirs.
        o.set("peak_rss_mb", median(&pass_rss));
        o.note(format!(
            "peak_rss_mb is the median peak of the k=16 passes; set-ups peaked at a median {:.2} MiB",
            median(&eps.iter().map(|e| e.peak_rss_mb).collect::<Vec<_>>())
        ));
    }
    let mut spans = Vec::new();
    rec.drain_into(&mut spans, None);
    finish(o, ledger, eps, spans)
}

/// Values of `f` over the episodes run in `mode`.
fn of_mode(eps: &[Episode], mode: Mode, f: impl Fn(&Episode) -> f64) -> Vec<f64> {
    eps.iter().filter(|e| e.mode == mode).map(f).collect()
}

fn end_to_end(
    o: &mut Outcome,
    ledger: &mut Ledger,
    eps: &[Episode],
    setup_s: &[f64],
    eval_dps: f64,
) {
    let served: u64 = eps.iter().map(|e| e.served).sum();
    let harvested: u64 = eps.iter().map(|e| e.harvested).sum();
    let groups = latency_groups(eps);
    let (mut p50, mut p95, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for lat in &groups {
        ledger.op(supported(lat.len(), 9_900), || {
            format!("{} decide samples cannot support p99", lat.len())
        });
        p50.push(percentile(lat, 5_000));
        p95.push(percentile(lat, 9_500));
        p99.push(percentile(lat, 9_900));
    }
    let pooled = sorted(
        eps.iter()
            .flat_map(|e| e.decide_us.iter().copied())
            .collect(),
    );
    if let Some(t) = tail(&pooled) {
        o.note(format!(
            "decide tail: {} = {:.1} us over {} pooled samples; p99 = {:.1} us as the median over {} groups of at least {GROUP_SAMPLES} samples, like decide_p50_us and decide_p95_us",
            t.label(),
            t.value,
            t.samples,
            median(&p99),
            groups.len()
        ));
    }
    let hps: Vec<f64> = eps.iter().map(Episode::harvested_per_sec).collect();
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    o.note(format!("per episode harvested_per_sec: {}", list(&hps)));
    o.note(format!("per group decide_p50_us: {}", list(&p50)));
    o.note(format!("per group decide_p95_us: {}", list(&p95)));
    o.note(format!("per group decide p99 (us): {}", list(&p99)));
    o.note(format!("per set-up setup_s: {}", list(setup_s)));
    let rss: Vec<f64> = eps.iter().map(|e| e.peak_rss_mb).collect();
    o.note(format!("per episode peak_rss_mb: {}", list(&rss)));
    o.set("setup_s", median(setup_s));
    o.set("harvested_per_sec", median(&hps));
    o.set("harvest_fraction", harvested as f64 / served.max(1) as f64);
    o.set("decide_p50_us", median(&p50));
    o.set("decide_p95_us", median(&p95));
    o.set("eval_decisions_per_sec", eval_dps);
    let bytes: Vec<f64> = eps
        .iter()
        .map(|e| e.durable_bytes as f64 / e.harvested.max(1) as f64)
        .collect();
    o.set("log_bytes_per_decision", median(&bytes));
    o.set("peak_rss_mb", median(&rss));
    o.note(format!(
        "harvest: {served} decisions served, {harvested} harvested over {} episodes",
        eps.len()
    ));
}

/// Each episode's caller-side decide latencies, sorted, with consecutive
/// episodes pooled until a group holds [`GROUP_SAMPLES`]; a short tail
/// joins the last group.
fn latency_groups(eps: &[Episode]) -> Vec<Vec<f64>> {
    let mut groups: Vec<Vec<f64>> = Vec::new();
    let mut cur = Vec::new();
    for e in eps {
        cur.extend_from_slice(&e.decide_us);
        if cur.len() >= GROUP_SAMPLES {
            groups.push(sorted(std::mem::take(&mut cur)));
        }
    }
    match groups.last_mut() {
        Some(last) if !cur.is_empty() => {
            last.extend(cur);
            last.sort_by(f64::total_cmp);
        }
        None => groups.push(sorted(cur)),
        _ => {}
    }
    groups
}

/// The isolated layer costs a traced run measured.
struct Costs {
    idle: layers::IdleCosts,
    segment: layers::SegmentCosts,
    wire: layers::WireCosts,
}

/// The traced run's per-layer metrics, from the spans-on episodes and the
/// isolated layer timings over the given log; `k1_s` and `k16_s` are the
/// median k = 1 and k = 16 pass wall times in seconds.
fn per_layer(
    o: &mut Outcome,
    args: &Args,
    plan: &Plan<'_>,
    eps: &[Episode],
    (segments, records): &(Vec<Vec<u8>>, Vec<LogRecord>),
    (k1_s, k16_s): (f64, f64),
) -> Costs {
    let traced: Vec<&Episode> = eps.iter().filter(|e| e.mode == SPANS).collect();
    let last = *traced.last().expect("a spans-on episode ran");
    let med =
        |f: &dyn Fn(&Episode) -> f64| median(&traced.iter().map(|e| f(e)).collect::<Vec<_>>());
    let p50 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            percentile(&sorted(v.to_vec()), 5_000)
        }
    };
    let batched = matches!(plan.transport, Transport::InProc { .. });

    let inputs = Inputs::generate(args.seed, layers::IDLE_DECISIONS);
    let idle = layers::idle_costs(args.seed, &inputs);
    o.set("serve.engine.decide_idle_ns", idle.decide_ns);
    let batch_p50 = if batched {
        med(&|e| p50(&e.decide_us))
    } else {
        0.0
    };
    o.set("serve.engine.decide_batch_us_p50", batch_p50);
    let blocked = med(&|e| {
        if e.batch_span_ns == 0 || !batched {
            0.0
        } else {
            let span = e.batch_span_ns as f64;
            ((span - e.batch_calls as f64 * idle.batch_ns) / span).max(0.0)
        }
    });
    o.set("serve.logger.blocked_share", blocked);
    let backlog = sorted(
        traced
            .iter()
            .flat_map(|e| e.backlog.iter().copied())
            .collect(),
    );
    o.set("serve.logger.backlog_p50", p50(&backlog));
    o.set(
        "serve.logger.backlog_max",
        backlog.last().copied().unwrap_or(0.0),
    );
    o.set("serve.logger.drain_ms", med(&|e| e.drain_ms));
    let s = &last.serve;
    o.set("serve.logger.enqueued", s.log_enqueued as f64);
    o.set("serve.logger.written", s.log_written as f64);
    o.set("serve.logger.dropped", s.log_dropped as f64);
    o.set("serve.logger.quarantined", s.log_quarantined as f64);
    o.set("serve.joiner.reward_us_p50", med(&|e| p50(&e.reward_us)));
    o.set("serve.joiner.hits", s.join_hits as f64);
    o.set("serve.joiner.late", s.join_late as f64);
    o.set("serve.joiner.unknown", s.join_unknown as f64);
    o.set("serve.joiner.timed_out", s.timed_out_decisions as f64);

    let segment = layers::segment_costs(segments, records);
    o.set("log.segment.encode_ns", segment.encode_ns);
    o.set("log.segment.crc_ns", segment.crc_ns);
    o.set("log.segment.append_ns", segment.append_ns);
    let bytes: usize = segments.iter().map(Vec::len).sum();
    o.set(
        "log.segment.frame_bytes",
        bytes as f64 / records.len().max(1) as f64,
    );
    o.set("log.segment.recover_ns", segment.recover_ns);
    o.set("estimators.portfolio.k1_pass_ms", k1_s * 1e3);
    o.set(
        "estimators.portfolio.fold_ns",
        (k16_s - k1_s) * 1e9 / (last.harvested.max(1) as f64 * (episode::PORTFOLIO_K - 1) as f64),
    );

    let wire = layers::wire_costs(&inputs.contexts, records);
    o.set("wire.request_encode_ns", wire.request_encode_ns);
    o.set("wire.request_decode_ns", wire.request_decode_ns);
    o.set("wire.response_codec_ns", wire.response_codec_ns);
    o.set("wire.request_bytes", wire.request_bytes);
    let ws = last.wire.as_ref();
    o.set("wire.shed", ws.map_or(0.0, |w| w.shed_total as f64));
    o.set(
        "wire.errored",
        ws.map_or(0.0, |w| w.decisions_errored as f64),
    );

    let hps = |mode| median(&of_mode(eps, mode, Episode::harvested_per_sec));
    let (with_spans, plain, no_obs) = (hps(SPANS), hps(PLAIN), hps(NO_OBS));
    o.set("obs.overhead_pct", (no_obs - plain) / no_obs * 100.0);
    o.set("trace.overhead_pct", (plain - with_spans) / plain * 100.0);
    o.note(format!(
        "harvested_per_sec by episode mode: spans+obs {with_spans:.0}, obs only {plain:.0}, neither {no_obs:.0}"
    ));
    if !batched {
        o.note("not exercised on this workload (read 0): serve.engine.decide_batch_us_p50, serve.logger.blocked_share");
    }
    if last.wire.is_none() {
        o.note("not exercised on this workload (read 0): wire.shed, wire.errored");
    }

    let mut self_ns = BTreeMap::new();
    for e in &traced {
        for (name, ns) in self_times(&e.spans) {
            *self_ns.entry(name).or_insert(0) += ns;
        }
    }
    for (name, ns) in self_ns {
        o.note(format!(
            "self time {name}: {:.1} ms over {} traced episodes",
            ns as f64 / 1e6,
            traced.len()
        ));
    }
    Costs {
        idle,
        segment,
        wire,
    }
}

/// Layer sum for a serving workload: the caller-side layers at their
/// isolated costs (engine and joiner on the idle twin, plus the wire codec
/// both ways), per caller thread, plus the writer thread's segment
/// appends, against the median spans-on episode wall time. Socket and
/// hand-off time have no isolated timing and stay unexplained.
fn serving_layer_sum(o: &mut Outcome, plan: &Plan<'_>, eps: &[Episode], c: &Costs) {
    let last = eps
        .iter()
        .rfind(|e| e.mode == SPANS)
        .expect("a spans-on episode ran");
    let decisions = last.served as f64;
    let caller_ns = match plan.transport {
        Transport::InProc { .. } => {
            last.batch_calls as f64 * c.idle.batch_ns + decisions * c.idle.reward_ns
        }
        Transport::Wire { .. } => {
            let codec =
                c.wire.request_encode_ns + c.wire.request_decode_ns + c.wire.response_codec_ns;
            decisions * (c.idle.decide_ns + c.idle.reward_ns + 2.0 * codec)
        }
    };
    let per_caller_ms = caller_ns / plan.transport.callers() as f64 / 1e6;
    let writer_ms = last.recovered as f64 * c.segment.append_ns / 1e6;
    let wall_ms = median(&of_mode(eps, SPANS, |e| e.wall_s)) * 1e3;
    let share = (per_caller_ms + writer_ms) / wall_ms;
    o.set("layers.explained_share", share);
    o.note(format!(
        "layer sum: callers {per_caller_ms:.1} ms each + writer appends {writer_ms:.1} ms = {share:.3} of the {wall_ms:.1} ms episode"
    ));
}

/// Folds every episode's ledger into the outcome and collects the spans
/// of the spans-on episodes, then `extra`.
fn finish(
    mut o: Outcome,
    mut ledger: Ledger,
    eps: Vec<Episode>,
    extra: Vec<Span>,
) -> (Outcome, Vec<Span>) {
    let mut spans = Vec::new();
    for e in eps {
        trace::append(&mut spans, e.spans, None);
        ledger.absorb(e.ledger);
    }
    trace::append(&mut spans, extra, None);
    o.attempted = ledger.attempted;
    o.failed = ledger.failed;
    o.problems = ledger.problems;
    (o, spans)
}
