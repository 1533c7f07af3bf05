//! One serving episode: boot a fresh service, drive a fixed number of
//! decisions through it (in process or over loopback TCP), drain it, and
//! check and count what came out of the log.
//!
//! The episode size is fixed so the in-memory segment store and the
//! joiner's tombstones grow the same way in every episode; a run repeats
//! episodes and reports medians.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use harvest_core::scorer::LinearScorer;
use harvest_estimators::{Candidate, EvaluatorConfig, GreedyScorerCandidate, PortfolioEvaluator};
use harvest_log::record::LogRecord;
use harvest_log::segment::{recover_segments, MemorySegments};
use harvest_serve::{
    DecisionBatch, DecisionService, JoinOutcome, MetricsSnapshot, ObsConfig, ServeConfig,
    ServePolicy,
};
use harvest_wire::{
    Connection, Request, Response, TcpClient, TcpServer, WireConfig, WireCore, WireJoinOutcome,
    WireSnapshot,
};

use crate::inputs::{Inputs, ACTIONS, BATCH, EPSILON, REWARD_LAG, TICK_NS};
use crate::trace::{Recorder, Span};

/// Decision shards in the service.
pub const SHARDS: usize = 2;
/// Shard-affine wire workers.
pub const WIRE_WORKERS: usize = 2;
/// Worker threads of every portfolio pass.
pub const PARALLELISM: usize = 2;
/// Candidates in the portfolio pass that `eval_decisions_per_sec` times.
pub const PORTFOLIO_K: usize = 16;

/// How decisions reach the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Caller threads call `decide_batch` and `reward` directly, each on
    /// its own shard.
    InProc { callers: usize },
    /// Client connections send single `Decide` and `Reward` requests to a
    /// loopback `TcpServer`, each targeting its own shard.
    Wire { conns: usize },
}

impl Transport {
    pub fn callers(self) -> usize {
        match self {
            Transport::InProc { callers } => callers,
            Transport::Wire { conns } => conns,
        }
    }
}

/// Per-episode switches: harness spans, and the service's own
/// observability (`ObsConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    pub spans: bool,
    pub obs: bool,
}

/// Operations attempted and failed, with a line per failure kind.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ledger {
    /// One operation that succeeded or failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), what);
    }

    /// `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            if self.problems.len() < 16 {
                self.problems.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 16 {
                self.problems.push(p);
            }
        }
    }
}

/// The portfolio evaluator every pass uses: greedy candidates at the
/// service's ε, a DR reward model, parallelism 2.
pub fn evaluator(scorers: &[LinearScorer], model: &LinearScorer) -> PortfolioEvaluator {
    PortfolioEvaluator::builder()
        .config(EvaluatorConfig::builder().parallelism(PARALLELISM).build())
        .candidates(scorers.iter().enumerate().map(|(j, s)| {
            Candidate::new(
                format!("cand-{j:02}"),
                GreedyScorerCandidate::new(s.clone(), EPSILON),
            )
        }))
        .model(model.clone())
        .build()
        .expect("portfolio is non-empty")
}

/// What one caller thread saw.
#[derive(Debug, Default)]
struct CallerOut {
    decide_us: Vec<f64>,
    reward_us: Vec<f64>,
    batch_span_ns: u64,
    batch_calls: u64,
    backlog: Vec<f64>,
    ledger: Ledger,
}

/// Everything one episode measured. The log itself is kept only when the
/// caller asks for it (for the traced layer timings).
#[derive(Debug)]
pub struct Episode {
    pub mode: Mode,
    pub setup_s: f64,
    /// First call until `shutdown` returned.
    pub wall_s: f64,
    pub served: u64,
    /// Decisions joined by the k = 1 portfolio pass.
    pub harvested: u64,
    pub decide_us: Vec<f64>,
    pub reward_us: Vec<f64>,
    pub batch_span_ns: u64,
    pub batch_calls: u64,
    pub backlog: Vec<f64>,
    pub drain_ms: f64,
    pub serve: MetricsSnapshot,
    pub wire: Option<WireSnapshot>,
    pub durable_bytes: u64,
    pub recovered: usize,
    pub k1_s: f64,
    /// Wall time and joined count of the k = 16 pass, when it ran.
    pub k16: Option<(f64, u64)>,
    /// Peak resident set of the process during the episode, in MiB.
    pub peak_rss_mb: f64,
    pub ledger: Ledger,
    pub spans: Vec<Span>,
    pub log: Option<(Vec<Vec<u8>>, Vec<LogRecord>)>,
}

impl Episode {
    pub fn harvested_per_sec(&self) -> f64 {
        self.harvested as f64 / self.wall_s
    }
}

/// The fixed parts of a run that every episode shares.
pub struct Plan<'a> {
    pub seed: u64,
    pub transport: Transport,
    pub decisions: usize,
    pub k1: &'a PortfolioEvaluator,
    /// The k = 16 evaluator, when the episode should time it.
    pub k16: Option<&'a PortfolioEvaluator>,
    pub epoch: Instant,
}

/// The service configuration every workload serves with: 2 shards,
/// ε = 0.1, the default `Block` logger, and the given obs switch.
pub fn service_config(seed: u64, obs: bool) -> ServeConfig {
    let obs = if obs {
        ObsConfig::default()
    } else {
        ObsConfig::builder().enabled(false).build()
    };
    ServeConfig::builder()
        .shards(SHARDS)
        .epsilon(EPSILON)
        .master_seed(seed)
        .component("harvestbench")
        .obs(obs)
        .build()
        .expect("valid service config")
}

/// Boots a service and promotes the greedy incumbent.
pub fn boot(seed: u64, obs: bool, incumbent: &LinearScorer) -> DecisionService<MemorySegments> {
    let svc = DecisionService::new(service_config(seed, obs), MemorySegments::new());
    svc.registry()
        .promote(ServePolicy::Greedy(incumbent.clone()), "bench-incumbent");
    svc
}

/// Runs one episode. `keep_log` returns the segments and recovered
/// records for the layer timings.
pub fn run(plan: &Plan<'_>, mode: Mode, keep_log: bool) -> Episode {
    crate::report::reset_peak_rss();
    let mut main = Recorder::new(plan.epoch, 0, mode.spans);
    let root = main.open("episode", None);

    // Set-up: input generation, boot, promotion, and (wire) bind.
    let setup_span = main.open("setup", root);
    let t_setup = Instant::now();
    let inputs = Inputs::generate(plan.seed, plan.decisions);
    let svc = Arc::new(boot(plan.seed, mode.obs, &inputs.incumbent));
    let wire = match plan.transport {
        Transport::Wire { conns } => {
            let cfg = WireConfig::builder()
                .pending_capacity(4 * conns as u64 + 4096)
                .build();
            let core = Arc::new(WireCore::new(Arc::clone(&svc), cfg));
            let server = TcpServer::bind(Arc::clone(&core), "127.0.0.1:0", WIRE_WORKERS)
                .expect("bind loopback");
            Some((core, server))
        }
        Transport::InProc { .. } => None,
    };
    let setup_s = t_setup.elapsed().as_secs_f64();
    main.close(setup_span);

    // Timed: first call until shutdown returns.
    let serve_span = main.open("serve", root);
    let callers = plan.transport.callers();
    let per = plan.decisions / callers;
    let t0 = Instant::now();
    let mut recorders: Vec<Recorder> = (0..callers)
        .map(|c| Recorder::new(plan.epoch, c as u32 + 1, mode.spans))
        .collect();
    let outs: Vec<CallerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = recorders
            .iter_mut()
            .enumerate()
            .map(|(c, rec)| {
                let (svc, inputs) = (&svc, &inputs);
                let addr = wire.as_ref().map(|(_, server)| server.local_addr());
                s.spawn(move || match addr {
                    None => inproc_caller(svc, inputs, c, per, rec),
                    Some(addr) => wire_caller(svc, inputs, addr, c, per, rec),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let metrics = svc.metrics_handle();
    let mut ledger = Ledger::default();
    let wire_snap = wire.map(|(core, server)| {
        let span = main.open("wire.shutdown", serve_span);
        server.shutdown();
        main.close(span);
        let snap = core.metrics().snapshot();
        ledger.op(snap.ledger_ok && snap.decisions_errored == 0, || {
            format!(
                "wire ledger: ok={} errored={}",
                snap.ledger_ok, snap.decisions_errored
            )
        });
        snap
    });
    let svc = Arc::into_inner(svc).expect("every other service handle was dropped");
    let drain_span = main.open("serve.shutdown", serve_span);
    let t_drain = Instant::now();
    let sink = svc.shutdown();
    let drain_ms = t_drain.elapsed().as_secs_f64() * 1e3;
    let wall_s = t0.elapsed().as_secs_f64();
    main.close(drain_span);
    main.close(serve_span);
    let segments = match sink {
        Ok(sink) => sink.snapshot(),
        Err(e) => {
            ledger.op(false, || format!("shutdown failed: {e}"));
            Vec::new()
        }
    };
    let serve = metrics.snapshot();

    // Correctness gate over the drained log.
    let check_span = main.open("log.recover", root);
    let (records, recovery) = recover_segments(&segments);
    main.close(check_span);
    ledger.op(
        serve.log_enqueued == serve.log_written + serve.log_dropped + serve.log_quarantined,
        || format!("log ledger does not balance: {serve:?}"),
    );
    ledger.op(
        recovery.recovered as u64 == serve.log_written && recovery.quarantined_records == 0,
        || {
            format!(
                "recovered {} of {} written, {} quarantined",
                recovery.recovered, serve.log_written, recovery.quarantined_records
            )
        },
    );
    let floor = EPSILON / ACTIONS as f64 - 1e-12;
    let low = records
        .iter()
        .filter(|r| match r {
            LogRecord::Decision(d) => d.propensity.is_none_or(|p| p < floor),
            _ => false,
        })
        .count();
    ledger.op(low == 0, || format!("{low} decisions logged below ε/K"));
    ledger.op(serve.log_dropped + serve.log_quarantined == 0, || {
        format!(
            "{} records dropped, {} quarantined",
            serve.log_dropped, serve.log_quarantined
        )
    });

    let span = main.open("estimators.evaluate_k1", root);
    let t = Instant::now();
    let (report, _) = plan.k1.evaluate_segments(&segments);
    let k1_s = t.elapsed().as_secs_f64();
    main.close(span);
    let harvested = report.n as u64;
    let k16 = plan.k16.map(|ev| {
        let span = main.open("estimators.evaluate_k16", root);
        let t = Instant::now();
        let (report, _) = ev.evaluate_segments(&segments);
        let s = t.elapsed().as_secs_f64();
        main.close(span);
        (s, report.n as u64)
    });
    main.close(root);

    // The main recorder drains first, so its span indices stay valid.
    let mut spans = Vec::new();
    main.drain_into(&mut spans, None);
    let mut out = CallerOut::default();
    for (rec, o) in recorders.iter_mut().zip(outs) {
        rec.drain_into(&mut spans, serve_span);
        out.decide_us.extend(o.decide_us);
        out.reward_us.extend(o.reward_us);
        out.batch_span_ns += o.batch_span_ns;
        out.batch_calls += o.batch_calls;
        out.backlog.extend(o.backlog);
        ledger.absorb(o.ledger);
    }
    if let Some(k16) = k16 {
        ledger.op(k16.1 == harvested, || {
            format!("k=16 pass joined {} but k=1 joined {harvested}", k16.1)
        });
    }

    Episode {
        mode,
        setup_s,
        wall_s,
        served: serve.decisions,
        harvested,
        decide_us: out.decide_us,
        reward_us: out.reward_us,
        batch_span_ns: out.batch_span_ns,
        batch_calls: out.batch_calls,
        backlog: out.backlog,
        drain_ms,
        serve,
        wire: wire_snap,
        durable_bytes: segments.iter().map(|s| s.len() as u64).sum(),
        recovered: recovery.recovered,
        k1_s,
        k16,
        peak_rss_mb: crate::report::peak_rss_mb(),
        ledger,
        spans,
        log: keep_log.then_some((segments, records)),
    }
}

/// A decision awaiting its reward: request id, input index, action.
type Pending = VecDeque<(u64, usize, usize)>;

fn micros(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// One in-process caller: `decide_batch` of 16 on its own shard, then the
/// rewards that have reached the lag.
fn inproc_caller(
    svc: &DecisionService<MemorySegments>,
    inputs: &Inputs,
    caller: usize,
    per: usize,
    rec: &mut Recorder,
) -> CallerOut {
    let mut out = CallerOut::default();
    let span = rec.open("caller", None);
    let shard = caller % SHARDS;
    let base = caller * per;
    let mut batch = DecisionBatch::with_capacity(BATCH);
    let mut pending = Pending::with_capacity(REWARD_LAG + BATCH);
    let mut now_ns = 0;
    for b in 0..per / BATCH {
        let first = base + b * BATCH;
        now_ns = (b * BATCH) as u64 * TICK_NS + TICK_NS;
        let start = rec.now_ns();
        let t = Instant::now();
        let res = svc.decide_batch(
            shard,
            now_ns,
            &inputs.contexts[first..first + BATCH],
            &mut batch,
        );
        let us = micros(t);
        out.decide_us.push(us);
        out.batch_span_ns += (us * 1e3) as u64;
        out.batch_calls += 1;
        let op = batch.decisions().first().map_or(0, |d| d.request_id);
        rec.record("serve.decide_batch", start, rec.now_ns(), span, op);
        match res {
            Ok(()) => {
                out.ledger.ops(BATCH as u64, 0, String::new);
                for (k, d) in batch.decisions().iter().enumerate() {
                    pending.push_back((d.request_id, first + k, d.action));
                }
            }
            Err(e) => out
                .ledger
                .ops(BATCH as u64, BATCH as u64, || format!("decide_batch: {e}")),
        }
        while pending.len() > REWARD_LAG {
            let p = pending.pop_front().expect("non-empty");
            inproc_reward(svc, inputs, p, now_ns, rec, span, &mut out);
        }
        if rec.enabled() && caller == 0 && b % 8 == 0 {
            let start = rec.now_ns();
            out.backlog.push(svc.metrics().log_backlog as f64);
            rec.record("serve.metrics", start, rec.now_ns(), span, 0);
        }
    }
    while let Some(p) = pending.pop_front() {
        inproc_reward(svc, inputs, p, now_ns + TICK_NS, rec, span, &mut out);
    }
    rec.close(span);
    out
}

fn inproc_reward(
    svc: &DecisionService<MemorySegments>,
    inputs: &Inputs,
    (request_id, i, action): (u64, usize, usize),
    now_ns: u64,
    rec: &mut Recorder,
    parent: Option<usize>,
    out: &mut CallerOut,
) {
    let start = rec.now_ns();
    let t = Instant::now();
    let outcome = svc.reward(request_id, now_ns, inputs.reward(i, action));
    out.reward_us.push(micros(t));
    rec.record("serve.reward", start, rec.now_ns(), parent, request_id);
    out.ledger.op(outcome == JoinOutcome::Joined, || {
        format!("reward {request_id}: {outcome:?}")
    });
}

/// One wire client: a single `Decide` per call on its own shard, then the
/// `Reward` calls that have reached the lag.
fn wire_caller(
    svc: &DecisionService<MemorySegments>,
    inputs: &Inputs,
    addr: std::net::SocketAddr,
    caller: usize,
    per: usize,
    rec: &mut Recorder,
) -> CallerOut {
    let mut out = CallerOut::default();
    let span = rec.open("caller", None);
    let mut client = match TcpClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.ledger
                .ops(per as u64, per as u64, || format!("connect: {e}"));
            return out;
        }
    };
    let base = caller * per;
    let mut pending = Pending::with_capacity(REWARD_LAG + 1);
    let mut now_ns = 0;
    for i in 0..per {
        now_ns = i as u64 * TICK_NS + TICK_NS;
        let req = Request::Decide {
            shard: caller as u32,
            now_ns,
            budget_ns: 0,
            context: inputs.contexts[base + i].clone(),
        };
        let start = rec.now_ns();
        let t = Instant::now();
        let resp = client.call(&req);
        out.decide_us.push(micros(t));
        match resp {
            Ok(Response::Decision(d)) => {
                rec.record("wire.call_decide", start, rec.now_ns(), span, d.request_id);
                out.ledger.ops(1, 0, String::new);
                pending.push_back((d.request_id, base + i, d.action as usize));
            }
            other => {
                rec.record("wire.call_decide", start, rec.now_ns(), span, 0);
                out.ledger.op(false, || format!("decide: {other:?}"));
                if other.is_err() {
                    // The connection is gone: every remaining decision fails.
                    let rest = (per - i - 1) as u64;
                    out.ledger.ops(rest, rest, String::new);
                    break;
                }
            }
        }
        while pending.len() > REWARD_LAG {
            let p = pending.pop_front().expect("non-empty");
            wire_reward(&mut client, inputs, p, now_ns, rec, span, &mut out);
        }
        if rec.enabled() && caller == 0 && i % 64 == 0 {
            let start = rec.now_ns();
            out.backlog.push(svc.metrics().log_backlog as f64);
            rec.record("serve.metrics", start, rec.now_ns(), span, 0);
        }
    }
    while let Some(p) = pending.pop_front() {
        wire_reward(
            &mut client,
            inputs,
            p,
            now_ns + TICK_NS,
            rec,
            span,
            &mut out,
        );
    }
    rec.close(span);
    out
}

fn wire_reward(
    client: &mut TcpClient,
    inputs: &Inputs,
    (request_id, i, action): (u64, usize, usize),
    now_ns: u64,
    rec: &mut Recorder,
    parent: Option<usize>,
    out: &mut CallerOut,
) {
    let req = Request::Reward {
        request_id,
        now_ns,
        reward: inputs.reward(i, action),
    };
    let start = rec.now_ns();
    let t = Instant::now();
    let resp = client.call(&req);
    out.reward_us.push(micros(t));
    rec.record("wire.call_reward", start, rec.now_ns(), parent, request_id);
    let joined = matches!(
        resp,
        Ok(Response::RewardAck {
            outcome: WireJoinOutcome::Joined,
            ..
        })
    );
    out.ledger
        .op(joined, || format!("reward {request_id}: {resp:?}"));
}
