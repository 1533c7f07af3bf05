//! The transport-independent heart of the front-end.
//!
//! Both transports — the real TCP listener and the deterministic in-memory
//! duplex — funnel every request through one [`WireCore`], so admission
//! semantics cannot drift between production and the seeded test path. A
//! request's life:
//!
//! ```text
//! decode ──▶ admit                           ──▶ process
//!            │ advance logical clock             │ deadline re-check:
//!            │ rate limit (per-conn bucket)      │   lapsed in queue → Shed
//!            │ pending budget (QueueBudget)      │ serve / join
//!            │ full → Shed, never queued         │ release budget
//! ```
//!
//! Over TCP the connection's reader runs both steps, waiting between them
//! for a permit of the server's in-service limit; the duplex transport
//! queues admitted jobs until the caller pumps them. Refused work costs
//! one response frame — never a queue slot, a permit, or a shard lock.
//! The deadline is checked a second time in `process` because that is the
//! check that matters: time queued *is* the overload signal.
//!
//! # Determinism
//!
//! The core holds no wall clock and no ambient RNG. Logical time is a
//! monotone maximum over the stamps clients put on their own requests
//! ([`SharedClock`]); rate-limit refills and deadline sheds derive from it
//! alone. Replaying the same frames in the same order reproduces the same
//! verdicts, the same decisions, and a byte-identical decision log — the
//! equivalence the `wire_equivalence` integration test pins down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use harvest_log::segment::SegmentSink;
use harvest_serve::{DecisionBatch, DecisionService, QueueBudget, ServeMetrics};

use crate::admission::TokenBucket;
use crate::metrics::WireMetrics;
use crate::ops::{OpsQuery, OpsResponse};
use crate::proto::{Request, Response, ShedReason, WireDecision};

/// The server's logical clock: a monotone maximum over every stamp seen.
/// Cheap to clone (one shared atomic); the deterministic duplex transport
/// also advances it explicitly to simulate queueing delay.
#[derive(Debug, Clone, Default)]
pub struct SharedClock(Arc<AtomicU64>);

impl SharedClock {
    /// A clock at logical zero.
    pub fn new() -> Self {
        SharedClock::default()
    }

    /// The current logical time.
    pub fn now_ns(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Advances to `ns` if that is later than the current reading (stamps
    /// arriving out of order across connections never move time backwards).
    pub fn advance_to(&self, ns: u64) {
        self.0.fetch_max(ns, Ordering::SeqCst);
    }
}

/// Admission knobs for the front-end.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct WireConfig {
    /// Per-connection token-bucket rate in decisions per logical second;
    /// 0 disables rate limiting.
    pub rate_per_sec: u64,
    /// Per-connection burst: the bucket's capacity in decisions.
    pub burst: u64,
    /// Server-wide bound on admitted-but-unprocessed decisions, enforced
    /// by a [`QueueBudget`]; work past it is shed at the door.
    pub pending_capacity: u64,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            rate_per_sec: 0,
            burst: 0,
            pending_capacity: 4096,
        }
    }
}

impl WireConfig {
    /// A builder starting from the defaults (no rate limit, pending
    /// capacity 4096).
    pub fn builder() -> WireConfigBuilder {
        WireConfigBuilder(WireConfig::default())
    }
}

/// Builder for [`WireConfig`].
#[derive(Debug, Clone)]
pub struct WireConfigBuilder(WireConfig);

impl WireConfigBuilder {
    /// Per-connection rate limit in decisions per logical second (0 = off).
    pub fn rate_per_sec(mut self, rate: u64) -> Self {
        self.0.rate_per_sec = rate;
        self
    }

    /// Per-connection burst capacity in decisions.
    pub fn burst(mut self, burst: u64) -> Self {
        self.0.burst = burst;
        self
    }

    /// Server-wide pending-decision budget.
    pub fn pending_capacity(mut self, capacity: u64) -> Self {
        self.0.pending_capacity = capacity;
        self
    }

    /// Returns the config.
    pub fn build(self) -> WireConfig {
        self.0
    }
}

/// Per-connection admission state, owned by the connection's reader.
#[derive(Debug)]
pub struct ConnState {
    /// The connection id rate limits are keyed by.
    pub conn_id: u64,
    bucket: TokenBucket,
}

/// An admitted request, holding its pending-budget reservation until
/// [`WireCore::process`] releases it.
#[derive(Debug)]
pub struct Job {
    /// The admitting connection.
    pub conn_id: u64,
    /// The frame's correlation id, echoed into the response.
    pub seq: u64,
    /// Logical time at admission.
    pub arrival_ns: u64,
    /// Reserved budget in logical decisions.
    pub weight: u64,
    /// The request body.
    pub request: Request,
}

/// What the door decided.
#[derive(Debug)]
pub enum Admission {
    /// Admitted: [`WireCore::process`] the job (the duplex transport
    /// queues it first).
    Enqueue(Job),
    /// Answered at the door (a pong, or a shed): write the response, done.
    Reply(u64, Response),
}

/// The shared front-end state: service handle, admission pipeline, and
/// wire telemetry. One per server; transports hold it in an `Arc`.
pub struct WireCore<S: SegmentSink + Send + 'static> {
    svc: Arc<DecisionService<S>>,
    serve_metrics: Arc<ServeMetrics>,
    cfg: WireConfig,
    pending: QueueBudget,
    clock: SharedClock,
    metrics: Arc<WireMetrics>,
    conn_ids: AtomicU64,
}

impl<S: SegmentSink + Send + 'static> WireCore<S> {
    /// Wraps a running service in the admission pipeline.
    pub fn new(svc: Arc<DecisionService<S>>, cfg: WireConfig) -> Self {
        let serve_metrics = svc.metrics_handle();
        WireCore {
            svc,
            serve_metrics,
            cfg,
            pending: QueueBudget::new(cfg.pending_capacity.max(1)),
            clock: SharedClock::new(),
            metrics: Arc::new(WireMetrics::new()),
            conn_ids: AtomicU64::new(0),
        }
    }

    /// The wrapped decision service.
    pub fn service(&self) -> &Arc<DecisionService<S>> {
        &self.svc
    }

    /// The wire telemetry handle.
    pub fn metrics(&self) -> &Arc<WireMetrics> {
        &self.metrics
    }

    /// The server's logical clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Registers a connection: assigns the next id and a fresh, full
    /// token bucket.
    pub fn connect(&self) -> ConnState {
        ConnState {
            conn_id: self.conn_ids.fetch_add(1, Ordering::SeqCst),
            bucket: TokenBucket::new(self.cfg.rate_per_sec, self.cfg.burst),
        }
    }

    /// Door-side admission: advances the logical clock, applies the
    /// connection's rate limit and the pending budget, and either admits
    /// the request or produces its response on the spot. Refusals are
    /// ledgered here — in the wire counters *and* in the service's
    /// `admission_shed` — before the response is returned.
    pub fn admit(&self, conn: &mut ConnState, seq: u64, request: Request) -> Admission {
        if let Some(stamp) = request.stamp_ns() {
            self.clock.advance_to(stamp);
        }
        let arrival_ns = self.clock.now_ns();
        let weight = request.weight();
        match &request {
            Request::Ping { nonce } => {
                self.metrics.record_ping();
                self.metrics.record_response();
                return Admission::Reply(seq, Response::Pong { nonce: *nonce });
            }
            Request::Decide { .. } => self.metrics.record_decide_request(),
            Request::DecideBatch { .. } => self.metrics.record_batch_request(weight),
            Request::Reward { .. } => self.metrics.record_reward_request(),
        }
        if !conn.bucket.try_take(weight, arrival_ns) {
            self.shed(&request, weight, ShedReason::RateLimited);
            self.metrics.record_response();
            return Admission::Reply(
                seq,
                Response::Shed {
                    reason: ShedReason::RateLimited,
                },
            );
        }
        // Rewards are admitted against the same pending budget as
        // decisions (weight 1): a reward flood can overload the joiner
        // exactly like a decide flood overloads the shards.
        if !self.pending.try_acquire(weight.max(1)) {
            self.shed(&request, weight, ShedReason::QueueFull);
            self.metrics.record_response();
            return Admission::Reply(
                seq,
                Response::Shed {
                    reason: ShedReason::QueueFull,
                },
            );
        }
        Admission::Enqueue(Job {
            conn_id: conn.conn_id,
            seq,
            arrival_ns,
            weight: weight.max(1),
            request,
        })
    }

    /// Serves an admitted job: re-checks the deadline (work that expired
    /// while queued is shed without touching a shard), serves the request,
    /// releases the pending-budget reservation, and returns the response
    /// to write. Every path through here releases exactly `job.weight`.
    pub fn process(&self, job: Job) -> (u64, Response) {
        let now_ns = self.clock.now_ns();
        self.metrics
            .record_queue_wait(now_ns.saturating_sub(job.arrival_ns));
        let response = match &job.request {
            Request::Ping { nonce } => Response::Pong { nonce: *nonce },
            Request::Decide {
                shard,
                now_ns: stamp_ns,
                budget_ns,
                ..
            }
            | Request::DecideBatch {
                shard,
                now_ns: stamp_ns,
                budget_ns,
                ..
            } => {
                let contexts = job.request.contexts();
                let n = contexts.len() as u64;
                if deadline_lapsed(*stamp_ns, *budget_ns, now_ns) {
                    self.metrics.record_shed_deadline(n);
                    self.serve_metrics.record_admission_shed_n(n);
                    Response::Shed {
                        reason: ShedReason::DeadlineExpired,
                    }
                } else {
                    let mut out = DecisionBatch::with_capacity(contexts.len());
                    match self
                        .svc
                        .decide_batch(*shard as usize, *stamp_ns, contexts, &mut out)
                    {
                        Ok(()) => {
                            let degraded = out.iter().filter(|d| d.degraded).count() as u64;
                            self.metrics.record_served(n, degraded);
                            // The reply kind follows the request kind: a
                            // `Decide` is answered with one `Decision`.
                            let mut served = out.iter().map(WireDecision::from);
                            match job.request {
                                Request::Decide { .. } => Response::Decision(
                                    served.next().expect("one context serves one decision"),
                                ),
                                _ => Response::Batch(served.collect()),
                            }
                        }
                        Err(e) => {
                            self.metrics.record_errored(n);
                            Response::Error {
                                message: e.to_string(),
                            }
                        }
                    }
                }
            }
            Request::Reward {
                request_id,
                now_ns: stamp_ns,
                reward,
            } => {
                let outcome = self.svc.reward(*request_id, *stamp_ns, *reward);
                self.metrics.record_reward_forwarded();
                Response::RewardAck {
                    request_id: *request_id,
                    outcome: outcome.into(),
                }
            }
        };
        self.pending.release(job.weight);
        self.metrics
            .record_request_latency(self.clock.now_ns().saturating_sub(job.arrival_ns));
        self.metrics.record_response();
        (job.seq, response)
    }

    /// Answers an ops-plane scrape at the door, like a ping — but unlike
    /// a ping it pays admission: weight 1 against the connection's token
    /// bucket and the pending budget, so a scrape storm sheds explicitly
    /// instead of starving decisions. A scrape carries no logical stamp
    /// and never advances the clock — observing the system must not
    /// perturb same-seed byte-equivalence on the decision path. Scrape
    /// refusals land on the separate ops ledger, not the decision ledger
    /// and not the service's `admission_shed` (which feeds the SLO
    /// burn-rate watchdog).
    pub fn ops(&self, conn: &mut ConnState, query: OpsQuery) -> OpsResponse {
        self.metrics.record_ops_request();
        let now_ns = self.clock.now_ns();
        if !conn.bucket.try_take(1, now_ns) {
            self.metrics.record_ops_shed();
            self.metrics.record_response();
            return OpsResponse::Shed {
                reason: ShedReason::RateLimited,
            };
        }
        if !self.pending.try_acquire(1) {
            self.metrics.record_ops_shed();
            self.metrics.record_response();
            return OpsResponse::Shed {
                reason: ShedReason::QueueFull,
            };
        }
        let body = match query {
            OpsQuery::Prometheus => self.svc.export_prometheus(),
            OpsQuery::Snapshot => {
                serde_json::to_string(&self.svc.obs_snapshot()).expect("snapshots always serialize")
            }
            OpsQuery::Series => self
                .svc
                .export_series_json()
                .unwrap_or_else(|| "null".to_string()),
            OpsQuery::Alerts => self
                .svc
                .export_alerts_json()
                .unwrap_or_else(|| "null".to_string()),
            OpsQuery::AlertEvents => self.svc.export_alert_events_jsonl().unwrap_or_default(),
            OpsQuery::Leaderboard => self
                .svc
                .export_leaderboard_json()
                .unwrap_or_else(|| "null".to_string()),
            OpsQuery::WirePrometheus => self.metrics.export_prometheus(),
        };
        self.pending.release(1);
        self.metrics.record_ops_served();
        self.metrics.record_response();
        OpsResponse::Report { body }
    }

    /// Ledgers a shed: wire counters by reason, and the service's
    /// front-door `admission_shed` so the global conservation accounting
    /// covers work the wire refused.
    fn shed(&self, request: &Request, weight: u64, reason: ShedReason) {
        if matches!(request, Request::Reward { .. }) {
            self.metrics.record_reward_shed();
        } else {
            match reason {
                ShedReason::RateLimited => self.metrics.record_shed_rate_limited(weight),
                ShedReason::QueueFull => self.metrics.record_shed_queue_full(weight),
                ShedReason::DeadlineExpired => self.metrics.record_shed_deadline(weight),
            }
        }
        self.serve_metrics.record_admission_shed_n(weight.max(1));
    }
}

/// Whether a request stamped `stamp_ns` with deadline budget `budget_ns`
/// (0 = none) has expired by logical time `now_ns`.
fn deadline_lapsed(stamp_ns: u64, budget_ns: u64, now_ns: u64) -> bool {
    budget_ns > 0 && now_ns > stamp_ns.saturating_add(budget_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_core::SimpleContext;
    use harvest_log::segment::MemorySegments;
    use harvest_serve::ServeConfig;

    fn core(cfg: WireConfig) -> WireCore<MemorySegments> {
        let svc = ServeConfig::builder()
            .shards(2)
            .epsilon(0.2)
            .master_seed(5)
            .build()
            .expect("valid config");
        WireCore::new(
            Arc::new(DecisionService::new(svc, MemorySegments::new())),
            cfg,
        )
    }

    fn decide(shard: u32, now_ns: u64, budget_ns: u64) -> Request {
        Request::Decide {
            shard,
            now_ns,
            budget_ns,
            context: SimpleContext::new(vec![0.5], 3),
        }
    }

    #[test]
    fn admitted_decide_serves_and_releases_budget() {
        let c = core(WireConfig::builder().pending_capacity(1).build());
        let mut conn = c.connect();
        let Admission::Enqueue(job) = c.admit(&mut conn, 1, decide(0, 100, 0)) else {
            panic!("must admit under an empty budget");
        };
        let (seq, resp) = c.process(job);
        assert_eq!(seq, 1);
        assert!(matches!(resp, Response::Decision(d) if !d.degraded));
        // The reservation came back: the next request is admitted too.
        assert!(matches!(
            c.admit(&mut conn, 2, decide(0, 200, 0)),
            Admission::Enqueue(_)
        ));
        let s = c.metrics().snapshot();
        assert!(
            s.ledger_ok || s.decisions_requested == 2,
            "one still queued"
        );
    }

    #[test]
    fn full_pending_budget_sheds_at_the_door() {
        let c = core(WireConfig::builder().pending_capacity(2).build());
        let mut conn = c.connect();
        let mut jobs = Vec::new();
        let mut sheds = 0;
        for i in 0..5u64 {
            match c.admit(&mut conn, i, decide(0, 100 + i, 0)) {
                Admission::Enqueue(j) => jobs.push(j),
                Admission::Reply(_, Response::Shed { reason }) => {
                    assert_eq!(reason, ShedReason::QueueFull);
                    sheds += 1;
                }
                other => panic!("unexpected admission {other:?}"),
            }
        }
        assert_eq!(jobs.len(), 2);
        assert_eq!(sheds, 3);
        for j in jobs {
            c.process(j);
        }
        let s = c.metrics().snapshot();
        assert!(s.ledger_ok, "2 served + 3 shed == 5 requested: {s:?}");
        assert_eq!(c.service().metrics().admission_shed, 3);
    }

    #[test]
    fn rate_limit_sheds_past_the_burst() {
        let c = core(
            WireConfig::builder()
                .rate_per_sec(1)
                .burst(2)
                .pending_capacity(100)
                .build(),
        );
        let mut conn = c.connect();
        let mut admitted = 0;
        let mut shed = 0;
        // All at the same logical instant: only the burst fits.
        for i in 0..10u64 {
            match c.admit(&mut conn, i, decide(0, 100, 0)) {
                Admission::Enqueue(j) => {
                    admitted += 1;
                    c.process(j);
                }
                Admission::Reply(_, Response::Shed { reason }) => {
                    assert_eq!(reason, ShedReason::RateLimited);
                    shed += 1;
                }
                other => panic!("unexpected admission {other:?}"),
            }
        }
        assert_eq!((admitted, shed), (2, 8));
        // A fresh connection gets its own bucket.
        let mut conn2 = c.connect();
        assert!(matches!(
            c.admit(&mut conn2, 11, decide(0, 100, 0)),
            Admission::Enqueue(_)
        ));
    }

    #[test]
    fn deadline_lapsed_in_queue_is_shed_before_the_shard() {
        let c = core(WireConfig::default());
        let mut conn = c.connect();
        // Budget of 50ns from stamp 100: expires at logical 150.
        let Admission::Enqueue(job) = c.admit(&mut conn, 1, decide(0, 100, 50)) else {
            panic!("must admit");
        };
        // Another request advances the server clock past the deadline
        // while the first is still queued.
        let Admission::Enqueue(job2) = c.admit(&mut conn, 2, decide(1, 500, 0)) else {
            panic!("must admit");
        };
        let (_, resp) = c.process(job);
        assert!(matches!(
            resp,
            Response::Shed {
                reason: ShedReason::DeadlineExpired
            }
        ));
        let (_, resp2) = c.process(job2);
        assert!(matches!(resp2, Response::Decision(_)));
        let s = c.metrics().snapshot();
        assert_eq!(s.shed_deadline, 1);
        assert!(s.ledger_ok);
        // No decision was burned on the expired request: the service saw
        // exactly one.
        assert_eq!(c.service().metrics().decisions, 1);
    }

    #[test]
    fn bad_shard_is_an_error_and_still_ledgered() {
        let c = core(WireConfig::default());
        let mut conn = c.connect();
        let Admission::Enqueue(job) = c.admit(&mut conn, 1, decide(99, 100, 0)) else {
            panic!("must admit");
        };
        let (_, resp) = c.process(job);
        assert!(matches!(resp, Response::Error { .. }));
        let s = c.metrics().snapshot();
        assert_eq!(s.decisions_errored, 1);
        assert!(s.ledger_ok, "errors stay on the ledger: {s:?}");
    }

    #[test]
    fn ping_bypasses_admission_entirely() {
        let c = core(
            WireConfig::builder()
                .rate_per_sec(1)
                .burst(1)
                .pending_capacity(1)
                .build(),
        );
        let mut conn = c.connect();
        // Exhaust the bucket and the budget.
        let Admission::Enqueue(_job) = c.admit(&mut conn, 1, decide(0, 0, 0)) else {
            panic!("must admit");
        };
        // Pings still answer: health checks must work under overload.
        for i in 0..20u64 {
            match c.admit(&mut conn, 100 + i, Request::Ping { nonce: i }) {
                Admission::Reply(_, Response::Pong { nonce }) => assert_eq!(nonce, i),
                other => panic!("ping must pong, got {other:?}"),
            }
        }
    }

    #[test]
    fn ops_scrapes_pass_admission_but_never_advance_the_clock() {
        let c = core(WireConfig::default());
        let mut conn = c.connect();
        let Admission::Enqueue(job) = c.admit(&mut conn, 1, decide(0, 5_000, 0)) else {
            panic!("must admit");
        };
        c.process(job);
        let before = c.clock().now_ns();
        let resp = c.ops(&mut conn, OpsQuery::Prometheus);
        let OpsResponse::Report { body } = resp else {
            panic!("scrape must serve under an idle door");
        };
        assert!(body.contains("harvest_decisions_total"));
        assert_eq!(c.clock().now_ns(), before, "scrapes must not move time");
        let s = c.metrics().snapshot();
        assert_eq!((s.ops_requests, s.ops_served, s.ops_shed), (1, 1, 0));
        assert!(s.ledger_ok, "both ledgers balance: {s:?}");
    }

    #[test]
    fn ops_scrapes_shed_past_the_rate_limit_without_touching_decisions() {
        let c = core(
            WireConfig::builder()
                .rate_per_sec(1)
                .burst(2)
                .pending_capacity(100)
                .build(),
        );
        let mut conn = c.connect();
        let mut served = 0;
        let mut shed = 0;
        for _ in 0..10 {
            match c.ops(&mut conn, OpsQuery::Alerts) {
                OpsResponse::Report { .. } => served += 1,
                OpsResponse::Shed { reason } => {
                    assert_eq!(reason, ShedReason::RateLimited);
                    shed += 1;
                }
            }
        }
        assert_eq!((served, shed), (2, 8), "only the burst fits at one instant");
        let s = c.metrics().snapshot();
        assert_eq!(s.ops_shed, 8);
        assert_eq!(
            s.decisions_requested, 0,
            "scrapes stay off the decision ledger"
        );
        assert!(s.ledger_ok);
        // Scrape sheds must not leak into the service's admission_shed —
        // that counter feeds the SLO burn-rate watchdog.
        assert_eq!(c.service().metrics().admission_shed, 0);
    }
}
