//! The sharded decision engine — the hot path.
//!
//! Each shard owns a deterministic RNG forked from the master seed by label
//! and index ([`harvest_sim_net::rng::fork_rng_indexed`]), so shard `i`'s
//! stream depends only on `(seed, i)`: adding shards never perturbs the
//! decisions existing shards make, and a same-seed replay is bit-identical.
//!
//! A decision wraps the incumbent policy in an ε exploration floor and
//! stamps the *exact* propensity of the sampled action — the single
//! discipline the whole harvesting methodology rests on (paper §2): logged
//! randomness is only reusable if its probabilities are known.
//!
//! Each shard's state sits behind its own `std::sync::Mutex`, taken once
//! per batch. One worker per shard keeps that lock uncontended, and the
//! policy lookup inside it is one atomic generation check
//! ([`CachedPolicy`]), so no shared lock sits on the decide path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use harvest_core::{Context, SimpleContext};
use harvest_log::record::{BatchDecision, BatchRecord, LogRecord};
use harvest_sim_net::rng::{fork_rng_indexed, rng_from_state, rng_state, DetRng};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::batch::DecisionBatch;
use crate::error::ServeError;
use crate::logger::DecisionLogger;
use crate::metrics::ServeMetrics;
use crate::registry::{CachedPolicy, PolicyRegistry, ServePolicy};

/// Engine configuration.
///
/// Construct via [`EngineConfig::builder`] (validating) or start from
/// [`EngineConfig::default`] and set fields; the struct is
/// `#[non_exhaustive]`, so literal construction outside this crate no
/// longer compiles — new knobs can ship without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Number of decision shards. Each gets an independent RNG stream and
    /// its own lock, so disjoint shards never contend — and same-shard
    /// calls from the shard's own worker are uncontended by construction.
    pub shards: usize,
    /// The exploration floor ε: every action keeps propensity ≥ ε/K.
    pub epsilon: f64,
    /// Master seed; per-shard streams are forked from it by label.
    pub master_seed: u64,
    /// Component name stamped into decision records.
    pub component: String,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 1,
            epsilon: 0.1,
            master_seed: 0,
            component: "harvest-serve".to_string(),
        }
    }
}

impl EngineConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder(EngineConfig::default())
    }

    /// What [`DecisionEngine::new`] would otherwise panic on: `shards ≥ 1`
    /// and ε in `(0, 1]` (a zero floor would log unharvestable
    /// propensity-0 decisions).
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "engine needs at least one shard".to_string(),
            });
        }
        if !(self.epsilon > 0.0 && self.epsilon <= 1.0) {
            return Err(ServeError::InvalidConfig {
                reason: format!("epsilon must be in (0, 1], got {}", self.epsilon),
            });
        }
        Ok(())
    }
}

/// Builder for [`EngineConfig`]; [`build`](EngineConfigBuilder::build)
/// validates what [`DecisionEngine::new`] would otherwise panic on.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder(EngineConfig);

impl EngineConfigBuilder {
    /// Number of decision shards (must stay ≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.0.shards = shards;
        self
    }

    /// The exploration floor ε (must stay in `(0, 1]`).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.0.epsilon = epsilon;
        self
    }

    /// Master seed for the per-shard RNG streams.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.0.master_seed = seed;
        self
    }

    /// Component name stamped into decision records.
    pub fn component(mut self, component: impl Into<String>) -> Self {
        self.0.component = component.into();
        self
    }

    /// Validates and returns the config: `shards ≥ 1` and ε in `(0, 1]`
    /// (a zero floor would log unharvestable propensity-0 decisions).
    pub fn build(self) -> Result<EngineConfig, ServeError> {
        self.0.validate()?;
        Ok(self.0)
    }
}

/// One served decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Unique id correlating this decision with its delayed reward.
    pub request_id: u64,
    /// The shard that served it.
    pub shard: usize,
    /// The chosen action.
    pub action: usize,
    /// The exact probability with which `action` was chosen.
    pub propensity: f64,
    /// Whether the exploration branch fired.
    pub explored: bool,
    /// The policy generation that made the call.
    pub generation: u64,
    /// Whether this decision was served by the safe fallback policy (the
    /// circuit breaker was open). Degraded decisions still carry exact
    /// propensities and are logged normally.
    pub degraded: bool,
}

/// Bits reserved for the per-shard sequence number inside a request id.
/// Ids are `shard << 40 | seq`: unique across shards, deterministic, and
/// good for a trillion decisions per shard. Public so front-ends can route
/// a reward back to the shard that made its decision (`id >> SEQ_BITS`).
pub const SEQ_BITS: u32 = 40;

/// Which of `shards` owns `request_id`: the shard that decided it, folded
/// into range for ids no shard of this engine could have made. The log
/// rings, the frame return rings and the service's reward joiners all
/// route by it.
pub(crate) fn shard_of(request_id: u64, shards: usize) -> usize {
    ((request_id >> SEQ_BITS) as usize) % shards
}

struct Shard {
    rng: DetRng,
    seq: u64,
    cache: CachedPolicy,
    /// Logical stamp of this shard's previous decision, for the
    /// inter-arrival histogram. Per-shard and caller-stamped, so the
    /// gap sequence is deterministic under same-seed replay.
    last_ns: Option<u64>,
}

/// One shard's lock and its chaos wedge flag, cache-line isolated so
/// neighbouring shards' acquisitions do not share a line.
#[repr(align(128))]
struct ShardSlot {
    state: Mutex<Shard>,
    /// Chaos wedge: set by [`DecisionEngine::poison_shard`], cleared (and
    /// counted) by the next acquisition.
    wedged: AtomicBool,
}

/// Durable per-shard engine state: the RNG stream position, the next
/// sequence number, and the previous decision's logical stamp. Everything a
/// warm restart needs to continue a shard's decision stream without reusing
/// a request id or replaying a random draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardState {
    /// The RNG's raw xoshiro256++ state words.
    pub rng: [u64; 4],
    /// The next decision's sequence number on this shard.
    pub seq: u64,
    /// Logical stamp of the shard's most recent decision.
    pub last_ns: Option<u64>,
}

/// The ε-greedy draw every decision path shares — single, batch, and
/// warm-restart replay. A policy with no greedy action costs exactly one
/// draw (`gen_range`); a greedy policy costs one (`gen_bool`, exploit) or
/// two (`gen_bool` + `gen_range`, explore). Replay leans on this being the
/// *only* way the engine touches a shard RNG: re-running the draw for each
/// logged decision advances the restored stream to exactly where the
/// previous incarnation left it.
fn sample_epsilon_greedy(
    rng: &mut DetRng,
    policy: &ServePolicy,
    ctx: &SimpleContext,
    epsilon: f64,
) -> (usize, f64, bool) {
    let k = ctx.num_actions();
    match policy.greedy_action(ctx) {
        None => (rng.gen_range(0..k), 1.0 / k as f64, true),
        Some(greedy) => {
            let floor = epsilon / k as f64;
            let explored = rng.gen_bool(epsilon);
            let action = if explored {
                rng.gen_range(0..k)
            } else {
                greedy
            };
            let p = if action == greedy {
                1.0 - epsilon + floor
            } else {
                floor
            };
            (action, p, explored)
        }
    }
}

/// The sharded decision engine. Each shard's mutable state sits behind its
/// own `Mutex`: the intended one-worker-per-shard deployment takes it
/// uncontended, once per batch, and callers that violate affinity simply
/// wait their turn. Different shards share nothing but atomics.
pub struct DecisionEngine {
    shards: Vec<ShardSlot>,
    registry: Arc<PolicyRegistry>,
    epsilon: f64,
    component: String,
    metrics: Arc<ServeMetrics>,
    logger: DecisionLogger,
}

impl DecisionEngine {
    /// Builds the engine over an existing registry, metrics, and log queue.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `epsilon` is outside `(0, 1]` — a zero
    /// floor would log unharvestable (propensity-0) decisions.
    pub fn new(
        cfg: &EngineConfig,
        registry: Arc<PolicyRegistry>,
        metrics: Arc<ServeMetrics>,
        logger: DecisionLogger,
    ) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(
            cfg.epsilon > 0.0 && cfg.epsilon <= 1.0,
            "epsilon must be in (0, 1], got {}",
            cfg.epsilon
        );
        let shards = (0..cfg.shards)
            .map(|i| ShardSlot {
                state: Mutex::new(Shard {
                    rng: fork_rng_indexed(cfg.master_seed, "serve-shard", i as u64),
                    seq: 0,
                    cache: CachedPolicy::new(&registry),
                    last_ns: None,
                }),
                wedged: AtomicBool::new(false),
            })
            .collect();
        DecisionEngine {
            shards,
            registry,
            epsilon: cfg.epsilon,
            component: cfg.component.clone(),
            metrics,
            logger,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Acquires shard `shard`'s lock — uncontended under shard affinity —
    /// and services any pending chaos wedge: a wedged shard is recovered
    /// and counted here, at its next acquisition. A panic while the lock
    /// was held does not poison the shard: its RNG, sequence counter and
    /// policy cache are each valid at every instant, so the next holder
    /// carries on. The caller must have bounds-checked `shard`.
    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, Shard> {
        let slot = &self.shards[shard];
        let guard = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.wedged.swap(false, Ordering::AcqRel) {
            self.metrics.record_shard_wedge();
        }
        guard
    }

    /// Snapshots every shard's durable state (RNG position, next sequence
    /// number, last decision stamp) for the control-plane checkpoint. Call
    /// from a quiescent point — between waves, not mid-decision — so the
    /// snapshot is a consistent cut of all shards.
    pub fn shard_states(&self) -> Vec<ShardState> {
        (0..self.shards.len())
            .map(|i| {
                let guard = self.lock_shard(i);
                ShardState {
                    rng: rng_state(&guard.rng),
                    seq: guard.seq,
                    last_ns: guard.last_ns,
                }
            })
            .collect()
    }

    /// Restores every shard's durable state from a checkpoint. The shard
    /// count must match the checkpointed one: shard `i`'s stream is defined
    /// by `(seed, i)`, so resuming under a different topology would splice
    /// streams together incoherently.
    pub fn restore_shard_states(&self, states: &[ShardState]) -> Result<(), ServeError> {
        if states.len() != self.shards.len() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "checkpoint has {} shards, engine has {}",
                    states.len(),
                    self.shards.len()
                ),
            });
        }
        for (i, state) in states.iter().enumerate() {
            let mut guard = self.lock_shard(i);
            guard.rng = rng_from_state(state.rng);
            guard.seq = state.seq;
            guard.last_ns = state.last_ns;
        }
        Ok(())
    }

    /// One slot of every decision path — batch, single, and warm-restart
    /// replay: resolve the serving policy (the incumbent, or `fallback`
    /// when the breaker degraded this slot), run the ε-greedy draw, and
    /// stamp the shard's next request id.
    fn draw(
        &self,
        shard: usize,
        state: &mut Shard,
        ctx: &SimpleContext,
        fallback: Option<&ServePolicy>,
    ) -> Decision {
        // Disjoint field borrows: the draw needs the policy cache and the
        // RNG at once, and splitting them here lets each decision borrow
        // the cached `Arc<PolicyVersion>` instead of cloning it — one less
        // pair of refcount updates per decision on the hot path.
        let Shard {
            rng, seq, cache, ..
        } = state;
        // Per-decision policy resolution: a promotion that lands
        // mid-batch takes effect between two decisions.
        let version = cache.get(&self.registry);
        let policy = fallback.unwrap_or(&version.policy);
        let (action, propensity, explored) = sample_epsilon_greedy(rng, policy, ctx, self.epsilon);
        let request_id = ((shard as u64) << SEQ_BITS) | *seq;
        *seq += 1;
        Decision {
            request_id,
            shard,
            action,
            propensity,
            explored,
            generation: version.generation,
            degraded: fallback.is_some(),
        }
    }

    /// Warm-restart replay of one logged decision: re-runs the exact
    /// ε-greedy draw the previous incarnation made for this context,
    /// advancing the shard's RNG and sequence counter — but touching no
    /// tracer and no log queue; the record already exists in the durable
    /// log. Returns the replayed `(request_id, action, explored)` so the
    /// caller can detect divergence from the logged record and re-count the
    /// decision into the restored ledger.
    pub(crate) fn replay_decision(
        &self,
        shard: usize,
        now_ns: u64,
        ctx: &SimpleContext,
    ) -> Result<(u64, usize, bool), ServeError> {
        if shard >= self.shards.len() {
            return Err(ServeError::ShardOutOfRange {
                shard,
                shards: self.shards.len(),
            });
        }
        let mut guard = self.lock_shard(shard);
        let d = self.draw(shard, &mut guard, ctx, None);
        guard.last_ns = Some(now_ns);
        Ok((d.request_id, d.action, d.explored))
    }

    /// Serves one decision on `shard` at logical time `now_ns` under the
    /// incumbent policy: [`decide_batch`](DecisionEngine::decide_batch) on
    /// a batch of one, so it draws, counts, traces, and logs exactly as a
    /// one-context batch does.
    pub fn decide(
        &self,
        shard: usize,
        now_ns: u64,
        ctx: &SimpleContext,
    ) -> Result<Decision, ServeError> {
        let mut out = DecisionBatch::new();
        self.decide_batch(shard, now_ns, std::slice::from_ref(ctx), &mut out)?;
        Ok(out.decisions[0])
    }

    /// Serves a batch of decisions on `shard`, all stamped at logical time
    /// `now_ns`, under the incumbent policy. Decisions land in `out` (which
    /// is cleared first), in context order.
    ///
    /// Samples ε-greedy around the serving policy: the greedy action keeps
    /// probability `1 − ε + ε/K`, every other action `ε/K` (a policy with
    /// no greedy action serves `1/K` each). Each decision record — context,
    /// action, exact propensity — goes to the log queue before this
    /// returns, degraded or not: even safe-arm traffic stays harvestable.
    /// The shard lock is taken once, the sequence range is reserved once,
    /// and the batch goes to the log queue as one frame
    /// ([`LogRecord::from_decisions`]: a plain decision record for a batch
    /// of one, one [`LogRecord::Batch`] otherwise). Recovery flattens batch
    /// frames, so the recovered decision stream does not depend on how
    /// calls were batched.
    ///
    /// A wedged shard (see [`poison_shard`](DecisionEngine::poison_shard))
    /// is recovered and counted at acquisition, never propagated: the
    /// shard's RNG, sequence counter, and policy cache are each valid at
    /// every instant.
    pub fn decide_batch(
        &self,
        shard: usize,
        now_ns: u64,
        contexts: &[SimpleContext],
        out: &mut DecisionBatch,
    ) -> Result<(), ServeError> {
        out.reset();
        self.decide_batch_with(shard, now_ns, contexts, None, out)
    }

    /// [`decide_batch`](DecisionEngine::decide_batch) with a
    /// *per-decision* degraded mask in `out.degraded` (filled by the
    /// service from the circuit breaker): slot `i` serves `fallback` when
    /// `out.degraded[i]` is set. The mask must be per-decision because the
    /// breaker can open or re-arm mid-batch, and which policy serves a
    /// slot changes the RNG draw sequence for everything after it.
    pub(crate) fn decide_batch_with(
        &self,
        shard: usize,
        now_ns: u64,
        contexts: &[SimpleContext],
        fallback: Option<&ServePolicy>,
        out: &mut DecisionBatch,
    ) -> Result<(), ServeError> {
        debug_assert!(fallback.is_none() || out.degraded.len() == contexts.len());
        out.decisions.clear();
        if shard >= self.shards.len() {
            return Err(ServeError::ShardOutOfRange {
                shard,
                shards: self.shards.len(),
            });
        }
        if contexts.is_empty() {
            return Ok(());
        }
        out.decisions.reserve(contexts.len());

        let mut guard = self.lock_shard(shard);
        let first_gap = guard.last_ns.map(|prev| now_ns.saturating_sub(prev));
        guard.last_ns = Some(now_ns);
        for (i, ctx) in contexts.iter().enumerate() {
            let slot_fallback = fallback.filter(|_| out.degraded[i]);
            let d = self.draw(shard, &mut guard, ctx, slot_fallback);
            out.decisions.push(d);
        }
        drop(guard);

        let n = out.decisions.len() as u64;
        let explorations = out.decisions.iter().filter(|d| d.explored).count() as u64;
        let degraded_n = out.decisions.iter().filter(|d| d.degraded).count() as u64;
        self.metrics.record_decisions(now_ns, n, explorations);
        self.metrics.record_degraded_n(degraded_n);
        // Trace *before* offering the batch to the queue: the writer
        // thread must never terminate a trace that does not exist yet.
        if let Some(obs) = self.metrics.obs() {
            for d in &out.decisions {
                obs.tracer().decided(
                    d.request_id,
                    harvest_obs::Decided {
                        ns: now_ns,
                        shard: shard as u32,
                        action: d.action,
                        propensity: d.propensity,
                        explored: d.explored,
                        degraded: d.degraded,
                        generation: d.generation,
                        enqueued: true,
                    },
                );
            }
            // One batch shares one logical instant: the gap to the previous
            // decision, then n − 1 zero gaps — the histogram n single calls
            // at the same stamp would have produced.
            if let Some(gap) = first_gap {
                obs.record_interarrival(shard, gap);
            }
            obs.record_interarrival_n(shard, 0, n - 1);
        }
        // Reserve the frame's record-weighted queue capacity (blocking
        // while the writer catches up), then build the log entries.
        self.logger.reserve(n);
        self.logger
            .send_reserved(self.log_frame(shard, now_ns, contexts, &out.decisions));
        Ok(())
    }

    /// The log frame for one served batch ([`LogRecord::from_decisions`]).
    /// A batch frame refills a frame the writer handed back to this shard
    /// when one is waiting: each entry's feature buffers are cleared and
    /// refilled in place, so a steady batch size allocates nothing here,
    /// and buffers are freed on the thread that allocated them. Only a
    /// missing frame, or entries past its length, allocate.
    fn log_frame(
        &self,
        shard: usize,
        now_ns: u64,
        contexts: &[SimpleContext],
        decisions: &[Decision],
    ) -> LogRecord {
        let returned = if contexts.len() > 1 {
            self.logger.reclaim_frame(shard)
        } else {
            // A lone decision is logged as a plain record, which would
            // consume the frame's entry vector.
            None
        };
        let BatchRecord {
            mut component,
            decisions: mut entries,
        } = returned.unwrap_or_else(|| BatchRecord {
            component: String::new(),
            decisions: Vec::new(),
        });
        component.clear();
        component.push_str(&self.component);
        entries.truncate(contexts.len());
        entries.reserve(contexts.len() - entries.len());
        for (i, (d, ctx)) in decisions.iter().zip(contexts).enumerate() {
            if i == entries.len() {
                entries.push(BatchDecision {
                    request_id: 0,
                    timestamp_ns: 0,
                    shared_features: Vec::new(),
                    action_features: None,
                    num_actions: 0,
                    action: 0,
                    propensity: None,
                    reward: None,
                });
            }
            fill_entry(&mut entries[i], d, ctx, now_ns);
        }
        LogRecord::from_decisions(component, entries)
    }

    /// Chaos hook: wedges `shard`. The next acquisition of the shard — the
    /// next [`decide`](DecisionEngine::decide), batch, replay, or snapshot —
    /// clears the wedge and counts the recovery in `shard_wedges`, one of
    /// the breaker's fault rows; the shard's RNG, sequence counter, and
    /// policy cache are untouched, so the decision stream continues
    /// bit-identically. Returns `false` for an unknown shard.
    pub fn poison_shard(&self, shard: usize) -> bool {
        let Some(slot) = self.shards.get(shard) else {
            return false;
        };
        slot.wedged.store(true, Ordering::Release);
        true
    }
}

/// Overwrites a log entry with one served decision, reusing the entry's
/// feature buffers.
fn fill_entry(entry: &mut BatchDecision, d: &Decision, ctx: &SimpleContext, now_ns: u64) {
    let k = ctx.num_actions();
    entry.request_id = d.request_id;
    entry.timestamp_ns = now_ns;
    entry.shared_features.clear();
    entry
        .shared_features
        .extend_from_slice(ctx.shared_features());
    if ctx.action_feature_dim() > 0 {
        let rows = entry.action_features.get_or_insert_with(Vec::new);
        rows.truncate(k);
        for a in 0..k {
            let features = ctx.action_features(a);
            match rows.get_mut(a) {
                Some(row) => {
                    row.clear();
                    row.extend_from_slice(features);
                }
                None => rows.push(features.to_vec()),
            }
        }
    } else {
        entry.action_features = None;
    }
    entry.num_actions = k;
    entry.action = d.action;
    entry.propensity = Some(d.propensity);
    entry.reward = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::LoggerConfig;
    use crate::supervisor::{spawn_supervised_writer, SupervisorConfig, WriterSupervisorHandle};
    use harvest_core::scorer::LinearScorer;
    use harvest_log::segment::MemorySegments;

    fn engine(
        shards: usize,
        seed: u64,
    ) -> (DecisionEngine, WriterSupervisorHandle<MemorySegments>) {
        engine_with(shards, seed, ServePolicy::Uniform)
    }

    fn engine_with(
        shards: usize,
        seed: u64,
        policy: ServePolicy,
    ) -> (DecisionEngine, WriterSupervisorHandle<MemorySegments>) {
        let metrics = Arc::new(ServeMetrics::new());
        let registry = Arc::new(PolicyRegistry::new(policy, "bootstrap"));
        let (logger, writer) = spawn_supervised_writer(
            LoggerConfig::default(),
            SupervisorConfig::default(),
            1,
            Arc::clone(&metrics),
            None,
            MemorySegments::new(),
        );
        let cfg = EngineConfig {
            shards,
            epsilon: 0.2,
            master_seed: seed,
            component: "test".to_string(),
        };
        (DecisionEngine::new(&cfg, registry, metrics, logger), writer)
    }

    #[test]
    fn same_seed_same_decisions() {
        let ctx = SimpleContext::new(vec![0.5], 4);
        let (a, wa) = engine(2, 42);
        let (b, wb) = engine(2, 42);
        for i in 0..200 {
            assert_eq!(
                a.decide(i % 2, i as u64, &ctx).unwrap(),
                b.decide(i % 2, i as u64, &ctx).unwrap()
            );
        }
        drop((a, b));
        wa.finish().unwrap();
        wb.finish().unwrap();
    }

    #[test]
    fn adding_shards_preserves_existing_streams() {
        let ctx = SimpleContext::new(vec![0.5], 4);
        let (small, ws) = engine(1, 7);
        let (big, wb) = engine(8, 7);
        // Shard 0's stream is identical whether the engine has 1 or 8 shards.
        for i in 0..100 {
            assert_eq!(
                small.decide(0, i, &ctx).unwrap(),
                big.decide(0, i, &ctx).unwrap()
            );
        }
        drop((small, big));
        ws.finish().unwrap();
        wb.finish().unwrap();
    }

    #[test]
    fn batched_decisions_match_single_calls_bit_for_bit() {
        let ctx = SimpleContext::new(vec![0.5], 4);
        let (single, ws) = engine(1, 99);
        let (batched, wb) = engine(1, 99);
        let contexts: Vec<SimpleContext> = (0..16).map(|_| ctx.clone()).collect();
        let mut out = DecisionBatch::with_capacity(16);
        for step in 0..10u64 {
            let now = step * 1000;
            let singles: Vec<Decision> = (0..16)
                .map(|_| single.decide(0, now, &ctx).unwrap())
                .collect();
            batched.decide_batch(0, now, &contexts, &mut out).unwrap();
            assert_eq!(out.decisions(), &singles[..], "step {step}");
        }
        drop((single, batched));
        // Recovery flattens batch frames: the two logs replay identically.
        let (sr, _) = ws.finish().unwrap().recover();
        let (br, _) = wb.finish().unwrap().recover();
        assert_eq!(sr, br);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (e, w) = engine(1, 5);
        let mut out = DecisionBatch::new();
        e.decide_batch(0, 0, &[], &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(e.metrics.snapshot().decisions, 0);
        assert_eq!(e.metrics.snapshot().log_enqueued, 0);
        drop(e);
        let (records, _) = w.finish().unwrap().recover();
        assert!(records.is_empty());
    }

    #[test]
    fn request_ids_are_unique_across_shards() {
        let ctx = SimpleContext::contextless(3);
        let (e, w) = engine(4, 1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..400 {
            let d = e.decide(i % 4, i as u64, &ctx).unwrap();
            assert!(seen.insert(d.request_id), "duplicate id {}", d.request_id);
        }
        drop(e);
        w.finish().unwrap();
    }

    #[test]
    fn out_of_range_shard_is_an_error_not_a_panic() {
        let ctx = SimpleContext::contextless(3);
        let (e, w) = engine(2, 1);
        match e.decide(5, 0, &ctx) {
            Err(ServeError::ShardOutOfRange {
                shard: 5,
                shards: 2,
            }) => {}
            other => panic!("expected ShardOutOfRange, got {other:?}"),
        }
        drop(e);
        w.finish().unwrap();
    }

    #[test]
    fn poisoned_shard_recovers_and_the_stream_continues() {
        let ctx = SimpleContext::new(vec![0.5], 4);
        let (clean, wc) = engine(1, 23);
        let (hurt, wh) = engine(1, 23);
        for i in 0..50 {
            assert_eq!(
                clean.decide(0, i, &ctx).unwrap(),
                hurt.decide(0, i, &ctx).unwrap()
            );
        }
        assert!(hurt.poison_shard(0));
        assert!(!hurt.poison_shard(9));
        // Decisions after recovery are identical to the unpoisoned engine:
        // the shard state (RNG, seq, cache) survives the poison intact.
        for i in 50..100 {
            assert_eq!(
                clean.decide(0, i, &ctx).unwrap(),
                hurt.decide(0, i, &ctx).unwrap()
            );
        }
        assert!(hurt.metrics.snapshot().shard_wedges >= 1);
        assert_eq!(clean.metrics.snapshot().shard_wedges, 0);
        drop((clean, hurt));
        wc.finish().unwrap();
        wh.finish().unwrap();
    }

    #[test]
    fn a_panic_under_the_shard_lock_does_not_poison_the_shard() {
        let ctx = SimpleContext::new(vec![0.5], 4);
        let (clean, wc) = engine(1, 31);
        let (hurt, wh) = engine(1, 31);
        for i in 0..20 {
            assert_eq!(
                clean.decide(0, i, &ctx).unwrap(),
                hurt.decide(0, i, &ctx).unwrap()
            );
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = hurt.lock_shard(0);
            panic!("panic while holding the shard lock");
        }));
        assert!(unwound.is_err());
        // The next decision is served and continues the unhurt stream.
        for i in 20..60 {
            assert_eq!(
                clean.decide(0, i, &ctx).unwrap(),
                hurt.decide(0, i, &ctx).unwrap()
            );
        }
        drop((clean, hurt));
        wc.finish().unwrap();
        wh.finish().unwrap();
    }

    #[test]
    fn fallback_policy_overrides_the_incumbent_and_marks_degraded() {
        let scorer = LinearScorer::PerAction {
            weights: vec![vec![0.0], vec![1.0], vec![0.0], vec![0.0]],
        };
        let (e, w) = engine_with(1, 11, ServePolicy::Greedy(scorer));
        let ctx = SimpleContext::contextless(4);
        let safe = ServePolicy::Uniform;
        let mut out = DecisionBatch::new();
        for i in 0..200 {
            out.reset();
            out.degraded.push(true);
            e.decide_batch_with(0, i, std::slice::from_ref(&ctx), Some(&safe), &mut out)
                .unwrap();
            let d = out.decisions()[0];
            assert!(d.degraded);
            // Uniform fallback: exact propensity 1/K, never the greedy mix.
            assert!((d.propensity - 0.25).abs() < 1e-12);
        }
        let s = e.metrics.snapshot();
        assert_eq!(s.degraded_decisions, 200);
        drop(e);
        let store = w.finish().unwrap();
        let (records, stats) = store.recover();
        assert_eq!(stats.recovered, 200);
        assert_eq!(records.len(), 200);
    }

    #[test]
    fn propensities_match_the_served_distribution() {
        let scorer = LinearScorer::PerAction {
            weights: vec![vec![0.0], vec![1.0], vec![0.0], vec![0.0]],
        };
        let (e, writer) = engine_with(1, 3, ServePolicy::Greedy(scorer));
        let ctx = SimpleContext::contextless(4);
        let mut saw_explore = false;
        for i in 0..500 {
            let d = e.decide(0, i, &ctx).unwrap();
            assert!(!d.degraded);
            if d.action == 1 {
                assert!((d.propensity - (0.8 + 0.05)).abs() < 1e-12);
            } else {
                assert!((d.propensity - 0.05).abs() < 1e-12);
                saw_explore = true;
            }
        }
        assert!(saw_explore, "exploration floor never fired in 500 draws");
        let s = e.metrics.snapshot();
        assert_eq!(s.decisions, 500);
        // ε = 0.2: the exploration branch fires ~100 times in 500.
        assert!(
            s.explorations > 50 && s.explorations < 200,
            "{}",
            s.explorations
        );
        drop(e);
        let store = writer.finish().unwrap();
        let (records, stats) = store.recover();
        assert_eq!(stats.quarantined_records, 0);
        assert_eq!(records.len(), 500);
    }
}
