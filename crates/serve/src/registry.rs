//! The versioned policy registry: which policy is serving right now.
//!
//! The registry owns an epoch/RCU double-buffer (`rcu::RcuCell`).
//! Exactly one slot is *active* at any moment; a promotion writes the
//! candidate into the inactive slot — after waiting out any reader still
//! pinned to it — and then flips one atomic index. Readers keep a per-shard
//! [`CachedPolicy`]: on the hot path a read is a single atomic generation
//! check, and only in the instant after a swap does a reader do the full
//! lock-free pinned read to refresh its `Arc`. No mutex sits anywhere on
//! the decision path, so serving never stalls behind training — and a
//! hot-swap never stalls behind serving for more than one `Arc` clone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use harvest_core::scorer::{LinearScorer, Scorer};
use harvest_core::{Context, SimpleContext};
use serde::{Deserialize, Serialize};

use crate::metrics::ServeMetrics;
use crate::rcu::{RcuCell, RcuReader};

/// How many registered lock-free readers the registry supports (one per
/// shard). Shards beyond this fall back to the mutex-sharing cold read on
/// swap — correct, just slower in the post-swap instant.
const MAX_RCU_READERS: usize = 64;

/// A servable policy: either the explore-only bootstrap or a learned scorer
/// exploited greedily. The engine wraps either in an ε exploration floor.
/// Serializable because the incumbent is part of the durable control-plane
/// checkpoint (see [`crate::recovery`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServePolicy {
    /// Uniform over the action set — the bootstrap incumbent before any
    /// model has been trained. Every action has propensity `1/K`.
    Uniform,
    /// Greedy over a learned reward model.
    Greedy(LinearScorer),
}

impl ServePolicy {
    /// The greedy (exploitation) action, or `None` for the uniform
    /// bootstrap, which has no preferred action.
    ///
    /// Ties break toward the lowest action index — the shared
    /// [`Scorer::greedy_action`] kernel that
    /// [`GreedyPolicy`](harvest_core::policy::GreedyPolicy) also uses,
    /// called through a borrow so the per-decision hot path neither clones
    /// the weight matrix nor allocates.
    pub fn greedy_action(&self, ctx: &SimpleContext) -> Option<usize> {
        match self {
            ServePolicy::Uniform => None,
            ServePolicy::Greedy(scorer) => Some(scorer.greedy_action(ctx)),
        }
    }

    /// The distribution this policy serves under an ε exploration floor:
    /// uniform stays uniform; greedy gives its choice `1 − ε + ε/K` and
    /// every other action `ε/K`.
    pub fn served_probabilities(&self, ctx: &SimpleContext, epsilon: f64) -> Vec<f64> {
        let k = ctx.num_actions();
        match self.greedy_action(ctx) {
            None => vec![1.0 / k as f64; k],
            Some(a) => {
                let floor = epsilon / k as f64;
                let mut probs = vec![floor; k];
                probs[a] += 1.0 - epsilon;
                probs
            }
        }
    }
}

/// One immutable registered policy version.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyVersion {
    /// Monotone version number; the bootstrap incumbent is generation 0.
    pub generation: u64,
    /// Human-readable provenance (e.g. `"bootstrap-uniform"`, `"cb-round-3"`).
    pub name: String,
    /// The decision rule itself.
    pub policy: ServePolicy,
}

/// The hot-swappable incumbent store.
#[derive(Debug)]
pub struct PolicyRegistry {
    cell: RcuCell<Arc<PolicyVersion>>,
    generation: AtomicU64,
    swaps: AtomicU64,
}

impl PolicyRegistry {
    /// Creates a registry serving `initial` as generation 0.
    pub fn new(initial: ServePolicy, name: impl Into<String>) -> Self {
        let v0 = Arc::new(PolicyVersion {
            generation: 0,
            name: name.into(),
            policy: initial,
        });
        PolicyRegistry {
            cell: RcuCell::new(v0, MAX_RCU_READERS),
            generation: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        }
    }

    /// Like [`PolicyRegistry::new`]. The metrics handle is accepted for
    /// construction-site compatibility but no longer consulted: the RCU
    /// registry has no slot locks left to poison or recover.
    pub fn with_metrics(
        initial: ServePolicy,
        name: impl Into<String>,
        _metrics: Arc<ServeMetrics>,
    ) -> Self {
        Self::new(initial, name)
    }

    /// The current incumbent. A cold (mutex-sharing) read — control-plane
    /// callers only; shards use [`CachedPolicy`], which reads lock-free.
    pub fn current(&self) -> Arc<PolicyVersion> {
        self.cell.read_cold()
    }

    /// The incumbent's generation number.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// How many promotions have happened.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::SeqCst)
    }

    /// Claims a lock-free reader pin for a shard's [`CachedPolicy`], or
    /// `None` when the pool (64) is exhausted.
    pub(crate) fn reader(&self) -> Option<RcuReader> {
        self.cell.reader()
    }

    /// The incumbent via a pinned lock-free read.
    pub(crate) fn read(&self, reader: RcuReader) -> Arc<PolicyVersion> {
        self.cell.read(reader)
    }

    /// Atomically promotes `policy` to incumbent; returns its generation.
    ///
    /// The new version is written into the inactive slot — after the RCU
    /// quiescence wait for readers still pinned there — then the active
    /// index flips, then the generation counter advances, all `SeqCst`: a
    /// reader that observes the new generation also observes the new index.
    /// In-flight readers finish on the old version; nobody blocks.
    pub fn promote(&self, policy: ServePolicy, name: impl Into<String>) -> u64 {
        let gen = self.generation.load(Ordering::SeqCst) + 1;
        let next = Arc::new(PolicyVersion {
            generation: gen,
            name: name.into(),
            policy,
        });
        self.cell.write(next);
        self.generation.store(gen, Ordering::SeqCst);
        self.swaps.fetch_add(1, Ordering::SeqCst);
        gen
    }

    /// Restores a checkpointed incumbent verbatim: generation, name, policy,
    /// and the lifetime swap count. Unlike [`promote`](Self::promote) this
    /// neither advances the generation nor counts a swap — a warm restart
    /// resumes the old incarnation's history, it does not rewrite it.
    pub fn restore(&self, version: PolicyVersion, swaps: u64) {
        let gen = version.generation;
        self.cell.write(Arc::new(version));
        self.generation.store(gen, Ordering::SeqCst);
        self.swaps.store(swaps, Ordering::SeqCst);
    }
}

/// A shard-local cache of the incumbent `Arc`. The common case — no swap
/// since the last decision — is one atomic load and nothing else; a swap
/// triggers one epoch-pinned lock-free refresh.
#[derive(Debug)]
pub struct CachedPolicy {
    version: Arc<PolicyVersion>,
    reader: Option<RcuReader>,
}

impl CachedPolicy {
    /// Seeds the cache from the registry's current incumbent and claims a
    /// lock-free reader pin (falling back to cold reads past 64 shards).
    pub fn new(registry: &PolicyRegistry) -> Self {
        CachedPolicy {
            version: registry.current(),
            reader: registry.reader(),
        }
    }

    /// The incumbent as of now: refreshes from `registry` only if a swap
    /// happened since the cached version.
    pub fn get(&mut self, registry: &PolicyRegistry) -> &Arc<PolicyVersion> {
        if registry.generation() != self.version.generation {
            self.version = match self.reader {
                Some(r) => registry.read(r),
                None => registry.current(),
            };
        }
        &self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scorer_pref(best: usize, k: usize) -> LinearScorer {
        // Per-action constant scores: action `best` wins.
        let weights = (0..k)
            .map(|a| vec![if a == best { 1.0 } else { 0.0 }])
            .collect();
        LinearScorer::PerAction { weights }
    }

    #[test]
    fn promote_flips_generation_and_policy() {
        let reg = PolicyRegistry::new(ServePolicy::Uniform, "bootstrap");
        assert_eq!(reg.generation(), 0);
        assert_eq!(reg.current().name, "bootstrap");
        let gen = reg.promote(ServePolicy::Greedy(scorer_pref(2, 4)), "round-1");
        assert_eq!(gen, 1);
        assert_eq!(reg.generation(), 1);
        assert_eq!(reg.swap_count(), 1);
        let cur = reg.current();
        assert_eq!(cur.name, "round-1");
        let ctx = SimpleContext::contextless(4);
        assert_eq!(cur.policy.greedy_action(&ctx), Some(2));
    }

    #[test]
    fn every_greedy_path_agrees_on_one_scorer() {
        use harvest_core::policy::{GreedyPolicy, Policy};
        use harvest_estimators::portfolio::CandidatePolicy;
        use harvest_estimators::GreedyScorerCandidate;

        // Six actions (one full block of four plus a tail), five weight
        // rows (the sixth action scores -inf), and exact ties for the lead
        // at x = 1 (actions 1 and 4) and x = -1 (actions 2 and 3).
        let scorer = LinearScorer::PerAction {
            weights: vec![
                vec![0.5, 0.0],
                vec![1.0, 1.0],
                vec![-1.0, 0.5],
                vec![0.0, 1.5],
                vec![2.0, 0.0],
            ],
        };
        let serving = ServePolicy::Greedy(scorer.clone());
        let policy = GreedyPolicy::new(scorer.clone());
        let candidate = GreedyScorerCandidate::new(scorer, 0.3);
        let mut probs = Vec::new();
        for (x, want) in [(1.0, 1), (3.0, 4), (-1.0, 2), (0.25, 3)] {
            let ctx = SimpleContext::new(vec![x], 6);
            assert_eq!(serving.greedy_action(&ctx), Some(want), "x = {x}");
            assert_eq!(policy.choose(&ctx), want, "x = {x}");
            candidate.fill_probabilities(&ctx, &mut probs);
            assert_eq!(probs, serving.served_probabilities(&ctx, 0.3), "x = {x}");
        }
    }

    #[test]
    fn cache_refreshes_only_on_swap() {
        let reg = PolicyRegistry::new(ServePolicy::Uniform, "v0");
        let mut cache = CachedPolicy::new(&reg);
        assert_eq!(cache.get(&reg).generation, 0);
        let first = Arc::as_ptr(cache.get(&reg));
        // No swap: same Arc back.
        assert_eq!(Arc::as_ptr(cache.get(&reg)), first);
        reg.promote(ServePolicy::Uniform, "v1");
        assert_eq!(cache.get(&reg).generation, 1);
        assert_eq!(cache.get(&reg).name, "v1");
    }

    #[test]
    fn served_probabilities_are_epsilon_floored() {
        let ctx = SimpleContext::contextless(4);
        let uni = ServePolicy::Uniform.served_probabilities(&ctx, 0.1);
        assert_eq!(uni, vec![0.25; 4]);
        let greedy = ServePolicy::Greedy(scorer_pref(1, 4));
        let probs = greedy.served_probabilities(&ctx, 0.2);
        assert!((probs[1] - (0.8 + 0.05)).abs() < 1e-12);
        for a in [0, 2, 3] {
            assert!((probs[a] - 0.05).abs() < 1e-12);
        }
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_cached_readers_survive_a_promotion_storm() {
        // The RCU replacement for the old poisoned-slot test: shards read
        // through their pins while promotions rotate both slots; every read
        // must return a complete version whose generation never regresses.
        let reg = Arc::new(PolicyRegistry::new(ServePolicy::Uniform, "v0"));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut cache = CachedPolicy::new(&reg);
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let v = cache.get(&reg);
                        assert!(v.generation >= last, "generation regressed");
                        assert_eq!(v.name, format!("v{}", v.generation));
                        last = v.generation;
                    }
                })
            })
            .collect();
        for gen in 1..=200u64 {
            assert_eq!(reg.promote(ServePolicy::Uniform, format!("v{gen}")), gen);
        }
        stop.store(true, Ordering::Relaxed);
        for t in readers {
            t.join().unwrap();
        }
        assert_eq!(reg.current().generation, 200);
        assert_eq!(reg.swap_count(), 200);
    }

    #[test]
    fn in_flight_readers_keep_the_old_version_across_a_swap() {
        let reg = PolicyRegistry::new(ServePolicy::Uniform, "v0");
        let held = reg.current();
        reg.promote(ServePolicy::Uniform, "v1");
        reg.promote(ServePolicy::Uniform, "v2");
        // The Arc held across two swaps is still the version it was.
        assert_eq!(held.generation, 0);
        assert_eq!(reg.current().generation, 2);
    }
}
