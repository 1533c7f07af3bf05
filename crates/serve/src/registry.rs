//! The versioned policy registry: which policy is serving right now.
//!
//! The registry keeps the incumbent as an `Arc<PolicyVersion>` behind a
//! `Mutex`, next to an atomic copy of its generation. A promotion swaps the
//! `Arc` under the lock. Readers keep a per-shard [`CachedPolicy`]: on the
//! hot path a read is a single atomic generation check, and only in the
//! instant after a swap does a shard take the lock, for one `Arc` clone.
//! The lock is never held across training, so serving never stalls behind
//! a learner, and a hot-swap waits on serving for at most one clone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use harvest_core::scorer::{LinearScorer, Scorer};
use harvest_core::{Context, SimpleContext};
use serde::Serialize;

/// A servable policy: either the explore-only bootstrap or a learned scorer
/// exploited greedily. The engine wraps either in an ε exploration floor.
/// The incumbent is part of the durable control-plane checkpoint (see
/// [`crate::recovery`]); its JSON rendering is what the restart demo and
/// suite print and compare.
#[derive(Debug, Clone, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
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
    current: Mutex<Arc<PolicyVersion>>,
    /// The incumbent's generation, readable without the lock.
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
            current: Mutex::new(v0),
            generation: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        }
    }

    /// The current incumbent: one `Arc` clone under the lock. Shards read
    /// through [`CachedPolicy`], which calls this only after a swap.
    pub fn current(&self) -> Arc<PolicyVersion> {
        Arc::clone(&self.lock())
    }

    /// The incumbent slot. Every writer leaves it whole before a panic
    /// could unwind, so a poisoned lock still guards a valid version.
    fn lock(&self) -> MutexGuard<'_, Arc<PolicyVersion>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The incumbent's generation number.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// How many promotions have happened.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::SeqCst)
    }

    /// Atomically promotes `policy` to incumbent; returns its generation.
    ///
    /// The old generation is read, the new version installed and the
    /// generation counter advanced all under the lock, so concurrent
    /// promotions get distinct, consecutive generations. The counter is
    /// stored after the install: a reader that observes the new generation
    /// finds the new version behind the lock. In-flight readers keep the
    /// old `Arc`.
    pub fn promote(&self, policy: ServePolicy, name: impl Into<String>) -> u64 {
        let name = name.into();
        let mut current = self.lock();
        let gen = current.generation + 1;
        *current = Arc::new(PolicyVersion {
            generation: gen,
            name,
            policy,
        });
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
        let mut current = self.lock();
        *current = Arc::new(version);
        self.generation.store(gen, Ordering::SeqCst);
        self.swaps.store(swaps, Ordering::SeqCst);
    }
}

/// A shard-local cache of the incumbent `Arc`. The common case — no swap
/// since the last decision — is one atomic load and nothing else; a swap
/// triggers one refresh through [`PolicyRegistry::current`].
#[derive(Debug)]
pub struct CachedPolicy {
    version: Arc<PolicyVersion>,
}

impl CachedPolicy {
    /// Seeds the cache from the registry's current incumbent.
    pub fn new(registry: &PolicyRegistry) -> Self {
        CachedPolicy {
            version: registry.current(),
        }
    }

    /// The incumbent as of now: refreshes from `registry` only if a swap
    /// happened since the cached version.
    pub fn get(&mut self, registry: &PolicyRegistry) -> &Arc<PolicyVersion> {
        if registry.generation() != self.version.generation {
            self.version = registry.current();
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
        // Shards refresh their caches while promotions land back to back;
        // every read must return a complete version whose generation never
        // regresses.
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
    fn concurrent_promotions_get_distinct_consecutive_generations() {
        let reg = Arc::new(PolicyRegistry::new(ServePolicy::Uniform, "v0"));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| reg.promote(ServePolicy::Uniform, format!("w{w}-{i}")))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut gens: Vec<u64> = writers
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        gens.sort_unstable();
        assert_eq!(gens, (1..=400).collect::<Vec<u64>>());
        assert_eq!(reg.swap_count(), 400);
        assert_eq!(reg.generation(), 400);
        assert_eq!(reg.current().generation, 400);
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
