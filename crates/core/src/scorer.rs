//! Scorers: per-(context, action) values that drive greedy and softmax
//! policies and serve as reward models for direct-method / doubly-robust
//! estimation.

use serde::Serialize;

use crate::context::Context;

/// Assigns a score to each action in a context. Higher is better.
///
/// The same trait serves two roles: a *policy driver* (greedy/softmax pick
/// by score) and a *reward model* (direct-method and doubly-robust
/// estimators use scores as predicted rewards `r̂(x, a)`).
///
/// The all-actions methods default to one [`Scorer::score`] call per
/// action. An override must return exactly those values, bit for bit: a
/// scorer may only change how fast every action is scored, never what
/// any action scores.
pub trait Scorer<C: Context> {
    /// The score of taking `action` in `ctx`.
    fn score(&self, ctx: &C, action: usize) -> f64;

    /// Writes the score of every action, in action order, into `out`
    /// (cleared first).
    fn score_all(&self, ctx: &C, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..ctx.num_actions()).map(|a| self.score(ctx, a)));
    }

    /// Scores for every eligible action.
    fn scores(&self, ctx: &C) -> Vec<f64> {
        let mut out = Vec::with_capacity(ctx.num_actions());
        self.score_all(ctx, &mut out);
        out
    }

    /// The highest-scoring action. The first action wins ties, a NaN
    /// score never wins, and action 0 is the answer when nothing beats
    /// `-∞`.
    fn greedy_action(&self, ctx: &C) -> usize {
        let mut best = Argmax::new();
        for a in 0..ctx.num_actions() {
            best.offer(self.score(ctx, a));
        }
        best.action()
    }
}

impl<C: Context, S: Scorer<C> + ?Sized> Scorer<C> for &S {
    fn score(&self, ctx: &C, action: usize) -> f64 {
        (**self).score(ctx, action)
    }

    fn score_all(&self, ctx: &C, out: &mut Vec<f64>) {
        (**self).score_all(ctx, out)
    }

    fn greedy_action(&self, ctx: &C) -> usize {
        (**self).greedy_action(ctx)
    }
}

impl<C: Context> Scorer<C> for Box<dyn Scorer<C> + '_> {
    fn score(&self, ctx: &C, action: usize) -> f64 {
        (**self).score(ctx, action)
    }

    fn score_all(&self, ctx: &C, out: &mut Vec<f64>) {
        (**self).score_all(ctx, out)
    }

    fn greedy_action(&self, ctx: &C) -> usize {
        (**self).greedy_action(ctx)
    }
}

/// The running argmax behind every greedy choice: scores are offered in
/// action order and only a strictly greater score takes the lead.
struct Argmax {
    next: usize,
    best: usize,
    best_score: f64,
}

impl Argmax {
    fn new() -> Self {
        Argmax {
            next: 0,
            best: 0,
            best_score: f64::NEG_INFINITY,
        }
    }

    fn offer(&mut self, score: f64) {
        if score > self.best_score {
            self.best_score = score;
            self.best = self.next;
        }
        self.next += 1;
    }

    fn action(&self) -> usize {
        self.best
    }
}

/// A linear model over the assembled feature vector.
///
/// Two variants matching the two modeling modes:
///
/// * [`LinearScorer::PerAction`] — one weight vector per action slot over
///   `φ_shared(x) = [shared ‖ 1]`. Right when actions are fixed semantic
///   slots (wait times, named servers). If a context offers more actions
///   than there are weight vectors, extra actions score `-∞` (never chosen
///   greedily).
/// * [`LinearScorer::Pooled`] — a single weight vector over
///   `φ(x, a) = [shared ‖ action_features(a) ‖ 1]`. Right when actions are
///   interchangeable candidates described by features (eviction candidates),
///   so the action set may vary per context.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum LinearScorer {
    /// One weight vector per action slot.
    PerAction {
        /// `weights[a]` scores action `a` against `phi_shared(ctx)`.
        weights: Vec<Vec<f64>>,
    },
    /// One pooled weight vector over `phi(ctx, a)`.
    Pooled {
        /// Scores any action against `phi(ctx, a)`.
        weights: Vec<f64>,
    },
}

impl LinearScorer {
    /// A per-action scorer of all-zero weights, `k` actions of shared
    /// feature dimension `shared_dim` (bias included automatically).
    pub fn zero_per_action(k: usize, shared_dim: usize) -> Self {
        LinearScorer::PerAction {
            weights: vec![vec![0.0; shared_dim + 1]; k],
        }
    }

    /// A pooled scorer of all-zero weights over `phi` dimension
    /// `shared_dim + action_dim + 1`.
    pub fn zero_pooled(shared_dim: usize, action_dim: usize) -> Self {
        LinearScorer::Pooled {
            weights: vec![0.0; shared_dim + action_dim + 1],
        }
    }

    /// Feeds the score of every action of `ctx`, in action order, to
    /// `emit` — the one scoring kernel behind `score_all` and
    /// `greedy_action`. It allocates nothing.
    ///
    /// Every score is the same chained dot as [`LinearScorer::score`]:
    /// the products `w[i]·φ[i]` added one at a time, in feature order,
    /// onto [`CHAIN_START`], and cut off at the
    /// shorter of the weight row and `φ`. The kernel only changes how many
    /// chains run at once, so its scores match `score` bit for bit:
    ///
    /// * `PerAction` walks the shared features once per block of eight
    ///   actions, then once for a block of four, with the block's chains
    ///   held side by side in registers, so the adds of different actions
    ///   overlap instead of waiting on one another. The last few rows,
    ///   and any row too short to reach the bias, take the one-chain
    ///   path; actions past the last row score `-∞`.
    /// * `Pooled` adds the shared features once — the prefix is the same
    ///   chain for every action — and then finishes each action's chain
    ///   over its own action features and the bias.
    fn for_each_score<C: Context>(&self, ctx: &C, mut emit: impl FnMut(f64)) {
        let k = ctx.num_actions();
        let shared = ctx.shared_features();
        match self {
            LinearScorer::PerAction { weights } => {
                let rows = &weights[..k.min(weights.len())];
                let rest = score_blocks::<8>(rows, shared, &mut emit);
                let rest = score_blocks::<4>(rest, shared, &mut emit);
                for w in rest {
                    emit(per_action_dot(w, shared));
                }
                for _ in rows.len()..k {
                    emit(f64::NEG_INFINITY);
                }
            }
            LinearScorer::Pooled { weights } => {
                let (prefix, w_rest) = pooled_prefix(weights, shared);
                for a in 0..k {
                    emit(pooled_tail(prefix, w_rest, ctx.action_features(a)));
                }
            }
        }
    }
}

/// The bias feature every `φ` vector ends with.
const BIAS: f64 = 1.0;

/// The value every dot-product chain starts from. It is the start value of
/// `f64`'s `Sum`, so a chain of `-0.0` products stays `-0.0` and every score
/// equals `Iterator::sum` over `w·φ` bit for bit.
const CHAIN_START: f64 = -0.0;

/// Adds `w[i]·x[i]` onto `acc` one product at a time, stopping at the
/// shorter slice.
fn chained_dot(acc: f64, w: &[f64], x: &[f64]) -> f64 {
    w.iter().zip(x).fold(acc, |acc, (w, x)| acc + w * x)
}

/// One per-action row against `φ_shared = [shared ‖ 1]`.
fn per_action_dot(w: &[f64], shared: &[f64]) -> f64 {
    debug_assert_eq!(
        w.len(),
        shared.len() + 1,
        "weight/feature dimension mismatch"
    );
    let acc = chained_dot(CHAIN_START, w, shared);
    match w.get(shared.len()) {
        Some(bias) => acc + bias * BIAS,
        None => acc,
    }
}

/// Scores `rows` in whole blocks of `N` against `φ_shared = [shared ‖ 1]`
/// and returns the rows left over (fewer than `N`). A block with a row too
/// short to reach the bias falls back to one chain per row.
fn score_blocks<'w, const N: usize>(
    rows: &'w [Vec<f64>],
    shared: &[f64],
    emit: &mut impl FnMut(f64),
) -> &'w [Vec<f64>] {
    let mut blocks = rows.chunks_exact(N);
    for block in &mut blocks {
        if block.iter().all(|w| w.len() > shared.len()) {
            dot_block::<N>(block, shared)
                .into_iter()
                .for_each(&mut *emit);
        } else {
            block.iter().for_each(|w| emit(per_action_dot(w, shared)));
        }
    }
    blocks.remainder()
}

/// `N` per-action rows, each longer than `shared`, against
/// `φ_shared = [shared ‖ 1]`: `N` independent chains in one walk over the
/// features, each adding in the order [`per_action_dot`] does.
fn dot_block<const N: usize>(rows: &[Vec<f64>], shared: &[f64]) -> [f64; N] {
    let d = shared.len();
    debug_assert!(
        rows.iter().all(|w| w.len() == d + 1),
        "weight/feature dimension mismatch"
    );
    let rows: [&[f64]; N] = std::array::from_fn(|j| &rows[j][..=d]);
    let mut acc = [CHAIN_START; N];
    for (i, &x) in shared.iter().enumerate() {
        for (acc, w) in acc.iter_mut().zip(&rows) {
            *acc += w[i] * x;
        }
    }
    std::array::from_fn(|j| acc[j] + rows[j][d] * BIAS)
}

/// Starts a pooled chain: the shared features' part of the dot, which is
/// the same for every action, and the weights left for the rest of `φ`.
fn pooled_prefix<'w>(weights: &'w [f64], shared: &[f64]) -> (f64, &'w [f64]) {
    let (w_shared, w_rest) = weights.split_at(weights.len().min(shared.len()));
    (chained_dot(CHAIN_START, w_shared, shared), w_rest)
}

/// Finishes a pooled chain: `w_rest` (the weights past the shared
/// features) against `[action_features ‖ 1]`, continuing from `prefix`.
fn pooled_tail(prefix: f64, w_rest: &[f64], action_features: &[f64]) -> f64 {
    debug_assert_eq!(
        w_rest.len(),
        action_features.len() + 1,
        "weight/feature dimension mismatch"
    );
    let acc = chained_dot(prefix, w_rest, action_features);
    match w_rest.get(action_features.len()) {
        Some(bias) => acc + bias * BIAS,
        None => acc,
    }
}

impl<C: Context> Scorer<C> for LinearScorer {
    fn score(&self, ctx: &C, action: usize) -> f64 {
        let shared = ctx.shared_features();
        match self {
            LinearScorer::PerAction { weights } => match weights.get(action) {
                Some(w) => per_action_dot(w, shared),
                None => f64::NEG_INFINITY,
            },
            LinearScorer::Pooled { weights } => {
                let (prefix, w_rest) = pooled_prefix(weights, shared);
                pooled_tail(prefix, w_rest, ctx.action_features(action))
            }
        }
    }

    fn score_all(&self, ctx: &C, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(ctx.num_actions());
        self.for_each_score(ctx, |score| out.push(score));
    }

    fn greedy_action(&self, ctx: &C) -> usize {
        let mut best = Argmax::new();
        self.for_each_score(ctx, |score| best.offer(score));
        best.action()
    }
}

/// Actions per [`ActionPanel`] tile: one `[f64; LANES]` per feature holds
/// the weight of every action in the tile, so a tile's chains advance
/// together on whole SIMD registers.
const LANES: usize = 8;

/// A [`LinearScorer`] with a feature-major copy of its per-action weights:
/// the scorer the portfolio evaluator calls once per (record, candidate).
///
/// The rows of a [`LinearScorer::PerAction`] are copied into tiles of
/// eight actions. A tile stores, for each feature and then the bias,
/// the weights of its actions side by side, so one walk over the shared
/// features loads each weight group from one contiguous array. The last
/// tile is padded with zero-weight lanes that are never emitted.
///
/// Every action's chain is the one [`LinearScorer::score`] computes:
/// start at `-0.0`, add the products in feature order, add the bias last,
/// and [`Scorer::greedy_action`] offers the scores to the same argmax. So
/// every score matches the scorer's bit for bit. A context whose action
/// count or shared-feature length differs from the panel's, a ragged or
/// empty weight table, and a pooled scorer all take the [`LinearScorer`]
/// path instead.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionPanel {
    scorer: LinearScorer,
    actions: usize,
    dim: usize,
    /// `dim + 1` weight groups per tile: one per shared feature, then the
    /// bias. Empty when the scorer has no panel form.
    tiles: Vec<[f64; LANES]>,
}

impl ActionPanel {
    /// Copies `scorer`'s per-action rows into feature-major tiles.
    pub fn new(scorer: LinearScorer) -> Self {
        let (actions, dim, tiles) = match &scorer {
            LinearScorer::PerAction { weights }
                if weights.first().is_some_and(|w| !w.is_empty())
                    && weights.iter().all(|w| w.len() == weights[0].len()) =>
            {
                let width = weights[0].len();
                let mut tiles = Vec::with_capacity(weights.len().div_ceil(LANES) * width);
                for block in weights.chunks(LANES) {
                    tiles.extend((0..width).map(|i| {
                        let mut group = [0.0; LANES];
                        for (lane, w) in group.iter_mut().zip(block) {
                            *lane = w[i];
                        }
                        group
                    }));
                }
                (weights.len(), width - 1, tiles)
            }
            _ => (0, 0, Vec::new()),
        };
        ActionPanel {
            scorer,
            actions,
            dim,
            tiles,
        }
    }

    /// The scorer this panel copies.
    pub fn scorer(&self) -> &LinearScorer {
        &self.scorer
    }

    /// True when the tiles can score `ctx`: one row per action and one
    /// weight per shared feature plus the bias.
    fn fits<C: Context>(&self, ctx: &C) -> bool {
        !self.tiles.is_empty()
            && ctx.num_actions() == self.actions
            && ctx.shared_features().len() == self.dim
    }

    /// Feeds the score of every action to `emit`, in action order, from
    /// the tiles. The caller has checked [`Self::fits`].
    fn for_each_score(&self, shared: &[f64], mut emit: impl FnMut(f64)) {
        let mut left = self.actions;
        for tile in self.tiles.chunks_exact(self.dim + 1) {
            let (features, bias) = tile.split_at(self.dim);
            let mut acc = [CHAIN_START; LANES];
            for (group, &x) in features.iter().zip(shared) {
                for (acc, w) in acc.iter_mut().zip(group) {
                    *acc += w * x;
                }
            }
            let lanes = left.min(LANES);
            for (acc, b) in acc.iter().zip(&bias[0]).take(lanes) {
                emit(acc + b * BIAS);
            }
            left -= lanes;
        }
    }
}

impl<C: Context> Scorer<C> for ActionPanel {
    fn score(&self, ctx: &C, action: usize) -> f64 {
        self.scorer.score(ctx, action)
    }

    fn score_all(&self, ctx: &C, out: &mut Vec<f64>) {
        if !self.fits(ctx) {
            return self.scorer.score_all(ctx, out);
        }
        out.clear();
        out.reserve(self.actions);
        self.for_each_score(ctx.shared_features(), |score| out.push(score));
    }

    fn greedy_action(&self, ctx: &C) -> usize {
        if !self.fits(ctx) {
            return self.scorer.greedy_action(ctx);
        }
        let mut best = Argmax::new();
        self.for_each_score(ctx.shared_features(), |score| best.offer(score));
        best.action()
    }
}

/// A context-independent score table — one value per action. The simplest
/// possible reward model (a multi-armed-bandit estimate); useful as a
/// baseline and in tests.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TableScorer {
    values: Vec<f64>,
}

impl TableScorer {
    /// A table scorer with fixed per-action values.
    pub fn new(values: Vec<f64>) -> Self {
        TableScorer { values }
    }

    /// The per-action values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl<C: Context> Scorer<C> for TableScorer {
    fn score(&self, _ctx: &C, action: usize) -> f64 {
        self.values
            .get(action)
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
    }
}

/// Negates another scorer. Converts cost models (latency, downtime — the
/// paper's `[-]` rewards) into reward models and vice versa.
#[derive(Debug, Clone)]
pub struct Negated<S>(pub S);

impl<C: Context, S: Scorer<C>> Scorer<C> for Negated<S> {
    fn score(&self, ctx: &C, action: usize) -> f64 {
        -self.0.score(ctx, action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SimpleContext;

    #[test]
    fn per_action_scores_with_bias() {
        let s = LinearScorer::PerAction {
            // score_0 = 2*x + 1; score_1 = -x.
            weights: vec![vec![2.0, 1.0], vec![-1.0, 0.0]],
        };
        let ctx = SimpleContext::new(vec![3.0], 2);
        assert_eq!(s.score(&ctx, 0), 7.0);
        assert_eq!(s.score(&ctx, 1), -3.0);
        assert_eq!(s.scores(&ctx), vec![7.0, -3.0]);
    }

    #[test]
    fn kernel_keeps_the_sign_of_an_all_negative_zero_chain() {
        // Every product is -0.0, so only a chain started at -0.0 stays
        // -0.0.
        let s = LinearScorer::PerAction {
            weights: vec![vec![-0.0, -0.0]; 5],
        };
        let ctx = SimpleContext::new(vec![0.0], 6);
        let mut out = Vec::new();
        s.score_all(&ctx, &mut out);
        assert!(out[..5].iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
        assert_eq!(out[5], f64::NEG_INFINITY);
        assert_eq!(s.score(&ctx, 4).to_bits(), (-0.0f64).to_bits());
        // All five tie at zero: the first wins.
        assert_eq!(s.greedy_action(&ctx), 0);
    }

    #[test]
    fn per_action_out_of_table_scores_neg_inf() {
        let s = LinearScorer::zero_per_action(2, 1);
        let ctx = SimpleContext::new(vec![0.0], 3);
        assert_eq!(s.score(&ctx, 2), f64::NEG_INFINITY);
    }

    #[test]
    fn pooled_scores_action_features() {
        // score = 1*shared + 10*af + 100 (bias).
        let s = LinearScorer::Pooled {
            weights: vec![1.0, 10.0, 100.0],
        };
        let ctx = SimpleContext::with_action_features(vec![2.0], vec![vec![0.5], vec![-0.5]]);
        assert_eq!(s.score(&ctx, 0), 2.0 + 5.0 + 100.0);
        assert_eq!(s.score(&ctx, 1), 2.0 - 5.0 + 100.0);
    }

    #[test]
    fn zero_constructors_have_right_dims() {
        let ctx = SimpleContext::with_action_features(vec![1.0, 2.0], vec![vec![3.0]]);
        let p = LinearScorer::zero_pooled(2, 1);
        assert_eq!(p.score(&ctx, 0), 0.0);
        let pa = LinearScorer::zero_per_action(1, 2);
        assert_eq!(pa.score(&ctx, 0), 0.0);
    }

    #[test]
    fn table_scorer_ignores_context() {
        let s = TableScorer::new(vec![0.1, 0.9]);
        let a = SimpleContext::new(vec![1.0], 2);
        let b = SimpleContext::new(vec![-9.0], 2);
        assert_eq!(s.score(&a, 1), s.score(&b, 1));
        assert_eq!(s.score(&a, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn negated_flips_sign() {
        let s = Negated(TableScorer::new(vec![2.0, -3.0]));
        let ctx = SimpleContext::contextless(2);
        assert_eq!(s.score(&ctx, 0), -2.0);
        assert_eq!(s.score(&ctx, 1), 3.0);
    }

    #[test]
    fn scorer_usable_through_references_and_boxes() {
        let t = TableScorer::new(vec![1.0]);
        let ctx = SimpleContext::contextless(1);
        let r: &dyn Scorer<SimpleContext> = &t;
        assert_eq!(r.score(&ctx, 0), 1.0);
        let b: Box<dyn Scorer<SimpleContext>> = Box::new(t);
        assert_eq!(b.score(&ctx, 0), 1.0);
    }
}
