//! The level-wise decision tree of PoET-BiN (Algorithm 1): RINC-0.
//!
//! Two trainers live here. [`LevelWiseTree::train`] is the production
//! engine. With uniform or whole-number weights (the boosting-by-resampling
//! case) it computes every `(node, branch, class)` histogram cell of the
//! entropy scan as a whole number: on the shallow levels as masked
//! popcounts over the per-level node partition, held as packed 64-bit
//! masks and summed over the weight bit-planes; past a cost-estimated
//! crossover level as node-bucketed counts, one walk of each weighted
//! example's row words per level, so that a deep level costs no more than
//! a shallow one. Arbitrary `f64` weights take a node-bucketed sequential
//! accumulation. [`LevelWiseTree::train_scalar`] is the original one-bit-
//! at-a-time reference implementation; the engine is pinned against it by
//! randomized equivalence tests and the `train` benchmark.

use std::sync::OnceLock;

use poetbin_bits::{split_counts, BitVec, FeatureMatrix, TruthTable, WORD_BITS};

use crate::entropy::weighted_binary_entropy;
use crate::BitClassifier;

/// What label an unreached leaf (no training example lands in it) receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EmptyLeafPolicy {
    /// Follow Algorithm 1 literally: `S0 <= S1` with both sums zero yields
    /// class 1.
    #[default]
    PaperOne,
    /// Fall back to the overall (weighted) majority class of the training
    /// set — usually slightly more accurate on sparse data.
    GlobalMajority,
}

/// Configuration for training a [`LevelWiseTree`].
#[derive(Clone, Debug, PartialEq)]
pub struct LevelTreeConfig {
    /// Number of tree levels = number of LUT inputs `P`.
    pub inputs: usize,
    /// Optional restriction of the candidate feature pool; `None` means all
    /// features of the dataset may be chosen.
    pub candidates: Option<Vec<usize>>,
    /// Label policy for leaves that receive no training examples.
    pub empty_leaf: EmptyLeafPolicy,
    /// Worker threads for the per-level candidate-feature scan; `0` (the
    /// default) uses all available cores. The trained tree is identical
    /// for every thread count.
    pub threads: usize,
}

impl LevelTreeConfig {
    /// Convenience constructor for a `P`-input tree over all features.
    pub fn new(inputs: usize) -> Self {
        LevelTreeConfig {
            inputs,
            candidates: None,
            empty_leaf: EmptyLeafPolicy::default(),
            threads: 0,
        }
    }

    /// Restricts candidate features (builder style).
    pub fn with_candidates(mut self, candidates: Vec<usize>) -> Self {
        self.candidates = Some(candidates);
        self
    }

    /// Sets the empty-leaf policy (builder style).
    pub fn with_empty_leaf(mut self, policy: EmptyLeafPolicy) -> Self {
        self.empty_leaf = policy;
        self
    }

    /// Sets the feature-scan thread count, `0` meaning all cores (builder
    /// style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Diagnostics produced while training a [`LevelWiseTree`].
#[derive(Clone, Debug, PartialEq)]
pub struct LevelTrainReport {
    /// Weighted conditional entropy after each level was added.
    pub level_entropies: Vec<f64>,
    /// Number of leaves that received no training example.
    pub empty_leaves: usize,
    /// Weighted training error of the finished tree.
    pub train_error: f64,
}

/// Tie-break margin of the greedy feature selection: a candidate must beat
/// the incumbent by more than this to replace it, so the lowest-index
/// feature wins exact ties deterministically.
const TIE_MARGIN: f64 = 1e-15;

/// Largest whole-number example weight the counting paths accept; larger
/// (or fractional) weights fall back to the exact `f64` path. At this
/// bound a weighted count stays exactly representable in the `u64` plane
/// accumulators and histogram cells for any realistic example count.
const MAX_INTEGER_WEIGHT: f64 = 4_294_967_296.0; // 2^32

/// Cost of walking one row word of one weighted example into the
/// node-bucketed histogram, in units of one masked-popcount word operation
/// of the plane scan: a row word is about half set, and each set bit is one
/// scattered add. Set from forced-crossover timings of 512-feature trees
/// (the `train_tree_p6_512f` and `train_tree_p8_512f` bench shapes,
/// n = 600 to 60 000): draw-count trees then switch at about the fastest
/// level, and one-plane uniform trees keep their popcounts.
const HISTOGRAM_WORD_COST: usize = 12;

/// Byte budget of one scan shard's [`Histogram`] at the deepest level: the
/// table covers as many row words as fit, at least one.
const HISTOGRAM_BYTES: usize = 256 << 10;

/// Whole-number class weights below this bound read their entropy term
/// from a table instead of calling [`weighted_binary_entropy`] (two
/// `log2`s) and dividing by the total.
const SMALL_WEIGHT: u64 = 64;

/// `weighted_binary_entropy(a, b)` for whole numbers `a, b` below
/// [`SMALL_WEIGHT`], at index `a · SMALL_WEIGHT + b`. Filled by that
/// function itself, so a table hit is bit-identical to the call.
fn small_entropies() -> &'static [f64] {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..SMALL_WEIGHT * SMALL_WEIGHT)
            .map(|i| weighted_binary_entropy((i / SMALL_WEIGHT) as f64, (i % SMALL_WEIGHT) as f64))
            .collect()
    })
}

/// The child terms of the entropy objective when every histogram cell is a
/// whole number: weights unscaled (`scale == 1`) and a total below 2^53,
/// so that every cell and every partial sum is an exact `f64`.
struct WholeTerms {
    total: f64,
    /// `(a + b) / total · H(a, b)` for `a, b` below [`SMALL_WEIGHT`], at
    /// index `a · SMALL_WEIGHT + b`.
    small: Vec<f64>,
}

impl WholeTerms {
    fn new(total: u64) -> WholeTerms {
        let total = total as f64;
        let small = small_entropies()
            .iter()
            .enumerate()
            .map(|(i, &h)| (i as u64 / SMALL_WEIGHT + i as u64 % SMALL_WEIGHT) as f64 / total * h)
            .collect();
        WholeTerms { total, small }
    }

    /// One child's term, computed exactly as [`entropy_of_counts`] does.
    fn term(&self, w0: u64, w1: u64) -> f64 {
        if w0 < SMALL_WEIGHT && w1 < SMALL_WEIGHT {
            self.small[(w0 * SMALL_WEIGHT + w1) as usize]
        } else {
            (w0 + w1) as f64 / self.total * weighted_binary_entropy(w0 as f64, w1 as f64)
        }
    }
}

/// How [`LevelWiseTree::train`] will exploit the weight vector.
enum WeightScheme {
    /// Every example carries the same weight: one popcount plane of all
    /// ones, scaled by the common weight.
    Uniform(f64),
    /// All weights are non-negative whole numbers (boosting by resampling
    /// hands the trainer bootstrap draw counts): one popcount plane per bit
    /// of the largest weight.
    Integer,
    /// Arbitrary non-negative weights: exact bucketed accumulation.
    General,
}

fn classify_weights(weights: &[f64]) -> WeightScheme {
    let Some(&w0) = weights.first() else {
        return WeightScheme::Uniform(0.0);
    };
    if weights.iter().all(|&w| w == w0) {
        return WeightScheme::Uniform(w0);
    }
    if weights
        .iter()
        .all(|&w| w.fract() == 0.0 && w <= MAX_INTEGER_WEIGHT)
    {
        return WeightScheme::Integer;
    }
    WeightScheme::General
}

/// The whole-number view of a uniform or integer weight vector that the
/// counting paths train on: example `e` weighs `counts[e] · scale`.
struct CountWeights {
    counts: Vec<u64>,
    scale: f64,
}

/// The entropy objective of one candidate split, computed from the filled
/// `(child, class)` histogram exactly as the reference trainer does (same
/// summation order, so the two paths agree bit-for-bit on exact counts).
fn entropy_of_counts(counts: &[f64], new_nodes: usize) -> f64 {
    let total: f64 = counts.iter().sum();
    let mut level_entropy = 0.0;
    if total > 0.0 {
        for node in 0..new_nodes {
            let w0 = counts[node * 2];
            let w1 = counts[node * 2 + 1];
            level_entropy += (w0 + w1) / total * weighted_binary_entropy(w0, w1);
        }
    }
    level_entropy
}

/// The entropy objective of one candidate split from whole-number cells:
/// `nodes[m]` is node `m`'s `(weight, class-1 weight)` count, and
/// `branch(m)` the same pair over the node's examples with the candidate
/// feature set (asked only of nodes that hold weight). Every count is
/// scaled by `scale`; `whole` is set when the cells are exact whole
/// numbers.
///
/// The result is bit-identical to [`entropy_of_counts`] on the filled
/// histogram. With `whole` each child's term is summed here directly, in
/// ascending child order; weight-empty children are skipped (they add
/// `+0.0` there) and small cells read their term from a table.
fn split_entropy(
    nodes: &[(u64, u64)],
    whole: Option<&WholeTerms>,
    scale: f64,
    mut branch: impl FnMut(usize) -> (u64, u64),
) -> f64 {
    let Some(whole) = whole else {
        let mut counts = vec![0.0f64; nodes.len() * 4];
        for (m, &(tot, pos)) in nodes.iter().enumerate() {
            if tot == 0 {
                continue;
            }
            let (set, set_pos) = branch(m);
            counts[4 * m] = (tot - set - (pos - set_pos)) as f64 * scale;
            counts[4 * m + 1] = (pos - set_pos) as f64 * scale;
            counts[4 * m + 2] = (set - set_pos) as f64 * scale;
            counts[4 * m + 3] = set_pos as f64 * scale;
        }
        return entropy_of_counts(&counts, nodes.len() * 2);
    };
    let mut level_entropy = 0.0;
    for (m, &(tot, pos)) in nodes.iter().enumerate() {
        if tot == 0 {
            continue;
        }
        let (set, set_pos) = branch(m);
        for (w0, w1) in [
            (tot - set - (pos - set_pos), pos - set_pos),
            (set - set_pos, set_pos),
        ] {
            if w0 + w1 != 0 {
                level_entropy += whole.term(w0, w1);
            }
        }
    }
    level_entropy
}

/// Sequential fold reproducing the reference trainer's selection rule:
/// first candidate in pool order whose entropy undercuts the incumbent by
/// more than [`TIE_MARGIN`].
fn select_best(pool: &[usize], used: &[bool], entropies: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &feat) in pool.iter().enumerate() {
        if used[feat] {
            continue;
        }
        let e = entropies[i];
        let better = match best {
            None => true,
            Some((_, be)) => e < be - TIE_MARGIN,
        };
        if better {
            best = Some((feat, e));
        }
    }
    best
}

/// Number of feature-scan shards worth spawning for a `pool_len × n` scan.
fn scan_shards(pool_len: usize, n: usize, configured: usize) -> usize {
    // Below this much work the scope/spawn overhead outweighs the scan.
    if n < 512 || pool_len < 16 {
        return 1;
    }
    let hw = if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    };
    hw.min(pool_len.div_ceil(8)).max(1)
}

/// Scores every pool candidate, writing one entropy per slot
/// (`f64::INFINITY` for already-used features). The pool is cut into one
/// contiguous chunk per `scratch` slot, each scanned on its own thread by
/// `eval` with that slot as its scratch space. The output is independent
/// of the shard count: shards own disjoint chunks and the caller folds
/// sequentially.
fn scan_features<S, E>(
    pool: &[usize],
    used: &[bool],
    entropies: &mut [f64],
    scratch: &mut [S],
    eval: E,
) where
    S: Send,
    E: Fn(usize, &mut S) -> f64 + Sync,
{
    let scan = |pc: &[usize], ec: &mut [f64], slot: &mut S| {
        for (entropy, &feat) in ec.iter_mut().zip(pc) {
            *entropy = if used[feat] {
                f64::INFINITY
            } else {
                eval(feat, slot)
            };
        }
    };
    if let [slot] = scratch {
        scan(pool, entropies, slot);
        return;
    }
    let chunk = pool.len().div_ceil(scratch.len());
    std::thread::scope(|scope| {
        for ((pc, ec), slot) in pool
            .chunks(chunk)
            .zip(entropies.chunks_mut(chunk))
            .zip(scratch.iter_mut())
        {
            let scan = &scan;
            scope.spawn(move || scan(pc, ec, slot));
        }
    });
}

/// Whether the node-bucketed histogram scans a level more cheaply than the
/// masked popcounts would, in masked-popcount word operations.
///
/// * `live` — candidate features still to score;
/// * `plane_words` — weight planes × the summed word windows of the
///   level's nodes: the popcount cost of one candidate;
/// * `weighted` — examples with non-zero weight, each walked once;
/// * `row_words` — words per example row;
/// * `buckets` — `(node, class)` rows of the count table.
fn histogram_is_cheaper(
    live: usize,
    plane_words: usize,
    weighted: usize,
    row_words: usize,
    buckets: usize,
) -> bool {
    let walk = weighted * row_words * HISTOGRAM_WORD_COST;
    let table = buckets * (row_words * WORD_BITS + live);
    walk + table < live * plane_words
}

/// One node of the current level's partition, as a packed example mask.
struct MaskNode {
    /// Full-length mask words (tail bits zero, like every [`BitVec`]).
    words: Vec<u64>,
    /// Half-open word range outside which the mask is all zero.
    lo: usize,
    hi: usize,
}

impl MaskNode {
    fn from_words(words: Vec<u64>) -> MaskNode {
        let lo = words.iter().position(|&w| w != 0).unwrap_or(words.len());
        let hi = words.iter().rposition(|&w| w != 0).map_or(lo, |i| i + 1);
        MaskNode { words, lo, hi }
    }
}

/// Per-node, per-weight-plane state for one level of the popcount scan.
struct PlaneNode {
    /// `mask & plane_b` for each weight bit-plane `b`, restricted to the
    /// node's non-zero word range.
    planes: Vec<Vec<u64>>,
    /// First word of the restriction window.
    lo: usize,
}

/// One scan shard's node-bucketed count table for the deep levels.
///
/// Row `2 · node + class` holds, per feature column, the whole-number
/// weight of that node's class-`class` examples with the feature set. Rows
/// are node-major so that one example's adds land in one contiguous row.
/// The columns cover one aligned block of row words at a time, sized so
/// that the deepest level's table fits [`HISTOGRAM_BYTES`]; a shard scoring
/// its chunk in ascending feature order fills each block once per level.
/// The buffer is reserved once and reused by every level of the tree.
struct Histogram {
    cells: Vec<u64>,
    /// Row words per column block.
    block_words: usize,
    /// First row word of the filled block, `None` until filled this level.
    block: Option<usize>,
    /// Rows of the deepest level the tree scans.
    max_buckets: usize,
}

impl Histogram {
    fn new(levels: usize) -> Histogram {
        let max_buckets = 1 << levels;
        let row_bytes = WORD_BITS * std::mem::size_of::<u64>();
        Histogram {
            cells: Vec::new(),
            block_words: (HISTOGRAM_BYTES / (max_buckets * row_bytes)).max(1),
            block: None,
            max_buckets,
        }
    }

    /// Makes the table hold `feat`'s column for this level, refilling it
    /// from `walk` (each weighted example as `(example, bucket, weight)`)
    /// when the feature lies outside the filled block.
    fn cover(
        &mut self,
        feat: usize,
        data: &FeatureMatrix,
        walk: &[(usize, usize, u64)],
        buckets: usize,
    ) {
        let block = feat / WORD_BITS / self.block_words * self.block_words;
        if self.block == Some(block) {
            return;
        }
        let width = self.block_words * WORD_BITS;
        let last = (block + self.block_words).min(data.num_features().div_ceil(WORD_BITS));
        self.cells.clear();
        self.cells.reserve_exact(self.max_buckets * width);
        self.cells.resize(buckets * width, 0);
        for &(e, bucket, w) in walk {
            let row = &mut self.cells[bucket * width..][..width];
            let words = &data.row(e).as_words()[block..last];
            for (cells, &word) in row.chunks_exact_mut(WORD_BITS).zip(words) {
                let mut bits = word;
                while bits != 0 {
                    cells[bits.trailing_zeros() as usize] += w;
                    bits &= bits - 1;
                }
            }
        }
        self.block = Some(block);
    }

    /// `(weight, class-1 weight)` of `node`'s examples with `feat` set;
    /// `feat` must be covered.
    fn branch(&self, feat: usize, node: usize) -> (u64, u64) {
        let width = self.block_words * WORD_BITS;
        let col = feat - self.block.expect("histogram block filled") * WORD_BITS;
        let zero = self.cells[2 * node * width + col];
        let one = self.cells[(2 * node + 1) * width + col];
        (zero + one, one)
    }
}

/// The paper's modified decision tree: `P` levels, one feature per level,
/// equivalent to a single `P`-input LUT (RINC-0, Figure 1).
///
/// The tree stores the `P` chosen feature indices and the complete
/// `2^P`-entry truth table of leaf labels. Prediction is a single table
/// look-up — exactly the O(1) leaf selection the paper highlights.
///
/// Address convention: the feature chosen at level `i` drives address bit
/// `i` of the truth table (`features()[0]` is the least-significant bit).
#[derive(Clone, Debug, PartialEq)]
pub struct LevelWiseTree {
    features: Vec<usize>,
    table: TruthTable,
}

impl LevelWiseTree {
    /// Trains a tree with Algorithm 1 of the paper.
    ///
    /// Greedily selects, for each of the `config.inputs` levels, the unused
    /// feature that minimises the weighted entropy summed over all nodes of
    /// the new level; then labels every leaf with its weighted majority
    /// class (`S0 <= S1 → 1`).
    ///
    /// This is the word-parallel engine. With uniform or whole-number
    /// weights every histogram cell of the scan is a whole-number count:
    /// on the shallow levels a masked popcount over packed 64-example
    /// words; from a crossover level on, chosen per tree by a cost
    /// estimate, a node-bucketed count table filled by one walk of the
    /// weighted examples' row words, so a deep level costs about `n · F`
    /// adds like a shallow one. Unscaled whole-number cells also skip
    /// empty children and read small entropy terms from a table.
    /// Arbitrary `f64` weights take a node-bucketed exact path. The
    /// crossover never changes the tree. The result is identical to
    /// [`LevelWiseTree::train_scalar`]: bit-for-bit on unit-uniform and
    /// whole-number weights and on the exact-`f64` path. On *scaled*
    /// uniform weights (e.g. AdaBoost's `1/n`) the two trainers compute
    /// each histogram cell with different rounding (`count · w` here versus
    /// a folded sum of `w`s in the reference), so entropies agree only to
    /// within floating-point noise — candidates tied closer than that
    /// noise may in principle resolve differently, though the greedy
    /// objective value is the same.
    ///
    /// # Panics
    ///
    /// Panics if `labels`/`weights` lengths disagree with `data`, if any
    /// weight is negative, or if fewer candidate features exist than levels
    /// requested.
    pub fn train(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        config: &LevelTreeConfig,
    ) -> Self {
        Self::train_with_report(data, labels, weights, config).0
    }

    /// Like [`LevelWiseTree::train`] but also returns training diagnostics.
    ///
    /// Dispatches on the weight shape: uniform and whole-number weights go
    /// to the counting engine (masked popcounts, then node-bucketed
    /// histograms past the crossover level), anything else to the exact
    /// bucketed `f64` path. The report's `level_entropies` are the same
    /// whichever level the crossover falls at.
    ///
    /// # Panics
    ///
    /// Same conditions as [`LevelWiseTree::train`].
    pub fn train_with_report(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        config: &LevelTreeConfig,
    ) -> (Self, LevelTrainReport) {
        let pool = Self::validate(data, labels, weights, config);
        match classify_weights(weights) {
            WeightScheme::Uniform(w) => {
                let counts = CountWeights {
                    counts: vec![1; weights.len()],
                    scale: w,
                };
                Self::train_popcount(data, labels, weights, &counts, pool, config, None)
            }
            WeightScheme::Integer => {
                let counts = CountWeights {
                    counts: weights.iter().map(|&w| w as u64).collect(),
                    scale: 1.0,
                };
                Self::train_popcount(data, labels, weights, &counts, pool, config, None)
            }
            WeightScheme::General => Self::train_bucketed(data, labels, weights, pool, config),
        }
    }

    /// The original scalar reference trainer: walks `n × F × P` examples
    /// one bit at a time through the per-example inner loop.
    ///
    /// Kept as the semantic baseline the popcount engine is verified
    /// against (randomized equivalence tests in `tests/equivalence.rs`) and
    /// benchmarked against (`benches/train.rs`). Use
    /// [`LevelWiseTree::train`] everywhere else.
    ///
    /// # Panics
    ///
    /// Same conditions as [`LevelWiseTree::train`].
    pub fn train_scalar(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        config: &LevelTreeConfig,
    ) -> Self {
        Self::train_scalar_with_report(data, labels, weights, config).0
    }

    /// Like [`LevelWiseTree::train_scalar`] but also returns diagnostics.
    ///
    /// # Panics
    ///
    /// Same conditions as [`LevelWiseTree::train`].
    pub fn train_scalar_with_report(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        config: &LevelTreeConfig,
    ) -> (Self, LevelTrainReport) {
        let pool = Self::validate(data, labels, weights, config);
        let n = data.num_examples();
        let p = config.inputs;

        // node_of[e] is the index of the node example e currently sits in,
        // reading chosen features as big-endian address bits.
        let mut node_of = vec![0u32; n];
        let mut used = vec![false; data.num_features()];
        let mut features = Vec::with_capacity(p);
        let mut level_entropies = Vec::with_capacity(p);

        // Cache labels as a plain byte per example: the innermost loop below
        // runs n × F × P times and BitVec::get's shift/mask per label costs
        // measurably more than an indexed byte load.
        let label_u8: Vec<u8> = (0..n).map(|e| u8::from(labels.get(e))).collect();

        for level in 0..p {
            let new_nodes = 1usize << (level + 1);
            let mut best: Option<(usize, f64)> = None;

            for &feat in &pool {
                if used[feat] {
                    continue;
                }
                let col = data.feature(feat);
                // counts[(node << 1 | bit) * 2 + class] = total weight.
                let mut counts = vec![0.0f64; new_nodes * 2];
                for e in 0..n {
                    let bit = u32::from(col.get(e));
                    let child = ((node_of[e] << 1) | bit) as usize;
                    counts[child * 2 + label_u8[e] as usize] += weights[e];
                }
                let level_entropy = entropy_of_counts(&counts, new_nodes);
                let better = match best {
                    None => true,
                    Some((_, e)) => level_entropy < e - TIE_MARGIN,
                };
                if better {
                    best = Some((feat, level_entropy));
                }
            }

            let (feat, entropy) = best.expect("candidate pool exhausted");
            used[feat] = true;
            features.push(feat);
            level_entropies.push(entropy);
            let col = data.feature(feat);
            for (e, node) in node_of.iter_mut().enumerate() {
                *node = (*node << 1) | u32::from(col.get(e));
            }
        }

        // node_of holds big-endian addresses (level 0 = most significant);
        // refill leaf statistics in the little-endian convention used by the
        // truth table so predict() can call FeatureMatrix::address directly.
        let leaves = 1usize << p;
        let mut leaf_w = vec![0.0f64; leaves * 2];
        for e in 0..n {
            let be = node_of[e] as usize;
            let le = reverse_bits(be, p);
            leaf_w[le * 2 + label_u8[e] as usize] += weights[e];
        }

        Self::finish(
            data,
            labels,
            weights,
            config,
            features,
            level_entropies,
            leaf_w,
        )
    }

    /// Shared argument validation; returns the candidate pool.
    fn validate(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        config: &LevelTreeConfig,
    ) -> Vec<usize> {
        let n = data.num_examples();
        assert_eq!(labels.len(), n, "label / data length mismatch");
        assert_eq!(weights.len(), n, "weight / data length mismatch");
        assert!(weights.iter().all(|w| *w >= 0.0), "negative example weight");
        let p = config.inputs;
        let pool: Vec<usize> = match &config.candidates {
            Some(c) => {
                for &j in c {
                    assert!(
                        j < data.num_features(),
                        "candidate feature {j} out of range"
                    );
                }
                c.clone()
            }
            None => (0..data.num_features()).collect(),
        };
        assert!(
            pool.len() >= p,
            "need at least {p} candidate features, have {}",
            pool.len()
        );
        pool
    }

    /// Shared tail of every trainer: builds the truth table from the
    /// little-endian leaf weight histogram and assembles the report.
    fn finish(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        config: &LevelTreeConfig,
        features: Vec<usize>,
        level_entropies: Vec<f64>,
        leaf_w: Vec<f64>,
    ) -> (LevelWiseTree, LevelTrainReport) {
        let leaves = 1usize << config.inputs;
        let (mut total_w0, mut total_w1) = (0.0, 0.0);
        for leaf in 0..leaves {
            total_w0 += leaf_w[leaf * 2];
            total_w1 += leaf_w[leaf * 2 + 1];
        }
        let majority = total_w1 >= total_w0;

        let mut empty_leaves = 0;
        let table = TruthTable::from_fn(config.inputs, |leaf| {
            let w0 = leaf_w[leaf * 2];
            let w1 = leaf_w[leaf * 2 + 1];
            if w0 == 0.0 && w1 == 0.0 {
                empty_leaves += 1;
                match config.empty_leaf {
                    EmptyLeafPolicy::PaperOne => true,
                    EmptyLeafPolicy::GlobalMajority => majority,
                }
            } else {
                // Algorithm 1: S0 <= S1 → label 1.
                w0 <= w1
            }
        });

        let tree = LevelWiseTree { features, table };
        let train_error = tree.weighted_error(data, labels, weights);
        (
            tree,
            LevelTrainReport {
                level_entropies,
                empty_leaves,
                train_error,
            },
        )
    }

    /// The whole-number engine for uniform and integer weights
    /// (`counts.counts[e] · counts.scale`). Every histogram cell of the
    /// scan is a whole-number count, found one of two ways per level:
    ///
    /// * **Masked popcounts** on the shallow levels: the node partition is
    ///   held as packed masks, folded with each weight bit-plane once per
    ///   level, and each `(node, candidate)` cell is a popcount sum over
    ///   the node's word window. A level of `m` nodes costs about
    ///   `m · planes · n/64` word operations per candidate.
    /// * **Node-bucketed histograms** from the crossover level on: each
    ///   weighted example's row words are walked once per level, adding
    ///   its weight into a per-shard `(node, class) × feature` table
    ///   ([`Histogram`]); each candidate then reads its cells. A level
    ///   costs about `n · F` adds at any depth.
    ///
    /// The crossover is the first level at which [`histogram_is_cheaper`]
    /// says so, from the node windows, plane count, weighted example count
    /// and row width; `deep_from` forces it instead (tests only). Both
    /// ways give the same counts, so the crossover never changes the tree.
    fn train_popcount(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        counts: &CountWeights,
        pool: Vec<usize>,
        config: &LevelTreeConfig,
        deep_from: Option<usize>,
    ) -> (LevelWiseTree, LevelTrainReport) {
        let n = data.num_examples();
        let p = config.inputs;
        let scale = counts.scale;
        let counts = &counts.counts;
        let label_words = labels.as_words();
        let planes = weight_planes(counts);
        let total: u64 = counts.iter().sum();
        let whole =
            (scale == 1.0 && total < 1 << f64::MANTISSA_DIGITS).then(|| WholeTerms::new(total));
        let mut used = vec![false; data.num_features()];
        let mut features = Vec::with_capacity(p);
        let mut level_entropies = Vec::with_capacity(p);
        let mut entropies = vec![f64::INFINITY; pool.len()];
        let shards = scan_shards(pool.len(), n, config.threads);
        let mut hists: Vec<Histogram> = (0..shards).map(|_| Histogram::new(p)).collect();
        let weighted: Vec<usize> = (0..n).filter(|&e| counts[e] > 0).collect();
        let row_words = data.num_features().div_ceil(WORD_BITS);

        // Node ids are big-endian (level 0 = most significant address
        // bit), matching the reference trainer's `node_of` convention. The
        // partition starts as one node holding every example; its masks
        // are kept only while the popcount way is in use.
        let mut node_of = vec![0usize; n];
        let mut masks: Vec<MaskNode> =
            vec![MaskNode::from_words(BitVec::ones(n).as_words().to_vec())];
        let mut deep = false;

        for level in 0..p {
            let m = 1usize << level;
            deep = deep
                || match deep_from {
                    Some(from) => level >= from,
                    None => histogram_is_cheaper(
                        pool.iter().filter(|&&f| !used[f]).count(),
                        planes.len() * masks.iter().map(|mk| mk.hi - mk.lo).sum::<usize>(),
                        weighted.len(),
                        row_words,
                        2 * m,
                    ),
                };

            if deep {
                masks.clear();
                let walk: Vec<(usize, usize, u64)> = weighted
                    .iter()
                    .map(|&e| (e, 2 * node_of[e] + usize::from(labels.get(e)), counts[e]))
                    .collect();
                let mut totals = vec![(0u64, 0u64); m];
                for &(_, bucket, w) in &walk {
                    let node = &mut totals[bucket / 2];
                    node.0 += w;
                    node.1 += w * (bucket % 2) as u64;
                }
                for hist in &mut hists {
                    hist.block = None;
                }
                scan_features(&pool, &used, &mut entropies, &mut hists, |feat, hist| {
                    hist.cover(feat, data, &walk, 2 * m);
                    split_entropy(&totals, whole.as_ref(), scale, |node| {
                        hist.branch(feat, node)
                    })
                });
            } else {
                // Fold the weight planes into each node once per level; the
                // whole feature scan then reuses the masked planes.
                let mut totals = Vec::with_capacity(m);
                let nodes: Vec<PlaneNode> = masks
                    .iter()
                    .map(|mk| {
                        let window = &mk.words[mk.lo..mk.hi];
                        let mut masked: Vec<Vec<u64>> = Vec::with_capacity(planes.len());
                        let mut tot = 0u64;
                        let mut pos = 0u64;
                        for (b, plane) in planes.iter().enumerate() {
                            let mp: Vec<u64> = window
                                .iter()
                                .zip(&plane.as_words()[mk.lo..mk.hi])
                                .map(|(&mw, &pw)| mw & pw)
                                .collect();
                            let (t, q) = split_counts(&mp, &mp, &label_words[mk.lo..mk.hi]);
                            tot += (t as u64) << b;
                            pos += (q as u64) << b;
                            masked.push(mp);
                        }
                        totals.push((tot, pos));
                        PlaneNode {
                            planes: masked,
                            lo: mk.lo,
                        }
                    })
                    .collect();
                scan_features(&pool, &used, &mut entropies, &mut hists, |feat, _| {
                    let col_words = data.feature(feat).as_words();
                    split_entropy(&totals, whole.as_ref(), scale, |m| {
                        let node = &nodes[m];
                        let mut branch = 0u64; // weighted count taking the set branch
                        let mut branch_pos = 0u64; // … of which class 1
                        for (b, mp) in node.planes.iter().enumerate() {
                            let win = &col_words[node.lo..node.lo + mp.len()];
                            let lab = &label_words[node.lo..node.lo + mp.len()];
                            let (c1, c11) = split_counts(win, mp, lab);
                            branch += (c1 as u64) << b;
                            branch_pos += (c11 as u64) << b;
                        }
                        (branch, branch_pos)
                    })
                });
            }

            let (feat, entropy) =
                select_best(&pool, &used, &entropies).expect("candidate pool exhausted");
            used[feat] = true;
            features.push(feat);
            level_entropies.push(entropy);

            // Split every node on the chosen feature: child (2m | bit).
            let col_words = data.feature(feat).as_words();
            for (e, node) in node_of.iter_mut().enumerate() {
                let bit = (col_words[e / WORD_BITS] >> (e % WORD_BITS)) & 1;
                *node = (*node << 1) | bit as usize;
            }
            if !deep {
                let mut next = Vec::with_capacity(2 * m);
                for mk in &masks {
                    let mut zero = vec![0u64; mk.words.len()];
                    let mut one = vec![0u64; mk.words.len()];
                    for w in mk.lo..mk.hi {
                        let mw = mk.words[w];
                        let cw = col_words[w];
                        one[w] = mw & cw;
                        zero[w] = mw & !cw;
                    }
                    next.push(MaskNode::from_words(zero));
                    next.push(MaskNode::from_words(one));
                }
                masks = next;
            }
        }

        // Leaf statistics from the final partition, converted to the truth
        // table's little-endian address convention.
        let leaves = 1usize << p;
        let mut leaf_counts = vec![(0u64, 0u64); leaves];
        for &e in &weighted {
            let leaf = &mut leaf_counts[reverse_bits(node_of[e], p)];
            leaf.0 += counts[e];
            leaf.1 += counts[e] * u64::from(labels.get(e));
        }
        let leaf_w: Vec<f64> = leaf_counts
            .iter()
            .flat_map(|&(tot, pos)| [(tot - pos) as f64 * scale, pos as f64 * scale])
            .collect();

        Self::finish(
            data,
            labels,
            weights,
            config,
            features,
            level_entropies,
            leaf_w,
        )
    }

    /// The exact-`f64` engine: identical arithmetic to the scalar reference
    /// (same per-cell summation order), but with examples bucketed by node
    /// once per level so the inner loop accumulates into four register-
    /// resident cells per node instead of scattering across the histogram,
    /// and with the feature scan sharded across threads.
    fn train_bucketed(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        pool: Vec<usize>,
        config: &LevelTreeConfig,
    ) -> (LevelWiseTree, LevelTrainReport) {
        let n = data.num_examples();
        let p = config.inputs;
        let mut node_of = vec![0u32; n];
        let mut used = vec![false; data.num_features()];
        let mut features = Vec::with_capacity(p);
        let mut level_entropies = Vec::with_capacity(p);
        let mut entropies = vec![f64::INFINITY; pool.len()];
        let mut shards = vec![(); scan_shards(pool.len(), n, config.threads)];
        let label_u8: Vec<u8> = (0..n).map(|e| u8::from(labels.get(e))).collect();

        for level in 0..p {
            let m = 1usize << level;
            let new_nodes = m << 1;

            // Stable counting sort of examples by node: within a bucket,
            // examples stay in ascending order, so per-cell accumulation
            // adds the same weights in the same order as the reference
            // trainer — the histograms agree bit-for-bit. Weights and
            // labels are gathered into bucket order once per level, so the
            // per-feature inner loop streams them sequentially instead of
            // gathering per feature.
            let mut offsets = vec![0usize; m + 1];
            for &nd in &node_of {
                offsets[nd as usize + 1] += 1;
            }
            for i in 0..m {
                offsets[i + 1] += offsets[i];
            }
            let mut cursor = offsets.clone();
            let mut order = vec![0u32; n];
            for (e, &nd) in node_of.iter().enumerate() {
                order[cursor[nd as usize]] = e as u32;
                cursor[nd as usize] += 1;
            }
            let w_sorted: Vec<f64> = order.iter().map(|&e| weights[e as usize]).collect();
            let lab_sorted: Vec<u8> = order.iter().map(|&e| label_u8[e as usize]).collect();

            let eval = |feat: usize, _: &mut ()| {
                let col_words = data.feature(feat).as_words();
                let mut counts = vec![0.0f64; new_nodes * 2];
                for node in 0..m {
                    let mut acc = [0.0f64; 4]; // [bit << 1 | class]
                    for i in offsets[node]..offsets[node + 1] {
                        let e = order[i] as usize;
                        let bit = (col_words[e / WORD_BITS] >> (e % WORD_BITS)) & 1;
                        acc[(bit as usize) << 1 | lab_sorted[i] as usize] += w_sorted[i];
                    }
                    counts[4 * node] = acc[0];
                    counts[4 * node + 1] = acc[1];
                    counts[4 * node + 2] = acc[2];
                    counts[4 * node + 3] = acc[3];
                }
                entropy_of_counts(&counts, new_nodes)
            };
            scan_features(&pool, &used, &mut entropies, &mut shards, eval);

            let (feat, entropy) =
                select_best(&pool, &used, &entropies).expect("candidate pool exhausted");
            used[feat] = true;
            features.push(feat);
            level_entropies.push(entropy);
            let col_words = data.feature(feat).as_words();
            for (e, node) in node_of.iter_mut().enumerate() {
                let bit = (col_words[e / WORD_BITS] >> (e % WORD_BITS)) & 1;
                *node = (*node << 1) | bit as u32;
            }
        }

        let leaves = 1usize << p;
        let mut leaf_w = vec![0.0f64; leaves * 2];
        for e in 0..n {
            let be = node_of[e] as usize;
            let le = reverse_bits(be, p);
            leaf_w[le * 2 + label_u8[e] as usize] += weights[e];
        }

        Self::finish(
            data,
            labels,
            weights,
            config,
            features,
            level_entropies,
            leaf_w,
        )
    }

    /// Builds a tree directly from chosen features and a truth table,
    /// bypassing training (used by deserialisation and tests).
    ///
    /// # Panics
    ///
    /// Panics if `table.inputs() != features.len()`.
    pub fn from_parts(features: Vec<usize>, table: TruthTable) -> Self {
        assert_eq!(
            table.inputs(),
            features.len(),
            "truth table arity must match feature count"
        );
        LevelWiseTree { features, table }
    }

    /// The feature selected at each level (level 0 first; drives address
    /// bit 0).
    pub fn features(&self) -> &[usize] {
        &self.features
    }

    /// The LUT contents: leaf labels for every feature combination.
    pub fn table(&self) -> &TruthTable {
        &self.table
    }

    /// Number of LUT inputs `P`.
    pub fn inputs(&self) -> usize {
        self.features.len()
    }

    /// Predicts every example word-parallel: the chosen feature columns
    /// are fed 64 examples at a time through the shared Shannon-recursion
    /// kernel [`TruthTable::eval_words`], exactly as the FPGA simulator
    /// and the `poetbin-engine` batch plan evaluate a LUT.
    pub fn predict_matrix(&self, data: &FeatureMatrix) -> BitVec {
        let n = data.num_examples();
        let cols: Vec<&[u64]> = self
            .features
            .iter()
            .map(|&f| data.feature(f).as_words())
            .collect();
        let mut ops = vec![0u64; cols.len()];
        let mut out = BitVec::zeros(n);
        for (w, word) in out.as_words_mut().iter_mut().enumerate() {
            for (op, col) in ops.iter_mut().zip(&cols) {
                *op = col[w];
            }
            *word = self.table.eval_words(&ops);
        }
        out.mask_tail();
        out
    }
}

/// Decomposes whole-number weights into bit-plane [`BitVec`]s: bit `e` of
/// plane `b` is bit `b` of `counts[e]`.
fn weight_planes(counts: &[u64]) -> Vec<BitVec> {
    let max_w = counts.iter().copied().max().unwrap_or(0);
    let bits = (u64::BITS - max_w.leading_zeros()).max(1) as usize;
    (0..bits)
        .map(|b| BitVec::from_fn(counts.len(), |e| (counts[e] >> b) & 1 == 1))
        .collect()
}

/// Reconstructs the per-example weight vector from its bit-plane
/// decomposition (inverse of [`weight_planes`], scaled; test-only).
#[cfg(test)]
fn plane_weights(planes: &[BitVec], scale: f64, n: usize) -> Vec<f64> {
    let mut weights = vec![0u64; n];
    for (b, plane) in planes.iter().enumerate() {
        for e in plane.iter_ones() {
            weights[e] += 1u64 << b;
        }
    }
    weights.into_iter().map(|w| w as f64 * scale).collect()
}

impl BitClassifier for LevelWiseTree {
    fn predict_row(&self, row: &BitVec) -> bool {
        let mut addr = 0usize;
        for (pos, &j) in self.features.iter().enumerate() {
            if row.get(j) {
                addr |= 1 << pos;
            }
        }
        self.table.eval(addr)
    }

    fn predict_batch(&self, data: &FeatureMatrix) -> BitVec {
        self.predict_matrix(data)
    }
}

/// Reverses the `width` lowest bits of `value`.
fn reverse_bits(value: usize, width: usize) -> usize {
    let mut out = 0usize;
    for i in 0..width {
        if (value >> i) & 1 == 1 {
            out |= 1 << (width - 1 - i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive dataset over `f` features: example `e` has feature `j`
    /// set when bit `j` of `e` is one.
    fn exhaustive(f: usize) -> FeatureMatrix {
        FeatureMatrix::from_fn(1 << f, f, |e, j| (e >> j) & 1 == 1)
    }

    #[test]
    fn reverse_bits_works() {
        assert_eq!(reverse_bits(0b001, 3), 0b100);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0, 4), 0);
    }

    #[test]
    fn learns_single_relevant_feature() {
        let data = exhaustive(5);
        let labels = BitVec::from_fn(32, |e| (e >> 3) & 1 == 1);
        let w = vec![1.0; 32];
        let tree = LevelWiseTree::train(&data, &labels, &w, &LevelTreeConfig::new(1));
        assert_eq!(tree.features(), &[3]);
        assert_eq!(tree.accuracy(&data, &labels), 1.0);
    }

    #[test]
    fn learns_xor_exactly_with_two_levels() {
        // XOR makes every single feature look equally useless (entropy 1),
        // so greedy selection falls back to the deterministic lowest-index
        // tie-break. With the XOR pair at indices 0 and 1, two levels
        // recover the function exactly — the Figure 1 capacity argument.
        let data = exhaustive(6);
        let labels = BitVec::from_fn(64, |e| (e ^ (e >> 1)) & 1 == 1);
        let w = vec![1.0; 64];
        let (tree, report) =
            LevelWiseTree::train_with_report(&data, &labels, &w, &LevelTreeConfig::new(2));
        let mut chosen = tree.features().to_vec();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![0, 1]);
        assert_eq!(tree.accuracy(&data, &labels), 1.0);
        assert_eq!(report.train_error, 0.0);
        assert_eq!(*report.level_entropies.last().unwrap(), 0.0);
        assert_eq!(report.empty_leaves, 0);
    }

    #[test]
    fn xor_defeats_single_level_but_not_two() {
        // Entropy of any single feature on XOR labels is 1 bit: level-wise
        // training still recovers it once paired, demonstrating the capacity
        // argument of §2.1.1.
        let data = exhaustive(4);
        let labels = BitVec::from_fn(16, |e| ((e) ^ (e >> 1)) & 1 == 1);
        let w = vec![1.0; 16];
        let one = LevelWiseTree::train(&data, &labels, &w, &LevelTreeConfig::new(1));
        assert!(one.accuracy(&data, &labels) <= 0.5 + 1e-9);
        let two = LevelWiseTree::train(&data, &labels, &w, &LevelTreeConfig::new(2));
        assert_eq!(two.accuracy(&data, &labels), 1.0);
    }

    #[test]
    fn respects_candidate_restriction() {
        let data = exhaustive(5);
        // Label is feature 0, but feature 0 is excluded from the pool.
        let labels = BitVec::from_fn(32, |e| e & 1 == 1);
        let w = vec![1.0; 32];
        let cfg = LevelTreeConfig::new(2).with_candidates(vec![1, 2, 3, 4]);
        let tree = LevelWiseTree::train(&data, &labels, &w, &cfg);
        assert!(!tree.features().contains(&0));
    }

    #[test]
    fn features_are_distinct() {
        let data = exhaustive(6);
        let labels = BitVec::from_fn(64, |e| (e.count_ones() % 2) == 1);
        let w = vec![1.0; 64];
        let tree = LevelWiseTree::train(&data, &labels, &w, &LevelTreeConfig::new(4));
        let mut f = tree.features().to_vec();
        f.sort_unstable();
        f.dedup();
        assert_eq!(f.len(), 4, "a feature was reused across levels");
    }

    #[test]
    fn weights_steer_the_split_choice() {
        // Four examples, two candidate features. Feature 0's set branch
        // isolates (pure) example 0; feature 1's set branch isolates
        // example 2; the remaining three examples are mixed either way.
        // Under uniform weights the two splits produce *identical*
        // histograms, so the deterministic tie-break keeps feature 0.
        let data = FeatureMatrix::from_fn(4, 2, |e, j| matches!((e, j), (0, 0) | (2, 1)));
        let labels = BitVec::from_bools([true, false, true, false]);
        let uniform = vec![1.0; 4];
        let tree = LevelWiseTree::train(&data, &labels, &uniform, &LevelTreeConfig::new(1));
        assert_eq!(tree.features(), &[0], "uniform weights tie-break to f0");

        // Up-weighting examples 2 and 3 makes feature 1's split strictly
        // better (its mixed branch is then the light one): the trainer must
        // flip to feature 1. A weight-blind trainer would still tie-break
        // to feature 0 — this is the regression the test guards.
        let skewed = vec![1.0, 1.0, 4.0, 4.0];
        let tree = LevelWiseTree::train(&data, &labels, &skewed, &LevelTreeConfig::new(1));
        assert_eq!(tree.features(), &[1], "skewed weights must flip to f1");
        // And the mirrored skew favours feature 0 strictly.
        let mirrored = vec![4.0, 4.0, 1.0, 1.0];
        let tree = LevelWiseTree::train(&data, &labels, &mirrored, &LevelTreeConfig::new(1));
        assert_eq!(tree.features(), &[0]);
    }

    #[test]
    fn empty_leaf_policies_differ() {
        // Only 2 examples over 2 features: most leaves are unreached.
        let data = FeatureMatrix::from_fn(2, 3, |e, j| e == 0 && j < 2);
        let labels = BitVec::from_bools([false, false]);
        let w = vec![1.0; 2];
        let paper = LevelWiseTree::train(
            &data,
            &labels,
            &w,
            &LevelTreeConfig::new(2).with_empty_leaf(EmptyLeafPolicy::PaperOne),
        );
        let majority = LevelWiseTree::train(
            &data,
            &labels,
            &w,
            &LevelTreeConfig::new(2).with_empty_leaf(EmptyLeafPolicy::GlobalMajority),
        );
        // Paper policy marks unreached leaves 1, majority marks them 0.
        assert!(paper.table().count_ones() >= 2);
        assert_eq!(majority.table().count_ones(), 0);
    }

    #[test]
    fn predict_row_and_matrix_agree() {
        let data = exhaustive(6);
        let labels = BitVec::from_fn(64, |e| (e * 2654435761) & 8 != 0);
        let w = vec![1.0; 64];
        let tree = LevelWiseTree::train(&data, &labels, &w, &LevelTreeConfig::new(3));
        let batch = tree.predict_matrix(&data);
        for e in 0..64 {
            assert_eq!(batch.get(e), tree.predict_row(data.row(e)));
        }
    }

    #[test]
    fn lut_equivalence_exhaustive() {
        // The Figure 1 property: the trained tree IS its truth table. Walk
        // the tree semantics manually and compare against table eval.
        let data = exhaustive(5);
        let labels = BitVec::from_fn(32, |e| e % 3 == 0);
        let w = vec![1.0; 32];
        let tree = LevelWiseTree::train(&data, &labels, &w, &LevelTreeConfig::new(3));
        for e in 0..32 {
            let mut addr = 0usize;
            for (pos, &f) in tree.features().iter().enumerate() {
                if data.bit(e, f) {
                    addr |= 1 << pos;
                }
            }
            assert_eq!(tree.predict_row(data.row(e)), tree.table().eval(addr));
        }
    }

    #[test]
    #[should_panic(expected = "candidate features")]
    fn too_few_candidates_panics() {
        let data = exhaustive(2);
        let labels = BitVec::zeros(4);
        let w = vec![1.0; 4];
        LevelWiseTree::train(&data, &labels, &w, &LevelTreeConfig::new(3));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_weights_panic() {
        let data = exhaustive(2);
        let labels = BitVec::zeros(4);
        LevelWiseTree::train(
            &data,
            &labels,
            &[1.0, -1.0, 1.0, 1.0],
            &LevelTreeConfig::new(1),
        );
    }

    #[test]
    fn from_parts_roundtrip() {
        let table = TruthTable::from_fn(2, |i| i == 3);
        let tree = LevelWiseTree::from_parts(vec![4, 7], table.clone());
        assert_eq!(tree.features(), &[4, 7]);
        assert_eq!(tree.table(), &table);
        let mut row = BitVec::zeros(8);
        row.set(4, true);
        row.set(7, true);
        assert!(tree.predict_row(&row));
    }

    #[test]
    fn entropy_never_increases_per_level() {
        let data = exhaustive(8);
        let labels = BitVec::from_fn(256, |e| (e.wrapping_mul(97) >> 3) & 1 == 1);
        let w = vec![1.0; 256];
        let (_, report) =
            LevelWiseTree::train_with_report(&data, &labels, &w, &LevelTreeConfig::new(5));
        for pair in report.level_entropies.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-9,
                "conditional entropy must be non-increasing: {:?}",
                report.level_entropies
            );
        }
    }

    #[test]
    fn weight_scheme_detection() {
        assert!(matches!(classify_weights(&[]), WeightScheme::Uniform(_)));
        assert!(matches!(
            classify_weights(&[0.5, 0.5, 0.5]),
            WeightScheme::Uniform(_)
        ));
        assert!(matches!(
            classify_weights(&[1.0, 0.0, 3.0]),
            WeightScheme::Integer
        ));
        assert!(matches!(
            classify_weights(&[1.0, 0.25]),
            WeightScheme::General
        ));
        assert!(matches!(
            classify_weights(&[1.0, MAX_INTEGER_WEIGHT * 2.0]),
            WeightScheme::General
        ));
    }

    #[test]
    fn weight_planes_roundtrip() {
        let w = [0u64, 1, 5, 13, 64];
        let planes = weight_planes(&w);
        let back = plane_weights(&planes, 1.0, w.len());
        assert_eq!(back, [0.0, 1.0, 5.0, 13.0, 64.0]);
        // Scaled reconstruction.
        let scaled = plane_weights(&planes, 0.5, w.len());
        assert_eq!(scaled, [0.0, 0.5, 2.5, 6.5, 32.0]);
    }

    #[test]
    fn popcount_engine_matches_scalar_on_unit_weights() {
        let data = exhaustive(7);
        let labels = BitVec::from_fn(128, |e| (e.wrapping_mul(2654435761) >> 5) & 3 == 0);
        let w = vec![1.0; 128];
        let cfg = LevelTreeConfig::new(4);
        let (fast, fr) = LevelWiseTree::train_with_report(&data, &labels, &w, &cfg);
        let (slow, sr) = LevelWiseTree::train_scalar_with_report(&data, &labels, &w, &cfg);
        assert_eq!(fast, slow);
        assert_eq!(fr.level_entropies, sr.level_entropies);
        assert_eq!(fr.empty_leaves, sr.empty_leaves);
        assert_eq!(fr.train_error, sr.train_error);
    }

    #[test]
    fn integer_weights_match_scalar() {
        let data = exhaustive(6);
        let labels = BitVec::from_fn(64, |e| (e.wrapping_mul(97) >> 2) & 1 == 1);
        // Resample-style draw counts, including zeros.
        let w: Vec<f64> = (0..64).map(|e| f64::from((e * 7 % 5) as u32)).collect();
        let cfg = LevelTreeConfig::new(3);
        let fast = LevelWiseTree::train(&data, &labels, &w, &cfg);
        let slow = LevelWiseTree::train_scalar(&data, &labels, &w, &cfg);
        assert_eq!(fast, slow);
    }

    #[test]
    fn thread_count_does_not_change_the_tree() {
        let data = FeatureMatrix::from_fn(600, 40, |e, j| {
            (e.wrapping_mul(2654435761)
                .wrapping_add(j.wrapping_mul(40503))
                >> 6)
                & 1
                == 1
        });
        let labels = BitVec::from_fn(600, |e| (e.wrapping_mul(0x9E3779B9) >> 9) & 1 == 1);
        let w: Vec<f64> = (0..600).map(|e| 0.1 + (e % 7) as f64 * 0.3).collect();
        let cfg1 = LevelTreeConfig::new(4).with_threads(1);
        let cfg4 = LevelTreeConfig::new(4).with_threads(4);
        let (a, ra) = LevelWiseTree::train_with_report(&data, &labels, &w, &cfg1);
        let (b, rb) = LevelWiseTree::train_with_report(&data, &labels, &w, &cfg4);
        assert_eq!(a, b);
        assert_eq!(ra.level_entropies, rb.level_entropies);
    }

    #[test]
    fn all_zero_weights_match_scalar() {
        // Degenerate but allowed: every leaf is weight-empty, the policy
        // decides everything, and both engines must agree.
        let data = exhaustive(4);
        let labels = BitVec::from_fn(16, |e| e % 2 == 1);
        let w = vec![0.0; 16];
        let cfg = LevelTreeConfig::new(2);
        let (fast, fr) = LevelWiseTree::train_with_report(&data, &labels, &w, &cfg);
        let (slow, sr) = LevelWiseTree::train_scalar_with_report(&data, &labels, &w, &cfg);
        assert_eq!(fast, slow);
        assert_eq!(fr.empty_leaves, sr.empty_leaves);
    }

    #[test]
    fn every_crossover_level_matches_scalar() {
        // The popcount and histogram ways must give the same counts, so
        // forcing the switch at any level 0..=P (P = never) leaves the tree
        // and every level entropy bit-identical to the reference trainer —
        // on draw counts with zeros, on unit weights (scale 1 through the
        // uniform scheme) and on scaled uniform weights, at the sharded
        // bank size and two word-tail shapes. At P = 8 the deepest table
        // covers two row words, so the 5-word rows take three column
        // blocks, and three shards cut them off block boundaries.
        let f = 300;
        let p = 8;
        // Skip every third feature so chunk spans are not dense.
        let pool: Vec<usize> = (0..f).filter(|j| j % 3 != 2).collect();
        for n in [600, 65, 37] {
            let data = FeatureMatrix::from_fn(n, f, |e, j| {
                (e.wrapping_mul(2654435761)
                    .wrapping_add(j.wrapping_mul(40503))
                    >> 7)
                    & 1
                    == 1
            });
            let labels = BitVec::from_fn(n, |e| data.bit(e, 3) ^ data.bit(e, 77) ^ (e % 11 == 0));
            let draws: Vec<f64> = (0..n).map(|e| ((e * 7919) % 13 % 5) as f64).collect();
            for (weights, scale) in [(draws, 1.0), (vec![1.0; n], 1.0), (vec![0.25; n], 0.25)] {
                let counts = CountWeights {
                    counts: weights.iter().map(|&w| (w / scale) as u64).collect(),
                    scale,
                };
                for threads in [1, 3] {
                    let cfg = LevelTreeConfig::new(p)
                        .with_threads(threads)
                        .with_candidates(pool.clone());
                    let train = |from| {
                        LevelWiseTree::train_popcount(
                            &data,
                            &labels,
                            &weights,
                            &counts,
                            pool.clone(),
                            &cfg,
                            Some(from),
                        )
                    };
                    // Scaled cells round differently from the reference's
                    // folded sums, so there the two ways are held to each
                    // other instead.
                    let (slow, sr) = if scale == 1.0 {
                        LevelWiseTree::train_scalar_with_report(&data, &labels, &weights, &cfg)
                    } else {
                        train(p)
                    };
                    for from in 0..=p {
                        let (fast, fr) = train(from);
                        let what =
                            format!("n={n}, scale {scale}, crossover {from}, {threads} threads");
                        assert_eq!(fast, slow, "{what}");
                        assert_eq!(fr, sr, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn entropy_table_matches_the_function() {
        // Table hits must be bit-identical to the term entropy_of_counts
        // forms, on both sides of the table bound.
        for total in [1u64, 7, 600, 1 << 40] {
            let whole = WholeTerms::new(total);
            for a in 0..SMALL_WEIGHT + 2 {
                for b in 0..SMALL_WEIGHT + 2 {
                    let (w0, w1) = (a as f64, b as f64);
                    let direct = (w0 + w1) / total as f64 * weighted_binary_entropy(w0, w1);
                    assert_eq!(whole.term(a, b).to_bits(), direct.to_bits(), "H({a}, {b})");
                }
            }
        }
    }
}
