//! The level-wise decision tree of PoET-BiN (Algorithm 1): RINC-0.
//!
//! Two trainers live here. [`LevelWiseTree::train`] is the production
//! popcount engine: it maintains the per-level node partition as packed
//! 64-bit masks and computes every `(node, branch, class)` histogram cell
//! of the entropy scan as a masked popcount (uniform weights), a bit-plane
//! sum of masked popcounts (integer weights, the boosting-by-resampling
//! case), or a node-bucketed sequential accumulation (arbitrary `f64`
//! weights). [`LevelWiseTree::train_scalar`] is the original one-bit-at-a-
//! time reference implementation; the engine is pinned against it by
//! randomized equivalence tests and the `train` benchmark.

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

/// Largest whole-number example weight the bit-plane popcount path accepts;
/// larger (or fractional) weights fall back to the exact `f64` path. At
/// this bound a weighted count stays exactly representable in the `u64`
/// plane accumulators for any realistic example count.
const MAX_INTEGER_WEIGHT: f64 = 4_294_967_296.0; // 2^32

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

/// Runs `eval` over every pool candidate, writing one entropy per slot
/// (`f64::INFINITY` for already-used features), sharded across `shards`
/// threads. The output is independent of the shard count: shards own
/// disjoint contiguous chunks and the caller folds sequentially.
fn scan_features<F>(pool: &[usize], used: &[bool], entropies: &mut [f64], shards: usize, eval: F)
where
    F: Fn(usize) -> f64 + Sync,
{
    if shards <= 1 {
        for (slot, &feat) in entropies.iter_mut().zip(pool) {
            *slot = if used[feat] {
                f64::INFINITY
            } else {
                eval(feat)
            };
        }
        return;
    }
    let chunk = pool.len().div_ceil(shards);
    std::thread::scope(|scope| {
        for (pc, ec) in pool.chunks(chunk).zip(entropies.chunks_mut(chunk)) {
            let eval = &eval;
            scope.spawn(move || {
                for (slot, &feat) in ec.iter_mut().zip(pc) {
                    *slot = if used[feat] {
                        f64::INFINITY
                    } else {
                        eval(feat)
                    };
                }
            });
        }
    });
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
    /// Weighted example count of the node.
    tot: u64,
    /// Weighted class-1 count of the node.
    pos: u64,
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
    /// This is the word-parallel engine: with uniform or whole-number
    /// weights every histogram cell of the scan is a masked popcount over
    /// packed 64-example words, and arbitrary `f64` weights take a
    /// node-bucketed exact path. The result is identical to
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
                let ones = [BitVec::ones(labels.len())];
                Self::train_popcount(data, labels, weights, &ones, w, pool, config)
            }
            WeightScheme::Integer => {
                let planes = weight_planes(weights);
                Self::train_popcount(data, labels, weights, &planes, 1.0, pool, config)
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

    /// The popcount engine: per-level node partitions as packed masks,
    /// every histogram cell a masked popcount summed over the weight
    /// bit-planes (`planes`; a single all-ones plane scaled by `scale`
    /// covers uniform weights, draw-count planes with `scale = 1` cover
    /// boosting by resampling).
    fn train_popcount(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        planes: &[BitVec],
        scale: f64,
        pool: Vec<usize>,
        config: &LevelTreeConfig,
    ) -> (LevelWiseTree, LevelTrainReport) {
        let n = data.num_examples();
        let p = config.inputs;
        let label_words = labels.as_words();
        let mut used = vec![false; data.num_features()];
        let mut features = Vec::with_capacity(p);
        let mut level_entropies = Vec::with_capacity(p);
        let mut entropies = vec![f64::INFINITY; pool.len()];
        let shards = scan_shards(pool.len(), n, config.threads);

        // The partition starts as one node holding every example; node ids
        // are big-endian (level 0 = most significant address bit), matching
        // the reference trainer's `node_of` convention.
        let mut masks: Vec<MaskNode> =
            vec![MaskNode::from_words(BitVec::ones(n).as_words().to_vec())];

        for level in 0..p {
            let new_nodes = 1usize << (level + 1);

            // Fold the weight planes into each node once per level; the
            // whole feature scan then reuses the masked planes.
            let nodes: Vec<PlaneNode> = masks
                .iter()
                .map(|m| {
                    let window = &m.words[m.lo..m.hi];
                    let mut masked: Vec<Vec<u64>> = Vec::with_capacity(planes.len());
                    let mut tot = 0u64;
                    let mut pos = 0u64;
                    for (b, plane) in planes.iter().enumerate() {
                        let mp: Vec<u64> = window
                            .iter()
                            .zip(&plane.as_words()[m.lo..m.hi])
                            .map(|(&mw, &pw)| mw & pw)
                            .collect();
                        let (t, q) = split_counts(&mp, &mp, &label_words[m.lo..m.hi]);
                        tot += (t as u64) << b;
                        pos += (q as u64) << b;
                        masked.push(mp);
                    }
                    PlaneNode {
                        planes: masked,
                        lo: m.lo,
                        tot,
                        pos,
                    }
                })
                .collect();

            let eval = |feat: usize| {
                let col_words = data.feature(feat).as_words();
                let mut counts = vec![0.0f64; new_nodes * 2];
                for (m, node) in nodes.iter().enumerate() {
                    if node.tot == 0 {
                        continue;
                    }
                    let mut branch = 0u64; // weighted count taking the set branch
                    let mut branch_pos = 0u64; // … of which class 1
                    for (b, mp) in node.planes.iter().enumerate() {
                        let win = &col_words[node.lo..node.lo + mp.len()];
                        let lab = &label_words[node.lo..node.lo + mp.len()];
                        let (c1, c11) = split_counts(win, mp, lab);
                        branch += (c1 as u64) << b;
                        branch_pos += (c11 as u64) << b;
                    }
                    let child0 = 2 * m;
                    let child1 = 2 * m + 1;
                    counts[child1 * 2 + 1] = branch_pos as f64 * scale;
                    counts[child1 * 2] = (branch - branch_pos) as f64 * scale;
                    counts[child0 * 2 + 1] = (node.pos - branch_pos) as f64 * scale;
                    counts[child0 * 2] =
                        (node.tot - branch - (node.pos - branch_pos)) as f64 * scale;
                }
                entropy_of_counts(&counts, new_nodes)
            };
            scan_features(&pool, &used, &mut entropies, shards, eval);

            let (feat, entropy) =
                select_best(&pool, &used, &entropies).expect("candidate pool exhausted");
            used[feat] = true;
            features.push(feat);
            level_entropies.push(entropy);

            // Split every node on the chosen feature: child (2m | bit).
            let col_words = data.feature(feat).as_words();
            let mut next = Vec::with_capacity(new_nodes);
            for m in &masks {
                let mut zero = vec![0u64; m.words.len()];
                let mut one = vec![0u64; m.words.len()];
                for w in m.lo..m.hi {
                    let mw = m.words[w];
                    let cw = col_words[w];
                    one[w] = mw & cw;
                    zero[w] = mw & !cw;
                }
                next.push(MaskNode::from_words(zero));
                next.push(MaskNode::from_words(one));
            }
            masks = next;
        }

        // Leaf statistics from the final partition, converted to the truth
        // table's little-endian address convention.
        let leaves = 1usize << p;
        let mut leaf_w = vec![0.0f64; leaves * 2];
        for (be, m) in masks.iter().enumerate() {
            let window = &m.words[m.lo..m.hi];
            let mut tot = 0u64;
            let mut pos = 0u64;
            for (b, plane) in planes.iter().enumerate() {
                let (t, q) = split_counts(
                    window,
                    &plane.as_words()[m.lo..m.hi],
                    &label_words[m.lo..m.hi],
                );
                tot += (t as u64) << b;
                pos += (q as u64) << b;
            }
            let le = reverse_bits(be, p);
            leaf_w[le * 2] = (tot - pos) as f64 * scale;
            leaf_w[le * 2 + 1] = pos as f64 * scale;
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
        let shards = scan_shards(pool.len(), n, config.threads);
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

            let eval = |feat: usize| {
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
            scan_features(&pool, &used, &mut entropies, shards, eval);

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
/// plane `b` is bit `b` of `weights[e] as u64`.
fn weight_planes(weights: &[f64]) -> Vec<BitVec> {
    let max_w = weights.iter().fold(0.0f64, |a, &b| a.max(b)) as u64;
    let bits = (u64::BITS - max_w.leading_zeros()).max(1) as usize;
    (0..bits)
        .map(|b| BitVec::from_fn(weights.len(), |e| (weights[e] as u64 >> b) & 1 == 1))
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
        let w = [0.0, 1.0, 5.0, 13.0, 64.0];
        let planes = weight_planes(&w);
        let back = plane_weights(&planes, 1.0, w.len());
        assert_eq!(back, w);
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
}
