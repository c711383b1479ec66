//! The hierarchical RINC-L architecture (Algorithm 2, Figures 2–3).

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_dt::{BitClassifier, EmptyLeafPolicy, LevelTreeConfig, LevelWiseTree};

use crate::adaboost::{AdaBoost, WeightUpdate};
use crate::mat::MatModule;

/// Configuration of a RINC-`L` module.
///
/// * `lut_inputs` is `P`, the LUT fan-in: every level-wise tree reads `P`
///   features and every MAT unit groups at most `P` children.
/// * `levels` is `L`: 0 is a bare tree, 1 a boosted group of trees under one
///   MAT, 2 the two-level hierarchy of Figure 3, and so on.
/// * `top_groups` is the fan-in of the *outermost* MAT only. The paper's
///   MNIST configuration is `P = 8, L = 2` with 32 DTs — i.e. 4 subgroups
///   of 8 trees — so the top MAT has 4 inputs while inner groups use `P`.
#[derive(Clone, Debug, PartialEq)]
pub struct RincConfig {
    /// LUT fan-in `P` (tree depth and MAT width).
    pub lut_inputs: usize,
    /// Hierarchy depth `L` (number of Adaboost levels).
    pub levels: usize,
    /// Fan-in of the outermost MAT unit (`≤ lut_inputs`); defaults to
    /// `lut_inputs`.
    pub top_groups: usize,
    /// Empty-leaf policy forwarded to tree training.
    pub empty_leaf: EmptyLeafPolicy,
    /// Weight communication strategy forwarded to every AdaBoost stage.
    pub update: WeightUpdate,
    /// Worker threads for each tree's per-level candidate-feature scan
    /// (`0` = all cores). Callers that already parallelise across modules
    /// — e.g. `RincBank::train` — cap this so the product of module and
    /// scan threads stays near the core count; the trained module is
    /// identical for any value.
    pub tree_threads: usize,
    /// Worker shards `RincBank::train` splits its modules across
    /// (`0` = one shard per core). Every neuron's module is trained from
    /// state derived only from the neuron index and this config, and the
    /// results are folded into slots in neuron order, so the trained bank
    /// is **bit-identical at any shard count** — sharding is purely a
    /// throughput knob.
    pub bank_shards: usize,
}

impl RincConfig {
    /// A full RINC-`levels` configuration with `P = lut_inputs` everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `lut_inputs == 0`.
    pub fn new(lut_inputs: usize, levels: usize) -> Self {
        assert!(lut_inputs > 0, "lut_inputs must be positive");
        RincConfig {
            lut_inputs,
            levels,
            top_groups: lut_inputs,
            empty_leaf: EmptyLeafPolicy::default(),
            update: WeightUpdate::Exact,
            tree_threads: 0,
            bank_shards: 0,
        }
    }

    /// Sets the outermost MAT fan-in (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `top_groups` is zero or exceeds `lut_inputs`.
    pub fn with_top_groups(mut self, top_groups: usize) -> Self {
        assert!(
            top_groups > 0 && top_groups <= self.lut_inputs,
            "top_groups must be in 1..=P"
        );
        self.top_groups = top_groups;
        self
    }

    /// Sets the empty-leaf policy (builder style).
    pub fn with_empty_leaf(mut self, policy: EmptyLeafPolicy) -> Self {
        self.empty_leaf = policy;
        self
    }

    /// Enables boosting-by-resampling with the given seed (builder style).
    pub fn with_resampling(mut self, seed: u64) -> Self {
        self.update = WeightUpdate::Resample { seed };
        self
    }

    /// Sets the per-tree feature-scan thread count, `0` meaning all cores
    /// (builder style).
    pub fn with_tree_threads(mut self, threads: usize) -> Self {
        self.tree_threads = threads;
        self
    }

    /// Sets the module-shard count used by `RincBank::train`, `0` meaning
    /// one shard per core (builder style). The trained bank is identical
    /// for any value; see [`RincConfig::bank_shards`].
    pub fn with_bank_shards(mut self, shards: usize) -> Self {
        self.bank_shards = shards;
        self
    }

    /// Total number of trees a full module of this shape trains:
    /// `top_groups · P^(levels-1)` for `levels ≥ 1`, else 1.
    pub fn total_trees(&self) -> usize {
        if self.levels == 0 {
            1
        } else {
            self.top_groups * self.lut_inputs.pow(self.levels as u32 - 1)
        }
    }

    /// Maximum number of distinct input features the module can consult:
    /// `total_trees · P` — the paper's `P^(L+1)` when `top_groups = P`.
    pub fn max_effective_inputs(&self) -> usize {
        self.total_trees() * self.lut_inputs
    }

    fn child_config(&self) -> RincConfig {
        let mut child = self.clone();
        child.levels = self.levels - 1;
        child.top_groups = self.lut_inputs; // only the outermost level shrinks
        child
    }

    fn tree_config(&self) -> LevelTreeConfig {
        LevelTreeConfig::new(self.lut_inputs)
            .with_empty_leaf(self.empty_leaf)
            .with_threads(self.tree_threads)
    }
}

/// One node of the RINC hierarchy: either a bare level-wise tree (RINC-0)
/// or a boosted module of lower-level nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum RincNode {
    /// A RINC-0 module: one level-wise tree = one LUT.
    Tree(LevelWiseTree),
    /// A RINC-`l` module for `l ≥ 1`.
    Module(RincModule),
}

impl RincNode {
    /// Trains a node of hierarchy depth `config.levels` on weighted data.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or degenerate weights (see
    /// [`LevelWiseTree::train`] and [`AdaBoost::train`]).
    pub fn train(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        config: &RincConfig,
    ) -> Self {
        if config.levels == 0 {
            RincNode::Tree(LevelWiseTree::train(
                data,
                labels,
                weights,
                &config.tree_config(),
            ))
        } else {
            RincNode::Module(RincModule::train(data, labels, weights, config))
        }
    }

    /// Number of LUTs this node occupies.
    pub fn lut_count(&self) -> usize {
        match self {
            RincNode::Tree(_) => 1,
            RincNode::Module(m) => m.lut_count(),
        }
    }

    /// Number of LUT levels on this node's critical path.
    pub fn lut_depth(&self) -> usize {
        match self {
            RincNode::Tree(_) => 1,
            RincNode::Module(m) => m.lut_depth(),
        }
    }

    /// Smallest feature-row width this node can evaluate on: one past the
    /// highest feature index any tree in the subtree reads.
    ///
    /// This is the single source of truth for model-width inference —
    /// `RincBank::min_features`, `PoetBinClassifier::min_features` and
    /// `poetbin-serve`'s persist → engine loader all fold over it rather
    /// than re-deriving the walk.
    pub fn min_features(&self) -> usize {
        match self {
            RincNode::Tree(t) => t.features().iter().map(|&f| f + 1).max().unwrap_or(0),
            RincNode::Module(m) => m
                .children
                .iter()
                .map(RincNode::min_features)
                .max()
                .unwrap_or(0),
        }
    }

    /// Collects statistics over the subtree.
    fn collect_stats(&self, stats: &mut RincStats) {
        match self {
            RincNode::Tree(t) => {
                stats.trees += 1;
                stats.luts += 1;
                for &f in t.features() {
                    if !stats.features.contains(&f) {
                        stats.features.push(f);
                    }
                }
            }
            RincNode::Module(m) => {
                stats.mats += 1;
                stats.luts += 1;
                for c in &m.children {
                    c.collect_stats(stats);
                }
            }
        }
    }
}

impl BitClassifier for RincNode {
    fn predict_row(&self, row: &BitVec) -> bool {
        match self {
            RincNode::Tree(t) => t.predict_row(row),
            RincNode::Module(m) => m.predict_row(row),
        }
    }

    fn predict_batch(&self, data: &FeatureMatrix) -> BitVec {
        match self {
            RincNode::Tree(t) => t.predict_batch(data),
            RincNode::Module(m) => m.predict_batch(data),
        }
    }
}

/// A boosted RINC-`l` module (`l ≥ 1`): up to `P` lower-level nodes whose
/// one-bit outputs feed a MAT LUT.
#[derive(Clone, Debug, PartialEq)]
pub struct RincModule {
    children: Vec<RincNode>,
    mat: MatModule,
    level: usize,
}

impl RincModule {
    /// Trains a RINC-`config.levels` module with hierarchical AdaBoost
    /// (Algorithm 2): the children are trained sequentially as AdaBoost
    /// weak learners — each child is itself a full RINC module of depth
    /// `levels - 1` trained on the reweighted distribution — and their
    /// alphas are folded into the MAT LUT.
    ///
    /// # Panics
    ///
    /// Panics if `config.levels == 0` (use [`RincNode::train`]) or on the
    /// data validation failures of the underlying trainers.
    pub fn train(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        config: &RincConfig,
    ) -> Self {
        assert!(config.levels >= 1, "RincModule requires levels >= 1");
        let child_config = config.child_config();
        let rounds = config.top_groups;
        let booster = AdaBoost {
            rounds,
            update: derive_update(config.update, config.levels as u64),
        };
        let (ensemble, _) = booster.train(data, labels, weights, |d, l, w, round| {
            let mut cc = child_config.clone();
            cc.update = derive_update(child_config.update, round as u64 + 1);
            RincNode::train(d, l, w, &cc)
        });
        RincModule {
            children: ensemble.members,
            mat: ensemble.mat,
            level: config.levels,
        }
    }

    /// Assembles a module from parts (deserialisation, tests, hand-built
    /// architectures).
    ///
    /// # Panics
    ///
    /// Panics if the MAT fan-in differs from the child count or
    /// `level == 0`.
    pub fn from_parts(children: Vec<RincNode>, mat: MatModule, level: usize) -> Self {
        assert_eq!(
            children.len(),
            mat.inputs(),
            "MAT fan-in must match child count"
        );
        assert!(level >= 1);
        RincModule {
            children,
            mat,
            level,
        }
    }

    /// The child nodes, in boosting order.
    pub fn children(&self) -> &[RincNode] {
        &self.children
    }

    /// The MAT vote unit.
    pub fn mat(&self) -> &MatModule {
        &self.mat
    }

    /// Hierarchy depth `L` of this module.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Total LUTs: children plus this module's MAT.
    ///
    /// For a full `P`-ary hierarchy this equals the paper's
    /// `(P^(L+1) - 1)/(P - 1)`.
    pub fn lut_count(&self) -> usize {
        1 + self.children.iter().map(RincNode::lut_count).sum::<usize>()
    }

    /// LUT levels on the critical path: deepest child plus this MAT.
    pub fn lut_depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(RincNode::lut_depth)
            .max()
            .unwrap_or(0)
    }

    /// Structural statistics for the whole hierarchy.
    pub fn stats(&self) -> RincStats {
        let mut stats = RincStats::default();
        stats.mats += 1;
        stats.luts += 1;
        for c in &self.children {
            c.collect_stats(&mut stats);
        }
        stats.lut_levels = self.lut_depth();
        stats.features.sort_unstable();
        stats
    }
}

/// Derives a distinct deterministic resampling seed for a child stage, so
/// sibling modules do not draw identical bootstraps.
fn derive_update(update: WeightUpdate, salt: u64) -> WeightUpdate {
    match update {
        WeightUpdate::Exact => WeightUpdate::Exact,
        WeightUpdate::Resample { seed } => WeightUpdate::Resample {
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt),
        },
    }
}

impl BitClassifier for RincModule {
    fn predict_row(&self, row: &BitVec) -> bool {
        let mut combo = 0usize;
        for (x, child) in self.children.iter().enumerate() {
            if child.predict_row(row) {
                combo |= 1 << x;
            }
        }
        self.mat.eval(combo)
    }

    fn predict_batch(&self, data: &FeatureMatrix) -> BitVec {
        // Children produce packed prediction words; the MAT LUT then votes
        // on 64 examples at a time through the shared word-parallel kernel.
        let child_preds: Vec<BitVec> = self
            .children
            .iter()
            .map(|c| c.predict_batch(data))
            .collect();
        let table = self.mat.table();
        let mut ops = vec![0u64; child_preds.len()];
        let mut out = BitVec::zeros(data.num_examples());
        for (w, word) in out.as_words_mut().iter_mut().enumerate() {
            for (op, preds) in ops.iter_mut().zip(&child_preds) {
                *op = preds.as_words()[w];
            }
            *word = table.eval_words(&ops);
        }
        out.mask_tail();
        out
    }
}

/// Structural statistics of a RINC hierarchy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RincStats {
    /// Total LUTs (trees + MAT units).
    pub luts: usize,
    /// Number of RINC-0 trees.
    pub trees: usize,
    /// Number of MAT units.
    pub mats: usize,
    /// Distinct input features consulted, ascending.
    pub features: Vec<usize>,
    /// LUT levels on the critical path.
    pub lut_levels: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pseudo-random but deterministic task: n examples over f features
    /// labelled by a hidden 3-feature majority plus hash noise.
    fn task(n: usize, f: usize) -> (FeatureMatrix, BitVec) {
        let data = FeatureMatrix::from_fn(n, f, |e, j| {
            (e.wrapping_mul(2654435761)
                .wrapping_add(j.wrapping_mul(40503))
                >> 7)
                & 1
                == 1
        });
        let labels = BitVec::from_fn(n, |e| {
            let votes = usize::from(data.bit(e, 0))
                + usize::from(data.bit(e, 1))
                + usize::from(data.bit(e, 2));
            votes >= 2
        });
        (data, labels)
    }

    #[test]
    fn rinc0_is_a_bare_tree() {
        let (data, labels) = task(64, 8);
        let node = RincNode::train(&data, &labels, &[1.0; 64], &RincConfig::new(3, 0));
        assert!(matches!(node, RincNode::Tree(_)));
        assert_eq!(node.lut_count(), 1);
        assert_eq!(node.lut_depth(), 1);
    }

    #[test]
    fn rinc1_lut_budget_matches_formula() {
        let (data, labels) = task(128, 10);
        let cfg = RincConfig::new(3, 1);
        let m = RincModule::train(&data, &labels, &[1.0; 128], &cfg);
        // P + 1 LUTs unless early stopping shrank the group.
        assert!(m.lut_count() <= 3 + 1);
        assert_eq!(m.lut_depth(), 2);
        let stats = m.stats();
        assert_eq!(stats.luts, m.lut_count());
        assert_eq!(stats.mats, 1);
    }

    #[test]
    fn rinc2_depth_and_budget() {
        let (data, labels) = task(256, 12);
        let cfg = RincConfig::new(2, 2);
        let m = RincModule::train(&data, &labels, &[1.0; 256], &cfg);
        // Full shape: P^2 trees + P inner MATs + 1 outer MAT = 7 for P=2.
        assert!(m.lut_count() <= 7);
        assert!(m.lut_depth() <= 3);
        assert_eq!(m.level(), 2);
    }

    #[test]
    fn paper_lut_formula_for_full_hierarchy() {
        // (P^(L+1)-1)/(P-1) LUTs for a full hierarchy; verify on a task hard
        // enough that no early stopping occurs (hash noise labels).
        let data = FeatureMatrix::from_fn(512, 16, |e, j| {
            (e.wrapping_mul(0x9E3779B9)
                .wrapping_add(j.wrapping_mul(0x85EBCA6B))
                >> 9)
                & 1
                == 1
        });
        let labels = BitVec::from_fn(512, |e| (e.wrapping_mul(0xC2B2AE35) >> 13) & 1 == 1);
        let (p, l) = (3usize, 2usize);
        let m = RincModule::train(&data, &labels, &[1.0; 512], &RincConfig::new(p, l));
        let expected = (p.pow(l as u32 + 1) - 1) / (p - 1);
        assert_eq!(m.lut_count(), expected);
        let stats = m.stats();
        assert_eq!(stats.trees, p.pow(l as u32));
        assert_eq!(stats.mats, (p.pow(l as u32) - 1) / (p - 1));
    }

    #[test]
    fn top_groups_shrinks_only_the_outer_level() {
        let data = FeatureMatrix::from_fn(512, 16, |e, j| {
            (e.wrapping_mul(0x9E3779B9)
                .wrapping_add(j.wrapping_mul(0x85EBCA6B))
                >> 9)
                & 1
                == 1
        });
        let labels = BitVec::from_fn(512, |e| (e.wrapping_mul(0xC2B2AE35) >> 13) & 1 == 1);
        let cfg = RincConfig::new(3, 2).with_top_groups(2);
        let m = RincModule::train(&data, &labels, &[1.0; 512], &cfg);
        assert_eq!(m.children().len(), 2);
        for child in m.children() {
            match child {
                RincNode::Module(inner) => assert_eq!(inner.children().len(), 3),
                RincNode::Tree(_) => panic!("children of a RINC-2 must be RINC-1"),
            }
        }
        // 2 groups × (3 trees + 1 MAT) + 1 outer MAT.
        assert_eq!(m.lut_count(), 2 * 4 + 1);
        assert_eq!(cfg.total_trees(), 6);
        assert_eq!(cfg.max_effective_inputs(), 18);
    }

    #[test]
    fn hierarchy_beats_single_tree_on_wide_task() {
        // A task touching 9 features: a single 3-input tree cannot see
        // enough, a RINC-2 with P=3 can reach 27.
        let n = 512;
        let data = FeatureMatrix::from_fn(n, 9, |e, j| {
            (e.wrapping_mul(2654435761).wrapping_add(j.wrapping_mul(97)) >> 5) & 1 == 1
        });
        let labels = BitVec::from_fn(n, |e| {
            let ones = (0..9).filter(|&j| data.bit(e, j)).count();
            ones >= 5
        });
        let w = vec![1.0; n];
        let tree = RincNode::train(&data, &labels, &w, &RincConfig::new(3, 0));
        let rinc2 = RincNode::train(&data, &labels, &w, &RincConfig::new(3, 2));
        let acc_tree = tree.accuracy(&data, &labels);
        let acc_rinc = rinc2.accuracy(&data, &labels);
        assert!(
            acc_rinc > acc_tree,
            "RINC-2 ({acc_rinc:.3}) should beat a bare tree ({acc_tree:.3})"
        );
        assert!(acc_rinc > 0.9, "RINC-2 accuracy only {acc_rinc:.3}");
    }

    #[test]
    fn predict_row_and_batch_agree() {
        let (data, labels) = task(128, 10);
        let m = RincModule::train(&data, &labels, &[1.0; 128], &RincConfig::new(3, 2));
        let batch = m.predict_batch(&data);
        for e in 0..128 {
            assert_eq!(batch.get(e), m.predict_row(data.row(e)), "example {e}");
        }
    }

    #[test]
    fn resampling_hierarchy_is_deterministic() {
        let (data, labels) = task(256, 10);
        let cfg = RincConfig::new(3, 2).with_resampling(11);
        let w = vec![1.0; 256];
        let a = RincModule::train(&data, &labels, &w, &cfg);
        let b = RincModule::train(&data, &labels, &w, &cfg);
        assert_eq!(a.predict_batch(&data), b.predict_batch(&data));
    }

    #[test]
    fn stats_features_are_sorted_unique() {
        let (data, labels) = task(128, 10);
        let m = RincModule::train(&data, &labels, &[1.0; 128], &RincConfig::new(3, 1));
        let stats = m.stats();
        for w in stats.features.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(stats.features.len() <= 10);
    }

    #[test]
    #[should_panic(expected = "levels >= 1")]
    fn module_train_rejects_level0() {
        let (data, labels) = task(16, 6);
        RincModule::train(&data, &labels, &[1.0; 16], &RincConfig::new(3, 0));
    }

    #[test]
    #[should_panic(expected = "top_groups")]
    fn oversized_top_groups_panics() {
        let _ = RincConfig::new(3, 2).with_top_groups(4);
    }

    #[test]
    fn from_parts_validates_fanin() {
        let (data, labels) = task(64, 8);
        let w = vec![1.0; 64];
        let t1 = RincNode::train(&data, &labels, &w, &RincConfig::new(2, 0));
        let t2 = RincNode::train(&data, &labels, &w, &RincConfig::new(2, 0));
        let mat = MatModule::new(vec![1.0, 0.5]);
        let m = RincModule::from_parts(vec![t1, t2], mat, 1);
        assert_eq!(m.lut_count(), 3);
    }
}
