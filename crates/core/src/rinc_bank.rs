//! A bank of RINC modules, one per intermediate binary neuron (§2.2.1).

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_boost::{RincConfig, RincNode};
use poetbin_dt::BitClassifier;

/// One RINC-L module per intermediate-layer neuron, each trained to
/// emulate that neuron's binary output from the 512 binary features.
#[derive(Clone, Debug, PartialEq)]
pub struct RincBank {
    modules: Vec<RincNode>,
}

impl RincBank {
    /// Trains one module per target column of `targets` (the intermediate
    /// bits produced by the teacher), in parallel across module shards.
    ///
    /// The shard count comes from [`RincConfig::bank_shards`] (`0` = one
    /// shard per core). Sharding is **bit-exact**: each neuron's module is
    /// trained from state derived only from the neuron index (its
    /// resampling stream is salted with the index) and the results are
    /// folded into a slot vector in neuron order, so any shard count —
    /// including counts above the core or neuron count — produces a
    /// byte-identical bank (`crates/core/tests/sharding.rs` pins this
    /// through `POETBIN1` dumps).
    ///
    /// A zero-neuron target matrix (an architecture with no intermediate
    /// layer) yields an empty bank rather than panicking. Each module's
    /// labels are the target's column plane, reused directly — no per-bit
    /// rebuild. When the bank shards neurons across several threads, each
    /// module's feature scan gets its share of the remaining cores
    /// (`cores / shards`), so a 2-neuron bank on a 16-core machine still
    /// scans 8-wide per module while a neuron-rich bank pins each scan to
    /// one thread — never oversubscribed, and the trained bank is
    /// identical for any split.
    ///
    /// # Panics
    ///
    /// Panics if `features` and `targets` disagree on example count.
    pub fn train(
        features: &FeatureMatrix,
        targets: &FeatureMatrix,
        config: &RincConfig,
    ) -> RincBank {
        assert_eq!(
            features.num_examples(),
            targets.num_examples(),
            "feature / target example count mismatch"
        );
        let neurons = targets.num_features();
        if neurons == 0 {
            return RincBank {
                modules: Vec::new(),
            };
        }
        let n = features.num_examples();
        let weights = vec![1.0f64; n];

        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let shards = if config.bank_shards == 0 {
            cores.min(neurons)
        } else {
            config.bank_shards.min(neurons)
        };
        let base_cfg = if config.tree_threads == 0 {
            config.clone().with_tree_threads((cores / shards).max(1))
        } else {
            config.clone()
        };
        let mut modules: Vec<Option<RincNode>> = vec![None; neurons];
        let chunk = neurons.div_ceil(shards);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, slot_chunk) in modules.chunks_mut(chunk).enumerate() {
                let weights = &weights;
                let base_cfg = &base_cfg;
                let handle = scope.spawn(move || {
                    for (i, slot) in slot_chunk.iter_mut().enumerate() {
                        let neuron = t * chunk + i;
                        let labels = targets.feature(neuron);
                        let mut cfg = base_cfg.clone();
                        // Distinct resampling streams per neuron.
                        cfg = match cfg.update {
                            poetbin_boost::WeightUpdate::Resample { seed } => {
                                cfg.with_resampling(seed.wrapping_add(neuron as u64 * 7919))
                            }
                            poetbin_boost::WeightUpdate::Exact => cfg,
                        };
                        *slot = Some(RincNode::train(features, labels, weights, &cfg));
                    }
                });
                handles.push(handle);
            }
        });
        RincBank {
            modules: modules.into_iter().map(Option::unwrap).collect(),
        }
    }

    /// Assembles a bank from already-trained modules (model loading,
    /// tests, hand-built architectures).
    pub fn from_modules(modules: Vec<RincNode>) -> RincBank {
        RincBank { modules }
    }

    /// The trained modules in neuron order.
    pub fn modules(&self) -> &[RincNode] {
        &self.modules
    }

    /// Number of modules (intermediate neurons).
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Predicted intermediate bits for every example: an `n × neurons`
    /// matrix mirroring the teacher's intermediate layer. An empty bank
    /// produces an `n × 0` matrix (the example count is preserved).
    pub fn predict_bits(&self, features: &FeatureMatrix) -> FeatureMatrix {
        if self.modules.is_empty() {
            return FeatureMatrix::from_fn(features.num_examples(), 0, |_, _| false);
        }
        let cols: Vec<BitVec> = self
            .modules
            .iter()
            .map(|m| m.predict_batch(features))
            .collect();
        FeatureMatrix::from_columns(cols)
    }

    /// Mean per-neuron agreement with reference intermediate bits — how
    /// faithfully the bank emulates the teacher.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn fidelity(&self, features: &FeatureMatrix, targets: &FeatureMatrix) -> f64 {
        assert_eq!(targets.num_features(), self.modules.len());
        let n = features.num_examples();
        assert_eq!(targets.num_examples(), n);
        if n == 0 || self.modules.is_empty() {
            return 1.0;
        }
        let mut agree = 0usize;
        for (j, module) in self.modules.iter().enumerate() {
            let preds = module.predict_batch(features);
            agree += n - preds.hamming_distance(targets.feature(j));
        }
        agree as f64 / (n * self.modules.len()) as f64
    }

    /// Total LUTs across all modules (the dominant term of Table 7).
    pub fn lut_count(&self) -> usize {
        self.modules.iter().map(RincNode::lut_count).sum()
    }

    /// Smallest feature-row width every module in the bank can evaluate
    /// on: one past the highest feature index any tree reads
    /// ([`RincNode::min_features`] folded over the bank).
    pub fn min_features(&self) -> usize {
        self.modules
            .iter()
            .map(RincNode::min_features)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn task(n: usize, f: usize, neurons: usize, seed: u64) -> (FeatureMatrix, FeatureMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<BitVec> = (0..n)
            .map(|_| BitVec::from_fn(f, |_| rng.random::<bool>()))
            .collect();
        let features = FeatureMatrix::from_rows(rows);
        // Each target neuron is a 3-feature majority, a function RINC can
        // represent exactly.
        let targets = FeatureMatrix::from_fn(n, neurons, |e, j| {
            let base = (j * 3) % (f - 3);
            (base..base + 3).filter(|&k| features.bit(e, k)).count() >= 2
        });
        (features, targets)
    }

    #[test]
    fn bank_learns_majority_neurons() {
        let (features, targets) = task(400, 24, 6, 1);
        let bank = RincBank::train(&features, &targets, &RincConfig::new(3, 1));
        assert_eq!(bank.len(), 6);
        let fid = bank.fidelity(&features, &targets);
        assert!(fid > 0.95, "fidelity {fid:.3}");
    }

    #[test]
    fn predict_bits_matches_per_module_predictions() {
        let (features, targets) = task(100, 16, 3, 2);
        let bank = RincBank::train(&features, &targets, &RincConfig::new(3, 1));
        let bits = bank.predict_bits(&features);
        for (j, module) in bank.modules().iter().enumerate() {
            let direct = module.predict_batch(&features);
            assert_eq!(bits.feature(j), &direct, "neuron {j}");
        }
    }

    #[test]
    fn parallel_training_is_deterministic() {
        let (features, targets) = task(200, 16, 5, 3);
        let cfg = RincConfig::new(3, 1);
        let a = RincBank::train(&features, &targets, &cfg);
        let b = RincBank::train(&features, &targets, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_neuron_targets_yield_empty_bank() {
        // Regression: a 0-column target matrix used to panic in
        // `chunks_mut(0)`; it must train to an empty bank and predict an
        // n × 0 matrix that preserves the example count.
        let (features, _) = task(50, 16, 3, 9);
        let targets = FeatureMatrix::from_fn(50, 0, |_, _| false);
        let bank = RincBank::train(&features, &targets, &RincConfig::new(3, 1));
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
        assert_eq!(bank.lut_count(), 0);
        let bits = bank.predict_bits(&features);
        assert_eq!(bits.num_features(), 0);
        assert_eq!(bits.num_examples(), 50);
        assert_eq!(bank.fidelity(&features, &targets), 1.0);
    }

    #[test]
    fn lut_count_sums_modules() {
        let (features, targets) = task(100, 16, 4, 4);
        let bank = RincBank::train(&features, &targets, &RincConfig::new(3, 1));
        let expect: usize = bank.modules().iter().map(RincNode::lut_count).sum();
        assert_eq!(bank.lut_count(), expect);
    }
}
