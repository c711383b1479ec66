//! POLYBiNN-style classifier: one-vs-all boosted off-the-shelf decision
//! trees with a confidence comparison (Abdelsalam et al., 2018).
//!
//! This is the paper's representative of conventional, node-wise decision
//! trees. PoET-BiN's claimed edge over it comes from level-wise LUT-fitted
//! trees plus the learned sparse output layer — Table 2 shows PoET-BiN
//! ahead on all three datasets "in spite of them having significantly more
//! nodes in each DT".

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_boost::{AdaBoost, BoostedEnsemble};
use poetbin_dt::{BitClassifier, ClassicTree, ClassicTreeConfig};

use crate::MulticlassClassifier;

/// Training configuration for [`PolyBinn`].
#[derive(Clone, Debug, PartialEq)]
pub struct PolyBinnConfig {
    /// Depth limit of each off-the-shelf tree.
    pub max_depth: usize,
    /// Boosting rounds per one-vs-all ensemble.
    pub rounds: usize,
}

impl Default for PolyBinnConfig {
    fn default() -> Self {
        PolyBinnConfig {
            max_depth: 6,
            rounds: 8,
        }
    }
}

/// One-vs-all boosted node-wise trees with confidence comparison.
pub struct PolyBinn {
    per_class: Vec<BoostedEnsemble<ClassicTree>>,
}

impl PolyBinn {
    /// Trains one boosted ensemble per class (`class` vs rest) on the
    /// shared binary features.
    ///
    /// # Panics
    ///
    /// Panics if `labels` disagrees with `features` on length or
    /// `classes == 0`.
    pub fn train(
        features: &FeatureMatrix,
        labels: &[usize],
        classes: usize,
        config: &PolyBinnConfig,
    ) -> Self {
        let n = features.num_examples();
        assert_eq!(labels.len(), n, "label / feature count mismatch");
        assert!(classes > 0, "need at least one class");
        let tree_config = ClassicTreeConfig::with_depth(config.max_depth);
        let booster = AdaBoost::new(config.rounds);
        let uniform = vec![1.0; n];
        let per_class = (0..classes)
            .map(|c| {
                let targets = BitVec::from_fn(n, |e| labels[e] == c);
                let (ensemble, _) =
                    booster.train(features, &targets, &uniform, |d, l, w, _round| {
                        ClassicTree::train(d, l, w, &tree_config)
                    });
                ensemble
            })
            .collect();
        PolyBinn { per_class }
    }

    /// The signed confidence of each one-vs-all ensemble for one example:
    /// `Σ alpha_t · (2·h_t − 1)` — the margin POLYBiNN's comparison
    /// circuit would compute.
    pub fn confidences_row(&self, row: &BitVec) -> Vec<f64> {
        self.per_class
            .iter()
            .map(|ens| {
                ens.members
                    .iter()
                    .zip(ens.mat.weights())
                    .map(|(tree, &alpha)| {
                        let vote = if tree.predict_row(row) { 1.0 } else { -1.0 };
                        alpha * vote
                    })
                    .sum()
            })
            .collect()
    }

    /// Total number of tree nodes across all ensembles — the resource the
    /// paper contrasts against PoET-BiN's LUT budget.
    pub fn total_splits(&self) -> usize {
        self.per_class
            .iter()
            .flat_map(|e| e.members.iter())
            .map(ClassicTree::num_splits)
            .sum()
    }
}

impl MulticlassClassifier for PolyBinn {
    fn predict(&self, features: &FeatureMatrix) -> Vec<usize> {
        (0..features.num_examples())
            .map(|e| {
                let conf = self.confidences_row(features.row(e));
                conf.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn task(n: usize, seed: u64) -> (FeatureMatrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<BitVec> = (0..n)
            .map(|_| BitVec::from_fn(12, |_| rng.random::<bool>()))
            .collect();
        let m = FeatureMatrix::from_rows(rows);
        let labels = (0..n)
            .map(|e| usize::from(m.bit(e, 2)) + 2 * usize::from(m.bit(e, 5)))
            .collect();
        (m, labels)
    }

    #[test]
    fn learns_separable_multiclass_task() {
        let (m, labels) = task(300, 1);
        let model = PolyBinn::train(&m, &labels, 4, &PolyBinnConfig::default());
        let acc = model.accuracy(&m, &labels);
        assert!(acc > 0.95, "PolyBinn accuracy only {acc:.3}");
    }

    #[test]
    fn confidences_are_finite_and_ordered() {
        let (m, labels) = task(100, 2);
        let model = PolyBinn::train(&m, &labels, 4, &PolyBinnConfig::default());
        let conf = model.confidences_row(m.row(0));
        assert_eq!(conf.len(), 4);
        assert!(conf.iter().all(|c| c.is_finite()));
        let pred = model.predict(&m.select_examples(&[0]))[0];
        let max_c = conf
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(pred, max_c);
    }

    #[test]
    fn split_count_is_positive() {
        let (m, labels) = task(120, 3);
        let model = PolyBinn::train(&m, &labels, 4, &PolyBinnConfig::default());
        assert!(model.total_splits() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_panics() {
        let (m, labels) = task(10, 4);
        PolyBinn::train(&m, &labels, 0, &PolyBinnConfig::default());
    }
}
