//! Neural decision forest (Kontschieder et al., 2015), simplified.
//!
//! Differentiable trees: every internal node routes with a sigmoid over a
//! learned linear function of the features; every leaf carries a class
//! distribution π. Routers train by gradient descent on cross-entropy,
//! leaf distributions by Kontschieder's multiplicative update. The paper
//! notes NDF is accurate but "not optimized for hardware implementations"
//! — stochastic routing needs full-precision arithmetic at every node —
//! which is exactly the contrast Table 2 draws.

use rand::prelude::*;
use rand::rngs::StdRng;

use poetbin_bits::FeatureMatrix;
use poetbin_data::binary::to_tensor;
use poetbin_nn::Tensor;

use crate::MulticlassClassifier;

/// Training configuration for [`NeuralDecisionForest`].
#[derive(Clone, Debug, PartialEq)]
pub struct NdfConfig {
    /// Number of trees.
    pub trees: usize,
    /// Depth of every tree (`2^depth` leaves).
    pub depth: usize,
    /// Router gradient steps (full-batch).
    pub epochs: usize,
    /// Router learning rate.
    pub learning_rate: f32,
    /// Leaf-distribution update iterations per epoch.
    pub pi_iterations: usize,
    /// Initialisation/shuffle seed.
    pub seed: u64,
}

impl Default for NdfConfig {
    fn default() -> Self {
        NdfConfig {
            trees: 8,
            depth: 5,
            epochs: 30,
            learning_rate: 0.1,
            pi_iterations: 3,
            seed: 0,
        }
    }
}

/// One differentiable tree: routers (one weight vector + bias per internal
/// node) and leaf class distributions.
#[derive(Clone, Debug)]
struct SoftTree {
    depth: usize,
    features: usize,
    classes: usize,
    /// `[internal_nodes, features + 1]`, last column is the bias.
    routers: Tensor,
    /// `[leaves, classes]`, rows sum to 1.
    pi: Tensor,
}

impl SoftTree {
    fn new(features: usize, classes: usize, depth: usize, rng: &mut StdRng) -> Self {
        let internal = (1 << depth) - 1;
        let leaves = 1 << depth;
        let routers = Tensor::from_vec(
            (0..internal * (features + 1))
                .map(|_| rng.random_range(-0.5..0.5))
                .collect(),
            vec![internal, features + 1],
        );
        let pi = Tensor::full(vec![leaves, classes], 1.0 / classes as f32);
        SoftTree {
            depth,
            features,
            classes,
            routers,
            pi,
        }
    }

    /// Routing probability to every leaf for one example, plus the cached
    /// per-node sigmoid decisions (needed by the gradient).
    fn leaf_probs(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let internal = (1 << self.depth) - 1;
        let mut d = vec![0.0f32; internal];
        for (node, dn) in d.iter_mut().enumerate() {
            let row = self.routers.row(node);
            let mut z = row[self.features]; // bias
            for (w, xv) in row[..self.features].iter().zip(x) {
                z += w * xv;
            }
            *dn = 1.0 / (1.0 + (-z).exp());
        }
        let leaves = 1 << self.depth;
        let mut probs = vec![0.0f32; leaves];
        for (leaf, prob) in probs.iter_mut().enumerate() {
            let mut p = 1.0f32;
            let mut node = 0usize;
            for level in (0..self.depth).rev() {
                let go_right = (leaf >> level) & 1 == 1;
                p *= if go_right { d[node] } else { 1.0 - d[node] };
                node = 2 * node + 1 + usize::from(go_right);
            }
            *prob = p;
        }
        (probs, d)
    }

    /// Class distribution for one example.
    fn predict_dist(&self, x: &[f32]) -> Vec<f32> {
        let (probs, _) = self.leaf_probs(x);
        let mut out = vec![0.0f32; self.classes];
        for (leaf, &p) in probs.iter().enumerate() {
            for (o, pi) in out.iter_mut().zip(self.pi.row(leaf)) {
                *o += p * pi;
            }
        }
        out
    }
}

/// A small forest of jointly trained soft decision trees.
pub struct NeuralDecisionForest {
    trees: Vec<SoftTree>,
    classes: usize,
}

impl NeuralDecisionForest {
    /// Trains the forest on binary features: alternating router gradient
    /// steps and multiplicative leaf updates.
    ///
    /// # Panics
    ///
    /// Panics if `labels` disagrees with `features` or `classes == 0`.
    pub fn train(
        features: &FeatureMatrix,
        labels: &[usize],
        classes: usize,
        config: &NdfConfig,
    ) -> Self {
        let n = features.num_examples();
        assert_eq!(labels.len(), n, "label / feature count mismatch");
        assert!(classes > 0, "need at least one class");
        let x = to_tensor(features);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut trees: Vec<SoftTree> = (0..config.trees)
            .map(|_| SoftTree::new(features.num_features(), classes, config.depth, &mut rng))
            .collect();

        for _ in 0..config.epochs {
            for tree in &mut trees {
                // --- leaf distribution update (Kontschieder eq. 11) ---
                for _ in 0..config.pi_iterations {
                    let leaves = 1 << tree.depth;
                    let mut new_pi = vec![1e-6f32; leaves * classes];
                    for e in 0..n {
                        let (probs, _) = tree.leaf_probs(x.row(e));
                        let dist = tree.predict_dist(x.row(e));
                        let py = dist[labels[e]].max(1e-6);
                        for leaf in 0..leaves {
                            let pi_ly = tree.pi.row(leaf)[labels[e]];
                            new_pi[leaf * classes + labels[e]] += probs[leaf] * pi_ly / py;
                        }
                    }
                    for leaf in 0..leaves {
                        let row = &mut new_pi[leaf * classes..(leaf + 1) * classes];
                        let sum: f32 = row.iter().sum();
                        for v in row.iter_mut() {
                            *v /= sum;
                        }
                    }
                    tree.pi = Tensor::from_vec(new_pi, vec![leaves, classes]);
                }

                // --- router gradient step on cross-entropy ---
                let internal = (1 << tree.depth) - 1;
                let mut grad = vec![0.0f32; internal * (tree.features + 1)];
                for e in 0..n {
                    let xe = x.row(e);
                    let (probs, d) = tree.leaf_probs(xe);
                    let dist = tree.predict_dist(xe);
                    let py = dist[labels[e]].max(1e-6);
                    // dL/dz_node for L = -log p(y); see Kontschieder et al.
                    for node in 0..internal {
                        // Sum of leaf contributions under left/right child.
                        let (mut right_mass, mut node_mass) = (0.0f32, 0.0f32);
                        for (leaf, &leaf_prob) in probs.iter().enumerate() {
                            // Walk from root to see if this leaf passes node
                            // and on which side.
                            let mut at = 0usize;
                            let mut side: Option<bool> = None;
                            for level in (0..tree.depth).rev() {
                                let go_right = (leaf >> level) & 1 == 1;
                                if at == node {
                                    side = Some(go_right);
                                    break;
                                }
                                at = 2 * at + 1 + usize::from(go_right);
                            }
                            if let Some(go_right) = side {
                                let contrib = leaf_prob * tree.pi.row(leaf)[labels[e]] / py;
                                node_mass += contrib;
                                if go_right {
                                    right_mass += contrib;
                                }
                            }
                        }
                        // dL/dz = d_node * node_mass - right_mass.
                        let dz = d[node] * node_mass - right_mass;
                        let g =
                            &mut grad[node * (tree.features + 1)..(node + 1) * (tree.features + 1)];
                        for (gw, xv) in g[..tree.features].iter_mut().zip(xe) {
                            *gw += dz * xv;
                        }
                        g[tree.features] += dz;
                    }
                }
                let scale = config.learning_rate / n as f32;
                for (w, g) in tree.routers.data_mut().iter_mut().zip(&grad) {
                    *w -= scale * g;
                }
            }
        }
        NeuralDecisionForest { trees, classes }
    }

    /// Mean class distribution across the forest for one example row
    /// (features as 0/1 floats).
    pub fn predict_dist(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.classes];
        for tree in &self.trees {
            for (o, p) in out.iter_mut().zip(tree.predict_dist(x)) {
                *o += p;
            }
        }
        for o in &mut out {
            *o /= self.trees.len() as f32;
        }
        out
    }
}

impl MulticlassClassifier for NeuralDecisionForest {
    fn predict(&self, features: &FeatureMatrix) -> Vec<usize> {
        let x = to_tensor(features);
        (0..features.num_examples())
            .map(|e| {
                let dist = self.predict_dist(x.row(e));
                dist.iter()
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
    use poetbin_bits::BitVec;

    fn task(n: usize, seed: u64) -> (FeatureMatrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<BitVec> = (0..n)
            .map(|_| BitVec::from_fn(10, |_| rng.random::<bool>()))
            .collect();
        let m = FeatureMatrix::from_rows(rows);
        let labels = (0..n)
            .map(|e| usize::from(m.bit(e, 0)) + 2 * usize::from(m.bit(e, 3)))
            .collect();
        (m, labels)
    }

    #[test]
    fn learns_simple_task() {
        let (m, labels) = task(200, 1);
        let cfg = NdfConfig {
            trees: 4,
            depth: 4,
            epochs: 50,
            learning_rate: 2.0,
            pi_iterations: 2,
            seed: 2,
        };
        let model = NeuralDecisionForest::train(&m, &labels, 4, &cfg);
        let acc = model.accuracy(&m, &labels);
        assert!(acc > 0.8, "NDF accuracy only {acc:.3}");
    }

    #[test]
    fn leaf_probs_form_a_distribution() {
        let (m, labels) = task(50, 3);
        let cfg = NdfConfig {
            trees: 1,
            depth: 4,
            epochs: 1,
            ..NdfConfig::default()
        };
        let model = NeuralDecisionForest::train(&m, &labels, 4, &cfg);
        let x = to_tensor(&m);
        let (probs, _) = model.trees[0].leaf_probs(x.row(0));
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "leaf probabilities sum to {sum}");
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn predict_dist_is_normalised() {
        let (m, labels) = task(50, 4);
        let cfg = NdfConfig {
            trees: 2,
            depth: 3,
            epochs: 2,
            ..NdfConfig::default()
        };
        let model = NeuralDecisionForest::train(&m, &labels, 4, &cfg);
        let x = to_tensor(&m);
        let dist = model.predict_dist(x.row(0));
        let sum: f32 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "distribution sums to {sum}");
    }

    #[test]
    fn training_is_deterministic() {
        let (m, labels) = task(60, 5);
        let cfg = NdfConfig {
            trees: 2,
            depth: 3,
            epochs: 2,
            ..NdfConfig::default()
        };
        let a = NeuralDecisionForest::train(&m, &labels, 4, &cfg).predict(&m);
        let b = NeuralDecisionForest::train(&m, &labels, 4, &cfg).predict(&m);
        assert_eq!(a, b);
    }
}
