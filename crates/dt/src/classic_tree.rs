//! A conventional node-wise decision tree (CART / ID3 style).
//!
//! This is the "original DT algorithm (Quinlan, 1986)" the paper contrasts
//! with: each node independently picks its best feature, and growth stops on
//! a depth or node budget. Because different branches pick different
//! features, a depth-`d` tree can touch up to `2^d - 1` distinct inputs —
//! far more than a LUT port supplies — or far fewer, under-filling the LUT.
//! The POLYBiNN baseline builds on these trees.

use poetbin_bits::{BitVec, FeatureMatrix};

use crate::entropy::{gini_impurity, weighted_binary_entropy};
use crate::BitClassifier;

/// Split quality measure for [`ClassicTree`] training.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SplitCriterion {
    /// Shannon information gain (ID3/C4.5 style).
    #[default]
    Entropy,
    /// Gini impurity decrease (CART style).
    Gini,
}

impl SplitCriterion {
    fn impurity(self, w0: f64, w1: f64) -> f64 {
        match self {
            SplitCriterion::Entropy => weighted_binary_entropy(w0, w1),
            SplitCriterion::Gini => gini_impurity(w0, w1),
        }
    }
}

/// Configuration for training a [`ClassicTree`].
#[derive(Clone, Debug, PartialEq)]
pub struct ClassicTreeConfig {
    /// Maximum tree depth (root = depth 0). A depth-`d` tree answers in at
    /// most `d` feature reads per example.
    pub max_depth: usize,
    /// Maximum number of internal nodes, the paper's other classic limit.
    pub max_nodes: usize,
    /// Minimum total example weight required to attempt a split.
    pub min_split_weight: f64,
    /// Split quality measure.
    pub criterion: SplitCriterion,
}

impl ClassicTreeConfig {
    /// A depth-limited tree with an effectively unlimited node budget.
    pub fn with_depth(max_depth: usize) -> Self {
        ClassicTreeConfig {
            max_depth,
            max_nodes: usize::MAX,
            min_split_weight: 0.0,
            criterion: SplitCriterion::default(),
        }
    }

    /// A node-limited tree with an effectively unlimited depth budget.
    pub fn with_nodes(max_nodes: usize) -> Self {
        ClassicTreeConfig {
            max_depth: usize::MAX,
            max_nodes,
            min_split_weight: 0.0,
            criterion: SplitCriterion::default(),
        }
    }

    /// Sets the split criterion (builder style).
    pub fn with_criterion(mut self, criterion: SplitCriterion) -> Self {
        self.criterion = criterion;
        self
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Node {
    /// Internal node: test `feature`; 0 → `lo`, 1 → `hi` (indices into the
    /// node arena).
    Split {
        feature: usize,
        lo: usize,
        hi: usize,
    },
    /// Leaf with a fixed class.
    Leaf { label: bool },
}

/// A conventional greedy binary decision tree over binary features.
///
/// # Example
///
/// ```
/// use poetbin_bits::{BitVec, FeatureMatrix};
/// use poetbin_dt::{BitClassifier, ClassicTree, ClassicTreeConfig};
///
/// let data = FeatureMatrix::from_fn(8, 3, |e, j| (e >> j) & 1 == 1);
/// let labels = BitVec::from_fn(8, |e| e & 1 == 1);
/// let tree = ClassicTree::train(&data, &labels, &[1.0; 8],
///                               &ClassicTreeConfig::with_depth(2));
/// assert_eq!(tree.accuracy(&data, &labels), 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ClassicTree {
    nodes: Vec<Node>,
    root: usize,
    depth: usize,
}

impl ClassicTree {
    /// Trains a tree by greedy recursive partitioning.
    ///
    /// # Panics
    ///
    /// Panics if `labels`/`weights` lengths disagree with `data` or any
    /// weight is negative.
    pub fn train(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        config: &ClassicTreeConfig,
    ) -> Self {
        let n = data.num_examples();
        assert_eq!(labels.len(), n, "label / data length mismatch");
        assert_eq!(weights.len(), n, "weight / data length mismatch");
        assert!(weights.iter().all(|w| *w >= 0.0), "negative example weight");

        let mut builder = Builder {
            data,
            labels,
            weights,
            config,
            nodes: Vec::new(),
            splits_used: 0,
        };
        let everyone: Vec<usize> = (0..n).collect();
        let root = builder.grow(&everyone, 0);
        let depth = depth_of(&builder.nodes, root);
        ClassicTree {
            nodes: builder.nodes,
            root,
            depth,
        }
    }

    /// Actual depth of the trained tree.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of internal (split) nodes.
    pub fn num_splits(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Split { .. }))
            .count()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.len() - self.num_splits()
    }

    /// The set of distinct features the tree reads, ascending.
    ///
    /// The paper's LUT-utilisation argument: a classic tree's distinct input
    /// count is not controlled, so it rarely equals the LUT fan-in `P`.
    pub fn distinct_features(&self) -> Vec<usize> {
        let mut feats: Vec<usize> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Split { feature, .. } => Some(*feature),
                Node::Leaf { .. } => None,
            })
            .collect();
        feats.sort_unstable();
        feats.dedup();
        feats
    }
}

impl BitClassifier for ClassicTree {
    fn predict_row(&self, row: &BitVec) -> bool {
        let mut at = self.root;
        loop {
            match &self.nodes[at] {
                Node::Leaf { label } => return *label,
                Node::Split { feature, lo, hi } => {
                    at = if row.get(*feature) { *hi } else { *lo };
                }
            }
        }
    }
}

struct Builder<'a> {
    data: &'a FeatureMatrix,
    labels: &'a BitVec,
    weights: &'a [f64],
    config: &'a ClassicTreeConfig,
    nodes: Vec<Node>,
    splits_used: usize,
}

impl Builder<'_> {
    fn class_weights(&self, members: &[usize]) -> (f64, f64) {
        let mut w = (0.0, 0.0);
        for &e in members {
            if self.labels.get(e) {
                w.1 += self.weights[e];
            } else {
                w.0 += self.weights[e];
            }
        }
        w
    }

    fn leaf(&mut self, members: &[usize]) -> usize {
        let (w0, w1) = self.class_weights(members);
        self.nodes.push(Node::Leaf { label: w0 <= w1 });
        self.nodes.len() - 1
    }

    fn grow(&mut self, members: &[usize], depth: usize) -> usize {
        let (w0, w1) = self.class_weights(members);
        let total = w0 + w1;
        let pure = w0 == 0.0 || w1 == 0.0;
        if depth >= self.config.max_depth
            || self.splits_used >= self.config.max_nodes
            || total <= self.config.min_split_weight
            || pure
            || members.len() <= 1
        {
            return self.leaf(members);
        }

        let parent_impurity = self.config.criterion.impurity(w0, w1);
        let mut best: Option<(usize, f64)> = None;
        for feature in 0..self.data.num_features() {
            let col = self.data.feature(feature);
            let (mut l0, mut l1, mut h0, mut h1) = (0.0, 0.0, 0.0, 0.0);
            for &e in members {
                let w = self.weights[e];
                match (col.get(e), self.labels.get(e)) {
                    (false, false) => l0 += w,
                    (false, true) => l1 += w,
                    (true, false) => h0 += w,
                    (true, true) => h1 += w,
                }
            }
            if l0 + l1 == 0.0 || h0 + h1 == 0.0 {
                continue; // split does not separate anything
            }
            let child = ((l0 + l1) * self.config.criterion.impurity(l0, l1)
                + (h0 + h1) * self.config.criterion.impurity(h0, h1))
                / total;
            let gain = parent_impurity - child;
            let better = match best {
                None => gain > 1e-12,
                Some((_, g)) => gain > g + 1e-15,
            };
            if better {
                best = Some((feature, gain));
            }
        }

        let Some((feature, _)) = best else {
            return self.leaf(members);
        };

        self.splits_used += 1;
        let col = self.data.feature(feature);
        let (lo_members, hi_members): (Vec<usize>, Vec<usize>) =
            members.iter().partition(|&&e| !col.get(e));

        // Reserve this node's slot before recursing so indices stay stable.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { label: false });
        let lo = self.grow(&lo_members, depth + 1);
        let hi = self.grow(&hi_members, depth + 1);
        self.nodes[slot] = Node::Split { feature, lo, hi };
        slot
    }
}

fn depth_of(nodes: &[Node], at: usize) -> usize {
    match &nodes[at] {
        Node::Leaf { .. } => 0,
        Node::Split { lo, hi, .. } => 1 + depth_of(nodes, *lo).max(depth_of(nodes, *hi)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive(f: usize) -> FeatureMatrix {
        FeatureMatrix::from_fn(1 << f, f, |e, j| (e >> j) & 1 == 1)
    }

    #[test]
    fn learns_single_feature() {
        let data = exhaustive(4);
        let labels = BitVec::from_fn(16, |e| (e >> 2) & 1 == 1);
        let tree = ClassicTree::train(
            &data,
            &labels,
            &[1.0; 16],
            &ClassicTreeConfig::with_depth(3),
        );
        assert_eq!(tree.accuracy(&data, &labels), 1.0);
        assert_eq!(tree.distinct_features(), vec![2]);
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn learns_and_function() {
        let data = exhaustive(3);
        let labels = BitVec::from_fn(8, |e| e & 0b11 == 0b11);
        let tree = ClassicTree::train(&data, &labels, &[1.0; 8], &ClassicTreeConfig::with_depth(4));
        assert_eq!(tree.accuracy(&data, &labels), 1.0);
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn depth_limit_is_respected() {
        let data = exhaustive(6);
        let labels = BitVec::from_fn(64, |e| (e.count_ones() % 2) == 1); // parity: hard
        let tree = ClassicTree::train(
            &data,
            &labels,
            &[1.0; 64],
            &ClassicTreeConfig::with_depth(3),
        );
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn node_limit_is_respected() {
        let data = exhaustive(6);
        let labels = BitVec::from_fn(64, |e| (e.wrapping_mul(37) >> 2) & 1 == 1);
        let tree = ClassicTree::train(
            &data,
            &labels,
            &[1.0; 64],
            &ClassicTreeConfig::with_nodes(5),
        );
        assert!(tree.num_splits() <= 5, "got {} splits", tree.num_splits());
    }

    #[test]
    fn pure_node_stops_growth() {
        let data = exhaustive(4);
        let labels = BitVec::zeros(16);
        let tree = ClassicTree::train(
            &data,
            &labels,
            &[1.0; 16],
            &ClassicTreeConfig::with_depth(8),
        );
        assert_eq!(tree.num_splits(), 0);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.accuracy(&data, &labels), 1.0);
    }

    #[test]
    fn gini_and_entropy_both_solve_easy_tasks() {
        let data = exhaustive(5);
        let labels = BitVec::from_fn(32, |e| (e & 0b101) == 0b101);
        for criterion in [SplitCriterion::Entropy, SplitCriterion::Gini] {
            let tree = ClassicTree::train(
                &data,
                &labels,
                &[1.0; 32],
                &ClassicTreeConfig::with_depth(4).with_criterion(criterion),
            );
            assert_eq!(tree.accuracy(&data, &labels), 1.0, "{criterion:?}");
        }
    }

    #[test]
    fn weighting_shifts_majority_label() {
        // One feature, examples disagree; weights decide the leaf labels.
        let data = FeatureMatrix::from_fn(2, 1, |e, _| e == 1);
        let labels = BitVec::from_bools([true, false]);
        let tree = ClassicTree::train(
            &data,
            &labels,
            &[10.0, 1.0],
            &ClassicTreeConfig::with_depth(0),
        );
        // Depth 0: single leaf, heavy example wins.
        assert!(tree.predict_row(data.row(0)));
        assert!(tree.predict_row(data.row(1)));
    }

    #[test]
    fn distinct_features_can_exceed_lut_inputs() {
        // The motivating mismatch: a depth-3 classic tree may consult more
        // distinct features than any single level-wise tree of equal depth.
        let data = exhaustive(7);
        let labels = BitVec::from_fn(128, |e| {
            // Different quadrants keyed on f0/f1 depend on different features.
            match e & 0b11 {
                0b00 => (e >> 2) & 1 == 1,
                0b01 => (e >> 3) & 1 == 1,
                0b10 => (e >> 4) & 1 == 1,
                _ => (e >> 5) & 1 == 1,
            }
        });
        let tree = ClassicTree::train(
            &data,
            &labels,
            &[1.0; 128],
            &ClassicTreeConfig::with_depth(3),
        );
        assert!(
            tree.distinct_features().len() > 3,
            "expected more distinct features than depth, got {:?}",
            tree.distinct_features()
        );
    }
}
