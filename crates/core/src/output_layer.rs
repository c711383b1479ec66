//! The sparsely connected, `q`-bit quantised output layer (§2.2.2).

use poetbin_bits::{FeatureMatrix, TruthTable};

/// The sparsely connected output layer after retraining and quantisation.
///
/// Each class reads only its own `P` intermediate bits (class `c` reads
/// bits `c·P .. (c+1)·P`), so each class score is a function of `P` bits —
/// implementable as `q` LUTs, one per score bit. Scores are `q`-bit
/// unsigned integers on a shared scale, so the final argmax is a plain
/// integer comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedSparseOutput {
    classes: usize,
    lut_inputs: usize,
    q_bits: u8,
    /// Integer weights, `[classes][P]`.
    weights: Vec<Vec<i32>>,
    /// Integer biases, `[classes]`.
    biases: Vec<i32>,
    /// Offset mapping the integer score onto the unsigned q-bit range.
    score_offset: i64,
    /// Right-shift mapping the integer score onto the q-bit range.
    score_shift: u32,
}

impl QuantizedSparseOutput {
    /// Trains the sparse layer on RINC-predicted intermediate bits with
    /// per-class squared hinge loss, then quantises weights and the score
    /// range to `q_bits`.
    ///
    /// `inter_bits` must be `n × (classes·P)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches, `q_bits` outside `1..=16`, or empty
    /// training data.
    pub fn train(
        inter_bits: &FeatureMatrix,
        labels: &[usize],
        classes: usize,
        q_bits: u8,
        epochs: usize,
    ) -> Self {
        let n = inter_bits.num_examples();
        assert!(n > 0, "empty training data");
        assert_eq!(labels.len(), n, "label / example count mismatch");
        assert!((1..=16).contains(&q_bits), "q_bits must be in 1..=16");
        assert_eq!(
            inter_bits.num_features() % classes,
            0,
            "intermediate width must divide into classes"
        );
        let p = inter_bits.num_features() / classes;

        // Full-precision training of the sparse layer: score_c = w_c·b_c +
        // bias_c on the class's own P bits; squared hinge against ±1.
        let mut w = vec![vec![0.0f32; p]; classes];
        let mut bias = vec![0.0f32; classes];
        let lr = 0.05f32;
        for _ in 0..epochs {
            for (e, &label) in labels.iter().enumerate() {
                for c in 0..classes {
                    let mut score = bias[c];
                    for (j, &wj) in w[c].iter().enumerate() {
                        if inter_bits.bit(e, c * p + j) {
                            score += wj;
                        }
                    }
                    let y = if label == c { 1.0f32 } else { -1.0 };
                    let margin = 1.0 - y * score;
                    if margin > 0.0 {
                        let g = -2.0 * y * margin;
                        for (j, wj) in w[c].iter_mut().enumerate() {
                            if inter_bits.bit(e, c * p + j) {
                                *wj -= lr * g;
                            }
                        }
                        bias[c] -= lr * g;
                    }
                }
            }
        }

        // Quantise weights to signed q-bit integers on a shared scale.
        let max_abs = w
            .iter()
            .flatten()
            .chain(bias.iter())
            .fold(0.0f32, |m, v| m.max(v.abs()))
            .max(1e-6);
        let levels = (1i32 << (q_bits - 1)) - 1;
        let scale = levels as f32 / max_abs;
        let weights: Vec<Vec<i32>> = w
            .iter()
            .map(|row| row.iter().map(|v| (v * scale).round() as i32).collect())
            .collect();
        let biases: Vec<i32> = bias.iter().map(|v| (v * scale).round() as i32).collect();

        // Shared affine map from raw integer scores onto the unsigned
        // q-bit range (preserves argmax: same offset and shift for every
        // class).
        let mut min_score = i64::MAX;
        let mut max_score = i64::MIN;
        for c in 0..classes {
            let neg: i64 = weights[c]
                .iter()
                .filter(|&&v| v < 0)
                .map(|&v| v as i64)
                .sum();
            let pos: i64 = weights[c]
                .iter()
                .filter(|&&v| v > 0)
                .map(|&v| v as i64)
                .sum();
            min_score = min_score.min(neg + biases[c] as i64);
            max_score = max_score.max(pos + biases[c] as i64);
        }
        let range = (max_score - min_score).max(1) as u64;
        let mut shift = 0u32;
        while (range >> shift) >= (1u64 << q_bits) {
            shift += 1;
        }

        QuantizedSparseOutput {
            classes,
            lut_inputs: p,
            q_bits,
            weights,
            biases,
            score_offset: min_score,
            score_shift: shift,
        }
    }

    /// Assembles a layer from already-quantised parts (model loading,
    /// tests, hand-built architectures).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between `weights`, `biases` and
    /// `classes`, or `q_bits` outside `1..=16`.
    pub fn from_parts(
        lut_inputs: usize,
        q_bits: u8,
        weights: Vec<Vec<i32>>,
        biases: Vec<i32>,
        score_offset: i64,
        score_shift: u32,
    ) -> Self {
        let classes = weights.len();
        assert!(classes > 0, "output layer needs at least one class");
        assert_eq!(biases.len(), classes, "bias / weight class count mismatch");
        assert!((1..=16).contains(&q_bits), "q_bits must be in 1..=16");
        for (c, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), lut_inputs, "class {c} weight width mismatch");
        }
        QuantizedSparseOutput {
            classes,
            lut_inputs,
            q_bits,
            weights,
            biases,
            score_offset,
            score_shift,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Bits per class's LUT group (`P`).
    pub fn lut_inputs(&self) -> usize {
        self.lut_inputs
    }

    /// Output quantisation width `q`.
    pub fn q_bits(&self) -> u8 {
        self.q_bits
    }

    /// The quantised integer weights, `[classes][P]`.
    pub fn weights(&self) -> &[Vec<i32>] {
        &self.weights
    }

    /// The quantised integer biases, one per class.
    pub fn biases(&self) -> &[i32] {
        &self.biases
    }

    /// Offset mapping raw integer scores onto the unsigned q-bit range.
    pub fn score_offset(&self) -> i64 {
        self.score_offset
    }

    /// Right-shift mapping raw integer scores onto the q-bit range.
    pub fn score_shift(&self) -> u32 {
        self.score_shift
    }

    /// The unsigned q-bit score of `class` for a packed combination of its
    /// own `P` intermediate bits.
    pub fn score(&self, class: usize, combo: usize) -> u64 {
        let mut raw = self.biases[class] as i64;
        for (j, &w) in self.weights[class].iter().enumerate() {
            if (combo >> j) & 1 == 1 {
                raw += w as i64;
            }
        }
        let shifted = (raw - self.score_offset).max(0) as u64 >> self.score_shift;
        shifted.min((1u64 << self.q_bits) - 1)
    }

    /// Predicts the class for one example's intermediate bits (packed per
    /// class).
    pub fn predict_from_combos(&self, combos: &[usize]) -> usize {
        assert_eq!(combos.len(), self.classes);
        (0..self.classes)
            .max_by_key(|&c| (self.score(c, combos[c]), std::cmp::Reverse(c)))
            .unwrap_or(0)
    }

    /// Predicts every example of an `n × (classes·P)` intermediate-bit
    /// matrix, reading the packed column words directly.
    ///
    /// Each class's full `2^P`-entry score table is evaluated once up
    /// front, then combos are assembled from 64-example column words —
    /// no per-bit `FeatureMatrix::bit` calls anywhere on the path. Ties
    /// resolve to the smallest class index, matching
    /// [`QuantizedSparseOutput::predict_from_combos`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `inter_bits` is not `classes × P` features wide.
    pub fn predict_batch(&self, inter_bits: &FeatureMatrix) -> Vec<usize> {
        assert_eq!(
            inter_bits.num_features(),
            self.classes * self.lut_inputs,
            "intermediate width must equal classes × P"
        );
        let n = inter_bits.num_examples();
        let p = self.lut_inputs;
        let mut preds = vec![0usize; n];
        let mut best = vec![0u64; n];
        let mut col_words: Vec<&[u64]> = Vec::with_capacity(p);
        for c in 0..self.classes {
            let score_table: Vec<u64> =
                (0..1usize << p).map(|combo| self.score(c, combo)).collect();
            col_words.clear();
            col_words.extend((0..p).map(|j| inter_bits.feature(c * p + j).as_words()));
            for w in 0..n.div_ceil(64) {
                let lanes = (n - w * 64).min(64);
                for l in 0..lanes {
                    let combo: usize = col_words
                        .iter()
                        .enumerate()
                        .map(|(j, col)| (((col[w] >> l) & 1) as usize) << j)
                        .sum();
                    let e = w * 64 + l;
                    let s = score_table[combo];
                    if c == 0 || s > best[e] {
                        best[e] = s;
                        preds[e] = c;
                    }
                }
            }
        }
        preds
    }

    /// Exports the layer as `q` truth tables per class: table `b` of class
    /// `c` computes bit `b` of the class's score from its `P` intermediate
    /// bits — `q × nc` LUTs, as §2.2.2 counts.
    pub fn to_luts(&self) -> Vec<Vec<TruthTable>> {
        (0..self.classes)
            .map(|c| {
                (0..self.q_bits)
                    .map(|b| {
                        TruthTable::from_fn(self.lut_inputs, |combo| {
                            (self.score(c, combo) >> b) & 1 == 1
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// Total LUTs of the output layer (`q × nc`).
    pub fn lut_count(&self) -> usize {
        self.classes * self.q_bits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poetbin_bits::BitVec;

    /// Intermediate bits where class c's block is all-ones exactly for
    /// examples of class c.
    fn one_hot_blocks(n: usize, classes: usize, p: usize) -> (FeatureMatrix, Vec<usize>) {
        let labels: Vec<usize> = (0..n).map(|e| e % classes).collect();
        let m = FeatureMatrix::from_fn(n, classes * p, |e, j| j / p == labels[e]);
        (m, labels)
    }

    #[test]
    fn learns_one_hot_blocks_perfectly() {
        let (m, labels) = one_hot_blocks(120, 4, 3);
        let layer = QuantizedSparseOutput::train(&m, &labels, 4, 8, 20);
        let mut correct = 0;
        for (e, &label) in labels.iter().enumerate() {
            let combos: Vec<usize> = (0..4)
                .map(|c| {
                    let mut combo = 0usize;
                    for j in 0..3 {
                        if m.bit(e, c * 3 + j) {
                            combo |= 1 << j;
                        }
                    }
                    combo
                })
                .collect();
            if layer.predict_from_combos(&combos) == label {
                correct += 1;
            }
        }
        assert_eq!(correct, 120);
    }

    #[test]
    fn scores_fit_q_bits() {
        let (m, labels) = one_hot_blocks(60, 3, 4);
        for q in [4u8, 8, 16] {
            let layer = QuantizedSparseOutput::train(&m, &labels, 3, q, 10);
            for c in 0..3 {
                for combo in 0..16 {
                    assert!(layer.score(c, combo) < (1u64 << q), "q={q}");
                }
            }
        }
    }

    #[test]
    fn luts_reproduce_scores_bit_exactly() {
        let (m, labels) = one_hot_blocks(60, 3, 4);
        let layer = QuantizedSparseOutput::train(&m, &labels, 3, 8, 10);
        let luts = layer.to_luts();
        assert_eq!(luts.len(), 3);
        assert_eq!(luts[0].len(), 8);
        for (c, class_luts) in luts.iter().enumerate() {
            for combo in 0..16usize {
                let mut from_luts = 0u64;
                for (b, table) in class_luts.iter().enumerate() {
                    if table.eval(combo) {
                        from_luts |= 1 << b;
                    }
                }
                assert_eq!(from_luts, layer.score(c, combo), "class {c} combo {combo}");
            }
        }
    }

    #[test]
    fn lut_count_is_q_times_classes() {
        let (m, labels) = one_hot_blocks(30, 5, 2);
        let layer = QuantizedSparseOutput::train(&m, &labels, 5, 8, 5);
        assert_eq!(layer.lut_count(), 40);
    }

    #[test]
    fn lower_q_is_coarser_but_bounded() {
        // With q=1 each class score collapses to one bit; accuracy can
        // drop but scores stay in range — the q ablation of §3.
        let (m, labels) = one_hot_blocks(60, 4, 3);
        let layer = QuantizedSparseOutput::train(&m, &labels, 4, 1, 10);
        for c in 0..4 {
            for combo in 0..8 {
                assert!(layer.score(c, combo) <= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "q_bits")]
    fn zero_q_panics() {
        let (m, labels) = one_hot_blocks(10, 2, 2);
        QuantizedSparseOutput::train(&m, &labels, 2, 0, 1);
    }

    #[test]
    fn handles_noisy_blocks() {
        // Flip ~10% of bits; the layer should still classify most
        // examples.
        let (clean, labels) = one_hot_blocks(200, 4, 4);
        let noisy = FeatureMatrix::from_fn(200, 16, |e, j| {
            let flip = (e * 31 + j * 17) % 10 == 0;
            clean.bit(e, j) ^ flip
        });
        let layer = QuantizedSparseOutput::train(&noisy, &labels, 4, 8, 30);
        let mut correct = 0;
        for (e, &label) in labels.iter().enumerate() {
            let combos: Vec<usize> = (0..4)
                .map(|c| {
                    let mut combo = 0usize;
                    for j in 0..4 {
                        if noisy.bit(e, c * 4 + j) {
                            combo |= 1 << j;
                        }
                    }
                    combo
                })
                .collect();
            if layer.predict_from_combos(&combos) == label {
                correct += 1;
            }
        }
        assert!(correct > 160, "only {correct}/200 with noise");
    }

    #[test]
    fn bitvec_unused_import_guard() {
        // Keep BitVec in scope for future tests without warnings.
        let _ = BitVec::zeros(1);
    }
}
