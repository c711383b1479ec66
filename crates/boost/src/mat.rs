//! The Multiply-Add-Threshold (MAT) unit and its LUT folding.

use poetbin_bits::TruthTable;

/// A Multiply-Add-Threshold unit over `k` one-bit classifier outputs.
///
/// Arithmetically the unit computes the AdaBoost vote
/// `sum_x W_x * s_x >= 0`, where `s_x = ±1` is classifier `x`'s output.
/// Because the unit has `k` one-bit inputs and one one-bit output, the whole
/// computation is pre-evaluated into a `2^k`-entry [`TruthTable`] — the LUT
/// implementation of Figure 2. [`MatModule::vote`] (arithmetic) and
/// [`MatModule::eval`] (table) are interchangeable; tests and a proptest
/// enforce it.
///
/// # Example
///
/// ```
/// use poetbin_boost::MatModule;
///
/// // Two strong voters and one weak dissenter.
/// let mat = MatModule::new(vec![1.0, 1.0, 0.3]);
/// assert!(mat.eval(0b011));   // the two strong voters win
/// assert!(!mat.eval(0b100));  // the dissenter alone loses
/// assert_eq!(mat.table().inputs(), 3);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MatModule {
    weights: Vec<f64>,
    threshold: f64,
    table: TruthTable,
}

impl MatModule {
    /// Builds a MAT unit with the given classifier weights and the standard
    /// AdaBoost threshold (sign of the ±1 weighted sum).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, longer than the LUT limit, or contains
    /// non-finite values.
    pub fn new(weights: Vec<f64>) -> Self {
        Self::with_threshold(weights, 0.0)
    }

    /// Builds a MAT unit thresholding the ±1 weighted sum at `threshold`
    /// (`sum >= threshold` → output 1).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains non-finite values, or if
    /// `threshold` is non-finite.
    pub fn with_threshold(weights: Vec<f64>, threshold: f64) -> Self {
        assert!(!weights.is_empty(), "MAT unit needs at least one input");
        assert!(
            weights.iter().all(|w| w.is_finite()),
            "non-finite MAT weight"
        );
        assert!(threshold.is_finite(), "non-finite MAT threshold");
        let k = weights.len();
        let table = TruthTable::from_fn(k, |combo| Self::vote_impl(&weights, threshold, combo));
        MatModule {
            weights,
            threshold,
            table,
        }
    }

    fn vote_impl(weights: &[f64], threshold: f64, combo: usize) -> bool {
        let mut sum = 0.0;
        for (x, w) in weights.iter().enumerate() {
            let s = if (combo >> x) & 1 == 1 { 1.0 } else { -1.0 };
            sum += w * s;
        }
        sum >= threshold
    }

    /// Arithmetic evaluation: the weighted ±1 vote compared against the
    /// threshold. Exists so tests can check the LUT folding; inference
    /// should use [`MatModule::eval`].
    pub fn vote(&self, combo: usize) -> bool {
        Self::vote_impl(&self.weights, self.threshold, combo)
    }

    /// Single-look-up evaluation of the packed classifier outputs
    /// (classifier `x` at bit `x`).
    ///
    /// # Panics
    ///
    /// Panics if `combo >= 2^k`.
    #[inline]
    pub fn eval(&self, combo: usize) -> bool {
        self.table.eval(combo)
    }

    /// The classifier weights (AdaBoost `W_x`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The vote threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of one-bit inputs `k`.
    pub fn inputs(&self) -> usize {
        self.weights.len()
    }

    /// The folded LUT contents.
    pub fn table(&self) -> &TruthTable {
        &self.table
    }

    /// Indices of inputs that can never change the vote — classifiers whose
    /// AdaBoost weight is too small to flip the threshold for any
    /// combination of the others.
    ///
    /// §4.3 of the paper observes the Xilinx synthesizer strips exactly
    /// these (≈36% of CIFAR-10 LUTs); the FPGA pruning pass consumes this.
    pub fn irrelevant_inputs(&self) -> Vec<usize> {
        (0..self.inputs())
            .filter(|&x| !self.table.depends_on(x))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_table_matches_vote_for_all_combos() {
        let mat = MatModule::new(vec![0.9, -0.2, 0.5, 0.1]);
        for combo in 0..16 {
            assert_eq!(mat.eval(combo), mat.vote(combo), "combo {combo:04b}");
        }
    }

    #[test]
    fn unanimous_vote_wins() {
        let mat = MatModule::new(vec![0.5, 0.7, 0.3]);
        assert!(mat.eval(0b111));
        assert!(!mat.eval(0b000));
    }

    #[test]
    fn threshold_shifts_the_decision() {
        let lenient = MatModule::with_threshold(vec![1.0, 1.0], -1.5);
        let strict = MatModule::with_threshold(vec![1.0, 1.0], 1.5);
        assert!(lenient.eval(0b01)); // sum = 0 >= -1.5
        assert!(!strict.eval(0b01)); // sum = 0 < 1.5
        assert!(strict.eval(0b11)); // sum = 2 >= 1.5
    }

    #[test]
    fn dominated_weights_are_irrelevant() {
        // With weights 1.0, 0.8, 0.05 the first voter outweighs the other
        // two combined (1.0 > 0.85), so the vote is s0 alone: both other
        // inputs can never flip the output. This is precisely the redundancy
        // the Xilinx synthesizer exploits in §4.3.
        let mat = MatModule::new(vec![1.0, 0.8, 0.05]);
        assert_eq!(mat.irrelevant_inputs(), vec![1, 2]);

        // Raising the third weight to 0.3 makes every input decisive:
        // 1.0 < 0.8 + 0.3 and the ±0.2 ties are broken by input 2.
        let mat = MatModule::new(vec![1.0, 0.8, 0.3]);
        assert!(mat.irrelevant_inputs().is_empty());
    }

    #[test]
    fn all_inputs_relevant_in_balanced_majority() {
        let mat = MatModule::new(vec![1.0, 1.0, 1.0]);
        assert!(mat.irrelevant_inputs().is_empty());
    }

    #[test]
    fn negative_weight_inverts_influence() {
        let mat = MatModule::new(vec![-1.0]);
        assert!(!mat.eval(0b1));
        assert!(mat.eval(0b0));
    }

    #[test]
    fn tie_goes_to_one() {
        // sum == threshold → output 1, matching the >= comparator of Fig. 2.
        let mat = MatModule::new(vec![1.0, 1.0]);
        assert!(mat.eval(0b01) || mat.eval(0b10)); // each sums to exactly 0
        assert!(mat.eval(0b01) && mat.eval(0b10));
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_weights_panic() {
        MatModule::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_weight_panics() {
        MatModule::new(vec![f64::NAN]);
    }
}
