//! Discrete AdaBoost over arbitrary binary weak learners.

use rand::prelude::*;
use rand::rngs::StdRng;

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_dt::BitClassifier;

use crate::mat::MatModule;

/// Smallest weighted error AdaBoost will attribute to a weak learner; keeps
/// `alpha = 0.5·ln((1-err)/err)` finite when a learner is perfect.
const ERR_FLOOR: f64 = 1e-10;

/// How AdaBoost communicates example importance to the weak learner.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum WeightUpdate {
    /// Pass the exact weight vector to the learner (classic AdaBoost).
    #[default]
    Exact,
    /// Boosting by resampling: draw a same-sized bootstrap sample
    /// proportional to the weights and hand the learner the *draw counts*
    /// as integer example weights over the original data — equivalent to
    /// training on the materialised bootstrap with uniform weights, but
    /// with no row cloning or matrix re-transposition, and exactly the
    /// whole-number weight shape the level-wise tree's bit-plane popcount
    /// path consumes. Weighted error and the weight update still use the
    /// exact distribution. This is a standard AdaBoost variant.
    Resample {
        /// Seed for the bootstrap draws (deterministic training).
        seed: u64,
    },
}

/// Configuration for one AdaBoost run.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaBoost {
    /// Number of boosting rounds = number of weak classifiers grouped under
    /// one MAT unit (`≤ P` so the MAT fits one LUT).
    pub rounds: usize,
    /// Weight communication strategy.
    pub update: WeightUpdate,
}

impl AdaBoost {
    /// A `rounds`-round exact-weight booster.
    pub fn new(rounds: usize) -> Self {
        AdaBoost {
            rounds,
            update: WeightUpdate::Exact,
        }
    }

    /// Switches to boosting-by-resampling (builder style).
    pub fn with_resampling(mut self, seed: u64) -> Self {
        self.update = WeightUpdate::Resample { seed };
        self
    }

    /// Runs AdaBoost.
    ///
    /// `learner(data, labels, weights, round)` must return a trained weak
    /// classifier. The returned ensemble's MAT weights are the AdaBoost
    /// `alpha` values; `report` carries per-round diagnostics. Training may
    /// stop early if a weak learner is perfect on the weighted sample.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`, lengths disagree, or all weights are zero.
    pub fn train<C, F>(
        &self,
        data: &FeatureMatrix,
        labels: &BitVec,
        init_weights: &[f64],
        mut learner: F,
    ) -> (BoostedEnsemble<C>, AdaBoostReport)
    where
        C: BitClassifier,
        F: FnMut(&FeatureMatrix, &BitVec, &[f64], usize) -> C,
    {
        assert!(self.rounds > 0, "AdaBoost needs at least one round");
        let n = data.num_examples();
        assert_eq!(labels.len(), n, "label / data length mismatch");
        assert_eq!(init_weights.len(), n, "weight / data length mismatch");
        let total: f64 = init_weights.iter().sum();
        assert!(total > 0.0, "all example weights are zero");

        let mut weights: Vec<f64> = init_weights.iter().map(|w| w / total).collect();
        let mut rng = match self.update {
            WeightUpdate::Resample { seed } => Some(StdRng::seed_from_u64(seed)),
            WeightUpdate::Exact => None,
        };

        let mut members: Vec<C> = Vec::with_capacity(self.rounds);
        let mut member_preds: Vec<BitVec> = Vec::with_capacity(self.rounds);
        let mut alphas = Vec::with_capacity(self.rounds);
        let mut errors = Vec::with_capacity(self.rounds);

        for round in 0..self.rounds {
            let classifier = match (&self.update, rng.as_mut()) {
                (WeightUpdate::Exact, _) => learner(data, labels, &weights, round),
                (WeightUpdate::Resample { .. }, Some(rng)) => {
                    // Integer fast path: the bootstrap is communicated as
                    // per-example draw counts on the original data, not as
                    // a materialised resampled matrix. Weight-proportional
                    // learners see the identical distribution, and the
                    // whole-number weights route the level-wise tree down
                    // its bit-plane popcount engine.
                    let mut counts = vec![0.0f64; n];
                    for i in sample_by_weight(&weights, n, rng) {
                        counts[i] += 1.0;
                    }
                    learner(data, labels, &counts, round)
                }
                (WeightUpdate::Resample { .. }, None) => unreachable!(),
            };

            let preds = classifier.predict_batch(data);
            let mut err = 0.0;
            for e in preds.xor(labels).iter_ones() {
                err += weights[e];
            }
            let clamped = err.clamp(ERR_FLOOR, 1.0 - ERR_FLOOR);
            let alpha = 0.5 * ((1.0 - clamped) / clamped).ln();

            // Reweight: w *= exp(-alpha * y * h) with y, h in ±1, then
            // renormalise.
            let mut sum = 0.0;
            for (e, w) in weights.iter_mut().enumerate() {
                let agree = preds.get(e) == labels.get(e);
                *w *= if agree { (-alpha).exp() } else { alpha.exp() };
                sum += *w;
            }
            if sum > 0.0 {
                for w in &mut weights {
                    *w /= sum;
                }
            }

            members.push(classifier);
            member_preds.push(preds);
            alphas.push(alpha);
            errors.push(err);

            if err <= ERR_FLOOR {
                break; // perfect weak learner: further rounds are no-ops
            }
        }

        let mat = MatModule::new(alphas.clone());
        let ensemble = BoostedEnsemble { members, mat };
        let train_error = {
            let combo_preds = ensemble.predict_from_member_outputs(&member_preds, n);
            combo_preds.hamming_distance(labels) as f64 / n.max(1) as f64
        };
        (
            ensemble,
            AdaBoostReport {
                round_errors: errors,
                alphas,
                final_weights: weights,
                train_error,
            },
        )
    }
}

/// Draws `count` indices with replacement, proportional to `weights`.
///
/// Zero-weight examples are never drawn: the inverse-CDF inversion takes
/// the *first* index whose cumulative weight strictly exceeds the uniform
/// draw, so runs of duplicate CDF values (zero-weight runs) and a `u = 0`
/// draw both resolve to a positive-weight index. (The previous
/// `binary_search_by` landed arbitrarily inside duplicate runs.)
fn sample_by_weight(weights: &[f64], count: usize, rng: &mut StdRng) -> Vec<usize> {
    // Inverse-CDF sampling over the cumulative weights.
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in weights {
        acc += w;
        cdf.push(acc);
    }
    let total = acc.max(f64::MIN_POSITIVE);
    // Cap at the last positive-weight index: rounding in `u = r · total`
    // can reach `total` exactly, which would otherwise fall past the end
    // and select a zero-weight suffix.
    let last_positive = weights
        .iter()
        .rposition(|&w| w > 0.0)
        .unwrap_or(weights.len().saturating_sub(1));
    (0..count)
        .map(|_| {
            let u: f64 = rng.random::<f64>() * total;
            cdf.partition_point(|&c| c <= u).min(last_positive)
        })
        .collect()
}

/// Per-round diagnostics from an AdaBoost run.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaBoostReport {
    /// Weighted error of each weak learner on the distribution it faced.
    pub round_errors: Vec<f64>,
    /// The `alpha` (vote weight) of each weak learner.
    pub alphas: Vec<f64>,
    /// Example weights after the final round.
    pub final_weights: Vec<f64>,
    /// Unweighted 0/1 training error of the full ensemble.
    pub train_error: f64,
}

/// An AdaBoost ensemble: weak classifiers plus their MAT vote unit.
#[derive(Clone, Debug, PartialEq)]
pub struct BoostedEnsemble<C> {
    /// The weak classifiers, in training order.
    pub members: Vec<C>,
    /// The folded Multiply-Add-Threshold vote.
    pub mat: MatModule,
}

impl<C: BitClassifier> BoostedEnsemble<C> {
    /// Packs the member outputs for one row into a MAT address.
    fn member_combo(&self, row: &BitVec) -> usize {
        let mut combo = 0usize;
        for (x, m) in self.members.iter().enumerate() {
            if m.predict_row(row) {
                combo |= 1 << x;
            }
        }
        combo
    }

    fn predict_from_member_outputs(&self, member_preds: &[BitVec], n: usize) -> BitVec {
        BitVec::from_fn(n, |e| {
            let mut combo = 0usize;
            for (x, preds) in member_preds.iter().enumerate() {
                if preds.get(e) {
                    combo |= 1 << x;
                }
            }
            self.mat.eval(combo)
        })
    }
}

impl<C: BitClassifier> BitClassifier for BoostedEnsemble<C> {
    fn predict_row(&self, row: &BitVec) -> bool {
        self.mat.eval(self.member_combo(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poetbin_dt::{LevelTreeConfig, LevelWiseTree};

    /// A dataset where no single 1-input tree is sufficient but a boosted
    /// vote of them is: y = majority(f0, f1, f2).
    fn majority_task() -> (FeatureMatrix, BitVec) {
        let data = FeatureMatrix::from_fn(8, 3, |e, j| (e >> j) & 1 == 1);
        let labels = BitVec::from_fn(8, |e| (e as u32).count_ones() >= 2);
        (data, labels)
    }

    fn stump_learner(
        data: &FeatureMatrix,
        labels: &BitVec,
        weights: &[f64],
        _round: usize,
    ) -> LevelWiseTree {
        LevelWiseTree::train(data, labels, weights, &LevelTreeConfig::new(1))
    }

    #[test]
    fn boosting_stumps_learns_majority() {
        let (data, labels) = majority_task();
        let booster = AdaBoost::new(5);
        let (ensemble, report) = booster.train(&data, &labels, &[1.0; 8], stump_learner);
        assert_eq!(report.train_error, 0.0, "errors: {:?}", report.round_errors);
        assert_eq!(ensemble.accuracy(&data, &labels), 1.0);
        assert!(ensemble.members.len() <= 5);
    }

    #[test]
    fn single_round_equals_weak_learner() {
        let (data, labels) = majority_task();
        let booster = AdaBoost::new(1);
        let (ensemble, _) = booster.train(&data, &labels, &[1.0; 8], stump_learner);
        let lone = stump_learner(&data, &labels, &[1.0 / 8.0; 8], 0);
        for e in 0..8 {
            assert_eq!(
                ensemble.predict_row(data.row(e)),
                lone.predict_row(data.row(e))
            );
        }
    }

    #[test]
    fn perfect_learner_stops_early() {
        let data = FeatureMatrix::from_fn(16, 4, |e, j| (e >> j) & 1 == 1);
        let labels = BitVec::from_fn(16, |e| e & 1 == 1); // f0 is perfect
        let booster = AdaBoost::new(6);
        let (ensemble, report) = booster.train(&data, &labels, &[1.0; 16], stump_learner);
        assert_eq!(
            ensemble.members.len(),
            1,
            "should stop after the perfect round"
        );
        assert!(report.round_errors[0] <= ERR_FLOOR);
        assert_eq!(ensemble.accuracy(&data, &labels), 1.0);
    }

    #[test]
    fn round_weights_focus_on_mistakes() {
        let (data, labels) = majority_task();
        let booster = AdaBoost::new(2);
        let (_, report) = booster.train(&data, &labels, &[1.0; 8], stump_learner);
        // After round 1 (a stump), misclassified examples must carry more
        // weight than correctly classified ones.
        let stump = stump_learner(&data, &labels, &[1.0 / 8.0; 8], 0);
        let preds = stump.predict_batch(&data);
        let wrong: Vec<usize> = preds.xor(&labels).iter_ones().collect();
        assert!(!wrong.is_empty());
        // All rounds were 2: weights in the report are post-round-2, so
        // instead check alphas are positive (every stump beats chance).
        for a in &report.alphas {
            assert!(*a > 0.0);
        }
    }

    #[test]
    fn resampling_mode_is_deterministic_and_learns() {
        let (data, labels) = majority_task();
        // Replicate examples so a bootstrap keeps the signal.
        let big = data.vstack(&data).vstack(&data.vstack(&data));
        let big_labels = BitVec::from_fn(32, |e| labels.get(e % 8));
        let booster = AdaBoost::new(5).with_resampling(7);
        let w = vec![1.0; 32];
        let (e1, r1) = booster.train(&big, &big_labels, &w, stump_learner);
        let (e2, r2) = booster.train(&big, &big_labels, &w, stump_learner);
        assert_eq!(r1.alphas, r2.alphas, "same seed must reproduce");
        assert_eq!(e1.predict_batch(&big), e2.predict_batch(&big));
        assert!(r1.train_error <= 0.25, "train error {}", r1.train_error);
    }

    #[test]
    fn mat_weights_equal_alphas() {
        let (data, labels) = majority_task();
        let booster = AdaBoost::new(3);
        let (ensemble, report) = booster.train(&data, &labels, &[1.0; 8], stump_learner);
        assert_eq!(ensemble.mat.weights(), &report.alphas[..]);
    }

    #[test]
    fn sample_by_weight_prefers_heavy_examples() {
        let mut rng = StdRng::seed_from_u64(3);
        let weights = [0.01, 0.01, 0.96, 0.01, 0.01];
        let draws = sample_by_weight(&weights, 1000, &mut rng);
        let heavy = draws.iter().filter(|&&i| i == 2).count();
        assert!(heavy > 800, "heavy example drawn only {heavy}/1000 times");
    }

    #[test]
    fn sample_by_weight_never_draws_zero_weight_examples() {
        // Regression: a zero-weight prefix (indices 0–1), an interior
        // zero run (3–4) and a zero suffix (7) — the old binary search
        // could land on any of them when the uniform draw hit a duplicated
        // CDF value or zero exactly; the partition-point inversion never
        // does.
        let weights = [0.0, 0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0];
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in sample_by_weight(&weights, 2000, &mut rng) {
                assert!(weights[i] > 0.0, "seed {seed} drew zero-weight example {i}");
            }
        }
    }

    #[test]
    fn sample_by_weight_covers_all_positive_examples() {
        // The fix must not starve legitimate examples either: every
        // positive-weight index (including the last one) stays reachable.
        let weights = [0.2, 0.0, 0.4, 0.0, 0.4];
        let mut rng = StdRng::seed_from_u64(11);
        let draws = sample_by_weight(&weights, 4000, &mut rng);
        for expect in [0usize, 2, 4] {
            assert!(draws.contains(&expect), "index {expect} never drawn");
        }
    }

    #[test]
    fn resample_hands_learner_integer_draw_counts() {
        // The resample branch no longer materialises a bootstrap matrix:
        // the learner must see the ORIGINAL data and labels plus
        // whole-number draw-count weights summing to n.
        let (data, labels) = majority_task();
        let booster = AdaBoost::new(3).with_resampling(9);
        let mut seen: Vec<Vec<f64>> = Vec::new();
        let _ = booster.train(&data, &labels, &[1.0; 8], |d, l, w, round| {
            assert!(std::ptr::eq(d, &data), "learner must get the original data");
            assert_eq!(l, &labels, "learner must get the original labels");
            seen.push(w.to_vec());
            stump_learner(d, l, w, round)
        });
        assert!(!seen.is_empty());
        for w in &seen {
            assert_eq!(w.iter().sum::<f64>(), 8.0, "draw counts must sum to n");
            assert!(w.iter().all(|x| *x >= 0.0 && x.fract() == 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        let (data, labels) = majority_task();
        AdaBoost::new(0).train(&data, &labels, &[1.0; 8], stump_learner);
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn zero_weights_panic() {
        let (data, labels) = majority_task();
        AdaBoost::new(1).train(&data, &labels, &[0.0; 8], stump_learner);
    }
}
