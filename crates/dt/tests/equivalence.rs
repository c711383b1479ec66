//! Randomized equivalence of the popcount training engine against the
//! scalar reference trainer.
//!
//! `LevelWiseTree::train` (word-parallel masked popcounts / bucketed
//! accumulation) must produce the same trees as
//! `LevelWiseTree::train_scalar` (the original per-bit loop) on every
//! weight shape it dispatches on: uniform, whole-number (boosting by
//! resampling draw counts) and arbitrary `f64`. Written as deterministic
//! seeded loops so they run in the offline build environment.

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_dt::{LevelTreeConfig, LevelWiseTree};
use rand::prelude::*;

/// Example counts straddling every word-alignment case the packed masks
/// can hit: `n % 64 ∈ {0, 1, 63}` plus small odd shapes.
const TAIL_SHAPES: [usize; 6] = [64, 65, 63, 128, 127, 37];

fn random_matrix(rng: &mut StdRng, n: usize, f: usize) -> FeatureMatrix {
    // Mix a few informative columns with noise so the entropy scan has
    // real structure (and real near-ties) to rank.
    let hidden: Vec<bool> = (0..n).map(|_| rng.random::<bool>()).collect();
    FeatureMatrix::from_fn(n, f, |e, j| {
        if j % 5 == 0 {
            hidden[e] ^ (rng_hash(e, j) & 7 == 0)
        } else {
            rng_hash(e, j) & 1 == 1
        }
    })
}

/// Cheap deterministic per-cell hash (the matrices must not depend on RNG
/// call order inside `from_fn`).
fn rng_hash(e: usize, j: usize) -> usize {
    e.wrapping_mul(0x9E37_79B9)
        .wrapping_add(j.wrapping_mul(0x85EB_CA6B))
        .rotate_left(13)
        .wrapping_mul(0xC2B2_AE35)
        >> 7
}

fn random_labels(rng: &mut StdRng, data: &FeatureMatrix) -> BitVec {
    // Labels correlated with a couple of features plus noise.
    BitVec::from_fn(data.num_examples(), |e| {
        let base = data.bit(e, 0) ^ data.bit(e, data.num_features() / 2);
        base ^ (rng.random::<f64>() < 0.15)
    })
}

fn assert_equivalent(
    data: &FeatureMatrix,
    labels: &BitVec,
    weights: &[f64],
    config: &LevelTreeConfig,
    what: &str,
) {
    let (fast, fast_report) = LevelWiseTree::train_with_report(data, labels, weights, config);
    let (slow, slow_report) =
        LevelWiseTree::train_scalar_with_report(data, labels, weights, config);
    assert_eq!(
        fast.features(),
        slow.features(),
        "{what}: chosen features diverge"
    );
    assert_eq!(fast.table(), slow.table(), "{what}: truth tables diverge");
    assert_eq!(
        fast_report.empty_leaves, slow_report.empty_leaves,
        "{what}: empty-leaf counts diverge"
    );
    assert_eq!(
        fast_report.level_entropies.len(),
        slow_report.level_entropies.len()
    );
    for (level, (a, b)) in fast_report
        .level_entropies
        .iter()
        .zip(&slow_report.level_entropies)
        .enumerate()
    {
        assert!(
            (a - b).abs() <= 1e-12,
            "{what}: level {level} entropy diverges: {a} vs {b}"
        );
    }
    assert!(
        (fast_report.train_error - slow_report.train_error).abs() <= 1e-12,
        "{what}: train error diverges"
    );
}

#[test]
fn uniform_weights_match_scalar_trainer() {
    let mut rng = StdRng::seed_from_u64(0x50E7);
    for &n in &TAIL_SHAPES {
        for p in [1usize, 3, 5] {
            let f = 24;
            let data = random_matrix(&mut rng, n, f);
            let labels = random_labels(&mut rng, &data);
            // Unit weights and a non-unit uniform weight (AdaBoost's 1/n).
            // Scaled-uniform entropies are computed with different rounding
            // in the two trainers (count·w vs a folded sum of w's), so
            // feature identity here relies on these deterministic datasets
            // having no candidates tied within that noise — which random
            // structure guarantees at these sizes.
            for w in [1.0, 1.0 / n as f64] {
                let weights = vec![w; n];
                let cfg = LevelTreeConfig::new(p);
                assert_equivalent(
                    &data,
                    &labels,
                    &weights,
                    &cfg,
                    &format!("uniform w={w}, n={n}, p={p}"),
                );
            }
        }
    }
}

#[test]
fn integer_weights_match_scalar_trainer() {
    let mut rng = StdRng::seed_from_u64(0x1D7E);
    for &n in &TAIL_SHAPES {
        let data = random_matrix(&mut rng, n, 20);
        let labels = random_labels(&mut rng, &data);
        // Resample-style draw counts: multinomial-ish with zeros, summing
        // anywhere near n, including weights needing several bit-planes.
        let mut weights = vec![0.0f64; n];
        for _ in 0..n {
            weights[rng.random_range(0..n)] += 1.0;
        }
        weights[rng.random_range(0..n)] += 11.0; // force multi-plane counts
        let cfg = LevelTreeConfig::new(4);
        assert_equivalent(&data, &labels, &weights, &cfg, &format!("integer n={n}"));
    }
}

#[test]
fn arbitrary_f64_weights_match_scalar_trainer_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xF64);
    for &n in &TAIL_SHAPES {
        let data = random_matrix(&mut rng, n, 20);
        let labels = random_labels(&mut rng, &data);
        // AdaBoost-shaped weights: positive, wildly uneven, plus a
        // zero-weight run to exercise weight-empty nodes.
        let mut weights: Vec<f64> = (0..n).map(|_| rng.random::<f64>().exp2() * 0.1).collect();
        for w in weights.iter_mut().take(n / 8) {
            *w = 0.0;
        }
        let (fast, fast_report) =
            LevelWiseTree::train_with_report(&data, &labels, &weights, &LevelTreeConfig::new(4));
        let (slow, slow_report) = LevelWiseTree::train_scalar_with_report(
            &data,
            &labels,
            &weights,
            &LevelTreeConfig::new(4),
        );
        // The bucketed f64 path re-orders nothing: it must agree with the
        // scalar trainer exactly, entropies included.
        assert_eq!(fast, slow, "f64 path must be bit-identical, n={n}");
        assert_eq!(fast_report.level_entropies, slow_report.level_entropies);
        assert_eq!(fast_report.empty_leaves, slow_report.empty_leaves);
        assert_eq!(fast_report.train_error, slow_report.train_error);
    }
}

#[test]
fn candidate_restriction_and_policies_match_scalar_trainer() {
    let mut rng = StdRng::seed_from_u64(0xCA2D);
    let n = 127;
    let data = random_matrix(&mut rng, n, 30);
    let labels = random_labels(&mut rng, &data);
    let weights: Vec<f64> = (0..n).map(|e| f64::from((e % 3) as u32)).collect();
    let pool: Vec<usize> = (0..30).filter(|j| j % 2 == 1).collect();
    for policy in [
        poetbin_dt::EmptyLeafPolicy::PaperOne,
        poetbin_dt::EmptyLeafPolicy::GlobalMajority,
    ] {
        let cfg = LevelTreeConfig::new(6)
            .with_candidates(pool.clone())
            .with_empty_leaf(policy);
        assert_equivalent(&data, &labels, &weights, &cfg, &format!("{policy:?}"));
    }
}

#[test]
fn thread_sharding_matches_single_thread() {
    let mut rng = StdRng::seed_from_u64(0x74AD);
    let n = 1000;
    let data = random_matrix(&mut rng, n, 64);
    let labels = random_labels(&mut rng, &data);
    for weights in [
        vec![1.0; n],
        (0..n).map(|e| ((e * 13) % 7) as f64).collect::<Vec<_>>(),
        (0..n)
            .map(|e| 0.01 + (e % 11) as f64 * 0.37)
            .collect::<Vec<_>>(),
    ] {
        let trees: Vec<LevelWiseTree> = [1usize, 2, 5, 16]
            .iter()
            .map(|&t| {
                LevelWiseTree::train(
                    &data,
                    &labels,
                    &weights,
                    &LevelTreeConfig::new(5).with_threads(t),
                )
            })
            .collect();
        for pair in trees.windows(2) {
            assert_eq!(pair[0], pair[1], "thread count changed the tree");
        }
    }
}

/// Example counts of the deep-level cases: the bank's 600-example
/// training set and twice that (both above the 512-example sharding
/// threshold), plus the word-tail shapes.
const DEEP_SHAPES: [usize; 8] = [600, 1200, 64, 65, 63, 128, 127, 37];

/// A matrix whose columns split the examples into scattered sets, so that
/// every node of a deep level spans the whole example window and the
/// trainer switches to node-bucketed histograms. (`random_matrix` columns
/// split the examples into near-contiguous runs, which keeps the masked
/// popcounts cheap at every level.) Every fourth column is a noisy copy of
/// a hidden bit, as there.
fn scattered_matrix(rng: &mut StdRng, n: usize, f: usize) -> FeatureMatrix {
    let hidden: Vec<bool> = (0..n).map(|_| rng.random::<bool>()).collect();
    let cells: Vec<bool> = (0..n * f)
        .map(|i| {
            let noise = rng.random::<bool>();
            if (i % f).is_multiple_of(4) {
                hidden[i / f] ^ (noise && rng.random::<f64>() < 0.25)
            } else {
                noise
            }
        })
        .collect();
    FeatureMatrix::from_fn(n, f, |e, j| cells[e * f + j])
}

/// Bootstrap draw counts: `n` uniform draws with replacement, so about a
/// third of the examples are never drawn and weigh zero.
fn draw_counts(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut weights = vec![0.0f64; n];
    for _ in 0..n {
        weights[rng.random_range(0..n)] += 1.0;
    }
    weights
}

/// Whole-number weights must give the reference trainer's tree, report and
/// every level entropy exactly, not just within a tolerance.
fn assert_identical(
    data: &FeatureMatrix,
    labels: &BitVec,
    weights: &[f64],
    config: &LevelTreeConfig,
    what: &str,
) {
    let (fast, fast_report) = LevelWiseTree::train_with_report(data, labels, weights, config);
    let (slow, slow_report) =
        LevelWiseTree::train_scalar_with_report(data, labels, weights, config);
    assert_eq!(fast, slow, "{what}: trees diverge");
    assert_eq!(fast_report, slow_report, "{what}: reports diverge");
}

#[test]
fn p8_trees_on_draw_counts_match_scalar_trainer() {
    // P = 8 takes the deep levels past any histogram crossover; 200
    // features span four row words, more than one histogram column block.
    let mut rng = StdRng::seed_from_u64(0xDEE8);
    for &n in &DEEP_SHAPES {
        let data = scattered_matrix(&mut rng, n, 200);
        let labels = random_labels(&mut rng, &data);
        let weights = draw_counts(&mut rng, n);
        assert!(weights.contains(&0.0), "bootstrap left no example undrawn");
        for threads in [1, 2, 3] {
            let cfg = LevelTreeConfig::new(8).with_threads(threads);
            assert_identical(
                &data,
                &labels,
                &weights,
                &cfg,
                &format!("draw counts n={n}, {threads} threads"),
            );
        }
    }
}

#[test]
fn p8_trees_on_restricted_pools_match_scalar_trainer() {
    let mut rng = StdRng::seed_from_u64(0x9001);
    for &n in &[600, 1200, 127] {
        let data = scattered_matrix(&mut rng, n, 200);
        let labels = random_labels(&mut rng, &data);
        let weights = draw_counts(&mut rng, n);
        let sparse: Vec<usize> = (0..200).filter(|j| j % 3 != 1).collect();
        let high: Vec<usize> = (150..200).collect();
        // Out of order: the scan must still score every slot in pool order.
        let shuffled: Vec<usize> = (0..200).rev().step_by(7).chain(0..12).collect();
        for pool in [sparse, high, shuffled] {
            for threads in [1, 2, 3] {
                let cfg = LevelTreeConfig::new(8)
                    .with_threads(threads)
                    .with_candidates(pool.clone());
                assert_identical(
                    &data,
                    &labels,
                    &weights,
                    &cfg,
                    &format!(
                        "pool of {} from {}, n={n}, {threads} threads",
                        pool.len(),
                        pool[0]
                    ),
                );
            }
        }
    }
}

#[test]
fn p8_trees_on_uniform_weights_match_scalar_trainer() {
    // Unit-uniform weights take the same whole-number path with one plane.
    let mut rng = StdRng::seed_from_u64(0x0111);
    for &n in &[600, 1200] {
        let data = scattered_matrix(&mut rng, n, 200);
        let labels = random_labels(&mut rng, &data);
        for threads in [1, 2, 3] {
            let cfg = LevelTreeConfig::new(8).with_threads(threads);
            assert_identical(
                &data,
                &labels,
                &vec![1.0; n],
                &cfg,
                &format!("unit weights n={n}, {threads} threads"),
            );
        }
    }
}

#[test]
fn weights_near_the_integer_bound_match_scalar_trainer() {
    // The whole-number path takes weights up to 2^32. A single count cell
    // then sums many such weights, so it would overflow 32 bits; every
    // cell and total stays exact in a u64 and in the reference's f64 sums.
    const BOUND: f64 = 4_294_967_296.0; // 2^32
    let mut rng = StdRng::seed_from_u64(0xB16);
    for &n in &[600, 127] {
        let data = scattered_matrix(&mut rng, n, 200);
        let labels = random_labels(&mut rng, &data);
        let weights: Vec<f64> = (0..n)
            .map(|e| match e % 5 {
                0 => BOUND,
                1 => BOUND - f64::from(rng.random_range(1..1000u32)),
                2 => 0.0,
                3 => f64::from(rng.random_range(1..4u32)),
                _ => (BOUND / 2.0).floor() + 3.0,
            })
            .collect();
        for threads in [1, 3] {
            let cfg = LevelTreeConfig::new(8).with_threads(threads);
            assert_identical(
                &data,
                &labels,
                &weights,
                &cfg,
                &format!("near-2^32 weights n={n}, {threads} threads"),
            );
        }
    }
}
