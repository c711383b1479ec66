//! Engine-vs-seed-path equivalence: randomized classifiers, netlists and
//! batches must produce bit-identical results through every inference
//! path.
//!
//! Written as seeded deterministic property loops (the workspace's
//! offline stand-in for proptest): each iteration draws a random
//! structure from a seeded RNG, so failures reproduce exactly.

use poetbin_bits::{BitVec, FeatureMatrix, TruthTable};
use poetbin_boost::{MatModule, RincModule, RincNode};
use poetbin_core::{PoetBinClassifier, QuantizedSparseOutput, RincBank};
use poetbin_dt::{BitClassifier, LevelWiseTree};
use poetbin_engine::{ClassifierEngine, Engine};
use poetbin_fpga::{Netlist, NetlistBuilder};
use rand::prelude::*;
use rand::rngs::StdRng;

fn random_table(rng: &mut StdRng, inputs: usize) -> TruthTable {
    TruthTable::from_fn(inputs, |_| rng.random::<bool>())
}

fn random_tree(rng: &mut StdRng, num_features: usize, p: usize) -> RincNode {
    let mut features: Vec<usize> = Vec::with_capacity(p);
    while features.len() < p {
        let f = rng.random_range(0..num_features);
        if !features.contains(&f) {
            features.push(f);
        }
    }
    let table = random_table(rng, p);
    RincNode::Tree(LevelWiseTree::from_parts(features, table))
}

/// A random RINC node of the given hierarchy depth.
fn random_node(rng: &mut StdRng, num_features: usize, p: usize, level: usize) -> RincNode {
    if level == 0 {
        return random_tree(rng, num_features, p);
    }
    let children: Vec<RincNode> = (0..p)
        .map(|_| random_node(rng, num_features, p, level - 1))
        .collect();
    let weights: Vec<f64> = (0..p).map(|_| rng.random_range(0.05..1.0)).collect();
    let mat = MatModule::new(weights);
    RincNode::Module(RincModule::from_parts(children, mat, level))
}

/// A random but structurally valid classifier: `classes × p` RINC modules
/// of mixed depth plus a randomly quantised output layer.
fn random_classifier(rng: &mut StdRng, num_features: usize) -> PoetBinClassifier {
    let classes = rng.random_range(2..5usize);
    let p = rng.random_range(2..4usize);
    let modules: Vec<RincNode> = (0..classes * p)
        .map(|i| random_node(rng, num_features, p, i % 3))
        .collect();
    let q_bits = [1u8, 4, 8][rng.random_range(0..3usize)];
    let weights: Vec<Vec<i32>> = (0..classes)
        .map(|_| (0..p).map(|_| rng.random_range(-40..40)).collect())
        .collect();
    let biases: Vec<i32> = (0..classes).map(|_| rng.random_range(-20..20)).collect();
    let min_score: i64 = weights
        .iter()
        .zip(&biases)
        .map(|(row, &b)| {
            row.iter()
                .filter(|&&w| w < 0)
                .map(|&w| w as i64)
                .sum::<i64>()
                + b as i64
        })
        .min()
        .unwrap();
    let output = QuantizedSparseOutput::from_parts(
        p,
        q_bits,
        weights,
        biases,
        min_score,
        rng.random_range(0..3u32),
    );
    PoetBinClassifier::new(RincBank::from_modules(modules), output)
}

fn random_batch(rng: &mut StdRng, n: usize, f: usize) -> FeatureMatrix {
    let rows: Vec<BitVec> = (0..n)
        .map(|_| BitVec::from_fn(f, |_| rng.random::<bool>()))
        .collect();
    FeatureMatrix::from_rows(rows)
}

/// The seed path for one example: scalar per-row module prediction plus
/// the per-combo output decode — exactly what the pre-engine code did.
fn seed_predict(clf: &PoetBinClassifier, row: &BitVec) -> usize {
    let p = clf.output().lut_inputs();
    let combos: Vec<usize> = (0..clf.classes())
        .map(|c| {
            (0..p)
                .map(|j| usize::from(clf.bank().modules()[c * p + j].predict_row(row)) << j)
                .sum()
        })
        .collect();
    clf.output().predict_from_combos(&combos)
}

#[test]
fn engine_matches_seed_path_on_random_classifiers() {
    let mut rng = StdRng::seed_from_u64(0x9E3779B9);
    for case in 0..12 {
        let f = rng.random_range(8..24usize);
        let clf = random_classifier(&mut rng, f);
        let n = rng.random_range(1..300usize);
        let batch = random_batch(&mut rng, n, f);

        let expected: Vec<usize> = (0..n).map(|e| seed_predict(&clf, batch.row(e))).collect();
        let software = clf.predict(&batch);
        assert_eq!(software, expected, "case {case}: rewritten predict drifted");

        let engine = ClassifierEngine::compile(&clf, f).expect("compiles");
        assert_eq!(
            engine.predict(&batch),
            expected,
            "case {case}: single-thread engine drifted"
        );
        let sharded = ClassifierEngine::compile(&clf, f)
            .expect("compiles")
            .with_threads(4);
        assert_eq!(
            sharded.predict(&batch),
            expected,
            "case {case}: sharded engine drifted"
        );
    }
}

/// A random topologically valid netlist mixing LUTs, muxes and constants.
fn random_netlist(rng: &mut StdRng) -> Netlist {
    let mut b = NetlistBuilder::new();
    let num_inputs = rng.random_range(2..8usize);
    let mut signals = b.add_inputs(num_inputs);
    signals.push(b.add_const(rng.random::<bool>()));
    for _ in 0..rng.random_range(4..40usize) {
        if rng.random_range(0..4usize) == 0 {
            let pick = |rng: &mut StdRng, s: &[usize]| s[rng.random_range(0..s.len())];
            let (sel, lo, hi) = (
                pick(rng, &signals),
                pick(rng, &signals),
                pick(rng, &signals),
            );
            let m = b.add_mux(sel, lo, hi);
            signals.push(m);
        } else {
            let arity = rng.random_range(1..5usize).min(signals.len());
            let inputs: Vec<usize> = (0..arity)
                .map(|_| signals[rng.random_range(0..signals.len())])
                .collect();
            let table = random_table(rng, arity);
            let l = b.add_lut(inputs, table);
            signals.push(l);
        }
    }
    let outputs: Vec<usize> = (0..rng.random_range(1..4usize))
        .map(|_| signals[rng.random_range(0..signals.len())])
        .collect();
    b.set_outputs(outputs);
    b.finish()
}

#[test]
fn engine_matches_scalar_netlist_eval_on_random_netlists() {
    let mut rng = StdRng::seed_from_u64(0xC2B2AE35);
    for case in 0..20 {
        let net = random_netlist(&mut rng);
        let n = rng.random_range(1..200usize);
        let batch = random_batch(&mut rng, n, net.num_inputs());
        let engine = Engine::from_netlist(&net).expect("compiles");
        let out = engine.eval_batch(&batch);
        for e in 0..n {
            let row: Vec<bool> = (0..net.num_inputs()).map(|j| batch.bit(e, j)).collect();
            let expect = net.eval(&row);
            for (k, col) in out.iter().enumerate() {
                assert_eq!(
                    col.get(e),
                    expect[k],
                    "case {case} example {e} output {k} disagrees with Netlist::eval"
                );
            }
        }
    }
}

#[test]
fn engine_predictions_are_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(7);
    let f = 16;
    let clf = random_classifier(&mut rng, f);
    let batch = random_batch(&mut rng, 1500, f);
    let reference = ClassifierEngine::compile(&clf, f)
        .unwrap()
        .with_threads(1)
        .predict(&batch);
    for threads in [2usize, 3, 8, 32] {
        let preds = ClassifierEngine::compile(&clf, f)
            .unwrap()
            .with_threads(threads)
            .predict(&batch);
        assert_eq!(preds, reference, "threads={threads}");
    }
}

/// Tail-lane shapes through the whole engine: every batch size with
/// `n % 64 ∈ {0, 1, 63}` around one, two and three words must match the
/// scalar netlist eval, for single- and multi-shard runs.
#[test]
fn engine_handles_word_boundary_batch_sizes() {
    let mut rng = StdRng::seed_from_u64(0x7A111);
    let net = random_netlist(&mut rng);
    let f = net.num_inputs();
    for &n in &[1usize, 63, 64, 65, 127, 128, 129, 191, 192] {
        let batch = random_batch(&mut rng, n, f);
        for threads in [1usize, 4] {
            let engine = Engine::from_netlist(&net).unwrap().with_threads(threads);
            let out = engine.eval_batch(&batch);
            for (k, col) in out.iter().enumerate() {
                assert_eq!(col.len(), n, "n={n} k={k}: output length");
            }
            for e in 0..n {
                let row: Vec<bool> = (0..f).map(|j| batch.bit(e, j)).collect();
                let expect = net.eval(&row);
                for (k, col) in out.iter().enumerate() {
                    assert_eq!(col.get(e), expect[k], "n={n} threads={threads} e={e} k={k}");
                }
            }
        }
    }
}

/// The masked partial-word path: dead lanes may carry arbitrary garbage in
/// every input word without affecting live lanes, and the mask guarantees
/// dead lanes of every output word are zero.
#[test]
fn masked_eval_is_immune_to_garbage_in_dead_lanes() {
    let mut rng = StdRng::seed_from_u64(0x7A112);
    for case in 0..12 {
        let net = random_netlist(&mut rng);
        let f = net.num_inputs();
        let engine = Engine::from_netlist(&net).unwrap();
        let mut scratch = engine.scratch();
        for live in [64usize, 1, 63, 29] {
            let live_mask = if live == 64 {
                u64::MAX
            } else {
                (1u64 << live) - 1
            };
            let clean: Vec<u64> = (0..f).map(|_| rng.random::<u64>() & live_mask).collect();
            let dirty: Vec<u64> = clean
                .iter()
                .map(|&w| w | (rng.random::<u64>() & !live_mask))
                .collect();
            let clean_out = engine
                .eval_blocks_masked(&clean, 1, live_mask, &mut scratch)
                .to_vec();
            let dirty_out = engine
                .eval_blocks_masked(&dirty, 1, live_mask, &mut scratch)
                .to_vec();
            assert_eq!(
                clean_out, dirty_out,
                "case {case} live={live}: garbage leaked across lanes"
            );
            for (k, &w) in clean_out.iter().enumerate() {
                assert_eq!(
                    w & !live_mask,
                    0,
                    "case {case} output {k}: dead lanes not masked"
                );
                // Live lanes must match the batch path for the same rows.
                let batch = FeatureMatrix::from_fn(live, f, |e, j| (clean[j] >> e) & 1 == 1);
                let batch_out = engine.eval_batch(&batch);
                assert_eq!(
                    batch_out[k].as_words()[0],
                    w,
                    "case {case} output {k}: word path != batch path"
                );
            }
        }
    }
}

/// `predict_block_into` (the serving hot path) over one lane word agrees
/// with the batch `predict` for every tail size, with garbage injected
/// into dead lanes.
#[test]
fn predict_word_matches_batch_predict_for_all_tail_sizes() {
    let mut rng = StdRng::seed_from_u64(0x7A113);
    for case in 0..6 {
        let f = rng.random_range(8..24usize);
        let clf = random_classifier(&mut rng, f);
        let engine = ClassifierEngine::compile(&clf, f).expect("compiles");
        let mut scratch = engine.scratch();
        for lanes in [1usize, 63, 64, 31] {
            let rows: Vec<BitVec> = (0..lanes)
                .map(|_| BitVec::from_fn(f, |_| rng.random::<bool>()))
                .collect();
            let expected = engine.predict(&FeatureMatrix::from_rows(rows.clone()));
            let live_mask = if lanes == 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            let mut words = poetbin_bits::pack_block_rows(rows.iter(), f, 1);
            for w in &mut words {
                *w |= rng.random::<u64>() & !live_mask;
            }
            let mut preds = vec![0usize; lanes];
            engine.predict_block_into(&words, &mut scratch, &mut preds);
            assert_eq!(preds, expected, "case {case} lanes={lanes}");
        }
    }
}

/// A scratch allocated for one plan cannot be used with another.
#[test]
#[should_panic(expected = "different plan")]
fn scratch_is_plan_specific() {
    // A two-output chain (many value slots) vs a single pass-through LUT:
    // the value arrays cannot match.
    let mut big = NetlistBuilder::new();
    let inputs = big.add_inputs(4);
    let mut sigs = inputs.clone();
    for i in 0..6 {
        let t = TruthTable::from_fn(2, |a| a == 1 || a == (i % 3));
        let s = big.add_lut(vec![sigs[i % sigs.len()], sigs[(i + 1) % sigs.len()]], t);
        sigs.push(s);
    }
    big.set_outputs(vec![sigs[sigs.len() - 1], sigs[sigs.len() - 2]]);
    let big = Engine::from_netlist(&big.finish()).unwrap();

    let mut tiny = NetlistBuilder::new();
    let x = tiny.add_input();
    let inv = tiny.add_lut(vec![x], TruthTable::from_fn(1, |i| i == 0));
    tiny.set_outputs(vec![inv]);
    let tiny = Engine::from_netlist(&tiny.finish()).unwrap();

    let mut wrong_scratch = tiny.scratch();
    let inputs = vec![0u64; 4];
    big.eval_blocks_masked(&inputs, 1, u64::MAX, &mut wrong_scratch);
}
