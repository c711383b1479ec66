//! Training throughput of Algorithm 1: the popcount engine against the
//! scalar reference trainer it replaced, on a paper-shaped task.
//!
//! The workload mirrors one tree of an SVHN-shaped RINC bank: 512 binary
//! features (the S1 feature extractor's output width), `P = 6` levels (the
//! SVHN LUT fan-in), hidden-majority labels. Four paths are timed:
//!
//! * `scalar_*` — the seed path: `LevelWiseTree::train_scalar`, one
//!   example-bit at a time;
//! * `popcount_uniform_*` — the engine on uniform weights (one masked
//!   popcount plane), single-threaded;
//! * `popcount_integer_*` — the engine on boosting-by-resampling draw
//!   counts (bit-plane popcounts), single-threaded;
//! * `bucketed_f64_*` — the exact path on arbitrary AdaBoost weights,
//!   single-threaded and with the candidate scan sharded across cores;
//!
//! plus a `rinc_bank` group training a full boosted bank through the new
//! resample draw-count fast path.
//!
//! Before any timing, the bench trains each weight shape through both
//! engines and asserts the trees are identical — a run that prints
//! timings has also proven equivalence on this workload.
//!
//! Run with `cargo bench -p poetbin_bench --bench train`; set
//! `POETBIN_BENCH_QUICK=1` (the CI smoke mode) to shrink the example
//! count and sample counts. Medians additionally land in
//! `BENCH_train.json` at the repo root (see `poetbin_bench::report`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_boost::RincConfig;
use poetbin_core::rinc_bank::RincBank;
use poetbin_dt::{LevelTreeConfig, LevelWiseTree};

/// SVHN-shaped task dimensions (S1 row: 512 features, P = 6).
const FEATURES: usize = 512;
const LUT_INPUTS: usize = 6;

fn quick() -> bool {
    std::env::var_os("POETBIN_BENCH_QUICK").is_some()
}

/// Deterministic pseudo-random dataset with a hidden 9-feature majority
/// signal plus hash noise — enough structure that the entropy scan does
/// real ranking work.
fn svhn_shaped(n: usize) -> (FeatureMatrix, BitVec) {
    let data = FeatureMatrix::from_fn(n, FEATURES, |e, j| {
        (e.wrapping_mul(2654435761)
            .wrapping_add(j.wrapping_mul(40503))
            >> 7)
            & 1
            == 1
    });
    let labels = BitVec::from_fn(n, |e| {
        let ones = (0..9).filter(|&j| data.bit(e, j * 31)).count();
        let noise = (e.wrapping_mul(0x9E3779B9) >> 11) & 15 == 0;
        (ones >= 5) ^ noise
    });
    (data, labels)
}

/// Resample-style whole-number weights (deterministic multinomial draw).
fn draw_counts(n: usize) -> Vec<f64> {
    let mut w = vec![0.0f64; n];
    let mut state = 0x243F_6A88_85A3_08D3u64;
    for _ in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        w[(state >> 33) as usize % n] += 1.0;
    }
    w
}

/// AdaBoost-shaped uneven positive weights.
fn f64_weights(n: usize) -> Vec<f64> {
    (0..n)
        .map(|e| 0.05 + ((e * 2654435761) % 997) as f64 / 997.0)
        .collect()
}

/// Trains both engines on each weight shape and panics on any divergence,
/// then reports the single-thread popcount speedup measured outside the
/// criterion loop (medians of `reps` runs).
fn verify_and_report_speedup(data: &FeatureMatrix, labels: &BitVec, reps: usize) {
    let n = data.num_examples();
    let single = LevelTreeConfig::new(LUT_INPUTS).with_threads(1);
    let shapes: [(&str, Vec<f64>); 3] = [
        ("uniform", vec![1.0; n]),
        ("integer", draw_counts(n)),
        ("f64", f64_weights(n)),
    ];
    for (name, w) in &shapes {
        let fast = LevelWiseTree::train(data, labels, w, &single);
        let slow = LevelWiseTree::train_scalar(data, labels, w, &single);
        assert_eq!(
            fast, slow,
            "popcount engine diverged from the scalar trainer on {name} weights"
        );
    }
    println!("equivalence: trees identical on uniform / integer / f64 weights (n = {n})");

    let median = |mut xs: Vec<Duration>| {
        xs.sort_unstable();
        xs[xs.len() / 2]
    };
    let time = |f: &dyn Fn() -> LevelWiseTree| {
        let samples: Vec<Duration> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed()
            })
            .collect();
        median(samples)
    };
    let uniform = vec![1.0; n];
    let scalar = time(&|| LevelWiseTree::train_scalar(data, labels, &uniform, &single));
    let popcount = time(&|| LevelWiseTree::train(data, labels, &uniform, &single));
    let speedup = scalar.as_secs_f64() / popcount.as_secs_f64().max(1e-12);
    println!(
        "single-thread speedup (uniform weights): scalar {scalar:?} / popcount {popcount:?} = {speedup:.1}x"
    );
}

fn bench_train(c: &mut Criterion) {
    let (n, samples, secs) = if quick() {
        (4_096, 3, 2)
    } else {
        (60_000, 10, 20)
    };
    let (data, labels) = svhn_shaped(n);
    verify_and_report_speedup(&data, &labels, if quick() { 3 } else { 5 });

    let uniform = vec![1.0; n];
    let integer = draw_counts(n);
    let exact = f64_weights(n);
    let single = LevelTreeConfig::new(LUT_INPUTS).with_threads(1);
    let sharded = LevelTreeConfig::new(LUT_INPUTS);

    let mut group = c.benchmark_group("train_tree_p6_512f");
    group
        .sample_size(samples)
        .measurement_time(Duration::from_secs(secs))
        .warm_up_time(Duration::from_millis(300));

    group.bench_function("scalar_uniform", |b| {
        b.iter(|| {
            black_box(LevelWiseTree::train_scalar(
                black_box(&data),
                &labels,
                &uniform,
                &single,
            ))
        })
    });
    group.bench_function("popcount_uniform_1thread", |b| {
        b.iter(|| {
            black_box(LevelWiseTree::train(
                black_box(&data),
                &labels,
                &uniform,
                &single,
            ))
        })
    });
    group.bench_function("popcount_uniform_sharded", |b| {
        b.iter(|| {
            black_box(LevelWiseTree::train(
                black_box(&data),
                &labels,
                &uniform,
                &sharded,
            ))
        })
    });
    group.bench_function("popcount_integer_1thread", |b| {
        b.iter(|| {
            black_box(LevelWiseTree::train(
                black_box(&data),
                &labels,
                &integer,
                &single,
            ))
        })
    });
    group.bench_function("scalar_integer", |b| {
        b.iter(|| {
            black_box(LevelWiseTree::train_scalar(
                black_box(&data),
                &labels,
                &integer,
                &single,
            ))
        })
    });
    group.bench_function("bucketed_f64_1thread", |b| {
        b.iter(|| {
            black_box(LevelWiseTree::train(
                black_box(&data),
                &labels,
                &exact,
                &single,
            ))
        })
    });
    group.bench_function("bucketed_f64_sharded", |b| {
        b.iter(|| {
            black_box(LevelWiseTree::train(
                black_box(&data),
                &labels,
                &exact,
                &sharded,
            ))
        })
    });
    group.bench_function("scalar_f64", |b| {
        b.iter(|| {
            black_box(LevelWiseTree::train_scalar(
                black_box(&data),
                &labels,
                &exact,
                &single,
            ))
        })
    });
    group.finish();

    // A slice of an SVHN-shaped RINC bank: boosted P=6 modules trained
    // through the resample draw-count fast path (the paper's hundreds of
    // trees per bank scale linearly from here).
    let bank_n = if quick() { 2_048 } else { 8_192 };
    let (bank_data, _) = svhn_shaped(bank_n);
    let neurons = 2usize;
    let targets = FeatureMatrix::from_fn(bank_n, neurons, |e, j| {
        let base = j * 97;
        (0..3).filter(|&k| bank_data.bit(e, base + k * 17)).count() >= 2
    });
    let cfg = RincConfig::new(LUT_INPUTS, 1).with_resampling(7);

    let mut group = c.benchmark_group("train_rinc_bank");
    group
        .sample_size(if quick() { 2 } else { 5 })
        .measurement_time(Duration::from_secs(secs))
        .warm_up_time(Duration::from_millis(100));
    group.bench_function("bank_2neurons_resample", |b| {
        b.iter(|| black_box(RincBank::train(black_box(&bank_data), &targets, &cfg)))
    });
    group.finish();

    let medians = criterion::take_recorded_medians();
    match poetbin_bench::report::write_repo_root("train", &medians) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => panic!("failed to write BENCH_train.json: {e}"),
    }
}

criterion_group!(benches, bench_train);
criterion_main!(benches);
