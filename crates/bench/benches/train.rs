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
//! resample draw-count fast path, a `train_tree_p8_512f` group timing one
//! `P = 8` MNIST-bank tree (draw counts, one thread) at n = 600 / 1 200 /
//! 4 800 through the engine, whose deep levels take the node-bucketed
//! histogram path, and through the scalar trainer, and a `teacher_gemm`
//! group timing the teacher CNN's tiled mat-mul kernel against the three
//! seed loops it replaced, at the SVHN conv shapes of one 64-image batch.
//!
//! Before any timing, the bench trains each weight shape and each `P = 8`
//! size through both engines and asserts the trees are identical, and runs
//! each teacher product through both the kernel and its seed loop and
//! asserts the outputs are bit-identical — a run that prints timings has
//! also proven equivalence on these workloads.
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
use poetbin_nn::Tensor;

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

    bench_tree_p8(c, if quick() { 5 } else { 30 }, secs);
    bench_teacher_gemm(c, secs);

    let medians = criterion::take_recorded_medians();
    match poetbin_bench::report::write_repo_root("train", &medians) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => panic!("failed to write BENCH_train.json: {e}"),
    }
}

/// P = 8 trees at the shape of one MNIST-bank tree: 512 features,
/// bootstrap draw counts and one scan thread, at the bank's 600 training
/// examples and at two and eight times that. Their deep levels take the
/// node-bucketed histogram path. Each size first asserts that the engine's
/// tree equals the scalar reference's.
fn bench_tree_p8(c: &mut Criterion, samples: usize, secs: u64) {
    let single = LevelTreeConfig::new(8).with_threads(1);
    let mut group = c.benchmark_group("train_tree_p8_512f");
    group
        .sample_size(samples)
        .measurement_time(Duration::from_secs(secs))
        .warm_up_time(Duration::from_millis(100));
    for n in [600, 1_200, 4_800] {
        let (data, labels) = svhn_shaped(n);
        let counts = draw_counts(n);
        assert_eq!(
            LevelWiseTree::train(&data, &labels, &counts, &single),
            LevelWiseTree::train_scalar(&data, &labels, &counts, &single),
            "P = 8 popcount engine diverged from the scalar trainer at n = {n}"
        );
        group.bench_function(&format!("popcount_integer_1thread_n{n}"), |b| {
            b.iter(|| {
                black_box(LevelWiseTree::train(
                    black_box(&data),
                    &labels,
                    &counts,
                    &single,
                ))
            })
        });
        group.bench_function(&format!("scalar_integer_n{n}"), |b| {
            b.iter(|| {
                black_box(LevelWiseTree::train_scalar(
                    black_box(&data),
                    &labels,
                    &counts,
                    &single,
                ))
            })
        });
    }
    println!("equivalence: P = 8 trees identical to the scalar trainer at n = 600 / 1200 / 4800");
    group.finish();
}

/// Deterministic values in (-1, 1), about one in five zero (ReLU- and
/// padding-like zeros, which the seed `matmul`/`t_matmul` loops skipped).
fn teacher_values(len: usize, salt: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| {
            let h = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if h.is_multiple_of(5) {
                0.0
            } else {
                (h % 2001) as f32 / 1000.0 - 1.0
            }
        })
        .collect()
}

/// The seed `Tensor::matmul` loop: i-k-j, skipping zero `a`.
fn seed_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let o_row = &mut out[i * n..(i + 1) * n];
        for (kk, &a) in a[i * k..(i + 1) * k].iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in o_row.iter_mut().zip(&b[kk * n..(kk + 1) * n]) {
                *o += a * b;
            }
        }
    }
    out
}

/// The seed `Tensor::t_matmul` loop: `a` stored `[k, m]`, k-i-j.
fn seed_t_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for kk in 0..k {
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, &a) in a[kk * m..(kk + 1) * m].iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
    }
    out
}

/// The seed `Tensor::matmul_t` loop: one serial dot product per output.
fn seed_matmul_t(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let mut acc = 0.0f32;
            for (a, b) in a_row.iter().zip(&b[j * k..(j + 1) * k]) {
                acc += a * b;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// A seed product loop over row-major slices and `(m, k, n)`.
type SeedLoop = fn(&[f32], &[f32], usize, usize, usize) -> Vec<f32>;

/// One teacher product: its name, the kernel entry point, the seed loop
/// and the stored operand shapes.
struct TeacherProduct {
    name: &'static str,
    kernel: fn(&Tensor, &Tensor) -> Tensor,
    seed: SeedLoop,
    a_shape: [usize; 2],
    b_shape: [usize; 2],
    mkn: [usize; 3],
}

/// Times the tiled kernel against the seed loops at the SVHN conv shapes
/// of a 64-image batch, after asserting bit-identical outputs.
fn bench_teacher_gemm(c: &mut Criterion, secs: u64) {
    let products = [
        // conv1 forward: im2col [65536, 27] · W[16, 27]ᵀ.
        TeacherProduct {
            name: "matmul_t_m65536_k27_n16",
            kernel: Tensor::matmul_t,
            seed: seed_matmul_t,
            a_shape: [65536, 27],
            b_shape: [16, 27],
            mkn: [65536, 27, 16],
        },
        // conv1 weight gradient: grad[65536, 16]ᵀ · im2col [65536, 27].
        TeacherProduct {
            name: "t_matmul_m16_k65536_n27",
            kernel: Tensor::t_matmul,
            seed: seed_t_matmul,
            a_shape: [65536, 16],
            b_shape: [65536, 27],
            mkn: [16, 65536, 27],
        },
        // conv2 input gradient: grad[16384, 32] · W[32, 144].
        TeacherProduct {
            name: "matmul_m16384_k32_n144",
            kernel: Tensor::matmul,
            seed: seed_matmul,
            a_shape: [16384, 32],
            b_shape: [32, 144],
            mkn: [16384, 32, 144],
        },
    ];
    let mut group = c.benchmark_group("teacher_gemm");
    group
        .sample_size(if quick() { 3 } else { 10 })
        .measurement_time(Duration::from_secs(secs))
        .warm_up_time(Duration::from_millis(100));
    for (i, p) in products.iter().enumerate() {
        let a = Tensor::from_vec(
            teacher_values(p.a_shape[0] * p.a_shape[1], 2 * i as u64),
            p.a_shape.to_vec(),
        );
        let b = Tensor::from_vec(
            teacher_values(p.b_shape[0] * p.b_shape[1], 2 * i as u64 + 1),
            p.b_shape.to_vec(),
        );
        let [m, k, n] = p.mkn;
        let fast = (p.kernel)(&a, &b);
        let slow = (p.seed)(a.data(), b.data(), m, k, n);
        assert!(
            fast.data()
                .iter()
                .map(|v| v.to_bits())
                .eq(slow.iter().map(|v| v.to_bits())),
            "teacher kernel diverged from the seed loop on {}",
            p.name
        );
        group.bench_function(&format!("{}_seed", p.name), |bch| {
            bch.iter(|| black_box((p.seed)(black_box(a.data()), b.data(), m, k, n)))
        });
        group.bench_function(&format!("{}_tiled", p.name), |bch| {
            bch.iter(|| black_box((p.kernel)(black_box(&a), &b)))
        });
    }
    println!("equivalence: teacher kernel bit-identical to the seed loops on all three shapes");
    group.finish();
}

criterion_group!(benches, bench_train);
criterion_main!(benches);
