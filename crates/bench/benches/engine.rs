//! Batch-inference throughput: the lane-blocked, opcode-specialized
//! engine — interpreter and JIT backends — against the scalar
//! per-example netlist walk they replaced.
//!
//! Paths over the same paper-shaped (512-feature, SVHN-like) classifier
//! netlist:
//!
//! * `scalar_*` — the seed path: `Netlist::eval`, one example and one bit
//!   at a time;
//! * `engine_b{1,4,8}_1thread_*` — the interpreter backend running the
//!   compiled specialized tape at a pinned lane-block width (`64·B`
//!   examples per tape pass), one core;
//! * `engine_jit_b{1,4,8}_1thread_*` — the same tape through the
//!   in-process x86-64 JIT backend (kind-run loops over a packed
//!   operand table, AVX-512 where the CPU has it);
//! * `engine_sharded_*` — automatic backend and block width with the
//!   block range split across all cores via `std::thread::scope`;
//! * `plan_compile` / `jit_compile` — netlist → plan compilation, and
//!   plan → machine-code assembly + mapping for all three widths;
//! * `binarynet_xnor_popcount` — the paper's binary comparison point:
//!   a BinaryNet (Courbariaux et al.) classifier on the same 512-bit
//!   features, run as XNOR + popcount over 64 rows.
//!
//! **Before any timing**, the bench evaluates the full batch at every
//! backend, block width, shard count and a ragged-tail shape and asserts
//! the outputs are bit-identical to each other *and* to the scalar
//! netlist walk — a run that prints timings has also proven both
//! backends equivalent to `Netlist::eval` (CI runs this in release mode
//! with `POETBIN_BENCH_QUICK=1`).
//!
//! Results land both on stdout and in `BENCH_engine.json` at the repo
//! root (medians, machine-readable; see `poetbin_bench::report`).
//!
//! Run with `cargo bench -p poetbin_bench --bench engine`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use poetbin_baselines::{BinaryNet, BinaryNetConfig, MulticlassClassifier};
use poetbin_bench::{hardware_classifier, DatasetKind};
use poetbin_bits::FeatureMatrix;
use poetbin_engine::{Backend, Engine, JitExecutor};
use poetbin_fpga::Netlist;

fn quick() -> bool {
    std::env::var_os("POETBIN_BENCH_QUICK").is_some()
}

/// Deterministic pseudo-random batch, `n × f`.
fn random_batch(n: usize, f: usize) -> FeatureMatrix {
    FeatureMatrix::from_fn(n, f, |e, j| {
        (e.wrapping_mul(2654435761)
            .wrapping_add(j.wrapping_mul(40503))
            >> 7)
            & 1
            == 1
    })
}

/// The pre-engine inference path: walk the netlist per example.
fn scalar_eval(net: &Netlist, batch: &FeatureMatrix) -> usize {
    let mut ones = 0usize;
    let f = batch.num_features();
    let mut row = vec![false; f];
    for e in 0..batch.num_examples() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = batch.bit(e, j);
        }
        ones += net.eval(&row).iter().filter(|&&b| b).count();
    }
    ones
}

/// Bit-identical-outputs gate: every backend, block width, shard count
/// and a ragged tail must agree with the interpreter at `B = 1`
/// single-thread, which in turn must agree with the scalar netlist walk
/// on every example.
fn assert_equivalence(net: &Netlist, batch: &FeatureMatrix, scalar_check: bool) {
    let reference = Engine::from_netlist(net)
        .expect("valid netlist")
        .with_backend(Backend::Interp)
        .with_threads(1)
        .with_block_words(1)
        .eval_batch(batch);
    for backend in [Backend::Interp, Backend::Jit] {
        for block in [1usize, 4, 8] {
            for threads in [1usize, 4] {
                let out = Engine::from_netlist(net)
                    .expect("valid netlist")
                    .with_backend(backend)
                    .with_threads(threads)
                    .with_block_words(block)
                    .eval_batch(batch);
                assert_eq!(
                    out, reference,
                    "backend={backend} B={block} threads={threads} diverged from \
                     the interpreter single-word path"
                );
            }
        }
    }
    let auto = Engine::from_netlist(net)
        .expect("valid netlist")
        .eval_batch(batch);
    assert_eq!(auto, reference, "auto backend/block/threads diverged");
    if scalar_check {
        let f = batch.num_features();
        let mut row = vec![false; f];
        for e in 0..batch.num_examples() {
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = batch.bit(e, j);
            }
            let expect = net.eval(&row);
            for (k, col) in reference.iter().enumerate() {
                assert_eq!(
                    col.get(e),
                    expect[k],
                    "engine diverged from Netlist::eval at example {e} output {k}"
                );
            }
        }
    }
}

fn bench_engine(c: &mut Criterion) {
    let (n_large, samples, secs) = if quick() {
        (4_096, 3, 2)
    } else {
        (60_000, 10, 8)
    };
    let mut group = c.benchmark_group("engine_throughput");
    group
        .sample_size(samples)
        .measurement_time(Duration::from_secs(secs))
        .warm_up_time(Duration::from_millis(300));

    let (clf, _) = hardware_classifier(DatasetKind::SvhnLike, 200, 3);
    let net = clf.to_netlist(512);
    let make = |backend: Backend, block: usize| {
        Engine::from_netlist(&net)
            .expect("valid netlist")
            .with_backend(backend)
            .with_threads(1)
            .with_block_words(block)
    };
    let (b1, b4, b8) = (
        make(Backend::Interp, 1),
        make(Backend::Interp, 4),
        make(Backend::Interp, 8),
    );
    let (j1, j4, j8) = (
        make(Backend::Jit, 1),
        make(Backend::Jit, 4),
        make(Backend::Jit, 8),
    );
    let sharded = Engine::from_netlist(&net).expect("valid netlist");
    let small = random_batch(1_000, 512);
    let large = random_batch(n_large, 512);

    let plan = b8.plan();
    println!(
        "plan: {} tape ops over {} value slots ({} logic levels, {} dead SSA ops dropped)",
        plan.tape_len(),
        plan.num_slots(),
        plan.logic_levels(),
        plan.dead_ops()
    );
    println!("opcode histogram: {}", plan.op_stats());
    println!(
        "backends: sharded engine resolved to `{}`; jit rows native: {}",
        sharded.backend_name(),
        j8.backend_name() == "jit",
    );

    // The equivalence gate: tails 1000 % 64 = 40 lanes and
    // n_large % 512 ∈ {0, 256} words exercise masked tail blocks; the
    // scalar walk pins the whole stack — both backends — to
    // Netlist::eval. JIT rows below time what this gate has proven
    // bit-identical.
    assert_equivalence(&net, &small, true);
    assert_equivalence(&net, &large, !quick());
    assert_equivalence(&net, &random_batch(65, 512), true);
    println!(
        "equivalence: bit-identical outputs at backend ∈ {{interp,jit}} x B ∈ {{1,4,8}} x \
         threads {{1,4}} vs Netlist::eval (n = {})",
        large.num_examples()
    );

    // Codegen outside the timed regions: the JIT assembles lazily on
    // first use, and these rows measure steady-state throughput.
    for (engine, block) in [(&j1, 1usize), (&j4, 4), (&j8, 8)] {
        engine.prepare(block);
    }

    group.bench_function("plan_compile", |b| {
        b.iter(|| black_box(Engine::from_netlist(black_box(&net)).unwrap()))
    });
    group.bench_function("jit_compile", |b| {
        // Plan → native code for all three widths (assembly + W^X map),
        // on top of an already-compiled plan.
        let plan = b8.plan_arc();
        b.iter(|| {
            let jit = JitExecutor::new(black_box(std::sync::Arc::clone(&plan)));
            for block in [1usize, 4, 8] {
                poetbin_engine::Executor::prepare(&jit, block);
            }
            black_box(jit.code_bytes())
        })
    });

    group.bench_function("scalar_1k", |b| {
        b.iter(|| black_box(scalar_eval(black_box(&net), &small)))
    });
    group.bench_function("engine_b1_1thread_1k", |b| {
        b.iter(|| black_box(b1.eval_batch(black_box(&small))))
    });
    group.bench_function("engine_b8_1thread_1k", |b| {
        b.iter(|| black_box(b8.eval_batch(black_box(&small))))
    });
    group.bench_function("engine_jit_b8_1thread_1k", |b| {
        b.iter(|| black_box(j8.eval_batch(black_box(&small))))
    });
    group.bench_function("engine_sharded_1k", |b| {
        b.iter(|| black_box(sharded.eval_batch(black_box(&small))))
    });

    group.bench_function("scalar_60k", |b| {
        b.iter(|| black_box(scalar_eval(black_box(&net), &large)))
    });
    group.bench_function("engine_b1_1thread_60k", |b| {
        b.iter(|| black_box(b1.eval_batch(black_box(&large))))
    });
    group.bench_function("engine_b4_1thread_60k", |b| {
        b.iter(|| black_box(b4.eval_batch(black_box(&large))))
    });
    group.bench_function("engine_b8_1thread_60k", |b| {
        b.iter(|| black_box(b8.eval_batch(black_box(&large))))
    });
    group.bench_function("engine_jit_b1_1thread_60k", |b| {
        b.iter(|| black_box(j1.eval_batch(black_box(&large))))
    });
    group.bench_function("engine_jit_b4_1thread_60k", |b| {
        b.iter(|| black_box(j4.eval_batch(black_box(&large))))
    });
    group.bench_function("engine_jit_b8_1thread_60k", |b| {
        b.iter(|| black_box(j8.eval_batch(black_box(&large))))
    });
    group.bench_function("engine_sharded_60k", |b| {
        b.iter(|| black_box(sharded.eval_batch(black_box(&large))))
    });

    // BinaryNet trained briefly on the first 200 rows of the 1k batch;
    // the row times inference only, so accuracy does not matter.
    let train = small.select_examples(&(0..200).collect::<Vec<_>>());
    let labels: Vec<usize> = (0..200).map(|e| e % 10).collect();
    let config = BinaryNetConfig {
        hidden: 128,
        epochs: 1,
        learning_rate: 0.01,
        seed: 1,
    };
    let xnor = BinaryNet::train(&train, &labels, 10, &config).to_xnor();
    let bn_batch = small.select_examples(&(0..64).collect::<Vec<_>>());
    group.bench_function("binarynet_xnor_popcount", |b| {
        b.iter(|| black_box(xnor.predict(black_box(&bn_batch))))
    });

    group.finish();

    let medians = criterion::take_recorded_medians();
    match poetbin_bench::report::write_repo_root("engine", &medians) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => panic!("failed to write BENCH_engine.json: {e}"),
    }
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
