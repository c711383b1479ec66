//! The repository benchmark: five workloads over the serving, scoring and
//! training paths, end-to-end metrics checked against an oracle, per-layer
//! metrics from a traced run, and a bound-aware comparison of two sets of
//! results.
//!
//! # Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --seed N [--workload NAME] [--seconds S] [--trace [0|1]]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare BASE NEW
//! ```
//!
//! Without `--workload` every workload runs, one after another. Each runs
//! in a fresh child process of the benchmark, so peak memory and JIT code
//! pages do not leak from one workload into the next. A run prints every
//! metric as `workload metric value unit`, writes its result to
//! `target/benchmark/<workload>-seed<N>.json`, appends it to
//! `target/benchmark/results.jsonl`, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. It exits
//! non-zero when any output disagreed with its oracle or any request
//! failed.
//!
//! `--trace` runs the workload twice: untraced, then with spans kept in
//! memory. The traced run writes its spans to
//! `target/benchmark/trace-<workload>.json`, reports the per-layer metrics
//! derived from them, and prints each end-to-end metric's difference from
//! the untraced run as `overhead.<metric>`.
//!
//! `--compare BASE NEW` takes two files of results, one per line (such as
//! `results.jsonl`, or a single result file). For each workload and end-to-end metric it prints
//! both sides' median and quartiles and a verdict: `improved`, `unchanged`,
//! `regressed`, or `unresolved` when a side's interquartile range is wider
//! than the metric's bound allows. It exits non-zero on a regression or a higher
//! failure share, and refuses (exit 2) to compare results whose host block
//! (core count, engine backend, ISA tier) or model digests differ.
//! `baseline/` holds two sets of runs of the same code, which compare as
//! unchanged.
//!
//! `defs.rs` holds the workload and metric definitions; a unit test fails
//! when the committed `BENCHMARK.json` does not match them.
//!
//! # Workloads
//!
//! The seed sets the request rows, the scored rows and the rows the
//! engine is checked on; the training data is fixed by the scenario.
//!
//! * `serve-small` — the checked-in `deep.poetbin2` (123 tape ops) and
//!   `tiny.poetbin2` (1 op) fixtures, requests alternating between them.
//!   The engine does almost no work, so event loop, protocol and batcher
//!   time dominate: the control for engine changes.
//! * `serve-s1` — the paper-shaped S1 classifier
//!   (`poetbin_bench::hardware_classifier(SvhnLike, 200, 3)`: 512
//!   features, 10 classes, 44 943 tape ops), built before timing starts.
//!   One tape pass is a large share of a request, so engine work shows in
//!   latency.
//! * `score-s1` — offline scoring of 60 000 seeded rows on the S1 engine:
//!   the same engine used differently, full 8-word blocks sharded over the
//!   cores and no serving layer.
//! * `train-mnist` — `Scenario::quick(Mnist)` cut to 600 training
//!   examples so that three passes fit a run; the RINC bank is about a
//!   third of a pass next to the teacher CNN.
//! * `train-svhn` — `Scenario::quick(Svhn)` cut to 300 training examples;
//!   the convolutional teacher is nearly all of a pass, so a teacher
//!   change shows here and a bank change should not.
//!
//! Each serve workload sets up, warms up for a fifteenth of the run, then
//! splits the rest into three phases over one pipelined connection and at
//! most two generator threads: `low` and `high` (open loop at a fixed
//! arrival rate) and `sat` (a closed window of 64 requests in flight).
//!
//! # End-to-end metrics
//!
//! Measured with tracing off; every workload reports all of them, and the
//! bound is the share of the baseline median by which a metric may worsen.
//! An *operation* is a request on the serve workloads, one scoring pass on
//! `score-s1` and one pipeline pass on the train workloads.
//!
//! * `setup_s` (bound 25%, and at least 50 ms in `--compare`) — from the
//!   start of model loading until the system is ready; the median of eleven
//!   set-ups. Serve: `load_engine_with`, registration, `Server::start` and
//!   the first good response per model. Score: decode, compile and
//!   `prepare_all`. Train: `load_data`.
//! * `op_p50_ms` (20%) — median operation time. Serve: latency at the low
//!   rate, measured from when the request was due to be sent, not from
//!   when it was sent; the median over 1 s windows of each window's p50.
//!   Score: one `from_rows` + `predict` over all rows. Train: the sum of
//!   the stage times of one pass.
//! * `op_tail_ms` (20%) — serve: the median over 0.5 s windows of each
//!   window's p99 at the high rate, windows holding at least 100 samples
//!   beyond their p99, so one host stall moves one window and not the
//!   result. Score: the p99 of the operation times. Train: the slowest
//!   pass.
//! * `throughput` (20%) — serve: completions per second with 64 requests
//!   in flight, the median over 0.5 s windows. Score: rows scored per
//!   second. Train: training examples per second of pipeline time.
//! * `peak_rss_mb` (20%) — `VmHWM` of the workload's child process.
//!
//! Failures are counted, not timed: a shed, rejected, lost or wrong
//! response, a prediction that differs from the scalar
//! `PoetBinClassifier::predict`, or an engine output that differs from
//! `simulate` counts in `failed` against `attempted`, and any failure
//! fails the run.
//!
//! # Per-layer metrics
//!
//! From the traced run; `defs::PER_LAYER` lists them. Which end-to-end
//! metric each should move, and on which workload:
//!
//! * `core.decode_ms`, `engine.compile_ms`, `engine.jit_prepare_ms`,
//!   `serve.start_ms` move `setup_s` on the serve and score workloads.
//! * `engine.tape_ops` (a count), `bits.from_rows_ms` and
//!   `engine.predict_ms` move `throughput` on `score-s1`.
//! * `engine.exec_us.b1`, `engine.exec_us.batch` and `bits.pack_us.batch`
//!   replay `predict_block_into` and `pack_block_rows_into` at one lane and
//!   at the high phase's mean batch; they move `op_p50_ms` on `serve-s1`,
//!   and `serve-small` is the control where no change is predicted.
//! * `serve.mean_batch.*`, `serve.batches_per_s.*` (from `ServerStats`
//!   deltas) and `serve.queue_depth_max.*` (`Server::queue_depth`, sampled
//!   every 64 responses) move `op_tail_ms` and `throughput` on the serve
//!   workloads.
//! * `serve.shed`, `serve.rejected`, `serve.protocol_errors` and
//!   `gen.mismatches` move `failed`.
//! * `client.send_us.p50`, `protocol.encode_ns` and `protocol.decode_ns`
//!   move `throughput` on `serve-small`, where the generator shares the
//!   cores with the server.
//! * `gen.late_us.p99.{low,high}` is a validity check: a phase whose
//!   generator ran more than 1 ms late at p99 is flagged.
//! * `data.load_ms` moves `setup_s` on the train workloads; `core.teacher_s`
//!   moves `op_p50_ms` most on `train-svhn`; `core.bank_s` moves it on
//!   `train-mnist` and barely on `train-svhn`; `core.output_ms`,
//!   `core.netlist_ms`, `fpga.map_ms`, `fpga.prune_ms`,
//!   `fpga.simulate_ms`, `engine.simcheck_ms`, `fpga.timing_ms` and
//!   `power.energy_ms` each move it by under 1%.
//! * `core.a3` and `core.rinc_fidelity` explain `core.a4`;
//!   `fpga.pruned_luts` and `power.poetbin_nj` are deterministic: if
//!   either changes, the model changed.
//!
//! A workload that does not run a layer reports it as 0.
//!
//! # Changing the benchmark
//!
//! Adding a workload, a metric or a counter is a change of its own: it
//! alters no other code, claims no gain, and the baseline is measured
//! again after it lands. A change that claims a gain does not edit the
//! benchmark.
//!
//! `loadgen`'s `BENCH_serve.json` tail is inflated by its own generator,
//! not by the server: 16 sender and receiver threads plus a sampler on a
//! two-core host, holding a lock across every socket write. This
//! benchmark's generator uses at most two threads and one connection.
//! Fixing `loadgen` and running `--compare` in CI are left for later
//! changes.

mod compare;
mod defs;
mod host;
mod json;
mod model;
mod score;
mod serve;
mod stats;
mod trace;
mod train;

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use poetbin_core::scenarios::ScenarioKind;

use defs::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use json::Json;
use trace::Tracer;

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 11;

/// What a workload runs with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tr: Tracer,
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, in `END_TO_END` order, without `peak_rss_mb`
    /// (the child process adds it last).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics; only a traced run fills them.
    pub layers: Vec<(String, f64)>,
    /// Extra figures printed and recorded but not compared.
    pub info: Vec<(String, f64, &'static str)>,
    /// Conditions that make the run suspect.
    pub flags: Vec<String>,
    /// `(name, digest)` of each model measured.
    pub models: Vec<(String, String)>,
    pub backend: String,
}

impl Outcome {
    pub fn layer(&mut self, name: impl Into<String>, value: Option<f64>) {
        if let Some(v) = value {
            self.layers.push((name.into(), v));
        }
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push((name.into(), value, unit));
    }
}

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    child: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: None,
            seconds: RUN_SECONDS as f64,
            trace: false,
            child: false,
            compare: None,
        };
        let mut prev = String::new();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    args.workload =
                        Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
                }
                "--seed" => {
                    args.seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?)
                }
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                        return Err("--seconds must be in (0, 60]".into());
                    }
                }
                "--trace" => args.trace = true,
                "0" | "1" if prev == "--trace" => args.trace = flag == "1",
                "--child" => args.child = true,
                "--compare" => args.compare = Some((value()?.into(), value()?.into())),
                other => return Err(format!("unknown argument {other}")),
            }
            prev = flag;
        }
        if args.compare.is_none() && args.seed.is_none() {
            return Err("--seed is required".into());
        }
        if args.child && args.workload.is_none() {
            return Err("--child needs --workload".into());
        }
        Ok(args)
    }
}

/// Where results, traces and built models go.
fn out_dir() -> PathBuf {
    PathBuf::from("target").join("benchmark")
}

fn result_path(w: Workload, seed: u64, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    out_dir().join(format!("{}-seed{seed}{suffix}.json", w.name()))
}

/// A checked-in model fixture under `dir`. Runs name it relative to the
/// repository root, so the checkout's location cannot shift the
/// allocations a run makes.
fn fixture(dir: &Path, name: &str) -> Result<(model::Model, PathBuf), String> {
    let path = dir.join(format!("{name}.poetbin2"));
    Ok((model::Model::read(name, &path)?, path))
}

fn run_workload(w: Workload, ctx: &mut Ctx) -> Result<Outcome, String> {
    let s1 = || -> Result<(model::Model, PathBuf), String> {
        let m = model::s1();
        let path = model::write(&m, &out_dir().join("models"))?;
        Ok((m, path))
    };
    let serve = |models, low_rps, high_rps| serve::ServeSpec {
        models,
        low_rps,
        high_rps,
        in_flight: 64,
        pool: 1024,
        setups: SETUPS,
    };
    let train = |kind, train_examples| train::TrainSpec {
        kind,
        train_examples,
        test_examples: 400,
        check_rows: 256,
        setups: SETUPS,
    };
    match w {
        Workload::ServeSmall => {
            let dir = Path::new("tests/fixtures");
            let models = vec![fixture(dir, "deep")?, fixture(dir, "tiny")?];
            serve::run(&serve(models, 20_000.0, 80_000.0), ctx)
        }
        Workload::ServeS1 => serve::run(&serve(vec![s1()?], 20_000.0, 80_000.0), ctx),
        Workload::ScoreS1 => {
            let (model, path) = s1()?;
            let spec = score::ScoreSpec {
                model,
                path,
                rows: 60_000,
                setups: SETUPS,
            };
            score::run(&spec, ctx)
        }
        Workload::TrainMnist => train::run(&train(ScenarioKind::Mnist, 600), ctx),
        Workload::TrainSvhn => train::run(&train(ScenarioKind::Svhn, 300), ctx),
    }
}

fn metrics_json(pairs: &[(String, f64, &str)]) -> Json {
    Json::obj(pairs.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// The child: runs one workload in this process and writes its result.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let mut ctx = Ctx {
        seed,
        seconds,
        tr: Tracer::new(trace),
    };
    let out = run_workload(w, &mut ctx)?;
    let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut e2e = Vec::new();
    for m in &END_TO_END {
        let value = match m.name {
            "peak_rss_mb" => rss,
            name => out
                .e2e
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("{}: workload reported no {name}", w.name()))?,
        };
        e2e.push((m.name.to_string(), value, m.unit));
    }
    let layers: Vec<(String, f64, &str)> = if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = out
                    .layers
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map_or(0.0, |&(_, v)| v);
                (m.name.to_string(), v, m.unit)
            })
            .collect()
    } else {
        Vec::new()
    };
    let info: Vec<(String, f64, &str)> = out
        .info
        .iter()
        .map(|(n, v, u)| (n.clone(), *v, *u))
        .collect();
    for (name, value, unit) in if trace { &layers } else { &e2e } {
        println!("{} {name} {value} {unit}", w.name());
    }
    for (name, value, unit) in &info {
        println!("{} info.{name} {value} {unit}", w.name());
    }
    for flag in &out.flags {
        eprintln!("benchmark: {}: {flag}", w.name());
    }

    let mut doc = vec![
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("host", host::block(seed, &out.backend, &out.models)),
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("end_to_end", metrics_json(&e2e)),
        ("info", metrics_json(&info)),
        (
            "flags",
            Json::Arr(out.flags.iter().map(Json::str).collect()),
        ),
    ];
    if trace {
        doc.push(("per_layer", metrics_json(&layers)));
        let spans = Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", Json::Num(seed as f64)),
            ("spans", ctx.tr.to_json()),
        ]);
        write_file(
            &out_dir().join(format!("trace-{}.json", w.name())),
            &spans.render(),
        )?;
    }
    write_file(&result_path(w, seed, trace), &Json::obj(doc).render())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in a child process of this benchmark and reads back
/// its result. The child is killed if it outlives `deadline`.
fn spawn(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    deadline: Instant,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let path = result_path(w, seed, trace);
    let _ = std::fs::remove_file(&path);
    let mut child = Command::new(exe)
        .args(["--child", "--workload", w.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("starting {}: {e}", w.name()))?;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} did not finish in time", w.name()));
            }
            Err(e) => return Err(format!("waiting for {}: {e}", w.name())),
        }
    };
    if !status.success() {
        return Err(format!("{} failed ({status})", w.name()));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn value(doc: &Json, section: &str, metric: &str) -> Option<f64> {
    doc.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// The parent: runs each requested workload in its own child, then prints
/// the one-line summary.
fn parent(args: &Args, seed: u64) -> Result<bool, String> {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    // The children of one workload, traced or not, finish within 170 s.
    let deadline = Instant::now() + Duration::from_secs(170) * workloads.len() as u32;
    let single = workloads.len() == 1;
    let mut results = Vec::new();
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for w in workloads {
        let plain = spawn(w, seed, args.seconds, false, deadline)?;
        let shown = if args.trace {
            let mut traced = spawn(w, seed, args.seconds, true, deadline)?;
            // Tracing overhead: each end-to-end metric of the traced run
            // against the untraced one, in percent.
            let mut overhead = Vec::new();
            for m in &END_TO_END {
                let (a, b) = (
                    value(&plain, "end_to_end", m.name),
                    value(&traced, "end_to_end", m.name),
                );
                if let (Some(a), Some(b)) = (a, b) {
                    let pct = (b - a) / a * 100.0;
                    println!("{} overhead.{} {pct} %", w.name(), m.name);
                    overhead.push((m.name.to_string(), pct, "%"));
                }
            }
            if let Json::Obj(pairs) = &mut traced {
                pairs.push(("overhead".into(), metrics_json(&overhead)));
            }
            results.push(plain);
            traced
        } else {
            plain
        };
        let section = if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        };
        for (name, v) in shown.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
            let key = if single {
                name.clone()
            } else {
                format!("{}.{name}", w.name())
            };
            metrics.push((key, v.clone()));
        }
        results.push(shown);
    }

    let mut log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir().join("results.jsonl"))
        .map_err(|e| format!("results.jsonl: {e}"))?;
    for r in &results {
        writeln!(log, "{}", r.render()).map_err(|e| format!("results.jsonl: {e}"))?;
    }
    let sum = |k: &str| {
        results
            .iter()
            .filter_map(|r| r.get(k)?.as_f64())
            .sum::<f64>()
    };
    let (attempted, failed) = (sum("attempted"), sum("failed"));
    let correct = failed == 0.0 && attempted > 0.0;
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", summary.render());
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return compare::run(base, new);
    }
    let seed = args.seed.expect("checked by Args::parse");
    if args.child {
        let w = args.workload.expect("checked by Args::parse");
        return match child(w, seed, args.seconds, args.trace) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: {}: {e}", w.name());
                ExitCode::FAILURE
            }
        };
    }
    match parent(&args, seed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fixtures, found from the package directory `cargo test` runs in.
    const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/fixtures");

    fn ctx(seconds: f64) -> Ctx {
        Ctx {
            seed: 7,
            seconds,
            tr: Tracer::new(true),
        }
    }

    fn assert_clean(out: &Outcome) {
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0, "flags: {:?}", out.flags);
        let reported: Vec<&str> = out.e2e.iter().map(|(n, _)| *n).collect();
        for m in END_TO_END.iter().filter(|m| m.name != "peak_rss_mb") {
            assert!(reported.contains(&m.name), "{} missing", m.name);
        }
        assert!(
            out.e2e.iter().all(|(_, v)| v.is_finite() && *v > 0.0),
            "{:?}",
            out.e2e
        );
        for (name, v) in &out.layers {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "undefined layer metric {name}"
            );
            assert!(v.is_finite(), "{name} = {v}");
        }
    }

    #[test]
    fn smoke_serve_small_at_tiny_size() {
        let spec = serve::ServeSpec {
            models: vec![
                fixture(Path::new(FIXTURES), "deep").unwrap(),
                fixture(Path::new(FIXTURES), "tiny").unwrap(),
            ],
            low_rps: 2_000.0,
            high_rps: 8_000.0,
            in_flight: 8,
            pool: 64,
            setups: 2,
        };
        let mut ctx = ctx(0.4);
        let out = serve::run(&spec, &mut ctx).expect("serve run");
        assert_clean(&out);
        assert_eq!(out.models.len(), 2);
        let layer = |n: &str| out.layers.iter().find(|(m, _)| m == n).map(|&(_, v)| v);
        assert_eq!(layer("engine.tape_ops"), Some(124.0));
        assert!(layer("serve.mean_batch.sat").is_some_and(|b| b >= 1.0));
        assert!(ctx
            .tr
            .spans()
            .iter()
            .any(|s| s.name == "client.response" && s.id.is_some()));
    }

    #[test]
    fn smoke_score_at_tiny_size() {
        // The score-s1 path on the deep fixture: building S1 itself takes
        // seconds.
        let (model, path) = fixture(Path::new(FIXTURES), "deep").unwrap();
        let spec = score::ScoreSpec {
            model,
            path,
            rows: 1_000,
            setups: 2,
        };
        let out = score::run(&spec, &mut ctx(0.1)).expect("score run");
        assert_clean(&out);
        assert!(out
            .layers
            .iter()
            .any(|(n, v)| n == "engine.predict_ms" && *v > 0.0));
    }

    #[test]
    fn args_accept_the_driver_form_and_bare_trace() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-s1 --seed 3 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::ServeS1), Some(3), 10.0, false)
        );
        assert!(parse("--seed 1 --trace 1").unwrap().trace);
        assert!(parse("--trace --seed 1").unwrap().trace);
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve-s1").is_err(), "a run needs a seed");
        assert!(parse("--compare a b").is_ok());
    }
}
