//! The A1→A4 scenario harness and the one producer of the paper's hardware
//! tables. Each scenario trains a RINC-2 classifier end to end on an
//! MNIST-, CIFAR-10- or SVHN-shaped task (teacher, RINC bank, output
//! layer), pushes it through map → prune → simulate → power, and times
//! every stage. The binary then prints Tables 3, 6 and 7 with the paper's
//! value beside each measured one, checks the paper's claims against the
//! measurements ([`failed_claims`]) and, only if every claim holds, writes
//! `BENCH_pipeline.json` at the repository root. Otherwise it names each
//! failed claim on stderr and exits with status 1.
//!
//! * default — the paper-scale runs: all three scenarios at 60k/10k.
//!   Hours of CPU time; intended for workstations with real data dropped
//!   under `data/<name>/`.
//! * `POETBIN_PIPELINE_QUICK=1` — the CI smoke variant: the same three
//!   scenarios at 1200/400 with reduced budgets.
//!
//! Each bank trains once, at `WorkflowConfig::bank_shards`. That the bank
//! is bit-identical at every shard count is pinned by the core crate's
//! `tests/sharding.rs` and the workspace's `tests/determinism.rs`.

use std::time::Instant;

use poetbin_bench::report::{write_named_root, Json};
use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_boost::RincNode;
use poetbin_core::scenarios::{Scenario, ScenarioKind};
use poetbin_engine::{Backend, Engine};
use poetbin_fpga::{map_to_lut6, prune, simulate, PowerModel, PowerReport, TimingModel};
use poetbin_power::{energy_grid, BankGrid, EnergyGrid, ModuleGrid, PAPER_CLASSIFIERS};

/// The paper's figures for one Table 1 row, in `ScenarioKind::ALL` order.
struct Paper {
    /// Table 3: dynamic, static and total power, W.
    power_w: [f64; 3],
    /// Table 6, J/inference, in [`ENERGY_ROWS`] order.
    energy_j: [f64; 5],
    /// Table 7.
    latency_ns: f64,
    luts: usize,
    /// §4.3's LUT hand count; the paper audits only SVHN.
    hand_count: Option<usize>,
}

const PAPER: [Paper; 3] = [
    Paper {
        power_w: [0.468, 0.045, 0.513],
        energy_j: [8.0e-5, 8.5e-6, 1.7e-5, 2.1e-7, 8.2e-9],
        latency_ns: 9.11,
        luts: 11_899,
        hand_count: None,
    },
    Paper {
        power_w: [0.300, 0.041, 0.341],
        energy_j: [5.7e-3, 6.0e-4, 1.2e-3, 3.9e-5, 5.4e-9],
        latency_ns: 9.48,
        luts: 9_650,
        hand_count: None,
    },
    Paper {
        power_w: [0.374, 0.043, 0.417],
        energy_j: [1.6e-3, 1.0e-4, 3.6e-4, 9.2e-6, 4.1e-9],
        latency_ns: 5.85,
        luts: 2_660,
        hand_count: Some(2_660),
    },
];

/// Table 3's rows and their artifact keys, in [`watts`] order.
const POWER_ROWS: [&str; 3] = ["DYNAMIC", "STATIC", "TOTAL"];
const POWER_KEYS: [&str; 3] = ["dynamic_w", "static_w", "total_w"];

fn watts(p: &PowerReport) -> [f64; 3] {
    [p.dynamic_w(), p.static_w, p.total_w()]
}

/// Table 6's rows, in [`energies`] order.
const ENERGY_ROWS: [&str; 5] = [
    "VANILLA",
    "16-BIT QUANT",
    "32-BIT QUANT",
    "1-BIT QUANT",
    "POET-BIN",
];

fn energies(e: &EnergyGrid) -> [f64; 5] {
    [e.vanilla_j, e.int16_j, e.int32_j, e.binary_j, e.poetbin_j]
}

/// What the tables print and the claims check reads of one scenario.
struct Figures {
    kind: ScenarioKind,
    /// `a1`–`a4` (Table 2) and the RINC bank's test fidelity.
    accuracy: [(&'static str, f64); 5],
    sim_backend: &'static str,
    /// Whether the engine reproduced the gate-level simulation's outputs.
    engine_matches_sim: bool,
    /// Intermediate neurons of the architecture (`classes · P`).
    neurons: usize,
    /// RINC modules in the trained bank.
    modules: usize,
    /// §4.3's hand count for the configured architecture.
    hand_count: usize,
    logical_luts: usize,
    mapped_luts: usize,
    pruned_luts: usize,
    critical_path_ns: f64,
    /// Table 3: simulated power of the pruned netlist.
    power: PowerReport,
    /// Table 6: the conventional rows and the simulated PoET-BiN energy.
    energy: EnergyGrid,
}

fn ms_since(t: Instant) -> Json {
    Json::Int(t.elapsed().as_millis() as i64)
}

/// An object of float fields.
fn floats(pairs: impl IntoIterator<Item = (&'static str, f64)>) -> Json {
    Json::obj(pairs.into_iter().map(|(key, v)| (key, Json::Float(v))))
}

/// Trains one scenario and pushes its classifier through map → prune →
/// simulate → power, timing each stage. Returns the figures and the
/// scenario's `BENCH_pipeline.json` entry.
fn measure(scenario: &Scenario, backend: Backend) -> (Figures, Json) {
    let report = scenario.run();
    let (kind, arch) = (scenario.kind, &scenario.config.arch);
    let clock_mhz = kind.clock_mhz();

    let t = Instant::now();
    let (mapped, _) = map_to_lut6(&report.classifier.to_netlist(512));
    let map_ms = ms_since(t);
    let t = Instant::now();
    let (pruned, prune_report) = prune(&mapped);
    let prune_ms = ms_since(t);
    let vectors: Vec<BitVec> = report
        .test_features
        .iter_rows()
        .take(256)
        .cloned()
        .collect();
    let t = Instant::now();
    let sim = simulate(&pruned, &vectors);
    let simulate_ms = ms_since(t);
    // Cross-check the gate-level activity simulation against the blocked
    // engine on the requested backend: both walk the same pruned netlist,
    // so their outputs must be bit-identical on every vector.
    let engine = Engine::from_netlist(&pruned)
        .expect("pruned netlist compiles")
        .with_backend(backend);
    let engine_matches_sim = engine.eval_batch(&FeatureMatrix::from_rows(vectors)) == sim.outputs;
    // The power stage also runs the (much cheaper) timing analysis.
    let t = Instant::now();
    let power = PowerModel::default().estimate(&pruned, &sim, clock_mhz);
    let timing = TimingModel::default().analyze(&pruned);
    let power_ms = ms_since(t);

    let grid: BankGrid = report
        .classifier
        .bank()
        .modules()
        .iter()
        .map(|node| match node {
            // A bare tree is one LUT; a hierarchy reports its own stats.
            RincNode::Tree(_) => (1, 1, 0),
            RincNode::Module(m) => {
                let s = m.stats();
                (s.luts, s.trees, s.mats)
            }
        })
        .map(|(luts, trees, mats)| ModuleGrid { luts, trees, mats })
        .collect();
    let widths = PAPER_CLASSIFIERS
        .iter()
        .find(|(name, _)| *name == kind.paper_name())
        .map(|(_, w)| *w)
        .expect("every scenario maps to a paper classifier row");
    let energy = energy_grid(widths, clock_mhz, power.energy_per_inference_j(clock_mhz));
    let accuracy = [
        ("a1", report.a1),
        ("a2", report.a2),
        ("a3", report.a3),
        ("a4", report.a4),
        ("rinc_fidelity", report.rinc_fidelity),
    ];
    let int = |n: usize| Json::Int(n as i64);
    let totals = grid.totals();
    let fig = Figures {
        kind,
        accuracy,
        sim_backend: engine.backend_name(),
        engine_matches_sim,
        neurons: arch.intermediate_width(),
        modules: grid.modules.len(),
        // §4.3: a RINC-2 module is `top_groups` subgroups of P trees plus
        // their MAT, under one top MAT; the output layer is q LUTs a class.
        hand_count: (arch.top_groups() * (arch.lut_inputs + 1) + 1) * arch.intermediate_width()
            + scenario.config.q_bits as usize * arch.classes,
        logical_luts: report.classifier.lut_count(),
        mapped_luts: mapped.area().luts,
        pruned_luts: pruned.area().luts,
        critical_path_ns: timing.critical_path_ns,
        power,
        energy,
    };
    let json = Json::obj([
        ("name", Json::str(kind.name())),
        ("paper_name", Json::str(kind.paper_name())),
        ("arch", Json::str(report.arch)),
        ("source", Json::str(report.source.label())),
        ("train_examples", int(report.train_examples)),
        ("test_examples", int(report.test_examples)),
        ("accuracy", floats(accuracy)),
        (
            "timing_ms",
            Json::obj([
                ("teacher", Json::Int(report.teacher_ms as i64)),
                ("bank", Json::Int(report.bank_ms as i64)),
                ("output", Json::Int(report.output_ms as i64)),
                ("map", map_ms),
                ("prune", prune_ms),
                ("simulate", simulate_ms),
                ("power", power_ms),
            ]),
        ),
        (
            "simulate",
            Json::obj([
                ("backend", Json::str(fig.sim_backend)),
                ("engine_matches_sim", Json::Bool(engine_matches_sim)),
            ]),
        ),
        ("power", floats(POWER_KEYS.into_iter().zip(watts(&power)))),
        (
            "resources",
            Json::obj([
                ("logical_luts", int(fig.logical_luts)),
                ("mapped_luts", int(fig.mapped_luts)),
                ("pruned_luts", int(fig.pruned_luts)),
                ("prune_reduction", Json::Float(prune_report.lut_reduction())),
                ("critical_path_ns", Json::Float(fig.critical_path_ns)),
                ("hand_count", int(fig.hand_count)),
                (
                    "grid",
                    Json::obj([
                        ("modules", int(fig.modules)),
                        ("luts", int(totals.luts)),
                        ("trees", int(totals.trees)),
                        ("mats", int(totals.mats)),
                    ]),
                ),
            ]),
        ),
        (
            "energy",
            Json::obj([
                ("clock_mhz", Json::Float(clock_mhz)),
                ("vanilla_j", Json::Float(energy.vanilla_j)),
                ("int16_j", Json::Float(energy.int16_j)),
                ("int32_j", Json::Float(energy.int32_j)),
                ("binary_j", Json::Float(energy.binary_j)),
                ("poetbin_j", Json::Float(energy.poetbin_j)),
                ("poetbin_wins", Json::Bool(energy.poetbin_wins())),
            ]),
        ),
    ]);
    (fig, json)
}

/// Checks the paper's claims against the measured scenarios, returning one
/// line per failed claim (empty when every claim holds).
fn failed_claims(figs: &[Figures]) -> Vec<String> {
    let mut failed = Vec::new();
    for kind in ScenarioKind::ALL {
        if !figs.iter().any(|f| f.kind == kind) {
            failed.push(format!("{}: scenario missing", kind.name()));
        }
    }
    for f in figs {
        let mut claim = |holds: bool, what: String| {
            if !holds {
                failed.push(format!("{}: {what}", f.kind.name()));
            }
        };
        for (key, v) in f.accuracy {
            let ok = (0.0..=1.0).contains(&v);
            claim(ok, format!("{key} = {v} is outside [0, 1]"));
        }
        let e = energies(&f.energy);
        let positive = e.iter().all(|&j| j > 0.0);
        claim(positive, format!("an energy is not positive: {e:?}"));
        let [vanilla, int16, int32, binary, poetbin] = e;
        let ordered = vanilla > int32 && int32 > int16 && int16 > binary && binary > poetbin;
        claim(
            ordered,
            format!("energies break vanilla > int32 > int16 > binary > PoET-BiN: {e:?}"),
        );
        let backend = f.sim_backend;
        claim(
            f.engine_matches_sim,
            format!("{backend} engine differs from the simulation"),
        );
        claim(f.pruned_luts > 0, "no LUT survives pruning".into());
        let (pruned, mapped) = (f.pruned_luts, f.mapped_luts);
        claim(
            pruned <= mapped,
            format!("{pruned} pruned LUTs exceed {mapped} mapped"),
        );
        let (modules, neurons) = (f.modules, f.neurons);
        claim(
            modules == neurons,
            format!("{modules} bank modules for {neurons} neurons"),
        );
        let (logical, hand) = (f.logical_luts, f.hand_count);
        claim(
            logical <= hand,
            format!("{logical} logical LUTs exceed the hand count {hand}"),
        );
    }
    failed
}

/// Prints a table title and one column header per scenario, aligned with
/// [`row`].
fn header(title: &str, figs: &[Figures]) {
    print!("\n=== {title}, measured (paper) ===\n{:14}", "");
    for f in figs {
        print!("{:>22}", f.kind.paper_name());
    }
    println!("\n{}", "-".repeat(14 + 22 * figs.len()));
}

/// Prints one table row: each scenario's measured value, then the paper's
/// in parentheses where the paper gives one.
fn row(
    label: &str,
    figs: &[Figures],
    fmt: fn(f64) -> String,
    cell: impl Fn(&Figures, &Paper) -> (f64, Option<f64>),
) {
    print!("{label:<14}");
    for f in figs {
        let text = match cell(f, &PAPER[f.kind as usize]) {
            (measured, Some(paper)) => format!("{} ({})", fmt(measured), fmt(paper)),
            (measured, None) => fmt(measured),
        };
        print!("{text:>22}");
    }
    println!();
}

fn print_tables(figs: &[Figures]) {
    let watt = |v: f64| format!("{v:.3}");
    let joule = |v: f64| format!("{v:.2e}");
    let times = |v: f64| format!("{v:.0}x");
    let ns = |v: f64| format!("{v:.2}");
    let count = |v: f64| format!("{v:.0}");
    header("Table 3: PoET-BiN power, W", figs);
    for (i, label) in POWER_ROWS.iter().enumerate() {
        row(label, figs, watt, |f, p| {
            (watts(&f.power)[i], Some(p.power_w[i]))
        });
    }
    header("Table 6: energy per inference, J", figs);
    for (i, label) in ENERGY_ROWS.iter().enumerate() {
        row(label, figs, joule, |f, p| {
            (energies(&f.energy)[i], Some(p.energy_j[i]))
        });
    }
    header("Table 6: row energy / PoET-BiN energy", figs);
    for (i, label) in ENERGY_ROWS[..4].iter().enumerate() {
        row(label, figs, times, |f, p| {
            let e = energies(&f.energy);
            (e[i] / e[4], Some(p.energy_j[i] / p.energy_j[4]))
        });
    }
    header("Table 7: latency and LUTs", figs);
    row("LATENCY (NS)", figs, ns, |f, p| {
        (f.critical_path_ns, Some(p.latency_ns))
    });
    row("LUTS PRUNED", figs, count, |f, p| {
        (f.pruned_luts as f64, Some(p.luts as f64))
    });
    row("LUTS MAPPED", figs, count, |f, _| {
        (f.mapped_luts as f64, None)
    });
    row("LUTS LOGICAL", figs, count, |f, _| {
        (f.logical_luts as f64, None)
    });
    row("HAND COUNT", figs, count, |f, p| {
        (f.hand_count as f64, p.hand_count.map(|n| n as f64))
    });
}

fn main() {
    let quick = std::env::var("POETBIN_PIPELINE_QUICK").is_ok();
    // `--backend interp|jit|auto` pins the engine backend used for the
    // simulate cross-check (auto when absent).
    let mut backend = Backend::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => match args.next().map(|v| v.parse()) {
                Some(Ok(b)) => backend = b,
                _ => {
                    eprintln!("pipeline: --backend must be one of interp, jit, auto");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("pipeline: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let (figs, scenarios): (Vec<Figures>, Vec<Json>) = ScenarioKind::ALL
        .iter()
        .map(|&kind| {
            let scenario = if quick {
                Scenario::quick(kind)
            } else {
                Scenario::full(kind)
            };
            let t = Instant::now();
            let (f, json) = measure(&scenario, backend);
            let secs = t.elapsed().as_secs_f64();
            println!("{}: {:?} ({secs:.1} s)", kind.name(), f.accuracy);
            (f, json)
        })
        .unzip();
    print_tables(&figs);

    let failed = failed_claims(&figs);
    if !failed.is_empty() {
        for claim in &failed {
            eprintln!("pipeline: claim failed: {claim}");
        }
        std::process::exit(1);
    }
    println!("\nall claims hold");
    let doc = Json::obj([
        ("bench", Json::str("pipeline")),
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        ("scenarios", Json::Arr(scenarios)),
    ]);
    match write_named_root("pipeline", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_pipeline.json: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run of all three scenarios for which every claim holds.
    fn passing_run() -> Vec<Figures> {
        ScenarioKind::ALL
            .iter()
            .zip(PAPER_CLASSIFIERS)
            .map(|(&kind, (_, widths))| Figures {
                kind,
                accuracy: [("a", 0.5); 5],
                sim_backend: "interp",
                engine_matches_sim: true,
                neurons: 80,
                modules: 80,
                hand_count: 880,
                logical_luts: 880,
                mapped_luts: 3280,
                pruned_luts: 3047,
                critical_path_ns: 7.29,
                power: PowerReport::default(),
                energy: energy_grid(widths, kind.clock_mhz(), 9.2e-9),
            })
            .collect()
    }

    #[test]
    fn each_doctored_run_fails_exactly_its_claim() {
        assert_eq!(PAPER[ScenarioKind::Svhn as usize].hand_count, Some(2_660));
        assert_eq!(failed_claims(&passing_run()), Vec::<String>::new());
        let mut run = passing_run();
        run.remove(1);
        assert_eq!(failed_claims(&run), ["cifar: scenario missing"]);
        type Doctor = fn(&mut Figures);
        let cases: [(&str, Doctor); 8] = [
            ("a = 1.5 is outside [0, 1]", |f| f.accuracy[3].1 = 1.5),
            ("an energy is not positive", |f| f.energy.poetbin_j = 0.0),
            ("energies break", |f| f.energy.int16_j = 1.0),
            ("interp engine differs", |f| f.engine_matches_sim = false),
            ("no LUT survives", |f| f.pruned_luts = 0),
            ("3281 pruned LUTs exceed 3280", |f| f.pruned_luts = 3281),
            ("79 bank modules for 80 neurons", |f| f.modules = 79),
            ("881 logical LUTs exceed", |f| f.logical_luts = 881),
        ];
        for (claim, doctor) in cases {
            let mut run = passing_run();
            doctor(&mut run[2]);
            let failed = failed_claims(&run);
            assert_eq!(failed.len(), 1, "{claim}: {failed:?}");
            assert!(
                failed[0].starts_with(&format!("svhn: {claim}")),
                "{failed:?}"
            );
        }
    }
}
