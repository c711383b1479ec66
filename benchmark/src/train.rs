//! The train workloads: the A1→A4 pipeline driven stage by stage, then
//! lowered through the hardware stack. One operation is one pass over the
//! stages; passes repeat while another fits in the run's seconds.
//!
//! The synthetic training data is fixed by the scenario's own seed, so
//! every pass and every run trains the same model; `--seed` picks the test
//! rows the engine is checked on.

use std::path::PathBuf;
use std::time::Instant;

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_core::scenarios::{Scenario, ScenarioKind};
use poetbin_core::workflow::Workflow;
use poetbin_data::scenario::DataSource;
use poetbin_engine::{ClassifierEngine, Engine};
use poetbin_fpga::{map_to_lut6, prune, simulate, PowerModel, TimingModel};
use poetbin_power::{energy_grid, PAPER_CLASSIFIERS};

use crate::model::{model_layers, Model, SplitMix64};
use crate::stats::{median, sorted};
use crate::{Ctx, Outcome};

/// The stages whose times sum to one pass, in order.
const STAGES: [&str; 10] = [
    "core.teacher",
    "core.bank",
    "core.output",
    "core.netlist",
    "fpga.map",
    "fpga.prune",
    "fpga.simulate",
    "engine.simcheck",
    "fpga.timing",
    "power.energy",
];

/// Test rows the gate-level simulation and the power model see.
const SIM_VECTORS: usize = 256;

pub struct TrainSpec {
    pub kind: ScenarioKind,
    pub train_examples: usize,
    pub test_examples: usize,
    /// Seeded test rows the engine is checked against the oracle on.
    pub check_rows: usize,
    /// Set-ups (data loads) per run; `setup_s` is their median.
    pub setups: usize,
}

impl TrainSpec {
    fn scenario(&self) -> Scenario {
        let mut s = Scenario::quick(self.kind);
        s.train_examples = self.train_examples;
        s.test_examples = self.test_examples;
        // A directory that holds no corpus, so the seeded synthetic
        // stand-in always trains. Relative, so the checkout's location
        // cannot shift the allocations the run makes.
        s.data_dir = PathBuf::from("target/benchmark/no-data");
        s.config.bank_shards = 0;
        s
    }
}

/// What one pass produced; every pass must produce the same.
#[derive(Debug, PartialEq)]
struct PassResult {
    digest: (String, String),
    a3: f64,
    a4: f64,
    fidelity: f64,
    pruned_luts: usize,
    poetbin_j: f64,
}

pub fn run(spec: &TrainSpec, ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scenario = spec.scenario();
    let kind = spec.kind;
    let tr = &mut ctx.tr;

    let mut setups = Vec::new();
    let mut data = None;
    for _ in 0..spec.setups {
        let s = tr.start("data.load", None);
        let (train, test, source) = scenario.load_data();
        setups.push(tr.end(s).as_secs_f64());
        if source != DataSource::Synthetic {
            return Err(format!(
                "{}: expected synthetic data, loaded {}",
                kind.name(),
                source.label()
            ));
        }
        data = Some((train, test));
    }
    let (train, test) = data.ok_or("no set-ups configured")?;

    let workflow = Workflow::new(scenario.config.clone());
    let widths = PAPER_CLASSIFIERS
        .iter()
        .find(|(name, _)| *name == kind.paper_name())
        .map(|(_, w)| *w)
        .ok_or("scenario has no paper classifier row")?;
    let clock = kind.clock_mhz();
    let mut passes: Vec<f64> = Vec::new();
    // Teacher and bank seconds of each pass: the two stages that set the
    // pass time.
    let (mut teacher_secs, mut bank_secs) = (Vec::new(), Vec::new());
    let mut first: Option<PassResult> = None;
    let start = Instant::now();
    let model = loop {
        let pass_start = Instant::now();
        let pass = tr.start("pass", None);
        let p = pass.id();
        let mut stage = Vec::with_capacity(STAGES.len());

        let s = tr.start(STAGES[0], p);
        let art = workflow.teacher_stage(&train, &test);
        stage.push(tr.end(s));
        let s = tr.start(STAGES[1], p);
        let bank = workflow.rinc_stage_with_shards(&art, 0);
        stage.push(tr.end(s));
        let fidelity = bank.fidelity(&art.test_features, &art.test_inter);
        let s = tr.start(STAGES[2], p);
        let clf = workflow.output_stage(bank, &art, &train.labels);
        stage.push(tr.end(s));
        let a4 = clf.accuracy(&art.test_features, &test.labels);
        let width = art.test_features.num_features();
        let s = tr.start(STAGES[3], p);
        let net = clf.to_netlist(width);
        stage.push(tr.end(s));
        let s = tr.start(STAGES[4], p);
        let (mapped, _) = map_to_lut6(&net);
        stage.push(tr.end(s));
        let s = tr.start(STAGES[5], p);
        let (pruned, _) = prune(&mapped);
        stage.push(tr.end(s));
        let vectors: Vec<BitVec> = art
            .test_features
            .iter_rows()
            .take(SIM_VECTORS)
            .cloned()
            .collect();
        let s = tr.start(STAGES[6], p);
        let sim = simulate(&pruned, &vectors);
        stage.push(tr.end(s));
        // The blocked engine walks the same pruned netlist as the
        // gate-level simulator: their outputs must be bit-identical.
        let s = tr.start(STAGES[7], p);
        let engine = Engine::from_netlist(&pruned).map_err(|e| format!("pruned netlist: {e}"))?;
        let engine_out = engine.eval_batch(&FeatureMatrix::from_rows(vectors.clone()));
        stage.push(tr.end(s));
        out.attempted += vectors.len() as u64;
        out.failed += (0..vectors.len())
            .filter(|&e| {
                engine_out
                    .iter()
                    .zip(&sim.outputs)
                    .any(|(a, b)| a.get(e) != b.get(e))
            })
            .count() as u64;
        out.backend = engine.backend_name().to_string();
        let s = tr.start(STAGES[8], p);
        let timing = TimingModel::default().analyze(&pruned);
        stage.push(tr.end(s));
        let s = tr.start(STAGES[9], p);
        let power = PowerModel::default().estimate(&pruned, &sim, clock);
        let poetbin_j = power.energy_per_inference_j(clock);
        let energy = energy_grid(widths, clock, poetbin_j);
        stage.push(tr.end(s));
        tr.end(pass);
        std::hint::black_box((timing.critical_path_ns, energy.poetbin_wins()));
        passes.push(stage.iter().map(|d| d.as_secs_f64()).sum());
        teacher_secs.push(stage[0].as_secs_f64());
        bank_secs.push(stage[1].as_secs_f64());

        // The trained classifier on the compiled engine against its scalar
        // predict, on rows the seed picks from the test split.
        let mut rng = SplitMix64::new(ctx.seed, 200);
        let n = art.test_features.num_examples();
        let rows: Vec<BitVec> = (0..spec.check_rows)
            .map(|_| {
                art.test_features
                    .row((rng.next_u64() % n as u64) as usize)
                    .clone()
            })
            .collect();
        let check = FeatureMatrix::from_rows(rows);
        let compiled =
            ClassifierEngine::compile(&clf, width).map_err(|e| format!("classifier: {e}"))?;
        let s = tr.start("engine.predict", None);
        let preds = compiled.predict(&check);
        tr.end(s);
        out.attempted += preds.len() as u64;
        out.failed += preds
            .iter()
            .zip(clf.predict(&check))
            .filter(|(p, e)| **p != *e)
            .count() as u64;

        let m = Model::from_classifier(kind.name(), &clf, width);
        let result = PassResult {
            digest: m.digest(),
            a3: art.teacher.a3,
            a4,
            fidelity,
            pruned_luts: pruned.area().luts,
            poetbin_j,
        };
        match &first {
            None => first = Some(result),
            Some(f) if *f != result => {
                out.failed += 1;
                out.flags.push(format!(
                    "pass {} trained a different model: {result:?}",
                    passes.len()
                ));
            }
            Some(_) => {}
        }
        let spent = start.elapsed().as_secs_f64();
        if spent + pass_start.elapsed().as_secs_f64() > ctx.seconds {
            break m;
        }
    };
    let result = first.expect("at least one pass");
    out.models = vec![result.digest.clone()];

    let op = median(&passes);
    out.e2e = vec![
        ("setup_s", median(&setups)),
        ("op_p50_ms", op * 1e3),
        ("op_tail_ms", sorted(&passes)[passes.len() - 1] * 1e3),
        ("throughput", train.len() as f64 / op),
    ];
    out.info("passes", passes.len() as f64, "count");
    out.info("teacher_s", median(&teacher_secs), "s");
    out.info("bank_s", median(&bank_secs), "s");
    out.info("a4", result.a4, "ratio");

    if tr.on() {
        let ms = |v: Option<f64>| v.map(|s| s * 1e3);
        out.layer("data.load_ms", ms(tr.median_secs("data.load")));
        for name in STAGES {
            let secs = tr.median_secs(name);
            match name {
                "core.teacher" | "core.bank" => out.layer(format!("{name}_s"), secs),
                _ => out.layer(format!("{name}_ms"), ms(secs)),
            }
        }
        out.layer("engine.predict_ms", ms(tr.median_secs("engine.predict")));
        out.layer("core.a3", Some(result.a3));
        out.layer("core.a4", Some(result.a4));
        out.layer("core.rinc_fidelity", Some(result.fidelity));
        out.layer("fpga.pruned_luts", Some(result.pruned_luts as f64));
        out.layer("power.poetbin_nj", Some(result.poetbin_j * 1e9));
        model_layers(tr, &mut out, &[&model], &[512], ctx.seed);
    }
    Ok(out)
}
