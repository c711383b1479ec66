//! The score workload: offline batch scoring on the compiled engine, no
//! serving layer. One operation is `FeatureMatrix::from_rows` over the
//! seeded rows followed by `ClassifierEngine::predict`, repeated for the
//! run's seconds; every prediction is checked against the scalar oracle.

use std::path::PathBuf;
use std::time::Instant;

use poetbin_bits::FeatureMatrix;
use poetbin_core::persist::load_classifier_from;
use poetbin_engine::{Backend, ClassifierEngine};

use crate::model::{model_layers, seeded_rows, Model};
use crate::stats::{median, percentile, sorted};
use crate::{Ctx, Outcome};

pub struct ScoreSpec {
    /// The scored model and the file set-up loads it from.
    pub model: Model,
    pub path: PathBuf,
    /// Seeded rows scored per operation.
    pub rows: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

pub fn run(spec: &ScoreSpec, ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        models: vec![spec.model.digest()],
        ..Outcome::default()
    };
    let rows = seeded_rows(ctx.seed, 100, spec.rows, spec.model.width);
    let expected = spec.model.oracle(&rows);
    let tr = &mut ctx.tr;

    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..spec.setups {
        let t = Instant::now();
        let setup = tr.start("setup", None);
        let s = tr.start("setup.decode", setup.id());
        let clf = load_classifier_from(&spec.path)
            .map_err(|e| format!("{}: {e}", spec.path.display()))?;
        tr.end(s);
        let s = tr.start("setup.compile", setup.id());
        let e = ClassifierEngine::compile(&clf, spec.model.width)
            .map_err(|e| format!("compiling {}: {e}", spec.model.name))?
            .with_backend(Backend::default());
        tr.end(s);
        let s = tr.start("setup.jit_prepare", setup.id());
        e.prepare_all();
        tr.end(s);
        tr.end(setup);
        setups.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.ok_or("no set-ups configured")?;
    out.backend = engine.backend_name().to_string();

    let mut ops = Vec::new();
    let start = Instant::now();
    while ops.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let batch = rows.clone();
        let op = tr.start("score", None);
        let s = tr.start("bits.from_rows", op.id());
        let features = FeatureMatrix::from_rows(batch);
        tr.end(s);
        let s = tr.start("engine.predict", op.id());
        let preds = engine.predict(&features);
        tr.end(s);
        ops.push(tr.end(op).as_secs_f64());
        out.attempted += rows.len() as u64;
        out.failed += preds.iter().zip(&expected).filter(|(p, e)| p != e).count() as u64;
    }

    let op = median(&ops);
    out.e2e = vec![
        ("setup_s", median(&setups)),
        ("op_p50_ms", op * 1e3),
        ("op_tail_ms", percentile(&sorted(&ops), 0.99) * 1e3),
        ("throughput", rows.len() as f64 / op),
    ];
    out.info("operations", ops.len() as f64, "count");

    if tr.on() {
        let ms = |v: Option<f64>| v.map(|s| s * 1e3);
        let from_rows = ms(tr.median_secs("bits.from_rows"));
        let predict = ms(tr.median_secs("engine.predict"));
        model_layers(tr, &mut out, &[&spec.model], &[512], ctx.seed);
        out.layer("bits.from_rows_ms", from_rows);
        out.layer("engine.predict_ms", predict);
    }
    Ok(out)
}
