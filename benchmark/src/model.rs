//! Seeded inputs, the models the workloads run, and the model-layer
//! replays a traced run times: decode, compile, JIT prepare, and the
//! packed predict path at a given batch size.

use std::path::Path;

use poetbin_bench::{hardware_classifier, DatasetKind};
use poetbin_bits::{pack_block_rows_into, BitVec, FeatureMatrix};
use poetbin_core::persist::{load_classifier, save_classifier, ModelFormat};
use poetbin_core::PoetBinClassifier;
use poetbin_engine::ClassifierEngine;

use crate::host::digest;
use crate::trace::Tracer;
use crate::Outcome;

/// SplitMix64: the generator every seeded input comes from.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream of `seed`; distinct `stream`s give independent inputs.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` uniformly random rows of `width` bits from stream `stream` of
/// `seed`.
pub fn seeded_rows(seed: u64, stream: u64, n: usize, width: usize) -> Vec<BitVec> {
    let mut rng = SplitMix64::new(seed, stream);
    (0..n)
        .map(|_| {
            let words = (0..width.div_ceil(64)).map(|_| rng.next_u64()).collect();
            BitVec::from_words(words, width)
        })
        .collect()
}

/// A persisted model, decoded once for the oracle.
pub struct Model {
    pub name: String,
    pub bytes: Vec<u8>,
    /// The scalar classifier: the oracle every engine output is checked
    /// against.
    pub clf: PoetBinClassifier,
    /// The row width it is compiled and served at.
    pub width: usize,
}

impl Model {
    pub fn from_bytes(name: &str, bytes: Vec<u8>, width: Option<usize>) -> Result<Model, String> {
        let clf = load_classifier(&bytes).map_err(|e| format!("model {name}: {e}"))?;
        let width = width.unwrap_or_else(|| clf.min_features());
        Ok(Model {
            name: name.to_string(),
            bytes,
            clf,
            width,
        })
    }

    pub fn read(name: &str, path: &Path) -> Result<Model, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Model::from_bytes(name, bytes, None)
    }

    pub fn from_classifier(name: &str, clf: &PoetBinClassifier, width: usize) -> Model {
        let bytes = save_classifier(clf, ModelFormat::PoetBin2);
        Model::from_bytes(name, bytes, Some(width)).expect("a saved model decodes")
    }

    pub fn digest(&self) -> (String, String) {
        (self.name.clone(), digest(&self.bytes))
    }

    /// The scalar oracle's predictions for `rows`.
    pub fn oracle(&self, rows: &[BitVec]) -> Vec<usize> {
        self.clf.predict(&FeatureMatrix::from_rows(rows.to_vec()))
    }
}

/// The paper-shaped S1 classifier (Table 1's SVHN row at the paper's
/// exact RINC structure), trained on 200 synthetic examples.
pub fn s1() -> Model {
    let (clf, _) = hardware_classifier(DatasetKind::SvhnLike, 200, 3);
    Model::from_classifier("s1", &clf, 512)
}

/// Writes `model` under `dir` so the workload can load it from disk the
/// way a server does.
pub fn write(model: &Model, dir: &Path) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.poetbin2", model.name));
    std::fs::write(&path, &model.bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Packed calls one replay span times: enough that the clock's own cost
/// is a small share of a one-lane call.
pub const CALLS_PER_SPAN: usize = 25;

/// Replays the model layers of `models` from outside and files their
/// per-layer metrics. Each span (`id` = model index) times one call of
/// `core.decode`, `engine.compile` or `engine.jit_prepare`, or a run of
/// [`CALLS_PER_SPAN`] calls of `bits.pack` / `engine.exec` at one lane
/// (`.b1`) and at `lanes[k]` lanes for model `k` (`.batch`). Every
/// replayed prediction is checked against the scalar oracle; a
/// disagreement counts as a failure.
pub fn model_layers(
    tr: &mut Tracer,
    out: &mut Outcome,
    models: &[&Model],
    lanes: &[usize],
    seed: u64,
) {
    const SPANS: usize = 40;
    let mut tape_ops = 0;
    for (k, m) in models.iter().enumerate() {
        let id = Some(k as u64);
        for _ in 0..5 {
            let s = tr.start_with("core.decode", None, id);
            let clf = load_classifier(&m.bytes).expect("model decoded before");
            tr.end(s);
            drop(clf);
        }
        let mut engine = None;
        for _ in 0..3 {
            let s = tr.start_with("engine.compile", None, id);
            let e = ClassifierEngine::compile(&m.clf, m.width).expect("model compiled before");
            tr.end(s);
            let s = tr.start_with("engine.jit_prepare", None, id);
            e.prepare_all();
            tr.end(s);
            engine = Some(e);
        }
        let engine = engine.expect("compiled three times");
        tape_ops += engine.engine().plan().tape_len();
        let mut scratch = engine.scratch();
        let rows = seeded_rows(seed, 0xE0 + k as u64, 512, m.width);
        let expected = m.oracle(&rows);
        let mut block = Vec::new();
        let mut preds = vec![0usize; 512];
        let widths = [
            ("bits.pack.b1", "engine.exec.b1", 1),
            (
                "bits.pack.batch",
                "engine.exec.batch",
                lanes[k].clamp(1, 512),
            ),
        ];
        for (pack, exec, n) in widths {
            let group = &rows[..n];
            for _ in 0..SPANS {
                let s = tr.start_with(pack, None, id);
                for _ in 0..CALLS_PER_SPAN {
                    pack_block_rows_into(group.iter(), m.width, n.div_ceil(64), &mut block);
                }
                tr.end(s);
                let s = tr.start_with(exec, None, id);
                for _ in 0..CALLS_PER_SPAN {
                    engine.predict_block_into(&block, &mut scratch, &mut preds[..n]);
                }
                tr.end(s);
                out.attempted += n as u64;
                out.failed += preds[..n]
                    .iter()
                    .zip(&expected)
                    .filter(|(p, e)| p != e)
                    .count() as u64;
            }
        }
    }
    let ms = |v: Option<f64>| v.map(|s| s * 1e3);
    let us = |v: Option<f64>| v.map(|s| s * 1e6);
    out.layer("core.decode_ms", ms(tr.median_secs("core.decode")));
    out.layer("engine.compile_ms", ms(tr.median_secs("engine.compile")));
    out.layer(
        "engine.jit_prepare_ms",
        ms(tr.median_secs("engine.jit_prepare")),
    );
    out.layer("engine.tape_ops", Some(tape_ops as f64));
    let per_call = |name| us(tr.median_secs(name)).map(|t| t / CALLS_PER_SPAN as f64);
    out.layer("engine.exec_us.b1", per_call("engine.exec.b1"));
    out.layer("engine.exec_us.batch", per_call("engine.exec.batch"));
    out.layer("bits.pack_us.batch", per_call("bits.pack.batch"));
}
