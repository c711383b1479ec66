//! Cross-backend conformance over checked-in model fixtures, in both
//! formats.
//!
//! Every inference backend in the workspace must agree bit-for-bit on the
//! same trained model: the scalar software path
//! (`PoetBinClassifier::predict`), the compiled batch engine
//! (`ClassifierEngine`, single- and multi-shard, every lane-block width
//! `B ∈ {1, 4, 8}`), the serving packed path (`predict_block_into` over
//! one packed lane word and over a multi-word block, including partial
//! tails), and the FPGA netlist simulator. The fixtures under
//! `tests/fixtures/` are golden — each model checked in twice,
//! `<name>.poetbin` (`POETBIN1`) beside `<name>.poetbin2` (`POETBIN2`).
//! Their bytes must never drift (the model format is versioned — breaking
//! it silently would strand deployed models), both formats must decode to
//! the identical classifier, and their predictions on the deterministic
//! probe rows are pinned below. The compact format must also *stay*
//! compact: the `deep` twin is gated at ≤ 70% of its `POETBIN1` size.
//!
//! Fixtures are regenerated deliberately with
//! `cargo run -p poetbin_bench --bin gen_fixture`, which also prints the
//! golden arrays to paste here.

use poetbin_bits::{pack_block_rows, BitVec, FeatureMatrix};
use poetbin_core::persist::{load_classifier, save_classifier, ModelFormat};
use poetbin_core::PoetBinClassifier;
use poetbin_engine::ClassifierEngine;
use poetbin_fpga::simulate;

/// `(fixture name, feature width, golden predictions of the first 32
/// probe rows)` — printed by `gen_fixture`. Each name exists on disk in
/// both formats; the goldens apply to both (they decode identically).
const FIXTURES: [(&str, usize, [usize; 32]); 2] = [
    (
        "tiny",
        16,
        [
            1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0,
            1, 0, 1,
        ],
    ),
    (
        "deep",
        48,
        [
            1, 2, 1, 0, 3, 3, 0, 0, 0, 3, 2, 3, 3, 0, 0, 3, 0, 2, 1, 3, 0, 1, 3, 3, 3, 2, 3, 0, 3,
            0, 1, 3,
        ],
    ),
];

/// Fixture file extension and magic for each on-disk format.
const FORMATS: [(ModelFormat, &str, &[u8; 8]); 2] = [
    (ModelFormat::PoetBin1, "poetbin", b"POETBIN1"),
    (ModelFormat::PoetBin2, "poetbin2", b"POETBIN2"),
];

fn fixture_bytes(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Loads a fixture through its `POETBIN2` file (the format equality test
/// pins that the `POETBIN1` twin decodes identically, so every backend
/// check below transitively covers both).
fn fixture_classifier(name: &str) -> PoetBinClassifier {
    load_classifier(&fixture_bytes(&format!("{name}.poetbin2"))).expect("fixture decodes")
}

/// The deterministic probe row shared with `gen_fixture.rs` (SplitMix64
/// finalizer over the (row, feature) pair).
fn probe_row(num_features: usize, i: usize) -> BitVec {
    BitVec::from_fn(num_features, |j| {
        let mut z = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(j as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & 1 == 1
    })
}

fn probe_matrix(num_features: usize, n: usize) -> FeatureMatrix {
    FeatureMatrix::from_rows((0..n).map(|i| probe_row(num_features, i)).collect())
}

/// Both model formats are load-stable and save-stable: decoding a fixture
/// and re-encoding it in the same format must reproduce the file byte for
/// byte. If this fails, an encoder changed shape — either restore
/// compatibility or bump the magic and regenerate fixtures deliberately.
#[test]
fn fixture_bytes_never_drift() {
    for (name, _, _) in FIXTURES {
        for (format, ext, magic) in FORMATS {
            let bytes = fixture_bytes(&format!("{name}.{ext}"));
            assert_eq!(&bytes[..8], magic, "{name}.{ext}: magic");
            let clf = load_classifier(&bytes).expect("fixture decodes");
            assert_eq!(
                save_classifier(&clf, format),
                bytes,
                "{name}.{ext}: save(load(fixture)) drifted from the checked-in bytes"
            );
        }
    }
}

/// The two on-disk formats are twins: they decode to the identical
/// classifier, bit for bit.
#[test]
fn formats_decode_identically() {
    for (name, _, _) in FIXTURES {
        let v1 = load_classifier(&fixture_bytes(&format!("{name}.poetbin"))).expect("v1");
        let v2 = load_classifier(&fixture_bytes(&format!("{name}.poetbin2"))).expect("v2");
        assert_eq!(v1, v2, "{name}: formats disagree");
    }
}

/// The size-regression gate: `POETBIN2` must stay substantially smaller
/// than `POETBIN1` on the `deep` fixture (the realistic multi-level
/// model). A refactor that bloats the compact encoding fails here.
#[test]
fn poetbin2_fixture_is_substantially_smaller() {
    for (name, _, _) in FIXTURES {
        let v1 = fixture_bytes(&format!("{name}.poetbin")).len();
        let v2 = fixture_bytes(&format!("{name}.poetbin2")).len();
        assert!(
            (v2 as f64) < 0.7 * v1 as f64,
            "{name}: POETBIN2 is {v2} bytes, POETBIN1 {v1} — compact format regressed"
        );
    }
}

/// The scalar software path still produces the pinned golden predictions.
#[test]
fn golden_predictions_hold() {
    for (name, f, golden) in FIXTURES {
        let clf = fixture_classifier(name);
        assert_eq!(clf.min_features(), f, "{name}: width");
        let preds = clf.predict(&probe_matrix(f, 32));
        assert_eq!(preds, golden, "{name}: scalar path drifted from golden");
    }
}

/// Scalar predict, the compiled engine (1 shard and 4 shards), the
/// serving word path and the netlist simulator agree bit-for-bit on a
/// probe batch spanning several words plus a partial tail.
#[test]
fn all_backends_agree_bit_for_bit() {
    for (name, f, _) in FIXTURES {
        let clf = fixture_classifier(name);
        let n = 200; // 3 full words + a 8-lane tail
        let batch = probe_matrix(f, n);
        let scalar = clf.predict(&batch);

        let engine = ClassifierEngine::compile(&clf, f).expect("compiles");
        assert_eq!(engine.predict(&batch), scalar, "{name}: engine(1)");
        let sharded = ClassifierEngine::compile(&clf, f)
            .expect("compiles")
            .with_threads(4);
        assert_eq!(sharded.predict(&batch), scalar, "{name}: engine(4)");
        for block in [1usize, 4, 8] {
            let blocked = ClassifierEngine::compile(&clf, f)
                .expect("compiles")
                .with_block_words(block);
            assert_eq!(blocked.predict(&batch), scalar, "{name}: engine B={block}");
        }

        // The serving path: pack rows into lane words (full words and the
        // partial tail) exactly as the micro-batcher does.
        let mut scratch = engine.scratch();
        let rows: Vec<BitVec> = (0..n).map(|i| probe_row(f, i)).collect();
        let mut served = Vec::with_capacity(n);
        for chunk in rows.chunks(64) {
            let words = pack_block_rows(chunk.iter(), f, 1);
            let mut preds = vec![0usize; chunk.len()];
            engine.predict_block_into(&words, &mut scratch, &mut preds);
            served.extend(preds);
        }
        assert_eq!(served, scalar, "{name}: serving word path");

        // The blocked serving path: all 200 rows (3 full words + a
        // partial tail) coalesced into a single 4-word masked block.
        let blocks = pack_block_rows(rows.iter(), f, n.div_ceil(64));
        let mut preds = vec![0usize; n];
        engine.predict_block_into(&blocks, &mut scratch, &mut preds);
        assert_eq!(preds, scalar, "{name}: serving block path");

        // The FPGA netlist simulator, decoded through the classifier's
        // own output-bit ordering.
        let net = clf.to_netlist(f);
        let sim = simulate(&net, &rows);
        for (v, &expect) in scalar.iter().enumerate() {
            let bits: Vec<bool> = (0..net.outputs().len())
                .map(|k| sim.outputs[k].get(v))
                .collect();
            assert_eq!(
                clf.argmax_from_output_bits(&bits),
                expect,
                "{name}: netlist sim disagrees on vector {v}"
            );
        }
    }
}
