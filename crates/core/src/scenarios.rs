//! Paper-scale scenario harness: end-to-end A1→A4 runs on MNIST-, CIFAR-
//! and SVHN-shaped tasks.
//!
//! A [`Scenario`] bundles a dataset shape ([`ScenarioKind`]), a
//! [`WorkflowConfig`] and split sizes. [`Scenario::run`] resolves the
//! dataset (real CIFAR-binary or IDX files under the scenario's data
//! directory when present, seeded synthetic stand-ins otherwise), drives
//! the staged workflow, training the RINC bank once at
//! [`WorkflowConfig::bank_shards`], and returns a [`ScenarioReport`]
//! carrying the Table 2 staged accuracies, RINC fidelity, per-stage
//! timings and the trained classifier — everything `poetbin_bench`'s
//! `pipeline` binary needs to render Tables 3, 6 and 7 and write
//! `BENCH_pipeline.json`. The bank is bit-identical at every shard count;
//! `tests/sharding.rs` and the workspace's `tests/determinism.rs` prove
//! it, so a run trains it only once.

use std::path::PathBuf;
use std::time::Instant;

use poetbin_bits::FeatureMatrix;
use poetbin_data::scenario::{load_cifar_split, load_idx_split, DataSource};
use poetbin_data::{synthetic, ImageDataset};

use crate::arch::Architecture;
use crate::classifier::PoetBinClassifier;
use crate::workflow::{Workflow, WorkflowConfig};

/// Which paper dataset a scenario is shaped like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// 28×28 grayscale digits — the M1 row (Table 1).
    Mnist,
    /// 32×32 RGB objects — the C1 row.
    Cifar,
    /// 32×32 RGB house numbers — the S1 row.
    Svhn,
}

impl ScenarioKind {
    /// All scenario kinds, in paper-table order.
    pub const ALL: [ScenarioKind; 3] =
        [ScenarioKind::Mnist, ScenarioKind::Cifar, ScenarioKind::Svhn];

    /// Stable lowercase scenario name (also the `data/` subdirectory).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Mnist => "mnist",
            ScenarioKind::Cifar => "cifar",
            ScenarioKind::Svhn => "svhn",
        }
    }

    /// The paper-table row label, matching
    /// `poetbin_power::PAPER_CLASSIFIERS`.
    pub fn paper_name(self) -> &'static str {
        match self {
            ScenarioKind::Mnist => "MNIST",
            ScenarioKind::Cifar => "CIFAR-10",
            ScenarioKind::Svhn => "SVHN",
        }
    }

    /// The Table 1 architecture row for this dataset.
    pub fn architecture(self) -> Architecture {
        match self {
            ScenarioKind::Mnist => Architecture::m1(),
            ScenarioKind::Cifar => Architecture::c1(),
            ScenarioKind::Svhn => Architecture::s1(),
        }
    }

    /// PoET-BiN classifier clock used for the energy tables (§4.2: SVHN
    /// reported at 100 MHz, the rest at 62.5 MHz).
    pub fn clock_mhz(self) -> f64 {
        match self {
            ScenarioKind::Svhn => 100.0,
            _ => 62.5,
        }
    }

    /// Generates `n` synthetic examples with this dataset's shape.
    pub fn synthetic(self, n: usize, seed: u64) -> ImageDataset {
        match self {
            ScenarioKind::Mnist => synthetic::digits(n, seed),
            ScenarioKind::Cifar => synthetic::objects(n, seed),
            ScenarioKind::Svhn => synthetic::house_numbers(n, seed),
        }
    }
}

/// One configured end-to-end run: dataset shape, workflow settings and
/// split sizes.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Dataset shape and architecture row.
    pub kind: ScenarioKind,
    /// The workflow settings (architecture, teacher budget, quantisation).
    pub config: WorkflowConfig,
    /// Training examples to use (IDX corpora are truncated to this).
    pub train_examples: usize,
    /// Test examples to use.
    pub test_examples: usize,
    /// Seed for the synthetic fallback generator.
    pub seed: u64,
    /// Directory searched for the four standard IDX files.
    pub data_dir: PathBuf,
}

impl Scenario {
    /// The paper-scale scenario: the full Table 1 row (hidden widths
    /// scaled to 256 for CPU training, as in
    /// [`WorkflowConfig::paper_m1`]) on a 60k/10k split — hours of CPU
    /// time; see [`Scenario::quick`] for the CI-sized variant.
    pub fn full(kind: ScenarioKind) -> Self {
        let config = WorkflowConfig {
            arch: kind.architecture().scaled(256),
            ..WorkflowConfig::paper_m1()
        };
        Scenario {
            kind,
            config,
            train_examples: 60_000,
            test_examples: 10_000,
            seed: 17,
            data_dir: PathBuf::from("data").join(kind.name()),
        }
    }

    /// A minutes-scale variant preserving every stage: smaller hidden
    /// widths, one tree subgroup per module, a 1200/400 split and fewer
    /// epochs — what `POETBIN_PIPELINE_QUICK=1` runs in CI.
    pub fn quick(kind: ScenarioKind) -> Self {
        let mut scenario = Scenario::full(kind);
        scenario.config.arch = kind.architecture().scaled(96);
        // One subgroup of P trees keeps the RINC-2 shape (tree level +
        // MAT levels) while cutting module training ~4×.
        scenario.config.arch.trees_per_module = scenario.config.arch.lut_inputs;
        scenario.config.teacher.epochs = 3;
        scenario.config.output_epochs = 10;
        scenario.train_examples = 1_200;
        scenario.test_examples = 400;
        scenario
    }

    /// Resolves the dataset, preferring real corpora under
    /// [`Scenario::data_dir`] over the seeded synthetic stand-in: first
    /// the CIFAR-10 binary batch layout (the native drop for
    /// `data/cifar/` and for SVHN converted to the same record format
    /// under `data/svhn/`), then the four-file IDX layout (MNIST's
    /// native format) — in either case only when the image shape matches
    /// the architecture's input. Both paths are truncated to the
    /// configured split sizes.
    pub fn load_data(&self) -> (ImageDataset, ImageDataset, DataSource) {
        let expect = self.config.arch.feature_extractor.input_shape();
        let truncate = |train: ImageDataset, test: ImageDataset| {
            let train_n = self.train_examples.min(train.len());
            let test_n = self.test_examples.min(test.len());
            (
                train.subset(&(0..train_n).collect::<Vec<_>>()),
                test.subset(&(0..test_n).collect::<Vec<_>>()),
            )
        };
        match load_cifar_split(&self.data_dir) {
            Ok(Some((train, test))) if train.image_shape() == expect => {
                let (train, test) = truncate(train, test);
                return (train, test, DataSource::Cifar);
            }
            Ok(Some((train, _))) => {
                eprintln!(
                    "[{}] cifar batches in {} have shape {:?}, expected {:?}; ignoring them",
                    self.kind.name(),
                    self.data_dir.display(),
                    train.image_shape(),
                    expect
                );
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!(
                    "[{}] cifar batches in {} are unreadable ({e}); ignoring them",
                    self.kind.name(),
                    self.data_dir.display()
                );
            }
        }
        match load_idx_split(&self.data_dir) {
            Ok(Some((train, test))) if train.image_shape() == expect => {
                let (train, test) = truncate(train, test);
                return (train, test, DataSource::Idx);
            }
            Ok(Some((train, _))) => {
                eprintln!(
                    "[{}] idx files in {} have shape {:?}, expected {:?}; using synthetic data",
                    self.kind.name(),
                    self.data_dir.display(),
                    train.image_shape(),
                    expect
                );
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!(
                    "[{}] idx files in {} are unreadable ({e}); using synthetic data",
                    self.kind.name(),
                    self.data_dir.display()
                );
            }
        }
        let data = self
            .kind
            .synthetic(self.train_examples + self.test_examples, self.seed);
        let (train, test) = data.split(self.train_examples);
        (train, test, DataSource::Synthetic)
    }

    /// Runs the full staged pipeline: teacher, RINC bank (once, at the
    /// configured shard count) and output layer, each timed.
    pub fn run(&self) -> ScenarioReport {
        let (train, test, source) = self.load_data();
        let workflow = Workflow::new(self.config.clone());

        let t = Instant::now();
        let art = workflow.teacher_stage(&train, &test);
        let teacher_ms = t.elapsed().as_millis() as u64;

        let t = Instant::now();
        let bank = workflow.rinc_stage(&art);
        let bank_ms = t.elapsed().as_millis() as u64;
        let rinc_fidelity = bank.fidelity(&art.test_features, &art.test_inter);

        let t = Instant::now();
        let classifier = workflow.output_stage(bank, &art, &train.labels);
        let output_ms = t.elapsed().as_millis() as u64;
        let a4 = classifier.accuracy(&art.test_features, &test.labels);

        ScenarioReport {
            name: self.kind.name().to_string(),
            paper_name: self.kind.paper_name().to_string(),
            arch: self.config.arch.name.clone(),
            source,
            train_examples: train.len(),
            test_examples: test.len(),
            a1: art.teacher.a1,
            a2: art.teacher.a2,
            a3: art.teacher.a3,
            a4,
            rinc_fidelity,
            teacher_ms,
            bank_ms,
            output_ms,
            classifier,
            test_features: art.test_features,
            test_labels: test.labels,
        }
    }
}

/// Everything a scenario run produced: the Table 2 staged accuracies,
/// fidelity, per-stage timings, and the trained classifier (so callers
/// can push it through the fpga/power stack for the Tables 3–7 grid).
pub struct ScenarioReport {
    /// Scenario name (`mnist`, `cifar`, `svhn`).
    pub name: String,
    /// Paper-table row label (`MNIST`, `CIFAR-10`, `SVHN`).
    pub paper_name: String,
    /// Architecture name the run used.
    pub arch: String,
    /// Whether real IDX files or synthetic stand-ins were used.
    pub source: DataSource,
    /// Training examples actually used.
    pub train_examples: usize,
    /// Test examples actually used.
    pub test_examples: usize,
    /// Vanilla network test accuracy (Table 2, A1).
    pub a1: f64,
    /// Binary-feature network test accuracy (A2).
    pub a2: f64,
    /// Binary-intermediate teacher test accuracy (A3).
    pub a3: f64,
    /// PoET-BiN test accuracy (A4).
    pub a4: f64,
    /// Mean RINC/teacher agreement on the test set.
    pub rinc_fidelity: f64,
    /// Wall-clock of the teacher stage (A1–A3), milliseconds.
    pub teacher_ms: u64,
    /// Wall-clock of the RINC bank stage, milliseconds.
    pub bank_ms: u64,
    /// Wall-clock of the output stage, milliseconds.
    pub output_ms: u64,
    /// The trained classifier.
    pub classifier: PoetBinClassifier,
    /// Binary features of the test split (for hardware simulation).
    pub test_features: FeatureMatrix,
    /// Labels of the test split.
    pub test_labels: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use poetbin_data::idx;
    use poetbin_data::scenario::IDX_FILES;

    #[test]
    fn kinds_map_to_table1_rows() {
        assert_eq!(ScenarioKind::Mnist.architecture().name, "M1");
        assert_eq!(ScenarioKind::Cifar.architecture().name, "C1");
        assert_eq!(ScenarioKind::Svhn.architecture().name, "S1");
        assert_eq!(ScenarioKind::Svhn.clock_mhz(), 100.0);
        assert_eq!(ScenarioKind::Mnist.clock_mhz(), 62.5);
        for kind in ScenarioKind::ALL {
            assert!(!kind.name().is_empty());
            assert!(!kind.paper_name().is_empty());
            let shape = kind.architecture().feature_extractor.input_shape();
            assert_eq!(kind.synthetic(2, 1).image_shape(), shape);
        }
    }

    #[test]
    fn quick_scenarios_keep_rinc2_shape() {
        for kind in ScenarioKind::ALL {
            let s = Scenario::quick(kind);
            assert_eq!(s.config.arch.rinc_levels, 2);
            // One subgroup of P trees still divides cleanly.
            assert_eq!(s.config.arch.top_groups(), 1);
            assert!(s.train_examples < Scenario::full(kind).train_examples);
        }
    }

    #[test]
    fn missing_data_dir_falls_back_to_synthetic() {
        let mut s = Scenario::quick(ScenarioKind::Mnist);
        s.data_dir = std::env::temp_dir().join("poetbin_scenarios_nothing_here");
        s.train_examples = 30;
        s.test_examples = 10;
        let (train, test, source) = s.load_data();
        assert_eq!(source, DataSource::Synthetic);
        assert_eq!(train.len(), 30);
        assert_eq!(test.len(), 10);
        assert_eq!(train.image_shape(), (1, 28, 28));
    }

    #[test]
    fn idx_data_dir_is_preferred_and_truncated() {
        let dir = std::env::temp_dir().join("poetbin_scenarios_idx");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = poetbin_data::synthetic::digits(40, 9);
        let (train, test) = data.split(30);
        std::fs::write(dir.join(IDX_FILES[0]), idx::encode_images(&train.images)).unwrap();
        std::fs::write(dir.join(IDX_FILES[1]), idx::encode_labels(&train.labels)).unwrap();
        std::fs::write(dir.join(IDX_FILES[2]), idx::encode_images(&test.images)).unwrap();
        std::fs::write(dir.join(IDX_FILES[3]), idx::encode_labels(&test.labels)).unwrap();

        let mut s = Scenario::quick(ScenarioKind::Mnist);
        s.data_dir = dir;
        s.train_examples = 20;
        s.test_examples = 5;
        let (ltrain, ltest, source) = s.load_data();
        assert_eq!(source, DataSource::Idx);
        assert_eq!(ltrain.len(), 20);
        assert_eq!(ltest.len(), 5);
        assert_eq!(ltrain.labels, train.labels[..20]);
    }

    #[test]
    fn cifar_batches_are_preferred_and_truncated() {
        use poetbin_data::cifar;
        use poetbin_data::scenario::CIFAR_FILES;
        let dir = std::env::temp_dir().join("poetbin_scenarios_cifar");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = poetbin_data::synthetic::objects(25, 11);
        let (train, test) = data.split(20);
        let per = 4; // 5 batches × 4 records
        for (i, name) in CIFAR_FILES[..5].iter().enumerate() {
            let part = train.subset(&(i * per..(i + 1) * per).collect::<Vec<_>>());
            std::fs::write(dir.join(name), cifar::encode_batch(&part)).unwrap();
        }
        std::fs::write(dir.join(CIFAR_FILES[5]), cifar::encode_batch(&test)).unwrap();

        let mut s = Scenario::quick(ScenarioKind::Cifar);
        s.data_dir = dir;
        s.train_examples = 12;
        s.test_examples = 3;
        let (ltrain, ltest, source) = s.load_data();
        assert_eq!(source, DataSource::Cifar);
        assert_eq!(ltrain.len(), 12);
        assert_eq!(ltest.len(), 3);
        assert_eq!(ltrain.labels, train.labels[..12]);
        assert_eq!(ltrain.image_shape(), (3, 32, 32));
    }

    #[test]
    fn shape_mismatched_idx_falls_back() {
        // MNIST-shaped files offered to a CIFAR scenario (3×32×32 input):
        // the loader must notice and use synthetic data instead.
        let dir = std::env::temp_dir().join("poetbin_scenarios_mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = poetbin_data::synthetic::digits(12, 4);
        let (train, test) = data.split(8);
        std::fs::write(dir.join(IDX_FILES[0]), idx::encode_images(&train.images)).unwrap();
        std::fs::write(dir.join(IDX_FILES[1]), idx::encode_labels(&train.labels)).unwrap();
        std::fs::write(dir.join(IDX_FILES[2]), idx::encode_images(&test.images)).unwrap();
        std::fs::write(dir.join(IDX_FILES[3]), idx::encode_labels(&test.labels)).unwrap();

        let mut s = Scenario::quick(ScenarioKind::Cifar);
        s.data_dir = dir;
        s.train_examples = 6;
        s.test_examples = 3;
        let (train, _, source) = s.load_data();
        assert_eq!(source, DataSource::Synthetic);
        assert_eq!(train.image_shape(), (3, 32, 32));
    }
}
