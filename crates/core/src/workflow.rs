//! The end-to-end PoET-BiN workflow (Figure 5): A1 → A2 → A3 → A4.

use poetbin_boost::RincConfig;
use poetbin_data::ImageDataset;

use crate::arch::Architecture;
use crate::classifier::PoetBinClassifier;
use crate::output_layer::QuantizedSparseOutput;
use crate::rinc_bank::RincBank;
use crate::teacher::{Teacher, TeacherConfig};

/// Configuration of a full workflow run.
#[derive(Clone, Debug)]
pub struct WorkflowConfig {
    /// The network architecture (Table 1 row, possibly scaled).
    pub arch: Architecture,
    /// Teacher training budget.
    pub teacher: TeacherConfig,
    /// Output-layer quantisation width `q` (the paper settles on 8).
    pub q_bits: u8,
    /// Output-layer retraining epochs.
    pub output_epochs: usize,
    /// Boosting-by-resampling seed; `None` uses exact weighted boosting.
    pub resample_seed: Option<u64>,
    /// Worker shards for `RincBank::train` (`0` = one shard per core).
    /// The trained bank is bit-identical at any value; see
    /// [`RincConfig::bank_shards`].
    pub bank_shards: usize,
}

impl WorkflowConfig {
    /// The paper's M1 configuration scaled for CPU training — the default
    /// for examples and tests.
    pub fn fast() -> Self {
        let mut arch = Architecture::m1().scaled(96);
        // P=6 with the paper's S1 tree budget (36 DTs = 6 subgroups of 6)
        // trains in under a minute on the synthetic datasets; `paper_m1`
        // selects the full P=8 / 32-DT shape.
        arch.lut_inputs = 6;
        arch.trees_per_module = 36;
        WorkflowConfig {
            arch,
            teacher: TeacherConfig::default(),
            q_bits: 8,
            output_epochs: 30,
            resample_seed: Some(17),
            bank_shards: 0,
        }
    }

    /// The paper's M1 configuration (P=8, 32 DTs, RINC-2) with scaled
    /// hidden widths.
    pub fn paper_m1() -> Self {
        WorkflowConfig {
            arch: Architecture::m1().scaled(256),
            teacher: TeacherConfig::default(),
            q_bits: 8,
            output_epochs: 30,
            resample_seed: Some(17),
            bank_shards: 0,
        }
    }

    /// The RINC configuration the workflow derives from the architecture:
    /// LUT-input width and hierarchy depth from the Table 1 row, the
    /// majority empty-leaf policy, optional resampling, and the bank shard
    /// count. Exposed so harnesses (the scenario runner, benchmarks) can
    /// train banks outside [`Workflow::run`] under identical settings.
    pub fn rinc_config(&self) -> RincConfig {
        // GlobalMajority empty-leaf labels: with resampled training data a
        // P-input tree leaves many of its 2^P leaves unvisited, and the
        // paper's literal S0<=S1 rule marks them all class 1, injecting
        // noise into every module. The majority fallback recovers several
        // points of A4.
        let mut cfg = RincConfig::new(self.arch.lut_inputs, self.arch.rinc_levels)
            .with_top_groups(self.arch.top_groups())
            .with_empty_leaf(poetbin_dt::EmptyLeafPolicy::GlobalMajority);
        if let Some(seed) = self.resample_seed {
            cfg = cfg.with_resampling(seed);
        }
        cfg.with_bank_shards(self.bank_shards)
    }
}

/// The outcome of a workflow run: the four staged accuracies of Table 2
/// plus the trained classifier.
pub struct WorkflowResult {
    /// Vanilla network test accuracy.
    pub a1: f64,
    /// Binary-feature network test accuracy.
    pub a2: f64,
    /// Teacher (binary intermediate layer) test accuracy.
    pub a3: f64,
    /// PoET-BiN test accuracy (RINC classifiers + quantised output).
    pub a4: f64,
    /// Mean RINC/teacher agreement on the test set.
    pub rinc_fidelity: f64,
    /// The trained classifier.
    pub classifier: PoetBinClassifier,
    /// Binary features of the test set (for downstream evaluation).
    pub test_features: poetbin_bits::FeatureMatrix,
    /// Binary features of the training set.
    pub train_features: poetbin_bits::FeatureMatrix,
}

/// Everything the teacher stage (A1–A3) produces: the trained teacher and
/// the binary feature / intermediate-bit matrices the distillation stages
/// consume. Produced by [`Workflow::teacher_stage`]; harnesses that want
/// to train several RINC banks against one teacher (shard-invariance
/// checks, ablations) reuse one of these instead of retraining.
pub struct TeacherArtifacts {
    /// The trained teacher network (holds the A1–A3 accuracies).
    pub teacher: Teacher,
    /// Binary features of the training set (`n × 512`).
    pub train_features: poetbin_bits::FeatureMatrix,
    /// Teacher intermediate bits on the training set — the RINC targets.
    pub train_inter: poetbin_bits::FeatureMatrix,
    /// Binary features of the test set.
    pub test_features: poetbin_bits::FeatureMatrix,
    /// Teacher intermediate bits on the test set (for fidelity).
    pub test_inter: poetbin_bits::FeatureMatrix,
}

/// Drives the full pipeline.
pub struct Workflow {
    config: WorkflowConfig,
}

impl Workflow {
    /// Creates a workflow with the given configuration.
    pub fn new(config: WorkflowConfig) -> Self {
        Workflow { config }
    }

    /// The workflow's configuration.
    pub fn config(&self) -> &WorkflowConfig {
        &self.config
    }

    /// Stages A1–A3: trains the teacher and extracts the binary features
    /// and intermediate bits for both splits.
    pub fn teacher_stage(&self, train: &ImageDataset, test: &ImageDataset) -> TeacherArtifacts {
        let cfg = &self.config;
        let mut teacher = Teacher::train(&cfg.arch, train, test, &cfg.teacher);
        let train_features = teacher.binary_features(train);
        let train_inter = teacher.intermediate_bits(train);
        let test_features = teacher.binary_features(test);
        let test_inter = teacher.intermediate_bits(test);
        TeacherArtifacts {
            teacher,
            train_features,
            train_inter,
            test_features,
            test_inter,
        }
    }

    /// Stage A4a: trains one RINC module per intermediate neuron against
    /// the teacher's bits, using the configured shard count.
    pub fn rinc_stage(&self, art: &TeacherArtifacts) -> RincBank {
        self.rinc_stage_with_shards(art, self.config.bank_shards)
    }

    /// [`Workflow::rinc_stage`] with an explicit shard-count override —
    /// the trained bank is bit-identical for every value
    /// (`tests/sharding.rs` pins this).
    pub fn rinc_stage_with_shards(&self, art: &TeacherArtifacts, shards: usize) -> RincBank {
        let cfg = self.config.rinc_config().with_bank_shards(shards);
        RincBank::train(&art.train_features, &art.train_inter, &cfg)
    }

    /// Stage A4b: retrains the sparse output layer on the bank's outputs,
    /// quantises it, and assembles the final classifier.
    pub fn output_stage(
        &self,
        bank: RincBank,
        art: &TeacherArtifacts,
        train_labels: &[usize],
    ) -> PoetBinClassifier {
        let cfg = &self.config;
        let rinc_train_bits = bank.predict_bits(&art.train_features);
        let output = QuantizedSparseOutput::train(
            &rinc_train_bits,
            train_labels,
            cfg.arch.classes,
            cfg.q_bits,
            cfg.output_epochs,
        );
        PoetBinClassifier::new(bank, output)
    }

    /// Runs A1→A4 and returns the staged accuracies and classifier.
    pub fn run(&self, train: &ImageDataset, test: &ImageDataset) -> WorkflowResult {
        let art = self.teacher_stage(train, test);
        let bank = self.rinc_stage(&art);
        let rinc_fidelity = bank.fidelity(&art.test_features, &art.test_inter);
        let classifier = self.output_stage(bank, &art, &train.labels);
        let a4 = classifier.accuracy(&art.test_features, &test.labels);

        WorkflowResult {
            a1: art.teacher.a1,
            a2: art.teacher.a2,
            a3: art.teacher.a3,
            a4,
            rinc_fidelity,
            classifier,
            test_features: art.test_features,
            train_features: art.train_features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poetbin_data::synthetic;

    #[test]
    fn fast_workflow_end_to_end() {
        let data = synthetic::digits(1200, 5);
        let (train, test) = data.split(1000);
        let mut cfg = WorkflowConfig::fast();
        cfg.teacher.epochs = 6;
        cfg.arch.trees_per_module = 6;
        let result = Workflow::new(cfg).run(&train, &test);

        // All stages clearly beat 10-class chance.
        assert!(result.a1 > 0.4, "A1 {}", result.a1);
        assert!(result.a3 > 0.3, "A3 {}", result.a3);
        assert!(result.a4 > 0.3, "A4 {}", result.a4);
        // The RINC bank must track the teacher's intermediate layer well.
        assert!(
            result.rinc_fidelity > 0.6,
            "fidelity {}",
            result.rinc_fidelity
        );
        // The classifier stays within a sane LUT budget.
        let luts = result.classifier.lut_count();
        assert!(luts > 0 && luts < 10_000, "LUTs {luts}");
    }
}
