//! Experiment harness shared by the per-table binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see README.md for the index). The helpers here pick the
//! dataset/architecture per paper row, scale the run to the
//! `POETBIN_SCALE` environment variable (`small` default, `medium`,
//! `full`), and format rows consistently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use poetbin_core::arch::Architecture;
use poetbin_core::teacher::TeacherConfig;
use poetbin_core::workflow::{Workflow, WorkflowConfig, WorkflowResult};
use poetbin_data::{synthetic, ImageDataset};

/// Which paper dataset a run stands in for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// MNIST-like digits (M1 row).
    MnistLike,
    /// CIFAR-10-like objects (C1 row).
    CifarLike,
    /// SVHN-like house numbers (S1 row).
    SvhnLike,
}

impl DatasetKind {
    /// All three rows in paper order.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::MnistLike,
        DatasetKind::CifarLike,
        DatasetKind::SvhnLike,
    ];

    /// Display name matching the paper's row labels.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::MnistLike => "MNIST-like",
            DatasetKind::CifarLike => "CIFAR-10-like",
            DatasetKind::SvhnLike => "SVHN-like",
        }
    }

    /// The Table 1 architecture for this row.
    pub fn architecture(self) -> Architecture {
        match self {
            DatasetKind::MnistLike => Architecture::m1(),
            DatasetKind::CifarLike => Architecture::c1(),
            DatasetKind::SvhnLike => Architecture::s1(),
        }
    }

    /// Classifier clock in MHz (§4.2: 62.5 MHz for the P=8 designs,
    /// 100 MHz for SVHN's P=6 design).
    pub fn clock_mhz(self) -> f64 {
        match self {
            DatasetKind::SvhnLike => 100.0,
            _ => 62.5,
        }
    }

    /// Generates the synthetic stand-in dataset at the given size.
    pub fn generate(self, n: usize, seed: u64) -> ImageDataset {
        match self {
            DatasetKind::MnistLike => synthetic::digits(n, seed),
            DatasetKind::CifarLike => synthetic::objects(n, seed),
            DatasetKind::SvhnLike => synthetic::house_numbers(n, seed),
        }
    }
}

/// Run sizes derived from `POETBIN_SCALE`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Training images per dataset.
    pub train: usize,
    /// Test images per dataset.
    pub test: usize,
    /// Teacher epochs.
    pub epochs: usize,
    /// Hidden width cap for the scaled architectures.
    pub hidden: usize,
    /// Whether to use the paper's full RINC budget (P, trees, levels).
    pub full_rinc: bool,
}

impl Scale {
    /// Reads `POETBIN_SCALE` (`small` default / `medium` / `full`).
    ///
    /// # Panics
    ///
    /// Panics on any other value, so a typo cannot quietly produce
    /// small-scale tables.
    pub fn from_env() -> Scale {
        let value = std::env::var_os("POETBIN_SCALE");
        let name = value.as_ref().map(|v| v.to_str().unwrap_or("<non-UTF-8>"));
        Scale::parse(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The scale named by a `POETBIN_SCALE` value; `None` (unset) is
    /// `small`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values for anything other
    /// than `small`, `medium` or `full`.
    pub fn parse(name: Option<&str>) -> Result<Scale, String> {
        match name {
            Some("full") => Ok(Scale {
                train: 8000,
                test: 2000,
                epochs: 10,
                hidden: 512,
                full_rinc: true,
            }),
            Some("medium") => Ok(Scale {
                train: 3000,
                test: 800,
                epochs: 6,
                hidden: 192,
                full_rinc: true,
            }),
            None | Some("small") => Ok(Scale {
                train: 1200,
                test: 400,
                epochs: 4,
                hidden: 96,
                full_rinc: false,
            }),
            Some(other) => Err(format!(
                "POETBIN_SCALE={other:?} is not a scale; expected small|medium|full"
            )),
        }
    }

    /// Builds the workflow configuration for one paper row at this scale.
    pub fn workflow_config(self, kind: DatasetKind) -> WorkflowConfig {
        let mut arch = kind.architecture().scaled(self.hidden);
        if !self.full_rinc {
            // Small scale: P=6, 36 trees (6 subgroups of 6), RINC-2 — the
            // S1 shape at a fraction of the P=8 training cost.
            arch.lut_inputs = 6;
            arch.trees_per_module = 36;
        }
        WorkflowConfig {
            arch,
            teacher: TeacherConfig {
                epochs: self.epochs,
                ..TeacherConfig::default()
            },
            q_bits: 8,
            output_epochs: 30,
            resample_seed: Some(17),
            bank_shards: 0,
        }
    }

    /// Runs the full A1→A4 workflow for one paper row.
    pub fn run_workflow(self, kind: DatasetKind, seed: u64) -> WorkflowResult {
        let data = kind.generate(self.train + self.test, seed);
        let (train, test) = data.split(self.train);
        Workflow::new(self.workflow_config(kind)).run(&train, &test)
    }
}

/// Builds a classifier with the *paper's exact RINC structure* (P, tree
/// count, hierarchy depth, q=8) for the hardware tables (3, 6, 7), trained
/// on structured synthetic binary features so the LUT contents and signal
/// activities are realistic without a full CNN run.
///
/// Area is purely structural and matches the paper's hand count; power and
/// timing additionally use the trained contents through simulation.
pub fn hardware_classifier(
    kind: DatasetKind,
    n: usize,
    seed: u64,
) -> (poetbin_core::PoetBinClassifier, poetbin_bits::FeatureMatrix) {
    use poetbin_bits::{BitVec, FeatureMatrix};
    use poetbin_boost::RincConfig;
    use poetbin_core::{PoetBinClassifier, QuantizedSparseOutput, RincBank};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    let arch = kind.architecture();
    let f = 512usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<BitVec> = (0..n)
        .map(|_| BitVec::from_fn(f, |_| rng.random::<bool>()))
        .collect();
    let features = FeatureMatrix::from_rows(rows);
    // Intermediate targets: majority votes over per-neuron feature windows
    // — representative of what a teacher's binary neurons compute.
    let width = arch.intermediate_width();
    let targets = FeatureMatrix::from_fn(n, width, |e, j| {
        let base = (j * 13) % (f - 9);
        (base..base + 9).filter(|&k| features.bit(e, k)).count() >= 5
    });
    let labels: Vec<usize> = (0..n)
        .map(|e| (0..40).filter(|&k| features.bit(e, k)).count() % arch.classes)
        .collect();

    let rinc = RincConfig::new(arch.lut_inputs, arch.rinc_levels)
        .with_top_groups(arch.top_groups())
        .with_resampling(seed);
    let bank = RincBank::train(&features, &targets, &rinc);
    let inter = bank.predict_bits(&features);
    let output = QuantizedSparseOutput::train(&inter, &labels, arch.classes, 8, 10);
    (PoetBinClassifier::new(bank, output), features)
}

/// Prints a table header with a rule, matching the binaries' house style.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", columns.join("  "));
    println!(
        "{}",
        "-".repeat(columns.iter().map(|c| c.len() + 2).sum::<usize>().max(20))
    );
}

/// Formats a value in scientific notation the way Table 6 prints energies.
pub fn sci(value: f64) -> String {
    format!("{value:9.2e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_small() {
        // The env var is unset in tests.
        let s = Scale::from_env();
        assert!(s.train >= 500);
        assert!(!s.full_rinc || s.train > 2000);
    }

    #[test]
    fn scale_parse_accepts_only_small_medium_full() {
        assert_eq!(Scale::parse(None).unwrap().train, 1200);
        assert_eq!(Scale::parse(Some("small")).unwrap().train, 1200);
        assert_eq!(Scale::parse(Some("medium")).unwrap().train, 3000);
        assert!(Scale::parse(Some("full")).unwrap().full_rinc);
        for bad in ["ful", "", "FULL", "large"] {
            let err = Scale::parse(Some(bad)).unwrap_err();
            assert!(err.contains("small|medium|full"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn kinds_map_to_paper_rows() {
        assert_eq!(DatasetKind::MnistLike.architecture().name, "M1");
        assert_eq!(DatasetKind::SvhnLike.clock_mhz(), 100.0);
        assert_eq!(DatasetKind::CifarLike.clock_mhz(), 62.5);
    }

    #[test]
    fn workflow_config_keeps_interface() {
        let cfg = Scale::from_env().workflow_config(DatasetKind::MnistLike);
        assert_eq!(cfg.arch.classes, 10);
        assert_eq!(cfg.arch.feature_extractor.num_features(), 512);
    }
}
