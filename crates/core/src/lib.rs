//! PoET-BiN: the paper's primary contribution, assembled.
//!
//! The crate glues the substrates together into the architecture of the
//! paper (§2–§3):
//!
//! * [`arch`] — the Table 1 network descriptions (M1/C1/S1) and their
//!   CPU-scaled equivalents used by default in this reproduction.
//! * [`teacher`] — the staged teacher training of Figure 5: vanilla
//!   network (A1), binary feature representation (A2), binary intermediate
//!   layer (A3).
//! * [`rinc_bank`] — one RINC-L module distilled per intermediate binary
//!   neuron, trained in parallel.
//! * [`output_layer`] — the sparsely connected, `q`-bit quantised output
//!   layer, retrained on RINC outputs and exportable as `q` LUTs per
//!   class.
//! * [`classifier`] — [`PoetBinClassifier`]: the complete LUT classifier
//!   with software inference, netlist export and VHDL generation.
//! * [`persist`] — bespoke binary save/load for trained classifiers: the
//!   flat `POETBIN1` and the compact sectioned `POETBIN2`.
//! * [`workflow`] — the end-to-end A1→A4 pipeline reproducing Table 2
//!   rows.
//! * [`scenarios`] — the paper-scale scenario harness: configured
//!   MNIST/CIFAR/SVHN-shaped runs (real IDX data or synthetic stand-ins)
//!   with shard-verified bank training and per-stage timings.
//!
//! # Example
//!
//! ```no_run
//! use poetbin_core::workflow::{Workflow, WorkflowConfig};
//! use poetbin_data::synthetic;
//!
//! let data = synthetic::digits(2000, 1);
//! let (train, test) = data.split(1600);
//! let result = Workflow::new(WorkflowConfig::fast()).run(&train, &test);
//! println!("A1 {:.3} → A4 {:.3}", result.a1, result.a4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod classifier;
pub mod output_layer;
pub mod persist;
pub mod rinc_bank;
pub mod scenarios;
pub mod teacher;
pub mod workflow;

pub use arch::{Architecture, FeatureExtractor};
pub use classifier::PoetBinClassifier;
pub use output_layer::QuantizedSparseOutput;
pub use persist::{load_classifier, save_classifier, ModelFormat, PersistError};
pub use rinc_bank::RincBank;
pub use scenarios::{Scenario, ScenarioKind, ScenarioReport};
pub use teacher::{Teacher, TeacherConfig};
pub use workflow::{TeacherArtifacts, Workflow, WorkflowConfig, WorkflowResult};
