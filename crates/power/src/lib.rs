//! Operation-level power and energy models for the classifier comparison.
//!
//! §4.2 of the paper estimates the power of conventional classifier
//! implementations bottom-up: measure one multiplication and one addition
//! on the target Spartan-6 (Table 4), count the operations in each fully
//! connected classifier (Table 5), and multiply through by the clock
//! period; binary (1-bit) networks use a measured per-neuron XNOR /
//! popcount cost instead. This crate encodes that methodology:
//!
//! * [`ops`] — the measured per-operation power table (Table 4).
//! * [`counting`] — MAC counting for FC classifier stacks (Table 5).
//! * [`energy`] — the composed per-inference energy comparison (Table 6).
//! * [`grid`] — per-module LUT/tree/MAT counts of trained RINC banks
//!   (Table 7's audit) and the assembled Table 6 comparison grid the
//!   `pipeline` binary emits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counting;
pub mod energy;
pub mod grid;
pub mod ops;

pub use counting::{fc_ops, OpCounts, PAPER_CLASSIFIERS};
pub use energy::{binary_network_energy, fc_energy, Precision};
pub use grid::{energy_grid, BankGrid, EnergyGrid, ModuleGrid, CONVENTIONAL_CLOCK_MHZ};
pub use ops::{OpKind, OpPower, OP_TABLE};
