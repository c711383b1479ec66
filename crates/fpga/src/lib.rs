//! FPGA fabric model for PoET-BiN.
//!
//! The paper's hardware numbers (Tables 3, 6, 7) come from synthesising the
//! generated VHDL for a Xilinx Spartan-6 and reading the vendor power
//! analyzer. Neither tool can ship with this repository, so this crate
//! models the same pipeline:
//!
//! * [`Netlist`] — a combinational network of LUT primitives, dedicated
//!   2:1 muxes (the MUXF7/F8 resources of a Xilinx slice) and constants,
//!   built in topological order.
//! * [`map_to_lut6`] — technology mapping: every LUT wider than 6 inputs is
//!   Shannon-decomposed into 6-input LUTs plus a dedicated mux tree,
//!   matching the paper's observation that one 8-input LUT costs four
//!   6-input LUTs.
//! * [`prune`] — the synthesizer clean-up pass: LUT inputs that can never
//!   affect the output (e.g. MAT inputs whose AdaBoost weight is too small)
//!   are removed, constants are propagated, and dead logic is swept. §4.3
//!   reports this removes ≈36% of the CIFAR-10 LUTs.
//! * [`simulate`] — 64-way bit-parallel evaluation producing outputs and
//!   per-signal toggle activities.
//! * [`TimingModel`] / [`PowerModel`] — delay and power estimation with
//!   constants calibrated against the paper's Spartan-6 measurements (each
//!   type's docs give its calibration).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mapping;
mod netlist;
mod power;
mod prune;
mod sim;
mod timing;

pub use mapping::{map_to_lut6, MappingReport, FABRIC_LUT_INPUTS};
pub use netlist::{AreaReport, Netlist, NetlistBuilder, NetlistError, Node, SignalId};
pub use power::{PowerModel, PowerReport};
pub use prune::{prune, PruneReport};
pub use sim::{simulate, SimResult};
pub use timing::{TimingModel, TimingReport};
