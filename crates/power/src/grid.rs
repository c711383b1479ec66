//! Per-module resource/energy accounting for a trained RINC bank — the
//! structural side of the Tables 3–7 grid.
//!
//! The fpga crate estimates power by simulating a mapped netlist; this
//! module provides the complementary *analytic* account: every module
//! contributes a [`ModuleGrid`] of LUT/tree/MAT counts, a [`BankGrid`]
//! folds them, and [`energy_grid`] places the resulting PoET-BiN energy
//! next to the conventional-precision estimates of Table 6. The
//! invariants the scenario harness relies on (totals are exact sums,
//! monotone under growth, zero for empty banks) are pinned by the seeded
//! property tests in `tests/grid.rs`.

use crate::energy::{binary_network_energy, fc_energy, Precision};

/// Compute (logic + signal) power of one occupied LUT, in watts.
///
/// Calibrated from the paper's MNIST design point: 11 899 mapped LUTs
/// drawing 0.513 W of measured compute power on the Spartan-6 (Tables 3
/// and 7), giving ≈43 µW per LUT. A linear per-LUT model is what §4.2
/// itself uses when scaling neuron measurements.
pub const LUT_COMPUTE_W: f64 = 0.513 / 11_899.0;

/// Resource counts of one RINC module (or any LUT subcircuit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModuleGrid {
    /// Occupied LUTs (trees, MATs and any glue).
    pub luts: usize,
    /// Decision-tree LUTs.
    pub trees: usize,
    /// Majority-vote (MAT) LUTs.
    pub mats: usize,
}

impl ModuleGrid {
    /// Compute power of this subcircuit at [`LUT_COMPUTE_W`] per LUT.
    pub fn power_w(self) -> f64 {
        self.luts as f64 * LUT_COMPUTE_W
    }
}

impl std::ops::Add for ModuleGrid {
    type Output = ModuleGrid;

    /// Field-wise sum with another grid.
    fn add(self, other: ModuleGrid) -> ModuleGrid {
        ModuleGrid {
            luts: self.luts + other.luts,
            trees: self.trees + other.trees,
            mats: self.mats + other.mats,
        }
    }
}

/// Per-module resource grids of a whole bank, in neuron order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BankGrid {
    /// One grid per RINC module.
    pub modules: Vec<ModuleGrid>,
}

impl BankGrid {
    /// A grid over the given per-module entries.
    pub fn new(modules: Vec<ModuleGrid>) -> BankGrid {
        BankGrid { modules }
    }

    /// Field-wise totals over all modules (zero for an empty bank).
    pub fn totals(&self) -> ModuleGrid {
        self.modules
            .iter()
            .copied()
            .fold(ModuleGrid::default(), |acc, m| acc + m)
    }

    /// Total compute power of the bank, watts.
    pub fn power_w(&self) -> f64 {
        self.totals().power_w()
    }

    /// Energy per inference at the given clock, joules (one cycle per
    /// inference — the classifier is a single combinational cone, §4.3).
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz <= 0`.
    pub fn energy_j(&self, freq_mhz: f64) -> f64 {
        assert!(freq_mhz > 0.0, "clock frequency must be positive");
        self.power_w() / (freq_mhz * 1e6)
    }
}

impl FromIterator<ModuleGrid> for BankGrid {
    fn from_iter<I: IntoIterator<Item = ModuleGrid>>(iter: I) -> BankGrid {
        BankGrid {
            modules: iter.into_iter().collect(),
        }
    }
}

/// The Table 6 row set for one dataset: conventional FC classifier
/// energies next to the PoET-BiN figure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyGrid {
    /// Operating clock, MHz.
    pub clock_mhz: f64,
    /// 32-bit float FC classifier, J/inference.
    pub vanilla_j: f64,
    /// 16-bit fixed-point FC classifier, J/inference.
    pub int16_j: f64,
    /// 32-bit fixed-point FC classifier, J/inference.
    pub int32_j: f64,
    /// 1-bit (binary) FC classifier, J/inference.
    pub binary_j: f64,
    /// PoET-BiN, J/inference (from simulation or a [`BankGrid`]).
    pub poetbin_j: f64,
}

impl EnergyGrid {
    /// Whether PoET-BiN undercuts every conventional implementation —
    /// the paper's headline claim for Table 6.
    pub fn poetbin_wins(&self) -> bool {
        self.poetbin_j < self.vanilla_j
            && self.poetbin_j < self.int16_j
            && self.poetbin_j < self.int32_j
            && self.poetbin_j < self.binary_j
    }
}

/// Builds the Table 6 comparison for one dataset: the FC classifier
/// widths it replaces (a `PAPER_CLASSIFIERS` row), the clock, and the
/// measured/estimated PoET-BiN energy.
///
/// # Panics
///
/// Panics if fewer than two widths are given or `clock_mhz <= 0`.
pub fn energy_grid(fc_widths: &[usize], clock_mhz: f64, poetbin_j: f64) -> EnergyGrid {
    EnergyGrid {
        clock_mhz,
        vanilla_j: fc_energy(fc_widths, Precision::Float32, clock_mhz),
        int16_j: fc_energy(fc_widths, Precision::Int16, clock_mhz),
        int32_j: fc_energy(fc_widths, Precision::Int32, clock_mhz),
        binary_j: binary_network_energy(fc_widths, clock_mhz),
        poetbin_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bank_is_all_zero() {
        let grid = BankGrid::default();
        assert_eq!(grid.totals(), ModuleGrid::default());
        assert_eq!(grid.power_w(), 0.0);
        assert_eq!(grid.energy_j(62.5), 0.0);
    }

    #[test]
    fn lut_calibration_reproduces_paper_mnist_power() {
        // 11 899 LUTs at the calibrated per-LUT power is 0.513 W exactly.
        let mnist = ModuleGrid {
            luts: 11_899,
            trees: 0,
            mats: 0,
        };
        assert!((mnist.power_w() - 0.513).abs() < 1e-12);
    }

    #[test]
    fn energy_grid_orders_precisions() {
        let g = energy_grid(&[512, 512, 10], 62.5, 1.0e-7);
        assert!(g.vanilla_j > g.int32_j);
        assert!(g.int32_j > g.int16_j);
        assert!(g.int16_j > g.binary_j);
        assert!(g.poetbin_wins());
        let losing = energy_grid(&[512, 512, 10], 62.5, 1.0);
        assert!(!losing.poetbin_wins());
    }
}
