//! Per-module resource accounting for a trained RINC bank, and the
//! assembled Table 6 energy comparison.
//!
//! Every module contributes a [`ModuleGrid`] of LUT/tree/MAT counts and a
//! [`BankGrid`] folds them: Table 7's structural audit. The PoET-BiN
//! energy itself comes from simulating the mapped netlist (the fpga
//! crate's power model, §4.2's total power × clock period); [`energy_grid`]
//! places it next to the conventional-precision estimates. The count
//! invariants (totals are exact sums, monotone under growth, zero for
//! empty banks) are pinned by the seeded property tests in
//! `tests/grid.rs`.

use crate::energy::{binary_network_energy, fc_energy, Precision};

/// Clock of the conventional FC classifiers, MHz: §4.2 measures and
/// prices them at 62.5 MHz whatever clock the PoET-BiN design runs at.
pub const CONVENTIONAL_CLOCK_MHZ: f64 = 62.5;

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
    /// Field-wise totals over all modules (zero for an empty bank).
    pub fn totals(&self) -> ModuleGrid {
        self.modules
            .iter()
            .copied()
            .fold(ModuleGrid::default(), |acc, m| acc + m)
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
    /// PoET-BiN's operating clock, MHz. The conventional rows are priced
    /// at [`CONVENTIONAL_CLOCK_MHZ`].
    pub clock_mhz: f64,
    /// 32-bit float FC classifier, J/inference.
    pub vanilla_j: f64,
    /// 16-bit fixed-point FC classifier, J/inference.
    pub int16_j: f64,
    /// 32-bit fixed-point FC classifier, J/inference.
    pub int32_j: f64,
    /// 1-bit (binary) FC classifier, J/inference.
    pub binary_j: f64,
    /// PoET-BiN, J/inference, as simulated at `clock_mhz`.
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
/// widths it replaces (a `PAPER_CLASSIFIERS` row), PoET-BiN's clock, and
/// its simulated energy. The conventional rows run at
/// [`CONVENTIONAL_CLOCK_MHZ`], not at `clock_mhz`.
///
/// # Panics
///
/// Panics if fewer than two widths are given.
pub fn energy_grid(fc_widths: &[usize], clock_mhz: f64, poetbin_j: f64) -> EnergyGrid {
    let mhz = CONVENTIONAL_CLOCK_MHZ;
    EnergyGrid {
        clock_mhz,
        vanilla_j: fc_energy(fc_widths, Precision::Float32, mhz),
        int16_j: fc_energy(fc_widths, Precision::Int16, mhz),
        int32_j: fc_energy(fc_widths, Precision::Int32, mhz),
        binary_j: binary_network_energy(fc_widths, mhz),
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

    #[test]
    fn conventional_rows_run_at_62_5_mhz_whatever_poetbin_clock() {
        // SVHN's PoET-BiN design runs at 100 MHz; its vanilla row stays
        // the paper's 1.6e-3 J at 62.5 MHz.
        let svhn = crate::PAPER_CLASSIFIERS[2];
        assert_eq!(svhn.0, "SVHN");
        let g = energy_grid(svhn.1, 100.0, 7.0e-9);
        assert_eq!(g.vanilla_j, fc_energy(svhn.1, Precision::Float32, 62.5));
        assert_eq!(g.binary_j, binary_network_energy(svhn.1, 62.5));
        assert_eq!(g.poetbin_j, 7.0e-9);
        assert_eq!(g.clock_mhz, 100.0);
    }
}
