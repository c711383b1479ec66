//! The measured per-operation power table (Table 4 of the paper).
//!
//! All figures are watts at 62.5 MHz on the Spartan-6, split the way the
//! Xilinx power analyzer reports them. Only the *logic* and *signal*
//! columns describe the computation itself — clock and IO power are
//! properties of the device and the pinout — so energy estimates use
//! [`OpPower::compute_w`] (§4.2: "the actual energy involved in the
//! computation of a combinational function is only concerned by the logic
//! and signal columns").

/// An arithmetic operation whose power was measured on the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// 16-bit integer multiplication (DSP block).
    Mul16,
    /// 16-bit integer addition (LUTs + carry chain).
    Add16,
    /// 32-bit integer multiplication.
    Mul32,
    /// 32-bit integer addition.
    Add32,
    /// 32-bit floating-point multiplication.
    MulFloat,
    /// 32-bit floating-point addition.
    AddFloat,
}

impl OpKind {
    /// Human-readable name matching the paper's row labels.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Mul16 => "MULTIPLICATION (16 BITS)",
            OpKind::Add16 => "ADDITION (16 BITS)",
            OpKind::Mul32 => "MULTIPLICATION (32 BITS)",
            OpKind::Add32 => "ADDITION (32 BITS)",
            OpKind::MulFloat => "MULTIPLICATION (FLOAT)",
            OpKind::AddFloat => "ADDITION (FLOAT)",
        }
    }
}

/// Power of one operation, decomposed as the Xilinx analyzer reports it
/// (all watts at 62.5 MHz).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpPower {
    /// Which operation this row describes.
    pub kind: OpKind,
    /// Clock-tree share.
    pub clock_w: f64,
    /// Logic share.
    pub logic_w: f64,
    /// Signal (routing) share.
    pub signal_w: f64,
    /// IO pad share.
    pub io_w: f64,
    /// Device static share.
    pub static_w: f64,
}

impl OpPower {
    /// The computation-only power: logic + signal (what §4.2 uses for the
    /// energy estimates).
    pub fn compute_w(&self) -> f64 {
        self.logic_w + self.signal_w
    }

    /// The full measured power (the paper's TOTAL column).
    pub fn total_w(&self) -> f64 {
        self.clock_w + self.logic_w + self.signal_w + self.io_w + self.static_w
    }

    /// Energy of one operation at the given clock (J).
    pub fn energy_j(&self, freq_mhz: f64) -> f64 {
        self.compute_w() / (freq_mhz * 1e6)
    }
}

/// Table 4 verbatim: per-operation power measured at 62.5 MHz.
pub const OP_TABLE: [OpPower; 6] = [
    OpPower {
        kind: OpKind::Mul16,
        clock_w: 0.001,
        logic_w: 0.001,
        signal_w: 0.000,
        io_w: 0.020,
        static_w: 0.036,
    },
    OpPower {
        kind: OpKind::Add16,
        clock_w: 0.001,
        logic_w: 0.000,
        signal_w: 0.001,
        io_w: 0.024,
        static_w: 0.036,
    },
    OpPower {
        kind: OpKind::Mul32,
        clock_w: 0.002,
        logic_w: 0.001,
        signal_w: 0.001,
        io_w: 0.035,
        static_w: 0.037,
    },
    OpPower {
        kind: OpKind::Add32,
        clock_w: 0.001,
        logic_w: 0.000,
        signal_w: 0.002,
        io_w: 0.048,
        static_w: 0.037,
    },
    OpPower {
        kind: OpKind::MulFloat,
        clock_w: 0.005,
        logic_w: 0.006,
        signal_w: 0.005,
        io_w: 0.046,
        static_w: 0.037,
    },
    OpPower {
        kind: OpKind::AddFloat,
        clock_w: 0.004,
        logic_w: 0.003,
        signal_w: 0.005,
        io_w: 0.034,
        static_w: 0.037,
    },
];

/// Looks up the Table 4 row for an operation.
pub fn op_power(kind: OpKind) -> OpPower {
    OP_TABLE
        .iter()
        .copied()
        .find(|p| p.kind == kind)
        .expect("every OpKind has a table row")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_paper_table4() {
        // The paper's TOTAL column: 0.058, 0.062, 0.076, 0.088, 0.098, 0.083.
        let expect = [0.058, 0.062, 0.076, 0.088, 0.099, 0.083];
        for (row, want) in OP_TABLE.iter().zip(expect) {
            assert!(
                (row.total_w() - want).abs() < 2e-3,
                "{:?}: {} vs {}",
                row.kind,
                row.total_w(),
                want
            );
        }
    }

    #[test]
    fn float_costs_more_than_int16() {
        assert!(op_power(OpKind::MulFloat).compute_w() > op_power(OpKind::Mul16).compute_w());
        assert!(op_power(OpKind::AddFloat).compute_w() > op_power(OpKind::Add16).compute_w());
    }

    #[test]
    fn energy_uses_compute_power_only() {
        let p = op_power(OpKind::MulFloat);
        let e = p.energy_j(62.5);
        assert!((e - 0.011 / 62.5e6).abs() < 1e-12);
    }

    #[test]
    fn every_kind_has_a_row() {
        for kind in [
            OpKind::Mul16,
            OpKind::Add16,
            OpKind::Mul32,
            OpKind::Add32,
            OpKind::MulFloat,
            OpKind::AddFloat,
        ] {
            assert_eq!(op_power(kind).kind, kind);
            assert!(!op_power(kind).kind.label().is_empty());
        }
    }
}
