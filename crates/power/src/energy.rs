//! Per-inference energy comparison (Table 6 of the paper).

use crate::counting::fc_ops;
use crate::ops::{op_power, OpKind};

/// Measured logic+signal power of one 512-input binary neuron (XNOR array,
/// popcount adder tree, comparator) on the Spartan-6: 26 mW after
/// subtracting the two feeder shift registers (§4.2).
pub const BINARY_NEURON_512_W: f64 = 0.026;

/// Arithmetic precision of a conventional FC classifier implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit floating point (the "vanilla" row).
    Float32,
    /// 16-bit fixed point.
    Int16,
    /// 32-bit fixed point.
    Int32,
}

impl Precision {
    fn mul_add(self) -> (OpKind, OpKind) {
        match self {
            Precision::Float32 => (OpKind::MulFloat, OpKind::AddFloat),
            Precision::Int16 => (OpKind::Mul16, OpKind::Add16),
            Precision::Int32 => (OpKind::Mul32, OpKind::Add32),
        }
    }

    /// Row label used by the Table 6 generator.
    pub fn label(self) -> &'static str {
        match self {
            Precision::Float32 => "VANILLA",
            Precision::Int16 => "16-BIT QUANT",
            Precision::Int32 => "32-BIT QUANT",
        }
    }
}

/// Energy per inference (J) of a fully connected classifier at the given
/// precision: one multiplication + one addition per weight, costed with
/// the Table 4 logic+signal power at the given clock.
///
/// # Panics
///
/// Panics if fewer than two layer widths are given or `freq_mhz <= 0`.
pub fn fc_energy(widths: &[usize], precision: Precision, freq_mhz: f64) -> f64 {
    assert!(freq_mhz > 0.0, "clock frequency must be positive");
    let ops = fc_ops(widths);
    let (mul, add) = precision.mul_add();
    let per_mac_w = op_power(mul).compute_w() + op_power(add).compute_w();
    ops.multiplications as f64 * per_mac_w / (freq_mhz * 1e6)
}

/// Energy per inference (J) of a binary (1-bit quantised) FC classifier.
///
/// The paper measures one 512-input binary neuron at 26 mW and multiplies
/// by the neuron count for MNIST. For layers with other fan-ins this model
/// scales the neuron power linearly with input count (XNOR array and
/// popcount tree both grow linearly); EXPERIMENTS.md quantifies the
/// ≈2–2.5× residual against the paper's CIFAR/SVHN estimates.
///
/// # Panics
///
/// Panics if fewer than two layer widths are given or `freq_mhz <= 0`.
pub fn binary_network_energy(widths: &[usize], freq_mhz: f64) -> f64 {
    assert!(widths.len() >= 2, "need at least input and output widths");
    assert!(freq_mhz > 0.0, "clock frequency must be positive");
    let mut power_w = 0.0;
    for pair in widths.windows(2) {
        let (fan_in, neurons) = (pair[0] as f64, pair[1] as f64);
        power_w += neurons * BINARY_NEURON_512_W * (fan_in / 512.0);
    }
    power_w / (freq_mhz * 1e6)
}

/// One row of the Table 6 comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyRow {
    /// Technique label (VANILLA, 1-BIT QUANT, …, POET-BIN).
    pub technique: String,
    /// Energy per inference in joules.
    pub energy_j: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const MNIST: &[usize] = &[512, 512, 10];
    const CIFAR: &[usize] = &[512, 4096, 4096, 10];
    const SVHN: &[usize] = &[512, 2048, 2048, 10];

    #[test]
    fn vanilla_mnist_matches_paper() {
        // Paper: 8.0e-5 J.
        let e = fc_energy(MNIST, Precision::Float32, 62.5);
        assert!((e - 8.0e-5).abs() / 8.0e-5 < 0.05, "got {e:.3e}");
    }

    #[test]
    fn quantized_mnist_matches_paper() {
        // Paper: 8.5e-6 (16-bit) and 1.7e-5 (32-bit).
        let e16 = fc_energy(MNIST, Precision::Int16, 62.5);
        let e32 = fc_energy(MNIST, Precision::Int32, 62.5);
        assert!((e16 - 8.5e-6).abs() / 8.5e-6 < 0.05, "got {e16:.3e}");
        assert!((e32 - 1.7e-5).abs() / 1.7e-5 < 0.05, "got {e32:.3e}");
    }

    #[test]
    fn vanilla_cifar_and_svhn_match_paper() {
        // Paper: 5.7e-3 and 1.6e-3 J.
        let ec = fc_energy(CIFAR, Precision::Float32, 62.5);
        let es = fc_energy(SVHN, Precision::Float32, 62.5);
        assert!((ec - 5.7e-3).abs() / 5.7e-3 < 0.05, "got {ec:.3e}");
        assert!((es - 1.6e-3).abs() / 1.6e-3 < 0.05, "got {es:.3e}");
    }

    #[test]
    fn binary_mnist_matches_paper() {
        // Paper: 2.1e-7 J (522 neurons × 26 mW × 16 ns).
        let e = binary_network_energy(MNIST, 62.5);
        assert!((e - 2.1e-7).abs() / 2.1e-7 < 0.05, "got {e:.3e}");
    }

    #[test]
    fn binary_cifar_svhn_within_model_tolerance() {
        // The paper reports 3.9e-5 and 9.2e-6; the linear-scaling model
        // lands within ~3× (see EXPERIMENTS.md) and must preserve ordering.
        let ec = binary_network_energy(CIFAR, 62.5);
        let es = binary_network_energy(SVHN, 62.5);
        assert!(ec > es, "CIFAR binary must cost more than SVHN");
        assert!(ec / 3.9e-5 > 0.3 && ec / 3.9e-5 < 3.0, "got {ec:.3e}");
        assert!(es / 9.2e-6 > 0.3 && es / 9.2e-6 < 3.0, "got {es:.3e}");
    }

    #[test]
    fn ordering_float_gt_int32_gt_int16_gt_binary() {
        for widths in [MNIST, CIFAR, SVHN] {
            let f = fc_energy(widths, Precision::Float32, 62.5);
            let i32e = fc_energy(widths, Precision::Int32, 62.5);
            let i16e = fc_energy(widths, Precision::Int16, 62.5);
            let b = binary_network_energy(widths, 62.5);
            assert!(f > i32e && i32e > i16e && i16e > b, "{widths:?}");
        }
    }

    #[test]
    fn energy_scales_inversely_with_clock() {
        let slow = fc_energy(MNIST, Precision::Float32, 62.5);
        let fast = fc_energy(MNIST, Precision::Float32, 125.0);
        assert!((slow / fast - 2.0).abs() < 1e-9);
    }
}
