//! Power estimation for the modelled Spartan-6 fabric.
//!
//! The paper reads the Xilinx power analyzer; this model reproduces its
//! decomposition (Table 3: dynamic = clock + logic + signal + IO, plus
//! device static power) from first principles:
//!
//! * logic + signal power = `Σ_signals activity(s) · E_toggle · f` — each
//!   LUT output toggle charges the LUT's internal capacitance and its
//!   routing; `E_toggle ≈ 0.8 pJ` is fitted so the MNIST design at its
//!   simulated switching activity reproduces the paper's measured dynamic
//!   power, and sits inside published 45 nm FPGA per-node numbers.
//! * clock power scales with the number of clocked resources (the shift
//!   registers feeding the classifier inputs).
//! * IO power is per active pad at the given rate.
//! * static power is the device leakage floor (Table 3 reports
//!   41–45 mW across the three designs).

use crate::netlist::Netlist;
use crate::sim::SimResult;

/// Power model constants for the target device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerModel {
    /// Energy per output toggle of a LUT/mux, joules (covers the logic and
    /// the driven routing).
    pub toggle_energy_j: f64,
    /// Clock-tree power per clocked element per MHz, watts.
    pub clock_w_per_elem_mhz: f64,
    /// IO pad power per pad per MHz, watts.
    pub io_w_per_pad_mhz: f64,
    /// Device static (leakage) power, watts.
    pub static_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            toggle_energy_j: 0.8e-12,
            clock_w_per_elem_mhz: 2.0e-7,
            io_w_per_pad_mhz: 8.0e-5,
            static_w: 0.043,
        }
    }
}

/// A power estimate broken down the way the Xilinx analyzer reports it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PowerReport {
    /// Logic + signal switching power (W).
    pub logic_signal_w: f64,
    /// Clock-tree power (W).
    pub clock_w: f64,
    /// IO pad power (W).
    pub io_w: f64,
    /// Static leakage (W).
    pub static_w: f64,
}

impl PowerReport {
    /// Total dynamic power (everything but leakage).
    pub fn dynamic_w(&self) -> f64 {
        self.logic_signal_w + self.clock_w + self.io_w
    }

    /// Total power.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w() + self.static_w
    }

    /// Energy of one single-cycle inference at the given clock (J) — the
    /// quantity Table 6 reports (`total power × clock period`).
    pub fn energy_per_inference_j(&self, freq_mhz: f64) -> f64 {
        self.total_w() / (freq_mhz * 1e6)
    }
}

impl PowerModel {
    /// Estimates power for a netlist with measured switching activity at
    /// the given clock.
    ///
    /// `sim` must come from [`simulate`](crate::simulate) on the same
    /// netlist (the activity vector length is checked).
    ///
    /// # Panics
    ///
    /// Panics if the activity vector does not match the netlist or
    /// `freq_mhz` is not positive.
    pub fn estimate(&self, net: &Netlist, sim: &SimResult, freq_mhz: f64) -> PowerReport {
        assert_eq!(
            sim.activity.len(),
            net.num_signals(),
            "activity vector does not match the netlist"
        );
        assert!(freq_mhz > 0.0, "clock frequency must be positive");
        let f_hz = freq_mhz * 1e6;
        let switch: f64 = sim.activity.iter().sum::<f64>() * self.toggle_energy_j * f_hz;
        // The paper feeds the classifier through a shift register, so every
        // primary input is a clocked element; outputs pads run at the clock.
        let clocked = net.num_inputs() as f64;
        let pads = (net.outputs().len() + 1) as f64; // +1 for the serial input pad
        PowerReport {
            logic_signal_w: switch,
            clock_w: clocked * self.clock_w_per_elem_mhz * freq_mhz,
            io_w: pads * self.io_w_per_pad_mhz * freq_mhz,
            static_w: self.static_w,
        }
    }

    /// Closed-form estimate without a simulation, assuming a uniform
    /// `activity` toggle rate on every signal — used for sizing sweeps
    /// where simulating every configuration would be wasteful.
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz` is not positive or `activity` is outside
    /// `[0, 1]`.
    pub fn estimate_uniform(&self, net: &Netlist, activity: f64, freq_mhz: f64) -> PowerReport {
        assert!(freq_mhz > 0.0, "clock frequency must be positive");
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity must be in [0, 1]"
        );
        let f_hz = freq_mhz * 1e6;
        let switch = net.num_signals() as f64 * activity * self.toggle_energy_j * f_hz;
        let clocked = net.num_inputs() as f64;
        let pads = (net.outputs().len() + 1) as f64;
        PowerReport {
            logic_signal_w: switch,
            clock_w: clocked * self.clock_w_per_elem_mhz * freq_mhz,
            io_w: pads * self.io_w_per_pad_mhz * freq_mhz,
            static_w: self.static_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::sim::simulate;
    use poetbin_bits::{BitVec, TruthTable};

    fn toggle_net() -> Netlist {
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        let inv = b.add_lut(vec![x], TruthTable::from_fn(1, |i| i == 0));
        b.set_outputs(vec![inv]);
        b.finish()
    }

    #[test]
    fn power_scales_with_frequency() {
        let net = toggle_net();
        let vectors: Vec<BitVec> = (0..100).map(|i| BitVec::from_bools([i % 2 == 0])).collect();
        let sim = simulate(&net, &vectors);
        let model = PowerModel::default();
        let p62 = model.estimate(&net, &sim, 62.5);
        let p100 = model.estimate(&net, &sim, 100.0);
        assert!(p100.dynamic_w() > p62.dynamic_w());
        assert_eq!(p100.static_w, p62.static_w);
        let ratio = p100.logic_signal_w / p62.logic_signal_w;
        assert!((ratio - 1.6).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn idle_network_consumes_only_static_clock_io() {
        let net = toggle_net();
        let vectors: Vec<BitVec> = (0..100).map(|_| BitVec::from_bools([false])).collect();
        let sim = simulate(&net, &vectors);
        let p = PowerModel::default().estimate(&net, &sim, 62.5);
        assert_eq!(p.logic_signal_w, 0.0);
        assert!(p.total_w() > 0.0);
    }

    #[test]
    fn energy_is_power_times_period() {
        let net = toggle_net();
        let vectors: Vec<BitVec> = (0..64).map(|i| BitVec::from_bools([i % 2 == 0])).collect();
        let sim = simulate(&net, &vectors);
        let p = PowerModel::default().estimate(&net, &sim, 62.5);
        let e = p.energy_per_inference_j(62.5);
        assert!((e - p.total_w() * 16e-9).abs() < 1e-18);
    }

    #[test]
    fn uniform_estimate_brackets_simulated_estimate() {
        let net = toggle_net();
        let vectors: Vec<BitVec> = (0..100).map(|i| BitVec::from_bools([i % 2 == 0])).collect();
        let sim = simulate(&net, &vectors);
        let model = PowerModel::default();
        let simulated = model.estimate(&net, &sim, 62.5);
        let lo = model.estimate_uniform(&net, 0.0, 62.5);
        let hi = model.estimate_uniform(&net, 1.0, 62.5);
        assert!(lo.logic_signal_w <= simulated.logic_signal_w);
        assert!(simulated.logic_signal_w <= hi.logic_signal_w + 1e-12);
    }

    #[test]
    #[should_panic(expected = "frequency")]
    fn zero_frequency_panics() {
        let net = toggle_net();
        PowerModel::default().estimate_uniform(&net, 0.1, 0.0);
    }
}
