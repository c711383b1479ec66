//! Static timing analysis over the LUT netlist.

use crate::netlist::{Netlist, Node};

/// Delay model for the target fabric.
///
/// The defaults are calibrated against the paper's Spartan-6 measurements
/// (Table 7): the SVHN classifier — four levels of 6-input LUTs — reads
/// 5.85 ns, and the MNIST/CIFAR classifiers — four levels of 8-input LUTs,
/// each mapped to four LUT6s plus an F7/F8 mux pair — read 9.11/9.48 ns.
/// With `t_io = 1.5 ns` (combined pad-in + pad-out), `t_lut = 0.90 ns`,
/// `t_net = 0.19 ns` and `t_mux = 0.42 ns` the model lands on 5.86 ns and
/// 9.22 ns respectively. EXPERIMENTS.md discusses the residual gap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingModel {
    /// LUT propagation delay (ns).
    pub t_lut: f64,
    /// Net (routing) delay added after every driven LUT (ns).
    pub t_net: f64,
    /// Dedicated mux (MUXF7/F8) delay (ns).
    pub t_mux: f64,
    /// Combined input + output pad delay (ns), applied once per path.
    pub t_io: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            t_lut: 0.90,
            t_net: 0.19,
            t_mux: 0.42,
            t_io: 1.50,
        }
    }
}

/// The result of a timing analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingReport {
    /// Critical-path delay in nanoseconds, including pad delays.
    pub critical_path_ns: f64,
    /// Number of LUTs on the critical path.
    pub lut_levels: usize,
    /// Number of dedicated muxes on the critical path.
    pub mux_levels: usize,
    /// Maximum clock frequency implied by the critical path (MHz).
    pub fmax_mhz: f64,
}

#[derive(Clone, Copy, Default)]
struct Arrival {
    ns: f64,
    luts: usize,
    muxes: usize,
}

fn later(a: Arrival, b: Arrival) -> Arrival {
    if b.ns > a.ns {
        b
    } else {
        a
    }
}

impl TimingModel {
    /// Computes arrival times through the netlist and returns the critical
    /// path. A purely feed-through network reports just the pad delay.
    pub fn analyze(&self, net: &Netlist) -> TimingReport {
        let mut arrivals = vec![Arrival::default(); net.num_signals()];
        for (id, node) in net.nodes().iter().enumerate() {
            arrivals[id] = match node {
                Node::Input { .. } | Node::Const { .. } => Arrival::default(),
                Node::Lut { inputs, .. } => {
                    let worst = inputs
                        .iter()
                        .map(|&s| arrivals[s])
                        .fold(Arrival::default(), later);
                    Arrival {
                        ns: worst.ns + self.t_lut + self.t_net,
                        luts: worst.luts + 1,
                        muxes: worst.muxes,
                    }
                }
                Node::Mux { sel, lo, hi } => {
                    let worst = [*sel, *lo, *hi]
                        .into_iter()
                        .map(|s| arrivals[s])
                        .fold(Arrival::default(), later);
                    Arrival {
                        ns: worst.ns + self.t_mux,
                        luts: worst.luts,
                        muxes: worst.muxes + 1,
                    }
                }
            };
        }
        let worst = net
            .outputs()
            .iter()
            .map(|&o| arrivals[o])
            .fold(Arrival::default(), later);
        let total = worst.ns + self.t_io;
        TimingReport {
            critical_path_ns: total,
            lut_levels: worst.luts,
            mux_levels: worst.muxes,
            fmax_mhz: if total > 0.0 {
                1000.0 / total
            } else {
                f64::INFINITY
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use poetbin_bits::TruthTable;

    #[test]
    fn single_lut_path() {
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        let l = b.add_lut(vec![x], TruthTable::from_fn(1, |i| i == 0));
        b.set_outputs(vec![l]);
        let net = b.finish();
        let model = TimingModel::default();
        let t = model.analyze(&net);
        assert_eq!(t.lut_levels, 1);
        assert_eq!(t.mux_levels, 0);
        let expect = model.t_lut + model.t_net + model.t_io;
        assert!((t.critical_path_ns - expect).abs() < 1e-12);
    }

    #[test]
    fn four_level_lut6_chain_matches_svhn_shape() {
        // SVHN: tree LUT → inner MAT → outer MAT → output LUT = 4 levels.
        let mut b = NetlistBuilder::new();
        let mut sig = b.add_input();
        for _ in 0..4 {
            sig = b.add_lut(vec![sig], TruthTable::from_fn(1, |i| i == 0));
        }
        b.set_outputs(vec![sig]);
        let t = TimingModel::default().analyze(&b.finish());
        assert_eq!(t.lut_levels, 4);
        // 1.5 + 4 × (0.9 + 0.19) = 5.86 ns ≈ the paper's 5.85 ns.
        assert!(
            (t.critical_path_ns - 5.86).abs() < 0.02,
            "{}",
            t.critical_path_ns
        );
        assert!(t.fmax_mhz > 100.0);
    }

    #[test]
    fn mux_levels_add_their_own_delay() {
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        let s = b.add_input();
        let l1 = b.add_lut(vec![x], TruthTable::from_fn(1, |i| i == 0));
        let l2 = b.add_lut(vec![x], TruthTable::from_fn(1, |i| i == 1));
        let m = b.add_mux(s, l1, l2);
        b.set_outputs(vec![m]);
        let model = TimingModel::default();
        let t = model.analyze(&b.finish());
        assert_eq!(t.lut_levels, 1);
        assert_eq!(t.mux_levels, 1);
        let expect = model.t_lut + model.t_net + model.t_mux + model.t_io;
        assert!((t.critical_path_ns - expect).abs() < 1e-12);
    }

    #[test]
    fn feedthrough_costs_only_io() {
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        b.set_outputs(vec![x]);
        let model = TimingModel::default();
        let t = model.analyze(&b.finish());
        assert_eq!(t.lut_levels, 0);
        assert!((t.critical_path_ns - model.t_io).abs() < 1e-12);
    }

    #[test]
    fn critical_path_takes_the_longer_branch() {
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        // Short branch: one LUT. Long branch: three LUTs.
        let short = b.add_lut(vec![x], TruthTable::from_fn(1, |i| i == 0));
        let mut long = x;
        for _ in 0..3 {
            long = b.add_lut(vec![long], TruthTable::from_fn(1, |i| i == 0));
        }
        let join = b.add_lut(vec![short, long], TruthTable::from_fn(2, |i| i == 3));
        b.set_outputs(vec![join]);
        let t = TimingModel::default().analyze(&b.finish());
        assert_eq!(t.lut_levels, 4, "3-deep branch + join");
    }
}
