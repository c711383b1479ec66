//! Technology mapping: Shannon decomposition of wide LUTs onto 6-input
//! fabric LUTs plus dedicated mux trees.
//!
//! A Xilinx slice provides 6-input LUTs and the MUXF7/MUXF8 combiners; an
//! 8-input function therefore costs four LUT6s and three dedicated muxes —
//! exactly the 4× factor the paper uses when counting MNIST/CIFAR LUTs
//! (§4.3).

use poetbin_bits::TruthTable;

use crate::netlist::{Netlist, NetlistBuilder, Node, SignalId};

/// Fabric LUT width of the modelled device (Spartan-6: 6).
pub const FABRIC_LUT_INPUTS: usize = 6;

/// Statistics from a [`map_to_lut6`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MappingReport {
    /// LUTs that were already narrow enough and copied through.
    pub passthrough_luts: usize,
    /// Wide LUTs that were decomposed.
    pub decomposed_luts: usize,
    /// Fabric LUTs emitted for the decomposed ones.
    pub emitted_luts: usize,
    /// Dedicated muxes emitted.
    pub emitted_muxes: usize,
}

/// Rewrites every LUT wider than [`FABRIC_LUT_INPUTS`] into a tree of
/// fabric LUTs selected by dedicated muxes; all other nodes are copied.
///
/// The result computes the same function (tested exhaustively for small
/// inputs and by property tests).
pub fn map_to_lut6(net: &Netlist) -> (Netlist, MappingReport) {
    let mut b = NetlistBuilder::new();
    let mut report = MappingReport::default();
    // old signal id -> new signal id
    let mut remap: Vec<SignalId> = Vec::with_capacity(net.num_signals());

    for node in net.nodes() {
        let new_id = match node {
            Node::Input { .. } => b.add_input(),
            Node::Const { value } => b.add_const(*value),
            Node::Mux { sel, lo, hi } => b.add_mux(remap[*sel], remap[*lo], remap[*hi]),
            Node::Lut { inputs, table } => {
                let mapped: Vec<SignalId> = inputs.iter().map(|&s| remap[s]).collect();
                if inputs.len() <= FABRIC_LUT_INPUTS {
                    report.passthrough_luts += 1;
                    b.add_lut(mapped, table.clone())
                } else {
                    report.decomposed_luts += 1;
                    decompose(&mut b, &mapped, table, &mut report)
                }
            }
        };
        remap.push(new_id);
    }
    b.set_outputs(net.outputs().iter().map(|&o| remap[o]).collect());
    (b.finish(), report)
}

/// Recursively splits `table` on its highest input until it fits a fabric
/// LUT, emitting cofactor LUTs and a mux tree.
fn decompose(
    b: &mut NetlistBuilder,
    inputs: &[SignalId],
    table: &TruthTable,
    report: &mut MappingReport,
) -> SignalId {
    if table.inputs() <= FABRIC_LUT_INPUTS {
        report.emitted_luts += 1;
        return b.add_lut(inputs.to_vec(), table.clone());
    }
    let top = table.inputs() - 1;
    let lo = decompose(b, &inputs[..top], &table.cofactor(top, false), report);
    let hi = decompose(b, &inputs[..top], &table.cofactor(top, true), report);
    report.emitted_muxes += 1;
    b.add_mux(inputs[top], lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    /// Builds a single-LUT netlist of the given width computing `f`.
    fn single_lut(width: usize, f: impl FnMut(usize) -> bool) -> Netlist {
        let mut b = NetlistBuilder::new();
        let ins = b.add_inputs(width);
        let lut = b.add_lut(ins, TruthTable::from_fn(width, f));
        b.set_outputs(vec![lut]);
        b.finish()
    }

    fn exhaustive_equal(a: &Netlist, b: &Netlist, width: usize) {
        for v in 0..(1usize << width) {
            let bits: Vec<bool> = (0..width).map(|i| (v >> i) & 1 == 1).collect();
            assert_eq!(a.eval(&bits), b.eval(&bits), "input {v:b}");
        }
    }

    #[test]
    fn narrow_luts_pass_through() {
        let net = single_lut(4, |i| i % 5 == 0);
        let (mapped, report) = map_to_lut6(&net);
        assert_eq!(report.passthrough_luts, 1);
        assert_eq!(report.decomposed_luts, 0);
        assert_eq!(mapped.area().luts, 1);
        exhaustive_equal(&net, &mapped, 4);
    }

    #[test]
    fn eight_input_lut_costs_four_lut6_and_three_muxes() {
        let net = single_lut(8, |i| (i * 2654435761) & 16 != 0);
        let (mapped, report) = map_to_lut6(&net);
        assert_eq!(report.decomposed_luts, 1);
        assert_eq!(report.emitted_luts, 4, "paper: one 8-LUT = four 6-LUTs");
        assert_eq!(report.emitted_muxes, 3);
        let area = mapped.area();
        assert_eq!(area.luts, 4);
        assert_eq!(area.muxes, 3);
        assert_eq!(area.oversized_luts, 0);
        exhaustive_equal(&net, &mapped, 8);
    }

    #[test]
    fn seven_input_lut_costs_two_lut6() {
        let net = single_lut(7, |i| i % 7 == 0);
        let (mapped, report) = map_to_lut6(&net);
        assert_eq!(report.emitted_luts, 2);
        assert_eq!(report.emitted_muxes, 1);
        exhaustive_equal(&net, &mapped, 7);
    }

    #[test]
    fn mixed_network_preserves_function() {
        let mut b = NetlistBuilder::new();
        let ins = b.add_inputs(9);
        let wide = b.add_lut(
            ins[..8].to_vec(),
            TruthTable::from_fn(8, |i| (i as u32).count_ones() % 2 == 1),
        );
        let narrow = b.add_lut(vec![ins[8], wide], TruthTable::from_fn(2, |i| i == 2));
        b.set_outputs(vec![narrow, wide]);
        let net = b.finish();
        let (mapped, _) = map_to_lut6(&net);
        exhaustive_equal(&net, &mapped, 9);
    }

    #[test]
    fn outputs_are_remapped() {
        let net = single_lut(8, |i| i == 0);
        let (mapped, _) = map_to_lut6(&net);
        assert_eq!(mapped.outputs().len(), 1);
        let all_false = vec![false; 8];
        assert_eq!(mapped.eval(&all_false), vec![true]);
    }
}
