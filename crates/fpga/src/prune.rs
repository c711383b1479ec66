//! Synthesizer-style netlist clean-up.
//!
//! Three passes to a fixpoint:
//!
//! 1. **Irrelevant-input elimination** — a LUT input whose two cofactors
//!    are equal can be dropped and the table shrunk. This is how the Xilinx
//!    synthesizer strips MAT inputs whose AdaBoost weight is too small to
//!    flip the threshold (§4.3: ≈36% of the CIFAR-10 LUTs vanish).
//! 2. **Constant folding** — constant LUTs become [`Node::Const`]; muxes
//!    with constant selects collapse; LUTs reading constants shrink.
//! 3. **Dead-code elimination** — nodes that no output transitively reads
//!    are removed.

use crate::netlist::{Netlist, NetlistBuilder, Node, SignalId};

/// Statistics from a [`prune`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// LUT inputs removed because the function never depends on them.
    pub inputs_removed: usize,
    /// LUTs that collapsed to constants.
    pub constants_folded: usize,
    /// Nodes removed as unreachable from the outputs.
    pub dead_nodes_removed: usize,
    /// LUT count before pruning.
    pub luts_before: usize,
    /// LUT count after pruning.
    pub luts_after: usize,
}

impl PruneReport {
    /// Fraction of LUTs removed, as the paper reports for CIFAR-10.
    pub fn lut_reduction(&self) -> f64 {
        if self.luts_before == 0 {
            0.0
        } else {
            1.0 - self.luts_after as f64 / self.luts_before as f64
        }
    }
}

/// Applies the clean-up passes to a fixpoint and returns the pruned
/// netlist with statistics. The pruned network computes the same outputs
/// (property-tested).
pub fn prune(net: &Netlist) -> (Netlist, PruneReport) {
    let mut report = PruneReport {
        luts_before: net.area().luts,
        ..PruneReport::default()
    };

    // Work on an editable copy: nodes plus a lazily-resolved alias map for
    // signals that collapse onto other signals.
    let mut nodes: Vec<Node> = net.nodes().to_vec();
    let mut alias: Vec<SignalId> = (0..nodes.len()).collect();

    let resolve = |alias: &[SignalId], mut s: SignalId| -> SignalId {
        while alias[s] != s {
            s = alias[s];
        }
        s
    };

    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..nodes.len() {
            let node = nodes[id].clone();
            match node {
                Node::Lut { inputs, table } => {
                    // Resolve aliases and inline constant operands.
                    let mut cur_inputs: Vec<SignalId> =
                        inputs.iter().map(|&s| resolve(&alias, s)).collect();
                    let mut cur_table = table;
                    let mut local_change = cur_inputs != inputs;

                    // Fix any constant operands into the table.
                    let mut pos = 0;
                    while pos < cur_inputs.len() {
                        if let Node::Const { value } = nodes[cur_inputs[pos]] {
                            cur_table = cur_table.cofactor(pos, value);
                            cur_inputs.remove(pos);
                            local_change = true;
                            changed = true;
                        } else {
                            pos += 1;
                        }
                    }

                    // Drop inputs the function does not depend on.
                    let (shrunk, kept) = cur_table.shrink_to_support();
                    if kept.len() != cur_inputs.len() {
                        report.inputs_removed += cur_inputs.len() - kept.len();
                        cur_inputs = kept.iter().map(|&k| cur_inputs[k]).collect();
                        cur_table = shrunk;
                        local_change = true;
                        changed = true;
                    }

                    if let Some(value) = cur_table.constant_value() {
                        report.constants_folded += 1;
                        nodes[id] = Node::Const { value };
                        changed = true;
                    } else if cur_table.inputs() == 1 && cur_table.eval(1) && !cur_table.eval(0) {
                        // Identity LUT: alias straight through.
                        alias[id] = cur_inputs[0];
                        nodes[id] = Node::Const { value: false }; // placeholder, now aliased
                        changed = true;
                    } else if local_change {
                        nodes[id] = Node::Lut {
                            inputs: cur_inputs,
                            table: cur_table,
                        };
                    }
                }
                Node::Mux { sel, lo, hi } => {
                    let (s, l, h) = (
                        resolve(&alias, sel),
                        resolve(&alias, lo),
                        resolve(&alias, hi),
                    );
                    if let Node::Const { value } = nodes[s] {
                        alias[id] = if value { h } else { l };
                        nodes[id] = Node::Const { value: false };
                        changed = true;
                    } else if l == h {
                        alias[id] = l;
                        nodes[id] = Node::Const { value: false };
                        changed = true;
                    } else if (s, l, h) != (sel, lo, hi) {
                        nodes[id] = Node::Mux {
                            sel: s,
                            lo: l,
                            hi: h,
                        };
                        changed = true;
                    }
                }
                Node::Input { .. } | Node::Const { .. } => {}
            }
        }
    }

    // Dead-code elimination: mark from outputs.
    let mut live = vec![false; nodes.len()];
    let mut stack: Vec<SignalId> = net.outputs().iter().map(|&o| resolve(&alias, o)).collect();
    while let Some(s) = stack.pop() {
        if live[s] {
            continue;
        }
        live[s] = true;
        match &nodes[s] {
            Node::Input { .. } | Node::Const { .. } => {}
            Node::Lut { inputs, .. } => stack.extend(inputs.iter().map(|&i| resolve(&alias, i))),
            Node::Mux { sel, lo, hi } => {
                stack.push(resolve(&alias, *sel));
                stack.push(resolve(&alias, *lo));
                stack.push(resolve(&alias, *hi));
            }
        }
    }
    // Keep all primary inputs so the interface is stable.
    for (id, node) in nodes.iter().enumerate() {
        if matches!(node, Node::Input { .. }) {
            live[id] = true;
        }
    }

    // Rebuild compactly.
    let mut b = NetlistBuilder::new();
    let mut remap = vec![usize::MAX; nodes.len()];
    for (id, node) in nodes.iter().enumerate() {
        if !live[id] || alias[id] != id {
            report.dead_nodes_removed += usize::from(alias[id] == id && !live[id]);
            continue;
        }
        remap[id] = match node {
            Node::Input { .. } => b.add_input(),
            Node::Const { value } => b.add_const(*value),
            Node::Lut { inputs, table } => {
                let ins: Vec<SignalId> =
                    inputs.iter().map(|&s| remap[resolve(&alias, s)]).collect();
                b.add_lut(ins, table.clone())
            }
            Node::Mux { sel, lo, hi } => b.add_mux(
                remap[resolve(&alias, *sel)],
                remap[resolve(&alias, *lo)],
                remap[resolve(&alias, *hi)],
            ),
        };
    }
    b.set_outputs(
        net.outputs()
            .iter()
            .map(|&o| remap[resolve(&alias, o)])
            .collect(),
    );
    let pruned = b.finish();
    report.luts_after = pruned.area().luts;
    (pruned, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use poetbin_bits::TruthTable;

    fn exhaustive_equal(a: &Netlist, b: &Netlist, width: usize) {
        for v in 0..(1usize << width) {
            let bits: Vec<bool> = (0..width).map(|i| (v >> i) & 1 == 1).collect();
            assert_eq!(a.eval(&bits), b.eval(&bits), "input {v:b}");
        }
    }

    #[test]
    fn removes_irrelevant_lut_input() {
        let mut b = NetlistBuilder::new();
        let ins = b.add_inputs(3);
        // Function ignores input 1.
        let lut = b.add_lut(
            ins.clone(),
            TruthTable::from_fn(3, |i| (i & 1) == 1 && (i >> 2) & 1 == 1),
        );
        b.set_outputs(vec![lut]);
        let net = b.finish();
        let (pruned, report) = prune(&net);
        assert_eq!(report.inputs_removed, 1);
        exhaustive_equal(&net, &pruned, 3);
    }

    #[test]
    fn folds_constant_lut_and_sweeps_dead_logic() {
        let mut b = NetlistBuilder::new();
        let ins = b.add_inputs(2);
        let dead = b.add_lut(ins.clone(), TruthTable::from_fn(2, |i| i == 1));
        let constant = b.add_lut(ins.clone(), TruthTable::ones(2));
        let _ = dead;
        b.set_outputs(vec![constant]);
        let net = b.finish();
        let (pruned, report) = prune(&net);
        assert!(report.constants_folded >= 1);
        assert_eq!(pruned.area().luts, 0);
        exhaustive_equal(&net, &pruned, 2);
    }

    #[test]
    fn mux_with_constant_select_collapses() {
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        let y = b.add_input();
        let sel = b.add_const(true);
        let m = b.add_mux(sel, x, y);
        b.set_outputs(vec![m]);
        let net = b.finish();
        let (pruned, _) = prune(&net);
        // The mux must be gone; output is just input y.
        assert_eq!(pruned.area().muxes, 0);
        exhaustive_equal(&net, &pruned, 2);
    }

    #[test]
    fn identity_lut_is_aliased_away() {
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        let ident = b.add_lut(vec![x], TruthTable::from_fn(1, |i| i == 1));
        let not = b.add_lut(vec![ident], TruthTable::from_fn(1, |i| i == 0));
        b.set_outputs(vec![not]);
        let net = b.finish();
        let (pruned, _) = prune(&net);
        assert_eq!(pruned.area().luts, 1, "only the inverter should remain");
        exhaustive_equal(&net, &pruned, 1);
    }

    #[test]
    fn reduction_fraction_reported() {
        let mut b = NetlistBuilder::new();
        let ins = b.add_inputs(2);
        // Two constant LUTs and one real one.
        let c1 = b.add_lut(ins.clone(), TruthTable::ones(2));
        let c2 = b.add_lut(ins.clone(), TruthTable::zeros(2));
        let real = b.add_lut(vec![c1, c2], TruthTable::from_fn(2, |i| i & 1 == 1));
        b.set_outputs(vec![real]);
        let net = b.finish();
        let (_, report) = prune(&net);
        assert_eq!(report.luts_before, 3);
        assert!(report.lut_reduction() > 0.5, "{report:?}");
    }

    #[test]
    fn primary_inputs_survive_even_if_unused() {
        let mut b = NetlistBuilder::new();
        let _unused = b.add_input();
        let used = b.add_input();
        let lut = b.add_lut(vec![used], TruthTable::from_fn(1, |i| i == 0));
        b.set_outputs(vec![lut]);
        let net = b.finish();
        let (pruned, _) = prune(&net);
        assert_eq!(pruned.num_inputs(), 2, "interface must stay stable");
        exhaustive_equal(&net, &pruned, 2);
    }

    #[test]
    fn chained_constant_propagation_reaches_fixpoint() {
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        let c = b.add_const(false);
        // AND with constant 0 -> constant 0 -> OR becomes identity of x.
        let and = b.add_lut(vec![x, c], TruthTable::from_fn(2, |i| i == 3));
        let or = b.add_lut(vec![x, and], TruthTable::from_fn(2, |i| i != 0));
        b.set_outputs(vec![or]);
        let net = b.finish();
        let (pruned, _) = prune(&net);
        assert_eq!(pruned.area().luts, 0, "everything folds to the input");
        exhaustive_equal(&net, &pruned, 1);
    }
}
