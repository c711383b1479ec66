//! Combinational LUT netlists.

use std::fmt;

use poetbin_bits::TruthTable;

/// Identifier of a signal in a [`Netlist`] (the index of the node driving
/// it).
pub type SignalId = usize;

/// One primitive of the netlist. Nodes are stored in topological order:
/// every operand id is smaller than the node's own id.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// Primary input number `index`.
    Input {
        /// Position among the primary inputs.
        index: usize,
    },
    /// A constant driver.
    Const {
        /// The constant value.
        value: bool,
    },
    /// A look-up table over the given operand signals (operand `i` is
    /// address bit `i`).
    Lut {
        /// Operand signals.
        inputs: Vec<SignalId>,
        /// The LUT contents.
        table: TruthTable,
    },
    /// A dedicated 2:1 mux (Xilinx MUXF7/F8): `out = if sel { hi } else
    /// { lo }`.
    Mux {
        /// Select signal.
        sel: SignalId,
        /// Value when `sel` is 0.
        lo: SignalId,
        /// Value when `sel` is 1.
        hi: SignalId,
    },
}

/// A combinational network of LUTs, muxes and constants.
///
/// Built through [`NetlistBuilder`], which enforces topological order, so
/// evaluation is a single forward sweep.
///
/// # Example
///
/// ```
/// use poetbin_bits::TruthTable;
/// use poetbin_fpga::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new();
/// let x = b.add_input();
/// let y = b.add_input();
/// let and = b.add_lut(vec![x, y], TruthTable::from_fn(2, |i| i == 3));
/// b.set_outputs(vec![and]);
/// let net = b.finish();
/// assert_eq!(net.eval(&[true, true]), vec![true]);
/// assert_eq!(net.eval(&[true, false]), vec![false]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Netlist {
    nodes: Vec<Node>,
    outputs: Vec<SignalId>,
    num_inputs: usize,
}

/// Structural defects detected while validating a [`Netlist`].
///
/// The evaluators (`Netlist::eval`, `simulate`, the `poetbin-engine` plan
/// builder) all sweep the nodes once in storage order, so an operand id at
/// or after its reader would silently observe a stale default value
/// instead of the driving node's output. Validation turns that silent
/// wrong answer into a loud error at construction time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A `Lut` or `Mux` operand refers to the reading node itself or a
    /// later node — evaluation order would read a stale default.
    ForwardReference {
        /// Id of the reading node.
        node: usize,
        /// The out-of-order operand id.
        operand: SignalId,
    },
    /// A LUT's operand count disagrees with its truth-table arity.
    ArityMismatch {
        /// Id of the LUT node.
        node: usize,
        /// Operand count as wired.
        operands: usize,
        /// Input count the table expects.
        table_inputs: usize,
    },
    /// An output taps a signal no node drives.
    UndefinedOutput {
        /// The undefined output id.
        output: SignalId,
        /// Number of signals that exist.
        num_signals: usize,
    },
    /// An `Input` node's position among the primary inputs is out of range.
    BadInputIndex {
        /// Id of the input node.
        node: usize,
        /// The claimed primary-input position.
        index: usize,
        /// Declared number of primary inputs.
        num_inputs: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ForwardReference { node, operand } => write!(
                f,
                "node {node} reads signal {operand}, which is not defined before it \
                 (operands must be topologically ordered)"
            ),
            NetlistError::ArityMismatch {
                node,
                operands,
                table_inputs,
            } => write!(
                f,
                "LUT node {node} wires {operands} operands to a {table_inputs}-input table"
            ),
            NetlistError::UndefinedOutput {
                output,
                num_signals,
            } => write!(
                f,
                "output taps signal {output} but only {num_signals} signals exist"
            ),
            NetlistError::BadInputIndex {
                node,
                index,
                num_inputs,
            } => write!(
                f,
                "input node {node} claims primary-input position {index} of {num_inputs}"
            ),
        }
    }
}

impl std::error::Error for NetlistError {}

impl Netlist {
    /// Assembles a netlist from raw parts, validating the structural
    /// invariants the forward-sweep evaluators rely on.
    ///
    /// This is the programmatic counterpart of [`NetlistBuilder`]: use it
    /// when reconstructing a netlist from persisted or externally produced
    /// node lists, where the builder's incremental panics are unavailable.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] on forward references, LUT arity
    /// mismatches, undefined outputs, or out-of-range input positions.
    pub fn from_parts(
        nodes: Vec<Node>,
        outputs: Vec<SignalId>,
        num_inputs: usize,
    ) -> Result<Netlist, NetlistError> {
        let net = Netlist {
            nodes,
            outputs,
            num_inputs,
        };
        net.validate()?;
        Ok(net)
    }

    /// Checks the topological-order and arity invariants of the stored
    /// nodes.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] encountered in node order.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Const { .. } => {}
                Node::Input { index } => {
                    if *index >= self.num_inputs {
                        return Err(NetlistError::BadInputIndex {
                            node: id,
                            index: *index,
                            num_inputs: self.num_inputs,
                        });
                    }
                }
                Node::Lut { inputs, table } => {
                    if inputs.len() != table.inputs() {
                        return Err(NetlistError::ArityMismatch {
                            node: id,
                            operands: inputs.len(),
                            table_inputs: table.inputs(),
                        });
                    }
                    if let Some(&bad) = inputs.iter().find(|&&src| src >= id) {
                        return Err(NetlistError::ForwardReference {
                            node: id,
                            operand: bad,
                        });
                    }
                }
                Node::Mux { sel, lo, hi } => {
                    if let Some(&bad) = [*sel, *lo, *hi].iter().find(|&&src| src >= id) {
                        return Err(NetlistError::ForwardReference {
                            node: id,
                            operand: bad,
                        });
                    }
                }
            }
        }
        if let Some(&bad) = self.outputs.iter().find(|&&o| o >= self.nodes.len()) {
            return Err(NetlistError::UndefinedOutput {
                output: bad,
                num_signals: self.nodes.len(),
            });
        }
        Ok(())
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The output signals, in declaration order.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of signals (nodes).
    pub fn num_signals(&self) -> usize {
        self.nodes.len()
    }

    /// Evaluates the network on one input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs, "input arity mismatch");
        let mut values = vec![false; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            values[id] = match node {
                Node::Input { index } => inputs[*index],
                Node::Const { value } => *value,
                Node::Lut { inputs, table } => {
                    let mut addr = 0usize;
                    for (pos, &src) in inputs.iter().enumerate() {
                        if values[src] {
                            addr |= 1 << pos;
                        }
                    }
                    table.eval(addr)
                }
                Node::Mux { sel, lo, hi } => {
                    if values[*sel] {
                        values[*hi]
                    } else {
                        values[*lo]
                    }
                }
            };
        }
        self.outputs.iter().map(|&o| values[o]).collect()
    }

    /// Area statistics of the network as built (before or after mapping).
    pub fn area(&self) -> AreaReport {
        let mut report = AreaReport::default();
        for node in &self.nodes {
            match node {
                Node::Input { .. } | Node::Const { .. } => {}
                Node::Lut { inputs, .. } => {
                    report.luts += 1;
                    report.max_lut_inputs = report.max_lut_inputs.max(inputs.len());
                    if inputs.len() > 6 {
                        report.oversized_luts += 1;
                    }
                }
                Node::Mux { .. } => report.muxes += 1,
            }
        }
        report
    }

    /// Fanout (number of reading nodes plus output taps) of every signal.
    pub fn fanouts(&self) -> Vec<usize> {
        let mut fanout = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            match node {
                Node::Input { .. } | Node::Const { .. } => {}
                Node::Lut { inputs, .. } => {
                    for &src in inputs {
                        fanout[src] += 1;
                    }
                }
                Node::Mux { sel, lo, hi } => {
                    fanout[*sel] += 1;
                    fanout[*lo] += 1;
                    fanout[*hi] += 1;
                }
            }
        }
        for &o in &self.outputs {
            fanout[o] += 1;
        }
        fanout
    }
}

/// Area statistics of a [`Netlist`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AreaReport {
    /// Number of LUT nodes.
    pub luts: usize,
    /// Number of dedicated mux nodes.
    pub muxes: usize,
    /// Widest LUT fan-in present.
    pub max_lut_inputs: usize,
    /// LUTs wider than the 6-input fabric primitive (present only before
    /// technology mapping).
    pub oversized_luts: usize,
}

/// Incremental, topologically-ordered netlist construction.
#[derive(Default)]
pub struct NetlistBuilder {
    nodes: Vec<Node>,
    outputs: Vec<SignalId>,
    num_inputs: usize,
}

impl NetlistBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        NetlistBuilder::default()
    }

    /// Adds the next primary input and returns its signal.
    pub fn add_input(&mut self) -> SignalId {
        let id = self.nodes.len();
        self.nodes.push(Node::Input {
            index: self.num_inputs,
        });
        self.num_inputs += 1;
        id
    }

    /// Adds `n` primary inputs and returns their signals.
    pub fn add_inputs(&mut self, n: usize) -> Vec<SignalId> {
        (0..n).map(|_| self.add_input()).collect()
    }

    /// Adds a constant driver.
    pub fn add_const(&mut self, value: bool) -> SignalId {
        self.nodes.push(Node::Const { value });
        self.nodes.len() - 1
    }

    /// Adds a LUT node.
    ///
    /// # Panics
    ///
    /// Panics if the operand count disagrees with the table arity or any
    /// operand is not yet defined (forward reference).
    pub fn add_lut(&mut self, inputs: Vec<SignalId>, table: TruthTable) -> SignalId {
        assert_eq!(
            inputs.len(),
            table.inputs(),
            "LUT operand count must match table arity"
        );
        let id = self.nodes.len();
        for &src in &inputs {
            assert!(src < id, "forward reference to signal {src}");
        }
        self.nodes.push(Node::Lut { inputs, table });
        id
    }

    /// Adds a dedicated 2:1 mux node.
    ///
    /// # Panics
    ///
    /// Panics on forward references.
    pub fn add_mux(&mut self, sel: SignalId, lo: SignalId, hi: SignalId) -> SignalId {
        let id = self.nodes.len();
        for src in [sel, lo, hi] {
            assert!(src < id, "forward reference to signal {src}");
        }
        self.nodes.push(Node::Mux { sel, lo, hi });
        id
    }

    /// Declares the network outputs.
    ///
    /// # Panics
    ///
    /// Panics if any signal is undefined.
    pub fn set_outputs(&mut self, outputs: Vec<SignalId>) {
        for &o in &outputs {
            assert!(o < self.nodes.len(), "undefined output signal {o}");
        }
        self.outputs = outputs;
    }

    /// Finalises the netlist, re-validating the topological operand order
    /// end to end.
    ///
    /// The incremental `add_*` methods already reject forward references,
    /// but `finish` is the single choke point every construction path goes
    /// through, so it re-checks the whole node list: a netlist that
    /// evaluates wrong silently is far worse than a loud failure here.
    ///
    /// # Panics
    ///
    /// Panics with the offending [`NetlistError`] if any operand is not
    /// topologically ordered, any LUT arity disagrees with its table, or
    /// any output is undefined.
    pub fn finish(self) -> Netlist {
        match Netlist::from_parts(self.nodes, self.outputs, self.num_inputs) {
            Ok(net) => net,
            Err(e) => panic!("invalid netlist: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_net() -> Netlist {
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        let y = b.add_input();
        let xor = b.add_lut(vec![x, y], TruthTable::from_fn(2, |i| i == 1 || i == 2));
        b.set_outputs(vec![xor]);
        b.finish()
    }

    #[test]
    fn eval_xor() {
        let net = xor_net();
        assert_eq!(net.eval(&[false, false]), vec![false]);
        assert_eq!(net.eval(&[true, false]), vec![true]);
        assert_eq!(net.eval(&[false, true]), vec![true]);
        assert_eq!(net.eval(&[true, true]), vec![false]);
    }

    #[test]
    fn mux_selects() {
        let mut b = NetlistBuilder::new();
        let sel = b.add_input();
        let lo = b.add_const(false);
        let hi = b.add_const(true);
        let m = b.add_mux(sel, lo, hi);
        b.set_outputs(vec![m]);
        let net = b.finish();
        assert_eq!(net.eval(&[false]), vec![false]);
        assert_eq!(net.eval(&[true]), vec![true]);
    }

    #[test]
    fn area_counts_primitives() {
        let mut b = NetlistBuilder::new();
        let ins = b.add_inputs(8);
        let wide = b.add_lut(ins.clone(), TruthTable::from_fn(8, |i| i % 3 == 0));
        let narrow = b.add_lut(ins[..2].to_vec(), TruthTable::from_fn(2, |i| i == 0));
        let m = b.add_mux(ins[0], wide, narrow);
        b.set_outputs(vec![m]);
        let area = b.finish().area();
        assert_eq!(area.luts, 2);
        assert_eq!(area.muxes, 1);
        assert_eq!(area.max_lut_inputs, 8);
        assert_eq!(area.oversized_luts, 1);
    }

    #[test]
    fn fanouts_count_readers_and_outputs() {
        let net = xor_net();
        let f = net.fanouts();
        assert_eq!(f[0], 1); // x feeds the LUT
        assert_eq!(f[1], 1);
        assert_eq!(f[2], 1); // output tap
    }

    #[test]
    #[should_panic(expected = "forward reference")]
    fn forward_reference_panics() {
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        b.add_lut(vec![x, 99], TruthTable::zeros(2));
    }

    #[test]
    fn from_parts_rejects_forward_references() {
        // Regression: a LUT operand at or after its own id used to be
        // evaluated against a stale `false` default instead of failing.
        let nodes = vec![
            Node::Input { index: 0 },
            Node::Lut {
                inputs: vec![0, 2],
                table: TruthTable::zeros(2),
            },
            Node::Input { index: 1 },
        ];
        let err = Netlist::from_parts(nodes, vec![1], 2).unwrap_err();
        assert_eq!(
            err,
            NetlistError::ForwardReference {
                node: 1,
                operand: 2
            }
        );
        assert!(err.to_string().contains("topologically ordered"));

        // Self-reference counts as forward too.
        let nodes = vec![
            Node::Input { index: 0 },
            Node::Mux {
                sel: 0,
                lo: 0,
                hi: 1,
            },
        ];
        let err = Netlist::from_parts(nodes, vec![1], 1).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::ForwardReference { node: 1, .. }
        ));
    }

    #[test]
    fn from_parts_rejects_other_defects() {
        let arity = Netlist::from_parts(
            vec![
                Node::Input { index: 0 },
                Node::Lut {
                    inputs: vec![0],
                    table: TruthTable::zeros(2),
                },
            ],
            vec![1],
            1,
        )
        .unwrap_err();
        assert!(matches!(arity, NetlistError::ArityMismatch { node: 1, .. }));

        let out = Netlist::from_parts(vec![Node::Input { index: 0 }], vec![5], 1).unwrap_err();
        assert!(matches!(
            out,
            NetlistError::UndefinedOutput { output: 5, .. }
        ));

        let idx = Netlist::from_parts(vec![Node::Input { index: 3 }], vec![0], 1).unwrap_err();
        assert!(matches!(idx, NetlistError::BadInputIndex { index: 3, .. }));
    }

    #[test]
    fn from_parts_accepts_valid_netlists_and_finish_validates() {
        let net = xor_net();
        let rebuilt = Netlist::from_parts(
            net.nodes().to_vec(),
            net.outputs().to_vec(),
            net.num_inputs(),
        )
        .expect("valid netlist");
        assert_eq!(rebuilt, net);
        assert!(net.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_input_count_panics() {
        xor_net().eval(&[true]);
    }

    #[test]
    fn deep_chain_evaluates() {
        // A 100-deep inverter chain: output = input for even depth.
        let mut b = NetlistBuilder::new();
        let mut sig = b.add_input();
        for _ in 0..100 {
            sig = b.add_lut(vec![sig], TruthTable::from_fn(1, |i| i == 0));
        }
        b.set_outputs(vec![sig]);
        let net = b.finish();
        assert_eq!(net.eval(&[true]), vec![true]);
        assert_eq!(net.eval(&[false]), vec![false]);
    }
}
