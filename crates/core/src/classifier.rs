//! The complete PoET-BiN classifier: RINC bank + quantised sparse output.

use poetbin_bits::FeatureMatrix;
use poetbin_boost::{RincModule, RincNode};
use poetbin_fpga::{Netlist, NetlistBuilder, SignalId};
use poetbin_hdl::{generate_testbench, generate_vhdl};

use crate::output_layer::QuantizedSparseOutput;
use crate::rinc_bank::RincBank;

/// The trained PoET-BiN classifier.
///
/// Software inference ([`PoetBinClassifier::predict`]) walks the same LUTs
/// the hardware would: every tree, MAT unit and output score bit is a
/// table look-up. [`PoetBinClassifier::to_netlist`] lowers the classifier
/// onto the FPGA fabric model for timing/power/area analysis, and
/// [`PoetBinClassifier::to_vhdl`] emits the synthesizable design.
#[derive(Clone, Debug, PartialEq)]
pub struct PoetBinClassifier {
    bank: RincBank,
    output: QuantizedSparseOutput,
}

impl PoetBinClassifier {
    /// Assembles a classifier from a trained bank and output layer.
    ///
    /// # Panics
    ///
    /// Panics unless `bank.len() == classes × P` of the output layer.
    pub fn new(bank: RincBank, output: QuantizedSparseOutput) -> Self {
        assert_eq!(
            bank.len(),
            output.classes() * output.lut_inputs(),
            "bank width must equal classes × P"
        );
        PoetBinClassifier { bank, output }
    }

    /// The RINC bank.
    pub fn bank(&self) -> &RincBank {
        &self.bank
    }

    /// The quantised sparse output layer.
    pub fn output(&self) -> &QuantizedSparseOutput {
        &self.output
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.output.classes()
    }

    /// Smallest feature-vector width the classifier can run on: one past
    /// the highest feature index any RINC tree reads.
    ///
    /// A persisted model does not record the width of the rows it was
    /// trained on (trees store only the indices they use), so a loader
    /// that must compile the model without out-of-band metadata —
    /// `poetbin-serve`'s persist → engine path — lowers it at this width.
    ///
    /// Delegates to [`RincBank::min_features`] (itself a fold over
    /// [`RincNode::min_features`]), the single source of truth for width
    /// inference.
    pub fn min_features(&self) -> usize {
        self.bank.min_features()
    }

    /// Predicts classes for a batch of binary feature rows.
    ///
    /// The RINC bank produces its intermediate bits word-parallel (64
    /// examples per [`poetbin_bits::TruthTable::eval_words`] call) and the
    /// output layer decodes them from packed column words; no per-bit
    /// scalar loop remains on the path. For repeated large batches,
    /// `poetbin-engine`'s `ClassifierEngine` precomputes the whole
    /// netlist-level evaluation plan once and additionally shards across
    /// cores.
    pub fn predict(&self, features: &FeatureMatrix) -> Vec<usize> {
        let inter = self.bank.predict_bits(features);
        self.output.predict_batch(&inter)
    }

    /// Classification accuracy against labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the example count.
    pub fn accuracy(&self, features: &FeatureMatrix, labels: &[usize]) -> f64 {
        assert_eq!(features.num_examples(), labels.len());
        if labels.is_empty() {
            return 1.0;
        }
        let preds = self.predict(features);
        preds.iter().zip(labels).filter(|(p, l)| p == l).count() as f64 / labels.len() as f64
    }

    /// Total logical LUTs (before 6-input mapping): RINC bank plus
    /// `q × nc` output LUTs — the quantity §4.3 hand-verifies as 2660 for
    /// SVHN.
    pub fn lut_count(&self) -> usize {
        self.bank.lut_count() + self.output.lut_count()
    }

    /// Lowers the classifier onto the FPGA fabric model.
    ///
    /// Inputs are the binary features; outputs are the `nc × q` score
    /// bits, class-major with bit 0 first
    /// (`class0_bit0, class0_bit1, …, class1_bit0, …`).
    pub fn to_netlist(&self, num_features: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let inputs = b.add_inputs(num_features);
        let inter: Vec<SignalId> = self
            .bank
            .modules()
            .iter()
            .map(|m| add_rinc_node(&mut b, m, &inputs))
            .collect();
        let p = self.output.lut_inputs();
        let luts = self.output.to_luts();
        let mut outputs = Vec::new();
        for (c, class_luts) in luts.iter().enumerate() {
            let class_bits: Vec<SignalId> = inter[c * p..(c + 1) * p].to_vec();
            for table in class_luts {
                outputs.push(b.add_lut(class_bits.clone(), table.clone()));
            }
        }
        b.set_outputs(outputs);
        b.finish()
    }

    /// Decodes netlist/simulation outputs (as produced by
    /// [`PoetBinClassifier::to_netlist`]'s output ordering) back into a
    /// predicted class.
    ///
    /// # Panics
    ///
    /// Panics unless `bits.len() == classes × q`.
    pub fn argmax_from_output_bits(&self, bits: &[bool]) -> usize {
        let q = self.output.q_bits() as usize;
        assert_eq!(bits.len(), self.classes() * q, "output bit count mismatch");
        (0..self.classes())
            .max_by_key(|&c| {
                let mut score = 0u64;
                for b in 0..q {
                    if bits[c * q + b] {
                        score |= 1 << b;
                    }
                }
                (score, std::cmp::Reverse(c))
            })
            .unwrap_or(0)
    }

    /// Emits the synthesizable VHDL of the classifier.
    pub fn to_vhdl(&self, num_features: usize, entity: &str) -> String {
        generate_vhdl(&self.to_netlist(num_features), entity)
    }

    /// Emits a self-checking testbench over the given feature rows.
    pub fn to_testbench(&self, features: &FeatureMatrix, entity: &str) -> String {
        let net = self.to_netlist(features.num_features());
        let vectors: Vec<poetbin_bits::BitVec> = features.iter_rows().cloned().collect();
        generate_testbench(&net, entity, &vectors)
    }
}

/// Recursively lowers a RINC node; returns the signal carrying its output.
fn add_rinc_node(b: &mut NetlistBuilder, node: &RincNode, inputs: &[SignalId]) -> SignalId {
    match node {
        RincNode::Tree(tree) => {
            let ins: Vec<SignalId> = tree.features().iter().map(|&f| inputs[f]).collect();
            b.add_lut(ins, tree.table().clone())
        }
        RincNode::Module(module) => add_rinc_module(b, module, inputs),
    }
}

fn add_rinc_module(b: &mut NetlistBuilder, module: &RincModule, inputs: &[SignalId]) -> SignalId {
    let child_signals: Vec<SignalId> = module
        .children()
        .iter()
        .map(|c| add_rinc_node(b, c, inputs))
        .collect();
    b.add_lut(child_signals, module.mat().table().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use poetbin_bits::BitVec;
    use poetbin_boost::RincConfig;
    use poetbin_fpga::simulate;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// A tiny but complete classifier: 2 classes, P=3, majority-structured
    /// features.
    fn tiny_classifier() -> (PoetBinClassifier, FeatureMatrix, Vec<usize>) {
        let n = 300;
        let f = 18;
        let classes = 2;
        let p = 3;
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<BitVec> = (0..n)
            .map(|_| BitVec::from_fn(f, |_| rng.random::<bool>()))
            .collect();
        let features = FeatureMatrix::from_rows(rows);
        let labels: Vec<usize> = (0..n)
            .map(|e| usize::from((0..9).filter(|&j| features.bit(e, j)).count() >= 5))
            .collect();
        // Intermediate targets in the teacher's style: every bit of class
        // c's block fires exactly when the example belongs to class c —
        // a 9-feature majority, expressible by a RINC-1 with P=3.
        let targets =
            FeatureMatrix::from_fn(n, classes * p, |e, j| (j / p == 1) == (labels[e] == 1));
        let bank = RincBank::train(&features, &targets, &RincConfig::new(p, 1));
        let inter = bank.predict_bits(&features);
        let output = QuantizedSparseOutput::train(&inter, &labels, classes, 8, 20);
        (PoetBinClassifier::new(bank, output), features, labels)
    }

    #[test]
    fn classifier_beats_chance_substantially() {
        let (clf, features, labels) = tiny_classifier();
        let acc = clf.accuracy(&features, &labels);
        assert!(acc > 0.7, "accuracy {acc:.3}");
    }

    #[test]
    fn netlist_agrees_with_software_path() {
        let (clf, features, labels) = tiny_classifier();
        let _ = labels;
        let net = clf.to_netlist(features.num_features());
        let vectors: Vec<BitVec> = (0..40).map(|e| features.row(e).clone()).collect();
        let sim = simulate(&net, &vectors);
        let soft = clf.predict(&features.select_examples(&(0..40).collect::<Vec<_>>()));
        for (v, &expect) in soft.iter().enumerate() {
            let bits: Vec<bool> = (0..net.outputs().len())
                .map(|k| sim.outputs[k].get(v))
                .collect();
            assert_eq!(
                clf.argmax_from_output_bits(&bits),
                expect,
                "vector {v} hardware/software disagreement"
            );
        }
    }

    #[test]
    fn lut_count_decomposes() {
        let (clf, _, _) = tiny_classifier();
        assert_eq!(
            clf.lut_count(),
            clf.bank().lut_count() + clf.output().lut_count()
        );
        // P=3, RINC-1, 2 classes: bank ≤ 6 modules × 4 LUTs; output = 2×8.
        assert_eq!(clf.output().lut_count(), 16);
    }

    #[test]
    fn vhdl_export_is_nonempty_and_parseable() {
        let (clf, features, _) = tiny_classifier();
        let text = clf.to_vhdl(features.num_features(), "poetbin");
        assert!(text.contains("entity poetbin is"));
        let parsed = poetbin_hdl::parse_vhdl(&text).expect("roundtrip");
        assert_eq!(parsed.num_inputs(), features.num_features());
    }

    #[test]
    #[should_panic(expected = "bank width")]
    fn mismatched_widths_panic() {
        let (clf, features, labels) = tiny_classifier();
        let inter = clf.bank().predict_bits(&features);
        // An output layer trained on only 4 of the 6 intermediate bits
        // cannot pair with the 6-module bank.
        let narrow = inter.select_features(&[0, 1, 2, 3]);
        let wrong = QuantizedSparseOutput::train(&narrow, &labels, 2, 8, 1);
        let _ = PoetBinClassifier::new(clf.bank().clone(), wrong);
    }
}
