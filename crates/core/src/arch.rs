//! Network architectures (Table 1 of the paper) and their CPU-scaled
//! equivalents.

use poetbin_nn::{BatchNorm, BinarySigmoid, Conv2d, Dense, Flatten, MaxPool2d, Relu, Sequential};

/// Which activation produces the 512 features: ReLU for the vanilla
/// network, the binary sigmoid once the features are binarised (§3:
/// "we replace the ReLU with binary sigmoid activation after the last
/// convolutional layer").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureActivation {
    /// Full-precision features (stage A1).
    Relu,
    /// Binary features (stages A2 onward).
    Binary,
}

/// The convolutional feature extractor preceding the classifier.
///
/// Both extractors end in 512 features, the binary feature width of every
/// configuration in the paper; PoET-BiN itself only ever sees these 512
/// bits, so the extractor's internal width is free to scale with the
/// compute budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureExtractor {
    /// LeNet-style for 28×28×1 inputs (the M1 row of Table 1):
    /// conv5×5 → pool → conv5×5 → pool → 512 features.
    LeNetLike,
    /// VGG-style for 32×32×3 inputs (the C1/S1 rows, scaled):
    /// three conv3×3+pool stages → 512 features.
    VggLike,
}

impl FeatureExtractor {
    /// Expected input shape `(c, h, w)`.
    pub fn input_shape(self) -> (usize, usize, usize) {
        match self {
            FeatureExtractor::LeNetLike => (1, 28, 28),
            FeatureExtractor::VggLike => (3, 32, 32),
        }
    }

    /// Number of features produced (always 512, as in the paper).
    pub fn num_features(self) -> usize {
        512
    }

    /// Appends the extractor's layers to a network, with the feature
    /// activation (after the last convolution's batch norm) chosen by the
    /// caller. The activation precedes the final pooling, so binary
    /// features see zero-centred batch-norm outputs — putting it after a
    /// ReLU would saturate every feature to 1.
    pub fn build(self, net: &mut Sequential, seed: u64, activation: FeatureActivation) {
        let push_feature_act = |net: &mut Sequential| match activation {
            FeatureActivation::Relu => {
                net.push(Relu::new());
            }
            FeatureActivation::Binary => {
                net.push(BinarySigmoid::new());
            }
        };
        match self {
            FeatureExtractor::LeNetLike => {
                net.push(Conv2d::new(1, 8, 5, 0, seed)); // 24×24
                net.push(BatchNorm::new(8));
                net.push(Relu::new());
                net.push(MaxPool2d::new(2)); // 12×12
                net.push(Conv2d::new(8, 32, 5, 0, seed + 1)); // 8×8
                net.push(BatchNorm::new(32));
                push_feature_act(net);
                net.push(MaxPool2d::new(2)); // 4×4 → 512
                net.push(Flatten::new());
            }
            FeatureExtractor::VggLike => {
                net.push(Conv2d::new(3, 16, 3, 1, seed)); // 32×32
                net.push(BatchNorm::new(16));
                net.push(Relu::new());
                net.push(MaxPool2d::new(2)); // 16×16
                net.push(Conv2d::new(16, 32, 3, 1, seed + 1)); // 16×16
                net.push(BatchNorm::new(32));
                net.push(Relu::new());
                net.push(MaxPool2d::new(2)); // 8×8
                net.push(Conv2d::new(32, 32, 3, 1, seed + 2)); // 8×8
                net.push(BatchNorm::new(32));
                push_feature_act(net);
                net.push(MaxPool2d::new(2)); // 4×4 → 512
                net.push(Flatten::new());
            }
        }
    }
}

/// A full network architecture: feature extractor plus classifier stack.
#[derive(Clone, Debug, PartialEq)]
pub struct Architecture {
    /// Table 1 row name (`M1`, `C1`, `S1`) or a scaled variant.
    pub name: String,
    /// The convolutional front end.
    pub feature_extractor: FeatureExtractor,
    /// Hidden fully connected widths of the classifier portion.
    pub hidden: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
    /// LUT fan-in `P` used when PoET-BiN replaces the classifier.
    pub lut_inputs: usize,
    /// Total decision trees per RINC module (e.g. 32 = 4 subgroups × 8).
    pub trees_per_module: usize,
    /// RINC hierarchy depth `L`.
    pub rinc_levels: usize,
}

impl Architecture {
    /// The M1 row of Table 1: LeNet FE, one 512-wide hidden layer, P=8,
    /// 32 DTs, RINC-2.
    pub fn m1() -> Self {
        Architecture {
            name: "M1".into(),
            feature_extractor: FeatureExtractor::LeNetLike,
            hidden: vec![512],
            classes: 10,
            lut_inputs: 8,
            trees_per_module: 32,
            rinc_levels: 2,
        }
    }

    /// The C1 row: VGG FE, two 4096-wide hidden layers, P=8, 40 DTs,
    /// RINC-2.
    pub fn c1() -> Self {
        Architecture {
            name: "C1".into(),
            feature_extractor: FeatureExtractor::VggLike,
            hidden: vec![4096, 4096],
            classes: 10,
            lut_inputs: 8,
            trees_per_module: 40,
            rinc_levels: 2,
        }
    }

    /// The S1 row: VGG FE, two 2048-wide hidden layers, P=6, 36 DTs,
    /// RINC-2.
    pub fn s1() -> Self {
        Architecture {
            name: "S1".into(),
            feature_extractor: FeatureExtractor::VggLike,
            hidden: vec![2048, 2048],
            classes: 10,
            lut_inputs: 6,
            trees_per_module: 36,
            rinc_levels: 2,
        }
    }

    /// Shrinks the hidden widths for CPU-scale training while keeping the
    /// interface PoET-BiN consumes (512 binary features, `nc × P`
    /// intermediate neurons) untouched.
    pub fn scaled(mut self, hidden_width: usize) -> Self {
        for h in &mut self.hidden {
            *h = hidden_width.min(*h);
        }
        self.name = format!("{}-scaled", self.name);
        self
    }

    /// Width of the intermediate layer, `nc × P` (§2.2.1).
    pub fn intermediate_width(&self) -> usize {
        self.classes * self.lut_inputs
    }

    /// Number of subgroups under the top-level MAT (`trees / P^(L-1)`).
    ///
    /// # Panics
    ///
    /// Panics if the tree budget does not divide into whole subgroups.
    pub fn top_groups(&self) -> usize {
        let per_group = self.lut_inputs.pow(self.rinc_levels as u32 - 1);
        assert_eq!(
            self.trees_per_module % per_group,
            0,
            "{} trees do not divide into {}-tree subgroups",
            self.trees_per_module,
            per_group
        );
        self.trees_per_module / per_group
    }

    /// Builds the vanilla classifier network (A1 of Figure 5): FE with
    /// ReLU features → hidden stack → output.
    pub fn build_vanilla(&self, seed: u64) -> Sequential {
        let mut net = Sequential::new();
        self.feature_extractor
            .build(&mut net, seed, FeatureActivation::Relu);
        let mut prev = self.feature_extractor.num_features();
        for (i, &h) in self.hidden.iter().enumerate() {
            net.push(Dense::new(prev, h, seed + 10 + i as u64));
            net.push(Relu::new());
            prev = h;
        }
        net.push(Dense::new(prev, self.classes, seed + 20));
        net
    }

    /// Builds the binary-feature network (A2): the feature activation is a
    /// binary sigmoid, the classifier is unchanged.
    pub fn build_binary_features(&self, seed: u64) -> Sequential {
        let mut net = Sequential::new();
        self.feature_extractor
            .build(&mut net, seed, FeatureActivation::Binary);
        let mut prev = self.feature_extractor.num_features();
        for (i, &h) in self.hidden.iter().enumerate() {
            net.push(Dense::new(prev, h, seed + 10 + i as u64));
            net.push(Relu::new());
            prev = h;
        }
        net.push(Dense::new(prev, self.classes, seed + 20));
        net
    }

    /// Builds the teacher network (A3): binary features, hidden stack,
    /// then the `nc × P` intermediate layer with binary sigmoid, then the
    /// output layer.
    ///
    /// Returns the network together with the layer index at which the
    /// binary features appear and the index of the intermediate
    /// activations (for [`Sequential::forward_prefix`]).
    pub fn build_teacher(&self, seed: u64) -> (Sequential, usize, usize) {
        let mut net = Sequential::new();
        self.feature_extractor
            .build(&mut net, seed, FeatureActivation::Binary);
        let feature_layer = net.len();
        let mut prev = self.feature_extractor.num_features();
        for (i, &h) in self.hidden.iter().enumerate() {
            net.push(Dense::new(prev, h, seed + 10 + i as u64));
            net.push(Relu::new());
            prev = h;
        }
        net.push(Dense::new(prev, self.intermediate_width(), seed + 30));
        // Batch norm keeps the pre-activations inside the straight-through
        // window, as in every binarised network of §3.
        net.push(BatchNorm::new(self.intermediate_width()));
        net.push(BinarySigmoid::new());
        let intermediate_layer = net.len();
        net.push(Dense::new(
            self.intermediate_width(),
            self.classes,
            seed + 40,
        ));
        (net, feature_layer, intermediate_layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poetbin_nn::{Mode, Tensor};

    #[test]
    fn table1_rows_have_paper_shapes() {
        let m1 = Architecture::m1();
        assert_eq!(m1.hidden, vec![512]);
        assert_eq!(m1.intermediate_width(), 80);
        assert_eq!(m1.top_groups(), 4); // 32 DTs = 4 × 8
        let c1 = Architecture::c1();
        assert_eq!(c1.hidden, vec![4096, 4096]);
        assert_eq!(c1.top_groups(), 5); // 40 DTs = 5 × 8
        let s1 = Architecture::s1();
        assert_eq!(s1.intermediate_width(), 60);
        assert_eq!(s1.top_groups(), 6); // 36 DTs = 6 × 6
    }

    #[test]
    fn lenet_fe_produces_512_features() {
        let arch = Architecture::m1().scaled(64);
        let mut net = Sequential::new();
        arch.feature_extractor
            .build(&mut net, 0, FeatureActivation::Relu);
        let y = net.forward(Tensor::zeros(vec![2, 1, 28, 28]), Mode::Infer);
        assert_eq!(y.shape(), &[2, 512]);
    }

    #[test]
    fn vgg_fe_produces_512_features() {
        let arch = Architecture::s1().scaled(64);
        let mut net = Sequential::new();
        arch.feature_extractor
            .build(&mut net, 0, FeatureActivation::Relu);
        let y = net.forward(Tensor::zeros(vec![2, 3, 32, 32]), Mode::Infer);
        assert_eq!(y.shape(), &[2, 512]);
    }

    #[test]
    fn binary_features_are_not_saturated() {
        // The regression this guards: a binary sigmoid placed after a ReLU
        // sees only non-negative values and saturates to all-ones.
        let arch = Architecture::m1().scaled(32);
        let (mut net, feat_idx, _) = arch.build_teacher(3);
        let imgs = Tensor::from_vec(
            (0..4 * 784)
                .map(|i| ((i * 37) % 97) as f32 / 97.0)
                .collect(),
            vec![4, 1, 28, 28],
        );
        // One training pass so batch-norm statistics are meaningful.
        let _ = net.forward(imgs.clone(), Mode::Train);
        let feats = net.forward_prefix(imgs, feat_idx, Mode::Train);
        let ones: f32 = feats.data().iter().sum();
        let total = feats.len() as f32;
        assert!(
            ones > 0.0 && ones < total,
            "features saturated: {ones}/{total}"
        );
    }

    #[test]
    fn teacher_layer_indices_are_correct() {
        let arch = Architecture::m1().scaled(32);
        let (mut net, feat_idx, inter_idx) = arch.build_teacher(0);
        let feats = net.forward_prefix(Tensor::zeros(vec![1, 1, 28, 28]), feat_idx, Mode::Infer);
        assert_eq!(feats.shape(), &[1, 512]);
        let inter = net.forward_prefix(Tensor::zeros(vec![1, 1, 28, 28]), inter_idx, Mode::Infer);
        assert_eq!(inter.shape(), &[1, 80]);
        // Binary activations only.
        assert!(feats.data().iter().all(|v| *v == 0.0 || *v == 1.0));
        assert!(inter.data().iter().all(|v| *v == 0.0 || *v == 1.0));
    }

    #[test]
    fn scaled_keeps_interface() {
        let c1 = Architecture::c1().scaled(128);
        assert_eq!(c1.hidden, vec![128, 128]);
        assert_eq!(c1.intermediate_width(), 80);
        assert_eq!(c1.feature_extractor.num_features(), 512);
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn indivisible_tree_budget_panics() {
        let mut arch = Architecture::m1();
        arch.trees_per_module = 33;
        arch.top_groups();
    }
}
