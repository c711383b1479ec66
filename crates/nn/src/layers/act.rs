//! Activation layers: ReLU and the binary sigmoid of Kwan (1992).

use super::{Layer, Mode};
use crate::Tensor;

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, mut x: Tensor, mode: Mode) -> Tensor {
        let mut mask = if mode == Mode::Train {
            Vec::with_capacity(x.len())
        } else {
            Vec::new()
        };
        for v in x.data_mut() {
            let pass = *v > 0.0;
            if mode == Mode::Train {
                mask.push(pass);
            }
            if !pass {
                *v = 0.0;
            }
        }
        if mode == Mode::Train {
            self.mask = Some(mask);
        }
        x
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("relu backward without training forward");
        for (g, pass) in grad.data_mut().iter_mut().zip(mask) {
            if !pass {
                *g = 0.0;
            }
        }
        grad
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// The binary sigmoid activation (Kwan, 1992) with a straight-through
/// gradient.
///
/// Forward: `y = 1` if `x >= 0` else `0` — a hard threshold, exactly the
/// one-bit signal an FPGA LUT consumes. The paper inserts this after the
/// last convolutional layer (producing the 512 binary features) and after
/// the intermediate layer (producing the `nc × P` binary neurons RINC
/// modules emulate).
///
/// Backward: the straight-through estimator `dy/dx ≈ 1[|x| <= width]`, the
/// standard trick (Courbariaux et al., 2016) for training through hard
/// thresholds.
pub struct BinarySigmoid {
    /// Half-width of the straight-through gradient window.
    width: f32,
    cache_x: Option<Tensor>,
}

impl BinarySigmoid {
    /// Creates a binary sigmoid with the conventional unit-window
    /// straight-through gradient.
    pub fn new() -> Self {
        BinarySigmoid {
            width: 1.0,
            cache_x: None,
        }
    }

    /// Creates a binary sigmoid with a custom straight-through window.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive.
    pub fn with_width(width: f32) -> Self {
        assert!(width > 0.0, "straight-through window must be positive");
        BinarySigmoid {
            width,
            cache_x: None,
        }
    }
}

impl Default for BinarySigmoid {
    fn default() -> Self {
        BinarySigmoid::new()
    }
}

impl Layer for BinarySigmoid {
    fn forward(&mut self, mut x: Tensor, mode: Mode) -> Tensor {
        // Only the training backward reads the pre-activation input; in
        // inference the input is thresholded in place without a copy.
        if mode == Mode::Train {
            self.cache_x = Some(x.clone());
        }
        for v in x.data_mut() {
            *v = if *v >= 0.0 { 1.0 } else { 0.0 };
        }
        x
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("binary sigmoid backward without training forward");
        for (g, &xv) in grad.data_mut().iter_mut().zip(x.data()) {
            if xv.abs() > self.width {
                *g = 0.0;
            }
        }
        grad
    }

    fn name(&self) -> &'static str {
        "binary_sigmoid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], vec![1, 3]);
        let y = relu.forward(x, Mode::Infer);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks_negative_inputs() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], vec![1, 2]);
        relu.forward(x, Mode::Train);
        let g = relu.backward(Tensor::from_vec(vec![5.0, 5.0], vec![1, 2]));
        assert_eq!(g.data(), &[0.0, 5.0]);
    }

    #[test]
    fn binary_sigmoid_outputs_bits() {
        let mut act = BinarySigmoid::new();
        let x = Tensor::from_vec(vec![-0.5, 0.0, 0.7, -2.0], vec![1, 4]);
        let y = act.forward(x, Mode::Infer);
        assert_eq!(y.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn inference_caches_nothing_and_matches_training_output() {
        let x = Tensor::from_vec(vec![-0.5, 0.0, 0.7, -2.0, 3.0, -0.0], vec![2, 3]);
        let mut infer = BinarySigmoid::new();
        let y_infer = infer.forward(x.clone(), Mode::Infer);
        assert!(
            infer.cache_x.is_none(),
            "inference must not cache its input"
        );
        let mut train = BinarySigmoid::new();
        let y_train = train.forward(x.clone(), Mode::Train);
        assert_eq!(y_infer.data(), y_train.data());
        assert_eq!(y_infer.shape(), x.shape());
        assert_eq!(train.cache_x.as_ref().map(Tensor::data), Some(x.data()));
    }

    #[test]
    fn straight_through_window_gates_gradient() {
        let mut act = BinarySigmoid::new();
        let x = Tensor::from_vec(vec![-0.5, 1.5, 0.9, -3.0], vec![1, 4]);
        act.forward(x, Mode::Train);
        let g = act.backward(Tensor::full(vec![1, 4], 2.0));
        // |x| <= 1 passes the gradient, |x| > 1 blocks it.
        assert_eq!(g.data(), &[2.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn custom_window_widens_gradient() {
        let mut act = BinarySigmoid::with_width(2.0);
        let x = Tensor::from_vec(vec![1.5, 2.5], vec![1, 2]);
        act.forward(x, Mode::Train);
        let g = act.backward(Tensor::full(vec![1, 2], 1.0));
        assert_eq!(g.data(), &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        BinarySigmoid::with_width(0.0);
    }
}
