//! Minimal CPU neural-network training substrate for the PoET-BiN
//! reproduction.
//!
//! The paper trains its vanilla and teacher networks in PyTorch (§3); this
//! crate implements the needed subset from scratch:
//!
//! * [`Tensor`] — a dense row-major f32 tensor with the linear algebra the
//!   layers need: one packed, register-tiled mat-mul kernel whose sums
//!   are bit-identical to a naive triple loop at any thread count.
//! * [`Layer`] implementations — [`Dense`], [`Conv2d`], [`MaxPool2d`],
//!   [`Relu`], [`BatchNorm`], [`Flatten`], and crucially
//!   [`BinarySigmoid`]: Kwan's hard binary activation with a
//!   straight-through gradient, which produces the binary features and
//!   binary intermediate neurons PoET-BiN distils from.
//! * [`SquaredHingeLoss`] and [`CrossEntropyLoss`] — the paper trains with
//!   squared hinge (Rosasco et al., 2004).
//! * [`Adam`] and [`Sgd`] optimizers with [`ExponentialDecay`] learning-rate
//!   scheduling, matching §3's recipe.
//! * [`Sequential`] + [`fit`]/[`evaluate`] training-loop helpers.
//!
//! # Example
//!
//! ```
//! use poetbin_nn::{Dense, Relu, Sequential, Tensor};
//!
//! let mut net = Sequential::new();
//! net.push(Dense::new(4, 8, 1));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 2, 2));
//! let x = Tensor::zeros(vec![3, 4]);
//! let y = net.forward(x, poetbin_nn::Mode::Infer);
//! assert_eq!(y.shape(), &[3, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gemm;
mod layers;
mod loss;
mod optim;
mod tensor;
mod train;

pub use layers::{
    BatchNorm, BinarySigmoid, Conv2d, Dense, Flatten, Layer, MaxPool2d, Mode, Param, Relu,
    Sequential,
};
pub use loss::{CrossEntropyLoss, Loss, SquaredHingeLoss};
pub use optim::{Adam, ExponentialDecay, Optimizer, Sgd};
pub use tensor::Tensor;
pub use train::{evaluate, fit, predictions, FitConfig, FitReport};
