//! Batch normalisation (Ioffe & Szegedy, 2015), used by every vanilla
//! network in §3 of the paper.

use super::{Layer, Mode, Param};
use crate::Tensor;

const EPS: f32 = 1e-5;

/// Batch normalisation over the channel dimension.
///
/// Works on `[n, d]` tensors (per-feature statistics) and `[n, c, h, w]`
/// tensors (per-channel statistics, aggregating over `n·h·w`). Keeps
/// exponential running statistics for inference.
pub struct BatchNorm {
    channels: usize,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<NormCache>,
}

struct NormCache {
    x_hat: Vec<f32>,
    inv_std: Vec<f32>,
    shape: Vec<usize>,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `channels` features/channels with
    /// the conventional 0.1 running-statistics momentum.
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            channels,
            momentum: 0.1,
            gamma: Param::new(Tensor::full(vec![channels], 1.0)),
            beta: Param::new(Tensor::zeros(vec![channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        }
    }

    /// Running mean per channel (inference statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running variance per channel (inference statistics).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// The learned scale γ per channel.
    pub fn gamma(&self) -> &[f32] {
        self.gamma.value.data()
    }

    /// The learned shift β per channel.
    pub fn beta(&self) -> &[f32] {
        self.beta.value.data()
    }

    /// The ε used inside the variance square root, for callers folding the
    /// inference transform into their own arithmetic.
    pub fn epsilon() -> f32 {
        EPS
    }

    /// The `(outer, inner)` extents around the channel axis: `[n, d]` is
    /// `n` runs of one element per channel, `[n, c, h, w]` is `n` runs of
    /// `h·w` contiguous elements per channel. (`inner` is at least 1, so
    /// an empty image yields no runs rather than a zero chunk size.)
    fn runs(shape: &[usize], channels: usize) -> (usize, usize) {
        match shape.len() {
            2 => assert_eq!(shape[1], channels, "batchnorm width mismatch"),
            4 => assert_eq!(shape[1], channels, "batchnorm channel mismatch"),
            _ => panic!("batchnorm supports 2-D or 4-D tensors, got {shape:?}"),
        }
        (shape[0], shape[2..].iter().product::<usize>().max(1))
    }
}

/// Visits `data` as `(channel, run)` pairs in flat-index order, where each
/// run is one channel's contiguous `inner` elements.
fn channel_runs<T>(
    data: &[T],
    channels: usize,
    inner: usize,
) -> impl Iterator<Item = (usize, &[T])> {
    data.chunks_exact(inner)
        .enumerate()
        .map(move |(r, run)| (r % channels, run))
}

impl Layer for BatchNorm {
    fn forward(&mut self, mut x: Tensor, mode: Mode) -> Tensor {
        let shape = x.shape().to_vec();
        let c = self.channels;
        let (outer, inner) = Self::runs(&shape, c);

        // Every per-channel sum runs in flat-index order.
        let (mean, var) = if mode == Mode::Train {
            let count = (outer * inner).max(1) as f64;
            let mut mean = vec![0.0f64; c];
            for (ch, run) in channel_runs(x.data(), c, inner) {
                for &v in run {
                    mean[ch] += v as f64;
                }
            }
            for m in &mut mean {
                *m /= count;
            }
            let mut var = vec![0.0f64; c];
            for (ch, run) in channel_runs(x.data(), c, inner) {
                for &v in run {
                    let d = v as f64 - mean[ch];
                    var[ch] += d * d;
                }
            }
            for v in &mut var {
                *v /= count;
            }
            for ch in 0..c {
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch] as f32;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch] as f32;
            }
            (
                mean.iter().map(|m| *m as f32).collect::<Vec<_>>(),
                var.iter().map(|v| *v as f32).collect::<Vec<_>>(),
            )
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + EPS).sqrt()).collect();
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        let mut x_hat = if mode == Mode::Train {
            vec![0.0f32; x.len()]
        } else {
            Vec::new()
        };
        for (r, run) in x.data_mut().chunks_exact_mut(inner).enumerate() {
            let ch = r % c;
            let (mu, s, g, b) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
            if mode == Mode::Train {
                let hat = &mut x_hat[r * inner..(r + 1) * inner];
                for (v, h) in run.iter_mut().zip(hat) {
                    let norm = (*v - mu) * s;
                    *h = norm;
                    *v = g * norm + b;
                }
            } else {
                for v in run {
                    *v = g * ((*v - mu) * s) + b;
                }
            }
        }
        if mode == Mode::Train {
            self.cache = Some(NormCache {
                x_hat,
                inv_std,
                shape,
            });
        }
        x
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("batchnorm backward without training forward");
        let shape = cache.shape;
        let c = self.channels;
        let (_, inner) = Self::runs(&shape, c);
        let n_per_c = grad.len() / c;

        // Per-channel reductions, each in flat-index order.
        let mut sum_dy = vec![0.0f64; c];
        let mut sum_dy_xhat = vec![0.0f64; c];
        let hats = cache.x_hat.chunks_exact(inner);
        for ((ch, run), hat) in channel_runs(grad.data(), c, inner).zip(hats) {
            for (&g, &h) in run.iter().zip(hat) {
                sum_dy[ch] += g as f64;
                sum_dy_xhat[ch] += g as f64 * h as f64;
            }
        }
        for ch in 0..c {
            self.beta.grad.data_mut()[ch] += sum_dy[ch] as f32;
            self.gamma.grad.data_mut()[ch] += sum_dy_xhat[ch] as f32;
        }

        let gamma = self.gamma.value.data();
        let mut dx = Tensor::zeros(shape);
        let hats = cache.x_hat.chunks_exact(inner);
        let g_runs = grad.data().chunks_exact(inner);
        let runs = dx.data_mut().chunks_exact_mut(inner).zip(g_runs).zip(hats);
        for (r, ((d_run, g_run), hat)) in runs.enumerate() {
            let ch = r % c;
            let n = n_per_c as f64;
            let mean_dy = sum_dy[ch] / n;
            let scale = gamma[ch] as f64 * cache.inv_std[ch] as f64;
            for ((d, &g), &h) in d_run.iter_mut().zip(g_run).zip(hat) {
                let term = g as f64 - mean_dy - h as f64 * sum_dy_xhat[ch] / n;
                *d = (scale * term) as f32;
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn name(&self) -> &'static str {
        "batchnorm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_pass_normalises_each_feature() {
        let mut bn = BatchNorm::new(2);
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 20.0, 5.0, 30.0], vec![3, 2]);
        let y = bn.forward(x, Mode::Train);
        // Each column should now have ~zero mean and ~unit variance.
        for ch in 0..2 {
            let vals: Vec<f32> = (0..3).map(|r| y.data()[r * 2 + ch]).collect();
            let mean: f32 = vals.iter().sum::<f32>() / 3.0;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn inference_uses_running_statistics() {
        let mut bn = BatchNorm::new(1);
        // Prime running stats with several training passes.
        for _ in 0..50 {
            bn.forward(
                Tensor::from_vec(vec![4.0, 6.0, 5.0, 5.0], vec![4, 1]),
                Mode::Train,
            );
        }
        let y = bn.forward(Tensor::from_vec(vec![5.0], vec![1, 1]), Mode::Infer);
        // 5.0 is the running mean, so the output should be near beta = 0.
        assert!(y.data()[0].abs() < 0.2, "got {}", y.data()[0]);
    }

    #[test]
    fn backward_gradient_sums_to_zero_per_channel() {
        // BN output is mean-free per channel, so dL/dx summed over a channel
        // must vanish when gamma is 1 (a standard BN identity).
        let mut bn = BatchNorm::new(2);
        let x = Tensor::from_vec(vec![0.3, -1.0, 2.0, 0.5, -0.7, 1.5], vec![3, 2]);
        bn.forward(x, Mode::Train);
        let dx = bn.backward(Tensor::from_vec(
            vec![1.0, 0.2, -0.5, 0.8, 0.3, -1.0],
            vec![3, 2],
        ));
        for ch in 0..2 {
            let sum: f32 = (0..3).map(|r| dx.data()[r * 2 + ch]).sum();
            assert!(sum.abs() < 1e-4, "channel {ch} grad sum {sum}");
        }
    }

    #[test]
    fn four_d_layout_uses_channel_statistics() {
        let mut bn = BatchNorm::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, // image 0, channel 0
                10.0, 20.0, 30.0, 40.0, // image 0, channel 1
            ],
            vec![1, 2, 2, 2],
        );
        let y = bn.forward(x, Mode::Train);
        for ch in 0..2 {
            let vals = &y.data()[ch * 4..(ch + 1) * 4];
            let mean: f32 = vals.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "2-D or 4-D")]
    fn three_d_panics() {
        let mut bn = BatchNorm::new(2);
        bn.forward(Tensor::zeros(vec![1, 2, 3]), Mode::Train);
    }
}
