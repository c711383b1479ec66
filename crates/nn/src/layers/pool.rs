//! Max pooling.

use super::{Layer, Mode};
use crate::Tensor;

/// Non-overlapping `s × s` max pooling over `[n, c, h, w]` tensors.
///
/// `h` and `w` must be divisible by the pool size — the feature extractors
/// in this reproduction are sized to guarantee it.
pub struct MaxPool2d {
    size: usize,
    cache: Option<PoolCache>,
}

struct PoolCache {
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates an `size × size` max-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "pool size must be positive");
        MaxPool2d { size, cache: None }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Tensor, mode: Mode) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "expected [n, c, h, w], got {s:?}");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(
            h % self.size,
            0,
            "height {h} not divisible by pool {}",
            self.size
        );
        assert_eq!(
            w % self.size,
            0,
            "width {w} not divisible by pool {}",
            self.size
        );
        let (oh, ow) = (h / self.size, w / self.size);
        let k = self.size;
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        let planes = x.data().chunks_exact(h * w).enumerate();
        let outs = out
            .chunks_exact_mut(oh * ow)
            .zip(argmax.chunks_exact_mut(oh * ow));
        for ((p, plane), (out, argmax)) in planes.zip(outs) {
            for (oi, (o, arg)) in out.iter_mut().zip(argmax.iter_mut()).enumerate() {
                let (oy, ox) = (oi / ow, oi % ow);
                // Seed with the window's first element, so that a window
                // of -inf or NaN still routes its gradient inside itself.
                let first = oy * k * w + ox * k;
                let (mut best, mut at) = (plane[first], first);
                for ky in 0..k {
                    let row = first + ky * w;
                    for (i, &v) in plane[row..row + k].iter().enumerate() {
                        if v > best {
                            best = v;
                            at = row + i;
                        }
                    }
                }
                *o = best;
                *arg = p * h * w + at;
            }
        }
        if mode == Mode::Train {
            self.cache = Some(PoolCache {
                argmax,
                in_shape: vec![n, c, h, w],
            });
        }
        Tensor::from_vec(out, vec![n, c, oh, ow])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("maxpool backward without training forward");
        let mut dx = Tensor::zeros(cache.in_shape.clone());
        let dxd = dx.data_mut();
        for (g, &src) in grad.data().iter().zip(&cache.argmax) {
            dxd[src] += g;
        }
        dx
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_picks_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 1.0, 1.0, 1.0, //
                1.0, 1.0, 1.0, 2.0,
            ],
            vec![1, 1, 4, 4],
        );
        let y = pool.forward(x, Mode::Infer);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 9.0, 2.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![1, 1, 2, 2]);
        pool.forward(x, Mode::Train);
        let dx = pool.backward(Tensor::from_vec(vec![10.0], vec![1, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn multichannel_pooling_is_independent() {
        let mut pool = MaxPool2d::new(2);
        let mut data = vec![0.0f32; 2 * 4];
        data[3] = 5.0; // channel 0 max
        data[4] = 7.0; // channel 1 max
        let x = Tensor::from_vec(data, vec![1, 2, 2, 2]);
        let y = pool.forward(x, Mode::Infer);
        assert_eq!(y.data(), &[5.0, 7.0]);
    }

    #[test]
    fn non_finite_windows_route_gradient_inside_themselves() {
        // Before the window seed, an all -inf or NaN window kept the
        // argmax at 0 and sent its gradient to the tensor's first element.
        let mut pool = MaxPool2d::new(2);
        let (inf, nan) = (f32::NEG_INFINITY, f32::NAN);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, inf, inf, //
                3.0, 4.0, inf, inf, //
                nan, nan, 5.0, nan, //
                nan, nan, nan, 6.0,
            ],
            vec![1, 1, 4, 4],
        );
        let y = pool.forward(x, Mode::Train);
        assert_eq!(y.data()[..2], [4.0, inf]);
        assert!(y.data()[2].is_nan());
        assert_eq!(y.data()[3], 6.0);
        let dx = pool.backward(Tensor::from_vec(
            vec![1.0, 10.0, 100.0, 1000.0],
            vec![1, 1, 2, 2],
        ));
        let mut want = [0.0f32; 16];
        want[5] = 1.0; // the 4.0
        want[2] = 10.0; // first -inf of the second window
        want[8] = 100.0; // first NaN of the third window
        want[15] = 1000.0; // the 6.0, past the NaNs between it and the seed
        assert_eq!(dx.data(), want);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_size_panics() {
        let mut pool = MaxPool2d::new(2);
        pool.forward(Tensor::zeros(vec![1, 1, 3, 4]), Mode::Infer);
    }
}
