//! 2-D convolution via im2col and the tiled mat-mul kernel.

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{Layer, Mode, Param};
use crate::gemm::{gemm_threads, run_all, threads_for};
use crate::Tensor;

/// A 2-D convolution over `[n, c, h, w]` tensors.
///
/// Each image is unfolded (im2col) into a `[c·k·k, oh·ow]` matrix, and the
/// output plane comes straight out of the tiled mat-mul kernel as
/// `W · cols` in NCHW layout, with no rearranging pass. Stride is fixed at
/// 1; zero padding is configurable. Every product sums in the same order as
/// the naive loops, so training is bit-reproducible across thread counts.
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    w: Param,
    b: Param,
    cache: Option<ConvCache>,
}

struct ConvCache {
    /// Every image's `[c·k·k, oh·ow]` unfolding, image after image.
    cols: Vec<f32>,
    in_shape: Vec<usize>,
}

impl Conv2d {
    /// Creates a convolution with a square `kernel`, stride 1, and the
    /// given zero padding, He-initialised from a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            pad,
            w: Param::new(Tensor::he_uniform(
                vec![out_channels, in_channels * kernel * kernel],
                fan_in,
                &mut rng,
            )),
            b: Param::new(Tensor::zeros(vec![out_channels])),
            cache: None,
        }
    }

    /// Output spatial size for an input of `h × w`.
    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            h + 2 * self.pad + 1 - self.kernel,
            w + 2 * self.pad + 1 - self.kernel,
        )
    }

    /// For kernel offset `kx` along an axis of input length `w` and output
    /// length `ow`: the output range whose input `o + kx - pad` is inside
    /// the image (the rest reads zero padding).
    fn valid(&self, kx: usize, w: usize, ow: usize) -> std::ops::Range<usize> {
        let lo = self.pad.saturating_sub(kx).min(ow);
        let hi = (w + self.pad).saturating_sub(kx).clamp(lo, ow);
        lo..hi
    }

    /// im2col for one `[c, h, w]` image: row `(ch·k + ky)·k + kx` of the
    /// zeroed `[c·k·k, oh·ow]` matrix `cols` holds that kernel tap's input
    /// for every output position.
    fn im2col(&self, img: &[f32], [c, h, w]: [usize; 3], cols: &mut [f32]) {
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = &mut cols[((ch * k + ky) * k + kx) * oh * ow..][..oh * ow];
                    let xs = self.valid(kx, w, ow);
                    if xs.is_empty() {
                        continue;
                    }
                    let (x0, x1) = (xs.start + kx - self.pad, xs.end + kx - self.pad);
                    for oy in self.valid(ky, h, oh) {
                        let src = (ch * h + oy + ky - self.pad) * w;
                        row[oy * ow + xs.start..oy * ow + xs.end]
                            .copy_from_slice(&img[src + x0..src + x1]);
                    }
                }
            }
        }
    }

    /// col2im for one image: scatter-adds the `[c·k·k, oh·ow]` column
    /// gradient into the zeroed `[c, h, w]` input gradient `dx`.
    ///
    /// Kernel taps run in descending order, so each input element receives
    /// its terms in ascending output-position order — the order of a
    /// position-major scatter over `[oh·ow, c·k·k]` columns.
    fn col2im(&self, dcols: &[f32], [c, h, w]: [usize; 3], dx: &mut [f32]) {
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        for ch in 0..c {
            for ky in (0..k).rev() {
                for kx in (0..k).rev() {
                    let row = &dcols[((ch * k + ky) * k + kx) * oh * ow..][..oh * ow];
                    let xs = self.valid(kx, w, ow);
                    if xs.is_empty() {
                        continue;
                    }
                    let (x0, x1) = (xs.start + kx - self.pad, xs.end + kx - self.pad);
                    for oy in self.valid(ky, h, oh) {
                        let dst = (ch * h + oy + ky - self.pad) * w;
                        let src = &row[oy * ow + xs.start..oy * ow + xs.end];
                        for (d, g) in dx[dst + x0..dst + x1].iter_mut().zip(src) {
                            *d += g;
                        }
                    }
                }
            }
        }
    }
}

fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    let s = x.shape();
    assert_eq!(s.len(), 4, "expected [n, c, h, w], got {s:?}");
    (s[0], s[1], s[2], s[3])
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor, mode: Mode) -> Tensor {
        let (n, c, h, w) = dims4(&x);
        assert_eq!(
            c, self.in_channels,
            "conv expected {} channels",
            self.in_channels
        );
        let (oh, ow) = self.out_hw(h, w);
        let (ckk, plane) = (self.w.value.row_len(), oh * ow);
        let oc = self.out_channels;
        // Training keeps every image's unfolding for the backward pass;
        // inference unfolds into one reused image-sized buffer per thread.
        // (im2col never writes the padding taps, so a buffer stays valid.)
        let unfolded = ckk * plane;
        let kept = if mode == Mode::Train { n } else { 0 };
        let mut cols = vec![0.0f32; kept * unfolded];
        let mut out = vec![0.0f32; n * oc * plane];
        // Images are independent: split them into one band per thread.
        let band = n.div_ceil(threads_for(n * oc * ckk * plane)).max(1);
        let kept_bands = cols
            .chunks_mut(band * unfolded)
            .map(Some)
            .chain(std::iter::repeat_with(|| None));
        let this = &*self;
        let jobs = x
            .data()
            .chunks(band * c * h * w)
            .zip(out.chunks_mut(band * oc * plane))
            .zip(kept_bands)
            .map(|((x, out), mut kept)| {
                move || {
                    let mut scratch = vec![0.0f32; if kept.is_some() { 0 } else { unfolded }];
                    let images = x
                        .chunks_exact(c * h * w)
                        .zip(out.chunks_exact_mut(oc * plane));
                    for (i, (img, out)) in images.enumerate() {
                        let cols = match &mut kept {
                            Some(kept) => &mut kept[i * unfolded..(i + 1) * unfolded],
                            None => &mut scratch[..],
                        };
                        this.im2col(img, [c, h, w], cols);
                        // [out, ckk] · [ckk, oh·ow] = [out, oh·ow], then the bias.
                        let weights = this.w.value.data();
                        gemm_threads(weights, false, cols, false, out, [oc, ckk, plane], 1);
                        for (row, &b) in out.chunks_exact_mut(plane).zip(this.b.value.data()) {
                            for v in row {
                                *v += b;
                            }
                        }
                    }
                }
            });
        run_all(jobs);
        if mode == Mode::Train {
            self.cache = Some(ConvCache {
                cols,
                in_shape: vec![n, c, h, w],
            });
        }
        Tensor::from_vec(out, vec![n, oc, oh, ow])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("conv backward without training forward");
        let (n, c, h, w) = (
            cache.in_shape[0],
            cache.in_shape[1],
            cache.in_shape[2],
            cache.in_shape[3],
        );
        let (ckk, oc) = (self.w.value.row_len(), self.out_channels);
        let (oh, ow) = self.out_hw(h, w);
        let plane = oh * ow;
        assert_eq!(grad.shape(), [n, oc, oh, ow], "conv gradient shape");
        let g = grad.data();
        let threads = threads_for(n * oc * ckk * plane);

        // db: each bias sums its channel's gradient in image order.
        for img in g.chunks_exact(oc * plane) {
            for (db, row) in self
                .b
                .grad
                .data_mut()
                .iter_mut()
                .zip(img.chunks_exact(plane))
            {
                for v in row {
                    *db += v;
                }
            }
        }

        // dW += grad · colsᵀ, image after image, so that every weight is one
        // running sum over the batch's output positions in order. Threads
        // split the rows of dW, never the images.
        let mut dw = vec![0.0f32; oc * ckk];
        let rows = oc.div_ceil(threads).max(1);
        let cols = &cache.cols;
        run_all(dw.chunks_mut(rows * ckk).enumerate().map(|(t, dw)| {
            move || {
                let (o0, o1) = (t * rows, t * rows + dw.len() / ckk);
                let images = g
                    .chunks_exact(oc * plane)
                    .zip(cols.chunks_exact(ckk * plane));
                for (g, cols) in images {
                    let g = &g[o0 * plane..o1 * plane];
                    gemm_threads(g, false, cols, true, dw, [o1 - o0, plane, ckk], 1);
                }
            }
        }));
        for (g, d) in self.w.grad.data_mut().iter_mut().zip(&dw) {
            *g += d;
        }

        // dx: per image, dcols = Wᵀ · grad folded back by col2im.
        let mut dx = vec![0.0f32; n * c * h * w];
        let band = n.div_ceil(threads).max(1);
        let this = &*self;
        run_all(
            g.chunks(band * oc * plane)
                .zip(dx.chunks_mut(band * c * h * w))
                .map(|(g, dx)| {
                    move || {
                        let mut dcols = vec![0.0f32; ckk * plane];
                        let weights = this.w.value.data();
                        for (g, dx) in g
                            .chunks_exact(oc * plane)
                            .zip(dx.chunks_exact_mut(c * h * w))
                        {
                            dcols.fill(0.0);
                            gemm_threads(weights, true, g, false, &mut dcols, [ckk, oc, plane], 1);
                            this.col2im(&dcols, [c, h, w], dx);
                        }
                    }
                }),
        );
        Tensor::from_vec(dx, cache.in_shape)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-channel 3×3 input convolved with an identity kernel must
    /// reproduce itself.
    #[test]
    fn identity_kernel_preserves_input() {
        let mut conv = Conv2d::new(1, 1, 1, 0, 0);
        conv.w.value = Tensor::from_vec(vec![1.0], vec![1, 1]);
        conv.b.value = Tensor::zeros(vec![1]);
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), vec![1, 1, 3, 3]);
        let y = conv.forward(x.clone(), Mode::Infer);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_sum_kernel() {
        let mut conv = Conv2d::new(1, 1, 3, 0, 1);
        conv.w.value = Tensor::full(vec![1, 9], 1.0);
        conv.b.value = Tensor::zeros(vec![1]);
        let x = Tensor::full(vec![1, 1, 3, 3], 1.0);
        let y = conv.forward(x, Mode::Infer);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[9.0]);
    }

    #[test]
    fn padding_grows_output() {
        let conv = Conv2d::new(1, 2, 3, 1, 1);
        assert_eq!(conv.out_hw(8, 8), (8, 8));
        let conv = Conv2d::new(1, 2, 5, 0, 1);
        assert_eq!(conv.out_hw(28, 28), (24, 24));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 5);
        let x = Tensor::from_vec(
            (0..16).map(|i| ((i * 7 % 5) as f32 - 2.0) * 0.3).collect(),
            vec![1, 1, 4, 4],
        );
        let y = conv.forward(x.clone(), Mode::Train);
        let dx = conv.backward(Tensor::full(y.shape().to_vec(), 1.0));

        let eps = 1e-2f32;
        for idx in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let yp: f32 = conv.forward(xp, Mode::Infer).data().iter().sum();
            let ym: f32 = conv.forward(xm, Mode::Infer).data().iter().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (dx.data()[idx] - numeric).abs() < 2e-2,
                "dx[{idx}] analytic {} vs numeric {numeric}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut conv = Conv2d::new(1, 1, 2, 0, 3);
        let x = Tensor::from_vec(
            vec![0.5, -1.0, 0.25, 2.0, 1.5, -0.5, 0.0, 1.0, -2.0],
            vec![1, 1, 3, 3],
        );
        let y = conv.forward(x.clone(), Mode::Train);
        conv.backward(Tensor::full(y.shape().to_vec(), 1.0));
        let analytic = conv.w.grad.data().to_vec();

        let eps = 1e-2f32;
        for (idx, &grad) in analytic.iter().enumerate().take(4) {
            let orig = conv.w.value.data()[idx];
            conv.w.value.data_mut()[idx] = orig + eps;
            let yp: f32 = conv.forward(x.clone(), Mode::Infer).data().iter().sum();
            conv.w.value.data_mut()[idx] = orig - eps;
            let ym: f32 = conv.forward(x.clone(), Mode::Infer).data().iter().sum();
            conv.w.value.data_mut()[idx] = orig;
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (grad - numeric).abs() < 2e-2,
                "dw[{idx}] analytic {grad} vs numeric {numeric}"
            );
        }
    }

    /// The seed convolution written as direct loops: every sum in the
    /// order of the whole-batch im2col + mat-mul it computed.
    fn direct(conv: &Conv2d, x: &Tensor, g: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = dims4(x);
        let (oh, ow) = conv.out_hw(h, w);
        let (k, oc, pad) = (conv.kernel, conv.out_channels, conv.pad as isize);
        let ckk = c * k * k;
        let (wd, bias, xd) = (conv.w.value.data(), conv.b.value.data(), x.data());
        let col = |img: usize, oy: usize, ox: usize, q: usize| {
            let (ch, ky, kx) = (q / (k * k), q / k % k, q % k);
            let iy = oy as isize + ky as isize - pad;
            let ix = ox as isize + kx as isize - pad;
            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                0.0
            } else {
                xd[((img * c + ch) * h + iy as usize) * w + ix as usize]
            }
        };
        let positions =
            || (0..n).flat_map(move |i| (0..oh).flat_map(move |y| (0..ow).map(move |x| (i, y, x))));
        let gi = |img: usize, o: usize, oy: usize, ox: usize| ((img * oc + o) * oh + oy) * ow + ox;
        let mut out = vec![0.0f32; n * oc * oh * ow];
        let (mut dw, mut db) = (vec![0.0f32; oc * ckk], vec![0.0f32; oc]);
        let mut dx = vec![0.0f32; x.len()];
        for (img, oy, ox) in positions() {
            for o in 0..oc {
                let mut acc = 0.0f32;
                for q in 0..ckk {
                    acc += col(img, oy, ox, q) * wd[o * ckk + q];
                }
                out[gi(img, o, oy, ox)] = acc + bias[o];
                db[o] += g[gi(img, o, oy, ox)];
            }
            for q in 0..ckk {
                let mut acc = 0.0f32;
                for o in 0..oc {
                    acc += g[gi(img, o, oy, ox)] * wd[o * ckk + q];
                }
                let (ch, ky, kx) = (q / (k * k), q / k % k, q % k);
                let iy = oy as isize + ky as isize - pad;
                let ix = ox as isize + kx as isize - pad;
                if iy >= 0 && ix >= 0 && iy < h as isize && ix < w as isize {
                    dx[((img * c + ch) * h + iy as usize) * w + ix as usize] += acc;
                }
            }
        }
        for o in 0..oc {
            for q in 0..ckk {
                let mut acc = 0.0f32;
                for (img, oy, ox) in positions() {
                    acc += g[gi(img, o, oy, ox)] * col(img, oy, ox, q);
                }
                dw[o * ckk + q] = acc;
            }
        }
        (out, dw, db, dx)
    }

    #[test]
    fn matches_direct_loops_bit_for_bit() {
        // (n, c, h, w, out, kernel, pad), including padding wider than the
        // image and a tap range that misses a whole axis.
        for (i, &(n, c, h, w, oc, k, pad)) in [
            (2, 2, 5, 7, 3, 3, 2),
            (1, 1, 4, 4, 2, 4, 0),
            (3, 3, 6, 5, 5, 1, 0),
            (1, 2, 1, 2, 2, 5, 3),
            (2, 16, 8, 8, 32, 3, 1),
        ]
        .iter()
        .enumerate()
        {
            let mut conv = Conv2d::new(c, oc, k, pad, i as u64);
            conv.b.value =
                Tensor::from_vec((0..oc).map(|o| o as f32 * 0.1 - 0.2).collect(), vec![oc]);
            let x = Tensor::from_vec(
                (0..n * c * h * w)
                    .map(|j| ((j * 37 % 23) as f32 - 11.0) * 0.137)
                    .collect(),
                vec![n, c, h, w],
            );
            let y = conv.forward(x.clone(), Mode::Train);
            let g: Vec<f32> = (0..y.len())
                .map(|j| ((j * 53 % 19) as f32 - 9.0) * 0.071)
                .collect();
            let dx = conv.backward(Tensor::from_vec(g.clone(), y.shape().to_vec()));
            let (out, dw, db, want_dx) = direct(&conv, &x, &g);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y.data()), bits(&out), "forward, case {i}");
            assert_eq!(bits(conv.w.grad.data()), bits(&dw), "dW, case {i}");
            assert_eq!(bits(conv.b.grad.data()), bits(&db), "db, case {i}");
            assert_eq!(bits(dx.data()), bits(&want_dx), "dx, case {i}");
        }
    }

    #[test]
    fn empty_batch_round_trips() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 4);
        let y = conv.forward(Tensor::zeros(vec![0, 2, 5, 5]), Mode::Train);
        assert_eq!(y.shape(), &[0, 3, 5, 5]);
        let dx = conv.backward(y);
        assert_eq!(dx.shape(), &[0, 2, 5, 5]);
        assert!(conv.w.grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn multichannel_shapes() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 2);
        let y = conv.forward(Tensor::zeros(vec![2, 3, 16, 16]), Mode::Infer);
        assert_eq!(y.shape(), &[2, 8, 16, 16]);
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn channel_mismatch_panics() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 2);
        conv.forward(Tensor::zeros(vec![1, 2, 8, 8]), Mode::Infer);
    }
}
