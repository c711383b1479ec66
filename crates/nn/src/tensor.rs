//! Dense row-major f32 tensors with the operations the layers need.

use crate::gemm::gemm;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fmt;

/// A dense row-major tensor of `f32` values.
///
/// Shapes are dynamic (`Vec<usize>`); layers use `[n, d]` for activations
/// and `[n, c, h, w]` for images. The type deliberately exposes its storage
/// (`data`, `data_mut`) — layers are the abstraction boundary, not the
/// tensor.
///
/// # Example
///
/// ```
/// use poetbin_nn::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        Tensor {
            data: vec![0.0; len],
            shape,
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let len = shape.iter().product();
        Tensor {
            data: vec![value; len],
            shape,
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from existing storage.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: Vec<usize>) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expect,
            "data length {} != shape {:?}",
            data.len(),
            shape
        );
        Tensor { data, shape }
    }

    /// He-uniform initialisation for a layer with `fan_in` inputs, the
    /// standard choice before ReLU-family activations.
    pub fn he_uniform(shape: Vec<usize>, fan_in: usize, rng: &mut StdRng) -> Self {
        let bound = (6.0 / fan_in.max(1) as f32).sqrt();
        let len: usize = shape.iter().product();
        let data = (0..len).map(|_| rng.random_range(-bound..bound)).collect();
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the storage (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the storage (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Tensor {
        let expect: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            expect,
            "reshape to {shape:?} from {:?}",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// Number of rows when viewed as a matrix (first dimension).
    ///
    /// # Panics
    ///
    /// Panics on a 0-dimensional tensor.
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Elements per row when viewed as a matrix.
    pub fn row_len(&self) -> usize {
        if self.shape.is_empty() {
            0
        } else {
            self.data.len() / self.shape[0]
        }
    }

    /// One row of the matrix view.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        let w = self.row_len();
        &self.data[r * w..(r + 1) * w]
    }

    /// Matrix product `self · other` for 2-D tensors.
    ///
    /// All three products (`matmul`, [`t_matmul`](Self::t_matmul),
    /// [`matmul_t`](Self::matmul_t)) run one packed, register-tiled kernel
    /// that splits large products over the cores. Each output element is
    /// the sum of its terms in ascending `k` order from `+0.0`, so the
    /// result is bit-identical to a naive triple loop whatever the thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[m, k]` and `other` is `[k, n]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimensions {k} vs {k2}");
        self.product(false, other, false, [m, k, n])
    }

    /// `selfᵀ · other` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[k, m]` and `other` is `[k, n]`.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(other.shape.len(), 2);
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "t_matmul inner dimensions {k} vs {k2}");
        self.product(true, other, false, [m, k, n])
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[m, k]` and `other` is `[n, k]`.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(other.shape.len(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_t inner dimensions {k} vs {k2}");
        self.product(false, other, true, [m, k, n])
    }

    /// `op(self) · op(other)` into a fresh `[m, n]` tensor.
    fn product(&self, self_t: bool, other: &Tensor, other_t: bool, dims: [usize; 3]) -> Tensor {
        let [m, _, n] = dims;
        let mut out = vec![0.0f32; m * n];
        gemm(&self.data, self_t, &other.data, other_t, &mut out, dims);
        Tensor::from_vec(out, vec![m, n])
    }

    /// Matrix transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, vec![n, m])
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Row-wise argmax of the matrix view.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows())
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Selects a batch of rows (leading-dimension slices) by index.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let w = self.row_len();
        let mut data = Vec::with_capacity(indices.len() * w);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Tensor::from_vec(data, shape)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], vec![3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), vec![2, 3]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32).sin()).collect(), vec![2, 6]);
        // aᵀ·b via t_matmul equals explicit transpose.
        let direct = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in direct.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        // a·cᵀ via matmul_t equals explicit transpose.
        let c = Tensor::from_vec((0..12).map(|i| (i as f32).cos()).collect(), vec![4, 3]);
        let direct = a.matmul_t(&c);
        let explicit = a.matmul(&c.transpose());
        for (x, y) in direct.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], vec![2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)).data(), a.data());
        assert_eq!(Tensor::eye(2).matmul(&a).data(), a.data());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), vec![3, 4]);
        let b = a.clone().reshape(vec![2, 2, 3]);
        assert_eq!(b.shape(), &[2, 2, 3]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn bad_reshape_panics() {
        Tensor::zeros(vec![2, 3]).reshape(vec![4, 2]);
    }

    #[test]
    fn argmax_rows_picks_maxima() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.5, 2.0, -1.0, 0.0], vec![2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), vec![3, 2]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn he_uniform_is_bounded_and_seeded() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::he_uniform(vec![10, 10], 10, &mut rng);
        let bound = (6.0f32 / 10.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
        let mut rng2 = StdRng::seed_from_u64(1);
        let t2 = Tensor::he_uniform(vec![10, 10], 10, &mut rng2);
        assert_eq!(t.data(), t2.data());
    }

    #[test]
    fn row_view_matches_layout() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), vec![2, 3]);
        assert_eq!(a.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.row_len(), 3);
    }
}
