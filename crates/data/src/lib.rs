//! Datasets for the PoET-BiN reproduction.
//!
//! The paper evaluates on MNIST, CIFAR-10 and SVHN. Those corpora are not
//! redistributable inside this repository, so this crate provides:
//!
//! * [`synthetic`] — seeded procedural generators with the same *shape* as
//!   the paper's datasets: `digits` (28×28 grayscale stroke-rendered
//!   digits), `objects` (32×32 RGB textured shape classes) and
//!   `house_numbers` (32×32 RGB digits over cluttered backgrounds with
//!   distractors). PoET-BiN only ever consumes the binary features produced
//!   by a trained CNN, so any 10-class image task a CNN can learn exercises
//!   the identical code path.
//! * [`idx`] — a loader for the original IDX file format, so real MNIST
//!   files can be dropped in when available.
//! * [`cifar`] — a loader for the CIFAR-10 binary batch format
//!   (`cifar-10-batches-bin`), covering real CIFAR-10 and SVHN-shaped
//!   corpora converted to the same 3073-byte record layout.
//! * [`scenario`] — real-or-synthetic dataset resolution for the pipeline
//!   scenario harness (`data/<name>/` directories holding either the
//!   CIFAR binary batches or the standard four MNIST-style IDX files).
//! * [`binary`] — boolean-function tasks over [`FeatureMatrix`] used to
//!   exercise the tree/boosting layers directly.
//!
//! [`FeatureMatrix`]: poetbin_bits::FeatureMatrix

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod cifar;
pub mod idx;
pub mod scenario;
pub mod synthetic;

use poetbin_nn::Tensor;

/// A labelled image-classification dataset.
///
/// Images are stored as one `[n, c, h, w]` tensor; labels are class
/// indices in `0..num_classes`.
#[derive(Clone, Debug)]
pub struct ImageDataset {
    /// The image tensor, `[n, c, h, w]`.
    pub images: Tensor,
    /// Per-image class indices.
    pub labels: Vec<usize>,
    /// Number of distinct classes.
    pub num_classes: usize,
}

impl ImageDataset {
    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Image dimensions `(c, h, w)`.
    pub fn image_shape(&self) -> (usize, usize, usize) {
        let s = self.images.shape();
        (s[1], s[2], s[3])
    }

    /// Splits into `(train, test)` with the first `train_len` examples in
    /// the training half (generators already shuffle).
    ///
    /// # Panics
    ///
    /// Panics if `train_len > len()`.
    pub fn split(&self, train_len: usize) -> (ImageDataset, ImageDataset) {
        assert!(train_len <= self.len(), "split beyond dataset size");
        let train_idx: Vec<usize> = (0..train_len).collect();
        let test_idx: Vec<usize> = (train_len..self.len()).collect();
        (self.subset(&train_idx), self.subset(&test_idx))
    }

    /// Extracts the given examples (indices may repeat).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn subset(&self, indices: &[usize]) -> ImageDataset {
        ImageDataset {
            images: self.images.gather_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            num_classes: self.num_classes,
        }
    }

    /// Per-class example counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_classes];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ImageDataset {
        ImageDataset {
            images: Tensor::from_vec((0..16).map(|i| i as f32).collect(), vec![4, 1, 2, 2]),
            labels: vec![0, 1, 0, 1],
            num_classes: 2,
        }
    }

    #[test]
    fn split_partitions_in_order() {
        let d = tiny();
        let (train, test) = d.split(3);
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(test.labels, vec![1]);
        assert_eq!(test.images.data(), &[12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn subset_can_repeat() {
        let d = tiny();
        let s = d.subset(&[1, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels, vec![1, 1]);
    }

    #[test]
    fn histogram_counts_classes() {
        assert_eq!(tiny().class_histogram(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn oversized_split_panics() {
        tiny().split(5);
    }
}
