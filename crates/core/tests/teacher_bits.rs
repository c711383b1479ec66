//! Golden bits of teacher training.
//!
//! Trains a tiny LeNet teacher and a tiny VGG teacher for one epoch on 64
//! synthetic images and checks an FNV-1a digest of every trained parameter
//! (and of the inference-mode logits, which also cover the batch-norm
//! running statistics) against constants pinned in this file.
//!
//! The teacher's float arithmetic is deliberately order-fixed: every
//! product sums over ascending `k` from `+0.0`, and batch norm sums each
//! channel in flat-index order. A kernel change that keeps that contract
//! leaves these digests untouched. A change that re-orders any float sum
//! moves them; it must then re-pin the constants here, and it makes the
//! `train-*` benchmark results of the two revisions incomparable (their
//! model digests differ).

use poetbin_core::arch::Architecture;
use poetbin_data::ImageDataset;
use poetbin_nn::{fit, Adam, ExponentialDecay, FitConfig, Mode, SquaredHingeLoss};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, values: &[f32]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// Trains `arch`'s teacher network for one epoch and digests its
/// parameters followed by its inference-mode outputs on the same images.
fn teacher_digest(arch: &Architecture, data: &ImageDataset) -> u64 {
    let (mut net, _, _) = arch.build_teacher(7);
    let config = FitConfig::new(1)
        .with_batch_size(16)
        .with_schedule(ExponentialDecay::new(0.005, 0.85))
        .with_seed(7);
    let mut adam = Adam::new(0.005);
    fit(
        &mut net,
        &SquaredHingeLoss,
        &mut adam,
        &data.images,
        &data.labels,
        &config,
    );
    let mut hash = FNV_OFFSET;
    for p in net.params_mut() {
        hash = fnv1a(hash, p.value.data());
    }
    let logits = net.forward(data.images.clone(), Mode::Infer);
    fnv1a(hash, logits.data())
}

#[test]
fn lenet_teacher_trains_to_pinned_bits() {
    let data = poetbin_data::synthetic::digits(64, 11);
    let digest = teacher_digest(&Architecture::m1().scaled(32), &data);
    assert_eq!(
        digest, 0x978f_52af_1558_c149,
        "LeNet teacher bits moved: {digest:#018x}"
    );
}

#[test]
fn vgg_teacher_trains_to_pinned_bits() {
    let data = poetbin_data::synthetic::house_numbers(64, 13);
    let digest = teacher_digest(&Architecture::s1().scaled(32), &data);
    assert_eq!(
        digest, 0x3e53_1c35_b42c_e00d,
        "VGG teacher bits moved: {digest:#018x}"
    );
}
