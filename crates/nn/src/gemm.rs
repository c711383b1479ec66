//! The one matrix-product kernel behind [`Tensor::matmul`],
//! [`Tensor::t_matmul`], [`Tensor::matmul_t`] and the convolution layer.
//!
//! `C += op(A) · op(B)`, where `op` optionally reads a row-major operand
//! transposed. The kernel packs `A` into `MR`-row panels and `B` into
//! `NR`-column panels, `KC` deep, and keeps an `MR × NR` tile of `C` in
//! registers while it walks a panel pair. Large products split the rows of
//! `C` over the cores.
//!
//! # Bit-exact contract
//!
//! The kernel vectorises across output elements, never across the shared
//! dimension. Every output element is therefore summed over ascending `k`,
//! starting from its value in `C`, one separate multiply and add per term
//! (Rust never contracts them into a fused multiply-add). Each `KC` block
//! reloads its partial sums from `C`, which continues the same sequence.
//! Into a zeroed `C` this is exactly the sum of a naive triple loop, so the
//! result does not depend on the tile sizes, the block depth or the thread
//! count. (Terms with a zero factor need no skip: an accumulator started at
//! `+0.0` never becomes `-0.0` under round-to-nearest, and adding `±0` to it
//! is the identity for finite operands.)
//!
//! [`Tensor::matmul`]: crate::Tensor::matmul
//! [`Tensor::t_matmul`]: crate::Tensor::t_matmul
//! [`Tensor::matmul_t`]: crate::Tensor::matmul_t

use std::sync::OnceLock;

/// Rows of the register tile.
const MR: usize = 4;
/// Columns of the register tile: two 4-lane vectors per row.
const NR: usize = 8;
/// Depth of one packed block of the shared dimension.
const KC: usize = 256;
/// Rows of `A` packed per block (a whole number of `MR` panels).
const MC: usize = 64;
/// Work (in multiply-adds) below which splitting over threads costs more
/// than it saves: a scoped spawn is tens of microseconds.
const PARALLEL_MACS: usize = 1 << 21;

/// A row-major matrix read either as stored or transposed.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    transposed: bool,
}

/// `c += op(a) · op(b)` with `op(a)` of shape `[m, k]`, `op(b)` of shape
/// `[k, n]` and `c` row-major `[m, n]`.
///
/// `a` is stored `[m, k]`, or `[k, m]` when `a_t`; `b` is stored `[k, n]`,
/// or `[n, k]` when `b_t`. See the module docs for the summation order.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub(crate) fn gemm(a: &[f32], a_t: bool, b: &[f32], b_t: bool, c: &mut [f32], dims: [usize; 3]) {
    let [m, k, n] = dims;
    gemm_threads(a, a_t, b, b_t, c, dims, threads_for(m * k * n));
}

/// How many threads a job of `macs` multiply-adds should split over: one
/// below the spawn break-even, else every core.
pub(crate) fn threads_for(macs: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if macs < PARALLEL_MACS {
        return 1;
    }
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs every job, each on its own scoped thread except the first, which
/// runs on the calling thread.
pub(crate) fn run_all<F: FnOnce() + Send>(jobs: impl IntoIterator<Item = F>) {
    std::thread::scope(|s| {
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        for job in jobs {
            s.spawn(job);
        }
        if let Some(job) = first {
            job();
        }
    });
}

/// [`gemm`] over an explicit number of row bands, one thread each.
pub(crate) fn gemm_threads(
    a: &[f32],
    a_t: bool,
    b: &[f32],
    b_t: bool,
    c: &mut [f32],
    [m, k, n]: [usize; 3],
    threads: usize,
) {
    assert_eq!(
        a.len(),
        m * k,
        "gemm: a holds {} values, not {m}x{k}",
        a.len()
    );
    assert_eq!(
        b.len(),
        k * n,
        "gemm: b holds {} values, not {k}x{n}",
        b.len()
    );
    assert_eq!(
        c.len(),
        m * n,
        "gemm: c holds {} values, not {m}x{n}",
        c.len()
    );
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let a = Operand {
        data: a,
        transposed: a_t,
    };
    let b = Operand {
        data: b,
        transposed: b_t,
    };
    let band = m.div_ceil(threads.max(1)).next_multiple_of(MR);
    run_all(
        c.chunks_mut(band * n)
            .enumerate()
            .map(|(i, rows)| move || gemm_band(a, b, rows, i * band, [m, k, n])),
    );
}

/// Computes the rows `row0..row0 + c.len() / n` of the product into `c`.
fn gemm_band(a: Operand, b: Operand, c: &mut [f32], row0: usize, [m, k, n]: [usize; 3]) {
    let rows = c.len() / n;
    let mut a_pack = vec![0.0f32; MC * KC.min(k)];
    let mut b_pack = vec![0.0f32; NR * KC.min(k)];
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        for i0 in (0..rows).step_by(MC) {
            let mc = MC.min(rows - i0);
            pack_a(a, &mut a_pack, row0 + i0, mc, k0, kc, [m, k]);
            for j0 in (0..n).step_by(NR) {
                let nr = NR.min(n - j0);
                pack_b(b, &mut b_pack, j0, nr, k0, kc, [k, n]);
                for (p, panel) in a_pack[..mc.next_multiple_of(MR) * kc]
                    .chunks_exact(MR * kc)
                    .enumerate()
                {
                    let i = i0 + p * MR;
                    let mr = MR.min(rows - i);
                    tile(panel, &b_pack[..NR * kc], &mut c[i * n + j0..], n, mr, nr);
                }
            }
        }
    }
}

/// Packs rows `i0..i0 + mc`, depths `k0..k0 + kc` of `op(a)` into
/// `MR`-row panels laid out `[panel][depth][row]`, zero-padding the last.
fn pack_a(
    a: Operand,
    pack: &mut [f32],
    i0: usize,
    mc: usize,
    k0: usize,
    kc: usize,
    [m, k]: [usize; 2],
) {
    for (p, panel) in pack[..mc.next_multiple_of(MR) * kc]
        .chunks_exact_mut(MR * kc)
        .enumerate()
    {
        let i = i0 + p * MR;
        let mr = MR.min(i0 + mc - i);
        for (d, dst) in panel.chunks_exact_mut(MR).enumerate() {
            let kk = k0 + d;
            for (r, v) in dst.iter_mut().enumerate() {
                *v = if r >= mr {
                    0.0
                } else if a.transposed {
                    a.data[kk * m + i + r]
                } else {
                    a.data[(i + r) * k + kk]
                };
            }
        }
    }
}

/// Packs columns `j0..j0 + nr`, depths `k0..k0 + kc` of `op(b)` into one
/// `NR`-column panel laid out `[depth][column]`, zero-padding past `nr`.
fn pack_b(
    b: Operand,
    pack: &mut [f32],
    j0: usize,
    nr: usize,
    k0: usize,
    kc: usize,
    [k, n]: [usize; 2],
) {
    for (d, dst) in pack[..NR * kc].chunks_exact_mut(NR).enumerate() {
        let kk = k0 + d;
        if b.transposed {
            for (col, v) in dst.iter_mut().enumerate() {
                *v = if col < nr {
                    b.data[(j0 + col) * k + kk]
                } else {
                    0.0
                };
            }
        } else {
            dst[..nr].copy_from_slice(&b.data[kk * n + j0..kk * n + j0 + nr]);
            dst[nr..].fill(0.0);
        }
    }
}

/// `C[..mr][..nr] += panel_a · panel_b` for one `MR × NR` tile whose
/// top-left element is `c[0]` (row stride `ldc`).
fn tile(a: &[f32], b: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
    }
    for (a, b) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        let a: &[f32; MR] = a.try_into().expect("MR chunk");
        let b: &[f32; NR] = b.try_into().expect("NR chunk");
        for (row, &av) in acc.iter_mut().zip(a) {
            for (acc, &bv) in row.iter_mut().zip(b) {
                *acc += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        c[r * ldc..r * ldc + nr].copy_from_slice(&row[..nr]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// The seed `matmul` loop (i-k-j, skipping zero `a`), kept as the
    /// oracle the kernel must match bit for bit.
    fn ref_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The seed `t_matmul` loop (`a` stored `[k, m]`, k-i-j).
    fn ref_t_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for kk in 0..k {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n..(kk + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The seed `matmul_t` loop (`b` stored `[n, k]`, one dot product per
    /// output element).
    fn ref_matmul_t(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (a, b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Stores `[r, c]` row-major data transposed, `[c, r]`.
    fn transpose(x: &[f32], r: usize, c: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; x.len()];
        for i in 0..r {
            for j in 0..c {
                t[j * r + i] = x[i * c + j];
            }
        }
        t
    }

    /// Values spread over several magnitudes, so that summation order
    /// shows in the low bits, with planted `0.0` and `-0.0` entries.
    fn values(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.random_range(0..10u32) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.random_range(-1.0f32..1.0) * 10f32.powi(rng.random_range(-3..4)),
            })
            .collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The kernel into a zeroed `C`, all four transpose combinations, each
    /// against the seed loop that computes the same sum order.
    fn check(m: usize, k: usize, n: usize, threads: usize, rng: &mut StdRng) {
        let a = values(m * k, rng);
        let b = values(k * n, rng);
        let (a_t, b_t) = (transpose(&a, m, k), transpose(&b, k, n));
        let want = bits(&ref_matmul(&a, &b, m, k, n));
        assert_eq!(want, bits(&ref_t_matmul(&a_t, &b, m, k, n)));
        assert_eq!(want, bits(&ref_matmul_t(&a, &transpose(&b, k, n), m, k, n)));
        for (a, a_flag) in [(&a, false), (&a_t, true)] {
            for (b, b_flag) in [(&b, false), (&b_t, true)] {
                let mut c = vec![0.0f32; m * n];
                gemm_threads(a, a_flag, b, b_flag, &mut c, [m, k, n], threads);
                assert_eq!(
                    bits(&c),
                    want,
                    "m{m} k{k} n{n} a_t={a_flag} b_t={b_flag} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn matches_seed_loops_bit_for_bit_at_edge_shapes() {
        let mut rng = StdRng::seed_from_u64(27);
        let dims = [0, 1, MR - 1, MR + 1, NR - 1, NR + 1, KC - 1, KC + 1];
        for &m in &dims {
            for &k in &dims {
                for &n in &dims {
                    if m * k * n > 70_000 {
                        continue;
                    }
                    check(m, k, n, 1, &mut rng);
                }
            }
        }
        for _ in 0..40 {
            let m = rng.random_range(0..70usize);
            let k = rng.random_range(0..2 * KC + 3);
            let n = rng.random_range(0..40usize);
            check(m, k, n, 1, &mut rng);
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let mut rng = StdRng::seed_from_u64(28);
        for (m, k, n) in [
            (MC + 3, KC + 1, NR + 1),
            (2 * MR + 1, 3, 2 * NR),
            (9, KC, 1),
        ] {
            for threads in [1, 2, 3, 7] {
                check(m, k, n, threads, &mut rng);
            }
        }
        // Past the threshold, the public entry point splits the rows.
        let (m, k, n) = (257, 130, 64);
        assert!(m * k * n >= PARALLEL_MACS);
        let a = values(m * k, &mut rng);
        let b = values(k * n, &mut rng);
        let mut c = vec![0.0f32; m * n];
        gemm(&a, false, &b, false, &mut c, [m, k, n]);
        assert_eq!(bits(&c), bits(&ref_matmul(&a, &b, m, k, n)));
    }

    #[test]
    fn accumulates_into_c_in_k_order() {
        // C += A·B over two calls equals one call over the concatenated
        // depth: the second call continues each element's sum.
        let mut rng = StdRng::seed_from_u64(29);
        let (m, k, n) = (5, 300, 9);
        let a = values(m * k, &mut rng);
        let b = values(k * n, &mut rng);
        let whole = ref_matmul(&a, &b, m, k, n);
        let (k1, k2) = (123, k - 123);
        let a_t = transpose(&a, m, k);
        let mut c = vec![0.0f32; m * n];
        gemm(
            &a_t[..k1 * m],
            true,
            &b[..k1 * n],
            false,
            &mut c,
            [m, k1, n],
        );
        gemm(
            &a_t[k1 * m..],
            true,
            &b[k1 * n..],
            false,
            &mut c,
            [m, k2, n],
        );
        assert_eq!(bits(&c), bits(&whole));
    }

    #[test]
    #[should_panic(expected = "gemm: b holds")]
    fn shape_mismatch_panics() {
        let mut c = vec![0.0f32; 4];
        gemm(&[1.0; 4], false, &[1.0; 3], false, &mut c, [2, 2, 2]);
    }
}
