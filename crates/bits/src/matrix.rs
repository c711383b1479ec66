//! Binary datasets stored in both row-major and column-major order.

use std::fmt;

use crate::{BitVec, WORD_BITS};

/// In-place transpose of a 64×64 bit block: afterwards, bit `i` of word `j`
/// equals bit `j` of the original word `i` (Hacker's Delight 7-3, adapted
/// to 64 bits and LSB-first ordering).
fn transpose64(a: &mut [u64; WORD_BITS]) {
    let mut j = WORD_BITS / 2;
    let mut m = u64::MAX >> (WORD_BITS / 2);
    while j != 0 {
        let mut k = 0usize;
        while k < WORD_BITS {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Packs up to `64 · block_words` example rows into feature-major
/// lane-word blocks: words `j·block_words..(j+1)·block_words` of the
/// result carry feature `j`, word `w` of the block holding rows
/// `64·w..64·(w+1)` (row `l`'s value in bit `l % 64`) — the layout of
/// `block_words` consecutive words of a [`FeatureMatrix`] column plane,
/// and what `poetbin_engine`'s packed-evaluation path consumes.
///
/// This is the ingestion kernel for request coalescing: a batching server
/// that has collected `rows.len() ≤ 64 · block_words` independent rows
/// turns them into one engine block with a single 64×64 transpose per
/// (64-row, 64-feature) tile, instead of building (and double-transposing)
/// a full [`FeatureMatrix`]. Lanes `>= rows.len()` of every output word
/// are zero.
///
/// # Panics
///
/// Panics if `rows.len() > 64 · block_words` or any row's length differs
/// from `num_features`.
pub fn pack_block_rows<'a, I>(rows: I, num_features: usize, block_words: usize) -> Vec<u64>
where
    I: IntoIterator<Item = &'a BitVec>,
    I::IntoIter: Clone,
{
    let mut out = Vec::new();
    pack_block_rows_into(rows, num_features, block_words, &mut out);
    out
}

/// [`pack_block_rows`] into a caller-owned buffer (cleared and resized to
/// `num_features · block_words` words), so a serving worker that packs one
/// block per batch forever allocates nothing on its hot path. The rows
/// iterator is walked once to validate and once per 64-row tile stripe —
/// hence the `Clone` bound; slices and `iter().map(..)` adapters satisfy
/// it for free.
///
/// # Panics
///
/// As for [`pack_block_rows`].
pub fn pack_block_rows_into<'a, I>(
    rows: I,
    num_features: usize,
    block_words: usize,
    out: &mut Vec<u64>,
) where
    I: IntoIterator<Item = &'a BitVec>,
    I::IntoIter: Clone,
{
    let iter = rows.into_iter();
    out.clear();
    out.resize(num_features * block_words, 0);
    let mut count = 0usize;
    for row in iter.clone() {
        assert!(
            count < block_words * WORD_BITS,
            "at most {} rows fit a {block_words}-word block",
            block_words * WORD_BITS
        );
        assert_eq!(
            row.len(),
            num_features,
            "row {count} has {} features, expected {num_features}",
            row.len()
        );
        count += 1;
    }
    let mut block = [0u64; WORD_BITS];
    for (w, base) in (0..count).step_by(WORD_BITS).enumerate() {
        let lanes = (count - base).min(WORD_BITS);
        let stripe = iter.clone().skip(base).take(lanes);
        for in_word in 0..num_features.div_ceil(WORD_BITS) {
            for (l, row) in stripe.clone().enumerate() {
                block[l] = row.as_words()[in_word];
            }
            for slot in block.iter_mut().skip(lanes) {
                *slot = 0;
            }
            transpose64(&mut block);
            let start = in_word * WORD_BITS;
            for (j, &word) in block.iter().enumerate().take(num_features - start) {
                out[(start + j) * block_words + w] = word;
            }
        }
    }
}

/// Word-level transpose shared by the matrix constructors: given `vecs`
/// bit vectors of `width` bits each, returns `width` vectors of
/// `vecs.len()` bits with the two indices swapped. Works 64×64 bits at a
/// time instead of one bit at a time — this sits on the dataset-loading
/// hot path.
fn transpose(vecs: &[BitVec], width: usize) -> Vec<BitVec> {
    let count = vecs.len();
    let mut out = vec![BitVec::zeros(count); width];
    let in_words = width.div_ceil(WORD_BITS);
    let mut block = [0u64; WORD_BITS];
    for (out_word, base) in (0..count).step_by(WORD_BITS).enumerate() {
        let lanes = (count - base).min(WORD_BITS);
        for in_word in 0..in_words {
            for l in 0..lanes {
                block[l] = vecs[base + l].as_words()[in_word];
            }
            for w in block.iter_mut().skip(lanes) {
                *w = 0;
            }
            transpose64(&mut block);
            let start = in_word * WORD_BITS;
            for (j, &w) in block.iter().enumerate().take(width - start) {
                out[start + j].as_words_mut()[out_word] = w;
            }
        }
    }
    out
}

/// An `n × f` matrix of bits: `n` examples (rows) by `f` binary features
/// (columns).
///
/// Level-wise decision-tree training (Algorithm 1 of the paper) scans every
/// candidate *feature column* once per level, while inference and boosting
/// read individual *example rows*. The matrix therefore keeps both
/// orientations; memory cost is `2·n·f` bits, negligible at PoET-BiN scale
/// (a 60 000 × 512 dataset is under 8 MiB).
///
/// # Example
///
/// ```
/// use poetbin_bits::{BitVec, FeatureMatrix};
///
/// let rows = vec![
///     BitVec::from_bools([true, false, true]),
///     BitVec::from_bools([false, false, true]),
/// ];
/// let m = FeatureMatrix::from_rows(rows);
/// assert_eq!(m.num_examples(), 2);
/// assert_eq!(m.num_features(), 3);
/// assert!(m.bit(0, 0));
/// assert_eq!(m.feature(2).count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct FeatureMatrix {
    n: usize,
    f: usize,
    rows: Vec<BitVec>,
    cols: Vec<BitVec>,
}

impl FeatureMatrix {
    /// Builds a matrix from example rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let n = rows.len();
        let f = rows.first().map_or(0, BitVec::len);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), f, "row {i} has {} features, expected {f}", r.len());
        }
        let cols = transpose(&rows, f);
        FeatureMatrix { n, f, rows, cols }
    }

    /// Builds a matrix from feature columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns have inconsistent lengths.
    pub fn from_columns(cols: Vec<BitVec>) -> Self {
        let f = cols.len();
        let n = cols.first().map_or(0, BitVec::len);
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(
                c.len(),
                n,
                "column {j} has {} examples, expected {n}",
                c.len()
            );
        }
        let rows = transpose(&cols, n);
        FeatureMatrix { n, f, rows, cols }
    }

    /// Builds an `n × f` matrix from a predicate on (example, feature).
    ///
    /// Each row is packed word-by-word as the predicate is evaluated and
    /// the column planes come from a word-level transpose — no per-bit
    /// writes anywhere on the path.
    pub fn from_fn(n: usize, f: usize, mut pred: impl FnMut(usize, usize) -> bool) -> Self {
        let rows = (0..n).map(|e| BitVec::from_fn(f, |j| pred(e, j))).collect();
        FeatureMatrix::from_rows(rows)
    }

    /// Number of examples (rows).
    pub fn num_examples(&self) -> usize {
        self.n
    }

    /// Number of features (columns).
    pub fn num_features(&self) -> usize {
        self.f
    }

    /// Reads the bit for `example`, `feature`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn bit(&self, example: usize, feature: usize) -> bool {
        self.rows[example].get(feature)
    }

    /// The full feature column as a bit vector over examples.
    ///
    /// # Panics
    ///
    /// Panics if `feature >= num_features()`.
    pub fn feature(&self, feature: usize) -> &BitVec {
        &self.cols[feature]
    }

    /// The full example row as a bit vector over features.
    ///
    /// # Panics
    ///
    /// Panics if `example >= num_examples()`.
    pub fn row(&self, example: usize) -> &BitVec {
        &self.rows[example]
    }

    /// Iterates over example rows.
    pub fn iter_rows(&self) -> std::slice::Iter<'_, BitVec> {
        self.rows.iter()
    }

    /// Selects a subset of examples (with repetition allowed), e.g. for
    /// boosting by resampling.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_examples(&self, indices: &[usize]) -> FeatureMatrix {
        let rows = indices.iter().map(|&e| self.rows[e].clone()).collect();
        FeatureMatrix::from_rows(rows)
    }

    /// Selects a subset of feature columns in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_features(&self, features: &[usize]) -> FeatureMatrix {
        let cols = features.iter().map(|&j| self.cols[j].clone()).collect();
        FeatureMatrix::from_columns(cols)
    }

    /// Vertically stacks two matrices with the same feature count.
    ///
    /// # Panics
    ///
    /// Panics if the feature counts differ.
    pub fn vstack(&self, other: &FeatureMatrix) -> FeatureMatrix {
        assert_eq!(self.f, other.f, "feature count mismatch in vstack");
        let rows = self.rows.iter().chain(other.rows.iter()).cloned().collect();
        FeatureMatrix::from_rows(rows)
    }

    /// Packs the bits of `features` for one example into a LUT address
    /// (feature `features[0]` becomes address bit 0).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or more than
    /// `usize::BITS` features are requested.
    #[inline]
    pub fn address(&self, example: usize, features: &[usize]) -> usize {
        assert!(features.len() < usize::BITS as usize);
        let row = &self.rows[example];
        let mut addr = 0usize;
        for (pos, &j) in features.iter().enumerate() {
            if row.get(j) {
                addr |= 1 << pos;
            }
        }
        addr
    }
}

impl fmt::Debug for FeatureMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FeatureMatrix({} examples × {} features)",
            self.n, self.f
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureMatrix {
        FeatureMatrix::from_fn(5, 4, |e, j| (e + j) % 3 == 0)
    }

    #[test]
    fn rows_and_columns_are_consistent() {
        let m = sample();
        for e in 0..5 {
            for j in 0..4 {
                assert_eq!(m.bit(e, j), m.feature(j).get(e), "({e},{j})");
                assert_eq!(m.bit(e, j), m.row(e).get(j), "({e},{j})");
            }
        }
    }

    #[test]
    fn from_columns_matches_from_rows() {
        let m = sample();
        let cols: Vec<BitVec> = (0..4).map(|j| m.feature(j).clone()).collect();
        let m2 = FeatureMatrix::from_columns(cols);
        assert_eq!(m, m2);
    }

    #[test]
    fn select_examples_allows_repetition() {
        let m = sample();
        let s = m.select_examples(&[0, 0, 4]);
        assert_eq!(s.num_examples(), 3);
        assert_eq!(s.row(0), s.row(1));
        assert_eq!(s.row(2), m.row(4));
    }

    #[test]
    fn select_features_reorders() {
        let m = sample();
        let s = m.select_features(&[2, 0]);
        assert_eq!(s.num_features(), 2);
        for e in 0..5 {
            assert_eq!(s.bit(e, 0), m.bit(e, 2));
            assert_eq!(s.bit(e, 1), m.bit(e, 0));
        }
    }

    #[test]
    fn vstack_concatenates_examples() {
        let m = sample();
        let v = m.vstack(&m);
        assert_eq!(v.num_examples(), 10);
        assert_eq!(v.row(7), m.row(2));
    }

    #[test]
    fn address_packs_little_endian() {
        let m = FeatureMatrix::from_rows(vec![BitVec::from_bools([true, false, true, true])]);
        assert_eq!(m.address(0, &[0, 1, 2]), 0b101);
        assert_eq!(m.address(0, &[3, 0]), 0b11);
        assert_eq!(m.address(0, &[1]), 0);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn ragged_rows_panic() {
        FeatureMatrix::from_rows(vec![BitVec::zeros(3), BitVec::zeros(4)]);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = FeatureMatrix::from_rows(Vec::new());
        assert_eq!(m.num_examples(), 0);
        assert_eq!(m.num_features(), 0);
    }

    #[test]
    fn transpose64_matches_naive() {
        let mut block = [0u64; WORD_BITS];
        for (i, w) in block.iter_mut().enumerate() {
            *w = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        let orig = block;
        transpose64(&mut block);
        for (i, &orig_word) in orig.iter().enumerate() {
            for (j, &new_word) in block.iter().enumerate() {
                assert_eq!(
                    (new_word >> i) & 1,
                    (orig_word >> j) & 1,
                    "transposed bit ({i},{j})"
                );
            }
        }
        // Transposing twice is the identity.
        transpose64(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn pack_word_rows_matches_column_planes() {
        // Packing into a single word per feature (block width 1) must
        // reproduce, for any lane count and feature width, the first
        // column-plane word a FeatureMatrix over the same rows would hold.
        for (lanes, f) in [
            (0usize, 5usize),
            (1, 1),
            (3, 70),
            (63, 65),
            (64, 64),
            (64, 130),
        ] {
            let rows: Vec<BitVec> = (0..lanes)
                .map(|e| BitVec::from_fn(f, |j| (e * 31 + j * 7) % 5 < 2))
                .collect();
            let words = pack_block_rows(rows.iter(), f, 1);
            assert_eq!(words.len(), f);
            let m = FeatureMatrix::from_rows(rows);
            for (j, &w) in words.iter().enumerate() {
                let expect = if lanes == 0 {
                    0
                } else {
                    m.feature(j).as_words()[0]
                };
                assert_eq!(w, expect, "feature {j} of {lanes}x{f}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 rows")]
    fn pack_block_rows_rejects_65_rows_in_one_word() {
        let rows: Vec<BitVec> = (0..65).map(|_| BitVec::zeros(3)).collect();
        pack_block_rows(rows.iter(), 3, 1);
    }

    #[test]
    fn pack_block_rows_matches_column_planes() {
        // Any lane count, block width and feature width must reproduce
        // the column-plane words a FeatureMatrix over the same rows holds,
        // feature-major with `block_words` stride.
        for (lanes, f, bw) in [
            (0usize, 5usize, 4usize),
            (1, 1, 8),
            (65, 70, 4),
            (64, 64, 1),
            (255, 65, 4),
            (256, 3, 4),
            (512, 130, 8),
            (300, 33, 8),
        ] {
            let rows: Vec<BitVec> = (0..lanes)
                .map(|e| BitVec::from_fn(f, |j| (e * 31 + j * 7) % 5 < 2))
                .collect();
            let words = pack_block_rows(rows.iter(), f, bw);
            assert_eq!(words.len(), f * bw);
            let m = FeatureMatrix::from_rows(rows);
            for j in 0..f {
                for w in 0..bw {
                    let expect = if w * WORD_BITS >= lanes {
                        0
                    } else {
                        m.feature(j).as_words()[w]
                    };
                    assert_eq!(
                        words[j * bw + w],
                        expect,
                        "feature {j} word {w} of {lanes}x{f} (block {bw})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 rows")]
    fn pack_block_rows_rejects_overfull_block() {
        let rows: Vec<BitVec> = (0..257).map(|_| BitVec::zeros(3)).collect();
        pack_block_rows(rows.iter(), 3, 4);
    }

    #[test]
    #[should_panic(expected = "expected 4")]
    fn pack_block_rows_rejects_width_mismatch() {
        let rows = [BitVec::zeros(4), BitVec::zeros(5)];
        pack_block_rows(rows.iter(), 4, 1);
    }

    #[test]
    fn transpose_handles_ragged_word_boundaries() {
        // Shapes straddling every 64-alignment case: the packed transpose
        // must agree with the per-bit definition.
        for (n, f) in [(1, 1), (63, 65), (64, 64), (65, 63), (130, 70), (3, 200)] {
            let m = FeatureMatrix::from_fn(n, f, |e, j| {
                (e.wrapping_mul(2654435761)
                    .wrapping_add(j.wrapping_mul(40503))
                    >> 4)
                    & 1
                    == 1
            });
            for e in 0..n {
                for j in 0..f {
                    assert_eq!(m.bit(e, j), m.feature(j).get(e), "({e},{j}) of {n}x{f}");
                }
            }
        }
    }
}
