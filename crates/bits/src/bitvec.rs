//! A packed, word-aligned bit vector.

use std::fmt;

use crate::WORD_BITS;

/// A fixed-length vector of bits packed into `u64` words.
///
/// `BitVec` is the workhorse container of the workspace: decision-tree
/// training treats one `BitVec` per feature column, boosting treats one per
/// weak-classifier prediction, and the FPGA simulator treats one per signal
/// waveform. All bulk operations (`and`, `or`, `xor`, popcount) run one word
/// — 64 bits — at a time.
///
/// Bits beyond `len` inside the last word are guaranteed to be zero; every
/// mutating operation restores this invariant, so [`BitVec::count_ones`] and
/// equality never observe stale padding.
///
/// # Example
///
/// ```
/// use poetbin_bits::BitVec;
///
/// let mut v = BitVec::zeros(130);
/// v.set(0, true);
/// v.set(129, true);
/// assert_eq!(v.count_ones(), 2);
/// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0u64; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a bit vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds a bit vector from an iterator of booleans.
    ///
    /// Streams the iterator directly into packed words — no intermediate
    /// `Vec<bool>` and no per-bit bounds-checked writes. This sits on the
    /// dataset-loading hot path (every row and column constructor funnels
    /// through here).
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let iter = bits.into_iter();
        let mut words = Vec::with_capacity(iter.size_hint().0.div_ceil(WORD_BITS));
        let mut word = 0u64;
        let mut len = 0usize;
        for b in iter {
            if b {
                word |= 1u64 << (len % WORD_BITS);
            }
            len += 1;
            if len.is_multiple_of(WORD_BITS) {
                words.push(word);
                word = 0;
            }
        }
        if !len.is_multiple_of(WORD_BITS) {
            words.push(word);
        }
        BitVec { words, len }
    }

    /// Builds a bit vector of `len` bits from a function of the index,
    /// packing words directly.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> bool) -> Self {
        BitVec::from_bools((0..len).map(f))
    }

    /// Builds a bit vector of `len` bits from its packed words (bit `i` of
    /// the vector is bit `i % 64` of word `i / 64`).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)`. Bits beyond `len` in
    /// the final word are cleared to restore the tail invariant.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count mismatch for {len} bits"
        );
        let mut v = BitVec { words, len };
        v.mask_tail();
        v
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Writes the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn toggle(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / WORD_BITS] ^= 1u64 << (index % WORD_BITS);
    }

    /// Counts the set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Counts the clear bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Counts set bits in common with `other` (`popcount(self & other)`)
    /// without materialising the intersection.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn count_and(&self, other: &BitVec) -> usize {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &BitVec) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &BitVec) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// In-place bitwise NOT (respecting the length).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Returns `self & other` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Returns `self ^ other` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// Returns `!self` as a new vector.
    pub fn not(&self) -> BitVec {
        let mut out = self.clone();
        out.not_assign();
        out
    }

    /// Number of positions at which `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            vec: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates over all bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Read-only view of the packed words (tail bits beyond `len` are zero).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable view of the packed words.
    ///
    /// The caller must keep tail bits beyond `len` zero; call
    /// [`BitVec::mask_tail`] afterwards when unsure.
    pub fn as_words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Clears any bits at positions `>= len` in the final word.
    pub fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Appends a bit, growing the vector by one.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            self.set(self.len - 1, true);
        }
    }

    fn check_len(&self, other: &BitVec) {
        assert_eq!(
            self.len, other.len,
            "bit vector length mismatch: {} vs {}",
            self.len, other.len
        );
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bools(iter)
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

/// Iterator over set-bit indices, produced by [`BitVec::iter_ones`].
pub struct IterOnes<'a> {
    vec: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_expected_counts() {
        assert_eq!(BitVec::zeros(100).count_ones(), 0);
        assert_eq!(BitVec::ones(100).count_ones(), 100);
        assert_eq!(BitVec::ones(64).count_ones(), 64);
        assert_eq!(BitVec::ones(0).count_ones(), 0);
    }

    #[test]
    fn set_get_toggle_roundtrip() {
        let mut v = BitVec::zeros(70);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(69, true);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(69));
        assert!(!v.get(1));
        v.toggle(69);
        assert!(!v.get(69));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn boolean_ops_match_scalar_semantics() {
        let a = BitVec::from_fn(130, |i| i % 3 == 0);
        let b = BitVec::from_fn(130, |i| i % 2 == 0);
        let and = a.and(&b);
        let xor = a.xor(&b);
        for i in 0..130 {
            assert_eq!(and.get(i), a.get(i) && b.get(i), "and bit {i}");
            assert_eq!(xor.get(i), a.get(i) ^ b.get(i), "xor bit {i}");
        }
        assert_eq!(a.count_and(&b), and.count_ones());
        assert_eq!(a.hamming_distance(&b), xor.count_ones());
    }

    #[test]
    fn not_respects_tail_mask() {
        let v = BitVec::zeros(65);
        let n = v.not();
        assert_eq!(n.count_ones(), 65);
        assert_eq!(n.as_words()[1], 1);
    }

    #[test]
    fn iter_ones_matches_naive_scan() {
        let v = BitVec::from_fn(200, |i| i % 7 == 0);
        let fast: Vec<usize> = v.iter_ones().collect();
        let slow: Vec<usize> = (0..200).filter(|&i| v.get(i)).collect();
        assert_eq!(fast, slow);
    }

    #[test]
    fn push_and_extend_grow_correctly() {
        let mut v = BitVec::zeros(0);
        for i in 0..150 {
            v.push(i % 5 == 0);
        }
        assert_eq!(v.len(), 150);
        assert_eq!(v.count_ones(), 30);
        v.extend([true, true]);
        assert_eq!(v.len(), 152);
        assert_eq!(v.count_ones(), 32);
    }

    #[test]
    fn from_iterator_collects() {
        let v: BitVec = (0..10).map(|i| i < 4).collect();
        assert_eq!(v.len(), 10);
        assert_eq!(v.count_ones(), 4);
    }

    #[test]
    fn from_bools_packs_words_exactly() {
        // Word-boundary lengths and an unsized iterator both pack correctly.
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            let fast = BitVec::from_bools((0..len).map(|i| i % 3 == 1));
            let mut slow = BitVec::zeros(len);
            for i in 0..len {
                if i % 3 == 1 {
                    slow.set(i, true);
                }
            }
            assert_eq!(fast, slow, "len {len}");
            assert_eq!(fast.as_words().len(), len.div_ceil(WORD_BITS));
        }
        let filtered = BitVec::from_bools((0..200).filter(|i| i % 2 == 0).map(|i| i % 4 == 0));
        assert_eq!(filtered.len(), 100);
        assert_eq!(filtered.count_ones(), 50);
    }

    #[test]
    fn from_words_roundtrips_and_masks_tail() {
        let v = BitVec::from_fn(100, |i| i % 7 == 2);
        let back = BitVec::from_words(v.as_words().to_vec(), v.len());
        assert_eq!(back, v);
        // A dirty tail is cleared, keeping count_ones honest.
        let dirty = BitVec::from_words(vec![u64::MAX], 10);
        assert_eq!(dirty.count_ones(), 10);
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn from_words_rejects_wrong_word_count() {
        BitVec::from_words(vec![0, 0], 64);
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", BitVec::zeros(0)).is_empty());
        assert!(format!("{:?}", BitVec::from_bools([true, false])).contains("10"));
    }

    #[test]
    fn length_mismatch_panics() {
        let a = BitVec::zeros(10);
        let b = BitVec::zeros(11);
        let result = std::panic::catch_unwind(|| a.count_and(&b));
        assert!(result.is_err());
    }

    #[test]
    fn accessor_roundtrip() {
        let v = BitVec::from_fn(99, |i| i % 4 == 1);
        let back = BitVec::from_bools((0..v.len()).map(|i| v.get(i)));
        assert_eq!(v, back);
        assert_eq!(v.count_ones(), back.count_ones());
    }
}
