//! LUT truth tables: boolean functions of `k` inputs stored as `2^k` bits.

use std::fmt;

use crate::BitVec;

/// Maximum LUT fan-in the crate will materialise (`2^24` bits = 2 MiB).
///
/// The paper notes that a 30-input LUT already needs a gigabit of storage;
/// real FPGA LUTs have 6 inputs and PoET-BiN never folds more than
/// `P ≤ 8` inputs into one table, so this bound only guards against bugs.
pub const MAX_LUT_INPUTS: usize = 24;

/// The contents of a `k`-input look-up table.
///
/// Entry `i` (for `0 <= i < 2^k`) stores the output of the function when the
/// inputs, read as a little-endian integer (input 0 is bit 0), equal `i`.
/// This is exactly the "Address | Output" table of Figure 1 in the paper and
/// the `INIT` constant of a Xilinx LUT primitive.
///
/// # Example
///
/// ```
/// use poetbin_bits::TruthTable;
///
/// let xor2 = TruthTable::from_fn(2, |i| (i & 1) ^ ((i >> 1) & 1) == 1);
/// assert!(xor2.eval(0b01));
/// assert!(xor2.eval(0b10));
/// assert!(!xor2.eval(0b11));
/// assert!(xor2.depends_on(0) && xor2.depends_on(1));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    inputs: usize,
    bits: BitVec,
}

impl TruthTable {
    /// Creates the constant-`false` table over `inputs` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_LUT_INPUTS`.
    pub fn zeros(inputs: usize) -> Self {
        assert!(
            inputs <= MAX_LUT_INPUTS,
            "LUT with {inputs} inputs exceeds the {MAX_LUT_INPUTS}-input limit"
        );
        TruthTable {
            inputs,
            bits: BitVec::zeros(1 << inputs),
        }
    }

    /// Creates the constant-`true` table over `inputs` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_LUT_INPUTS`.
    pub fn ones(inputs: usize) -> Self {
        assert!(
            inputs <= MAX_LUT_INPUTS,
            "LUT with {inputs} inputs exceeds the {MAX_LUT_INPUTS}-input limit"
        );
        TruthTable {
            inputs,
            bits: BitVec::ones(1 << inputs),
        }
    }

    /// Builds a table by evaluating `f` on every input combination.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_LUT_INPUTS`.
    pub fn from_fn(inputs: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut t = TruthTable::zeros(inputs);
        for i in 0..(1usize << inputs) {
            if f(i) {
                t.bits.set(i, true);
            }
        }
        t
    }

    /// Builds a table from its packed entry vector.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != 2^inputs` or `inputs > MAX_LUT_INPUTS`.
    pub fn from_bits(inputs: usize, bits: BitVec) -> Self {
        assert!(inputs <= MAX_LUT_INPUTS);
        assert_eq!(bits.len(), 1 << inputs, "truth table length mismatch");
        TruthTable { inputs, bits }
    }

    /// Builds a ≤6-input table from a Xilinx-style 64-bit `INIT` word.
    pub fn from_init_word(inputs: usize, init: u64) -> Self {
        assert!(inputs <= 6, "INIT word form only covers up to 6 inputs");
        TruthTable::from_fn(inputs, |i| (init >> i) & 1 == 1)
    }

    /// Packs a ≤6-input table into a Xilinx-style 64-bit `INIT` word.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than 6 inputs.
    pub fn to_init_word(&self) -> u64 {
        assert!(self.inputs <= 6, "table too large for a 64-bit INIT word");
        let mut word = 0u64;
        for i in 0..self.len() {
            if self.bits.get(i) {
                word |= 1 << i;
            }
        }
        word
    }

    /// Number of inputs `k`.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of table entries, `2^k`.
    pub fn len(&self) -> usize {
        1 << self.inputs
    }

    /// Returns `true` only for the degenerate zero-input table — a LUT always
    /// has at least one entry, so this mirrors `len() == 1` never being zero.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Evaluates the function on a packed input combination.
    ///
    /// # Panics
    ///
    /// Panics if `input >= 2^k`.
    #[inline]
    pub fn eval(&self, input: usize) -> bool {
        self.bits.get(input)
    }

    /// Evaluates the function on individual input bits.
    ///
    /// `bits[0]` is input 0 (the least-significant address bit).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.inputs()`.
    pub fn eval_bits(&self, bits: &[bool]) -> bool {
        assert_eq!(bits.len(), self.inputs, "input arity mismatch");
        let mut addr = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                addr |= 1 << i;
            }
        }
        self.eval(addr)
    }

    /// Evaluates the function on 64 packed input lanes at once.
    ///
    /// `operands[i]` carries input `i` for 64 independent evaluations: bit
    /// `l` of the result is the function applied to bit `l` of every
    /// operand. The implementation is a word-parallel Shannon reduction on
    /// the packed table bits — the kernel shared by the FPGA simulator,
    /// the RINC batch predictors and the `poetbin-engine` inference plan.
    /// Tables of ≤ 6 inputs run a branch-free iterative reduction on a
    /// single table word; wider tables Shannon-split on their high inputs
    /// down to that base case, one table word per leaf.
    ///
    /// # Panics
    ///
    /// Panics if `operands.len() != self.inputs()`.
    #[inline]
    pub fn eval_words(&self, operands: &[u64]) -> u64 {
        assert_eq!(operands.len(), self.inputs, "input arity mismatch");
        eval_words_split(self.bits.as_words(), operands, 0, self.inputs)
    }

    /// Sets one table entry.
    ///
    /// # Panics
    ///
    /// Panics if `input >= 2^k`.
    pub fn set(&mut self, input: usize, value: bool) {
        self.bits.set(input, value);
    }

    /// Number of input combinations mapping to `true`.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Returns `true` if the function is constant (all entries equal).
    pub fn is_constant(&self) -> bool {
        let ones = self.count_ones();
        ones == 0 || ones == self.len()
    }

    /// The constant value if the function is constant.
    pub fn constant_value(&self) -> Option<bool> {
        match self.count_ones() {
            0 => Some(false),
            n if n == self.len() => Some(true),
            _ => None,
        }
    }

    /// Shannon cofactor: the `(k-1)`-input function obtained by fixing
    /// input `var` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= k` or `k == 0`.
    pub fn cofactor(&self, var: usize, value: bool) -> TruthTable {
        assert!(var < self.inputs, "cofactor variable out of range");
        assert!(self.inputs > 0);
        let low_mask = (1usize << var) - 1;
        TruthTable::from_fn(self.inputs - 1, |i| {
            let addr = (i & low_mask) | (usize::from(value) << var) | ((i & !low_mask) << 1);
            self.eval(addr)
        })
    }

    /// Returns `true` if the function actually depends on input `var`
    /// (its two cofactors differ).
    ///
    /// The Xilinx synthesizer uses exactly this test to strip MAT inputs
    /// whose AdaBoost weight is too small to ever flip the threshold; the
    /// pruning pass in `poetbin-fpga` relies on it.
    ///
    /// # Panics
    ///
    /// Panics if `var >= k`.
    pub fn depends_on(&self, var: usize) -> bool {
        assert!(var < self.inputs, "variable out of range");
        self.cofactor(var, false) != self.cofactor(var, true)
    }

    /// Indices of inputs the function genuinely depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.inputs).filter(|&v| self.depends_on(v)).collect()
    }

    /// Rebuilds the table over only its support variables, returning the new
    /// table and the kept original input indices (ascending).
    ///
    /// If the function is constant the returned table has zero inputs and a
    /// single entry.
    pub fn shrink_to_support(&self) -> (TruthTable, Vec<usize>) {
        let support = self.support();
        let table = TruthTable::from_fn(support.len(), |i| {
            let mut addr = 0usize;
            for (new_pos, &orig) in support.iter().enumerate() {
                if (i >> new_pos) & 1 == 1 {
                    addr |= 1 << orig;
                }
            }
            self.eval(addr)
        });
        (table, support)
    }

    /// Restricts the table to a new input ordering: output input `i` of the
    /// result reads original input `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..k`.
    pub fn permute_inputs(&self, perm: &[usize]) -> TruthTable {
        assert_eq!(perm.len(), self.inputs, "permutation arity mismatch");
        let mut seen = vec![false; self.inputs];
        for &p in perm {
            assert!(p < self.inputs && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        TruthTable::from_fn(self.inputs, |i| {
            let mut addr = 0usize;
            for (new_pos, &orig) in perm.iter().enumerate() {
                if (i >> new_pos) & 1 == 1 {
                    addr |= 1 << orig;
                }
            }
            self.eval(addr)
        })
    }

    /// Read-only view of the packed entries (entry `i` at bit `i`).
    pub fn as_bits(&self) -> &BitVec {
        &self.bits
    }

    /// Serialises the table into a self-describing byte string: one length
    /// byte holding `k`, then the packed entries as little-endian `u64`
    /// words. This is the persistence format used by model save/load (see
    /// `poetbin_core::persist`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let words = self.bits.as_words();
        let mut out = Vec::with_capacity(1 + words.len() * 8);
        out.push(self.inputs as u8);
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decodes a table previously produced by [`TruthTable::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableBytesError`] when the buffer is empty, declares
    /// an arity above [`MAX_LUT_INPUTS`], or has the wrong payload length
    /// for its arity (trailing bytes are rejected too).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TruthTableBytesError> {
        let (&inputs, payload) = bytes.split_first().ok_or(TruthTableBytesError::Truncated)?;
        let inputs = inputs as usize;
        if inputs > MAX_LUT_INPUTS {
            return Err(TruthTableBytesError::ArityTooLarge(inputs));
        }
        let len = 1usize << inputs;
        let expected = len.div_ceil(crate::WORD_BITS) * 8;
        if payload.len() != expected {
            return Err(TruthTableBytesError::PayloadLength {
                expected,
                actual: payload.len(),
            });
        }
        let words: Vec<u64> = payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        // from_words clears any tail bits beyond the last valid entry.
        let bits = BitVec::from_words(words, len);
        Ok(TruthTable { inputs, bits })
    }
}

/// Shannon-splits on the high inputs until the subtable fits one word,
/// then hands off to the iterative base case. `word_offset` indexes the
/// packed table words; splits always land on word boundaries because only
/// inputs ≥ 6 are split.
fn eval_words_split(words: &[u64], operands: &[u64], word_offset: usize, width: usize) -> u64 {
    if width <= 6 {
        return eval_words_in_table_word(words[word_offset], operands, width);
    }
    let half_words = 1usize << (width - 7);
    let lo = eval_words_split(words, operands, word_offset, width - 1);
    let hi = eval_words_split(words, operands, word_offset + half_words, width - 1);
    let sel = operands[width - 1];
    lo ^ (sel & (lo ^ hi))
}

/// Evaluates a ≤ 6-input table stored in the low `2^width` bits of `t`
/// over 64 lanes: a bottom-up Shannon reduction with no branches, no
/// recursion and no per-bit table reads.
#[inline]
fn eval_words_in_table_word(t: u64, operands: &[u64], width: usize) -> u64 {
    if width == 0 {
        return 0u64.wrapping_sub(t & 1);
    }
    // Level 0 collapses entry pairs (2i, 2i+1) under operand 0; each entry
    // bit is broadcast to a full lane word by two's-complement negation.
    let mut r = [0u64; 32];
    let s = operands[0];
    let ns = !s;
    let pairs = 1usize << (width - 1);
    for (i, slot) in r.iter_mut().take(pairs).enumerate() {
        let b0 = 0u64.wrapping_sub((t >> (2 * i)) & 1);
        let b1 = 0u64.wrapping_sub((t >> (2 * i + 1)) & 1);
        *slot = (ns & b0) | (s & b1);
    }
    // Each further level muxes adjacent sub-results under the next input.
    for (level, &s) in operands.iter().enumerate().take(width).skip(1) {
        let nodes = 1usize << (width - 1 - level);
        for i in 0..nodes {
            r[i] = r[2 * i] ^ (s & (r[2 * i] ^ r[2 * i + 1]));
        }
    }
    r[0]
}

/// Errors raised by [`TruthTable::from_bytes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TruthTableBytesError {
    /// The buffer is too short to hold even the arity byte.
    Truncated,
    /// The declared arity exceeds [`MAX_LUT_INPUTS`].
    ArityTooLarge(usize),
    /// The payload length disagrees with the declared arity.
    PayloadLength {
        /// Bytes the arity implies.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl fmt::Display for TruthTableBytesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruthTableBytesError::Truncated => write!(f, "truth table bytes truncated"),
            TruthTableBytesError::ArityTooLarge(k) => {
                write!(
                    f,
                    "truth table arity {k} exceeds the {MAX_LUT_INPUTS}-input limit"
                )
            }
            TruthTableBytesError::PayloadLength { expected, actual } => {
                write!(
                    f,
                    "truth table payload: expected {expected} bytes, found {actual}"
                )
            }
        }
    }
}

impl std::error::Error for TruthTableBytesError {}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} inputs; ", self.inputs)?;
        if self.inputs <= 6 {
            write!(
                f,
                "0x{:0width$x})",
                self.to_init_word(),
                width = self.len().div_ceil(4)
            )
        } else {
            write!(f, "{} ones of {})", self.count_ones(), self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn majority3() -> TruthTable {
        TruthTable::from_fn(3, |i| (i as u32).count_ones() >= 2)
    }

    #[test]
    fn from_fn_eval_agree() {
        let t = majority3();
        for i in 0..8 {
            assert_eq!(t.eval(i), (i as u32).count_ones() >= 2, "entry {i}");
        }
        assert_eq!(t.count_ones(), 4);
    }

    #[test]
    fn eval_bits_matches_packed_eval() {
        let t = majority3();
        for i in 0..8usize {
            let bits = [(i & 1) == 1, (i >> 1) & 1 == 1, (i >> 2) & 1 == 1];
            assert_eq!(t.eval_bits(&bits), t.eval(i));
        }
    }

    #[test]
    fn init_word_roundtrip() {
        let t = TruthTable::from_fn(6, |i| i % 3 == 0);
        let w = t.to_init_word();
        assert_eq!(TruthTable::from_init_word(6, w), t);
    }

    #[test]
    fn cofactor_fixes_variable() {
        let t = majority3();
        // Fixing input 2 to true: majority(a, b, 1) = a | b.
        let c = t.cofactor(2, true);
        assert_eq!(c.inputs(), 2);
        for i in 0..4 {
            assert_eq!(c.eval(i), i != 0, "or entry {i}");
        }
        // Fixing input 0 to false: majority(0, b, c) = b & c.
        let c = t.cofactor(0, false);
        for i in 0..4 {
            assert_eq!(c.eval(i), i == 3, "and entry {i}");
        }
    }

    #[test]
    fn depends_on_detects_dummy_variable() {
        // f(a, b, c) = a XOR c ignores input 1.
        let t = TruthTable::from_fn(3, |i| ((i & 1) ^ ((i >> 2) & 1)) == 1);
        assert!(t.depends_on(0));
        assert!(!t.depends_on(1));
        assert!(t.depends_on(2));
        assert_eq!(t.support(), vec![0, 2]);
    }

    #[test]
    fn shrink_to_support_preserves_function() {
        let t = TruthTable::from_fn(4, |i| ((i >> 1) & 1) == 1); // depends only on input 1
        let (small, kept) = t.shrink_to_support();
        assert_eq!(kept, vec![1]);
        assert_eq!(small.inputs(), 1);
        assert!(!small.eval(0));
        assert!(small.eval(1));
    }

    #[test]
    fn shrink_constant_gives_zero_inputs() {
        let t = TruthTable::ones(3);
        let (small, kept) = t.shrink_to_support();
        assert!(kept.is_empty());
        assert_eq!(small.inputs(), 0);
        assert_eq!(small.constant_value(), Some(true));
    }

    #[test]
    fn permute_inputs_swaps_roles() {
        // f(a,b) = a & !b; swapping inputs gives !a & b.
        let t = TruthTable::from_fn(2, |i| (i & 1) == 1 && (i >> 1) & 1 == 0);
        let p = t.permute_inputs(&[1, 0]);
        assert!(p.eval(0b10));
        assert!(!p.eval(0b01));
    }

    #[test]
    fn constant_detection() {
        assert_eq!(TruthTable::zeros(4).constant_value(), Some(false));
        assert_eq!(TruthTable::ones(4).constant_value(), Some(true));
        assert_eq!(majority3().constant_value(), None);
        assert!(TruthTable::zeros(2).is_constant());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_lut_panics() {
        TruthTable::zeros(MAX_LUT_INPUTS + 1);
    }

    #[test]
    fn zero_input_table_is_a_constant() {
        let t = TruthTable::from_fn(0, |_| true);
        assert_eq!(t.len(), 1);
        assert!(t.eval(0));
        assert_eq!(t.constant_value(), Some(true));
    }

    #[test]
    fn debug_shows_init_for_small_tables() {
        let s = format!("{:?}", majority3());
        assert!(s.contains("3 inputs"));
    }

    #[test]
    fn eval_words_matches_scalar_eval_per_lane() {
        // 0..=6 exercises the single-word base case, 7..=8 the high-input
        // Shannon split across table words.
        for k in 0..=8usize {
            let t = TruthTable::from_fn(k, |i| (i.wrapping_mul(2654435761) >> 3) & 1 == 1);
            // Operand i's lane l carries a pseudo-random bit.
            let ops: Vec<u64> = (0..k)
                .map(|i| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let word = t.eval_words(&ops);
            for l in 0..64 {
                let addr: usize = (0..k).map(|i| (((ops[i] >> l) & 1) as usize) << i).sum();
                assert_eq!((word >> l) & 1 == 1, t.eval(addr), "k={k} lane {l}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn eval_words_rejects_wrong_operand_count() {
        majority3().eval_words(&[0, 0]);
    }

    #[test]
    fn byte_roundtrip_preserves_table() {
        for k in [0usize, 1, 3, 6, 7, 9] {
            let t = TruthTable::from_fn(k, |i| (i * 7 + k) % 3 == 0);
            let back = TruthTable::from_bytes(&t.to_bytes()).expect("roundtrip");
            assert_eq!(back, t, "k={k}");
        }
    }

    #[test]
    fn from_bytes_rejects_corrupt_input() {
        assert_eq!(
            TruthTable::from_bytes(&[]),
            Err(TruthTableBytesError::Truncated)
        );
        assert!(matches!(
            TruthTable::from_bytes(&[25]),
            Err(TruthTableBytesError::ArityTooLarge(25))
        ));
        // Arity 3 needs exactly one 8-byte word.
        let mut bytes = majority3().to_bytes();
        bytes.pop();
        assert!(matches!(
            TruthTable::from_bytes(&bytes),
            Err(TruthTableBytesError::PayloadLength { .. })
        ));
        bytes.extend_from_slice(&[0, 0]);
        assert!(TruthTable::from_bytes(&bytes).is_err());
    }
}
