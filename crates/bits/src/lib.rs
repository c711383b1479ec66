//! Bit-level substrate for the PoET-BiN reproduction.
//!
//! Everything in PoET-BiN — level-wise decision trees, boosted MAT units,
//! FPGA look-up tables — operates on densely packed binary data. This crate
//! provides the three core representations shared by every other crate in
//! the workspace:
//!
//! * [`BitVec`] — a growable, word-packed vector of bits with fast bulk
//!   boolean operations and population counts. Used for feature columns,
//!   label vectors and simulation waveforms.
//! * [`TruthTable`] — the contents of a `k`-input look-up table (LUT): a
//!   boolean function over `k` inputs stored as `2^k` bits, with Shannon
//!   cofactoring, irrelevant-input detection and LUT-sized invariants.
//! * [`FeatureMatrix`] — an `n × f` binary dataset stored simultaneously in
//!   row-major and column-major (bit-plane) order, so decision-tree training
//!   can stream feature columns while inference reads example rows.
//!
//! On top of these, the free functions [`popcount_words`],
//! [`and2_popcount`], [`and3_popcount`] and [`split_counts`] are the
//! masked-popcount histogram kernels the word-parallel training engine in
//! `poetbin-dt` is built on, and the [`BitWriter`] / [`BitReader`] pair is
//! the varlen bit-stream codec the compact `POETBIN2` model format is
//! serialized with.
//!
//! # Example
//!
//! ```
//! use poetbin_bits::{BitVec, TruthTable};
//!
//! // A 3-input majority function as it would be stored in a LUT.
//! let majority = TruthTable::from_fn(3, |bits| {
//!     (bits & 1) + ((bits >> 1) & 1) + ((bits >> 2) & 1) >= 2
//! });
//! assert!(majority.eval(0b011));
//! assert!(!majority.eval(0b100));
//!
//! let mut seen = BitVec::zeros(8);
//! for input in 0..8 {
//!     seen.set(input, majority.eval(input));
//! }
//! assert_eq!(seen.count_ones(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod counting;
mod matrix;
mod truth_table;
mod varlen;

pub use bitvec::BitVec;
pub use counting::{and2_popcount, and3_popcount, popcount_words, split_counts};
pub use matrix::{pack_block_rows, pack_block_rows_into, FeatureMatrix};
pub use truth_table::{TruthTable, TruthTableBytesError, MAX_LUT_INPUTS};
pub use varlen::{BitReadError, BitReader, BitWriter};

/// Number of payload bits per storage word used throughout the crate.
pub const WORD_BITS: usize = 64;
