//! Batch evaluation of a compiled plan: lane-blocked tape passes with
//! multi-core sharding.

use std::sync::Arc;

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_core::PoetBinClassifier;
use poetbin_fpga::{Netlist, NetlistError};

use crate::exec::{Backend, Executor};
use crate::plan::{EvalPlan, MAX_BLOCK_WORDS};

/// Minimum words (64-example blocks) a shard must receive before the
/// engine bothers spawning threads: below this the per-thread setup costs
/// more than the parallelism recovers.
pub const MIN_WORDS_PER_SHARD: usize = 8;

/// Smallest supported block width `B ∈ {1, 4, 8}` covering `words`.
fn block_for_words(words: usize) -> usize {
    match words {
        0..=1 => 1,
        2..=4 => 4,
        _ => MAX_BLOCK_WORDS,
    }
}

/// A lane-blocked batch evaluator over a compiled [`EvalPlan`].
///
/// The engine runs the compiled tape over blocks of `B ∈ {1, 4, 8}` lane
/// words — 64·B examples per pass — through inner loops monomorphized per
/// block width, so op-stream decode cost is amortised `B×` and each op's
/// fixed-width block loop auto-vectorizes. By default the widest block
/// covering the batch is chosen; [`Engine::with_block_words`] pins it. For
/// batches large enough to amortise thread startup
/// ([`MIN_WORDS_PER_SHARD`] words per shard) the word range is split in
/// whole blocks across scoped threads (`std::thread::scope`); each shard
/// owns one reusable blocked value array for the entire run, so the hot
/// loop performs no allocation. Outputs are bit-identical at every block
/// width, shard count and tail shape.
///
/// The tape itself runs on an [`Executor`] backend selected at
/// construction ([`Engine::with_backend`]): by default
/// [`Backend::Auto`] picks the in-process x86-64 JIT where available and
/// the kind-run interpreter everywhere else; outputs are bit-identical
/// across backends too. Cloning an engine shares the backend (and any
/// JIT-compiled code) with the clone.
///
/// # Example
///
/// ```
/// use poetbin_bits::{FeatureMatrix, TruthTable};
/// use poetbin_engine::Engine;
/// use poetbin_fpga::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new();
/// let x = b.add_input();
/// let y = b.add_input();
/// let xor = b.add_lut(vec![x, y], TruthTable::from_fn(2, |i| i == 1 || i == 2));
/// b.set_outputs(vec![xor]);
/// let net = b.finish();
///
/// let engine = Engine::from_netlist(&net).unwrap();
/// let batch = FeatureMatrix::from_fn(300, 2, |e, j| (e >> j) & 1 == 1);
/// let out = engine.eval_batch(&batch);
/// for e in 0..300 {
///     assert_eq!(out[0].get(e), ((e & 1) ^ ((e >> 1) & 1)) == 1);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    plan: Arc<EvalPlan>,
    exec: Arc<dyn Executor>,
    backend: Backend,
    threads: Option<usize>,
    block: Option<usize>,
}

impl Engine {
    /// Wraps an already-compiled plan with automatic thread, block and
    /// backend selection.
    pub fn new(plan: EvalPlan) -> Engine {
        let plan = Arc::new(plan);
        let backend = Backend::default();
        let exec = backend.build(&plan);
        Engine {
            plan,
            exec,
            backend,
            threads: None,
            block: None,
        }
    }

    /// Compiles a netlist and wraps it in an engine.
    ///
    /// # Errors
    ///
    /// Returns the [`NetlistError`] when the node list is not
    /// topologically ordered (see [`EvalPlan::compile`]).
    pub fn from_netlist(net: &Netlist) -> Result<Engine, NetlistError> {
        Ok(Engine::new(EvalPlan::compile(net)?))
    }

    /// Fixes the shard count (builder style). `1` forces the
    /// single-threaded path; an explicit count is honoured exactly (only
    /// capped by the number of 64-example words in a batch). Without this
    /// call the engine picks `available_parallelism`, additionally capped
    /// so each automatic shard keeps at least [`MIN_WORDS_PER_SHARD`]
    /// words.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Engine {
        assert!(threads > 0, "thread count must be positive");
        self.threads = Some(threads);
        self
    }

    /// Fixes the lane-block width (builder style): every tape pass then
    /// evaluates exactly `block` 64-example words (`64 · block` lanes),
    /// with partial tails masked. Without this call the engine picks the
    /// widest block covering the batch. Outputs are bit-identical at
    /// every width; this knob exists for benchmarking and tests.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not one of `1`, `4`, `8`.
    pub fn with_block_words(mut self, block: usize) -> Engine {
        assert!(
            matches!(block, 1 | 4 | 8),
            "block width must be 1, 4 or 8 words"
        );
        self.block = Some(block);
        self
    }

    /// Selects the tape execution backend (builder style). The default is
    /// [`Backend::Auto`]. Requesting [`Backend::Jit`] on a host without
    /// JIT support quietly resolves to the interpreter —
    /// [`Engine::backend_name`] reports what actually runs.
    pub fn with_backend(mut self, backend: Backend) -> Engine {
        self.backend = backend;
        self.exec = backend.build(&self.plan);
        self
    }

    /// The backend that was *requested* at construction.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The backend that actually runs after availability fallback:
    /// `"jit"` or `"interp"`.
    pub fn backend_name(&self) -> &'static str {
        self.exec.name()
    }

    /// Forces any deferred backend compilation for block width `block`
    /// (the JIT assembles each width lazily on first use). A no-op on the
    /// interpreter. Exists so benchmarks and latency-sensitive callers can
    /// pay codegen outside the serving path.
    pub fn prepare(&self, block: usize) {
        self.exec.prepare(block);
    }

    /// The compiled plan.
    pub fn plan(&self) -> &EvalPlan {
        &self.plan
    }

    /// The compiled plan, shared — for building additional executors
    /// (e.g. [`crate::JitExecutor`]) against the same plan.
    pub fn plan_arc(&self) -> std::sync::Arc<EvalPlan> {
        std::sync::Arc::clone(&self.plan)
    }

    /// Shards actually used for a batch of `num_words` words.
    fn shard_count(&self, num_words: usize) -> usize {
        match self.threads {
            // An explicit count is honoured as requested; more shards
            // than words would leave some with nothing to do.
            Some(t) => t.min(num_words.max(1)),
            None => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min((num_words / MIN_WORDS_PER_SHARD).max(1)),
        }
    }

    /// Evaluates every example of `batch`, returning one [`BitVec`] per
    /// netlist output (bit `e` of output `k` is output `k` for example
    /// `e`) — the same layout as `poetbin_fpga::SimResult::outputs`.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty `batch` has a feature count different from
    /// the plan's input count (an empty batch trivially evaluates to empty
    /// outputs, whatever its declared width).
    pub fn eval_batch(&self, batch: &FeatureMatrix) -> Vec<BitVec> {
        assert!(
            batch.num_examples() == 0 || batch.num_features() == self.plan.num_inputs(),
            "batch has {} features, plan expects {}",
            batch.num_features(),
            self.plan.num_inputs()
        );
        let n = batch.num_examples();
        let num_words = n.div_ceil(64);
        let k = self.plan.num_outputs();
        if k == 0 {
            return Vec::new();
        }
        // Word-major flat output buffer: words are contiguous per shard, so
        // `chunks_mut` hands each thread an exclusive, contiguous slice.
        let mut flat = vec![0u64; num_words * k];
        let block = self.block.unwrap_or_else(|| block_for_words(num_words));
        let shards = self.shard_count(num_words);

        if shards <= 1 {
            self.run_shard(batch, 0, &mut flat, block);
        } else {
            // Shards split on block boundaries so only the final shard
            // ever runs a partial tail block.
            let words_per_shard = num_words.div_ceil(shards).next_multiple_of(block);
            std::thread::scope(|scope| {
                for (s, chunk) in flat.chunks_mut(words_per_shard * k).enumerate() {
                    let this = &self;
                    scope.spawn(move || this.run_shard(batch, s * words_per_shard, chunk, block));
                }
            });
        }

        // Epilogue gather: one word-major pass over `flat`, distributing
        // each word's `k`-chunk to its output column — every cache line of
        // `flat` is touched exactly once, instead of `k` strided
        // re-reads per output.
        let mut cols: Vec<Vec<u64>> = (0..k).map(|_| vec![0u64; num_words]).collect();
        for (w, chunk) in flat.chunks_exact(k).enumerate() {
            for (col, &word) in cols.iter_mut().zip(chunk) {
                col[w] = word;
            }
        }
        // Tail lanes past `n` may hold garbage (constants evaluate to
        // all-ones there); from_words clears them.
        cols.into_iter()
            .map(|words| BitVec::from_words(words, n))
            .collect()
    }

    /// Evaluates a contiguous run of words starting at `first_word`,
    /// writing into the word-major `out` slice (`num_outputs` words per
    /// batch word), in blocks of `block` words.
    fn run_shard(&self, batch: &FeatureMatrix, first_word: usize, out: &mut [u64], block: usize) {
        match block {
            1 => self.run_shard_blocked::<1>(batch, first_word, out),
            4 => self.run_shard_blocked::<4>(batch, first_word, out),
            _ => self.run_shard_blocked::<8>(batch, first_word, out),
        }
    }

    fn run_shard_blocked<const B: usize>(
        &self,
        batch: &FeatureMatrix,
        first_word: usize,
        out: &mut [u64],
    ) {
        let k = self.plan.num_outputs();
        if k == 0 {
            return;
        }
        let mut vals = AlignedVals::new(self.plan.vals_len(B));
        let vals = vals.slice_mut(self.plan.vals_len(B));
        self.plan.init_consts::<B>(vals);
        let words = out.len() / k;
        let mut w = 0;
        while w < words {
            let valid = (words - w).min(B);
            self.plan.eval_block::<B>(
                &*self.exec,
                batch,
                first_word + w,
                valid,
                vals,
                &mut out[w * k..(w + valid) * k],
            );
            w += valid;
        }
    }

    /// Allocates a reusable [`Scratch`] sized for this engine's plan at
    /// the widest block.
    pub fn scratch(&self) -> Scratch {
        Scratch {
            vals: AlignedVals::new(self.plan.vals_len(MAX_BLOCK_WORDS)),
            out: vec![0u64; self.plan.num_outputs() * MAX_BLOCK_WORDS],
        }
    }

    /// Evaluates up to [`MAX_BLOCK_WORDS`] packed lane words in one tape
    /// pass, masking the final word to its valid lanes.
    ///
    /// `feature_blocks` is the [`poetbin_bits::pack_block_rows`] layout:
    /// `feature_blocks[j * words + w]` carries word `w` of feature `j`.
    /// All words but the last are taken as fully live; lanes of the last
    /// word where `tail_mask` is clear may hold arbitrary garbage in every
    /// operand without affecting live lanes, and are zero in every output
    /// word. Returns the outputs output-major with the same stride
    /// (`result[o * words + w]`), borrowed from `scratch` — the
    /// partial-block tail path a request batcher uses when fewer than
    /// `64 · words` requests have arrived.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not in `1..=`[`MAX_BLOCK_WORDS`],
    /// `feature_blocks.len()` differs from `num_inputs · words`, or
    /// `scratch` was allocated for a different plan shape.
    pub fn eval_blocks_masked<'s>(
        &self,
        feature_blocks: &[u64],
        words: usize,
        tail_mask: u64,
        scratch: &'s mut Scratch,
    ) -> &'s [u64] {
        assert!(
            (1..=MAX_BLOCK_WORDS).contains(&words),
            "block of {words} words outside 1..={MAX_BLOCK_WORDS}"
        );
        assert_eq!(
            feature_blocks.len(),
            self.plan.num_inputs() * words,
            "packed block has {} words, plan expects {} features x {words}",
            feature_blocks.len(),
            self.plan.num_inputs()
        );
        assert!(
            scratch.vals.len() == self.plan.vals_len(MAX_BLOCK_WORDS)
                && scratch.out.len() == self.plan.num_outputs() * MAX_BLOCK_WORDS,
            "scratch was allocated for a different plan"
        );
        let k = self.plan.num_outputs();
        let out = &mut scratch.out[..k * words];
        // The scratch value array serves every block width: a narrower
        // block uses a prefix of it (slot `s` at words `s·B..s·B+B`),
        // re-laid-out per call — constants rewritten, every other slot
        // written before it is read.
        match block_for_words(words) {
            1 => {
                let vals = scratch.vals.slice_mut(self.plan.vals_len(1));
                self.plan.init_consts::<1>(vals);
                self.plan
                    .eval_packed_block::<1>(&*self.exec, feature_blocks, words, vals, out);
            }
            4 => {
                let vals = scratch.vals.slice_mut(self.plan.vals_len(4));
                self.plan.init_consts::<4>(vals);
                self.plan
                    .eval_packed_block::<4>(&*self.exec, feature_blocks, words, vals, out);
            }
            _ => {
                let vals = scratch.vals.slice_mut(self.plan.vals_len(8));
                self.plan.init_consts::<8>(vals);
                self.plan
                    .eval_packed_block::<8>(&*self.exec, feature_blocks, words, vals, out);
            }
        }
        for o in 0..k {
            out[o * words + words - 1] &= tail_mask;
        }
        &scratch.out[..k * words]
    }
}

/// A value array whose payload starts on a 64-byte boundary.
///
/// At `B = 8` every slot is one 64-byte lane block and the JIT touches
/// it with full-width `zmm` accesses; on a plain `Vec<u64>` (8-byte
/// aligned) nearly all of those straddle two cache lines. Over-allocate
/// by up to 7 words and start the payload at the first aligned element
/// — safe code, no custom allocator — and every `B = 8` access is
/// single-line (`B = 4` gets 32-byte alignment for free).
#[derive(Debug)]
struct AlignedVals {
    buf: Vec<u64>,
    /// Elements skipped so `buf[off]` sits on a 64-byte boundary.
    off: usize,
    /// Logical payload length.
    len: usize,
}

impl AlignedVals {
    fn new(len: usize) -> AlignedVals {
        let buf = vec![0u64; len + 7];
        let off = match buf.as_ptr().align_offset(64) {
            // `align_offset` is in elements; 64 is a multiple of the
            // element size, so at most 7 — but its contract permits a
            // "cannot align" answer, for which index 0 is still sound
            // (just unaligned).
            o if o <= 7 => o,
            _ => 0,
        };
        AlignedVals { buf, off, len }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The first `n` payload words, mutably.
    fn slice_mut(&mut self, n: usize) -> &mut [u64] {
        &mut self.buf[self.off..self.off + n]
    }
}

impl Clone for AlignedVals {
    fn clone(&self) -> AlignedVals {
        // A byte-wise clone would inherit the source's `off`, but the new
        // buffer has its own alignment — recompute instead of copying.
        let mut c = AlignedVals::new(self.len);
        c.slice_mut(self.len)
            .copy_from_slice(&self.buf[self.off..self.off + self.len]);
        c
    }
}

/// Reusable working memory for the packed evaluation paths
/// ([`Engine::eval_blocks_masked`] /
/// [`ClassifierEngine::predict_block_into`]).
///
/// Holds the plan's value array sized for the widest block plus an
/// output buffer, so a worker shard serving a stream of micro-batches
/// allocates once and re-evaluates forever, at any block width. Obtain
/// one from [`Engine::scratch`] or [`ClassifierEngine::scratch`]; a
/// scratch is only valid for the engine that created it (enforced by size
/// assertions).
#[derive(Clone, Debug)]
pub struct Scratch {
    vals: AlignedVals,
    out: Vec<u64>,
}

/// A [`PoetBinClassifier`] compiled for batch prediction.
///
/// Wraps the classifier's lowered netlist in an [`Engine`] and decodes the
/// class-major q-bit score outputs back into class predictions, matching
/// `PoetBinClassifier::predict` bit for bit (same scores, same
/// smallest-index tie-breaking).
#[derive(Clone, Debug)]
pub struct ClassifierEngine {
    engine: Engine,
    classes: usize,
    q_bits: usize,
}

impl ClassifierEngine {
    /// Compiles a trained classifier over `num_features` binary inputs.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if the lowered netlist fails validation
    /// (defence in depth — `PoetBinClassifier::to_netlist` output is
    /// already builder-validated).
    pub fn compile(
        clf: &PoetBinClassifier,
        num_features: usize,
    ) -> Result<ClassifierEngine, NetlistError> {
        Ok(ClassifierEngine {
            engine: Engine::from_netlist(&clf.to_netlist(num_features))?,
            classes: clf.classes(),
            q_bits: clf.output().q_bits() as usize,
        })
    }

    /// Fixes the shard count (builder style); see [`Engine::with_threads`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> ClassifierEngine {
        self.engine = self.engine.with_threads(threads);
        self
    }

    /// Fixes the lane-block width (builder style); see
    /// [`Engine::with_block_words`].
    ///
    /// # Panics
    ///
    /// Panics if `block` is not one of `1`, `4`, `8`.
    pub fn with_block_words(mut self, block: usize) -> ClassifierEngine {
        self.engine = self.engine.with_block_words(block);
        self
    }

    /// Selects the tape execution backend (builder style); see
    /// [`Engine::with_backend`].
    pub fn with_backend(mut self, backend: Backend) -> ClassifierEngine {
        self.engine = self.engine.with_backend(backend);
        self
    }

    /// The backend that actually runs after availability fallback; see
    /// [`Engine::backend_name`].
    pub fn backend_name(&self) -> &'static str {
        self.engine.backend_name()
    }

    /// Forces any deferred backend compilation for every block width the
    /// packed predict paths can select; see [`Engine::prepare`]. Serving
    /// setups call this before taking traffic so no request ever waits
    /// on codegen.
    pub fn prepare_all(&self) {
        for block in [1usize, 4, MAX_BLOCK_WORDS] {
            self.engine.prepare(block);
        }
    }

    /// The underlying netlist engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of binary features the compiled netlist expects per example.
    pub fn num_features(&self) -> usize {
        self.engine.plan().num_inputs()
    }

    /// Number of classes the classifier distinguishes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Allocates a reusable [`Scratch`] for the packed predict paths.
    pub fn scratch(&self) -> Scratch {
        self.engine.scratch()
    }

    /// Predicts up to `64 ·` [`MAX_BLOCK_WORDS`] examples packed into one
    /// lane-word block, writing one class index per lane into `preds`.
    ///
    /// `feature_blocks` is the [`poetbin_bits::pack_block_rows`] layout
    /// over `preds.len().div_ceil(64)` words: word `j·words + w` carries
    /// lanes `64·w..64·(w+1)` of feature `j`. Exactly
    /// `preds.len()` lanes are decoded; higher lanes of the final word may
    /// hold garbage (the evaluation is masked, see
    /// [`Engine::eval_blocks_masked`]). Predictions are bit-identical to
    /// [`ClassifierEngine::predict`] on the same rows — same q-bit scores,
    /// same smallest-index tie-breaking.
    ///
    /// This is the serving hot path: a micro-batcher that has coalesced up
    /// to `64 · 8` concurrent requests runs them all in one tape pass with
    /// zero allocation (`scratch` is reused across calls).
    ///
    /// # Panics
    ///
    /// Panics if `preds.len() > 64 ·` [`MAX_BLOCK_WORDS`],
    /// `feature_blocks.len()` differs from `num_features ·
    /// preds.len().div_ceil(64)`, or `scratch` belongs to another engine.
    pub fn predict_block_into(
        &self,
        feature_blocks: &[u64],
        scratch: &mut Scratch,
        preds: &mut [usize],
    ) {
        let lanes = preds.len();
        if lanes == 0 {
            return;
        }
        assert!(
            lanes <= 64 * MAX_BLOCK_WORDS,
            "at most {} lanes fit one block",
            64 * MAX_BLOCK_WORDS
        );
        let words = lanes.div_ceil(64);
        let tail = lanes % 64;
        let tail_mask = if tail == 0 {
            u64::MAX
        } else {
            (1u64 << tail) - 1
        };
        let q = self.q_bits;
        let outs = self
            .engine
            .eval_blocks_masked(feature_blocks, words, tail_mask, scratch);
        let mut best = [0u64; 64 * MAX_BLOCK_WORDS];
        for c in 0..self.classes {
            let class_outs = &outs[c * q * words..(c + 1) * q * words];
            for (l, pred) in preds.iter_mut().enumerate() {
                let (w, bit) = (l / 64, l % 64);
                let mut score = 0u64;
                for b in 0..q {
                    score |= ((class_outs[b * words + w] >> bit) & 1) << b;
                }
                if c == 0 || score > best[l] {
                    best[l] = score;
                    *pred = c;
                }
            }
        }
    }

    /// Predicts the class of every example in `features`.
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from the compiled width.
    pub fn predict(&self, features: &FeatureMatrix) -> Vec<usize> {
        let outs = self.engine.eval_batch(features);
        let n = features.num_examples();
        let q = self.q_bits;
        let mut preds = vec![0usize; n];
        let mut best = vec![0u64; n];
        for c in 0..self.classes {
            let bit_words: Vec<&[u64]> = (0..q).map(|b| outs[c * q + b].as_words()).collect();
            for w in 0..n.div_ceil(64) {
                let lanes = (n - w * 64).min(64);
                for l in 0..lanes {
                    let score: u64 = bit_words
                        .iter()
                        .enumerate()
                        .map(|(b, col)| ((col[w] >> l) & 1) << b)
                        .sum();
                    let e = w * 64 + l;
                    if c == 0 || score > best[e] {
                        best[e] = score;
                        preds[e] = c;
                    }
                }
            }
        }
        preds
    }

    /// Classification accuracy against labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the example count.
    pub fn accuracy(&self, features: &FeatureMatrix, labels: &[usize]) -> f64 {
        assert_eq!(features.num_examples(), labels.len());
        if labels.is_empty() {
            return 1.0;
        }
        let preds = self.predict(features);
        preds.iter().zip(labels).filter(|(p, l)| p == l).count() as f64 / labels.len() as f64
    }
}
