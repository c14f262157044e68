//! Streaming Gram accumulation: [`GramAccumulator`].
//!
//! The paper's algorithms assume the whole of `A` is resident before the
//! computation starts. Production Gram workloads — covariance and PCA
//! over event streams, ridge regression over logs — see `A` arrive as
//! *row chunks*, and the Gram matrix has exactly the structure that
//! makes this cheap: `A^T A = Σᵢ Aᵢ^T Aᵢ` over any row partition
//! (Dumas–Pernet–Sedoglavic's rank-update view of `A·Aᵀ`). An
//! accumulator therefore never needs to materialize `A`: it folds each
//! chunk into a running `n x n` lower triangle and throws the chunk
//! away, so a billion-row Gram costs `O(n²)` resident memory.
//!
//! Each chunk is routed by height: chunks of at most `words / n` rows
//! run as one direct [`ata_kernels::syrk_ln`] rank update on the
//! calling thread; taller chunks run the accumulate mode of a plan core
//! built at the chunk's own height
//! ([`crate::AtaPlan::execute_accumulate`]), on the owning context's
//! backend, worker pool and arena cache. The accumulator holds that core
//! and rebuilds it only when the height changes; it never enters the
//! context's shape-keyed plan cache, so irregular heights grow nothing
//! there, and no chunk is padded. At steady state (a stable chunk shape)
//! a push allocates nothing: arenas come from the context pool, packing
//! buffers are thread-cached, and the accumulator buffer is fixed at
//! construction.

use ata_kernels::{syrk_ln, CacheConfig};
use ata_mat::{MatRef, Matrix, Scalar};
use ata_strassen::ArenaStats;

use crate::context::{AtaContext, AtaOutput, Output, PlanCore};

/// Streaming accumulator for `C = A^T A` over row chunks of `A`.
///
/// Built from an [`AtaContext`] for a fixed column count `n`; ingests
/// chunks via [`GramAccumulator::push`] and yields the accumulated Gram
/// matrix via [`GramAccumulator::snapshot`] (non-destructive) or
/// [`GramAccumulator::finish`] (consuming). Weighted streams use
/// [`GramAccumulator::push_scaled`]; sliding-window/forgetting-factor
/// estimators use [`GramAccumulator::decay`].
///
/// # Example
///
/// ```
/// use ata::stream::GramAccumulator;
/// use ata::AtaContext;
/// use ata::mat::gen;
///
/// let ctx = AtaContext::serial();
/// let mut acc = ctx.gram_accumulator::<f64>(32);
/// // 10 chunks of 50 rows each: one million-row stream would look the
/// // same — only the 32 x 32 accumulator is ever resident.
/// for seed in 0..10 {
///     let chunk = gen::standard::<f64>(seed, 50, 32);
///     acc.push(chunk.as_ref());
/// }
/// assert_eq!(acc.rows(), 500);
/// let g = acc.finish().into_dense();
/// assert!(g.is_symmetric(0.0));
/// ```
#[derive(Debug)]
pub struct GramAccumulator<T: Scalar> {
    ctx: AtaContext,
    n: usize,
    output: Output,
    /// Chunks of at most this many rows take the direct syrk path.
    thin_rows: usize,
    /// The plan core of the last tall chunk, at that chunk's height;
    /// rebuilt when a tall chunk of another height arrives.
    tall: Option<PlanCore<T>>,
    /// The running lower triangle (strict upper stays zero).
    c: Matrix<T>,
    rows: usize,
    pushes: usize,
    retracts: usize,
    thin_pushes: usize,
    tall_pushes: usize,
}

/// Tallest chunk folded by a direct `syrk_ln` call on the calling
/// thread rather than the context's plan: `words / n` rows, at least 1.
/// A dispatch threshold, not the recursion gate.
fn thin_rows_for(n: usize, cfg: &CacheConfig) -> usize {
    cfg.words
        .checked_div(n)
        .map_or(usize::MAX, |rows| rows.max(1))
}

impl AtaContext {
    /// Create a streaming accumulator for `n`-column row chunks with the
    /// default [`Output::Gram`] selector. See [`GramAccumulator`].
    pub fn gram_accumulator<T: Scalar + 'static>(&self, n: usize) -> GramAccumulator<T> {
        self.gram_accumulator_with(n, Output::Gram)
    }

    /// [`AtaContext::gram_accumulator`] with an explicit [`Output`]
    /// selector for the finished result.
    pub fn gram_accumulator_with<T: Scalar + 'static>(
        &self,
        n: usize,
        output: Output,
    ) -> GramAccumulator<T> {
        GramAccumulator {
            ctx: self.clone(),
            n,
            output,
            thin_rows: thin_rows_for(n, &self.cache_for::<T>()),
            tall: None,
            c: Matrix::zeros(n, n),
            rows: 0,
            pushes: 0,
            retracts: 0,
            thin_pushes: 0,
            tall_pushes: 0,
        }
    }
}

impl<T: Scalar + 'static> GramAccumulator<T> {
    /// Fold a row chunk into the running Gram matrix:
    /// `C_low += chunk^T chunk`.
    ///
    /// Thin chunks (up to [`GramAccumulator::thin_rows`] rows) run as
    /// one direct `syrk_ln` rank update on the calling thread; taller
    /// chunks run in accumulate mode through a plan core of exactly
    /// their height on the context's backend, which the accumulator
    /// keeps until a tall chunk of another height arrives. Empty chunks
    /// are no-ops.
    ///
    /// # Panics
    /// If the chunk does not have exactly `n` columns.
    pub fn push(&mut self, chunk: MatRef<'_, T>) {
        self.push_scaled(T::ONE, chunk);
    }

    /// [`GramAccumulator::push`] with a weight:
    /// `C_low += alpha * chunk^T chunk` — importance-weighted samples
    /// without a pre-scaling pass over the chunk.
    ///
    /// # Panics
    /// If the chunk does not have exactly `n` columns.
    pub fn push_scaled(&mut self, alpha: T, chunk: MatRef<'_, T>) {
        if chunk.rows() == 0 {
            return;
        }
        self.pushes += 1;
        self.rows += chunk.rows();
        self.fold(alpha, chunk);
    }

    /// Remove a row chunk from the accumulated mass:
    /// `C_low -= chunk^T chunk` — the sliding-window complement of
    /// [`GramAccumulator::push`]. The caller is responsible for only
    /// retracting chunks that were previously pushed (the accumulator
    /// keeps no history); over-retracting produces an indefinite `C`
    /// which downstream factorizations report as a typed error.
    /// Decrements [`GramAccumulator::rows`].
    ///
    /// # Panics
    /// If the chunk does not have exactly `n` columns.
    pub fn retract(&mut self, chunk: MatRef<'_, T>) {
        if chunk.rows() == 0 {
            return;
        }
        self.retracts += 1;
        self.rows = self.rows.saturating_sub(chunk.rows());
        self.fold(T::NEG_ONE, chunk);
    }

    /// Shared chunk routing of push/retract: fold
    /// `alpha * chunk^T chunk` into the lower triangle, with no
    /// row/push bookkeeping.
    fn fold(&mut self, alpha: T, chunk: MatRef<'_, T>) {
        let (m, n) = chunk.shape();
        assert_eq!(
            n, self.n,
            "accumulator built for {} columns, chunk has {n}",
            self.n
        );
        if m <= self.thin_rows {
            self.thin_pushes += 1;
            syrk_ln(alpha, chunk, &mut self.c.as_mut());
        } else {
            self.tall_pushes += 1;
            let core = match &mut self.tall {
                Some(core) if core.planned_shape() == (m, n) => core,
                slot => slot.insert(self.ctx.uncached_core(m, n, Output::Lower)),
            };
            core.accumulate_lower(alpha, chunk, &mut self.c.as_mut());
        }
    }

    /// Scale the accumulated triangle by `beta` — the forgetting-factor
    /// step of an exponentially-weighted (sliding-window) Gram
    /// estimator: call `decay(λ)` once per epoch, then keep pushing.
    /// Does not change [`GramAccumulator::rows`].
    pub fn decay(&mut self, beta: T) {
        for i in 0..self.n {
            for cv in &mut self.c.row_mut(i)[..=i] {
                *cv = beta * *cv;
            }
        }
    }

    /// Zero the accumulator (and the ingested-row count), keeping the
    /// buffer, the context resources and the push statistics.
    pub fn reset(&mut self) {
        self.c.as_mut().fill_zero();
        self.rows = 0;
    }

    /// Column count `n` (the order of the accumulated Gram matrix).
    pub fn order(&self) -> usize {
        self.n
    }

    /// Total rows ingested since construction (or the last
    /// [`GramAccumulator::reset`]).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total non-empty chunks ingested.
    pub fn pushes(&self) -> usize {
        self.pushes
    }

    /// Total non-empty chunks retracted via
    /// [`GramAccumulator::retract`].
    pub fn retracts(&self) -> usize {
        self.retracts
    }

    /// Borrow the running lower triangle (the strictly-upper part is
    /// zero) without copying — the hook the streaming factorization
    /// tier uses to refactor in place.
    pub fn as_lower(&self) -> MatRef<'_, T> {
        self.c.as_ref()
    }

    /// Chunks that took the direct syrk rank-update path.
    pub fn thin_pushes(&self) -> usize {
        self.thin_pushes
    }

    /// Chunks that went through the Strassen engine.
    pub fn tall_pushes(&self) -> usize {
        self.tall_pushes
    }

    /// The thin/tall routing threshold in rows: chunks up to this height
    /// run as one direct syrk rank update on the calling thread.
    pub fn thin_rows(&self) -> usize {
        self.thin_rows
    }

    /// Allocation counters of the context's Strassen arena pool for `T`
    /// — the steady-state hook: across same-shape pushes after warm-up,
    /// `misses` and `grows` must not move (property-tested in
    /// `tests/serving.rs`).
    pub fn arena_stats(&self) -> ArenaStats {
        self.ctx.arena_pool::<T>().stats()
    }

    /// The context this accumulator executes through.
    pub fn context(&self) -> &AtaContext {
        &self.ctx
    }

    /// A copy of the current accumulated result, per the accumulator's
    /// [`Output`] selector; streaming continues unaffected — the
    /// serving pattern for periodic checkpoints of a live estimator.
    pub fn snapshot(&self) -> AtaOutput<T> {
        AtaOutput::from_lower(self.c.clone(), self.output)
    }

    /// Consume the accumulator and return the accumulated result, per
    /// its [`Output`] selector.
    pub fn finish(self) -> AtaOutput<T> {
        AtaOutput::from_lower(self.c, self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference};
    use std::num::NonZeroUsize;

    fn oracle(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.cols();
        let mut c = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        c
    }

    /// Stack the chunks back into one matrix for the oracle.
    fn vstack(chunks: &[Matrix<f64>], n: usize) -> Matrix<f64> {
        let rows: usize = chunks.iter().map(|c| c.rows()).sum();
        let mut a = Matrix::zeros(rows, n);
        let mut r0 = 0;
        for ch in chunks {
            for i in 0..ch.rows() {
                a.row_mut(r0 + i).copy_from_slice(ch.row(i));
            }
            r0 += ch.rows();
        }
        a
    }

    #[test]
    fn chunk_threshold_matches_base_case_predicate() {
        for words in [4usize, 64, 1024, 131_072] {
            let cfg = CacheConfig::with_words(words);
            for n in [1usize, 7, 32, 100] {
                let rows = thin_rows_for(n, &cfg);
                assert_eq!(rows, (words / n).max(1), "({words},{n})");
                // A direct call runs the leaf a serial plan would.
                assert!(cfg.ata_base(rows, n), "({words},{n}): {rows} recurses");
                // One more row leaves the budget.
                assert!((rows + 1) * n > words, "({words},{n}) not maximal");
            }
        }
        assert_eq!(thin_rows_for(0, &CacheConfig::with_words(16)), usize::MAX);
    }

    #[test]
    fn chunked_accumulation_matches_one_shot() {
        let ctx = AtaContext::builder().cache_words(64).build();
        let n = 24usize;
        let chunks: Vec<Matrix<f64>> = [3usize, 40, 1, 17, 64, 5]
            .iter()
            .enumerate()
            .map(|(i, &m)| gen::standard::<f64>(i as u64, m, n))
            .collect();
        let mut acc = ctx.gram_accumulator::<f64>(n);
        for ch in &chunks {
            acc.push(ch.as_ref());
        }
        assert_eq!(acc.rows(), 130);
        assert_eq!(acc.pushes(), 6);
        assert!(acc.thin_pushes() >= 1 && acc.tall_pushes() >= 1);
        let g = acc.finish().into_dense();
        let a = vstack(&chunks, n);
        let tol = ata_mat::ops::product_tol::<f64>(a.rows(), n, a.rows() as f64);
        assert!(g.max_abs_diff_lower(&oracle(&a)) <= tol);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn shared_backend_accumulates_tall_chunks_on_the_pool() {
        let ctx = AtaContext::builder()
            .threads(NonZeroUsize::new(3).unwrap())
            .cache_words(32)
            .build();
        let n = 20usize;
        let mut acc = ctx.gram_accumulator::<f64>(n);
        let chunks: Vec<Matrix<f64>> = (0..4)
            .map(|i| gen::standard::<f64>(100 + i, 48, n))
            .collect();
        for ch in &chunks {
            acc.push(ch.as_ref());
        }
        assert_eq!(acc.tall_pushes(), 4);
        let g = acc.finish().into_dense();
        let a = vstack(&chunks, n);
        assert!(g.max_abs_diff_lower(&oracle(&a)) < 1e-10);
    }

    #[test]
    fn snapshot_is_a_checkpoint_not_a_drain() {
        let ctx = AtaContext::serial();
        let n = 8usize;
        let mut acc = ctx.gram_accumulator::<f64>(n);
        let c1 = gen::standard::<f64>(1, 10, n);
        let c2 = gen::standard::<f64>(2, 10, n);
        acc.push(c1.as_ref());
        let mid = acc.snapshot().into_dense();
        acc.push(c2.as_ref());
        let end = acc.finish().into_dense();
        assert!(mid.max_abs_diff_lower(&oracle(&c1)) < 1e-12);
        let both = vstack(&[c1, c2], n);
        assert!(end.max_abs_diff_lower(&oracle(&both)) < 1e-12);
    }

    #[test]
    fn push_scaled_weights_each_chunk() {
        let ctx = AtaContext::builder().cache_words(16).build();
        let n = 12usize;
        let tall = gen::standard::<f64>(7, 30, n); // above the 16-word budget
        let thin = gen::standard::<f64>(8, 1, n);
        let mut acc = ctx.gram_accumulator::<f64>(n);
        acc.push_scaled(0.5, tall.as_ref());
        acc.push_scaled(-2.0, thin.as_ref());
        let got = acc.finish().into_dense();
        let mut want = Matrix::zeros(n, n);
        reference::syrk_ln(0.5, tall.as_ref(), &mut want.as_mut());
        reference::syrk_ln(-2.0, thin.as_ref(), &mut want.as_mut());
        assert!(got.max_abs_diff_lower(&want) < 1e-10);
    }

    #[test]
    fn decay_applies_a_forgetting_factor() {
        let ctx = AtaContext::serial();
        let n = 6usize;
        let c1 = gen::standard::<f64>(3, 9, n);
        let c2 = gen::standard::<f64>(4, 9, n);
        let mut acc = ctx.gram_accumulator::<f64>(n);
        acc.push(c1.as_ref());
        acc.decay(0.5);
        acc.push(c2.as_ref());
        let got = acc.finish().into_dense();
        let mut want = Matrix::zeros(n, n);
        reference::syrk_ln(0.5, c1.as_ref(), &mut want.as_mut());
        reference::syrk_ln(1.0, c2.as_ref(), &mut want.as_mut());
        assert!(got.max_abs_diff_lower(&want) < 1e-12);
    }

    #[test]
    fn retract_is_the_inverse_of_push() {
        let ctx = AtaContext::builder().cache_words(16).build();
        let n = 10usize;
        let keep = gen::standard::<f64>(1, 30, n); // tall: Strassen path
        let window = gen::standard::<f64>(2, 4, n); // thin: syrk path
        let mut acc = ctx.gram_accumulator::<f64>(n);
        acc.push(keep.as_ref());
        let before = acc.snapshot().into_dense();
        acc.push(window.as_ref());
        acc.retract(window.as_ref());
        assert_eq!(acc.rows(), 30);
        assert_eq!(acc.retracts(), 1);
        let after = acc.snapshot().into_dense();
        assert!(after.max_abs_diff_lower(&before) < 1e-12);
        // The borrow accessor exposes the same triangle snapshot copies.
        assert_eq!(acc.as_lower().rows(), n);
        assert_eq!(*acc.as_lower().at(3, 2), after[(3, 2)]);
    }

    #[test]
    fn reset_clears_rows_and_result() {
        let ctx = AtaContext::serial();
        let mut acc = ctx.gram_accumulator::<f64>(4);
        acc.push(gen::standard::<f64>(1, 5, 4).as_ref());
        acc.reset();
        assert_eq!(acc.rows(), 0);
        let g = acc.finish().into_dense();
        assert_eq!(g.as_ref().max_abs(), 0.0);
    }

    #[test]
    fn output_selectors_agree() {
        let ctx = AtaContext::serial();
        let n = 10usize;
        let chunk = gen::standard::<f64>(5, 25, n);
        let mk = |output| {
            let mut acc = ctx.gram_accumulator_with::<f64>(n, output);
            acc.push(chunk.as_ref());
            acc.finish()
        };
        let gram = mk(Output::Gram).into_dense();
        let lower = mk(Output::Lower).into_dense();
        let packed = mk(Output::Packed).into_packed();
        assert!(gram.is_symmetric(0.0));
        for i in 0..n {
            for j in 0..n {
                if j > i {
                    assert_eq!(lower[(i, j)], 0.0);
                } else {
                    assert_eq!(lower[(i, j)], gram[(i, j)]);
                    assert_eq!(packed.get(i, j), gram[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn steady_state_pushes_do_not_allocate_arenas() {
        let ctx = AtaContext::builder().cache_words(16).build();
        let n = 12usize;
        let mut acc = ctx.gram_accumulator::<f64>(n);
        // Warm-up push (builds the core, checks out the arena and grows
        // this thread's packing buffers).
        acc.push(gen::standard::<f64>(0, 40, n).as_ref());
        let warm_stats = acc.arena_stats();
        let warm_pack = ata_kernels::pack::thread_buf_elems::<f64>();
        for seed in 1..6u64 {
            acc.push(gen::standard::<f64>(seed, 40, n).as_ref());
        }
        let s = acc.arena_stats();
        assert_eq!(s.misses, warm_stats.misses, "no fresh arena allocations");
        assert_eq!(s.grows, warm_stats.grows, "no arena regrowth");
        assert_eq!(s.checkouts, warm_stats.checkouts + 5);
        assert_eq!(ata_kernels::pack::thread_buf_elems::<f64>(), warm_pack);
    }

    #[test]
    fn irregular_heights_keep_the_plan_cache_bounded() {
        // 1000 pushes with pseudo-random heights in [1, 128]: every tall
        // chunk runs at its own height through the accumulator's own
        // plan core, so the context's plan cache sees none of them.
        let ctx = AtaContext::builder().cache_words(16).build();
        let n = 8usize;
        let _ = ctx.plan::<f64>(40, n);
        let cached = (ctx.plan_cache_len(), ctx.plan_cache_misses());
        let mut acc = ctx.gram_accumulator::<f64>(n);
        let mut want = Matrix::zeros(n, n);
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..1000 {
            // xorshift64*; heights 1..=128.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let m = 1 + (x.wrapping_mul(0x2545f4914f6cdd1d) >> 57) as usize % 128;
            let chunk = gen::standard::<f64>(x, m, n);
            reference::syrk_ln(1.0, chunk.as_ref(), &mut want.as_mut());
            acc.push(chunk.as_ref());
        }
        assert!(
            acc.tall_pushes() > 100,
            "the stream must exercise the tall path"
        );
        assert_eq!(
            (ctx.plan_cache_len(), ctx.plan_cache_misses()),
            cached,
            "stream pushes must add nothing to the plan cache"
        );
        let got = acc.finish().into_dense();
        let tol = ata_mat::ops::product_tol::<f64>(128, n, 1000.0 * 128.0);
        assert!(got.max_abs_diff_lower(&want) <= tol);
    }

    #[test]
    fn tall_push_costs_one_pass_over_its_rows() {
        // Heights just past a power of two, each one syrk_ln leaf at this
        // budget: a push multiplies each pushed row's pairs once, and no
        // padding row.
        use ata_mat::tracked::{measure, Tracked};
        let ctx = AtaContext::builder().cache_words(64).build();
        let n = 8usize;
        let mut acc = ctx.gram_accumulator::<Tracked>(n);
        for m in [9usize, 17, 33, 65] {
            assert!(m > acc.thin_rows(), "{m} rows are tall");
            let chunk = gen::standard::<Tracked>(m as u64, m, n);
            let (_, ops) = measure(|| acc.push(chunk.as_ref()));
            assert_eq!(ops.muls, (m * n * (n + 1) / 2) as u64, "{m} rows");
        }
        assert_eq!(acc.tall_pushes(), 4);
    }

    #[test]
    fn empty_chunks_are_noops() {
        let ctx = AtaContext::serial();
        let mut acc = ctx.gram_accumulator::<f64>(5);
        acc.push(Matrix::<f64>::zeros(0, 5).as_ref());
        assert_eq!(acc.pushes(), 0);
        assert_eq!(acc.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "accumulator built for 4 columns")]
    fn wrong_width_chunk_rejected() {
        let ctx = AtaContext::serial();
        let mut acc = ctx.gram_accumulator::<f64>(4);
        acc.push(gen::standard::<f64>(1, 3, 5).as_ref());
    }
}
