//! Batched execution of many small Gram problems: [`BatchPlan`].
//!
//! The Strassen literature's amortization lesson (Huang et al.'s
//! BLIS-Strassen) cuts two ways: within one large product, pack and
//! reuse; across *floods of small products*, the packing, planning and
//! dispatch overhead dominates the arithmetic, so the wins come from
//! planning each shape once and keeping the worker pool busy with whole
//! problems. [`BatchPlan`] is that second regime as an API: plan a set
//! of (possibly heterogeneous) shapes once, then
//! [`BatchPlan::execute_batch`] schedules **one problem per worker** —
//! no intra-problem splitting — across the context's persistent pool,
//! with per-shape plan cores shared through the context's shape-keyed
//! plan cache and per-worker Strassen arenas from its arena pool.
//!
//! For problems small enough that a single worker holds the whole
//! working set in cache, this beats splitting each problem across the
//! pool: there is no fork/join barrier per problem and no cross-worker
//! traffic inside one product.

use std::sync::Arc;

use ata_mat::{MatRef, Scalar};
use rayon::prelude::*;

use crate::context::{AtaContext, AtaOutput, Executed, Output, PlanCore};

/// A reusable plan for a *set* of Gram problems, executed as whole
/// problems across the context's worker pool.
///
/// Created by [`AtaContext::batch_plan`]. The shapes may be
/// heterogeneous; each slot gets the cached serial-leaf plan core for
/// its shape, so planning a batch that repeats shapes (the common
/// serving case) costs one real planning pass per *distinct* shape.
///
/// # Example
///
/// ```
/// use ata::{AtaContext, Output};
/// use ata::mat::gen;
/// use std::num::NonZeroUsize;
///
/// let ctx = AtaContext::shared(NonZeroUsize::new(2).unwrap());
/// // Eight 48 x 16 grams + one odd 30 x 8: planned once...
/// let mut shapes = vec![(48, 16); 8];
/// shapes.push((30, 8));
/// let batch = ctx.batch_plan::<f64>(&shapes, Output::Gram);
/// // ...executed as a unit, one problem per pool worker.
/// let inputs: Vec<_> = (0..9u64)
///     .map(|s| gen::standard::<f64>(s, batch.shape(s as usize).0, batch.shape(s as usize).1))
///     .collect();
/// let refs: Vec<_> = inputs.iter().map(|a| a.as_ref()).collect();
/// let outs = batch.execute_batch(&refs);
/// assert_eq!(outs.len(), 9);
/// assert_eq!(outs[8].order(), 8);
/// ```
#[derive(Debug)]
pub struct BatchPlan<T: Scalar> {
    ctx: AtaContext,
    cores: Vec<Arc<PlanCore<T>>>,
}

impl AtaContext {
    /// Plan a batch of `(m, n)` Gram problems for batched execution.
    /// See [`BatchPlan`].
    pub fn batch_plan<T: Scalar + 'static>(
        &self,
        shapes: &[(usize, usize)],
        output: Output,
    ) -> BatchPlan<T> {
        BatchPlan {
            ctx: self.clone(),
            cores: shapes
                .iter()
                .map(|&(m, n)| self.serial_leaf_core::<T>(m, n, output))
                .collect(),
        }
    }
}

impl<T: Scalar + 'static> BatchPlan<T> {
    /// Number of problem slots in the batch.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the batch has no slots.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Planned `(m, n)` shape of slot `i`.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn shape(&self, i: usize) -> (usize, usize) {
        self.cores[i].planned_shape()
    }

    /// The batch's output selector.
    pub fn output(&self) -> Output {
        self.cores
            .first()
            .map(|c| c.planned_output())
            .unwrap_or_default()
    }

    /// The context this batch executes through.
    pub fn context(&self) -> &AtaContext {
        &self.ctx
    }

    /// Execute every slot against its input, scheduling whole problems
    /// as top-level tasks across the persistent worker pool (the
    /// context's dedicated pool for a shared backend, the process-global
    /// pool otherwise). Results come back in slot order.
    ///
    /// Numerically this is bit-identical to executing each slot's plan
    /// in a serial loop: parallelism is *between* problems, and each
    /// problem runs the same serial recursion either way (property-
    /// tested in `tests/serving.rs`).
    ///
    /// # Panics
    /// If `inputs.len() != self.len()` or any input is not its slot's
    /// planned shape.
    pub fn execute_batch(&self, inputs: &[MatRef<'_, T>]) -> Vec<AtaOutput<T>> {
        let storage = inputs.iter().map(|_| Vec::new()).collect();
        self.execute_batch_in(inputs, storage)
            .into_iter()
            .map(|(out, _)| out)
            .collect()
    }

    /// [`BatchPlan::execute_batch`], building slot `i`'s output in
    /// `storage[i]` when that holds at least `n²` elements (fresh zeroed
    /// storage otherwise). Each storage moves into the pool with its
    /// slot's item, and each result comes back with the dense scratch a
    /// packed output was compacted from.
    ///
    /// # Panics
    /// As [`BatchPlan::execute_batch`], or if `storage.len() != self.len()`.
    pub(crate) fn execute_batch_in(
        &self,
        inputs: &[MatRef<'_, T>],
        storage: Vec<Vec<T>>,
    ) -> Vec<Executed<T>> {
        assert_eq!(
            inputs.len(),
            self.cores.len(),
            "batch planned for {} problems, got {} inputs",
            self.cores.len(),
            inputs.len()
        );
        assert_eq!(storage.len(), inputs.len(), "one storage per input");
        let mut results: Vec<Option<Executed<T>>> = inputs.iter().map(|_| None).collect();
        let items: Vec<_> = results
            .iter_mut()
            .zip(&self.cores)
            .zip(inputs)
            .zip(storage)
            .map(|(((slot, core), &a), storage)| (slot, core, a, storage))
            .collect();
        let run = || {
            items.into_par_iter().for_each(|(slot, core, a, storage)| {
                *slot = Some(self.ctx.execute_core(core, a, storage));
            });
        };
        match self.ctx.worker_pool() {
            Some(pool) => pool.install(run),
            None => run(),
        }
        results
            .into_iter()
            .map(|r| {
                // ata-lint: allow(no-unwrap-in-lib): the par_iter above
                // filled every slot, or it panicked and this line was
                // never reached.
                r.expect("every slot filled")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference, Matrix};
    use std::num::NonZeroUsize;

    fn oracle(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.cols();
        let mut c = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        c.mirror_lower_to_upper();
        c
    }

    #[test]
    fn heterogeneous_batch_matches_oracles() {
        let ctx = AtaContext::shared(NonZeroUsize::new(4).unwrap());
        let shapes = [(40usize, 24usize), (16, 16), (64, 8), (7, 5)];
        let batch = ctx.batch_plan::<f64>(&shapes, Output::Gram);
        let inputs: Vec<Matrix<f64>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, n))| gen::standard::<f64>(i as u64, m, n))
            .collect();
        let refs: Vec<_> = inputs.iter().map(|a| a.as_ref()).collect();
        let outs = batch.execute_batch(&refs);
        assert_eq!(outs.len(), 4);
        for (i, out) in outs.into_iter().enumerate() {
            let g = out.into_dense();
            assert!(
                g.max_abs_diff(&oracle(&inputs[i])) < 1e-10,
                "slot {i} wrong"
            );
        }
    }

    #[test]
    fn batch_is_bit_identical_to_serial_plan_loop() {
        let ctx = AtaContext::shared(NonZeroUsize::new(3).unwrap());
        let shapes = vec![(32usize, 20usize); 6];
        let batch = ctx.batch_plan::<f64>(&shapes, Output::Lower);
        let inputs: Vec<Matrix<f64>> = (0..6).map(|i| gen::standard::<f64>(i, 32, 20)).collect();
        let refs: Vec<_> = inputs.iter().map(|a| a.as_ref()).collect();
        let batched = batch.execute_batch(&refs);
        for (i, out) in batched.into_iter().enumerate() {
            // The serial loop comparator: same serial-leaf recursion,
            // one problem at a time.
            let single = ctx
                .batch_plan::<f64>(&shapes[i..=i], Output::Lower)
                .execute_batch(&refs[i..=i])
                .remove(0);
            match (out, single) {
                (AtaOutput::Dense(a), AtaOutput::Dense(b)) => {
                    assert_eq!(a.max_abs_diff(&b), 0.0, "slot {i} not bit-identical");
                }
                _ => panic!("Lower yields dense"),
            }
        }
    }

    #[test]
    fn repeated_shapes_share_one_cached_core() {
        let ctx = AtaContext::serial();
        let misses_before = ctx.plan_cache_misses();
        let batch = ctx.batch_plan::<f64>(&[(33, 17); 12], Output::Gram);
        assert_eq!(batch.len(), 12);
        assert_eq!(
            ctx.plan_cache_misses(),
            misses_before + 1,
            "12 same-shape slots must plan once"
        );
        assert!(ctx.plan_cache_hits() >= 11);
    }

    #[test]
    fn serial_context_batch_runs_on_the_global_pool() {
        let ctx = AtaContext::serial();
        let batch = ctx.batch_plan::<f64>(&[(24, 12); 5], Output::Gram);
        let inputs: Vec<Matrix<f64>> = (0..5).map(|i| gen::standard::<f64>(i, 24, 12)).collect();
        let refs: Vec<_> = inputs.iter().map(|a| a.as_ref()).collect();
        for (i, out) in batch.execute_batch(&refs).into_iter().enumerate() {
            assert!(out.into_dense().max_abs_diff(&oracle(&inputs[i])) < 1e-10);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let ctx = AtaContext::serial();
        let batch = ctx.batch_plan::<f64>(&[], Output::Gram);
        assert!(batch.is_empty());
        assert_eq!(batch.execute_batch(&[]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "batch planned for 2 problems")]
    fn input_count_mismatch_rejected() {
        let ctx = AtaContext::serial();
        let batch = ctx.batch_plan::<f64>(&[(8, 4), (8, 4)], Output::Gram);
        let a = gen::standard::<f64>(1, 8, 4);
        let _ = batch.execute_batch(&[a.as_ref()]);
    }
}
