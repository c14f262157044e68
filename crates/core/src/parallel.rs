//! AtA-S (Algorithm 3) — the shared-memory parallel algorithm.
//!
//! Phase 1 builds the [`SharedPlan`] task tree (§4.1); phase 2 hands each
//! thread its tasks. Because the plan's `C` regions are pairwise
//! disjoint by construction, the output buffer can be carved into one
//! independent `MatMut` per task and the threads run with **no
//! synchronization whatsoever** until the final join — the paper's
//! "perfect parallelism by preventing memory collisions" (§4.2.1).
//!
//! Each thread owns a private Strassen arena, sized once before the
//! parallel phase, and processes its task list sequentially with the
//! serial [`crate::serial`] routines ("each thread operates on the same
//! data throughout its entire lifespan", §4.2.1).

use crate::serial::{ata_into_with_kind, ata_workspace_elems, StrassenKind};
use crate::tasktree::{ComputeKind, SharedLeaf, SharedPlan};
use ata_kernels::CacheConfig;
use ata_mat::{MatMut, MatRef, Scalar};
use ata_strassen::ArenaPool;
use rayon::prelude::*;

/// Carve one disjoint `MatMut` per task out of `c`.
///
/// The regions come from [`SharedPlan`], whose construction guarantees
/// pairwise disjointness (property-tested in `tasktree`); a debug
/// assertion re-checks here.
fn carve_tasks<'c, T: Scalar>(
    c: &'c mut MatMut<'_, T>,
    tasks: &[SharedLeaf],
) -> Vec<MatMut<'c, T>> {
    #[cfg(debug_assertions)]
    for (i, t1) in tasks.iter().enumerate() {
        for t2 in &tasks[i + 1..] {
            debug_assert!(
                !t1.c.intersects(&t2.c),
                "shared plan produced overlapping regions: {t1:?} vs {t2:?}"
            );
        }
    }
    tasks
        .iter()
        .map(|t| {
            // SAFETY-BY-CONSTRUCTION: each block_mut reborrows `c`, and the
            // returned views address pairwise-disjoint element sets (checked
            // above), so extending their lifetimes to 'c is sound. We go
            // through `rb_mut`/`into_block` which performs the bounds
            // checks; the transmute-free way to keep all views alive at
            // once is to derive each from a fresh reborrow.
            let view = c.rb_mut().into_block(t.c.r0, t.c.r1, t.c.c0, t.c.c1);
            // SAFETY: the transmute only extends the view's lifetime from
            // the reborrow to 'c; the element sets are pairwise disjoint
            // (checked above), so the simultaneous unique views never
            // alias and `c` itself is not used while they live.
            unsafe { std::mem::transmute::<MatMut<'_, T>, MatMut<'c, T>>(view) }
        })
        .collect()
}

/// Lower triangle of `C += alpha * A^T A` computed by `threads`
/// cooperating workers (AtA-S, Algorithm 3).
///
/// Call inside a fixed-size rayon pool (`pool.install(..)`) to model a
/// specific core count; otherwise the global pool is used. `threads`
/// controls the *task decomposition* (the paper's fixed 16-thread setup
/// decouples task count from core count, §5.4).
///
/// Builds the plan and arenas per call and uses the FastStrassen
/// products; [`ata_s_planned`] replays a prebuilt plan under either
/// [`StrassenKind`].
///
/// # Panics
/// On inconsistent shapes or `threads == 0`.
pub fn ata_s<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    threads: usize,
    cfg: &CacheConfig,
) {
    assert!(threads > 0, "ata_s: threads must be positive");
    let plan = SharedPlan::build(a.cols(), threads);
    let arenas = ArenaPool::new();
    ata_s_planned(alpha, a, c, &plan, cfg, StrassenKind::Classic, &arenas);
}

/// Strassen-workspace requirement (elements) of one shared-plan task —
/// used to pre-warm arena caches so a plan's first execution is already
/// allocation-free.
pub fn task_workspace_elems(
    task: &SharedLeaf,
    m: usize,
    cfg: &CacheConfig,
    kind: StrassenKind,
) -> usize {
    match task.kind {
        ComputeKind::AtA => ata_workspace_elems(m, task.a_cols.1 - task.a_cols.0, cfg, kind),
        ComputeKind::AtB => kind.gemm_workspace_elems(
            m,
            task.a_cols.1 - task.a_cols.0,
            task.b_cols.1 - task.b_cols.0,
            cfg,
        ),
    }
}

/// Largest per-thread workspace requirement (elements) of a whole
/// [`SharedPlan`] on an `m`-row input: the arena one worker needs to
/// process any of its tasks without regrowth.
pub fn plan_workspace_elems(
    plan: &SharedPlan,
    m: usize,
    cfg: &CacheConfig,
    kind: StrassenKind,
) -> usize {
    plan.tasks
        .iter()
        .map(|t| task_workspace_elems(t, m, cfg, kind))
        .max()
        .unwrap_or(0)
}

/// Execute a prebuilt [`SharedPlan`] — the reusable core of AtA-S.
///
/// This is the execution half of the plan/execute split: the task tree
/// (phase 1 of Algorithm 3) was built once by [`SharedPlan::build`] and
/// can be replayed against many same-shape inputs. Worker arenas come
/// from `arenas` (checkout/return), so a warm [`ArenaPool`] makes
/// repeated executions allocation-free; the one-shot [`ata_s`] simply
/// passes an empty pool.
///
/// # Panics
/// If `plan` was built for a different `n` than `a.cols()`, or on
/// inconsistent shapes.
pub fn ata_s_planned<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    plan: &SharedPlan,
    cfg: &CacheConfig,
    kind: StrassenKind,
    arenas: &ArenaPool<T>,
) {
    let (m, n) = a.shape();
    assert_eq!(
        plan.n, n,
        "ata_s: plan built for n={} but A has {n} columns",
        plan.n
    );
    assert_eq!(
        c.shape(),
        (n, n),
        "ata_s: C must be {n}x{n}, got {:?}",
        c.shape()
    );
    if m == 0 || n == 0 {
        return;
    }

    let views = carve_tasks(c, &plan.tasks);

    // Group (task, view) pairs by owning thread so each worker processes
    // its list sequentially with one private arena — mirroring the
    // paper's thread lifespan data reuse.
    let mut per_proc: Vec<Vec<(&SharedLeaf, MatMut<'_, T>)>> =
        (0..plan.procs).map(|_| Vec::new()).collect();
    for (task, view) in plan.tasks.iter().zip(views) {
        per_proc[task.proc_id].push((task, view));
    }

    per_proc.into_par_iter().for_each(|list| {
        let mut ws = arenas.checkout(0);
        for (task, mut view) in list {
            let a_left = a.block(0, m, task.a_cols.0, task.a_cols.1);
            match task.kind {
                ComputeKind::AtA => {
                    ata_into_with_kind(alpha, a_left, &mut view, cfg, kind, &mut ws);
                }
                ComputeKind::AtB => {
                    let b = a.block(0, m, task.b_cols.0, task.b_cols.1);
                    kind.gemm_into(alpha, a_left, b, &mut view, cfg, &mut ws);
                }
            }
        }
        arenas.give_back(ws);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_kernels::par::pool_with_threads;
    use ata_mat::{gen, reference, Matrix};

    fn check(m: usize, n: usize, threads: usize, words: usize) {
        let a = gen::standard::<f64>(m as u64 * 3 + n as u64 + threads as u64, m, n);
        let mut c = Matrix::zeros(n, n);
        ata_s(
            1.0,
            a.as_ref(),
            &mut c.as_mut(),
            threads,
            &CacheConfig::with_words(words),
        );
        let mut c_ref = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
        let tol = ata_mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
        let diff = c.max_abs_diff_lower(&c_ref);
        assert!(
            diff <= tol,
            "(m={m},n={n},P={threads}) AtA-S differs by {diff} > {tol}"
        );
        // Strict upper untouched.
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(c[(i, j)], 0.0, "upper ({i},{j}) touched");
            }
        }
    }

    #[test]
    fn matches_oracle_across_thread_counts() {
        for threads in [1usize, 2, 3, 4, 5, 8, 16] {
            check(48, 40, threads, 64);
        }
    }

    #[test]
    fn odd_sizes_and_tall_matrices() {
        check(37, 29, 4, 16);
        check(101, 17, 8, 16);
        check(16, 64, 6, 32);
    }

    #[test]
    fn tiny_matrix_many_threads() {
        check(3, 2, 16, 4);
        check(1, 1, 8, 4);
    }

    #[test]
    fn agrees_with_serial_ata() {
        let (m, n) = (52, 44);
        let a = gen::standard::<f64>(9, m, n);
        let cfg = CacheConfig::with_words(32);
        let mut c_par = Matrix::zeros(n, n);
        ata_s(1.0, a.as_ref(), &mut c_par.as_mut(), 8, &cfg);
        let mut c_ser = Matrix::zeros(n, n);
        crate::serial::ata_into(1.0, a.as_ref(), &mut c_ser.as_mut(), &cfg);
        // Different split orders -> tiny roundoff differences allowed.
        assert!(c_par.max_abs_diff_lower(&c_ser) < 1e-10);
    }

    #[test]
    fn runs_inside_fixed_pool() {
        let pool = pool_with_threads(3);
        let a = gen::standard::<f64>(5, 30, 24);
        let mut c = Matrix::zeros(24, 24);
        pool.install(|| {
            ata_s(
                1.0,
                a.as_ref(),
                &mut c.as_mut(),
                16,
                &CacheConfig::with_words(16),
            )
        });
        let mut c_ref = Matrix::zeros(24, 24);
        reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
        assert!(c.max_abs_diff_lower(&c_ref) < 1e-10);
    }

    #[test]
    fn alpha_accumulates_onto_existing_c() {
        let (m, n) = (20, 18);
        let a = gen::standard::<f64>(11, m, n);
        let mut c = gen::standard::<f64>(12, n, n);
        c.zero_strict_upper();
        let mut c_ref = c.clone();
        ata_s(
            -0.5,
            a.as_ref(),
            &mut c.as_mut(),
            4,
            &CacheConfig::with_words(16),
        );
        reference::syrk_ln(-0.5, a.as_ref(), &mut c_ref.as_mut());
        assert!(c.max_abs_diff_lower(&c_ref) < 1e-10);
    }

    #[test]
    fn planned_execution_reuses_plan_and_arenas() {
        let (m, n, threads) = (40usize, 32usize, 4usize);
        let cfg = CacheConfig::with_words(32);
        let kind = StrassenKind::Classic;
        let plan = SharedPlan::build(n, threads);
        let arenas = ArenaPool::new();
        let need = plan_workspace_elems(&plan, m, &cfg, kind);
        arenas.warm(threads, need);
        for seed in 0..3u64 {
            let a = gen::standard::<f64>(seed, m, n);
            let mut c = Matrix::zeros(n, n);
            ata_s_planned(1.0, a.as_ref(), &mut c.as_mut(), &plan, &cfg, kind, &arenas);
            let mut c_ref = Matrix::zeros(n, n);
            reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
            assert!(c.max_abs_diff_lower(&c_ref) < 1e-10, "seed {seed}");
        }
        // Every checked-out arena came back, and none regrew: the warmed
        // capacity covered all executions.
        assert_eq!(arenas.cached(), threads);
        assert_eq!(arenas.cached_elems(), threads * need);
    }

    #[test]
    #[should_panic(expected = "plan built for n=16")]
    fn plan_shape_mismatch_rejected() {
        let plan = SharedPlan::build(16, 2);
        let a = gen::standard::<f64>(1, 8, 8);
        let mut c = Matrix::zeros(8, 8);
        ata_s_planned(
            1.0,
            a.as_ref(),
            &mut c.as_mut(),
            &plan,
            &CacheConfig::default(),
            StrassenKind::Classic,
            &ArenaPool::new(),
        );
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_rejected() {
        let a = Matrix::<f64>::zeros(2, 2);
        let mut c = Matrix::<f64>::zeros(2, 2);
        ata_s(1.0, a.as_ref(), &mut c.as_mut(), 0, &CacheConfig::default());
    }
}
