//! Lower-triangular symmetric rank-k update: `C_low += alpha * A^T A`.
//!
//! This is the workspace's `?syrk('L','T')` — the base case of AtA
//! (Algorithm 1 line 3) and the sequential/multithreaded MKL comparator of
//! Figures 3 and 5. It computes only the `n(n+1)/2` lower entries,
//! halving the flops of a general product, exactly like the BLAS routine
//! it replaces.
//!
//! Both engines run their gemm loop nest with `B = A` under a
//! lower-triangle mask, as BLIS `gemmt` does: the packed engine through
//! [`crate::micro::syrk_ln_micro_path_with`], the blocked loops through
//! [`syrk_ln_blocked`]. Tiles wholly above the diagonal are never
//! visited, and tiles the diagonal cuts touch only their `i >= j`
//! entries.

use crate::gemm::{blocked_nest, BlockSizes};
use ata_mat::{MatMut, MatRef, Scalar};

/// `C_low += alpha * A^T A` — the workspace's default `?syrk('L','T')`.
///
/// Dispatches to the packed register-blocked engine
/// ([`crate::micro::syrk_ln_micro`], diagonal tiles included) with the
/// measured per-scalar blocking from [`crate::calibrate`]; tiny updates
/// fall back to [`syrk_ln_blocked`] — see
/// [`crate::micro::selected_path`].
///
/// Shapes: `A: m x n`, `C: n x n` (only `i >= j` entries touched).
///
/// # Panics
/// On inconsistent shapes.
#[inline]
pub fn syrk_ln<T: Scalar>(alpha: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
    let (m, n) = a.shape();
    match crate::micro::selected_path::<T>(m, n, n) {
        crate::micro::KernelPath::Micro => {
            let cfg = crate::micro::KernelConfig::for_scalar::<T>();
            crate::micro::syrk_ln_micro(alpha, a, c, &cfg);
        }
        crate::micro::KernelPath::Blocked => syrk_ln_blocked(alpha, a, c, BlockSizes::default()),
    }
}

/// `C_low = alpha * A^T A + beta * C_low` — the full `?syrk('L','T')`
/// contract with an explicit β, for callers that need more than the
/// accumulate-only (`β = 1`) mode of [`syrk_ln`].
///
/// The streaming Gram accumulator is the motivating call site: `β = 1`
/// folds a new row chunk into a running sum, `0 < β < 1` applies an
/// exponential forgetting factor in the same pass, and `β = 0` recovers
/// overwrite semantics without a separate zeroing sweep over `C`.
///
/// Exact-op contract (for `Tracked` measurements): the β-scaling costs
/// exactly `n(n+1)/2` multiplications when `beta ∉ {0, 1}` and zero
/// arithmetic otherwise; the update itself then costs exactly what
/// [`syrk_ln`] costs at the same shape. Following BLAS, the scaling is
/// applied even when `A` has no rows.
///
/// Shapes: `A: m x n`, `C: n x n` (only `i >= j` entries touched).
///
/// # Panics
/// On inconsistent shapes.
pub fn syrk_ln_beta<T: Scalar>(alpha: T, beta: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
    let (m, n) = a.shape();
    assert_eq!(
        c.shape(),
        (n, n),
        "syrk_ln_beta: C must be {n}x{n}, got {:?}",
        c.shape()
    );
    if beta == T::ZERO {
        for i in 0..n {
            for cv in &mut c.row_mut(i)[..=i] {
                *cv = T::ZERO;
            }
        }
    } else if beta != T::ONE {
        for i in 0..n {
            for cv in &mut c.row_mut(i)[..=i] {
                *cv = beta * *cv;
            }
        }
    }
    if m == 0 || n == 0 {
        return;
    }
    syrk_ln(alpha, a, c);
}

/// `C_low += alpha * A^T A` with explicit blocking parameters: the
/// [`crate::gemm::gemm_tn_blocked`] tile loop with `B = A`, each tile
/// row stopping at the diagonal.
///
/// # Panics
/// On inconsistent shapes.
pub fn syrk_ln_blocked<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    bs: BlockSizes,
) {
    let n = a.cols();
    assert_eq!(
        c.shape(),
        (n, n),
        "syrk_ln: C must be {n}x{n}, got {:?}",
        c.shape()
    );
    blocked_nest(alpha, a, a, c, bs, true);
}

/// Balanced partition of the rows of an `n x n` lower triangle into `p`
/// contiguous row ranges of (approximately) equal area.
///
/// Row range `r0..r1` of the lower triangle holds
/// `(r1(r1+1) - r0(r0+1)) / 2` entries; equal-area ranges are what makes
/// the parallel [`crate::par::par_syrk_ln`] scale, since a naive equal-row
/// split gives the last thread almost twice the average work.
///
/// Returns `p + 1` boundaries starting at 0 and ending at `n`.
pub fn triangle_row_partition(n: usize, p: usize) -> Vec<usize> {
    assert!(p > 0, "partition needs at least one part");
    let total = (n as f64) * (n as f64 + 1.0) / 2.0;
    let mut bounds = Vec::with_capacity(p + 1);
    bounds.push(0);
    for t in 1..p {
        // Solve r(r+1)/2 = (t/p) * total for r.
        let target = total * t as f64 / p as f64;
        let r = ((2.0 * target + 0.25).sqrt() - 0.5).round() as usize;
        let r = r.clamp(*bounds.last().unwrap(), n); // ata-lint: allow(no-unwrap-in-lib): bounds starts non-empty (0 pushed above)
        bounds.push(r);
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference, Matrix};

    fn check(m: usize, n: usize, alpha: f64, bs: BlockSizes) {
        let a = gen::standard::<f64>(500 + m as u64 * 7 + n as u64, m, n);
        let mut c_fast = gen::standard::<f64>(42, n, n);
        let mut c_ref = c_fast.clone();
        syrk_ln_blocked(alpha, a.as_ref(), &mut c_fast.as_mut(), bs);
        reference::syrk_ln(alpha, a.as_ref(), &mut c_ref.as_mut());
        let tol = ata_mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
        let diff = c_fast.max_abs_diff_lower(&c_ref);
        assert!(
            diff <= tol,
            "({m},{n}) syrk differs from oracle by {diff} > {tol}"
        );
        // Strict upper part untouched: both started from the same garbage.
        assert_eq!(
            c_fast.max_abs_diff(&c_ref),
            diff,
            "strict upper triangle must be untouched"
        );
    }

    #[test]
    fn matches_oracle_on_assorted_shapes() {
        for &(m, n) in &[
            (1, 1),
            (3, 2),
            (5, 7),
            (16, 16),
            (40, 33),
            (33, 80),
            (128, 35),
        ] {
            check(m, n, 1.0, BlockSizes::default());
        }
    }

    #[test]
    fn alpha_and_accumulation() {
        check(24, 24, 0.5, BlockSizes::default());
        check(24, 24, -3.0, BlockSizes::default());
    }

    #[test]
    fn degenerate_blocking() {
        check(17, 19, 1.0, BlockSizes::new(1, 1));
        check(17, 19, 1.0, BlockSizes::new(5, 4));
    }

    #[test]
    fn result_diagonal_is_nonnegative_for_alpha_one() {
        let a = gen::standard::<f64>(9, 30, 12);
        let mut c = Matrix::zeros(12, 12);
        syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        for i in 0..12 {
            assert!(c[(i, i)] >= 0.0, "gram diagonal must be >= 0");
        }
    }

    #[test]
    fn partition_boundaries_are_monotone_and_cover() {
        for n in [0usize, 1, 7, 64, 1000] {
            for p in [1usize, 2, 3, 7, 16] {
                let b = triangle_row_partition(n, p);
                assert_eq!(b.len(), p + 1);
                assert_eq!(b[0], 0);
                assert_eq!(*b.last().unwrap(), n);
                assert!(b.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn partition_is_area_balanced() {
        let n = 1024;
        let p = 8;
        let b = triangle_row_partition(n, p);
        let area = |r0: usize, r1: usize| (r1 * (r1 + 1) - r0 * (r0 + 1)) / 2;
        let total = area(0, n);
        for w in b.windows(2) {
            let share = area(w[0], w[1]) as f64 / total as f64;
            assert!(
                (share - 1.0 / p as f64).abs() < 0.02,
                "unbalanced share {share}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "syrk_ln")]
    fn shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(3, 4);
        let mut c = Matrix::<f64>::zeros(3, 3);
        syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
    }

    #[test]
    fn beta_modes_match_reference() {
        let (m, n) = (18usize, 13usize);
        let a = gen::standard::<f64>(31, m, n);
        for beta in [0.0f64, 1.0, 0.5, -2.0] {
            let mut c = gen::standard::<f64>(32, n, n);
            let mut c_ref = c.clone();
            syrk_ln_beta(0.75, beta, a.as_ref(), &mut c.as_mut());
            // Reference: scale the lower triangle, then accumulate.
            for i in 0..n {
                for j in 0..=i {
                    c_ref[(i, j)] *= beta;
                }
            }
            reference::syrk_ln(0.75, a.as_ref(), &mut c_ref.as_mut());
            let tol = ata_mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
            assert!(
                c.max_abs_diff_lower(&c_ref) <= tol,
                "beta={beta}: diff {} > {tol}",
                c.max_abs_diff_lower(&c_ref)
            );
            // Strict upper untouched for every beta.
            assert_eq!(c.max_abs_diff(&c_ref), c.max_abs_diff_lower(&c_ref));
        }
    }

    #[test]
    fn beta_scaling_applies_even_without_rows() {
        // BLAS semantics: k = 0 still scales C by beta.
        let a = Matrix::<f64>::zeros(0, 4);
        let mut c = Matrix::from_fn(4, 4, |_, _| 3.0);
        syrk_ln_beta(1.0, 0.5, a.as_ref(), &mut c.as_mut());
        for i in 0..4 {
            for j in 0..4 {
                let expect = if j <= i { 1.5 } else { 3.0 };
                assert_eq!(c[(i, j)], expect);
            }
        }
    }

    #[test]
    fn beta_scaling_op_counts_are_exact() {
        use ata_mat::tracked::{measure, Tracked};
        let (m, n) = (9usize, 7usize);
        let a = gen::standard::<Tracked>(5, m, n);
        let baseline = {
            let mut c = Matrix::<Tracked>::zeros(n, n);
            let (_, ops) = measure(|| syrk_ln(Tracked::ONE, a.as_ref(), &mut c.as_mut()));
            ops
        };
        // beta = 1: identical to the plain accumulate.
        let mut c = Matrix::<Tracked>::zeros(n, n);
        let (_, ops1) = measure(|| {
            syrk_ln_beta(Tracked::ONE, Tracked::ONE, a.as_ref(), &mut c.as_mut());
        });
        assert_eq!(ops1.muls, baseline.muls);
        assert_eq!(ops1.additive(), baseline.additive());
        // beta = 0: zeroing is assignment, no arithmetic.
        let mut c = Matrix::<Tracked>::zeros(n, n);
        let (_, ops0) = measure(|| {
            syrk_ln_beta(Tracked::ONE, Tracked::ZERO, a.as_ref(), &mut c.as_mut());
        });
        assert_eq!(ops0.muls, baseline.muls);
        assert_eq!(ops0.additive(), baseline.additive());
        // General beta: exactly n(n+1)/2 extra multiplications.
        let beta = Tracked::ONE + Tracked::ONE;
        let extra_muls = {
            let mut c = Matrix::<Tracked>::zeros(n, n);
            let (_, ops) = measure(|| {
                syrk_ln_beta(Tracked::ONE, beta, a.as_ref(), &mut c.as_mut());
            });
            ops.muls - baseline.muls
        };
        assert_eq!(extra_muls, (n * (n + 1) / 2) as u64);
    }
}
