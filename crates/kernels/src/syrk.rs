//! Lower-triangular symmetric rank-k update: `C_low += alpha * A^T A`.
//!
//! This is the workspace's `?syrk('L','T')` — the base case of AtA
//! (Algorithm 1 line 3) and the sequential/multithreaded MKL comparator of
//! Figures 3 and 5. It computes only the `n(n+1)/2` lower entries,
//! halving the flops of a general product, exactly like the BLAS routine
//! it replaces.
//!
//! [`syrk_ln`] runs the packed engine's gemm loop nest with `B = A` under
//! a lower-triangle mask, as BLIS `gemmt` does (see
//! [`crate::micro::syrk_ln_micro_path_with`]). Tiles wholly above the
//! diagonal are never visited, and tiles the diagonal cuts touch only
//! their `i >= j` entries. Like every kernel it runs on its calling
//! thread; [`crate::par::par_syrk_ln`] is the parallel call.
//!
//! [`syrk_ln`] is the β = 1 mode of the BLAS routine: it accumulates
//! into `C`. A caller that needs another β scales the lower triangle
//! first, then calls it.

use crate::micro::{micro_path_for, syrk_ln_micro_path, KernelConfig};
use ata_mat::{MatMut, MatRef, Scalar};

/// `C_low += alpha * A^T A` — the workspace's default `?syrk('L','T')`.
///
/// Runs the packed register-blocked engine (diagonal tiles included) on
/// the tile path [`micro_path_for`] resolves, with the measured
/// per-scalar blocking from [`crate::calibrate`], at every size.
///
/// Shapes: `A: m x n`, `C: n x n` (only `i >= j` entries touched).
///
/// # Panics
/// On inconsistent shapes.
#[inline]
pub fn syrk_ln<T: Scalar>(alpha: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
    let cfg = KernelConfig::for_scalar::<T>();
    syrk_ln_micro_path(micro_path_for::<T>(), alpha, a, c, &cfg);
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

    fn check(m: usize, n: usize, alpha: f64) {
        let a = gen::standard::<f64>(500 + m as u64 * 7 + n as u64, m, n);
        let mut c_fast = gen::standard::<f64>(42, n, n);
        let mut c_ref = c_fast.clone();
        syrk_ln(alpha, a.as_ref(), &mut c_fast.as_mut());
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
            check(m, n, 1.0);
        }
    }

    #[test]
    fn alpha_and_accumulation() {
        check(24, 24, 0.5);
        check(24, 24, -3.0);
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
}
