//! `C += alpha * A^T B` — the workspace's `?gemm('T','N')`.
//!
//! The product of a transposed left operand is the only general product
//! the paper's algorithms need (Algorithm 1 line 11, Algorithm 2 line 3),
//! and it is the hard case for row-major storage: naive column access of
//! `A` misses cache on every element. [`gemm_tn`] runs the packed engine
//! of [`crate::micro`], whose packing reads only contiguous row fragments
//! of `A` and `B` and never materializes `A^T`.

use crate::micro::{gemm_tn_micro_path, micro_path_for, KernelConfig};
use ata_mat::{MatMut, MatRef, Scalar};

/// `C += alpha * A^T B` — the workspace's default `?gemm('T','N')`.
///
/// Runs the packed register-blocked engine on the tile path
/// [`micro_path_for`] resolves, with the measured per-scalar blocking
/// from [`crate::calibrate`], at every size.
///
/// Shapes: `A: m x n`, `B: m x k`, `C: n x k`.
///
/// # Panics
/// On inconsistent shapes.
#[inline]
pub fn gemm_tn<T: Scalar>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
    let cfg = KernelConfig::for_scalar::<T>();
    gemm_tn_micro_path(micro_path_for::<T>(), alpha, a, b, c, &cfg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference, Matrix};

    fn check_against_oracle(m: usize, n: usize, k: usize, alpha: f64) {
        let a = gen::standard::<f64>(1000 + m as u64, m, n);
        let b = gen::standard::<f64>(2000 + k as u64, m, k);
        let mut c_fast = gen::standard::<f64>(3000, n, k);
        let mut c_ref = c_fast.clone();
        gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut c_fast.as_mut());
        reference::gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        let tol = ata_mat::ops::product_tol::<f64>(m.max(n), k, m as f64);
        let diff = c_fast.max_abs_diff(&c_ref);
        assert!(
            diff <= tol,
            "({m},{n},{k}) gemm differs from oracle by {diff} > {tol}"
        );
    }

    #[test]
    fn matches_oracle_on_assorted_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (2, 3, 4),
            (7, 5, 3),
            (16, 16, 16),
            (33, 31, 29), // primes leave ragged tiles
            (64, 1, 64),
            (1, 64, 64),
            (100, 37, 300),
        ] {
            check_against_oracle(m, n, k, 1.0);
        }
    }

    #[test]
    fn alpha_scaling_and_accumulation() {
        check_against_oracle(20, 20, 20, -2.5);
    }

    #[test]
    fn works_on_strided_views() {
        // Multiply quadrants of a larger matrix without copying.
        let big = gen::standard::<f64>(9, 8, 8);
        let (a11, _, _, a22) = big.as_ref().quad_split();
        let mut c = Matrix::zeros(4, 4);
        gemm_tn(1.0, a11, a22, &mut c.as_mut());
        let mut c_ref = Matrix::zeros(4, 4);
        reference::gemm_tn(1.0, a11, a22, &mut c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn f32_path() {
        let a = gen::standard::<f32>(11, 30, 20);
        let b = gen::standard::<f32>(12, 30, 25);
        let mut c = Matrix::<f32>::zeros(20, 25);
        gemm_tn(2.0f32, a.as_ref(), b.as_ref(), &mut c.as_mut());
        let mut c_ref = Matrix::<f32>::zeros(20, 25);
        reference::gemm_tn(2.0f32, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "gemm_tn")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f64>::zeros(3, 2);
        let b = Matrix::<f64>::zeros(4, 2);
        let mut c = Matrix::<f64>::zeros(2, 2);
        gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut());
    }

    #[test]
    fn zero_sized_edges() {
        let a = Matrix::<f64>::zeros(0, 4);
        let b = Matrix::<f64>::zeros(0, 5);
        let mut c = Matrix::from_fn(4, 5, |_, _| 1.0);
        gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut());
        assert!(c.as_slice().iter().all(|&x| x == 1.0));
    }
}
