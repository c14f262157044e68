//! Textbook reference implementations used as correctness oracles.
//!
//! Every fast algorithm in the workspace is property-tested against these
//! `O(mnk)` triple loops. They are intentionally written in the most
//! obvious way possible — the oracle must be easy to audit.

use crate::{MatMut, MatRef, Matrix, Scalar};

/// `C += alpha * A^T B` (naive), the semantic contract of the paper's
/// `FastStrassen` and of the BLAS `?gemm` call in Algorithm 2.
///
/// Shapes: `A: m x n`, `B: m x k`, `C: n x k`.
///
/// # Panics
/// On inconsistent shapes.
pub fn gemm_tn<T: Scalar>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
    let (m, n) = a.shape();
    let (mb, k) = b.shape();
    assert_eq!(m, mb, "gemm_tn: A is {m}x{n} but B has {mb} rows");
    assert_eq!(
        c.shape(),
        (n, k),
        "gemm_tn: C must be {n}x{k}, got {:?}",
        c.shape()
    );
    for i in 0..n {
        for j in 0..k {
            let mut acc = T::ZERO;
            for l in 0..m {
                acc += *a.at(l, i) * *b.at(l, j);
            }
            *c.at_mut(i, j) += alpha * acc;
        }
    }
}

/// Lower triangle of `C += alpha * A^T A` (naive), the contract of the
/// BLAS `?syrk` base case of Algorithm 1. Entries with `i < j` are left
/// untouched.
///
/// Shapes: `A: m x n`, `C: n x n`.
///
/// # Panics
/// On inconsistent shapes.
pub fn syrk_ln<T: Scalar>(alpha: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
    let (m, n) = a.shape();
    assert_eq!(
        c.shape(),
        (n, n),
        "syrk_ln: C must be {n}x{n}, got {:?}",
        c.shape()
    );
    for i in 0..n {
        for j in 0..=i {
            let mut acc = T::ZERO;
            for l in 0..m {
                acc += *a.at(l, i) * *a.at(l, j);
            }
            *c.at_mut(i, j) += alpha * acc;
        }
    }
}

/// Full symmetric Gram matrix `A^T A` as an owned matrix (both triangles
/// filled) — the end-to-end oracle for the public API.
pub fn gram<T: Scalar>(a: MatRef<'_, T>) -> Matrix<T> {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    syrk_ln(T::ONE, a, &mut c.as_mut());
    c.mirror_lower_to_upper();
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_tn_known_values() {
        // A = [[1,2],[3,4],[5,6]] (3x2), B = [[1,0],[0,1],[1,1]] (3x2)
        let a = Matrix::from_vec(vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let b = Matrix::from_vec(vec![1.0f64, 0.0, 0.0, 1.0, 1.0, 1.0], 3, 2);
        let mut c = Matrix::zeros(2, 2);
        gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut());
        // A^T B = [[1+0+5, 0+3+5],[2+0+6, 0+4+6]] = [[6,8],[8,10]]
        assert_eq!(c.as_slice(), &[6.0, 8.0, 8.0, 10.0]);
    }

    #[test]
    fn gemm_tn_accumulates_and_scales() {
        let a = Matrix::from_vec(vec![1.0f64, 1.0], 2, 1); // 2x1
        let b = Matrix::from_vec(vec![2.0f64, 3.0], 2, 1); // 2x1
        let mut c = Matrix::from_vec(vec![100.0f64], 1, 1);
        gemm_tn(2.0, a.as_ref(), b.as_ref(), &mut c.as_mut());
        assert_eq!(c[(0, 0)], 100.0 + 2.0 * 5.0);
    }

    #[test]
    fn syrk_matches_gemm_with_self_on_lower() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.5 - 2.0);
        let mut via_syrk = Matrix::zeros(3, 3);
        syrk_ln(1.5, a.as_ref(), &mut via_syrk.as_mut());
        let mut via_gemm = Matrix::zeros(3, 3);
        gemm_tn(1.5, a.as_ref(), a.as_ref(), &mut via_gemm.as_mut());
        assert!(via_syrk.max_abs_diff_lower(&via_gemm) < 1e-12);
        // Upper strictly triangle untouched (still zero).
        assert_eq!(via_syrk[(0, 2)], 0.0);
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal() {
        let a = Matrix::from_fn(5, 4, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
        let g = gram(a.as_ref());
        assert!(g.is_symmetric(0.0));
        // Diagonal of a Gram matrix = squared column norms >= 0.
        for i in 0..4 {
            assert!(g[(i, i)] >= 0.0);
        }
    }

    #[test]
    fn empty_inner_dimension_is_noop() {
        let a = Matrix::<f64>::zeros(0, 3);
        let b = Matrix::<f64>::zeros(0, 2);
        let mut c = Matrix::from_fn(3, 2, |_, _| 7.0);
        gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut());
        assert!(c.as_slice().iter().all(|&x| x == 7.0));
    }
}
