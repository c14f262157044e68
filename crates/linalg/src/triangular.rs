//! Triangular solves: forward and backward substitution.
//!
//! These operate on the factor produced by [`crate::cholesky`]: a lower
//! triangle stored in the lower part of a square matrix (entries above
//! the diagonal are ignored, matching the AtA convention of never
//! touching the strictly-upper triangle).

use ata_mat::{MatRef, Scalar};

/// Solve `L y = b` (forward substitution) where `L` is the lower
/// triangle of `l`; `b` is overwritten with `y`.
///
/// # Panics
/// If shapes mismatch or a diagonal entry is zero.
pub(crate) fn solve_lower_in_place<T: Scalar>(l: MatRef<'_, T>, b: &mut [T]) {
    let n = l.rows();
    assert_eq!(l.cols(), n, "solve_lower needs a square matrix");
    assert_eq!(b.len(), n, "rhs length mismatch");
    for i in 0..n {
        let row = l.row(i);
        let mut s = b[i];
        for (k, yk) in b[..i].iter().enumerate() {
            s -= row[k] * *yk;
        }
        let d = row[i];
        assert!(d != T::ZERO, "zero diagonal at {i}");
        b[i] = s * T::from_f64(1.0 / d.to_f64());
    }
}

/// Solve `L^T x = y` (backward substitution with the transposed lower
/// factor; `L^T` is never materialized); `y` is overwritten with `x`.
///
/// # Panics
/// If shapes mismatch or a diagonal entry is zero.
pub(crate) fn solve_lower_transposed_in_place<T: Scalar>(l: MatRef<'_, T>, y: &mut [T]) {
    let n = l.rows();
    assert_eq!(l.cols(), n, "solve_lower_transposed needs a square matrix");
    assert_eq!(y.len(), n, "rhs length mismatch");
    for i in (0..n).rev() {
        let mut s = y[i];
        // L^T[i, k] = L[k, i] for k > i.
        for (k, &xv) in y.iter().enumerate().skip(i + 1) {
            s -= *l.at(k, i) * xv;
        }
        let d = *l.at(i, i);
        assert!(d != T::ZERO, "zero diagonal at {i}");
        y[i] = s * T::from_f64(1.0 / d.to_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::Matrix;

    fn lower_example() -> Matrix<f64> {
        // L = [[2,0,0],[1,3,0],[4,5,6]]; upper entries are garbage on
        // purpose — solvers must ignore them.
        Matrix::from_vec(vec![2.0, 99.0, 99.0, 1.0, 3.0, 99.0, 4.0, 5.0, 6.0], 3, 3)
    }

    #[test]
    fn forward_substitution() {
        let l = lower_example();
        // b = L * [1, 2, 3]^T = [2, 7, 32].
        let mut y = [2.0, 7.0, 32.0];
        solve_lower_in_place(l.as_ref(), &mut y);
        assert!((y[0] - 1.0).abs() < 1e-14);
        assert!((y[1] - 2.0).abs() < 1e-14);
        assert!((y[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn backward_substitution_with_transpose() {
        let l = lower_example();
        // L^T * [1, 2, 3]^T = [2*1+1*2+4*3, 3*2+5*3, 6*3] = [16, 21, 18].
        let mut x = [16.0, 21.0, 18.0];
        solve_lower_transposed_in_place(l.as_ref(), &mut x);
        assert!((x[0] - 1.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
        assert!((x[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn roundtrip_forward_then_backward() {
        let l = lower_example();
        let b = [5.0, -1.0, 2.5];
        let mut x = b;
        solve_lower_in_place(l.as_ref(), &mut x);
        solve_lower_transposed_in_place(l.as_ref(), &mut x);
        // Verify L L^T x = b.
        let mut check = [0.0f64; 3];
        for i in 0..3 {
            for j in 0..3 {
                // (L L^T)[i][j] = sum_k L[i][k] L[j][k], k <= min(i,j)
                let mut g = 0.0;
                for k in 0..=i.min(j) {
                    g += l[(i, k)] * l[(j, k)];
                }
                check[i] += g * x[j];
            }
        }
        for i in 0..3 {
            assert!((check[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn singular_factor_rejected() {
        let l = Matrix::from_vec(vec![1.0, 0.0, 0.0, 0.0], 2, 2);
        solve_lower_in_place(l.as_ref(), &mut [1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "rhs length")]
    fn rhs_length_checked() {
        let l = lower_example();
        solve_lower_in_place(l.as_ref(), &mut [1.0]);
    }
}
