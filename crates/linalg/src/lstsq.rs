//! Least squares via the normal equations — the paper's §1 example:
//! "One way to solve the least squares problem of under and over
//! determined linear systems `A x = b` is to solve the associated
//! system of normal equations [...] `A^T A x = A^T b`."
//!
//! The caller supplies the Gram matrix, computed with AtA (this is
//! exactly the workload the paper accelerates, e.g. `ctx.lower(a)`
//! through the `ata` facade); the SPD system is then factored with
//! Cholesky. Note the classical caveat: forming `A^T A` squares the
//! condition number of `A`, so this path is appropriate for
//! well-conditioned problems — which is also the regime where it is the
//! fastest dense method.

use crate::cholesky::{cholesky_factor, cholesky_solve, CholeskyError};
use ata_kernels::gemm_tn;
use ata_mat::{MatRef, Matrix, Scalar};

/// Solve `min_x ||A x - b||_2` through the normal equations.
///
/// `A` is `m x n` with `m >= n` and full column rank; `b` has length
/// `m`; `gram` is `A^T A`, of which only the lower triangle is read and
/// which is factored in place. Returns the coefficient vector of
/// length `n`.
///
/// # Errors
/// [`CholeskyError::ShapeMismatch`] when `gram` is not `n x n` (checked
/// before factoring); [`CholeskyError::NotPositiveDefinite`] when `A`
/// is (numerically) rank-deficient.
///
/// # Panics
/// If `b.len() != m` or `m < n`.
pub fn solve_normal_equations<T: Scalar>(
    a: MatRef<'_, T>,
    b: &[T],
    mut gram: Matrix<T>,
) -> Result<Vec<T>, CholeskyError> {
    let (m, n) = a.shape();
    assert!(
        m >= n,
        "normal equations need an overdetermined (tall) system"
    );
    assert_eq!(b.len(), m, "rhs length must equal A's row count");
    if gram.shape() != (n, n) {
        let got = if gram.rows() != n {
            gram.rows()
        } else {
            gram.cols()
        };
        return Err(CholeskyError::ShapeMismatch { expected: n, got });
    }

    // rhs = A^T b via the transposed-left kernel (b as an m x 1 block).
    let b_mat = Matrix::from_vec(b.to_vec(), m, 1);
    let mut rhs = Matrix::<T>::zeros(n, 1);
    gemm_tn(T::ONE, a, b_mat.as_ref(), &mut rhs.as_mut());

    cholesky_factor(&mut gram)?;
    let rhs_vec: Vec<T> = (0..n).map(|i| rhs[(i, 0)]).collect();
    cholesky_solve(&gram, &rhs_vec)
}

/// Residual 2-norm `||A x - b||_2` (an `f64` regardless of `T`, for
/// reporting).
pub fn residual_norm<T: Scalar>(a: MatRef<'_, T>, x: &[T], b: &[T]) -> f64 {
    let (m, n) = a.shape();
    assert_eq!(x.len(), n, "x length mismatch");
    assert_eq!(b.len(), m, "b length mismatch");
    let mut acc = 0.0f64;
    for (i, bv) in b.iter().enumerate() {
        let row = a.row(i);
        let mut r = -bv.to_f64();
        for (aij, xj) in row.iter().zip(x) {
            r += aij.to_f64() * xj.to_f64();
        }
        acc += r * r;
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_gram;
    use ata_mat::gen;

    #[test]
    fn recovers_exact_solution_of_consistent_system() {
        let (m, n) = (60usize, 12usize);
        let a = gen::tall_well_conditioned::<f64>(1, m, n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut b = vec![0.0; m];
        for i in 0..m {
            for j in 0..n {
                b[i] += a[(i, j)] * x_true[j];
            }
        }
        let x = solve_normal_equations(a.as_ref(), &b, lower_gram(a.as_ref())).expect("full rank");
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
        assert!(residual_norm(a.as_ref(), &x, &b) < 1e-9);
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_columns() {
        // The defining property of the LS solution: A^T (A x - b) = 0.
        let (m, n) = (40usize, 8usize);
        let a = gen::tall_well_conditioned::<f64>(2, m, n);
        let b: Vec<f64> = (0..m).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let x = solve_normal_equations(a.as_ref(), &b, lower_gram(a.as_ref())).expect("full rank");
        for j in 0..n {
            let mut dot = 0.0;
            for i in 0..m {
                let mut ri = -b[i];
                for k in 0..n {
                    ri += a[(i, k)] * x[k];
                }
                dot += a[(i, j)] * ri;
            }
            assert!(
                dot.abs() < 1e-8,
                "column {j} not orthogonal to residual: {dot}"
            );
        }
    }

    #[test]
    fn parallel_option_gives_same_answer() {
        let (m, n) = (80usize, 16usize);
        let a = gen::tall_well_conditioned::<f64>(3, m, n);
        let b: Vec<f64> = (0..m).map(|i| (i as f64).sin()).collect();
        let x1 = solve_normal_equations(a.as_ref(), &b, lower_gram(a.as_ref())).expect("rank");
        let mut g4 = Matrix::zeros(n, n);
        let cfg = ata_kernels::CacheConfig::default();
        ata_core::ata_s(1.0, a.as_ref(), &mut g4.as_mut(), 4, &cfg);
        let x2 = solve_normal_equations(a.as_ref(), &b, g4).expect("rank");
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn gram_of_wrong_order_is_rejected_before_factoring() {
        let a = gen::tall_well_conditioned::<f64>(5, 20, 6);
        let b = vec![1.0; 20];
        let short = lower_gram(a.as_ref().block(0, 20, 0, 5));
        assert_eq!(
            solve_normal_equations(a.as_ref(), &b, short),
            Err(CholeskyError::ShapeMismatch {
                expected: 6,
                got: 5
            })
        );
        let ragged = Matrix::zeros(6, 7);
        assert_eq!(
            solve_normal_equations(a.as_ref(), &b, ragged),
            Err(CholeskyError::ShapeMismatch {
                expected: 6,
                got: 7
            })
        );
    }

    #[test]
    fn rank_deficient_input_errors_cleanly() {
        // Zero column -> singular normal equations.
        let mut a = gen::tall_well_conditioned::<f64>(4, 20, 5);
        for i in 0..20 {
            a[(i, 3)] = 0.0;
        }
        let b = vec![1.0; 20];
        assert!(solve_normal_equations(a.as_ref(), &b, lower_gram(a.as_ref())).is_err());
    }

    #[test]
    #[should_panic(expected = "overdetermined")]
    fn underdetermined_rejected() {
        let a = Matrix::<f64>::zeros(3, 5);
        let _ = solve_normal_equations(a.as_ref(), &[0.0; 3], lower_gram(a.as_ref()));
    }
}
