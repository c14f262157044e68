//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The Gram matrix `A^T A` of a full-column-rank `A` is SPD (§1 cites
//! Strang for its properties), which makes Cholesky the natural factor
//! for the normal equations. The factorization works in place on the
//! lower triangle — the same storage discipline as AtA's output, so a
//! `lower(A^T A)` result can be factored without touching the (unused)
//! upper part.
//!
//! All `O(n³)` arithmetic runs in `T` (visible to the op-counting
//! `Tracked` scalar); only the per-column square root and reciprocal go
//! through `f64`, as uncounted bookkeeping — the same convention as the
//! streaming kernels in [`crate::update`].

use crate::triangular::{solve_lower_in_place, solve_lower_transposed_in_place};
use ata_mat::{MatRef, Matrix, Scalar};

/// Failure modes of the factorization and its solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholeskyError {
    /// A pivot was zero or negative: the matrix is not positive
    /// definite (for a Gram matrix this means rank-deficient `A`).
    NotPositiveDefinite {
        /// Column at which the pivot failed.
        column: usize,
    },
    /// A right-hand side's length, or a Gram matrix's order, does not
    /// match the factor's order.
    ShapeMismatch {
        /// Expected dimension (the factor's order `n`).
        expected: usize,
        /// Offending dimension supplied by the caller.
        got: usize,
    },
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholeskyError::NotPositiveDefinite { column } => {
                write!(
                    f,
                    "matrix is not positive definite (pivot at column {column})"
                )
            }
            CholeskyError::ShapeMismatch { expected, got } => {
                write!(f, "operand shape mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Factor the lower triangle of `g` in place: on success the lower part
/// holds `L` with `G = L L^T`. The strictly-upper part is left exactly
/// as it was.
///
/// # Errors
/// [`CholeskyError::NotPositiveDefinite`] if a pivot is `<= 0`.
///
/// # Panics
/// If `g` is not square.
pub fn cholesky_factor<T: Scalar>(g: &mut Matrix<T>) -> Result<(), CholeskyError> {
    let n = g.rows();
    assert_eq!(g.cols(), n, "cholesky needs a square matrix");
    for j in 0..n {
        let mut d = g[(j, j)];
        for k in 0..j {
            let v = g[(j, k)];
            d -= v * v;
        }
        let df = d.to_f64();
        if df <= 0.0 || !df.is_finite() {
            return Err(CholeskyError::NotPositiveDefinite { column: j });
        }
        let d_sqrt = df.sqrt();
        g[(j, j)] = T::from_f64(d_sqrt);
        let inv = T::from_f64(1.0 / d_sqrt);
        for i in (j + 1)..n {
            let mut s = g[(i, j)];
            for k in 0..j {
                s -= g[(i, k)] * g[(j, k)];
            }
            g[(i, j)] = s * inv;
        }
    }
    Ok(())
}

/// Solve `G x = b` given the factor from [`cholesky_factor`]
/// (`L L^T x = b`: one forward, one backward substitution).
///
/// # Errors
/// [`CholeskyError::ShapeMismatch`] if `b.len()` does not equal the
/// factor's order.
///
/// # Panics
/// If `l` is not square or has a zero diagonal (a corrupt factor —
/// [`cholesky_factor`] never returns one).
pub fn cholesky_solve<T: Scalar>(l: &Matrix<T>, b: &[T]) -> Result<Vec<T>, CholeskyError> {
    let mut x = b.to_vec();
    cholesky_solve_in_place(l, &mut x)?;
    Ok(x)
}

/// In-place, allocation-free variant of [`cholesky_solve`]: `rhs` is
/// overwritten with the solution.
///
/// # Errors
/// [`CholeskyError::ShapeMismatch`] if `rhs.len()` does not equal the
/// factor's order (the rhs is untouched).
///
/// # Panics
/// As [`cholesky_solve`].
pub fn cholesky_solve_in_place<T: Scalar>(
    l: &Matrix<T>,
    rhs: &mut [T],
) -> Result<(), CholeskyError> {
    let n = l.rows();
    if rhs.len() != n {
        return Err(CholeskyError::ShapeMismatch {
            expected: n,
            got: rhs.len(),
        });
    }
    solve_lower_in_place(l.as_ref(), rhs);
    solve_lower_transposed_in_place(l.as_ref(), rhs);
    Ok(())
}

/// Multi-rhs variant of [`cholesky_solve`]: solve `G X = B` for an
/// `n × p` right-hand-side block, column by column.
///
/// # Errors
/// [`CholeskyError::ShapeMismatch`] if `b` does not have `n` rows.
///
/// # Panics
/// As [`cholesky_solve`].
pub fn cholesky_solve_multi<T: Scalar>(
    l: &Matrix<T>,
    b: MatRef<'_, T>,
) -> Result<Matrix<T>, CholeskyError> {
    let n = l.rows();
    if b.rows() != n {
        return Err(CholeskyError::ShapeMismatch {
            expected: n,
            got: b.rows(),
        });
    }
    let p = b.cols();
    let mut out = Matrix::zeros(n, p);
    let mut col = vec![T::ZERO; n];
    for c in 0..p {
        for (i, cv) in col.iter_mut().enumerate() {
            *cv = *b.at(i, c);
        }
        cholesky_solve_in_place(l, &mut col)?;
        for (i, cv) in col.iter().enumerate() {
            out[(i, c)] = *cv;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference};

    /// Build an SPD matrix as A^T A + eps I.
    fn spd(n: usize, seed: u64) -> Matrix<f64> {
        let a = gen::standard::<f64>(seed, n + 4, n);
        let mut g = reference::gram(a.as_ref());
        for i in 0..n {
            g[(i, i)] += 0.5;
        }
        g
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let n = 8;
        let g = spd(n, 1);
        let mut l = g.clone();
        cholesky_factor(&mut l).expect("SPD");
        // Check L L^T == G on the lower triangle.
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += l[(i, k)] * l[(j, k)];
                }
                assert!((s - g[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn factor_preserves_strict_upper() {
        let mut g = spd(5, 2);
        // Poison the upper triangle; factorization must not read or
        // write it.
        for i in 0..5 {
            for j in (i + 1)..5 {
                g[(i, j)] = f64::NAN;
            }
        }
        let mut l = g.clone();
        cholesky_factor(&mut l).expect("SPD");
        for i in 0..5 {
            for j in 0..=i {
                assert!(l[(i, j)].is_finite());
            }
            for j in (i + 1)..5 {
                assert!(l[(i, j)].is_nan(), "upper must be untouched");
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let n = 10;
        let g = spd(n, 3);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 - 4.0) * 0.3).collect();
        // b = G x.
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += g[(i, j)] * x_true[j];
            }
        }
        let mut l = g.clone();
        cholesky_factor(&mut l).expect("SPD");
        let x = cholesky_solve(&l, &b).expect("shape");
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_rejects_bad_rhs_length() {
        let mut l = spd(4, 7);
        cholesky_factor(&mut l).expect("SPD");
        assert_eq!(
            cholesky_solve(&l, &[1.0; 3]).unwrap_err(),
            CholeskyError::ShapeMismatch {
                expected: 4,
                got: 3
            }
        );
        let mut short = [1.0; 3];
        assert!(cholesky_solve_in_place(&l, &mut short).is_err());
        assert_eq!(short, [1.0; 3], "rejected rhs must be untouched");
    }

    #[test]
    fn multi_rhs_matches_column_solves() {
        let n = 6;
        let g = spd(n, 8);
        let mut l = g.clone();
        cholesky_factor(&mut l).expect("SPD");
        let b = Matrix::from_fn(n, 3, |i, c| ((i * 3 + c) as f64 * 0.31).sin());
        let xs = cholesky_solve_multi(&l, b.as_ref()).expect("shape");
        for c in 0..3 {
            let col: Vec<f64> = (0..n).map(|i| b[(i, c)]).collect();
            let x = cholesky_solve(&l, &col).expect("shape");
            for i in 0..n {
                assert!((xs[(i, c)] - x[i]).abs() < 1e-12);
            }
        }
        let wide = Matrix::<f64>::zeros(n + 1, 2);
        assert!(cholesky_solve_multi(&l, wide.as_ref()).is_err());
    }

    #[test]
    fn indefinite_matrix_reports_column() {
        let mut g = Matrix::<f64>::identity(3);
        g[(2, 2)] = -1.0;
        let err = cholesky_factor(&mut g).expect_err("not PD");
        assert_eq!(err, CholeskyError::NotPositiveDefinite { column: 2 });
        assert!(err.to_string().contains("column 2"));
    }

    #[test]
    fn rank_deficient_gram_detected() {
        // A with a repeated column -> singular Gram matrix.
        let a = Matrix::from_fn(6, 3, |i, j| {
            if j == 2 {
                (i + 1) as f64
            } else {
                ((i + 1) * (j + 1)) as f64
            }
        });
        let mut a2 = a.clone();
        for i in 0..6 {
            a2[(i, 2)] = a[(i, 0)]; // duplicate column 0
        }
        let mut g = reference::gram(a2.as_ref());
        assert!(cholesky_factor(&mut g).is_err());
    }
}
