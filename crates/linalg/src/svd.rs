//! Singular values and right singular vectors via the Gram matrix —
//! §1: "the Singular Value Decomposition (SVD) of a matrix A can be
//! computed by studying the eigenproblem for A^T A and A A^T".
//!
//! `A^T A = V diag(sigma^2) V^T`, so the singular values are the square
//! roots of the Gram eigenvalues and `V` holds the right singular
//! vectors. The caller supplies the Gram matrix, computed with AtA (e.g.
//! `ctx.lower(a)` through the `ata` facade; only its lower triangle is
//! read); the eigenproblem is solved with [`crate::eigen::jacobi_eigen`].
//! (Squaring the spectrum halves the attainable relative accuracy of the
//! *small* singular values — the standard trade of the Gram route,
//! acceptable where the paper's applications use it.)

use crate::eigen::jacobi_eigen;
use ata_mat::{Matrix, Scalar};

/// Singular values of `A` (descending) from its Gram matrix
/// `gram = A^T A`. Negative Gram eigenvalues produced by roundoff are
/// clamped to zero.
///
/// # Panics
/// As [`jacobi_eigen`]: if `gram` is not square.
pub(crate) fn singular_values<T: Scalar>(gram: &Matrix<T>) -> Vec<f64> {
    gram_svd(gram).0
}

/// Full thin SVD data from the Gram route: `(sigma, V)` with `sigma`
/// descending and the right singular vectors as columns of `V`
/// (`A = U diag(sigma) V^T`; `U`'s columns are `A v_i / sigma_i` for
/// nonzero `sigma_i`).
///
/// # Panics
/// As [`jacobi_eigen`]: if `gram` is not square.
pub fn gram_svd<T: Scalar>(gram: &Matrix<T>) -> (Vec<f64>, Matrix<f64>) {
    let (w, v) = jacobi_eigen(gram, 1e-12);
    (w.into_iter().map(|x| x.max(0.0).sqrt()).collect(), v)
}

/// Spectral condition number `sigma_max / sigma_min` of `A`, from its
/// Gram matrix (infinite for rank-deficient input).
///
/// # Panics
/// As [`jacobi_eigen`]: if `gram` is not square.
pub fn condition_number<T: Scalar>(gram: &Matrix<T>) -> f64 {
    let s = singular_values(gram);
    let (max, min) = (
        s.first().copied().unwrap_or(0.0),
        s.last().copied().unwrap_or(0.0),
    );
    if min == 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_gram;
    use ata_mat::gen;

    #[test]
    fn identity_has_unit_singular_values() {
        let a = Matrix::<f64>::identity(5);
        let s = singular_values(&lower_gram(a.as_ref()));
        for v in s {
            assert!((v - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn known_diagonal_rectangular() {
        // A = diag(3, 2) padded to 4x2: singular values 3, 2.
        let mut a = Matrix::<f64>::zeros(4, 2);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 2.0;
        let s = singular_values(&lower_gram(a.as_ref()));
        assert!((s[0] - 3.0).abs() < 1e-10);
        assert!((s[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn frobenius_identity() {
        // sum sigma_i^2 == ||A||_F^2.
        let a = gen::standard::<f64>(8, 20, 10);
        let s = singular_values(&lower_gram(a.as_ref()));
        let sum_sq: f64 = s.iter().map(|x| x * x).sum();
        let frob_sq = a.as_ref().frobenius().powi(2);
        assert!((sum_sq - frob_sq).abs() < 1e-8 * frob_sq.max(1.0));
    }

    #[test]
    fn right_singular_vectors_diagonalize_gram() {
        let a = gen::standard::<f64>(9, 16, 6);
        let (s, v) = gram_svd(&lower_gram(a.as_ref()));
        // ||A v_i||_2 == sigma_i.
        for c in 0..6 {
            let mut norm_sq = 0.0;
            for i in 0..16 {
                let mut av = 0.0;
                for j in 0..6 {
                    av += a[(i, j)] * v[(j, c)];
                }
                norm_sq += av * av;
            }
            assert!((norm_sq.sqrt() - s[c]).abs() < 1e-8, "column {c}");
        }
    }

    #[test]
    fn condition_number_detects_rank_deficiency() {
        let mut a = gen::standard::<f64>(10, 12, 4);
        for i in 0..12 {
            a[(i, 3)] = a[(i, 0)]; // duplicate column
        }
        assert!(condition_number(&lower_gram(a.as_ref())) > 1e6);
        let good = gen::tall_well_conditioned::<f64>(11, 30, 6);
        assert!(condition_number(&lower_gram(good.as_ref())) < 10.0);
    }
}
