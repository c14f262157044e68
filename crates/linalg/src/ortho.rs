//! Orthogonalization helpers — §1: the Gram product "is a
//! straightforward, yet effective, method to check for orthogonality
//! [...] repeatedly computed in the Gram-Schmidt algorithm".

use ata_kernels::level1::{axpy, dot, nrm2, scal};
use ata_mat::{MatRef, Matrix, Scalar};

/// Modified Gram–Schmidt on the columns of `a`: returns `Q` (`m x n`)
/// with orthonormal columns spanning the same space.
///
/// # Panics
/// If a column is (numerically) linearly dependent on its predecessors
/// (norm below `1e-12 * ||A||`).
pub fn mgs_orthonormalize<T: Scalar>(a: MatRef<'_, T>) -> Matrix<T> {
    let (m, n) = a.shape();
    let mut q = a.to_matrix();
    let scale_floor = 1e-12 * a.frobenius().max(1.0);

    // Column-major working copy for contiguous column access.
    let mut cols: Vec<Vec<T>> = (0..n)
        .map(|j| (0..m).map(|i| q[(i, j)]).collect())
        .collect();

    for j in 0..n {
        let norm = nrm2(&cols[j]);
        assert!(norm > scale_floor, "column {j} is linearly dependent");
        let inv = T::from_f64(1.0 / norm);
        scal(inv, &mut cols[j]);
        let (head, tail) = cols.split_at_mut(j + 1);
        let qj = &head[j];
        for ck in tail.iter_mut() {
            let r = dot(qj, ck);
            axpy(-r, qj, ck);
        }
    }
    for j in 0..n {
        for i in 0..m {
            q[(i, j)] = cols[j][i];
        }
    }
    q
}

/// Orthogonality defect `max_ij |Q^T Q - I|` from the Gram matrix
/// `gram = Q^T Q` — the paper's one-product orthogonality check. Only
/// the lower triangle (`j <= i`) is read, so one AtA call such as
/// `ctx.lower(q)` supplies it.
///
/// # Panics
/// If `gram` is not square.
pub fn orthogonality_defect<T: Scalar>(gram: &Matrix<T>) -> f64 {
    let n = gram.rows();
    assert_eq!(gram.cols(), n, "orthogonality_defect needs a square Gram");
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in 0..=i {
            let expect = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((gram[(i, j)].to_f64() - expect).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_gram;
    use ata_mat::gen;

    #[test]
    fn mgs_produces_orthonormal_basis() {
        let a = gen::standard::<f64>(1, 40, 12);
        let q = mgs_orthonormalize(a.as_ref());
        let defect = orthogonality_defect(&lower_gram(q.as_ref()));
        assert!(defect < 1e-12, "defect {defect}");
    }

    #[test]
    fn mgs_preserves_column_span() {
        // Each original column must be expressible in the Q basis:
        // ||(I - Q Q^T) a_j|| ~ 0.
        let (m, n) = (20usize, 5usize);
        let a = gen::standard::<f64>(2, m, n);
        let q = mgs_orthonormalize(a.as_ref());
        for j in 0..n {
            let mut residual: Vec<f64> = (0..m).map(|i| a[(i, j)]).collect();
            for c in 0..n {
                let coef: f64 = (0..m).map(|i| q[(i, c)] * a[(i, j)]).sum();
                for (i, r) in residual.iter_mut().enumerate() {
                    *r -= coef * q[(i, c)];
                }
            }
            let norm: f64 = residual.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!(norm < 1e-10, "column {j} left the span: {norm}");
        }
    }

    #[test]
    fn defect_detects_non_orthogonal_input() {
        let a = gen::standard::<f64>(3, 30, 8);
        assert!(orthogonality_defect(&lower_gram(a.as_ref())) > 0.5);
    }

    #[test]
    fn already_orthogonal_input_is_fixed_point() {
        let eye = Matrix::<f64>::identity(6);
        let q = mgs_orthonormalize(eye.as_ref());
        assert!(q.max_abs_diff(&eye) < 1e-14);
    }

    #[test]
    #[should_panic(expected = "linearly dependent")]
    fn dependent_columns_rejected() {
        let mut a = gen::standard::<f64>(4, 10, 3);
        for i in 0..10 {
            a[(i, 2)] = 2.0 * a[(i, 1)];
        }
        let _ = mgs_orthonormalize(a.as_ref());
    }
}
