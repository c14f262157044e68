//! Whole-matrix elementwise helpers shared across the workspace.
//!
//! These are deliberately simple loops over contiguous rows — the
//! performance-critical paths live in `ata-kernels`; this module serves
//! tests, examples and glue code (gather-side sums of the distributed
//! algorithm, operand preparation, etc.).

use crate::{MatMut, MatRef, Scalar};

/// `dst += src`, elementwise.
///
/// # Panics
/// If shapes differ.
pub fn add_assign<T: Scalar>(dst: &mut MatMut<'_, T>, src: MatRef<'_, T>) {
    assert_eq!(dst.shape(), src.shape(), "add_assign shape mismatch");
    for i in 0..dst.rows() {
        let d = dst.row_mut(i);
        let s = src.row(i);
        for (dv, sv) in d.iter_mut().zip(s) {
            *dv += *sv;
        }
    }
}

/// `dst += alpha * src`, elementwise.
///
/// # Panics
/// If shapes differ.
pub fn axpy_assign<T: Scalar>(dst: &mut MatMut<'_, T>, alpha: T, src: MatRef<'_, T>) {
    assert_eq!(dst.shape(), src.shape(), "axpy_assign shape mismatch");
    for i in 0..dst.rows() {
        let d = dst.row_mut(i);
        let s = src.row(i);
        for (dv, sv) in d.iter_mut().zip(s) {
            *dv += alpha * *sv;
        }
    }
}

/// Scale every element of `dst` by `s`.
pub fn scale<T: Scalar>(dst: &mut MatMut<'_, T>, s: T) {
    for i in 0..dst.rows() {
        for v in dst.row_mut(i) {
            *v *= s;
        }
    }
}

/// Max-norm distance between two views.
///
/// # Panics
/// If shapes differ.
pub fn max_abs_diff<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "max_abs_diff shape mismatch");
    let mut worst = 0.0f64;
    for i in 0..a.rows() {
        for (x, y) in a.row(i).iter().zip(b.row(i)) {
            worst = worst.max((x.to_f64() - y.to_f64()).abs());
        }
    }
    worst
}

/// Relative tolerance for comparing a computed `m x n`-sized product
/// against an oracle: `c * max(m, n) * eps * scale`, where `scale` bounds
/// the magnitude of the entries. Strassen-type algorithms have a slightly
/// worse error constant than the classical one, which the factor `c`
/// absorbs (Brent's classical analysis, cited as \[6\] in the paper).
pub fn product_tol<T: Scalar>(m: usize, n: usize, scale: f64) -> f64 {
    let dim = m.max(n).max(2) as f64;
    // log-factor for the Strassen recursion depth; generous but tight
    // enough to catch real indexing bugs (which produce O(scale) errors).
    64.0 * dim.log2().powi(2) * T::epsilon() * scale.max(1.0) * dim.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn m(rows: usize, cols: usize, f: impl FnMut(usize, usize) -> f64) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, f)
    }

    #[test]
    fn add_sub_axpy() {
        let a = m(2, 3, |i, j| (i + j) as f64);
        let b = m(2, 3, |i, j| (i * j) as f64);
        let mut acc = a.clone();
        axpy_assign(&mut acc.as_mut(), 2.0, b.as_ref());
        assert_eq!(acc[(1, 2)], 3.0 + 2.0 * 2.0);

        let mut acc2 = a.clone();
        add_assign(&mut acc2.as_mut(), b.as_ref());
        assert_eq!(acc2[(1, 2)], 5.0);
    }

    #[test]
    fn scale_in_place() {
        let mut a = m(2, 2, |_, _| 3.0);
        scale(&mut a.as_mut(), 2.0);
        assert_eq!(a.as_slice(), &[6.0; 4]);
    }

    #[test]
    fn diff_metric() {
        let a = m(2, 2, |_, _| 1.0);
        let b = m(2, 2, |i, j| if (i, j) == (1, 1) { 3.0 } else { 1.0 });
        assert_eq!(max_abs_diff(a.as_ref(), b.as_ref()), 2.0);
    }

    #[test]
    fn tolerance_scales_with_size_and_precision() {
        let t_small = product_tol::<f64>(8, 8, 1.0);
        let t_big = product_tol::<f64>(4096, 4096, 1.0);
        assert!(t_big > t_small);
        assert!(product_tol::<f32>(64, 64, 1.0) > product_tol::<f64>(64, 64, 1.0));
        // Even the big tolerance must stay far below O(1) entry magnitude.
        assert!(t_big < 1e-6);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = m(2, 3, |_, _| 0.0);
        let b = m(3, 2, |_, _| 0.0);
        let _ = max_abs_diff(a.as_ref(), b.as_ref());
    }

    #[test]
    fn ops_on_strided_views() {
        // Operate on the 2x2 top-left block of a 4x4 buffer and verify the
        // rest is untouched.
        let mut buf = Matrix::from_fn(4, 4, |_, _| 1.0);
        let ones = m(2, 2, |_, _| 1.0);
        {
            let mut blk = buf.as_mut().into_block(0, 2, 0, 2);
            axpy_assign(&mut blk, 10.0, ones.as_ref());
        }
        assert_eq!(buf[(0, 0)], 11.0);
        assert_eq!(buf[(1, 1)], 11.0);
        assert_eq!(buf[(0, 2)], 1.0);
        assert_eq!(buf[(2, 0)], 1.0);
    }
}
