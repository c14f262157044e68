//! Virtual-padding block sums: the library machine's `pad`, `add` and
//! `rsub` (see [`crate::level::Machine`]).
//!
//! The paper avoids the peeling/padding of Huss-Lederman et al. by
//! "conveniently applying the BLAS routine `?axpy` ... so that it
//! simulates padding of an extra 0 column or row" (§3.1). These helpers
//! are that idea as code: sums of discordantly-sized quadrants are
//! written into ceil-sized workspace slots whose missing last row/column
//! is zero, and accumulations back into smaller `C` quadrants truncate
//! the virtual row/column again.

use ata_kernels::level1::{axpy, copy_padded};
use ata_mat::{MatMut, MatRef, Scalar};

/// `dst = pad(src)`: copy `src` into the top-left corner, zero the rest.
pub(crate) fn pad_into<T: Scalar>(dst: &mut MatMut<'_, T>, src: MatRef<'_, T>) {
    for i in 0..dst.rows() {
        let drow = dst.row_mut(i);
        if i < src.rows() {
            copy_padded(src.row(i), drow);
        } else {
            drow.fill(T::ZERO);
        }
    }
}

/// `dst += coeff * pad(src)` over the rows and columns both have: the
/// second term of an operand sum, the chain step `T4 = T2 - B21`
/// (`coeff = -1`), or an accumulation that truncates a padded product
/// to a smaller `C` quadrant (the virtual-padding inverse).
pub(crate) fn add_padded<T: Scalar>(dst: &mut MatMut<'_, T>, coeff: T, src: MatRef<'_, T>) {
    for i in 0..src.rows().min(dst.rows()) {
        axpy(coeff, src.row(i), dst.row_mut(i));
    }
}

/// In-place chain update `dst = pad(src) - dst` (Winograd's
/// `T2 = B22 - T1` with `T1` already in the slot). Rows of `dst` beyond
/// `src` are negated (they subtract from virtual zeros).
pub(crate) fn rsub_padded<T: Scalar>(dst: &mut MatMut<'_, T>, src: MatRef<'_, T>) {
    for i in 0..dst.rows() {
        let drow = dst.row_mut(i);
        if i < src.rows() {
            let srow = src.row(i);
            let len = srow.len().min(drow.len());
            for (d, s) in drow[..len].iter_mut().zip(&srow[..len]) {
                *d = *s - *d;
            }
            for d in &mut drow[len..] {
                *d = -*d;
            }
        } else {
            for d in drow {
                *d = -*d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::Matrix;

    #[test]
    fn pad_into_zero_extends() {
        let src = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64 + 1.0);
        let mut buf = vec![9.0f64; 9];
        let mut dst = MatMut::from_slice(&mut buf, 3, 3);
        pad_into(&mut dst, src.as_ref());
        assert_eq!(buf, [1.0, 2.0, 0.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn pad_sum_discordant_sizes() {
        // a: 2x2, b: 1x2 -> pad(a) - pad(b) at 2x2.
        let a = Matrix::from_fn(2, 2, |_, _| 5.0f64);
        let b = Matrix::from_fn(1, 2, |_, _| 2.0f64);
        let mut buf = vec![0.0f64; 4];
        let mut s = MatMut::from_slice(&mut buf, 2, 2);
        pad_into(&mut s, a.as_ref());
        add_padded(&mut s, -1.0, b.as_ref());
        assert_eq!(s[(0, 0)], 3.0);
        assert_eq!(s[(1, 1)], 5.0, "row beyond b gets pad(a) only");
    }

    #[test]
    fn sub_padded_leaves_virtual_rows() {
        let src = Matrix::from_fn(1, 2, |_, j| (j + 1) as f64);
        let mut buf = vec![10.0f64; 4];
        let mut dst = MatMut::from_slice(&mut buf, 2, 2);
        add_padded(&mut dst, -1.0, src.as_ref());
        assert_eq!(buf, [9.0, 8.0, 10.0, 10.0]);
    }

    #[test]
    fn rsub_padded_negates_virtual_region() {
        let src = Matrix::from_fn(1, 1, |_, _| 7.0f64);
        let mut buf = vec![1.0f64, 2.0, 3.0, 4.0];
        let mut dst = MatMut::from_slice(&mut buf, 2, 2);
        rsub_padded(&mut dst, src.as_ref());
        // (0,0): 7 - 1; (0,1): 0 - 2; row 1 entirely negated.
        assert_eq!(buf, [6.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn direct_or_pad_passthrough_and_copy() {
        // A full-shape source copies exactly; a short one is padded.
        let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let mut buf = vec![0.0f64; 4];
        pad_into(&mut MatMut::from_slice(&mut buf, 2, 2), m.as_ref());
        assert_eq!(buf, m.as_slice());
        let s = Matrix::from_fn(1, 2, |_, j| j as f64 + 1.0);
        let mut buf2 = vec![9.0f64; 4];
        pad_into(&mut MatMut::from_slice(&mut buf2, 2, 2), s.as_ref());
        assert_eq!(buf2, [1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn accumulate_truncates() {
        let mm = Matrix::from_fn(3, 3, |_, _| 1.0f64);
        let mut c = Matrix::zeros(2, 2);
        add_padded(&mut c.as_mut(), 2.0, mm.as_ref());
        assert_eq!(c.as_slice(), [2.0; 4]);
    }
}
