//! Owned, row-major dense matrix.

use crate::{MatMut, MatRef, Scalar};
use std::ops::{Index, IndexMut};

/// Owned `rows x cols` matrix stored contiguously in row-major order.
///
/// `Matrix` is the storage type of the public API; all algorithms operate
/// on [`MatRef`]/[`MatMut`] views of it.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
}

impl<T: Scalar> Matrix<T> {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![T::ZERO; rows * cols],
            rows,
            cols,
        }
    }

    /// Identity matrix (`n x n`).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build from a row-major vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<T>, rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: length {} != {rows}x{cols}",
            data.len()
        );
        Self { data, rows, cols }
    }

    /// Build from a closure `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow as an immutable view.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef::from_slice(&self.data, self.rows, self.cols)
    }

    /// Borrow as a mutable view.
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_, T> {
        MatMut::from_slice(&mut self.data, self.rows, self.cols)
    }

    /// Underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consume into the backing vector.
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.rows, "row {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Freshly allocated transpose.
    pub fn transposed(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// `max_ij |self - other|`, for test tolerances.
    ///
    /// # Panics
    /// If shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Same as [`Self::max_abs_diff`] but only over the lower triangle
    /// (`i >= j`); used to compare algorithms that, per the paper, leave the
    /// strictly-upper part untouched.
    pub fn max_abs_diff_lower(&self, other: &Matrix<T>) -> f64 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "max_abs_diff_lower shape mismatch"
        );
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in 0..=i.min(self.cols.saturating_sub(1)) {
                let d = (self[(i, j)].to_f64() - other[(i, j)].to_f64()).abs();
                worst = worst.max(d);
            }
        }
        worst
    }

    /// Copy the lower triangle onto the upper one, making the matrix
    /// symmetric. Used after AtA which only fills `i >= j` (§3.1); see
    /// [`MatMut::mirror_lower_to_upper`].
    ///
    /// # Panics
    /// If the matrix is not square.
    pub fn mirror_lower_to_upper(&mut self) {
        self.as_mut().mirror_lower_to_upper();
    }

    /// True if `|self[(i,j)] - self[(j,i)]| <= tol` for all pairs.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..i {
                if (self[(i, j)].to_f64() - self[(j, i)].to_f64()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Zero the strictly upper triangle (`i < j`).
    pub fn zero_strict_upper(&mut self) {
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                self[(i, j)] = T::ZERO;
            }
        }
    }

    /// Multiply every element by `s`.
    pub fn scale(&mut self, s: T) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_ref().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_identity_from_fn() {
        let z = Matrix::<f64>::zeros(2, 3);
        assert_eq!(z.as_slice(), &[0.0; 6]);
        let i = Matrix::<f64>::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
        let f = Matrix::from_fn(2, 2, |i, j| (10 * i + j) as f64);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        let att = a.transposed().transposed();
        assert_eq!(a.max_abs_diff(&att), 0.0);
        assert_eq!(a.transposed().shape(), (5, 3));
        assert_eq!(a.transposed()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn mirror_makes_symmetric() {
        let mut c = Matrix::from_fn(4, 4, |i, j| if i >= j { (i * 4 + j) as f64 } else { -1.0 });
        assert!(!c.is_symmetric(0.0));
        c.mirror_lower_to_upper();
        assert!(c.is_symmetric(0.0));
        assert_eq!(c[(0, 3)], c[(3, 0)]);
    }

    #[test]
    fn lower_diff_ignores_upper_garbage() {
        let a = Matrix::from_fn(3, 3, |i, j| if i >= j { 1.0 } else { 42.0 });
        let b = Matrix::from_fn(3, 3, |i, j| if i >= j { 1.0 } else { -42.0 });
        assert_eq!(a.max_abs_diff_lower(&b), 0.0);
        assert!(a.max_abs_diff(&b) > 0.0);
    }

    #[test]
    fn scale_and_zero_upper() {
        let mut a = Matrix::from_fn(2, 2, |_, _| 2.0f32);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
        a.zero_strict_upper();
        assert_eq!(a.as_slice(), &[1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_length_checked() {
        let _ = Matrix::from_vec(vec![1.0f64; 5], 2, 3);
    }
}
