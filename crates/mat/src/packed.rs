//! Packed lower-triangular storage for symmetric matrices.
//!
//! The product `C = A^T A` is symmetric, so AtA only ever computes its
//! lower triangle (§3.1). `SymPacked` stores exactly those `n(n+1)/2`
//! entries row by row: element `(i, j)` with `i >= j` lives at index
//! `i(i+1)/2 + j`.
//!
//! The distributed algorithm also uses this layout as its wire format:
//! "we encode the sub-matrices resulting from A^T A operations as packed
//! lower triangular matrices" (§4.3.1), which is what drives the
//! `n(n+2)/2` bandwidth term of Proposition 4.2.

use crate::{Matrix, Scalar};

/// Symmetric `n x n` matrix stored as its packed lower triangle.
#[derive(Clone, Debug, PartialEq)]
pub struct SymPacked<T> {
    data: Vec<T>,
    n: usize,
}

/// Number of stored entries for an `n x n` packed lower triangle.
#[inline]
pub const fn packed_len(n: usize) -> usize {
    n * (n + 1) / 2
}

impl<T: Scalar> SymPacked<T> {
    /// Zero-initialized packed matrix of order `n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            data: vec![T::ZERO; packed_len(n)],
            n,
        }
    }

    /// Wrap an existing packed buffer.
    ///
    /// # Panics
    /// If `data.len() != n(n+1)/2`.
    pub fn from_vec(data: Vec<T>, n: usize) -> Self {
        assert_eq!(
            data.len(),
            packed_len(n),
            "packed length {} != n(n+1)/2 for n={n}",
            data.len()
        );
        Self { data, n }
    }

    /// Extract the lower triangle of a square matrix.
    ///
    /// # Panics
    /// If `full` is not square.
    pub fn from_lower(full: &Matrix<T>) -> Self {
        assert_eq!(
            full.rows(),
            full.cols(),
            "from_lower requires a square matrix"
        );
        let n = full.rows();
        let mut data = Vec::with_capacity(packed_len(n));
        for i in 0..n {
            data.extend_from_slice(&full.row(i)[..=i]);
        }
        Self { data, n }
    }

    /// Matrix order.
    #[inline]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Stored entry count (`n(n+1)/2`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when `n == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Flat packed storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat packed storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the packed buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Symmetric element access: `get(i, j) == get(j, i)`.
    ///
    /// # Panics
    /// On out-of-bounds indices.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of bounds for order {}",
            self.n
        );
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        self.data[r * (r + 1) / 2 + c]
    }

    /// Accumulate `v` onto element `(i, j)`, `i >= j`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: T) {
        assert!(
            i < self.n && j < self.n,
            "index ({i},{j}) out of bounds for order {}",
            self.n
        );
        assert!(i >= j, "add({i},{j}): only the lower triangle is stored");
        self.data[i * (i + 1) / 2 + j] += v;
    }

    /// Expand to a dense [`Matrix`] holding the lower triangle with the
    /// strict upper triangle zero: the inverse of
    /// [`SymPacked::from_lower`] on an `A^T A` block, bit for bit.
    pub fn to_lower(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            let start = i * (i + 1) / 2;
            out.row_mut(i)[..=i].copy_from_slice(&self.data[start..start + i + 1]);
        }
        out
    }

    /// Expand to a full symmetric [`Matrix`].
    pub fn to_full(&self) -> Matrix<T> {
        let mut out = self.to_lower();
        out.mirror_lower_to_upper();
        out
    }

    /// Elementwise `self += other`, the gather-side reduction of AtA-D.
    ///
    /// # Panics
    /// If orders differ.
    pub fn add_assign(&mut self, other: &SymPacked<T>) {
        assert_eq!(self.n, other.n, "add_assign order mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_len_formula() {
        assert_eq!(packed_len(0), 0);
        assert_eq!(packed_len(1), 1);
        assert_eq!(packed_len(4), 10);
        assert_eq!(packed_len(100), 5050);
    }

    #[test]
    fn roundtrip_full_packed_full() {
        let mut full = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        full.mirror_lower_to_upper();
        let p = SymPacked::from_lower(&full);
        assert_eq!(p.len(), packed_len(5));
        let back = p.to_full();
        assert_eq!(full.max_abs_diff(&back), 0.0);
    }

    #[test]
    fn symmetric_get() {
        let mut p = SymPacked::zeros(3);
        p.add(2, 0, 7.0f64);
        assert_eq!(p.get(2, 0), 7.0);
        assert_eq!(p.get(0, 2), 7.0);
        p.add(2, 0, 1.0);
        assert_eq!(p.get(0, 2), 8.0);
    }

    #[test]
    #[should_panic(expected = "lower triangle")]
    fn set_upper_panics() {
        let mut p = SymPacked::<f64>::zeros(3);
        p.add(0, 2, 1.0);
    }

    #[test]
    fn add_assign_reduces() {
        let mut a = SymPacked::from_vec(vec![1.0f64, 2.0, 3.0], 2);
        let b = SymPacked::from_vec(vec![10.0f64, 20.0, 30.0], 2);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn wire_size_matches_prop_4_2_term() {
        // Prop 4.2 counts n(n+2)/2 words for the packed result of a child of
        // order n/2... sanity: packed order-n payload is ~n^2/2 words.
        let n = 64;
        assert!(packed_len(n) * 2 <= n * (n + 2));
        assert!(packed_len(n) * 2 >= n * n);
    }
}
