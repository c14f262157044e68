//! Borrowed matrix views with explicit row strides.
//!
//! [`MatRef`] and [`MatMut`] are the workhorses of every recursive
//! algorithm in the workspace: the paper's quadrant split (Eq. 1) and
//! vertical/horizontal tiling (Fig. 2) are zero-copy re-interpretations of
//! an existing buffer, expressed here as view splits.
//!
//! # Safety model
//!
//! Views store a raw pointer plus `(rows, cols, row_stride)` and a lifetime
//! marker. All public constructors check that every addressable element
//! `(i, j)` (`i < rows`, `j < cols`, flat index `i * row_stride + j`) lies
//! inside the backing slice. Splitting a `MatMut` produces views over
//! *disjoint* index sets (different row ranges, or different column ranges
//! of the same rows), so handing out several `MatMut`s derived from one
//! parent is sound even though their address ranges interleave — exactly
//! the guarantee the embarrassingly-parallel AtA-S scheduler relies on
//! (§4.2.1: "each thread writes on a different and disjoint memory
//! location").

use crate::Scalar;
use std::marker::PhantomData;

/// Immutable view of an `rows x cols` row-major block with row stride
/// `row_stride >= cols` (columns are always contiguous).
#[derive(Clone, Copy)]
pub struct MatRef<'a, T> {
    ptr: *const T,
    rows: usize,
    cols: usize,
    row_stride: usize,
    _marker: PhantomData<&'a T>,
}

// SAFETY: a MatRef is semantically a shared reference to its elements,
// so it may move between threads whenever `&T` could (`T: Sync`).
unsafe impl<T: Sync> Send for MatRef<'_, T> {}
// SAFETY: sharing a MatRef across threads only ever hands out `&T`
// reads, which `T: Sync` makes sound.
unsafe impl<T: Sync> Sync for MatRef<'_, T> {}

/// Mutable view of an `rows x cols` row-major block with row stride
/// `row_stride >= cols`.
pub struct MatMut<'a, T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    row_stride: usize,
    _marker: PhantomData<&'a mut T>,
}

// SAFETY: a MatMut is semantically a unique reference to its elements;
// moving it to another thread moves exclusive access with it, exactly
// as for `&mut T` (`T: Send`).
unsafe impl<T: Send> Send for MatMut<'_, T> {}
// SAFETY: a shared `&MatMut` only exposes read access to the elements
// (all mutation requires `&mut self`), so `T: Sync` suffices.
unsafe impl<T: Sync> Sync for MatMut<'_, T> {}

#[inline]
fn check_dims(len: usize, rows: usize, cols: usize, row_stride: usize) {
    assert!(
        row_stride >= cols || rows <= 1,
        "row_stride ({row_stride}) must be >= cols ({cols})"
    );
    if rows > 0 && cols > 0 {
        let last = (rows - 1)
            .checked_mul(row_stride)
            .and_then(|x| x.checked_add(cols))
            .expect("matrix extent overflows usize");
        assert!(
            last <= len,
            "view of {rows}x{cols} (stride {row_stride}) needs {last} elements, slice has {len}"
        );
    }
}

impl<'a, T> MatRef<'a, T> {
    /// View over a contiguous row-major slice (`row_stride == cols`).
    ///
    /// # Panics
    /// If `data.len() < rows * cols`.
    #[inline]
    pub fn from_slice(data: &'a [T], rows: usize, cols: usize) -> Self {
        Self::from_slice_strided(data, rows, cols, cols)
    }

    /// View with an explicit row stride.
    ///
    /// # Panics
    /// If the last addressable element would fall outside `data`.
    #[inline]
    pub fn from_slice_strided(data: &'a [T], rows: usize, cols: usize, row_stride: usize) -> Self {
        check_dims(data.len(), rows, cols, row_stride);
        Self {
            ptr: data.as_ptr(),
            rows,
            cols,
            row_stride,
            _marker: PhantomData,
        }
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

    /// Distance in elements between the starts of consecutive rows.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the view holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Element `(i, j)`.
    ///
    /// # Panics
    /// On out-of-bounds indices (debug and release).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> &T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        // SAFETY: bounds checked above; constructor validated the extent.
        unsafe { &*self.ptr.add(i * self.row_stride + j) }
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [T] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        // SAFETY: row i spans [i*stride, i*stride + cols) which is in bounds.
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.row_stride), self.cols) }
    }

    /// Sub-block `rows r0..r1`, `cols c0..c1` (half-open).
    ///
    /// # Panics
    /// If the ranges are not ordered or exceed the view.
    #[inline]
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatRef<'a, T> {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row range {r0}..{r1} invalid for {} rows",
            self.rows
        );
        assert!(
            c0 <= c1 && c1 <= self.cols,
            "col range {c0}..{c1} invalid for {} cols",
            self.cols
        );
        MatRef {
            // SAFETY: offset stays within the validated extent.
            ptr: unsafe { self.ptr.add(r0 * self.row_stride + c0) },
            rows: r1 - r0,
            cols: c1 - c0,
            row_stride: self.row_stride,
            _marker: PhantomData,
        }
    }

    /// The paper's quadrant split (Eq. 1): `m1 = ⌈m/2⌉`, `n1 = ⌈n/2⌉`.
    /// Returns `(A11, A12, A21, A22)`.
    #[inline]
    pub fn quad_split(&self) -> (MatRef<'a, T>, MatRef<'a, T>, MatRef<'a, T>, MatRef<'a, T>) {
        let m1 = crate::half_up(self.rows);
        let n1 = crate::half_up(self.cols);
        (
            self.block(0, m1, 0, n1),
            self.block(0, m1, n1, self.cols),
            self.block(m1, self.rows, 0, n1),
            self.block(m1, self.rows, n1, self.cols),
        )
    }

    /// Left/right column strips split at `c` (Fig. 2's vertical tiling).
    #[inline]
    pub fn split_at_col(&self, c: usize) -> (MatRef<'a, T>, MatRef<'a, T>) {
        (
            self.block(0, self.rows, 0, c),
            self.block(0, self.rows, c, self.cols),
        )
    }

    /// Top/bottom row strips split at `r` (Fig. 2's horizontal tiling).
    #[inline]
    pub fn split_at_row(&self, r: usize) -> (MatRef<'a, T>, MatRef<'a, T>) {
        (
            self.block(0, r, 0, self.cols),
            self.block(r, self.rows, 0, self.cols),
        )
    }
}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// Copy the view into an owned [`crate::Matrix`].
    pub fn to_matrix(&self) -> crate::Matrix<T> {
        let mut out = crate::Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(self.row(i));
        }
        out
    }

    /// Max-norm of the view.
    pub fn max_abs(&self) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.rows {
            for v in self.row(i) {
                m = m.max(v.abs().to_f64());
            }
        }
        m
    }

    /// Frobenius norm of the view (accumulated in `f64`).
    pub fn frobenius(&self) -> f64 {
        let mut acc = 0.0f64;
        for i in 0..self.rows {
            for v in self.row(i) {
                let x = v.to_f64();
                acc += x * x;
            }
        }
        acc.sqrt()
    }
}

impl<'a, T> MatMut<'a, T> {
    /// Mutable view over a contiguous row-major slice.
    ///
    /// # Panics
    /// If `data.len() < rows * cols`.
    #[inline]
    pub fn from_slice(data: &'a mut [T], rows: usize, cols: usize) -> Self {
        Self::from_slice_strided(data, rows, cols, cols)
    }

    /// Mutable view with an explicit row stride.
    ///
    /// # Panics
    /// If the last addressable element would fall outside `data`.
    #[inline]
    pub fn from_slice_strided(
        data: &'a mut [T],
        rows: usize,
        cols: usize,
        row_stride: usize,
    ) -> Self {
        check_dims(data.len(), rows, cols, row_stride);
        Self {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            row_stride,
            _marker: PhantomData,
        }
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

    /// Distance in elements between the starts of consecutive rows.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the view holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Immutable snapshot of this view (shares the borrow).
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
            _marker: PhantomData,
        }
    }

    /// Consume the unique view into a shared one with the full lifetime
    /// (used to hand freshly-written workspace slots to recursive calls).
    #[inline]
    pub fn into_ref(self) -> MatRef<'a, T> {
        MatRef {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
            _marker: PhantomData,
        }
    }

    /// Reborrow mutably with a shorter lifetime (needed to split a view
    /// repeatedly inside a recursion without consuming it).
    #[inline]
    pub fn rb_mut(&mut self) -> MatMut<'_, T> {
        MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
            _marker: PhantomData,
        }
    }

    /// Shared reference to element `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> &T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        // SAFETY: bounds checked; extent validated by constructor.
        unsafe { &*self.ptr.add(i * self.row_stride + j) }
    }

    /// Mutable reference to element `(i, j)`.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        // SAFETY: bounds checked; extent validated by constructor.
        unsafe { &mut *self.ptr.add(i * self.row_stride + j) }
    }

    /// Row `i` as a contiguous mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        // SAFETY: row i spans [i*stride, i*stride + cols) which is in bounds
        // and uniquely borrowed through self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.row_stride), self.cols) }
    }

    /// Row `i` as a contiguous shared slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        // SAFETY: as above, shared.
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.row_stride), self.cols) }
    }

    /// Consume the view and return a sub-block (rows `r0..r1`, cols
    /// `c0..c1`). Use [`Self::rb_mut`] first to keep the parent.
    ///
    /// # Panics
    /// If the ranges are not ordered or exceed the view.
    #[inline]
    pub fn into_block(self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatMut<'a, T> {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row range {r0}..{r1} invalid for {} rows",
            self.rows
        );
        assert!(
            c0 <= c1 && c1 <= self.cols,
            "col range {c0}..{c1} invalid for {} cols",
            self.cols
        );
        MatMut {
            // SAFETY: offset stays within the validated extent.
            ptr: unsafe { self.ptr.add(r0 * self.row_stride + c0) },
            rows: r1 - r0,
            cols: c1 - c0,
            row_stride: self.row_stride,
            _marker: PhantomData,
        }
    }

    /// Short-lived sub-block without consuming the parent.
    #[inline]
    pub fn block_mut(&mut self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatMut<'_, T> {
        self.rb_mut().into_block(r0, r1, c0, c1)
    }

    /// Split into top (`0..r`) and bottom (`r..rows`) views.
    ///
    /// The two views cover disjoint row ranges, so handing them to
    /// different threads is sound.
    #[inline]
    pub fn split_at_row_mut(self, r: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(
            r <= self.rows,
            "split row {r} out of bounds for {} rows",
            self.rows
        );
        let top = MatMut {
            ptr: self.ptr,
            rows: r,
            cols: self.cols,
            row_stride: self.row_stride,
            _marker: PhantomData,
        };
        let bot = MatMut {
            // SAFETY: r <= rows so the offset is within the extent.
            ptr: unsafe { self.ptr.add(r * self.row_stride) },
            rows: self.rows - r,
            cols: self.cols,
            row_stride: self.row_stride,
            _marker: PhantomData,
        };
        (top, bot)
    }

    /// Split into left (`0..c`) and right (`c..cols`) views.
    ///
    /// The views interleave in memory but address disjoint element sets.
    #[inline]
    pub fn split_at_col_mut(self, c: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(
            c <= self.cols,
            "split col {c} out of bounds for {} cols",
            self.cols
        );
        let left = MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: c,
            row_stride: self.row_stride,
            _marker: PhantomData,
        };
        let right = MatMut {
            // SAFETY: c <= cols <= row_stride keeps the pointer in the extent.
            ptr: unsafe { self.ptr.add(c) },
            rows: self.rows,
            cols: self.cols - c,
            row_stride: self.row_stride,
            _marker: PhantomData,
        };
        (left, right)
    }

    /// Quadrant split at `(⌈m/2⌉, ⌈n/2⌉)` returning
    /// `(C11, C12, C21, C22)` — the mutable counterpart of
    /// [`MatRef::quad_split`].
    #[inline]
    pub fn quad_split_mut(self) -> (MatMut<'a, T>, MatMut<'a, T>, MatMut<'a, T>, MatMut<'a, T>) {
        let m1 = crate::half_up(self.rows);
        let n1 = crate::half_up(self.cols);
        let (top, bot) = self.split_at_row_mut(m1);
        let (c11, c12) = top.split_at_col_mut(n1);
        let (c21, c22) = bot.split_at_col_mut(n1);
        (c11, c12, c21, c22)
    }
}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// Set every element to zero.
    pub fn fill_zero(&mut self) {
        for i in 0..self.rows {
            self.row_mut(i).fill(T::ZERO);
        }
    }

    /// Overwrite this view with the contents of `src`.
    ///
    /// # Panics
    /// If shapes differ.
    pub fn copy_from(&mut self, src: MatRef<'_, T>) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }

    /// Overwrite this view with the transpose of `src`, one 64 x 64 tile
    /// at a time: each tile's rows of `src` are copied into a local
    /// buffer, then written out as the tile's columns, so the strided
    /// side of the transpose stays in cache.
    ///
    /// # Panics
    /// If `src` is not `cols x rows`.
    pub fn transpose_from(&mut self, src: MatRef<'_, T>) {
        assert_eq!(
            (src.cols, src.rows),
            self.shape(),
            "transpose_from shape mismatch"
        );
        let mut tile = [[T::ZERO; TRANSPOSE_TILE]; TRANSPOSE_TILE];
        for j0 in (0..self.cols).step_by(TRANSPOSE_TILE) {
            let j1 = (j0 + TRANSPOSE_TILE).min(self.cols);
            for i0 in (0..self.rows).step_by(TRANSPOSE_TILE) {
                let i1 = (i0 + TRANSPOSE_TILE).min(self.rows);
                for (buf, j) in tile.iter_mut().zip(j0..j1) {
                    buf[..i1 - i0].copy_from_slice(&src.row(j)[i0..i1]);
                }
                for (di, i) in (i0..i1).enumerate() {
                    for (d, buf) in self.row_mut(i)[j0..j1].iter_mut().zip(&tile) {
                        *d = buf[di];
                    }
                }
            }
        }
    }

    /// Copy the lower triangle of a square view onto its strict upper
    /// triangle (`C[j][i] = C[i][j]` for `i > j`), the symmetric
    /// completion after AtA fills `i >= j` (§3.1). Recursive quad split:
    /// `C12 ← C21ᵀ` by [`Self::transpose_from`], then the same on `C11`
    /// and `C22`. Writes nothing on or below the diagonal.
    ///
    /// # Panics
    /// If the view is not square.
    pub fn mirror_lower_to_upper(&mut self) {
        assert_eq!(self.rows, self.cols, "mirror requires a square matrix");
        if self.rows <= MIRROR_BASE {
            for i in 1..self.rows {
                for j in 0..i {
                    let v = *self.at(i, j);
                    *self.at_mut(j, i) = v;
                }
            }
            return;
        }
        let (mut c11, mut c12, c21, mut c22) = self.rb_mut().quad_split_mut();
        c12.transpose_from(c21.into_ref());
        c11.mirror_lower_to_upper();
        c22.mirror_lower_to_upper();
    }
}

/// Tile order of [`MatMut::transpose_from`]: the tile buffer of an
/// `f64` transpose takes 32 KiB.
const TRANSPOSE_TILE: usize = 64;

/// Order up to which [`MatMut::mirror_lower_to_upper`] copies element by
/// element instead of splitting further.
const MIRROR_BASE: usize = 32;

impl<T> std::ops::Index<(usize, usize)> for MatRef<'_, T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        self.at(i, j)
    }
}

impl<T> std::ops::Index<(usize, usize)> for MatMut<'_, T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        self.at(i, j)
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for MatMut<'_, T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        self.at_mut(i, j)
    }
}

impl<T: Scalar> std::fmt::Debug for MatRef<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "MatRef {}x{} (stride {})",
            self.rows, self.cols, self.row_stride
        )?;
        for i in 0..self.rows.min(8) {
            write!(f, " [")?;
            for j in 0..self.cols.min(8) {
                write!(f, " {:>10.4}", self.at(i, j))?;
            }
            writeln!(f, "{}]", if self.cols > 8 { " ..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

impl<T: Scalar> std::fmt::Debug for MatMut<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_ref().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|x| x as f64).collect()
    }

    #[test]
    fn ref_indexing_and_rows() {
        let data = seq(12);
        let a = MatRef::from_slice(&data, 3, 4);
        assert_eq!(*a.at(0, 0), 0.0);
        assert_eq!(*a.at(2, 3), 11.0);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(a.shape(), (3, 4));
    }

    #[test]
    fn strided_view_skips_tail_of_rows() {
        let data = seq(12);
        // 3x2 view of the left half of a 3x4 buffer.
        let a = MatRef::from_slice_strided(&data, 3, 2, 4);
        assert_eq!(a.row(0), &[0.0, 1.0]);
        assert_eq!(a.row(2), &[8.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn oversized_view_panics() {
        let data = seq(10);
        let _ = MatRef::from_slice(&data, 3, 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let data = seq(12);
        let a = MatRef::from_slice(&data, 3, 4);
        let _ = a.at(3, 0);
    }

    #[test]
    fn quad_split_shapes_odd() {
        let data = seq(35);
        let a = MatRef::from_slice(&data, 5, 7);
        let (a11, a12, a21, a22) = a.quad_split();
        assert_eq!(a11.shape(), (3, 4));
        assert_eq!(a12.shape(), (3, 3));
        assert_eq!(a21.shape(), (2, 4));
        assert_eq!(a22.shape(), (2, 3));
        // A22 starts at row 3, col 4 -> element (0,0) = 3*7+4 = 25.
        assert_eq!(*a22.at(0, 0), 25.0);
    }

    #[test]
    fn quad_split_shapes_even() {
        let data = seq(16);
        let a = MatRef::from_slice(&data, 4, 4);
        let (a11, a12, a21, a22) = a.quad_split();
        for q in [&a11, &a12, &a21, &a22] {
            assert_eq!(q.shape(), (2, 2));
        }
        assert_eq!(*a12.at(1, 1), 7.0);
        assert_eq!(*a21.at(0, 0), 8.0);
    }

    #[test]
    fn mut_split_writes_disjoint_regions() {
        let mut data = vec![0.0f64; 16];
        let c = MatMut::from_slice(&mut data, 4, 4);
        let (mut c11, mut c12, mut c21, mut c22) = c.quad_split_mut();
        c11.fill_zero();
        *c11.at_mut(0, 0) = 1.0;
        *c12.at_mut(0, 0) = 2.0;
        *c21.at_mut(0, 0) = 3.0;
        *c22.at_mut(1, 1) = 4.0;
        assert_eq!(data[0], 1.0); // (0,0)
        assert_eq!(data[2], 2.0); // (0,2)
        assert_eq!(data[8], 3.0); // (2,0)
        assert_eq!(data[15], 4.0); // (3,3)
    }

    #[test]
    fn mut_col_split_covers_every_element_once() {
        let mut data = vec![0.0f64; 20];
        let c = MatMut::from_slice(&mut data, 4, 5);
        let (mut l, mut r) = c.split_at_col_mut(2);
        for i in 0..4 {
            for v in l.row_mut(i) {
                *v += 1.0;
            }
            for v in r.row_mut(i) {
                *v += 1.0;
            }
        }
        assert!(
            data.iter().all(|&x| x == 1.0),
            "each element written exactly once"
        );
    }

    #[test]
    fn reborrow_allows_repeated_splits() {
        let mut data = vec![0.0f64; 9];
        let mut c = MatMut::from_slice(&mut data, 3, 3);
        for step in 0..3 {
            // `block_mut` reborrows, so `c` stays usable on the next turn.
            let mut b = c.block_mut(step, step + 1, step, step + 1);
            *b.at_mut(0, 0) = step as f64 + 1.0;
        }
        assert_eq!(data[0], 1.0);
        assert_eq!(data[4], 2.0);
        assert_eq!(data[8], 3.0);
    }

    #[test]
    fn copy_from_and_to_matrix_roundtrip() {
        let data = seq(6);
        let a = MatRef::from_slice(&data, 2, 3);
        let m = a.to_matrix();
        let mut out = vec![0.0f64; 6];
        let mut v = MatMut::from_slice(&mut out, 2, 3);
        v.copy_from(m.as_ref());
        assert_eq!(out, data);
    }

    #[test]
    fn norms() {
        let data = vec![3.0f64, -4.0];
        let a = MatRef::from_slice(&data, 1, 2);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.frobenius() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_views_are_fine() {
        let data: Vec<f64> = vec![];
        let a = MatRef::from_slice(&data, 0, 5);
        assert!(a.is_empty());
        let b = MatRef::from_slice(&data, 5, 0);
        assert!(b.is_empty());
        let (l, r) = b.split_at_col(0);
        assert!(l.is_empty() && r.is_empty());
    }
}
