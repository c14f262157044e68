//! Simulated memory: a flat word array whose every access the walk
//! reports to the [`IdealCache`].
//!
//! The walks run the library's own level programs on `ata-mat` views of
//! this array, so their quadrant splits and arena carving *are* the
//! library's. A word's address is its index in the array, read off the
//! view's row pointer.

use crate::lru::IdealCache;
use ata_mat::{MatMut, MatRef, Matrix, Scalar};

/// Word-addressed memory with an ideal cache in front.
#[derive(Debug, Clone)]
pub(crate) struct CachedMem<T> {
    data: Vec<T>,
    cache: IdealCache,
}

impl<T: Scalar> CachedMem<T> {
    /// Zero-initialized memory of `words` words with the given cache.
    pub(crate) fn new(words: usize, cache: IdealCache) -> Self {
        Self {
            data: vec![T::ZERO; words],
            cache,
        }
    }

    /// Bypass the cache (test setup / result extraction).
    pub(crate) fn poke(&mut self, addr: usize, v: T) {
        self.data[addr] = v;
    }

    /// Bypass the cache (test setup / result extraction).
    pub(crate) fn peek(&self, addr: usize) -> T {
        self.data[addr]
    }

    /// Copy `src` row-major into the words from `at` on, bypassing the
    /// cache.
    pub(crate) fn load(&mut self, at: usize, src: &Matrix<T>) {
        let cols = src.cols();
        for i in 0..src.rows() {
            for j in 0..cols {
                self.poke(at + i * cols + j, src[(i, j)]);
            }
        }
    }

    /// The `rows x cols` block stored row-major from `at` on, bypassing
    /// the cache.
    pub(crate) fn extract(&self, at: usize, rows: usize, cols: usize) -> Matrix<T> {
        Matrix::from_fn(rows, cols, |i, j| self.peek(at + i * cols + j))
    }

    /// The words, and the walk that reports each access to them.
    pub(crate) fn split(&mut self) -> (&mut [T], Walk<'_>) {
        let base = self.data.as_ptr() as usize;
        (
            &mut self.data,
            Walk {
                cache: &mut self.cache,
                base,
            },
        )
    }

    /// Miss count so far.
    pub(crate) fn misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Access count so far.
    pub(crate) fn accesses(&self) -> u64 {
        self.cache.accesses()
    }
}

/// Element access to views of one [`CachedMem`], each counted by its
/// cache. The machine `ata-cachesim` runs level programs on.
pub(crate) struct Walk<'c> {
    cache: &'c mut IdealCache,
    /// Address of word 0.
    base: usize,
}

impl Walk<'_> {
    /// Report an access to element `j` of `row`, a row of the memory's
    /// words.
    fn touch<T>(&mut self, row: &[T], j: usize) {
        let addr = (row.as_ptr() as usize - self.base) / std::mem::size_of::<T>() + j;
        self.cache.access(addr as u64);
    }

    /// Read element `(i, j)`.
    #[inline]
    pub(crate) fn read<T: Scalar>(&mut self, x: MatRef<'_, T>, i: usize, j: usize) -> T {
        let row = x.row(i);
        self.touch(row, j);
        row[j]
    }

    /// Write element `(i, j)`.
    #[inline]
    pub(crate) fn write<T: Scalar>(&mut self, x: &mut MatMut<'_, T>, i: usize, j: usize, v: T) {
        self.touch(x.row(i), j);
        x.row_mut(i)[j] = v;
    }

    /// `x[(i, j)] += v` — one access in the ideal model (the line is
    /// resident for the write after the read).
    #[inline]
    pub(crate) fn add<T: Scalar>(&mut self, x: &mut MatMut<'_, T>, i: usize, j: usize, v: T) {
        self.touch(x.row(i), j);
        x.row_mut(i)[j] += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_and_counting() {
        let mut m = CachedMem::<f64>::new(64, IdealCache::new(16, 4));
        let (data, mut walk) = m.split();
        // Word 10 is element (0, 2) of the 2 x 4 block at word 8.
        let mut v = MatMut::from_slice(&mut data[8..16], 2, 4);
        walk.write(&mut v, 0, 2, 3.5);
        assert_eq!(walk.read(v.as_ref(), 0, 2), 3.5);
        walk.add(&mut v, 0, 2, 1.5);
        assert_eq!(m.peek(10), 5.0);
        assert_eq!(m.accesses(), 3);
        assert_eq!(m.misses(), 1, "all three touch one resident line");
    }

    #[test]
    fn poke_peek_bypass_cache() {
        let mut m = CachedMem::<f64>::new(8, IdealCache::new(4, 1));
        m.poke(3, 7.0);
        assert_eq!(m.peek(3), 7.0);
        m.load(4, &Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64));
        assert_eq!(m.extract(4, 2, 2)[(1, 0)], 2.0);
        assert_eq!(m.accesses(), 0);
    }
}
