//! Simulated memory: a flat word array whose every access goes through
//! the [`IdealCache`], plus the [`Region`] block-addressing the
//! recursive walkers use.

use crate::lru::IdealCache;
use ata_mat::Scalar;

/// Word-addressed memory with an ideal cache in front.
///
/// The algorithms in [`crate::algs`] run their numerics *for real*
/// against this memory, so a miscounted address would also corrupt the
/// result — every walker is oracle-checked in its tests, which makes the
/// miss counts trustworthy.
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

    /// Read the word at `addr`.
    #[inline]
    pub(crate) fn read(&mut self, addr: usize) -> T {
        self.cache.access(addr as u64);
        self.data[addr]
    }

    /// Write the word at `addr`.
    #[inline]
    pub(crate) fn write(&mut self, addr: usize, v: T) {
        self.cache.access(addr as u64);
        self.data[addr] = v;
    }

    /// `mem[addr] += v` — one access in the ideal model (the line is
    /// resident for the write after the read).
    #[inline]
    pub(crate) fn add(&mut self, addr: usize, v: T) {
        self.cache.access(addr as u64);
        self.data[addr] += v;
    }

    /// Bypass the cache (test setup / result extraction).
    pub(crate) fn poke(&mut self, addr: usize, v: T) {
        self.data[addr] = v;
    }

    /// Bypass the cache (test setup / result extraction).
    pub(crate) fn peek(&self, addr: usize) -> T {
        self.data[addr]
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

/// A `rows x cols` block at `base` with the given row stride — the
/// address-space mirror of `ata-mat`'s views, so the walkers perform the
/// same quadrant splits as the real algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Word address of element (0, 0).
    pub base: usize,
    /// Rows in the block.
    pub rows: usize,
    /// Columns in the block.
    pub cols: usize,
    /// Words between the starts of consecutive rows.
    pub stride: usize,
}

impl Region {
    /// Contiguous region (`stride == cols`) at `base`.
    pub(crate) fn contiguous(base: usize, rows: usize, cols: usize) -> Self {
        Self {
            base,
            rows,
            cols,
            stride: cols,
        }
    }

    /// Address of element `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i < self.rows && j < self.cols,
            "({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.base + i * self.stride + j
    }

    /// One past the last addressable word.
    pub fn end(&self) -> usize {
        if self.rows == 0 || self.cols == 0 {
            self.base
        } else {
            self.at(self.rows - 1, self.cols - 1) + 1
        }
    }

    /// Sub-block by index ranges (mirrors `MatRef::block`).
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Region {
        debug_assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        Region {
            base: self.base + r0 * self.stride + c0,
            rows: r1 - r0,
            cols: c1 - c0,
            stride: self.stride,
        }
    }

    /// The paper's quadrant split with ceil-halved upper-left (Eq. 1).
    pub fn quad_split(&self) -> (Region, Region, Region, Region) {
        let m1 = self.rows.div_ceil(2);
        let n1 = self.cols.div_ceil(2);
        (
            self.block(0, m1, 0, n1),
            self.block(0, m1, n1, self.cols),
            self.block(m1, self.rows, 0, n1),
            self.block(m1, self.rows, n1, self.cols),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_and_counting() {
        let mut m = CachedMem::<f64>::new(64, IdealCache::new(16, 4));
        m.write(10, 3.5);
        assert_eq!(m.read(10), 3.5);
        m.add(10, 1.5);
        assert_eq!(m.peek(10), 5.0);
        assert_eq!(m.accesses(), 3);
        assert_eq!(m.misses(), 1, "all three touch one resident line");
    }

    #[test]
    fn poke_peek_bypass_cache() {
        let mut m = CachedMem::<f64>::new(8, IdealCache::new(4, 1));
        m.poke(3, 7.0);
        assert_eq!(m.peek(3), 7.0);
        assert_eq!(m.accesses(), 0);
    }

    #[test]
    fn region_addressing_matches_row_major() {
        let r = Region::contiguous(100, 4, 6);
        assert_eq!(r.at(0, 0), 100);
        assert_eq!(r.at(2, 3), 100 + 2 * 6 + 3);
        assert_eq!(r.end(), 100 + 24);
        let b = r.block(1, 3, 2, 5);
        assert_eq!(b.rows, 2);
        assert_eq!(b.cols, 3);
        assert_eq!(b.at(0, 0), r.at(1, 2));
        assert_eq!(b.stride, 6);
    }

    #[test]
    fn quad_split_is_the_papers_ceil_split() {
        let r = Region::contiguous(0, 5, 7);
        let (r11, r12, r21, r22) = r.quad_split();
        assert_eq!((r11.rows, r11.cols), (3, 4));
        assert_eq!((r12.rows, r12.cols), (3, 3));
        assert_eq!((r21.rows, r21.cols), (2, 4));
        assert_eq!((r22.rows, r22.cols), (2, 3));
        assert_eq!(r12.at(0, 0), r.at(0, 4));
        assert_eq!(r21.at(0, 0), r.at(3, 0));
        assert_eq!(r22.at(1, 2), r.at(4, 6));
    }

    #[test]
    fn empty_region_end_is_base() {
        let r = Region::contiguous(42, 0, 5);
        assert_eq!(r.end(), 42);
    }
}
