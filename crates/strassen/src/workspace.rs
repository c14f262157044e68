//! The pre-allocated Strassen arena (§3.3 of the paper).
//!
//! "In order to avoid frequent memory allocations and releases, we call
//! recursive Strassen on pre-allocated matrices M, P and Q. The size of
//! such matrices is sufficiently large to store all intermediate matrix
//! operation results throughout the recursive calls."
//!
//! Instead of three separate arrays, the arena is one buffer from which
//! each recursion level carves its slots in the order its
//! [`crate::Program`] declares them (`tA`: ⌈m/2⌉x⌈n/2⌉, `tB`:
//! ⌈m/2⌉x⌈k/2⌉, `M`: ⌈n/2⌉x⌈k/2⌉ for FastStrassen) with `split_at_mut`,
//! passing the tail to the child call. The required capacity,
//! [`crate::Program::workspace_elems`], reads the same slot shapes level
//! by level, so it is exact — and provably below the paper's `3/2 n^2`
//! bound (Eq. 4), which a unit test checks.

use ata_mat::Scalar;

/// Reusable arena for [`crate::fast_strassen_with`].
///
/// A workspace sized for one problem can be reused for any problem with
/// equal or smaller requirement — AtA does exactly that, sizing one arena
/// for its largest `FastStrassen` call and sharing it across the whole
/// recursion (§3.3).
#[derive(Debug, Clone)]
pub struct StrassenWorkspace<T> {
    buf: Vec<T>,
}

impl<T: Scalar> StrassenWorkspace<T> {
    /// Arena with an explicit element capacity.
    pub fn with_capacity(elems: usize) -> Self {
        Self {
            buf: vec![T::ZERO; elems],
        }
    }

    /// Empty arena (only valid for base-case-sized problems).
    pub fn empty() -> Self {
        Self { buf: Vec::new() }
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Grow (never shrink) to at least `elems` elements and return the
    /// whole arena for a level program to carve.
    pub fn reserve(&mut self, elems: usize) -> &mut [T] {
        if elems > self.buf.len() {
            self.buf.resize(elems, T::ZERO);
        }
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::CLASSIC;
    use ata_kernels::CacheConfig;

    fn required_elems(m: usize, n: usize, k: usize, cfg: &CacheConfig) -> usize {
        CLASSIC.workspace_elems(m, n, k, cfg)
    }

    #[test]
    fn base_case_needs_nothing() {
        let cfg = CacheConfig::default();
        assert_eq!(required_elems(10, 10, 10, &cfg), 0);
        assert_eq!(required_elems(0, 500, 500, &cfg), 0);
    }

    #[test]
    fn requirement_is_monotone_in_size() {
        let cfg = CacheConfig::with_words(16);
        let mut prev = 0;
        for n in [8usize, 16, 32, 64, 128] {
            let need = required_elems(n, n, n, &cfg);
            assert!(need >= prev, "requirement must grow with n");
            prev = need;
        }
    }

    #[test]
    fn eq4_bound_holds_for_square_problems() {
        // Paper Eq. 4: the per-matrix workspace is <= n^2/2, totalling
        // 3/2 n^2 across M, P, Q. Our exact accounting must stay below.
        let cfg = CacheConfig::with_words(2);
        for n in [4usize, 7, 16, 33, 100, 257] {
            let need = required_elems(n, n, n, &cfg);
            let bound = 3 * n * n / 2 + 3 * n; // small-n slack for ceils
            assert!(
                need <= bound,
                "n={n}: required {need} exceeds 3/2 n^2 bound {bound}"
            );
            // And it is a genuine geometric sum: more than one level's worth.
            assert!(need > 3 * (n / 2) * (n / 2), "n={n}: {need} too small");
        }
    }

    #[test]
    fn first_level_slots_match_formula() {
        // For even (m, n, k) and a cfg that stops after one level, the
        // requirement is exactly m/2*n/2 + m/2*k/2 + n/2*k/2.
        let (m, n, k) = (8usize, 6, 4);
        // After one split: (4,3,2): 4*3+4*2 = 20 <= 20 -> base.
        let cfg = CacheConfig::with_words(20);
        assert_eq!(required_elems(m, n, k, &cfg), 4 * 3 + 4 * 2 + 3 * 2);
    }

    #[test]
    fn workspace_reuse_and_growth() {
        let cfg = CacheConfig::with_words(2);
        let mut ws = StrassenWorkspace::<f64>::with_capacity(required_elems(8, 8, 8, &cfg));
        let c8 = ws.capacity();
        ws.reserve(required_elems(4, 4, 4, &cfg));
        assert_eq!(ws.capacity(), c8, "reserve never shrinks");
        ws.reserve(required_elems(16, 16, 16, &cfg));
        assert!(ws.capacity() > c8, "reserve grows for bigger problems");
    }

    #[test]
    fn rectangular_requirements_follow_shape() {
        let cfg = CacheConfig::with_words(8);
        // Very tall-thin product needs much less workspace than square of
        // the long side.
        let tall = required_elems(1024, 8, 8, &cfg);
        let square = required_elems(1024, 1024, 1024, &cfg);
        assert!(tall < square / 100);
    }
}
