//! BLAS-substitute kernels for the `ata` workspace.
//!
//! The paper builds on Intel MKL: `?gemm` for general products, `?syrk`
//! for the `A^T A` base case, `?axpy` for block sums (§3.1). MKL is not
//! available to a pure-Rust reproduction, so this crate provides the same
//! contracts on one packed, register-blocked kernel engine:
//!
//! * [`level1`] — `axpy`, `scal`, `dot`, `nrm2` on slices;
//! * [`gemm`] — `C += alpha * A^T B` without materializing `A^T`
//!   (the `?gemm('T','N')` case used everywhere in the paper);
//! * [`syrk`] — lower-triangular `C += alpha * A^T A`
//!   (the `?syrk('L','T')` case), run as the gemm loop nest with
//!   `B = A` under a lower-triangle mask;
//! * [`pack`] / [`micro`] — the BLIS-style packed, register-blocked
//!   engine both of the above run at every size (Huang et al.'s
//!   prescription for making Strassen leaves competitive);
//! * [`calibrate`] — the measured per-scalar blocking and cutoff table
//!   behind the engine's defaults, with the tile sweep that measures its
//!   kernel half (`ata-strassen` measures the cutoff);
//! * [`par`] — rayon-parallel versions standing in for multi-threaded MKL
//!   in the Figure 5/6 comparisons;
//! * [`simd`] — explicit AVX-512 and AVX2/FMA register kernels behind
//!   one-time runtime CPU-feature detection, with the portable kernels
//!   as the bit-identical fallback on machines without them;
//! * [`timing`] — the interleaved-rounds timer every speed comparison
//!   in the workspace goes through.
//!
//! Absolute GFLOPs are below MKL's hand-tuned assembly, but every
//! algorithm in the workspace — AtA and all baselines — calls these same
//! kernels, so the *relative* comparisons the paper makes are preserved.
//!
//! [`CacheConfig`] holds the one recursion gate of Algorithms 1 and 2.

// Unsafe is confined to `simd` (pointer-based intrinsics behind runtime
// feature detection); everything else stays safe and `ata-lint`'s
// safety-comment + allowlist gates keep it that way.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod calibrate;
pub mod gemm;
pub mod level1;
pub mod micro;
pub mod pack;
pub mod par;
pub mod simd;
pub mod syrk;
pub mod timing;

pub use gemm::gemm_tn;
pub use micro::{KernelConfig, MicroPath};
pub use syrk::syrk_ln;

use ata_mat::{half_down, half_up};

/// The recursion gate of Algorithms 1 and 2 (line 2: stop once the block
/// "fits in the cache"), in the words the cutoff calibration measures on
/// squares: an order-`g` product is one kernel call when `2·g² <= words`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Twice the square of the largest order kept as one kernel call.
    pub words: usize,
}

impl Default for CacheConfig {
    /// The measured `f64` base-case crossover from the calibration table
    /// (see [`calibrate::tuned_for`]) — recursion stops where one more
    /// Strassen level stops paying for its block sums on this machine.
    /// Override per run with `ATA_KERNEL_PARAMS="words=..."`.
    fn default() -> Self {
        Self::for_scalar::<f64>()
    }
}

impl CacheConfig {
    /// Config with an explicit element budget.
    ///
    /// # Panics
    /// If `words` is 0: "cache budget must be positive".
    pub fn with_words(words: usize) -> Self {
        assert!(words >= 1, "cache budget must be positive");
        Self { words }
    }

    /// The measured base-case budget for scalar type `T` from the
    /// calibration table (plus any environment override).
    pub fn for_scalar<T: ata_mat::Scalar>() -> Self {
        Self::with_words(calibrate::tuned_for::<T>().base_words)
    }

    /// Base case of `C += alpha * A^T B` (`A: m x n`, `B: m x k`), the
    /// library's only recursion gate: the smallest side `s` has `s <= 1`
    /// (empty products included) or `2·s² <= words`, since a Strassen level
    /// pays only when all three sides are large (Huang et al., "Strassen's
    /// Algorithm with BLIS").
    #[inline]
    pub fn gemm_base(&self, m: usize, n: usize, k: usize) -> bool {
        let s = m.min(n).min(k);
        s <= 1 || s.saturating_mul(s).saturating_mul(2) <= self.words
    }

    /// Base case of AtA on an `m x n` input: its larger `C21` product
    /// `(⌈m/2⌉, ⌊n/2⌋, ⌈n/2⌉)` runs no Strassen level, so a level would
    /// only split one `syrk_ln` call into smaller leaves.
    #[inline]
    pub fn ata_base(&self, m: usize, n: usize) -> bool {
        self.gemm_base(half_up(m), half_down(n), half_up(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_the_calibrated_f64_cutoff() {
        let c = CacheConfig::default();
        let words = calibrate::tuned_for::<f64>().base_words;
        assert_eq!(c.words, words);
        // The square boundary sits exactly at g = sqrt(words / 2), and
        // AtA's at the input order whose C21 products reach it.
        let g = ((words / 2) as f64).sqrt() as usize;
        assert!(c.gemm_base(g, g, g));
        assert!(!c.gemm_base(g + 1, g + 1, g + 1));
        assert!(c.ata_base(2 * g + 1, 2 * g + 1));
        assert!(!c.ata_base(2 * g + 2, 2 * g + 2));
    }

    #[test]
    fn gemm_base_reads_the_smallest_side() {
        let c = CacheConfig::with_words(200); // 2·10² = 200
        assert!(c.gemm_base(10, 10, 10));
        assert!(!c.gemm_base(11, 11, 11));
        // A skinny product is one call however long its other sides are.
        assert!(c.gemm_base(100_000, 10, 500));
        assert!(c.gemm_base(500, 100_000, 10));
        assert!(c.gemm_base(11, 11, 10));
        // Sides of 1 never recurse, whatever the budget.
        let tiny = CacheConfig::with_words(1);
        assert!(tiny.gemm_base(1, 1, 1));
        assert!(tiny.gemm_base(1_000, 1, 1_000));
        assert!(!tiny.gemm_base(2, 2, 2));
    }

    #[test]
    fn ata_base_reads_its_larger_c21_product() {
        let c = CacheConfig::with_words(200);
        // (⌈m/2⌉, ⌊n/2⌋, ⌈n/2⌉) = (11, 10, 11): base.
        assert!(c.ata_base(21, 21));
        // (11, 11, 11): recurses.
        assert!(!c.ata_base(22, 22));
        // A tall input recurses only once its C21 products are wide.
        assert!(c.ata_base(1 << 20, 21));
        assert!(!c.ata_base(1 << 20, 22));
        // Too few rows or columns to split never recurse.
        assert!(c.ata_base(1, 1 << 20));
        assert!(c.ata_base(1 << 20, 1));
    }

    #[test]
    fn saturating_dimensions_do_not_overflow() {
        let c = CacheConfig::default();
        assert!(!c.ata_base(usize::MAX, usize::MAX));
        assert!(!c.gemm_base(usize::MAX, usize::MAX, usize::MAX));
        assert!(c.ata_base(usize::MAX, 2));
        assert!(c.gemm_base(usize::MAX, 2, 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let _ = CacheConfig::with_words(0);
    }
}
