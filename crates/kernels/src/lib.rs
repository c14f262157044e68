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
//! [`CacheConfig`] centralizes the "fits in cache" predicate that decides
//! the recursion base cases of Algorithms 1 and 2.

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
pub use syrk::{syrk_ln, syrk_ln_beta};

/// Cache-size model driving the base-case tests of the recursive
/// algorithms (Algorithm 1 line 2; Algorithm 2 line 2).
///
/// The paper stops recursing "when the number of entries of the
/// sub-matrix fits in the cache". `words` is that capacity measured in
/// matrix elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of elements assumed to fit in the last-level private cache.
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
    pub fn with_words(words: usize) -> Self {
        assert!(words >= 1, "cache budget must be positive");
        Self { words }
    }

    /// The measured base-case budget for scalar type `T` from the
    /// calibration table (plus any environment override).
    pub fn for_scalar<T: ata_mat::Scalar>() -> Self {
        Self::with_words(calibrate::tuned_for::<T>().base_words)
    }

    /// Base-case predicate of AtA (Algorithm 1): the `m x n` input block
    /// fits in cache.
    #[inline]
    pub fn ata_base(&self, m: usize, n: usize) -> bool {
        m.saturating_mul(n) <= self.words
    }

    /// Base-case predicate of the general `A^T B` recursion (Algorithm 2):
    /// both operands fit together.
    #[inline]
    pub fn gemm_base(&self, m: usize, n: usize, k: usize) -> bool {
        m.saturating_mul(n).saturating_add(m.saturating_mul(k)) <= self.words
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
        // The ata_base boundary sits exactly at sqrt(words).
        let s = (words as f64).sqrt() as usize;
        assert!(c.ata_base(s, words / s.max(1)));
        assert!(!c.ata_base(s + 1, words / s.max(1) + 1));
    }

    #[test]
    fn gemm_base_counts_both_operands() {
        let c = CacheConfig::with_words(100);
        assert!(c.gemm_base(5, 10, 10)); // 50 + 50
        assert!(!c.gemm_base(5, 10, 11)); // 50 + 55
    }

    #[test]
    fn saturating_dimensions_do_not_overflow() {
        let c = CacheConfig::default();
        assert!(!c.ata_base(usize::MAX, 2));
        assert!(!c.gemm_base(usize::MAX, 2, 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let _ = CacheConfig::with_words(0);
    }
}
