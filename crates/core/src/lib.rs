//! AtA — Strassen-based multiplication of a matrix by its transpose.
//!
//! This crate is the primary contribution of Arrigoni, Maggioli, Massini
//! and Rodolà, *Efficiently Parallelizable Strassen-Based Multiplication
//! of a Matrix by its Transpose* (ICPP 2021), reproduced in Rust:
//!
//! * [`serial`] — Algorithm 1, the cache-oblivious recursion computing
//!   the lower triangle of `C = alpha * A^T A + C` with
//!   `2/3 n^(log2 7) + 1/3 n^2` multiplications;
//! * [`tasktree`] — the §4.1 scheduler that maps the recursion onto `P`
//!   parallel processes (both the shared and the distributed variants);
//! * [`parallel`] — AtA-S (Algorithm 3), the lock-free shared-memory
//!   algorithm;
//! * [`analysis`] — measured-flop validation of the paper's complexity
//!   claims and the effective-GFLOPs metric (Eq. 9).
//!
//! The distributed algorithm AtA-D (Algorithm 4) lives in the `ata-dist`
//! crate, on top of the `ata-mpisim` message-passing substrate.
//!
//! # Quickstart
//!
//! ```
//! use ata_core::gram;
//! use ata_mat::Matrix;
//!
//! // A is 4 x 3; G = A^T A is 3 x 3, symmetric.
//! let a = Matrix::<f64>::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
//! let g = gram(a.as_ref());
//! assert_eq!(g.shape(), (3, 3));
//! assert!(g.is_symmetric(0.0));
//! // Entry (0, 1) is the dot product of columns 0 and 1.
//! let dot01: f64 = (0..4).map(|i| a[(i, 0)] * a[(i, 1)]).sum();
//! assert_eq!(g[(0, 1)], dot01);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod accuracy;
pub mod analysis;
pub mod blas_parity;
pub mod naive;
pub mod parallel;
pub mod render;
pub mod serial;
pub mod tasktree;

pub use accuracy::{
    abs_gram, compensated_gram, componentwise_factor, gram_forward_error, ErrorStats,
};
pub use analysis::{ata_mults, effective_gflops};
pub use blas_parity::{aat, aat_lower, ata_syrk, strassen_gemm};
pub use naive::{ata_naive, recursive_gemm};
pub use parallel::{ata_s, ata_s_kind, ata_s_planned, plan_workspace_elems, task_workspace_elems};
pub use serial::{
    ata_into, ata_into_with, ata_into_with_kind, ata_workspace_elems, chunk_rows_for_budget,
    StrassenKind,
};

use ata_kernels::CacheConfig;
use ata_mat::{MatRef, Matrix, Scalar, SymPacked};

/// Tuning knobs of the high-level API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtaOptions {
    /// Cache model deciding the recursion base case.
    pub cache: CacheConfig,
    /// Worker threads for the shared-memory path (`1` = serial).
    pub threads: usize,
    /// Product scheme for the off-diagonal Strassen calls.
    pub strassen: StrassenKind,
}

impl Default for AtaOptions {
    fn default() -> Self {
        Self {
            cache: CacheConfig::default(),
            threads: 1,
            strassen: StrassenKind::Classic,
        }
    }
}

impl AtaOptions {
    /// Serial execution with the default cache model.
    pub fn serial() -> Self {
        Self::default()
    }

    /// Shared-memory execution with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Override the cache budget (elements).
    pub fn cache_words(mut self, words: usize) -> Self {
        self.cache = CacheConfig::with_words(words);
        self
    }

    /// Use the Strassen–Winograd products (15 block adds per level
    /// instead of 18, ~2x workspace, slightly larger rounding error).
    pub fn winograd(mut self) -> Self {
        self.strassen = StrassenKind::Winograd;
        self
    }
}

/// Shared implementation of the one-shot entry points.
pub(crate) fn lower_impl<T: Scalar>(a: MatRef<'_, T>, opts: &AtaOptions) -> Matrix<T> {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    if opts.threads <= 1 {
        let mut ws = ata_strassen::StrassenWorkspace::empty();
        serial::ata_into_with_kind(
            T::ONE,
            a,
            &mut c.as_mut(),
            &opts.cache,
            opts.strassen,
            &mut ws,
        );
    } else {
        parallel::ata_s_kind(
            T::ONE,
            a,
            &mut c.as_mut(),
            opts.threads,
            &opts.cache,
            opts.strassen,
        );
    }
    c
}

/// Full symmetric Gram matrix `A^T A` (both triangles filled) with
/// default options — the one-call entry point.
pub fn gram<T: Scalar>(a: MatRef<'_, T>) -> Matrix<T> {
    let mut c = lower_impl(a, &AtaOptions::default());
    c.mirror_lower_to_upper();
    c
}

/// Lower-triangular `A^T A` (strictly-upper entries are zero), default
/// options.
pub fn lower<T: Scalar>(a: MatRef<'_, T>) -> Matrix<T> {
    lower_impl(a, &AtaOptions::default())
}

/// `A^T A` in packed lower-triangular storage (`n(n+1)/2` elements) —
/// the memory-saving representation of §3.1 / wire format of §4.3.1.
pub fn packed<T: Scalar>(a: MatRef<'_, T>) -> SymPacked<T> {
    SymPacked::from_lower(&lower_impl(a, &AtaOptions::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference};

    #[test]
    fn gram_matches_reference() {
        let a = gen::standard::<f64>(1, 40, 32);
        let g = gram(a.as_ref());
        let g_ref = reference::gram(a.as_ref());
        assert!(g.max_abs_diff(&g_ref) < 1e-10);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn gram_parallel_option() {
        let a = gen::standard::<f32>(2, 64, 48);
        let opts = AtaOptions::with_threads(4).cache_words(64);
        let g = lower_impl(a.as_ref(), &opts);
        let g_ref = reference::gram(a.as_ref());
        assert!(g.max_abs_diff_lower(&g_ref) < 1e-2);
    }

    #[test]
    fn lower_leaves_upper_zero() {
        let a = gen::standard::<f64>(3, 10, 8);
        let l = lower(a.as_ref());
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn packed_roundtrips_to_gram() {
        let a = gen::standard::<f64>(4, 20, 12);
        let p = packed(a.as_ref());
        assert_eq!(p.order(), 12);
        let full = p.to_full();
        let g = gram(a.as_ref());
        assert!(full.max_abs_diff(&g) < 1e-12);
    }

    #[test]
    fn options_builder() {
        let o = AtaOptions::with_threads(8).cache_words(1024);
        assert_eq!(o.threads, 8);
        assert_eq!(o.cache.words, 1024);
        assert_eq!(AtaOptions::serial().threads, 1);
        assert_eq!(o.strassen, StrassenKind::Classic);
        assert_eq!(o.winograd().strassen, StrassenKind::Winograd);
    }

    #[test]
    fn winograd_option_matches_reference_serial_and_parallel() {
        let a = gen::standard::<f64>(31, 72, 56);
        let g_ref = reference::gram(a.as_ref());
        let serial = lower_impl(a.as_ref(), &AtaOptions::serial().cache_words(32).winograd());
        assert!(serial.max_abs_diff_lower(&g_ref) < 1e-10, "serial winograd");
        let par = lower_impl(
            a.as_ref(),
            &AtaOptions::with_threads(4).cache_words(32).winograd(),
        );
        assert!(par.max_abs_diff_lower(&g_ref) < 1e-10, "parallel winograd");
    }

    #[test]
    fn winograd_option_saves_measured_additions() {
        use ata_mat::tracked::{measure, Tracked};
        let n = 32usize;
        let a = gen::standard::<Tracked>(5, n, n);
        let opts_c = AtaOptions::serial().cache_words(8);
        let opts_w = opts_c.winograd();
        let (_, classic) = measure(|| {
            let _ = lower_impl(a.as_ref(), &opts_c);
        });
        let (_, winograd) = measure(|| {
            let _ = lower_impl(a.as_ref(), &opts_w);
        });
        assert_eq!(
            classic.muls, winograd.muls,
            "both schemes use 7 multiplications per level"
        );
        assert!(
            winograd.additive() < classic.additive(),
            "winograd adds {} !< classic adds {}",
            winograd.additive(),
            classic.additive()
        );
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_in_options_rejected() {
        let _ = AtaOptions::with_threads(0);
    }
}
