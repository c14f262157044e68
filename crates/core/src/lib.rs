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
//! crate, on top of the `ata-mpisim` message-passing substrate. The `ata`
//! facade's `AtaContext` picks between the serial and AtA-S backends and
//! caches plans and arenas; the functions here are what its plans
//! execute.
//!
//! # Quickstart
//!
//! ```
//! use ata_core::ata_into;
//! use ata_kernels::CacheConfig;
//! use ata_mat::Matrix;
//!
//! // A is 4 x 3; C_low += A^T A fills the lower triangle of the 3 x 3 C.
//! let a = Matrix::<f64>::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
//! let mut c = Matrix::zeros(3, 3);
//! ata_into(1.0, a.as_ref(), &mut c.as_mut(), &CacheConfig::default());
//! // Entry (1, 0) is the dot product of columns 1 and 0.
//! let dot10: f64 = (0..4).map(|i| a[(i, 1)] * a[(i, 0)]).sum();
//! assert_eq!(c[(1, 0)], dot10);
//! // The strictly-upper triangle is never written (symmetry, §3.1).
//! assert_eq!(c[(0, 1)], 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod analysis;
mod naive;
pub mod parallel;
pub mod render;
pub mod serial;
pub mod tasktree;

pub use accuracy::{
    abs_gram, compensated_gram, componentwise_factor, gram_forward_error, ErrorStats,
};
pub use analysis::{ata_mults, effective_gflops};
pub use naive::ata_naive;
pub use parallel::{ata_s, ata_s_planned, plan_workspace_elems};
pub use serial::{ata_into, ata_into_with_kind, ata_workspace_elems, StrassenKind};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasktree::SharedPlan;
    use ata_kernels::CacheConfig;
    use ata_mat::{gen, reference, MatRef, Matrix, Scalar};
    use ata_strassen::{ArenaPool, StrassenWorkspace};

    /// Lower triangle of `A^T A` under `kind`: Algorithm 1 when
    /// `threads == 1`, otherwise AtA-S on a `threads`-task plan.
    fn lower_gram<T: Scalar>(
        a: MatRef<'_, T>,
        threads: usize,
        words: usize,
        kind: StrassenKind,
    ) -> Matrix<T> {
        let n = a.cols();
        let cfg = CacheConfig::with_words(words);
        let mut c = Matrix::zeros(n, n);
        if threads == 1 {
            let mut ws = StrassenWorkspace::empty();
            ata_into_with_kind(T::ONE, a, &mut c.as_mut(), &cfg, kind, &mut ws);
        } else {
            let plan = SharedPlan::build(n, threads);
            ata_s_planned(
                T::ONE,
                a,
                &mut c.as_mut(),
                &plan,
                &cfg,
                kind,
                &ArenaPool::new(),
            );
        }
        c
    }

    #[test]
    fn gram_parallel_option() {
        let a = gen::standard::<f32>(2, 64, 48);
        let g = lower_gram(a.as_ref(), 4, 64, StrassenKind::Classic);
        let g_ref = reference::gram(a.as_ref());
        assert!(g.max_abs_diff_lower(&g_ref) < 1e-2);
    }

    #[test]
    fn winograd_option_matches_reference_serial_and_parallel() {
        let a = gen::standard::<f64>(31, 72, 56);
        let g_ref = reference::gram(a.as_ref());
        let serial = lower_gram(a.as_ref(), 1, 32, StrassenKind::Winograd);
        assert!(serial.max_abs_diff_lower(&g_ref) < 1e-10, "serial winograd");
        let par = lower_gram(a.as_ref(), 4, 32, StrassenKind::Winograd);
        assert!(par.max_abs_diff_lower(&g_ref) < 1e-10, "parallel winograd");
    }

    #[test]
    fn winograd_option_saves_measured_additions() {
        use ata_mat::tracked::{measure, Tracked};
        let n = 32usize;
        let a = gen::standard::<Tracked>(5, n, n);
        let (_, classic) = measure(|| {
            let _ = lower_gram(a.as_ref(), 1, 8, StrassenKind::Classic);
        });
        let (_, winograd) = measure(|| {
            let _ = lower_gram(a.as_ref(), 1, 8, StrassenKind::Winograd);
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
}
