//! `AtANaive` — Algorithm 1 with Algorithm 2 (`RecursiveGEMM`) for its
//! off-diagonal block.
//!
//! `RecursiveGEMM` is the classical divide-and-conquer `C += A^T B`
//! (eight recursive sub-products, no Strassen), the level program
//! [`ata_strassen::RECURSIVE_GEMM`]; `AtANaive` runs the same AtA level
//! as [`crate::ata_into`] with that program for `C21`. The paper uses
//! their recursion *trees* to schedule the parallel algorithms (§4.1.3:
//! naive recursion avoids Strassen's extra memory and keeps the workload
//! balanceable), and they double as cache-oblivious baselines: same
//! memory behaviour as AtA, classical flop count.

use crate::serial::run;
use ata_kernels::CacheConfig;
use ata_mat::{MatMut, MatRef, Scalar};
use ata_strassen::{Dense, RECURSIVE_GEMM};

/// `AtANaive`: Algorithm 1 with `RecursiveGEMM` for the off-diagonal
/// block — the variant whose recursion tree drives the §4.1 scheduler.
///
/// Shapes: `A: m x n`, `C: n x n` (lower triangle only).
///
/// # Panics
/// On inconsistent shapes.
pub fn ata_naive<T: Scalar>(alpha: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>, cfg: &CacheConfig) {
    let n = a.cols();
    assert_eq!(
        c.shape(),
        (n, n),
        "ata_naive: C must be {n}x{n}, got {:?}",
        c.shape()
    );
    run(&RECURSIVE_GEMM, &mut Dense, cfg, alpha, a, c, &mut []);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::tracked::{measure, Tracked};
    use ata_mat::{gen, reference, Matrix};

    /// Algorithm 2 on its own: `C += alpha * A^T B`.
    fn recursive_gemm<T: Scalar>(
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: &mut MatMut<'_, T>,
        cfg: &CacheConfig,
    ) {
        RECURSIVE_GEMM.run(&mut Dense, cfg, alpha, a, b, c, &mut []);
    }

    #[test]
    fn recursive_gemm_matches_oracle() {
        for &(m, n, k) in &[(1, 1, 1), (8, 8, 8), (7, 9, 5), (33, 17, 21), (16, 64, 4)] {
            let a = gen::standard::<f64>(m as u64, m, n);
            let b = gen::standard::<f64>(n as u64 + 9, m, k);
            let mut fast = gen::standard::<f64>(3, n, k);
            let mut slow = fast.clone();
            recursive_gemm(
                1.5,
                a.as_ref(),
                b.as_ref(),
                &mut fast.as_mut(),
                &CacheConfig::with_words(16),
            );
            reference::gemm_tn(1.5, a.as_ref(), b.as_ref(), &mut slow.as_mut());
            assert!(fast.max_abs_diff(&slow) < 1e-10, "({m},{n},{k})");
        }
    }

    #[test]
    fn ata_naive_matches_oracle() {
        for &(m, n) in &[(1, 1), (12, 12), (13, 9), (9, 13), (40, 24)] {
            let a = gen::standard::<f64>(m as u64 * 3 + n as u64, m, n);
            let mut fast = Matrix::zeros(n, n);
            ata_naive(
                1.0,
                a.as_ref(),
                &mut fast.as_mut(),
                &CacheConfig::with_words(8),
            );
            let mut slow = Matrix::zeros(n, n);
            reference::syrk_ln(1.0, a.as_ref(), &mut slow.as_mut());
            assert!(fast.max_abs_diff_lower(&slow) < 1e-10, "({m},{n})");
        }
    }

    #[test]
    fn recursion_does_not_change_the_classical_flop_count() {
        // RecursiveGEMM must do exactly m*n*k multiplications (plus the
        // alpha-free accumulates) at every recursion depth.
        let (m, n, k) = (8usize, 8usize, 8usize);
        let a = gen::standard::<Tracked>(1, m, n);
        let b = gen::standard::<Tracked>(2, m, k);
        for words in [2usize, 64, 1 << 20] {
            let mut c = Matrix::<Tracked>::zeros(n, k);
            let cfg = CacheConfig::with_words(words);
            let (_, ops) = measure(|| {
                recursive_gemm(Tracked(1.0), a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
            });
            assert_eq!(
                ops.muls,
                (m * n * k) as u64,
                "words={words}: classical count must be recursion-invariant"
            );
        }
    }

    #[test]
    fn gemm_costs_twice_ata_per_element() {
        // §4.1.2: "the number of multiplications carried out in T to
        // perform A^T B is twice the one needed to compute A^T A" — on a
        // square n, gemm does n^3 while the triangle costs n^2(n+1)/2.
        let n = 16usize;
        let a = gen::standard::<Tracked>(5, n, n);
        let cfg = CacheConfig::with_words(64);
        let mut c = Matrix::<Tracked>::zeros(n, n);
        let (_, gemm) = measure(|| {
            recursive_gemm(Tracked(1.0), a.as_ref(), a.as_ref(), &mut c.as_mut(), &cfg);
        });
        let mut c = Matrix::<Tracked>::zeros(n, n);
        let (_, ata) = measure(|| ata_naive(Tracked(1.0), a.as_ref(), &mut c.as_mut(), &cfg));
        assert_eq!(ata.muls, (n * n * (n + 1) / 2) as u64);
        let ratio = gemm.muls as f64 / ata.muls as f64;
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    fn ata_naive_agrees_with_strassen_ata_bitwise_on_ternary() {
        use crate::serial::{ata_into_with_kind, StrassenKind};
        use ata_strassen::StrassenWorkspace;
        // Integer inputs keep every sum exact, so Algorithm 2 and both
        // Strassen programs must land on the same bits at any depth.
        for &(m, n) in &[(24usize, 20usize), (67, 45), (30, 53)] {
            let a = gen::ternary::<f64>(4, m, n);
            for depth in 1..=3u32 {
                // The C21 product (⌈m/2⌉, ⌊n/2⌋, ⌈n/2⌉) runs `depth`
                // levels below the AtA level.
                let mut leaf = (m.div_ceil(2)).min(n / 2);
                for _ in 0..depth {
                    leaf = leaf.div_ceil(2);
                }
                let cfg = CacheConfig::with_words(2 * leaf * leaf);
                let mut naive = Matrix::zeros(n, n);
                ata_naive(1.0, a.as_ref(), &mut naive.as_mut(), &cfg);
                for kind in [StrassenKind::Classic, StrassenKind::Winograd] {
                    let mut fast = Matrix::zeros(n, n);
                    let mut ws = StrassenWorkspace::empty();
                    ata_into_with_kind(1.0, a.as_ref(), &mut fast.as_mut(), &cfg, kind, &mut ws);
                    assert_eq!(
                        naive.max_abs_diff_lower(&fast),
                        0.0,
                        "({m},{n}) {kind:?} depth {depth}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ata_naive")]
    fn shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(3, 3);
        let mut c = Matrix::<f64>::zeros(4, 4);
        ata_naive(1.0, a.as_ref(), &mut c.as_mut(), &CacheConfig::default());
    }
}
