//! The Strassen–Winograd entry points: the [`WINOGRAD`] level program
//! (7 multiplications, 15 block additions instead of 18) run on the
//! library's [`Dense`] machine.
//!
//! §3.2 of the paper counts "18 sums between sub-matrices" for classic
//! Strassen. Winograd's 1971 rearrangement shares three intermediate
//! sums and reaches the minimum of 15 additions for any
//! 7-multiplication scheme (Probert's lower bound). The paper leaves
//! this as an implementation alternative; we build it as an ablation of
//! the block-addition count. Under this workspace's *accumulate*
//! semantics (`C += alpha A^T B`) classic performs 22 block-add volumes
//! per level and Winograd 19 — the same 3-addition saving, verified *by
//! measurement* in the tests below — at about twice the workspace. The
//! `ablation` bench bin quantifies the trade on real workloads.

use crate::level::{check_shapes, Dense, WINOGRAD};
use crate::workspace::StrassenWorkspace;
use ata_kernels::CacheConfig;
use ata_mat::{MatMut, MatRef, Scalar};

/// `C += alpha * A^T B` by the Strassen–Winograd algorithm with a
/// caller-provided workspace. Drop-in replacement for
/// [`crate::fast_strassen_with`]; same contract, 15 block additions per
/// level instead of 18, ~2x workspace.
///
/// # Panics
/// On inconsistent shapes.
pub fn winograd_strassen_with<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &CacheConfig,
    ws: &mut StrassenWorkspace<T>,
) {
    check_shapes("winograd_strassen", a, b, c);
    let (m, n, k) = (a.rows(), a.cols(), b.cols());
    let arena = ws.reserve(WINOGRAD.workspace_elems(m, n, k, cfg));
    WINOGRAD.run(&mut Dense, cfg, alpha, a, b, c, arena);
}

/// `C += alpha * A^T B` by Strassen–Winograd, allocating the workspace
/// internally. Drop-in replacement for [`crate::fast_strassen`].
///
/// # Panics
/// On inconsistent shapes.
pub fn winograd_strassen<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &CacheConfig,
) {
    let mut ws = StrassenWorkspace::empty();
    winograd_strassen_with(alpha, a, b, c, cfg, &mut ws);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast_strassen;
    use crate::level::CLASSIC;
    use ata_mat::tracked::{measure, Tracked};
    use ata_mat::{gen, ops, reference, Matrix};

    fn check(m: usize, n: usize, k: usize, alpha: f64, words: usize) {
        let a = gen::standard::<f64>(m as u64 * 37 + n as u64, m, n);
        let b = gen::standard::<f64>(k as u64 * 13 + 7, m, k);
        let mut c_fast = gen::standard::<f64>(55, n, k);
        let mut c_ref = c_fast.clone();
        let cfg = CacheConfig::with_words(words);
        winograd_strassen(alpha, a.as_ref(), b.as_ref(), &mut c_fast.as_mut(), &cfg);
        reference::gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        let tol = ops::product_tol::<f64>(m.max(n), k, m as f64);
        let diff = c_fast.max_abs_diff(&c_ref);
        assert!(
            diff <= tol,
            "({m},{n},{k}) winograd differs from oracle by {diff} > {tol}"
        );
    }

    #[test]
    fn power_of_two_squares() {
        for n in [2usize, 4, 8, 16, 32] {
            check(n, n, n, 1.0, 8);
        }
    }

    #[test]
    fn odd_and_prime_shapes() {
        for &(m, n, k) in &[
            (3, 3, 3),
            (5, 5, 5),
            (7, 11, 13),
            (9, 6, 15),
            (17, 17, 17),
            (23, 29, 31),
        ] {
            check(m, n, k, 1.0, 8);
        }
    }

    #[test]
    fn rectangular_shapes() {
        for &(m, n, k) in &[
            (64, 8, 8),
            (8, 64, 8),
            (8, 8, 64),
            (40, 12, 28),
            (12, 40, 4),
        ] {
            check(m, n, k, 1.0, 16);
        }
    }

    #[test]
    fn alpha_scaling_and_edges() {
        check(12, 12, 12, -1.5, 8);
        check(13, 9, 7, 0.25, 8);
        check(1, 5, 5, 1.0, 4);
        check(5, 1, 5, 1.0, 4);
        check(5, 5, 1, 1.0, 4);
    }

    #[test]
    fn exact_on_ternary_integers() {
        let (m, n, k) = (24, 20, 28);
        let a = gen::ternary::<f64>(11, m, n);
        let b = gen::ternary::<f64>(12, m, k);
        let mut c_win = Matrix::zeros(n, k);
        let mut c_ref = Matrix::zeros(n, k);
        let cfg = CacheConfig::with_words(8);
        winograd_strassen(1.0, a.as_ref(), b.as_ref(), &mut c_win.as_mut(), &cfg);
        reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert_eq!(c_win.max_abs_diff(&c_ref), 0.0);
    }

    #[test]
    fn agrees_with_classic_strassen_exactly_on_integers() {
        // Same field values, different add schedules: on integer inputs
        // both must land on the identical matrix.
        let (m, n, k) = (17, 15, 19);
        let a = gen::ternary::<f64>(21, m, n);
        let b = gen::ternary::<f64>(22, m, k);
        let cfg = CacheConfig::with_words(8);
        let mut c_win = Matrix::zeros(n, k);
        let mut c_cls = Matrix::zeros(n, k);
        winograd_strassen(1.0, a.as_ref(), b.as_ref(), &mut c_win.as_mut(), &cfg);
        fast_strassen(1.0, a.as_ref(), b.as_ref(), &mut c_cls.as_mut(), &cfg);
        assert_eq!(c_win.max_abs_diff(&c_cls), 0.0);
    }

    #[test]
    fn measured_mults_match_strassen_count() {
        // Winograd changes the additions only: multiplications stay 7^q.
        let cfg = CacheConfig::with_words(2);
        for q in 1..5u32 {
            let n = 1usize << q;
            let a = gen::standard::<Tracked>(3, n, n);
            let b = gen::standard::<Tracked>(4, n, n);
            let mut c = Matrix::<Tracked>::zeros(n, n);
            let (_, ops) = measure(|| {
                winograd_strassen(Tracked(1.0), a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
            });
            assert_eq!(ops.muls, 7u64.pow(q), "n={n}");
        }
    }

    #[test]
    fn measured_block_adds_beat_classic_by_three() {
        // One recursion level on an even problem: Winograd must perform
        // exactly 19 half-square add-volumes against classic's 22 — the
        // 18-vs-15 textbook gap shifted by the common 4 accumulate-mode
        // C-writes.
        let n = 8usize;
        let cfg = CacheConfig::with_words(32); // base at (4,4,4)
        let half_sq = (n / 2 * n / 2) as u64;
        let base_adds = 7 * (n / 2).pow(3) as u64;

        let a = gen::standard::<Tracked>(5, n, n);
        let b = gen::standard::<Tracked>(6, n, n);

        let mut c = Matrix::<Tracked>::zeros(n, n);
        let (_, win) = measure(|| {
            winograd_strassen(Tracked(1.0), a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
        });
        assert_eq!(
            win.additive() - base_adds,
            19 * half_sq,
            "winograd block-sum volume"
        );

        let mut c2 = Matrix::<Tracked>::zeros(n, n);
        let (_, cls) = measure(|| {
            fast_strassen(Tracked(1.0), a.as_ref(), b.as_ref(), &mut c2.as_mut(), &cfg);
        });
        assert_eq!(
            cls.additive() - base_adds,
            22 * half_sq,
            "classic block-sum volume"
        );
    }

    #[test]
    fn workspace_requirement_is_larger_but_bounded() {
        let cfg = CacheConfig::with_words(2);
        for n in [8usize, 16, 33, 100] {
            let w = WINOGRAD.workspace_elems(n, n, n, &cfg);
            let s = CLASSIC.workspace_elems(n, n, n, &cfg);
            assert!(w > s, "n={n}: winograd needs more workspace");
            // Per level 6 ceil-half-squares vs 3: at most ~2x plus
            // rounding slack.
            assert!(
                w <= 2 * s + 6 * (n + 2),
                "n={n}: requirement {w} not within 2x of classic {s}"
            );
        }
    }

    #[test]
    fn workspace_reuse_across_calls() {
        let cfg = CacheConfig::with_words(8);
        let mut ws = StrassenWorkspace::<f64>::empty();
        for trial in 0..3u64 {
            let a = gen::standard::<f64>(trial, 16, 16);
            let b = gen::standard::<f64>(100 + trial, 16, 16);
            let mut c = Matrix::zeros(16, 16);
            winograd_strassen_with(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg, &mut ws);
            let mut c_ref = Matrix::zeros(16, 16);
            reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
            assert!(c.max_abs_diff(&c_ref) < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "winograd_strassen")]
    fn shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(4, 4);
        let b = Matrix::<f64>::zeros(5, 4);
        let mut c = Matrix::<f64>::zeros(4, 4);
        winograd_strassen(
            1.0,
            a.as_ref(),
            b.as_ref(),
            &mut c.as_mut(),
            &CacheConfig::default(),
        );
    }
}
