//! The Strassen–Winograd variant of [`crate::fast_strassen`]:
//! 7 multiplications, 15 block additions instead of 18.
//!
//! §3.2 of the paper counts "18 sums between sub-matrices" for classic
//! Strassen. Winograd's 1971 rearrangement shares three intermediate
//! sums (`U2 = M1 + M6`, `U3 = U2 + M7`, `U4 = U2 + M5`) and reaches the
//! minimum of 15 additions for any 7-multiplication scheme (Probert's
//! lower bound). The paper leaves this as an implementation alternative;
//! we build it as an ablation of the block-addition count.
//!
//! Under this workspace's *accumulate* semantics (`C += alpha A^T B`
//! rather than `C = A^T B`) the counts shift by the four unavoidable
//! C-quadrant accumulations: classic performs 22 block-add volumes per
//! level (10 operand sums + 12 accumulations), Winograd 19 (8 operand
//! sums + 2 shared-U builds + 9 accumulations) — the same 3-addition
//! saving, verified *by measurement* in the tests below.
//!
//! With `X = A^T` the operands map to untransposed quadrants of `A`
//! (`X11 = A11^T, X12 = A21^T, X21 = A12^T, X22 = A22^T`), so like the
//! classic recursion, `A^T` is never materialized:
//!
//! ```text
//! S1 = (A12 + A22)^T        T1 = B12 - B11        M5 = S1 T1
//! S2 = S1 - A11^T           T2 = B22 - T1         M6 = S2 T2
//! S4 = (A21)^T - S2         T4 = T2 - B21         M4 = A22^T T4
//! S3 = (A11 - A12)^T        T3 = B22 - B12        M7 = S3 T3
//! M1 = A11^T B11            M2 = A21^T B21        M3 = S4 B22
//!
//! C11 += a (M1 + M2)                 U2 = M1 + M6
//! C12 += a (U2 + M5 + M3)            U3 = U2 + M7
//! C21 += a (U3 - M4)
//! C22 += a (U3 + M5)
//! ```
//!
//! The S/T chains are computed *in place* in the two operand slots (each
//! chain step is one block addition), which is why the operand-sum count
//! drops from 10 to 8. The price is workspace: three product slots must
//! be live at once (`M6`, `M7`, `M1` while building `U2`/`U3`) plus a
//! second A-side slot for `direct_or_pad` while a chain value is held —
//! `2·⌈m/2⌉⌈n/2⌉ + ⌈m/2⌉⌈k/2⌉ + 3·⌈n/2⌉⌈k/2⌉` per level against classic's
//! `⌈m/2⌉⌈n/2⌉ + ⌈m/2⌉⌈k/2⌉ + ⌈n/2⌉⌈k/2⌉`. The `ablation` bench bin
//! quantifies the trade on real workloads.

use crate::pad::{accumulate, direct_or_pad, pad_sum, rsub_padded, sub_padded};
use crate::workspace::StrassenWorkspace;
use ata_kernels::level1::axpy;
use ata_kernels::{gemm_tn, CacheConfig};
use ata_mat::{half_up, MatMut, MatRef, Scalar};

/// Exact number of workspace elements the Winograd recursion on a
/// `(m, n, k)` problem consumes (counterpart of
/// [`crate::workspace::required_elems`]).
pub fn required_elems_winograd(m: usize, n: usize, k: usize, cfg: &CacheConfig) -> usize {
    if cfg.gemm_base(m, n, k) {
        return 0;
    }
    let (m1, n1, k1) = (half_up(m), half_up(n), half_up(k));
    2 * m1 * n1 + m1 * k1 + 3 * n1 * k1 + required_elems_winograd(m1, n1, k1, cfg)
}

/// The recursion. `ws` must hold at least
/// [`required_elems_winograd`]`(m, n, k, cfg)` elements.
fn rec<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &CacheConfig,
    ws: &mut [T],
) {
    let (m, n) = a.shape();
    let k = b.cols();
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if cfg.gemm_base(m, n, k) {
        gemm_tn(alpha, a, b, c);
        return;
    }

    let (m1, n1, k1) = (half_up(m), half_up(n), half_up(k));
    let (a11, a12, a21, a22) = a.quad_split();
    let (b11, b12, b21, b22) = b.quad_split();

    let (ta_buf, rest) = ws.split_at_mut(m1 * n1);
    let (ta2_buf, rest) = rest.split_at_mut(m1 * n1);
    let (tb_buf, rest) = rest.split_at_mut(m1 * k1);
    let (p1_buf, rest) = rest.split_at_mut(n1 * k1);
    let (p2_buf, rest) = rest.split_at_mut(n1 * k1);
    let (p3_buf, rest) = rest.split_at_mut(n1 * k1);

    // C quadrant index ranges (C is n x k).
    let (c11, c12, c21, c22) = (
        (0, n1, 0, k1),
        (0, n1, k1, k),
        (n1, n, 0, k1),
        (n1, n, k1, k),
    );

    // Run one product `P = ta^T tb` into a zeroed slot.
    macro_rules! product {
        ($p:ident, $ta:expr, $tb:expr, $rest:expr) => {{
            let ta = $ta;
            let tb = $tb;
            let mut p = MatMut::from_slice($p, n1, k1);
            p.fill_zero();
            rec(T::ONE, ta, tb, &mut p, cfg, $rest);
        }};
    }
    // `c_quad += sgn * alpha * P` (truncating).
    macro_rules! acc {
        ($quad:expr, $p:ident, $sgn:expr) => {{
            let (r0, r1, q0, q1) = $quad;
            let mut cq = c.block_mut(r0, r1, q0, q1);
            let p = MatRef::from_slice(&$p[..n1 * k1], n1, k1);
            let coeff = if $sgn >= 0 { alpha } else { -alpha };
            accumulate(&mut cq, p, coeff);
        }};
    }

    // ---- step 1: S1 = A12 + A22, T1 = B12 - B11, M5 = S1^T T1 ----
    {
        let ta = pad_sum(ta_buf, a12, T::ONE, a22, m1, n1);
        let tb = pad_sum(tb_buf, b12, T::NEG_ONE, b11, m1, k1);
        product!(p1_buf, ta, tb, rest);
    }
    acc!(c12, p1_buf, 1); // C12 += a M5
    acc!(c22, p1_buf, 1); // C22 += a M5  (P1 free)

    // ---- step 2: S2 = S1 - A11 (in place), T2 = B22 - T1 (in place),
    //              M6 = S2^T T2 (kept for U2) ----
    {
        let mut ta = MatMut::from_slice(&mut ta_buf[..m1 * n1], m1, n1);
        sub_padded(&mut ta, a11);
        let mut tb = MatMut::from_slice(&mut tb_buf[..m1 * k1], m1, k1);
        rsub_padded(&mut tb, b22);
    }
    {
        let ta = MatRef::from_slice(&ta_buf[..m1 * n1], m1, n1);
        let tb = MatRef::from_slice(&tb_buf[..m1 * k1], m1, k1);
        product!(p2_buf, ta, tb, rest);
    }

    // ---- step 3: T4 = T2 - B21 (in place), M4 = A22^T T4 ----
    {
        let mut tb = MatMut::from_slice(&mut tb_buf[..m1 * k1], m1, k1);
        sub_padded(&mut tb, b21);
    }
    {
        let ta = direct_or_pad(ta2_buf, a22, m1, n1);
        let tb = MatRef::from_slice(&tb_buf[..m1 * k1], m1, k1);
        product!(p3_buf, ta, tb, rest);
    }
    acc!(c21, p3_buf, -1); // C21 -= a M4  (P3 free)

    // ---- step 4: S4 = A21 - S2 (in place), M3 = S4^T B22 ----
    {
        let mut ta = MatMut::from_slice(&mut ta_buf[..m1 * n1], m1, n1);
        rsub_padded(&mut ta, a21);
    }
    {
        let ta = MatRef::from_slice(&ta_buf[..m1 * n1], m1, n1);
        let tb = direct_or_pad(tb_buf, b22, m1, k1);
        product!(p3_buf, ta, tb, rest);
    }
    acc!(c12, p3_buf, 1); // C12 += a M3  (P3 free)

    // ---- step 5: S3 = A11 - A12, T3 = B22 - B12, M7 = S3^T T3 (kept) ----
    {
        let ta = pad_sum(ta2_buf, a11, T::NEG_ONE, a12, m1, n1);
        let tb = pad_sum(tb_buf, b22, T::NEG_ONE, b12, m1, k1);
        product!(p3_buf, ta, tb, rest);
    }

    // ---- step 6: M1 = A11^T B11 ----
    {
        let ta = direct_or_pad(ta_buf, a11, m1, n1);
        let tb = direct_or_pad(tb_buf, b11, m1, k1);
        product!(p1_buf, ta, tb, rest);
    }
    acc!(c11, p1_buf, 1); // C11 += a M1

    // ---- step 7: U2 = M1 + M6 (into P2), C12 += a U2;
    //              U3 = U2 + M7 (into P2), C21 += a U3, C22 += a U3 ----
    axpy(T::ONE, &p1_buf[..n1 * k1], &mut p2_buf[..n1 * k1]); // P2 = U2
    acc!(c12, p2_buf, 1);
    axpy(T::ONE, &p3_buf[..n1 * k1], &mut p2_buf[..n1 * k1]); // P2 = U3
    acc!(c21, p2_buf, 1);
    acc!(c22, p2_buf, 1);

    // ---- step 8: M2 = A21^T B21, C11 += a M2 ----
    {
        let ta = direct_or_pad(ta_buf, a21, m1, n1);
        let tb = direct_or_pad(tb_buf, b21, m1, k1);
        product!(p1_buf, ta, tb, rest);
    }
    acc!(c11, p1_buf, 1);
}

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
    let (m, n) = a.shape();
    let (mb, k) = b.shape();
    assert_eq!(m, mb, "winograd_strassen: A is {m}x{n} but B has {mb} rows");
    assert_eq!(
        c.shape(),
        (n, k),
        "winograd_strassen: C must be {n}x{k}, got {:?}",
        c.shape()
    );
    ws.reserve_elems(required_elems_winograd(m, n, k, cfg));
    rec(alpha, a, b, c, cfg, ws.as_mut_slice());
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
            let w = required_elems_winograd(n, n, n, &cfg);
            let s = crate::workspace::required_elems(n, n, n, &cfg);
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
