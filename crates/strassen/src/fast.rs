//! The arena-based Strassen recursion for `C += alpha * A^T B`.
//!
//! See the crate docs for the derivation of the transposed-left product
//! table. Each level computes the seven products one at a time into a
//! single `M` slot and accumulates them immediately into the affected `C`
//! quadrants, so only three workspace slots per level are live:
//!
//! | slot | shape            | holds                              |
//! |------|------------------|------------------------------------|
//! | `tA` | ⌈m/2⌉ x ⌈n/2⌉    | padded sums of `A` quadrants       |
//! | `tB` | ⌈m/2⌉ x ⌈k/2⌉    | padded sums of `B` quadrants       |
//! | `M`  | ⌈n/2⌉ x ⌈k/2⌉    | the current product `Mi`           |
//!
//! Quadrants that already have full ceil-size (`A11`, `B11`) are passed
//! to the recursion directly without copying.

use crate::pad::{accumulate, direct_or_pad, pad_sum};
use crate::workspace::StrassenWorkspace;
use ata_kernels::{gemm_tn, CacheConfig};
use ata_mat::{half_up, MatMut, MatRef, Scalar};

/// The recursion. `ws` must hold at least
/// [`required_elems`]`(m, n, k, cfg)` elements.
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
    let (tb_buf, rest) = rest.split_at_mut(m1 * k1);
    let (mm_buf, rest) = rest.split_at_mut(n1 * k1);

    // C quadrant index ranges (C is n x k).
    let (c11, c12, c21, c22) = (
        (0, n1, 0, k1),
        (0, n1, k1, k),
        (n1, n, 0, k1),
        (n1, n, k1, k),
    );

    // Runs one product `M = tA^T tB` and adds `±alpha * M` to the listed
    // C quadrants. `mm_buf` is zeroed each time because the recursion has
    // accumulate semantics.
    macro_rules! product {
        ($ta:expr, $tb:expr, [$(($quad:expr, $sgn:expr)),+]) => {{
            let ta = $ta;
            let tb = $tb;
            let mut mm = MatMut::from_slice(mm_buf, n1, k1);
            mm.fill_zero();
            rec(T::ONE, ta, tb, &mut mm, cfg, rest);
            let mm = mm.into_ref();
            $(
                let (r0, r1, q0, q1) = $quad;
                let mut cq = c.block_mut(r0, r1, q0, q1);
                // `Neg` rather than `ZERO - alpha`: negation is free in
                // the flop accounting (and cheaper at run time).
                let coeff = if $sgn >= 0 { alpha } else { -alpha };
                accumulate(&mut cq, mm, coeff);
            )+
        }};
    }

    // M1 = (A11 + A22)^T (B11 + B22)  ->  +C11, +C22
    product!(
        pad_sum(ta_buf, a11, T::ONE, a22, m1, n1),
        pad_sum(tb_buf, b11, T::ONE, b22, m1, k1),
        [(c11, 1), (c22, 1)]
    );
    // M2 = (A12 + A22)^T B11          ->  +C21, -C22
    product!(
        pad_sum(ta_buf, a12, T::ONE, a22, m1, n1),
        b11,
        [(c21, 1), (c22, -1)]
    );
    // M3 = A11^T (B12 - B22)          ->  +C12, +C22
    product!(
        a11,
        pad_sum(tb_buf, b12, T::NEG_ONE, b22, m1, k1),
        [(c12, 1), (c22, 1)]
    );
    // M4 = A22^T (B21 - B11)          ->  +C11, +C21
    product!(
        direct_or_pad(ta_buf, a22, m1, n1),
        pad_sum(tb_buf, b21, T::NEG_ONE, b11, m1, k1),
        [(c11, 1), (c21, 1)]
    );
    // M5 = (A11 + A21)^T B22          ->  -C11, +C12
    product!(
        pad_sum(ta_buf, a11, T::ONE, a21, m1, n1),
        direct_or_pad(tb_buf, b22, m1, k1),
        [(c11, -1), (c12, 1)]
    );
    // M6 = (A12 - A11)^T (B11 + B12)  ->  +C22
    product!(
        pad_sum(ta_buf, a12, T::NEG_ONE, a11, m1, n1),
        pad_sum(tb_buf, b11, T::ONE, b12, m1, k1),
        [(c22, 1)]
    );
    // M7 = (A21 - A22)^T (B21 + B22)  ->  +C11
    product!(
        pad_sum(ta_buf, a21, T::NEG_ONE, a22, m1, n1),
        pad_sum(tb_buf, b21, T::ONE, b22, m1, k1),
        [(c11, 1)]
    );
}

/// `C += alpha * A^T B` by Strassen's algorithm with a caller-provided
/// workspace — the paper's `Strassen` called from `FastStrassen`
/// (Algorithm 1 line 18). The workspace is grown if undersized, so a
/// single arena can serve a whole sequence of calls.
///
/// Shapes: `A: m x n`, `B: m x k`, `C: n x k`.
///
/// # Panics
/// On inconsistent shapes.
pub fn fast_strassen_with<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &CacheConfig,
    ws: &mut StrassenWorkspace<T>,
) {
    let (m, n) = a.shape();
    let (mb, k) = b.shape();
    assert_eq!(m, mb, "fast_strassen: A is {m}x{n} but B has {mb} rows");
    assert_eq!(
        c.shape(),
        (n, k),
        "fast_strassen: C must be {n}x{k}, got {:?}",
        c.shape()
    );
    ws.reserve_for(m, n, k, cfg);
    rec(alpha, a, b, c, cfg, ws.as_mut_slice());
}

/// `C += alpha * A^T B` allocating the workspace internally — the paper's
/// `FastStrassen` entry point (allocate once, then run the allocation-free
/// recursion).
///
/// # Panics
/// On inconsistent shapes.
pub fn fast_strassen<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &CacheConfig,
) {
    let mut ws = StrassenWorkspace::empty();
    fast_strassen_with(alpha, a, b, c, cfg, &mut ws);
}

/// Theoretical number of scalar *multiplications* the recursion performs
/// (products only; the `±1`-scaled block sums are multiplication-free).
/// For `n = 2^q` square problems under a fully-recursive config this is
/// exactly `7^q = n^(log2 7)` — Strassen's count, which the measured-flop
/// tests compare against.
pub fn strassen_mults(m: usize, n: usize, k: usize, cfg: &CacheConfig) -> u64 {
    if cfg.gemm_base(m, n, k) {
        return (m as u64) * (n as u64) * (k as u64);
    }
    7 * strassen_mults(half_up(m), half_up(n), half_up(k), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::tracked::{measure, Tracked};
    use ata_mat::{gen, ops, reference, Matrix};

    /// Oracle comparison on one shape with a recursion-forcing config.
    fn check(m: usize, n: usize, k: usize, alpha: f64, words: usize) {
        let a = gen::standard::<f64>(m as u64 * 31 + n as u64, m, n);
        let b = gen::standard::<f64>(k as u64 * 17 + 5, m, k);
        let mut c_fast = gen::standard::<f64>(99, n, k);
        let mut c_ref = c_fast.clone();
        let cfg = CacheConfig::with_words(words);
        fast_strassen(alpha, a.as_ref(), b.as_ref(), &mut c_fast.as_mut(), &cfg);
        reference::gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        let tol = ops::product_tol::<f64>(m.max(n), k, m as f64);
        let diff = c_fast.max_abs_diff(&c_ref);
        assert!(
            diff <= tol,
            "({m},{n},{k}) strassen differs from oracle by {diff} > {tol}"
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
    fn alpha_scaling() {
        check(12, 12, 12, -1.5, 8);
        check(13, 9, 7, 0.25, 8);
    }

    #[test]
    fn one_dimensional_edges() {
        check(1, 5, 5, 1.0, 4);
        check(5, 1, 5, 1.0, 4);
        check(5, 5, 1, 1.0, 4);
        check(1, 1, 1, 1.0, 4);
    }

    #[test]
    fn exact_on_ternary_integers() {
        // {-1,0,1} inputs make every intermediate integral: Strassen's
        // rearrangement must give bit-exact results.
        let (m, n, k) = (24, 20, 28);
        let a = gen::ternary::<f64>(1, m, n);
        let b = gen::ternary::<f64>(2, m, k);
        let mut c_fast = Matrix::zeros(n, k);
        let mut c_ref = Matrix::zeros(n, k);
        let cfg = CacheConfig::with_words(8);
        fast_strassen(1.0, a.as_ref(), b.as_ref(), &mut c_fast.as_mut(), &cfg);
        reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert_eq!(c_fast.max_abs_diff(&c_ref), 0.0);
    }

    #[test]
    fn workspace_reuse_across_calls() {
        let cfg = CacheConfig::with_words(8);
        let mut ws = StrassenWorkspace::for_problem(16, 16, 16, &cfg);
        for trial in 0..3u64 {
            let a = gen::standard::<f64>(trial, 16, 16);
            let b = gen::standard::<f64>(100 + trial, 16, 16);
            let mut c = Matrix::zeros(16, 16);
            fast_strassen_with(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg, &mut ws);
            let mut c_ref = Matrix::zeros(16, 16);
            reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
            assert!(c.max_abs_diff(&c_ref) < 1e-10);
        }
    }

    #[test]
    fn strassen_mult_count_is_exact_powers_of_two() {
        // Full recursion: base only at 1x1x1 (words = 2).
        let cfg = CacheConfig::with_words(2);
        for q in 0..6u32 {
            let n = 1usize << q;
            assert_eq!(strassen_mults(n, n, n, &cfg), 7u64.pow(q), "n={n}");
        }
    }

    #[test]
    fn measured_mults_match_theory_exactly() {
        let cfg = CacheConfig::with_words(2);
        for q in 1..5u32 {
            let n = 1usize << q;
            let a = gen::standard::<Tracked>(3, n, n);
            let b = gen::standard::<Tracked>(4, n, n);
            let mut c = Matrix::<Tracked>::zeros(n, n);
            let (_, ops) = measure(|| {
                fast_strassen(Tracked(1.0), a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
            });
            assert_eq!(
                ops.muls,
                7u64.pow(q),
                "n={n}: measured muls must equal 7^q exactly"
            );
        }
    }

    #[test]
    fn measured_block_sums_match_the_papers_18() {
        // One recursion level on an even problem: 10 operand sums
        // (tA/tB builds) + 12 quadrant accumulations, each (n/2)^2
        // elementwise adds/subs. The paper counts 18 "matrix additions"
        // because it counts C-quadrant writes as 8 combinations; our
        // accumulate-in-place scheme performs 12 cheaper ones. Verify the
        // additive volume: (10 + 12) * (n/2)^2.
        let n = 8usize;
        // Stop after one level: (4,4,4) -> 4*4+4*4 = 32 <= 32.
        let cfg = CacheConfig::with_words(32);
        let a = gen::standard::<Tracked>(5, n, n);
        let b = gen::standard::<Tracked>(6, n, n);
        let mut c = Matrix::<Tracked>::zeros(n, n);
        let (_, ops) = measure(|| {
            fast_strassen(Tracked(1.0), a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
        });
        let half_sq = (n / 2 * n / 2) as u64;
        // Each of the 7 base-case gemms on (4,4,4) does one add per
        // multiply: 4^3 adds.
        let base_adds = 7 * (n / 2).pow(3) as u64;
        assert_eq!(
            ops.additive() - base_adds,
            22 * half_sq,
            "block-sum volume must be 22 half-squares"
        );
    }

    #[test]
    fn undersized_workspace_grows_transparently() {
        let cfg = CacheConfig::with_words(8);
        let mut ws = StrassenWorkspace::<f64>::with_capacity(1);
        let a = gen::standard::<f64>(1, 12, 12);
        let b = gen::standard::<f64>(2, 12, 12);
        let mut c = Matrix::zeros(12, 12);
        fast_strassen_with(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg, &mut ws);
        let mut c_ref = Matrix::zeros(12, 12);
        reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "fast_strassen")]
    fn shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(4, 4);
        let b = Matrix::<f64>::zeros(5, 4);
        let mut c = Matrix::<f64>::zeros(4, 4);
        fast_strassen(
            1.0,
            a.as_ref(),
            b.as_ref(),
            &mut c.as_mut(),
            &CacheConfig::default(),
        );
    }
}
