//! Forward-error measurement for the fast `A^T A` algorithms.
//!
//! Strassen-type algorithms trade numerical headroom for speed: their
//! block recombinations satisfy a weaker error bound than the classical
//! inner-product algorithm (Higham, *Accuracy and Stability of Numerical
//! Algorithms*, §23.2.2). The paper does not evaluate accuracy; this
//! module adds the standard study so that users of `AtA` know what the
//! `2/3`-of-Strassen flop saving costs in ulps, and `bin/accuracy`
//! regenerates the sweep.
//!
//! Three pieces:
//!
//! * a **double-double reference**: Gram matrices computed with exact
//!   FMA-based product splitting and compensated accumulation
//!   ([`compensated_gram`]), accurate to ~2^-105 — a valid ground truth
//!   for measuring the error of *both* `f32` and `f64` runs;
//! * [`gram_forward_error`], turning a computed lower triangle plus the
//!   reference into max-abs / componentwise-relative / Frobenius error
//!   statistics ([`ErrorStats`]);
//! * Higham's **bound factors** ([`classical_bound_factor`],
//!   [`strassen_bound_factor`]) against which the measured errors are
//!   asserted — measured error must stay below `factor * u * ||A||^2`
//!   scale, and the test suite enforces it.

use ata_mat::{MatRef, Matrix, Scalar};

/// Error-free transformation of a sum: returns `(s, e)` with
/// `s = fl(a + b)` and `a + b = s + e` exactly (Knuth / Møller two-sum,
/// valid for any ordering of magnitudes).
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let ap = s - b;
    let bp = s - ap;
    let e = (a - ap) + (b - bp);
    (s, e)
}

/// Error-free transformation of a product: returns `(p, e)` with
/// `p = fl(a * b)` and `a * b = p + e` exactly. Uses the FMA, which
/// rounds `a * b - p` once.
#[inline]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = f64::mul_add(a, b, -p);
    (p, e)
}

/// Dot product in double-double arithmetic: the result is the correctly
/// rounded head of a ~106-bit accumulation (Ogita–Rump–Oishi `Dot2`).
pub fn dd_dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut hi = 0.0f64;
    let mut lo = 0.0f64;
    for (&xi, &yi) in x.iter().zip(y) {
        let (p, pe) = two_prod(xi, yi);
        let (s, se) = two_sum(hi, p);
        hi = s;
        lo += se + pe;
    }
    hi + lo
}

/// Strided dot product `sum_k a[k, i] * a[k, j]` in double-double
/// arithmetic — the column-column inner products of the Gram matrix,
/// without materializing `A^T`.
fn dd_dot_cols(a: MatRef<'_, f64>, i: usize, j: usize) -> f64 {
    let mut hi = 0.0f64;
    let mut lo = 0.0f64;
    for k in 0..a.rows() {
        let row = a.row(k);
        let (p, pe) = two_prod(row[i], row[j]);
        let (s, se) = two_sum(hi, p);
        hi = s;
        lo += se + pe;
    }
    hi + lo
}

/// Ground-truth Gram matrix: lower triangle of `A^T A` via double-double
/// column dots, strict upper zero — accurate to far below one `f64` ulp
/// of each entry, hence usable as the "exact" value when measuring both
/// `f32` and `f64` algorithm runs.
pub fn compensated_gram(a: MatRef<'_, f64>) -> Matrix<f64> {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            c[(i, j)] = dd_dot_cols(a, i, j);
        }
    }
    c
}

/// Lower triangle of `|A|^T |A|` in plain `f64` — the natural
/// componentwise *scale* of each Gram entry's computation. Higham's
/// bounds are all of the form `|C - Ĉ| <= factor * u * (|A|^T|A|)`,
/// so errors divided by this matrix are directly comparable to the
/// factors below. (Entries of `|A|^T|A|` cannot suffer cancellation,
/// so plain `f64` is plenty accurate for a denominator.)
pub fn abs_gram(a: MatRef<'_, f64>) -> Matrix<f64> {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    for k in 0..a.rows() {
        let row = a.row(k);
        for i in 0..n {
            let ai = row[i].abs();
            for (j, v) in row[..=i].iter().enumerate() {
                c[(i, j)] += ai * v.abs();
            }
        }
    }
    c
}

/// Forward-error statistics of a computed Gram matrix against a
/// reference (both lower-triangular-only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// `max_{i>=j} |C - C_ref|`.
    pub max_abs: f64,
    /// `max_{i>=j} |C - C_ref| / max(|C_ref|, tiny)` — componentwise
    /// relative error; entries whose reference magnitude is below
    /// `norm * 1e-8` are measured against the norm instead (pure
    /// cancellation entries would otherwise dominate meaninglessly).
    pub max_rel: f64,
    /// `||C - C_ref||_F / ||C_ref||_F` over the lower triangle.
    pub fro_rel: f64,
}

/// Compare the lower triangle of `computed` (any scalar type) against a
/// double-double reference.
///
/// # Panics
/// If shapes differ or the matrices are not square.
pub fn gram_forward_error<T: Scalar>(computed: &Matrix<T>, reference: &Matrix<f64>) -> ErrorStats {
    let n = reference.rows();
    assert_eq!(reference.shape(), (n, n), "reference must be square");
    assert_eq!(
        computed.shape(),
        (n, n),
        "computed/reference shape mismatch"
    );

    // Scale floor for relative error: largest reference magnitude.
    let mut norm = 0.0f64;
    for i in 0..n {
        for j in 0..=i {
            norm = norm.max(reference[(i, j)].abs());
        }
    }
    let floor = norm.max(f64::MIN_POSITIVE) * 1e-8;

    let (mut max_abs, mut max_rel) = (0.0f64, 0.0f64);
    let (mut dfro, mut rfro) = (0.0f64, 0.0f64);
    for i in 0..n {
        for j in 0..=i {
            let r = reference[(i, j)];
            let d = (computed[(i, j)].to_f64() - r).abs();
            max_abs = max_abs.max(d);
            max_rel = max_rel.max(d / r.abs().max(floor));
            dfro += d * d;
            rfro += r * r;
        }
    }
    ErrorStats {
        max_abs,
        max_rel,
        fro_rel: if rfro > 0.0 {
            (dfro / rfro).sqrt()
        } else {
            0.0
        },
    }
}

/// Componentwise error in Higham units: `max_{i>=j} |C - C_ref|_{ij} /
/// (u * scale_{ij})` where `scale` is [`abs_gram`] of the input and `u`
/// the unit roundoff of the computing type. The result is directly
/// comparable to [`classical_bound_factor`] / [`strassen_bound_factor`]:
/// a correct classical implementation must return less than `m`.
///
/// Entries whose scale is zero (both columns zero) are skipped — their
/// error is exactly zero for any correct algorithm, which the function
/// asserts.
///
/// # Panics
/// If shapes differ, or a zero-scale entry carries error.
pub fn componentwise_factor<T: Scalar>(
    computed: &Matrix<T>,
    reference: &Matrix<f64>,
    scale: &Matrix<f64>,
    unit_roundoff: f64,
) -> f64 {
    let n = reference.rows();
    assert_eq!(computed.shape(), (n, n), "computed shape");
    assert_eq!(scale.shape(), (n, n), "scale shape");
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in 0..=i {
            let d = (computed[(i, j)].to_f64() - reference[(i, j)]).abs();
            let s = scale[(i, j)];
            if s == 0.0 {
                assert_eq!(d, 0.0, "error on a structurally-zero entry ({i},{j})");
            } else {
                worst = worst.max(d / (unit_roundoff * s));
            }
        }
    }
    worst
}

/// Higham's componentwise bound factor for the classical inner-product
/// algorithm: `|C - Ĉ| <= gamma_m |A|^T |A|` with `gamma_m ≈ m u`, so the
/// factor (in units of `u * (|A|^T|A|)_{ij}`) is `m`, the dot length.
pub fn classical_bound_factor(m: usize) -> f64 {
    m as f64
}

/// Higham's normwise bound factor for Strassen with base size `n0`
/// (Accuracy and Stability, 2nd ed., Eq. 23.10):
///
/// ```text
/// ||C - Ĉ|| <= [ (n/n0)^(log2 12) (n0^2 + 5 n0) - 5 n ] u ||A|| ||B|| + O(u^2)
/// ```
///
/// (max-norms). At `n0 = n` (no recursion) it reduces to the classical
/// `n^2` max-norm factor; each extra level multiplies the leading term
/// by 12/4 = 3 — the well-known `n^(log2 12)` growth.
///
/// # Panics
/// If `n0 == 0` or `n < n0`.
pub fn strassen_bound_factor(n: usize, n0: usize) -> f64 {
    assert!(n0 > 0, "base size must be positive");
    assert!(n >= n0, "n must be at least the base size");
    let ratio = n as f64 / n0 as f64;
    let levels_factor = ratio.powf(12f64.log2());
    levels_factor * (n0 as f64 * n0 as f64 + 5.0 * n0 as f64) - 5.0 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::ata_into;
    use ata_kernels::{syrk_ln, CacheConfig};
    use ata_mat::{gen, reference};

    #[test]
    fn two_sum_is_error_free() {
        // Catastrophic case: the error term recovers what the sum lost.
        let (s, e) = two_sum(1e16, 1.0);
        assert_eq!(s, 1e16);
        assert_eq!(e, 1.0);
        let (s, e) = two_sum(0.1, 0.2);
        // s + e reproduces the exact real sum of the two representable
        // inputs: check via higher-precision identity s + e == a + b.
        assert_eq!(s, 0.1 + 0.2);
        assert!(e != 0.0, "0.1 + 0.2 is inexact in f64");
    }

    #[test]
    fn two_prod_is_error_free() {
        let a = 1.0 + f64::EPSILON; // 1 + 2^-52
        let (p, e) = two_prod(a, a);
        // a^2 = 1 + 2^-51 + 2^-104; p rounds away the 2^-104 term.
        assert_eq!(p, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(e, f64::EPSILON * f64::EPSILON);
        // Exact products have zero error term.
        let (p, e) = two_prod(3.0, 4.0);
        assert_eq!((p, e), (12.0, 0.0));
    }

    #[test]
    fn dd_dot_survives_cancellation() {
        // Naive summation loses the 1.0 entirely; Dot2 keeps it.
        let x = [1e16, 1.0, -1e16];
        let y = [1.0, 1.0, 1.0];
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert_eq!(naive, 0.0, "naive sum demonstrates the failure");
        assert_eq!(dd_dot(&x, &y), 1.0);
    }

    #[test]
    fn dd_dot_matches_integer_ground_truth() {
        let x: Vec<f64> = (1..=100).map(|k| k as f64).collect();
        let s = dd_dot(&x, &x);
        // sum k^2 = n(n+1)(2n+1)/6 = 338350.
        assert_eq!(s, 338350.0);
    }

    #[test]
    fn compensated_gram_exact_on_integers() {
        let a = gen::ternary::<f64>(3, 40, 12);
        let g = compensated_gram(a.as_ref());
        let mut g_ref = Matrix::zeros(12, 12);
        reference::syrk_ln(1.0, a.as_ref(), &mut g_ref.as_mut());
        assert_eq!(g.max_abs_diff_lower(&g_ref), 0.0);
    }

    #[test]
    fn error_stats_zero_for_identical() {
        let a = gen::standard::<f64>(1, 20, 10);
        let g = compensated_gram(a.as_ref());
        let st = gram_forward_error(&g, &g);
        assert_eq!(st.max_abs, 0.0);
        assert_eq!(st.max_rel, 0.0);
        assert_eq!(st.fro_rel, 0.0);
    }

    #[test]
    fn error_stats_detect_injected_fault() {
        let a = gen::standard::<f64>(2, 16, 8);
        let g = compensated_gram(a.as_ref());
        let mut bad = g.clone();
        bad[(5, 3)] += 1e-3;
        let st = gram_forward_error(&bad, &g);
        assert!((st.max_abs - 1e-3).abs() < 1e-12);
        assert!(st.max_rel > 0.0);
        assert!(st.fro_rel > 0.0);
    }

    #[test]
    fn f32_syrk_error_is_f32_scale_and_below_classical_bound() {
        let m = 64usize;
        let a64 = gen::standard::<f64>(7, m, 24);
        let a32 = Matrix::from_fn(m, 24, |i, j| a64[(i, j)] as f32);
        let reference = compensated_gram(a64.as_ref());
        let mut c = Matrix::<f32>::zeros(24, 24);
        syrk_ln(1.0f32, a32.as_ref(), &mut c.as_mut());
        let st = gram_forward_error(&c, &reference);
        // Conversion alone costs up to ~u32 * |entry| per factor; the
        // classical dot bound is gamma_m. Everything is O(m * u32).
        let u32_ = f32::EPSILON as f64;
        let bound = 4.0 * classical_bound_factor(m) * u32_ * m as f64; // |entries| <= 1 => |C| <= m
        assert!(st.max_abs > 0.0, "f32 arithmetic cannot be exact here");
        assert!(st.max_abs < bound, "{} !< {bound}", st.max_abs);
    }

    #[test]
    fn f64_ata_error_below_strassen_bound() {
        let (m, n) = (96usize, 96usize);
        let a = gen::standard::<f64>(11, m, n);
        let reference = compensated_gram(a.as_ref());
        let cfg = CacheConfig::with_words(256); // force several levels
        let mut c = Matrix::<f64>::zeros(n, n);
        ata_into(1.0, a.as_ref(), &mut c.as_mut(), &cfg);
        let st = gram_forward_error(&c, &reference);
        let u = f64::EPSILON;
        // Norm scale ||A||_max^2 * m with entries in [-1,1): <= m.
        let bound = strassen_bound_factor(n, 8) * u * m as f64;
        assert!(st.max_abs < bound, "{} !< {bound}", st.max_abs);
        assert!(st.max_abs > 0.0);
    }

    #[test]
    fn abs_gram_matches_reference_on_abs_input() {
        let a = gen::standard::<f64>(5, 30, 12);
        let a_abs = Matrix::from_fn(30, 12, |i, j| a[(i, j)].abs());
        let mut want = Matrix::zeros(12, 12);
        reference::syrk_ln(1.0, a_abs.as_ref(), &mut want.as_mut());
        let got = abs_gram(a.as_ref());
        assert!(got.max_abs_diff_lower(&want) < 1e-12);
    }

    #[test]
    fn componentwise_factor_respects_higham_classical_bound() {
        // Plain f64 syrk on random data must land below gamma_m = m.
        let (m, n) = (128usize, 48);
        let a = gen::standard::<f64>(9, m, n);
        let reference = compensated_gram(a.as_ref());
        let scale = abs_gram(a.as_ref());
        let mut c = Matrix::<f64>::zeros(n, n);
        syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        let factor = componentwise_factor(&c, &reference, &scale, f64::EPSILON);
        assert!(factor > 0.0, "f64 arithmetic cannot be exact here");
        assert!(
            factor < classical_bound_factor(m),
            "{factor} !< {m} — syrk broke the classical componentwise bound"
        );
    }

    #[test]
    fn componentwise_factor_ata_within_strassen_bound_margin() {
        let (m, n) = (96usize, 96);
        let a = gen::standard::<f64>(13, m, n);
        let reference = compensated_gram(a.as_ref());
        let scale = abs_gram(a.as_ref());
        let cfg = CacheConfig::with_words(256);
        let mut c = Matrix::<f64>::zeros(n, n);
        ata_into(1.0, a.as_ref(), &mut c.as_mut(), &cfg);
        let factor = componentwise_factor(&c, &reference, &scale, f64::EPSILON);
        // The Strassen bound is normwise; componentwise-scaled factors can
        // exceed the classical gamma_m but stay far below the Strassen
        // factor on benign data.
        assert!(factor < strassen_bound_factor(n, 8), "{factor}");
    }

    #[test]
    fn componentwise_factor_skips_structural_zeros() {
        // A zero column makes scale entries exactly zero; a correct
        // algorithm also produces exactly zero there.
        let a = Matrix::<f64>::from_fn(6, 3, |i, j| if j == 1 { 0.0 } else { (i + j) as f64 });
        let reference = compensated_gram(a.as_ref());
        let scale = abs_gram(a.as_ref());
        let mut c = Matrix::<f64>::zeros(3, 3);
        syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        let f = componentwise_factor(&c, &reference, &scale, f64::EPSILON);
        assert_eq!(f, 0.0, "integer data: no rounding at all");
    }

    #[test]
    fn bound_factors_reduce_and_grow_sanely() {
        // No recursion: Strassen bound reduces to the classical n^2 + 5n
        // - 5n = n^2 max-norm factor.
        assert_eq!(strassen_bound_factor(64, 64), 64.0 * 64.0);
        // One extra level multiplies the leading term by ~3.
        let one = strassen_bound_factor(128, 64);
        let zero = strassen_bound_factor(128, 128);
        assert!(one > zero, "recursion weakens the bound");
        // Monotone in n for fixed base.
        assert!(strassen_bound_factor(256, 16) > strassen_bound_factor(128, 16));
        assert_eq!(classical_bound_factor(1000), 1000.0);
    }

    #[test]
    fn mirror_lower_reflects() {
        let mut c = Matrix::<f64>::zeros(3, 3);
        c[(1, 0)] = 5.0;
        c[(2, 1)] = 7.0;
        c[(0, 0)] = 1.0;
        let mut full = c.clone();
        full.mirror_lower_to_upper();
        assert_eq!(full[(0, 1)], 5.0);
        assert_eq!(full[(1, 2)], 7.0);
        assert!(full.is_symmetric(0.0));
    }

    #[test]
    #[should_panic(expected = "base size must be positive")]
    fn zero_base_rejected() {
        let _ = strassen_bound_factor(8, 0);
    }
}
