//! Algorithm 2 (`RecursiveGEMM`) and `AtANaive` — the naive recursive
//! variants the paper defines alongside AtA.
//!
//! `RecursiveGEMM` is the classical divide-and-conquer `C += A^T B`
//! (eight recursive sub-products, no Strassen); `AtANaive` is Algorithm 1
//! with `RecursiveGEMM` in place of `FastStrassen`. The paper uses their
//! recursion *trees* to schedule the parallel algorithms (§4.1.3: naive
//! recursion avoids Strassen's extra memory and keeps the workload
//! balanceable), and they double as cache-oblivious baselines: same
//! memory behaviour as AtA, classical flop count.

use ata_kernels::{gemm_tn, syrk_ln, CacheConfig};
use ata_mat::{half_up, MatMut, MatRef, Scalar};

/// Algorithm 2: `C += alpha * A^T B` by eight-way recursion.
///
/// Base case (the paper's line 2): [`CacheConfig::gemm_base`], where the
/// packed `gemm_tn` kernel runs.
///
/// Shapes: `A: m x n`, `B: m x k`, `C: n x k`.
#[allow(clippy::needless_range_loop)] // the [l][i]/[l][j] indexing mirrors Algorithm 2
fn recursive_gemm<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &CacheConfig,
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
    let (a11, a12, a21, a22) = a.quad_split();
    let (b11, b12, b21, b22) = b.quad_split();
    let n1 = half_up(n);
    let k1 = half_up(k);

    // The 2x2x2 loop nest of Algorithm 2: C_ij += A_li^T B_lj.
    // (i = A column half, j = B column half, l = shared row half.)
    let a_halves = [[a11, a12], [a21, a22]]; // indexed [l][i]
    let b_halves = [[b11, b12], [b21, b22]]; // indexed [l][j]
    for i in 0..2 {
        for j in 0..2 {
            let (r0, r1) = if i == 0 { (0, n1) } else { (n1, n) };
            let (q0, q1) = if j == 0 { (0, k1) } else { (k1, k) };
            for l in 0..2 {
                let mut cij = c.block_mut(r0, r1, q0, q1);
                recursive_gemm(alpha, a_halves[l][i], b_halves[l][j], &mut cij, cfg);
            }
        }
    }
}

/// `AtANaive`: Algorithm 1 with `RecursiveGEMM` for the off-diagonal
/// block — the variant whose recursion tree drives the §4.1 scheduler.
///
/// Shapes: `A: m x n`, `C: n x n` (lower triangle only).
///
/// # Panics
/// On inconsistent shapes.
pub fn ata_naive<T: Scalar>(alpha: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>, cfg: &CacheConfig) {
    let (m, n) = a.shape();
    assert_eq!(
        c.shape(),
        (n, n),
        "ata_naive: C must be {n}x{n}, got {:?}",
        c.shape()
    );
    if m == 0 || n == 0 {
        return;
    }
    rec_naive(alpha, a, c, cfg);
}

fn rec_naive<T: Scalar>(alpha: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>, cfg: &CacheConfig) {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return;
    }
    if cfg.ata_base(m, n) {
        syrk_ln(alpha, a, c);
        return;
    }
    let n1 = half_up(n);
    let (a11, a12, a21, a22) = a.quad_split();
    {
        let mut c11 = c.block_mut(0, n1, 0, n1);
        rec_naive(alpha, a11, &mut c11, cfg);
    }
    {
        let mut c11 = c.block_mut(0, n1, 0, n1);
        rec_naive(alpha, a21, &mut c11, cfg);
    }
    {
        let mut c22 = c.block_mut(n1, n, n1, n);
        rec_naive(alpha, a12, &mut c22, cfg);
    }
    {
        let mut c22 = c.block_mut(n1, n, n1, n);
        rec_naive(alpha, a22, &mut c22, cfg);
    }
    {
        let mut c21 = c.block_mut(n1, n, 0, n1);
        recursive_gemm(alpha, a12, a11, &mut c21, cfg);
    }
    {
        let mut c21 = c.block_mut(n1, n, 0, n1);
        recursive_gemm(alpha, a22, a21, &mut c21, cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::tracked::{measure, Tracked};
    use ata_mat::{gen, reference, Matrix};

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
        let (m, n) = (24usize, 20usize);
        let a = gen::ternary::<f64>(4, m, n);
        let cfg = CacheConfig::with_words(16);
        let mut naive = Matrix::zeros(n, n);
        ata_naive(1.0, a.as_ref(), &mut naive.as_mut(), &cfg);
        let mut fast = Matrix::zeros(n, n);
        crate::serial::ata_into(1.0, a.as_ref(), &mut fast.as_mut(), &cfg);
        assert_eq!(naive.max_abs_diff_lower(&fast), 0.0);
    }

    #[test]
    #[should_panic(expected = "ata_naive")]
    fn shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(3, 3);
        let mut c = Matrix::<f64>::zeros(4, 4);
        ata_naive(1.0, a.as_ref(), &mut c.as_mut(), &CacheConfig::default());
    }
}
