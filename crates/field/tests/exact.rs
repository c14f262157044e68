//! The "any algebraic field" claim, made decidable.
//!
//! Every algorithm layer — the packed kernels, the arena Strassen recursion
//! (including its virtual padding for odd sizes), serial AtA, the
//! shared-memory AtA-S and the distributed AtA-D on the simulated
//! cluster — is run over exact rationals ([`Q64`]) and the prime field
//! [`Gf31`], and compared to the naive `O(n^3)` oracle with **exact
//! equality**. There is no tolerance anywhere in this file: one dropped
//! term or sign error in any recombination fails the suite.

use ata_core::{ata_into, ata_s};
use ata_field::{Gf31, Q64};
use ata_kernels::{gemm_tn, syrk_ln, CacheConfig};
use ata_mat::{reference, Matrix, Scalar};
use ata_strassen::{fast_strassen, winograd_strassen};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random rational matrix with small numerators and dyadic-ish
/// denominators, so reduced intermediates stay far from `i64` range.
fn rational_matrix(seed: u64, m: usize, n: usize) -> Matrix<Q64> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(m, n, |_, _| {
        Q64::new(rng.random_range(-4i64..=4), rng.random_range(1i64..=4))
    })
}

/// Random prime-field matrix over the full representative range.
fn gf_matrix(seed: u64, m: usize, n: usize) -> Matrix<Gf31> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(m, n, |_, _| Gf31::new(rng.random_range(0i64..1 << 31)))
}

/// Exact equality of full matrices, with a readable failure message.
fn assert_matrix_eq<T: Scalar>(got: &Matrix<T>, want: &Matrix<T>, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            assert_eq!(
                got[(i, j)],
                want[(i, j)],
                "{what}: first mismatch at ({i}, {j})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The packed kernels are exact over both fields.
// ---------------------------------------------------------------------

#[test]
fn kernels_exact_over_q() {
    for &(m, n, k) in &[(7, 5, 6), (16, 16, 16), (13, 9, 11), (1, 8, 3)] {
        let a = rational_matrix(m as u64 * 100 + n as u64, m, n);
        let b = rational_matrix(k as u64 * 7 + 1, m, k);
        let mut c = Matrix::zeros(n, k);
        let mut c_ref = Matrix::zeros(n, k);
        gemm_tn(Q64::ONE, a.as_ref(), b.as_ref(), &mut c.as_mut());
        reference::gemm_tn(Q64::ONE, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert_matrix_eq(&c, &c_ref, &format!("gemm_tn Q ({m},{n},{k})"));

        let mut g = Matrix::zeros(n, n);
        let mut g_ref = Matrix::zeros(n, n);
        syrk_ln(Q64::ONE, a.as_ref(), &mut g.as_mut());
        reference::syrk_ln(Q64::ONE, a.as_ref(), &mut g_ref.as_mut());
        assert_matrix_eq(&g, &g_ref, &format!("syrk_ln Q ({m},{n})"));
    }
}

#[test]
fn kernels_exact_over_gf31() {
    for &(m, n, k) in &[(8, 6, 9), (17, 13, 5), (32, 32, 32)] {
        let a = gf_matrix(m as u64 * 31 + n as u64, m, n);
        let b = gf_matrix(k as u64 * 17 + 3, m, k);
        let mut c = Matrix::zeros(n, k);
        let mut c_ref = Matrix::zeros(n, k);
        gemm_tn(Gf31::ONE, a.as_ref(), b.as_ref(), &mut c.as_mut());
        reference::gemm_tn(Gf31::ONE, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert_matrix_eq(&c, &c_ref, &format!("gemm_tn GF ({m},{n},{k})"));
    }
}

// ---------------------------------------------------------------------
// Strassen's recombination is exact over both fields — including odd
// sizes, where the virtual-padding bookkeeping must drop exactly the
// right rows and columns.
// ---------------------------------------------------------------------

#[test]
fn strassen_exact_over_q() {
    let cfg = CacheConfig::with_words(8);
    for &(m, n, k) in &[(8, 8, 8), (7, 7, 7), (9, 6, 15), (13, 10, 11), (5, 17, 3)] {
        let a = rational_matrix(m as u64 + 1, m, n);
        let b = rational_matrix(n as u64 + 2, m, k);
        let mut c = Matrix::zeros(n, k);
        let mut c_ref = Matrix::zeros(n, k);
        fast_strassen(Q64::ONE, a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
        reference::gemm_tn(Q64::ONE, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert_matrix_eq(&c, &c_ref, &format!("strassen Q ({m},{n},{k})"));
    }
}

#[test]
fn strassen_exact_over_gf31() {
    let cfg = CacheConfig::with_words(8);
    for &(m, n, k) in &[(16, 16, 16), (11, 13, 7), (23, 5, 19), (6, 27, 9)] {
        let a = gf_matrix(m as u64 + 41, m, n);
        let b = gf_matrix(n as u64 + 42, m, k);
        let mut c = Matrix::zeros(n, k);
        let mut c_ref = Matrix::zeros(n, k);
        fast_strassen(Gf31::ONE, a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
        reference::gemm_tn(Gf31::ONE, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert_matrix_eq(&c, &c_ref, &format!("strassen GF ({m},{n},{k})"));
    }
}

#[test]
fn winograd_exact_over_both_fields() {
    // The Winograd rearrangement shares intermediate sums (U2/U3); over
    // a field the sharing is exact, so it must match classic Strassen
    // and the oracle bit-for-bit — including odd shapes where the
    // in-place operand chains interact with virtual padding.
    let cfg = CacheConfig::with_words(8);
    for &(m, n, k) in &[(8, 8, 8), (9, 7, 11), (13, 5, 10)] {
        let a = rational_matrix(m as u64 + 60, m, n);
        let b = rational_matrix(n as u64 + 61, m, k);
        let mut c_win = Matrix::zeros(n, k);
        let mut c_cls = Matrix::zeros(n, k);
        let mut c_ref = Matrix::zeros(n, k);
        winograd_strassen(Q64::ONE, a.as_ref(), b.as_ref(), &mut c_win.as_mut(), &cfg);
        fast_strassen(Q64::ONE, a.as_ref(), b.as_ref(), &mut c_cls.as_mut(), &cfg);
        reference::gemm_tn(Q64::ONE, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert_matrix_eq(&c_win, &c_ref, &format!("winograd Q ({m},{n},{k})"));
        assert_matrix_eq(&c_win, &c_cls, &format!("winograd=classic Q ({m},{n},{k})"));
    }
    for &(m, n, k) in &[(16, 16, 16), (11, 13, 7)] {
        let a = gf_matrix(m as u64 + 70, m, n);
        let b = gf_matrix(n as u64 + 71, m, k);
        let mut c_win = Matrix::zeros(n, k);
        let mut c_ref = Matrix::zeros(n, k);
        winograd_strassen(Gf31::ONE, a.as_ref(), b.as_ref(), &mut c_win.as_mut(), &cfg);
        reference::gemm_tn(Gf31::ONE, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert_matrix_eq(&c_win, &c_ref, &format!("winograd GF ({m},{n},{k})"));
    }
}

#[test]
fn strassen_respects_alpha_over_q() {
    // alpha = -3/2 exercises the signed accumulate paths exactly.
    let cfg = CacheConfig::with_words(8);
    let (m, n, k) = (10, 9, 8);
    let a = rational_matrix(5, m, n);
    let b = rational_matrix(6, m, k);
    let alpha = Q64::new(-3, 2);
    let mut c = rational_matrix(7, n, k);
    let mut c_ref = c.clone();
    fast_strassen(alpha, a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
    reference::gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
    assert_matrix_eq(&c, &c_ref, "strassen Q alpha=-3/2");
}

// ---------------------------------------------------------------------
// AtA (Algorithm 1) is exact over both fields.
// ---------------------------------------------------------------------

#[test]
fn ata_exact_over_q() {
    let cfg = CacheConfig::with_words(8);
    for &(m, n) in &[(8, 8), (9, 7), (15, 12), (5, 21), (21, 5), (1, 6)] {
        let a = rational_matrix(m as u64 * 3 + n as u64, m, n);
        let mut c = Matrix::zeros(n, n);
        let mut c_ref = Matrix::zeros(n, n);
        ata_into(Q64::ONE, a.as_ref(), &mut c.as_mut(), &cfg);
        reference::syrk_ln(Q64::ONE, a.as_ref(), &mut c_ref.as_mut());
        assert_matrix_eq(&c, &c_ref, &format!("AtA Q ({m},{n})"));
    }
}

#[test]
fn ata_exact_over_gf31() {
    let cfg = CacheConfig::with_words(8);
    for &(m, n) in &[(16, 16), (13, 11), (7, 18), (25, 6)] {
        let a = gf_matrix(m as u64 * 5 + n as u64, m, n);
        let mut c = Matrix::zeros(n, n);
        let mut c_ref = Matrix::zeros(n, n);
        ata_into(Gf31::ONE, a.as_ref(), &mut c.as_mut(), &cfg);
        reference::syrk_ln(Gf31::ONE, a.as_ref(), &mut c_ref.as_mut());
        assert_matrix_eq(&c, &c_ref, &format!("AtA GF ({m},{n})"));
    }
}

#[test]
fn gram_is_exactly_symmetric_over_q() {
    // Compute the full Gram matrix from its lower triangle and verify
    // C[i][j] == C[j][i] as rationals — symmetry is exact, not approximate.
    let cfg = CacheConfig::with_words(8);
    let a = rational_matrix(99, 12, 10);
    let mut c = Matrix::zeros(10, 10);
    ata_into(Q64::ONE, a.as_ref(), &mut c.as_mut(), &cfg);
    let mut full = Matrix::zeros(10, 10);
    reference::gemm_tn(Q64::ONE, a.as_ref(), a.as_ref(), &mut full.as_mut());
    for i in 0..10 {
        for j in 0..=i {
            assert_eq!(c[(i, j)], full[(i, j)]);
            assert_eq!(c[(i, j)], full[(j, i)], "Gram symmetry at ({i},{j})");
        }
    }
}

// ---------------------------------------------------------------------
// The parallel algorithms are exact too: field ops are associative and
// commutative, so thread/rank decomposition cannot change the result.
// ---------------------------------------------------------------------

#[test]
fn ata_s_exact_over_q() {
    let cfg = CacheConfig::with_words(8);
    let (m, n) = (18, 14);
    let a = rational_matrix(123, m, n);
    let mut c_ref = Matrix::zeros(n, n);
    reference::syrk_ln(Q64::ONE, a.as_ref(), &mut c_ref.as_mut());
    for threads in [1usize, 2, 4, 7] {
        let mut c = Matrix::zeros(n, n);
        ata_s(Q64::ONE, a.as_ref(), &mut c.as_mut(), threads, &cfg);
        assert_matrix_eq(&c, &c_ref, &format!("AtA-S Q (P={threads})"));
    }
}

#[test]
fn ata_s_exact_over_gf31() {
    let cfg = CacheConfig::with_words(8);
    let (m, n) = (20, 16);
    let a = gf_matrix(321, m, n);
    let mut c_ref = Matrix::zeros(n, n);
    reference::syrk_ln(Gf31::ONE, a.as_ref(), &mut c_ref.as_mut());
    for threads in [1usize, 3, 8] {
        let mut c = Matrix::zeros(n, n);
        ata_s(Gf31::ONE, a.as_ref(), &mut c.as_mut(), threads, &cfg);
        assert_matrix_eq(&c, &c_ref, &format!("AtA-S GF (P={threads})"));
    }
}

#[test]
fn ata_d_exact_over_gf31_on_simulated_cluster() {
    use ata_dist::{ata_d, AtaDConfig};
    use ata_mpisim::{run, CostModel};

    let (m, n) = (24, 20);
    let a = gf_matrix(7, m, n);
    let mut c_ref = Matrix::zeros(n, n);
    reference::syrk_ln(Gf31::ONE, a.as_ref(), &mut c_ref.as_mut());

    for p in [1usize, 4, 6, 8] {
        let a_root = a.clone();
        let cfg = AtaDConfig {
            cache: CacheConfig::with_words(8),
            ..AtaDConfig::default()
        };
        let report = run::<Gf31, _, _>(p, CostModel::zero(), move |comm| {
            let input = (comm.rank() == 0).then_some(&a_root);
            ata_d(input, m, n, comm, &cfg)
        });
        let c = report
            .results
            .into_iter()
            .flatten()
            .next()
            .expect("root returns C");
        assert_matrix_eq(&c, &c_ref, &format!("AtA-D GF (P={p})"));
    }
}
