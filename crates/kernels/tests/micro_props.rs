//! Property-based coverage for the packed microkernel engine
//! (`ata_kernels::micro`): oracle agreement on adversarial shapes,
//! strided `quad_split` views, both float precisions, and the exact
//! operation-count ledger under the op-counting `Tracked` scalar, from
//! empty shapes up.

use ata_kernels::micro::{gemm_tn_micro_path, micro_path_for, syrk_ln_micro_path, KernelConfig};
use ata_mat::tracked::{measure, Tracked};
use ata_mat::{gen, reference, Matrix, Scalar};
use proptest::prelude::*;

const PRIMES: [usize; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Map a generated `(class, m0, n0, k0, p)` tuple onto a stress shape:
/// balanced, prime-sided, very tall (`m >> n`), or very wide (`n >> m`).
fn shape(class: usize, m0: usize, n0: usize, k0: usize, p: usize) -> (usize, usize, usize) {
    match class % 4 {
        0 => (m0, n0, k0),
        1 => (PRIMES[p % 12], PRIMES[(p + 5) % 12], PRIMES[(p + 9) % 12]),
        2 => (16 * m0, 1 + n0 / 8, 1 + k0 / 8), // m >> n, k
        _ => (1 + m0 / 8, 12 * n0, k0),         // n >> m
    }
}

/// The two blocking configs the properties alternate between: the
/// measured default and a deliberately tiny one that forces every loop
/// in the nest (multiple KC/MC/NC blocks, ragged edge tiles) even on
/// small generated shapes.
fn config<T: Scalar>(tiny: bool) -> KernelConfig {
    if tiny {
        KernelConfig::new(4, 4, 8, 12, 16)
    } else {
        KernelConfig::for_scalar::<T>()
    }
}

fn tol(m: usize, n: usize, eps_scale: f64) -> f64 {
    ata_mat::ops::product_tol::<f64>(m, n, m as f64) * eps_scale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn micro_gemm_matches_oracle_on_stress_shapes(
        class in 0usize..4,
        m0 in 1usize..48,
        n0 in 1usize..48,
        k0 in 1usize..48,
    ) {
        let (m, n, k) = shape(class, m0, n0, k0, m0 + n0);
        let a = gen::standard::<f64>(m as u64 * 7 + n as u64, m, n);
        let b = gen::standard::<f64>(k as u64 * 13 + 1, m, k);
        let mut fast = gen::standard::<f64>(3, n, k);
        let mut slow = fast.clone();
        let cfg = config::<f64>(class % 2 == 0);
        let path = micro_path_for::<f64>();
        gemm_tn_micro_path(path, 1.0, a.as_ref(), b.as_ref(), &mut fast.as_mut(), &cfg);
        reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut slow.as_mut());
        prop_assert!(fast.max_abs_diff(&slow) <= tol(m.max(n), n.max(k), 2.0));
    }

    #[test]
    fn micro_gemm_alpha_accumulates_like_oracle(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        alpha in -3.0f64..3.0,
    ) {
        let a = gen::standard::<f64>(11 + m as u64, m, n);
        let b = gen::standard::<f64>(17 + k as u64, m, k);
        let mut fast = gen::standard::<f64>(5, n, k);
        let mut slow = fast.clone();
        let cfg = config::<f64>(true);
        let path = micro_path_for::<f64>();
        gemm_tn_micro_path(path, alpha, a.as_ref(), b.as_ref(), &mut fast.as_mut(), &cfg);
        reference::gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut slow.as_mut());
        prop_assert!(fast.max_abs_diff(&slow) <= tol(m.max(n), n.max(k), 4.0));
    }

    #[test]
    fn micro_gemm_on_strided_quad_views(
        rows in 2usize..48,
        cols in 2usize..48,
        seed in 0u64..500,
        tiny in 0usize..2,
    ) {
        // Multiply quadrants of a larger matrix in place: every operand
        // is a strided view, the case packing must handle without
        // touching out-of-view memory.
        let big_a = gen::standard::<f64>(seed, rows, cols);
        let big_b = gen::standard::<f64>(seed + 1, rows, cols);
        let (_, _, a21, _) = big_a.as_ref().quad_split();
        let (_, _, b21, b22) = big_b.as_ref().quad_split();
        let cfg = config::<f64>(tiny == 1);
        let (m, n) = a21.shape();
        let k = b21.cols();
        let mut fast = Matrix::zeros(n, k);
        let mut slow = Matrix::zeros(n, k);
        let path = micro_path_for::<f64>();
        gemm_tn_micro_path(path, 1.0, a21, b21, &mut fast.as_mut(), &cfg);
        reference::gemm_tn(1.0, a21, b21, &mut slow.as_mut());
        prop_assert!(fast.max_abs_diff(&slow) <= tol(m.max(n), n.max(k), 2.0));
        // And with mismatched quadrants (different column offsets).
        let k2 = b22.cols();
        let mut fast2 = Matrix::zeros(n, k2);
        let mut slow2 = Matrix::zeros(n, k2);
        gemm_tn_micro_path(path, 1.0, a21, b22, &mut fast2.as_mut(), &cfg);
        reference::gemm_tn(1.0, a21, b22, &mut slow2.as_mut());
        prop_assert!(fast2.max_abs_diff(&slow2) <= tol(m.max(n), n.max(k2), 2.0));
    }

    #[test]
    fn micro_gemm_f32_path(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        tiny in 0usize..2,
    ) {
        let a = gen::standard::<f32>(2 + m as u64, m, n);
        let b = gen::standard::<f32>(4 + k as u64, m, k);
        let mut fast = Matrix::<f32>::zeros(n, k);
        let mut slow = Matrix::<f32>::zeros(n, k);
        let cfg = config::<f32>(tiny == 1);
        let path = micro_path_for::<f32>();
        gemm_tn_micro_path(path, 1.0f32, a.as_ref(), b.as_ref(), &mut fast.as_mut(), &cfg);
        reference::gemm_tn(1.0f32, a.as_ref(), b.as_ref(), &mut slow.as_mut());
        let tol32 = ata_mat::ops::product_tol::<f32>(m.max(n), n.max(k), m as f64) * 2.0;
        prop_assert!((fast.max_abs_diff(&slow)) <= tol32);
    }

    #[test]
    fn micro_syrk_matches_oracle_and_spares_upper(
        class in 0usize..4,
        m0 in 1usize..48,
        n0 in 1usize..48,
    ) {
        let (m, n, _) = shape(class, m0, n0, 1, m0 + 3);
        let a = gen::standard::<f64>(m as u64 * 3 + n as u64, m, n);
        let mut fast = gen::standard::<f64>(9, n, n);
        let mut slow = fast.clone();
        let cfg = config::<f64>(class % 2 == 1);
        let path = micro_path_for::<f64>();
        syrk_ln_micro_path(path, 1.0, a.as_ref(), &mut fast.as_mut(), &cfg);
        reference::syrk_ln(1.0, a.as_ref(), &mut slow.as_mut());
        let diff = fast.max_abs_diff_lower(&slow);
        prop_assert!(diff <= tol(m.max(n), n, 2.0));
        // Strict upper entries started as identical garbage in both and
        // must remain untouched by both.
        prop_assert_eq!(fast.max_abs_diff(&slow), diff);
    }

    #[test]
    fn tracked_op_counts_match_the_reference_kernels(
        m in 0usize..28,
        n in 0usize..28,
        k in 0usize..28,
    ) {
        // The exact ledger on the alpha = 1 hot path (the one every
        // Strassen product and every measured-flop validation runs): one
        // multiplication and one addition per (i, j, p) of the product,
        // on any shape, empty ones included.
        let a = gen::standard::<Tracked>(1, m, n);
        let b = gen::standard::<Tracked>(2, m, k);
        let cfg = config::<Tracked>(true);
        let mut c = Matrix::<Tracked>::zeros(n, k);
        let path = micro_path_for::<Tracked>();
        let (_, ops) = measure(|| {
            gemm_tn_micro_path(path, Tracked(1.0), a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
        });
        let volume = (m * n * k) as u64;
        prop_assert_eq!((ops.muls, ops.adds), (volume, volume));
        prop_assert_eq!((ops.subs, ops.negs), (0, 0));
    }

    #[test]
    fn tracked_syrk_op_counts_match_the_reference_kernel(
        m in 0usize..24,
        n in 0usize..24,
    ) {
        // The lower triangle's multiply-adds, and nothing else.
        let a = gen::standard::<Tracked>(5, m, n);
        let cfg = config::<Tracked>(true);
        let mut c = Matrix::<Tracked>::zeros(n, n);
        let path = micro_path_for::<Tracked>();
        let (_, ops) = measure(|| {
            syrk_ln_micro_path(path, Tracked(1.0), a.as_ref(), &mut c.as_mut(), &cfg);
        });
        let triangle = (m * n * (n + 1) / 2) as u64;
        prop_assert_eq!((ops.muls, ops.adds), (triangle, triangle));
        prop_assert_eq!((ops.subs, ops.negs), (0, 0));
    }
}
