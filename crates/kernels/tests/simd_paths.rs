//! Path-parity properties for the explicit-SIMD microkernel dispatch
//! (`ata_kernels::simd` + the `MicroPath` plumbing in
//! `ata_kernels::micro`):
//!
//! * `portable` and `scalar` are **bit-for-bit** identical — both run the
//!   same unfused per-element accumulation order, so forcing either path
//!   must produce the same bits on every shape, dtype and view.
//! * `intrinsic` is fused (FMA rounds once per multiply-add), so it is
//!   compared against `portable` within the analytic product tolerance,
//!   and must be deterministic run-to-run.
//! * Every tile on every intrinsic menu the host supports (AVX-512 and
//!   AVX2 on an AVX-512 host) holds that contract through explicit
//!   configs, whichever ISA the tuned rows resolve.
//! * Every intrinsic output element, ragged edges and the syrk diagonal
//!   band included, is **bit-for-bit** the fused chain
//!   `acc = c; acc = fma(a_p, b_p, acc)` over the whole reduction, so
//!   the bits do not depend on the tile, `kc`, `mc` or `nc`.
//! * The op-counting `Tracked` scalar has no intrinsic kernels: all three
//!   forced paths must produce the same bits *and* the same op ledger.

use ata_kernels::calibrate::tuned_for_isa;
use ata_kernels::micro::{
    gemm_tn_micro_path, gemm_tn_micro_path_with, micro_path_for, syrk_ln_micro_path,
    syrk_ln_micro_path_with, KernelConfig, MicroPath,
};
use ata_kernels::pack::PackBufs;
use ata_kernels::simd::{self, Isa};
use ata_mat::tracked::{measure, Tracked};
use ata_mat::{gen, Matrix, Scalar};
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

/// A deliberately tiny blocking config (forces multiple KC/MC/NC blocks
/// and ragged edge tiles on small shapes) or the per-scalar default.
fn config(tiny: bool, mr: usize, nr: usize) -> KernelConfig {
    if tiny {
        KernelConfig::new(mr, nr, 8, 12, 16)
    } else {
        KernelConfig::new(mr, nr, 64, 32, 48)
    }
}

fn tol64(m: usize, n: usize) -> f64 {
    ata_mat::ops::product_tol::<f64>(m, n, m as f64) * 4.0
}

fn tol32(m: usize, n: usize) -> f64 {
    ata_mat::ops::product_tol::<f32>(m, n, m as f64) * 4.0
}

/// Bitwise equality (stricter than `max_abs_diff == 0`: distinguishes
/// `-0.0` from `0.0` and would catch NaN payload drift; widening f32 to
/// f64 is exact, so the f64 bits identify the f32 ones).
fn bits_eq<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
}

/// Every tile on the intrinsic menus of `menus` that this host runs,
/// tagged with its ISA.
fn supported_tiles(menus: [(Isa, &'static [(usize, usize)]); 2]) -> Vec<(Isa, (usize, usize))> {
    menus
        .into_iter()
        .filter(|&(isa, _)| simd::supports(isa))
        .flat_map(|(isa, menu)| menu.iter().map(move |&tile| (isa, tile)))
        .collect()
}

/// For each tile, run `gemm_tn` and `syrk_ln` on `MicroPath::Intrinsic`
/// with an explicit config (a tiny multi-block one, or the tile's ISA
/// row) and check them against `Portable` within the product tolerance,
/// bitwise against a rerun, and — for `syrk` — for an untouched strict
/// upper triangle.
fn check_intrinsic_tiles<T: Scalar>(
    tiles: &[(Isa, (usize, usize))],
    (m, n, k): (usize, usize, usize),
    tiny: bool,
) {
    let a = gen::standard::<T>(m as u64 * 7 + n as u64, m, n);
    let b = gen::standard::<T>(k as u64 * 5 + 1, m, k);
    let seed_gemm = gen::standard::<T>(17, n, k);
    let seed_syrk = gen::standard::<T>(19, n, n);
    let tol = ata_mat::ops::product_tol::<T>(m.max(n), n.max(k), m as f64) * 4.0;
    let mut bufs = PackBufs::<T>::new();
    for &(isa, (mr, nr)) in tiles {
        let cfg = if tiny {
            KernelConfig::new(mr, nr, 8, 2 * mr + 1, 2 * nr + 3)
        } else {
            KernelConfig {
                mr,
                nr,
                ..tuned_for_isa::<T>(isa).kernel
            }
        };
        let mut gemm = |path| {
            let mut c = seed_gemm.clone();
            let (av, bv) = (a.as_ref(), b.as_ref());
            gemm_tn_micro_path_with(path, T::ONE, av, bv, &mut c.as_mut(), &cfg, &mut bufs);
            c
        };
        let (fused, again, portable) = (
            gemm(MicroPath::Intrinsic),
            gemm(MicroPath::Intrinsic),
            gemm(MicroPath::Portable),
        );
        let tag = format!("{} {} ({mr},{nr}) m={m} n={n} k={k}", isa.name(), T::NAME);
        assert!(fused.max_abs_diff(&portable) <= tol, "gemm {tag}");
        assert!(bits_eq(&fused, &again), "gemm rerun {tag}");

        let mut syrk = |path| {
            let mut c = seed_syrk.clone();
            syrk_ln_micro_path_with(path, T::ONE, a.as_ref(), &mut c.as_mut(), &cfg, &mut bufs);
            c
        };
        let (fused, again, portable) = (
            syrk(MicroPath::Intrinsic),
            syrk(MicroPath::Intrinsic),
            syrk(MicroPath::Portable),
        );
        assert!(fused.max_abs_diff_lower(&portable) <= tol, "syrk {tag}");
        assert!(bits_eq(&fused, &again), "syrk rerun {tag}");
        for i in 0..n {
            for j in i + 1..n {
                let (got, seed) = (fused.as_ref().row(i)[j], seed_syrk.as_ref().row(i)[j]);
                assert_eq!(
                    got.to_f64().to_bits(),
                    seed.to_f64().to_bits(),
                    "syrk wrote the strict upper ({i},{j}) {tag}"
                );
            }
        }
    }
}

/// `C + A^T B` element by element as the fused chain
/// `acc = c[i, j]; acc = fma(a[p, i], b[p, j], acc)` over `p`, with the
/// inherent fused `mul_add`. With `lower` (`b` is `a`) only `i >= j` is
/// computed and the strict upper triangle keeps `c`'s bits.
fn fused_chain<T: Scalar>(
    fma: fn(T, T, T) -> T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &Matrix<T>,
    lower: bool,
) -> Matrix<T> {
    let (m, n) = a.shape();
    let k = b.cols();
    Matrix::from_fn(n, k, |i, j| {
        let seed = c.as_ref().row(i)[j];
        if lower && j > i {
            return seed;
        }
        (0..m).fold(seed, |acc, p| {
            fma(a.as_ref().row(p)[i], b.as_ref().row(p)[j], acc)
        })
    })
}

/// On a shape every menu tile leaves ragged on both sides, run the
/// intrinsic `gemm_tn` and `syrk_ln` with every supported tile of `T`,
/// at `kc` in {1, 7, 256, 512, m + 1} (one to many reduction blocks)
/// and three `mc x nc` blockings per tile (one tile per block, blocks
/// that are not tile multiples, and the tile's tuned row), and require
/// every output to equal the fused chain seeded from `C` bit for bit.
fn check_fused_chain_whatever_the_blocking<T: Scalar>(
    fma: fn(T, T, T) -> T,
    menus: [(Isa, &'static [(usize, usize)]); 2],
) {
    let (m, n, k) = (520, 19, 37);
    let a = gen::standard::<T>(41, m, n);
    let b = gen::standard::<T>(43, m, k);
    let seed_gemm = gen::standard::<T>(47, n, k);
    let seed_syrk = gen::standard::<T>(53, n, n);
    let want_gemm = fused_chain(fma, &a, &b, &seed_gemm, false);
    let want_syrk = fused_chain(fma, &a, &a, &seed_syrk, true);
    let mut bufs = PackBufs::<T>::new();
    for (isa, (mr, nr)) in supported_tiles(menus) {
        let tuned = tuned_for_isa::<T>(isa).kernel;
        for kc in [1, 7, 256, 512, m + 1] {
            for (mc, nc) in [(mr, nr), (2 * mr + 1, 2 * nr + 3), (tuned.mc, tuned.nc)] {
                let cfg = KernelConfig::new(mr, nr, kc, mc, nc);
                let tag = format!("{} {} {cfg:?}", isa.name(), T::NAME);
                let mut c = seed_gemm.clone();
                let (av, bv) = (a.as_ref(), b.as_ref());
                gemm_tn_micro_path_with(
                    MicroPath::Intrinsic,
                    T::ONE,
                    av,
                    bv,
                    &mut c.as_mut(),
                    &cfg,
                    &mut bufs,
                );
                assert!(
                    bits_eq(&c, &want_gemm),
                    "gemm is not the fused chain: {tag}"
                );
                let mut c = seed_syrk.clone();
                syrk_ln_micro_path_with(
                    MicroPath::Intrinsic,
                    T::ONE,
                    av,
                    &mut c.as_mut(),
                    &cfg,
                    &mut bufs,
                );
                assert!(
                    bits_eq(&c, &want_syrk),
                    "syrk is not the fused chain on the lower triangle, or wrote the \
                     strict upper: {tag}"
                );
            }
        }
    }
}

#[test]
fn intrinsic_output_is_the_fused_chain_whatever_the_tile_and_blocking() {
    check_fused_chain_whatever_the_blocking::<f64>(
        f64::mul_add,
        [
            (Isa::Avx512, simd::AVX512_MENU_F64),
            (Isa::Fma, simd::FMA_MENU_F64),
        ],
    );
    check_fused_chain_whatever_the_blocking::<f32>(
        f32::mul_add,
        [
            (Isa::Avx512, simd::AVX512_MENU_F32),
            (Isa::Fma, simd::FMA_MENU_F32),
        ],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn portable_and_scalar_gemm_are_bit_identical_f64(
        class in 0usize..4,
        m0 in 1usize..48,
        n0 in 1usize..48,
        k0 in 1usize..48,
        alpha_neg in 0usize..2,
    ) {
        let (m, n, k) = shape(class, m0, n0, k0, m0 + n0);
        let alpha = if alpha_neg == 1 { -1.0 } else { 1.0 };
        let a = gen::standard::<f64>(m as u64 * 7 + n as u64, m, n);
        let b = gen::standard::<f64>(k as u64 * 13 + 1, m, k);
        let seed_c = gen::standard::<f64>(3, n, k);
        let cfg = config(class % 2 == 0, 4, 8);
        let mut c_portable = seed_c.clone();
        let mut c_scalar = seed_c;
        gemm_tn_micro_path(
            MicroPath::Portable, alpha, a.as_ref(), b.as_ref(), &mut c_portable.as_mut(), &cfg,
        );
        gemm_tn_micro_path(
            MicroPath::Scalar, alpha, a.as_ref(), b.as_ref(), &mut c_scalar.as_mut(), &cfg,
        );
        prop_assert!(bits_eq(&c_portable, &c_scalar));
    }

    #[test]
    fn portable_and_scalar_gemm_are_bit_identical_f32(
        class in 0usize..4,
        m0 in 1usize..40,
        n0 in 1usize..40,
        k0 in 1usize..40,
    ) {
        let (m, n, k) = shape(class, m0, n0, k0, m0 + 3);
        let a = gen::standard::<f32>(2 + m as u64, m, n);
        let b = gen::standard::<f32>(4 + k as u64, m, k);
        let seed_c = gen::standard::<f32>(9, n, k);
        let cfg = config(class % 2 == 1, 4, 16);
        let mut c_portable = seed_c.clone();
        let mut c_scalar = seed_c;
        gemm_tn_micro_path(
            MicroPath::Portable, 1.0f32, a.as_ref(), b.as_ref(), &mut c_portable.as_mut(), &cfg,
        );
        gemm_tn_micro_path(
            MicroPath::Scalar, 1.0f32, a.as_ref(), b.as_ref(), &mut c_scalar.as_mut(), &cfg,
        );
        prop_assert!(bits_eq(&c_portable, &c_scalar));
    }

    #[test]
    fn portable_and_scalar_syrk_are_bit_identical(
        class in 0usize..4,
        m0 in 1usize..48,
        n0 in 1usize..48,
    ) {
        // Syrk is the gemm loop nest under a lower-triangle mask, so on
        // the unfused paths its lower triangle must carry the very bits
        // of `gemm_tn` with `B = A` — on a contiguous `A` and on a column
        // block of a wider matrix (the strided view AtA's leaves read).
        let (m, n, _) = shape(class, m0, n0, 1, n0 + 1);
        let a = gen::standard::<f64>(m as u64 * 3 + n as u64, m, n);
        let wide = gen::standard::<f64>(m as u64 * 5 + n as u64, m, 3 * n);
        let seed_c = gen::standard::<f64>(11, n, n);
        let cfg = config(class % 2 == 0, 4, 8);
        for a in [a.as_ref(), wide.as_ref().block(0, m, n, 2 * n)] {
            let mut c_portable = seed_c.clone();
            let mut c_scalar = seed_c.clone();
            let mut c_gemm = seed_c.clone();
            syrk_ln_micro_path(MicroPath::Portable, 1.0, a, &mut c_portable.as_mut(), &cfg);
            syrk_ln_micro_path(MicroPath::Scalar, 1.0, a, &mut c_scalar.as_mut(), &cfg);
            gemm_tn_micro_path(MicroPath::Portable, 1.0, a, a, &mut c_gemm.as_mut(), &cfg);
            prop_assert!(bits_eq(&c_portable, &c_scalar));
            for i in 0..n {
                let (syrk_row, gemm_row) = (c_portable.as_ref().row(i), c_gemm.as_ref().row(i));
                for j in 0..=i {
                    prop_assert_eq!(syrk_row[j].to_bits(), gemm_row[j].to_bits(), "({}, {})", i, j);
                }
            }
        }
    }

    #[test]
    fn portable_and_scalar_agree_on_strided_quad_views(
        rows in 2usize..48,
        cols in 2usize..48,
        seed in 0u64..500,
    ) {
        // Quadrants of a larger matrix: every operand is a strided view,
        // so packing (including the parallel B-pack) must reproduce the
        // same panels on both paths.
        let big_a = gen::standard::<f64>(seed, rows, cols);
        let big_b = gen::standard::<f64>(seed + 1, rows, cols);
        let (_, _, a21, _) = big_a.as_ref().quad_split();
        let (_, _, b21, b22) = big_b.as_ref().quad_split();
        let cfg = config(true, 4, 8);
        let (_, n) = a21.shape();
        for b in [b21, b22] {
            let k = b.cols();
            let mut c_portable = Matrix::zeros(n, k);
            let mut c_scalar = Matrix::zeros(n, k);
            gemm_tn_micro_path(
                MicroPath::Portable, 1.0, a21, b, &mut c_portable.as_mut(), &cfg,
            );
            gemm_tn_micro_path(
                MicroPath::Scalar, 1.0, a21, b, &mut c_scalar.as_mut(), &cfg,
            );
            prop_assert!(bits_eq(&c_portable, &c_scalar));
        }
    }

    #[test]
    fn intrinsic_gemm_matches_portable_within_tolerance_f64(
        class in 0usize..4,
        m0 in 1usize..48,
        n0 in 1usize..48,
        k0 in 1usize..48,
    ) {
        // On machines without FMA the intrinsic path falls through to the
        // portable kernels, so this property degenerates to bit equality
        // there — still a valid (stronger) instance of the bound.
        let (m, n, k) = shape(class, m0, n0, k0, m0 + n0);
        let a = gen::standard::<f64>(m as u64 * 5 + 1, m, n);
        let b = gen::standard::<f64>(k as u64 * 3 + 2, m, k);
        let seed_c = gen::standard::<f64>(7, n, k);
        let cfg = config(class % 2 == 0, 4, 8);
        let mut c_fused = seed_c.clone();
        let mut c_ref = seed_c;
        gemm_tn_micro_path(
            MicroPath::Intrinsic, 1.0, a.as_ref(), b.as_ref(), &mut c_fused.as_mut(), &cfg,
        );
        gemm_tn_micro_path(
            MicroPath::Portable, 1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut(), &cfg,
        );
        prop_assert!(c_fused.max_abs_diff(&c_ref) <= tol64(m.max(n), n.max(k)));
    }

    #[test]
    fn intrinsic_gemm_matches_portable_within_tolerance_f32(
        class in 0usize..4,
        m0 in 1usize..40,
        n0 in 1usize..40,
        k0 in 1usize..40,
    ) {
        let (m, n, k) = shape(class, m0, n0, k0, k0 + 2);
        let a = gen::standard::<f32>(m as u64 + 17, m, n);
        let b = gen::standard::<f32>(k as u64 + 19, m, k);
        let seed_c = gen::standard::<f32>(13, n, k);
        let cfg = config(class % 2 == 1, 4, 16);
        let mut c_fused = seed_c.clone();
        let mut c_ref = seed_c;
        gemm_tn_micro_path(
            MicroPath::Intrinsic, 1.0f32, a.as_ref(), b.as_ref(), &mut c_fused.as_mut(), &cfg,
        );
        gemm_tn_micro_path(
            MicroPath::Portable, 1.0f32, a.as_ref(), b.as_ref(), &mut c_ref.as_mut(), &cfg,
        );
        prop_assert!(c_fused.max_abs_diff(&c_ref) <= tol32(m.max(n), n.max(k)));
    }

    #[test]
    fn intrinsic_syrk_matches_portable_and_spares_upper(
        class in 0usize..4,
        m0 in 1usize..48,
        n0 in 1usize..48,
    ) {
        let (m, n, _) = shape(class, m0, n0, 1, m0 + 5);
        let a = gen::standard::<f64>(m as u64 * 11 + 3, m, n);
        let seed_c = gen::standard::<f64>(21, n, n);
        let cfg = config(class % 2 == 0, 4, 8);
        let mut c_fused = seed_c.clone();
        let mut c_ref = seed_c;
        syrk_ln_micro_path(
            MicroPath::Intrinsic, 1.0, a.as_ref(), &mut c_fused.as_mut(), &cfg,
        );
        syrk_ln_micro_path(
            MicroPath::Portable, 1.0, a.as_ref(), &mut c_ref.as_mut(), &cfg,
        );
        let diff = c_fused.max_abs_diff_lower(&c_ref);
        prop_assert!(diff <= tol64(m.max(n), n));
        // The partial-tile scratch write-back must never leak writes
        // into the strict upper triangle.
        prop_assert_eq!(c_fused.max_abs_diff(&c_ref), diff);
    }

    #[test]
    fn intrinsic_path_is_deterministic_across_runs(
        m in 1usize..64,
        n in 1usize..64,
        k in 1usize..64,
    ) {
        let a = gen::standard::<f64>(m as u64 + 29, m, n);
        let b = gen::standard::<f64>(k as u64 + 31, m, k);
        let cfg = config(false, 4, 8);
        let mut first = Matrix::zeros(n, k);
        let mut second = Matrix::zeros(n, k);
        gemm_tn_micro_path(
            MicroPath::Intrinsic, 1.0, a.as_ref(), b.as_ref(), &mut first.as_mut(), &cfg,
        );
        gemm_tn_micro_path(
            MicroPath::Intrinsic, 1.0, a.as_ref(), b.as_ref(), &mut second.as_mut(), &cfg,
        );
        prop_assert!(bits_eq(&first, &second));
    }

    #[test]
    fn every_supported_intrinsic_tile_matches_portable_and_is_deterministic(
        m in 1usize..40,
        n in 1usize..72,
        k in 1usize..72,
        tiny in 0usize..2,
    ) {
        let f64_tiles = supported_tiles([
            (Isa::Avx512, simd::AVX512_MENU_F64),
            (Isa::Fma, simd::FMA_MENU_F64),
        ]);
        check_intrinsic_tiles::<f64>(&f64_tiles, (m, n, k), tiny == 1);
        let f32_tiles = supported_tiles([
            (Isa::Avx512, simd::AVX512_MENU_F32),
            (Isa::Fma, simd::FMA_MENU_F32),
        ]);
        check_intrinsic_tiles::<f32>(&f32_tiles, (m, n, k), tiny == 1);
    }

    #[test]
    fn tracked_paths_agree_bitwise_with_equal_op_ledgers(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..24,
    ) {
        // `Tracked` has no intrinsic kernels, so a forced-intrinsic run
        // must fall through to the portable kernels: same bits, same op
        // ledger as the portable and scalar paths. This is the contract
        // that keeps Strassen op-count validation independent of the ISA
        // the validating host happens to have.
        let a = gen::standard::<Tracked>(1, m, n);
        let b = gen::standard::<Tracked>(2, m, k);
        let cfg = config(true, 4, 8);
        let mut ledgers = Vec::new();
        let mut results = Vec::new();
        for path in [MicroPath::Intrinsic, MicroPath::Portable, MicroPath::Scalar] {
            let mut c = Matrix::<Tracked>::zeros(n, k);
            let (_, ops) = measure(|| {
                gemm_tn_micro_path(
                    path, Tracked(1.0), a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg,
                );
            });
            ledgers.push(ops);
            results.push(c);
        }
        prop_assert_eq!(ledgers[0], ledgers[1]);
        prop_assert_eq!(ledgers[1], ledgers[2]);
        prop_assert_eq!(ledgers[0].muls, (m * n * k) as u64);
        prop_assert_eq!(results[0].max_abs_diff(&results[1]), 0.0);
        prop_assert_eq!(results[1].max_abs_diff(&results[2]), 0.0);
    }
}

/// Tiles the shared-pack property draws from; their `lcm(mr, nr)`
/// panel widths are 48, 24, 48, 16, 24 and 8.
const SHARED_TILES: [(usize, usize); 6] = [(12, 16), (8, 24), (6, 16), (4, 16), (6, 8), (8, 4)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On every tile path, `syrk_ln`'s lower triangle carries the very
    /// bits of `gemm_tn(alpha, A, A)` and its strict upper triangle keeps
    /// `C`'s: `syrk` reads both sides of each diagonal block from one
    /// shared pack at `alpha = 1`, and `gemm` packs `A` and `B` apart.
    /// `n` falls below and above a small explicit `nc`, and is mostly
    /// ragged against the shared panel width; `mc` is never a multiple
    /// of `mr`, and `A` is a strided view.
    #[test]
    fn syrk_is_the_lower_triangle_of_gemm_on_every_path(
        tile in 0usize..6,
        m in 1usize..40,
        n in 1usize..130,
        nc in 1usize..70,
        kc_sel in 0usize..3,
        (mc_tiles, mc_extra) in (0usize..3, 1usize..4),
        alpha_sel in 0usize..3,
        (r0, c0) in (0usize..3, 0usize..5),
    ) {
        let (mr, nr) = SHARED_TILES[tile];
        let kc = [1, 7, m + 3][kc_sel];
        let cfg = KernelConfig::new(mr, nr, kc, mc_tiles * mr + mc_extra, nc);
        let alpha = [1.0, -1.0, 0.375][alpha_sel];
        let big = gen::standard::<f64>((m * 131 + n) as u64, m + r0 + 2, n + c0 + 3);
        let a = big.as_ref().block(r0, r0 + m, c0, c0 + n);
        let seed = gen::standard::<f64>(n as u64 + 7, n, n);
        let mut bufs = PackBufs::<f64>::new();
        for path in [MicroPath::Intrinsic, MicroPath::Portable, MicroPath::Scalar] {
            let mut syrk = seed.clone();
            syrk_ln_micro_path_with(path, alpha, a, &mut syrk.as_mut(), &cfg, &mut bufs);
            let mut gemm = seed.clone();
            gemm_tn_micro_path_with(path, alpha, a, a, &mut gemm.as_mut(), &cfg, &mut bufs);
            for i in 0..n {
                let rows = syrk.as_ref().row(i).iter();
                let rows = rows.zip(gemm.as_ref().row(i)).zip(seed.as_ref().row(i));
                for (j, ((got, lower), upper)) in rows.enumerate() {
                    let want = if j <= i { lower } else { upper };
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{:?} {:?} alpha {} at ({}, {})",
                        path,
                        cfg,
                        alpha,
                        i,
                        j
                    );
                }
            }
        }
    }
}

#[test]
fn dispatch_is_coherent_with_the_detected_isa() {
    // The one-time detection result, the kernel-availability probe and
    // the per-scalar menu must all tell the same story.
    let isa = simd::detected();
    assert_eq!(isa, simd::detected(), "detection is cached and stable");
    assert!(simd::supports(isa));
    match isa {
        Isa::Avx512 => {
            assert!(simd::has_kernels::<f64>());
            assert!(simd::has_kernels::<f32>());
            assert_eq!(simd::fma_menu::<f64>(), Some(simd::AVX512_MENU_F64));
            assert_eq!(simd::fma_menu::<f32>(), Some(simd::AVX512_MENU_F32));
            assert!(
                simd::supports(Isa::Fma),
                "AVX-512 hosts run the AVX2 tiles too"
            );
        }
        Isa::Fma => {
            assert!(simd::has_kernels::<f64>());
            assert!(simd::has_kernels::<f32>());
            assert_eq!(simd::fma_menu::<f64>(), Some(simd::FMA_MENU_F64));
            assert_eq!(simd::fma_menu::<f32>(), Some(simd::FMA_MENU_F32));
            assert!(!simd::supports(Isa::Avx512));
        }
        Isa::Generic => {
            assert!(!simd::has_kernels::<f64>());
            assert!(!simd::has_kernels::<f32>());
            assert_eq!(simd::fma_menu::<f64>(), None);
            assert!(!simd::supports(Isa::Fma));
        }
    }
    // Tracked never has fused kernels and never resolves to Intrinsic,
    // whatever the host ISA or ATA_MICRO say.
    assert!(!simd::has_kernels::<Tracked>());
    assert_eq!(simd::fma_menu::<Tracked>(), None);
    assert_ne!(micro_path_for::<Tracked>(), MicroPath::Intrinsic);
}
