//! Runtime-dispatched explicit-SIMD microkernels.
//!
//! The portable engine in [`crate::micro`] leans on the autovectorizer
//! over const-generic accumulator arrays — robust, but it plateaus well
//! below the machine's fused-multiply-add peak because the
//! [`ata_mat::Scalar::mul_add`] contract is deliberately unfused. This
//! module adds hand-written [`core::arch`] kernels behind one-time CPU
//! feature detection:
//!
//! | detection ([`detected`])                     | kernels (`x86` module, x86-64 only)      | tiles                                                          |
//! |----------------------------------------------|------------------------------------------|----------------------------------------------------------------|
//! | `avx512f` + `avx2` + `fma` → [`Isa::Avx512`] | 512-bit fused f64/f32, plus the AVX2 set | [`AVX512_MENU_F64`] / [`AVX512_MENU_F32`], plus the AVX2 menus |
//! | `avx2` + `fma` → [`Isa::Fma`]                | 256-bit fused `vfmadd` f64/f32           | [`FMA_MENU_F64`] / [`FMA_MENU_F32`]                            |
//! | otherwise → [`Isa::Generic`]                 | none — portable kernels only             | [`crate::micro::KernelConfig::MENU`]                           |
//!
//! The tile shape picks the kernel set: the AVX-512 and AVX2 menus are
//! disjoint, a tile on the AVX-512 menu runs the 512-bit kernel where
//! the host [`supports`] it, and a tile on an AVX2 menu runs the
//! 256-bit kernel on any host with AVX2 + FMA — AVX-512 hosts included,
//! so an explicit AVX2 tile (a [`crate::micro::KernelConfig`] or
//! `ATA_KERNEL_PARAMS="mr=4,nr=8"`) still runs, and is still tested,
//! there. The tuned rows in [`crate::calibrate`] pick the detected
//! ISA's menu by default.
//!
//! Dispatch is structural, not trusted: the crate-internal `full_tile`
//! entry point returns `false`
//! whenever no intrinsic kernel takes the tile — wrong scalar type
//! (`Tracked` and the exact fields never reach intrinsics, preserving
//! their op-count contract), unsupported ISA, off-menu tile, or operand
//! bounds that fail the preconditions — and the engine then runs the
//! portable kernel on the very same packed panels. A host without FMA
//! therefore falls back *bit-identically* to the portable path: the
//! fallback is not an approximation of it, it *is* it.
//!
//! Rounding: the fused kernels contract each `a * b + acc` step to one
//! rounding, so intrinsic results differ from the portable/scalar paths
//! within the usual product tolerance (never more) and equal the fused
//! scalar chain (`f64::mul_add` / `f32::mul_add`) bit for bit; portable
//! and scalar agree bit-for-bit with each other.
//! `crates/kernels/tests/simd_paths.rs` property-tests all three
//! pairings, for every tile of every ISA the host supports.

use ata_mat::{MatMut, Scalar};
use std::any::TypeId;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

/// Instruction-set tier of the running CPU, as far as this module has
/// kernels for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512F (with AVX2 + FMA) detected: 512-bit fused kernels for
    /// `f64` and `f32`, and the [`Isa::Fma`] kernels for their tiles.
    Avx512,
    /// AVX2 + FMA detected: 256-bit fused kernels for `f64` and `f32`.
    Fma,
    /// No supported vector extension (or not x86-64): every tile runs
    /// the portable const-generic kernels.
    Generic,
}

impl Isa {
    /// Stable lowercase name (used by bench records, `ata calibrate`,
    /// and the README dispatch table).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512",
            Isa::Fma => "fma",
            Isa::Generic => "generic",
        }
    }
}

/// The running CPU's top ISA tier, detected once per process and
/// cached. (std's `avx512f` detection also checks that the OS saves the
/// 512-bit register state.)
pub fn detected() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return Isa::Avx512;
                }
                return Isa::Fma;
            }
        }
        Isa::Generic
    })
}

/// True when this host can run `isa`'s kernels: each tier includes the
/// ones below it (an [`Isa::Avx512`] host also runs the [`Isa::Fma`]
/// tiles, and every host runs [`Isa::Generic`]'s portable ones).
pub fn supports(isa: Isa) -> bool {
    match isa {
        Isa::Avx512 => detected() == Isa::Avx512,
        Isa::Fma => matches!(detected(), Isa::Avx512 | Isa::Fma),
        Isa::Generic => true,
    }
}

/// Register tiles with a dedicated fused f64 kernel under [`Isa::Fma`]
/// (4 lanes per vector, so `nr` is a multiple of 4). Ordered with the
/// expected winner first: `6 x 8` fills 15 of AVX2's 16 vector
/// registers (12 accumulators + 2 `B` vectors + 1 broadcast).
pub const FMA_MENU_F64: &[(usize, usize)] = &[(6, 8), (4, 8), (8, 4), (8, 8), (4, 4), (6, 4)];

/// f32 twin of [`FMA_MENU_F64`] (8 lanes per vector, `nr` a multiple
/// of 8); `6 x 16` is the 15-register tile here.
pub const FMA_MENU_F32: &[(usize, usize)] = &[(6, 16), (4, 16), (8, 8), (8, 16), (4, 8), (6, 8)];

/// Register tiles with a dedicated fused f64 kernel under
/// [`Isa::Avx512`] (8 lanes per vector). Every `nr` is at least 16,
/// wider than any [`FMA_MENU_F64`] tile, so the two menus never share a
/// tile. `12 x 16` fills 27 of the 32 vector registers (24 accumulators
/// + 2 `B` vectors + 1 broadcast), `8 x 24` fills 28 (24 + 3 + 1).
pub const AVX512_MENU_F64: &[(usize, usize)] = &[(12, 16), (8, 16), (6, 16), (4, 16), (8, 24)];

/// f32 twin of [`AVX512_MENU_F64`] (16 lanes per vector, every `nr` at
/// least 32, so it is disjoint from [`FMA_MENU_F32`]).
pub const AVX512_MENU_F32: &[(usize, usize)] = &[(8, 32), (6, 32), (4, 32), (8, 48)];

/// Every intrinsic tile menu, whatever the host supports.
pub(crate) const INTRINSIC_MENUS: [&[(usize, usize)]; 4] =
    [FMA_MENU_F64, FMA_MENU_F32, AVX512_MENU_F64, AVX512_MENU_F32];

/// The largest `mr * nr` on any intrinsic menu: the size of the scratch
/// a fused partial tile (ragged edge or diagonal straddle) computes
/// into.
pub(crate) const MAX_TILE_ELEMS: usize = {
    let mut max = 0;
    let mut m = 0;
    while m < INTRINSIC_MENUS.len() {
        let menu = INTRINSIC_MENUS[m];
        let mut t = 0;
        while t < menu.len() {
            let (mr, nr) = menu[t];
            if mr * nr > max {
                max = mr * nr;
            }
            t += 1;
        }
        m += 1;
    }
    max
};

/// The intrinsic tile menu for `T` under the detected ISA, or `None`
/// when no fused kernels exist for this scalar type on this CPU (the
/// calibration sweep then stays on the portable menu). Despite the
/// name, an [`Isa::Avx512`] host gets the AVX-512 menu.
pub fn fma_menu<T: Scalar>() -> Option<&'static [(usize, usize)]> {
    let t = TypeId::of::<T>();
    let (f64_menu, f32_menu) = match detected() {
        Isa::Avx512 => (AVX512_MENU_F64, AVX512_MENU_F32),
        Isa::Fma => (FMA_MENU_F64, FMA_MENU_F32),
        Isa::Generic => return None,
    };
    if t == TypeId::of::<f64>() {
        Some(f64_menu)
    } else if t == TypeId::of::<f32>() {
        Some(f32_menu)
    } else {
        None
    }
}

/// True when the detected ISA has fused kernels for `T` — the predicate
/// behind [`crate::micro::micro_path_for`]'s auto resolution.
pub fn has_kernels<T: Scalar>() -> bool {
    fma_menu::<T>().is_some()
}

/// Try to run one full `mr x nr` tile of `C += Ap^T Bp` through an
/// intrinsic kernel: the AVX-512 one when the host has AVX-512 and the
/// tile is on that menu, else the AVX2 one when the host has AVX2 + FMA
/// and the tile is on that menu. Step `p` of the reduction reads
/// `ap[p * sa..][..mr]` and `bp[p * sb..][..nr]`. Returns `false` when
/// no kernel takes the tile — the caller must then fall through to the
/// portable kernel on the same packed operands (the graceful,
/// bit-identical fallback).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn full_tile<T: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    ap: &[T],
    sa: usize,
    bp: &[T],
    sb: usize,
    c: &mut MatMut<'_, T>,
) -> bool {
    if !supports(Isa::Fma) {
        return false;
    }
    let t = TypeId::of::<T>();
    if t == TypeId::of::<f64>() {
        // SAFETY: `T` is exactly `f64` (TypeId equality above), so these
        // pointer casts only rename the element type — length metadata,
        // layout, lifetimes, and aliasing are untouched.
        let (ap, bp, c) = unsafe {
            (
                &*(ap as *const [T] as *const [f64]),
                &*(bp as *const [T] as *const [f64]),
                &mut *(c as *mut MatMut<'_, T> as *mut MatMut<'_, f64>),
            )
        };
        return x86::tile_f64_avx512(mr, nr, kc, ap, sa, bp, sb, c)
            || x86::tile_f64(mr, nr, kc, ap, sa, bp, sb, c);
    }
    if t == TypeId::of::<f32>() {
        // SAFETY: `T` is exactly `f32` (TypeId equality above); same
        // type-renaming-only argument as the f64 arm.
        let (ap, bp, c) = unsafe {
            (
                &*(ap as *const [T] as *const [f32]),
                &*(bp as *const [T] as *const [f32]),
                &mut *(c as *mut MatMut<'_, T> as *mut MatMut<'_, f32>),
            )
        };
        return x86::tile_f32_avx512(mr, nr, kc, ap, sa, bp, sb, c)
            || x86::tile_f32(mr, nr, kc, ap, sa, bp, sb, c);
    }
    false
}

/// Non-x86-64 stub: no intrinsic kernels, every tile stays portable.
#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
pub(crate) fn full_tile<T: Scalar>(
    _mr: usize,
    _nr: usize,
    _kc: usize,
    _ap: &[T],
    _sa: usize,
    _bp: &[T],
    _sb: usize,
    _c: &mut MatMut<'_, T>,
) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{micro_panel_len, shared_width};
    use ata_mat::tracked::Tracked;
    use ata_mat::Matrix;

    /// Every intrinsic menu for `T` (f64 or f32) the host can run, with
    /// its ISA.
    fn supported_menus<T: Scalar>() -> Vec<(Isa, &'static [(usize, usize)])> {
        let (avx512, fma) = if TypeId::of::<T>() == TypeId::of::<f64>() {
            (AVX512_MENU_F64, FMA_MENU_F64)
        } else {
            (AVX512_MENU_F32, FMA_MENU_F32)
        };
        [(Isa::Avx512, avx512), (Isa::Fma, fma)]
            .into_iter()
            .filter(|&(isa, _)| supports(isa))
            .collect()
    }

    #[test]
    fn detection_is_cached_and_consistent() {
        assert_eq!(detected(), detected());
        let intrinsic = detected() != Isa::Generic;
        assert_eq!(has_kernels::<f64>(), intrinsic);
        assert_eq!(has_kernels::<f32>(), intrinsic);
        assert!(!has_kernels::<Tracked>(), "op counting never vectorizes");
        // Each tier includes the ones below it.
        assert!(supports(Isa::Generic));
        assert!(supports(detected()));
        if supports(Isa::Avx512) {
            assert!(supports(Isa::Fma), "AVX-512 hosts also run the AVX2 tiles");
        }
    }

    #[test]
    fn menus_are_lane_aligned() {
        for &(mr, nr) in FMA_MENU_F64 {
            assert!(mr > 0 && nr % 4 == 0, "f64 tile ({mr},{nr})");
        }
        for &(mr, nr) in FMA_MENU_F32 {
            assert!(mr > 0 && nr % 8 == 0, "f32 tile ({mr},{nr})");
        }
        // 512-bit tiles are at least two vectors wide, which keeps them
        // off the AVX2 menus: the tile alone picks the kernel set.
        for &(mr, nr) in AVX512_MENU_F64 {
            assert!(mr > 0 && nr % 8 == 0 && nr >= 16, "f64 tile ({mr},{nr})");
            assert!(!FMA_MENU_F64.contains(&(mr, nr)));
        }
        for &(mr, nr) in AVX512_MENU_F32 {
            assert!(mr > 0 && nr % 16 == 0 && nr >= 32, "f32 tile ({mr},{nr})");
            assert!(!FMA_MENU_F32.contains(&(mr, nr)));
        }
    }

    #[test]
    fn every_intrinsic_tile_fits_the_straddle_scratch() {
        for menu in INTRINSIC_MENUS {
            for &(mr, nr) in menu {
                assert!(mr * nr <= MAX_TILE_ELEMS, "tile ({mr},{nr})");
            }
        }
    }

    #[test]
    fn tracked_tiles_always_fall_through() {
        let kc = 3;
        let ap = vec![Tracked(1.0); kc * 4];
        let bp = vec![Tracked(2.0); kc * 4];
        let mut c = Matrix::<Tracked>::zeros(4, 4);
        let mut cv = c.as_mut();
        assert!(!full_tile(4, 4, kc, &ap, 4, &bp, 4, &mut cv));
        assert_eq!(c.as_ref().row(0)[0], Tracked(0.0), "tile left untouched");
    }

    /// Every tile on every supported menu for `T` must take its fused
    /// kernel (a menu tile that fell through to portable would still pass
    /// the tolerance properties) and match the unfused sum within
    /// `tol_per_step * kc`.
    fn check_fused_tiles<T: Scalar>(tol_per_step: f64) {
        let kc = 17usize;
        for (isa, menu) in supported_menus::<T>() {
            for &(mr, nr) in menu {
                let ap: Vec<T> = (0..kc * mr)
                    .map(|i| T::from_f64((i as f64).sin()))
                    .collect();
                let bp: Vec<T> = (0..kc * nr)
                    .map(|i| T::from_f64((i as f64).cos()))
                    .collect();
                let mut c = Matrix::<T>::zeros(mr, nr);
                let tag = format!("{} {} ({mr},{nr})", isa.name(), T::NAME);
                assert!(
                    full_tile(mr, nr, kc, &ap, mr, &bp, nr, &mut c.as_mut()),
                    "{tag}"
                );
                for i in 0..mr {
                    for j in 0..nr {
                        let want: f64 = (0..kc)
                            .map(|p| ap[p * mr + i].to_f64() * bp[p * nr + j].to_f64())
                            .sum();
                        let got = c.as_ref().row(i)[j].to_f64();
                        assert!(
                            (got - want).abs() <= tol_per_step * kc as f64,
                            "{tag} at ({i},{j}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_tile_matches_the_unfused_reference_within_tolerance() {
        check_fused_tiles::<f64>(1e-12);
        check_fused_tiles::<f32>(1e-5);
    }

    /// Every tile on every supported menu for `T` equals, bit for bit,
    /// the chain `acc = c; acc = fma(a, b, acc)` over `p` under the
    /// inherent fused `mul_add` (never `Scalar::mul_add`, which is
    /// unfused), at depths that leave every remainder of the kernels'
    /// 4-step unroll, and whatever the micro-panel strides: as wide as
    /// the tile (gemm), as wide as syrk's shared pack, and odd. Elements
    /// between micro-panel rows are NaN, so a kernel that read one would
    /// show.
    fn check_fused_chain<T: Scalar>(fma: fn(T, T, T) -> T) {
        for kc in [0usize, 1, 2, 3, 4, 5, 17, 256] {
            for (isa, menu) in supported_menus::<T>() {
                for &(mr, nr) in menu {
                    let a = |p: usize, i: usize| T::from_f64(((p * mr + i) as f64 * 0.7).sin());
                    let b =
                        |p: usize, j: usize| T::from_f64(((p * nr + j) as f64 * 0.3 + 1.0).cos());
                    let seed = |i: usize, j: usize| T::from_f64(((i * nr + j) as f64).tan());
                    let w = shared_width(mr, nr);
                    for (sa, sb) in [(mr, nr), (w, w), (mr + 3, nr + 5)] {
                        let strided = |r: usize, s: usize, at: &dyn Fn(usize, usize) -> T| {
                            (0..micro_panel_len(kc, r, s))
                                .map(|e| match e % s {
                                    q if q < r => at(e / s, q),
                                    _ => T::from_f64(f64::NAN),
                                })
                                .collect::<Vec<T>>()
                        };
                        let (ap, bp) = (strided(mr, sa, &a), strided(nr, sb, &b));
                        let mut c = Matrix::<T>::from_fn(mr, nr, seed);
                        let tag = format!(
                            "{} {} ({mr},{nr}) kc {kc} strides ({sa},{sb})",
                            isa.name(),
                            T::NAME
                        );
                        assert!(
                            full_tile(mr, nr, kc, &ap, sa, &bp, sb, &mut c.as_mut()),
                            "{tag}"
                        );
                        for i in 0..mr {
                            for j in 0..nr {
                                let want =
                                    (0..kc).fold(seed(i, j), |acc, p| fma(a(p, i), b(p, j), acc));
                                let got = c.as_ref().row(i)[j];
                                assert_eq!(
                                    got.to_f64().to_bits(),
                                    want.to_f64().to_bits(),
                                    "{tag} at ({i},{j}): {got:?} vs {want:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_tile_is_bitwise_the_fused_scalar_chain() {
        check_fused_chain::<f64>(f64::mul_add);
        check_fused_chain::<f32>(f32::mul_add);
    }

    #[test]
    fn undersized_operands_are_rejected_not_read() {
        let kc = 8;
        for (_, menu) in supported_menus::<f64>() {
            let (mr, nr) = menu[0];
            let short_a = vec![1.0f64; kc * mr - 1]; // one element short
            let full_a = vec![1.0f64; kc * mr];
            let short_b = vec![1.0f64; kc * nr - 1];
            let full_b = vec![1.0f64; kc * nr];
            let mut c = Matrix::<f64>::zeros(mr, nr);
            let mut cv = c.as_mut();
            assert!(!full_tile(mr, nr, kc, &short_a, mr, &full_b, nr, &mut cv));
            assert!(!full_tile(mr, nr, kc, &full_a, mr, &short_b, nr, &mut cv));
            // A wider stride needs `(kc - 1) * stride + r` elements.
            assert!(!full_tile(
                mr,
                nr,
                kc,
                &full_a,
                mr + 1,
                &full_b,
                nr,
                &mut cv
            ));
            assert!(!full_tile(
                mr,
                nr,
                kc,
                &full_a,
                mr,
                &full_b,
                nr + 1,
                &mut cv
            ));
            let mut wrong = Matrix::<f64>::zeros(mr, nr - 1);
            assert!(!full_tile(
                mr,
                nr,
                kc,
                &full_a,
                mr,
                &full_b,
                nr,
                &mut wrong.as_mut()
            ));
            assert_eq!(c.as_ref().row(0)[0], 0.0, "rejected tiles stay untouched");
        }
    }
}
