//! Measured kernel tuning: blocking parameters and base-case cutoffs.
//!
//! The pre-engine kernels ran with one guessed blocking (`MC = 32`,
//! `NC = 256`) and one guessed recursion cutoff (32768 cache words) for
//! every scalar type. This module replaces the guesses with measured
//! values, in two layers:
//!
//! 1. [`tuned_for`] — the zero-cost lookup the kernel entry points use.
//!    It returns a per-scalar [`Tuned`] record from a table measured by
//!    `ata calibrate`, after applying the `ATA_KERNEL_PARAMS`
//!    environment override.
//! 2. The sweep behind the kernel half of a row: [`measure_kernel`]
//!    times the register-tile menu against `KC`, then `MC x NC` for the
//!    winner, at sizes some menu tiles leave ragged edges on and at the
//!    leaf order. The row's [`Tuned::base_words`] is measured by
//!    `ata_strassen::calibrate`, which owns the recursion that budget
//!    gates; `ata calibrate` assembles the row from both.
//!
//! # Per-ISA tables
//!
//! The table is keyed on *(scalar type, ISA of the resolved tile path)*:
//! the fused kernels in [`crate::simd`] prefer different register tiles
//! and cutoffs than the portable autovectorized kernels, and the 512-bit
//! tiles differ from the 256-bit ones. On the intrinsic path an
//! AVX-512 host resolves the `*_AVX512` rows, an AVX2 + FMA host the
//! `*_FMA` rows, and everything else (including forced
//! `ATA_MICRO=portable|scalar` runs) resolves the portable rows.
//! [`tuned_for_isa`] reads any ISA's row directly. `ata calibrate`
//! measures the rows of the path the host resolves.
//!
//! # Overriding
//!
//! `ATA_KERNEL_PARAMS` accepts comma-separated `key=value` pairs with
//! keys `mr`, `nr`, `kc`, `mc`, `nc`, `words`, e.g.
//! `ATA_KERNEL_PARAMS="mr=8,nr=4,kc=128,words=16384"`. Unknown keys and
//! malformed pairs are ignored; the override applies to every scalar
//! type. An AVX2-menu tile (e.g. `mr=4,nr=8`) runs the AVX2 kernels on
//! an AVX-512 host, since the tile picks the kernel set.
//! `ATA_MICRO` selects the tile path (`intrinsic|portable|scalar`; see
//! [`crate::micro::micro_path_for`]).

use crate::micro::{gemm_tn_micro_path_with, micro_path_for, KernelConfig, MicroPath};
use crate::pack::PackBufs;
use crate::simd::Isa;
use crate::timing::time_rounds;
use ata_mat::{gen, Matrix, Scalar};
use std::sync::OnceLock;

/// One scalar type's measured kernel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuned {
    /// Blocking parameters of the packed microkernel engine.
    pub kernel: KernelConfig,
    /// Cache-word budget at which the Strassen-style recursions stop
    /// splitting and call the packed kernel (the measured crossover,
    /// in elements; see [`crate::CacheConfig`]). Measured by
    /// `ata_strassen::calibrate`: `2 g²` for the largest square order
    /// `g` that a Strassen level does not beat `gemm_tn` at.
    pub base_words: usize,
}

/// Measured on the development container (Intel Xeon @ 2.10 GHz,
/// baseline x86-64 SSE2 codegen, single thread) via
/// `ATA_MICRO=portable ata calibrate`. Re-run `ata calibrate` on new
/// hardware and update these records.
const TUNED_F64: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 4,
        nr: 8,
        kc: 256,
        mc: 64,
        nc: 256,
    },
    // No measured crossover below 256^2 operand pairs: the packed kernel
    // is flat-rate enough that one extra Strassen level only pays once
    // blocks exceed ~256 x 256 (validated end to end at n = 1024, where
    // this cutoff beats both 32768 and no-recursion).
    base_words: 131_072,
};

/// See [`TUNED_F64`]; f32 packs twice the lanes per register, so the
/// measured register tile is wider (`nr = 12`).
const TUNED_F32: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 4,
        nr: 12,
        kc: 256,
        mc: 64,
        nc: 256,
    },
    base_words: 131_072,
};

/// Fused-kernel row for f64 under [`crate::simd::Isa::Fma`], measured
/// on the same container with the cross-size sweep (`ata calibrate`
/// plus 128/256/512 spot checks): the 4 x 8 tile (8 fused accumulator
/// vectors, 2 B vectors, 1 broadcast) beat the deeper 6 x 8 / 8 x 8
/// tiles at every size (33-38 GF/s gemm vs 13.5 portable).
const TUNED_F64_FMA: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 4,
        nr: 8,
        kc: 128,
        mc: 64,
        nc: 256,
    },
    // The single-level crossover model lands between 2*192^2 and
    // 2*256^2 on repeated fused-path runs (timing noise at this
    // machine's resolution); keep the end-to-end-validated portable
    // value at the top of that band.
    base_words: 131_072,
};

/// Fused-kernel row for f32 under [`crate::simd::Isa::Fma`] (see
/// [`TUNED_F64_FMA`]): 8 lanes per vector, same 4-row accumulator
/// block, twice the tile width (59-69 GF/s gemm, 34-51 syrk measured).
const TUNED_F32_FMA: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 4,
        nr: 16,
        kc: 256,
        mc: 64,
        nc: 256,
    },
    base_words: 131_072,
};

/// Fused-kernel row for f64 under [`Isa::Avx512`], measured on a
/// 2-vCPU Intel Xeon host with AVX-512F (single thread) by `ata
/// calibrate`. Of ten runs of the staged sweep (tile x `kc`, then `mc x
/// nc`, at 192, 256 and the leaf order 2048), the 12 x 16 tile (24
/// accumulator vectors, 2 B vectors, 1 broadcast) won five, 8 x 24 four
/// and 8 x 16 one; `kc` 512 won five, `nc` 1024 (1032 for 8 x 24)
/// seven, and `mc` 128 rounded to whole tiles (132 here) six. A `kc`
/// past L1 pays because each `C` tile is then loaded and stored half as
/// often. Paired on the `gemm_tn(2048, 1024, 1024)` leaf, this blocking
/// beat `mc` 36, `kc` 384 and both 8 x 24 rows by 4-14%.
const TUNED_F64_AVX512: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 12,
        nr: 16,
        kc: 512,
        mc: 132,
        nc: 1024,
    },
    // 2 * 2048^2: no Strassen level beat `gemm_tn` by 5% at any swept
    // order up to 2048 (see `ata_strassen::calibrate`), so every product
    // up to 2048 x 2048 stays one `gemm_tn` call. Larger than the AVX2
    // and portable rows, so the recursion depth, and with it the op
    // counts, differ between ISAs.
    base_words: 8_388_608,
};

/// Fused-kernel row for f32 under [`Isa::Avx512`] (see
/// [`TUNED_F64_AVX512`]): the 8 x 32 tile won the six earlier runs and
/// 6 of the ten that swept 768, which moved `kc` from 128 to 256. The
/// ten runs that also swept `nc` 512 and 1024 kept the tile (six of ten)
/// and `kc` (nine), and moved `nc` to 1024 (nine) and `mc` from 128 to 64
/// (five, against four for 32 and one for 128).
const TUNED_F32_AVX512: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 8,
        nr: 32,
        kc: 256,
        mc: 64,
        nc: 1024,
    },
    // 2 * 1024^2: the mode (three of ten runs at this blocking) of the
    // cutoff sweep, a first 5% win at g* = 1536.
    base_words: 2_097_152,
};

/// The baked parameters for scalar type `T` on `isa`'s intrinsic
/// kernels ([`Isa::Generic`]: the portable row), whether or not this
/// host supports `isa`, with any `ATA_KERNEL_PARAMS` override applied.
/// A benchmark times each ISA's kernels at their own blocking by passing
/// this row's [`Tuned::kernel`] as an explicit config.
///
/// Scalars without intrinsic kernels resolve the portable row for
/// every `isa`.
pub fn tuned_for_isa<T: Scalar>(isa: Isa) -> Tuned {
    let base = match (T::NAME, isa) {
        ("f32", Isa::Avx512) => TUNED_F32_AVX512,
        ("f32", Isa::Fma) => TUNED_F32_FMA,
        ("f32", Isa::Generic) => TUNED_F32,
        ("f64", Isa::Avx512) => TUNED_F64_AVX512,
        ("f64", Isa::Fma) => TUNED_F64_FMA,
        // Types without their own row (the op-counting `Tracked` scalar,
        // exact fields) inherit the portable f64 row: their "speed" is
        // irrelevant, but sharing the row keeps their blocking — and
        // therefore their measured operation *counts* — identical to the
        // f64 reference path on every host ISA.
        _ => TUNED_F64,
    };
    apply_env(base)
}

/// The measured parameters for scalar type `T` on an explicit tile
/// path, with any `ATA_KERNEL_PARAMS` override applied.
///
/// Only a genuinely-available `Intrinsic` path (see
/// [`crate::simd::has_kernels`]) resolves the detected ISA's fused rows;
/// `Portable` and `Scalar` — and any scalar the SIMD module has no
/// kernels for — resolve the portable rows, so the blocking a run uses
/// always matches the kernels it executes.
pub fn tuned_for_path<T: Scalar>(path: MicroPath) -> Tuned {
    let fused = path == MicroPath::Intrinsic && crate::simd::has_kernels::<T>();
    tuned_for_isa::<T>(if fused {
        crate::simd::detected()
    } else {
        Isa::Generic
    })
}

/// The measured parameters for scalar type `T` on the tile path the
/// engine resolves under the current `ATA_MICRO` setting and detected
/// ISA, with any `ATA_KERNEL_PARAMS` override applied.
pub fn tuned_for<T: Scalar>() -> Tuned {
    tuned_for_path::<T>(micro_path_for::<T>())
}

/// The register-tile menu the calibration sweep walks for `T`: the
/// intrinsic menu of the detected ISA when the resolved path runs fused
/// kernels, the portable [`KernelConfig::MENU`] otherwise.
pub fn menu_for<T: Scalar>() -> &'static [(usize, usize)] {
    if micro_path_for::<T>() == MicroPath::Intrinsic {
        if let Some(menu) = crate::simd::fma_menu::<T>() {
            return menu;
        }
    }
    KernelConfig::MENU
}

/// Parsed `ATA_KERNEL_PARAMS` override (read once per process).
#[derive(Debug, Default, Clone, Copy)]
struct EnvOverride {
    mr: Option<usize>,
    nr: Option<usize>,
    kc: Option<usize>,
    mc: Option<usize>,
    nc: Option<usize>,
    words: Option<usize>,
}

fn env_override() -> &'static Option<EnvOverride> {
    static PARSED: OnceLock<Option<EnvOverride>> = OnceLock::new();
    PARSED.get_or_init(|| {
        let raw = std::env::var("ATA_KERNEL_PARAMS").ok()?;
        let mut ov = EnvOverride::default();
        for pair in raw.split(',') {
            let Some((key, value)) = pair.split_once('=') else {
                continue;
            };
            let Ok(v) = value.trim().parse::<usize>() else {
                continue;
            };
            if v == 0 {
                continue;
            }
            match key.trim() {
                "mr" => ov.mr = Some(v),
                "nr" => ov.nr = Some(v),
                "kc" => ov.kc = Some(v),
                "mc" => ov.mc = Some(v),
                "nc" => ov.nc = Some(v),
                "words" => ov.words = Some(v),
                _ => {}
            }
        }
        Some(ov)
    })
}

fn apply_env(mut t: Tuned) -> Tuned {
    if let Some(ov) = env_override() {
        let k = &mut t.kernel;
        k.mr = ov.mr.unwrap_or(k.mr);
        k.nr = ov.nr.unwrap_or(k.nr);
        k.kc = ov.kc.unwrap_or(k.kc);
        k.mc = ov.mc.unwrap_or(k.mc);
        k.nc = ov.nc.unwrap_or(k.nc);
        t.base_words = ov.words.unwrap_or(t.base_words);
    }
    t
}

// ---------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------

/// Timed rounds per sweep size: every candidate runs once per round
/// (see [`time_rounds`]).
const ROUNDS: usize = 3;

/// Square sizes the full tile sweep times each candidate at. 192 is
/// divisible by every menu tile; tiles that do not divide 256 (`6 x _`,
/// `12 x _`, `_ x 24`, `_ x 48`) leave a ragged strip there, as they do
/// on the power-of-two leaves. 2048 is the f64 leaf order
/// `sqrt(base_words / 2)` of the AVX-512 row: the largest square product
/// the Strassen recursion keeps as one `gemm_tn` call.
const KERNEL_SWEEP_SIZES: &[usize] = &[192, 256, 2048];

/// The blocking values one sweep walks.
struct Grid {
    sizes: &'static [usize],
    kcs: &'static [usize],
    mcs: &'static [usize],
    ncs: &'static [usize],
}

/// The full sweep's grid. `KC` reaches past L1: the deeper the block,
/// the fewer times each `C` tile is loaded and stored.
const FULL_GRID: Grid = Grid {
    sizes: KERNEL_SWEEP_SIZES,
    kcs: &[128, 256, 384, 512],
    mcs: &[32, 64, 128],
    ncs: &[128, 256, 512, 1024],
};

/// One small size and one value each, for smoke runs (CI, `ata
/// calibrate --quick`).
const QUICK_GRID: Grid = Grid {
    sizes: &[64],
    kcs: &[128],
    mcs: &[64],
    ncs: &[256],
};

/// `MC` and `NC` rounded up to whole tiles of `cfg`, so that no
/// candidate leaves a ragged strip in every block that the baked rows,
/// which keep whole tiles, never pay for.
fn whole_tiles(cfg: KernelConfig) -> KernelConfig {
    KernelConfig {
        mc: cfg.mc.div_ceil(cfg.mr) * cfg.mr,
        nc: cfg.nc.div_ceil(cfg.nr) * cfg.nr,
        ..cfg
    }
}

/// Stage one of the sweep: every tile of `menu` at every `KC` of
/// `grid`, at `anchor`'s `MC` and `NC`, rounded to whole tiles.
fn tile_candidates(
    menu: &[(usize, usize)],
    grid: &Grid,
    anchor: &KernelConfig,
) -> Vec<KernelConfig> {
    let mut out = Vec::new();
    for &(mr, nr) in menu {
        for &kc in grid.kcs {
            out.push(whole_tiles(KernelConfig::new(
                mr, nr, kc, anchor.mc, anchor.nc,
            )));
        }
    }
    out
}

/// Stage two: `best`'s tile and `KC` at every `MC x NC` of `grid`,
/// rounded to whole tiles, without duplicates.
fn blocking_candidates(best: &KernelConfig, grid: &Grid) -> Vec<KernelConfig> {
    let mut out = Vec::new();
    for &mc in grid.mcs {
        for &nc in grid.ncs {
            let cfg = whole_tiles(KernelConfig { mc, nc, ..*best });
            if !out.contains(&cfg) {
                out.push(cfg);
            }
        }
    }
    out
}

/// Sweep the register tiles against `KC`, then `MC x NC` for the
/// winner, returning the fastest [`KernelConfig`] by median square-gemm
/// time summed over the sweep sizes. Stage one holds `MC` and `NC` at
/// the baked row's values. At each size every candidate of a stage runs
/// in the same interleaved rounds, so host drift moves them alike.
///
/// `quick` trims the grid to one small size for smoke runs (CI,
/// `ata calibrate --quick`).
pub fn measure_kernel<T: Scalar>(quick: bool) -> KernelConfig {
    let grid = if quick { &QUICK_GRID } else { &FULL_GRID };
    let anchor = KernelConfig::for_scalar::<T>();
    let best = fastest::<T>(tile_candidates(menu_for::<T>(), grid, &anchor), grid.sizes);
    fastest::<T>(blocking_candidates(&best, grid), grid.sizes)
}

/// The config of `configs` with the least median square-gemm time
/// summed over `sizes` (the first of equally fast ones; the baked row
/// if `configs` is empty).
fn fastest<T: Scalar>(configs: Vec<KernelConfig>, sizes: &[usize]) -> KernelConfig {
    let path = micro_path_for::<T>();
    let mut bufs = PackBufs::new();
    let mut total = vec![0.0f64; configs.len()];
    for &size in sizes {
        let (a, b, mut c) = operands::<T>(size);
        let (a, b) = (a.as_ref(), b.as_ref());
        let r = time_rounds(configs.len(), ROUNDS, 0.0, |i| {
            gemm_tn_micro_path_with(path, T::ONE, a, b, &mut c.as_mut(), &configs[i], &mut bufs);
        });
        for (i, t) in total.iter_mut().enumerate() {
            *t += r.median(i);
        }
    }
    let best = total.iter().zip(configs).min_by(|a, b| a.0.total_cmp(b.0));
    best.map_or_else(KernelConfig::for_scalar::<T>, |(_, cfg)| cfg)
}

/// Order-`size` square operands `A`, `B` and a zero `C`.
fn operands<T: Scalar>(size: usize) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    (
        gen::standard(1, size, size),
        gen::standard(2, size, size),
        Matrix::zeros(size, size),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baked_tables_are_on_menu() {
        for t in [TUNED_F64, TUNED_F32] {
            assert!(
                KernelConfig::MENU.contains(&(t.kernel.mr, t.kernel.nr)),
                "baked portable tile {:?} must have an unrolled kernel",
                (t.kernel.mr, t.kernel.nr)
            );
            assert!(t.base_words >= 1024, "cutoff suspiciously small");
        }
        for (t, menu) in [
            (TUNED_F64_FMA, crate::simd::FMA_MENU_F64),
            (TUNED_F32_FMA, crate::simd::FMA_MENU_F32),
            (TUNED_F64_AVX512, crate::simd::AVX512_MENU_F64),
            (TUNED_F32_AVX512, crate::simd::AVX512_MENU_F32),
        ] {
            let tile = (t.kernel.mr, t.kernel.nr);
            assert!(
                menu.contains(&tile),
                "baked fused tile {tile:?} must have an intrinsic kernel"
            );
            assert!(
                KernelConfig::MENU.contains(&tile),
                "baked fused tile {tile:?} needs a portable fallback kernel"
            );
        }
        // The base-case budgets are checked against their sweep in
        // `ata_strassen::calibrate`.
    }

    #[test]
    fn tuned_for_covers_every_scalar() {
        let f64_portable = tuned_for_path::<f64>(MicroPath::Portable);
        let f32_t = tuned_for::<f32>();
        let tracked = tuned_for::<ata_mat::tracked::Tracked>();
        assert_eq!(
            tracked, f64_portable,
            "op-counting scalar must share the portable f64 blocking"
        );
        assert!(f32_t.kernel.mr > 0 && f32_t.kernel.nr > 0);
    }

    #[test]
    fn fused_rows_only_resolve_where_kernels_exist() {
        // Forcing Intrinsic for a scalar with no SIMD kernels must fall
        // back to the portable row, never the fused one.
        assert_eq!(
            tuned_for_path::<ata_mat::tracked::Tracked>(MicroPath::Intrinsic),
            tuned_for_path::<f64>(MicroPath::Portable),
        );
        let (f64_row, f32_row) = match crate::simd::detected() {
            Isa::Avx512 => (TUNED_F64_AVX512, TUNED_F32_AVX512),
            Isa::Fma => (TUNED_F64_FMA, TUNED_F32_FMA),
            Isa::Generic => (TUNED_F64, TUNED_F32),
        };
        assert_eq!(
            tuned_for_path::<f64>(MicroPath::Intrinsic),
            apply_env(f64_row)
        );
        assert_eq!(
            tuned_for_path::<f32>(MicroPath::Intrinsic),
            apply_env(f32_row)
        );
        assert_eq!(
            tuned_for_path::<f64>(MicroPath::Scalar),
            apply_env(TUNED_F64)
        );
    }

    #[test]
    fn tuned_for_isa_reads_every_row_on_any_host() {
        for (isa, f64_row, f32_row) in [
            (Isa::Avx512, TUNED_F64_AVX512, TUNED_F32_AVX512),
            (Isa::Fma, TUNED_F64_FMA, TUNED_F32_FMA),
            (Isa::Generic, TUNED_F64, TUNED_F32),
        ] {
            assert_eq!(tuned_for_isa::<f64>(isa), apply_env(f64_row));
            assert_eq!(tuned_for_isa::<f32>(isa), apply_env(f32_row));
            assert_eq!(
                tuned_for_isa::<ata_mat::tracked::Tracked>(isa),
                apply_env(TUNED_F64),
                "scalars without kernels keep the portable row on every ISA"
            );
        }
    }

    #[test]
    fn full_tile_sweep_sees_ragged_edges_on_every_intrinsic_menu() {
        // A tile that divides every swept size is never charged for the
        // ragged strip it leaves on the power-of-two leaves, so each menu
        // must meet a size one of its tiles does not divide.
        for menu in crate::simd::INTRINSIC_MENUS {
            assert!(
                KERNEL_SWEEP_SIZES
                    .iter()
                    .any(|&s| menu.iter().any(|&(mr, nr)| s % mr != 0 || s % nr != 0)),
                "menu {menu:?} divides every sweep size {KERNEL_SWEEP_SIZES:?}"
            );
        }
        let leaf = ((TUNED_F64_AVX512.base_words / 2) as f64).sqrt() as usize;
        assert!(
            KERNEL_SWEEP_SIZES.contains(&leaf),
            "the sweep includes the f64 leaf order sqrt(base_words / 2) = {leaf}"
        );
    }

    #[test]
    fn every_swept_config_keeps_whole_tiles() {
        // A candidate whose `MC` or `NC` is not a tile multiple leaves a
        // ragged strip in every block, so every generated config must
        // divide evenly, on every menu, in both stages, without repeats.
        let menus = crate::simd::INTRINSIC_MENUS
            .into_iter()
            .chain([KernelConfig::MENU]);
        let anchors = [TUNED_F64, TUNED_F32_FMA, TUNED_F64_AVX512, TUNED_F32_AVX512];
        for menu in menus {
            for grid in [&FULL_GRID, &QUICK_GRID] {
                for anchor in anchors {
                    let stage1 = tile_candidates(menu, grid, &anchor.kernel);
                    assert_eq!(stage1.len(), menu.len() * grid.kcs.len());
                    for best in &stage1 {
                        let stage2 = blocking_candidates(best, grid);
                        for cfg in stage1.iter().chain(&stage2) {
                            assert!(
                                cfg.mc % cfg.mr == 0 && cfg.nc % cfg.nr == 0,
                                "{cfg:?} leaves a ragged strip"
                            );
                        }
                        for (i, cfg) in stage2.iter().enumerate() {
                            assert!(!stage2[..i].contains(cfg), "{cfg:?} swept twice");
                            assert_eq!((cfg.mr, cfg.nr, cfg.kc), (best.mr, best.nr, best.kc));
                        }
                    }
                }
            }
        }
        // Rounding goes up, to the nearest whole tile.
        let six = whole_tiles(KernelConfig::new(6, 24, 128, 32, 1000));
        assert_eq!((six.mc, six.nc), (36, 1008));
    }

    #[test]
    fn menus_track_the_resolved_path() {
        use crate::micro::micro_path_for;
        use crate::simd::{AVX512_MENU_F32, AVX512_MENU_F64, FMA_MENU_F32, FMA_MENU_F64};
        if micro_path_for::<f64>() == MicroPath::Intrinsic {
            let (f64_menu, f32_menu) = match crate::simd::detected() {
                Isa::Avx512 => (AVX512_MENU_F64, AVX512_MENU_F32),
                _ => (FMA_MENU_F64, FMA_MENU_F32),
            };
            assert_eq!(menu_for::<f64>(), f64_menu);
            assert_eq!(menu_for::<f32>(), f32_menu);
        } else {
            assert_eq!(menu_for::<f64>(), KernelConfig::MENU);
        }
        assert_eq!(
            menu_for::<ata_mat::tracked::Tracked>(),
            KernelConfig::MENU,
            "op counting sweeps the portable menu on any host"
        );
    }

    #[test]
    fn quick_measurement_returns_sane_values() {
        // Smoke only: a quick sweep must terminate and produce a menu
        // tile with positive blocking. (The actual numbers are
        // hardware-dependent and not asserted.)
        let kernel = measure_kernel::<f32>(true);
        assert!(menu_for::<f32>().contains(&(kernel.mr, kernel.nr)));
    }
}
