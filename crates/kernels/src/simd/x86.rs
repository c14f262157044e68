//! Fused register microkernels for x86-64: 256-bit AVX2/FMA tiles and
//! 512-bit AVX-512F tiles.
//!
//! Each kernel computes one full `MR x NR` tile of `C += Ap^T Bp` over
//! the packed micro-panels from [`crate::pack`], exactly like the
//! portable const-generic kernel in [`crate::micro`], but with explicit
//! vectors and one fused multiply-add per lane-column per k-step. `NR`
//! is a multiple of the vector width (4 f64 / 8 f32 lanes at 256 bits,
//! 8 / 16 at 512 bits), so a tile's accumulators are `MR x NRV`
//! registers. On 16-register AVX2 the 15-register tiles (`6 x 8` f64,
//! `6 x 16` f32: 12 accumulators + 2 B vectors + 1 broadcast) are the
//! expected sweep winners; AVX-512's 32 registers hold up to 24
//! accumulators (`12 x 2` or `8 x 3`) plus their B vectors and
//! broadcast.
//!
//! Both instruction sets instantiate the one `fma_tile!` body; only the
//! target features, the vector type and the intrinsic names differ. The
//! two tile menus are disjoint (every AVX-512 tile is at least 16 f64 /
//! 32 f32 columns wide, wider than any AVX2 tile), so the tile shape
//! alone picks the kernel set.
//!
//! Each kernel reads its micro-panels at the strides the engine passes:
//! step `p` of the reduction reads `ap[p * sa..][..MR]` and
//! `bp[p * sb..][..NR]`. `gemm` passes `sa = MR` and `sb = NR` (its
//! panels are as wide as the tile); `syrk`'s diagonal block reads both
//! from one pack of width `lcm(MR, NR)` (see [`crate::pack`]).
//!
//! Each kernel computes a whole `MR x NR` tile. The engine runs ragged
//! edges and diagonal straddles through them too, on a scratch tile it
//! seeds from `C`'s live entries and writes back partially; these
//! kernels are unreachable for non-`f32`/`f64` scalars (see
//! [`super::full_tile`]), which is what preserves the engine's exact-op
//! `Tracked` contract.
//!
//! The fused accumulation rounds differently from the deliberately
//! unfused [`ata_mat::Scalar::mul_add`] chain of the portable kernel:
//! intrinsic results agree with the portable path to the usual product
//! tolerance, not bit-for-bit (`crates/kernels/tests/simd_paths.rs`
//! pins both properties). They are bitwise the fused scalar chain
//! `acc = c; acc = a.mul_add(b, acc)` over `p` with the inherent
//! `f64::mul_add` / `f32::mul_add` (pinned by the `simd` module tests).

use super::{supports, Isa};
use crate::pack::micro_panel_len;
use ata_mat::MatMut;
use core::arch::x86_64::{
    __m256, __m256d, __m512, __m512d, _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_loadu_pd,
    _mm256_loadu_ps, _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_pd, _mm256_setzero_ps,
    _mm256_storeu_pd, _mm256_storeu_ps, _mm512_fmadd_pd, _mm512_fmadd_ps, _mm512_loadu_pd,
    _mm512_loadu_ps, _mm512_set1_pd, _mm512_set1_ps, _mm512_setzero_pd, _mm512_setzero_ps,
    _mm512_storeu_pd, _mm512_storeu_ps,
};

/// f64 lanes per 256-bit vector.
const LANES_F64: usize = 4;
/// f32 lanes per 256-bit vector.
const LANES_F32: usize = 8;
/// f64 lanes per 512-bit vector.
const LANES_F64_512: usize = 8;
/// f32 lanes per 512-bit vector.
const LANES_F32_512: usize = 16;

/// Generate one fused `MR x (LANES * NRV)` tile kernel: seed the
/// accumulators from `C`, run `kc` broadcast-FMA steps over the packed
/// panels (unrolled by 4), write back once.
macro_rules! fma_tile {
    ($name:ident, $features:literal, $elem:ty, $vec:ty, $lanes:expr, $setzero:ident,
     $set1:ident, $loadu:ident, $fmadd:ident, $storeu:ident, $mr:expr, $nrv:expr) => {
        /// One full register tile of `C += Ap^T Bp`, fused, reading
        /// step `p` at `ap[p * sa..][..MR]` and `bp[p * sb..][..NR]`.
        ///
        /// # Safety
        /// The CPU must support every feature in the `target_feature`
        /// list, `ap` must hold at least `micro_panel_len(kc, MR, sa)`
        /// elements, `bp` at least `micro_panel_len(kc, NR, sb)`, and `c`
        /// must be an `MR x NR` tile (`NR = LANES * NRV`). The
        /// dispatchers below check all four before calling.
        #[target_feature(enable = $features)]
        unsafe fn $name(
            kc: usize,
            ap: &[$elem],
            sa: usize,
            bp: &[$elem],
            sb: usize,
            c: &mut MatMut<'_, $elem>,
        ) {
            const MR: usize = $mr;
            const NRV: usize = $nrv;
            const NR: usize = NRV * $lanes;
            debug_assert_eq!(c.shape(), (MR, NR));
            debug_assert!(
                ap.len() >= micro_panel_len(kc, MR, sa) && bp.len() >= micro_panel_len(kc, NR, sb)
            );
            // SAFETY: the dispatcher verified the feature set via the
            // cached runtime detection and checked that `ap` holds
            // `(kc - 1) * sa + MR` elements, `bp` holds
            // `(kc - 1) * sb + NR` (nothing at `kc = 0`), and
            // `c.shape() == (MR, NR)`. Step `p < kc` loads at
            // `p * sa + i` (`i < MR`) and `p * sb + lane` (`lane < NR`),
            // so every unaligned load/store below stays inside its slice
            // or row. The pointers advance with `wrapping_add`, since
            // after the last step they may point past the slice; they are
            // not read there.
            unsafe {
                let mut acc: [[$vec; NRV]; MR] = [[$setzero(); NRV]; MR];
                for (i, arow) in acc.iter_mut().enumerate() {
                    let src = c.row(i).as_ptr();
                    for (v, a) in arow.iter_mut().enumerate() {
                        *a = $loadu(src.add(v * $lanes));
                    }
                }
                let mut app = ap.as_ptr();
                let mut bpp = bp.as_ptr();
                // One k-step: the same FMAs in the same order whether it
                // runs in the 4-step unrolled body or the remainder loop.
                macro_rules! step {
                    () => {
                        let mut bvec: [$vec; NRV] = [$setzero(); NRV];
                        for (v, b) in bvec.iter_mut().enumerate() {
                            *b = $loadu(bpp.add(v * $lanes));
                        }
                        for (i, arow) in acc.iter_mut().enumerate() {
                            let ai = $set1(*app.add(i));
                            for (v, a) in arow.iter_mut().enumerate() {
                                *a = $fmadd(ai, bvec[v], *a);
                            }
                        }
                        app = app.wrapping_add(sa);
                        bpp = bpp.wrapping_add(sb);
                    };
                }
                for _ in 0..kc / 4 {
                    step!();
                    step!();
                    step!();
                    step!();
                }
                for _ in 0..kc % 4 {
                    step!();
                }
                for (i, arow) in acc.iter().enumerate() {
                    let dst = c.row_mut(i).as_mut_ptr();
                    for (v, a) in arow.iter().enumerate() {
                        $storeu(dst.add(v * $lanes), *a);
                    }
                }
            }
        }
    };
}

macro_rules! fma_tile_f64 {
    ($name:ident, $mr:expr, $nrv:expr) => {
        fma_tile!(
            $name,
            "avx2,fma",
            f64,
            __m256d,
            LANES_F64,
            _mm256_setzero_pd,
            _mm256_set1_pd,
            _mm256_loadu_pd,
            _mm256_fmadd_pd,
            _mm256_storeu_pd,
            $mr,
            $nrv
        );
    };
}

macro_rules! fma_tile_f32 {
    ($name:ident, $mr:expr, $nrv:expr) => {
        fma_tile!(
            $name,
            "avx2,fma",
            f32,
            __m256,
            LANES_F32,
            _mm256_setzero_ps,
            _mm256_set1_ps,
            _mm256_loadu_ps,
            _mm256_fmadd_ps,
            _mm256_storeu_ps,
            $mr,
            $nrv
        );
    };
}

macro_rules! avx512_tile_f64 {
    ($name:ident, $mr:expr, $nrv:expr) => {
        fma_tile!(
            $name,
            "avx512f",
            f64,
            __m512d,
            LANES_F64_512,
            _mm512_setzero_pd,
            _mm512_set1_pd,
            _mm512_loadu_pd,
            _mm512_fmadd_pd,
            _mm512_storeu_pd,
            $mr,
            $nrv
        );
    };
}

macro_rules! avx512_tile_f32 {
    ($name:ident, $mr:expr, $nrv:expr) => {
        fma_tile!(
            $name,
            "avx512f",
            f32,
            __m512,
            LANES_F32_512,
            _mm512_setzero_ps,
            _mm512_set1_ps,
            _mm512_loadu_ps,
            _mm512_fmadd_ps,
            _mm512_storeu_ps,
            $mr,
            $nrv
        );
    };
}

fma_tile_f64!(tile_f64_4x4, 4, 1);
fma_tile_f64!(tile_f64_4x8, 4, 2);
fma_tile_f64!(tile_f64_6x4, 6, 1);
fma_tile_f64!(tile_f64_6x8, 6, 2);
fma_tile_f64!(tile_f64_8x4, 8, 1);
fma_tile_f64!(tile_f64_8x8, 8, 2);

fma_tile_f32!(tile_f32_4x8, 4, 1);
fma_tile_f32!(tile_f32_4x16, 4, 2);
fma_tile_f32!(tile_f32_6x8, 6, 1);
fma_tile_f32!(tile_f32_6x16, 6, 2);
fma_tile_f32!(tile_f32_8x8, 8, 1);
fma_tile_f32!(tile_f32_8x16, 8, 2);

avx512_tile_f64!(tile_f64_4x16_avx512, 4, 2);
avx512_tile_f64!(tile_f64_6x16_avx512, 6, 2);
avx512_tile_f64!(tile_f64_8x16_avx512, 8, 2);
avx512_tile_f64!(tile_f64_8x24_avx512, 8, 3);
avx512_tile_f64!(tile_f64_12x16_avx512, 12, 2);

avx512_tile_f32!(tile_f32_4x32_avx512, 4, 2);
avx512_tile_f32!(tile_f32_6x32_avx512, 6, 2);
avx512_tile_f32!(tile_f32_8x32_avx512, 8, 2);
avx512_tile_f32!(tile_f32_8x48_avx512, 8, 3);

/// Generate one dispatcher: run the `isa` kernel for tile `(mr, nr)`.
/// `false` means "no kernel took the tile" (the host lacks `isa`, the
/// tile is off this menu, or the operands fail the bounds checks) and
/// the caller must try the next kernel set or the portable path.
macro_rules! tile_dispatch {
    ($(#[$doc:meta])* $name:ident, $elem:ty, $isa:expr,
     $(($mr:literal, $nr:literal) => $kernel:ident),+ $(,)?) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        pub(super) fn $name(
            mr: usize,
            nr: usize,
            kc: usize,
            ap: &[$elem],
            sa: usize,
            bp: &[$elem],
            sb: usize,
            c: &mut MatMut<'_, $elem>,
        ) -> bool {
            if !supports($isa)
                || ap.len() < micro_panel_len(kc, mr, sa)
                || bp.len() < micro_panel_len(kc, nr, sb)
                || c.shape() != (mr, nr)
            {
                return false;
            }
            // SAFETY: `supports` just confirmed through the cached
            // runtime detection that the CPU has every target feature
            // this dispatcher's kernels enable, and the operand bounds
            // above are exactly the kernels' preconditions (`ap` holds
            // `micro_panel_len(kc, mr, sa)`, `bp` holds
            // `micro_panel_len(kc, nr, sb)`, `c` is `mr x nr`).
            unsafe {
                match (mr, nr) {
                    $(($mr, $nr) => $kernel(kc, ap, sa, bp, sb, c),)+
                    _ => return false,
                }
            }
            true
        }
    };
}

tile_dispatch!(
    /// The AVX2/FMA f64 kernel set ([`super::FMA_MENU_F64`]).
    tile_f64,
    f64,
    Isa::Fma,
    (4, 4) => tile_f64_4x4,
    (4, 8) => tile_f64_4x8,
    (6, 4) => tile_f64_6x4,
    (6, 8) => tile_f64_6x8,
    (8, 4) => tile_f64_8x4,
    (8, 8) => tile_f64_8x8,
);

tile_dispatch!(
    /// The AVX2/FMA f32 kernel set ([`super::FMA_MENU_F32`]).
    tile_f32,
    f32,
    Isa::Fma,
    (4, 8) => tile_f32_4x8,
    (4, 16) => tile_f32_4x16,
    (6, 8) => tile_f32_6x8,
    (6, 16) => tile_f32_6x16,
    (8, 8) => tile_f32_8x8,
    (8, 16) => tile_f32_8x16,
);

tile_dispatch!(
    /// The AVX-512F f64 kernel set ([`super::AVX512_MENU_F64`]).
    tile_f64_avx512,
    f64,
    Isa::Avx512,
    (4, 16) => tile_f64_4x16_avx512,
    (6, 16) => tile_f64_6x16_avx512,
    (8, 16) => tile_f64_8x16_avx512,
    (8, 24) => tile_f64_8x24_avx512,
    (12, 16) => tile_f64_12x16_avx512,
);

tile_dispatch!(
    /// The AVX-512F f32 kernel set ([`super::AVX512_MENU_F32`]).
    tile_f32_avx512,
    f32,
    Isa::Avx512,
    (4, 32) => tile_f32_4x32_avx512,
    (6, 32) => tile_f32_6x32_avx512,
    (8, 32) => tile_f32_8x32_avx512,
    (8, 48) => tile_f32_8x48_avx512,
);
