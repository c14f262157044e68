//! The register-blocked microkernel engine (BLIS-style `GEMM`/`SYRK`).
//!
//! [`crate::gemm::gemm_tn`] and [`crate::syrk::syrk_ln`] run this
//! engine at every size, on the tile path [`micro_path_for`] resolves.
//!
//! # Anatomy
//!
//! The engine is the classical three-level blocking of Goto / BLIS,
//! specialized to the transposed-left product `C += alpha * A^T B` that
//! the paper's algorithms need (`A: m x n`, `B: m x k`, `C: n x k`):
//!
//! ```text
//! for jc in steps of NC over k        // C column blocks
//!   for pc in steps of KC over m      // reduction blocks
//!     pack B[pc.., jc..]  -> bpack    // NR-wide panels, alpha folded in
//!                                     // (syrk, alpha = 1: W-wide, shared)
//!     for ic in steps of MC over n    // C row blocks
//!       pack A[pc.., ic..] -> apack   // MR-wide panels
//!                                     // (syrk's diagonal block: none)
//!       for jr in steps of NR         // micro-tile columns
//!         for ir in steps of MR       // micro-tile rows
//!           microkernel: MR x NR accumulators in registers,
//!           one fused multiply-add per (i, j, p)
//! ```
//!
//! `syrk` is the same nest with `B = A` under a lower-triangle mask, as
//! in BLIS `gemmt`: the `ic` loop starts at `jc` (every row above lies
//! wholly above the diagonal), tiles above the diagonal are skipped, and
//! tiles the diagonal cuts run a kernel that writes only `i >= j`.
//!
//! # The shared pack
//!
//! Rows `jc..jn` of a `syrk` column block (its diagonal block) need the
//! same columns of `A` on both sides. At `alpha = 1` the nest packs them
//! once per `(jc, pc)`, into panels `W = lcm(MR, NR)` wide (the
//! `shared` layout in [`crate::pack`]), and reads the `MR`-row
//! micro-panels and the `NR`-column slivers of the diagonal block from
//! that one pack: every tile kernel takes its micro-panel strides as
//! arguments, `W` here and the tile's own `MR`/`NR` in `gemm`. The
//! diagonal rows step in whole tiles from `jc` (`MC` rounded up to a
//! multiple of `MR`), so that no micro-panel straddles two panels. Rows
//! below the diagonal block (`n > NC`) still pack their own `MR`-wide
//! panels, and read their slivers from the shared pack. Any other
//! `alpha` belongs to one side only, so there both sides pack as in
//! `gemm`. Only addressing differs from `gemm`'s: every multiply-add runs
//! in the same order on the same values, so each path's bits and the
//! `Tracked` ledgers stay those of the lower triangle of
//! `gemm_tn(alpha, A, A)`.
//!
//! The microkernel keeps an `MR x NR` accumulator array in registers,
//! seeded from `C` and written back once per `KC` block, so `C` traffic
//! is `1/KC` of the rank-1 scheme's and `A`/`B` traffic is `1/NR` and
//! `1/MR` respectively. `MR`/`NR` are const generics from a fixed menu
//! ([`KernelConfig::MENU`]); the blocking parameters come from the
//! measured per-scalar table in [`crate::calibrate`].
//!
//! # Exact operation accounting
//!
//! Every result element is produced by `Scalar::mul_add` chains seeded
//! from the existing `C` value: with `alpha = 1` — the hot path every
//! Strassen product and every measured-flop validation runs — the
//! engine performs *exactly* `m * n * k` multiplications and
//! `m * n * k` additions, and no subtraction or negation (the ledger
//! the `micro_props` proptests pin down, from empty shapes up). On the
//! portable and scalar paths ragged edges are computed by a bounds-aware
//! scalar tile ([`edge kernel`](self)) rather than with zero-padding
//! arithmetic, which is what keeps the counts exact for arbitrary
//! shapes. `alpha = -1` stays multiplication-exact too (`m * n * k`
//! muls) by folding the sign into the `B`-pack as `m * k` negations; any
//! other `alpha` folds in as `m * k` multiplications.
//!
//! # The intrinsic contract
//!
//! On [`MicroPath::Intrinsic`] every tile a fused kernel exists for runs
//! it: full tiles in place, ragged edges and diagonal straddles on a
//! scratch tile seeded from `C`'s live entries, of which only those
//! entries are written back. Each output element is therefore the fused
//! chain `acc = c; acc = fma(a_p, b_p, acc)` over the whole reduction,
//! whatever the tile, `kc`, `mc` or `nc`: a `kc` block ends by storing
//! `acc` to `C` and the next starts by loading it, which rounds nothing.

use crate::pack::{
    micro_panel_len, pack_panels, pack_panels_par, packed_elems, panel_stride, shared_width,
    with_thread_bufs, PackBufs, PackScale,
};
use ata_mat::{MatMut, MatRef, Scalar};
use std::sync::OnceLock;

/// Blocking parameters of the microkernel engine.
///
/// `(mr, nr)` select the register tile (must come from
/// [`KernelConfig::MENU`] for the fast path; any other pair still
/// computes correctly through the bounds-aware edge kernel). `kc`, `mc`,
/// `nc` are the cache-blocking depths of the loop nest: a `kc x mc`
/// `A`-block should sit in L2 and a `kc x nr` `B`-sliver in L1 while a
/// micro-tile executes.
///
/// Defaults per scalar type come from the measured table in
/// [`crate::calibrate`]; construct explicitly (or set
/// `ATA_KERNEL_PARAMS`) to override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Register-tile rows (micro-panel width of the packed `A` operand).
    pub mr: usize,
    /// Register-tile columns (micro-panel width of the packed `B`
    /// operand).
    pub nr: usize,
    /// Reduction-dimension block depth.
    pub kc: usize,
    /// `C` row-block height (columns of `A` packed per block).
    pub mc: usize,
    /// `C` column-block width (columns of `B` packed per block).
    pub nc: usize,
}

impl KernelConfig {
    /// Register tiles with a dedicated unrolled portable microkernel.
    /// Other `(mr, nr)` pairs run through the (slower) bounds-aware
    /// kernel. Every intrinsic tile a tuned row in [`crate::calibrate`]
    /// bakes is on this menu — all of the AVX2 menus
    /// ([`crate::simd::FMA_MENU_F64`] / [`crate::simd::FMA_MENU_F32`])
    /// and the baked AVX-512 tiles — so the same tile keeps an unrolled
    /// portable kernel when it runs on a host without that ISA.
    pub const MENU: &'static [(usize, usize)] = &[
        (4, 4),
        (4, 8),
        (4, 12),
        (4, 16),
        (6, 4),
        (6, 8),
        (6, 16),
        (8, 4),
        (8, 6),
        (8, 8),
        (8, 16),
        (8, 32),
        (12, 4),
        (12, 16),
    ];

    /// Validated constructor.
    ///
    /// # Panics
    /// If any parameter is zero.
    pub fn new(mr: usize, nr: usize, kc: usize, mc: usize, nc: usize) -> Self {
        assert!(
            mr > 0 && nr > 0 && kc > 0 && mc > 0 && nc > 0,
            "kernel blocking parameters must be positive"
        );
        Self { mr, nr, kc, mc, nc }
    }

    /// The measured default for scalar type `T` (see
    /// [`crate::calibrate::tuned_for`]), after applying any
    /// `ATA_KERNEL_PARAMS` environment override.
    pub fn for_scalar<T: Scalar>() -> Self {
        crate::calibrate::tuned_for::<T>().kernel
    }

    /// Element counts `(apack, bpack)` of the packing buffers one kernel
    /// invocation under this config needs — what `AtaPlan` warms
    /// per-thread so steady-state executes allocate nothing. The `B`
    /// side holds `gemm`'s `nr`-wide pack or `syrk`'s shared
    /// `lcm(mr, nr)`-wide one, whichever is larger. The counts cover any
    /// scalar of at least 4 bytes (every `Scalar` in the workspace): they
    /// include `f32`'s panel pad, the widest in elements.
    pub fn pack_buffer_elems(&self) -> (usize, usize) {
        let b_side = |width| packed_elems::<f32>(self.kc, self.nc, width);
        (
            packed_elems::<f32>(self.kc, self.mc, self.mr),
            b_side(self.nr).max(b_side(shared_width(self.mr, self.nr))),
        )
    }
}

/// The engine a kernel entry point runs, as [`selected_path`] reports
/// it: always [`KernelPath::Micro`].
///
/// Kept only because the end-to-end benchmark (`perfbench/src/serve.rs`)
/// names `KernelPath::Blocked`; it goes once that import does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// The packed register-blocked engine in this module.
    Micro,
    /// Never returned: no other engine exists.
    Blocked,
}

/// Which tile implementation the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroPath {
    /// Explicit-SIMD fused kernels from [`crate::simd`], for full and
    /// partial tiles alike (see the module's intrinsic contract).
    Intrinsic,
    /// The safe const-generic kernels in this module (unfused
    /// `mul_add`, autovectorizer-scheduled).
    Portable,
    /// The bounds-aware scalar kernel for every tile — bit-identical to
    /// `Portable` (same per-element accumulation order); the ablation
    /// baseline.
    Scalar,
}

impl MicroPath {
    /// Stable lowercase name, matching the `ATA_MICRO` values and the
    /// bench-record `path` field.
    pub fn name(self) -> &'static str {
        match self {
            MicroPath::Intrinsic => "intrinsic",
            MicroPath::Portable => "portable",
            MicroPath::Scalar => "scalar",
        }
    }
}

/// The tile path pinned by `ATA_MICRO=intrinsic|portable|scalar`, read
/// once per process; unset or unknown values pin nothing, so stale
/// scripts degrade to defaults, not to panics.
fn forced_path() -> Option<MicroPath> {
    static FORCED: OnceLock<Option<MicroPath>> = OnceLock::new();
    *FORCED.get_or_init(|| match std::env::var("ATA_MICRO").as_deref() {
        Ok("intrinsic") => Some(MicroPath::Intrinsic),
        Ok("portable") => Some(MicroPath::Portable),
        Ok("scalar") => Some(MicroPath::Scalar),
        _ => None,
    })
}

/// The tile path the engine resolves for scalar type `T` under the
/// current `ATA_MICRO` setting and detected ISA.
///
/// A forced `intrinsic` (and no pin at all) degrades gracefully to
/// `Portable` when [`crate::simd`] has no kernels for `T` on this CPU —
/// notably `Tracked` and the exact fields never reach intrinsics, which
/// is what keeps their op-count contract independent of the host ISA.
pub fn micro_path_for<T: Scalar>() -> MicroPath {
    match forced_path() {
        Some(path @ (MicroPath::Portable | MicroPath::Scalar)) => path,
        _ if crate::simd::has_kernels::<T>() => MicroPath::Intrinsic,
        _ => MicroPath::Portable,
    }
}

/// The engine [`crate::gemm::gemm_tn`] / [`crate::syrk::syrk_ln`] run for
/// an `(m, n, k)` product of scalar type `T`: [`KernelPath::Micro`] at
/// every shape. A shim kept for the benchmark, like [`KernelPath`].
pub fn selected_path<T: Scalar>(_m: usize, _n: usize, _k: usize) -> KernelPath {
    KernelPath::Micro
}

// ---------------------------------------------------------------------
// Microkernels.
// ---------------------------------------------------------------------

/// The full-tile microkernel: `MR x NR` accumulators seeded from `C`,
/// one `mul_add` per `(i, j, p)`, written back once. Step `p` reads
/// `ap[p * sa..][..MR]` and `bp[p * sb..][..NR]`.
///
/// Deliberately *not* inlined: each instantiation must stay a
/// standalone function so LLVM vectorizes its accumulator loops in
/// isolation. Inlining all menu instantiations into the tile sweep
/// (the pre-dispatch layout) blows the optimizer's budget once the
/// menu grows past a handful of tiles and costs the portable path ~4x.
#[inline(never)]
fn kernel<T: Scalar, const MR: usize, const NR: usize>(
    kc: usize,
    ap: &[T],
    sa: usize,
    bp: &[T],
    sb: usize,
    c: &mut MatMut<'_, T>,
) {
    debug_assert_eq!(c.shape(), (MR, NR));
    let mut acc = [[T::ZERO; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c.row(i)[..NR]);
    }
    // Every step but the last as a whole stride through `chunks_exact`;
    // the last micro-panel row may end the buffer short of a stride.
    // Slicing each step apart measured about 1.2x slower here.
    if let Some(steps) = kc.checked_sub(1) {
        let (a_body, a_last) = ap.split_at(steps * sa);
        let (b_body, b_last) = bp.split_at(steps * sb);
        for (av, bv) in a_body.chunks_exact(sa).zip(b_body.chunks_exact(sb)) {
            kernel_step::<T, MR, NR>(&mut acc, av, bv);
        }
        kernel_step::<T, MR, NR>(&mut acc, a_last, b_last);
    }
    for (i, row) in acc.iter().enumerate() {
        c.row_mut(i)[..NR].copy_from_slice(row);
    }
}

/// One reduction step of [`kernel`]: `acc[i][j] += av[i] * bv[j]`.
#[inline(always)]
fn kernel_step<T: Scalar, const MR: usize, const NR: usize>(
    acc: &mut [[T; NR]; MR],
    av: &[T],
    bv: &[T],
) {
    for (ai, row) in av[..MR].iter().zip(acc.iter_mut()) {
        for (bj, acc_ij) in bv[..NR].iter().zip(row.iter_mut()) {
            *acc_ij = ai.mul_add(*bj, *acc_ij);
        }
    }
}

/// Dispatch a full `mr x nr` tile along the resolved [`MicroPath`],
/// its micro-panels read at strides `sa` and `sb`.
///
/// `Intrinsic` tries the fused SIMD kernel first and falls through to
/// the portable instantiation when none takes the tile (unsupported
/// scalar/ISA or off-menu shape) — the graceful, bit-identical
/// fallback. `Scalar` runs the bounds-aware kernel even on full tiles,
/// which is bit-identical to `Portable` (same per-element accumulation
/// order) and serves as the ablation baseline.
#[allow(clippy::too_many_arguments)]
#[inline]
fn full_tile<T: Scalar>(
    path: MicroPath,
    mr: usize,
    nr: usize,
    kc: usize,
    ap: &[T],
    sa: usize,
    bp: &[T],
    sb: usize,
    c: &mut MatMut<'_, T>,
) {
    match path {
        MicroPath::Intrinsic => {
            if crate::simd::full_tile(mr, nr, kc, ap, sa, bp, sb, c) {
                return;
            }
        }
        MicroPath::Scalar => {
            edge_tile(kc, sa, sb, mr, nr, ap, bp, c, None);
            return;
        }
        MicroPath::Portable => {}
    }
    match (mr, nr) {
        (4, 4) => kernel::<T, 4, 4>(kc, ap, sa, bp, sb, c),
        (4, 8) => kernel::<T, 4, 8>(kc, ap, sa, bp, sb, c),
        (4, 16) => kernel::<T, 4, 16>(kc, ap, sa, bp, sb, c),
        (6, 8) => kernel::<T, 6, 8>(kc, ap, sa, bp, sb, c),
        (6, 16) => kernel::<T, 6, 16>(kc, ap, sa, bp, sb, c),
        (8, 4) => kernel::<T, 8, 4>(kc, ap, sa, bp, sb, c),
        (8, 6) => kernel::<T, 8, 6>(kc, ap, sa, bp, sb, c),
        (8, 8) => kernel::<T, 8, 8>(kc, ap, sa, bp, sb, c),
        (8, 16) => kernel::<T, 8, 16>(kc, ap, sa, bp, sb, c),
        (8, 32) => kernel::<T, 8, 32>(kc, ap, sa, bp, sb, c),
        (12, 4) => kernel::<T, 12, 4>(kc, ap, sa, bp, sb, c),
        (12, 16) => kernel::<T, 12, 16>(kc, ap, sa, bp, sb, c),
        (4, 12) => kernel::<T, 4, 12>(kc, ap, sa, bp, sb, c),
        (6, 4) => kernel::<T, 6, 4>(kc, ap, sa, bp, sb, c),
        _ => edge_tile(kc, sa, sb, mr, nr, ap, bp, c, None),
    }
}

/// Columns of row `ii` of an `_ x nr_eff` tile that the sweep computes:
/// all of them, or with `diag = Some((ir, jr))` (tile placed at rows
/// `ir..`, cols `jr..` of a syrk `C`) only those on or below the
/// diagonal, `ir + ii >= jr + jj`.
#[inline]
fn live_cols(ii: usize, nr_eff: usize, diag: Option<(usize, usize)>) -> usize {
    match diag {
        None => nr_eff,
        Some((ir, jr)) => (ir + ii + 1).saturating_sub(jr).min(nr_eff),
    }
}

/// A ragged-edge or diagonal-straddle tile on the intrinsic path: copy
/// `C`'s live entries into a full `mr x nr` scratch tile, run the fused
/// kernel on it over the zero-padded panels, and write back only the
/// live entries. Each live entry thus gets exactly the fused chain a
/// full tile gives it; the scratch entries outside `C` see only the
/// packs' zero pad and are dropped.
///
/// Only the intrinsic path takes it: the portable/scalar paths keep the
/// exact-op [`edge_tile`], so `Tracked` counts and portable bitwise
/// behavior are unchanged. The scratch holds the largest tile on any
/// intrinsic menu. `false` means no fused kernel took the tile (`C` is
/// untouched) and the caller must fall back.
#[allow(clippy::too_many_arguments)]
fn partial_tile_intrinsic<T: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    ap: &[T],
    sa: usize,
    bp: &[T],
    sb: usize,
    c: &mut MatMut<'_, T>,
    diag: Option<(usize, usize)>,
) -> bool {
    use crate::simd::MAX_TILE_ELEMS;
    if mr * nr > MAX_TILE_ELEMS {
        return false;
    }
    let (mr_eff, nr_eff) = c.shape();
    let mut scratch = [T::ZERO; MAX_TILE_ELEMS];
    for ii in 0..mr_eff {
        let live = live_cols(ii, nr_eff, diag);
        scratch[ii * nr..][..live].copy_from_slice(&c.row(ii)[..live]);
    }
    let mut sv = MatMut::from_slice(&mut scratch[..mr * nr], mr, nr);
    if !crate::simd::full_tile(mr, nr, kc, ap, sa, bp, sb, &mut sv) {
        return false;
    }
    for ii in 0..mr_eff {
        let live = live_cols(ii, nr_eff, diag);
        c.row_mut(ii)[..live].copy_from_slice(&scratch[ii * nr..][..live]);
    }
    true
}

/// Bounds-aware tile for ragged edges and diagonal straddles.
///
/// Computes `c[ii, jj] (+)= sum_p ap[p * sa + ii] * bp[p * sb + jj]` for
/// `ii < mr_eff`, `jj < jj_max(ii)` where the column cap enforces the
/// lower-triangle constraint when `diag = Some((ir, jr))` (tile placed at
/// rows `ir..`, cols `jr..` of a syrk `C`: only `ir + ii >= jr + jj`
/// entries are touched). Performs exactly one multiply and one add per
/// computed `(ii, jj, p)` triple — no padding arithmetic.
///
/// Not inlined, like [`kernel`]: inlined into the tile sweep, the
/// scalar path (which runs every tile here) measured about 1.5x slower.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn edge_tile<T: Scalar>(
    kc: usize,
    sa: usize,
    sb: usize,
    mr_eff: usize,
    nr_eff: usize,
    ap: &[T],
    bp: &[T],
    c: &mut MatMut<'_, T>,
    diag: Option<(usize, usize)>,
) {
    debug_assert_eq!(c.shape(), (mr_eff, nr_eff));
    for ii in 0..mr_eff {
        let jj_max = live_cols(ii, nr_eff, diag);
        let crow = c.row_mut(ii);
        for (jj, cv) in crow.iter_mut().enumerate().take(jj_max) {
            let mut acc = *cv;
            for p in 0..kc {
                acc = ap[p * sa + ii].mul_add(bp[p * sb + jj], acc);
            }
            *cv = acc;
        }
    }
}

// ---------------------------------------------------------------------
// Loop nest.
// ---------------------------------------------------------------------

/// One operand's packed `(jc, pc)` or `(ic, pc)` block as the sweep
/// reads it: `width`-wide panels of `kc` rows in `buf` (the tile's `mr`
/// or `nr`, or the shared pack's `lcm(mr, nr)`), the sweep's first row
/// (`A` side) or column (`B` side) at packed column `skip`.
#[derive(Clone, Copy)]
struct Panels<'a, T> {
    buf: &'a [T],
    width: usize,
    skip: usize,
}

impl<'a, T> Panels<'a, T> {
    /// `buf`'s panels, read from packed column 0.
    fn new(buf: &'a [T], width: usize) -> Self {
        Self {
            buf,
            width,
            skip: 0,
        }
    }

    /// The `r`-wide micro-panel `at` columns past the sweep's first,
    /// whose step `p` lies at `p * width`. `skip + at` is a multiple of
    /// `r`, which divides `width`, so the micro-panel lies inside one
    /// panel.
    fn micro(&self, kc: usize, at: usize, r: usize) -> &'a [T] {
        let col = self.skip + at;
        let start = (col / self.width) * panel_stride::<T>(kc, self.width) + col % self.width;
        &self.buf[start..][..micro_panel_len(kc, r, self.width)]
    }
}

/// Sweep the packed `(a, b)` blocks over the `C` block at
/// `(row0, col0)` of extent `mc_eff x nc_eff`.
///
/// With `lower`, only entries on or below the diagonal of `C` are
/// touched: each micro-column starts at the first micro-row that reaches
/// the diagonal, and tiles the diagonal cuts go to the partial-tile
/// kernels.
#[allow(clippy::too_many_arguments)]
fn sweep_tiles<T: Scalar>(
    path: MicroPath,
    cfg: &KernelConfig,
    kc_eff: usize,
    mc_eff: usize,
    nc_eff: usize,
    a: Panels<'_, T>,
    b: Panels<'_, T>,
    c: &mut MatMut<'_, T>,
    row0: usize,
    col0: usize,
    lower: bool,
) {
    let (mr, nr) = (cfg.mr, cfg.nr);
    let (sa, sb) = (a.width, b.width);
    let mut jr = 0;
    while jr < nc_eff {
        let nr_eff = nr.min(nc_eff - jr);
        let bp = b.micro(kc_eff, jr, nr);
        let j = col0 + jr;
        let mut ir = if lower {
            (j.saturating_sub(row0) / mr) * mr
        } else {
            0
        };
        while ir < mc_eff {
            let mr_eff = mr.min(mc_eff - ir);
            let ap = a.micro(kc_eff, ir, mr);
            let i = row0 + ir;
            let mut ctile = c.block_mut(i, i + mr_eff, j, j + nr_eff);
            let full = mr_eff == mr && nr_eff == nr;
            // Under the mask, the diagonal cuts a tile whose top row `i`
            // lies above the diagonal entry of its last column.
            let diag = (lower && i + 1 < j + nr_eff).then_some((i, j));
            if full && diag.is_none() {
                full_tile(path, mr, nr, kc_eff, ap, sa, bp, sb, &mut ctile);
            } else if path != MicroPath::Intrinsic
                || !partial_tile_intrinsic(mr, nr, kc_eff, ap, sa, bp, sb, &mut ctile, diag)
            {
                edge_tile(kc_eff, sa, sb, mr_eff, nr_eff, ap, bp, &mut ctile, diag);
            }
            ir += mr;
        }
        jr += nr;
    }
}

/// The one packed loop nest behind [`gemm_tn_micro_path_with`] and
/// [`syrk_ln_micro_path_with`]: `C += alpha * A^T B`, or with `lower`
/// (`B` is `A`, `C` is square) only the lower triangle of it.
///
/// Each `B` panel is packed once per `(jc, pc)`. Under the mask the `ic`
/// loop starts at `jc`, since every row above `jc` lies wholly above the
/// diagonal of the `jc..jn` column block, and at `alpha = 1` the
/// diagonal block's rows read their `A` micro-panels from that `B` pack
/// (the module's shared pack).
#[allow(clippy::too_many_arguments)]
fn macro_kernel<T: Scalar>(
    path: MicroPath,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
    bufs: &mut PackBufs<T>,
    lower: bool,
) {
    let (m, n) = a.shape();
    let k = b.cols();
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let scale = PackScale::from_alpha(alpha);
    // A scaled pack cannot serve the unscaled `A` side too.
    let shared = lower && scale == PackScale::One;
    let b_width = if shared {
        shared_width(cfg.mr, cfg.nr)
    } else {
        cfg.nr
    };
    let a_elems = packed_elems::<T>(cfg.kc.min(m), cfg.mc.min(n), cfg.mr);
    let b_elems = packed_elems::<T>(cfg.kc.min(m), cfg.nc.min(k), b_width);
    let (apack, bpack) = bufs.split(a_elems, b_elems);
    // Shared rows step in whole tiles from `jc`, so that no `A`
    // micro-panel straddles two shared panels.
    let mc_shared = cfg.mc.next_multiple_of(cfg.mr);

    let mut jc = 0;
    while jc < k {
        let jn = (jc + cfg.nc).min(k);
        let mut pc = 0;
        while pc < m {
            let pe = (pc + cfg.kc).min(m);
            let kc_eff = pe - pc;
            pack_panels_par(b.block(pc, pe, jc, jn), b_width, scale, bpack);
            let b_panels = Panels::new(bpack, b_width);
            let mut ic = if lower { jc } else { 0 };
            while ic < n {
                let (im, a_panels) = if shared && ic < jn {
                    let skip = ic - jc;
                    ((ic + mc_shared).min(jn), Panels { skip, ..b_panels })
                } else {
                    let im = (ic + cfg.mc).min(n);
                    pack_panels(a.block(pc, pe, ic, im), cfg.mr, PackScale::One, apack);
                    (im, Panels::new(apack, cfg.mr))
                };
                let (mc_eff, nc_eff) = (im - ic, jn - jc);
                sweep_tiles(
                    path, cfg, kc_eff, mc_eff, nc_eff, a_panels, b_panels, c, ic, jc, lower,
                );
                ic = im;
            }
            pc = pe;
        }
        jc = jn;
    }
}

/// `C += alpha * A^T B` through the packed engine on an explicit tile
/// path, with caller-provided packing buffers.
///
/// Shapes: `A: m x n`, `B: m x k`, `C: n x k`.
///
/// # Panics
/// On inconsistent shapes.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn_micro_path_with<T: Scalar>(
    path: MicroPath,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
    bufs: &mut PackBufs<T>,
) {
    let (m, n) = a.shape();
    let (mb, k) = b.shape();
    assert_eq!(m, mb, "gemm_tn: A is {m}x{n} but B has {mb} rows");
    assert_eq!(
        c.shape(),
        (n, k),
        "gemm_tn: C must be {n}x{k}, got {:?}",
        c.shape()
    );
    macro_kernel(path, alpha, a, b, c, cfg, bufs, false);
}

/// [`gemm_tn_micro_path_with`] using this thread's cached packing
/// buffers.
pub fn gemm_tn_micro_path<T: Scalar>(
    path: MicroPath,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
) {
    with_thread_bufs(|bufs| gemm_tn_micro_path_with(path, alpha, a, b, c, cfg, bufs));
}

/// Lower-triangular `C += alpha * A^T A` through the packed engine on an
/// explicit tile path, with caller-provided packing buffers.
///
/// This is the gemm loop nest with `B = A` under a lower-triangle mask:
/// tiles below the diagonal run at full speed and straddling tiles
/// through the partial-tile kernels, so only `i >= j` entries are read
/// or written and, on the portable and scalar paths, the flop count
/// stays the exact triangle count.
///
/// Shapes: `A: m x n`, `C: n x n`.
///
/// # Panics
/// On inconsistent shapes.
pub fn syrk_ln_micro_path_with<T: Scalar>(
    path: MicroPath,
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
    bufs: &mut PackBufs<T>,
) {
    let n = a.cols();
    assert_eq!(
        c.shape(),
        (n, n),
        "syrk_ln: C must be {n}x{n}, got {:?}",
        c.shape()
    );
    macro_kernel(path, alpha, a, a, c, cfg, bufs, true);
}

/// [`syrk_ln_micro_path_with`] using this thread's cached packing
/// buffers.
pub fn syrk_ln_micro_path<T: Scalar>(
    path: MicroPath,
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
) {
    with_thread_bufs(|bufs| syrk_ln_micro_path_with(path, alpha, a, c, cfg, bufs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::tracked::{measure, Tracked};
    use ata_mat::{gen, reference, Matrix};

    fn cfg_small() -> KernelConfig {
        // Deliberately tiny blocking so unit-test shapes span many
        // blocks and tiles.
        KernelConfig::new(4, 4, 8, 12, 16)
    }

    fn check_gemm(m: usize, n: usize, k: usize, alpha: f64, cfg: &KernelConfig) {
        let a = gen::standard::<f64>(10_000 + m as u64, m, n);
        let b = gen::standard::<f64>(20_000 + k as u64, m, k);
        let mut c_fast = gen::standard::<f64>(5, n, k);
        let mut c_ref = c_fast.clone();
        let path = micro_path_for::<f64>();
        gemm_tn_micro_path(
            path,
            alpha,
            a.as_ref(),
            b.as_ref(),
            &mut c_fast.as_mut(),
            cfg,
        );
        reference::gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        let tol = ata_mat::ops::product_tol::<f64>(m.max(n), k, m as f64);
        let diff = c_fast.max_abs_diff(&c_ref);
        assert!(
            diff <= tol,
            "({m},{n},{k}) micro gemm differs from oracle by {diff} > {tol}"
        );
    }

    #[test]
    fn matches_oracle_on_assorted_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (2, 3, 4),
            (7, 5, 3),
            (16, 16, 16),
            (33, 31, 29),
            (64, 1, 64),
            (1, 64, 64),
            (100, 37, 65),
        ] {
            check_gemm(m, n, k, 1.0, &cfg_small());
        }
    }

    #[test]
    fn default_config_matches_oracle() {
        let cfg = KernelConfig::for_scalar::<f64>();
        check_gemm(80, 60, 70, 1.0, &cfg);
        check_gemm(300, 40, 50, 1.0, &cfg);
    }

    #[test]
    fn alpha_paths() {
        for alpha in [1.0, -1.0, 2.5, -0.125] {
            check_gemm(21, 17, 19, alpha, &cfg_small());
        }
    }

    #[test]
    fn every_menu_tile_is_correct() {
        for &(mr, nr) in KernelConfig::MENU {
            let cfg = KernelConfig::new(mr, nr, 16, 2 * mr + 1, 2 * nr + 3);
            check_gemm(40, 2 * mr + 5, 2 * nr + 7, 1.0, &cfg);
        }
    }

    #[test]
    fn off_menu_tile_still_correct() {
        // (5, 3) has no unrolled instantiation: the sweep must fall back
        // to the bounds-aware kernel everywhere.
        let cfg = KernelConfig::new(5, 3, 8, 11, 10);
        check_gemm(25, 23, 22, 1.0, &cfg);
    }

    #[test]
    fn syrk_matches_oracle_and_preserves_upper() {
        let path = micro_path_for::<f64>();
        for &(m, n) in &[(1, 1), (5, 7), (16, 16), (40, 33), (33, 80), (128, 35)] {
            let cfg = cfg_small();
            let a = gen::standard::<f64>(77 + m as u64, m, n);
            let mut c_fast = gen::standard::<f64>(6, n, n);
            let mut c_ref = c_fast.clone();
            syrk_ln_micro_path(path, 1.0, a.as_ref(), &mut c_fast.as_mut(), &cfg);
            reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
            let tol = ata_mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
            let diff = c_fast.max_abs_diff_lower(&c_ref);
            assert!(diff <= tol, "({m},{n}) micro syrk differs by {diff}");
            assert_eq!(
                c_fast.max_abs_diff(&c_ref),
                diff,
                "({m},{n}) strict upper must be untouched"
            );
        }
    }

    #[test]
    fn syrk_alpha_and_menu_tiles() {
        let path = micro_path_for::<f64>();
        for &(mr, nr) in &[(4, 4), (8, 4), (4, 8), (6, 8)] {
            let cfg = KernelConfig::new(mr, nr, 8, 3 * mr, 3 * nr);
            let a = gen::standard::<f64>(9, 30, 26);
            let mut c_fast = Matrix::zeros(26, 26);
            let mut c_ref = Matrix::zeros(26, 26);
            syrk_ln_micro_path(path, -1.5, a.as_ref(), &mut c_fast.as_mut(), &cfg);
            reference::syrk_ln(-1.5, a.as_ref(), &mut c_ref.as_mut());
            assert!(
                c_fast.max_abs_diff_lower(&c_ref) < 1e-10,
                "tile ({mr},{nr})"
            );
        }
    }

    #[test]
    fn gemm_op_counts_match_reference_volume_at_unit_alpha() {
        // Exactly m*n*k muls and adds: the measured flop validations of
        // the paper's claims hold on the fast path.
        let path = micro_path_for::<Tracked>();
        for &(m, n, k) in &[(8, 8, 8), (13, 7, 9), (20, 5, 30)] {
            let a = gen::standard::<Tracked>(1, m, n);
            let b = gen::standard::<Tracked>(2, m, k);
            let mut c = Matrix::<Tracked>::zeros(n, k);
            let (_, ops) = measure(|| {
                gemm_tn_micro_path(
                    path,
                    Tracked(1.0),
                    a.as_ref(),
                    b.as_ref(),
                    &mut c.as_mut(),
                    &cfg_small(),
                );
            });
            let volume = (m * n * k) as u64;
            assert_eq!(ops.muls, volume, "({m},{n},{k}) muls");
            assert_eq!(ops.adds, volume, "({m},{n},{k}) adds");
            assert_eq!(ops.subs, 0);
        }
    }

    #[test]
    fn syrk_op_counts_are_the_exact_triangle_volume() {
        // The triangle's multiply-adds, plus one negation or multiply per
        // element of `A` where `alpha` is -1 or general (packed once), and
        // the same whether the column block holds all of `n` (shared
        // pack) or rows fall below it (`n` > `nc` = 16).
        let (path, cfg) = (micro_path_for::<Tracked>(), cfg_small());
        for (m, n) in [(14, 11), (9, 37)] {
            let a = gen::standard::<Tracked>(3, m, n);
            let (triangle, elems) = ((m * n * (n + 1) / 2) as u64, (m * n) as u64);
            for (alpha, negs, pack_muls) in [(1.0, 0, 0), (-1.0, elems, 0), (2.5, 0, elems)] {
                let mut c = Matrix::<Tracked>::zeros(n, n);
                let (_, ops) = measure(|| {
                    syrk_ln_micro_path(path, Tracked(alpha), a.as_ref(), &mut c.as_mut(), &cfg);
                });
                let tag = format!("({m}, {n}) alpha {alpha}");
                assert_eq!(ops.muls, triangle + pack_muls, "{tag}");
                assert_eq!(ops.adds, triangle, "{tag}");
                assert_eq!((ops.negs, ops.subs), (negs, 0), "{tag}");
            }
        }
    }

    #[test]
    fn negative_unit_alpha_is_multiplication_free() {
        let (m, n, k) = (9, 6, 8);
        let a = gen::standard::<Tracked>(4, m, n);
        let b = gen::standard::<Tracked>(5, m, k);
        let mut c = Matrix::<Tracked>::zeros(n, k);
        let (_, ops) = measure(|| {
            gemm_tn_micro_path(
                micro_path_for::<Tracked>(),
                Tracked(-1.0),
                a.as_ref(),
                b.as_ref(),
                &mut c.as_mut(),
                &cfg_small(),
            );
        });
        // The sign folds into the B-pack as negations, not multiplies.
        assert_eq!(ops.muls, (m * n * k) as u64);
        assert_eq!(ops.negs, (m * k) as u64);
    }

    #[test]
    fn works_on_strided_views() {
        let big = gen::standard::<f64>(9, 16, 16);
        let (a11, _, _, a22) = big.as_ref().quad_split();
        let mut c = Matrix::zeros(8, 8);
        let path = micro_path_for::<f64>();
        gemm_tn_micro_path(path, 1.0, a11, a22, &mut c.as_mut(), &cfg_small());
        let mut c_ref = Matrix::zeros(8, 8);
        reference::gemm_tn(1.0, a11, a22, &mut c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn f32_path() {
        let cfg = KernelConfig::for_scalar::<f32>();
        let a = gen::standard::<f32>(11, 40, 30);
        let b = gen::standard::<f32>(12, 40, 35);
        let mut c = Matrix::<f32>::zeros(30, 35);
        let path = micro_path_for::<f32>();
        gemm_tn_micro_path(path, 2.0f32, a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
        let mut c_ref = Matrix::<f32>::zeros(30, 35);
        reference::gemm_tn(2.0f32, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3);
    }

    #[test]
    fn dispatch_guard_resolves_the_detected_isa_path() {
        // The resolved tile path must follow ATA_MICRO when forced and
        // the detected ISA otherwise (this test runs under the CI
        // ATA_MICRO matrix, so it checks whichever branch is live).
        let expect_auto = |has: bool| {
            if has {
                MicroPath::Intrinsic
            } else {
                MicroPath::Portable
            }
        };
        match std::env::var("ATA_MICRO").as_deref() {
            Ok("portable") => {
                assert_eq!(micro_path_for::<f64>(), MicroPath::Portable);
                assert_eq!(micro_path_for::<f32>(), MicroPath::Portable);
            }
            Ok("scalar") => {
                assert_eq!(micro_path_for::<f64>(), MicroPath::Scalar);
                assert_eq!(micro_path_for::<f32>(), MicroPath::Scalar);
            }
            _ => {
                // Auto or forced-intrinsic: the detected-ISA kernels must
                // actually be selected where available.
                assert_eq!(
                    micro_path_for::<f64>(),
                    expect_auto(crate::simd::has_kernels::<f64>())
                );
                assert_eq!(
                    micro_path_for::<f32>(),
                    expect_auto(crate::simd::has_kernels::<f32>())
                );
            }
        }
        // Op counting never reaches intrinsics, whatever the host ISA.
        assert_ne!(micro_path_for::<Tracked>(), MicroPath::Intrinsic);
    }

    #[test]
    fn pack_buffer_elems_covers_worst_block() {
        let cfg = KernelConfig::new(8, 4, 16, 20, 24);
        let (ae, be) = cfg.pack_buffer_elems();
        assert_eq!(ae, packed_elems::<f32>(16, 20, 8));
        // Six 4-wide panels carry more pad than three 8-wide shared ones.
        assert_eq!(be, packed_elems::<f32>(16, 24, 4));
        assert!(be > packed_elems::<f32>(16, 24, 8));
        assert!(ae >= packed_elems::<f64>(16, 20, 8) && be >= packed_elems::<f64>(16, 24, 4));
        // A 12 x 16 tile's shared pack pads 24 columns to one 48-wide
        // panel, more than two 16-wide ones.
        let (_, be) = KernelConfig::new(12, 16, 16, 20, 24).pack_buffer_elems();
        assert_eq!(be, packed_elems::<f32>(16, 24, 48));
        assert!(be > packed_elems::<f32>(16, 24, 16));
        assert!(be >= packed_elems::<f64>(16, 24, 48));
    }

    #[test]
    #[should_panic(expected = "gemm_tn")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f64>::zeros(3, 2);
        let b = Matrix::<f64>::zeros(4, 2);
        let mut c = Matrix::<f64>::zeros(2, 2);
        let path = micro_path_for::<f64>();
        gemm_tn_micro_path(
            path,
            1.0,
            a.as_ref(),
            b.as_ref(),
            &mut c.as_mut(),
            &cfg_small(),
        );
    }
}
