//! Operand packing for the BLIS-style microkernel engine.
//!
//! Huang et al. ("Implementing Strassen's Algorithm with BLIS") show that
//! a practical Strassen lives or dies by its leaves: the base-case
//! products must run on a *packed*, register-blocked kernel, not on loops
//! that re-stream the operands from main memory. This module provides the
//! packing half of that engine; [`crate::micro`] provides the register
//! tiles and the `KC/MC/NC` loop nest around them.
//!
//! # Layout
//!
//! The engine computes `C += alpha * A^T B` with `A: m x n`, `B: m x k`,
//! `C: n x k`. In BLIS terms the *M* dimension of the product is `n`
//! (columns of `A` become rows of `C`), the *N* dimension is `k`, and the
//! reduction dimension is `m`. The packed buffers are laid out so that
//! each step of the microkernel's reduction reads a contiguous run of
//! each operand:
//!
//! ```text
//! apack (one KC x MC block of A, MR-wide panels):
//!   panel u = columns [u*MR, (u+1)*MR) of the block
//!   apack[u*(KC*MR + L) + p*MR + i] = A[pc + p, ic + u*MR + i]
//!
//! bpack (one KC x NC block of B, NR-wide panels):
//!   panel v = columns [v*NR, (v+1)*NR) of the block
//!   bpack[v*(KC*NR + L) + p*NR + j] = alpha * B[pc + p, jc + v*NR + j]
//!
//! shared (syrk at alpha = 1: one KC x NC block of A, W = lcm(MR, NR)):
//!   panel w = columns [w*W, (w+1)*W) of the block
//!   shared[w*(KC*W + L) + p*W + q] = A[pc + p, jc + w*W + q]
//! ```
//!
//! A micro-panel is `R` consecutive columns of one panel, `R` being the
//! tile's `MR` (the `A` side) or `NR` (the `B` side); step `p` of the
//! reduction reads its `R` elements at `p` times the panel's width, and
//! the kernels take that width as their stride. In `apack` and `bpack`
//! panel and micro-panel coincide. `syrk`'s diagonal block reads both
//! sides from the one shared pack: the `MR`-row micro-panel at block
//! column `o` (a multiple of `MR`) and the `NR`-column sliver at block
//! column `o` (a multiple of `NR`) both start at
//! `(o / W)*(KC*W + L) + o % W`, and since `W` is a multiple of both
//! widths neither straddles two panels. `B` is `A` there, so one pack of
//! the block replaces its `NR`-wide pack and every `MR`-wide pack of its
//! rows.
//!
//! `L` is one 64-byte cache line of elements (8 `f64`, 16 `f32`): a pad
//! after every panel that no kernel reads or writes. Without it the
//! panel stride `KC*R` is a power of two times the element size for
//! every tuned row (16-64 KiB), so the row-by-row pass writes its `R`
//! chunks of one source row at addresses a multiple of 4 KiB apart,
//! which all map to the same L1 set.
//!
//! A micro-panel interleaves `MR` (resp. `NR`) matrix columns so that one
//! step `p` of the microkernel's reduction loop reads `MR` consecutive
//! `A`-elements and `NR` consecutive `B`-elements. Because this workspace
//! stores matrices row-major and the engine multiplies `A^T` *without
//! materializing the transpose*, each packed row `p` is a contiguous
//! slice of a source row — packing is pure `memcpy`-shaped traffic.
//!
//! Ragged edges are padded with explicit zeros so the microkernel always
//! sees full panels. Only the intrinsic path computes with the padding
//! (its partial tiles run on a scratch tile); on the portable and scalar
//! paths the edge tiles use a bounds-aware kernel, keeping measured flop
//! counts exact for the op-counting
//! [`Tracked`](ata_mat::tracked::Tracked) scalar.
//!
//! # Buffer reuse
//!
//! Packing must not allocate on the hot path (the same discipline as
//! `ata_strassen::ArenaPool` for recursion arenas). [`PackBufs`] is a
//! pair of grow-only buffers, and `with_thread_bufs` hands out a
//! per-thread, per-scalar-type cached instance, so repeated kernel calls
//! — e.g. every Strassen leaf of a plan executed in a serving loop —
//! reuse one warm allocation per worker thread. Nothing sizes the
//! buffers ahead of use: each kernel call grows its thread's pair in
//! [`PackBufs::split`] to exactly the blocks it packs, so a thread's
//! first call of a shape allocates and its later calls do not
//! ([`thread_buf_elems`] reports the footprint). Every pack runs on the
//! calling thread, into that thread's pair.

use ata_mat::{MatRef, Scalar};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;

/// How the packing pass scales `B`-panels.
///
/// Folding `alpha` into the `B`-pack keeps the microkernel itself
/// scale-free and multiplication-exact: `±1` never costs a multiply
/// (mirroring [`crate::level1::axpy`]), and a general `alpha` costs
/// exactly one multiply per packed element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PackScale<T> {
    /// Copy verbatim (`alpha == 1`).
    One,
    /// Negate while packing (`alpha == -1`); negation is free in the
    /// workspace's multiplication accounting.
    NegOne,
    /// Multiply by an arbitrary factor while packing.
    Factor(T),
}

impl<T: Scalar> PackScale<T> {
    /// Classify `alpha` into the cheapest packing scale.
    #[inline]
    pub(crate) fn from_alpha(alpha: T) -> Self {
        if alpha == T::ONE {
            PackScale::One
        } else if alpha == T::NEG_ONE {
            PackScale::NegOne
        } else {
            PackScale::Factor(alpha)
        }
    }
}

/// Pack one `KC x W` operand block into `R`-wide micro-panels, each
/// [`panel_stride`]`(kc, r)` elements after the one before.
///
/// `src` is the block view (`kc` rows, `w` columns); `buf` must hold at
/// least [`packed_elems`]`(kc, w, r)` elements. Columns beyond `w` in the
/// last panel are zero-filled; the pad after each panel is left as it
/// was. Source rows are the outer loop, so each is read once, front to
/// back.
///
/// # Panics
/// If `buf` is too small or `r == 0`.
pub(crate) fn pack_panels<T: Scalar>(
    src: MatRef<'_, T>,
    r: usize,
    scale: PackScale<T>,
    buf: &mut [T],
) {
    let (kc, w) = src.shape();
    assert!(r > 0, "panel width must be positive");
    let need = packed_elems::<T>(kc, w, r);
    assert!(
        buf.len() >= need,
        "pack buffer holds {} elements, block needs {need}",
        buf.len()
    );
    let stride = panel_stride::<T>(kc, r);
    for p in 0..kc {
        for (u, srow) in src.row(p).chunks(r).enumerate() {
            let (live, pad) = buf[u * stride + p * r..][..r].split_at_mut(srow.len());
            match scale {
                PackScale::One => live.copy_from_slice(srow),
                PackScale::NegOne => {
                    for (d, s) in live.iter_mut().zip(srow) {
                        *d = -*s;
                    }
                }
                PackScale::Factor(alpha) => {
                    for (d, s) in live.iter_mut().zip(srow) {
                        *d = alpha * *s;
                    }
                }
            }
            pad.fill(T::ZERO);
        }
    }
}

/// Bytes of pad after each packed panel: one cache line.
const PANEL_PAD_BYTES: usize = 64;

/// Elements from the start of one `kc`-deep, `r`-wide packed panel of
/// `T` to the start of the next: the panel plus one cache line of pad.
#[inline]
pub(crate) fn panel_stride<T>(kc: usize, r: usize) -> usize {
    kc * r + PANEL_PAD_BYTES.div_ceil(std::mem::size_of::<T>())
}

/// Packed size in elements of a `kc x w` block of `T` in `r`-wide
/// panels, pads included.
#[inline]
pub(crate) fn packed_elems<T>(kc: usize, w: usize, r: usize) -> usize {
    w.div_ceil(r) * panel_stride::<T>(kc, r)
}

/// Elements a kernel reads from a `kc`-step, `r`-wide micro-panel whose
/// rows are `stride` apart: `(kc - 1) * stride + r`, none at `kc = 0`.
/// Saturates rather than wraps, since the intrinsic kernels' bounds
/// checks rest on it.
#[inline]
pub(crate) fn micro_panel_len(kc: usize, r: usize, stride: usize) -> usize {
    kc.checked_sub(1)
        .map_or(0, |steps| steps.saturating_mul(stride).saturating_add(r))
}

/// Panel width of `syrk`'s shared pack for an `mr x nr` tile,
/// `lcm(mr, nr)`: the narrowest width both micro-panel widths divide.
pub(crate) fn shared_width(mr: usize, nr: usize) -> usize {
    let (mut a, mut b) = (mr, nr);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    mr / a * nr
}

/// A reusable pair of packing buffers (`A`-side and `B`-side).
///
/// Buffers only ever grow, so a warm pair serves any sequence of kernel
/// calls without further allocation — the packing counterpart of
/// `ata_strassen::StrassenWorkspace`. Each buffer carries one cache line
/// of slack, so that a 512-bit panel load never straddles two lines.
#[derive(Debug, Default)]
pub struct PackBufs<T> {
    a: Vec<T>,
    b: Vec<T>,
}

impl<T: Scalar> PackBufs<T> {
    /// Elements of slack per buffer: one 64-byte cache line.
    const PAD: usize = 64usize.div_ceil(std::mem::size_of::<T>());

    /// Grow `v` to `elems` plus the slack and return `elems` of it from its
    /// first 64-byte boundary (from the front if `T` cannot reach one).
    fn aligned(v: &mut Vec<T>, elems: usize) -> &mut [T] {
        if v.len() < elems + Self::PAD {
            v.resize(elems + Self::PAD, T::ZERO);
        }
        let off = Some(v.as_ptr().align_offset(64)).filter(|&o| o <= Self::PAD);
        &mut v[off.unwrap_or(0)..][..elems]
    }

    /// Fresh, empty buffer pair.
    pub fn new() -> Self {
        Self {
            a: Vec::new(),
            b: Vec::new(),
        }
    }

    /// Grow (never shrink) both buffers and return them as disjoint
    /// mutable slices of the requested sizes, each 64-byte aligned.
    pub fn split(&mut self, a_elems: usize, b_elems: usize) -> (&mut [T], &mut [T]) {
        (
            Self::aligned(&mut self.a, a_elems),
            Self::aligned(&mut self.b, b_elems),
        )
    }

    /// Current capacity in usable elements (`A`-side + `B`-side, slack
    /// excluded) — the warm footprint of this pair.
    pub fn capacity(&self) -> usize {
        self.a.len().saturating_sub(Self::PAD) + self.b.len().saturating_sub(Self::PAD)
    }
}

thread_local! {
    /// Per-thread cache of [`PackBufs`], keyed by scalar type. Entries
    /// are taken out while in use so re-entrant kernel calls fall back
    /// to a fresh (cold) pair instead of aliasing or panicking.
    static THREAD_BUFS: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// Run `f` with this thread's cached [`PackBufs`] for `T`.
///
/// The buffers persist across calls on the same thread, so steady-state
/// kernel invocations (every leaf of a reused plan) pack into warm
/// memory. The pair is *moved out* of the cache for the duration of `f`:
/// a nested call on the same thread simply gets a second, transient pair.
pub(crate) fn with_thread_bufs<T: Scalar, R>(f: impl FnOnce(&mut PackBufs<T>) -> R) -> R {
    let taken: Option<PackBufs<T>> = THREAD_BUFS.with(|cell| {
        cell.borrow_mut()
            .remove(&TypeId::of::<T>())
            .and_then(|any| any.downcast::<PackBufs<T>>().ok().map(|b| *b))
    });
    let mut bufs = taken.unwrap_or_default();
    let out = f(&mut bufs);
    THREAD_BUFS.with(|cell| {
        cell.borrow_mut()
            .insert(TypeId::of::<T>(), Box::new(bufs) as Box<dyn Any>);
    });
    out
}

/// Warm footprint of this thread's cached buffers for `T`, in elements.
pub fn thread_buf_elems<T: Scalar>() -> usize {
    with_thread_bufs::<T, _>(|bufs| bufs.capacity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, Matrix};
    use proptest::prelude::*;

    #[test]
    fn packs_panels_with_zero_padding() {
        // 3 x 5 block, panels of width 4: second panel has one live col.
        let src = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        let mut buf = vec![-1.0f64; packed_elems::<f64>(3, 5, 4)];
        pack_panels(src.as_ref(), 4, PackScale::One, &mut buf);
        // Panel 0, row 1 = A[1, 0..4].
        assert_eq!(&buf[4..8], &[5.0, 6.0, 7.0, 8.0]);
        // One cache line (8 f64) of untouched pad after panel 0.
        let stride = panel_stride::<f64>(3, 4);
        assert_eq!(stride, 12 + 8);
        assert_eq!(&buf[12..stride], &[-1.0; 8]);
        // Panel 1, row 2 = A[2, 4], padded with three zeros.
        assert_eq!(&buf[stride + 2 * 4..stride + 3 * 4], &[14.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn shared_width_is_the_least_common_multiple() {
        for (mr, nr, w) in [
            (12, 16, 48),
            (8, 16, 16),
            (6, 8, 24),
            (8, 48, 48),
            (5, 3, 15),
        ] {
            assert_eq!(shared_width(mr, nr), w, "({mr}, {nr})");
        }
    }

    #[test]
    fn scaling_variants() {
        let src = Matrix::from_fn(2, 2, |i, j| (1 + i * 2 + j) as f64);
        let need = packed_elems::<f64>(2, 2, 2);
        let mut one = vec![0.0; need];
        let mut neg = vec![0.0; need];
        let mut fac = vec![0.0; need];
        pack_panels(src.as_ref(), 2, PackScale::One, &mut one);
        pack_panels(src.as_ref(), 2, PackScale::NegOne, &mut neg);
        pack_panels(src.as_ref(), 2, PackScale::Factor(0.5), &mut fac);
        assert_eq!(one[..4], [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(neg[..4], [-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(fac[..4], [0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn packs_strided_views() {
        let big = gen::standard::<f64>(3, 8, 8);
        let (_, _, _, a22) = big.as_ref().quad_split();
        let mut buf = vec![0.0; packed_elems::<f64>(4, 4, 4)];
        pack_panels(a22, 4, PackScale::One, &mut buf);
        for p in 0..4 {
            assert_eq!(&buf[p * 4..(p + 1) * 4], a22.row(p));
        }
    }

    #[test]
    fn bufs_grow_monotonically_and_split_disjoint() {
        let mut bufs = PackBufs::<f64>::new();
        {
            let (a, b) = bufs.split(8, 16);
            a.fill(1.0);
            b.fill(2.0);
        }
        assert_eq!(bufs.capacity(), 24);
        let (a, b) = bufs.split(4, 4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        assert_eq!(bufs.capacity(), 24, "split never shrinks");
    }

    #[test]
    fn thread_bufs_persist_across_calls() {
        with_thread_bufs::<f64, _>(|bufs| {
            let _ = bufs.split(100, 50);
        });
        assert!(thread_buf_elems::<f64>() >= 150);
        // A second call sees the same warm pair: no further growth for a
        // smaller request.
        with_thread_bufs::<f64, _>(|bufs| {
            let before = bufs.capacity();
            let _ = bufs.split(10, 10);
            assert_eq!(bufs.capacity(), before);
        });
    }

    #[test]
    fn nested_with_thread_bufs_is_safe() {
        with_thread_bufs::<f64, _>(|outer| {
            let _ = outer.split(8, 8);
            // The outer pair is checked out; the inner call gets a
            // transient fresh pair rather than panicking.
            with_thread_bufs::<f64, _>(|inner| {
                let (a, _) = inner.split(4, 4);
                a.fill(7.0);
            });
        });
    }

    /// Every panel width a tile on any menu asks for: its `mr`, its
    /// `nr`, and syrk's shared `lcm(mr, nr)`.
    fn menu_widths() -> Vec<usize> {
        let mut widths: Vec<usize> = crate::simd::INTRINSIC_MENUS
            .into_iter()
            .chain([crate::micro::KernelConfig::MENU])
            .flat_map(|menu| {
                menu.iter()
                    .flat_map(|&(mr, nr)| [mr, nr, shared_width(mr, nr)])
            })
            .collect();
        widths.sort_unstable();
        widths.dedup();
        widths
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The pack writes exactly the layout the module doc states,
        /// `buf[u*(kc*r + L) + p*r + i] = scale * src[p, u*r + i]`, with
        /// zeros past the block's last column and the `L`-element pad
        /// after each panel left untouched, on strided sub-views.
        #[test]
        fn packs_follow_the_documented_layout(
            kc in 0usize..260,
            w in 1usize..300,
            r in prop::sample::select(menu_widths()),
            scale_ix in 0usize..3,
            (r0, c0, extra) in (0usize..5, 0usize..7, 0usize..9),
        ) {
            let big = gen::standard::<f64>(kc as u64 * 1000 + w as u64, kc + r0, c0 + w + extra);
            let src = big.as_ref().block(r0, r0 + kc, c0, c0 + w);
            let (scale, factor) = [
                (PackScale::One, 1.0),
                (PackScale::NegOne, -1.0),
                (PackScale::Factor(0.375), 0.375),
            ][scale_ix];
            let need = packed_elems::<f64>(kc, w, r);
            let stride = panel_stride::<f64>(kc, r);
            prop_assert_eq!(stride, kc * r + 8);
            // A value no pack writes, so an unwritten element shows.
            let untouched = -1e300;
            let want: Vec<f64> = (0..need)
                .map(|e| {
                    let (u, off) = (e / stride, e % stride);
                    let (p, i) = (off / r, off % r);
                    if off >= kc * r {
                        untouched
                    } else if u * r + i < w {
                        factor * src.row(p)[u * r + i]
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut buf = vec![untouched; need];
            pack_panels(src, r, scale, &mut buf);
            prop_assert_eq!(&buf, &want, "kc {} w {} r {}", kc, w, r);
        }
    }

    #[test]
    fn split_slices_start_on_cache_lines_across_regrowth() {
        fn check<T: Scalar>() {
            let mut bufs = PackBufs::<T>::new();
            for (a, b) in [(1, 3), (100, 7), (5, 5), (4096, 1000), (10_000, 70_000)] {
                let (x, y) = bufs.split(a, b);
                assert_eq!((x.len(), y.len()), (a, b));
                for (side, ptr) in [("A", x.as_ptr()), ("B", y.as_ptr())] {
                    assert_eq!(
                        ptr as usize % 64,
                        0,
                        "{} {side}-side at ({a}, {b})",
                        T::NAME
                    );
                }
            }
            assert_eq!(bufs.capacity(), 10_000 + 70_000, "slack is not capacity");
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn padded_panels_start_on_cache_lines_off_the_page_stride() {
        // For every tuned panel shape, each panel of an aligned buffer
        // starts on a cache line, and consecutive panels are not a
        // multiple of 4 KiB apart, so the row-by-row pack's writes to
        // one source row's chunks spread over the L1 sets.
        fn check<T: Scalar>() {
            let mut bufs = PackBufs::<T>::new();
            for (kc, r) in [
                (128, 4),
                (256, 8),
                (512, 12),
                (512, 16),
                (256, 32),
                (256, 48),
            ] {
                let stride = panel_stride::<T>(kc, r);
                let bytes = stride * std::mem::size_of::<T>();
                assert_eq!(
                    bytes - kc * r * std::mem::size_of::<T>(),
                    64,
                    "one line of pad"
                );
                assert_ne!(bytes % 4096, 0, "{} kc {kc} r {r}", T::NAME);
                let (a, b) = bufs.split(packed_elems::<T>(kc, 8 * r, r), 0);
                assert_eq!(b.len(), 0);
                for u in 0..8 {
                    let start = a[u * stride..].as_ptr() as usize;
                    assert_eq!(start % 64, 0, "{} kc {kc} r {r} panel {u}", T::NAME);
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn tracked_pack_counts_one_op_per_live_element() {
        use ata_mat::tracked::{measure, Tracked};
        let big = gen::standard::<Tracked>(5, 40, 50);
        let (kc, w) = (37, 45); // odd, so ragged for every (even) menu width
        let src = big.as_ref().block(2, 2 + kc, 3, 3 + w);
        for r in menu_widths() {
            let mut buf = vec![Tracked(0.0); packed_elems::<Tracked>(kc, w, r)];
            let (_, neg) = measure(|| pack_panels(src, r, PackScale::NegOne, &mut buf));
            assert_eq!((neg.negs, neg.muls), ((kc * w) as u64, 0), "r {r}");
            let (_, fac) =
                measure(|| pack_panels(src, r, PackScale::Factor(Tracked(2.0)), &mut buf));
            assert_eq!((fac.negs, fac.muls), (0, (kc * w) as u64), "r {r}");
        }
    }

    #[test]
    #[should_panic(expected = "pack buffer")]
    fn undersized_buffer_rejected() {
        let src = Matrix::<f64>::zeros(4, 4);
        let mut buf = vec![0.0; 8];
        pack_panels(src.as_ref(), 4, PackScale::One, &mut buf);
    }
}
