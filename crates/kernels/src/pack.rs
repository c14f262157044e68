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
//! reduction dimension is `m`. Both packed buffers are laid out so the
//! microkernel reads them with unit stride:
//!
//! ```text
//! apack (one KC x MC block of A, MR-wide micro-panels):
//!   panel u = columns [u*MR, (u+1)*MR) of the block
//!   apack[u*KC*MR + p*MR + i] = A[pc + p, ic + u*MR + i]
//!
//! bpack (one KC x NC block of B, NR-wide micro-panels):
//!   panel v = columns [v*NR, (v+1)*NR) of the block
//!   bpack[v*KC*NR + p*NR + j] = alpha * B[pc + p, jc + v*NR + j]
//! ```
//!
//! A micro-panel interleaves `MR` (resp. `NR`) matrix columns so that one
//! step `p` of the microkernel's reduction loop reads `MR` consecutive
//! `A`-elements and `NR` consecutive `B`-elements. Because this workspace
//! stores matrices row-major and the engine multiplies `A^T` *without
//! materializing the transpose*, each packed row `p` is a contiguous
//! slice of a source row — packing is pure `memcpy`-shaped traffic.
//!
//! Ragged edges are padded with explicit zeros so the microkernel always
//! sees full panels; the loop nest never *computes* with the padding (the
//! edge tiles use a bounds-aware kernel), keeping measured flop counts
//! exact for the op-counting [`Tracked`](ata_mat::tracked::Tracked)
//! scalar.
//!
//! # Buffer reuse
//!
//! Packing must not allocate on the hot path (the same discipline as
//! `ata_strassen::ArenaPool` for recursion arenas). [`PackBufs`] is a
//! pair of grow-only buffers, and `with_thread_bufs` hands out a
//! per-thread, per-scalar-type cached instance, so repeated kernel calls
//! — e.g. every Strassen leaf of a plan executed in a serving loop —
//! reuse one warm allocation per worker thread.

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

/// Pack one `KC x W` operand block into `R`-wide micro-panels.
///
/// `src` is the block view (`kc` rows, `w` columns); `buf` must hold at
/// least [`packed_elems`]`(kc, w, r)` elements. Columns beyond `w` in the
/// last panel are zero-filled.
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
    let panels = w.div_ceil(r);
    let need = panels * kc * r;
    assert!(
        buf.len() >= need,
        "pack buffer holds {} elements, block needs {need}",
        buf.len()
    );
    for u in 0..panels {
        let c0 = u * r;
        let width = r.min(w - c0);
        let panel = &mut buf[u * kc * r..(u + 1) * kc * r];
        for p in 0..kc {
            let srow = &src.row(p)[c0..c0 + width];
            let drow = &mut panel[p * r..p * r + r];
            match scale {
                PackScale::One => drow[..width].copy_from_slice(srow),
                PackScale::NegOne => {
                    for (d, s) in drow[..width].iter_mut().zip(srow) {
                        *d = -*s;
                    }
                }
                PackScale::Factor(alpha) => {
                    for (d, s) in drow[..width].iter_mut().zip(srow) {
                        *d = alpha * *s;
                    }
                }
            }
            drow[width..].fill(T::ZERO);
        }
    }
}

/// Packed size in elements of a `kc x w` block in `r`-wide panels.
#[inline]
pub(crate) fn packed_elems(kc: usize, w: usize, r: usize) -> usize {
    w.div_ceil(r) * kc * r
}

/// Panel count below which [`pack_panels_par`] always stays serial: the
/// pool round-trip costs more than copying a few panels.
const PAR_PACK_MIN_PANELS: usize = 8;

/// Element count below which [`pack_panels_par`] always stays serial.
const PAR_PACK_MIN_ELEMS: usize = 32_768;

/// [`pack_panels`], fanned out across the rayon worker pool when the
/// block is large enough to pay for the coordination.
///
/// Each worker packs a disjoint run of whole panels (a `pack_panels`
/// call on a column sub-block into a disjoint buffer chunk), so the
/// result — zero padding included — is bitwise identical to the serial
/// pass regardless of scheduling. Small blocks, single-thread pools, and
/// non-`f32`/`f64` scalars stay serial; the latter keeps the op-counting
/// `Tracked` scalar's thread-local counters on the calling thread.
/// Inside a pool worker rayon runs nested iterators inline, so packs
/// issued from already-parallel callers (AtA-S leaves) degrade to the
/// serial pass instead of deadlocking or oversubscribing.
///
/// # Panics
/// If `buf` is too small or `r == 0`.
pub(crate) fn pack_panels_par<T: Scalar>(
    src: MatRef<'_, T>,
    r: usize,
    scale: PackScale<T>,
    buf: &mut [T],
) {
    let (kc, w) = src.shape();
    assert!(r > 0, "panel width must be positive");
    let panels = w.div_ceil(r);
    let need = panels * kc * r;
    assert!(
        buf.len() >= need,
        "pack buffer holds {} elements, block needs {need}",
        buf.len()
    );
    let t = TypeId::of::<T>();
    let plain_float = t == TypeId::of::<f64>() || t == TypeId::of::<f32>();
    let threads = rayon::current_num_threads();
    if !plain_float || panels < PAR_PACK_MIN_PANELS || need < PAR_PACK_MIN_ELEMS || threads < 2 {
        pack_panels(src, r, scale, buf);
        return;
    }
    use rayon::prelude::*;
    let per = panels.div_ceil(threads);
    buf[..need]
        .chunks_mut(per * kc * r)
        .collect::<Vec<_>>()
        .into_par_iter()
        .enumerate()
        .for_each(|(ci, chunk)| {
            let c0 = ci * per * r;
            let chunk_panels = chunk.len() / (kc * r);
            let c1 = w.min(c0 + chunk_panels * r);
            pack_panels(src.block(0, kc, c0, c1), r, scale, chunk);
        });
}

/// A reusable pair of packing buffers (`A`-side and `B`-side).
///
/// Buffers only ever grow, so a warm pair serves any sequence of kernel
/// calls without further allocation — the packing counterpart of
/// `ata_strassen::StrassenWorkspace`.
#[derive(Debug, Default)]
pub struct PackBufs<T> {
    a: Vec<T>,
    b: Vec<T>,
}

impl<T: Scalar> PackBufs<T> {
    /// Fresh, empty buffer pair.
    pub fn new() -> Self {
        Self {
            a: Vec::new(),
            b: Vec::new(),
        }
    }

    /// Grow (never shrink) both buffers and return them as disjoint
    /// mutable slices of the requested sizes.
    pub fn split(&mut self, a_elems: usize, b_elems: usize) -> (&mut [T], &mut [T]) {
        if self.a.len() < a_elems {
            self.a.resize(a_elems, T::ZERO);
        }
        if self.b.len() < b_elems {
            self.b.resize(b_elems, T::ZERO);
        }
        (&mut self.a[..a_elems], &mut self.b[..b_elems])
    }

    /// Current capacity in elements (`A`-side + `B`-side) — the warm
    /// footprint of this pair.
    pub fn capacity(&self) -> usize {
        self.a.len() + self.b.len()
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

/// Pre-grow this thread's cached buffers so the first kernel call after
/// planning allocates nothing (used by `AtaPlan` construction).
pub fn warm_thread<T: Scalar>(a_elems: usize, b_elems: usize) {
    with_thread_bufs::<T, _>(|bufs| {
        let _ = bufs.split(a_elems, b_elems);
    });
}

/// Warm footprint of this thread's cached buffers for `T`, in elements.
pub fn thread_buf_elems<T: Scalar>() -> usize {
    with_thread_bufs::<T, _>(|bufs| bufs.capacity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, Matrix};

    #[test]
    fn packs_panels_with_zero_padding() {
        // 3 x 5 block, panels of width 4: second panel has one live col.
        let src = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        let mut buf = vec![-1.0f64; packed_elems(3, 5, 4)];
        pack_panels(src.as_ref(), 4, PackScale::One, &mut buf);
        // Panel 0, row 1 = A[1, 0..4].
        assert_eq!(&buf[4..8], &[5.0, 6.0, 7.0, 8.0]);
        // Panel 1, row 2 = A[2, 4], padded with three zeros.
        assert_eq!(&buf[12 + 2 * 4..12 + 3 * 4], &[14.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn scaling_variants() {
        let src = Matrix::from_fn(2, 2, |i, j| (1 + i * 2 + j) as f64);
        let mut one = vec![0.0; 4];
        let mut neg = vec![0.0; 4];
        let mut fac = vec![0.0; 4];
        pack_panels(src.as_ref(), 2, PackScale::One, &mut one);
        pack_panels(src.as_ref(), 2, PackScale::NegOne, &mut neg);
        pack_panels(src.as_ref(), 2, PackScale::Factor(0.5), &mut fac);
        assert_eq!(one, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(neg, vec![-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(fac, vec![0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn packs_strided_views() {
        let big = gen::standard::<f64>(3, 8, 8);
        let (_, _, _, a22) = big.as_ref().quad_split();
        let mut buf = vec![0.0; packed_elems(4, 4, 4)];
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
        warm_thread::<f64>(100, 50);
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

    #[test]
    fn parallel_pack_is_bitwise_identical_to_serial() {
        // Big enough to clear both serial-fallback thresholds.
        let (kc, w, r) = (64, 1021, 8);
        let src = gen::standard::<f64>(42, kc, w);
        let mut serial = vec![-1.0f64; packed_elems(kc, w, r)];
        pack_panels(src.as_ref(), r, PackScale::NegOne, &mut serial);
        let pool = crate::par::pool_with_threads(4);
        for _ in 0..8 {
            let mut par = vec![-2.0f64; packed_elems(kc, w, r)];
            pool.install(|| {
                pack_panels_par(src.as_ref(), r, PackScale::NegOne, &mut par);
            });
            assert_eq!(serial, par, "scheduling must not change a single bit");
        }
    }

    #[test]
    fn parallel_pack_of_tracked_counts_on_the_calling_thread() {
        use ata_mat::tracked::{measure, Tracked};
        let (kc, w, r) = (64, 512, 8);
        let src = gen::standard::<Tracked>(7, kc, w);
        let mut buf = vec![Tracked(0.0); packed_elems(kc, w, r)];
        let pool = crate::par::pool_with_threads(4);
        let (_, ops) = measure(|| {
            pool.install(|| {
                pack_panels_par(src.as_ref(), r, PackScale::NegOne, &mut buf);
            });
        });
        assert_eq!(
            ops.negs,
            (kc * w) as u64,
            "Tracked packs serially so no ops scatter onto pool threads"
        );
    }

    #[test]
    #[should_panic(expected = "pack buffer")]
    fn undersized_buffer_rejected() {
        let src = Matrix::<f64>::zeros(4, 4);
        let mut buf = vec![0.0; 8];
        pack_panels(src.as_ref(), 4, PackScale::One, &mut buf);
    }
}
