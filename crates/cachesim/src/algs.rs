//! Instrumented walks of the workspace's algorithms over `CachedMem`.
//!
//! Each walker mirrors the *address behaviour* of its real counterpart —
//! the same quadrant splits, the same arena slot carving, the same
//! row-wise `axpy` sweeps — while running the numerics for real, so the
//! result can be oracle-checked against `ata-mat::reference`. A walker
//! whose addressing diverged from the real algorithm would produce wrong
//! numbers and fail its tests; this is what makes the measured miss
//! counts credible evidence for Proposition 3.1.
//!
//! Base cases use the naive register-accumulator kernels, which realize
//! the `O(base^2 / b)` base-case transfer count the cache-oblivious
//! analysis assumes (all operand lines stay resident once the base block
//! fits in `M`).

use crate::lru::IdealCache;
use crate::mem::{CachedMem, Region};
use ata_mat::{Matrix, Scalar};

/// Miss/access statistics of one instrumented run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Ideal-cache misses (`Q(n; M, b)`).
    pub misses: u64,
    /// Total word accesses.
    pub accesses: u64,
}

/// Base-case predicate of the `A^T B` recursions — mirrors
/// `ata-strassen::workspace::is_base`.
#[inline]
fn gemm_base(m: usize, n: usize, k: usize, base_words: usize) -> bool {
    m * n + m * k <= base_words || (m <= 1 && n <= 1 && k <= 1)
}

/// Base-case predicate of AtA — mirrors `CacheConfig::ata_base`.
#[inline]
fn ata_base(m: usize, n: usize, base_words: usize) -> bool {
    m * n <= base_words
}

// ---------------------------------------------------------------------
// Base-case kernels.
// ---------------------------------------------------------------------

/// `C += A^T B`, naive register-accumulator loops.
fn gemm_tn_walk<T: Scalar>(mem: &mut CachedMem<T>, a: Region, b: Region, c: Region) {
    debug_assert_eq!(a.rows, b.rows);
    debug_assert_eq!((c.rows, c.cols), (a.cols, b.cols));
    for i in 0..c.rows {
        for j in 0..c.cols {
            let mut acc = T::ZERO;
            for l in 0..a.rows {
                acc += mem.read(a.at(l, i)) * mem.read(b.at(l, j));
            }
            mem.add(c.at(i, j), acc);
        }
    }
}

/// Lower triangle of `C += A^T A`, naive loops.
fn syrk_ln_walk<T: Scalar>(mem: &mut CachedMem<T>, a: Region, c: Region) {
    debug_assert_eq!((c.rows, c.cols), (a.cols, a.cols));
    for i in 0..a.cols {
        for j in 0..=i {
            let mut acc = T::ZERO;
            for l in 0..a.rows {
                acc += mem.read(a.at(l, i)) * mem.read(a.at(l, j));
            }
            mem.add(c.at(i, j), acc);
        }
    }
}

// ---------------------------------------------------------------------
// RecursiveGEMM (Algorithm 2).
// ---------------------------------------------------------------------

/// Cache-oblivious classical `C += A^T B` (Algorithm 2): eight recursive
/// calls on quadrants.
fn recursive_gemm_walk<T: Scalar>(
    mem: &mut CachedMem<T>,
    a: Region,
    b: Region,
    c: Region,
    base_words: usize,
) {
    let (m, n, k) = (a.rows, a.cols, b.cols);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if gemm_base(m, n, k, base_words) {
        gemm_tn_walk(mem, a, b, c);
        return;
    }
    let (a11, a12, a21, a22) = a.quad_split();
    let (b11, b12, b21, b22) = b.quad_split();
    let n1 = n.div_ceil(2);
    let k1 = k.div_ceil(2);
    let c11 = c.block(0, n1, 0, k1);
    let c12 = c.block(0, n1, k1, k);
    let c21 = c.block(n1, n, 0, k1);
    let c22 = c.block(n1, n, k1, k);
    // C(i,j) += sum_l A(l,i)^T B(l,j) — the paper's triple loop.
    recursive_gemm_walk(mem, a11, b11, c11, base_words);
    recursive_gemm_walk(mem, a21, b21, c11, base_words);
    recursive_gemm_walk(mem, a11, b12, c12, base_words);
    recursive_gemm_walk(mem, a21, b22, c12, base_words);
    recursive_gemm_walk(mem, a12, b11, c21, base_words);
    recursive_gemm_walk(mem, a22, b21, c21, base_words);
    recursive_gemm_walk(mem, a12, b12, c22, base_words);
    recursive_gemm_walk(mem, a22, b22, c22, base_words);
}

// ---------------------------------------------------------------------
// Strassen (mirror of `ata-strassen::fast`).
// ---------------------------------------------------------------------

/// Arena words the Strassen walker needs — must match its own carving.
fn strassen_arena_elems(m: usize, n: usize, k: usize, base_words: usize) -> usize {
    if m == 0 || n == 0 || k == 0 || gemm_base(m, n, k, base_words) {
        return 0;
    }
    let (m1, n1, k1) = (m.div_ceil(2), n.div_ceil(2), k.div_ceil(2));
    m1 * n1 + m1 * k1 + n1 * k1 + strassen_arena_elems(m1, n1, k1, base_words)
}

/// `dst = pad(src)` in the arena.
fn pad_into_walk<T: Scalar>(mem: &mut CachedMem<T>, dst: Region, src: Region) {
    for i in 0..dst.rows {
        for j in 0..dst.cols {
            let v = if i < src.rows && j < src.cols {
                mem.read(src.at(i, j))
            } else {
                T::ZERO
            };
            mem.write(dst.at(i, j), v);
        }
    }
}

/// `dst += sign * pad(src)` over the common prefix (row-wise axpy).
fn axpy_padded_walk<T: Scalar>(mem: &mut CachedMem<T>, sign: T, src: Region, dst: Region) {
    for i in 0..src.rows.min(dst.rows) {
        for j in 0..src.cols.min(dst.cols) {
            let v = mem.read(src.at(i, j));
            mem.add(dst.at(i, j), sign * v);
        }
    }
}

/// `c += coeff * mm`, truncating.
fn accumulate_walk<T: Scalar>(mem: &mut CachedMem<T>, c: Region, mm: Region, coeff: T) {
    for i in 0..c.rows {
        for j in 0..c.cols {
            let v = mem.read(mm.at(i, j));
            mem.add(c.at(i, j), coeff * v);
        }
    }
}

/// Strassen `C += alpha A^T B` with the arena at `arena`: the walk of
/// `ata-strassen::fast::rec` (same 7-product schedule and slot reuse).
#[allow(clippy::too_many_arguments)]
fn strassen_walk<T: Scalar>(
    mem: &mut CachedMem<T>,
    alpha: T,
    a: Region,
    b: Region,
    c: Region,
    base_words: usize,
    arena: usize,
) {
    let (m, n, k) = (a.rows, a.cols, b.cols);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if gemm_base(m, n, k, base_words) {
        // alpha is folded into the accumulate of the parent; the real
        // base kernel takes alpha, and for the walker alpha is always
        // +-1 at this point except the outermost call. Scale explicitly.
        if alpha == T::ONE {
            gemm_tn_walk(mem, a, b, c);
        } else {
            // Rare path: materialize alpha by scaling after the multiply
            // — mirrors gemm_tn(alpha, ..) cost shape (one extra C pass
            // is *not* performed by the real kernel, so scale inline).
            for i in 0..c.rows {
                for j in 0..c.cols {
                    let mut acc = T::ZERO;
                    for l in 0..a.rows {
                        acc += mem.read(a.at(l, i)) * mem.read(b.at(l, j));
                    }
                    mem.add(c.at(i, j), alpha * acc);
                }
            }
        }
        return;
    }

    let (m1, n1, k1) = (m.div_ceil(2), n.div_ceil(2), k.div_ceil(2));
    let (a11, a12, a21, a22) = a.quad_split();
    let (b11, b12, b21, b22) = b.quad_split();

    let ta = Region::contiguous(arena, m1, n1);
    let tb = Region::contiguous(ta.end(), m1, k1);
    let mm = Region::contiguous(tb.end(), n1, k1);
    let child = mm.end();

    let c11 = c.block(0, n1, 0, k1);
    let c12 = c.block(0, n1, k1, k);
    let c21 = c.block(n1, n, 0, k1);
    let c22 = c.block(n1, n, k1, k);

    let one = T::ONE;
    let neg = T::NEG_ONE;

    // Build an operand into a slot, or pass the quadrant through if it
    // already has ceil shape (mirrors `direct_or_pad`).
    macro_rules! operand {
        ($slot:expr, $q:expr) => {{
            if $q.rows == $slot.rows && $q.cols == $slot.cols {
                $q
            } else {
                pad_into_walk(mem, $slot, $q);
                $slot
            }
        }};
    }
    macro_rules! operand_sum {
        ($slot:expr, $x:expr, $sign:expr, $y:expr) => {{
            pad_into_walk(mem, $slot, $x);
            axpy_padded_walk(mem, $sign, $y, $slot);
            $slot
        }};
    }
    // One product into the zeroed mm slot, then signed accumulations.
    macro_rules! product {
        ($ta:expr, $tb:expr, [$(($quad:expr, $sgn:expr)),+]) => {{
            let ta = $ta;
            let tb = $tb;
            for i in 0..mm.rows {
                for j in 0..mm.cols {
                    mem.write(mm.at(i, j), T::ZERO);
                }
            }
            strassen_walk(mem, one, ta, tb, mm, base_words, child);
            $(
                let coeff = if $sgn >= 0 { alpha } else { neg * alpha };
                accumulate_walk(mem, $quad, mm, coeff);
            )+
        }};
    }

    // M1 = (A11 + A22)^T (B11 + B22)  ->  +C11, +C22
    product!(
        operand_sum!(ta, a11, one, a22),
        operand_sum!(tb, b11, one, b22),
        [(c11, 1), (c22, 1)]
    );
    // M2 = (A12 + A22)^T B11          ->  +C21, -C22
    product!(operand_sum!(ta, a12, one, a22), b11, [(c21, 1), (c22, -1)]);
    // M3 = A11^T (B12 - B22)          ->  +C12, +C22
    product!(a11, operand_sum!(tb, b12, neg, b22), [(c12, 1), (c22, 1)]);
    // M4 = A22^T (B21 - B11)          ->  +C11, +C21
    product!(
        operand!(ta, a22),
        operand_sum!(tb, b21, neg, b11),
        [(c11, 1), (c21, 1)]
    );
    // M5 = (A11 + A21)^T B22          ->  -C11, +C12
    product!(
        operand_sum!(ta, a11, one, a21),
        operand!(tb, b22),
        [(c11, -1), (c12, 1)]
    );
    // M6 = (A12 - A11)^T (B11 + B12)  ->  +C22
    product!(
        operand_sum!(ta, a12, neg, a11),
        operand_sum!(tb, b11, one, b12),
        [(c22, 1)]
    );
    // M7 = (A21 - A22)^T (B21 + B22)  ->  +C11
    product!(
        operand_sum!(ta, a21, neg, a22),
        operand_sum!(tb, b21, one, b22),
        [(c11, 1)]
    );
}

// ---------------------------------------------------------------------
// AtA (Algorithm 1).
// ---------------------------------------------------------------------

/// Largest Strassen arena any `C21` product of the AtA recursion needs.
fn ata_arena_elems(m: usize, n: usize, base_words: usize) -> usize {
    if m == 0 || n == 0 || ata_base(m, n, base_words) {
        return 0;
    }
    let (m1, n1) = (m.div_ceil(2), n.div_ceil(2));
    let m2 = m - m1;
    let n2 = n - n1;
    let own = strassen_arena_elems(m1, n2, n1, base_words)
        .max(strassen_arena_elems(m2, n2, n1, base_words));
    own.max(ata_arena_elems(m1, n1, base_words))
        .max(ata_arena_elems(m2, n1, base_words))
        .max(ata_arena_elems(m1, n2, base_words))
        .max(ata_arena_elems(m2, n2, base_words))
}

/// AtA walk (Algorithm 1): four recursive calls plus two Strassen
/// products for `C21`, sharing one arena.
fn ata_walk<T: Scalar>(
    mem: &mut CachedMem<T>,
    a: Region,
    c: Region,
    base_words: usize,
    arena: usize,
) {
    let (m, n) = (a.rows, a.cols);
    if m == 0 || n == 0 {
        return;
    }
    if ata_base(m, n, base_words) {
        syrk_ln_walk(mem, a, c);
        return;
    }
    let n1 = n.div_ceil(2);
    let (a11, a12, a21, a22) = a.quad_split();
    let c11 = c.block(0, n1, 0, n1);
    let c22 = c.block(n1, n, n1, n);
    let c21 = c.block(n1, n, 0, n1);
    ata_walk(mem, a11, c11, base_words, arena);
    ata_walk(mem, a21, c11, base_words, arena);
    ata_walk(mem, a12, c22, base_words, arena);
    ata_walk(mem, a22, c22, base_words, arena);
    strassen_walk(mem, T::ONE, a12, a11, c21, base_words, arena);
    strassen_walk(mem, T::ONE, a22, a21, c21, base_words, arena);
}

// ---------------------------------------------------------------------
// Public entry points: load a real matrix, run cold, extract results.
// ---------------------------------------------------------------------

fn load<T: Scalar>(mem: &mut CachedMem<T>, r: Region, src: &Matrix<T>) {
    for i in 0..src.rows() {
        for j in 0..src.cols() {
            mem.poke(r.at(i, j), src[(i, j)]);
        }
    }
}

fn extract<T: Scalar>(mem: &CachedMem<T>, r: Region) -> Matrix<T> {
    Matrix::from_fn(r.rows, r.cols, |i, j| mem.peek(r.at(i, j)))
}

fn stats<T: Scalar>(mem: &CachedMem<T>) -> CacheStats {
    CacheStats {
        misses: mem.misses(),
        accesses: mem.accesses(),
    }
}

/// Measure the naive (non-recursive) `syrk` lower-triangle update.
pub fn run_naive_syrk<T: Scalar>(
    a: &Matrix<T>,
    capacity_words: usize,
    line_words: usize,
) -> (Matrix<T>, CacheStats) {
    let (m, n) = a.shape();
    let ra = Region::contiguous(0, m, n);
    let rc = Region::contiguous(ra.end(), n, n);
    let mut mem = CachedMem::new(rc.end(), IdealCache::new(capacity_words, line_words));
    load(&mut mem, ra, a);
    syrk_ln_walk(&mut mem, ra, rc);
    (extract(&mem, rc), stats(&mem))
}

/// Measure the cache-oblivious classical recursion (Algorithm 2) for
/// `C = A^T B`.
pub fn run_recursive_gemm<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    base_words: usize,
    capacity_words: usize,
    line_words: usize,
) -> (Matrix<T>, CacheStats) {
    let (m, n) = a.shape();
    let k = b.cols();
    assert_eq!(b.rows(), m, "A and B row mismatch");
    let ra = Region::contiguous(0, m, n);
    let rb = Region::contiguous(ra.end(), m, k);
    let rc = Region::contiguous(rb.end(), n, k);
    let mut mem = CachedMem::new(rc.end(), IdealCache::new(capacity_words, line_words));
    load(&mut mem, ra, a);
    load(&mut mem, rb, b);
    recursive_gemm_walk(&mut mem, ra, rb, rc, base_words);
    (extract(&mem, rc), stats(&mem))
}

/// Measure the arena Strassen recursion for `C = A^T B`.
pub fn run_strassen<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    base_words: usize,
    capacity_words: usize,
    line_words: usize,
) -> (Matrix<T>, CacheStats) {
    let (m, n) = a.shape();
    let k = b.cols();
    assert_eq!(b.rows(), m, "A and B row mismatch");
    let ra = Region::contiguous(0, m, n);
    let rb = Region::contiguous(ra.end(), m, k);
    let rc = Region::contiguous(rb.end(), n, k);
    let arena = rc.end();
    let words = arena + strassen_arena_elems(m, n, k, base_words);
    let mut mem = CachedMem::new(words, IdealCache::new(capacity_words, line_words));
    load(&mut mem, ra, a);
    load(&mut mem, rb, b);
    strassen_walk(&mut mem, T::ONE, ra, rb, rc, base_words, arena);
    (extract(&mem, rc), stats(&mem))
}

/// Measure AtA (Algorithm 1) for the lower triangle of `C = A^T A`.
pub fn run_ata<T: Scalar>(
    a: &Matrix<T>,
    base_words: usize,
    capacity_words: usize,
    line_words: usize,
) -> (Matrix<T>, CacheStats) {
    let (m, n) = a.shape();
    let ra = Region::contiguous(0, m, n);
    let rc = Region::contiguous(ra.end(), n, n);
    let arena = rc.end();
    let words = arena + ata_arena_elems(m, n, base_words);
    let mut mem = CachedMem::new(words, IdealCache::new(capacity_words, line_words));
    load(&mut mem, ra, a);
    ata_walk(&mut mem, ra, rc, base_words, arena);
    (extract(&mem, rc), stats(&mem))
}

/// The Θ-expression of Proposition 3.1 (and Frigo et al. for Strassen):
/// `1 + n^2/b + n^(log2 7) / (b sqrt(M))`, evaluated as a plain number
/// for normalizing measured miss counts.
pub fn prop31_expression(n: usize, capacity_words: usize, line_words: usize) -> f64 {
    let nf = n as f64;
    let b = line_words as f64;
    let m = capacity_words as f64;
    1.0 + nf * nf / b + nf.powf(7f64.log2()) / (b * m.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference};

    const M: usize = 512; // cache words
    const B: usize = 8; // line words

    #[test]
    fn naive_syrk_walker_is_numerically_correct() {
        let a = gen::standard::<f64>(1, 20, 14);
        let (c, st) = run_naive_syrk(&a, M, B);
        let mut want = Matrix::zeros(14, 14);
        reference::syrk_ln(1.0, a.as_ref(), &mut want.as_mut());
        assert!(c.max_abs_diff_lower(&want) < 1e-12);
        assert!(st.misses > 0 && st.misses <= st.accesses);
    }

    #[test]
    fn recursive_gemm_walker_is_numerically_correct() {
        let a = gen::standard::<f64>(2, 18, 12);
        let b = gen::standard::<f64>(3, 18, 10);
        let (c, _) = run_recursive_gemm(&a, &b, 64, M, B);
        let mut want = Matrix::zeros(12, 10);
        reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut want.as_mut());
        assert!(c.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn strassen_walker_is_numerically_correct_including_odd() {
        for &(m, n, k) in &[(16usize, 16usize, 16usize), (13, 11, 9), (24, 17, 21)] {
            let a = gen::standard::<f64>(m as u64, m, n);
            let b = gen::standard::<f64>(k as u64 + 40, m, k);
            let (c, _) = run_strassen(&a, &b, 32, M, B);
            let mut want = Matrix::zeros(n, k);
            reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut want.as_mut());
            assert!(c.max_abs_diff(&want) < 1e-10, "({m},{n},{k})");
        }
    }

    #[test]
    fn ata_walker_is_numerically_correct_including_odd() {
        for &(m, n) in &[(16usize, 16usize), (19, 15), (30, 22)] {
            let a = gen::standard::<f64>(m as u64 * 3, m, n);
            let (c, _) = run_ata(&a, 32, M, B);
            let mut want = Matrix::zeros(n, n);
            reference::syrk_ln(1.0, a.as_ref(), &mut want.as_mut());
            assert!(c.max_abs_diff_lower(&want) < 1e-10, "({m},{n})");
        }
    }

    #[test]
    fn proposition_31_inequality_chain() {
        // The proof's sandwich: C_S(n/2) <= C_AtA(n) <= C_S(n).
        for n in [24usize, 32, 48] {
            let a = gen::standard::<f64>(7, n, n);
            let half = gen::standard::<f64>(8, n / 2, n / 2);
            let base = 16;
            let (_, ata) = run_ata(&a, base, M, B);
            let (_, s_full) = run_strassen(&a, &a.clone(), base, M, B);
            let (_, s_half) = run_strassen(&half, &half.clone(), base, M, B);
            assert!(
                s_half.misses <= ata.misses,
                "n={n}: C_S(n/2)={} > C_AtA(n)={}",
                s_half.misses,
                ata.misses
            );
            assert!(
                ata.misses <= s_full.misses,
                "n={n}: C_AtA(n)={} > C_S(n)={}",
                ata.misses,
                s_full.misses
            );
        }
    }

    #[test]
    fn cache_oblivious_recursion_beats_naive_when_matrix_exceeds_cache() {
        // With A far larger than the cache, the naive column-dot loop
        // thrashes while the recursion localizes. (Same flop count.)
        let n = 48usize;
        let a = gen::standard::<f64>(9, n, n);
        let tiny_m = 256; // 4 KiB of f64 for a 2304-word matrix
        let (_, naive) = run_naive_syrk(&a, tiny_m, B);
        let (_, ata) = run_ata(&a, 64, tiny_m, B);
        assert!(
            ata.misses < naive.misses,
            "AtA {} !< naive {}",
            ata.misses,
            naive.misses
        );
    }

    #[test]
    fn misses_scale_with_the_prop31_expression() {
        // Deep in the out-of-cache regime (M = 64 words) the dominant
        // term is n^(log2 7)/(b sqrt(M)): doubling n must scale misses by
        // a factor that *decreases toward 7* as n grows. (Near the cache
        // boundary the ratio transiently overshoots — that transition is
        // exactly why the bound is asymptotic.)
        let base = 8;
        let (m_words, b_words) = (64usize, 8usize);
        let mut prev_misses = None;
        let mut ratios = Vec::new();
        for n in [32usize, 64, 128] {
            let a = gen::standard::<f64>(n as u64, n, n);
            let (_, q) = run_ata(&a, base, m_words, b_words);
            if let Some(p) = prev_misses {
                ratios.push(q.misses as f64 / p as f64);
            }
            prev_misses = Some(q.misses);
        }
        assert!(
            ratios.windows(2).all(|w| w[1] < w[0]),
            "ratios must decrease toward 7: {ratios:?}"
        );
        let last = *ratios.last().expect("two ratios");
        assert!(
            (6.5..9.0).contains(&last),
            "asymptotic doubling ratio {last} not near 7 ({ratios:?})"
        );
    }

    #[test]
    fn bigger_cache_reduces_misses() {
        let a = gen::standard::<f64>(5, 64, 64);
        let (_, small) = run_ata(&a, 16, 128, 8);
        let (_, big) = run_ata(&a, 16, 2048, 8);
        assert!(big.misses < small.misses);
        // Access count is identical — the algorithm does not change.
        assert_eq!(big.accesses, small.accesses);
    }

    #[test]
    fn longer_lines_reduce_misses_on_streaming() {
        let a = gen::standard::<f64>(6, 48, 48);
        let (_, b4) = run_ata(&a, 16, 512, 4);
        let (_, b16) = run_ata(&a, 16, 512, 16);
        assert!(b16.misses < b4.misses);
    }

    #[test]
    fn prop31_expression_regimes() {
        // Quadratic term dominates for small n, the n^log7 term for
        // large n relative to M.
        let e = |n| prop31_expression(n, 1 << 20, 8);
        assert!(e(64) < e(128));
        let growth_small = e(128) / e(64);
        assert!((3.5..4.5).contains(&growth_small), "{growth_small}");
        let eb = |n| prop31_expression(n, 64, 8);
        let growth_big = eb(1 << 14) / eb(1 << 13);
        assert!((6.0..7.5).contains(&growth_big), "{growth_big}");
    }
}
