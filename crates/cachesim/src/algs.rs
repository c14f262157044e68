//! The workspace's algorithms walked over `CachedMem`.
//!
//! Each walk runs the library's own recursion — `ata-strassen`'s level
//! programs and `ata-core`'s AtA level — on views of the simulated
//! memory, so the quadrant splits, the arena slot carving and the step
//! order are the real algorithm's by construction. Only the machine
//! differs: every element access of the block sums and of the naive
//! base kernels is reported to the ideal cache, and the numerics run for
//! real, so each walk is still oracle-checked.
//!
//! Base cases use the naive register-accumulator kernels, which realize
//! the `O(base^2 / b)` base-case transfer count the cache-oblivious
//! analysis assumes (all operand lines stay resident once the base block
//! fits in `M`). The walks stop where that analysis does, at the paper's
//! cache-fit rule ([`CacheFit`]), not at the library's calibrated
//! recursion gate.

use crate::lru::IdealCache;
use crate::mem::{CachedMem, Walk};
use ata_core::serial::{ata_run, ata_workspace_elems, StrassenKind};
use ata_mat::{MatMut, MatRef, Matrix, Scalar};
use ata_strassen::{CacheFit, Machine, Program, CLASSIC, RECURSIVE_GEMM};

/// Miss/access statistics of one instrumented run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Ideal-cache misses (`Q(n; M, b)`).
    pub misses: u64,
    /// Total word accesses.
    pub accesses: u64,
}

/// Naive base kernels and element-wise block sums, each access counted.
impl<T: Scalar> Machine<T> for Walk<'_> {
    fn gemm_leaf(&mut self, alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
        for i in 0..c.rows() {
            for j in 0..c.cols() {
                let mut acc = T::ZERO;
                for l in 0..a.rows() {
                    acc += self.read(a, l, i) * self.read(b, l, j);
                }
                self.add(c, i, j, alpha * acc);
            }
        }
    }

    fn syrk_leaf(&mut self, alpha: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
        for i in 0..a.cols() {
            for j in 0..=i {
                let mut acc = T::ZERO;
                for l in 0..a.rows() {
                    acc += self.read(a, l, i) * self.read(a, l, j);
                }
                self.add(c, i, j, alpha * acc);
            }
        }
    }

    fn pad(&mut self, dst: &mut MatMut<'_, T>, src: MatRef<'_, T>) {
        for i in 0..dst.rows() {
            for j in 0..dst.cols() {
                let v = if i < src.rows() && j < src.cols() {
                    self.read(src, i, j)
                } else {
                    T::ZERO
                };
                self.write(dst, i, j, v);
            }
        }
    }

    fn add(&mut self, dst: &mut MatMut<'_, T>, coeff: T, src: MatRef<'_, T>) {
        for i in 0..src.rows().min(dst.rows()) {
            for j in 0..src.cols().min(dst.cols()) {
                let v = self.read(src, i, j);
                Walk::add(self, dst, i, j, coeff * v);
            }
        }
    }

    fn rsub(&mut self, dst: &mut MatMut<'_, T>, src: MatRef<'_, T>) {
        for i in 0..dst.rows() {
            for j in 0..dst.cols() {
                let s = if i < src.rows() && j < src.cols() {
                    self.read(src, i, j)
                } else {
                    T::ZERO
                };
                let d = self.read(dst.as_ref(), i, j);
                self.write(dst, i, j, s - d);
            }
        }
    }
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
    let mut mem = CachedMem::new(m * n + n * n, IdealCache::new(capacity_words, line_words));
    mem.load(0, a);
    let (data, mut walk) = mem.split();
    let (ad, cd) = data.split_at_mut(m * n);
    let mut c = MatMut::from_slice(cd, n, n);
    walk.syrk_leaf(T::ONE, MatRef::from_slice(ad, m, n), &mut c);
    (mem.extract(m * n, n, n), stats(&mem))
}

/// `C = A^T B` through `prog` on the walk, with `A | B | C | arena` laid
/// out in that order.
fn run_product<T: Scalar>(
    prog: &Program,
    a: &Matrix<T>,
    b: &Matrix<T>,
    base_words: usize,
    capacity_words: usize,
    line_words: usize,
) -> (Matrix<T>, CacheStats) {
    let (m, n) = a.shape();
    let k = b.cols();
    assert_eq!(b.rows(), m, "A and B row mismatch");
    let fit = CacheFit(base_words);
    let (ra, rb, rc) = (m * n, m * k, n * k);
    let words = ra + rb + rc + prog.workspace_elems(m, n, k, &fit);
    let mut mem = CachedMem::new(words, IdealCache::new(capacity_words, line_words));
    mem.load(0, a);
    mem.load(ra, b);
    let (data, mut walk) = mem.split();
    let (ad, rest) = data.split_at_mut(ra);
    let (bd, rest) = rest.split_at_mut(rb);
    let (cd, arena) = rest.split_at_mut(rc);
    let (a, b) = (MatRef::from_slice(ad, m, n), MatRef::from_slice(bd, m, k));
    let mut c = MatMut::from_slice(cd, n, k);
    prog.run(&mut walk, &fit, T::ONE, a, b, &mut c, arena);
    (mem.extract(ra + rb, n, k), stats(&mem))
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
    run_product(
        &RECURSIVE_GEMM,
        a,
        b,
        base_words,
        capacity_words,
        line_words,
    )
}

/// Measure the arena Strassen recursion for `C = A^T B`.
pub fn run_strassen<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    base_words: usize,
    capacity_words: usize,
    line_words: usize,
) -> (Matrix<T>, CacheStats) {
    run_product(&CLASSIC, a, b, base_words, capacity_words, line_words)
}

/// Measure AtA (Algorithm 1) for the lower triangle of `C = A^T A`.
pub fn run_ata<T: Scalar>(
    a: &Matrix<T>,
    base_words: usize,
    capacity_words: usize,
    line_words: usize,
) -> (Matrix<T>, CacheStats) {
    let (m, n) = a.shape();
    let (fit, kind) = (CacheFit(base_words), StrassenKind::Classic);
    let words = m * n + n * n + ata_workspace_elems(m, n, &fit, kind);
    let mut mem = CachedMem::new(words, IdealCache::new(capacity_words, line_words));
    mem.load(0, a);
    let (data, mut walk) = mem.split();
    let (ad, rest) = data.split_at_mut(m * n);
    let (cd, arena) = rest.split_at_mut(n * n);
    let mut c = MatMut::from_slice(cd, n, n);
    ata_run(
        &mut walk,
        &fit,
        kind,
        T::ONE,
        MatRef::from_slice(ad, m, n),
        &mut c,
        arena,
    );
    (mem.extract(m * n, n, n), stats(&mem))
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
            let mut want = Matrix::zeros(n, k);
            reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut want.as_mut());
            let (c, _) = run_strassen(&a, &b, 32, M, B);
            assert!(c.max_abs_diff(&want) < 1e-10, "({m},{n},{k})");
            // Winograd's chain steps walk too.
            let (c, _) = run_product(&ata_strassen::WINOGRAD, &a, &b, 32, M, B);
            assert!(c.max_abs_diff(&want) < 1e-10, "winograd ({m},{n},{k})");
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
    fn exact_counts_at_the_prop31_defaults() {
        // prop31's n-sweep at its defaults (M = 64, b = 8, base 8), each
        // input built as prop31 builds it: misses / accesses of naive
        // syrk, RecursiveGEMM, Strassen and AtA. The inequality tests
        // above would pass a walk whose addressing drifted within their
        // bounds; these pins would not.
        let (m_words, b_words, base) = (64, 8, 8);
        let pins: [(usize, [(u64, u64); 4]); 3] = [
            (
                16,
                [(3336, 4488), (2688, 10240), (2521, 33272), (972, 13200)],
            ),
            (
                32,
                [
                    (29712, 34320),
                    (21504, 81920),
                    (19919, 251080),
                    (8930, 119344),
                ],
            ),
            (
                64,
                [
                    (249888, 268320),
                    (172032, 655360),
                    (148521, 1830264),
                    (75558, 979536),
                ],
            ),
        ];
        for (n, want) in pins {
            let a = gen::standard::<f64>(n as u64, n, n);
            let got = [
                run_naive_syrk(&a, m_words, b_words).1,
                run_recursive_gemm(&a, &a.clone(), base, m_words, b_words).1,
                run_strassen(&a, &a.clone(), base, m_words, b_words).1,
                run_ata(&a, base, m_words, b_words).1,
            ]
            .map(|s| (s.misses, s.accesses));
            assert_eq!(got, want, "n = {n}: naive, RecursiveGEMM, Strassen, AtA");
        }
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
