//! The measured Strassen cutoff: the cache budget below which a product
//! stays one `gemm_tn` call.
//!
//! [`CacheConfig::gemm_base`] gates the recursion in [`crate::fast`]: an
//! `(m, n, k)` product recurses while `m*n + m*k` exceeds the budget, so a
//! square order-`g` product is a base case exactly when `2 g² <= words`.
//! The budget is measured where it acts: [`measure_cutoff`] times one
//! recursion level of [`fast_strassen_with`] — seven half-size base-case
//! products plus the block sums — against one `gemm_tn` at each square
//! order g ∈ {256, 384, 512, 768, 1024, 1536, 2048}, in alternating
//! rounds, and [`cutoff_words`] turns the median ratios into a budget.
//! Both sides run on the kernels the recursion calls: the baked
//! `ata_kernels::calibrate` row for the resolved tile path, plus any
//! `ATA_KERNEL_PARAMS` override (so re-time the cutoff after re-baking a
//! tile or blocking).
//!
//! The same budget also sets AtA's syrk leaves
//! ([`CacheConfig::ata_base`], `m*n <= words`); `ata calibrate` prints
//! the ratios and the resulting row.

use crate::fast::fast_strassen_with;
use crate::workspace::StrassenWorkspace;
use ata_kernels::timing::{time_rounds, Quartiles};
use ata_kernels::{gemm_tn, CacheConfig};
use ata_mat::{gen, half_up, Matrix, Scalar};

/// Square orders the full cutoff sweep times, in increasing order.
/// Consecutive orders differ by at most 2x, so the half of any order is
/// no larger than the order before it.
const CUTOFF_SWEEP_SIZES: &[usize] = &[256, 384, 512, 768, 1024, 1536, 2048];

/// Orders of the quick (smoke) sweep.
const QUICK_SIZES: &[usize] = &[64, 128];

/// Timed rounds per order and the seconds they must fill at least
/// (see [`time_rounds`]); a round times each side once, alternating
/// which goes first.
const ROUNDS: (usize, f64) = (15, 1.0);

/// Rounds of the quick sweep.
const QUICK_ROUNDS: (usize, f64) = (5, 0.0);

/// A level wins when the median of its per-round time ratio to
/// `gemm_tn` is at most this: a 5% margin over timing noise.
pub const LEVEL_WIN: f64 = 0.95;

/// Quartiles over paired rounds of one `fast_strassen_with` level's
/// time over one `gemm_tn`'s, both computing `C += A^T B` on order-`g`
/// square operands.
fn level_over_classical<T: Scalar>(g: usize, (rounds, secs): (usize, f64)) -> Quartiles {
    let a = gen::standard::<T>(1, g, g);
    let b = gen::standard::<T>(2, g, g);
    let mut c = Matrix::<T>::zeros(g, g);
    // `g` fails this budget and its halves pass it: exactly one level.
    let half = half_up(g);
    let cfg = CacheConfig::with_words(2 * half * half);
    let mut ws = StrassenWorkspace::for_problem(g, g, g, &cfg);
    let (a, b) = (a.as_ref(), b.as_ref());
    time_rounds(2, rounds, secs, |side| {
        if side == 0 {
            fast_strassen_with(T::ONE, a, b, &mut c.as_mut(), &cfg, &mut ws);
        } else {
            gemm_tn(T::ONE, a, b, &mut c.as_mut());
        }
    })
    .ratio(0, 1)
}

/// Sweep the cutoff for `T`: `(g, level / gemm_tn time)` for each swept
/// order g ∈ {256, 384, ..., 2048} in turn, stopping after the first order
/// whose level wins (median ratio at most [`LEVEL_WIN`]). `quick` sweeps
/// two small orders in fewer rounds instead, for smoke runs (`ata
/// calibrate --quick 1`).
pub fn measure_cutoff<T: Scalar>(quick: bool) -> Vec<(usize, Quartiles)> {
    let (sizes, rounds) = if quick {
        (QUICK_SIZES, QUICK_ROUNDS)
    } else {
        (CUTOFF_SWEEP_SIZES, ROUNDS)
    };
    let mut sweep = Vec::new();
    for &g in sizes {
        let ratio = level_over_classical::<T>(g, rounds);
        sweep.push((g, ratio));
        if ratio.median <= LEVEL_WIN {
            break;
        }
    }
    sweep
}

/// The budget rule: `2 g_prev²`, where `g*` is the first swept order
/// whose level wins (ratio at most [`LEVEL_WIN`]) and `g_prev` the order
/// swept before it. A square `g_prev` product then stays a base case,
/// and a `g*` product recurses exactly once, into halves no larger than
/// `g_prev`.
///
/// Two edge rules:
/// * the level already wins at the first order: `g_prev` is taken as
///   half of it, so that order still recurses exactly once;
/// * the level never wins up to the last order: `g_prev` is the last
///   order, so every swept product stays a base case (an empty sweep
///   counts as this case, at the last order of the full sweep, 2048).
pub fn cutoff_words(sweep: &[(usize, f64)]) -> usize {
    let g_prev = match sweep.iter().position(|&(_, ratio)| ratio <= LEVEL_WIN) {
        Some(0) => half_up(sweep[0].0),
        Some(i) => sweep[i - 1].0,
        None => sweep.last().map_or(
            CUTOFF_SWEEP_SIZES[CUTOFF_SWEEP_SIZES.len() - 1],
            |&(g, _)| g,
        ),
    };
    2 * g_prev * g_prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_kernels::calibrate::tuned_for_isa;
    use ata_kernels::simd::Isa;

    /// Ratios that lose at every order of the full sweep before `g_star`
    /// and win at `g_star`.
    fn sweep_won_at(g_star: usize) -> Vec<(usize, f64)> {
        CUTOFF_SWEEP_SIZES
            .iter()
            .take_while(|&&g| g <= g_star)
            .map(|&g| (g, if g == g_star { 0.9 } else { 1.1 }))
            .collect()
    }

    #[test]
    fn budget_recurses_the_winning_order_once() {
        for pair in CUTOFF_SWEEP_SIZES.windows(2) {
            let (g_prev, g_star) = (pair[0], pair[1]);
            let cfg = CacheConfig::with_words(cutoff_words(&sweep_won_at(g_star)));
            assert!(!cfg.gemm_base(g_star, g_star, g_star), "g* = {g_star}");
            let half = half_up(g_star);
            assert!(cfg.gemm_base(half, half, half), "half of g* = {g_star}");
            assert!(cfg.gemm_base(g_prev, g_prev, g_prev), "g_prev = {g_prev}");
        }
    }

    #[test]
    fn a_level_winning_at_the_first_order_still_recurses_it_once() {
        let first = CUTOFF_SWEEP_SIZES[0];
        let words = cutoff_words(&[(first, 0.5)]);
        let cfg = CacheConfig::with_words(words);
        assert!(!cfg.gemm_base(first, first, first));
        let half = half_up(first);
        assert!(cfg.gemm_base(half, half, half));
        assert_eq!(words, 2 * half * half);
    }

    #[test]
    fn a_level_that_never_wins_keeps_every_swept_order_a_base_case() {
        let last = *CUTOFF_SWEEP_SIZES.last().unwrap();
        let sweep: Vec<_> = CUTOFF_SWEEP_SIZES.iter().map(|&g| (g, 1.02)).collect();
        let cfg = CacheConfig::with_words(cutoff_words(&sweep));
        assert!(cfg.gemm_base(last, last, last));
        assert!(!cfg.gemm_base(last + 1, last + 1, last + 1));
        assert_eq!(cutoff_words(&[]), cutoff_words(&sweep));
        // A tie with the margin counts as a win; just above it does not.
        assert_eq!(cutoff_words(&[(256, 1.1), (384, LEVEL_WIN)]), 2 * 256 * 256);
        assert_eq!(
            cutoff_words(&[(256, 1.1), (384, LEVEL_WIN + 1e-9)]),
            2 * 384 * 384
        );
    }

    #[test]
    fn baked_cutoffs_lie_in_the_measured_sweep_range() {
        // Every budget the rule can return: 2 g² for a swept order g, or
        // for half the first one.
        let half = half_up(CUTOFF_SWEEP_SIZES[0]);
        let valid: Vec<usize> = std::iter::once(half)
            .chain(CUTOFF_SWEEP_SIZES.iter().copied())
            .map(|g| 2 * g * g)
            .collect();
        for isa in [Isa::Avx512, Isa::Fma, Isa::Generic] {
            for words in [
                tuned_for_isa::<f64>(isa).base_words,
                tuned_for_isa::<f32>(isa).base_words,
            ] {
                assert!(
                    valid.contains(&words),
                    "baked cutoff {words} ({isa:?}) is not a budget the sweep can return: {valid:?}"
                );
            }
        }
    }

    #[test]
    fn quick_sweep_stops_at_the_first_win() {
        let sweep = measure_cutoff::<f64>(true);
        assert!(!sweep.is_empty() && sweep.len() <= QUICK_SIZES.len());
        for (i, &(g, q)) in sweep.iter().enumerate() {
            assert_eq!(g, QUICK_SIZES[i]);
            assert!(q.q1 > 0.0 && q.q1 <= q.median && q.median <= q.q3 && q.q3.is_finite());
            let ratio = q.median;
            let last = i + 1 == sweep.len();
            assert!(last || ratio > LEVEL_WIN, "sweep went on past a win");
        }
    }
}
