//! Complexity analysis — §3.2's claims, *measured*, not just derived.
//!
//! The headline result of the paper (Eq. 3 and the abstract) is that AtA
//! needs `2/3 n^(log2 7) + 1/3 n^2` multiplications — two thirds of
//! Strassen. This module provides
//!
//! * multiplication counts read off the level programs themselves
//!   ([`ata_mults`] for AtA, [`ata_strassen::Program::mults`] for a
//!   product),
//! * the paper's formula [`ata_mults_closed_form`] for fully-recursive
//!   powers of two, and
//! * the effective-GFLOPs metric of Eq. 9 used by every benchmark.
//!
//! The unit tests run the *real* algorithms on the op-counting
//! [`ata_mat::tracked::Tracked`] scalar and assert the measured counts
//! equal these formulas exactly.

use crate::serial::mults;
use ata_kernels::CacheConfig;
use ata_strassen::CLASSIC;

/// Scalar multiplications performed by the AtA recursion (Algorithm 1)
/// on an `m x n` input under cache config `cfg`.
///
/// Base case ([`CacheConfig::ata_base`], the live gate): `syrk_ln` does
/// `m * n(n+1)/2` multiplications. Recursive case: four AtA quadrant
/// calls plus two Strassen products (`(m1, n2, n1)` and `(m2, n2, n1)`).
/// A level over classical `C21` products does as many multiplications as
/// one `syrk_ln`, so on square powers of two this still equals Table 1's
/// closed form [`ata_mults_closed_form`] at the fully recursive budget.
pub fn ata_mults(m: usize, n: usize, cfg: &CacheConfig) -> u64 {
    mults(&CLASSIC, m, n, cfg)
}

/// The paper's closed form for fully-recursive square powers of two:
/// `2/3 * n^(log2 7) + 1/3 * n^2 = (2 * 7^q + 4^q) / 3` for `n = 2^q`.
pub fn ata_mults_closed_form(q: u32) -> u64 {
    (2 * 7u64.pow(q) + 4u64.pow(q)) / 3
}

/// Effective GFLOPs (Eq. 9): `r * m * n^2 / (seconds * 1e9)` for an
/// `m x n` input. `r = 1` for `A^T A`-specific algorithms, `r = 2` for
/// general matrix multiplication. For square matrices this reduces to
/// the paper's `r n^3 / time`.
pub fn effective_gflops(r: f64, m: usize, n: usize, seconds: f64) -> f64 {
    assert!(seconds > 0.0, "effective_gflops needs positive time");
    r * (m as f64) * (n as f64) * (n as f64) / (seconds * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{ata_into, run};
    use ata_mat::tracked::{measure, Tracked};
    use ata_mat::{gen, Matrix};
    use ata_strassen::{Dense, RECURSIVE_GEMM, WINOGRAD};

    fn strassen_mults(m: usize, n: usize, k: usize, cfg: &CacheConfig) -> u64 {
        CLASSIC.mults(m, n, k, cfg)
    }

    /// Fully-recursive config: base cases only at single elements.
    fn deep() -> CacheConfig {
        CacheConfig::with_words(2)
    }

    #[test]
    fn closed_form_matches_recurrence_for_powers_of_two() {
        for q in 0..8u32 {
            let n = 1usize << q;
            assert_eq!(
                ata_mults(n, n, &deep()),
                ata_mults_closed_form(q),
                "n = {n}"
            );
        }
    }

    #[test]
    fn eq3_ratio_two_thirds_of_strassen() {
        // Eq. 3: T_AtA(n) ~ 2/3 T_Strassen(n); the ratio converges from
        // above as the n^2 term fades.
        let mut prev_ratio = f64::INFINITY;
        for q in 3..9u32 {
            let n = 1usize << q;
            let ata = ata_mults(n, n, &deep()) as f64;
            let strassen = strassen_mults(n, n, n, &deep()) as f64;
            let ratio = ata / strassen;
            assert!(ratio > 2.0 / 3.0, "ratio must stay above 2/3");
            assert!(ratio < prev_ratio, "ratio must decrease monotonically");
            prev_ratio = ratio;
        }
        // By n = 256 the ratio is within 2% of 2/3.
        assert!((prev_ratio - 2.0 / 3.0) < 0.02, "ratio {prev_ratio}");
    }

    #[test]
    fn measured_ata_mults_match_formula_exactly() {
        // The flagship reproduction test: run the real Algorithm 1 on
        // counting scalars; measured multiplications must equal
        // (2*7^q + 4^q)/3 exactly.
        for q in 1..5u32 {
            let n = 1usize << q;
            let a = gen::standard::<Tracked>(q as u64, n, n);
            let mut c = Matrix::<Tracked>::zeros(n, n);
            let (_, ops) = measure(|| {
                ata_into(Tracked(1.0), a.as_ref(), &mut c.as_mut(), &deep());
            });
            assert_eq!(
                ops.muls,
                ata_mults_closed_form(q),
                "n={n}: measured muls != (2*7^q + 4^q)/3"
            );
        }
        // The count interpreter equals the run's multiplications for
        // every product program, at budgets forcing the C21 product to
        // depth 1-3 on odd shapes.
        for (name, prog) in [
            ("classic", &CLASSIC),
            ("winograd", &WINOGRAD),
            ("algorithm 2", &RECURSIVE_GEMM),
        ] {
            for &(m, n) in &[(67usize, 45usize), (37, 29)] {
                for depth in 1..=3u32 {
                    let mut leaf = m.div_ceil(2).min(n / 2);
                    for _ in 0..depth {
                        leaf = leaf.div_ceil(2);
                    }
                    let cfg = CacheConfig::with_words(2 * leaf * leaf);
                    let a = gen::standard::<Tracked>(7, m, n);
                    let mut c = Matrix::<Tracked>::zeros(n, n);
                    let mut ws =
                        vec![Tracked(0.0); crate::serial::workspace_elems(prog, m, n, &cfg)];
                    let (_, ops) = measure(|| {
                        run(
                            prog,
                            &mut Dense,
                            &cfg,
                            Tracked(1.0),
                            a.as_ref(),
                            &mut c.as_mut(),
                            &mut ws,
                        );
                    });
                    assert_eq!(
                        ops.muls,
                        mults(prog, m, n, &cfg),
                        "{name} ({m},{n}) depth {depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn measured_mults_match_recurrence_on_odd_and_rect_shapes() {
        for &(m, n) in &[(3usize, 3usize), (5, 4), (6, 7), (9, 9), (12, 10)] {
            let a = gen::standard::<Tracked>((m * 100 + n) as u64, m, n);
            let mut c = Matrix::<Tracked>::zeros(n, n);
            let (_, ops) = measure(|| {
                ata_into(Tracked(1.0), a.as_ref(), &mut c.as_mut(), &deep());
            });
            assert_eq!(ops.muls, ata_mults(m, n, &deep()), "shape ({m},{n})");
        }
    }

    #[test]
    fn ata_beats_naive_and_strassen_asymptotically() {
        // Multiplication counts at n = 512 (full recursion):
        // naive syrk ~ n^2(n+1)/2, Strassen ~ n^2.807, AtA ~ 2/3 Strassen.
        let n = 512usize;
        let ata = ata_mults(n, n, &deep());
        let strassen = strassen_mults(n, n, n, &deep());
        let naive = (n as u64) * (n as u64) * (n as u64 + 1) / 2;
        assert!(ata < strassen);
        assert!(strassen < naive * 2); // strassen vs full gemm count 2x
        assert!(ata < naive, "AtA must beat even the syrk count at n=512");
    }

    #[test]
    fn base_case_size_controls_the_counts() {
        // With a huge cache budget, AtA degenerates to one syrk call.
        let n = 64usize;
        let big = CacheConfig::with_words(usize::MAX / 2);
        assert_eq!(
            ata_mults(n, n, &big),
            (n as u64) * (n as u64) * (n as u64 + 1) / 2
        );
    }

    #[test]
    fn effective_gflops_metric() {
        // 1000^3 flops in 1 s = 1 GFLOP with r = 1.
        assert!((effective_gflops(1.0, 1000, 1000, 1.0) - 1.0).abs() < 1e-12);
        // r = 2 doubles the credit (general-gemm accounting).
        assert!((effective_gflops(2.0, 1000, 1000, 1.0) - 2.0).abs() < 1e-12);
        // Tall matrix: m n^2 scaling.
        assert!((effective_gflops(1.0, 8000, 1000, 1.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn classical_flops_scale() {
        // Without recursion AtA is the classical triangle: m n (n + 1)
        // flops, counting a multiply-add as two.
        let cfg = CacheConfig::default();
        assert_eq!(2 * ata_mults(10, 10, &cfg), 10 * 10 * 11);
    }

    #[test]
    #[should_panic(expected = "positive time")]
    fn zero_time_rejected() {
        let _ = effective_gflops(1.0, 10, 10, 0.0);
    }
}
