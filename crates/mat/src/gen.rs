//! Seeded random workload generation.
//!
//! The paper evaluates on "dense matrices of variable size... generated
//! randomly" (§5.1). All generators here take an explicit seed so every
//! experiment in the harness is reproducible bit-for-bit.

use crate::{Matrix, Scalar};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Uniform random matrix with entries in `[lo, hi)`.
pub(crate) fn uniform<T: Scalar>(
    seed: u64,
    rows: usize,
    cols: usize,
    lo: f64,
    hi: f64,
) -> Matrix<T> {
    assert!(lo < hi, "uniform: empty range [{lo}, {hi})");
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| T::from_f64(rng.random_range(lo..hi)))
}

/// Standard workload of the benchmark harness: entries uniform in
/// `[-1, 1)`, which keeps `A^T A` entries `O(m)` and avoids overflow in
/// `f32` runs at the paper's sizes.
pub fn standard<T: Scalar>(seed: u64, rows: usize, cols: usize) -> Matrix<T> {
    uniform(seed, rows, cols, -1.0, 1.0)
}

/// Matrix with entries drawn from `{-1, 0, 1}`; products are exactly
/// representable integers, so tests using it can compare with `== 0`
/// tolerance even through Strassen's add/subtract recombinations.
pub fn ternary<T: Scalar>(seed: u64, rows: usize, cols: usize) -> Matrix<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        T::from_f64((rng.random_range(0..3i32) - 1) as f64)
    })
}

/// Well-conditioned tall matrix for the least-squares example: a random
/// perturbation of the first `cols` columns of the identity.
pub fn tall_well_conditioned<T: Scalar>(seed: u64, rows: usize, cols: usize) -> Matrix<T> {
    assert!(rows >= cols, "tall matrix needs rows >= cols");
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |i, j| {
        let base = if i == j { 1.0 } else { 0.0 };
        T::from_f64(base + 0.1 * rng.random_range(-1.0..1.0))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = standard::<f64>(42, 8, 5);
        let b = standard::<f64>(42, 8, 5);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let c = standard::<f64>(43, 8, 5);
        assert!(a.max_abs_diff(&c) > 0.0, "different seeds differ");
    }

    #[test]
    fn uniform_respects_range() {
        let a = uniform::<f64>(7, 20, 20, -2.0, 3.0);
        for &v in a.as_slice() {
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn ternary_entries_are_exact() {
        let a = ternary::<f32>(1, 16, 16);
        for &v in a.as_slice() {
            assert!(v == -1.0 || v == 0.0 || v == 1.0);
        }
    }

    #[test]
    fn tall_well_conditioned_diagonal_dominates() {
        let a = tall_well_conditioned::<f64>(3, 10, 4);
        for j in 0..4 {
            assert!(a[(j, j)].abs() > 0.8);
        }
    }

    #[test]
    #[should_panic(expected = "rows >= cols")]
    fn tall_shape_checked() {
        let _ = tall_well_conditioned::<f64>(0, 2, 3);
    }
}
