//! Ridge regression path: one Gram matrix, a whole lambda sweep.
//!
//! ```text
//! cargo run --release --example ridge_path [-- <samples> <features>]
//! ```
//!
//! The normal-equations workload of §1 with the twist that makes AtA's
//! speedup multiply: cross-validating the regularization strength needs
//! `(A^T A + lambda I) x = A^T b` for many lambdas, but `A^T A` only
//! once. This example fits a noisy polynomial with ridge regression,
//! sweeps lambda over six decades, and selects the best value on a
//! held-out split.

use ata::linalg::lstsq::residual_norm;
use ata::linalg::ridge::RidgeSolver;
use ata::mat::Matrix;
use ata::AtaContext;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::num::NonZeroUsize;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(600);
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(24);

    // Ground truth: a sparse coefficient vector over a polynomial
    // feature map of t in [-1, 1] (Chebyshev-ish basis via cos).
    let mut rng = StdRng::seed_from_u64(77);
    let coeff: Vec<f64> = (0..n)
        .map(|j| {
            if j % 5 == 0 {
                2.0 / (j + 1) as f64
            } else {
                0.0
            }
        })
        .collect();
    let noise = 0.05f64;

    let design = |rows: usize, seed: u64| -> (Matrix<f64>, Vec<f64>) {
        let mut r = StdRng::seed_from_u64(seed);
        let mut a = Matrix::<f64>::zeros(rows, n);
        let mut b = vec![0.0f64; rows];
        for i in 0..rows {
            let t: f64 = r.random_range(-1.0..1.0);
            for j in 0..n {
                a[(i, j)] = (j as f64 * t.acos()).cos(); // Chebyshev T_j(t)
            }
            b[i] = (0..n).map(|j| coeff[j] * a[(i, j)]).sum::<f64>()
                + noise * r.random_range(-1.0..1.0);
        }
        (a, b)
    };

    let (a_train, b_train) = design(m, 1);
    let (a_test, b_test) = design(m / 3, 2);
    let _ = &mut rng;

    println!(
        "ridge path: {m} train / {} test samples, {n} Chebyshev features",
        m / 3
    );

    // One AtA call...
    let ctx = AtaContext::shared(NonZeroUsize::new(2).expect("2 > 0"));
    let t0 = std::time::Instant::now();
    let gram = ctx.lower(a_train.as_ref());
    let solver = RidgeSolver::new(a_train.as_ref(), &b_train, gram);
    let t_gram = t0.elapsed().as_secs_f64();

    // ...then a factorization per lambda.
    let lambdas: Vec<f64> = (-5..=1).map(|e| 10f64.powi(e)).collect();
    let t0 = std::time::Instant::now();
    let path = solver.solve_path(&lambdas).expect("SPD for lambda > 0");
    let t_path = t0.elapsed().as_secs_f64();

    println!(
        "gram (AtA): {:.1} ms; {} solves: {:.1} ms total\n",
        t_gram * 1e3,
        lambdas.len(),
        t_path * 1e3
    );
    println!("  lambda     train RMS   test RMS    ||x||");
    let mut best = (f64::INFINITY, 0usize);
    for (idx, (lambda, x)) in lambdas.iter().zip(&path).enumerate() {
        let train = residual_norm(a_train.as_ref(), x, &b_train) / (m as f64).sqrt();
        let test = residual_norm(a_test.as_ref(), x, &b_test) / ((m / 3) as f64).sqrt();
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        println!("  {lambda:8.0e}   {train:9.5}  {test:9.5}  {norm:7.3}");
        if test < best.0 {
            best = (test, idx);
        }
    }
    let (best_rms, best_idx) = best;
    println!(
        "\nselected lambda = {:.0e} (test RMS {best_rms:.5})",
        lambdas[best_idx]
    );

    // Sanity: the selected model recovers the planted sparse pattern.
    let x = &path[best_idx];
    let recovered: Vec<usize> = (0..n).filter(|&j| x[j].abs() > 0.15).collect();
    let planted: Vec<usize> = (0..n).filter(|&j| coeff[j].abs() > 0.15).collect();
    println!("planted strong coefficients at {planted:?}; recovered {recovered:?}");
    assert!(
        planted.iter().all(|j| recovered.contains(j)),
        "selected model must keep every strong planted coefficient"
    );
    assert!(
        best_rms < 3.0 * noise,
        "test error should approach the noise floor"
    );
    println!(
        "\nOK — one Gram matrix amortized across {} regularized solves.",
        lambdas.len()
    );
}
