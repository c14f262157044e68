//! Least squares via the normal equations — the paper's motivating
//! application (§1): solve the overdetermined system `A x ≈ b` by
//! forming `A^T A x = A^T b` with AtA and factoring the (symmetric
//! positive definite) Gram matrix with Cholesky — all through the
//! `ata-linalg` crate.
//!
//! ```text
//! cargo run --release --example least_squares [-- <m> <n>]
//! ```

use ata::linalg::lstsq::{residual_norm, solve_normal_equations};
use ata::mat::gen;
use ata::AtaContext;
use std::num::NonZeroUsize;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(2000);
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(120);
    assert!(m > n, "least squares needs a tall system");

    println!("overdetermined system: {m} equations, {n} unknowns");

    // Well-conditioned tall A and a ground-truth solution x*.
    let a = gen::tall_well_conditioned::<f64>(7, m, n);
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();

    // b = A x* + tiny perturbation (so the system is inconsistent, as a
    // real least-squares problem would be).
    let mut b = vec![0.0f64; m];
    for i in 0..m {
        for j in 0..n {
            b[i] += a[(i, j)] * x_true[j];
        }
        b[i] += 1e-9 * ((i * 31 % 17) as f64 - 8.0);
    }

    // G = A^T A via AtA-S on 4 workers, then Cholesky and two solves.
    let ctx = AtaContext::shared(NonZeroUsize::new(4).expect("4 > 0"));
    let x = solve_normal_equations(a.as_ref(), &b, ctx.lower(a.as_ref()))
        .expect("A has full column rank");

    let err = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |x - x*|    = {err:.3e}");
    assert!(err < 1e-6, "normal-equation solve must recover x*");

    let res = residual_norm(a.as_ref(), &x, &b);
    println!("residual 2-norm = {res:.3e}");
    assert!(res < 1e-6);

    println!("least-squares solve via AtA normal equations — OK");
}
