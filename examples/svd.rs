//! SVD via the Gram matrix — §1 of the paper: "the Singular Value
//! Decomposition (SVD) of a matrix A can be computed by studying the
//! eigenproblem for A^T A and A A^T".
//!
//! Builds a matrix with a *known* spectrum (`A = U diag(sigma) V^T` from
//! orthonormalized random factors), computes the Gram matrix with AtA,
//! diagonalizes it with the Jacobi eigensolver, and checks the recovered
//! singular values, the Frobenius identity and the condition number.
//!
//! ```text
//! cargo run --release --example svd [-- <m> <n>]
//! ```

use ata::linalg::ortho::mgs_orthonormalize;
use ata::linalg::svd::{condition_number, gram_svd};
use ata::mat::{gen, Matrix};
use ata::AtaContext;
use std::num::NonZeroUsize;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(400);
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(40);
    assert!(m >= n);

    // Planted spectrum: sigma_i = n - i (so condition number = n).
    let sigma_true: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
    println!("planting spectrum sigma = {}..1 into a {m} x {n} matrix", n);

    let u = mgs_orthonormalize(gen::standard::<f64>(10, m, n).as_ref());
    let v = mgs_orthonormalize(gen::standard::<f64>(11, n, n).as_ref());
    // A = U diag(sigma) V^T.
    let a = Matrix::from_fn(m, n, |i, j| {
        (0..n)
            .map(|k| u[(i, k)] * sigma_true[k] * v[(j, k)])
            .sum::<f64>()
    });

    // One Gram via AtA-S on 4 workers feeds every query below.
    let ctx = AtaContext::shared(NonZeroUsize::new(4).expect("4 > 0"));
    let gram = ctx.lower(a.as_ref());
    let (sigma, v_rec) = gram_svd(&gram);

    let worst = sigma
        .iter()
        .zip(&sigma_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |sigma - sigma_true|   = {worst:.3e}");
    assert!(
        worst < 1e-8,
        "recovered spectrum must match the planted one"
    );

    // Frobenius identity: sum sigma^2 = ||A||_F^2.
    let sum_sq: f64 = sigma.iter().map(|x| x * x).sum();
    let frob_sq = a.as_ref().frobenius().powi(2);
    println!(
        "|sum sigma^2 - ||A||_F^2|  = {:.3e}",
        (sum_sq - frob_sq).abs()
    );
    assert!((sum_sq - frob_sq).abs() < 1e-6 * frob_sq);

    // Right singular vectors: ||A v_i|| = sigma_i.
    let mut worst_v = 0.0f64;
    for c in 0..n {
        let mut norm_sq = 0.0;
        for i in 0..m {
            let av: f64 = (0..n).map(|j| a[(i, j)] * v_rec[(j, c)]).sum();
            norm_sq += av * av;
        }
        worst_v = worst_v.max((norm_sq.sqrt() - sigma[c]).abs());
    }
    println!("max | ||A v_i|| - sigma_i| = {worst_v:.3e}");
    assert!(worst_v < 1e-7);

    let kappa = condition_number(&gram);
    println!("condition number           = {kappa:.4} (planted: {})", n);
    assert!((kappa - n as f64).abs() < 1e-6 * n as f64);

    println!("SVD via A^T A eigenproblem — OK");
}
