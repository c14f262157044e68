//! Discrete heat kernel via a symmetric product — the paper's geometry
//! application (§1): `K(t) = Phi E(t) Phi^T` with `E(t) = exp(-Lambda t)`
//! can be computed as `K(t) = B B^T` where `B = Phi E(t)^{1/2}`, i.e. a
//! single matrix-times-its-transpose product (Zeng et al., cited
//! as [38]).
//!
//! We use the path graph on `n` vertices, whose Laplacian eigenpairs are
//! known in closed form, build `B`, and compute `K(t) = B B^T` as
//! `(B^T)^T (B^T)` with AtA. The example verifies the defining
//! properties of a heat kernel: symmetry, unit row sums (heat
//! conservation), positivity of the diagonal, and convergence to the
//! uniform distribution as `t` grows.
//!
//! ```text
//! cargo run --release --example heat_kernel [-- <n> <t>]
//! ```

use ata::mat::Matrix;
use ata::AtaContext;
use std::f64::consts::PI;
use std::num::NonZeroUsize;

/// Eigenvalues of the path-graph Laplacian: `lambda_k = 2 - 2 cos(pi k / n)`.
fn eigenvalue(n: usize, k: usize) -> f64 {
    2.0 - 2.0 * (PI * k as f64 / n as f64).cos()
}

/// Orthonormal eigenvector entry `phi_k(i)` of the path-graph Laplacian.
fn eigenvector(n: usize, k: usize, i: usize) -> f64 {
    if k == 0 {
        (1.0 / n as f64).sqrt()
    } else {
        (2.0 / n as f64).sqrt() * (PI * k as f64 * (i as f64 + 0.5) / n as f64).cos()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(400);
    let t: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.5);

    println!("heat kernel on the path graph: n = {n}, t = {t}");

    // B^T = E(t)^{1/2} Phi^T: row k of B^T is sqrt(exp(-lambda_k t)) phi_k.
    // K = B B^T = (B^T)^T (B^T) — exactly the AtA contract.
    let bt = Matrix::from_fn(n, n, |k, i| {
        (-eigenvalue(n, k) * t / 2.0).exp() * eigenvector(n, k, i)
    });
    let ctx = AtaContext::shared(NonZeroUsize::new(4).expect("4 > 0"));
    let k_t = ctx.gram(bt.as_ref());

    // 1. Symmetry (inherent to the product, checked anyway).
    assert!(k_t.is_symmetric(1e-12), "heat kernel must be symmetric");

    // 2. Heat conservation: L 1 = 0 => K(t) 1 = 1 (unit row sums).
    let mut worst_row_sum = 0.0f64;
    for i in 0..n {
        let s: f64 = k_t.row(i).iter().sum();
        worst_row_sum = worst_row_sum.max((s - 1.0).abs());
    }
    println!("max |row sum - 1|       = {worst_row_sum:.3e}");
    assert!(worst_row_sum < 1e-8, "heat must be conserved");

    // 3. Positive diagonal (return probability).
    let min_diag = (0..n).map(|i| k_t[(i, i)]).fold(f64::INFINITY, f64::min);
    println!("min diagonal entry      = {min_diag:.3e}");
    assert!(min_diag > 0.0);

    // 4. Long-time limit: K(t) -> uniform 1/n. The non-uniform part
    // decays like exp(-lambda_1 t), and the spectral gap lambda_1 shrinks
    // like (pi/n)^2, so "long" is measured in units of 1/lambda_1.
    let t_long = 40.0 / eigenvalue(n, 1);
    let bt_long = Matrix::from_fn(n, n, |k, i| {
        (-eigenvalue(n, k) * t_long / 2.0).exp() * eigenvector(n, k, i)
    });
    let k_long = AtaContext::serial().gram(bt_long.as_ref());
    let mut worst_uniform = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            worst_uniform = worst_uniform.max((k_long[(i, j)] - 1.0 / n as f64).abs());
        }
    }
    println!("max |K(t_long) - 1/n|   = {worst_uniform:.3e}  (t_long = {t_long:.4e})");
    assert!(worst_uniform < 1e-8, "heat kernel must converge to uniform");

    // 5. Short-time locality: far-apart vertices exchange little heat.
    let far = k_t[(0, n - 1)].abs();
    let near = k_t[(0, 0)];
    println!("K(t)[0,0] / K(t)[0,n-1] = {:.3e}", near / far.max(1e-300));
    assert!(near > far * 1e3, "short-time kernel must be local");

    println!("heat-kernel properties verified — OK");
}
