//! Orthogonality checking with `A^T A` — the paper's §1 observes that
//! the Gram product "is a straightforward, yet effective, method to
//! check for orthogonality", e.g. inside Gram–Schmidt.
//!
//! This example orthonormalizes a random basis with `ata-linalg`'s
//! modified Gram–Schmidt, then verifies `Q^T Q = I` with a single AtA
//! product instead of `n^2` explicit dot products.
//!
//! ```text
//! cargo run --release --example gram_schmidt [-- <m> <n>]
//! ```

use ata::linalg::ortho::{mgs_orthonormalize, orthogonality_defect};
use ata::mat::gen;
use ata::AtaContext;
use std::num::NonZeroUsize;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(1500);
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    assert!(m >= n);

    println!("orthonormalizing {n} vectors of dimension {m} (modified Gram-Schmidt)");
    let a = gen::standard::<f64>(99, m, n);
    let q = mgs_orthonormalize(a.as_ref());

    // One AtA-S product on 4 workers; the check reads its lower triangle.
    let ctx = AtaContext::shared(NonZeroUsize::new(4).expect("4 > 0"));
    let dev = orthogonality_defect(&ctx.lower(q.as_ref()));
    println!("max |Q^T Q - I| = {dev:.3e}");
    assert!(dev < 1e-10, "Q failed the orthogonality check");

    // Sanity: the original basis was far from orthogonal.
    let dev_a = orthogonality_defect(&ctx.lower(a.as_ref()));
    println!("max |A^T A - I| = {dev_a:.3e}  (original basis, for contrast)");
    assert!(dev_a > 1.0);

    println!("orthogonality verified with a single A^T A product — OK");
}
