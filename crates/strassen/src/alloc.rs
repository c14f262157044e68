//! The *allocating* Strassen variant — the ablation baseline of §3.3.
//!
//! "One drawback of the naive Strassen implementation is the great amount
//! of memory allocated at each recursive step to store the results of the
//! intermediate matrix additions." This is exactly that naive variant:
//! the same [`CLASSIC`] program as [`crate::fast_strassen`], numerically
//! identical, but every recursion level allocates its slots from the heap
//! instead of carving them from one arena. The Figure 4 harness benches
//! both to reproduce the paper's demonstration that pre-allocation pays.

use crate::level::{check_shapes, Arena, Dense, CLASSIC};
use ata_kernels::CacheConfig;
use ata_mat::{MatMut, MatRef, Scalar};

/// `C += alpha * A^T B`, allocating temporaries at every level.
///
/// Shapes: `A: m x n`, `B: m x k`, `C: n x k`.
///
/// # Panics
/// On inconsistent shapes.
pub fn strassen_allocating<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &CacheConfig,
) {
    check_shapes("strassen_allocating", a, b, c);
    CLASSIC.level(&mut Dense, cfg, alpha, a, b, c, Arena::Fresh);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast_strassen;
    use ata_mat::{gen, reference, Matrix};

    #[test]
    fn allocating_matches_fast_bitwise() {
        // Same arithmetic order => identical floating-point results.
        let cfg = CacheConfig::with_words(8);
        for &(m, n, k) in &[(8, 8, 8), (7, 9, 5), (16, 12, 20), (13, 13, 13)] {
            let a = gen::standard::<f64>(m as u64, m, n);
            let b = gen::standard::<f64>(n as u64, m, k);
            let mut c1 = Matrix::zeros(n, k);
            let mut c2 = Matrix::zeros(n, k);
            strassen_allocating(1.0, a.as_ref(), b.as_ref(), &mut c1.as_mut(), &cfg);
            fast_strassen(1.0, a.as_ref(), b.as_ref(), &mut c2.as_mut(), &cfg);
            assert_eq!(c1.max_abs_diff(&c2), 0.0, "({m},{n},{k})");
        }
    }

    #[test]
    fn allocating_matches_oracle() {
        let cfg = CacheConfig::with_words(16);
        let (m, n, k) = (21, 14, 19);
        let a = gen::standard::<f64>(51, m, n);
        let b = gen::standard::<f64>(52, m, k);
        let mut c = gen::standard::<f64>(53, n, k);
        let mut c_ref = c.clone();
        strassen_allocating(-0.5, a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
        reference::gemm_tn(-0.5, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-10);
    }
}
