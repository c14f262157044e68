//! The *allocating* Strassen variant — the ablation baseline of §3.3.
//!
//! "One drawback of the naive Strassen implementation is the great amount
//! of memory allocated at each recursive step to store the results of the
//! intermediate matrix additions." This module is exactly that naive
//! variant: numerically identical to [`crate::fast_strassen`], but every
//! recursion level allocates its three temporaries from the heap. The
//! Figure 4 harness benches both to reproduce the paper's demonstration
//! that pre-allocation pays.

use ata_kernels::level1::{axpy, copy_padded};
use ata_kernels::{gemm_tn, CacheConfig};
use ata_mat::{half_up, MatMut, MatRef, Matrix, Scalar};

/// `dst = pad(a) + sign * pad(b)` as a freshly allocated matrix.
fn pad_sum_alloc<T: Scalar>(
    a: MatRef<'_, T>,
    sign: T,
    b: MatRef<'_, T>,
    rows: usize,
    cols: usize,
) -> Matrix<T> {
    let mut out = Matrix::zeros(rows, cols);
    for i in 0..a.rows() {
        copy_padded(a.row(i), out.row_mut(i));
    }
    for i in 0..b.rows() {
        axpy(sign, b.row(i), out.row_mut(i));
    }
    out
}

/// `pad(src)` as a freshly allocated matrix.
fn pad_alloc<T: Scalar>(src: MatRef<'_, T>, rows: usize, cols: usize) -> Matrix<T> {
    let mut out = Matrix::zeros(rows, cols);
    for i in 0..src.rows() {
        copy_padded(src.row(i), out.row_mut(i));
    }
    out
}

fn accumulate<T: Scalar>(c: &mut MatMut<'_, T>, mm: &Matrix<T>, coeff: T) {
    for i in 0..c.rows() {
        axpy(coeff, mm.row(i), c.row_mut(i));
    }
}

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
    let (m, n) = a.shape();
    let (mb, k) = b.shape();
    assert_eq!(
        m, mb,
        "strassen_allocating: A is {m}x{n} but B has {mb} rows"
    );
    assert_eq!(c.shape(), (n, k), "strassen_allocating: C must be {n}x{k}");
    rec(alpha, a, b, c, cfg);
}

fn rec<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &CacheConfig,
) {
    let (m, n) = a.shape();
    let k = b.cols();
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if cfg.gemm_base(m, n, k) {
        gemm_tn(alpha, a, b, c);
        return;
    }

    let (m1, n1, k1) = (half_up(m), half_up(n), half_up(k));
    let (a11, a12, a21, a22) = a.quad_split();
    let (b11, b12, b21, b22) = b.quad_split();
    let (c11, c12, c21, c22) = (
        (0, n1, 0, k1),
        (0, n1, k1, k),
        (n1, n, 0, k1),
        (n1, n, k1, k),
    );

    // Every product allocates tA, tB (when needed) and M — the behaviour
    // the fast variant exists to avoid.
    // (quadrant bounds, accumulation sign) pairs for one product.
    type Targets = [((usize, usize, usize, usize), i8)];
    let run = |ta: MatRef<'_, T>, tb: MatRef<'_, T>, targets: &Targets, c: &mut MatMut<'_, T>| {
        let mut mm = Matrix::<T>::zeros(n1, k1);
        rec(T::ONE, ta, tb, &mut mm.as_mut(), cfg);
        for &((r0, r1, q0, q1), sgn) in targets {
            let mut cq = c.block_mut(r0, r1, q0, q1);
            let coeff = if sgn >= 0 { alpha } else { -alpha };
            accumulate(&mut cq, &mm, coeff);
        }
    };

    let ta = pad_sum_alloc(a11, T::ONE, a22, m1, n1);
    let tb = pad_sum_alloc(b11, T::ONE, b22, m1, k1);
    run(ta.as_ref(), tb.as_ref(), &[(c11, 1), (c22, 1)], c);

    let ta = pad_sum_alloc(a12, T::ONE, a22, m1, n1);
    run(ta.as_ref(), b11, &[(c21, 1), (c22, -1)], c);

    let tb = pad_sum_alloc(b12, T::NEG_ONE, b22, m1, k1);
    run(a11, tb.as_ref(), &[(c12, 1), (c22, 1)], c);

    let ta = pad_alloc(a22, m1, n1);
    let tb = pad_sum_alloc(b21, T::NEG_ONE, b11, m1, k1);
    run(ta.as_ref(), tb.as_ref(), &[(c11, 1), (c21, 1)], c);

    let ta = pad_sum_alloc(a11, T::ONE, a21, m1, n1);
    let tb = pad_alloc(b22, m1, k1);
    run(ta.as_ref(), tb.as_ref(), &[(c11, -1), (c12, 1)], c);

    let ta = pad_sum_alloc(a12, T::NEG_ONE, a11, m1, n1);
    let tb = pad_sum_alloc(b11, T::ONE, b12, m1, k1);
    run(ta.as_ref(), tb.as_ref(), &[(c22, 1)], c);

    let ta = pad_sum_alloc(a21, T::NEG_ONE, a22, m1, n1);
    let tb = pad_sum_alloc(b21, T::ONE, b22, m1, k1);
    run(ta.as_ref(), tb.as_ref(), &[(c11, 1)], c);
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
