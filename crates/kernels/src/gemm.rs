//! Cache-blocked `C += alpha * A^T B` — the workspace's `?gemm('T','N')`.
//!
//! The product of a transposed left operand is the only general product
//! the paper's algorithms need (Algorithm 1 line 11, Algorithm 2 line 3),
//! and it is the hard case for row-major storage: naive column access of
//! `A` misses cache on every element. The scheme here never touches `A`
//! column-wise:
//!
//! For each row `l` of `A` and `B`, the update
//! `C[i, :] += (alpha * A[l, i]) * B[l, :]` is a contiguous `axpy`. Rows
//! `l` stream once per `(MC, NC)` tile of `C`, the tile itself stays hot
//! in L1/L2, and the inner loop is unit-stride over `NC` elements — the
//! autovectorizer turns it into packed FMAs.
//!
//! Tiles default to `MC = 32`, `NC = 256` (a 64 KiB f64 C-tile) and can be
//! overridden through [`BlockSizes`] for the blocking-ablation bench.

use ata_mat::{MatMut, MatRef, Scalar};

/// Loop-blocking parameters of [`gemm_tn_blocked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Rows of the C tile (columns of `A` handled per sweep).
    pub mc: usize,
    /// Columns of the C tile (columns of `B` handled per sweep).
    pub nc: usize,
}

impl Default for BlockSizes {
    fn default() -> Self {
        Self { mc: 32, nc: 256 }
    }
}

impl BlockSizes {
    /// Validated constructor.
    ///
    /// # Panics
    /// If either block size is zero.
    pub fn new(mc: usize, nc: usize) -> Self {
        assert!(mc > 0 && nc > 0, "block sizes must be positive");
        Self { mc, nc }
    }
}

/// `C += alpha * A^T B` — the workspace's default `?gemm('T','N')`.
///
/// Dispatches to the packed register-blocked engine
/// ([`crate::micro::gemm_tn_micro`]) with the measured per-scalar
/// blocking from [`crate::calibrate`]; tiny products fall back to
/// [`gemm_tn_blocked`] — see [`crate::micro::selected_path`].
///
/// Shapes: `A: m x n`, `B: m x k`, `C: n x k`.
///
/// # Panics
/// On inconsistent shapes.
#[inline]
pub fn gemm_tn<T: Scalar>(alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
    let (m, n) = a.shape();
    let k = b.cols();
    match crate::micro::selected_path::<T>(m, n, k) {
        crate::micro::KernelPath::Micro => {
            let cfg = crate::micro::KernelConfig::for_scalar::<T>();
            crate::micro::gemm_tn_micro(alpha, a, b, c, &cfg);
        }
        crate::micro::KernelPath::Blocked => gemm_tn_blocked(alpha, a, b, c, BlockSizes::default()),
    }
}

/// `C += alpha * A^T B` with explicit blocking parameters.
///
/// # Panics
/// On inconsistent shapes.
pub fn gemm_tn_blocked<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    bs: BlockSizes,
) {
    let (m, n) = a.shape();
    let (mb, k) = b.shape();
    assert_eq!(m, mb, "gemm_tn: A is {m}x{n} but B has {mb} rows");
    assert_eq!(
        c.shape(),
        (n, k),
        "gemm_tn: C must be {n}x{k}, got {:?}",
        c.shape()
    );
    blocked_nest(alpha, a, b, c, bs, false);
}

/// The tile loop behind [`gemm_tn_blocked`] and
/// [`crate::syrk::syrk_ln_blocked`]: `C += alpha * A^T B`, or with
/// `lower` (`B` is `A`, `C` is square) only its `i >= j` entries — each
/// row of a tile stops at the diagonal, and the row tiles start at `jc`.
pub(crate) fn blocked_nest<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    bs: BlockSizes,
    lower: bool,
) {
    let (m, n) = a.shape();
    let k = b.cols();
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let alpha_is_one = alpha == T::ONE;

    let mut jc = 0;
    while jc < k {
        let jn = (jc + bs.nc).min(k);
        let mut ic = if lower { jc } else { 0 };
        while ic < n {
            let im = (ic + bs.mc).min(n);
            // C tile rows ic..im, cols jc..jn accumulate while A and B rows
            // stream through once. The `alpha == 1` unswitch keeps the hot
            // path multiplication-exact (important both for speed and for
            // the measured-flop tests in `ata-core::analysis`).
            for l in 0..m {
                let arow = &a.row(l)[ic..im];
                let brow = &b.row(l)[jc..jn];
                for (i, &ali) in arow.iter().enumerate() {
                    let s = if alpha_is_one { ali } else { alpha * ali };
                    let end = if lower { jn.min(ic + i + 1) } else { jn };
                    let crow = &mut c.row_mut(ic + i)[jc..end];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += s * bv;
                    }
                }
            }
            ic = im;
        }
        jc = jn;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference, Matrix};

    fn check_against_oracle(m: usize, n: usize, k: usize, alpha: f64, bs: BlockSizes) {
        let a = gen::standard::<f64>(1000 + m as u64, m, n);
        let b = gen::standard::<f64>(2000 + k as u64, m, k);
        let mut c_fast = gen::standard::<f64>(3000, n, k);
        let mut c_ref = c_fast.clone();
        gemm_tn_blocked(alpha, a.as_ref(), b.as_ref(), &mut c_fast.as_mut(), bs);
        reference::gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        let tol = ata_mat::ops::product_tol::<f64>(m.max(n), k, m as f64);
        let diff = c_fast.max_abs_diff(&c_ref);
        assert!(
            diff <= tol,
            "({m},{n},{k}) blocked gemm differs from oracle by {diff} > {tol}"
        );
    }

    #[test]
    fn matches_oracle_on_assorted_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (2, 3, 4),
            (7, 5, 3),
            (16, 16, 16),
            (33, 31, 29), // primes exceed one MC block
            (64, 1, 64),
            (1, 64, 64),
            (100, 37, 300), // k spans multiple NC tiles
        ] {
            check_against_oracle(m, n, k, 1.0, BlockSizes::default());
        }
    }

    #[test]
    fn alpha_scaling_and_accumulation() {
        check_against_oracle(20, 20, 20, -2.5, BlockSizes::default());
    }

    #[test]
    fn tiny_blocks_still_correct() {
        check_against_oracle(19, 23, 17, 1.0, BlockSizes::new(1, 1));
        check_against_oracle(19, 23, 17, 1.0, BlockSizes::new(2, 3));
    }

    #[test]
    fn works_on_strided_views() {
        // Multiply quadrants of a larger matrix without copying.
        let big = gen::standard::<f64>(9, 8, 8);
        let (a11, _, _, a22) = big.as_ref().quad_split();
        let mut c = Matrix::zeros(4, 4);
        gemm_tn(1.0, a11, a22, &mut c.as_mut());
        let mut c_ref = Matrix::zeros(4, 4);
        reference::gemm_tn(1.0, a11, a22, &mut c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn f32_path() {
        let a = gen::standard::<f32>(11, 30, 20);
        let b = gen::standard::<f32>(12, 30, 25);
        let mut c = Matrix::<f32>::zeros(20, 25);
        gemm_tn(2.0f32, a.as_ref(), b.as_ref(), &mut c.as_mut());
        let mut c_ref = Matrix::<f32>::zeros(20, 25);
        reference::gemm_tn(2.0f32, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "gemm_tn")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f64>::zeros(3, 2);
        let b = Matrix::<f64>::zeros(4, 2);
        let mut c = Matrix::<f64>::zeros(2, 2);
        gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut());
    }

    #[test]
    fn zero_sized_edges() {
        let a = Matrix::<f64>::zeros(0, 4);
        let b = Matrix::<f64>::zeros(0, 5);
        let mut c = Matrix::from_fn(4, 5, |_, _| 1.0);
        gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut());
        assert!(c.as_slice().iter().all(|&x| x == 1.0));
    }
}
