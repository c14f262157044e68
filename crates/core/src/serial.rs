//! Algorithm 1 — the serial AtA recursion.
//!
//! `C_low += alpha * A^T A` for `A: m x n`, touching only the lower
//! triangle of `C`:
//!
//! ```text
//! C11 += A11^T A11 + A21^T A21     (two recursive AtA calls)
//! C22 += A12^T A12 + A22^T A22     (two recursive AtA calls)
//! C21 += A12^T A11 + A22^T A21     (two FastStrassen calls)
//! C12  = C21^T                     (never computed — symmetry)
//! ```
//!
//! The base case (`m * n` fits the cache budget) calls the packed
//! `syrk_ln` kernel, exactly as the paper calls BLAS `?syrk`. The
//! quadrant split rounds *up* (`m1 = ⌈m/2⌉`, `n1 = ⌈n/2⌉`), so `C21` is
//! always a full rectangle lying entirely inside the lower triangle.
//!
//! All Strassen calls share one [`StrassenWorkspace`] (§3.3): the serial
//! recursion never runs two products concurrently, so a single arena
//! sized for the top-level product serves every level.

use ata_kernels::{syrk_ln, CacheConfig};
use ata_mat::{half_up, MatMut, MatRef, Scalar};
use ata_strassen::{fast_strassen_with, winograd_strassen_with, StrassenWorkspace};

/// Which 7-multiplication scheme the `C21` products use.
///
/// Both compute the same field values; they differ in block-addition
/// count and workspace (see `ata-strassen::winograd`), and — in floating
/// point — in their error constants (see [`crate::accuracy`] and the
/// `accuracy` bench bin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrassenKind {
    /// The paper's FastStrassen: 18 textbook block additions per level
    /// (22 add-volumes in accumulate form), minimal workspace.
    #[default]
    Classic,
    /// Strassen–Winograd: 15 block additions per level (19 in accumulate
    /// form, the Probert minimum), ~2x workspace, slightly larger error
    /// constant.
    Winograd,
}

impl StrassenKind {
    /// Exact workspace requirement (elements) of one `C += alpha A^T B`
    /// product under this scheme.
    pub fn gemm_workspace_elems(self, m: usize, n: usize, k: usize, cfg: &CacheConfig) -> usize {
        match self {
            StrassenKind::Classic => ata_strassen::required_elems(m, n, k, cfg),
            StrassenKind::Winograd => ata_strassen::required_elems_winograd(m, n, k, cfg),
        }
    }

    /// Dispatch `C += alpha A^T B` to the selected scheme.
    #[inline]
    pub fn gemm_into<T: Scalar>(
        self,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: &mut MatMut<'_, T>,
        cfg: &CacheConfig,
        ws: &mut StrassenWorkspace<T>,
    ) {
        match self {
            StrassenKind::Classic => fast_strassen_with(alpha, a, b, c, cfg, ws),
            StrassenKind::Winograd => winograd_strassen_with(alpha, a, b, c, cfg, ws),
        }
    }
}

/// `C_low += alpha * A^T A` (Algorithm 1) with caller-provided workspace
/// and an explicit product scheme for the `C21` off-diagonal products.
///
/// Shapes: `A: m x n`, `C: n x n`; entries with `i < j` are never read or
/// written.
///
/// # Panics
/// On inconsistent shapes.
pub fn ata_into_with_kind<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &CacheConfig,
    kind: StrassenKind,
    ws: &mut StrassenWorkspace<T>,
) {
    let (m, n) = a.shape();
    assert_eq!(
        c.shape(),
        (n, n),
        "ata: C must be {n}x{n}, got {:?}",
        c.shape()
    );
    if m == 0 || n == 0 {
        return;
    }
    rec(alpha, a, c, cfg, kind, ws);
}

/// `C_low += alpha * A^T A` allocating the Strassen workspace internally.
///
/// # Panics
/// On inconsistent shapes.
pub fn ata_into<T: Scalar>(alpha: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>, cfg: &CacheConfig) {
    let mut ws = StrassenWorkspace::empty();
    ata_into_with_kind(alpha, a, c, cfg, StrassenKind::Classic, &mut ws);
}

/// Exact Strassen-workspace requirement (elements) of the whole serial
/// AtA recursion on an `m x n` input.
///
/// The recursion shares a single arena across all its `C21` products, so
/// the requirement is the *maximum* over the six children of each level
/// — an arena of this size makes [`ata_into_with_kind`] allocation-free.
/// Plan construction (the `ata` facade's `AtaPlan`) uses this to warm
/// the context's arena cache before the first execution.
pub fn ata_workspace_elems(m: usize, n: usize, cfg: &CacheConfig, kind: StrassenKind) -> usize {
    if m == 0 || n == 0 || cfg.ata_base(m, n) {
        return 0;
    }
    let (m1, n1) = (half_up(m), half_up(n));
    let (m2, n2) = (m - m1, n - n1);
    // Mirror rec(): four AtA quadrant recursions and the two C21
    // products A12^T A11 (m1 x n2 by m1 x n1) and A22^T A21.
    [
        ata_workspace_elems(m1, n1, cfg, kind),
        ata_workspace_elems(m2, n1, cfg, kind),
        ata_workspace_elems(m1, n2, cfg, kind),
        ata_workspace_elems(m2, n2, cfg, kind),
        kind.gemm_workspace_elems(m1, n2, n1, cfg),
        kind.gemm_workspace_elems(m2, n2, n1, cfg),
    ]
    .into_iter()
    .max()
    .unwrap_or(0)
}

/// Tallest row-chunk height that still hits the `syrk` base case for an
/// `n`-column input under `cfg` — the thin/tall threshold of streaming
/// Gram accumulation.
///
/// A chunk of at most this many rows satisfies `cfg.ata_base(rows, n)`,
/// so `C += Aᵢᵀ Aᵢ` runs as one direct β = 1 `syrk_ln` rank update with
/// no recursion and no Strassen workspace; taller chunks are worth the
/// full AtA recursion. Always at least 1 (a single row is a rank-1
/// update no matter how wide), and saturates to `usize::MAX` for `n = 0`.
pub fn chunk_rows_for_budget(n: usize, cfg: &CacheConfig) -> usize {
    if n == 0 {
        return usize::MAX;
    }
    (cfg.words / n).max(1)
}

fn rec<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &CacheConfig,
    kind: StrassenKind,
    ws: &mut StrassenWorkspace<T>,
) {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return;
    }
    if cfg.ata_base(m, n) {
        syrk_ln(alpha, a, c);
        return;
    }

    let n1 = half_up(n);
    let (a11, a12, a21, a22) = a.quad_split();

    // C11 (lines 7-8): both column-left recursions accumulate into the
    // same diagonal block.
    {
        let mut c11 = c.block_mut(0, n1, 0, n1);
        rec(alpha, a11, &mut c11, cfg, kind, ws);
    }
    {
        let mut c11 = c.block_mut(0, n1, 0, n1);
        rec(alpha, a21, &mut c11, cfg, kind, ws);
    }
    // C22 (lines 9-10).
    {
        let mut c22 = c.block_mut(n1, n, n1, n);
        rec(alpha, a12, &mut c22, cfg, kind, ws);
    }
    {
        let mut c22 = c.block_mut(n1, n, n1, n);
        rec(alpha, a22, &mut c22, cfg, kind, ws);
    }
    // C21 (lines 11-12): C21 += alpha * (A12^T A11 + A22^T A21).
    {
        let mut c21 = c.block_mut(n1, n, 0, n1);
        kind.gemm_into(alpha, a12, a11, &mut c21, cfg, ws);
    }
    {
        let mut c21 = c.block_mut(n1, n, 0, n1);
        kind.gemm_into(alpha, a22, a21, &mut c21, cfg, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference, Matrix};

    fn check(m: usize, n: usize, alpha: f64, words: usize) {
        let a = gen::standard::<f64>(m as u64 * 131 + n as u64, m, n);
        let mut c_fast = gen::standard::<f64>(7, n, n);
        let mut c_ref = c_fast.clone();
        let cfg = CacheConfig::with_words(words);
        ata_into(alpha, a.as_ref(), &mut c_fast.as_mut(), &cfg);
        reference::syrk_ln(alpha, a.as_ref(), &mut c_ref.as_mut());
        let tol = ata_mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
        let diff = c_fast.max_abs_diff_lower(&c_ref);
        assert!(
            diff <= tol,
            "({m},{n}) AtA differs from syrk oracle by {diff} > {tol}"
        );
        // Entire matrix must agree too: strictly-upper entries were common
        // garbage in both and must be untouched by both.
        assert_eq!(
            c_fast.max_abs_diff(&c_ref),
            diff,
            "({m},{n}) strict upper touched"
        );
    }

    #[test]
    fn square_power_of_two() {
        for n in [2usize, 4, 8, 16, 32] {
            check(n, n, 1.0, 4);
        }
    }

    #[test]
    fn odd_and_prime_sizes() {
        for &(m, n) in &[
            (3, 3),
            (5, 5),
            (7, 7),
            (9, 11),
            (13, 10),
            (17, 23),
            (31, 29),
        ] {
            check(m, n, 1.0, 4);
        }
    }

    #[test]
    fn tall_and_wide() {
        for &(m, n) in &[(64, 8), (8, 64), (100, 13), (13, 100), (1, 16), (16, 1)] {
            check(m, n, 1.0, 16);
        }
    }

    #[test]
    fn alpha_scaling_and_accumulation() {
        check(12, 12, -2.0, 8);
        check(10, 14, 0.5, 8);
    }

    #[test]
    fn larger_base_case_changes_nothing_numerically() {
        // Same product, different recursion cut-offs: results must agree
        // within the Strassen error bound.
        let (m, n) = (48, 40);
        let a = gen::standard::<f64>(77, m, n);
        let mut shallow = Matrix::zeros(n, n);
        let mut deep = Matrix::zeros(n, n);
        ata_into(
            1.0,
            a.as_ref(),
            &mut shallow.as_mut(),
            &CacheConfig::with_words(4096),
        );
        ata_into(
            1.0,
            a.as_ref(),
            &mut deep.as_mut(),
            &CacheConfig::with_words(4),
        );
        assert!(shallow.max_abs_diff_lower(&deep) < 1e-10);
    }

    #[test]
    fn exact_on_ternary_inputs() {
        let a = gen::ternary::<f64>(3, 20, 24);
        let mut c = Matrix::zeros(24, 24);
        ata_into(
            1.0,
            a.as_ref(),
            &mut c.as_mut(),
            &CacheConfig::with_words(8),
        );
        let mut c_ref = Matrix::zeros(24, 24);
        reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
        assert_eq!(c.max_abs_diff_lower(&c_ref), 0.0);
    }

    #[test]
    fn workspace_shared_across_whole_recursion() {
        let cfg = CacheConfig::with_words(8);
        let mut ws = StrassenWorkspace::<f64>::empty();
        let a = gen::standard::<f64>(5, 32, 32);
        let mut c = Matrix::zeros(32, 32);
        let kind = StrassenKind::Classic;
        ata_into_with_kind(1.0, a.as_ref(), &mut c.as_mut(), &cfg, kind, &mut ws);
        let cap_after_first = ws.capacity();
        // Second run must not need any further growth.
        let mut c2 = Matrix::zeros(32, 32);
        ata_into_with_kind(1.0, a.as_ref(), &mut c2.as_mut(), &cfg, kind, &mut ws);
        assert_eq!(ws.capacity(), cap_after_first);
        assert_eq!(c.max_abs_diff(&c2), 0.0);
    }

    #[test]
    fn workspace_elems_presizes_exactly() {
        // An arena warmed to ata_workspace_elems covers the whole
        // recursion: no mid-execution regrowth (the plan path relies on
        // this to stay allocation-free after warm-up).
        for kind in [StrassenKind::Classic, StrassenKind::Winograd] {
            for &(m, n, words) in &[(32usize, 32usize, 8usize), (37, 29, 16), (64, 48, 4)] {
                let cfg = CacheConfig::with_words(words);
                let need = ata_workspace_elems(m, n, &cfg, kind);
                let a = gen::standard::<f64>(1, m, n);
                let mut c = Matrix::zeros(n, n);
                let mut ws = StrassenWorkspace::<f64>::with_capacity(need);
                ata_into_with_kind(1.0, a.as_ref(), &mut c.as_mut(), &cfg, kind, &mut ws);
                assert_eq!(
                    ws.capacity(),
                    need,
                    "({m},{n},{words},{kind:?}): presized arena regrew"
                );
            }
        }
    }

    #[test]
    fn chunk_threshold_matches_base_case_predicate() {
        for words in [4usize, 64, 1024, 131_072] {
            let cfg = CacheConfig::with_words(words);
            for n in [1usize, 7, 32, 100] {
                let rows = chunk_rows_for_budget(n, &cfg);
                assert!(rows >= 1);
                if rows < usize::MAX && rows * n <= words {
                    assert!(cfg.ata_base(rows, n), "({words},{n}): {rows} not base");
                }
                if rows.saturating_mul(n) > words {
                    // Only possible through the >= 1 floor.
                    assert_eq!(rows, 1, "({words},{n})");
                }
                // One more row must overflow the budget (or be the floor).
                if rows < usize::MAX && rows > 1 {
                    assert!(!cfg.ata_base(rows + 1, n), "({words},{n}) not maximal");
                }
            }
        }
        assert_eq!(
            chunk_rows_for_budget(0, &CacheConfig::with_words(16)),
            usize::MAX
        );
    }

    #[test]
    fn workspace_requirement_is_monotone_in_rows() {
        // Streaming accumulators warm one arena for their tallest chunk
        // and reuse it for every shorter one; that is sound because the
        // requirement never shrinks as rows grow.
        for kind in [StrassenKind::Classic, StrassenKind::Winograd] {
            for words in [4usize, 16, 64] {
                let cfg = CacheConfig::with_words(words);
                for n in [5usize, 16, 33] {
                    let mut prev = 0usize;
                    for m in 1..=64usize {
                        let need = ata_workspace_elems(m, n, &cfg, kind);
                        assert!(need >= prev, "({m},{n},{words},{kind:?}): {need} < {prev}");
                        prev = need;
                    }
                }
            }
        }
    }

    #[test]
    fn empty_matrix_is_noop() {
        let a = Matrix::<f64>::zeros(0, 4);
        let mut c = Matrix::from_fn(4, 4, |_, _| 3.0);
        ata_into(1.0, a.as_ref(), &mut c.as_mut(), &CacheConfig::default());
        assert!(c.as_slice().iter().all(|&x| x == 3.0));
    }

    #[test]
    #[should_panic(expected = "ata: C must be")]
    fn shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(4, 4);
        let mut c = Matrix::<f64>::zeros(3, 3);
        ata_into(1.0, a.as_ref(), &mut c.as_mut(), &CacheConfig::default());
    }
}
