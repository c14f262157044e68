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
//! That level is written once, as the six calls of `LEVEL`, and read
//! by three interpreters: the run ([`ata_into_with_kind`], and
//! [`ata_run`] on any [`Machine`], which is how `ata-cachesim` walks it),
//! the workspace size ([`ata_workspace_elems`]) and the multiplication
//! count ([`crate::analysis::ata_mults`]). The `C21` products run a level
//! program of `ata-strassen`: the chosen [`StrassenKind`]'s, or Algorithm
//! 2's for [`crate::ata_naive`].
//!
//! The base case ([`Gate::ata_base`]; for the library,
//! [`CacheConfig::ata_base`]: no `C21` product would run a Strassen
//! level) calls the `syrk` leaf, exactly as the paper calls BLAS
//! `?syrk`. The quadrant split rounds *up* (`m1 = ⌈m/2⌉`, `n1 = ⌈n/2⌉`),
//! so `C21` is always a full rectangle lying entirely inside the lower
//! triangle.
//!
//! All Strassen calls share one [`StrassenWorkspace`] (§3.3): the serial
//! recursion never runs two products concurrently, so a single arena
//! sized for the largest product serves every level.

use ata_kernels::CacheConfig;
use ata_mat::{half_up, MatMut, MatRef, Scalar};
use ata_strassen::{
    fast_strassen_with, winograd_strassen_with, Dense, Gate, Machine, Program, StrassenWorkspace,
    CLASSIC, WINOGRAD,
};

/// Which 7-multiplication scheme the `C21` products use.
///
/// Both compute the same field values; they differ in block-addition
/// count and workspace (see `ata_strassen::WINOGRAD`), and — in floating
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
    /// The level program this scheme runs.
    pub(crate) fn program(self) -> &'static Program {
        match self {
            StrassenKind::Classic => &CLASSIC,
            StrassenKind::Winograd => &WINOGRAD,
        }
    }

    /// Exact workspace requirement (elements) of one `C += alpha A^T B`
    /// product under this scheme.
    pub fn gemm_workspace_elems(self, m: usize, n: usize, k: usize, cfg: &CacheConfig) -> usize {
        self.program().workspace_elems(m, n, k, cfg)
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

/// One call of Algorithm 1's level, on quadrants `[X11, X12, X21, X22]`.
#[derive(Debug, Clone, Copy)]
enum Call {
    /// AtA of an `A` quadrant into the diagonal block `C11` (0) or `C22`
    /// (1).
    Ata(usize, usize),
    /// `C21 += A_x^T A_y` through the level's product program.
    Gemm(usize, usize),
}

/// Algorithm 1, lines 7–12, in execution order.
const LEVEL: [Call; 6] = [
    Call::Ata(0, 0),  // C11 += A11^T A11
    Call::Ata(2, 0),  // C11 += A21^T A21
    Call::Ata(1, 1),  // C22 += A12^T A12
    Call::Ata(3, 1),  // C22 += A22^T A22
    Call::Gemm(1, 0), // C21 += A12^T A11
    Call::Gemm(3, 2), // C21 += A22^T A21
];

/// The shape of quadrant `q` of an `m x n` block.
fn quad_shape(m: usize, n: usize, q: usize) -> (usize, usize) {
    let (m1, n1) = (half_up(m), half_up(n));
    (
        if q < 2 { m1 } else { m - m1 },
        if q.is_multiple_of(2) { n1 } else { n - n1 },
    )
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
    let arena = ws.reserve(ata_workspace_elems(m, n, cfg, kind));
    run(kind.program(), &mut Dense, cfg, alpha, a, c, arena);
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
/// AtA recursion on an `m x n` input under `gate`.
///
/// The recursion shares a single arena across all its `C21` products, so
/// the requirement is the *maximum* over the six calls of each level —
/// an arena of this size makes [`ata_into_with_kind`] allocation-free.
pub fn ata_workspace_elems<G: Gate>(m: usize, n: usize, gate: &G, kind: StrassenKind) -> usize {
    workspace_elems(kind.program(), m, n, gate)
}

/// `C_low += alpha * A^T A` through Algorithm 1 on `mach`, stopping at
/// `gate`, with the `C21` products carving `ws` — which must hold
/// [`ata_workspace_elems`] elements. With the library's [`Dense`]
/// machine and [`CacheConfig`] this is [`ata_into_with_kind`].
///
/// # Panics
/// On inconsistent shapes or an undersized `ws`.
#[allow(clippy::too_many_arguments)]
pub fn ata_run<T: Scalar, M: Machine<T>, G: Gate>(
    mach: &mut M,
    gate: &G,
    kind: StrassenKind,
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    ws: &mut [T],
) {
    let n = a.cols();
    assert_eq!(
        c.shape(),
        (n, n),
        "ata: C must be {n}x{n}, got {:?}",
        c.shape()
    );
    run(kind.program(), mach, gate, alpha, a, c, ws);
}

/// The run interpreter of [`LEVEL`], with `prog` for the `C21` products.
pub(crate) fn run<T: Scalar, M: Machine<T>, G: Gate>(
    prog: &Program,
    mach: &mut M,
    gate: &G,
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    ws: &mut [T],
) {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return;
    }
    if gate.ata_base(m, n) {
        mach.syrk_leaf(alpha, a, c);
        return;
    }
    let n1 = half_up(n);
    let (a11, a12, a21, a22) = a.quad_split();
    let aq = [a11, a12, a21, a22];
    for call in LEVEL {
        match call {
            Call::Ata(x, 0) => run(
                prog,
                mach,
                gate,
                alpha,
                aq[x],
                &mut c.block_mut(0, n1, 0, n1),
                ws,
            ),
            Call::Ata(x, _) => run(
                prog,
                mach,
                gate,
                alpha,
                aq[x],
                &mut c.block_mut(n1, n, n1, n),
                ws,
            ),
            Call::Gemm(x, y) => {
                prog.run(
                    mach,
                    gate,
                    alpha,
                    aq[x],
                    aq[y],
                    &mut c.block_mut(n1, n, 0, n1),
                    ws,
                );
            }
        }
    }
}

/// The size interpreter of [`LEVEL`]: the largest arena any call needs.
pub(crate) fn workspace_elems<G: Gate>(prog: &Program, m: usize, n: usize, gate: &G) -> usize {
    if m == 0 || n == 0 || gate.ata_base(m, n) {
        return 0;
    }
    let call = |call| match call {
        Call::Ata(x, _) => {
            let (mx, nx) = quad_shape(m, n, x);
            workspace_elems(prog, mx, nx, gate)
        }
        Call::Gemm(x, y) => {
            let ((mx, nx), (_, ny)) = (quad_shape(m, n, x), quad_shape(m, n, y));
            prog.workspace_elems(mx, nx, ny, gate)
        }
    };
    LEVEL.into_iter().map(call).max().unwrap_or(0)
}

/// The count interpreter of [`LEVEL`]: `m n (n+1) / 2` at a `syrk`
/// leaf, else the sum over the six calls.
pub(crate) fn mults<G: Gate>(prog: &Program, m: usize, n: usize, gate: &G) -> u64 {
    if m == 0 || n == 0 {
        return 0;
    }
    if gate.ata_base(m, n) {
        return (m as u64) * (n as u64) * (n as u64 + 1) / 2;
    }
    let call = |call| match call {
        Call::Ata(x, _) => {
            let (mx, nx) = quad_shape(m, n, x);
            mults(prog, mx, nx, gate)
        }
        Call::Gemm(x, y) => {
            let ((mx, nx), (_, ny)) = (quad_shape(m, n, x), quad_shape(m, n, y));
            prog.mults(mx, nx, ny, gate)
        }
    };
    LEVEL.into_iter().map(call).sum()
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
        // Every product program runs in exactly its sized arena (a slice
        // cannot grow: an undersized one would panic mid-carve), at
        // budgets forcing the C21 product to depth 1-3 on odd shapes.
        for prog in [&CLASSIC, &WINOGRAD, &ata_strassen::RECURSIVE_GEMM] {
            for &(m, n) in &[(67usize, 45usize), (37, 29), (130, 97)] {
                for depth in 1..=3u32 {
                    let mut leaf = m.div_ceil(2).min(n / 2);
                    for _ in 0..depth {
                        leaf = leaf.div_ceil(2);
                    }
                    let cfg = CacheConfig::with_words(2 * leaf * leaf);
                    let need = workspace_elems(prog, m, n, &cfg);
                    let a = gen::standard::<f64>(2, m, n);
                    let mut c = Matrix::zeros(n, n);
                    let mut ws = vec![0.0; need];
                    run(
                        prog,
                        &mut Dense,
                        &cfg,
                        1.0,
                        a.as_ref(),
                        &mut c.as_mut(),
                        &mut ws,
                    );
                    let mut want = Matrix::zeros(n, n);
                    reference::syrk_ln(1.0, a.as_ref(), &mut want.as_mut());
                    assert!(
                        c.max_abs_diff_lower(&want) < 1e-10,
                        "({m},{n}) depth {depth}"
                    );
                }
            }
        }
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
