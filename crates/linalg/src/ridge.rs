//! Ridge (Tikhonov-regularized) regression on top of AtA.
//!
//! `min_x ||A x - b||² + lambda ||x||²` solves
//! `(A^T A + lambda I) x = A^T b`. The expensive part — the Gram matrix
//! — is *independent of `lambda`*, so the idiomatic workflow computes it
//! once with AtA (e.g. `ctx.lower(a)` through the `ata` facade) and then
//! factors `G + lambda I` per regularization value; that is exactly what
//! [`RidgeSolver`] packages. This is the workload where the paper's
//! `A^T A` speedup multiplies: a lambda sweep (cross-validation) reuses
//! one AtA call across dozens of factorizations.

use crate::cholesky::{cholesky_factor, cholesky_solve, CholeskyError};
use crate::update::{ShiftedSolver, UpdateError};
use ata_kernels::gemm_tn;
use ata_mat::{MatRef, Matrix, Scalar};

/// Below this many lambdas (or features) the per-lambda refactor loop
/// is cheaper than building the shared tridiagonal base, so
/// [`RidgeSolver::solve_path`] falls back to it. The base costs
/// `~2n³` once vs `n³/3` per refactor, so reuse pays off from roughly
/// six lambdas; 4 plus the small-n guard keeps the crossover safely on
/// the winning side without a runtime calibration.
const PATH_REUSE_MIN_LAMBDAS: usize = 4;
const PATH_REUSE_MIN_FEATURES: usize = 16;

/// Map a shifted-solve failure onto this module's error type: an
/// indefinite shifted system is exactly a failed Cholesky pivot.
fn shift_err(e: UpdateError) -> CholeskyError {
    match e {
        UpdateError::Indefinite { column } => CholeskyError::NotPositiveDefinite { column },
        UpdateError::ShapeMismatch { expected, got } => {
            CholeskyError::ShapeMismatch { expected, got }
        }
    }
}

/// Precomputed normal-equation data for a fixed design matrix `A`:
/// the Gram matrix `G = A^T A` (lower triangle) and `A^T b`.
#[derive(Debug, Clone)]
pub struct RidgeSolver<T: Scalar> {
    gram_lower: Matrix<T>,
    atb: Vec<T>,
}

impl<T: Scalar> RidgeSolver<T> {
    /// Keep the Gram matrix `gram = A^T A` (only its lower triangle is
    /// read) and precompute `A^T b`.
    ///
    /// # Panics
    /// If `b.len() != m`, `m < n` or `gram` is not `n x n`.
    pub fn new(a: MatRef<'_, T>, b: &[T], gram: Matrix<T>) -> Self {
        let (m, n) = a.shape();
        assert!(
            m >= n,
            "ridge regression needs a tall (overdetermined) system"
        );
        assert_eq!(b.len(), m, "rhs length must equal A's row count");
        assert_eq!(gram.shape(), (n, n), "gram must be {n}x{n}");
        let b_mat = Matrix::from_vec(b.to_vec(), m, 1);
        let mut rhs = Matrix::<T>::zeros(n, 1);
        gemm_tn(T::ONE, a, b_mat.as_ref(), &mut rhs.as_mut());
        let atb = (0..n).map(|i| rhs[(i, 0)]).collect();
        Self {
            gram_lower: gram,
            atb,
        }
    }

    /// Number of features (columns of `A`).
    fn features(&self) -> usize {
        self.gram_lower.rows()
    }

    /// Solve for one regularization strength `lambda >= 0`.
    ///
    /// # Errors
    /// [`CholeskyError::NotPositiveDefinite`] if `G + lambda I` is not
    /// positive definite (only possible at `lambda = 0` with a
    /// rank-deficient `A`).
    ///
    /// # Panics
    /// If `lambda < 0`.
    pub fn solve(&self, lambda: T) -> Result<Vec<T>, CholeskyError> {
        assert!(lambda >= T::ZERO, "lambda must be non-negative");
        let n = self.features();
        let mut g = self.gram_lower.clone();
        for i in 0..n {
            g[(i, i)] += lambda;
        }
        cholesky_factor(&mut g)?;
        cholesky_solve(&g, &self.atb)
    }

    /// Solve for a whole lambda sweep (ascending or not): one Gram
    /// matrix, **one** base factorization. For paths worth the setup
    /// (`>= 4` lambdas, `>= 16` features) the Gram matrix is
    /// tridiagonalized once (`ShiftedSolver`, `O(n³)`) and every
    /// shifted system `(G + λI)x = Aᵀb` then solves in `O(n²)` —
    /// instead of the `O(n³)` per-lambda refactor the fallback loop
    /// (and every release before the streaming tier) performs. The
    /// speedup is pinned by an op-count test.
    ///
    /// # Errors
    /// First factorization error, if any.
    ///
    /// # Panics
    /// If any `lambda < 0`.
    pub fn solve_path(&self, lambdas: &[T]) -> Result<Vec<Vec<T>>, CholeskyError> {
        if lambdas.len() < PATH_REUSE_MIN_LAMBDAS || self.features() < PATH_REUSE_MIN_FEATURES {
            return lambdas.iter().map(|&l| self.solve(l)).collect();
        }
        let base = ShiftedSolver::new(self.gram_lower.as_ref());
        lambdas
            .iter()
            .map(|&l| {
                assert!(l >= T::ZERO, "lambda must be non-negative");
                base.solve_shifted(l, &self.atb).map_err(shift_err)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_gram;
    use crate::lstsq::{residual_norm, solve_normal_equations};
    use ata_mat::gen;

    fn setup(m: usize, n: usize, seed: u64) -> (Matrix<f64>, Vec<f64>) {
        let a = gen::tall_well_conditioned::<f64>(seed, m, n);
        let b: Vec<f64> = (0..m).map(|i| ((i as f64) * 0.3).sin() * 2.0).collect();
        (a, b)
    }

    fn solver(a: &Matrix<f64>, b: &[f64]) -> RidgeSolver<f64> {
        RidgeSolver::new(a.as_ref(), b, lower_gram(a.as_ref()))
    }

    #[test]
    fn lambda_zero_equals_ordinary_least_squares() {
        let (a, b) = setup(50, 10, 1);
        let ridge = solver(&a, &b).solve(0.0).expect("full rank");
        let ols = solve_normal_equations(a.as_ref(), &b, lower_gram(a.as_ref())).expect("rank");
        for (r, o) in ridge.iter().zip(&ols) {
            assert!((r - o).abs() < 1e-10);
        }
    }

    #[test]
    fn shrinkage_is_monotone_in_lambda() {
        // ||x(lambda)||_2 decreases as lambda grows — the defining
        // behaviour of ridge.
        let (a, b) = setup(60, 12, 2);
        let lambdas = [0.0, 0.1, 1.0, 10.0, 100.0];
        let path = solver(&a, &b).solve_path(&lambdas).expect("spd");
        let norms: Vec<f64> = path
            .iter()
            .map(|x| x.iter().map(|v| v * v).sum::<f64>().sqrt())
            .collect();
        for w in norms.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "norm grew along the path: {norms:?}");
        }
        // And residuals increase (bias/variance trade).
        let res: Vec<f64> = path
            .iter()
            .map(|x| residual_norm(a.as_ref(), x, &b))
            .collect();
        for w in res.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "residual shrank along the path: {res:?}"
            );
        }
    }

    #[test]
    fn solve_path_agrees_with_per_lambda_solves() {
        // Above the reuse thresholds the path goes through the shared
        // tridiagonal base — it must match the direct refactor route.
        let (a, b) = setup(90, 20, 7);
        let solver = solver(&a, &b);
        let lambdas: Vec<f64> = (0..8).map(|i| 0.05 * (i as f64 + 1.0)).collect();
        let path = solver.solve_path(&lambdas).expect("spd");
        for (x, &l) in path.iter().zip(&lambdas) {
            let direct = solver.solve(l).expect("spd");
            for (u, v) in x.iter().zip(&direct) {
                assert!((u - v).abs() < 1e-8, "lambda={l}");
            }
        }
    }

    #[test]
    fn solve_path_reuses_one_base_factorization() {
        use ata_mat::tracked::{measure, Tracked};
        // Pin the satellite win: a lambda path shares one base
        // factorization, so (a) the whole path costs fewer counted
        // flops than per-lambda refactoring, and (b) each *additional*
        // lambda costs O(n²), far below an O(n³/3) refactor.
        let n = 48usize;
        let m = 96usize;
        let a = gen::tall_well_conditioned::<Tracked>(8, m, n);
        let b: Vec<Tracked> = (0..m)
            .map(|i| Tracked::from_f64(((i as f64) * 0.3).sin() * 2.0))
            .collect();
        let solver = RidgeSolver::new(a.as_ref(), &b, lower_gram(a.as_ref()));
        let lam = |i: usize| Tracked::from_f64(0.01 * (i as f64 + 1.0));
        let l16: Vec<Tracked> = (0..16).map(lam).collect();
        let l8: Vec<Tracked> = (0..8).map(lam).collect();

        let (path, path_ops) = measure(|| solver.solve_path(&l16));
        let path = path.expect("spd");
        let (looped, loop_ops) = measure(|| {
            l16.iter()
                .map(|&l| solver.solve(l))
                .collect::<Result<Vec<_>, _>>()
        });
        let looped = looped.expect("spd");
        for (x1, x2) in path.iter().zip(&looped) {
            for (u, v) in x1.iter().zip(x2) {
                assert!((u.0 - v.0).abs() < 1e-8);
            }
        }
        assert!(
            path_ops.total() < loop_ops.total(),
            "shared base must beat per-lambda refactors: {} vs {}",
            path_ops.total(),
            loop_ops.total()
        );
        let (_, ops8) = measure(|| solver.solve_path(&l8).expect("spd"));
        let marginal = (path_ops.total() - ops8.total()) / 8;
        assert!(
            marginal <= (6 * n * n) as u64,
            "marginal lambda must cost O(n²), got {marginal} flops (n²={})",
            n * n
        );
    }

    #[test]
    fn normal_equation_identity_holds() {
        // (A^T A + lambda I) x == A^T b at the returned solution.
        let (a, b) = setup(40, 8, 3);
        let lambda = 0.75;
        let x = solver(&a, &b).solve(lambda).expect("spd");
        let n = 8;
        // Build full G and A^T b naively.
        let mut g = vec![vec![0.0f64; n]; n];
        let mut atb = vec![0.0f64; n];
        for i in 0..40 {
            for j in 0..n {
                atb[j] += a[(i, j)] * b[i];
                for k in 0..n {
                    g[j][k] += a[(i, j)] * a[(i, k)];
                }
            }
        }
        for j in 0..n {
            let mut lhs = lambda * x[j];
            for k in 0..n {
                lhs += g[j][k] * x[k];
            }
            assert!((lhs - atb[j]).abs() < 1e-9, "row {j}: {lhs} != {}", atb[j]);
        }
    }

    #[test]
    fn regularization_rescues_rank_deficiency() {
        // Duplicate a column: the Gram matrix is exactly singular. In
        // floating point the unregularized factorization either errors
        // or returns a wildly unstable solution; with lambda > 0 the
        // system is SPD and the two tied columns must receive identical
        // coefficients (symmetry of the regularized minimum).
        let (mut a, b) = setup(30, 6, 4);
        for i in 0..30 {
            a[(i, 5)] = a[(i, 4)];
        }
        let solver = solver(&a, &b);
        let x = solver.solve(1e-6).expect("regularized solve must succeed");
        assert!((x[4] - x[5]).abs() < 1e-6, "tied columns split: {x:?}");
        // The regularized solution still fits well.
        assert!(residual_norm(a.as_ref(), &x, &b) < residual_norm(a.as_ref(), &[0.0; 6], &b));
        // Stronger lambda shrinks the tied pair together, staying tied.
        let x2 = solver.solve(10.0).expect("spd");
        assert!((x2[4] - x2[5]).abs() < 1e-9);
        assert!(x2[4].abs() < x[4].abs() + 1e-12);
    }

    #[test]
    fn parallel_and_winograd_options_agree() {
        use ata_core::{ata_into_with_kind, ata_s, StrassenKind};
        use ata_kernels::CacheConfig;
        use ata_strassen::StrassenWorkspace;
        let (a, b) = setup(64, 16, 5);
        let cfg = CacheConfig::with_words(64);
        let base = solver(&a, &b);
        let mut g_par = Matrix::zeros(16, 16);
        ata_s(1.0, a.as_ref(), &mut g_par.as_mut(), 4, &cfg);
        let par = RidgeSolver::new(a.as_ref(), &b, g_par);
        let mut g_win = Matrix::zeros(16, 16);
        let (kind, mut ws) = (StrassenKind::Winograd, StrassenWorkspace::empty());
        ata_into_with_kind(1.0, a.as_ref(), &mut g_win.as_mut(), &cfg, kind, &mut ws);
        let win = RidgeSolver::new(a.as_ref(), &b, g_win);
        let xb = base.solve(0.5).expect("spd");
        let xp = par.solve(0.5).expect("spd");
        let xw = win.solve(0.5).expect("spd");
        for ((u, v), w) in xb.iter().zip(&xp).zip(&xw) {
            assert!((u - v).abs() < 1e-9);
            assert!((u - w).abs() < 1e-9);
        }
        assert_eq!(base.features(), 16);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_rejected() {
        let (a, b) = setup(20, 4, 6);
        let _ = solver(&a, &b).solve(-1.0);
    }

    #[test]
    #[should_panic(expected = "gram must be 4x4")]
    fn gram_of_wrong_order_rejected() {
        let (a, b) = setup(20, 4, 6);
        let _ = RidgeSolver::new(a.as_ref(), &b, lower_gram(a.as_ref().block(0, 20, 0, 3)));
    }
}
