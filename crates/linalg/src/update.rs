//! Streaming factorization kernels: rank-k updates and downdates of a
//! factored Gram matrix in `O(n²k)`, instead of an `O(n³)` refactor.
//!
//! `GramAccumulator` maintains `C = AᵀA` incrementally; this module
//! maintains a *factorization* of `C` under the same stream operations:
//!
//! * [`LdltFactor`] — a square-root-free `C = L D Lᵀ` factor that
//!   supports signed rank-k sweeps ([`LdltFactor::rank_update`], one
//!   Givens-free column sweep per streamed row, 4 flops per updated
//!   entry — the method C1 recurrence of Gill–Golub–Murray–Saunders),
//!   `O(n)` decay, and forward/backward solves. The factor is stored
//!   as `Lᵀ` in row-major order so both the update sweep and the
//!   substitutions walk contiguous memory. This is the production
//!   representation behind the facade's `FactoredGram`.
//!   A caller holding a lower triangle of `C` (for instance the
//!   input of [`crate::cholesky::cholesky_factor`]) builds one with
//!   [`LdltFactor::from_lower`] and sweeps it from there.
//! * `ShiftedSolver` — a one-time Householder tridiagonalization
//!   `C = Q T Qᵀ` after which *any* shifted system `(C + λI)x = b`
//!   solves in `O(n²)`; this is the kernel behind
//!   [`crate::RidgeSolver::solve_path`] reusing one base factorization across a
//!   whole λ sweep.
//!
//! Downdating can fail: subtracting rows may make the implied matrix
//! indefinite. Every kernel detects the failing pivot *before* dividing
//! by it and returns the typed [`UpdateError::Indefinite`] — no NaN is
//! ever written into a factor.
//!
//! Scalar accounting: all `O(n²k)` / `O(n³)` work is performed in `T`
//! (so the op-counting `Tracked` scalar observes the asymptotics);
//! square roots and reciprocals have no `Scalar` method and go through
//! `f64` as uncounted per-column bookkeeping, mirroring the existing
//! `Tracked::abs` convention.

use ata_mat::{MatRef, Matrix, Scalar};

/// Failure modes of streaming factor maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// A pivot became zero, negative, or non-finite: the implied matrix
    /// is no longer positive definite. For a downdate this means the
    /// retracted rows were not a subset of the accumulated mass; the
    /// factor contents are unspecified (but finite) afterwards and must
    /// be refactored before further use.
    Indefinite {
        /// Column at which the pivot failed.
        column: usize,
    },
    /// An operand's length or shape does not match the factor's order.
    ShapeMismatch {
        /// Expected dimension (the factor's order `n`).
        expected: usize,
        /// Offending dimension supplied by the caller.
        got: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Indefinite { column } => {
                write!(
                    f,
                    "factor update made the matrix indefinite (pivot at column {column})"
                )
            }
            UpdateError::ShapeMismatch { expected, got } => {
                write!(f, "operand shape mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Uncounted reciprocal bookkeeping: `Scalar` has no division, so
/// pivot reciprocals are formed in `f64` like `Tracked::abs`.
#[inline]
fn recip<T: Scalar>(x: T) -> T {
    T::from_f64(1.0 / x.to_f64())
}

/// A square-root-free `C = L D Lᵀ` factorization maintained under
/// streaming rank-k updates.
///
/// `L` is unit lower triangular and `D` diagonal with strictly positive
/// entries (positive definiteness is an invariant: every constructor
/// and update checks pivots and fails typed rather than storing a bad
/// factor). Internally the factor is stored *transposed* — row `j` of
/// the backing matrix holds column `j` of `L` — so the rank-k sweep and
/// both substitution passes stream over contiguous rows.
///
/// ```
/// use ata_linalg::update::LdltFactor;
/// use ata_mat::Matrix;
///
/// // C = AᵀA for a small tall A, then stream one more row in.
/// let a = Matrix::from_fn(5, 3, |i, j| (1 + i * 3 + j) as f64);
/// let mut c = Matrix::<f64>::zeros(3, 3);
/// for j in 0..3 {
///     for k in 0..=j {
///         for i in 0..5 {
///             c[(j, k)] += a[(i, j)] * a[(i, k)];
///         }
///     }
///     c[(j, j)] += 1.0; // ridge mass keeps the example SPD
/// }
/// let mut f = LdltFactor::from_lower(c.as_ref()).unwrap();
/// let row = Matrix::from_vec(vec![0.5, -1.0, 2.0], 1, 3);
/// f.rank_update(1.0, row.as_ref()).unwrap(); // O(n²) instead of O(n³)
/// let x = f.solve(&[1.0, 2.0, 3.0]).unwrap();
/// assert_eq!(x.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct LdltFactor<T: Scalar> {
    /// `Lᵀ` row-major: `ut[(j, i)] = L[(i, j)]` for `i > j`. The
    /// diagonal and strict lower part of `ut` are unused (zero).
    ut: Matrix<T>,
    /// The diagonal `D` (all entries `> 0`).
    d: Vec<T>,
    /// Cached reciprocals of `d` (uncounted bookkeeping).
    inv_d: Vec<T>,
    /// Column gather scratch for refactorization.
    s: Vec<T>,
    /// Row workspace for the rank-k sweep (`k · n` elements).
    wbuf: Vec<T>,
    /// Per-vector running α of the sweep recurrence.
    alphas: Vec<T>,
}

impl<T: Scalar> LdltFactor<T> {
    /// Factor the lower triangle of `g` (the strictly-upper part is
    /// never read, matching the AtA storage convention).
    ///
    /// # Errors
    /// [`UpdateError::Indefinite`] if `g` is not positive definite.
    ///
    /// # Panics
    /// If `g` is not square.
    pub fn from_lower(g: MatRef<'_, T>) -> Result<Self, UpdateError> {
        let n = g.rows();
        assert_eq!(g.cols(), n, "LDL^T needs a square matrix");
        let mut f = Self {
            ut: Matrix::zeros(n, n),
            d: vec![T::ZERO; n],
            inv_d: vec![T::ZERO; n],
            s: vec![T::ZERO; n],
            wbuf: Vec::new(),
            alphas: Vec::new(),
        };
        f.refactor_from_lower(g)?;
        Ok(f)
    }

    /// Order `n` of the factored matrix.
    pub fn order(&self) -> usize {
        self.d.len()
    }

    /// The diagonal `D` of the factorization.
    pub fn diag(&self) -> &[T] {
        &self.d
    }

    /// Re-factor from scratch in `O(n³/3)`, reusing all internal
    /// buffers (no allocation once constructed). Left-looking jki
    /// order: every inner loop is a contiguous row of the transposed
    /// factor.
    ///
    /// # Errors
    /// [`UpdateError::Indefinite`] if `g` is not positive definite; the
    /// factor must not be used afterwards until a refactor succeeds.
    ///
    /// # Panics
    /// If `g` is not square.
    pub fn refactor_from_lower(&mut self, g: MatRef<'_, T>) -> Result<(), UpdateError> {
        let n = self.order();
        assert_eq!(g.cols(), g.rows(), "LDL^T needs a square matrix");
        if g.rows() != n {
            return Err(UpdateError::ShapeMismatch {
                expected: n,
                got: g.rows(),
            });
        }
        for j in 0..n {
            // Gather column j of the lower triangle: s[i] = g[i][j].
            for i in j..n {
                self.s[i] = *g.at(i, j);
            }
            // Subtract the contributions of previous columns:
            // s[i] -= L[j][k]·d[k] · L[i][k], streaming row k of Lᵀ.
            for k in 0..j {
                let row_k = self.ut.row(k);
                let vk = row_k[j] * self.d[k];
                if vk == T::ZERO {
                    continue;
                }
                for (si, lk) in self.s[j..].iter_mut().zip(&row_k[j..]) {
                    *si -= vk * *lk;
                }
            }
            let dj = self.s[j];
            let djf = dj.to_f64();
            if djf <= 0.0 || !djf.is_finite() {
                return Err(UpdateError::Indefinite { column: j });
            }
            let inv = recip(dj);
            self.d[j] = dj;
            self.inv_d[j] = inv;
            let row_j = self.ut.row_mut(j);
            for (lj, si) in row_j[j + 1..].iter_mut().zip(&self.s[j + 1..]) {
                *lj = *si * inv;
            }
        }
        Ok(())
    }

    /// Fold `α · chunkᵀ·chunk` into the factor: one GGMS method-C1
    /// column sweep per chunk row, `O(n²)` each, `O(n²k)` total — the
    /// streaming complement of `GramAccumulator::push_scaled`. `α < 0`
    /// downdates (sliding-window retraction), `α > 0` updates; both run
    /// the same recurrence.
    ///
    /// # Errors
    /// * [`UpdateError::ShapeMismatch`] if `chunk` does not have `n`
    ///   columns (the factor is untouched).
    /// * [`UpdateError::Indefinite`] if a downdate drives a pivot
    ///   non-positive. The failing pivot is detected *before* the
    ///   division, so no NaN is ever written; the factor contents are
    ///   finite but unspecified and must be refactored.
    pub fn rank_update(&mut self, alpha: T, chunk: MatRef<'_, T>) -> Result<(), UpdateError> {
        let n = self.order();
        if chunk.cols() != n {
            return Err(UpdateError::ShapeMismatch {
                expected: n,
                got: chunk.cols(),
            });
        }
        let k = chunk.rows();
        if k == 0 || alpha == T::ZERO {
            return Ok(());
        }
        self.wbuf.clear();
        self.wbuf.resize(k * n, T::ZERO);
        for r in 0..k {
            self.wbuf[r * n..(r + 1) * n].copy_from_slice(chunk.row(r));
        }
        self.alphas.clear();
        self.alphas.resize(k, alpha);
        for j in 0..n {
            let row_j = self.ut.row_mut(j);
            for (r, a) in self.alphas.iter_mut().enumerate() {
                let w = &mut self.wbuf[r * n..(r + 1) * n];
                let p = w[j];
                if p == T::ZERO || *a == T::ZERO {
                    continue;
                }
                let ap = *a * p;
                let dp = self.d[j] + ap * p;
                let dpf = dp.to_f64();
                if dpf <= 0.0 || !dpf.is_finite() {
                    return Err(UpdateError::Indefinite { column: j });
                }
                let inv = recip(dp);
                let b = ap * inv;
                *a *= self.d[j] * inv;
                self.d[j] = dp;
                self.inv_d[j] = inv;
                // w uses the old column, the column the new w — both
                // tails are contiguous (row j of Lᵀ, row r of wbuf).
                for (lj, wi) in row_j[j + 1..].iter_mut().zip(&mut w[j + 1..]) {
                    *wi -= p * *lj;
                    *lj += b * *wi;
                }
            }
        }
        Ok(())
    }

    /// Scale the factored matrix by `beta > 0` (`C → βC`): `D → βD`,
    /// `L` unchanged — `O(n)`. This is the factor-side mirror of
    /// `GramAccumulator::decay`, and the reason LDLᵀ is the streaming
    /// representation of choice (an `L Lᵀ` factor needs `√β` and a full
    /// triangle scaling).
    ///
    /// # Panics
    /// If `beta <= 0` (a non-positive scale destroys definiteness).
    pub fn decay(&mut self, beta: T) {
        assert!(
            beta.to_f64() > 0.0,
            "decay factor must be positive to preserve definiteness"
        );
        for (dv, iv) in self.d.iter_mut().zip(self.inv_d.iter_mut()) {
            *dv *= beta;
            *iv = recip(*dv);
        }
    }

    /// Solve `C x = rhs` in place: unit forward substitution, diagonal
    /// scale, unit backward substitution — `2n²` flops and zero
    /// allocations.
    ///
    /// # Errors
    /// [`UpdateError::ShapeMismatch`] if `rhs.len() != n`.
    pub fn solve_in_place(&self, rhs: &mut [T]) -> Result<(), UpdateError> {
        let n = self.order();
        if rhs.len() != n {
            return Err(UpdateError::ShapeMismatch {
                expected: n,
                got: rhs.len(),
            });
        }
        // L y = rhs (unit diagonal), saxpy form over rows of Lᵀ.
        for j in 0..n {
            let yj = rhs[j];
            if yj == T::ZERO {
                continue;
            }
            let row_j = self.ut.row(j);
            for (yi, lj) in rhs[j + 1..].iter_mut().zip(&row_j[j + 1..]) {
                *yi -= *lj * yj;
            }
        }
        // D z = y.
        for (yi, iv) in rhs.iter_mut().zip(&self.inv_d) {
            *yi *= *iv;
        }
        // Lᵀ x = z, dot form over rows of Lᵀ.
        for i in (0..n).rev() {
            let row_i = self.ut.row(i);
            let mut s = rhs[i];
            for (lj, xv) in row_i[i + 1..].iter().zip(&rhs[i + 1..]) {
                s -= *lj * *xv;
            }
            rhs[i] = s;
        }
        Ok(())
    }

    /// Solve `C x = rhs`, allocating the result vector.
    ///
    /// # Errors
    /// [`UpdateError::ShapeMismatch`] if `rhs.len() != n`.
    pub fn solve(&self, rhs: &[T]) -> Result<Vec<T>, UpdateError> {
        let mut x = rhs.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solve `C X = B` for an `n × p` right-hand-side block, column by
    /// column.
    ///
    /// # Errors
    /// [`UpdateError::ShapeMismatch`] if `rhs` does not have `n` rows.
    pub fn solve_multi(&self, rhs: MatRef<'_, T>) -> Result<Matrix<T>, UpdateError> {
        let n = self.order();
        if rhs.rows() != n {
            return Err(UpdateError::ShapeMismatch {
                expected: n,
                got: rhs.rows(),
            });
        }
        let p = rhs.cols();
        let mut out = Matrix::zeros(n, p);
        let mut col = vec![T::ZERO; n];
        for c in 0..p {
            for (i, cv) in col.iter_mut().enumerate() {
                *cv = *rhs.at(i, c);
            }
            self.solve_in_place(&mut col)?;
            for (i, cv) in col.iter().enumerate() {
                out[(i, c)] = *cv;
            }
        }
        Ok(out)
    }

    /// `xᵀ C⁻¹ x` via one forward substitution (`x` is not modified):
    /// with `y = L⁻¹x`, the quadratic form is `Σ y_i² / d_i`. This is
    /// the leverage score of a candidate row against the accumulated
    /// Gram mass, at half the cost of a full solve.
    ///
    /// # Errors
    /// [`UpdateError::ShapeMismatch`] if `x.len() != n`.
    pub fn inv_quadform(&self, x: &[T]) -> Result<f64, UpdateError> {
        let n = self.order();
        if x.len() != n {
            return Err(UpdateError::ShapeMismatch {
                expected: n,
                got: x.len(),
            });
        }
        let mut y = x.to_vec();
        for j in 0..n {
            let yj = y[j];
            if yj == T::ZERO {
                continue;
            }
            let row_j = self.ut.row(j);
            for (yi, lj) in y[j + 1..].iter_mut().zip(&row_j[j + 1..]) {
                *yi -= *lj * yj;
            }
        }
        let mut acc = 0.0f64;
        for (yi, dv) in y.iter().zip(&self.d) {
            let yf = yi.to_f64();
            acc += yf * yf / dv.to_f64();
        }
        Ok(acc)
    }

    /// `log det C = Σ log d_i` — exact in the factored form, no
    /// overflow for determinants far outside `f64` range.
    pub fn logdet(&self) -> f64 {
        self.d.iter().map(|v| v.to_f64().ln()).sum()
    }

    /// Materialize the conventional lower-triangular `L` (unit
    /// diagonal) — diagnostics and tests; the streaming paths never
    /// need it.
    pub fn unit_lower(&self) -> Matrix<T> {
        let n = self.order();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                T::ONE
            } else if i > j {
                self.ut[(j, i)]
            } else {
                T::ZERO
            }
        })
    }
}

/// A λ-shift solve kernel: one Householder tridiagonalization
/// `C = Q T Qᵀ` (`O(n³)`, done once), after which every shifted system
/// `(C + λI) x = b` costs `O(n²)` — apply `Qᵀ`, solve the tridiagonal
/// `(T + λI)` by its own LDLᵀ in `O(n)`, apply `Q`.
///
/// This is what lets a ridge λ-path reuse a single base factorization:
/// `P` regularization values cost `O(n³ + P·n²)` instead of `P·O(n³)`.
/// Callers reach it through [`crate::RidgeSolver::solve_path`]:
///
/// ```
/// use ata_linalg::RidgeSolver;
/// use ata_mat::{gen, reference};
///
/// let a = gen::standard::<f64>(1, 40, 16);
/// let b: Vec<f64> = (0..40).map(|i| i as f64).collect();
/// let ridge = RidgeSolver::new(a.as_ref(), &b, reference::gram(a.as_ref()));
/// // 16 features, 4 lambdas: one tridiagonalization, then O(n²) per shift.
/// let xs = ridge.solve_path(&[0.0, 0.5, 1.0, 10.0]).unwrap();
/// assert_eq!(xs.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub(crate) struct ShiftedSolver<T: Scalar> {
    n: usize,
    /// Householder vectors: row `j` holds `v_j` supported on
    /// `j+1..n` with the pivot element normalized to 1.
    vs: Matrix<T>,
    /// Reflection coefficients `β_j` (`0` where no reflection).
    betas: Vec<T>,
    /// Main diagonal of the tridiagonal `T`.
    diag: Vec<T>,
    /// Subdiagonal of `T` (length `n−1`).
    sub: Vec<T>,
}

impl<T: Scalar> ShiftedSolver<T> {
    /// Tridiagonalize the symmetric matrix whose lower triangle is in
    /// `g` (the strictly-upper part is never read). Always succeeds —
    /// definiteness is only needed (and checked) at solve time, per
    /// shift.
    ///
    /// # Panics
    /// If `g` is not square.
    pub(crate) fn new(g: MatRef<'_, T>) -> Self {
        let n = g.rows();
        assert_eq!(g.cols(), n, "tridiagonalization needs a square matrix");
        // Dense symmetric working copy (both triangles, so the
        // reflection update is a plain dense rank-2 correction).
        let mut a = Matrix::from_fn(n, n, |i, j| if j <= i { *g.at(i, j) } else { *g.at(j, i) });
        let mut vs = Matrix::zeros(n, n);
        let mut betas = vec![T::ZERO; n];
        let mut p = vec![T::ZERO; n];
        for j in 0..n.saturating_sub(2) {
            // σ = Σ_{i>j+1} a[i][j]² — the mass to annihilate.
            let mut sigma = T::ZERO;
            for i in (j + 2)..n {
                let v = a[(i, j)];
                sigma += v * v;
            }
            let x0 = a[(j + 1, j)];
            if sigma.to_f64() == 0.0 {
                // Column already tridiagonal; H_j = I.
                continue;
            }
            let x0f = x0.to_f64();
            let sigf = sigma.to_f64();
            let muf = (x0f * x0f + sigf).sqrt();
            // Stable v0 = x0 − μ (rewritten when x0 > 0 to avoid
            // cancellation); uncounted f64 bookkeeping, like the
            // pivot square roots elsewhere in this module.
            let v0f = if x0f <= 0.0 {
                x0f - muf
            } else {
                -sigf / (x0f + muf)
            };
            let betaf = 2.0 * v0f * v0f / (sigf + v0f * v0f);
            let inv_v0 = T::from_f64(1.0 / v0f);
            vs[(j, j + 1)] = T::ONE;
            for i in (j + 2)..n {
                vs[(j, i)] = a[(i, j)] * inv_v0;
            }
            betas[j] = T::from_f64(betaf);
            // The reflected column is μ·e₁; record it where the final
            // subdiagonal sweep will read it.
            a[(j + 1, j)] = T::from_f64(muf);
            // Trailing-block similarity update: p = βAv,
            // w = p − (β·pᵀv/2)·v, A ← A − vwᵀ − wvᵀ.
            let beta = betas[j];
            let mut pv = T::ZERO;
            for i in (j + 1)..n {
                let mut acc = T::ZERO;
                let row = a.row(i);
                let vrow = vs.row(j);
                for (av, vv) in row[j + 1..].iter().zip(&vrow[j + 1..]) {
                    acc += *av * *vv;
                }
                let pi = beta * acc;
                p[i] = pi;
                pv += pi * vs[(j, i)];
            }
            let gamma = beta * pv * T::from_f64(0.5);
            for i in (j + 1)..n {
                p[i] -= gamma * vs[(j, i)];
            }
            for i in (j + 1)..n {
                let vi = vs[(j, i)];
                let wi = p[i];
                let vrow = vs.row(j);
                let row = a.row_mut(i);
                for ((av, vt), wt) in row[j + 1..].iter_mut().zip(&vrow[j + 1..]).zip(&p[j + 1..]) {
                    *av -= vi * *wt + wi * *vt;
                }
            }
        }
        let diag = (0..n).map(|i| a[(i, i)]).collect();
        let sub = (0..n.saturating_sub(1)).map(|i| a[(i + 1, i)]).collect();
        Self {
            n,
            vs,
            betas,
            diag,
            sub,
        }
    }

    /// Solve `(C + λI) x = rhs` in `O(n²)`.
    ///
    /// # Errors
    /// * [`UpdateError::ShapeMismatch`] if `rhs.len() != n`.
    /// * [`UpdateError::Indefinite`] if `C + λI` is not positive
    ///   definite (checked pivot-by-pivot on the tridiagonal form,
    ///   before any division).
    pub(crate) fn solve_shifted(&self, lambda: T, rhs: &[T]) -> Result<Vec<T>, UpdateError> {
        let mut x = rhs.to_vec();
        self.solve_shifted_in_place(lambda, &mut x)?;
        Ok(x)
    }

    /// In-place variant of [`ShiftedSolver::solve_shifted`].
    ///
    /// # Errors
    /// As [`ShiftedSolver::solve_shifted`].
    pub(crate) fn solve_shifted_in_place(
        &self,
        lambda: T,
        rhs: &mut [T],
    ) -> Result<(), UpdateError> {
        let n = self.n;
        if rhs.len() != n {
            return Err(UpdateError::ShapeMismatch {
                expected: n,
                got: rhs.len(),
            });
        }
        // y = Qᵀ rhs = H_{n-3} … H_0 rhs (apply H_0 first).
        for j in 0..n.saturating_sub(2) {
            self.apply_reflector(j, rhs);
        }
        // LDLᵀ of the shifted tridiagonal, fused with the forward pass.
        let mut lv = vec![T::ZERO; n];
        let mut inv_dv = vec![T::ZERO; n];
        for i in 0..n {
            let di = if i == 0 {
                self.diag[0] + lambda
            } else {
                let li = self.sub[i - 1] * inv_dv[i - 1];
                lv[i] = li;
                rhs[i] -= li * rhs[i - 1];
                self.diag[i] + lambda - li * self.sub[i - 1]
            };
            let dif = di.to_f64();
            if dif <= 0.0 || !dif.is_finite() {
                return Err(UpdateError::Indefinite { column: i });
            }
            inv_dv[i] = recip(di);
        }
        for (ri, iv) in rhs.iter_mut().zip(&inv_dv) {
            *ri *= *iv;
        }
        for i in (0..n.saturating_sub(1)).rev() {
            let t = lv[i + 1] * rhs[i + 1];
            rhs[i] -= t;
        }
        // x = Q y = H_0 … H_{n-3} y (apply H_{n-3} first).
        for j in (0..n.saturating_sub(2)).rev() {
            self.apply_reflector(j, rhs);
        }
        Ok(())
    }

    /// Apply the (symmetric, involutory) reflector `H_j` to `y`.
    fn apply_reflector(&self, j: usize, y: &mut [T]) {
        let beta = self.betas[j];
        if beta == T::ZERO {
            return;
        }
        let vrow = self.vs.row(j);
        let mut acc = T::ZERO;
        for (vv, yv) in vrow[j + 1..].iter().zip(&y[j + 1..]) {
            acc += *vv * *yv;
        }
        let t = beta * acc;
        for (yv, vv) in y[j + 1..].iter_mut().zip(&vrow[j + 1..]) {
            *yv -= t * *vv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::{cholesky_factor, cholesky_solve};
    use ata_mat::{gen, reference};

    fn spd(n: usize, seed: u64) -> Matrix<f64> {
        let a = gen::standard::<f64>(seed, n + 4, n);
        let mut g = reference::gram(a.as_ref());
        for i in 0..n {
            g[(i, i)] += 0.5;
        }
        g
    }

    fn reconstruct(f: &LdltFactor<f64>) -> Matrix<f64> {
        let n = f.order();
        let l = f.unit_lower();
        Matrix::from_fn(n, n, |i, j| {
            let mut s = 0.0;
            for k in 0..n {
                s += l[(i, k)] * f.diag()[k] * l[(j, k)];
            }
            s
        })
    }

    #[test]
    fn ldlt_reconstructs() {
        let g = spd(9, 1);
        let f = LdltFactor::from_lower(g.as_ref()).expect("SPD");
        let r = reconstruct(&f);
        for i in 0..9 {
            for j in 0..=i {
                assert!((r[(i, j)] - g[(i, j)]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn rank_update_matches_refactor() {
        let n = 8;
        let g = spd(n, 2);
        let mut f = LdltFactor::from_lower(g.as_ref()).expect("SPD");
        let chunk = gen::standard::<f64>(7, 3, n);
        f.rank_update(1.0, chunk.as_ref()).expect("update");
        // Reference: refactor G + chunkᵀ·chunk from scratch.
        let mut g2 = g.clone();
        for i in 0..n {
            for j in 0..=i {
                for r in 0..3 {
                    g2[(i, j)] += chunk[(r, i)] * chunk[(r, j)];
                }
            }
        }
        let fr = LdltFactor::from_lower(g2.as_ref()).expect("SPD");
        let x1 = f.solve(&vec![1.0; n]).unwrap();
        let x2 = fr.solve(&vec![1.0; n]).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn downdate_reverses_update() {
        let n = 6;
        let g = spd(n, 3);
        let mut f = LdltFactor::from_lower(g.as_ref()).expect("SPD");
        let before = f.solve(&vec![1.0; n]).unwrap();
        let chunk = gen::standard::<f64>(8, 2, n);
        f.rank_update(1.0, chunk.as_ref()).expect("update");
        f.rank_update(-1.0, chunk.as_ref()).expect("downdate");
        let after = f.solve(&vec![1.0; n]).unwrap();
        for (u, v) in before.iter().zip(&after) {
            assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn downdate_to_indefinite_is_typed_and_finite() {
        let n = 5;
        let g = spd(n, 4);
        let mut f = LdltFactor::from_lower(g.as_ref()).expect("SPD");
        // Retract far more mass than was ever inserted.
        let mut big = Matrix::<f64>::zeros(1, n);
        for j in 0..n {
            big[(0, j)] = 100.0 * (j + 1) as f64;
        }
        let err = f.rank_update(-1.0, big.as_ref()).expect_err("indefinite");
        assert!(matches!(err, UpdateError::Indefinite { .. }));
        // Never NaN: every stored value stays finite.
        for v in f.diag() {
            assert!(v.is_finite());
        }
        let l = f.unit_lower();
        for i in 0..n {
            for j in 0..n {
                assert!(l[(i, j)].is_finite());
            }
        }
    }

    #[test]
    fn decay_scales_solution() {
        let n = 7;
        let g = spd(n, 5);
        let mut f = LdltFactor::from_lower(g.as_ref()).expect("SPD");
        let x1 = f.solve(&vec![1.0; n]).unwrap();
        f.decay(0.5);
        // (βC)⁻¹ b = C⁻¹ b / β.
        let x2 = f.solve(&vec![1.0; n]).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((v - u / 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn logdet_matches_cholesky() {
        let g = spd(6, 6);
        let f = LdltFactor::from_lower(g.as_ref()).expect("SPD");
        let mut l = g.clone();
        cholesky_factor(&mut l).expect("SPD");
        let via_llt: f64 = (0..6).map(|i| 2.0 * l[(i, i)].ln()).sum();
        assert!((f.logdet() - via_llt).abs() < 1e-9);
    }

    #[test]
    fn inv_quadform_matches_solve() {
        let n = 6;
        let g = spd(n, 7);
        let f = LdltFactor::from_lower(g.as_ref()).expect("SPD");
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let q = f.inv_quadform(&x).unwrap();
        let sol = f.solve(&x).unwrap();
        let direct: f64 = x.iter().zip(&sol).map(|(a, b)| a * b).sum();
        assert!((q - direct).abs() < 1e-9);
    }

    #[test]
    fn solve_multi_matches_single() {
        let n = 5;
        let g = spd(n, 8);
        let f = LdltFactor::from_lower(g.as_ref()).expect("SPD");
        let b = Matrix::from_fn(n, 3, |i, j| (i + 2 * j) as f64 * 0.25 - 1.0);
        let xs = f.solve_multi(b.as_ref()).unwrap();
        for c in 0..3 {
            let col: Vec<f64> = (0..n).map(|i| b[(i, c)]).collect();
            let x = f.solve(&col).unwrap();
            for i in 0..n {
                assert!((xs[(i, c)] - x[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn shape_mismatches_are_typed() {
        let g = spd(4, 9);
        let mut f = LdltFactor::from_lower(g.as_ref()).expect("SPD");
        assert_eq!(
            f.solve(&[1.0; 3]).unwrap_err(),
            UpdateError::ShapeMismatch {
                expected: 4,
                got: 3
            }
        );
        let bad = Matrix::<f64>::zeros(2, 5);
        assert_eq!(
            f.rank_update(1.0, bad.as_ref()).unwrap_err(),
            UpdateError::ShapeMismatch {
                expected: 4,
                got: 5
            }
        );
        assert!(f.solve(&[1.0; 4]).is_ok(), "factor untouched by rejection");
    }

    #[test]
    fn shifted_solver_matches_direct_factorization() {
        let n = 10;
        let g = spd(n, 14);
        let base = ShiftedSolver::new(g.as_ref());
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.4).cos()).collect();
        for lambda in [0.0, 1e-3, 0.7, 25.0] {
            let x = base.solve_shifted(lambda, &b).expect("SPD + shift");
            let mut gl = g.clone();
            for i in 0..n {
                gl[(i, i)] += lambda;
            }
            cholesky_factor(&mut gl).expect("SPD");
            let xr = cholesky_solve(&gl, &b).expect("shape");
            for (u, v) in x.iter().zip(&xr) {
                assert!((u - v).abs() < 1e-8, "lambda={lambda}");
            }
        }
    }

    #[test]
    fn shifted_solver_small_orders() {
        for n in [1usize, 2, 3] {
            let g = spd(n, 20 + n as u64);
            let base = ShiftedSolver::new(g.as_ref());
            let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            let x = base.solve_shifted(0.25, &b).expect("SPD");
            let mut gl = g.clone();
            for i in 0..n {
                gl[(i, i)] += 0.25;
            }
            cholesky_factor(&mut gl).expect("SPD");
            let xr = cholesky_solve(&gl, &b).expect("shape");
            for (u, v) in x.iter().zip(&xr) {
                assert!((u - v).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn shifted_solver_indefinite_shift_is_typed() {
        let g = Matrix::<f64>::identity(4);
        let base = ShiftedSolver::new(g.as_ref());
        let err = base
            .solve_shifted(-2.0, &[1.0; 4])
            .expect_err("negative shift past the spectrum");
        assert!(matches!(err, UpdateError::Indefinite { .. }));
    }
}
