//! Streaming factorization tier: [`FactoredGram`] keeps a live
//! `L D Lᵀ` factor *alongside* the accumulated Gram matrix, so the
//! serving layer can answer "submit rows, query solutions" without an
//! `O(n³)` refactor per query.
//!
//! ## Update-or-refactor policy
//!
//! A rank-k sweep costs `~2kn²` flops; a refactor costs `~n³/3`. The
//! crossover is `k ≈ n/6`, so chunks with `6k <= n` update the factor
//! in place and taller chunks just mark it stale — the next query pays
//! one lazy refactor, and consecutive tall pushes coalesce into a
//! single one. Queries between pushes are always `O(n²)`:
//!
//! ```text
//!            push(chunk, k rows)
//!                   │
//!        ┌──────────┴──────────┐
//!    6k ≤ n                 6k > n
//!        │                     │
//!  rank-k sweep          mark stale
//!  O(n²k) now          (no factor work)
//!        │                     │
//!        └──────────┬──────────┘
//!                 solve
//!          O(n²)  /  O(n³/3) once, then O(n²)
//! ```
//!
//! The same policy maintains the λ-shifted factor behind
//! [`FactoredGram::ridge`]: a repeated λ hits a cached factor of
//! `C + λI` that is rank-updated in lockstep with the main factor, so
//! a steady ridge workload never refactors either triangle.
//!
//! Failure is typed, never NaN: retracting more mass than was pushed
//! makes `C` indefinite, which every downdating sweep and every lazy
//! refactor reports as [`UpdateError::Indefinite`] before dividing by
//! the offending pivot.

use ata_linalg::eigen::jacobi_eigen;
use ata_linalg::update::{LdltFactor, UpdateError};
use ata_mat::{MatRef, Matrix, Scalar};

use crate::context::{AtaContext, AtaOutput};
use crate::stream::GramAccumulator;

/// A chunk of `k` rows updates the factor in place iff `6k <= n`
/// (`2kn²` sweep flops vs `n³/3` refactor flops); see the module docs.
const UPDATE_REFACTOR_RATIO: usize = 6;

/// The λ-shifted factor cache behind [`FactoredGram::ridge`].
#[derive(Debug)]
struct ShiftedFactor<T: Scalar> {
    lambda: T,
    factor: LdltFactor<T>,
    /// False after a tall push or a failed sweep: rebuild lazily.
    fresh: bool,
}

/// Cached eigendecomposition behind [`FactoredGram::pca_project`].
#[derive(Debug)]
struct PcaCache {
    eigenvalues: Vec<f64>,
    /// Eigenvectors as columns, descending eigenvalue order.
    eigenvectors: Matrix<f64>,
}

/// A [`GramAccumulator`] that maintains `C = AᵀA` *and* its `L D Lᵀ`
/// factor under the stream operations — the online-regression /
/// online-PCA engine of the serving stack.
///
/// * [`FactoredGram::push`] / [`FactoredGram::push_scaled`] — rank-k
///   factor update in `O(n²k)` (or a deferred refactor for tall
///   chunks; see the module docs for the policy).
/// * [`FactoredGram::decay`] — `O(n)` on the factor (`D → βD`).
/// * [`FactoredGram::retract`] — sliding-window row removal by
///   hyperbolic downdate, failing typed if the window over-shrinks.
/// * [`FactoredGram::solve`] / [`FactoredGram::solve_in_place`] /
///   [`FactoredGram::solve_multi`] — `O(n²)` once the factor is warm;
///   the in-place variant allocates nothing.
/// * [`FactoredGram::ridge`], [`FactoredGram::logdet`],
///   [`FactoredGram::leverage`], [`FactoredGram::pca_project`] —
///   online queries on the factored mass.
///
/// # Example
///
/// ```
/// use ata::AtaContext;
/// use ata::mat::gen;
///
/// let ctx = AtaContext::serial();
/// let mut fg = ctx.factored_gram::<f64>(16);
/// fg.push(gen::standard::<f64>(0, 32, 16).as_ref()); // seed mass
/// fg.solve(&[1.0; 16]).unwrap(); // one lazy O(n³/3) refactor
/// for seed in 1..=40 {
///     let chunk = gen::standard::<f64>(seed, 2, 16);
///     fg.push(chunk.as_ref()); // O(n²·2) rank-2 factor sweep
///     let x = fg.solve(&[1.0; 16]).unwrap(); // O(n²), no refactor
///     assert_eq!(x.len(), 16);
/// }
/// assert_eq!(fg.factor_updates(), 40);
/// assert_eq!(fg.factor_refactors(), 1);
/// ```
#[derive(Debug)]
pub struct FactoredGram<T: Scalar> {
    acc: GramAccumulator<T>,
    factor: Option<LdltFactor<T>>,
    /// True when `factor` reflects the accumulator's current mass.
    fresh: bool,
    shifted: Option<ShiftedFactor<T>>,
    pca: Option<PcaCache>,
    updates: u64,
    refactors: u64,
    downdates: u64,
}

impl AtaContext {
    /// Create a [`FactoredGram`] for `n`-column row chunks, streaming
    /// through this context (its backend, worker pool and arena cache —
    /// the same machinery as [`AtaContext::gram_accumulator`]).
    pub fn factored_gram<T: Scalar + 'static>(&self, n: usize) -> FactoredGram<T> {
        self.gram_accumulator::<T>(n).into_factored()
    }
}

impl<T: Scalar + 'static> GramAccumulator<T> {
    /// Upgrade this accumulator into a [`FactoredGram`], carrying the
    /// already-accumulated mass (the factor is built lazily at the
    /// first query).
    pub fn into_factored(self) -> FactoredGram<T> {
        FactoredGram {
            acc: self,
            factor: None,
            fresh: false,
            shifted: None,
            pca: None,
            updates: 0,
            refactors: 0,
            downdates: 0,
        }
    }
}

impl<T: Scalar + 'static> FactoredGram<T> {
    /// Column count `n` (the order of the factored Gram matrix).
    pub fn order(&self) -> usize {
        self.acc.order()
    }

    /// Total rows currently accumulated (pushes minus retracts).
    pub fn rows(&self) -> usize {
        self.acc.rows()
    }

    /// The wrapped accumulator (counters, arena stats, context).
    pub fn accumulator(&self) -> &GramAccumulator<T> {
        &self.acc
    }

    /// Discard the factor state and recover the plain accumulator.
    pub fn into_accumulator(self) -> GramAccumulator<T> {
        self.acc
    }

    /// Rank-k factor sweeps applied (chunks that took the `O(n²k)`
    /// path).
    pub fn factor_updates(&self) -> u64 {
        self.updates
    }

    /// Full `O(n³/3)` refactorizations performed (lazy, at query
    /// time).
    pub fn factor_refactors(&self) -> u64 {
        self.refactors
    }

    /// Downdating sweeps applied (retracts and negative-weight
    /// pushes).
    pub fn factor_downdates(&self) -> u64 {
        self.downdates
    }

    /// Does a `k`-row chunk update the factor in place (vs marking it
    /// stale for a lazy refactor)? Exposed so tests and capacity
    /// planning can see the policy.
    pub fn updates_in_place(&self, k: usize) -> bool {
        UPDATE_REFACTOR_RATIO * k <= self.order()
    }

    /// A copy of the current accumulated result, per the wrapped
    /// accumulator's output selector — checkpoints stream on
    /// unaffected.
    pub fn snapshot(&self) -> AtaOutput<T> {
        self.acc.snapshot()
    }

    /// Fold a row chunk into the Gram mass *and* its factor:
    /// `C += chunkᵀ·chunk` always; the factor follows by an `O(n²k)`
    /// sweep when `6k <= n`, else lazily at the next query.
    ///
    /// # Panics
    /// If the chunk does not have exactly `n` columns.
    pub fn push(&mut self, chunk: MatRef<'_, T>) {
        self.push_scaled(T::ONE, chunk);
    }

    /// [`FactoredGram::push`] with a weight folded into the sweep:
    /// `C += α·chunkᵀ·chunk`. A negative `α` is a downdate; if it
    /// drives the mass indefinite the factor goes stale and the next
    /// query reports the typed error.
    ///
    /// # Panics
    /// If the chunk does not have exactly `n` columns.
    pub fn push_scaled(&mut self, alpha: T, chunk: MatRef<'_, T>) {
        self.acc.push_scaled(alpha, chunk);
        if alpha.to_f64() < 0.0 && chunk.rows() > 0 {
            self.downdates += 1;
        }
        // A failed downdating sweep only stales the factor; C stays
        // authoritative and the error resurfaces at the next query.
        let _ = self.fold_factor(alpha, chunk);
    }

    /// Remove a previously-pushed chunk from the mass (sliding
    /// window): `C -= chunkᵀ·chunk`, with the factor downdated by a
    /// hyperbolic sweep.
    ///
    /// # Errors
    /// [`UpdateError::Indefinite`] if the retraction makes the mass
    /// indefinite *and* the in-place sweep detected it immediately
    /// (the factor is marked stale; `C` stays authoritative, so
    /// retracting un-pushed data surfaces at the latest on the next
    /// query's refactor).
    ///
    /// # Panics
    /// If the chunk does not have exactly `n` columns.
    pub fn retract(&mut self, chunk: MatRef<'_, T>) -> Result<(), UpdateError> {
        self.acc.retract(chunk);
        if chunk.rows() > 0 {
            self.downdates += 1;
        }
        self.fold_factor(T::NEG_ONE, chunk)
    }

    /// Apply `α·chunkᵀ·chunk` to the live factor(s) per the
    /// update-or-refactor policy. `C` has already been updated; a
    /// failed or skipped sweep just leaves the factor stale.
    fn fold_factor(&mut self, alpha: T, chunk: MatRef<'_, T>) -> Result<(), UpdateError> {
        self.pca = None;
        if chunk.rows() == 0 || alpha == T::ZERO {
            return Ok(());
        }
        if !self.updates_in_place(chunk.rows()) {
            self.fresh = false;
            if let Some(s) = self.shifted.as_mut() {
                s.fresh = false;
            }
            return Ok(());
        }
        let mut first_err = None;
        if self.fresh {
            match self
                .factor
                .as_mut()
                .expect("fresh implies factor") // ata-lint: allow(no-unwrap-in-lib): fresh is only set true after factor is Some
                .rank_update(alpha, chunk)
            {
                Ok(()) => self.updates += 1,
                Err(e) => {
                    self.fresh = false;
                    first_err = Some(e);
                }
            }
        }
        // Keep the λ-shifted cache in lockstep: C + λI gains the same
        // rank-k mass.
        if let Some(s) = self.shifted.as_mut() {
            if s.fresh && s.factor.rank_update(alpha, chunk).is_err() {
                s.fresh = false;
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Apply a forgetting factor `β` to the mass and the factor —
    /// `O(n²)` on the triangle, `O(n)` on the factor (`D → βD`, `L`
    /// unchanged — the payoff of the square-root-free representation).
    ///
    /// # Panics
    /// If `beta <= 0` (definiteness would be destroyed).
    pub fn decay(&mut self, beta: T) {
        assert!(beta.to_f64() > 0.0, "decay factor must be positive");
        self.acc.decay(beta);
        self.pca = None;
        if self.fresh {
            self.factor
                .as_mut()
                .expect("fresh implies factor") // ata-lint: allow(no-unwrap-in-lib): fresh is only set true after factor is Some
                .decay(beta);
        }
        // C + λI does not scale to (βC) + λI; rebuild on next use.
        if let Some(s) = self.shifted.as_mut() {
            s.fresh = false;
        }
    }

    /// Ensure the factor reflects the current mass, refactoring
    /// lazily if needed.
    fn ensure_factor(&mut self) -> Result<&LdltFactor<T>, UpdateError> {
        if !self.fresh {
            match self.factor.as_mut() {
                Some(f) => f.refactor_from_lower(self.acc.as_lower())?,
                None => self.factor = Some(LdltFactor::from_lower(self.acc.as_lower())?),
            }
            self.refactors += 1;
            self.fresh = true;
        }
        Ok(self.factor.as_ref().expect("just ensured")) // ata-lint: allow(no-unwrap-in-lib): the branch above guarantees Some
    }

    /// Solve `C x = rhs` in `O(n²)` against the live factor.
    ///
    /// # Errors
    /// * [`UpdateError::Indefinite`] if the accumulated mass is not
    ///   positive definite (no rows yet, or over-retracted).
    /// * [`UpdateError::ShapeMismatch`] if `rhs.len() != n`.
    pub fn solve(&mut self, rhs: &[T]) -> Result<Vec<T>, UpdateError> {
        self.ensure_factor()?.solve(rhs)
    }

    /// Allocation-free [`FactoredGram::solve`]: `rhs` is overwritten
    /// with the solution. Once the factor is warm this performs no
    /// allocation at all.
    ///
    /// # Errors
    /// As [`FactoredGram::solve`].
    pub fn solve_in_place(&mut self, rhs: &mut [T]) -> Result<(), UpdateError> {
        self.ensure_factor()?.solve_in_place(rhs)
    }

    /// Solve `C X = B` for an `n × p` block of right-hand sides.
    ///
    /// # Errors
    /// As [`FactoredGram::solve`], with
    /// [`UpdateError::ShapeMismatch`] if `rhs` does not have `n` rows.
    pub fn solve_multi(&mut self, rhs: MatRef<'_, T>) -> Result<Matrix<T>, UpdateError> {
        self.ensure_factor()?.solve_multi(rhs)
    }

    /// Solve the ridge system `(C + λI) x = rhs`.
    ///
    /// The λ-shifted factor is cached and maintained by the same
    /// update-or-refactor policy as the main factor: repeating a λ
    /// across pushes costs `O(n²k)` per push and `O(n²)` per solve;
    /// changing λ (or a tall push) rebuilds the shifted factor once.
    ///
    /// # Errors
    /// * [`UpdateError::Indefinite`] if `C + λI` is not positive
    ///   definite (possible at `λ = 0` with rank-deficient mass).
    /// * [`UpdateError::ShapeMismatch`] if `rhs.len() != n`.
    ///
    /// # Panics
    /// If `lambda < 0`.
    pub fn ridge(&mut self, lambda: T, rhs: &[T]) -> Result<Vec<T>, UpdateError> {
        assert!(lambda.to_f64() >= 0.0, "lambda must be non-negative");
        let n = self.order();
        if rhs.len() != n {
            return Err(UpdateError::ShapeMismatch {
                expected: n,
                got: rhs.len(),
            });
        }
        let hit = matches!(&self.shifted, Some(s) if s.fresh && s.lambda == lambda);
        if !hit {
            let mut g = self.acc.as_lower().to_matrix();
            for i in 0..n {
                g[(i, i)] += lambda;
            }
            let factor = match self.shifted.take() {
                // Reuse the cached factor's buffers for the rebuild.
                Some(mut s) => {
                    s.factor.refactor_from_lower(g.as_ref())?;
                    s.factor
                }
                None => LdltFactor::from_lower(g.as_ref())?,
            };
            self.shifted = Some(ShiftedFactor {
                lambda,
                factor,
                fresh: true,
            });
            self.refactors += 1;
        }
        self.shifted
            .as_ref()
            .expect("just built") // ata-lint: allow(no-unwrap-in-lib): the miss branch above stores Some before this line
            .factor
            .solve(rhs)
    }

    /// `log det C` from the live factor — `O(n)` once warm.
    ///
    /// # Errors
    /// [`UpdateError::Indefinite`] if the mass is not positive
    /// definite.
    pub fn logdet(&mut self) -> Result<f64, UpdateError> {
        Ok(self.ensure_factor()?.logdet())
    }

    /// Leverage of a candidate row against the accumulated mass:
    /// `rowᵀ C⁻¹ row` — one forward substitution, `O(n²)`. The score
    /// every online experiment-design / outlier loop queries per
    /// candidate.
    ///
    /// # Errors
    /// As [`FactoredGram::solve`].
    pub fn leverage(&mut self, row: &[T]) -> Result<f64, UpdateError> {
        self.ensure_factor()?.inv_quadform(row)
    }

    /// Project a row onto the top-`k` principal axes of the
    /// accumulated mass (eigenvectors of `C`, descending eigenvalue
    /// order). The eigendecomposition is cached until the next mass
    /// mutation, so a scoring loop pays it once.
    ///
    /// # Errors
    /// [`UpdateError::ShapeMismatch`] if `row.len() != n` or `k > n`.
    pub fn pca_project(&mut self, row: &[T], k: usize) -> Result<Vec<f64>, UpdateError> {
        let n = self.order();
        if row.len() != n {
            return Err(UpdateError::ShapeMismatch {
                expected: n,
                got: row.len(),
            });
        }
        if k > n {
            return Err(UpdateError::ShapeMismatch {
                expected: n,
                got: k,
            });
        }
        let cache = self.ensure_pca();
        let mut out = vec![0.0f64; k];
        for (c, ov) in out.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, rv) in row.iter().enumerate() {
                s += cache.eigenvectors[(i, c)] * rv.to_f64();
            }
            *ov = s;
        }
        Ok(out)
    }

    /// The top-`k` eigenvalues of the accumulated mass (descending) —
    /// the per-axis variances behind [`FactoredGram::pca_project`],
    /// from the same cached decomposition.
    ///
    /// # Errors
    /// [`UpdateError::ShapeMismatch`] if `k > n`.
    pub fn principal_variances(&mut self, k: usize) -> Result<Vec<f64>, UpdateError> {
        let n = self.order();
        if k > n {
            return Err(UpdateError::ShapeMismatch {
                expected: n,
                got: k,
            });
        }
        let cache = self.ensure_pca();
        Ok(cache.eigenvalues[..k].to_vec())
    }

    fn ensure_pca(&mut self) -> &PcaCache {
        if self.pca.is_none() {
            // jacobi_eigen reads the lower triangle symmetrically, so
            // the accumulator's triangle is usable as-is.
            let g = self.acc.as_lower().to_matrix();
            let (eigenvalues, eigenvectors) = jacobi_eigen(&g, 1e-12);
            self.pca = Some(PcaCache {
                eigenvalues,
                eigenvectors,
            });
        }
        self.pca.as_ref().expect("just built") // ata-lint: allow(no-unwrap-in-lib): the branch above fills the cache
    }
}
