//! Downstream applications of the `A^T A` product.
//!
//! The paper's introduction motivates AtA with a list of problems in
//! which the Gram matrix is the expensive intermediate step: checking
//! orthogonality, Gram–Schmidt, least squares via the normal equations,
//! and the SVD through the eigenproblem of `A^T A` (§1). This crate
//! turns those motivations into library code that *consumes* a Gram
//! matrix: each consumer takes `G = A^T A` as an argument (only its
//! lower triangle is read) instead of computing it, so the caller picks
//! the backend. With the `ata` facade that is `ctx.lower(a)` on an
//! `AtaContext`, which runs Algorithm 1, AtA-S or AtA-D with the
//! context's plan cache and arenas:
//!
//! * [`cholesky`] — `G = L L^T` factorization and SPD solves;
//! * [`update`] — streaming factorization: rank-k Cholesky/LDLᵀ
//!   updates and downdates in `O(n²k)`, plus the `O(n²)`-per-shift
//!   [`update::ShiftedSolver`] behind ridge lambda paths;
//! * [`triangular`] — forward/backward substitution;
//! * [`lstsq`] — normal-equations least squares (`A^T A x = A^T b`);
//! * [`eigen`] — cyclic Jacobi eigensolver for symmetric matrices;
//! * [`svd`] — singular values/vectors of `A` from the eigen
//!   decomposition of its Gram matrix;
//! * [`ortho`] — modified Gram–Schmidt and the one-product
//!   orthogonality check.
//!
//! Numerical scope: these are robust textbook implementations meant for
//! the well-conditioned regimes where the normal-equations approach is
//! appropriate (forming `A^T A` squares the condition number — the
//! classical caveat, documented per function).

#![forbid(unsafe_code)]

pub mod cholesky;
pub mod eigen;
pub mod lstsq;
pub mod ortho;
pub mod ridge;
pub mod svd;
pub mod triangular;
pub mod update;

pub use cholesky::{
    cholesky_factor, cholesky_solve, cholesky_solve_in_place, cholesky_solve_multi, CholeskyError,
};
pub use eigen::jacobi_eigen;
pub use lstsq::solve_normal_equations;
pub use ortho::{mgs_orthonormalize, orthogonality_defect};
pub use ridge::RidgeSolver;
pub use svd::singular_values;
pub use update::{LdltFactor, ShiftedSolver, UpdateError};

/// Lower triangle of `A^T A` by Algorithm 1 under the default cache
/// model: how the unit tests build the Grams the consumers take.
#[cfg(test)]
pub(crate) fn lower_gram<T: ata_mat::Scalar>(a: ata_mat::MatRef<'_, T>) -> ata_mat::Matrix<T> {
    let n = a.cols();
    let mut g = ata_mat::Matrix::zeros(n, n);
    let cfg = ata_kernels::CacheConfig::default();
    ata_core::ata_into(T::ONE, a, &mut g.as_mut(), &cfg);
    g
}
