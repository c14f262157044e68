//! Downstream applications of the `A^T A` product.
//!
//! The paper's introduction motivates AtA with a list of problems in
//! which the Gram matrix is the expensive intermediate step: checking
//! orthogonality, Gram–Schmidt, least squares via the normal equations,
//! and the SVD through the eigenproblem of `A^T A` (§1). This crate
//! turns those motivations into library code built on `ata-core`:
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

use ata_core::{parallel::ata_s_kind, serial::ata_into_with_kind, AtaOptions};
use ata_mat::{MatRef, Matrix, Scalar};
use ata_strassen::StrassenWorkspace;

/// Internal Gram plumbing: the lower triangle of `A^T A` honoring the
/// [`AtaOptions`] knobs, through the core entry points. The serial case
/// runs inline on the calling thread (no pool spawn-up, and
/// thread-local scalar state like `Tracked` counters stays observable);
/// `threads > 1` goes through AtA-S.
pub(crate) fn gram_lower_opts<T: Scalar>(a: MatRef<'_, T>, opts: &AtaOptions) -> Matrix<T> {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    if opts.threads <= 1 {
        let mut ws = StrassenWorkspace::empty();
        ata_into_with_kind(
            T::ONE,
            a,
            &mut c.as_mut(),
            &opts.cache,
            opts.strassen,
            &mut ws,
        );
    } else {
        ata_s_kind(
            T::ONE,
            a,
            &mut c.as_mut(),
            opts.threads,
            &opts.cache,
            opts.strassen,
        );
    }
    c
}

/// [`gram_lower_opts`] with both triangles filled.
pub(crate) fn gram_full_opts<T: Scalar>(a: MatRef<'_, T>, opts: &AtaOptions) -> Matrix<T> {
    let mut c = gram_lower_opts(a, opts);
    c.mirror_lower_to_upper();
    c
}
