//! FastStrassen: Strassen's algorithm for `C += alpha * A^T B` on
//! rectangular, odd-sized matrices, with a pre-allocated workspace.
//!
//! This crate implements §3.1–§3.3 of Arrigoni et al. (ICPP 2021):
//!
//! * the seven-product recursion is specialized for a **transposed left
//!   operand**, so `A^T` is never materialized: with `X = A^T` the block
//!   sums `X11 + X22 = (A11 + A22)^T` etc. are computed on untransposed
//!   blocks of `A`, and every product `Mi` is again a transposed-left
//!   product;
//! * odd dimensions use **virtual padding**: quadrant sums are written
//!   into ceil-sized workspace slots whose missing last row/column is
//!   zero-filled (the paper does this with size-aware `?axpy` calls
//!   instead of the peeling/padding of Huss-Lederman et al.), and
//!   accumulation into smaller `C` quadrants simply truncates;
//! * the recursion runs inside a **single arena** ([`StrassenWorkspace`])
//!   allocated once up front — the paper's `FastStrassen` wrapper
//!   (Algorithm 1, lines 14–18). Per-level slots are carved off with
//!   `split_at_mut`, so the compute phase performs no heap allocation;
//! * [`alloc::strassen_allocating`] is the naive variant that allocates
//!   temporaries at every level — kept as the ablation baseline of
//!   Figure 4, which shows the benefit of pre-allocation;
//! * [`calibrate`] measures the cache budget at which one more level
//!   stops paying for its block sums, against the `gemm_tn` it replaces.

#![forbid(unsafe_code)]

pub mod alloc;
pub mod calibrate;
pub mod fast;
pub(crate) mod pad;
pub mod pool;
pub mod winograd;
pub mod workspace;

pub use fast::{fast_strassen, fast_strassen_with, strassen_mults};
pub use pool::{ArenaPool, ArenaStats};
pub use winograd::{required_elems_winograd, winograd_strassen, winograd_strassen_with};
pub use workspace::{required_elems, StrassenWorkspace};
