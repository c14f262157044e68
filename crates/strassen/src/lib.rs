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
//! * each recursion level is a [`Program`] written once as data —
//!   [`CLASSIC`], [`WINOGRAD`] and Algorithm 2's [`RECURSIVE_GEMM`] — and
//!   run, sized ([`Program::workspace_elems`]) and counted
//!   ([`Program::mults`]) by interpreters of the same steps, on the
//!   library's [`Dense`] kernels or any other [`Machine`], stopping at a
//!   [`Gate`];
//! * the recursion runs inside a **single arena** ([`StrassenWorkspace`])
//!   allocated once up front — the paper's `FastStrassen` wrapper
//!   (Algorithm 1, lines 14–18). Per-level slots are carved off with
//!   `split_at_mut`, so the compute phase performs no heap allocation
//!   ([`fast_strassen_with`], [`winograd_strassen_with`]);
//! * [`strassen_allocating`] is the naive variant that allocates its
//!   slots at every level — kept as the ablation baseline of Figure 4,
//!   which shows the benefit of pre-allocation;
//! * [`calibrate`] measures the cache budget at which one more level
//!   stops paying for its block sums, against the `gemm_tn` it replaces.

#![forbid(unsafe_code)]

mod alloc;
pub mod calibrate;
mod fast;
mod level;
mod pad;
mod pool;
mod winograd;
mod workspace;

pub use alloc::strassen_allocating;
pub use fast::{fast_strassen, fast_strassen_with};
pub use level::{CacheFit, Dense, Gate, Machine, Program, CLASSIC, RECURSIVE_GEMM, WINOGRAD};
pub use pool::{ArenaPool, ArenaStats};
pub use winograd::{winograd_strassen, winograd_strassen_with};
pub use workspace::StrassenWorkspace;
