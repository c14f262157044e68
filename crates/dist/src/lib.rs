//! AtA-D (Algorithm 4) and the distributed baselines, on the
//! `ata-mpisim` simulated cluster.
//!
//! This crate holds the distributed-memory side of Arrigoni et al.
//! (ICPP 2021):
//!
//! * [`ata_d`] / [`AtaDConfig`] — Algorithm 4: the §4.1 task tree maps
//!   the AtA recursion onto `P` ranks; `p0` distributes operand blocks,
//!   leaves compute locally (AtA/FastStrassen or plain kernels,
//!   optionally multi-threaded per rank), and results climb the tree
//!   with parents summing overlapping contributions (§4.3);
//! * [`grid`] — `pdsyrk_`-style 2D process grids and the 2D ScaLAPACK
//!   stand-in;
//! * [`baselines`] — the Figure 6 comparators: [`baselines::pdsyrk_like`]
//!   (1D ScaLAPACK), [`baselines::cosma_like`] (shape-aware
//!   communication-optimal grid) and [`baselines::caps_like`]
//!   (Communication-Avoiding Parallel Strassen, square only);
//! * [`carma_like`] / [`CarmaConfig`] — CARMA, the recursive-halving
//!   comparator the paper could not run (§5.5), re-implemented
//!   structurally;
//! * [`traffic`] — exact per-rank message/word prediction for AtA-D,
//!   audited against the simulator's counters and the Proposition 4.2
//!   bounds in `tests/traffic.rs`;
//! * [`wire`] — the wire layer: [`wire::WireFormat`] selects between
//!   dense blocks and §4.3.1's packed lower-triangle encoding
//!   ([`wire::SymPacked`]) for symmetric result blocks;
//! * [`DistPlan`] — the plan/execute split: tree + distribution layout
//!   built once, executed many times (the facade's sharded service
//!   keeps one per shape for its split lane).
//!
//! # Example
//!
//! ```
//! use ata_dist::{ata_d, AtaDConfig};
//! use ata_mat::{gen, reference, Matrix};
//! use ata_mpisim::{run, CostModel};
//!
//! let (m, n, ranks) = (32usize, 24usize, 4usize);
//! let a = gen::standard::<f64>(1, m, n);
//! let a_ref = &a;
//! let report = run(ranks, CostModel::zero(), move |comm| {
//!     let input = (comm.rank() == 0).then_some(a_ref);
//!     ata_d(input, m, n, comm, &AtaDConfig::default())
//! });
//! let c = report.results[0].as_ref().expect("root holds C");
//! let mut oracle = Matrix::zeros(n, n);
//! reference::syrk_ln(1.0, a.as_ref(), &mut oracle.as_mut());
//! assert!(c.max_abs_diff_lower(&oracle) < 1e-10);
//! ```

#![forbid(unsafe_code)]

mod algorithm;
pub mod baselines;
mod carma;
mod error;
pub mod grid;
pub mod traffic;
pub mod wire;

pub use algorithm::{ata_d, AtaDConfig, DistPlan};
pub use carma::{carma_like, CarmaConfig};
pub use error::{DistError, DistPhase};
pub use traffic::{plan_traffic, RoutePrice, TrafficPlan};
pub use wire::WireFormat;
