//! A message-passing simulator — the workspace's substitute for MPI and
//! for the paper's 12-node TeraStat cluster (2 x 8-core Xeon E5-2630v3
//! per node, §5.1), which is not available to this reproduction.
//!
//! Ranks run as OS threads and exchange typed messages through
//! selective-receive mailboxes (matching on `(source, tag)`, like
//! `MPI_Recv`). Every rank carries a **simulated clock** advanced by a
//! LogGP-style [`CostModel`]:
//!
//! * compute: `t += flops * flop_time` (callers report the flops of each
//!   kernel they run — the numerics still execute for real, so results
//!   are verified, but *timing* comes from the model);
//! * messages: the sender is busy for the latency `alpha`, and the
//!   payload arrives at `send_clock + alpha + words * beta`; the receiver
//!   clock becomes `max(own, arrival)`.
//!
//! Because matching is deterministic, the final clocks are independent
//! of the real thread interleaving: the simulation is reproducible even
//! on a single physical core, which is exactly why this design was
//! chosen (see DESIGN.md §3.7). The *critical path* — the maximum clock
//! over ranks — is what the Figure 6 harness reports as elapsed time,
//! mirroring the paper's definition of latency/bandwidth costs "computed
//! along the critical path" (§4.3.2, citing Yang & Miller).
//!
//! Traffic counters (messages and words sent per rank) are exact, and
//! the `ata-dist` tests audit them against Proposition 4.2.

//! ## Fault injection
//!
//! A [`Universe`] can carry a deterministic, seeded [`FaultPlan`]:
//! dropped messages, extra-latency deliveries, and rank crashes, all
//! keyed on per-edge/per-op counters so the same plan replays the same
//! faults on every run. The checked communication API
//! ([`Comm::send_checked`] / [`Comm::recv_checked`]) surfaces them as
//! typed [`CommError`]s — a dropped message becomes a
//! `Timeout` after the universe's `recv_deadline` simulated seconds,
//! and a crashed rank poisons its peers' mailboxes so they fail fast.

#![forbid(unsafe_code)]

pub mod collective;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod universe;

pub use comm::Comm;
pub use cost::CostModel;
pub use fault::{CommError, FaultPlan, FaultSpec};
pub use universe::{run, RankMetrics, RunReport, Universe};
