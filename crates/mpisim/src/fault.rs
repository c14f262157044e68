//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is a *schedule* of network and process faults fixed
//! before the universe starts: drop the `nth` message on a directed edge
//! `(from, to)`, delay such a message by extra LogGP seconds, or crash a
//! rank at its `k`-th communication operation. Because the plan is data
//! (not callbacks) and every rank's op/edge counters are deterministic,
//! the same plan over the same program produces the same fault sequence
//! on every run, independent of thread interleaving — chaos tests are
//! replayable from a single seed.
//!
//! Faults surface through the *checked* communication API
//! ([`crate::Comm::send_checked`] / [`crate::Comm::recv_checked`] and the
//! `_checked` collectives) as typed [`CommError`]s:
//!
//! * a dropped message leaves a tombstone at the receiver, which a
//!   deadline-carrying receive converts into [`CommError::Timeout`]
//!   after `recv_deadline` simulated seconds — never a hang;
//! * a crashed rank fails all of its own subsequent ops with
//!   [`CommError::Crashed`] and broadcasts a poison marker so peers
//!   blocked on it fail fast with [`CommError::PeerCrashed`].
//!
//! The infallible API ([`crate::Comm::send`] / [`crate::Comm::recv`])
//! still works under a plan — drops and delays apply — but surfacing a
//! fault through it panics with a descriptive message, because only the
//! checked API can report one.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A typed communication failure surfaced by the checked API.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommError {
    /// No matching message arrived within `recv_deadline` simulated
    /// seconds (the message was dropped, or is modeled to arrive later
    /// than the receiver was willing to wait).
    Timeout {
        /// Rank the receive was matching on.
        from: usize,
        /// Tag the receive was matching on.
        tag: u64,
    },
    /// The peer this receive was matching on crashed before satisfying
    /// it.
    PeerCrashed {
        /// The crashed peer's rank.
        from: usize,
    },
    /// This rank itself crashed (by plan) at the given communication op
    /// index; every subsequent checked op returns this.
    Crashed {
        /// The crashed rank (the caller's own rank).
        rank: usize,
        /// Zero-based communication-op index at which the crash fired.
        op: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { from, tag } => {
                write!(f, "receive timed out waiting for (src={from}, tag={tag})")
            }
            CommError::PeerCrashed { from } => write!(f, "peer rank {from} crashed"),
            CommError::Crashed { rank, op } => {
                write!(f, "rank {rank} crashed at communication op {op}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Bounds for [`FaultPlan::seeded`]: how many faults of each kind a
/// seeded plan may contain and where they may land.
///
/// Counts are drawn uniformly in `0..=max_*`, so a sweep over seeds
/// includes fault-free plans (retries can succeed) as well as
/// multi-fault ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Maximum dropped messages per plan.
    pub max_drops: usize,
    /// Maximum delayed messages per plan.
    pub max_delays: usize,
    /// Maximum crashed ranks per plan.
    pub max_crashes: usize,
    /// Dropped/delayed messages target the `nth` message on an edge with
    /// `nth < edge_horizon`.
    pub edge_horizon: u64,
    /// Crashes target op indices `k < op_horizon`.
    pub op_horizon: u64,
    /// Base extra latency for a delayed message (seconds of simulated
    /// time); each delay is scaled by a factor in `[0.5, 2)`.
    pub delay_secs: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            max_drops: 2,
            max_delays: 2,
            max_crashes: 1,
            edge_horizon: 6,
            op_horizon: 24,
            delay_secs: 1e-3,
        }
    }
}

impl FaultSpec {
    /// A spec that injects only delays — results stay bit-identical to
    /// the fault-free run, only the simulated clocks move.
    pub fn delays_only() -> Self {
        Self {
            max_drops: 0,
            max_delays: 4,
            max_crashes: 0,
            ..Self::default()
        }
    }
}

/// A deterministic schedule of injected faults (see the module docs).
///
/// Build one explicitly with [`FaultPlan::crash_rank`] (this crate's
/// tests also drop and delay single messages), or draw one from a seed with
/// [`FaultPlan::seeded`], then install it on a
/// [`crate::Universe`](crate::universe::Universe).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// `(from, to, nth)`: drop the `nth` (0-based) message sent on the
    /// directed edge `from -> to`.
    drops: BTreeSet<(usize, usize, u64)>,
    /// `(from, to, nth) -> extra_secs`: add simulated latency to that
    /// message's arrival.
    delays: BTreeMap<(usize, usize, u64), f64>,
    /// `rank -> k`: crash `rank` when it begins its `k`-th (0-based)
    /// communication op.
    crashes: BTreeMap<usize, u64>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty() && self.delays.is_empty() && self.crashes.is_empty()
    }

    /// Drop the `nth` (0-based) message sent from `from` to `to`.
    pub(crate) fn drop_message(mut self, from: usize, to: usize, nth: u64) -> Self {
        self.drops.insert((from, to, nth));
        self
    }

    /// Delay the `nth` (0-based) message from `from` to `to` by
    /// `extra_secs` of simulated arrival latency.
    pub(crate) fn delay_message(
        mut self,
        from: usize,
        to: usize,
        nth: u64,
        extra_secs: f64,
    ) -> Self {
        assert!(extra_secs >= 0.0, "negative delay");
        self.delays.insert((from, to, nth), extra_secs);
        self
    }

    /// Crash `rank` when it begins its `k`-th (0-based) communication
    /// op. A dropped message scheduled on the same edge still applies to
    /// messages the rank sent before crashing.
    pub fn crash_rank(mut self, rank: usize, op: u64) -> Self {
        self.crashes.insert(rank, op);
        self
    }

    /// Draw a plan from a seed for a `procs`-rank universe, bounded by
    /// `spec`. Deterministic: same `(seed, procs, spec)` — same plan.
    pub fn seeded(seed: u64, procs: usize, spec: &FaultSpec) -> Self {
        let mut plan = Self::new();
        if procs < 2 {
            return plan;
        }
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(procs as u64),
        );
        let edge = |rng: &mut StdRng| {
            let from = rng.random_range(0..procs);
            let mut to = rng.random_range(0..procs - 1);
            if to >= from {
                to += 1;
            }
            (from, to)
        };
        if spec.max_drops > 0 {
            for _ in 0..rng.random_range(0..=spec.max_drops) {
                let (from, to) = edge(&mut rng);
                let nth = rng.random_range(0..spec.edge_horizon.max(1));
                plan = plan.drop_message(from, to, nth);
            }
        }
        if spec.max_delays > 0 {
            for _ in 0..rng.random_range(0..=spec.max_delays) {
                let (from, to) = edge(&mut rng);
                let nth = rng.random_range(0..spec.edge_horizon.max(1));
                let extra = spec.delay_secs * (0.5 + 1.5 * rng.random_unit());
                plan = plan.delay_message(from, to, nth, extra);
            }
        }
        if spec.max_crashes > 0 {
            for _ in 0..rng.random_range(0..=spec.max_crashes) {
                let rank = rng.random_range(0..procs);
                let op = rng.random_range(0..spec.op_horizon.max(1));
                plan = plan.crash_rank(rank, op);
            }
        }
        plan
    }

    /// Is the `nth` message on `from -> to` scheduled to be dropped?
    pub(crate) fn is_dropped(&self, from: usize, to: usize, nth: u64) -> bool {
        self.drops.contains(&(from, to, nth))
    }

    /// Extra arrival latency for the `nth` message on `from -> to`.
    pub(crate) fn delay(&self, from: usize, to: usize, nth: u64) -> Option<f64> {
        self.delays.get(&(from, to, nth)).copied()
    }

    /// The op index at which `rank` crashes, if scheduled.
    pub(crate) fn crash_op(&self, rank: usize) -> Option<u64> {
        self.crashes.get(&rank).copied()
    }

    /// Number of scheduled faults by kind: `(drops, delays, crashes)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.drops.len(), self.delays.len(), self.crashes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let spec = FaultSpec::default();
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, 4, &spec);
            let b = FaultPlan::seeded(seed, 4, &spec);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn seeded_sweep_includes_faulty_and_fault_free_plans() {
        let spec = FaultSpec::default();
        let plans: Vec<_> = (0..64).map(|s| FaultPlan::seeded(s, 4, &spec)).collect();
        assert!(plans.iter().any(|p| p.is_empty()), "no fault-free seed");
        assert!(plans.iter().any(|p| !p.is_empty()), "no faulty seed");
        let (d, l, c) = plans.iter().fold((0, 0, 0), |acc, p| {
            let (d, l, c) = p.counts();
            (acc.0 + d, acc.1 + l, acc.2 + c)
        });
        assert!(d > 0 && l > 0 && c > 0, "sweep missing a fault kind");
    }

    #[test]
    fn seeded_respects_spec_bounds() {
        let spec = FaultSpec {
            max_drops: 1,
            max_delays: 0,
            max_crashes: 0,
            ..FaultSpec::default()
        };
        for seed in 0..64 {
            let (d, l, c) = FaultPlan::seeded(seed, 8, &spec).counts();
            assert!(d <= 1 && l == 0 && c == 0, "seed {seed}: {d}/{l}/{c}");
        }
    }

    #[test]
    fn single_rank_universe_gets_no_faults() {
        let spec = FaultSpec::default();
        for seed in 0..16 {
            assert!(FaultPlan::seeded(seed, 1, &spec).is_empty());
        }
    }

    #[test]
    fn builders_register_queries() {
        let plan = FaultPlan::new()
            .drop_message(0, 1, 2)
            .delay_message(1, 0, 0, 0.5)
            .crash_rank(2, 7);
        assert!(plan.is_dropped(0, 1, 2));
        assert!(!plan.is_dropped(0, 1, 3));
        assert_eq!(plan.delay(1, 0, 0), Some(0.5));
        assert_eq!(plan.delay(0, 1, 0), None);
        assert_eq!(plan.crash_op(2), Some(7));
        assert_eq!(plan.crash_op(0), None);
        assert_eq!(plan.counts(), (1, 1, 1));
    }

    #[test]
    fn error_display_is_descriptive() {
        let t = CommError::Timeout { from: 3, tag: 9 };
        assert!(t.to_string().contains("src=3"));
        let p = CommError::PeerCrashed { from: 1 };
        assert!(p.to_string().contains("rank 1"));
        let c = CommError::Crashed { rank: 2, op: 5 };
        assert!(c.to_string().contains("op 5"));
    }
}
