//! Exact traffic prediction for AtA-D — the analytical side of
//! Proposition 4.2.
//!
//! [`ata_d_traffic`] (and [`plan_traffic`], its plan-level form) replays
//! the communication schedule of [`crate::DistPlan::execute`] on the
//! task tree *without running anything*:
//!
//! * the **distribution** phase walks the same binomial scatter tree as
//!   `tree_scatterv_checked`, charging each subtree leader the concatenated
//!   operand words it forwards;
//! * the **retrieval** phase ships every node's `C` block to its
//!   parent's owner when they differ, in the plan's [`WireFormat`] —
//!   symmetric blocks count `n(n+1)/2` words under
//!   [`WireFormat::SymPacked`], `n^2` under [`WireFormat::Dense`].
//!
//! Because the simulator's counters are exact, `tests/traffic.rs`
//! asserts bit-exact agreement between this prediction and
//! [`ata_mpisim::RankMetrics`] — send *and* receive side — then checks
//! the Proposition 4.2 scaling: per-level volume is `O(mn + n^2)`, the
//! level count grows like Eq. 5's `l(P)`, and the packed wire format
//! strictly reduces the words converging on the root versus dense.

use crate::algorithm::{AtaDConfig, DistPlan};
use crate::wire::WireFormat;

/// Predicted per-rank traffic (messages and payload words, both
/// directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankTraffic {
    /// Messages this rank sends.
    pub msgs: u64,
    /// Payload words this rank sends.
    pub words: u64,
    /// Messages this rank receives.
    pub msgs_recv: u64,
    /// Payload words this rank receives.
    pub words_recv: u64,
}

/// Predicted traffic of a whole AtA-D run.
#[derive(Debug, Clone)]
pub struct TrafficPlan {
    /// Per-rank prediction, indexed by rank.
    pub per_rank: Vec<RankTraffic>,
    /// Depth of the task tree the prediction was derived from.
    pub levels: usize,
    /// Wire format the prediction was derived for.
    pub wire: WireFormat,
}

/// The predicted communication bill of dispatching one problem through
/// AtA-D — the quote a router compares against an admission budget
/// *before* committing ranks to the split (see `ata::shard`).
///
/// Produced by [`TrafficPlan::price`]; every field is a deterministic
/// replay of the schedule, so two quotes for the same `(m, n, P, wire)`
/// are bit-identical and match the simulator's counters exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutePrice {
    /// Words converging on the root during retrieval.
    pub root_recv_words: u64,
    /// Words the root scatters during distribution.
    pub root_sent_words: u64,
    /// The heaviest rank's sent + received words — the per-processor
    /// bandwidth of Proposition 4.2, and the natural admission metric:
    /// it bounds how long any one link is busy on this dispatch.
    pub max_rank_words: u64,
    /// Total words moved by the whole dispatch.
    pub total_words: u64,
    /// Total messages (latency term).
    pub total_msgs: u64,
}

impl TrafficPlan {
    /// Collapse the per-rank prediction into a [`RoutePrice`] quote.
    pub fn price(&self) -> RoutePrice {
        RoutePrice {
            root_recv_words: self.root_recv_words(),
            root_sent_words: self.root_sent_words(),
            max_rank_words: self.max_rank_words(),
            total_words: self.total_words(),
            total_msgs: self.total_msgs(),
        }
    }

    /// Total words sent by all ranks.
    pub fn total_words(&self) -> u64 {
        self.per_rank.iter().map(|r| r.words).sum()
    }

    /// Total messages sent by all ranks.
    pub fn total_msgs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.msgs).sum()
    }

    /// Words converging on the root — the retrieval-phase bandwidth term
    /// of Proposition 4.2 that the packed wire format attacks.
    pub fn root_recv_words(&self) -> u64 {
        self.per_rank[0].words_recv
    }

    /// Words leaving the root — the distribution-phase bandwidth term
    /// (wire-format independent: operand blocks are always dense).
    pub fn root_sent_words(&self) -> u64 {
        self.per_rank[0].words
    }

    /// The heaviest rank's total word traffic (sent + received): the
    /// per-processor bandwidth of Proposition 4.2's critical path.
    pub fn max_rank_words(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.words + r.words_recv)
            .max()
            .unwrap_or(0)
    }

    /// The Proposition 4.2-style upper bound on any one rank's word
    /// traffic for an `m x n` input: `2 (mn + n^2)` per tree level, plus
    /// one level's worth for the final retrieval into `p0`.
    pub fn word_bound(m: usize, n: usize, levels: usize) -> u64 {
        2 * (m * n + n * n) as u64 * (levels as u64 + 1)
    }
}

fn ceil_log2(x: usize) -> u32 {
    (usize::BITS - x.saturating_sub(1).leading_zeros()).min(usize::BITS - 1)
}

/// Charge the binomial-tree scatter of `counts` onto `per_rank` —
/// the exact mirror of `Comm::tree_scatterv_checked`'s recursion.
fn scatter_traffic(counts: &[usize], per_rank: &mut [RankTraffic]) {
    fn rec(lo: usize, hi: usize, counts: &[usize], per_rank: &mut [RankTraffic]) {
        if hi - lo <= 1 {
            return;
        }
        let mid = lo + (1usize << (ceil_log2(hi - lo) - 1));
        let tail: u64 = counts[mid..hi].iter().map(|&c| c as u64).sum();
        per_rank[lo].msgs += 1;
        per_rank[lo].words += tail;
        per_rank[mid].msgs_recv += 1;
        per_rank[mid].words_recv += tail;
        rec(lo, mid, counts, per_rank);
        rec(mid, hi, counts, per_rank);
    }
    rec(0, counts.len(), counts, per_rank);
}

/// Replay the communication schedule of a prebuilt [`DistPlan`].
pub fn plan_traffic(plan: &DistPlan) -> TrafficPlan {
    let procs = plan.procs();
    let tree = plan.tree();
    let wire = plan.config().wire;
    let mut per_rank = vec![RankTraffic::default(); procs];

    // Distribution: the binomial scatter of the per-rank operand chunks
    // (every rank participates; empty chunks still ride the tree).
    if procs > 1 {
        scatter_traffic(plan.scatter_counts(), &mut per_rank);
    }

    // Retrieval: every node ships its C block to its parent's owner when
    // the owners differ, encoded per the wire format.
    for node in &tree.nodes {
        if let Some(pid) = node.parent {
            let parent_owner = tree.nodes[pid].owner;
            if parent_owner != node.owner {
                let words = wire.c_words(node.kind, node.c.rows(), node.c.cols()) as u64;
                per_rank[node.owner].msgs += 1;
                per_rank[node.owner].words += words;
                per_rank[parent_owner].msgs_recv += 1;
                per_rank[parent_owner].words_recv += words;
            }
        }
    }

    TrafficPlan {
        per_rank,
        levels: tree.depth,
        wire,
    }
}

/// Replay AtA-D's communication schedule for an `m x n` input on
/// `procs` ranks under `cfg` (load balance, wire format).
///
/// # Panics
/// Same contract as [`DistPlan::build`].
pub fn ata_d_traffic(m: usize, n: usize, procs: usize, cfg: &AtaDConfig) -> TrafficPlan {
    plan_traffic(&DistPlan::build(m, n, procs, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(wire: WireFormat) -> AtaDConfig {
        AtaDConfig {
            wire,
            ..AtaDConfig::default()
        }
    }

    #[test]
    fn single_rank_is_silent() {
        for wire in [WireFormat::Dense, WireFormat::SymPacked] {
            let plan = ata_d_traffic(64, 48, 1, &cfg(wire));
            assert_eq!(plan.total_words(), 0);
            assert_eq!(plan.total_msgs(), 0);
            assert_eq!(plan.root_recv_words(), 0);
        }
    }

    #[test]
    fn multi_rank_runs_communicate() {
        let plan = ata_d_traffic(64, 48, 8, &AtaDConfig::default());
        assert!(plan.per_rank[0].words > 0, "root distributes blocks");
        assert!(plan.root_recv_words() > 0, "results converge on the root");
        assert!(plan.total_msgs() > 0);
    }

    #[test]
    fn send_and_recv_sides_balance() {
        for p in [2usize, 4, 8, 13] {
            let plan = ata_d_traffic(64, 48, p, &AtaDConfig::default());
            let sent: u64 = plan.per_rank.iter().map(|r| r.words).sum();
            let recv: u64 = plan.per_rank.iter().map(|r| r.words_recv).sum();
            assert_eq!(sent, recv, "P={p}: every sent word is received once");
            let ms: u64 = plan.per_rank.iter().map(|r| r.msgs).sum();
            let mr: u64 = plan.per_rank.iter().map(|r| r.msgs_recv).sum();
            assert_eq!(ms, mr, "P={p}");
        }
    }

    #[test]
    fn packed_wire_strictly_cuts_root_recv_words() {
        for p in [2usize, 4, 8, 16, 32] {
            let dense = ata_d_traffic(96, 80, p, &cfg(WireFormat::Dense));
            let packed = ata_d_traffic(96, 80, p, &cfg(WireFormat::SymPacked));
            assert!(
                packed.root_recv_words() < dense.root_recv_words(),
                "P={p}: packed {} !< dense {}",
                packed.root_recv_words(),
                dense.root_recv_words()
            );
            // Distribution is format-independent.
            assert_eq!(packed.root_sent_words(), dense.root_sent_words());
        }
    }

    #[test]
    fn per_rank_words_respect_the_bound() {
        for p in [2usize, 4, 8, 16, 32, 64] {
            let (m, n) = (96usize, 80usize);
            for wire in [WireFormat::Dense, WireFormat::SymPacked] {
                let plan = ata_d_traffic(m, n, p, &cfg(wire));
                let bound = TrafficPlan::word_bound(m, n, plan.levels);
                assert!(
                    plan.max_rank_words() <= bound,
                    "P={p} {wire:?}: {} words > bound {bound}",
                    plan.max_rank_words()
                );
            }
        }
    }

    #[test]
    fn price_is_a_faithful_summary() {
        for p in [1usize, 2, 8, 16] {
            let plan = ata_d_traffic(96, 80, p, &AtaDConfig::default());
            let quote = plan.price();
            assert_eq!(quote.root_recv_words, plan.root_recv_words());
            assert_eq!(quote.root_sent_words, plan.root_sent_words());
            assert_eq!(quote.max_rank_words, plan.max_rank_words());
            assert_eq!(quote.total_words, plan.total_words());
            assert_eq!(quote.total_msgs, plan.total_msgs());
            // The quote is deterministic: pricing twice is bit-identical.
            assert_eq!(
                quote,
                ata_d_traffic(96, 80, p, &AtaDConfig::default()).price()
            );
        }
    }

    #[test]
    fn scatter_is_logarithmic_at_the_root() {
        // The old rooted-linear distribution sent one message per remote
        // leaf operand; the binomial tree sends ceil(log2 P) from rank 0.
        // Rank 0 owns the whole first-child chain up to the root, so it
        // sends nothing during retrieval: its message count is exactly
        // the scatter's ceil(log2 16) = 4.
        let plan = ata_d_traffic(128, 128, 16, &AtaDConfig::default());
        assert_eq!(plan.per_rank[0].msgs, 4);
    }

    #[test]
    fn levels_grow_logarithmically() {
        let l8 = ata_d_traffic(128, 128, 8, &AtaDConfig::default()).levels;
        let l64 = ata_d_traffic(128, 128, 64, &AtaDConfig::default()).levels;
        assert!(
            l64 <= l8 + 2,
            "levels must grow like Eq. 5, got {l8} -> {l64}"
        );
    }
}
