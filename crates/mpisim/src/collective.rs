//! SPMD collectives built on the point-to-point layer.
//!
//! Every rank must call the same collective in the same order (the usual
//! MPI contract). Rooted operations use rank 0 as the root, matching the
//! paper's distribute-compute-retrieve structure where `p0` owns the
//! input and the result (§4.3).
//!
//! The *tree-pipelined* variable-count pair
//! [`Comm::tree_scatterv_checked`] / [`Comm::tree_gatherv`] is what the
//! refactored distributed stack builds on — AtA-D's distribution phase
//! scatters its per-rank operand chunks, and the `pdsyrk` baseline's
//! band retrieval gathers — a recursive-halving binomial tree over
//! contiguous rank ranges. Under
//! the LogGP clock this pipelines — while the root is busy with the
//! latency of its second send, the first subtree's leader is already
//! forwarding — so the root pays `O(log P)` latencies instead of one per
//! remote leaf block, at the cost of forwarded bandwidth on interior
//! ranks. The per-rank payload sizes (`counts`) must be known on every
//! rank (the usual `MPI_Scatterv`/`MPI_Gatherv` contract); AtA-D derives
//! them deterministically from the task tree and the wire format.

use crate::comm::{Comm, COLLECTIVE_TAG_BASE};
use crate::fault::CommError;

fn ceil_log2(x: usize) -> u32 {
    (usize::BITS - x.saturating_sub(1).leading_zeros()).min(usize::BITS - 1)
}

impl<T: Send + 'static> Comm<T> {
    fn coll_tag(&mut self, round: u32) -> u64 {
        // Collectives are globally ordered per the SPMD contract, so a
        // per-round offset inside the reserved space cannot collide with
        // user tags. Distinct collectives are separated because each
        // round's matching is by (src, tag) and sources differ.
        COLLECTIVE_TAG_BASE + round as u64
    }

    /// Tree-pipelined rooted scatter (`MPI_Scatterv` on a binomial
    /// tree): rank 0 passes one chunk per rank (`chunks[r]` goes to rank
    /// `r`); every rank returns its chunk. `counts[r]` must equal
    /// `chunks[r].len()` and be known on **all** ranks — receivers use
    /// it to carve forwarded payloads, so no sizes travel on the wire.
    ///
    /// The tree is recursive halving over contiguous rank ranges: the
    /// leader of `[lo, hi)` ships the concatenated chunks of the upper
    /// half `[mid, hi)` to rank `mid`, which forwards within its own
    /// half concurrently. The root therefore sends `ceil(log2 P)`
    /// messages (a linear scatter sends one per rank) and the same
    /// total words; interior ranks pay forwarding bandwidth, which the
    /// LogGP clock overlaps across subtrees.
    ///
    /// # Errors
    /// Injected faults surface as `Err(CommError)`.
    ///
    /// # Panics
    /// If the root passes `None` / wrong-shape chunks, a non-root passes
    /// `Some`, or `counts` disagrees with the universe size — programming
    /// errors, not faults.
    pub fn tree_scatterv_checked(
        &mut self,
        chunks: Option<Vec<Vec<T>>>,
        counts: &[usize],
    ) -> Result<Vec<T>, CommError> {
        let rank = self.rank();
        let size = self.size();
        assert_eq!(counts.len(), size, "need one count per rank");
        let mut held: Vec<T> = if rank == 0 {
            let chunks = chunks.expect("root must provide scatter chunks");
            assert_eq!(chunks.len(), size, "need exactly one chunk per rank");
            for (r, c) in chunks.iter().enumerate() {
                assert_eq!(c.len(), counts[r], "chunk {r} disagrees with counts");
            }
            chunks.into_iter().flatten().collect()
        } else {
            assert!(chunks.is_none(), "non-root rank {rank} must pass None");
            Vec::new()
        };
        let (mut lo, mut hi) = (0usize, size);
        let mut round = 0u32;
        while hi - lo > 1 {
            let span = hi - lo;
            let mid = lo + (1usize << (ceil_log2(span) - 1));
            let tag = self.coll_tag(u32::MAX - 200 - round);
            if rank < mid {
                if rank == lo {
                    let keep: usize = counts[lo..mid].iter().sum();
                    let tail = held.split_off(keep);
                    self.send_impl_checked(mid, tag, tail)?;
                }
                hi = mid;
            } else {
                if rank == mid {
                    held = self.recv_impl_checked(lo, tag)?;
                }
                lo = mid;
            }
            round += 1;
        }
        debug_assert_eq!(held.len(), counts[rank], "rank {rank} chunk size");
        Ok(held)
    }

    /// Tree-pipelined rooted gather (`MPI_Gatherv` on a binomial tree):
    /// every rank contributes `data` (of length `counts[rank]`, known on
    /// all ranks); the root returns `Some(vec indexed by rank)`,
    /// everyone else `None`.
    ///
    /// The exact mirror of [`Comm::tree_scatterv_checked`]: subtree leaders
    /// accumulate their half before forwarding down-tree, so the root
    /// receives `ceil(log2 P)` messages instead of `P - 1` — the
    /// retrieval-phase analogue of the distribution pipelining.
    ///
    /// # Panics
    /// If `data.len() != counts[rank]` or `counts` disagrees with the
    /// universe size.
    pub fn tree_gatherv(&mut self, data: Vec<T>, counts: &[usize]) -> Option<Vec<Vec<T>>> {
        let rank = self.rank();
        let size = self.size();
        assert_eq!(counts.len(), size, "need one count per rank");
        assert_eq!(
            data.len(),
            counts[rank],
            "rank {rank} payload disagrees with counts"
        );
        // Record this rank's descent through the scatter splits, then
        // replay it bottom-up: deepest merges first, root hop last.
        let mut splits: Vec<(usize, usize, u32)> = Vec::new();
        let (mut lo, mut hi) = (0usize, size);
        let mut round = 0u32;
        while hi - lo > 1 {
            let span = hi - lo;
            let mid = lo + (1usize << (ceil_log2(span) - 1));
            splits.push((lo, mid, round));
            if rank < mid {
                hi = mid;
            } else {
                lo = mid;
            }
            round += 1;
        }
        let mut held = data;
        for &(lo, mid, round) in splits.iter().rev() {
            let tag = self.coll_tag(u32::MAX - 300 - round);
            if rank == mid {
                // My subtree [mid, hi) is fully accumulated: ship it.
                self.send_impl(lo, tag, std::mem::take(&mut held));
            } else if rank == lo {
                let tail = self.recv_impl(mid, tag);
                held.extend(tail);
            }
        }
        if rank == 0 {
            let mut out = Vec::with_capacity(size);
            let mut iter = held.into_iter();
            for &c in counts {
                out.push(iter.by_ref().take(c).collect());
            }
            Some(out)
        } else {
            None
        }
    }

    /// All-gather (`MPI_Allgatherv`): every rank contributes a payload
    /// and every rank returns the list indexed by rank. Payload lengths
    /// may differ per rank — receivers learn them from the messages
    /// themselves.
    ///
    /// Implemented as a direct exchange (`P(P-1)` messages); the
    /// workspace only uses it at coarse granularity, where the paper's
    /// `O(log P)` latency terms are dominated by bandwidth anyway.
    pub fn allgather(&mut self, data: Vec<T>) -> Vec<Vec<T>>
    where
        T: Clone,
    {
        let rank = self.rank();
        let size = self.size();
        let tag = self.coll_tag(u32::MAX - 90);
        for r in 0..size {
            if r != rank {
                self.send_impl(r, tag, data.clone());
            }
        }
        (0..size)
            .map(|src| {
                if src == rank {
                    data.clone()
                } else {
                    self.recv_impl(src, tag)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, CostModel};

    #[test]
    fn gather_collects_in_rank_order() {
        let report = run(5, CostModel::zero(), |comm| {
            comm.tree_gatherv(vec![comm.rank() as f64], &[1; 5])
        });
        let gathered = report.results[0].as_ref().expect("root gathers");
        assert_eq!(gathered.len(), 5);
        for (i, v) in gathered.iter().enumerate() {
            assert_eq!(v, &vec![i as f64]);
        }
        assert!(report.results[1].is_none());
    }

    #[test]
    fn barrier_synchronizes_clocks_loosely() {
        // After an all-gather, which hears from every rank, every
        // rank's clock is at least the slowest rank's clock before it.
        let model = CostModel::new(0.0, 0.0, 1.0);
        let report = run::<f64, _, _>(4, model, |comm| {
            comm.add_compute_flops(comm.rank() as f64); // rank r: r seconds
            let _ = comm.allgather(Vec::new());
            comm.clock()
        });
        for (i, c) in report.results.iter().enumerate() {
            assert!(*c >= 3.0 - 1e-12, "rank {i} clock {c} below slowest");
        }
    }

    #[test]
    fn reduce_tree_is_logarithmic_in_messages() {
        let report = run(16, CostModel::zero(), |comm| {
            let _ = comm.tree_gatherv(vec![1.0f64], &[1; 16]);
        });
        // Binomial tree: exactly size - 1 messages in total.
        assert_eq!(report.total_msgs(), 15);
        // And the root receives only log2(16) = 4 of them directly.
        let root_recv = report
            .metrics
            .iter()
            .filter(|m| m.rank != 0)
            .filter(|m| m.msgs_sent > 0)
            .count();
        assert_eq!(root_recv, 15, "every non-root sends exactly once");
    }

    #[test]
    fn mixed_collectives_in_sequence() {
        let report = run(6, CostModel::zero(), |comm| {
            let chunks = (comm.rank() == 0).then(|| vec![vec![2.0f64]; 6]);
            let b = comm
                .tree_scatterv_checked(chunks, &[1; 6])
                .expect("fault-free");
            let all = comm.allgather(vec![b[0] * comm.rank() as f64]);
            let sum = all.iter().map(|v| v[0]).sum::<f64>();
            comm.tree_gatherv(vec![sum], &[1; 6])
        });
        let sums = report.results[0].as_ref().expect("root");
        assert!(sums
            .iter()
            .all(|s| s[0] == 2.0 * (1 + 2 + 3 + 4 + 5) as f64));
    }

    #[test]
    fn scatter_delivers_per_rank_chunks() {
        let report = run(4, CostModel::zero(), |comm| {
            let chunks = (comm.rank() == 0).then(|| {
                (0..4)
                    .map(|r| vec![r as f64; r + 1]) // ragged on purpose
                    .collect::<Vec<_>>()
            });
            comm.tree_scatterv_checked(chunks, &[1, 2, 3, 4])
                .expect("fault-free")
        });
        for (r, chunk) in report.results.iter().enumerate() {
            assert_eq!(chunk, &vec![r as f64; r + 1], "rank {r}");
        }
    }

    #[test]
    fn tree_scatterv_delivers_ragged_chunks() {
        for size in [1usize, 2, 3, 5, 8, 13] {
            let counts: Vec<usize> = (0..size).map(|r| r + 1).collect();
            let counts_ref = &counts;
            let report = run(size, CostModel::zero(), move |comm| {
                let chunks = (comm.rank() == 0)
                    .then(|| (0..size).map(|r| vec![r as f64; r + 1]).collect::<Vec<_>>());
                comm.tree_scatterv_checked(chunks, counts_ref)
                    .expect("fault-free")
            });
            for (r, chunk) in report.results.iter().enumerate() {
                assert_eq!(chunk, &vec![r as f64; r + 1], "size={size} rank={r}");
            }
        }
    }

    #[test]
    fn tree_gatherv_collects_in_rank_order() {
        for size in [1usize, 2, 4, 6, 9, 16] {
            let counts: Vec<usize> = (0..size).map(|r| (r % 3) + 1).collect();
            let counts_ref = &counts;
            let report = run(size, CostModel::zero(), move |comm| {
                let r = comm.rank();
                comm.tree_gatherv(vec![r as f64; counts_ref[r]], counts_ref)
            });
            let gathered = report.results[0].as_ref().expect("root gathers");
            for (r, part) in gathered.iter().enumerate() {
                assert_eq!(part, &vec![r as f64; (r % 3) + 1], "size={size} rank={r}");
            }
            for r in 1..size {
                assert!(report.results[r].is_none(), "rank {r} must return None");
            }
        }
    }

    #[test]
    fn tree_scatter_root_sends_logarithmically_many_messages() {
        let size = 16usize;
        let counts = vec![4usize; size];
        let counts_ref = &counts;
        let report = run(size, CostModel::zero(), move |comm| {
            let chunks = (comm.rank() == 0).then(|| (0..size).map(|r| vec![r as f64; 4]).collect());
            let _ = comm.tree_scatterv_checked(chunks, counts_ref);
        });
        // Binomial tree: P - 1 messages in total, only log2(P) from the
        // root (vs P - 1 root messages for the linear scatter).
        assert_eq!(report.total_msgs(), 15);
        assert_eq!(report.metrics[0].msgs_sent, 4);
        // The root still ships every remote word exactly once.
        assert_eq!(report.metrics[0].words_sent, 4 * 15);
        // Interior forwarders pay bandwidth: total words exceed the
        // linear scatter's.
        assert!(report.total_words() > 4 * 15);
    }

    #[test]
    fn tree_gather_root_receives_logarithmically_many_messages() {
        let size = 16usize;
        let counts = vec![3usize; size];
        let counts_ref = &counts;
        let report = run(size, CostModel::zero(), move |comm| {
            let r = comm.rank();
            comm.tree_gatherv(vec![r as f64; 3], counts_ref)
        });
        assert!(report.results[0].is_some());
        assert_eq!(report.metrics[0].msgs_recv, 4);
        assert_eq!(report.metrics[0].words_recv, 3 * 15);
    }

    #[test]
    fn tree_scatter_gather_roundtrip_with_empty_chunks() {
        // Zero-length chunks (ranks owning no leaves) must flow through
        // both trees unharmed.
        let size = 7usize;
        let counts = vec![2usize, 0, 3, 0, 0, 1, 2];
        let counts_ref = &counts;
        let report = run(size, CostModel::zero(), move |comm| {
            let chunks = (comm.rank() == 0).then(|| {
                counts_ref
                    .iter()
                    .enumerate()
                    .map(|(r, &c)| vec![r as f64 * 10.0; c])
                    .collect()
            });
            let mine = comm
                .tree_scatterv_checked(chunks, counts_ref)
                .expect("fault-free");
            comm.tree_gatherv(mine, counts_ref)
        });
        let back = report.results[0].as_ref().expect("root");
        for (r, part) in back.iter().enumerate() {
            assert_eq!(part, &vec![r as f64 * 10.0; counts[r]], "rank {r}");
        }
    }

    #[test]
    fn tree_scatter_pipelines_under_loggp() {
        // With latency-only costs, a linear scatter's root pays
        // alpha * (P - 1); the tree's critical path is O(log P) alphas
        // per branch. At P = 16 the tree must finish strictly sooner.
        let model = CostModel::new(1.0, 0.0, 0.0);
        let size = 16usize;
        let counts = vec![1usize; size];
        let counts_ref = &counts;
        let tree = run(size, model, move |comm| {
            let chunks = (comm.rank() == 0).then(|| (0..size).map(|r| vec![r as f64]).collect());
            let _ = comm.tree_scatterv_checked(chunks, counts_ref);
        });
        let linear = (size - 1) as f64;
        assert!(
            tree.critical_path() < linear,
            "tree {} !< linear {linear}",
            tree.critical_path()
        );
    }

    #[test]
    #[should_panic(expected = "disagrees with counts")]
    fn tree_scatterv_rejects_mismatched_counts() {
        let _ = run(2, CostModel::zero(), |comm| {
            let counts = vec![1usize, 1];
            let chunks = (comm.rank() == 0).then(|| vec![vec![0.0f64; 2], vec![0.0]]);
            let _ = comm.tree_scatterv_checked(chunks, &counts);
        });
    }

    #[test]
    fn allgather_everyone_sees_everyone_in_rank_order() {
        let report = run(5, CostModel::zero(), |comm| {
            comm.allgather(vec![comm.rank() as f64; comm.rank() + 1])
        });
        for (r, all) in report.results.iter().enumerate() {
            assert_eq!(all.len(), 5, "rank {r}");
            for (src, part) in all.iter().enumerate() {
                assert_eq!(part, &vec![src as f64; src + 1], "rank {r} view of {src}");
            }
        }
    }

    #[test]
    fn allgather_single_rank_is_identity() {
        let report = run(1, CostModel::zero(), |comm| comm.allgather(vec![9.0f64]));
        assert_eq!(report.results[0], vec![vec![9.0]]);
    }

    #[test]
    #[should_panic(expected = "one chunk per rank")]
    fn scatter_wrong_chunk_count_panics() {
        let _ = run(3, CostModel::zero(), |comm| {
            let chunks = (comm.rank() == 0).then(|| vec![vec![0.0f64]; 2]);
            if comm.rank() == 0 {
                let _ = comm.tree_scatterv_checked(chunks, &[1; 3]);
            }
        });
    }

    #[test]
    fn collectives_compose_with_point_to_point() {
        // An all-gathered sum, then a p2p exchange that depends on it.
        let report = run(4, CostModel::zero(), |comm| {
            let total: f64 = comm.allgather(vec![1.0f64]).iter().map(|v| v[0]).sum();
            if comm.rank() == 0 {
                comm.send(1, 3, vec![total * 10.0]);
                total
            } else if comm.rank() == 1 {
                comm.recv(0, 3)[0]
            } else {
                total
            }
        });
        assert_eq!(report.results[0], 4.0);
        assert_eq!(report.results[1], 40.0);
        assert_eq!(report.results[3], 4.0);
    }
}
