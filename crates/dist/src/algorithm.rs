//! AtA-D (Algorithm 4, §4.2–§4.3): the distributed `A^T A` on the
//! simulated cluster.
//!
//! Structure follows the paper's distribute–compute–retrieve phases,
//! built on the plan/execute split of [`DistPlan`]:
//!
//! 1. **Planning** — every rank deterministically builds the same
//!    [`DistTree`] (the §4.1 task-tree process mapping) plus the
//!    distribution layout: per-rank scatter payload sizes derived from
//!    the leaves each rank owns. A [`DistPlan`] is built once per
//!    `(m, n, P, config)` and executed any number of times — the facade's
//!    sharded service keeps one per shape for its split lane, so serving
//!    loops never rebuild the tree.
//! 2. **Distribution** (§4.3) — `p0` owns the input; it assembles one
//!    concatenated operand chunk per rank (every remotely-owned leaf's
//!    block(s), in tree order) and ships them down a binomial tree with
//!    [`Comm::tree_scatterv_checked`]. The root pays `O(log P)` latencies
//!    instead of one per leaf block, and transfers overlap down the
//!    subtrees under the LogGP clock.
//! 3. **Compute** — every rank executes its leaf tasks locally: `A^T A`
//!    leaves run the serial AtA recursion (Algorithm 1), `A^T B` leaves
//!    run FastStrassen — or the plain BLAS-substitute kernels when
//!    [`AtaDConfig::strassen_leaves`] is off (the §4.3.1 leaf-kernel
//!    choice, ablated in `ata-bench/bin/ablation`). With
//!    [`AtaDConfig::threads_per_rank`] > 1 the leaves run their
//!    shared-memory variants, modeling the paper's hybrid SM+DM setup
//!    (Table 1: 6 processes x 16 threads).
//! 4. **Retrieval** — results climb the tree: each node's owner sums its
//!    children's contributions (children writing the same `C` block are
//!    *summed by the parent*, §4.1.1) and forwards the accumulated block
//!    to its parent's owner, until the root holds the lower triangle.
//!    Symmetric (`A^T A`) blocks travel in the §4.3.1 packed encoding
//!    when [`AtaDConfig::wire`] is [`WireFormat::SymPacked`] (the
//!    default), cutting the words that converge on the root.
//!
//! Every message is accounted by the LogGP clock of [`Comm`]; compute is
//! charged at the model's flop rate (divided by `threads_per_rank`), so
//! critical paths mirror the paper's §4.3.2 cost analysis. The exact
//! per-rank message/word counts are predicted by [`crate::traffic`] and
//! audited against Proposition 4.2 in `tests/traffic.rs`.

use std::collections::HashMap;

use ata_core::analysis::ata_mults;
use ata_core::parallel::ata_s;
use ata_core::serial::{ata_into_with_kind, StrassenKind};
use ata_core::tasktree::{ComputeKind, DistNode, DistTree};
use ata_kernels::par::{par_gemm_tn, par_syrk_ln};
use ata_kernels::{gemm_tn, syrk_ln, CacheConfig};
use ata_mat::{ops, MatRef, Matrix, Scalar};
use ata_mpisim::Comm;
use ata_strassen::{fast_strassen, StrassenWorkspace, CLASSIC};

use crate::error::{DistError, DistPhase};
use crate::wire::{self, WireFormat};
use ata_mpisim::CommError;

/// Tuning knobs of AtA-D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtaDConfig {
    /// Load-balance parameter of the task tree (§4.1.2; the paper
    /// derives `alpha = 1/2` from the gemm/syrk flop ratio).
    pub alpha: f64,
    /// Cache model for the leaf recursions' base cases.
    pub cache: CacheConfig,
    /// Run AtA/FastStrassen at the leaves (`true`, §4.3.1's default for
    /// "larger volumes of data") or the plain classical kernels (`false`).
    pub strassen_leaves: bool,
    /// Threads per rank for the leaf computations (> 1 models the hybrid
    /// SM+DM runs of Table 1; the modeled compute time divides by it).
    pub threads_per_rank: usize,
    /// Wire encoding of result blocks during retrieval (§4.3.1). The
    /// packed default is bit-identical to dense and strictly cheaper on
    /// the root's received words.
    pub wire: WireFormat,
}

impl Default for AtaDConfig {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            cache: CacheConfig::default(),
            strassen_leaves: true,
            threads_per_rank: 1,
            wire: WireFormat::SymPacked,
        }
    }
}

/// Charge `flops` of modeled compute spread over `threads` workers.
fn charge<T: Send + 'static>(comm: &mut Comm<T>, flops: f64, threads: usize) {
    let secs = comm.model().compute_time(flops) / threads.max(1) as f64;
    comm.add_compute_seconds(secs);
}

/// Wrap a communication failure in its Algorithm 4 context and poison
/// the peers so errors cascade instead of deadlocking (see
/// [`Comm::abandon`]).
fn fail<T: Send + 'static>(comm: &mut Comm<T>, phase: DistPhase, error: CommError) -> DistError {
    comm.abandon();
    DistError {
        phase,
        rank: comm.rank(),
        error,
    }
}

/// Execute one leaf task into a freshly allocated `C` block.
fn compute_leaf<T: Scalar>(
    node: &DistNode,
    a_blk: MatRef<'_, T>,
    b_blk: Option<MatRef<'_, T>>,
    comm: &mut Comm<T>,
    cfg: &AtaDConfig,
) -> Matrix<T> {
    let mut out = Matrix::zeros(node.c.rows(), node.c.cols());
    let threads = cfg.threads_per_rank;
    match node.kind {
        ComputeKind::AtA => {
            let (mb, nb) = a_blk.shape();
            let flops = if cfg.strassen_leaves {
                2.0 * ata_mults(mb, nb, &cfg.cache) as f64
            } else {
                (mb * nb * (nb + 1)) as f64
            };
            if threads > 1 && cfg.strassen_leaves {
                ata_s(T::ONE, a_blk, &mut out.as_mut(), threads, &cfg.cache);
            } else if threads > 1 {
                par_syrk_ln(T::ONE, a_blk, &mut out.as_mut(), threads);
            } else if cfg.strassen_leaves {
                let mut ws = StrassenWorkspace::empty();
                ata_into_with_kind(
                    T::ONE,
                    a_blk,
                    &mut out.as_mut(),
                    &cfg.cache,
                    StrassenKind::Classic,
                    &mut ws,
                );
            } else {
                syrk_ln(T::ONE, a_blk, &mut out.as_mut());
            }
            charge(comm, flops, threads);
        }
        ComputeKind::AtB => {
            let b_blk = b_blk.expect("AtB leaf carries a B block"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
            let (mb, nb) = a_blk.shape();
            let kb = b_blk.cols();
            // No parallel FastStrassen exists: multi-threaded leaves run
            // the plain classical kernel, so charge its flops, not
            // Strassen's.
            let flops = if cfg.strassen_leaves && threads == 1 {
                2.0 * CLASSIC.mults(mb, nb, kb, &cfg.cache) as f64
            } else {
                2.0 * (mb * nb * kb) as f64
            };
            if threads > 1 {
                par_gemm_tn(T::ONE, a_blk, b_blk, &mut out.as_mut(), threads);
            } else if cfg.strassen_leaves {
                fast_strassen(T::ONE, a_blk, b_blk, &mut out.as_mut(), &cfg.cache);
            } else {
                gemm_tn(T::ONE, a_blk, b_blk, &mut out.as_mut());
            }
            charge(comm, flops, threads);
        }
    }
    out
}

/// A prebuilt AtA-D execution plan: the §4.1 task tree plus the
/// distribution layout, reusable across any number of executions.
///
/// Building is the expensive, allocation-heavy phase (tree construction
/// is `O(nodes)`); [`DistPlan::execute`] then runs the
/// distribute–compute–retrieve schedule without rebuilding anything —
/// the facade's sharded service holds one plan per split shape, and the
/// `DistTree::build_count_for` tests prove repeat executions rebuild no
/// tree.
#[derive(Debug, Clone)]
pub struct DistPlan {
    m: usize,
    n: usize,
    procs: usize,
    cfg: AtaDConfig,
    tree: DistTree,
    /// Distribution layout: operand words shipped to each rank by the
    /// scatter (concatenated leaf blocks, tree order; `counts[0] == 0`
    /// because the root reads its own leaves in place).
    counts: Vec<usize>,
}

impl DistPlan {
    /// Build the plan for an `m x n` input on `procs` ranks.
    ///
    /// # Panics
    /// If `procs == 0`, `cfg.threads_per_rank == 0`, or `cfg.alpha` is
    /// outside `(0, 1)`.
    pub fn build(m: usize, n: usize, procs: usize, cfg: &AtaDConfig) -> Self {
        assert!(
            cfg.threads_per_rank > 0,
            "threads_per_rank must be positive"
        );
        let tree = DistTree::build_with_alpha(m, n, procs, cfg.alpha);
        let mut counts = vec![0usize; procs];
        for node in tree.leaves().filter(|nd| nd.owner != 0) {
            counts[node.owner] += node.a.area();
            if node.kind == ComputeKind::AtB {
                counts[node.owner] += node.b.area();
            }
        }
        Self {
            m,
            n,
            procs,
            cfg: *cfg,
            tree,
            counts,
        }
    }

    /// Planned input shape `(m, n)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Rank count the plan was built for.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The configuration the plan was built with.
    pub fn config(&self) -> &AtaDConfig {
        &self.cfg
    }

    /// The prebuilt task tree.
    pub fn tree(&self) -> &DistTree {
        &self.tree
    }

    /// Per-rank scatter payload sizes (words), indexed by rank — the
    /// `counts` argument of [`Comm::tree_scatterv_checked`].
    pub(crate) fn scatter_counts(&self) -> &[usize] {
        &self.counts
    }

    /// Execute the plan (Algorithm 4) on the simulated cluster.
    ///
    /// SPMD contract: every rank calls this on the same plan; rank 0
    /// passes `Some(&a)` (the full `m x n` input), everyone else `None`.
    /// Rank 0 returns `Ok(Some(C))` — an `n x n` matrix whose
    /// strictly-upper part is zero — and all other ranks return
    /// `Ok(None)`.
    ///
    /// # Errors
    /// On a faulted universe (see [`ata_mpisim::FaultPlan`]), a rank
    /// whose communication fails returns a [`DistError`] identifying
    /// the phase, the observing rank, and the transport cause — after
    /// poisoning its peers ([`Comm::abandon`]) so the whole universe
    /// resolves in bounded simulated time instead of deadlocking. On a
    /// fault-free universe this never returns `Err`, and the traffic
    /// counters are bit-identical to what they were before fault
    /// injection existed.
    ///
    /// # Panics
    /// If the universe size differs from the planned rank count, the
    /// root passes `None` / a wrong-shape matrix, or a non-root passes
    /// `Some`.
    pub fn execute<T: Scalar>(
        &self,
        input: Option<&Matrix<T>>,
        comm: &mut Comm<T>,
    ) -> Result<Option<Matrix<T>>, DistError> {
        let rank = comm.rank();
        let (m, n) = (self.m, self.n);
        assert_eq!(
            comm.size(),
            self.procs,
            "plan built for {} ranks, universe has {}",
            self.procs,
            comm.size()
        );
        if rank == 0 {
            let a = input.expect("rank 0 must provide the input matrix"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
            assert_eq!(a.shape(), (m, n), "input must be {m} x {n}");
        } else {
            assert!(input.is_none(), "non-root rank {rank} must pass None");
        }

        let tree = &self.tree;
        let cfg = &self.cfg;
        let tag_c = |id: usize| id as u64;

        // --- Phase 1: distribution (binomial-tree scatter of the
        // per-rank operand chunks; root leaves stay in place). ---
        let mut received: HashMap<usize, (Matrix<T>, Option<Matrix<T>>)> = HashMap::new();
        if self.procs > 1 {
            let chunks = (rank == 0).then(|| {
                let a = input.expect("checked above"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
                let mut chunks: Vec<Vec<T>> =
                    self.counts.iter().map(|&c| Vec::with_capacity(c)).collect();
                for node in tree.leaves().filter(|nd| nd.owner != 0) {
                    let chunk = &mut chunks[node.owner];
                    wire::append_view(
                        chunk,
                        a.as_ref().block(node.a.r0, node.a.r1, node.a.c0, node.a.c1),
                    );
                    if node.kind == ComputeKind::AtB {
                        wire::append_view(
                            chunk,
                            a.as_ref().block(node.b.r0, node.b.r1, node.b.c0, node.b.c1),
                        );
                    }
                }
                chunks
            });
            let mine = comm
                .tree_scatterv_checked(chunks, &self.counts)
                .map_err(|e| fail(comm, DistPhase::Scatter, e))?;
            if rank != 0 {
                // Disassemble the chunk in the same deterministic order
                // the root packed it.
                let mut off = 0usize;
                for node in tree.leaves().filter(|nd| nd.owner == rank) {
                    let a_blk = wire::read_block(&mine, &mut off, node.a.rows(), node.a.cols());
                    let b_blk = (node.kind == ComputeKind::AtB)
                        .then(|| wire::read_block(&mine, &mut off, node.b.rows(), node.b.cols()));
                    received.insert(node.id, (a_blk, b_blk));
                }
                debug_assert_eq!(off, mine.len(), "chunk fully consumed");
            }
        }

        // --- Phases 2 + 3: leaf compute and upward accumulation. ---
        // Reverse creation order visits children before parents (ids grow
        // downward), so every dependency is ready — or in flight from
        // another rank — by the time its parent gathers.
        let mut pending: HashMap<usize, Matrix<T>> = HashMap::new();
        let mut result = None;
        for node in tree.nodes.iter().rev() {
            if node.owner != rank {
                continue;
            }
            let block = if node.is_leaf() {
                if rank == 0 {
                    let a = input.expect("checked above"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
                    let a_blk = a.as_ref().block(node.a.r0, node.a.r1, node.a.c0, node.a.c1);
                    let b_blk = (node.kind == ComputeKind::AtB)
                        .then(|| a.as_ref().block(node.b.r0, node.b.r1, node.b.c0, node.b.c1));
                    compute_leaf(node, a_blk, b_blk, comm, cfg)
                } else {
                    let (a_blk, b_blk) = received.remove(&node.id).expect("operands distributed"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
                    let b_ref = b_blk.as_ref().map(|b| b.as_ref());
                    compute_leaf(node, a_blk.as_ref(), b_ref, comm, cfg)
                }
            } else {
                // Gather-with-sums (§4.1.1): overlapping children accumulate.
                let mut acc = Matrix::zeros(node.c.rows(), node.c.cols());
                for &cid in &node.children {
                    let child = &tree.nodes[cid];
                    let contrib = if child.owner == rank {
                        // ata-lint: allow(no-unwrap-in-lib): SPMD invariant
                        // stated in the expect message.
                        pending.remove(&cid).expect("child result computed first")
                    } else {
                        let payload = comm
                            .recv_checked(child.owner, tag_c(cid))
                            .map_err(|e| fail(comm, DistPhase::Gather, e))?;
                        wire::unpack_c(
                            payload,
                            child.kind,
                            child.c.rows(),
                            child.c.cols(),
                            cfg.wire,
                        )
                    };
                    let r0 = child.c.r0 - node.c.r0;
                    let c0 = child.c.c0 - node.c.c0;
                    let mut dst =
                        acc.as_mut()
                            .into_block(r0, r0 + child.c.rows(), c0, c0 + child.c.cols());
                    ops::add_assign(&mut dst, contrib.as_ref());
                    comm.add_compute_flops(child.c.area() as f64);
                }
                acc
            };
            match node.parent {
                None => result = Some(block),
                Some(pid) => {
                    let parent_owner = tree.nodes[pid].owner;
                    if parent_owner == rank {
                        pending.insert(node.id, block);
                    } else {
                        let payload = wire::pack_c(&block, node.kind, cfg.wire);
                        comm.send_checked(parent_owner, tag_c(node.id), payload)
                            .map_err(|e| fail(comm, DistPhase::Gather, e))?;
                    }
                }
            }
        }
        Ok(result)
    }
}

/// AtA-D (Algorithm 4): lower triangle of `C = A^T A` on the simulated
/// cluster — the one-shot entry point. Every rank builds the (identical,
/// deterministic) [`DistPlan`] and executes it once; serving loops
/// should build the plan once and call [`DistPlan::execute`] instead.
///
/// SPMD contract: every rank calls this with the same `m`, `n` and
/// config; rank 0 passes `Some(&a)` (the full `m x n` input), everyone
/// else `None`. Rank 0 returns `Some(C)` — an `n x n` matrix whose
/// strictly-upper part is zero — and all other ranks return `None`.
///
/// # Panics
/// If the root passes `None` / a wrong-shape matrix, a non-root passes
/// `Some`, or `cfg.threads_per_rank == 0`.
pub fn ata_d<T: Scalar>(
    input: Option<&Matrix<T>>,
    m: usize,
    n: usize,
    comm: &mut Comm<T>,
    cfg: &AtaDConfig,
) -> Option<Matrix<T>> {
    // The one-shot entry point keeps the infallible signature: faults
    // only exist on explicitly faulted universes, where callers should
    // hold a plan and use `execute` to observe them as errors.
    DistPlan::build(m, n, comm.size(), cfg)
        .execute(input, comm)
        .unwrap_or_else(|e| panic!("ata_d on a faulted universe: {e} (use DistPlan::execute)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference};
    use ata_mpisim::{run, CostModel};

    fn oracle(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.cols();
        let mut c = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        c
    }

    fn check(m: usize, n: usize, procs: usize, cfg: AtaDConfig) {
        let a = gen::standard::<f64>(m as u64 * 31 + n as u64 + procs as u64, m, n);
        let c_ref = oracle(&a);
        let a_ref = &a;
        let report = run(procs, CostModel::zero(), move |comm| {
            let input = (comm.rank() == 0).then_some(a_ref);
            ata_d(input, m, n, comm, &cfg)
        });
        let c = report.results[0].as_ref().expect("root returns C");
        let tol = ata_mat::ops::product_tol::<f64>(m, n, m as f64);
        let diff = c.max_abs_diff_lower(&c_ref);
        assert!(
            diff <= tol,
            "m={m} n={n} P={procs}: AtA-D differs by {diff} > {tol}"
        );
        // Non-roots return nothing.
        for r in 1..procs {
            assert!(report.results[r].is_none(), "rank {r} must return None");
        }
        // Strict upper is zero at the root.
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(c[(i, j)], 0.0, "upper ({i},{j}) written");
            }
        }
    }

    #[test]
    fn matches_oracle_across_rank_counts() {
        for procs in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 16] {
            check(
                48,
                40,
                procs,
                AtaDConfig {
                    cache: CacheConfig::with_words(64),
                    ..AtaDConfig::default()
                },
            );
        }
    }

    #[test]
    fn rectangular_and_tiny_inputs() {
        let cfg = AtaDConfig {
            cache: CacheConfig::with_words(32),
            ..AtaDConfig::default()
        };
        check(70, 20, 8, cfg);
        check(20, 70, 8, cfg);
        check(5, 64, 12, cfg);
        check(1, 1, 4, cfg);
        check(3, 2, 16, cfg);
    }

    #[test]
    fn dense_wire_matches_oracle_across_rank_counts() {
        for procs in [2usize, 5, 8, 12] {
            check(
                44,
                36,
                procs,
                AtaDConfig {
                    cache: CacheConfig::with_words(64),
                    wire: WireFormat::Dense,
                    ..AtaDConfig::default()
                },
            );
        }
    }

    #[test]
    fn wire_formats_are_bit_identical() {
        let (m, n) = (52usize, 44usize);
        let a = gen::standard::<f64>(123, m, n);
        for procs in [2usize, 6, 8, 13] {
            let mut results = Vec::new();
            for wire in [WireFormat::Dense, WireFormat::SymPacked] {
                let cfg = AtaDConfig {
                    cache: CacheConfig::with_words(64),
                    wire,
                    ..AtaDConfig::default()
                };
                let a_ref = &a;
                let report = run(procs, CostModel::zero(), move |comm| {
                    let input = (comm.rank() == 0).then_some(a_ref);
                    ata_d(input, m, n, comm, &cfg)
                });
                results.push(report.results[0].clone().expect("root"));
            }
            assert_eq!(
                results[0].max_abs_diff(&results[1]),
                0.0,
                "P={procs}: wire formats must agree bit-for-bit"
            );
        }
    }

    #[test]
    fn plan_reuse_is_deterministic_and_rebuilds_no_tree() {
        // Shape chosen to be unique within this test binary, so the
        // shape-keyed build counter cannot race with sibling tests.
        let (m, n, procs) = (41usize, 33usize, 9usize);
        let cfg = AtaDConfig {
            cache: CacheConfig::with_words(64),
            ..AtaDConfig::default()
        };
        let plan = DistPlan::build(m, n, procs, &cfg);
        let a = gen::standard::<f64>(9, m, n);
        let builds_before = DistTree::build_count_for(m, n, procs);
        let mut runs = Vec::new();
        for _ in 0..3 {
            let (a_ref, plan_ref) = (&a, &plan);
            let report = run(procs, CostModel::zero(), move |comm| {
                let input = (comm.rank() == 0).then_some(a_ref);
                plan_ref.execute(input, comm).expect("fault-free universe")
            });
            runs.push(report.results[0].clone().expect("root"));
        }
        assert_eq!(
            DistTree::build_count_for(m, n, procs),
            builds_before,
            "plan executions must not rebuild the DistTree"
        );
        assert_eq!(runs[0].max_abs_diff(&runs[1]), 0.0);
        assert_eq!(runs[0].max_abs_diff(&runs[2]), 0.0);
    }

    #[test]
    fn plan_scatter_counts_cover_remote_leaf_operands() {
        let plan = DistPlan::build(64, 48, 8, &AtaDConfig::default());
        assert_eq!(plan.scatter_counts()[0], 0, "root keeps its leaves local");
        let total: usize = plan.scatter_counts().iter().sum();
        let expect: usize = plan
            .tree()
            .leaves()
            .filter(|nd| nd.owner != 0)
            .map(|nd| {
                nd.a.area()
                    + if nd.kind == ComputeKind::AtB {
                        nd.b.area()
                    } else {
                        0
                    }
            })
            .sum();
        assert_eq!(total, expect);
    }

    #[test]
    #[should_panic(expected = "plan built for")]
    fn plan_rank_count_mismatch_rejected() {
        let plan = DistPlan::build(16, 16, 4, &AtaDConfig::default());
        let _ = run(2, CostModel::zero(), move |comm| {
            let input = None;
            if comm.rank() == 0 {
                let a = Matrix::<f64>::zeros(16, 16);
                plan.execute(Some(&a), comm).expect("unreachable")
            } else {
                plan.execute(input, comm).expect("unreachable")
            }
        });
    }

    #[test]
    fn blas_leaves_agree_with_strassen_leaves() {
        let (m, n, p) = (52, 44, 8);
        let a = gen::standard::<f64>(77, m, n);
        let c_ref = oracle(&a);
        for strassen in [false, true] {
            let cfg = AtaDConfig {
                cache: CacheConfig::with_words(64),
                strassen_leaves: strassen,
                ..AtaDConfig::default()
            };
            let a_ref = &a;
            let report = run(p, CostModel::zero(), move |comm| {
                let input = (comm.rank() == 0).then_some(a_ref);
                ata_d(input, m, n, comm, &cfg)
            });
            let c = report.results[0].as_ref().expect("root");
            let tol = ata_mat::ops::product_tol::<f64>(m, n, m as f64);
            assert!(c.max_abs_diff_lower(&c_ref) <= tol, "strassen={strassen}");
        }
    }

    #[test]
    fn hybrid_threads_per_rank() {
        let cfg = AtaDConfig {
            cache: CacheConfig::with_words(64),
            threads_per_rank: 4,
            ..AtaDConfig::default()
        };
        check(64, 48, 6, cfg);
    }

    #[test]
    fn alpha_sweep_stays_correct() {
        for alpha in [0.25, 0.4, 0.6, 0.75] {
            check(
                40,
                36,
                12,
                AtaDConfig {
                    alpha,
                    cache: CacheConfig::with_words(32),
                    ..AtaDConfig::default()
                },
            );
        }
    }

    #[test]
    fn compute_time_is_charged_under_costed_model() {
        let (m, n, p) = (64, 64, 8);
        let a = gen::standard::<f64>(3, m, n);
        let a_ref = &a;
        let report = run(p, CostModel::terastat(), move |comm| {
            let input = (comm.rank() == 0).then_some(a_ref);
            ata_d(input, m, n, comm, &AtaDConfig::default());
        });
        assert!(report.critical_path() > 0.0);
        assert!(report.metrics.iter().any(|m| m.compute_time > 0.0));
        assert!(
            report.metrics[0].words_sent > 0,
            "root distributes A blocks"
        );
    }

    #[test]
    #[should_panic(expected = "must provide the input")]
    fn missing_root_input_rejected() {
        let _ = run::<f64, _, _>(1, CostModel::zero(), |comm| {
            ata_d::<f64>(None, 4, 4, comm, &AtaDConfig::default());
        });
    }

    #[test]
    fn faulted_execution_fails_typed_or_matches_reference() {
        use ata_mpisim::{FaultPlan, FaultSpec, Universe};
        let (m, n) = (40usize, 32usize);
        let a = gen::standard::<f64>(11, m, n);
        let c_ref = oracle(&a);
        let tol = ata_mat::ops::product_tol::<f64>(m, n, m as f64);
        for procs in [2usize, 4, 8] {
            let cfg = AtaDConfig {
                cache: CacheConfig::with_words(64),
                ..AtaDConfig::default()
            };
            let plan = DistPlan::build(m, n, procs, &cfg);
            let (mut oks, mut errs) = (0usize, 0usize);
            for seed in 0..24u64 {
                let faults = FaultPlan::seeded(seed, procs, &FaultSpec::default());
                let (a_ref, plan_ref) = (&a, &plan);
                let report = Universe::new(procs, CostModel::zero())
                    .faults(faults)
                    .recv_deadline(1.0)
                    .run(move |comm| {
                        let input = (comm.rank() == 0).then_some(a_ref);
                        plan_ref.execute(input, comm)
                    });
                match &report.results[0] {
                    Ok(Some(c)) => {
                        oks += 1;
                        let diff = c.max_abs_diff_lower(&c_ref);
                        assert!(diff <= tol, "seed {seed} P={procs}: wrong answer ({diff})");
                    }
                    Ok(None) => panic!("root must hold the result on success"),
                    Err(_) => errs += 1, // typed failure is the contract
                }
                // The simulated clocks stayed bounded: a hang would
                // have tripped the universe's wall-clock guard instead.
                assert!(report.critical_path().is_finite());
            }
            assert!(oks > 0, "P={procs}: every seed failed — sweep too hostile");
            assert!(errs > 0, "P={procs}: no seed failed — sweep too tame");
        }
    }

    #[test]
    fn delay_only_faults_keep_results_bit_identical() {
        use ata_mpisim::{FaultPlan, FaultSpec, Universe};
        let (m, n, procs) = (36usize, 28usize, 4usize);
        let a = gen::standard::<f64>(5, m, n);
        let cfg = AtaDConfig {
            cache: CacheConfig::with_words(64),
            ..AtaDConfig::default()
        };
        let plan = DistPlan::build(m, n, procs, &cfg);
        let run_with = |faults: FaultPlan| {
            let (a_ref, plan_ref) = (&a, &plan);
            Universe::new(procs, CostModel::zero())
                .faults(faults)
                .recv_deadline(1.0)
                .run(move |comm| {
                    let input = (comm.rank() == 0).then_some(a_ref);
                    plan_ref.execute(input, comm)
                })
        };
        let clean = run_with(FaultPlan::new());
        let c_clean = clean.results[0]
            .as_ref()
            .expect("fault-free")
            .as_ref()
            .expect("root");
        for seed in 0..8u64 {
            let faults = FaultPlan::seeded(seed, procs, &FaultSpec::delays_only());
            let delayed = run_with(faults);
            let c = delayed.results[0]
                .as_ref()
                .expect("delays cannot fail an execution")
                .as_ref()
                .expect("root");
            assert_eq!(
                c.max_abs_diff(c_clean),
                0.0,
                "seed {seed}: not bit-identical"
            );
        }
    }

    #[test]
    fn crashed_root_fails_every_rank_typed() {
        use ata_mpisim::{CommError, FaultPlan, Universe};
        let (m, n, procs) = (32usize, 24usize, 4usize);
        let a = gen::standard::<f64>(7, m, n);
        let plan = DistPlan::build(m, n, procs, &AtaDConfig::default());
        let (a_ref, plan_ref) = (&a, &plan);
        let report = Universe::new(procs, CostModel::zero())
            .faults(FaultPlan::new().crash_rank(0, 0))
            .recv_deadline(1.0)
            .run(move |comm| {
                let input = (comm.rank() == 0).then_some(a_ref);
                plan_ref.execute(input, comm)
            });
        for (rank, res) in report.results.iter().enumerate() {
            let err = res.as_ref().expect_err("all ranks must fail");
            assert_eq!(err.rank, rank, "error reports the observing rank");
            if rank == 0 {
                assert_eq!(err.error, CommError::Crashed { rank: 0, op: 0 });
            }
        }
    }
}
