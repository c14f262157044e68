//! CARMA (Demmel et al., "Communication-Optimal Parallel Recursive
//! Rectangular Matrix Multiplication"): the comparator the paper could
//! not run — its Cilk Plus implementation no longer builds (§5.5) — as a
//! structural re-implementation on the simulator.
//!
//! BFS steps: while a group holds more than one rank, the largest of the
//! three dimensions `(m, n, k)` of `C = A^T B` is halved and the two
//! halves recurse on the two halves of the rank group; an `m`-split
//! produces two partial products that the group leader sums (the one
//! case requiring a reduction, exactly as in CARMA). With one rank left,
//! the leader computes locally — splitting depth-first until the
//! operands fit [`CarmaConfig::mem_words_per_rank`] (CARMA's
//! memory-constrained DFS steps), then calling [`fast_strassen`].

use ata_kernels::CacheConfig;
use ata_mat::{half_up, ops, MatMut, MatRef, Matrix, Scalar};
use ata_mpisim::Comm;
use ata_strassen::{fast_strassen, CLASSIC};

use crate::wire;

/// Tuning knobs of [`carma_like`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarmaConfig {
    /// Per-rank memory budget (elements). Operands above it are split
    /// depth-first before computing; the default is effectively
    /// unbounded, giving the pure-BFS schedule.
    pub mem_words_per_rank: usize,
    /// Cache model for the local FastStrassen leaves.
    pub cache: CacheConfig,
}

impl Default for CarmaConfig {
    fn default() -> Self {
        Self {
            mem_words_per_rank: usize::MAX / 4,
            cache: CacheConfig::default(),
        }
    }
}

const TAG_A: u64 = 21;
const TAG_B: u64 = 22;
const TAG_C: u64 = 23;

/// CARMA-style distributed `C = A^T B` (`A` is `m x n`, `B` is `m x k`,
/// `C` the full `n x k` product).
///
/// SPMD contract as in [`crate::ata_d`]: rank 0 passes both inputs and
/// returns `Some(C)`; everyone else passes `None` and returns `None`.
///
/// # Panics
/// On SPMD-contract violations.
pub fn carma_like<T: Scalar>(
    input_a: Option<&Matrix<T>>,
    input_b: Option<&Matrix<T>>,
    m: usize,
    n: usize,
    k: usize,
    comm: &mut Comm<T>,
    cfg: &CarmaConfig,
) -> Option<Matrix<T>> {
    let rank = comm.rank();
    if rank == 0 {
        let a = input_a.expect("rank 0 must provide A"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        let b = input_b.expect("rank 0 must provide B"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        assert_eq!(a.shape(), (m, n), "A must be {m} x {n}");
        assert_eq!(b.shape(), (m, k), "B must be {m} x {k}");
    } else {
        assert!(
            input_a.is_none() && input_b.is_none(),
            "non-root rank {rank} must pass None"
        );
    }
    let task = input_a.map(|a| (a.clone(), input_b.expect("checked above").clone())); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
    carma_group(comm, 0, comm.size(), (m, n, k), task, cfg, 0)
}

/// One BFS level over ranks `[lo, hi)`; the leader (`lo`) holds the
/// task. Every rank derives the same split from `(dims, lo, hi)` alone.
fn carma_group<T: Scalar>(
    comm: &mut Comm<T>,
    lo: usize,
    hi: usize,
    dims: (usize, usize, usize),
    task: Option<(Matrix<T>, Matrix<T>)>,
    cfg: &CarmaConfig,
    depth: usize,
) -> Option<Matrix<T>> {
    let rank = comm.rank();
    let q = hi - lo;
    let (m, n, k) = dims;

    if q <= 1 {
        return task.map(|(a, b)| {
            let mut c = Matrix::zeros(n, k);
            carma_local(a.as_ref(), b.as_ref(), &mut c.as_mut(), comm, cfg);
            c
        });
    }

    let q1 = half_up(q);
    let mid = lo + q1;
    let in_left = rank < mid;
    let tag_base = depth as u64 * 4;
    let peer = mid; // leader of the right half
    let is_leader = rank == lo;

    // Split the largest dimension (CARMA's rule); ties favor the
    // reduction-free splits (n, then k, then m).
    let (split, d1, d2) = if n >= k && n >= m {
        ('n', half_up(n), n - half_up(n))
    } else if k >= m {
        ('k', half_up(k), k - half_up(k))
    } else {
        ('m', half_up(m), m - half_up(m))
    };

    let left_dims;
    let right_dims;
    let mut my_task: Option<(Matrix<T>, Matrix<T>)> = None;
    match split {
        'n' => {
            left_dims = (m, d1, k);
            right_dims = (m, d2, k);
            if is_leader {
                let (a, b) = task.expect("leader holds the task"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
                comm.send(
                    peer,
                    TAG_A + tag_base,
                    wire::pack_view(a.as_ref().block(0, m, d1, n)),
                );
                comm.send(
                    peer,
                    TAG_B + tag_base,
                    wire::pack_view(b.as_ref().block(0, m, 0, k)),
                );
                my_task = Some((a.as_ref().block(0, m, 0, d1).to_matrix(), b));
            } else if rank == peer {
                let a_r = wire::unpack(comm.recv(lo, TAG_A + tag_base), m, d2);
                let b_r = wire::unpack(comm.recv(lo, TAG_B + tag_base), m, k);
                my_task = Some((a_r, b_r));
            }
        }
        'k' => {
            left_dims = (m, n, d1);
            right_dims = (m, n, d2);
            if is_leader {
                let (a, b) = task.expect("leader holds the task"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
                comm.send(
                    peer,
                    TAG_A + tag_base,
                    wire::pack_view(a.as_ref().block(0, m, 0, n)),
                );
                comm.send(
                    peer,
                    TAG_B + tag_base,
                    wire::pack_view(b.as_ref().block(0, m, d1, k)),
                );
                my_task = Some((a, b.as_ref().block(0, m, 0, d1).to_matrix()));
            } else if rank == peer {
                let a_r = wire::unpack(comm.recv(lo, TAG_A + tag_base), m, n);
                let b_r = wire::unpack(comm.recv(lo, TAG_B + tag_base), m, d2);
                my_task = Some((a_r, b_r));
            }
        }
        _ => {
            left_dims = (d1, n, k);
            right_dims = (d2, n, k);
            if is_leader {
                let (a, b) = task.expect("leader holds the task"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
                comm.send(
                    peer,
                    TAG_A + tag_base,
                    wire::pack_view(a.as_ref().block(d1, m, 0, n)),
                );
                comm.send(
                    peer,
                    TAG_B + tag_base,
                    wire::pack_view(b.as_ref().block(d1, m, 0, k)),
                );
                my_task = Some((
                    a.as_ref().block(0, d1, 0, n).to_matrix(),
                    b.as_ref().block(0, d1, 0, k).to_matrix(),
                ));
            } else if rank == peer {
                let a_r = wire::unpack(comm.recv(lo, TAG_A + tag_base), d2, n);
                let b_r = wire::unpack(comm.recv(lo, TAG_B + tag_base), d2, k);
                my_task = Some((a_r, b_r));
            }
        }
    }

    let sub = if in_left {
        carma_group(comm, lo, mid, left_dims, my_task, cfg, depth + 1)
    } else {
        carma_group(comm, mid, hi, right_dims, my_task, cfg, depth + 1)
    };

    if is_leader {
        let mut left = sub.expect("leader computed the left part"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        let (rn, rk) = match split {
            'n' => (d2, k),
            'k' => (n, d2),
            _ => (n, k),
        };
        let right = wire::unpack(comm.recv(peer, TAG_C + tag_base), rn, rk);
        let mut c = Matrix::zeros(n, k);
        match split {
            'n' => {
                c.as_mut().into_block(0, d1, 0, k).copy_from(left.as_ref());
                c.as_mut().into_block(d1, n, 0, k).copy_from(right.as_ref());
            }
            'k' => {
                c.as_mut().into_block(0, n, 0, d1).copy_from(left.as_ref());
                c.as_mut().into_block(0, n, d1, k).copy_from(right.as_ref());
            }
            _ => {
                // The reduction case: sum the two partial products.
                ops::add_assign(&mut left.as_mut(), right.as_ref());
                comm.add_compute_flops((n * k) as f64);
                c = left;
            }
        }
        Some(c)
    } else {
        if rank == peer {
            let mine = sub.expect("right leader computed its part"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
            comm.send(lo, TAG_C + tag_base, mine.into_vec());
        }
        None
    }
}

/// Local compute with CARMA's memory-constrained DFS: split the largest
/// dimension until the operands fit the budget, then FastStrassen.
///
/// Accumulating (`C += A^T B`), like the kernels it wraps: halves of
/// every split write (or re-accumulate into) the destination view
/// directly, so the DFS allocates nothing.
fn carma_local<T: Scalar>(
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    comm: &mut Comm<T>,
    cfg: &CarmaConfig,
) {
    let (m, n) = a.shape();
    let k = b.cols();
    let footprint = m * n + m * k + n * k;
    if footprint <= cfg.mem_words_per_rank || (m <= 1 && n <= 1 && k <= 1) {
        fast_strassen(T::ONE, a, b, c, &cfg.cache);
        comm.add_compute_flops(2.0 * CLASSIC.mults(m, n, k, &cfg.cache) as f64);
        return;
    }
    if n >= k && n >= m && n > 1 {
        // Split C's rows: recurse on A's column halves.
        let d1 = half_up(n);
        let (mut top, mut bot) = c.rb_mut().split_at_row_mut(d1);
        carma_local(a.block(0, m, 0, d1), b, &mut top, comm, cfg);
        carma_local(a.block(0, m, d1, n), b, &mut bot, comm, cfg);
    } else if k >= m && k > 1 {
        // Split C's columns: recurse on B's column halves.
        let d1 = half_up(k);
        let (mut left, mut right) = c.rb_mut().split_at_col_mut(d1);
        carma_local(a, b.block(0, m, 0, d1), &mut left, comm, cfg);
        carma_local(a, b.block(0, m, d1, k), &mut right, comm, cfg);
    } else if m > 1 {
        // The DFS reduction: both row-halves accumulate into the same C.
        let d1 = half_up(m);
        carma_local(a.block(0, d1, 0, n), b.block(0, d1, 0, k), c, comm, cfg);
        carma_local(a.block(d1, m, 0, n), b.block(d1, m, 0, k), c, comm, cfg);
    } else {
        fast_strassen(T::ONE, a, b, c, &cfg.cache);
        comm.add_compute_flops(2.0 * CLASSIC.mults(m, n, k, &cfg.cache) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference};
    use ata_mpisim::{run, CostModel};

    fn check(m: usize, n: usize, k: usize, p: usize, mem: usize) {
        let a = gen::standard::<f64>(m as u64 + 11 * n as u64 + k as u64, m, n);
        let b = gen::standard::<f64>(77 + k as u64, m, k);
        let mut c_ref = Matrix::zeros(n, k);
        reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        let cfg = CarmaConfig {
            mem_words_per_rank: mem,
            ..CarmaConfig::default()
        };
        let (ar, br) = (&a, &b);
        let report = run(p, CostModel::zero(), move |comm| {
            let (ia, ib) = if comm.rank() == 0 {
                (Some(ar), Some(br))
            } else {
                (None, None)
            };
            carma_like(ia, ib, m, n, k, comm, &cfg)
        });
        let c = report.results[0].as_ref().expect("root");
        let tol = ata_mat::ops::product_tol::<f64>(m, n.max(k), m as f64) * 2.0;
        let diff = c.max_abs_diff(&c_ref);
        assert!(
            diff <= tol,
            "m={m} n={n} k={k} P={p} mem={mem}: differs by {diff}"
        );
    }

    #[test]
    fn matches_oracle_across_rank_counts() {
        for p in [1usize, 2, 3, 4, 6, 8, 13] {
            check(24, 20, 28, p, usize::MAX / 4);
        }
    }

    #[test]
    fn memory_budget_forces_dfs_but_keeps_correctness() {
        for mem in [64usize, 512, 4096] {
            check(24, 20, 28, 4, mem);
            check(31, 9, 17, 3, mem);
        }
    }

    #[test]
    fn degenerate_shapes() {
        check(1, 1, 1, 4, 64);
        check(5, 1, 9, 6, 64);
        check(1, 8, 1, 3, 64);
    }

    #[test]
    fn tall_split_reduces_with_m_dominant() {
        // m >> n, k: the first split must be the m (reduction) split and
        // results must still be exact to tolerance.
        check(64, 4, 4, 8, usize::MAX / 4);
    }
}
