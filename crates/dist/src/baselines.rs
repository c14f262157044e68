//! The distributed baselines AtA-D is compared against in Figure 6:
//!
//! * [`pdsyrk_like`] — the ScaLAPACK `pdsyrk` stand-in, 1D variant:
//!   balanced row bands of the lower triangle (see
//!   [`triangle_row_partition`]), bands returning to the root through
//!   the binomial [`Comm::tree_gatherv`]; the 2D-grid variant lives in
//!   [`crate::grid::pdsyrk_2d`].
//! * [`cosma_like`] — a COSMA-flavored `C = A^T B`: the process grid is
//!   chosen to minimize per-rank communication volume for the given
//!   shape (the communication-optimal split of Kwasniewski et al.),
//!   then each rank owns one output tile.
//! * [`caps_like`] — CAPS (Communication-Avoiding Parallel Strassen,
//!   Ballard et al.): BFS steps divide the ranks into seven groups, one
//!   per Strassen product, recursing while at least seven ranks remain.
//!   Remainder groups of `1 < q < 7` ranks take a *hybrid BFS/DFS step*
//!   (the schedule mix of Ballard et al.): the seven products of one
//!   Strassen level are multiplexed round-robin over the `q` members,
//!   each computing its share locally, so no rank sits out a level.
//!   Only a lone rank falls back to the pure DFS base (local
//!   FastStrassen). Square inputs only — the same limitation the paper
//!   reports (§5.5).
//!
//! All baselines follow the same SPMD contract as [`crate::ata_d`]:
//! rank 0 provides the input(s) and receives the result.

use ata_kernels::syrk::triangle_row_partition;
use ata_kernels::{gemm_tn, syrk_ln, CacheConfig};
use ata_mat::{half_up, ops, MatRef, Matrix, Scalar};
use ata_mpisim::Comm;
use ata_strassen::{fast_strassen, CLASSIC};

use crate::wire;

const TAG_PANEL: u64 = 11;
const TAG_A: u64 = 13;
const TAG_B: u64 = 14;
const TAG_TILE: u64 = 15;

/// ScaLAPACK-`pdsyrk` stand-in (1D): lower triangle of `C = A^T A`.
///
/// The triangle's rows are cut into `P` contiguous bands of equal area;
/// rank `r` receives the column panel `A[:, 0..r1]` and computes its
/// band (a rectangle via `gemm_tn` plus a diagonal tile via `syrk_ln`).
/// Bands return to the root through the binomial
/// [`Comm::tree_gatherv`] — the retrieval-phase analogue of AtA-D's
/// tree-pipelined distribution, cutting the root's receive latency from
/// `P - 1` messages to `ceil(log2 P)`.
///
/// Rank 0 passes `Some(&a)` and returns `Some(C)` (`n x n`, strictly
/// upper zero); everyone else passes `None` and returns `None`.
///
/// # Panics
/// On SPMD-contract violations.
pub fn pdsyrk_like<T: Scalar>(
    input: Option<&Matrix<T>>,
    m: usize,
    n: usize,
    comm: &mut Comm<T>,
) -> Option<Matrix<T>> {
    let rank = comm.rank();
    let size = comm.size();
    if rank == 0 {
        let a = input.expect("rank 0 must provide the input matrix"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        assert_eq!(a.shape(), (m, n), "input must be {m} x {n}");
    } else {
        assert!(input.is_none(), "non-root rank {rank} must pass None");
    }

    let parts = size.min(n.max(1));
    let bounds = triangle_row_partition(n, parts);
    // Gather counts, known on every rank: band r is rows r0..r1 of the
    // first r1 columns. The root's own band stays local (count 0), and
    // ranks beyond `parts` contribute nothing but still ride the tree.
    let counts: Vec<usize> = (0..size)
        .map(|r| {
            if r == 0 || r >= parts {
                0
            } else {
                (bounds[r + 1] - bounds[r]) * bounds[r + 1]
            }
        })
        .collect();

    if rank == 0 {
        let a = input.expect("checked above"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
                                               // Distribute: rank r needs columns 0..r1 of A.
        for r in 1..parts {
            let (r0, r1) = (bounds[r], bounds[r + 1]);
            if r0 == r1 {
                continue;
            }
            comm.send(r, TAG_PANEL, wire::pack_view(a.as_ref().block(0, m, 0, r1)));
        }
        let mut c = Matrix::zeros(n, n);
        // Own band.
        compute_band(a.as_ref(), bounds[0], bounds[1], &mut c, comm);
        // Retrieve the other bands (rows r0..r1, columns 0..r1) up the
        // binomial gather tree.
        let bands = comm
            .tree_gatherv(Vec::new(), &counts)
            .expect("root gathers"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        for (r, payload) in bands.into_iter().enumerate().skip(1) {
            if counts[r] == 0 {
                continue;
            }
            let (r0, r1) = (bounds[r], bounds[r + 1]);
            let band = wire::unpack(payload, r1 - r0, r1);
            let mut dst = c.as_mut().into_block(r0, r1, 0, r1);
            dst.copy_from(band.as_ref());
        }
        Some(c)
    } else {
        let mut payload = Vec::new();
        if counts[rank] > 0 {
            let (r0, r1) = (bounds[rank], bounds[rank + 1]);
            let panel = wire::unpack(comm.recv(0, TAG_PANEL), m, r1);
            let mut band = Matrix::zeros(r1 - r0, r1);
            {
                // Shift the band so local row 0 is global row r0.
                let mut c_view = band.as_mut();
                if r0 > 0 {
                    let a_i = panel.as_ref().block(0, m, r0, r1);
                    let a_j = panel.as_ref().block(0, m, 0, r0);
                    let mut rect = c_view.block_mut(0, r1 - r0, 0, r0);
                    gemm_tn(T::ONE, a_i, a_j, &mut rect);
                }
                let a_d = panel.as_ref().block(0, m, r0, r1);
                let mut diag = c_view.block_mut(0, r1 - r0, r0, r1);
                syrk_ln(T::ONE, a_d, &mut diag);
            }
            comm.add_compute_flops(band_flops(m, r0, r1));
            payload = band.into_vec();
        }
        let gathered = comm.tree_gatherv(payload, &counts);
        debug_assert!(gathered.is_none(), "only the root gathers");
        None
    }
}

/// Root-local band computation for [`pdsyrk_like`].
fn compute_band<T: Scalar>(
    a: MatRef<'_, T>,
    r0: usize,
    r1: usize,
    c: &mut Matrix<T>,
    comm: &mut Comm<T>,
) {
    if r0 == r1 {
        return;
    }
    let m = a.rows();
    if r0 > 0 {
        let a_i = a.block(0, m, r0, r1);
        let a_j = a.block(0, m, 0, r0);
        let mut rect = c.as_mut().into_block(r0, r1, 0, r0);
        gemm_tn(T::ONE, a_i, a_j, &mut rect);
    }
    let a_d = a.block(0, m, r0, r1);
    let mut diag = c.as_mut().into_block(r0, r1, r0, r1);
    syrk_ln(T::ONE, a_d, &mut diag);
    comm.add_compute_flops(band_flops(m, r0, r1));
}

fn band_flops(m: usize, r0: usize, r1: usize) -> f64 {
    let rows = r1 - r0;
    (2 * m * rows * r0 + m * rows * (rows + 1)) as f64
}

/// COSMA-flavored distributed `C = A^T B` (`A` is `m x n`, `B` is
/// `m x k`, `C` is the full `n x k` product).
///
/// The rank grid `(pr, pc)` tiling `C` is chosen to minimize the
/// per-rank communication volume `m*n/pr + m*k/pc` subject to
/// `pr * pc <= P` — the shape-aware split at the heart of COSMA's
/// optimality argument. Each rank receives its two operand panels,
/// computes its tile with `gemm_tn`, and ships it back.
///
/// Rank 0 passes `Some` for both inputs and returns `Some(C)`.
///
/// # Panics
/// On SPMD-contract violations.
pub fn cosma_like<T: Scalar>(
    input_a: Option<&Matrix<T>>,
    input_b: Option<&Matrix<T>>,
    m: usize,
    n: usize,
    k: usize,
    comm: &mut Comm<T>,
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

    let (pr, pc) = cosma_grid(comm.size(), n, k);
    let rb = crate::grid::even_partition(n, pr);
    let cb = crate::grid::even_partition(k, pc);
    let rank_of = |i: usize, j: usize| i * pc + j;

    if rank == 0 {
        let a = input_a.expect("checked above"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        let b = input_b.expect("checked above"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        for i in 0..pr {
            for j in 0..pc {
                let target = rank_of(i, j);
                if target == 0 || rb[i] == rb[i + 1] || cb[j] == cb[j + 1] {
                    continue;
                }
                comm.send(
                    target,
                    TAG_A,
                    wire::pack_view(a.as_ref().block(0, m, rb[i], rb[i + 1])),
                );
                comm.send(
                    target,
                    TAG_B,
                    wire::pack_view(b.as_ref().block(0, m, cb[j], cb[j + 1])),
                );
            }
        }
        let mut c = Matrix::zeros(n, k);
        // Own tile (0, 0).
        if rb[0] < rb[1] && cb[0] < cb[1] {
            let mut dst = c.as_mut().into_block(0, rb[1], 0, cb[1]);
            gemm_tn(
                T::ONE,
                a.as_ref().block(0, m, 0, rb[1]),
                b.as_ref().block(0, m, 0, cb[1]),
                &mut dst,
            );
            comm.add_compute_flops(2.0 * (m * rb[1] * cb[1]) as f64);
        }
        for i in 0..pr {
            for j in 0..pc {
                let source = rank_of(i, j);
                if source == 0 || rb[i] == rb[i + 1] || cb[j] == cb[j + 1] {
                    continue;
                }
                let tile = wire::unpack(
                    comm.recv(source, TAG_TILE),
                    rb[i + 1] - rb[i],
                    cb[j + 1] - cb[j],
                );
                let mut dst = c.as_mut().into_block(rb[i], rb[i + 1], cb[j], cb[j + 1]);
                dst.copy_from(tile.as_ref());
            }
        }
        Some(c)
    } else {
        if rank < pr * pc {
            let (i, j) = (rank / pc, rank % pc);
            if rb[i] < rb[i + 1] && cb[j] < cb[j + 1] {
                let rows = rb[i + 1] - rb[i];
                let cols = cb[j + 1] - cb[j];
                let panel_a = wire::unpack(comm.recv(0, TAG_A), m, rows);
                let panel_b = wire::unpack(comm.recv(0, TAG_B), m, cols);
                let mut tile = Matrix::zeros(rows, cols);
                gemm_tn(
                    T::ONE,
                    panel_a.as_ref(),
                    panel_b.as_ref(),
                    &mut tile.as_mut(),
                );
                comm.add_compute_flops(2.0 * (m * rows * cols) as f64);
                comm.send(0, TAG_TILE, tile.into_vec());
            }
        }
        None
    }
}

/// Grid minimizing per-rank operand volume `n/pr + k/pc`, `pr * pc <= p`.
fn cosma_grid(p: usize, n: usize, k: usize) -> (usize, usize) {
    assert!(p > 0, "cosma grid needs at least one rank");
    let mut best = (1usize, 1usize);
    let mut best_cost = f64::INFINITY;
    for pr in 1..=p {
        let pc = p / pr;
        let cost = n as f64 / pr as f64 + k as f64 / pc as f64;
        if cost < best_cost {
            best_cost = cost;
            best = (pr, pc);
        }
    }
    best
}

/// CAPS stand-in (Communication-Avoiding Parallel Strassen): full
/// `C = A^T B` for **square** `n x n` operands.
///
/// BFS steps: while a group holds at least seven ranks (and the problem
/// can still halve), the group leader forms the seven Strassen operand
/// pairs — specialized for the transposed left operand, so `A^T` is
/// never materialized — and hands one to each of seven subgroups; below
/// seven ranks the leader computes its product with a local
/// [`fast_strassen`]. Rank 0 passes both inputs and returns `Some(C)`.
///
/// # Panics
/// On SPMD-contract violations or a non-square input.
pub fn caps_like<T: Scalar>(
    input_a: Option<&Matrix<T>>,
    input_b: Option<&Matrix<T>>,
    n: usize,
    comm: &mut Comm<T>,
    cache: &CacheConfig,
) -> Option<Matrix<T>> {
    let rank = comm.rank();
    if rank == 0 {
        let a = input_a.expect("rank 0 must provide A"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        let b = input_b.expect("rank 0 must provide B"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        assert_eq!(a.shape(), (n, n), "CAPS handles square matrices only");
        assert_eq!(b.shape(), (n, n), "CAPS handles square matrices only");
    } else {
        assert!(
            input_a.is_none() && input_b.is_none(),
            "non-root rank {rank} must pass None"
        );
    }
    let task = input_a.map(|a| (a.clone(), input_b.expect("checked above").clone())); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
    caps_group(comm, 0, comm.size(), n, task, cache, 0)
}

/// Tags for CAPS level `depth`, product `i`: operands and results.
fn caps_tags(depth: usize, i: usize) -> (u64, u64, u64) {
    let base = 100 + depth as u64 * 64;
    (
        base + 2 * i as u64,
        base + 2 * i as u64 + 1,
        base + 32 + i as u64,
    )
}

/// One BFS level of CAPS over ranks `[lo, hi)`; the leader (`lo`) holds
/// the task. Returns `Some(product)` at the leader.
fn caps_group<T: Scalar>(
    comm: &mut Comm<T>,
    lo: usize,
    hi: usize,
    n: usize,
    task: Option<(Matrix<T>, Matrix<T>)>,
    cache: &CacheConfig,
    depth: usize,
) -> Option<Matrix<T>> {
    let rank = comm.rank();
    let q = hi - lo;
    debug_assert!((lo..hi).contains(&rank));

    if q == 1 || n < 2 {
        // DFS base: a lone rank (or a scalar-sized problem) computes
        // locally.
        return task.map(|(a, b)| {
            let mut c = Matrix::zeros(n, n);
            fast_strassen(T::ONE, a.as_ref(), b.as_ref(), &mut c.as_mut(), cache);
            comm.add_compute_flops(2.0 * CLASSIC.mults(n, n, n, cache) as f64);
            c
        });
    }
    if q < 7 {
        // Hybrid BFS/DFS step: too few ranks for a full BFS level, so
        // the seven products are multiplexed over the q members instead
        // of idling everyone but the leader.
        return caps_hybrid(comm, lo, hi, n, task, cache, depth);
    }

    // Subgroup boundaries: deterministic from (lo, hi) alone, so every
    // rank computes the same partition without communication.
    let bounds: Vec<usize> = crate::grid::even_partition(q, 7)
        .into_iter()
        .map(|b| lo + b)
        .collect();
    let my_group = (0..7)
        .find(|&i| (bounds[i]..bounds[i + 1]).contains(&rank))
        .expect("rank inside its group"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message

    let h = half_up(n);
    let is_leader = rank == lo;

    // Leader: build the seven operand pairs and ship pairs 1..7.
    let mut my_task: Option<(Matrix<T>, Matrix<T>)> = None;
    if is_leader {
        let (a, b) = task.expect("leader holds the task"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        let pairs = strassen_operands(&a, &b, comm);
        let mut pairs = Vec::from(pairs);
        // Ship in reverse so we can pop; pair 0 stays local.
        for i in (1..7).rev() {
            let (l, r) = pairs.pop().expect("seven pairs built"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
            let (tag_l, tag_r, _) = caps_tags(depth, i);
            comm.send(bounds[i], tag_l, l.into_vec());
            comm.send(bounds[i], tag_r, r.into_vec());
        }
        my_task = pairs.pop();
        debug_assert!(pairs.is_empty());
    } else if rank == bounds[my_group] {
        // Sub-leader: receive this level's operand pair.
        let (tag_l, tag_r, _) = caps_tags(depth, my_group);
        let l = wire::unpack(comm.recv(lo, tag_l), h, h);
        let r = wire::unpack(comm.recv(lo, tag_r), h, h);
        my_task = Some((l, r));
    }

    // Recurse into my subgroup.
    let sub = caps_group(
        comm,
        bounds[my_group],
        bounds[my_group + 1],
        h,
        my_task,
        cache,
        depth + 1,
    );

    if is_leader {
        // Gather the seven products and recombine.
        let mut products: Vec<Matrix<T>> = Vec::with_capacity(7);
        products.push(sub.expect("leader computed product 0")); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        for (i, &sub_lo) in bounds.iter().enumerate().take(7).skip(1) {
            let (_, _, tag_m) = caps_tags(depth, i);
            products.push(wire::unpack(comm.recv(sub_lo, tag_m), h, h));
        }
        Some(strassen_combine(n, &products, comm))
    } else {
        if let Some(mi) = sub {
            let (_, _, tag_m) = caps_tags(depth, my_group);
            comm.send(lo, tag_m, mi.into_vec());
        }
        None
    }
}

/// One hybrid BFS/DFS step over ranks `[lo, hi)` with `1 < hi - lo < 7`
/// (Ballard et al.'s schedule mix): the leader forms the seven Strassen
/// operand pairs of one level (a BFS-style split) and deals them
/// round-robin over the group — product `i` goes to rank
/// `lo + (i mod q)` — and every member computes its share locally with
/// [`fast_strassen`] (a DFS step). Since `q <= 7`, every rank owns at
/// least one product: remainder ranks contribute work and traffic
/// instead of sitting out the level, which is what fixes the zero-word
/// `RankMetrics` phases the rooted DFS base used to report.
fn caps_hybrid<T: Scalar>(
    comm: &mut Comm<T>,
    lo: usize,
    hi: usize,
    n: usize,
    task: Option<(Matrix<T>, Matrix<T>)>,
    cache: &CacheConfig,
    depth: usize,
) -> Option<Matrix<T>> {
    let rank = comm.rank();
    let q = hi - lo;
    let h = half_up(n);
    let owner = |i: usize| lo + (i % q);

    // Deal the seven operand pairs (leader) / collect mine (members).
    let mut local: Vec<(usize, Matrix<T>, Matrix<T>)> = Vec::new();
    if rank == lo {
        let (a, b) = task.expect("leader holds the task"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        let pairs = strassen_operands(&a, &b, comm);
        for (i, (l, r)) in pairs.into_iter().enumerate() {
            if owner(i) == lo {
                local.push((i, l, r));
            } else {
                let (tag_l, tag_r, _) = caps_tags(depth, i);
                comm.send(owner(i), tag_l, l.into_vec());
                comm.send(owner(i), tag_r, r.into_vec());
            }
        }
    } else {
        for i in 0..7 {
            if owner(i) == rank {
                let (tag_l, tag_r, _) = caps_tags(depth, i);
                let l = wire::unpack(comm.recv(lo, tag_l), h, h);
                let r = wire::unpack(comm.recv(lo, tag_r), h, h);
                local.push((i, l, r));
            }
        }
    }

    // DFS: compute my share of the level locally.
    let mut computed: Vec<(usize, Matrix<T>)> = Vec::with_capacity(local.len());
    for (i, l, r) in local {
        let mut c = Matrix::zeros(h, h);
        fast_strassen(T::ONE, l.as_ref(), r.as_ref(), &mut c.as_mut(), cache);
        comm.add_compute_flops(2.0 * CLASSIC.mults(h, h, h, cache) as f64);
        computed.push((i, c));
    }

    if rank == lo {
        let mut products: Vec<Option<Matrix<T>>> = (0..7).map(|_| None).collect();
        for (i, c) in computed {
            products[i] = Some(c);
        }
        for (i, slot) in products.iter_mut().enumerate() {
            if owner(i) != lo {
                let (_, _, tag_m) = caps_tags(depth, i);
                *slot = Some(wire::unpack(comm.recv(owner(i), tag_m), h, h));
            }
        }
        let products: Vec<Matrix<T>> = products
            .into_iter()
            .map(|p| p.expect("all seven products accounted for")) // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
            .collect();
        Some(strassen_combine(n, &products, comm))
    } else {
        for (i, c) in computed {
            let (_, _, tag_m) = caps_tags(depth, i);
            comm.send(lo, tag_m, c.into_vec());
        }
        None
    }
}

/// Copy `src` into the top-left corner of an `h x h` zero matrix.
fn padded<T: Scalar>(src: MatRef<'_, T>, h: usize) -> Matrix<T> {
    let mut out = Matrix::zeros(h, h);
    let mut dst = out.as_mut().into_block(0, src.rows(), 0, src.cols());
    dst.copy_from(src);
    out
}

/// `dst += sign * src` over the whole matrix.
fn accumulate<T: Scalar>(dst: &mut Matrix<T>, src: &Matrix<T>, sign: T) {
    ops::axpy_assign(&mut dst.as_mut(), sign, src.as_ref());
}

/// The seven operand pairs of Strassen's recursion for `C = A^T B`,
/// specialized for the transposed left operand: with `X = A^T` the block
/// sums `X11 + X22 = (A11 + A22)^T` etc. are formed on untransposed
/// blocks of `A`, so each pair is again a transposed-left product.
fn strassen_operands<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    comm: &mut Comm<T>,
) -> [(Matrix<T>, Matrix<T>); 7] {
    let n = a.rows();
    let h = half_up(n);
    let (a11, a12, a21, a22) = a.as_ref().quad_split();
    let (b11, b12, b21, b22) = b.as_ref().quad_split();
    let p = |v: MatRef<'_, T>| padded(v, h);
    let add = |x: MatRef<'_, T>, y: MatRef<'_, T>| {
        let mut out = padded(x, h);
        let tmp = padded(y, h);
        accumulate(&mut out, &tmp, T::ONE);
        out
    };
    let sub = |x: MatRef<'_, T>, y: MatRef<'_, T>| {
        let mut out = padded(x, h);
        let tmp = padded(y, h);
        accumulate(&mut out, &tmp, T::NEG_ONE);
        out
    };
    // 10 block add/subtracts of h^2 elements each (the classic scheme's
    // operand side; the recombination adds the other 8).
    comm.add_compute_flops(10.0 * (h * h) as f64);
    [
        (add(a11, a22), add(b11, b22)), // M1 = (X11+X22)(B11+B22)
        (add(a12, a22), p(b11)),        // M2 = (X21+X22) B11
        (p(a11), sub(b12, b22)),        // M3 = X11 (B12-B22)
        (p(a22), sub(b21, b11)),        // M4 = X22 (B21-B11)
        (add(a11, a21), p(b22)),        // M5 = (X11+X12) B22
        (sub(a12, a11), add(b11, b12)), // M6 = (X21-X11)(B11+B12)
        (sub(a21, a22), add(b21, b22)), // M7 = (X12-X22)(B21+B22)
    ]
}

/// Recombine the seven `h x h` products into the `n x n` result
/// (quadrants truncate the virtual padding).
fn strassen_combine<T: Scalar>(n: usize, m: &[Matrix<T>], comm: &mut Comm<T>) -> Matrix<T> {
    let h = half_up(n);
    let n2 = n - h;
    let mut c11 = m[0].clone(); // M1
    accumulate(&mut c11, &m[3], T::ONE); // + M4
    accumulate(&mut c11, &m[4], T::NEG_ONE); // - M5
    accumulate(&mut c11, &m[6], T::ONE); // + M7
    let mut c12 = m[2].clone(); // M3
    accumulate(&mut c12, &m[4], T::ONE); // + M5
    let mut c21 = m[1].clone(); // M2
    accumulate(&mut c21, &m[3], T::ONE); // + M4
    let mut c22 = m[0].clone(); // M1
    accumulate(&mut c22, &m[1], T::NEG_ONE); // - M2
    accumulate(&mut c22, &m[2], T::ONE); // + M3
    accumulate(&mut c22, &m[5], T::ONE); // + M6
    comm.add_compute_flops(8.0 * (h * h) as f64);

    let mut c = Matrix::zeros(n, n);
    c.as_mut().into_block(0, h, 0, h).copy_from(c11.as_ref());
    if n2 > 0 {
        c.as_mut()
            .into_block(0, h, h, n)
            .copy_from(c12.as_ref().block(0, h, 0, n2));
        c.as_mut()
            .into_block(h, n, 0, h)
            .copy_from(c21.as_ref().block(0, n2, 0, h));
        c.as_mut()
            .into_block(h, n, h, n)
            .copy_from(c22.as_ref().block(0, n2, 0, n2));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference};
    use ata_mpisim::{run, CostModel};

    fn oracle_lower(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.cols();
        let mut c = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        c
    }

    #[test]
    fn pdsyrk_matches_oracle_across_rank_counts() {
        let (m, n) = (40usize, 36usize);
        let a = gen::standard::<f64>(5, m, n);
        let c_ref = oracle_lower(&a);
        for p in [1usize, 2, 3, 5, 8, 16, 40] {
            let a_ref = &a;
            let report = run(p, CostModel::zero(), move |comm| {
                let input = (comm.rank() == 0).then_some(a_ref);
                pdsyrk_like(input, m, n, comm)
            });
            let c = report.results[0].as_ref().expect("root");
            assert!(c.max_abs_diff_lower(&c_ref) < 1e-10, "P={p}");
        }
    }

    #[test]
    fn pdsyrk_distributes_panels() {
        let (m, n, p) = (32usize, 32usize, 8usize);
        let a = gen::standard::<f64>(6, m, n);
        let a_ref = &a;
        let report = run(p, CostModel::zero(), move |comm| {
            let input = (comm.rank() == 0).then_some(a_ref);
            pdsyrk_like(input, m, n, comm);
        });
        assert!(report.metrics[0].words_sent > 0);
        assert!(report.metrics[1..].iter().any(|r| r.words_sent > 0));
    }

    #[test]
    fn cosma_matches_oracle_on_rectangles() {
        for (m, n, k, p) in [
            (24usize, 20usize, 28usize, 1usize),
            (24, 20, 28, 6),
            (17, 33, 9, 8),
            (40, 8, 40, 12),
        ] {
            let a = gen::standard::<f64>(7, m, n);
            let b = gen::standard::<f64>(8, m, k);
            let mut c_ref = Matrix::zeros(n, k);
            reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
            let (ar, br) = (&a, &b);
            let report = run(p, CostModel::zero(), move |comm| {
                let (ia, ib) = if comm.rank() == 0 {
                    (Some(ar), Some(br))
                } else {
                    (None, None)
                };
                cosma_like(ia, ib, m, n, k, comm)
            });
            let c = report.results[0].as_ref().expect("root");
            assert!(c.max_abs_diff(&c_ref) < 1e-10, "m={m} n={n} k={k} P={p}");
        }
    }

    #[test]
    fn cosma_grid_tracks_aspect_ratio() {
        // Tall C: more grid rows than columns; wide C: the reverse.
        let (pr_tall, pc_tall) = cosma_grid(16, 1024, 16);
        assert!(pr_tall > pc_tall);
        let (pr_wide, pc_wide) = cosma_grid(16, 16, 1024);
        assert!(pc_wide > pr_wide);
        let (pr_sq, pc_sq) = cosma_grid(16, 512, 512);
        assert_eq!((pr_sq, pc_sq), (4, 4));
    }

    #[test]
    fn caps_matches_oracle_on_squares() {
        let cache = CacheConfig::with_words(64);
        for (n, p) in [
            (32usize, 1usize),
            (32, 7),
            (31, 7),
            (24, 10),
            (33, 14),
            (16, 49),
        ] {
            let a = gen::standard::<f64>(9, n, n);
            let b = gen::standard::<f64>(10, n, n);
            let mut c_ref = Matrix::zeros(n, n);
            reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
            let (ar, br) = (&a, &b);
            let report = run(p, CostModel::zero(), move |comm| {
                let (ia, ib) = if comm.rank() == 0 {
                    (Some(ar), Some(br))
                } else {
                    (None, None)
                };
                caps_like(ia, ib, n, comm, &cache)
            });
            let c = report.results[0].as_ref().expect("root");
            assert!(c.max_abs_diff(&c_ref) < 1e-9, "n={n} P={p}");
        }
    }

    #[test]
    fn caps_hybrid_keeps_remainder_ranks_busy() {
        // Rank counts with remainder groups below the 7-way split: the
        // hybrid BFS/DFS step must give every rank real work, so no rank
        // reports a zero-word phase in `RankMetrics`.
        let cache = CacheConfig::with_words(32);
        for (n, p) in [(32usize, 5usize), (32, 8), (32, 10), (24, 12)] {
            let a = gen::standard::<f64>(21, n, n);
            let b = gen::standard::<f64>(22, n, n);
            let mut c_ref = Matrix::zeros(n, n);
            reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
            let (ar, br) = (&a, &b);
            let report = run(p, CostModel::zero(), move |comm| {
                let (ia, ib) = if comm.rank() == 0 {
                    (Some(ar), Some(br))
                } else {
                    (None, None)
                };
                caps_like(ia, ib, n, comm, &cache)
            });
            let c = report.results[0].as_ref().expect("root");
            assert!(c.max_abs_diff(&c_ref) < 1e-9, "n={n} P={p}");
            for (r, m) in report.metrics.iter().enumerate() {
                assert!(
                    m.words_sent > 0,
                    "n={n} P={p}: rank {r} sat out the run (zero words sent)"
                );
                assert!(m.compute_time >= 0.0);
            }
        }
    }

    #[test]
    fn caps_computes_ata_via_b_equals_a() {
        let n = 28usize;
        let cache = CacheConfig::with_words(32);
        let a = gen::standard::<f64>(11, n, n);
        let mut full = oracle_lower(&a);
        full.mirror_lower_to_upper();
        let ar = &a;
        let report = run(7, CostModel::zero(), move |comm| {
            let (ia, ib) = if comm.rank() == 0 {
                (Some(ar), Some(ar))
            } else {
                (None, None)
            };
            caps_like(ia, ib, n, comm, &cache)
        });
        let c = report.results[0].as_ref().expect("root");
        assert!(c.max_abs_diff(&full) < 1e-9);
    }
}
