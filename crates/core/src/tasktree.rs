//! The task-tree scheduler of §4.1.
//!
//! Both parallel algorithms start from the same idea: every process (or
//! thread) deterministically builds the recursion tree of `AtANaive` —
//! AtA with naive recursive GEMM instead of Strassen (§4.1.3) — and reads
//! its own tasks off the leaves, "simulating" a fork-join execution
//! without ever spawning nested tasks (§4.1).
//!
//! Two builders live here, because the paper uses two different trees:
//!
//! * [`DistTree`] (§4.1.1–4.1.2, Figure 1) — the distributed tree. An
//!   `A^T A` node has six children (four AtA quadrant recursions, two
//!   general products for `C21`); an `A^T B` node has eight (Algorithm
//!   2's `2 x 2 x 2` loop nest). With the load-balancing parameter
//!   `alpha = 1/2`, half the processes serve the gemm children and half
//!   the AtA children. Children writing the same `C` block (the two
//!   contributions to `C11`, `C22`, `C21`, and the `k`-halves of a gemm
//!   node) are *summed by the parent* during result retrieval. When a
//!   node has fewer processes than children, its work is tiled into
//!   vertical/horizontal strips instead (Figure 2) — one strip per
//!   process.
//! * [`SharedPlan`] (§4.1.2 last paragraph, §4.2) — the shared-memory
//!   tree. To avoid concurrent overlapping writes, the matrix is split
//!   into full-height *column strips* using Eq. 7
//!   (`C_ij = A_{*,i}^T A_{*,j}`), which fuses the quadrant sums: every
//!   `C` block has exactly one writer, making AtA-S embarrassingly
//!   parallel. An AtA node has three children (left-half AtA, right-half
//!   AtA, and the `C21` product); a gemm node has four.
//!
//! The closed-form level counts of Eq. 5 and Eq. 6 are implemented as
//! [`dist_levels`] / [`shared_levels`] and tested against the built
//! trees. Where the paper's prose under-specifies remainder handling
//! (process counts that are not products of complete levels), our
//! construction may be one level deeper than the formula; the tests pin
//! down exactly when.

use ata_kernels::syrk::triangle_row_partition;
use ata_mat::half_up;
use std::collections::HashMap;
use std::sync::Mutex;

/// Build counts keyed by `(m, n, procs)` (see [`DIST_TREE_BUILDS_BY_SHAPE`]).
type ShapeBuildCounts = HashMap<(usize, usize, usize), u64>;

/// Per-`(m, n, procs)` build counts, for amortization tests that must
/// not race with unrelated tree builds on sibling test threads.
static DIST_TREE_BUILDS_BY_SHAPE: Mutex<Option<ShapeBuildCounts>> = Mutex::new(None);

/// Half-open 2D index region (`rows r0..r1`, `cols c0..c1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First row (inclusive).
    pub r0: usize,
    /// Last row (exclusive).
    pub r1: usize,
    /// First column (inclusive).
    pub c0: usize,
    /// Last column (exclusive).
    pub c1: usize,
}

impl Region {
    /// Validated constructor.
    ///
    /// # Panics
    /// If the ranges are reversed.
    pub fn new(r0: usize, r1: usize, c0: usize, c1: usize) -> Self {
        assert!(
            r0 <= r1 && c0 <= c1,
            "invalid region ({r0}..{r1}, {c0}..{c1})"
        );
        Self { r0, r1, c0, c1 }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.r1 - self.r0
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.c1 - self.c0
    }

    /// True when the region holds no elements.
    pub fn is_empty(&self) -> bool {
        self.r0 == self.r1 || self.c0 == self.c1
    }

    /// Element count.
    pub fn area(&self) -> usize {
        self.rows() * self.cols()
    }

    /// True when the rectangles share at least one element.
    pub fn intersects(&self, o: &Region) -> bool {
        !self.is_empty()
            && !o.is_empty()
            && self.r0 < o.r1
            && o.r0 < self.r1
            && self.c0 < o.c1
            && o.c0 < self.c1
    }
}

/// Which computation a task performs (§4.1.1 point 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeKind {
    /// A symmetric product `A_blk^T A_blk` (lower triangle only).
    AtA,
    /// A general product `A_blk^T B_blk`.
    AtB,
}

// ---------------------------------------------------------------------
// Closed-form level counts.
// ---------------------------------------------------------------------

/// Eq. 5 — number of parallel levels of the distributed task tree.
pub fn dist_levels(p: usize) -> usize {
    match p {
        0 | 1 => 0,
        2..=6 => 1,
        _ => {
            let quarter = p / 4;
            let mut k = 0usize;
            while quarter / 8usize.pow(k as u32 + 1) >= 1 {
                k += 1;
            }
            let modulus = 8usize.pow(k.max(1) as u32);
            1 + k + usize::from(!quarter.is_multiple_of(modulus))
        }
    }
}

/// Eq. 6 — number of parallel levels of the shared-memory task tree.
pub fn shared_levels(p: usize) -> usize {
    match p {
        0 | 1 => 0,
        2 | 3 => 1,
        _ => {
            let half = p / 2;
            let mut k = 0usize;
            while half / 4usize.pow(k as u32 + 1) >= 1 {
                k += 1;
            }
            let modulus = 4usize.pow(k.max(1) as u32);
            1 + k + usize::from(!half.is_multiple_of(modulus))
        }
    }
}

// ---------------------------------------------------------------------
// Shared-memory plan (AtA-S).
// ---------------------------------------------------------------------

/// One leaf task of the shared-memory plan. Operands are *full-height*
/// column strips of `A` (Eq. 7), so no two tasks write the same `C`
/// element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedLeaf {
    /// Thread that executes this task.
    pub proc_id: usize,
    /// Task kind.
    pub kind: ComputeKind,
    /// Column range of `A` forming the (transposed) left operand.
    pub a_cols: (usize, usize),
    /// Column range of `A` forming the right operand (equals `a_cols`
    /// for [`ComputeKind::AtA`]).
    pub b_cols: (usize, usize),
    /// Destination block of `C`. For `AtA` leaves this is the square
    /// diagonal block of which only the lower triangle is written.
    pub c: Region,
}

/// The complete shared-memory schedule for `P` threads.
#[derive(Debug, Clone)]
pub struct SharedPlan {
    /// Output order (`C` is `n x n`) the plan was built for.
    pub n: usize,
    /// Thread count the plan was built for.
    pub procs: usize,
    /// All leaf tasks; a thread may own several.
    pub tasks: Vec<SharedLeaf>,
    /// Depth of the deepest leaf (root = level 0).
    pub depth: usize,
}

impl SharedPlan {
    /// Build the plan for an `m x n` input (`m` is irrelevant to the
    /// split — strips are full height) and `procs` threads.
    ///
    /// # Panics
    /// If `procs == 0`.
    pub fn build(n: usize, procs: usize) -> Self {
        assert!(procs > 0, "SharedPlan needs at least one thread");
        let mut plan = SharedPlan {
            n,
            procs,
            tasks: Vec::new(),
            depth: 0,
        };
        if n > 0 {
            plan.ata_node(0, n, 0, procs, 0);
        }
        plan
    }

    /// Tasks owned by one thread, in creation (BFS-ish) order.
    pub fn tasks_for(&self, proc_id: usize) -> impl Iterator<Item = &SharedLeaf> {
        self.tasks.iter().filter(move |t| t.proc_id == proc_id)
    }

    fn leaf(&mut self, leaf: SharedLeaf, depth: usize) {
        self.depth = self.depth.max(depth);
        self.tasks.push(leaf);
    }

    fn ata_node(&mut self, c0: usize, c1: usize, lo: usize, hi: usize, depth: usize) {
        let p = hi - lo;
        let len = c1 - c0;
        if len == 0 {
            return;
        }
        if p <= 1 || len <= 1 {
            self.leaf(
                SharedLeaf {
                    proc_id: lo,
                    kind: ComputeKind::AtA,
                    a_cols: (c0, c1),
                    b_cols: (c0, c1),
                    c: Region::new(c0, c1, c0, c1),
                },
                depth,
            );
            return;
        }
        let mid = c0 + half_up(len);
        // alpha = 1/2: the C21 product costs as much as both diagonal
        // recursions together, so half the threads go to it.
        let gp = (p / 2).max(1);
        let rem = p - gp;
        self.gemm_node((mid, c1), (c0, mid), lo, lo + gp, depth + 1);
        if rem == 1 {
            // A single thread serves both diagonal halves (two leaves).
            self.ata_node(c0, mid, lo + gp, hi, depth + 1);
            self.ata_node(mid, c1, lo + gp, hi, depth + 1);
        } else {
            let lp = half_up(rem);
            self.ata_node(c0, mid, lo + gp, lo + gp + lp, depth + 1);
            self.ata_node(mid, c1, lo + gp + lp, hi, depth + 1);
        }
    }

    /// `C[ci, cj] += A[:, ci]^T A[:, cj]` distributed over `lo..hi`.
    fn gemm_node(
        &mut self,
        ci: (usize, usize),
        cj: (usize, usize),
        lo: usize,
        hi: usize,
        depth: usize,
    ) {
        let q = hi - lo;
        let (i0, i1) = ci;
        let (j0, j1) = cj;
        if i1 == i0 || j1 == j0 {
            return;
        }
        if q <= 1 {
            self.leaf(
                SharedLeaf {
                    proc_id: lo,
                    kind: ComputeKind::AtB,
                    a_cols: ci,
                    b_cols: cj,
                    c: Region::new(i0, i1, j0, j1),
                },
                depth,
            );
            return;
        }
        if q < 4 || (i1 - i0 <= 1 && j1 - j0 <= 1) {
            // Incomplete level: vertical tiling of the C block (Fig. 2).
            let strips = q.min((j1 - j0).max(1));
            let w = (j1 - j0).div_ceil(strips);
            for t in 0..strips {
                let s0 = j0 + t * w;
                let s1 = (s0 + w).min(j1);
                if s0 >= s1 {
                    break;
                }
                self.leaf(
                    SharedLeaf {
                        proc_id: lo + t,
                        kind: ComputeKind::AtB,
                        a_cols: ci,
                        b_cols: (s0, s1),
                        c: Region::new(i0, i1, s0, s1),
                    },
                    depth + 1,
                );
            }
            return;
        }
        // Complete level: quadrants of the C block, threads split 4 ways.
        let im = i0 + half_up(i1 - i0);
        let jm = j0 + half_up(j1 - j0);
        let quads = [
            ((i0, im), (j0, jm)),
            ((i0, im), (jm, j1)),
            ((im, i1), (j0, jm)),
            ((im, i1), (jm, j1)),
        ];
        // q >= 4 here, so every share is >= 1 and the shares sum to q.
        let base = q / 4;
        let extra = q % 4;
        let mut cur = lo;
        for (t, &(qi, qj)) in quads.iter().enumerate() {
            let share = base + usize::from(t < extra);
            self.gemm_node(qi, qj, cur, cur + share, depth + 1);
            cur += share;
        }
        debug_assert_eq!(cur, hi);
    }
}

// ---------------------------------------------------------------------
// Distributed tree (AtA-D).
// ---------------------------------------------------------------------

/// A node of the distributed task tree.
#[derive(Debug, Clone)]
pub struct DistNode {
    /// Index in [`DistTree::nodes`].
    pub id: usize,
    /// Parent node (`None` for the root).
    pub parent: Option<usize>,
    /// Children node ids (empty for leaves).
    pub children: Vec<usize>,
    /// Process that owns this node: executes the leaf computation, or
    /// gathers/sums the children's results for inner nodes.
    pub owner: usize,
    /// Processes `[lo, hi)` cooperating below this node.
    pub procs: (usize, usize),
    /// Task kind.
    pub kind: ComputeKind,
    /// Left operand: a block of `A` (transposed in the product).
    pub a: Region,
    /// Right operand: a block of `A` (`== a` for `AtA` nodes).
    pub b: Region,
    /// Destination region of `C`. For `AtA` nodes only the lower
    /// triangle of this square region is meaningful.
    pub c: Region,
}

impl DistNode {
    /// True when this node carries a leaf computation.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The distributed task tree (Figure 1).
#[derive(Debug, Clone)]
pub struct DistTree {
    /// Process count the tree was built for.
    pub procs: usize,
    /// Nodes in creation order; node 0 is the root.
    pub nodes: Vec<DistNode>,
    /// Depth of the deepest leaf (root = 0).
    pub depth: usize,
}

impl DistTree {
    /// Build the tree for an `m x n` matrix and `procs` processes with
    /// the paper's load-balance parameter `alpha = 1/2` (§4.1.2).
    ///
    /// # Panics
    /// If `procs == 0`.
    pub fn build(m: usize, n: usize, procs: usize) -> Self {
        Self::build_with_alpha(m, n, procs, 0.5)
    }

    /// Build the tree with an explicit load-balance parameter
    /// `alpha ∈ (0, 1)`: the fraction of each level's processes assigned
    /// to the two `A^T B` children (§4.1.2 derives `alpha = 1/2` from
    /// `4 T(n)/(1-alpha)P = 4 T(n)/alpha P`; the `ablation` bench sweeps
    /// it to confirm the optimum). The fraction is clamped so that both
    /// gemm children and the AtA group keep at least one process.
    ///
    /// # Panics
    /// If `procs == 0` or `alpha` is not in `(0, 1)`.
    pub fn build_with_alpha(m: usize, n: usize, procs: usize, alpha: f64) -> Self {
        assert!(procs > 0, "DistTree needs at least one process");
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0, 1), got {alpha}"
        );
        *DIST_TREE_BUILDS_BY_SHAPE
            .lock()
            .expect("build counter poisoned")
            .get_or_insert_with(HashMap::new)
            .entry((m, n, procs))
            .or_insert(0) += 1;
        let mut tree = DistTree {
            procs,
            nodes: Vec::new(),
            depth: 0,
        };
        tree.ata_node(
            None,
            Region::new(0, m, 0, n),
            Region::new(0, n, 0, n),
            0,
            procs,
            0,
            alpha,
        );
        tree
    }

    /// Process-wide number of [`DistTree`] constructions for one
    /// specific `(m, n, procs)` shape.
    ///
    /// Plan-level amortization tests snapshot this around repeated
    /// executions to prove that `ata-dist`'s `DistPlan` — which the
    /// facade's split lane keeps per shape — builds its tree once, at
    /// planning time, and never again. Keying by shape keeps the
    /// assertion deterministic under the parallel test harness: sibling
    /// tests building trees for *other* shapes cannot perturb the count,
    /// so a test only needs a shape unique within its own binary.
    pub fn build_count_for(m: usize, n: usize, procs: usize) -> u64 {
        DIST_TREE_BUILDS_BY_SHAPE
            .lock()
            .expect("build counter poisoned")
            .as_ref()
            .and_then(|map| map.get(&(m, n, procs)).copied())
            .unwrap_or(0)
    }

    /// All leaf nodes.
    pub fn leaves(&self) -> impl Iterator<Item = &DistNode> {
        self.nodes.iter().filter(|n| n.is_leaf())
    }

    /// Leaf tasks owned by `rank`.
    pub fn tasks_for(&self, rank: usize) -> Vec<&DistNode> {
        self.nodes
            .iter()
            .filter(|n| n.is_leaf() && n.owner == rank)
            .collect()
    }

    #[allow(clippy::too_many_arguments)] // one argument per DistNode field
    fn push(
        &mut self,
        parent: Option<usize>,
        kind: ComputeKind,
        a: Region,
        b: Region,
        c: Region,
        lo: usize,
        hi: usize,
        depth: usize,
    ) -> usize {
        let id = self.nodes.len();
        self.nodes.push(DistNode {
            id,
            parent,
            children: Vec::new(),
            owner: lo,
            procs: (lo, hi),
            kind,
            a,
            b,
            c,
        });
        if let Some(p) = parent {
            self.nodes[p].children.push(id);
        }
        self.depth = self.depth.max(depth);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn ata_node(
        &mut self,
        parent: Option<usize>,
        a: Region,
        c: Region,
        lo: usize,
        hi: usize,
        depth: usize,
        alpha: f64,
    ) -> usize {
        let id = self.push(parent, ComputeKind::AtA, a, a, c, lo, hi, depth);
        let p = hi - lo;
        if p <= 1 || a.cols() <= 1 || a.is_empty() {
            return id; // leaf
        }
        if p < 6 {
            // Incomplete level: equal-area triangle bands, one process
            // each; a band is one A^T B rectangle plus one diagonal A^T A
            // tile (both leaves, same owner).
            let bounds = triangle_row_partition(a.cols(), p);
            for t in 0..p {
                let (b0, b1) = (bounds[t], bounds[t + 1]);
                if b0 == b1 {
                    continue;
                }
                let band_cols = Region::new(a.r0, a.r1, a.c0 + b0, a.c0 + b1);
                if b0 > 0 {
                    let left_cols = Region::new(a.r0, a.r1, a.c0, a.c0 + b0);
                    let c_rect = Region::new(c.r0 + b0, c.r0 + b1, c.c0, c.c0 + b0);
                    self.push(
                        Some(id),
                        ComputeKind::AtB,
                        band_cols,
                        left_cols,
                        c_rect,
                        lo + t,
                        lo + t + 1,
                        depth + 1,
                    );
                }
                let c_diag = Region::new(c.r0 + b0, c.r0 + b1, c.c0 + b0, c.c0 + b1);
                self.push(
                    Some(id),
                    ComputeKind::AtA,
                    band_cols,
                    band_cols,
                    c_diag,
                    lo + t,
                    lo + t + 1,
                    depth + 1,
                );
            }
            return id;
        }

        // Complete level: quadrants. alpha = 1/2 (§4.1.2): half the
        // processes to the two gemm children, half to the four AtA
        // children; the owner (lo) joins the first gemm group, matching
        // "after the first parallel level, p0 works on an A^T B task".
        // At exactly p = 6 each of the six children gets one process —
        // this is what makes l(6) = 1 in Eq. 5.
        let rm = a.r0 + half_up(a.rows());
        let cm = a.c0 + half_up(a.cols());
        let a11 = Region::new(a.r0, rm, a.c0, cm);
        let a12 = Region::new(a.r0, rm, cm, a.c1);
        let a21 = Region::new(rm, a.r1, a.c0, cm);
        let a22 = Region::new(rm, a.r1, cm, a.c1);
        let half = cm - a.c0;
        let c11 = Region::new(c.r0, c.r0 + half, c.c0, c.c0 + half);
        let c22 = Region::new(c.r0 + half, c.r1, c.c0 + half, c.c1);
        let c21 = Region::new(c.r0 + half, c.r1, c.c0, c.c0 + half);

        let (g1, g2, a_total) = if p == 6 {
            (1, 1, 4)
        } else {
            // alpha * P processes for the two gemm children, clamped so
            // both gemm children and the AtA group stay non-empty.
            let g_total = ((alpha * p as f64).round() as usize).clamp(2, p - 4);
            (half_up(g_total), g_total - half_up(g_total), p - g_total)
        };
        // Spread a_total over four AtA children; zero-share children are
        // co-hosted by the last process of the AtA group.
        let ab = a_total / 4;
        let ar = a_total % 4;
        let mut shares = [0usize; 4];
        for (t, s) in shares.iter_mut().enumerate() {
            *s = ab + usize::from(t < ar);
        }

        let mut cur = lo;
        self.atb_node(Some(id), a12, a11, c21, cur, cur + g1, depth + 1);
        cur += g1;
        self.atb_node(Some(id), a22, a21, c21, cur, cur + g2, depth + 1);
        cur += g2;
        let ata_children = [(a11, c11), (a21, c11), (a12, c22), (a22, c22)];
        for (t, &(ablk, cblk)) in ata_children.iter().enumerate() {
            if shares[t] == 0 {
                // co-host on the last proc
                self.ata_node(Some(id), ablk, cblk, hi - 1, hi, depth + 1, alpha);
            } else {
                self.ata_node(Some(id), ablk, cblk, cur, cur + shares[t], depth + 1, alpha);
                cur += shares[t];
            }
        }
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn atb_node(
        &mut self,
        parent: Option<usize>,
        a: Region,
        b: Region,
        c: Region,
        lo: usize,
        hi: usize,
        depth: usize,
    ) -> usize {
        let id = self.push(parent, ComputeKind::AtB, a, b, c, lo, hi, depth);
        let q = hi - lo;
        if q <= 1 || c.is_empty() {
            return id; // leaf
        }
        if q < 8 {
            // Incomplete level: vertical tiling of the C block (Fig. 2) —
            // one column strip of B (and C) per process.
            let strips = q.min(b.cols().max(1));
            let w = b.cols().div_ceil(strips);
            for t in 0..strips {
                let s0 = b.c0 + t * w;
                let s1 = (s0 + w).min(b.c1);
                if s0 >= s1 {
                    break;
                }
                let b_strip = Region::new(b.r0, b.r1, s0, s1);
                let c_strip = Region::new(c.r0, c.r1, c.c0 + (s0 - b.c0), c.c0 + (s1 - b.c0));
                self.push(
                    Some(id),
                    ComputeKind::AtB,
                    a,
                    b_strip,
                    c_strip,
                    lo + t,
                    lo + t + 1,
                    depth + 1,
                );
            }
            return id;
        }
        // Complete level: Algorithm 2's eight recursive calls — quadrant
        // split of A's columns (i), B's columns (j) and the shared row
        // range (l). (i, j, 1) and (i, j, 2) write the same C block;
        // the parent sums them at retrieval.
        let rm = a.r0 + half_up(a.rows());
        let am = a.c0 + half_up(a.cols());
        let bm = b.c0 + half_up(b.cols());
        // q >= 8 here, so every share is >= 1 and the shares sum to q.
        let base = q / 8;
        let extra = q % 8;
        let mut cur = lo;
        let mut t = 0;
        for (i0, i1) in [(a.c0, am), (am, a.c1)] {
            for (j0, j1) in [(b.c0, bm), (bm, b.c1)] {
                for (r0, r1) in [(a.r0, rm), (rm, a.r1)] {
                    let share = base + usize::from(t < extra);
                    let a_blk = Region::new(r0, r1, i0, i1);
                    let b_blk = Region::new(r0, r1, j0, j1);
                    let c_blk = Region::new(
                        c.r0 + (i0 - a.c0),
                        c.r0 + (i1 - a.c0),
                        c.c0 + (j0 - b.c0),
                        c.c0 + (j1 - b.c0),
                    );
                    self.atb_node(Some(id), a_blk, b_blk, c_blk, cur, cur + share, depth + 1);
                    cur += share;
                    t += 1;
                }
            }
        }
        debug_assert_eq!(cur, hi);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference, Matrix};

    // ---------- closed forms ----------

    #[test]
    fn dist_levels_matches_paper_examples() {
        assert_eq!(dist_levels(1), 0);
        for p in 2..=6 {
            assert_eq!(dist_levels(p), 1, "P={p}");
        }
        // P = 16: k = 0 (4/8 < 1), sign(4 mod 8) = 1 -> 2 (Figure 1).
        assert_eq!(dist_levels(16), 2);
        // P = 32: k = 1 (8/8 = 1), sign(8 mod 8) = 0 -> 2.
        assert_eq!(dist_levels(32), 2);
        // P = 64: k = 1 (16/8 >= 1, 16/64 < 1), sign(16 mod 8) = 0 -> 2.
        assert_eq!(dist_levels(64), 2);
        // P = 256: k = 2, sign(64 mod 64) = 0 -> 3.
        assert_eq!(dist_levels(256), 3);
    }

    #[test]
    fn shared_levels_matches_paper_examples() {
        assert_eq!(shared_levels(1), 0);
        assert_eq!(shared_levels(2), 1);
        assert_eq!(shared_levels(3), 1);
        // P = 4: k=0, sign(2 mod 4)=1 -> 2.
        assert_eq!(shared_levels(4), 2);
        // P = 8: half=4, k=1, sign(4 mod 4)=0 -> 2.
        assert_eq!(shared_levels(8), 2);
        // P = 16: half=8, k=1, sign(8 mod 4)=0 -> 2.
        assert_eq!(shared_levels(16), 2);
        // P = 32: half=16, k=2, sign(16 mod 16)=0 -> 3.
        assert_eq!(shared_levels(32), 3);
    }

    #[test]
    fn level_functions_are_monotone_stepwise() {
        for f in [dist_levels as fn(usize) -> usize, shared_levels] {
            let mut prev = 0;
            for p in 1..=512 {
                let l = f(p);
                assert!(l + 1 >= prev, "levels must not drop by more than roundoff");
                assert!(l >= prev.saturating_sub(1));
                prev = prev.max(l);
            }
            // log-like growth: l(512) stays small.
            assert!(f(512) <= 5);
        }
    }

    // ---------- shared plan ----------

    /// Execute a shared plan sequentially with naive kernels; must
    /// reproduce the full lower triangle of A^T A exactly once.
    fn run_shared_plan(n: usize, p: usize) {
        let m = n + 3;
        let a = gen::standard::<f64>(n as u64 * 7 + p as u64, m, n);
        let plan = SharedPlan::build(n, p);
        let mut c = Matrix::<f64>::zeros(n, n);
        for t in &plan.tasks {
            let a_left = a.as_ref().block(0, m, t.a_cols.0, t.a_cols.1);
            match t.kind {
                ComputeKind::AtA => {
                    let mut blk = c.as_mut().into_block(t.c.r0, t.c.r1, t.c.c0, t.c.c1);
                    reference::syrk_ln(1.0, a_left, &mut blk);
                }
                ComputeKind::AtB => {
                    let b = a.as_ref().block(0, m, t.b_cols.0, t.b_cols.1);
                    let mut blk = c.as_mut().into_block(t.c.r0, t.c.r1, t.c.c0, t.c.c1);
                    reference::gemm_tn(1.0, a_left, b, &mut blk);
                }
            }
        }
        let mut c_ref = Matrix::<f64>::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
        let diff = c.max_abs_diff_lower(&c_ref);
        assert!(
            diff < 1e-10,
            "n={n} P={p}: plan execution differs by {diff}"
        );
    }

    #[test]
    fn shared_plan_reconstructs_ata_for_many_p() {
        for p in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 16, 31, 32] {
            run_shared_plan(64, p);
        }
    }

    #[test]
    fn shared_plan_small_matrices() {
        for p in [1usize, 2, 4, 16] {
            for n in [1usize, 2, 3, 5] {
                run_shared_plan(n, p);
            }
        }
    }

    #[test]
    fn shared_plan_regions_are_pairwise_disjoint() {
        for p in [2usize, 3, 4, 7, 8, 16, 64] {
            let plan = SharedPlan::build(128, p);
            for (i, t1) in plan.tasks.iter().enumerate() {
                for t2 in &plan.tasks[i + 1..] {
                    assert!(
                        !t1.c.intersects(&t2.c),
                        "P={p}: overlapping writes {t1:?} vs {t2:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_plan_covers_lower_triangle_area() {
        let n = 96usize;
        for p in [1usize, 2, 5, 8, 16] {
            let plan = SharedPlan::build(n, p);
            let area: usize = plan
                .tasks
                .iter()
                .map(|t| match t.kind {
                    ComputeKind::AtA => {
                        let l = t.c.rows();
                        l * (l + 1) / 2
                    }
                    ComputeKind::AtB => t.c.area(),
                })
                .sum();
            assert_eq!(area, n * (n + 1) / 2, "P={p}");
        }
    }

    #[test]
    fn shared_plan_uses_all_procs_when_matrix_is_big_enough() {
        for p in [2usize, 4, 8, 16] {
            let plan = SharedPlan::build(256, p);
            let mut used = vec![false; p];
            for t in &plan.tasks {
                assert!(t.proc_id < p);
                used[t.proc_id] = true;
            }
            assert!(used.iter().all(|&u| u), "P={p}: idle threads {used:?}");
        }
    }

    #[test]
    fn shared_plan_depth_matches_formula_on_complete_levels() {
        // Complete levels: P = 2 * 4^k and the trivial cases.
        for (p, expect) in [(1usize, 0usize), (2, 1), (3, 1), (8, 2), (32, 3)] {
            let plan = SharedPlan::build(1 << 12, p);
            assert_eq!(plan.depth, expect, "P={p}");
            assert_eq!(shared_levels(p), expect, "formula P={p}");
        }
        // Elsewhere the construction is within one level of Eq. 6.
        for p in [4usize, 5, 6, 7, 12, 16, 24, 64] {
            let plan = SharedPlan::build(1 << 12, p);
            let f = shared_levels(p);
            assert!(
                plan.depth >= f && plan.depth <= f + 1,
                "P={p}: depth {} vs formula {f}",
                plan.depth
            );
        }
    }

    // ---------- distributed tree ----------

    /// Execute a dist tree: leaves computed naively, then accumulated
    /// (simulating gather-with-sums). Must reproduce lower(A^T A).
    fn run_dist_tree(m: usize, n: usize, p: usize) {
        let a = gen::standard::<f64>(m as u64 + n as u64 * 3 + p as u64, m, n);
        let tree = DistTree::build(m, n, p);
        let mut c = Matrix::<f64>::zeros(n, n);
        for leaf in tree.leaves() {
            let a_blk = a.as_ref().block(leaf.a.r0, leaf.a.r1, leaf.a.c0, leaf.a.c1);
            match leaf.kind {
                ComputeKind::AtA => {
                    let mut blk = c
                        .as_mut()
                        .into_block(leaf.c.r0, leaf.c.r1, leaf.c.c0, leaf.c.c1);
                    reference::syrk_ln(1.0, a_blk, &mut blk);
                }
                ComputeKind::AtB => {
                    let b_blk = a.as_ref().block(leaf.b.r0, leaf.b.r1, leaf.b.c0, leaf.b.c1);
                    let mut blk = c
                        .as_mut()
                        .into_block(leaf.c.r0, leaf.c.r1, leaf.c.c0, leaf.c.c1);
                    reference::gemm_tn(1.0, a_blk, b_blk, &mut blk);
                }
            }
        }
        let mut c_ref = Matrix::<f64>::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
        let diff = c.max_abs_diff_lower(&c_ref);
        assert!(
            diff < 1e-10,
            "m={m} n={n} P={p}: dist tree differs by {diff}"
        );
    }

    #[test]
    fn dist_tree_reconstructs_ata_for_many_p() {
        for p in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64] {
            run_dist_tree(40, 36, p);
        }
    }

    #[test]
    fn dist_tree_rectangular_inputs() {
        for &(m, n) in &[(70, 20), (20, 70), (33, 33), (5, 64)] {
            for p in [4usize, 16, 64] {
                run_dist_tree(m, n, p);
            }
        }
    }

    /// Execute a dist tree built with an explicit alpha; correctness must
    /// be alpha-independent (only the load balance changes).
    fn run_dist_tree_alpha(m: usize, n: usize, p: usize, alpha: f64) {
        let a = gen::standard::<f64>(77, m, n);
        let tree = DistTree::build_with_alpha(m, n, p, alpha);
        let mut c = Matrix::<f64>::zeros(n, n);
        for leaf in tree.leaves() {
            let a_blk = a.as_ref().block(leaf.a.r0, leaf.a.r1, leaf.a.c0, leaf.a.c1);
            match leaf.kind {
                ComputeKind::AtA => {
                    let mut blk = c
                        .as_mut()
                        .into_block(leaf.c.r0, leaf.c.r1, leaf.c.c0, leaf.c.c1);
                    reference::syrk_ln(1.0, a_blk, &mut blk);
                }
                ComputeKind::AtB => {
                    let b_blk = a.as_ref().block(leaf.b.r0, leaf.b.r1, leaf.b.c0, leaf.b.c1);
                    let mut blk = c
                        .as_mut()
                        .into_block(leaf.c.r0, leaf.c.r1, leaf.c.c0, leaf.c.c1);
                    reference::gemm_tn(1.0, a_blk, b_blk, &mut blk);
                }
            }
        }
        let mut c_ref = Matrix::<f64>::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
        let diff = c.max_abs_diff_lower(&c_ref);
        assert!(
            diff < 1e-10,
            "alpha={alpha} P={p}: dist tree differs by {diff}"
        );
    }

    #[test]
    fn dist_tree_alpha_sweep_stays_correct() {
        for &alpha in &[0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9] {
            for p in [7usize, 12, 16, 32] {
                run_dist_tree_alpha(48, 40, p, alpha);
            }
        }
    }

    #[test]
    fn dist_tree_alpha_half_is_default_build() {
        let t1 = DistTree::build(64, 64, 24);
        let t2 = DistTree::build_with_alpha(64, 64, 24, 0.5);
        assert_eq!(t1.nodes.len(), t2.nodes.len());
        for (a, b) in t1.nodes.iter().zip(&t2.nodes) {
            assert_eq!(a.owner, b.owner);
            assert_eq!(a.procs, b.procs);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn dist_tree_alpha_shifts_gemm_share() {
        // With alpha = 0.75 the two gemm children of the root get 3/4 of
        // the processes; with 0.25 only a quarter.
        let p = 32usize;
        let share = |alpha: f64| {
            let tree = DistTree::build_with_alpha(64, 64, p, alpha);
            let root_children: Vec<_> = tree.nodes[0]
                .children
                .iter()
                .map(|&c| &tree.nodes[c])
                .collect();
            root_children
                .iter()
                .filter(|n| n.kind == ComputeKind::AtB)
                .map(|n| n.procs.1 - n.procs.0)
                .sum::<usize>()
        };
        assert_eq!(share(0.5), 16);
        assert_eq!(share(0.75), 24);
        assert_eq!(share(0.25), 8);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn dist_tree_alpha_out_of_range_rejected() {
        let _ = DistTree::build_with_alpha(8, 8, 8, 1.0);
    }

    #[test]
    fn dist_tree_root_is_proc_zero_and_parents_consistent() {
        let tree = DistTree::build(64, 64, 16);
        assert_eq!(tree.nodes[0].owner, 0);
        assert_eq!(tree.nodes[0].parent, None);
        for node in &tree.nodes[1..] {
            let parent = &tree.nodes[node.parent.expect("non-root must have parent")];
            assert!(parent.children.contains(&node.id));
            // Child procs nest inside parent procs.
            assert!(node.procs.0 >= parent.procs.0 && node.procs.1 <= parent.procs.1);
        }
    }

    #[test]
    fn dist_tree_p0_computes_a_gemm_task_after_level_one() {
        // §4.3.2: "After the first parallel level, p0 works on a A^T B task".
        let tree = DistTree::build(256, 256, 16);
        let tasks = tree.tasks_for(0);
        assert!(!tasks.is_empty());
        assert!(tasks.iter().all(|t| t.kind == ComputeKind::AtB));
    }

    #[test]
    fn dist_tree_figure1_shape_for_p16() {
        // Level 1 must have 6 children: 2 gemm (4 procs each), 4 AtA
        // (2 procs each) — Figure 1's split.
        let tree = DistTree::build(1 << 10, 1 << 10, 16);
        let root = &tree.nodes[0];
        assert_eq!(root.children.len(), 6);
        let kinds: Vec<_> = root.children.iter().map(|&c| tree.nodes[c].kind).collect();
        assert_eq!(kinds.iter().filter(|k| **k == ComputeKind::AtB).count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == ComputeKind::AtA).count(), 4);
        for &cid in &root.children {
            let c = &tree.nodes[cid];
            let share = c.procs.1 - c.procs.0;
            match c.kind {
                ComputeKind::AtB => assert_eq!(share, 4, "gemm children get P/4"),
                ComputeKind::AtA => assert_eq!(share, 2, "AtA children get P/8"),
            }
        }
        assert_eq!(tree.depth, 2, "Figure 1 has two parallel levels");
        assert_eq!(tree.depth, dist_levels(16));
    }

    #[test]
    fn dist_tree_depth_tracks_formula() {
        for (p, exact) in [
            (1usize, true),
            (2, true),
            (4, true),
            (6, true),
            (16, true),
            (32, true),
        ] {
            let tree = DistTree::build(1 << 11, 1 << 11, p);
            let f = dist_levels(p);
            if exact {
                assert_eq!(tree.depth, f, "P={p}");
            }
        }
        // Remainder handling may cost one extra level vs Eq. 5.
        for p in [8usize, 12, 24, 48, 64, 128] {
            let tree = DistTree::build(1 << 11, 1 << 11, p);
            let f = dist_levels(p);
            assert!(
                tree.depth >= f && tree.depth <= f + 1,
                "P={p}: depth {} vs formula {f}",
                tree.depth
            );
        }
    }

    #[test]
    fn dist_tree_every_proc_gets_work_on_big_inputs() {
        for p in [2usize, 6, 8, 16, 64] {
            let tree = DistTree::build(512, 512, p);
            let mut used = vec![false; p];
            for leaf in tree.leaves() {
                assert!(leaf.owner < p, "owner out of range");
                used[leaf.owner] = true;
            }
            assert!(used.iter().all(|&u| u), "P={p}: idle processes");
        }
    }

    #[test]
    fn region_intersection_logic() {
        let a = Region::new(0, 4, 0, 4);
        let b = Region::new(3, 5, 3, 5);
        let c = Region::new(4, 8, 0, 4);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(
            !Region::new(0, 0, 0, 4).intersects(&a),
            "empty never intersects"
        );
        assert_eq!(a.area(), 16);
        assert_eq!(b.rows(), 2);
    }
}
