//! 2D process grids and the `pdsyrk_`-style 2D baseline.
//!
//! ScaLAPACK distributes over a near-square `pr x pc` process grid; the
//! `Grid2d` type reproduces that mapping (row-major rank order, like
//! BLACS' default), and [`pdsyrk_2d`] is the corresponding 2D stand-in
//! for `pdsyrk` — each grid cell owns one tile of the lower triangle of
//! `C = A^T A`. Compare with the 1D [`crate::baselines::pdsyrk_like`];
//! `ata-bench/bin/ablation` runs both (Ablation 2).

use ata_kernels::gemm_tn;
use ata_mat::{Matrix, Scalar};
use ata_mpisim::Comm;

use crate::wire;

const TAG_PANEL_I: u64 = 1;
const TAG_PANEL_J: u64 = 2;
const TAG_TILE: u64 = 3;

/// A `rows x cols` process grid over ranks `0 .. rows * cols` in
/// row-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Grid2d {
    /// Process-grid rows (`pr`).
    pub rows: usize,
    /// Process-grid columns (`pc`).
    pub cols: usize,
}

impl Grid2d {
    /// The most-square grid with `rows * cols == p` (ScaLAPACK's usual
    /// choice): the largest divisor pair closest to `sqrt(p)`.
    ///
    /// # Panics
    /// If `p == 0`.
    pub(crate) fn square(p: usize) -> Self {
        assert!(p > 0, "grid needs at least one process");
        let mut pr = (p as f64).sqrt().floor() as usize;
        while pr > 1 && !p.is_multiple_of(pr) {
            pr -= 1;
        }
        let pr = pr.max(1);
        Self {
            rows: pr,
            cols: p / pr,
        }
    }

    /// Number of grid cells.
    pub(crate) fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Grid coordinates of `rank`, or `None` if the rank is outside the
    /// grid (ranks beyond `rows * cols` idle, as in BLACS).
    pub(crate) fn coords(&self, rank: usize) -> Option<(usize, usize)> {
        (rank < self.len()).then(|| (rank / self.cols, rank % self.cols))
    }

    /// Rank owning grid cell `(i, j)`.
    ///
    /// # Panics
    /// If the cell is out of range.
    pub(crate) fn rank_of(&self, i: usize, j: usize) -> usize {
        assert!(
            i < self.rows && j < self.cols,
            "cell ({i},{j}) outside {self:?}"
        );
        i * self.cols + j
    }
}

/// `parts + 1` boundaries splitting `0..n` into near-equal parts.
pub(crate) fn even_partition(n: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0, "partition needs at least one part");
    let base = n / parts;
    let extra = n % parts;
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for t in 0..parts {
        bounds.push(bounds[t] + base + usize::from(t < extra));
    }
    bounds
}

/// 2D-grid `pdsyrk` stand-in: lower triangle of `C = A^T A` with each
/// grid cell owning one `C` tile.
///
/// SPMD contract as in [`crate::ata_d`]: rank 0 passes `Some(&a)`
/// (`m x n`), others `None`; rank 0 returns the `n x n` lower-triangular
/// result. Tiles strictly above the diagonal are skipped; diagonal tiles
/// are masked to the lower triangle, so the strictly-upper part of the
/// result is zero.
///
/// # Panics
/// On contract violations (wrong rank passing input, shape mismatch).
pub fn pdsyrk_2d<T: Scalar>(
    input: Option<&Matrix<T>>,
    m: usize,
    n: usize,
    comm: &mut Comm<T>,
) -> Option<Matrix<T>> {
    let rank = comm.rank();
    if rank == 0 {
        let a = input.expect("rank 0 must provide the input matrix"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
        assert_eq!(a.shape(), (m, n), "input must be {m} x {n}");
    } else {
        assert!(input.is_none(), "non-root rank {rank} must pass None");
    }

    let grid = Grid2d::square(comm.size());
    let rb = even_partition(n, grid.rows);
    let cb = even_partition(n, grid.cols);
    // A cell (i, j) is active when its tile intersects the lower
    // triangle and is non-empty.
    let active = |i: usize, j: usize| {
        let (r0, r1) = (rb[i], rb[i + 1]);
        let (c0, c1) = (cb[j], cb[j + 1]);
        r1 > r0 && c1 > c0 && r1 > c0
    };

    if rank == 0 {
        let a = input.expect("checked above"); // ata-lint: allow(no-unwrap-in-lib): SPMD invariant stated in the expect message
                                               // Ship the two column panels each active cell needs.
        for i in 0..grid.rows {
            for j in 0..grid.cols {
                let target = grid.rank_of(i, j);
                if target == 0 || !active(i, j) {
                    continue;
                }
                comm.send(
                    target,
                    TAG_PANEL_I,
                    wire::pack_view(a.as_ref().block(0, m, rb[i], rb[i + 1])),
                );
                comm.send(
                    target,
                    TAG_PANEL_J,
                    wire::pack_view(a.as_ref().block(0, m, cb[j], cb[j + 1])),
                );
            }
        }
        // Own tile (cell (0, 0) — always on the diagonal).
        let mut c = Matrix::zeros(n, n);
        if active(0, 0) {
            let tile = compute_tile(
                a.as_ref().block(0, m, rb[0], rb[1]).to_matrix(),
                a.as_ref().block(0, m, cb[0], cb[1]).to_matrix(),
                (rb[0], cb[0]),
                comm,
            );
            paste_tile(&mut c, &tile, rb[0], cb[0]);
        }
        // Collect everyone else's tile.
        for i in 0..grid.rows {
            for j in 0..grid.cols {
                let source = grid.rank_of(i, j);
                if source == 0 || !active(i, j) {
                    continue;
                }
                let rows = rb[i + 1] - rb[i];
                let cols = cb[j + 1] - cb[j];
                let tile = wire::unpack(comm.recv(source, TAG_TILE), rows, cols);
                paste_tile(&mut c, &tile, rb[i], cb[j]);
            }
        }
        Some(c)
    } else {
        if let Some((i, j)) = grid.coords(rank) {
            if active(i, j) {
                let rows = rb[i + 1] - rb[i];
                let cols = cb[j + 1] - cb[j];
                let panel_i = wire::unpack(comm.recv(0, TAG_PANEL_I), m, rows);
                let panel_j = wire::unpack(comm.recv(0, TAG_PANEL_J), m, cols);
                let tile = compute_tile(panel_i, panel_j, (rb[i], cb[j]), comm);
                comm.send(0, TAG_TILE, tile.into_vec());
            }
        }
        None
    }
}

/// Compute one (masked) tile `A[:, Ri]^T A[:, Cj]`, keeping only entries
/// on or below the global diagonal.
fn compute_tile<T: Scalar>(
    panel_i: Matrix<T>,
    panel_j: Matrix<T>,
    origin: (usize, usize),
    comm: &mut Comm<T>,
) -> Matrix<T> {
    let (m, rows) = panel_i.shape();
    let cols = panel_j.cols();
    let mut tile = Matrix::zeros(rows, cols);
    gemm_tn(
        T::ONE,
        panel_i.as_ref(),
        panel_j.as_ref(),
        &mut tile.as_mut(),
    );
    comm.add_compute_flops(2.0 * (m * rows * cols) as f64);
    // Mask the strictly-upper part of diagonal-crossing tiles.
    let (r_origin, c_origin) = origin;
    for r in 0..rows {
        for c in 0..cols {
            if r_origin + r < c_origin + c {
                tile[(r, c)] = T::ZERO;
            }
        }
    }
    tile
}

/// Copy a tile into the result at `(r0, c0)`.
fn paste_tile<T: Scalar>(c: &mut Matrix<T>, tile: &Matrix<T>, r0: usize, c0: usize) {
    let mut dst = c
        .as_mut()
        .into_block(r0, r0 + tile.rows(), c0, c0 + tile.cols());
    dst.copy_from(tile.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::{gen, reference};
    use ata_mpisim::{run, CostModel};

    #[test]
    fn square_grids_are_sane() {
        assert_eq!(Grid2d::square(1), Grid2d { rows: 1, cols: 1 });
        assert_eq!(Grid2d::square(4), Grid2d { rows: 2, cols: 2 });
        assert_eq!(Grid2d::square(6), Grid2d { rows: 2, cols: 3 });
        assert_eq!(Grid2d::square(12), Grid2d { rows: 3, cols: 4 });
        assert_eq!(Grid2d::square(7), Grid2d { rows: 1, cols: 7 });
        for p in 1..40 {
            let g = Grid2d::square(p);
            assert_eq!(g.len(), p, "grid must use all ranks for P={p}");
            assert!(g.rows <= g.cols);
        }
    }

    #[test]
    fn coords_roundtrip() {
        let g = Grid2d::square(12);
        for rank in 0..12 {
            let (i, j) = g.coords(rank).expect("in grid");
            assert_eq!(g.rank_of(i, j), rank);
        }
        assert_eq!(g.coords(12), None);
    }

    #[test]
    fn even_partition_covers_and_balances() {
        for (n, p) in [(10usize, 3usize), (7, 7), (5, 8), (64, 4), (0, 2)] {
            let b = even_partition(n, p);
            assert_eq!(b.len(), p + 1);
            assert_eq!(b[0], 0);
            assert_eq!(b[p], n);
            for w in b.windows(2) {
                assert!(w[1] >= w[0]);
                assert!(w[1] - w[0] <= n / p + 1);
            }
        }
    }

    #[test]
    fn pdsyrk_2d_matches_oracle() {
        for (m, n, p) in [
            (40usize, 32usize, 1usize),
            (40, 32, 4),
            (48, 48, 6),
            (30, 45, 9),
            (33, 17, 8),
        ] {
            let a = gen::standard::<f64>(m as u64 + n as u64 * 5 + p as u64, m, n);
            let mut c_ref = Matrix::zeros(n, n);
            reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
            let a_ref = &a;
            let report = run(p, CostModel::zero(), move |comm| {
                let input = (comm.rank() == 0).then_some(a_ref);
                pdsyrk_2d(input, m, n, comm)
            });
            let c = report.results[0].as_ref().expect("root");
            assert!(c.max_abs_diff_lower(&c_ref) < 1e-10, "m={m} n={n} P={p}");
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(c[(i, j)], 0.0, "upper touched at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn more_ranks_than_tiles_is_fine() {
        let (m, n, p) = (12usize, 3usize, 16usize);
        let a = gen::standard::<f64>(9, m, n);
        let mut c_ref = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
        let a_ref = &a;
        let report = run(p, CostModel::zero(), move |comm| {
            let input = (comm.rank() == 0).then_some(a_ref);
            pdsyrk_2d(input, m, n, comm)
        });
        let c = report.results[0].as_ref().expect("root");
        assert!(c.max_abs_diff_lower(&c_ref) < 1e-12);
    }
}
