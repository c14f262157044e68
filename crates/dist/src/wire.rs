//! The wire layer: how matrix blocks travel between ranks.
//!
//! Payloads are flattened `Vec<T>` buffers, so the simulator's
//! word-count accounting equals the element count — the quantity
//! Proposition 4.2 talks about. Two encodings exist, selected by
//! [`WireFormat`]:
//!
//! * [`WireFormat::Dense`] — row-major flattening of the full block
//!   (`rows * cols` words). Always used for operand blocks of `A` and
//!   for the rectangular `A^T B` result blocks, which have no exploitable
//!   structure.
//! * [`WireFormat::SymPacked`] — §4.3.1's packed encoding for the
//!   *symmetric* `A^T A` result blocks: only the lower triangle ships
//!   (`n(n+1)/2` words for an order-`n` block), carried by the
//!   [`SymPacked`] payload type. These payloads are what Proposition
//!   4.2 upper-bounds with its `n(n+2)/2` term, and they strictly
//!   reduce the words converging on the root during retrieval versus
//!   the `n^2` dense encoding.
//!
//! The encoding is lossless either way: `A^T A` blocks are computed with
//! a zero strict-upper triangle, so dropping it on the wire and
//! re-materializing zeros on receive reproduces the dense block
//! bit-for-bit ([`pack_c`] / [`unpack_c`] round-trip exactly, which the
//! `wire_props` proptests pin down).

use ata_core::tasktree::ComputeKind;
use ata_mat::{MatRef, Matrix, Scalar};

pub use ata_mat::packed::{packed_len, SymPacked};

/// Encoding of result (`C`) blocks on the wire (§4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Row-major dense blocks, `rows * cols` words each.
    Dense,
    /// Packed lower triangles for symmetric (`A^T A`) blocks — the
    /// paper's default for "larger volumes of data" (§4.3.1); general
    /// (`A^T B`) blocks still ship dense.
    #[default]
    SymPacked,
}

impl WireFormat {
    /// Words on the wire for a `rows x cols` result block of the given
    /// task kind.
    ///
    /// # Panics
    /// If an [`ComputeKind::AtA`] block is not square.
    pub(crate) fn c_words(self, kind: ComputeKind, rows: usize, cols: usize) -> usize {
        match (self, kind) {
            (WireFormat::SymPacked, ComputeKind::AtA) => {
                assert_eq!(rows, cols, "A^T A blocks are square");
                packed_len(rows)
            }
            _ => rows * cols,
        }
    }
}

/// Flatten a view row-major.
pub(crate) fn pack_view<T: Scalar>(v: MatRef<'_, T>) -> Vec<T> {
    let mut out = Vec::with_capacity(v.rows() * v.cols());
    append_view(&mut out, v);
    out
}

/// Append a row-major flattening of `v` to an existing payload buffer
/// (the scatter-chunk assembly path).
pub fn append_view<T: Scalar>(dst: &mut Vec<T>, v: MatRef<'_, T>) {
    for i in 0..v.rows() {
        dst.extend_from_slice(v.row(i));
    }
}

/// Rebuild a `rows x cols` matrix from a flattened payload.
///
/// # Panics
/// If the payload length does not match the shape.
pub(crate) fn unpack<T: Scalar>(data: Vec<T>, rows: usize, cols: usize) -> Matrix<T> {
    assert_eq!(data.len(), rows * cols, "payload shape mismatch");
    Matrix::from_vec(data, rows, cols)
}

/// Read the next `rows x cols` block out of a concatenated payload,
/// advancing `off` — the receive side of scatter-chunk disassembly.
///
/// # Panics
/// If fewer than `rows * cols` elements remain.
pub fn read_block<T: Scalar>(data: &[T], off: &mut usize, rows: usize, cols: usize) -> Matrix<T> {
    let len = rows * cols;
    assert!(
        *off + len <= data.len(),
        "payload underrun: need {len} at offset {off}, have {}",
        data.len()
    );
    let m = Matrix::from_vec(data[*off..*off + len].to_vec(), rows, cols);
    *off += len;
    m
}

/// Encode a result block for the wire: symmetric (`AtA`) blocks pack
/// their lower triangle under [`WireFormat::SymPacked`], everything
/// else ships dense.
pub fn pack_c<T: Scalar>(block: &Matrix<T>, kind: ComputeKind, format: WireFormat) -> Vec<T> {
    match (format, kind) {
        (WireFormat::SymPacked, ComputeKind::AtA) => SymPacked::from_lower(block).into_vec(),
        _ => pack_view(block.as_ref()),
    }
}

/// Decode a result block from the wire (inverse of [`pack_c`]). A
/// packed block comes back with its strict upper triangle zero —
/// exactly the shape `A^T A` result blocks have before packing, so the
/// gather-side sums never see a difference between wire formats.
///
/// # Panics
/// If the payload length does not match the declared shape and format.
pub fn unpack_c<T: Scalar>(
    data: Vec<T>,
    kind: ComputeKind,
    rows: usize,
    cols: usize,
    format: WireFormat,
) -> Matrix<T> {
    match (format, kind) {
        (WireFormat::SymPacked, ComputeKind::AtA) => {
            assert_eq!(rows, cols, "A^T A blocks are square");
            SymPacked::from_vec(data, rows).to_lower()
        }
        _ => unpack(data, rows, cols),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::gen;

    #[test]
    fn pack_unpack_roundtrip() {
        let a = gen::standard::<f64>(3, 7, 5);
        let packed = pack_view(a.as_ref());
        let back = unpack(packed, 7, 5);
        assert_eq!(back.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn pack_block_view_extracts_region() {
        let a = gen::standard::<f64>(4, 8, 6);
        let packed = pack_view(a.as_ref().block(2, 5, 1, 4));
        assert_eq!(packed.len(), 9);
        let back = unpack(packed, 3, 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(back[(i, j)], a[(i + 2, j + 1)]);
            }
        }
    }

    #[test]
    fn append_and_read_block_concatenate() {
        let a = gen::standard::<f64>(5, 6, 6);
        let mut buf = Vec::new();
        append_view(&mut buf, a.as_ref().block(0, 2, 0, 3));
        append_view(&mut buf, a.as_ref().block(2, 6, 3, 6));
        let mut off = 0usize;
        let first = read_block(&buf, &mut off, 2, 3);
        let second = read_block(&buf, &mut off, 4, 3);
        assert_eq!(off, buf.len());
        assert_eq!(first[(1, 2)], a[(1, 2)]);
        assert_eq!(second[(0, 0)], a[(2, 3)]);
    }

    #[test]
    fn lower_roundtrip_is_bit_identical() {
        // An AtA-style block: lower populated, strict upper zero.
        let n = 9usize;
        let mut blk = Matrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                blk[(i, j)] = (i * n + j) as f64 * 0.25 - 3.0;
            }
        }
        let p = SymPacked::from_lower(&blk);
        assert_eq!(p.len(), packed_len(n));
        let back = p.to_lower();
        assert_eq!(back.max_abs_diff(&blk), 0.0);
    }

    #[test]
    fn c_words_counts_both_formats() {
        use ComputeKind::{AtA, AtB};
        assert_eq!(WireFormat::Dense.c_words(AtA, 8, 8), 64);
        assert_eq!(WireFormat::SymPacked.c_words(AtA, 8, 8), 36);
        assert_eq!(WireFormat::SymPacked.c_words(AtB, 4, 6), 24);
        // Packed is strictly smaller from order 2 on.
        for n in 2..20 {
            assert!(
                WireFormat::SymPacked.c_words(AtA, n, n) < WireFormat::Dense.c_words(AtA, n, n)
            );
        }
    }

    #[test]
    fn pack_c_dispatches_on_kind_and_format() {
        let a = gen::standard::<f64>(6, 5, 5);
        let dense = pack_c(&a, ComputeKind::AtA, WireFormat::Dense);
        assert_eq!(dense.len(), 25);
        let packed = pack_c(&a, ComputeKind::AtA, WireFormat::SymPacked);
        assert_eq!(packed.len(), 15);
        let rect = pack_c(&a, ComputeKind::AtB, WireFormat::SymPacked);
        assert_eq!(rect.len(), 25, "general products always ship dense");
        let back = unpack_c(packed, ComputeKind::AtA, 5, 5, WireFormat::SymPacked);
        for i in 0..5 {
            for j in 0..=i {
                assert_eq!(back[(i, j)], a[(i, j)]);
            }
        }
    }
}
