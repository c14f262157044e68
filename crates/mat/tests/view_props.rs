//! Property tests for the view layer: every split must partition the
//! index set exactly (no element lost, none duplicated) — the invariant
//! the embarrassingly-parallel scheduler's safety rests on.

use ata_mat::{gen, half_down, half_up, MatMut, Matrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quad_split_partitions_every_element(m in 0usize..24, n in 0usize..24) {
        let a = Matrix::from_fn(m, n, |i, j| (i * n + j) as f64);
        let (a11, a12, a21, a22) = a.as_ref().quad_split();
        let (m1, n1) = (half_up(m), half_up(n));
        prop_assert_eq!(a11.shape(), (m1, n1));
        prop_assert_eq!(a12.shape(), (m1, half_down(n)));
        prop_assert_eq!(a21.shape(), (half_down(m), n1));
        prop_assert_eq!(a22.shape(), (half_down(m), half_down(n)));
        // Every element appears in exactly one quadrant with its value.
        let mut seen = vec![false; m * n];
        let mut visit = |q: ata_mat::MatRef<'_, f64>, r0: usize, c0: usize| {
            for i in 0..q.rows() {
                for j in 0..q.cols() {
                    let gi = r0 + i;
                    let gj = c0 + j;
                    assert_eq!(*q.at(i, j), (gi * n + gj) as f64);
                    assert!(!seen[gi * n + gj], "duplicate coverage");
                    seen[gi * n + gj] = true;
                }
            }
        };
        visit(a11, 0, 0);
        visit(a12, 0, n1);
        visit(a21, m1, 0);
        visit(a22, m1, n1);
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mut_splits_write_each_element_once(
        m in 1usize..20,
        n in 1usize..20,
        r in 0usize..20,
        c in 0usize..20,
    ) {
        let r = r.min(m);
        let c = c.min(n);
        let mut data = vec![0.0f64; m * n];
        {
            let v = MatMut::from_slice(&mut data, m, n);
            let (top, bot) = v.split_at_row_mut(r);
            for mut half in [top, bot] {
                let cc = c.min(half.cols());
                let (mut l, mut rgt) = half.rb_mut().split_at_col_mut(cc);
                for i in 0..l.rows() {
                    for x in l.row_mut(i) { *x += 1.0; }
                }
                for i in 0..rgt.rows() {
                    for x in rgt.row_mut(i) { *x += 1.0; }
                }
            }
        }
        prop_assert!(data.iter().all(|&x| x == 1.0), "each element written exactly once");
    }

    #[test]
    fn nested_blocks_compose(
        m in 2usize..24,
        n in 2usize..24,
        seed in 0u64..100,
    ) {
        let a = gen::standard::<f64>(seed, m, n);
        // block of a block == directly-indexed block.
        let outer = a.as_ref().block(1, m, 1, n);
        let inner = outer.block(0, outer.rows() / 2 + 1, 0, outer.cols() / 2 + 1);
        for i in 0..inner.rows() {
            for j in 0..inner.cols() {
                prop_assert_eq!(*inner.at(i, j), a[(i + 1, j + 1)]);
            }
        }
    }

    #[test]
    fn packed_get_is_symmetric(n in 1usize..32, seed in 0u64..100) {
        let a = gen::standard::<f64>(seed, n + 1, n);
        let g = ata_mat::reference::gram(a.as_ref());
        let p = ata_mat::SymPacked::from_lower(&g);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(p.get(i, j), p.get(j, i));
                prop_assert_eq!(p.get(i, j), g[(i, j)]);
            }
        }
    }

    #[test]
    fn transpose_is_involution(m in 0usize..16, n in 0usize..16, seed in 0u64..50) {
        let a = gen::standard::<f64>(seed, m, n);
        prop_assert_eq!(a.transposed().transposed().max_abs_diff(&a), 0.0);
    }

    #[test]
    fn csv_roundtrip_any_shape(m in 1usize..12, n in 1usize..12, seed in 0u64..50) {
        let a = gen::standard::<f64>(seed, m, n);
        let mut buf = Vec::new();
        ata_mat::io::write_csv(&a, &mut buf).expect("write");
        let back = ata_mat::io::read_csv::<f64>(&buf[..]).expect("read");
        prop_assert_eq!(a.max_abs_diff(&back), 0.0);
    }
}

/// The element-wise mirror loop the blocked one replaced, on a view at
/// `(r0, c0)` of order `n` inside the row-major `stride`-wide buffer.
fn mirror_elementwise(data: &mut [f64], stride: usize, r0: usize, c0: usize, n: usize) {
    for i in 0..n {
        for j in 0..i {
            data[(r0 + j) * stride + c0 + i] = data[(r0 + i) * stride + c0 + j];
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_mirror_is_the_elementwise_loop_and_writes_only_the_upper_triangle(
        n in proptest::sample::select(vec![0usize, 1, 2, 3, 31, 32, 33, 257]),
        interior in 0usize..2,
        seed in 0u64..1000,
    ) {
        // Either the whole buffer, or an interior view with a margin on
        // every side (row stride n + 7).
        let (r0, c0, rows, cols) = if interior == 1 { (2, 3, n + 5, n + 7) } else { (0, 0, n, n) };
        let buf = gen::standard::<f64>(seed, rows, cols).into_vec();
        let mut expected = buf.clone();
        mirror_elementwise(&mut expected, cols, r0, c0, n);
        let mut got = buf;
        {
            let whole = MatMut::from_slice(&mut got, rows, cols);
            whole.into_block(r0, r0 + n, c0, c0 + n).mirror_lower_to_upper();
        }
        // Bitwise over the whole buffer: the lower triangle and every
        // element outside the view are untouched.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&expected), "n = {}, interior = {}", n, interior);
    }
}
