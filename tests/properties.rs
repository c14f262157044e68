//! Property-based tests (proptest) for the workspace invariants:
//! fast algorithms vs. naive oracles on arbitrary shapes, symmetry and
//! positive-semidefiniteness of Gram matrices, packed round trips, and
//! scheduler invariants under random process counts.

use ata::core::tasktree::{ComputeKind, DistTree, SharedPlan};
use ata::kernels::{gemm_tn, syrk_ln, CacheConfig};
use ata::mat::{gen, reference, Matrix};
use ata::strassen::{fast_strassen, winograd_strassen};
use ata::{AtaContext, AtaContextBuilder, Output, SymPacked};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn tolerance(m: usize, n: usize) -> f64 {
    ata::mat::ops::product_tol::<f64>(m, n, m as f64)
}

/// A context builder for `threads` workers: serial Algorithm 1 for one,
/// shared-memory AtA-S above.
fn builder_for(threads: usize) -> AtaContextBuilder {
    match NonZeroUsize::new(threads).filter(|t| t.get() > 1) {
        Some(threads) => AtaContext::builder().threads(threads),
        None => AtaContext::builder(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_tn_matches_oracle(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        seed in 0u64..1000,
        alpha in -2.0f64..2.0,
    ) {
        let a = gen::standard::<f64>(seed, m, n);
        let b = gen::standard::<f64>(seed + 1, m, k);
        let mut fast = Matrix::zeros(n, k);
        let mut slow = Matrix::zeros(n, k);
        gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut fast.as_mut());
        reference::gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut slow.as_mut());
        prop_assert!(fast.max_abs_diff(&slow) <= tolerance(m, n.max(k)) * 2.0);
    }

    #[test]
    fn recursion_gate_never_adds_a_level(
        m in 0usize..5000,
        n in 0usize..5000,
        k in 0usize..5000,
        slack in 0usize..64,
    ) {
        // Wherever the paper's cache-fit rule (the operands fit) stops
        // recursing, the gate stops too: it never adds a level.
        let both = CacheConfig::with_words((m * n + m * k + slack).max(1));
        prop_assert!(both.gemm_base(m, n, k), "({m}, {n}, {k}) at {} words", both.words);
        let input = CacheConfig::with_words((m * n + slack).max(1));
        prop_assert!(input.ata_base(m, n), "({m}, {n}) at {} words", input.words);
    }

    #[test]
    fn strassen_matches_oracle_any_shape(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        seed in 0u64..1000,
        words in 4usize..64,
    ) {
        let a = gen::standard::<f64>(seed, m, n);
        let b = gen::standard::<f64>(seed + 7, m, k);
        let cfg = CacheConfig::with_words(words);
        let mut fast = Matrix::zeros(n, k);
        let mut slow = Matrix::zeros(n, k);
        fast_strassen(1.0, a.as_ref(), b.as_ref(), &mut fast.as_mut(), &cfg);
        reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut slow.as_mut());
        prop_assert!(fast.max_abs_diff(&slow) <= tolerance(m, n.max(k)) * 2.0);
    }

    #[test]
    fn ata_matches_syrk_any_shape(
        m in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1000,
        words in 4usize..64,
        threads in 1usize..9,
    ) {
        let a = gen::standard::<f64>(seed, m, n);
        let fast = builder_for(threads).cache_words(words).build().lower(a.as_ref());
        let mut slow = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut slow.as_mut());
        prop_assert!(fast.max_abs_diff_lower(&slow) <= tolerance(m, n) * 2.0);
    }

    #[test]
    fn gram_is_symmetric_and_psd_diagonal(
        m in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = gen::standard::<f64>(seed, m, n);
        let g = AtaContext::serial().gram(a.as_ref());
        prop_assert!(g.is_symmetric(0.0));
        // Diagonal entries are squared column norms.
        for j in 0..n {
            prop_assert!(g[(j, j)] >= -1e-12);
        }
        // Cauchy-Schwarz: |g_ij| <= sqrt(g_ii g_jj) + roundoff.
        for i in 0..n {
            for j in 0..n {
                let bound = (g[(i, i)] * g[(j, j)]).max(0.0).sqrt();
                prop_assert!(g[(i, j)].abs() <= bound + 1e-9);
            }
        }
    }

    #[test]
    fn packed_roundtrip_any_order(n in 0usize..64, seed in 0u64..1000) {
        let a = gen::standard::<f64>(seed, n + 1, n);
        let g = AtaContext::serial().gram(a.as_ref());
        let p = SymPacked::from_lower(&g);
        prop_assert_eq!(p.to_full().max_abs_diff(&g), 0.0);
    }

    #[test]
    fn shared_plan_invariants_hold(
        n in 1usize..160,
        procs in 1usize..40,
    ) {
        let plan = SharedPlan::build(n, procs);
        // Disjoint writes.
        for (i, t1) in plan.tasks.iter().enumerate() {
            for t2 in &plan.tasks[i + 1..] {
                prop_assert!(!t1.c.intersects(&t2.c));
            }
        }
        // Exact coverage of the lower triangle by area.
        let area: usize = plan.tasks.iter().map(|t| match t.kind {
            ComputeKind::AtA => t.c.rows() * (t.c.rows() + 1) / 2,
            ComputeKind::AtB => t.c.area(),
        }).sum();
        prop_assert_eq!(area, n * (n + 1) / 2);
        // Owners in range.
        prop_assert!(plan.tasks.iter().all(|t| t.proc_id < procs));
    }

    #[test]
    fn dist_tree_reconstructs_product(
        m in 1usize..40,
        n in 1usize..40,
        procs in 1usize..24,
        seed in 0u64..1000,
    ) {
        let a = gen::standard::<f64>(seed, m, n);
        let tree = DistTree::build(m, n, procs);
        let mut c = Matrix::<f64>::zeros(n, n);
        for leaf in tree.leaves() {
            let a_blk = a.as_ref().block(leaf.a.r0, leaf.a.r1, leaf.a.c0, leaf.a.c1);
            let mut dst = c.as_mut().into_block(leaf.c.r0, leaf.c.r1, leaf.c.c0, leaf.c.c1);
            match leaf.kind {
                ComputeKind::AtA => reference::syrk_ln(1.0, a_blk, &mut dst),
                ComputeKind::AtB => {
                    let b_blk = a.as_ref().block(leaf.b.r0, leaf.b.r1, leaf.b.c0, leaf.b.c1);
                    reference::gemm_tn(1.0, a_blk, b_blk, &mut dst)
                }
            }
        }
        let mut slow = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut slow.as_mut());
        prop_assert!(c.max_abs_diff_lower(&slow) <= tolerance(m, n) * 2.0);
    }

    #[test]
    fn alpha_linearity(
        m in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1000,
        alpha in -3.0f64..3.0,
    ) {
        // lower(alpha, A) == alpha * lower(1, A) within roundoff.
        let a = gen::standard::<f64>(seed, m, n);
        let cfg = CacheConfig::with_words(16);
        let mut c1 = Matrix::zeros(n, n);
        ata::core::serial::ata_into(alpha, a.as_ref(), &mut c1.as_mut(), &cfg);
        let mut c2 = Matrix::zeros(n, n);
        ata::core::serial::ata_into(1.0, a.as_ref(), &mut c2.as_mut(), &cfg);
        c2.scale(alpha);
        prop_assert!(c1.max_abs_diff_lower(&c2) <= tolerance(m, n) * (1.0 + alpha.abs()));
    }

    #[test]
    fn syrk_kernel_never_touches_strict_upper(
        m in 1usize..32,
        n in 1usize..32,
        seed in 0u64..1000,
    ) {
        let a = gen::standard::<f64>(seed, m, n);
        let sentinel = 123.456f64;
        let mut c = Matrix::from_fn(n, n, |_, _| sentinel);
        syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        for i in 0..n {
            for j in (i + 1)..n {
                prop_assert_eq!(c[(i, j)], sentinel);
            }
        }
    }

    #[test]
    fn winograd_matches_classic_any_shape(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        seed in 0u64..1000,
        words in 4usize..64,
    ) {
        // The two 7-product schemes compute the same field values; in
        // floating point they must agree to the common error bound.
        let a = gen::standard::<f64>(seed, m, n);
        let b = gen::standard::<f64>(seed + 13, m, k);
        let cfg = CacheConfig::with_words(words);
        let mut win = Matrix::zeros(n, k);
        let mut slow = Matrix::zeros(n, k);
        winograd_strassen(1.0, a.as_ref(), b.as_ref(), &mut win.as_mut(), &cfg);
        reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut slow.as_mut());
        prop_assert!(win.max_abs_diff(&slow) <= tolerance(m, n.max(k)) * 4.0);
    }

    #[test]
    fn winograd_option_equals_classic_option(
        m in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
        threads in 1usize..6,
    ) {
        let a = gen::standard::<f64>(seed, m, n);
        let classic = builder_for(threads).cache_words(16).build().lower(a.as_ref());
        let winograd = builder_for(threads)
            .cache_words(16)
            .winograd()
            .build()
            .lower(a.as_ref());
        prop_assert!(classic.max_abs_diff_lower(&winograd) <= tolerance(m, n) * 4.0);
    }

    #[test]
    fn ata_d_matches_syrk_any_shape_and_rank_count(
        m in 1usize..40,
        n in 1usize..40,
        procs in 1usize..14,
        seed in 0u64..500,
        words in 8usize..64,
    ) {
        use ata::dist::{ata_d, AtaDConfig};
        use ata::mpisim::{run, CostModel};
        let a = gen::standard::<f64>(seed, m, n);
        let cfg = AtaDConfig {
            cache: CacheConfig::with_words(words),
            ..AtaDConfig::default()
        };
        let a_ref = &a;
        let report = run(procs, CostModel::zero(), move |comm| {
            let input = (comm.rank() == 0).then_some(a_ref);
            ata_d(input, m, n, comm, &cfg)
        });
        let c = report.results.into_iter().flatten().next().expect("root");
        let mut slow = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut slow.as_mut());
        prop_assert!(c.max_abs_diff_lower(&slow) <= tolerance(m, n) * 2.0);
    }

    #[test]
    fn dist_context_wire_formats_and_owned_plans_agree_bitwise(
        m in 1usize..28,
        n in 1usize..28,
        ranks in 1usize..9,
        seed in 0u64..500,
    ) {
        // The same input through the dist backend must yield identical
        // bits for (a) both wire formats, (b) repeated executions of one
        // plan, and (c) the owned-plan variant on another thread.
        use ata::mpisim::CostModel;
        use ata::{Backend, WireFormat};
        let a = gen::standard::<f64>(seed, m, n);
        let mk = |wire| {
            AtaContext::builder()
                .backend(Backend::SimulatedDist {
                    ranks: NonZeroUsize::new(ranks).expect("ranks > 0"),
                    loggp: CostModel::zero(),
                })
                .wire(wire)
                .build()
        };
        let packed_ctx = mk(WireFormat::SymPacked);
        let plan = packed_ctx.plan_with::<f64>(m, n, Output::Lower);
        let first = plan.execute(a.as_ref()).into_dense();
        let second = plan.execute(a.as_ref()).into_dense();
        prop_assert_eq!(first.max_abs_diff(&second), 0.0);
        let dense = mk(WireFormat::Dense).lower(a.as_ref());
        prop_assert_eq!(first.max_abs_diff(&dense), 0.0);
        let owned = plan.into_owned();
        let a2 = a.clone();
        let threaded = std::thread::spawn(move || owned.execute(a2.as_ref()).into_dense())
            .join()
            .expect("worker");
        prop_assert_eq!(first.max_abs_diff(&threaded), 0.0);
        let mut slow = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut slow.as_mut());
        prop_assert!(first.max_abs_diff_lower(&slow) <= tolerance(m, n) * 2.0);
    }

    #[test]
    fn carma_matches_oracle_any_shape_and_budget(
        m in 1usize..32,
        n in 1usize..32,
        k in 1usize..32,
        procs in 1usize..10,
        seed in 0u64..500,
        mem_kwords in 1usize..8,
    ) {
        use ata::dist::{carma_like, CarmaConfig};
        use ata::mpisim::{run, CostModel};
        let a = gen::standard::<f64>(seed, m, n);
        let b = gen::standard::<f64>(seed + 3, m, k);
        let cfg = CarmaConfig {
            mem_words_per_rank: mem_kwords * 512,
            ..CarmaConfig::default()
        };
        let (ar, br) = (&a, &b);
        let report = run(procs, CostModel::zero(), move |comm| {
            let (ia, ib) = if comm.rank() == 0 { (Some(ar), Some(br)) } else { (None, None) };
            carma_like(ia, ib, m, n, k, comm, &cfg)
        });
        let c = report.results.into_iter().flatten().next().expect("root");
        let mut slow = Matrix::zeros(n, k);
        reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut slow.as_mut());
        prop_assert!(c.max_abs_diff(&slow) <= tolerance(m, n.max(k)) * 2.0);
    }

    #[test]
    fn dist_tree_alpha_reconstructs_product(
        n in 1usize..32,
        procs in 1usize..20,
        seed in 0u64..500,
        alpha_pct in 15u32..85,
    ) {
        // Any load-balance alpha must leave correctness untouched.
        let alpha = alpha_pct as f64 / 100.0;
        let a = gen::standard::<f64>(seed, n + 3, n);
        let tree = DistTree::build_with_alpha(n + 3, n, procs, alpha);
        let mut c = Matrix::<f64>::zeros(n, n);
        for leaf in tree.leaves() {
            let a_blk = a.as_ref().block(leaf.a.r0, leaf.a.r1, leaf.a.c0, leaf.a.c1);
            let mut dst = c.as_mut().into_block(leaf.c.r0, leaf.c.r1, leaf.c.c0, leaf.c.c1);
            match leaf.kind {
                ComputeKind::AtA => reference::syrk_ln(1.0, a_blk, &mut dst),
                ComputeKind::AtB => {
                    let b_blk = a.as_ref().block(leaf.b.r0, leaf.b.r1, leaf.b.c0, leaf.b.c1);
                    reference::gemm_tn(1.0, a_blk, b_blk, &mut dst)
                }
            }
        }
        let mut slow = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut slow.as_mut());
        prop_assert!(c.max_abs_diff_lower(&slow) <= tolerance(n + 3, n) * 2.0);
    }

    #[test]
    fn reused_plan_matches_naive_across_threads_and_outputs(
        m in 1usize..32,
        n in 1usize..32,
        seed in 0u64..500,
        words in 4usize..64,
    ) {
        // One plan per (threads, output), executed against several random
        // same-shape matrices: every execution must match the ata_naive
        // oracle within the f64 product tolerance.
        let cfg = CacheConfig::with_words(words);
        for threads in [1usize, 2, 4] {
            let ctx = builder_for(threads).cache(cfg).build();
            for output in [Output::Gram, Output::Lower, Output::Packed] {
                let plan = ctx.plan_with::<f64>(m, n, output);
                for round in 0..3u64 {
                    let a = gen::standard::<f64>(seed + round * 131, m, n);
                    let mut naive = Matrix::zeros(n, n);
                    ata::core::ata_naive(1.0, a.as_ref(), &mut naive.as_mut(), &cfg);
                    let got = plan.execute(a.as_ref()).into_dense();
                    prop_assert!(
                        got.max_abs_diff_lower(&naive) <= tolerance(m, n) * 2.0,
                        "threads={threads} output={output:?} round={round}"
                    );
                }
            }
        }
    }

    #[test]
    fn reused_plan_op_count_is_bit_for_bit_stable(
        m in 1usize..24,
        n in 1usize..24,
        seed in 0u64..500,
        words in 4usize..32,
    ) {
        // With the op-counting scalar, repeated executions of one plan
        // perform the *identical* sequence of scalar operations, and the
        // count equals the serial Algorithm 1 recursion's: plan reuse
        // changes dispatch, never the computation.
        use ata::core::serial::{ata_into_with_kind, StrassenKind};
        use ata::mat::tracked::{measure, Tracked};
        use ata::strassen::StrassenWorkspace;
        use ata::Scalar;
        let cfg = CacheConfig::with_words(words);
        let ctx = AtaContext::builder().cache(cfg).build();
        let plan = ctx.plan_with::<Tracked>(m, n, Output::Lower);
        let a = gen::standard::<Tracked>(seed, m, n);
        let (_, ops_first) = measure(|| {
            let _ = plan.execute(a.as_ref());
        });
        let (_, ops_again) = measure(|| {
            let _ = plan.execute(a.as_ref());
        });
        prop_assert_eq!(ops_first, ops_again, "plan reuse drifted in op count");
        let (_, ops_serial) = measure(|| {
            let mut c = Matrix::zeros(n, n);
            ata_into_with_kind(
                Tracked::ONE,
                a.as_ref(),
                &mut c.as_mut(),
                &cfg,
                StrassenKind::Classic,
                &mut StrassenWorkspace::empty(),
            );
        });
        prop_assert_eq!(ops_first, ops_serial, "plan path != serial recursion in op count");
    }

    #[test]
    fn allgather_is_consistent_across_ranks(
        procs in 1usize..8,
        len in 0usize..16,
    ) {
        use ata::mpisim::{run, CostModel};
        let report = run(procs, CostModel::zero(), move |comm| {
            comm.allgather(vec![comm.rank() as f64; len])
        });
        for view in &report.results {
            prop_assert_eq!(view.len(), procs);
            for (src, part) in view.iter().enumerate() {
                prop_assert_eq!(part, &vec![src as f64; len]);
            }
        }
    }
}
