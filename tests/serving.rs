//! Property tests of the serving surface: streaming accumulation
//! (`GramAccumulator`), batched execution (`BatchPlan`) and the
//! blocking `ShardedService` front-end on one shard.
//!
//! The load-bearing invariants:
//!
//! * chunked accumulation over *any* row partition — 1-row pushes,
//!   ragged tails, thin/tall mixes — matches the one-shot Gram within
//!   the product tolerance, on every backend configuration;
//! * the accumulate path's op counts are bit-reproducible (`Tracked`);
//! * `execute_batch` is bit-identical to a reused-plan serial loop;
//! * steady-state pushes allocate nothing (arena/pack reuse counters).

use ata::mat::tracked::{measure, Tracked};
use ata::mat::{gen, reference, Matrix, Scalar};
use ata::{AtaContext, Output, ShardedServiceBuilder};
use proptest::collection::vec;
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn tolerance(m: usize, n: usize) -> f64 {
    ata::mat::ops::product_tol::<f64>(m.max(n).max(1), n.max(1), m as f64)
}

/// Cut `a` into row chunks of the given heights (clamped to the rows
/// that remain; the tail past the last height becomes a final chunk).
fn chunk_rows(total: usize, heights: &[usize]) -> Vec<(usize, usize)> {
    let mut cuts = Vec::new();
    let mut r0 = 0usize;
    for &h in heights {
        if r0 >= total {
            break;
        }
        let r1 = (r0 + h.max(1)).min(total);
        cuts.push((r0, r1));
        r0 = r1;
    }
    if r0 < total {
        cuts.push((r0, total));
    }
    cuts
}

fn accumulate_chunked<T: Scalar + 'static>(
    ctx: &AtaContext,
    a: &Matrix<T>,
    heights: &[usize],
) -> Matrix<T> {
    let (m, n) = a.shape();
    let mut acc = ctx.gram_accumulator::<T>(n);
    for (r0, r1) in chunk_rows(m, heights) {
        acc.push(a.as_ref().block(r0, r1, 0, n));
    }
    acc.finish().into_dense()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn accumulator_matches_one_shot_over_random_chunkings(
        m in 1usize..120,
        n in 1usize..32,
        heights in vec(1usize..48, 1..8),
        seed in 0u64..1000,
        words in 4usize..256,
        threads in 1usize..5,
    ) {
        let mut builder = AtaContext::builder().cache_words(words);
        if threads > 1 {
            builder = builder.threads(NonZeroUsize::new(threads).unwrap());
        }
        let ctx = builder.build();
        let a = gen::standard::<f64>(seed, m, n);
        let chunked = accumulate_chunked(&ctx, &a, &heights);
        let mut oracle = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut oracle.as_mut());
        prop_assert!(
            chunked.max_abs_diff_lower(&oracle) <= tolerance(m, n) * 2.0,
            "chunking {heights:?} diverged"
        );
        prop_assert!(chunked.is_symmetric(0.0));
    }

    #[test]
    fn one_row_pushes_reduce_to_rank_one_updates(
        m in 1usize..40,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        // Degenerate chunking: every push is a single row.
        let ctx = AtaContext::serial();
        let a = gen::standard::<f64>(seed, m, n);
        let chunked = accumulate_chunked(&ctx, &a, &vec![1; m]);
        let mut oracle = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut oracle.as_mut());
        prop_assert!(chunked.max_abs_diff_lower(&oracle) <= tolerance(m, n) * 2.0);
    }

    #[test]
    fn accumulator_op_counts_are_deterministic(
        m in 1usize..80,
        n in 1usize..24,
        heights in vec(1usize..32, 1..6),
        seed in 0u64..1000,
        words in 4usize..128,
    ) {
        // Serial context: Tracked counters are thread-local, so the
        // whole accumulate path must run on the calling thread.
        let ctx = AtaContext::builder().cache_words(words).build();
        let a = gen::standard::<Tracked>(seed, m, n);
        let (g1, ops1) = measure(|| accumulate_chunked(&ctx, &a, &heights));
        let (g2, ops2) = measure(|| accumulate_chunked(&ctx, &a, &heights));
        prop_assert_eq!(ops1, ops2, "accumulate path must replay the exact op sequence");
        prop_assert_eq!(g1.max_abs_diff(&g2), 0.0);
    }

    #[test]
    fn batch_is_bit_identical_to_reused_plan_serial_loop(
        problems in 1usize..8,
        m in 1usize..48,
        n in 1usize..24,
        seed in 0u64..1000,
        words in 4usize..256,
        threads in 1usize..5,
    ) {
        // Same cache budget on both sides: the batch's serial-leaf
        // recursion and the serial context's plan are then the same
        // algorithm, so results must match bit for bit.
        let batch_ctx = AtaContext::builder()
            .cache_words(words)
            .threads(NonZeroUsize::new(threads).unwrap())
            .build();
        let loop_ctx = AtaContext::builder().cache_words(words).build();
        let inputs: Vec<Matrix<f64>> = (0..problems)
            .map(|i| gen::standard::<f64>(seed + i as u64, m, n))
            .collect();
        let refs: Vec<_> = inputs.iter().map(|a| a.as_ref()).collect();
        let batch = batch_ctx.batch_plan::<f64>(&vec![(m, n); problems], Output::Gram);
        let batched = batch.execute_batch(&refs);
        let plan = loop_ctx.plan_with::<f64>(m, n, Output::Gram);
        for (i, out) in batched.into_iter().enumerate() {
            let looped = plan.execute(refs[i]).into_dense();
            prop_assert_eq!(
                out.into_dense().max_abs_diff(&looped),
                0.0,
                "slot {} differs from the serial loop",
                i
            );
        }
    }

    #[test]
    fn accumulate_mode_equals_manual_sum(
        m in 1usize..64,
        n in 1usize..24,
        seed in 0u64..1000,
        words in 4usize..128,
    ) {
        // plan.execute_accumulate twice == 2 * one-shot (lower triangle).
        let ctx = AtaContext::builder().cache_words(words).build();
        let a = gen::standard::<f64>(seed, m, n);
        let plan = ctx.plan_with::<f64>(m, n, Output::Lower);
        let mut acc = Matrix::zeros(n, n);
        plan.execute_accumulate(a.as_ref(), &mut acc.as_mut());
        plan.execute_accumulate(a.as_ref(), &mut acc.as_mut());
        let mut twice = Matrix::zeros(n, n);
        reference::syrk_ln(2.0, a.as_ref(), &mut twice.as_mut());
        prop_assert!(acc.max_abs_diff_lower(&twice) <= tolerance(m, n) * 4.0);
    }
}

#[test]
fn steady_state_streaming_is_allocation_free() {
    // The acceptance hook: after the first push of a given shape, no
    // arena miss, no arena growth, no pack-buffer growth — every later
    // push reuses the warmed resources (the "no per-push heap
    // allocation" contract, observed through the reuse counters).
    let ctx = AtaContext::builder().cache_words(32).build();
    let n = 16usize;
    let mut acc = ctx.gram_accumulator::<f64>(n);
    acc.push(gen::standard::<f64>(0, 64, n).as_ref()); // tall: warms arena
    acc.push(gen::standard::<f64>(1, 1, n).as_ref()); // thin: no arena at all
    let warm = acc.arena_stats();
    let warm_pack = ata::kernels::pack::thread_buf_elems::<f64>();
    let warm_footprint = ctx.plan_cache_len();
    for seed in 2..30u64 {
        let rows = if seed % 3 == 0 { 1 } else { 64 };
        acc.push(gen::standard::<f64>(seed, rows, n).as_ref());
    }
    let after = acc.arena_stats();
    assert_eq!(
        after.misses, warm.misses,
        "steady state must not allocate arenas"
    );
    assert_eq!(
        after.grows, warm.grows,
        "steady state must not regrow arenas"
    );
    assert!(
        after.checkouts > warm.checkouts,
        "tall pushes kept using the pool"
    );
    assert_eq!(
        ata::kernels::pack::thread_buf_elems::<f64>(),
        warm_pack,
        "pack buffers stable"
    );
    assert_eq!(ctx.plan_cache_len(), warm_footprint, "no new plan cores");
}

#[test]
fn accumulator_matches_serial_and_shared_backends() {
    // The same stream through both backends agrees with the oracle.
    let n = 16usize;
    let chunks: Vec<Matrix<f64>> = (0..3).map(|i| gen::standard::<f64>(i, 40, n)).collect();
    let mut oracle = Matrix::zeros(n, n);
    for ch in &chunks {
        reference::syrk_ln(1.0, ch.as_ref(), &mut oracle.as_mut());
    }
    // cache_words(64) makes 40-row x 16-col chunks *tall* (threshold 4
    // rows) on both backends, so each folds through its plan rather
    // than the thin syrk shortcut.
    let contexts = [
        AtaContext::builder().cache_words(64).build(),
        AtaContext::builder()
            .cache_words(64)
            .threads(NonZeroUsize::new(3).unwrap())
            .build(),
    ];
    for (which, ctx) in contexts.iter().enumerate() {
        let mut acc = ctx.gram_accumulator::<f64>(n);
        for ch in &chunks {
            acc.push(ch.as_ref());
        }
        assert_eq!(acc.tall_pushes(), 3, "backend {which}: chunks must be tall");
        let g = acc.finish().into_dense();
        assert!(
            g.max_abs_diff_lower(&oracle) <= tolerance(120, n) * 2.0,
            "backend {which} diverged"
        );
    }
}

#[test]
fn service_round_trip_matches_batch_plan() {
    let ctx = AtaContext::builder()
        .cache_words(64)
        .threads(NonZeroUsize::new(2).unwrap())
        .build();
    let inputs: Vec<Matrix<f64>> = (0..6).map(|i| gen::standard::<f64>(i, 24, 12)).collect();
    let refs: Vec<_> = inputs.iter().map(|a| a.as_ref()).collect();
    let direct = ctx
        .batch_plan::<f64>(&[(24, 12); 6], Output::Gram)
        .execute_batch(&refs);
    let svc = ShardedServiceBuilder::new(&ctx)
        .shards(1)
        .max_batch(6)
        .build::<f64>();
    let handles: Vec<_> = inputs
        .iter()
        .map(|a| svc.submit(a.clone()).expect("service alive"))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let via_service = h.wait().expect("service alive").into_dense();
        let via_batch = direct[i].clone().into_dense();
        assert_eq!(
            via_service.max_abs_diff(&via_batch),
            0.0,
            "service job {i} must be bit-identical to the direct batch"
        );
    }
    let stats = svc.shutdown();
    assert_eq!(stats.whole_jobs, 6);
}

#[test]
fn plan_cache_serves_every_front_end() {
    // One context: plans, accumulator chunks, batch slots and service
    // jobs of one shape must share a handful of cached cores instead of
    // re-planning per call.
    let ctx = AtaContext::builder().cache_words(32).build();
    let a = gen::standard::<f64>(1, 40, 16);
    let _ = ctx.gram(a.as_ref());
    let misses_after_first = ctx.plan_cache_misses();
    for _ in 0..5 {
        let _ = ctx.gram(a.as_ref());
    }
    assert_eq!(
        ctx.plan_cache_misses(),
        misses_after_first,
        "repeat one-shots must be cache hits"
    );
    assert!(ctx.plan_cache_hits() >= 5);
    // An accumulator folding the same tall shape reuses its one core.
    let mut acc = ctx.gram_accumulator::<f64>(16);
    for seed in 0..4 {
        acc.push(gen::standard::<f64>(seed, 40, 16).as_ref());
    }
    let misses_with_acc = ctx.plan_cache_misses();
    acc.push(gen::standard::<f64>(9, 40, 16).as_ref());
    assert_eq!(ctx.plan_cache_misses(), misses_with_acc);
}
