//! Chaos property tests: the serving stack under deterministic fault
//! injection.
//!
//! The contract these tests pin down, at two layers:
//!
//! * **AtA-D under any seeded fault schedule** (message drops, delivery
//!   delays, rank crashes; P ∈ {2, 4, 8}): every run terminates — the
//!   receive deadline turns lost messages into typed timeouts, crashed
//!   peers poison their mailboxes — and either *every* rank returns
//!   `Ok` and the root's Gram matrix is **bit-identical** to the
//!   fault-free run, or at least one rank returns a typed
//!   `DistError`. There is no third outcome: no hang, no silently
//!   wrong answer.
//! * **The sharded service under chaos floods**: every accepted job is
//!   answered with a correct result — split via AtA-D when a dispatch
//!   survives, degraded to the shared-memory backend when the retry
//!   budget runs out — and the accounting identity
//!   `split + degraded == accepted` holds for every seed. Retry
//!   backoff runs on a manual clock, so the modeled seconds of backoff
//!   cost the test suite no wall time.

use std::sync::Arc;

use ata::dist::{AtaDConfig, DistPlan};
use ata::mat::{gen, reference, Matrix};
use ata::mpisim::{CostModel, FaultPlan, FaultSpec, Universe};
use ata::shard::{RetryPolicy, ShardSubmitError, ShardedServiceBuilder, SplitChaos};
use ata::{AtaContext, ManualClock};
use proptest::prelude::*;

fn oracle(a: &Matrix<f64>) -> Matrix<f64> {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    reference::syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
    c.mirror_lower_to_upper();
    c
}

fn tolerance(m: usize, n: usize) -> f64 {
    ata::mat::ops::product_tol::<f64>(m.max(n), n, m as f64) * 2.0
}

/// The fault-free AtA-D result (and its total simulated traffic) for
/// the reference side of the bit-identity assertions.
fn fault_free(a: &Matrix<f64>, plan: &DistPlan) -> (Matrix<f64>, u64) {
    let report = Universe::new(plan.procs(), CostModel::zero()).run(move |comm| {
        let input = (comm.rank() == 0).then_some(a);
        plan.execute(input, comm).expect("fault-free universe")
    });
    let words = report.total_words();
    let root = report
        .results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 returns the Gram matrix");
    (root, words)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ata_d_under_any_schedule_is_bit_identical_or_typed(
        p_idx in 0usize..3,
        seed in 0u64..100_000,
        m in 8usize..48,
        n in 4usize..32,
    ) {
        // Drops, delays and crashes together, on every cluster size the
        // paper's distributed experiments use.
        let procs = [2usize, 4, 8][p_idx];
        let a = gen::standard::<f64>(seed, m, n);
        let plan = DistPlan::build(m, n, procs, &AtaDConfig::default());
        let (want, _) = fault_free(&a, &plan);
        let (a_ref, plan_ref) = (&a, &plan);
        let report = Universe::new(procs, CostModel::zero())
            .faults(FaultPlan::seeded(seed, procs, &FaultSpec::default()))
            .recv_deadline(0.5)
            .run(move |comm| {
                let input = (comm.rank() == 0).then_some(a_ref);
                plan_ref.execute(input, comm)
            });
        // Reaching this line at all is the liveness half of the
        // contract: the run terminated under whatever the schedule did.
        let mut root = None;
        let mut faulted = false;
        for rank_result in report.results {
            match rank_result {
                Ok(Some(c)) => root = Some(c),
                Ok(None) => {}
                Err(_) => faulted = true,
            }
        }
        if !faulted {
            // Every rank finished clean: the answer must not merely be
            // close — it must be the same bits as the fault-free run.
            let got = root.expect("clean run returns on rank 0");
            prop_assert_eq!(
                got.max_abs_diff(&want), 0.0,
                "a run with no surfaced fault must be bit-identical (P={}, seed={})",
                procs, seed
            );
        }
    }

    #[test]
    fn delay_only_schedules_never_fail_and_move_identical_words(
        p_idx in 0usize..3,
        seed in 0u64..100_000,
        m in 8usize..40,
        n in 4usize..24,
    ) {
        // Delays reorder the simulated timeline but lose nothing: under
        // a generous receive deadline every rank must finish clean, with
        // the fault-free run's exact bits *and* exact traffic counters.
        let procs = [2usize, 4, 8][p_idx];
        let a = gen::standard::<f64>(seed, m, n);
        let plan = DistPlan::build(m, n, procs, &AtaDConfig::default());
        let (want, want_words) = fault_free(&a, &plan);
        let (a_ref, plan_ref) = (&a, &plan);
        let report = Universe::new(procs, CostModel::zero())
            .faults(FaultPlan::seeded(seed, procs, &FaultSpec::delays_only()))
            .recv_deadline(10.0)
            .run(move |comm| {
                let input = (comm.rank() == 0).then_some(a_ref);
                plan_ref.execute(input, comm)
            });
        let words = report.total_words();
        let mut root = None;
        for rank_result in report.results {
            let out = rank_result.expect("delays alone never surface an error");
            if let Some(c) = out {
                root = Some(c);
            }
        }
        prop_assert_eq!(root.expect("root returns").max_abs_diff(&want), 0.0);
        prop_assert_eq!(words, want_words, "delays move the same words, later");
    }

    #[test]
    fn chaos_floods_complete_every_job_correctly(
        seed in 0u64..100_000,
        jobs in 2usize..10,
        m in 16usize..40,
        n in 8usize..24,
    ) {
        // Every job splits (the threshold equals the operand size), so
        // every job walks the fault path; the manual clock makes the
        // retry backoff free and the whole flood deterministic.
        let ctx = AtaContext::serial();
        let svc = ShardedServiceBuilder::new(&ctx)
            .shards(4)
            .split_words(m * n)
            .clock(Arc::new(ManualClock::new()))
            .split_retry(RetryPolicy { budget: 1, ..RetryPolicy::default() })
            .split_chaos(SplitChaos::new(seed).recv_deadline(0.5))
            .build::<f64>();
        let inputs: Vec<Matrix<f64>> = (0..jobs)
            .map(|i| gen::standard::<f64>(seed.wrapping_add(i as u64), m, n))
            .collect();
        let handles: Vec<_> = inputs
            .iter()
            .map(|a| svc.submit(a.clone()).expect("healthy service accepts"))
            .collect();
        for (h, a) in handles.into_iter().zip(&inputs) {
            let g = h.wait().expect("split or degraded, never failed").into_dense();
            prop_assert!(
                g.max_abs_diff(&oracle(a)) <= tolerance(m, n),
                "chaos must never change the answer"
            );
        }
        let stats = svc.shutdown();
        prop_assert_eq!(stats.split_jobs + stats.degraded_jobs, jobs,
            "every accepted split job is split or degraded, never lost");
        prop_assert_eq!(stats.completed_jobs(), jobs);
        prop_assert_eq!(stats.failed_jobs, 0);
        prop_assert_eq!(stats.expired_jobs, 0);
        // Only clean dispatches are billed, so the predictor stays
        // bit-exact even when retries and degradations happened.
        prop_assert_eq!(stats.predicted_split_words, stats.simulated_split_words);
        prop_assert_eq!(
            stats.predicted_root_recv_words,
            stats.simulated_root_recv_words
        );
    }
}

#[test]
fn chaotic_shutdown_under_load_answers_every_accepted_job() {
    // Saturate the bounded queues of a chaos-ridden service, then shut
    // down immediately: every accepted job must still be answered — a
    // result (split, degraded or whole), never a hang — and handles
    // waited on *after* shutdown still deliver.
    let ctx = AtaContext::serial();
    let svc = ShardedServiceBuilder::new(&ctx)
        .shards(2)
        .queue_capacity(2)
        .split_words(512)
        .clock(Arc::new(ManualClock::new()))
        .split_retry(RetryPolicy {
            budget: 1,
            ..RetryPolicy::default()
        })
        .split_chaos(SplitChaos::new(99).recv_deadline(0.5))
        .build::<f64>();
    let mut inputs = Vec::new();
    let mut handles = Vec::new();
    for i in 0..48u64 {
        // Even jobs split (64 x 16 = 1024 >= 512), odd run whole.
        let m = if i % 2 == 0 { 64 } else { 16 };
        let a = gen::standard::<f64>(i, m, 16);
        match svc.try_submit(a.clone()) {
            Ok(h) => {
                inputs.push(a);
                handles.push(h);
            }
            Err(ShardSubmitError::Full(_)) => {}
            other => panic!("service must be alive: {other:?}"),
        }
    }
    let accepted = handles.len();
    assert!(accepted > 0, "some jobs must get through");
    let stats = svc.shutdown();
    assert_eq!(
        stats.completed_jobs(),
        accepted,
        "chaos degrades but never drops accepted work"
    );
    assert_eq!(stats.failed_jobs, 0);
    for (h, a) in handles.into_iter().zip(&inputs) {
        let g = h
            .wait()
            .expect("waiting after shutdown still answers")
            .into_dense();
        let (m, n) = a.shape();
        assert!(g.max_abs_diff(&oracle(a)) <= tolerance(m, n));
    }
}

#[test]
fn drained_handle_resolves_after_drop() {
    // Dropping the service drains the accepted jobs before joining the
    // workers, so a handle waited on afterwards delivers its result
    // instead of hanging.
    let ctx = AtaContext::serial();
    let svc = ShardedServiceBuilder::new(&ctx)
        .shards(2)
        .split_words(usize::MAX)
        .build::<f64>();
    let h = svc.submit(gen::standard::<f64>(5, 24, 12)).unwrap();
    drop(svc); // drain + join
    match h.wait_timeout(std::time::Duration::from_secs(30)) {
        Some(Ok(out)) => assert_eq!(out.order(), 12),
        Some(Err(e)) => panic!("drained job must complete, got {e}"),
        None => panic!("handle must resolve after shutdown"),
    }
}
