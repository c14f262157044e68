//! Property tests for the sharded serving layer: a panicking shard
//! (injected via a poison job) must never take innocent work down with
//! it.
//!
//! The quarantine policy makes the outcome deterministic enough to
//! assert exactly: the poison panics the shard that first coalesces it,
//! is requeued *solo*, panics a second shard, and is then convicted
//! (`attempts == 2` under the default budget) — so each poison kills at
//! most two shards, and with three or more shards every innocent job
//! still completes, bit-for-bit correct.
//!
//! Each shard builds its whole-lane outputs in the storage of inputs it
//! has answered; the last two tests pin that reuse down: it happens,
//! it stays within 8x of each output, and it carries no stale values.

use ata::mat::{gen, reference, Matrix};
use ata::shard::{JobError, ShardedServiceBuilder};
use ata::{AtaContext, AtaOutput, Output};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_poisoned_flood_completes_every_innocent_job(
        shards in 3usize..6,
        jobs in 1usize..12,
        poison_at in 0usize..12,
        max_batch in 1usize..5,
        m in 8usize..48,
        n in 4usize..24,
        seed in 0u64..1000,
    ) {
        let ctx = AtaContext::serial();
        let svc = ShardedServiceBuilder::new(&ctx)
            .shards(shards)
            .max_batch(max_batch)
            .split_words(usize::MAX)
            .build::<f64>();
        let inputs: Vec<Matrix<f64>> = (0..jobs)
            .map(|i| gen::standard::<f64>(seed + i as u64, m, n))
            .collect();
        // Interleave the poison anywhere in the flood (including after
        // it), so it coalesces with different neighbours across cases.
        let poison_at = poison_at % (jobs + 1);
        let mut poison = None;
        let mut handles = Vec::new();
        for (i, a) in inputs.iter().enumerate() {
            if i == poison_at {
                poison = Some(svc.submit_poison());
            }
            handles.push(svc.submit(a.clone()).expect("live shards accept work"));
        }
        let poison = poison.unwrap_or_else(|| svc.submit_poison());

        for (h, a) in handles.into_iter().zip(&inputs) {
            let g = h.wait().expect("innocent jobs must complete").into_dense();
            prop_assert!(
                g.max_abs_diff(&oracle(a)) <= tolerance(m, n),
                "a requeued job must still compute the right Gram matrix"
            );
        }
        // First panic requeues the poison solo; the solo panic convicts.
        prop_assert!(matches!(
            poison.wait(),
            Err(JobError::Requeued { attempts: 2 })
        ));

        let stats = svc.shutdown();
        prop_assert_eq!(stats.whole_jobs, jobs, "every innocent job is served");
        prop_assert_eq!(stats.failed_jobs, 1, "only the poison fails");
        prop_assert_eq!(stats.dead_shards, 2, "the poison kills exactly two shards");
        prop_assert_eq!(
            stats.per_shard.iter().filter(|s| s.dead).count(),
            stats.dead_shards,
            "per-shard dead flags agree with the aggregate"
        );
        prop_assert!(
            stats.requeued_jobs >= 1,
            "the poison's solo requeue must be counted"
        );
        prop_assert_eq!(stats.split_jobs, 0);
        prop_assert_eq!(stats.rejected_jobs, 0);
    }

    #[test]
    fn unpoisoned_floods_match_the_oracle_and_fail_nothing(
        shards in 1usize..5,
        jobs in 1usize..10,
        max_batch in 1usize..5,
        m in 8usize..40,
        n in 4usize..20,
        split_words in 64usize..2048,
        seed in 0u64..1000,
    ) {
        // Routing sanity across the whole/split boundary: whichever lane
        // each job lands in, answers match the oracle and the traffic
        // quote reconciles bit-exactly with the simulator, and no shard
        // coalesces more than `max_batch` jobs into one dispatch.
        let ctx = AtaContext::serial();
        let svc = ShardedServiceBuilder::new(&ctx)
            .shards(shards)
            .max_batch(max_batch)
            .split_words(split_words)
            .build::<f64>();
        let inputs: Vec<Matrix<f64>> = (0..jobs)
            .map(|i| gen::standard::<f64>(seed + i as u64, m, n))
            .collect();
        let handles: Vec<_> = inputs
            .iter()
            .map(|a| svc.submit(a.clone()).expect("healthy service accepts"))
            .collect();
        for (h, a) in handles.into_iter().zip(&inputs) {
            let g = h.wait().expect("completes").into_dense();
            prop_assert!(g.max_abs_diff(&oracle(a)) <= tolerance(m, n));
        }
        let stats = svc.shutdown();
        prop_assert_eq!(stats.completed_jobs(), jobs);
        prop_assert_eq!(stats.failed_jobs, 0);
        prop_assert_eq!(stats.dead_shards, 0);
        for s in &stats.per_shard {
            prop_assert!(s.jobs <= s.batches * max_batch, "{s:?} over max_batch {max_batch}");
        }
        prop_assert_eq!(stats.predicted_split_words, stats.simulated_split_words);
        prop_assert_eq!(
            stats.predicted_root_recv_words,
            stats.simulated_root_recv_words
        );
    }
}

#[test]
fn outputs_reuse_answered_inputs_within_eight_times_their_size() {
    let ctx = AtaContext::serial();
    let svc = ShardedServiceBuilder::new(&ctx).shards(1).build::<f64>();
    // One job at a time: the output's address and its storage.
    let serve = |a: Matrix<f64>| {
        let n = a.cols();
        let g = svc.submit(a).expect("accepts").wait().expect("completes");
        let g = g.into_dense();
        let ptr = g.as_slice().as_ptr();
        let storage = g.into_vec();
        assert_eq!(storage.len(), n * n);
        assert!(
            storage.capacity() <= 8 * n * n,
            "an output of order {n} holds {} elements",
            storage.capacity()
        );
        (ptr, storage)
    };

    // A 40 x 10 donor holds 400 elements, within 8x of the next job's
    // 15^2 = 225: that output is built in the donor's storage.
    let donor = gen::standard::<f64>(1, 40, 10);
    let (ptr, len) = (donor.as_slice().as_ptr(), donor.as_slice().len());
    serve(donor);
    let (out, storage) = serve(gen::standard::<f64>(2, 30, 15));
    assert_eq!(out, ptr, "the output is built in the donor");
    assert_eq!(storage.capacity(), len);

    // The only spare now is that job's 450-element input, more than 8x
    // a 5 x 5 output: it stays unused and the output holds exactly n^2.
    let (_, storage) = serve(gen::standard::<f64>(3, 4, 5));
    assert_eq!(storage.capacity(), 25);

    // A mixed run: every output within 8x of its n^2.
    for (k, &(m, n)) in [(64, 8), (8, 24), (200, 3), (16, 16), (9, 40), (40, 9)]
        .iter()
        .cycle()
        .take(30)
        .enumerate()
    {
        serve(gen::standard::<f64>(10 + k as u64, m, n));
    }
}

#[test]
fn reused_storage_leaves_no_stale_values_and_survives_a_poison() {
    const SPECIAL: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let bits = |out: AtaOutput<f64>| -> Vec<u64> {
        match out {
            AtaOutput::Dense(c) => c.as_slice().iter().map(|x| x.to_bits()).collect(),
            AtaOutput::Packed(p) => p.as_slice().iter().map(|x| x.to_bits()).collect(),
        }
    };
    for output in [Output::Gram, Output::Lower, Output::Packed] {
        let ctx = AtaContext::serial();
        let svc = ShardedServiceBuilder::new(&ctx)
            .shards(3)
            .max_batch(4)
            .output(output)
            .build::<f64>();
        // Non-finite 64 x 16 inputs become every shard's spares.
        let bad: Vec<_> = (0..12)
            .map(|k| Matrix::from_fn(64, 16, |i, j| SPECIAL[(i + j + k) % 3]))
            .map(|a| svc.submit(a).expect("accepts"))
            .collect();
        for h in bad {
            h.wait().expect("a non-finite job still completes");
        }
        // Finite jobs whose n^2 fits those spares within 8x, with a
        // poison mid-stream that kills up to two of the three shards.
        let inputs: Vec<Matrix<f64>> = (0..24)
            .map(|k| gen::standard::<f64>(k, 20 + k as usize, 12 + k as usize % 21))
            .collect();
        let mut poison = None;
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(k, a)| {
                if k == 10 {
                    poison = Some(svc.submit_poison());
                }
                svc.submit(a.clone()).expect("accepts")
            })
            .collect();
        for (h, a) in handles.into_iter().zip(&inputs) {
            let (m, n) = a.shape();
            let got = h.wait().expect("an innocent job completes");
            if let (Output::Lower, AtaOutput::Dense(c)) = (output, &got) {
                for i in 0..n {
                    assert!(
                        c.row(i)[i + 1..].iter().all(|x| x.to_bits() == 0),
                        "{m}x{n} Lower: strict upper not zero"
                    );
                }
            }
            let want = ctx.plan_with::<f64>(m, n, output).execute(a.as_ref());
            assert!(
                bits(got) == bits(want),
                "{output:?} {m}x{n}: not bitwise AtaPlan::execute"
            );
        }
        let poison = poison.expect("submitted").wait();
        assert!(
            matches!(poison, Err(JobError::Requeued { .. })),
            "{output:?}: poison must be convicted, got {poison:?}"
        );
        let stats = svc.shutdown();
        assert_eq!(stats.failed_jobs, 1, "{output:?}: only the poison fails");
    }
}
