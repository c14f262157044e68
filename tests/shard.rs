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

use ata::mat::{gen, reference, Matrix};
use ata::shard::{JobError, ShardedServiceBuilder};
use ata::AtaContext;
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
