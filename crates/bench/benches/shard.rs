//! Sharded-serving bench: the P × routing-threshold grid for
//! `ata::shard::ShardedService`, written to `BENCH_shard.json`.
//!
//! Each grid point floods one sharded service with the same fixed job
//! mix — word counts 2048, 8192 and 32768, chosen to straddle the swept
//! thresholds — so the whole/split routing mix shifts with the
//! threshold while the total work stays constant. The record captures,
//! per `{P, threshold}`:
//!
//! * the routing outcome (`whole_jobs` / `split_jobs`) as identity, so
//!   a routing change shows up as a new grid point rather than a silent
//!   metric swap;
//! * the split lane's traffic, predicted (`RoutePrice`, quoted before
//!   dispatch) and simulated (`RankMetrics`, counted during dispatch).
//!   The two are asserted bit-identical at every point — the quote is
//!   derived from the same `DistPlan` the lane executes — and
//!   `bench_gate` enforces the committed word counts even on smoke
//!   runs;
//! * wall-clock seconds per job, informational only (the container the
//!   record ships from has one CPU; timings are noise).
//!
//! Set `ATA_BENCH_SMOKE=1` for CI (output under `target/`; see
//! `ata_bench::write_record`, which `ATA_BENCH_OUT` overrides).

use ata::mat::{gen, Matrix};
use ata::shard::ShardedServiceBuilder;
use ata::AtaContext;
use ata_bench::write_record;

/// Shard counts swept (the ISSUE grid: P in {2, 4, 8, 16}).
const SHARDS: &[usize] = &[2, 4, 8, 16];

/// Routing thresholds swept, in operand words `m * n`.
const THRESHOLDS: &[usize] = &[2048, 8192, 32768];

/// The fixed job mix: `(count, m, n)` with word counts 2048 / 8192 /
/// 32768, one per threshold tier, so each threshold flips one tier from
/// split to whole.
const MIX: &[(usize, usize, usize)] = &[(4, 64, 32), (2, 128, 64), (2, 512, 64)];

struct Rec {
    p: usize,
    threshold: usize,
    jobs: usize,
    whole_jobs: usize,
    split_jobs: usize,
    root_recv_words_pred: u64,
    root_recv_words_sim: u64,
    total_words: u64,
    secs_per_call: f64,
}

fn measure(p: usize, threshold: usize, inputs: &[Matrix<f64>]) -> Rec {
    let ctx = AtaContext::builder().cache_words(4096).build();
    let svc = ShardedServiceBuilder::new(&ctx)
        .shards(p)
        .split_words(threshold)
        .build::<f64>();
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = inputs
        .iter()
        .map(|a| svc.submit(a.clone()).expect("healthy service accepts"))
        .collect();
    for h in handles {
        h.wait().expect("every job completes");
    }
    let secs_per_call = t0.elapsed().as_secs_f64() / inputs.len() as f64;
    let stats = svc.shutdown();
    assert_eq!(
        stats.completed_jobs(),
        inputs.len(),
        "P={p} threshold={threshold}: jobs lost"
    );
    assert_eq!(
        stats.predicted_split_words, stats.simulated_split_words,
        "P={p} threshold={threshold}: predictor out of sync with the simulator"
    );
    assert_eq!(
        stats.predicted_root_recv_words, stats.simulated_root_recv_words,
        "P={p} threshold={threshold}: root-recv prediction out of sync"
    );
    Rec {
        p,
        threshold,
        jobs: inputs.len(),
        whole_jobs: stats.whole_jobs,
        split_jobs: stats.split_jobs,
        root_recv_words_pred: stats.predicted_root_recv_words,
        root_recv_words_sim: stats.simulated_root_recv_words,
        total_words: stats.simulated_split_words,
        secs_per_call,
    }
}

fn main() {
    let inputs: Vec<Matrix<f64>> = MIX
        .iter()
        .flat_map(|&(count, m, n)| (0..count).map(move |i| (i, m, n)))
        .enumerate()
        .map(|(seed, (_, m, n))| gen::standard::<f64>(seed as u64, m, n))
        .collect();

    let recs: Vec<Rec> = SHARDS
        .iter()
        .flat_map(|&p| THRESHOLDS.iter().map(move |&w| (p, w)))
        .map(|(p, w)| measure(p, w, &inputs))
        .collect();

    let results: Vec<String> = recs
        .iter()
        .map(|r| {
            format!(
                "{{\"p\": {}, \"threshold\": {}, \"jobs\": {}, \"whole_jobs\": {}, \
                 \"split_jobs\": {}, \"root_recv_words_pred\": {}, \"root_recv_words_sim\": {}, \
                 \"total_words\": {}, \"secs_per_call\": {:e}}}",
                r.p,
                r.threshold,
                r.jobs,
                r.whole_jobs,
                r.split_jobs,
                r.root_recv_words_pred,
                r.root_recv_words_sim,
                r.total_words,
                r.secs_per_call
            )
        })
        .collect();
    write_record("shard", "shard", 1, &[], &results);
    for r in &recs {
        println!(
            "shard: P={:<2} threshold={:<5}: {} whole / {} split, split traffic {:>6} words \
             ({:>5} into the root, pred == sim), {:.3e} s/job",
            r.p,
            r.threshold,
            r.whole_jobs,
            r.split_jobs,
            r.total_words,
            r.root_recv_words_sim,
            r.secs_per_call
        );
    }
}
