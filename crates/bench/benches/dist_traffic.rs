//! Dist-traffic bench: predicted vs simulated root-rank words for AtA-D
//! per `{shape, P, wire format}`, written to `BENCH_dist.json`.
//!
//! This is the machine-readable record of the communication-lean stack's
//! headline: §4.3.1's packed wire format strictly reducing the words
//! that converge on the root, with the analytical predictor
//! (`ata_dist::traffic`) agreeing with the simulator's exact counters on
//! every point. The shape grid sweeps aspect ratios — tall (512 x 64),
//! square-ish (96 x 80, the historical record point) and wide
//! (64 x 512) — because the task tree's AtB/AtA block mix, and with it
//! the packed format's savings, shifts with the aspect ratio. The
//! numbers are deterministic replays (no timing noise), so `bench_gate`
//! enforces them even on CI smoke runs — a schedule change that moves
//! more words through the root fails the gate until the committed
//! record is refreshed.
//!
//! The record costs a handful of zero-cost-model simulations either way;
//! `ATA_BENCH_SMOKE=1` only marks it smoke and sends it under `target/`
//! (see `ata_bench::write_record`, which `ATA_BENCH_OUT` overrides).

use ata_bench::write_record;
use ata_dist::traffic::ata_d_traffic;
use ata_dist::{ata_d, AtaDConfig, WireFormat};
use ata_kernels::CacheConfig;
use ata_mat::gen;
use ata_mpisim::{run, CostModel};

/// The aspect-ratio grid: tall, square-ish, wide.
const SHAPES: &[(usize, usize)] = &[(512, 64), (96, 80), (64, 512)];

struct Rec {
    m: usize,
    n: usize,
    p: usize,
    wire: &'static str,
    root_recv_words_pred: u64,
    root_recv_words_sim: u64,
    root_sent_words: u64,
    root_msgs: u64,
    total_words: u64,
}

fn measure(m: usize, n: usize) -> Vec<Rec> {
    let mut recs = Vec::new();
    let a = gen::standard::<f64>(42, m, n);
    for &p in &[2usize, 4, 8, 16, 32] {
        for (wire, name) in [
            (WireFormat::Dense, "dense"),
            (WireFormat::SymPacked, "packed"),
        ] {
            let cfg = AtaDConfig {
                cache: CacheConfig::with_words(64),
                wire,
                ..AtaDConfig::default()
            };
            let plan = ata_d_traffic(m, n, p, &cfg);
            let a_ref = &a;
            let report = run(p, CostModel::zero(), move |comm| {
                let input = (comm.rank() == 0).then_some(a_ref);
                ata_d(input, m, n, comm, &cfg);
            });
            let sim_root_recv = report.metrics[0].words_recv;
            assert_eq!(
                sim_root_recv,
                plan.root_recv_words(),
                "P={p} {name}: predictor out of sync with the simulator"
            );
            assert_eq!(report.total_words(), plan.total_words());
            recs.push(Rec {
                m,
                n,
                p,
                wire: name,
                root_recv_words_pred: plan.root_recv_words(),
                root_recv_words_sim: sim_root_recv,
                root_sent_words: plan.root_sent_words(),
                root_msgs: plan.per_rank[0].msgs,
                total_words: plan.total_words(),
            });
        }
    }
    recs
}

fn main() {
    let recs: Vec<Rec> = SHAPES.iter().flat_map(|&(m, n)| measure(m, n)).collect();

    let results: Vec<String> = recs
        .iter()
        .map(|r| {
            format!(
                "{{\"m\": {}, \"n\": {}, \"p\": {}, \"wire\": \"{}\", \
                 \"root_recv_words_pred\": {}, \
                 \"root_recv_words_sim\": {}, \"root_sent_words\": {}, \"root_msgs\": {}, \
                 \"total_words\": {}}}",
                r.m,
                r.n,
                r.p,
                r.wire,
                r.root_recv_words_pred,
                r.root_recv_words_sim,
                r.root_sent_words,
                r.root_msgs,
                r.total_words
            )
        })
        .collect();
    write_record("dist", "dist-traffic", 2, &[], &results);
    for r in &recs {
        println!(
            "dist-traffic: {:>3}x{:<3} P={:<2} {:>6}: root recv {:>6} words (pred == sim), \
             root sent {:>6}, root msgs {}, total {:>7}",
            r.m,
            r.n,
            r.p,
            r.wire,
            r.root_recv_words_sim,
            r.root_sent_words,
            r.root_msgs,
            r.total_words
        );
    }
    for &(m, n) in SHAPES {
        for p in [2usize, 4, 8, 16, 32] {
            let pick = |wire: &str| {
                recs.iter()
                    .find(|r| r.m == m && r.n == n && r.p == p && r.wire == wire)
                    .expect("grid point")
            };
            let (dense, packed) = (pick("dense"), pick("packed"));
            assert!(
                packed.root_recv_words_sim < dense.root_recv_words_sim,
                "{m}x{n} P={p}: packed must strictly reduce root words"
            );
            println!(
                "dist-traffic: {m}x{n} P={p}: packed cuts root recv words {:.1}% \
                 (dense {} -> packed {})",
                100.0
                    * (1.0 - packed.root_recv_words_sim as f64 / dense.root_recv_words_sim as f64),
                dense.root_recv_words_sim,
                packed.root_recv_words_sim
            );
        }
    }
}
