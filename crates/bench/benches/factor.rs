//! Streaming-factorization benchmark + machine-readable perf record:
//! `BENCH_factor.json`.
//!
//! Two measurements, each against the pre-subsystem comparator:
//!
//! * **cycle** — one push of a `k`-row chunk followed by one solve, the
//!   steady state of an online-regression loop. `factored` runs it
//!   through [`ata::FactoredGram`] (rank-k sweep, or the policy's lazy
//!   refactor for tall chunks, then an allocation-free `O(n²)`
//!   triangular solve); `refactor` is what a user had before this tier:
//!   snapshot the accumulated Gram, Cholesky-factor the copy from
//!   scratch (`O(n³/3)`), substitute. The acceptance headline: factored
//!   beats refactor at every benched `(n, k)` — by avoiding the cubic
//!   refactor entirely when `6k <= n`, and by factoring straight off
//!   the live triangle (no snapshot copy, no allocation) when the chunk
//!   is tall enough that refactoring *is* the policy.
//! * **latency** — solve latency at a fixed `n` as the total streamed
//!   row count grows 128x. Queries run against the factor, never the
//!   row count, so the series must stay flat.
//!
//! Each cycle point times both schemes in alternating rounds
//! (`ata_kernels::timing`) and takes the speedup as the median
//! per-round ratio. The first point also times a second, identical
//! factored cycle: the A/A row, which a full run must hold within 3%
//! before it writes the record (schema 2 added its `aa_ratio` field; see
//! `ata_bench::aa_gate`).
//!
//! Smoke mode for CI: set `ATA_BENCH_SMOKE=1` for one timed round per
//! measurement (rot guard; the JSON goes to `target/`, see
//! `ata_bench::write_record`). The beat-the-refactor and flat-latency
//! assertions run on full measurements only — one-round smoke timings
//! are meaningless.

use std::hint::black_box;

use ata::kernels::timing::Quartiles;
use ata::linalg::{cholesky_factor, cholesky_solve};
use ata::mat::gen;
use ata::AtaContext;
use ata_bench::{aa_field, aa_gate, record_rounds, smoke, write_record};

/// One measured point. `k` is the pushed chunk height in cycle mode;
/// `chunk`/`total_rows` carry the latency-series geometry.
struct Rec {
    mode: &'static str,
    scheme: &'static str,
    n: usize,
    k: usize,
    chunk: usize,
    total_rows: usize,
    secs_per_call: f64,
}

const CYCLE_NS: [usize; 3] = [64, 256, 512];
const CYCLE_KS: [usize; 3] = [1, 8, 64];

/// Push-then-solve cycles at every `(n, k)`; returns the minimum over
/// the grid of the median per-round `refactor / factored` time ratio,
/// and the A/A ratio of the first point's factored cycle against an
/// identical one.
fn measure_cycles(recs: &mut Vec<Rec>) -> (f64, Quartiles) {
    let ctx = AtaContext::serial();
    let mut min_speedup = f64::INFINITY;
    let mut aa = None;
    for &n in &CYCLE_NS {
        for &k in &CYCLE_KS {
            let chunk = gen::standard::<f64>((n + k) as u64, k, n);
            let rhs: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() + 0.5).collect();

            // Seed every path with the same tall warm-up mass so the
            // first timed cycle is steady state, not a cold start.
            let warm = gen::standard::<f64>(n as u64, 2 * n, n);
            let factored = || {
                let mut fg = ctx.factored_gram::<f64>(n);
                fg.push(warm.as_ref());
                let mut x = rhs.clone();
                fg.solve_in_place(&mut x).expect("warm mass is SPD");
                fg
            };
            // At the first point only, call 2 runs the A/A cycle on a
            // second factor.
            let calls = if aa.is_none() { 3 } else { 2 };
            let mut fgs: Vec<_> = (0..calls - 1).map(|_| factored()).collect();
            let mut acc = ctx.gram_accumulator::<f64>(n);
            acc.push(warm.as_ref());
            let mut buf = vec![0.0f64; n];
            let r = record_rounds(calls, |call| {
                if call == 1 {
                    acc.push(chunk.as_ref());
                    let mut g = acc.snapshot().into_dense();
                    cholesky_factor(&mut g).expect("SPD");
                    let x = cholesky_solve(&g, &rhs).expect("shape");
                    black_box(x[0]);
                } else {
                    let fg = &mut fgs[call / 2];
                    fg.push(chunk.as_ref());
                    buf.copy_from_slice(&rhs);
                    fg.solve_in_place(&mut buf).expect("SPD");
                    black_box(buf[0]);
                }
            });
            if calls == 3 {
                aa = Some(r.ratio(2, 0));
            }

            for (scheme, call) in [("factored", 0), ("refactor", 1)] {
                recs.push(Rec {
                    mode: "cycle",
                    scheme,
                    n,
                    k,
                    chunk: 0,
                    total_rows: 0,
                    secs_per_call: r.median(call),
                });
            }
            min_speedup = min_speedup.min(r.ratio(1, 0).median);
        }
    }
    (min_speedup, aa.expect("the first point times the A/A row"))
}

const LAT_N: usize = 128;
const LAT_PUSH: usize = 512;
const LAT_ROWS: [usize; 3] = [512, 8192, 65536];

/// Solve latency after streaming ever more rows at fixed `n`; returns
/// `max / min` over the series (1.0 = perfectly flat).
fn measure_latency(recs: &mut Vec<Rec>) -> f64 {
    let ctx = AtaContext::serial();
    let mut fg = ctx.factored_gram::<f64>(LAT_N);
    let rhs: Vec<f64> = (0..LAT_N)
        .map(|i| ((i as f64) * 0.37).sin() + 0.5)
        .collect();
    let mut buf = vec![0.0f64; LAT_N];
    let mut series = Vec::new();
    for (i, &target) in LAT_ROWS.iter().enumerate() {
        while fg.rows() < target {
            let seed = (i * 1000 + fg.rows()) as u64;
            fg.push(gen::standard::<f64>(seed, LAT_PUSH, LAT_N).as_ref());
        }
        let secs = record_rounds(1, |_| {
            buf.copy_from_slice(&rhs);
            fg.solve_in_place(&mut buf).expect("SPD");
            black_box(buf[0]);
        })
        .median(0);
        recs.push(Rec {
            mode: "latency",
            scheme: "factored",
            n: LAT_N,
            k: 0,
            chunk: LAT_PUSH,
            total_rows: target,
            secs_per_call: secs,
        });
        series.push(secs);
    }
    let max = series.iter().cloned().fold(0.0f64, f64::max);
    let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
    max / min
}

fn main() {
    let mut recs = Vec::new();
    let (min_speedup, aa) = measure_cycles(&mut recs);
    let latency_spread = measure_latency(&mut recs);

    for r in &recs {
        println!(
            "factor: {:>7}/{:<9} n={:<3} k={:<2} chunk={:<3} total_rows={:<5} {:.3e} s/call",
            r.mode, r.scheme, r.n, r.k, r.chunk, r.total_rows, r.secs_per_call
        );
    }
    println!(
        "factor: factored push+solve is >= {min_speedup:.2}x the snapshot-and-refactor \
         cycle at every (n, k) in {CYCLE_NS:?} x {CYCLE_KS:?}"
    );
    println!(
        "factor: solve latency spread {latency_spread:.2}x (max/min) over \
         {LAT_ROWS:?} streamed rows at n={LAT_N}"
    );
    aa_gate(
        &format!(
            "factor (factored cycle vs itself, n={} k={})",
            CYCLE_NS[0], CYCLE_KS[0]
        ),
        aa,
    );

    let results: Vec<String> = recs
        .iter()
        .map(|r| {
            format!(
                "{{\"mode\": \"{}\", \"scheme\": \"{}\", \"n\": {}, \"k\": {}, \
                 \"chunk\": {}, \"total_rows\": {}, \"secs_per_call\": {:.6e}}}",
                r.mode, r.scheme, r.n, r.k, r.chunk, r.total_rows, r.secs_per_call
            )
        })
        .collect();
    write_record(
        "factor",
        "factor",
        2,
        &[
            (
                "min_speedup_factored_over_refactor",
                format!("{min_speedup:.4}"),
            ),
            ("solve_latency_max_over_min", format!("{latency_spread:.4}")),
            aa_field(aa),
        ],
        &results,
    );

    if !smoke() {
        assert!(
            min_speedup > 1.0,
            "acceptance: the factored cycle must beat snapshot-and-refactor at \
             every benched (n, k); worst speedup was {min_speedup:.3}x"
        );
        assert!(
            latency_spread <= 1.5,
            "acceptance: solve latency must stay flat as streamed rows grow \
             (O(n²) against the factor, independent of row count); \
             got a {latency_spread:.2}x spread"
        );
    }
}
