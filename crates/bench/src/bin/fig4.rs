//! Figure 4 — FastStrassen vs the `dgemm` substitute, plus the
//! pre-allocation ablation.
//!
//! Paper: square f64 `A^T B` products from 2.5K to 25K on one core;
//! panel (a) elapsed time, panel (b) effective GFLOPs (r = 2 for both).
//! "Figure 4 proves how Strassen's algorithm benefits from the
//! pre-memory-allocation strategy described in Section 3.3" — so this
//! binary also runs the per-level-allocating Strassen.
//!
//! ```text
//! cargo run --release -p ata-bench --bin fig4 [-- --sizes ... --reps 3]
//! ```

use ata_bench::{aa_gate, effective_gflops, fmt_secs, smoke, Cli, Table};
use ata_kernels::timing::time_rounds;
use ata_kernels::{gemm_tn, CacheConfig};
use ata_mat::{gen, Matrix};
use ata_strassen::alloc::strassen_allocating;
use ata_strassen::{fast_strassen_with, StrassenWorkspace};

/// Least seconds of interleaved rounds per size in a full run.
const MIN_SECS: f64 = 2.0;

fn main() {
    let cli = Cli::from_env();
    let sizes = if cli.has("paper-scale") {
        (1..=10).map(|i| i * 2500).collect()
    } else {
        cli.usize_list("sizes", &[256, 512, 768, 1024, 1280, 1536])
    };
    let reps = cli.usize("reps", 3);
    let min_secs = if smoke() { 0.0 } else { MIN_SECS };
    let cache = CacheConfig::with_words(cli.usize("cache-words", CacheConfig::default().words));

    println!("Figure 4: FastStrassen vs dgemm-substitute (f64, square A^T B)");
    println!(
        "sizes = {sizes:?}, rounds >= {reps} and >= {min_secs} s per size, cache words = {}",
        cache.words
    );

    let mut table = Table::new(
        "Fig 4 — FastStrassen vs dgemm (sequential, f64)",
        &[
            "n",
            "t_Strassen",
            "t_dgemm",
            "t_alloc",
            "EG_Strassen",
            "EG_dgemm",
            "prealloc gain",
        ],
    );

    let mut aa = None;
    for (i, &n) in sizes.iter().enumerate() {
        let a = gen::standard::<f64>(n as u64, n, n);
        let b = gen::standard::<f64>(n as u64 + 1, n, n);
        let mut c = Matrix::<f64>::zeros(n, n);
        let mut ws = StrassenWorkspace::<f64>::for_problem(n, n, n, &cache);
        let (a, b) = (a.as_ref(), b.as_ref());
        // Call 3, at the first size only, repeats `gemm_tn` opposite call
        // 1, between the same two neighbours: the A/A row.
        let r = time_rounds(if i == 0 { 4 } else { 3 }, reps, min_secs, |call| {
            let mut c = c.as_mut();
            c.fill_zero();
            match call {
                0 => fast_strassen_with(1.0, a, b, &mut c, &cache, &mut ws),
                2 => strassen_allocating(1.0, a, b, &mut c, &cache),
                _ => gemm_tn(1.0, a, b, &mut c),
            }
        });
        if i == 0 {
            aa = Some((n, r.ratio(3, 1)));
        }
        let (t_fast, t_gemm) = (r.median(0), r.median(1));
        table.row(vec![
            n.to_string(),
            fmt_secs(t_fast),
            fmt_secs(t_gemm),
            fmt_secs(r.median(2)),
            format!("{:.2}", effective_gflops(2.0, n, n, t_fast)),
            format!("{:.2}", effective_gflops(2.0, n, n, t_gemm)),
            format!("{:.3}x", r.ratio(2, 0).median),
        ]);
    }
    if let Some((n, q)) = aa {
        aa_gate(&format!("fig4 (gemm_tn vs gemm_tn, n = {n})"), q);
    }
    table.emit(&cli);
    println!("\nExpected shape (paper Fig. 4): Strassen beats dgemm increasingly with n; prealloc gain > 1 everywhere.");
}
