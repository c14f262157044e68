//! Figure 3 — sequential AtA vs the `dsyrk` substitute.
//!
//! Paper: square f64 matrices from 2.5K to 25K, single core; panel (a)
//! elapsed time, panel (b) effective GFLOPs (Eq. 9, r = 1 for both,
//! since both are `A^T A`-specific). The expected shape: the curves
//! track each other on small sizes and AtA pulls ahead as the
//! `n^(log2 7)` flop count overtakes `n^3` past the base-case size.
//!
//! Each size times AtA and `syrk` in alternating rounds and reports the
//! median per-round time ratio with its quartiles. The first size adds
//! an A/A row (AtA at a budget where it is one `syrk_ln` call, against
//! `syrk_ln`); see `ata_bench::aa_gate`. `--rows M` times tall or wide
//! `M x n` inputs for each `--sizes` entry `n` instead of squares.
//!
//! ```text
//! cargo run --release -p ata-bench --bin fig3 [-- --sizes 256,512,... --rows M --reps 3 --csv out/]
//! ```

use ata_bench::{effective_gflops, fmt_secs, smoke, Cli, Table};
use ata_core::serial::{ata_into_with_kind, StrassenKind};
use ata_kernels::timing::time_rounds;
use ata_kernels::{syrk_ln, CacheConfig};
use ata_mat::{gen, Matrix};
use ata_strassen::StrassenWorkspace;

/// Least seconds of alternating AtA/syrk rounds per size in a full run.
const MIN_SECS: f64 = 5.0;

fn main() {
    let cli = Cli::from_env();
    let sizes = if cli.has("paper-scale") {
        (1..=10).map(|i| i * 2500).collect()
    } else {
        cli.usize_list("sizes", &[256, 512, 768, 1024, 1280, 1536])
    };
    // Rows of every input; 0 (the default) times squares.
    let rows = cli.usize("rows", 0);
    let reps = cli.usize("reps", 3);
    let min_secs = if smoke() { 0.0 } else { MIN_SECS };
    let cache = CacheConfig::with_words(cli.usize("cache-words", CacheConfig::default().words));

    let (shape, label) = match rows {
        0 => ("square".to_string(), "n"),
        m => (format!("{m} rows"), "m x n"),
    };
    println!("Figure 3: sequential AtA vs dsyrk-substitute (f64, {shape})");
    println!(
        "sizes = {sizes:?}, rounds >= {reps} and >= {min_secs} s per size, cache words = {}",
        cache.words
    );

    let mut table = Table::new(
        "Fig 3 — AtA vs dsyrk (sequential, f64)",
        &[
            label,
            "t_AtA",
            "t_dsyrk",
            "EG_AtA",
            "EG_dsyrk",
            "AtA/dsyrk time",
            "quartiles",
        ],
    );
    let mut aa_row = None;
    for (i, &n) in sizes.iter().enumerate() {
        let m = if rows == 0 { n } else { rows };
        let a = gen::standard::<f64>(n as u64, m, n);
        let mut c = Matrix::<f64>::zeros(n, n);
        let mut ws = StrassenWorkspace::<f64>::empty();
        // The A/A row, at the first size only: AtA under a budget its
        // whole input fits in is one `syrk_ln` call.
        let leaf = CacheConfig::with_words(2 * m * n);
        let r = time_rounds(if i == 0 { 3 } else { 2 }, reps, min_secs, |call| {
            c.as_mut().fill_zero();
            if call == 1 {
                syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
            } else {
                let cfg = if call == 0 { &cache } else { &leaf };
                let kind = StrassenKind::Classic;
                ata_into_with_kind(1.0, a.as_ref(), &mut c.as_mut(), cfg, kind, &mut ws);
            }
        });
        let mut row = |label: String, ata: usize| {
            let q = r.ratio(ata, 1);
            table.row(vec![
                label,
                fmt_secs(r.median(ata)),
                fmt_secs(r.median(1)),
                format!("{:.2}", effective_gflops(1.0, m, n, r.median(ata))),
                format!("{:.2}", effective_gflops(1.0, m, n, r.median(1))),
                format!("{:.3}", q.median),
                format!("{:.3}-{:.3}", q.q1, q.q3),
            ]);
            q
        };
        let size = if rows == 0 {
            n.to_string()
        } else {
            format!("{m}x{n}")
        };
        row(size.clone(), 0);
        if i == 0 {
            let aa = row(format!("A/A {size}"), 2);
            aa_row = Some((size, aa));
        }
    }
    let aa_row = aa_row.map(|(size, q)| {
        let what = format!("fig3 (AtA as one syrk_ln call vs syrk_ln, {label} = {size})");
        (what, q)
    });
    table.emit_gated(&cli, aa_row);
    println!("\nRatios are medians over alternating rounds, with their quartiles.");
    println!("Expected shape (paper Fig. 3): ratio < 1 and decreasing for n well past the base-case size.");
}
