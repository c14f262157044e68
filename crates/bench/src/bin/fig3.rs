//! Figure 3 — sequential AtA vs the `dsyrk` substitute.
//!
//! Paper: square f64 matrices from 2.5K to 25K, single core; panel (a)
//! elapsed time, panel (b) effective GFLOPs (Eq. 9, r = 1 for both,
//! since both are `A^T A`-specific). The expected shape: the curves
//! track each other on small sizes and AtA pulls ahead as the
//! `n^(log2 7)` flop count overtakes `n^3` past the base-case size.
//!
//! ```text
//! cargo run --release -p ata-bench --bin fig3 [-- --sizes 256,512,... --reps 3 --csv out/]
//! ```

use ata_bench::{effective_gflops, fmt_secs, time_median, Cli, Table};
use ata_core::serial::{ata_into_with_kind, StrassenKind};
use ata_kernels::{syrk_ln, CacheConfig};
use ata_mat::{gen, Matrix};
use ata_strassen::StrassenWorkspace;

fn main() {
    let cli = Cli::from_env();
    let sizes = if cli.has("paper-scale") {
        (1..=10).map(|i| i * 2500).collect()
    } else {
        cli.usize_list("sizes", &[256, 512, 768, 1024, 1280, 1536])
    };
    let reps = cli.usize("reps", 3);
    let cache = CacheConfig::with_words(cli.usize("cache-words", CacheConfig::default().words));

    println!("Figure 3: sequential AtA vs dsyrk-substitute (f64, square)");
    println!(
        "sizes = {sizes:?}, reps = {reps}, cache words = {}",
        cache.words
    );

    let mut table = Table::new(
        "Fig 3 — AtA vs dsyrk (sequential, f64)",
        &[
            "n",
            "t_AtA",
            "t_dsyrk",
            "EG_AtA",
            "EG_dsyrk",
            "AtA/dsyrk time",
        ],
    );

    for &n in &sizes {
        let a = gen::standard::<f64>(n as u64, n, n);
        let mut c = Matrix::<f64>::zeros(n, n);
        let mut ws = StrassenWorkspace::<f64>::empty();

        let t_ata = time_median(reps, || {
            c.as_mut().fill_zero();
            let kind = StrassenKind::Classic;
            ata_into_with_kind(1.0, a.as_ref(), &mut c.as_mut(), &cache, kind, &mut ws);
        });
        let t_syrk = time_median(reps, || {
            c.as_mut().fill_zero();
            syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        });

        table.row(vec![
            n.to_string(),
            fmt_secs(t_ata),
            fmt_secs(t_syrk),
            format!("{:.2}", effective_gflops(1.0, n, n, t_ata)),
            format!("{:.2}", effective_gflops(1.0, n, n, t_syrk)),
            format!("{:.3}", t_ata / t_syrk),
        ]);
    }
    table.emit(&cli);
    println!("\nExpected shape (paper Fig. 3): ratio < 1 and decreasing for n well past the base-case size.");
}
