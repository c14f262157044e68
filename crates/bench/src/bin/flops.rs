//! Eq. 3 — the multiplication-count table behind the headline claim:
//! AtA needs `2/3 n^(log2 7) + 1/3 n^2` multiplications, two thirds of
//! Strassen's count.
//!
//! The first table evaluates the recurrences; the second *measures* the
//! counts by running the real algorithms on the op-counting scalar
//! (`ata-mat::tracked`) and checks them against the closed form — the
//! reproduction's strongest evidence that the implementation is the
//! paper's algorithm.
//!
//! ```text
//! cargo run --release -p ata-bench --bin flops
//! ```

use ata_bench::{Cli, Table};
use ata_core::analysis::{ata_mults, ata_mults_closed_form};
use ata_core::serial::ata_into;
use ata_kernels::CacheConfig;
use ata_mat::tracked::{measure, Tracked};
use ata_mat::{gen, Matrix};
use ata_strassen::{fast_strassen, CLASSIC};

fn main() {
    let cli = Cli::from_env();
    let deep = CacheConfig::with_words(2); // fully recursive

    let mut t1 = Table::new(
        "Eq. 3 — multiplication counts (full recursion)",
        &[
            "n",
            "Strassen (7^q)",
            "AtA",
            "closed form",
            "AtA/Strassen",
            "naive syrk",
        ],
    );
    for q in 0..cli.usize("max-q", 10) as u32 {
        let n = 1usize << q;
        let s = CLASSIC.mults(n, n, n, &deep);
        let a = ata_mults(n, n, &deep);
        let naive = (n as u64) * (n as u64) * (n as u64 + 1) / 2;
        assert_eq!(
            a,
            ata_mults_closed_form(q),
            "closed form must match recurrence"
        );
        t1.row(vec![
            n.to_string(),
            s.to_string(),
            a.to_string(),
            ata_mults_closed_form(q).to_string(),
            format!("{:.4}", a as f64 / s as f64),
            naive.to_string(),
        ]);
    }
    t1.emit(&cli);
    println!("  (ratio tends to 2/3 = 0.6667 from above — Eq. 3)");

    let mut t2 = Table::new(
        "Eq. 3 — MEASURED multiplications (op-counting scalar)",
        &[
            "n",
            "measured AtA",
            "formula",
            "exact?",
            "measured Strassen",
            "7^q",
        ],
    );
    for q in 1..=cli.usize("measured-max-q", 6) as u32 {
        let n = 1usize << q;
        let a = gen::standard::<Tracked>(q as u64, n, n);

        let mut c = Matrix::<Tracked>::zeros(n, n);
        let (_, ops_ata) = measure(|| ata_into(Tracked(1.0), a.as_ref(), &mut c.as_mut(), &deep));

        let b = gen::standard::<Tracked>(q as u64 + 50, n, n);
        let mut cs = Matrix::<Tracked>::zeros(n, n);
        let (_, ops_s) = measure(|| {
            fast_strassen(
                Tracked(1.0),
                a.as_ref(),
                b.as_ref(),
                &mut cs.as_mut(),
                &deep,
            )
        });

        let formula = ata_mults_closed_form(q);
        t2.row(vec![
            n.to_string(),
            ops_ata.muls.to_string(),
            formula.to_string(),
            (ops_ata.muls == formula).to_string(),
            ops_s.muls.to_string(),
            7u64.pow(q).to_string(),
        ]);
        assert_eq!(
            ops_ata.muls, formula,
            "measured count must equal (2*7^q + 4^q)/3"
        );
        assert_eq!(
            ops_s.muls,
            7u64.pow(q),
            "measured Strassen count must equal 7^q"
        );
    }
    t2.emit(&cli);
    println!(
        "  (every row exact — the implementation performs precisely the paper's operation counts)"
    );
}
