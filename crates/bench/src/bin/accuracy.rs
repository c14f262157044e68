//! Numerical-accuracy study (extension — not a paper figure).
//!
//! The paper evaluates speed only; this harness adds the standard
//! forward-error sweep for Strassen-type algorithms (Higham §23.2.2):
//! for growing `n`, compute `A^T A` with the packed `syrk` substitute,
//! with AtA (classic-Strassen products) and with AtA's products swapped
//! to the Strassen–Winograd variant, in both `f32` and `f64`, and
//! measure the componentwise error against a double-double reference
//! (`ata-core::accuracy`). Higham's classical and Strassen bound factors
//! are printed next to the measurements.
//!
//! Expected shape: all methods sit well below their bounds; the fast
//! methods lose a small constant factor (growing like `n^(log2 12)` vs
//! the classical `n`), and Winograd's weaker recombination bound shows
//! up as a slightly larger constant than classic Strassen — the
//! accuracy/speed trade AtA's adopters accept.
//!
//! ```text
//! cargo run --release -p ata-bench --bin accuracy [-- --sizes 64,128,... --base-words 4096 --csv out/]
//! ```

use ata_bench::{Cli, Table};
use ata_core::accuracy::{
    abs_gram, classical_bound_factor, compensated_gram, componentwise_factor, strassen_bound_factor,
};
use ata_core::serial::{ata_into, ata_into_with_kind, StrassenKind};
use ata_kernels::{syrk_ln, CacheConfig};
use ata_mat::{gen, Matrix, Scalar};
use ata_strassen::StrassenWorkspace;

fn run_precision<T: Scalar>(
    table: &mut Table,
    sizes: &[usize],
    m_factor: usize,
    cfg: &CacheConfig,
    base_n: usize,
) {
    for &n in sizes {
        let m = n * m_factor;
        // Generate in f64, convert: both precisions see the same data.
        // NOTE: entries are dyadic (f64), so the f32 conversion rounds;
        // the conversion error (~u32) is part of what an f32 user pays
        // and is included in the measurement.
        let a64 = gen::standard::<f64>(n as u64 * 7 + 1, m, n);
        let a = Matrix::<T>::from_fn(m, n, |i, j| T::from_f64(a64[(i, j)]));
        let reference = compensated_gram(a64.as_ref());
        let scale = abs_gram(a64.as_ref());
        let u = T::epsilon();

        let mut c_syrk = Matrix::<T>::zeros(n, n);
        syrk_ln(T::ONE, a.as_ref(), &mut c_syrk.as_mut());
        let f_syrk = componentwise_factor(&c_syrk, &reference, &scale, u);

        let mut c_ata = Matrix::<T>::zeros(n, n);
        ata_into(T::ONE, a.as_ref(), &mut c_ata.as_mut(), cfg);
        let f_ata = componentwise_factor(&c_ata, &reference, &scale, u);

        let mut c_win = Matrix::<T>::zeros(n, n);
        let mut ws = StrassenWorkspace::empty();
        ata_into_with_kind(
            T::ONE,
            a.as_ref(),
            &mut c_win.as_mut(),
            cfg,
            StrassenKind::Winograd,
            &mut ws,
        );
        let f_win = componentwise_factor(&c_win, &reference, &scale, u);

        table.row(vec![
            T::NAME.to_string(),
            n.to_string(),
            m.to_string(),
            format!("{:.2}", f_syrk),
            format!("{:.2}", f_ata),
            format!("{:.2}", f_win),
            format!("{:.0}", classical_bound_factor(m)),
            format!("{:.0}", strassen_bound_factor(n.max(base_n), base_n)),
            format!("{:.2}", f_ata / f_syrk.max(f64::MIN_POSITIVE)),
        ]);
    }
}

fn main() {
    let cli = Cli::from_env();
    let sizes = cli.usize_list("sizes", &[64, 128, 256, 384, 512]);
    let m_factor = cli.usize("m-factor", 1);
    // Small default base so the recursion is deep enough for the fast
    // methods' recombination error to be visible at laptop sizes (with a
    // production-size base case the worst entry is a base-case dot that
    // all methods compute identically).
    let base_words = cli.usize("base-words", 256);
    let cfg = CacheConfig::with_words(base_words);
    // Base-case edge length for the Strassen bound: the recursion stops
    // near m*n = words, i.e. edge ~ sqrt(words).
    let base_n = (base_words as f64).sqrt() as usize;

    println!("Accuracy study: forward error vs double-double reference");
    println!("sizes = {sizes:?}, m = {m_factor}*n, base words = {base_words}");

    let mut table = Table::new(
        "Accuracy — componentwise error factors (units of u * |A|^T|A|)",
        &[
            "type",
            "n",
            "m",
            "f_syrk",
            "f_AtA",
            "f_AtA-W",
            "bound_classic",
            "bound_strassen",
            "AtA/syrk",
        ],
    );
    run_precision::<f32>(&mut table, &sizes, m_factor, &cfg, base_n);
    run_precision::<f64>(&mut table, &sizes, m_factor, &cfg, base_n);
    table.emit(&cli);

    println!("\nExpected shape: all errors sit below their bounds; AtA loses a small");
    println!("constant over syrk that grows slowly with n (Higham's n^(log2 12) vs n);");
    println!("the Winograd-product variant is slightly less accurate than classic.");
}
