//! Calibrate the simulator's cost model against this machine.
//!
//! Measures the real flop rates of the packed kernels (syrk, gemm,
//! axpy) and prints a `CostModel` whose `flop_time` matches the host,
//! so Figure 6-style simulations can be re-based on local hardware
//! instead of the default TeraStat-class constants.
//!
//! ```text
//! cargo run --release -p ata-bench --bin calibrate
//! ```

use ata_bench::{Cli, Table};
use ata_kernels::level1::axpy;
use ata_kernels::timing::time_rounds;
use ata_kernels::{gemm_tn, syrk_ln};
use ata_mat::{gen, Matrix};
use ata_mpisim::CostModel;

fn main() {
    let cli = Cli::from_env();
    let n = cli.usize("n", 512);
    let reps = cli.usize("reps", 3);

    println!("Calibrating kernel rates on this host (n = {n}, rounds = {reps})...");

    let a = gen::standard::<f64>(1, n, n);
    let b = gen::standard::<f64>(2, n, n);
    let mut c = Matrix::<f64>::zeros(n, n);

    // Calls, interleaved: gemm (2 n^3 flops), syrk (n^2 (n + 1) flops),
    // and n axpy calls over the rows (2 n flops each).
    let x = gen::standard::<f64>(3, 1, n);
    let mut y = gen::standard::<f64>(4, 1, n);
    let r = time_rounds(3, reps, 0.0, |call| match call {
        0 => {
            c.as_mut().fill_zero();
            gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut());
        }
        1 => {
            c.as_mut().fill_zero();
            syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        }
        _ => {
            for _ in 0..n {
                axpy(1.000001, x.row(0), y.as_mut().row_mut(0));
            }
        }
    });
    let (t_gemm, t_syrk, t_axpy) = (r.median(0), r.median(1), r.median(2));
    let gemm_rate = 2.0 * (n as f64).powi(3) / t_gemm;
    let syrk_rate = (n as f64) * (n as f64) * (n as f64 + 1.0) / t_syrk;
    let axpy_rate = 2.0 * (n as f64) * (n as f64) / t_axpy;

    let mut table = Table::new("Measured kernel rates", &["kernel", "time", "GFLOP/s"]);
    table.row(vec![
        "gemm_tn".into(),
        format!("{t_gemm:.4}s"),
        format!("{:.2}", gemm_rate / 1e9),
    ]);
    table.row(vec![
        "syrk_ln".into(),
        format!("{t_syrk:.4}s"),
        format!("{:.2}", syrk_rate / 1e9),
    ]);
    table.row(vec![
        "axpy".into(),
        format!("{t_axpy:.4}s"),
        format!("{:.2}", axpy_rate / 1e9),
    ]);
    table.emit(&cli);

    // Use the level-3 average as the effective rate (the simulator
    // charges level-3 flops almost exclusively).
    let rate = (gemm_rate + syrk_rate) / 2.0;
    let model = CostModel::new(25e-6, 6.4e-9, 1.0 / rate);
    println!("\nSuggested local cost model:");
    println!(
        "  CostModel::new(25e-6 /* alpha */, 6.4e-9 /* beta */, {:.3e} /* flop_time */)",
        model.flop_time
    );
    println!("  (network alpha/beta kept at the TeraStat defaults — measure separately on a real cluster)");

    let default = CostModel::terastat();
    println!(
        "\nHost is {:.2}x the default model's per-core rate.",
        default.flop_time / model.flop_time
    );
}
