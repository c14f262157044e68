//! Figure 5 — shared-memory AtA-S vs multithreaded `ssyrk`, varying the
//! number of available cores `P` under a fixed 16-task decomposition.
//!
//! Paper: f32, matrices 30Kx30K, 40Kx40K and tall 60Kx5K; both methods
//! pinned to 16 threads while the core count varies 2..16; panels show
//! elapsed time and effective GFLOPs (r = 1).
//!
//! On this reproduction host the rayon pool models the core count, but
//! a single physical core cannot exhibit real multicore speedup, so the
//! harness prints *wall* time alongside the *modeled* time (the plan's
//! per-thread critical path under the measured serial rate — the
//! quantity Eq. 8 describes, reduced by 1/4 per complete tree level).
//! On a real multicore machine wall ≈ model.
//!
//! ```text
//! cargo run --release -p ata-bench --bin fig5 [-- --procs 1,2,4,8,16 --reps 1]
//! ```

use ata_bench::{
    aa_gate, ata_s_modeled_flops, effective_gflops, fmt_secs, scaled, smoke, Cli, Table,
};
use ata_core::parallel::ata_s;
use ata_kernels::par::{par_syrk_ln, pool_with_threads};
use ata_kernels::timing::time_rounds;
use ata_kernels::CacheConfig;
use ata_mat::{gen, Matrix};

/// Least seconds of interleaved rounds per timing in a full run.
const MIN_SECS: f64 = 1.0;

/// Time and print one shape. With `aa` set, the first core count also
/// times `par_syrk_ln` against itself: the A/A row.
fn run_shape(cli: &Cli, label: &str, m: usize, n: usize, aa: bool) {
    // The paper sweeps every core count 2..16 — the step pattern of
    // Eq. 6 is invisible on powers of two alone.
    let procs = cli.usize_list(
        "procs",
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    );
    let reps = cli.usize("reps", 1);
    let min_secs = if smoke() { 0.0 } else { MIN_SECS };
    let tasks = cli.usize("tasks", 16); // the paper's fixed 16-thread setup
    let cache = CacheConfig::with_words(cli.usize("cache-words", CacheConfig::default().words));

    let a = gen::standard::<f32>(7, m, n);
    let mut c = Matrix::<f32>::zeros(n, n);

    // Serial reference rate for the modeled column.
    let t_serial = time_rounds(1, reps, min_secs, |_| {
        c.as_mut().fill_zero();
        ata_s(1.0f32, a.as_ref(), &mut c.as_mut(), 1, &cache);
    })
    .median(0);
    let (flops_total, _) = ata_s_modeled_flops(m, n, 1, &cache);
    let serial_rate = flops_total / t_serial; // flops/s of this host

    let mut table = Table::new(
        &format!("Fig 5 — AtA-S vs ssyrk, A = {label}"),
        &[
            "P",
            "wall_AtA-S",
            "wall_ssyrk",
            "model_AtA-S",
            "EG_model",
            "EG_ssyrk_wall",
        ],
    );

    for (i, &p) in procs.iter().enumerate() {
        let pool = pool_with_threads(p);
        // Call 2, when asked for, repeats `par_syrk_ln`: the A/A row.
        let aa_here = aa && i == 0;
        let r = time_rounds(if aa_here { 3 } else { 2 }, reps, min_secs, |call| {
            c.as_mut().fill_zero();
            if call == 0 {
                pool.install(|| ata_s(1.0f32, a.as_ref(), &mut c.as_mut(), tasks, &cache));
            } else {
                pool.install(|| par_syrk_ln(1.0f32, a.as_ref(), &mut c.as_mut(), tasks));
            }
        });
        if aa_here {
            aa_gate(
                &format!("fig5 (par_syrk_ln vs itself, A = {label}, P = {p})"),
                r.ratio(2, 1),
            );
        }
        let (t_ata, t_syrk) = (r.median(0), r.median(1));
        // Modeled time: the plan built for `p` workers, critical path =
        // slowest thread's flops at the measured serial rate.
        let (_, max_per_thread) = ata_s_modeled_flops(m, n, p, &cache);
        let t_model = max_per_thread / serial_rate;

        table.row(vec![
            p.to_string(),
            fmt_secs(t_ata),
            fmt_secs(t_syrk),
            fmt_secs(t_model),
            format!("{:.2}", effective_gflops(1.0, m, n, t_model)),
            format!("{:.2}", effective_gflops(1.0, m, n, t_syrk)),
        ]);
    }
    table.emit(cli);
}

fn main() {
    let cli = Cli::from_env();
    println!("Figure 5: AtA-S vs multithreaded ssyrk-substitute (f32, 16-task decomposition)");

    // Paper shapes: 30Kx30K, 40Kx40K, 60Kx5K.
    let shapes = [
        (scaled(&cli, 1024, 30_000), scaled(&cli, 1024, 30_000)),
        (scaled(&cli, 1536, 40_000), scaled(&cli, 1536, 40_000)),
        (scaled(&cli, 2048, 60_000), scaled(&cli, 256, 5_000)),
    ];
    for (i, (m, n)) in shapes.into_iter().enumerate() {
        run_shape(&cli, &format!("{m}x{n}"), m, n, i == 0);
    }
    println!("\nExpected shape (paper Fig. 5): modeled AtA-S time drops ~4x per complete level (P = 2, 8, 32, ...),");
    println!("with the step pattern of Eq. 6; ssyrk saturates once memory-bound.");
}
