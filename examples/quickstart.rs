//! Quickstart: the plan–execute API, both backends, one oracle.
//!
//! ```text
//! cargo run --release --example quickstart [-- <m> <n> <threads>]
//! ```
//!
//! Builds a random `m x n` matrix and computes its Gram matrix with
//! (1) the naive textbook oracle, (2) a serial `AtaContext` and (3) a
//! shared-memory context with a persistent worker pool, then reports
//! agreement and timings — including the per-call win from reusing one
//! `AtaPlan` across repeated executions.

use ata::mat::{gen, reference};
use ata::AtaContext;
use std::num::NonZeroUsize;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(1024);
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    let threads: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let threads = NonZeroUsize::new(threads.max(1)).expect("clamped to >= 1");

    println!("A: {m} x {n} (f64, uniform in [-1, 1)), threads = {threads}");
    let a = gen::standard::<f64>(2021, m, n);

    let t0 = Instant::now();
    let g_naive = reference::gram(a.as_ref());
    let t_naive = t0.elapsed().as_secs_f64();

    // Serial context: Algorithm 1 with a cached Strassen arena.
    let serial_ctx = AtaContext::serial();
    let t0 = Instant::now();
    let g_serial = serial_ctx.gram(a.as_ref());
    let t_serial = t0.elapsed().as_secs_f64();

    // Shared-memory context: AtA-S on a persistent worker pool.
    let par_ctx = AtaContext::shared(threads);
    let plan = par_ctx.plan::<f64>(m, n);
    let t0 = Instant::now();
    let g_par = plan.execute(a.as_ref()).into_dense();
    let t_par = t0.elapsed().as_secs_f64();

    println!("naive oracle : {t_naive:8.3} s");
    println!(
        "AtA (serial) : {t_serial:8.3} s   speedup vs naive: {:.2}x",
        t_naive / t_serial
    );
    println!(
        "AtA-S ({threads} thr.): {t_par:8.3} s   speedup vs naive: {:.2}x",
        t_naive / t_par
    );

    // The serving-loop shape: the plan (task tree + arenas) is reused,
    // so repeated calls skip all planning and allocation.
    let reps = 5usize;
    let mut c = ata::Matrix::<f64>::zeros(n, n);
    let t0 = Instant::now();
    for _ in 0..reps {
        plan.execute_into(a.as_ref(), &mut c.as_mut());
    }
    let t_reused = t0.elapsed().as_secs_f64() / reps as f64;
    println!("AtA-S reused plan: {t_reused:8.3} s/call over {reps} calls");

    let d1 = g_serial.max_abs_diff(&g_naive);
    let d2 = g_par.max_abs_diff(&g_naive);
    let d3 = c.max_abs_diff(&g_naive);
    println!("max |AtA - naive|   = {d1:.3e}");
    println!("max |AtA-S - naive| = {d2:.3e}");
    assert!(g_serial.is_symmetric(0.0) && g_par.is_symmetric(0.0) && c.is_symmetric(0.0));
    let tol = ata::mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
    assert!(
        d1 <= tol && d2 <= tol && d3 <= tol,
        "results disagree beyond tolerance {tol:.3e}"
    );
    println!("all backends agree within {tol:.3e} — OK");
}
