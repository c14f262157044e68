//! Dispatch-overhead benchmark: repeated small-`n` Gram calls through
//! the one-shot `ata_s` free function vs a reused `AtaPlan`.
//!
//! This is the workload the Plan/Context redesign targets — a serving
//! loop computing many Gram matrices of one shape, where per-call
//! planning (task-tree build, arena allocation, thread spawn-up) is the
//! dominant cost at small sizes. The `amortization summary` benchmark
//! prints the one-shot/reused ratio directly.
//!
//! Smoke mode for CI: set `ATA_BENCH_SMOKE=1` to run one timed
//! iteration per benchmark (the bench then only guards against rot).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Duration;

use ata::core::parallel::ata_s;
use ata::kernels::CacheConfig;
use ata::mat::{gen, MatRef, Matrix};
use ata::{AtaContext, Output};

/// Measurement budget: tiny in smoke mode (CI), seconds otherwise.
fn budget() -> Duration {
    if std::env::var_os("ATA_BENCH_SMOKE").is_some_and(|v| v != "0") {
        Duration::from_millis(1)
    } else {
        Duration::from_secs(2)
    }
}

/// One-shot Gram: AtA-S on the global pool, planning and allocating on
/// every call.
fn one_shot_gram(a: MatRef<'_, f64>, threads: usize) -> Matrix<f64> {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    ata_s(1.0, a, &mut c.as_mut(), threads, &CacheConfig::default());
    c.mirror_lower_to_upper();
    c
}

fn bench_one_shot_vs_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch overhead");
    group.sample_size(20).measurement_time(budget());
    let threads = NonZeroUsize::new(4).expect("4 > 0");
    for &n in &[16usize, 32, 64] {
        let m = 2 * n;
        let a = gen::standard::<f64>(7, m, n);
        group.bench_with_input(BenchmarkId::new("one-shot ata_s", n), &n, |bch, _| {
            bch.iter(|| black_box(one_shot_gram(a.as_ref(), threads.get()))[(0, 0)])
        });

        let ctx = AtaContext::shared(threads);
        let plan = ctx.plan_with::<f64>(m, n, Output::Gram);
        let mut out = Matrix::<f64>::zeros(n, n);
        group.bench_with_input(BenchmarkId::new("reused plan", n), &n, |bch, _| {
            bch.iter(|| {
                plan.execute_into(a.as_ref(), &mut out.as_mut());
                black_box(out[(0, 0)])
            })
        });

        let serial_ctx = AtaContext::serial();
        let serial_plan = serial_ctx.plan_with::<f64>(m, n, Output::Gram);
        group.bench_with_input(BenchmarkId::new("reused serial plan", n), &n, |bch, _| {
            bch.iter(|| {
                serial_plan.execute_into(a.as_ref(), &mut out.as_mut());
                black_box(out[(0, 0)])
            })
        });
    }
    group.finish();
}

fn bench_amortization_summary(c: &mut Criterion) {
    // Direct ratio measurement outside criterion's per-bench loop: run
    // `reps` back-to-back calls each way and print one-shot / reused.
    let mut group = c.benchmark_group("amortization summary");
    group.sample_size(1).measurement_time(budget());
    let smoke = std::env::var_os("ATA_BENCH_SMOKE").is_some_and(|v| v != "0");
    let reps = if smoke { 3usize } else { 200 };
    let threads = NonZeroUsize::new(4).expect("4 > 0");
    let n = 32usize;
    let m = 64usize;
    let a = gen::standard::<f64>(11, m, n);

    // Warm both paths (global pool spawn-up, code paths hot).
    let _ = one_shot_gram(a.as_ref(), threads.get());
    let ctx = AtaContext::shared(threads);
    let plan = ctx.plan_with::<f64>(m, n, Output::Gram);
    let mut out = Matrix::<f64>::zeros(n, n);
    plan.execute_into(a.as_ref(), &mut out.as_mut());

    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        black_box(one_shot_gram(a.as_ref(), threads.get()));
    }
    let one_shot = t0.elapsed().as_secs_f64() / reps as f64;

    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        plan.execute_into(a.as_ref(), &mut out.as_mut());
        black_box(out[(0, 0)]);
    }
    let reused = t0.elapsed().as_secs_f64() / reps as f64;

    println!(
        "amortization (m={m}, n={n}, {} threads, {reps} reps): \
         one-shot {one_shot:.3e}s/call, reused plan {reused:.3e}s/call, \
         ratio {:.2}x",
        threads.get(),
        one_shot / reused
    );
    group.bench_function("noop anchor", |bch| bch.iter(|| black_box(1 + 1)));
    group.finish();
}

criterion_group!(benches, bench_one_shot_vs_plan, bench_amortization_summary);
criterion_main!(benches);
