//! Criterion microbenchmarks + machine-readable perf record for the
//! BLAS-substitute kernels.
//!
//! Two layers:
//!
//! 1. Criterion groups — the blocking ablation for `gemm_tn` (packed
//!    microkernel vs blocked rank-1 vs textbook oracle) and the `syrk`
//!    triangle savings, for interactive runs.
//! 2. A `perf record` pass (schema 2) that times every
//!    `(kernel, engine, dtype, n, isa, path)` combination directly and
//!    writes `BENCH_kernels.json` at the workspace root — the
//!    regression-tracking trajectory the ROADMAP asks for. The record
//!    carries the detected ISA and, for the micro engine, one entry per
//!    tile path: an `intrinsic` entry for every ISA the host supports
//!    (tagged with that ISA, so an AVX-512 host's record still shares
//!    its `fma` entries with an AVX2-only runner's) plus the
//!    portable/scalar ablations. It includes the geomean
//!    micro-vs-blocked speedup on f64 over the detected ISA's entries,
//!    the headline number of the packed engine.
//!
//! Smoke mode for CI: set `ATA_BENCH_SMOKE=1` to run one timed iteration
//! per measurement (guards against rot; the JSON is still written, with
//! `"smoke": true`, defaulting to `target/` so the committed full-run
//! record is never clobbered by smoke numbers; `ATA_BENCH_OUT`
//! overrides the destination either way).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use ata_kernels::calibrate::{tuned_for_isa, tuned_for_path};
use ata_kernels::gemm::{gemm_tn_blocked, BlockSizes};
use ata_kernels::micro::{
    gemm_tn_micro, gemm_tn_micro_path, micro_path_for, syrk_ln_micro, syrk_ln_micro_path,
    KernelConfig, MicroPath,
};
use ata_kernels::simd::{self, Isa};
use ata_kernels::syrk::syrk_ln_blocked;
use ata_mat::{gen, reference, Matrix, Scalar};

fn smoke() -> bool {
    std::env::var_os("ATA_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Criterion measurement budget: tiny in smoke mode (CI), seconds
/// otherwise.
fn budget() -> Duration {
    if smoke() {
        Duration::from_millis(1)
    } else {
        Duration::from_secs(2)
    }
}

fn bench_gemm_blocking(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_tn blocking ablation");
    group.sample_size(10).measurement_time(budget());
    let cfg = KernelConfig::for_scalar::<f64>();
    for &n in &[128usize, 256] {
        let a = gen::standard::<f64>(1, n, n);
        let b = gen::standard::<f64>(2, n, n);
        let mut out = Matrix::<f64>::zeros(n, n);
        group.bench_with_input(BenchmarkId::new("micro", n), &n, |bch, _| {
            bch.iter(|| {
                out.as_mut().fill_zero();
                gemm_tn_micro(1.0, a.as_ref(), b.as_ref(), &mut out.as_mut(), &cfg);
                black_box(out.as_slice()[0]);
            })
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| {
                out.as_mut().fill_zero();
                gemm_tn_blocked(
                    1.0,
                    a.as_ref(),
                    b.as_ref(),
                    &mut out.as_mut(),
                    BlockSizes::default(),
                );
                black_box(out.as_slice()[0]);
            })
        });
        group.bench_with_input(BenchmarkId::new("textbook", n), &n, |bch, _| {
            bch.iter(|| {
                out.as_mut().fill_zero();
                reference::gemm_tn(1.0, a.as_ref(), b.as_ref(), &mut out.as_mut());
                black_box(out.as_slice()[0]);
            })
        });
    }
    group.finish();
}

fn bench_syrk_vs_gemm(c: &mut Criterion) {
    // syrk computes half the entries: ~2x over gemm with B = A.
    let mut group = c.benchmark_group("syrk triangle savings");
    group.sample_size(10).measurement_time(budget());
    let cfg = KernelConfig::for_scalar::<f64>();
    for &n in &[128usize, 256] {
        let a = gen::standard::<f64>(3, n, n);
        let mut out = Matrix::<f64>::zeros(n, n);
        group.bench_with_input(BenchmarkId::new("syrk_micro", n), &n, |bch, _| {
            bch.iter(|| {
                out.as_mut().fill_zero();
                syrk_ln_micro(1.0, a.as_ref(), &mut out.as_mut(), &cfg);
                black_box(out.as_slice()[0]);
            })
        });
        group.bench_with_input(BenchmarkId::new("gemm_self_micro", n), &n, |bch, _| {
            bch.iter(|| {
                out.as_mut().fill_zero();
                gemm_tn_micro(1.0, a.as_ref(), a.as_ref(), &mut out.as_mut(), &cfg);
                black_box(out.as_slice()[0]);
            })
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------
// Machine-readable perf record.
// ---------------------------------------------------------------------

/// One measured data point of the record.
///
/// `isa` is the host's detected instruction set and `path` the tile
/// implementation a micro-engine entry ran on (`none` for the blocked
/// engine). Both are string fields, so `bench_gate` automatically folds
/// them into each entry's identity: a record taken on a different ISA,
/// or a dispatch change that silently moves a point to another tile
/// path, surfaces as a new grid point instead of being compared
/// metric-to-metric against a different kernel.
struct Rec {
    kernel: &'static str,
    engine: &'static str,
    dtype: &'static str,
    n: usize,
    isa: &'static str,
    path: &'static str,
    secs_per_call: f64,
    gflops: f64,
}

/// Mean seconds/call of `f`, warmed once; smoke mode runs one timed
/// iteration, otherwise enough to fill ~0.5 s (min 3).
fn time_call(mut f: impl FnMut()) -> f64 {
    f();
    if smoke() {
        let t0 = Instant::now();
        f();
        return t0.elapsed().as_secs_f64();
    }
    let mut reps = 0u32;
    let t0 = Instant::now();
    while reps < 3 || t0.elapsed() < Duration::from_millis(500) {
        f();
        reps += 1;
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Leaf orders of the Strassen recursion, recorded on the intrinsic path
/// only: the portable, scalar and blocked engines take seconds per call
/// there.
const LEAF_SIZES: [usize; 2] = [768, 1024];

/// Measure all engines of `gemm_tn` and `syrk_ln` for one scalar type
/// at `sizes`, and the intrinsic engine alone at [`LEAF_SIZES`].
///
/// Every micro-engine tile path is measured explicitly through the
/// forced `*_micro_path` entry points with its own tuned config: the
/// intrinsic path once per ISA the host supports, each pass at that
/// ISA's row from [`tuned_for_isa`] and tagged with that ISA (an
/// AVX-512 host also times the AVX2 tiles), then the portable and
/// scalar ablations. The record thus keeps a trajectory for each
/// implementation — the ablation the ISA-dispatch work is judged
/// against. The engine-agnostic entries carry the detected ISA.
fn record_dtype<T: Scalar>(sizes: &[usize], recs: &mut Vec<Rec>) {
    let detected = simd::detected().name();
    let mut paths: Vec<(&'static str, MicroPath, KernelConfig)> = [Isa::Avx512, Isa::Fma]
        .into_iter()
        .filter(|&isa| simd::supports(isa))
        .map(|isa| {
            (
                isa.name(),
                MicroPath::Intrinsic,
                tuned_for_isa::<T>(isa).kernel,
            )
        })
        .collect();
    for path in [MicroPath::Portable, MicroPath::Scalar] {
        paths.push((detected, path, tuned_for_path::<T>(path).kernel));
    }
    for &n in sizes.iter().chain(&LEAF_SIZES) {
        let leaf = LEAF_SIZES.contains(&n);
        let a = gen::standard::<T>(1, n, n);
        let b = gen::standard::<T>(2, n, n);
        let mut out = Matrix::<T>::zeros(n, n);
        let gemm_flops = 2.0 * (n as f64).powi(3);
        let syrk_flops = (n as f64) * (n as f64) * (n as f64 + 1.0);

        let push = |recs: &mut Vec<Rec>, kernel, engine, isa, path, secs: f64, flops: f64| {
            recs.push(Rec {
                kernel,
                engine,
                dtype: T::NAME,
                n,
                isa,
                path,
                secs_per_call: secs,
                gflops: flops / secs / 1e9,
            });
        };

        for &(isa, path, cfg) in paths
            .iter()
            .filter(|p| !leaf || p.1 == MicroPath::Intrinsic)
        {
            let secs = time_call(|| {
                gemm_tn_micro_path(
                    path,
                    T::ONE,
                    a.as_ref(),
                    b.as_ref(),
                    &mut out.as_mut(),
                    &cfg,
                )
            });
            push(recs, "gemm_tn", "micro", isa, path.name(), secs, gemm_flops);
            let secs =
                time_call(|| syrk_ln_micro_path(path, T::ONE, a.as_ref(), &mut out.as_mut(), &cfg));
            push(recs, "syrk_ln", "micro", isa, path.name(), secs, syrk_flops);
        }
        if leaf {
            continue;
        }
        let secs = time_call(|| {
            gemm_tn_blocked(
                T::ONE,
                a.as_ref(),
                b.as_ref(),
                &mut out.as_mut(),
                BlockSizes::default(),
            )
        });
        push(
            recs, "gemm_tn", "blocked", detected, "none", secs, gemm_flops,
        );
        let secs = time_call(|| {
            syrk_ln_blocked(T::ONE, a.as_ref(), &mut out.as_mut(), BlockSizes::default())
        });
        push(
            recs, "syrk_ln", "blocked", detected, "none", secs, syrk_flops,
        );
    }
}

/// Geomean of `blocked_time / micro_time` over f64 `gemm_tn` + `syrk_ln`
/// at every size with a blocked entry, on the tile path and ISA the
/// dispatcher resolves — the acceptance headline of the packed engine.
fn geomean_speedup(recs: &[Rec]) -> f64 {
    let resolved = micro_path_for::<f64>().name();
    let isa = simd::detected().name();
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for r in recs.iter().filter(|r| r.dtype == "f64") {
        if r.engine != "micro" || r.path != resolved || r.isa != isa {
            continue;
        }
        let Some(blocked) = recs.iter().find(|b| {
            b.dtype == "f64" && b.kernel == r.kernel && b.n == r.n && b.engine == "blocked"
        }) else {
            continue;
        };
        log_sum += (blocked.secs_per_call / r.secs_per_call).ln();
        count += 1;
    }
    (log_sum / count.max(1) as f64).exp()
}

fn bench_perf_record(c: &mut Criterion) {
    let sizes = [128usize, 256, 512];
    let mut recs = Vec::new();
    record_dtype::<f64>(&sizes, &mut recs);
    record_dtype::<f32>(&sizes, &mut recs);
    let geomean = geomean_speedup(&recs);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"kernels\",\n  \"schema\": 2,\n");
    json.push_str(&format!("  \"smoke\": {},\n", smoke()));
    json.push_str(&format!("  \"isa\": \"{}\",\n", simd::detected().name()));
    json.push_str(&format!(
        "  \"geomean_speedup_f64_micro_vs_blocked\": {geomean:.4},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in recs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"engine\": \"{}\", \"dtype\": \"{}\", \"n\": {}, \
             \"isa\": \"{}\", \"path\": \"{}\", \
             \"secs_per_call\": {:.6e}, \"gflops\": {:.3}}}{}\n",
            r.kernel,
            r.engine,
            r.dtype,
            r.n,
            r.isa,
            r.path,
            r.secs_per_call,
            r.gflops,
            if i + 1 == recs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // Full runs refresh the tracked record at the workspace root; smoke
    // runs (single timed iteration, meaningless numbers) default to
    // target/ so they never clobber the committed record.
    let out_path = std::env::var("ATA_BENCH_OUT").unwrap_or_else(|_| {
        if smoke() {
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../target/BENCH_kernels.json"
            )
            .into()
        } else {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").into()
        }
    });
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("perf record: wrote {}", out_path),
        Err(e) => eprintln!("perf record: could not write {out_path}: {e}"),
    }
    println!("perf record: geomean f64 micro-vs-blocked speedup {geomean:.2}x");
    for r in &recs {
        println!(
            "perf record: {}/{}/{}/{} {} n={} {:.3e}s/call ({:.2} GFLOP/s)",
            r.kernel, r.engine, r.isa, r.path, r.dtype, r.n, r.secs_per_call, r.gflops
        );
    }

    let mut group = c.benchmark_group("perf record");
    group.sample_size(1).measurement_time(budget());
    group.bench_function("noop anchor", |bch| bch.iter(|| black_box(1 + 1)));
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_blocking,
    bench_syrk_vs_gemm,
    bench_perf_record
);
criterion_main!(benches);
