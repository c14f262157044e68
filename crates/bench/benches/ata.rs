//! Criterion benchmarks for the AtA algorithms: serial AtA vs the syrk
//! substitute (Figure 3 in microbenchmark form), AtA-S task
//! decomposition overhead, and the packed-storage conversion cost.
//!
//! The Gram benches run under the calibrated f64 cutoff
//! (`CacheConfig::for_scalar::<f64>()`) at sizes where it recurses, so
//! they measure the shipped configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use ata_core::parallel::ata_s;
use ata_core::serial::{ata_into, ata_into_with_kind, StrassenKind};
use ata_kernels::{syrk_ln, CacheConfig};
use ata_mat::{gen, Matrix, SymPacked};
use ata_strassen::StrassenWorkspace;

fn bench_serial_vs_syrk(c: &mut Criterion) {
    let mut group = c.benchmark_group("AtA vs syrk (serial)");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let cache = CacheConfig::for_scalar::<f64>();
    for &n in &[512usize, 1024] {
        let a = gen::standard::<f64>(1, n, n);
        let mut out = Matrix::<f64>::zeros(n, n);
        let mut ws = StrassenWorkspace::<f64>::empty();
        group.bench_with_input(BenchmarkId::new("AtA", n), &n, |bch, _| {
            bch.iter(|| {
                out.as_mut().fill_zero();
                let kind = StrassenKind::Classic;
                ata_into_with_kind(1.0, a.as_ref(), &mut out.as_mut(), &cache, kind, &mut ws);
                black_box(out.as_slice()[0]);
            })
        });
        group.bench_with_input(BenchmarkId::new("syrk", n), &n, |bch, _| {
            bch.iter(|| {
                out.as_mut().fill_zero();
                syrk_ln(1.0, a.as_ref(), &mut out.as_mut());
                black_box(out.as_slice()[0]);
            })
        });
    }
    group.finish();
}

fn bench_ata_s_decomposition(c: &mut Criterion) {
    // Task-tree construction + disjoint carving overhead across thread
    // counts (compute dominated by the same total work on one core).
    let mut group = c.benchmark_group("AtA-S task count");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let cache = CacheConfig::for_scalar::<f64>();
    let n = 1024usize;
    let a = gen::standard::<f64>(2, n, n);
    let mut out = Matrix::<f64>::zeros(n, n);
    for &tasks in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |bch, &tasks| {
            bch.iter(|| {
                out.as_mut().fill_zero();
                ata_s(1.0, a.as_ref(), &mut out.as_mut(), tasks, &cache);
                black_box(out.as_slice()[0]);
            })
        });
    }
    group.finish();
}

fn bench_packed_conversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed conversion");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let n = 512usize;
    let a = gen::standard::<f64>(3, n + 7, n);
    let mut g = Matrix::<f64>::zeros(n, n);
    ata_into(1.0, a.as_ref(), &mut g.as_mut(), &CacheConfig::default());
    group.bench_function("from_lower + to_full", |bch| {
        bch.iter(|| {
            let p = SymPacked::from_lower(&g);
            black_box(p.to_full()[(0, 0)]);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_serial_vs_syrk,
    bench_ata_s_decomposition,
    bench_packed_conversion
);
criterion_main!(benches);
