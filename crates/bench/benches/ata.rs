//! Criterion benchmarks for the AtA algorithms: AtA-S task
//! decomposition overhead and the packed-storage conversion cost. Serial
//! AtA against the syrk substitute (Figure 3) is timed paired, with an
//! A/A row, by the `fig3` binary.
//!
//! The Gram bench runs under the calibrated f64 cutoff
//! (`CacheConfig::for_scalar::<f64>()`) at a size where it recurses, so
//! it measures the shipped configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use ata_core::parallel::ata_s;
use ata_core::serial::ata_into;
use ata_kernels::CacheConfig;
use ata_mat::{gen, Matrix, SymPacked};

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

criterion_group!(benches, bench_ata_s_decomposition, bench_packed_conversion);
criterion_main!(benches);
