//! Criterion benchmark for FastStrassen: the recursion cut-off sweep —
//! the "virtually tuning free" property the paper inherits from
//! recursive blocked algorithms. The pre-allocation ablation (§3.3,
//! Figure 4) and the Winograd-vs-classic comparison are timed paired,
//! with an A/A row, by the `fig4` and `ablation` binaries (e.g. `fig4
//! --sizes 192,384 --cache-words 1024`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use ata_kernels::CacheConfig;
use ata_mat::{gen, Matrix};
use ata_strassen::{fast_strassen_with, StrassenWorkspace};

fn bench_cutoff_sweep(c: &mut Criterion) {
    // The cache-oblivious claim: performance should be flat across a
    // broad range of base-case sizes (no fragile tuning knee).
    let mut group = c.benchmark_group("strassen base-case cutoff");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let n = 384usize;
    let a = gen::standard::<f64>(5, n, n);
    let b = gen::standard::<f64>(6, n, n);
    let mut out = Matrix::<f64>::zeros(n, n);
    for &words in &[2048usize, 8192, 32768, 131072] {
        let cache = CacheConfig::with_words(words);
        let mut ws = StrassenWorkspace::<f64>::for_problem(n, n, n, &cache);
        group.bench_with_input(BenchmarkId::from_parameter(words), &words, |bch, _| {
            bch.iter(|| {
                out.as_mut().fill_zero();
                fast_strassen_with(
                    1.0,
                    a.as_ref(),
                    b.as_ref(),
                    &mut out.as_mut(),
                    &cache,
                    &mut ws,
                );
                black_box(out.as_slice()[0]);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cutoff_sweep);
criterion_main!(benches);
