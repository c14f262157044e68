//! Machine-readable perf record for the BLAS-substitute kernels.
//!
//! The record (schema 3) times every
//! `(kernel, engine, dtype, n, isa, path)` combination directly and
//! writes `BENCH_kernels.json` at the workspace root — the
//! regression-tracking trajectory the ROADMAP asks for. The record
//! carries the detected ISA and, for the micro engine, one entry per
//! tile path: an `intrinsic` entry for every ISA the host supports
//! (tagged with that ISA, so an AVX-512 host's record still shares its
//! `fma` entries with an AVX2-only runner's) plus the portable/scalar
//! ablations. It includes the geomean micro-vs-blocked speedup on f64
//! over the detected ISA's entries, the headline number of the packed
//! engine.
//!
//! Each `(dtype, n)` group times all its entries in interleaved rounds
//! (`ata_kernels::timing`). The first group also times its first entry
//! against itself: the A/A row, which a full run must hold within 3%
//! before it writes the record (`ata_bench::aa_gate`).
//!
//! Smoke mode for CI: set `ATA_BENCH_SMOKE=1` to run one timed round
//! per group (guards against rot; the JSON is still written, with
//! `"smoke": true`, under `target/`; see `ata_bench::write_record`).

use ata_bench::{aa_field, aa_gate, record_rounds, write_record};
use ata_kernels::calibrate::{tuned_for_isa, tuned_for_path};
use ata_kernels::gemm::{gemm_tn_blocked, BlockSizes};
use ata_kernels::micro::{
    gemm_tn_micro_path, micro_path_for, syrk_ln_micro_path, KernelConfig, MicroPath,
};
use ata_kernels::simd::{self, Isa};
use ata_kernels::syrk::syrk_ln_blocked;
use ata_kernels::timing::Quartiles;
use ata_mat::{gen, Matrix, Scalar};

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
    /// The tile path and blocking a micro-engine entry runs (`None`:
    /// the blocked engine).
    micro: Option<(MicroPath, KernelConfig)>,
    secs_per_call: f64,
    gflops: f64,
}

/// Leaf orders of the Strassen recursion, recorded on the intrinsic path
/// only: the portable, scalar and blocked engines take seconds per call
/// there. 2048 is the f64 leaf order of the AVX-512 row's cutoff and
/// the reduction depth of `gram_square`'s leaves.
const LEAF_SIZES: [usize; 3] = [768, 1024, 2048];

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
///
/// With `aa` unset, the first group first times its first entry against
/// itself in alternating rounds and stores that A/A ratio there.
fn record_dtype<T: Scalar>(sizes: &[usize], recs: &mut Vec<Rec>, aa: &mut Option<Quartiles>) {
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

        let entry = |kernel, engine, isa, path, micro| Rec {
            kernel,
            engine,
            dtype: T::NAME,
            n,
            isa,
            path,
            micro,
            secs_per_call: 0.0,
            gflops: 0.0,
        };
        let mut group = Vec::new();
        for &(isa, path, cfg) in paths
            .iter()
            .filter(|p| !leaf || p.1 == MicroPath::Intrinsic)
        {
            for kernel in ["gemm_tn", "syrk_ln"] {
                group.push(entry(kernel, "micro", isa, path.name(), Some((path, cfg))));
            }
        }
        if !leaf {
            for kernel in ["gemm_tn", "syrk_ln"] {
                group.push(entry(kernel, "blocked", detected, "none", None));
            }
        }

        let (a, b) = (a.as_ref(), b.as_ref());
        let mut run = |e: &Rec| {
            let mut c = out.as_mut();
            match (e.kernel == "gemm_tn", e.micro) {
                (true, Some((path, cfg))) => gemm_tn_micro_path(path, T::ONE, a, b, &mut c, &cfg),
                (false, Some((path, cfg))) => syrk_ln_micro_path(path, T::ONE, a, &mut c, &cfg),
                (true, None) => gemm_tn_blocked(T::ONE, a, b, &mut c, BlockSizes::default()),
                (false, None) => syrk_ln_blocked(T::ONE, a, &mut c, BlockSizes::default()),
            }
        };
        if aa.is_none() {
            *aa = Some(record_rounds(2, |_| run(&group[0])).ratio(1, 0));
        }
        let r = record_rounds(group.len(), |i| run(&group[i]));
        for (i, mut e) in group.into_iter().enumerate() {
            e.secs_per_call = r.median(i);
            let flops = if e.kernel == "gemm_tn" {
                gemm_flops
            } else {
                syrk_flops
            };
            e.gflops = flops / e.secs_per_call / 1e9;
            recs.push(e);
        }
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

fn main() {
    let sizes = [128usize, 256, 512];
    let mut recs = Vec::new();
    let mut aa = None;
    record_dtype::<f64>(&sizes, &mut recs, &mut aa);
    record_dtype::<f32>(&sizes, &mut recs, &mut aa);
    let geomean = geomean_speedup(&recs);
    for r in &recs {
        println!(
            "kernels record: {}/{}/{}/{} {} n={} {:.3e}s/call ({:.2} GFLOP/s)",
            r.kernel, r.engine, r.isa, r.path, r.dtype, r.n, r.secs_per_call, r.gflops
        );
    }
    println!("kernels record: geomean f64 micro-vs-blocked speedup {geomean:.2}x");
    let aa = aa.expect("the first group times the A/A row");
    let first = &recs[0];
    aa_gate(
        &format!(
            "kernels ({}/{}/{}/{} {} n={} vs itself)",
            first.kernel, first.engine, first.isa, first.path, first.dtype, first.n
        ),
        aa,
    );

    let results: Vec<String> = recs
        .iter()
        .map(|r| {
            format!(
                "{{\"kernel\": \"{}\", \"engine\": \"{}\", \"dtype\": \"{}\", \"n\": {}, \
                 \"isa\": \"{}\", \"path\": \"{}\", \
                 \"secs_per_call\": {:.6e}, \"gflops\": {:.3}}}",
                r.kernel, r.engine, r.dtype, r.n, r.isa, r.path, r.secs_per_call, r.gflops
            )
        })
        .collect();
    write_record(
        "kernels",
        "kernels",
        3,
        &[
            ("isa", format!("\"{}\"", simd::detected().name())),
            (
                "geomean_speedup_f64_micro_vs_blocked",
                format!("{geomean:.4}"),
            ),
            aa_field(aa),
        ],
        &results,
    );
}
