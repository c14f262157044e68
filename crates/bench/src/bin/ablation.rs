//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Leaf kernels of AtA-D** (§4.3.1's remark: leaves may run
//!    AtA/FastStrassen or the plain BLAS kernels) — simulated time for
//!    both choices across P.
//! 2. **1D vs 2D pdsyrk** — the two ScaLAPACK stand-ins; per-rank
//!    traffic and critical path.
//! 3. **Task decomposition of AtA-S** (the paper fixes 16 tasks) —
//!    modeled critical path when the task count over- or under-shoots
//!    the thread count.
//! 4. **Load-balance parameter alpha** (§4.1.2 derives `alpha = 1/2`
//!    from the gemm/syrk flop ratio) — simulated AtA-D time across the
//!    sweep; 1/2 should sit at or near the minimum.
//! 5. **Strassen variant** — classic 18-add Strassen vs the 15-add
//!    Strassen–Winograd form vs the per-level-allocating variant:
//!    wall time and measured block-add volume.
//!
//! ```text
//! cargo run --release -p ata-bench --bin ablation
//! ```

use ata_bench::{aa_gate, ata_s_modeled_flops, smoke, Cli, Table};
use ata_dist::baselines::pdsyrk_like;
use ata_dist::grid::pdsyrk_2d;
use ata_dist::{ata_d, AtaDConfig};
use ata_kernels::timing::time_rounds;
use ata_kernels::CacheConfig;
use ata_mat::gen;
use ata_mat::tracked::{measure, Tracked};
use ata_mat::Matrix;
use ata_mpisim::{run, CostModel};
use ata_strassen::alloc::strassen_allocating;
use ata_strassen::{fast_strassen_with, winograd_strassen_with, StrassenWorkspace};

fn leaf_kernel_ablation(cli: &Cli, n: usize) {
    let model = CostModel::terastat();
    let cache = CacheConfig::with_words(cli.usize("cache-words", CacheConfig::default().words));
    let a = gen::standard::<f64>(1, n, n);
    let mut table = Table::new(
        &format!("Ablation 1 — AtA-D leaf kernels, A = {n}x{n}"),
        &[
            "P",
            "strassen leaves (s)",
            "blas leaves (s)",
            "strassen/blas",
        ],
    );
    for &p in &cli.usize_list("procs", &[8, 16, 32]) {
        let mut times = Vec::new();
        for strassen in [true, false] {
            let cfg = AtaDConfig {
                cache,
                strassen_leaves: strassen,
                threads_per_rank: 1,
                ..AtaDConfig::default()
            };
            let a_ref = &a;
            let t = run(p, model, move |comm| {
                let input = if comm.rank() == 0 { Some(a_ref) } else { None };
                ata_d(input, n, n, comm, &cfg);
            })
            .critical_path();
            times.push(t);
        }
        table.row(vec![
            p.to_string(),
            format!("{:.4}", times[0]),
            format!("{:.4}", times[1]),
            format!("{:.3}", times[0] / times[1]),
        ]);
    }
    table.emit(cli);
    println!("  (Strassen leaves win once leaf blocks exceed the base-case size — §4.3.1's 'larger volumes of data')");
}

fn pdsyrk_1d_vs_2d(cli: &Cli, n: usize) {
    let model = CostModel::terastat();
    let a = gen::standard::<f64>(2, n, n);
    let mut table = Table::new(
        &format!("Ablation 2 — pdsyrk 1D vs 2D grid, A = {n}x{n}"),
        &[
            "P",
            "1D time (s)",
            "2D time (s)",
            "1D max rank words",
            "2D max rank words",
        ],
    );
    for &p in &cli.usize_list("procs", &[8, 16, 32]) {
        let a_ref = &a;
        let rep1 = run(p, model, move |comm| {
            let input = if comm.rank() == 0 { Some(a_ref) } else { None };
            pdsyrk_like(input, n, n, comm);
        });
        let a_ref = &a;
        let rep2 = run(p, model, move |comm| {
            let input = if comm.rank() == 0 { Some(a_ref) } else { None };
            pdsyrk_2d(input, n, n, comm);
        });
        let maxw = |rep: &ata_mpisim::RunReport<()>| {
            rep.metrics[1..]
                .iter()
                .map(|m| m.words_sent)
                .max()
                .unwrap_or(0)
        };
        table.row(vec![
            p.to_string(),
            format!("{:.4}", rep1.critical_path()),
            format!("{:.4}", rep2.critical_path()),
            maxw(&rep1).to_string(),
            maxw(&rep2).to_string(),
        ]);
    }
    table.emit(cli);
}

fn task_count_ablation(cli: &Cli, n: usize) {
    let cache = CacheConfig::with_words(cli.usize("cache-words", CacheConfig::default().words));
    let threads = 16usize;
    let mut table = Table::new(
        &format!("Ablation 3 — AtA-S task count on {threads} cores, A = {n}x{n}"),
        &["tasks", "modeled critical path (norm.)", "ideal speedup"],
    );
    let (total, _) = ata_s_modeled_flops(n, n, 1, &cache);
    for &tasks in &cli.usize_list("tasks", &[1, 2, 4, 8, 16, 32, 64]) {
        let (_, max_per) = ata_s_modeled_flops(n, n, tasks, &cache);
        // With `tasks` decomposition on `threads` cores, the per-core
        // load is at best ceil(tasks/threads) of the heaviest tasks.
        let speedup = total / max_per;
        let eff_speedup = speedup.min(threads as f64);
        table.row(vec![
            tasks.to_string(),
            format!("{:.3}", 1.0 / eff_speedup),
            format!("{:.2}", speedup),
        ]);
    }
    table.emit(cli);
    println!("  (16 tasks saturate 16 cores — the paper's fixed decomposition; more tasks add no ideal speedup)");
}

fn alpha_sweep(cli: &Cli, n: usize) {
    let model = CostModel::terastat();
    let cache = CacheConfig::with_words(cli.usize("cache-words", CacheConfig::default().words));
    let a = gen::standard::<f64>(4, n, n);
    let alphas = [0.25, 0.375, 0.5, 0.625, 0.75];
    let mut table = Table::new(
        &format!("Ablation 4 — load-balance alpha (AtA-D, A = {n}x{n})"),
        &["P", "a=0.25", "a=0.375", "a=0.5", "a=0.625", "a=0.75"],
    );
    for &p in &cli.usize_list("procs", &[8, 16, 32]) {
        let mut cells = vec![p.to_string()];
        let mut times = Vec::new();
        for &alpha in &alphas {
            let cfg = AtaDConfig {
                cache,
                alpha,
                ..AtaDConfig::default()
            };
            let a_ref = &a;
            let t = run(p, model, move |comm| {
                let input = if comm.rank() == 0 { Some(a_ref) } else { None };
                ata_d(input, n, n, comm, &cfg);
            })
            .critical_path();
            times.push(t);
        }
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        for t in times {
            let marker = if (t - best).abs() < 1e-12 { "*" } else { "" };
            cells.push(format!("{t:.4}{marker}"));
        }
        table.row(cells);
    }
    table.emit(cli);
    println!("  (* = fastest; §4.1.2's alpha = 1/2 should be at or adjacent to the minimum)");
}

/// Least seconds of interleaved Strassen-variant rounds per size in a
/// full run.
const MIN_SECS: f64 = 3.0;

fn strassen_variant_ablation(cli: &Cli, n: usize) {
    let cache = CacheConfig::with_words(cli.usize("cache-words", CacheConfig::default().words));
    let reps = cli.usize("reps", 3);
    let mut table = Table::new(
        "Ablation 5 — Strassen variants (C += A^T B, square f64)",
        &[
            "n",
            "t_classic",
            "t_winograd",
            "t_allocating",
            "adds_classic",
            "adds_winograd",
        ],
    );
    let min_secs = if smoke() { 0.0 } else { MIN_SECS };
    let mut aa = None;
    for (i, &sz) in cli.usize_list("sizes", &[n / 2, n]).iter().enumerate() {
        let a = gen::standard::<f64>(1, sz, sz);
        let b = gen::standard::<f64>(2, sz, sz);
        let mut c = Matrix::<f64>::zeros(sz, sz);
        let mut ws = StrassenWorkspace::<f64>::empty();
        let (a, b) = (a.as_ref(), b.as_ref());
        // Call 3, at the first size only, repeats Winograd opposite
        // call 1, between the same two neighbours: the A/A row.
        let r = time_rounds(if i == 0 { 4 } else { 3 }, reps, min_secs, |call| {
            let mut c = c.as_mut();
            c.fill_zero();
            match call {
                0 => fast_strassen_with(1.0, a, b, &mut c, &cache, &mut ws),
                2 => strassen_allocating(1.0, a, b, &mut c, &cache),
                _ => winograd_strassen_with(1.0, a, b, &mut c, &cache, &mut ws),
            }
        });
        if i == 0 {
            aa = Some((sz, r.ratio(3, 1)));
        }
        let (t_classic, t_wino, t_alloc) = (r.median(0), r.median(1), r.median(2));

        // Measured block-add volume on a smaller tracked instance with a
        // proportionally smaller base, so several levels recurse.
        let tn = (sz / 4).max(32);
        let ta = gen::standard::<Tracked>(1, tn, tn);
        let tb = gen::standard::<Tracked>(2, tn, tn);
        let tcache = CacheConfig::with_words((cache.words / 16).max(2));
        let mut tc = Matrix::<Tracked>::zeros(tn, tn);
        let (_, cls) = measure(|| {
            ata_strassen::fast_strassen(
                Tracked(1.0),
                ta.as_ref(),
                tb.as_ref(),
                &mut tc.as_mut(),
                &tcache,
            );
        });
        let mut tc2 = Matrix::<Tracked>::zeros(tn, tn);
        let (_, win) = measure(|| {
            ata_strassen::winograd_strassen(
                Tracked(1.0),
                ta.as_ref(),
                tb.as_ref(),
                &mut tc2.as_mut(),
                &tcache,
            );
        });

        table.row(vec![
            sz.to_string(),
            format!("{t_classic:.4}s"),
            format!("{t_wino:.4}s"),
            format!("{t_alloc:.4}s"),
            cls.additive().to_string(),
            win.additive().to_string(),
        ]);
    }
    if let Some((sz, q)) = aa {
        aa_gate(&format!("ablation 5 (Winograd vs Winograd, n = {sz})"), q);
    }
    table.emit(cli);
    println!("  (Winograd: fewer block adds per level [19 vs 22 in accumulate form], ~2x arena;");
    println!("   the allocating variant pays malloc/free per level — the Fig. 4 prealloc story)");
}

fn main() {
    let cli = Cli::from_env();
    let n = cli.usize("n", 768);
    println!("Design-choice ablations (simulated TeraStat cluster where applicable)");
    leaf_kernel_ablation(&cli, n);
    pdsyrk_1d_vs_2d(&cli, n);
    task_count_ablation(&cli, n);
    alpha_sweep(&cli, n);
    strassen_variant_ablation(&cli, n);
}
