//! `serve_flood`: one job per op, from the moment its operand is ready
//! until `wait` returns, on a 2-shard `ShardedService<f64>` over
//! `AtaContext::shared(2)` with the split lane off. One client thread
//! keeps 32 jobs in flight (closed loop) and waits on them in submission
//! order.
//!
//! Every job is a single `syrk` leaf (m·n ≤ 131072, so no Strassen).
//! Three in four cost about a millisecond of compute, so a batch of eight
//! keeps both pool threads busy for several milliseconds between thread
//! hand-offs; the rest are small, and 24 x 12 takes the blocked loops.
//! Routing, queueing, coalescing, plan-cache lookups and per-job
//! allocation sit between every job and its compute.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::time::Instant;

use ata::core::accuracy::abs_gram;
use ata::kernels::micro::{selected_path, KernelPath};
use ata::mat::{gen, reference, Matrix};
use ata::shard::{ShardedService, ShardedStats};
use ata::{AtaContext, AtaOutput, Output};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt};

use crate::report::median;
use crate::trace::Tracer;
use crate::{stream, Opts, Recorder, Run};

const THREADS: usize = 2;
const SHARDS: usize = 2;
const IN_FLIGHT: usize = 32;
/// Job shapes `(m, n)` with their weights out of 8. 24 x 12 falls below
/// the microkernel's minimum volume and takes the blocked loops. Most jobs
/// are coarse: with mostly tiny ones, thread hand-offs set the pace, and
/// host steal on a 2-vCPU VM spread the tail of ten 30 s runs by 0.73.
const MENU: [((usize, usize), u64); 5] = [
    ((24, 12), 1),
    ((96, 48), 1),
    ((384, 256), 2),
    ((512, 192), 2),
    ((1024, 128), 2),
];
/// Distinct seeded inputs per shape, each with its reference Gram.
const PER_SHAPE: usize = 8;
/// Full windows of jobs, in the menu's exact proportions, that each
/// set-up pushes through the fresh service. They grow both pool workers'
/// packing buffers and the allocator's free lists, which otherwise slow
/// the first second of the loop; a fixed mix keeps the set-up work the
/// same for every seed.
const WARM_WINDOWS: usize = 4;
/// Random streams: the inputs, the loop's job sequence and the audit's.
const INPUT_STREAM: u64 = 0x5e7;
const SEQ_STREAM: u64 = 0x5e8;
const AUDIT_STREAM: u64 = 0x5e9;
/// Jobs of the fixed post-loop pass whose counters must repeat exactly.
const AUDIT_JOBS: usize = 64;
/// Jobs of the loop's sequence replayed as direct batches in the traced
/// pass, and the batch size (the service's default `max_batch`).
const REPLAY_JOBS: usize = 256;
const REPLAY_BATCH: usize = 8;
/// Timed solo runs of each shape in the traced pass.
const SOLO_REPS: usize = 20;

/// One seeded input, its reference Gram and the entrywise scale
/// `|A|ᵀ|A|` (both triangles) of its rounding bound.
struct Case {
    a: Matrix<f64>,
    reference: Matrix<f64>,
    scale: Matrix<f64>,
}

fn menu_weight() -> u64 {
    MENU.iter().map(|(_, w)| w).sum()
}

/// Draw a `(shape, input)` pair from the weighted menu.
fn draw(rng: &mut StdRng) -> (usize, usize) {
    let mut pick = rng.random_range(0..menu_weight());
    let shape = MENU
        .iter()
        .position(|(_, w)| {
            let hit = pick < *w;
            pick = pick.saturating_sub(*w);
            hit
        })
        .expect("pick < total weight");
    (shape, rng.random_range(0..PER_SHAPE))
}

/// Every entry within `2 γ_m (|A|ᵀ|A|)_ij` of the reference: both the
/// service's `syrk` leaf and the reference are classical inner products.
/// Row slices keep the check cheap next to the job it checks, so the
/// client thread stays off the critical path.
fn verify(case: &Case, out: AtaOutput<f64>) -> bool {
    let g = out.into_dense();
    let n = case.reference.rows();
    if g.shape() != (n, n) {
        return false;
    }
    let gamma = 2.02 * case.a.rows() as f64 * f64::EPSILON / 2.0;
    (0..n).all(|i| {
        let (got, want, scale) = (g.row(i), case.reference.row(i), case.scale.row(i));
        got.iter()
            .zip(want)
            .zip(scale)
            .all(|((g, r), s)| (g - r).abs() <= gamma * s + f64::MIN_POSITIVE)
    })
}

fn build_cases(seed: u64) -> Vec<Vec<Case>> {
    let mut seeds = stream(seed, INPUT_STREAM);
    MENU.iter()
        .map(|&((m, n), _)| {
            (0..PER_SHAPE)
                .map(|_| {
                    let a = gen::standard::<f64>(seeds.next_u64(), m, n);
                    let reference = reference::gram(a.as_ref());
                    let mut scale = abs_gram(a.as_ref());
                    scale.mirror_lower_to_upper();
                    Case {
                        a,
                        reference,
                        scale,
                    }
                })
                .collect()
        })
        .collect()
}

/// Build the context and the service, then warm them: plan every menu
/// shape once on this thread (one plan-cache miss each, where two shards
/// racing on their first jobs could miss twice), then push
/// [`WARM_WINDOWS`] full windows through the service. Returns the
/// service, the set-up time and whether every warm-up job verified.
fn set_up(cases: &[Vec<Case>]) -> (ShardedService<f64>, AtaContext, f64, bool) {
    let window: Vec<(usize, usize)> = (0..WARM_WINDOWS * IN_FLIGHT / menu_weight() as usize)
        .flat_map(|rep| {
            MENU.iter().enumerate().flat_map(move |(s, &(_, w))| {
                (0..w as usize).map(move |k| (s, (rep + k) % PER_SHAPE))
            })
        })
        .collect();
    let mut ops = window
        .iter()
        .map(|&(s, i)| cases[s][i].a.clone())
        .collect::<Vec<_>>()
        .into_iter();
    let t0 = Instant::now();
    let ctx = AtaContext::shared(NonZeroUsize::new(THREADS).expect("2 > 0"));
    let svc = ShardedService::<f64>::builder(&ctx)
        .shards(SHARDS)
        .split_words(usize::MAX)
        .build::<f64>();
    let shapes: Vec<(usize, usize)> = MENU.iter().map(|&(shape, _)| shape).collect();
    ctx.batch_plan::<f64>(&shapes, Output::Gram);
    let mut ok = true;
    for chunk in window.chunks(IN_FLIGHT) {
        let handles: Vec<_> = ops
            .by_ref()
            .take(chunk.len())
            .map(|a| svc.submit(a))
            .collect();
        for (h, &(s, i)) in handles.into_iter().zip(chunk) {
            ok &= h
                .ok()
                .and_then(|h| h.wait().ok())
                .is_some_and(|out| verify(&cases[s][i], out));
        }
    }
    (svc, ctx, t0.elapsed().as_secs_f64(), ok)
}

fn batches(stats: &ShardedStats) -> usize {
    stats.per_shard.iter().map(|s| s.batches).sum()
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Run {
    let cases = build_cases(opts.seed);

    let (svc, ctx, s, warm_ok) = set_up(&cases);
    let mut setups = vec![s];

    let mut rng = stream(opts.seed, SEQ_STREAM);
    let stats0 = svc.stats();
    let mut rec = Recorder::new(opts);
    let mut inflight = VecDeque::with_capacity(IN_FLIGHT);
    let mut next_op = 0u64;
    let mut per_shape = [0u64; MENU.len()];
    loop {
        while rec.running() && inflight.len() < IN_FLIGHT {
            let (s, i) = draw(&mut rng);
            let a = cases[s][i].a.clone();
            let op = next_op;
            next_op += 1;
            let root = tr.root(op);
            let t = Instant::now();
            let call = tr.child(root, "shard.submit");
            let handle = svc.submit(a);
            tr.end(call);
            match handle {
                Ok(h) => inflight.push_back((h, op, (s, i), t, root)),
                Err(_) => {
                    tr.end(root);
                    rec.record(tr.traces(op), t.elapsed().as_secs_f64() * 1e3, false);
                }
            }
        }
        let Some((h, op, (s, i), t, root)) = inflight.pop_front() else {
            break;
        };
        let call = tr.child(root, "shard.wait");
        let out = h.wait();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.end(call);
        tr.end(root);
        let ok = out.is_ok_and(|out| verify(&cases[s][i], out));
        rec.record(tr.traces(op), ms, ok);
        per_shape[s] += 1;
    }
    let stats1 = svc.stats();
    let mut run = rec.finish();

    // Fixed audit pass: the counters it yields depend on the seed only.
    let mut audit_rng = stream(opts.seed, AUDIT_STREAM);
    let audit: Vec<(usize, usize)> = (0..AUDIT_JOBS).map(|_| draw(&mut audit_rng)).collect();
    let before = svc.stats();
    let mut audit_ok = warm_ok;
    for chunk in audit.chunks(IN_FLIGHT) {
        let handles: Vec<_> = chunk
            .iter()
            .map(|&(s, i)| svc.submit(cases[s][i].a.clone()))
            .collect();
        for (h, &(s, i)) in handles.into_iter().zip(chunk) {
            audit_ok &= h
                .ok()
                .and_then(|h| h.wait().ok())
                .is_some_and(|out| verify(&cases[s][i], out));
        }
    }
    let after = svc.stats();
    let blocked = audit
        .iter()
        .filter(|&&(s, _)| {
            let (m, n) = MENU[s].0;
            selected_path::<f64>(m, n, n) == KernelPath::Blocked
        })
        .count();
    run.faults += u64::from(!audit_ok);
    run.counters = vec![
        (
            "shard.whole_jobs",
            (after.whole_jobs - before.whole_jobs) as f64,
        ),
        (
            "shard.split_jobs",
            (after.split_jobs - before.split_jobs) as f64,
        ),
        (
            "shard.failed_jobs",
            (after.failed_jobs - before.failed_jobs) as f64,
        ),
        (
            "kernels.blocked_jobs_frac",
            blocked as f64 / AUDIT_JOBS as f64,
        ),
        ("context.plan_misses", ctx.plan_cache_misses() as f64),
    ];
    let mean_elems: f64 = MENU
        .iter()
        .map(|&((m, n), w)| (w * (m * n + n * n) as u64) as f64 / menu_weight() as f64)
        .sum();
    run.working_set_mib = IN_FLIGHT as f64 * mean_elems * 8.0 / 1048576.0;

    if tr.on() {
        // Replay the loop's first jobs as direct batches on the same
        // context: the service's work without the service.
        let mut rng = stream(opts.seed, SEQ_STREAM);
        let jobs: Vec<(usize, usize)> = (0..REPLAY_JOBS).map(|_| draw(&mut rng)).collect();
        let mut batch_ms = Vec::new();
        for chunk in jobs.chunks(REPLAY_BATCH) {
            let shapes: Vec<(usize, usize)> = chunk.iter().map(|&(s, _)| MENU[s].0).collect();
            let refs: Vec<_> = chunk.iter().map(|&(s, i)| cases[s][i].a.as_ref()).collect();
            let plan = ctx.batch_plan::<f64>(&shapes, Output::Gram);
            let (outs, ms) = tr.time_probe("batch.execute_batch", || plan.execute_batch(&refs));
            batch_ms.push(ms);
            let replay_ok = outs
                .into_iter()
                .zip(chunk)
                .all(|(out, &(s, i))| verify(&cases[s][i], out));
            run.faults += u64::from(!replay_ok);
        }
        // Each shape alone on this thread: the compute one job costs.
        let solo_ms: Vec<f64> = MENU
            .iter()
            .enumerate()
            .map(|(s, &(shape, _))| {
                let plan = ctx.batch_plan::<f64>(&[shape], Output::Gram);
                let a = [cases[s][0].a.as_ref()];
                let ms: Vec<f64> = (0..SOLO_REPS)
                    .map(|_| {
                        tr.time_probe("batch.execute_batch", || plan.execute_batch(&a))
                            .1
                    })
                    .collect();
                median(&ms)
            })
            .collect();
        let compute_ms: f64 = per_shape
            .iter()
            .zip(&solo_ms)
            .map(|(&n, ms)| n as f64 * ms)
            .sum();
        run.layers = vec![
            ("shard.submit_ms", median(&tr.durations_ms("shard.submit"))),
            ("shard.wait_ms", median(&tr.durations_ms("shard.wait"))),
            (
                "shard.mean_batch",
                (stats1.whole_jobs - stats0.whole_jobs) as f64
                    / (batches(&stats1) - batches(&stats0)) as f64,
            ),
            ("batch.execute_ms", median(&batch_ms)),
            (
                "shard.overhead_frac",
                1.0 - compute_ms / (THREADS as f64 * run.wall_s * 1e3),
            ),
        ];
    }
    svc.shutdown();
    // The other set-ups, one service at a time.
    for _ in 1..opts.setups {
        let (svc, _, s, ok) = set_up(&cases);
        svc.shutdown();
        setups.push(s);
        run.faults += u64::from(!ok);
    }
    run.setup_s = setups;
    run
}
