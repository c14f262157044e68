//! `gram_square`: one `AtaPlan<f64>::execute_into` of a 2048 x 2048 Gram
//! (`Output::Gram`) per op, on `AtaContext::shared(2)`, closed loop with
//! one op in flight. This is the paper's claim at the size the roadmap
//! must attribute: every AtA-S task recurses through AtA quadrants and
//! up to three Strassen levels before it reaches the kernels.
//!
//! The traced pass adds probes that replay the same product one layer
//! down: the AtA-S core with its task plan, each thread's task list, the
//! off-diagonal Strassen product and the leaf kernels, all on the same
//! input.

use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::time::Instant;

use ata::core::accuracy::strassen_bound_factor;
use ata::core::analysis::ata_mults;
use ata::core::parallel::{ata_s_planned, plan_workspace_elems};
use ata::core::serial::{ata_into_with_kind, ata_workspace_elems, StrassenKind};
use ata::core::tasktree::{ComputeKind, Region, SharedLeaf, SharedPlan};
use ata::kernels::par::pool_with_threads;
use ata::kernels::{gemm_tn, syrk_ln, CacheConfig};
use ata::mat::{gen, half_up, MatMut, MatRef, Matrix};
use ata::strassen::{ArenaPool, StrassenWorkspace};
use ata::{AtaContext, Output, OwnedPlan};
use rand::RngCore;

use crate::report::median;
use crate::trace::{SpanId, Tracer};
use crate::{signs, stream, Opts, Recorder, Run};

const N: usize = 2048;
const THREADS: usize = 2;
/// Distinct seeded inputs the loop cycles through.
const INPUTS: usize = 3;
/// Rounds of timed probe calls.
const PROBE_ROUNDS: usize = 3;
/// Timed leaf-kernel calls per round.
const LEAF_CALLS: usize = 30;

/// One seeded input with the norms its Freivalds bound needs.
struct Input {
    a: Matrix<f64>,
    max_abs: f64,
    fro2: f64,
}

/// Build a context, plan and warm it: the program's own set-up work.
/// Returns the plan, the set-up time and the `plan_with` time.
fn set_up(first: &Matrix<f64>, c: &mut Matrix<f64>, tr: &mut Tracer) -> (OwnedPlan<f64>, f64, f64) {
    let t0 = Instant::now();
    let ctx = AtaContext::shared(NonZeroUsize::new(THREADS).expect("2 > 0"));
    let (plan, plan_ms) = tr.time_probe("context.plan_with", || {
        ctx.plan_with::<f64>(N, N, Output::Gram).into_owned()
    });
    // The first execution grows every worker's packing buffers.
    plan.execute_into(first.as_ref(), &mut c.as_mut());
    (plan, t0.elapsed().as_secs_f64(), plan_ms)
}

/// Freivalds probe: `|| C x - Aᵀ(A x) ||₂` against Higham's max-norm
/// Strassen bound (Eq. 23.10, depth-aware through the leaf size) plus
/// the rounding of the three matrix-vector products. O(n²) per check.
fn freivalds(input: &Input, c: &Matrix<f64>, x: &[f64], leaf_n: usize) -> bool {
    let a = &input.a;
    let (m, n) = a.shape();
    let y: Vec<f64> = (0..m).map(|i| dot(a.row(i), x)).collect();
    let mut z = vec![0.0; n];
    for (i, yi) in y.iter().enumerate() {
        for (zj, aij) in z.iter_mut().zip(a.row(i)) {
            *zj += aij * yi;
        }
    }
    let resid = (0..n)
        .map(|i| (dot(c.row(i), x) - z[i]).powi(2))
        .sum::<f64>()
        .sqrt();
    let u = f64::EPSILON / 2.0;
    let xnorm = dot(x, x).sqrt();
    let strassen = n as f64 * strassen_bound_factor(n, leaf_n) * input.max_abs * input.max_abs;
    let matvecs = (2 * m + n) as f64 * input.fro2;
    resid <= 1.01 * u * xnorm * (strassen + matvecs)
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Shape `(m, n, k)` of the kernel calls the Strassen recursion on an
/// `m x n` by `m x k` product reaches, and the number of those calls.
fn gemm_leaf(mut s: (usize, usize, usize), cache: &CacheConfig) -> ((usize, usize, usize), u64) {
    let mut leaves = 1;
    while !cache.gemm_base(s.0, s.1, s.2) {
        s = (half_up(s.0), half_up(s.1), half_up(s.2));
        leaves *= 7;
    }
    (s, leaves)
}

/// Shape of the `syrk` calls the AtA recursion on `m x n` reaches.
fn syrk_leaf(mut s: (usize, usize), cache: &CacheConfig) -> (usize, usize) {
    while !cache.ata_base(s.0, s.1) {
        s = (half_up(s.0), half_up(s.1));
    }
    s
}

fn cols(a: MatRef<'_, f64>, span: (usize, usize)) -> MatRef<'_, f64> {
    a.block(0, a.rows(), span.0, span.1)
}

fn block(c: &mut Matrix<f64>, r: Region) -> MatMut<'_, f64> {
    c.as_mut().into_block(r.r0, r.r1, r.c0, r.c1)
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Run {
    let mut seeds = stream(opts.seed, 0x6a3);
    let inputs: Vec<Input> = (0..INPUTS)
        .map(|_| {
            let a = gen::standard::<f64>(seeds.next_u64(), N, N);
            let max_abs = a.as_ref().max_abs();
            let fro2 = a.as_slice().iter().map(|v| v * v).sum();
            Input { a, max_abs, fro2 }
        })
        .collect();
    let mut c = Matrix::zeros(N, N);

    let (plan, s, ms) = set_up(&inputs[0].a, &mut c, tr);
    let (mut setups, mut plan_ms) = (vec![s], vec![ms]);
    let cache = plan.cache();
    let shared = SharedPlan::build(N, THREADS);
    let offdiag = *shared
        .tasks
        .iter()
        .find(|t| t.kind == ComputeKind::AtB)
        .expect("a 2-thread plan has an off-diagonal task");
    let width = |s: (usize, usize)| s.1 - s.0;
    let (leaf, leaves) = gemm_leaf((N, width(offdiag.a_cols), width(offdiag.b_cols)), &cache);

    let mut rec = Recorder::new(opts);
    let mut rng = stream(opts.seed, 0xf7e);
    while rec.running() {
        let op = rec.ops();
        let input = &inputs[op as usize % INPUTS];
        let root = tr.root(op);
        let call = tr.child(root, "context.execute_into");
        let t = Instant::now();
        plan.execute_into(input.a.as_ref(), &mut c.as_mut());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.end(call);
        tr.end(root);
        let x = signs(&mut rng, N);
        rec.record(tr.traces(op), ms, freivalds(input, &c, &x, leaf.1));
    }

    let ctx = plan.context();
    let mut run = rec.finish();
    run.one_in_flight = true;
    run.counters = vec![
        ("core.mults", ata_mults(N, N, &cache) as f64),
        ("strassen.workspace_elems", plan.workspace_elems() as f64),
        ("context.plan_misses", ctx.plan_cache_misses() as f64),
    ];
    run.working_set_mib = ((2 * N * N + THREADS * plan.workspace_elems()) * 8) as f64 / 1048576.0;
    if tr.on() {
        let execute_ms = median(&tr.durations_ms("context.execute_into"));
        run.layers = probes(
            tr,
            &inputs[0].a,
            &cache,
            ctx.strassen(),
            &shared,
            &offdiag,
            leaf,
            leaves,
        );
        let atas = run.layer("core.atas_ms");
        run.layers.extend([
            ("context.execute_ms", execute_ms),
            ("context.overhead_ms", execute_ms - atas),
        ]);
    }
    // The other set-ups, one pool at a time.
    drop(plan);
    for _ in 1..opts.setups {
        let (_, s, ms) = set_up(&inputs[0].a, &mut c, tr);
        setups.push(s);
        plan_ms.push(ms);
    }
    run.setup_s = setups;
    if tr.on() {
        run.layers.push(("context.plan_ms", median(&plan_ms)));
    }
    run
}

type Call<'a> = Box<dyn FnMut(&mut Tracer, SpanId) + 'a>;

/// A call replayed one layer down, on a pool of `threads` workers (1 or
/// 2). The call gets the tracer and its root span, to open a child span
/// around each library call it makes when it makes more than one.
struct Probe<'a> {
    name: &'static str,
    threads: usize,
    /// Timed calls per round.
    calls: usize,
    call: Call<'a>,
    ms: Vec<f64>,
}

impl<'a> Probe<'a> {
    fn new(name: &'static str, threads: usize, call: impl FnMut(&mut Tracer, SpanId) + 'a) -> Self {
        Probe {
            name,
            threads,
            calls: 1,
            call: Box::new(call),
            ms: Vec::new(),
        }
    }
}

/// Run every probe once untimed, then [`PROBE_ROUNDS`] rounds that time
/// each probe in turn, so that host speed drifting during the probes
/// moves them all alike and the metrics derived from several stay
/// consistent.
fn run_probes(tr: &mut Tracer, probes: &mut [Probe<'_>]) {
    let (one, two) = (pool_with_threads(1), pool_with_threads(THREADS));
    let pool = |threads| if threads == 1 { &one } else { &two };
    for p in probes.iter_mut() {
        pool(p.threads).install(|| (p.call)(&mut Tracer::new(false), None));
    }
    for _ in 0..PROBE_ROUNDS {
        for p in probes.iter_mut() {
            for _ in 0..p.calls {
                let ms = pool(p.threads).install(|| {
                    let root = tr.probe(p.name);
                    let t = Instant::now();
                    (p.call)(tr, root);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    tr.end(root);
                    ms
                });
                p.ms.push(ms);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn probes(
    tr: &mut Tracer,
    a: &Matrix<f64>,
    cache: &CacheConfig,
    kind: StrassenKind,
    shared: &SharedPlan,
    offdiag: &SharedLeaf,
    leaf: (usize, usize, usize),
    leaves: u64,
) -> Vec<(&'static str, f64)> {
    let a = a.as_ref();
    let c = RefCell::new(Matrix::<f64>::zeros(N, N));

    // Leaf kernels at the shapes the recursion reaches.
    let (lm, ln, lk) = leaf;
    let mut cl = Matrix::<f64>::zeros(ln, lk);
    let mut gemm_leaf = Probe::new("kernels.gemm_tn", 1, move |_, _| {
        gemm_tn(
            1.0,
            a.block(0, lm, 0, ln),
            a.block(0, lm, ln, ln + lk),
            &mut cl.as_mut(),
        )
    });
    gemm_leaf.calls = LEAF_CALLS;
    let ata_task = shared
        .tasks
        .iter()
        .find(|t| t.kind == ComputeKind::AtA)
        .expect("a 2-thread plan has a diagonal task");
    let (sm, sn) = syrk_leaf((N, ata_task.a_cols.1 - ata_task.a_cols.0), cache);
    let mut cs = Matrix::<f64>::zeros(sn, sn);
    let mut syrk_leaf = Probe::new("kernels.syrk_ln", 1, move |_, _| {
        syrk_ln(1.0, a.block(0, sm, 0, sn), &mut cs.as_mut())
    });
    syrk_leaf.calls = LEAF_CALLS;

    // The paper's baseline: one syrk over the whole input, one thread.
    let syrk_full = Probe::new("kernels.syrk_ln", 1, |_, _| {
        let mut c = c.borrow_mut();
        c.as_mut().fill_zero();
        syrk_ln(1.0, a, &mut c.as_mut());
    });

    // The off-diagonal task product through Strassen, then classically.
    let (ta, tb) = (cols(a, offdiag.a_cols), cols(a, offdiag.b_cols));
    let mut ws =
        StrassenWorkspace::with_capacity(kind.gemm_workspace_elems(N, ta.cols(), tb.cols(), cache));
    let strassen = Probe::new("strassen.gemm_into", 1, |_, _| {
        kind.gemm_into(
            1.0,
            ta,
            tb,
            &mut block(&mut c.borrow_mut(), offdiag.c),
            cache,
            &mut ws,
        )
    });
    let classical = Probe::new("kernels.gemm_tn", 1, |_, _| {
        gemm_tn(1.0, ta, tb, &mut block(&mut c.borrow_mut(), offdiag.c))
    });

    // Algorithm 1 on one thread, and AtA-S on two.
    let mut ws = StrassenWorkspace::with_capacity(ata_workspace_elems(N, N, cache, kind));
    let serial = Probe::new("core.ata_into_with_kind", 1, |_, _| {
        let mut c = c.borrow_mut();
        c.as_mut().fill_zero();
        ata_into_with_kind(1.0, a, &mut c.as_mut(), cache, kind, &mut ws);
    });
    let arenas = ArenaPool::new();
    arenas.warm(THREADS, plan_workspace_elems(shared, N, cache, kind));
    let atas = Probe::new("core.ata_s_planned", THREADS, |_, _| {
        let mut c = c.borrow_mut();
        c.as_mut().fill_zero();
        ata_s_planned(1.0, a, &mut c.as_mut(), shared, cache, kind, &arenas);
    });

    // Each thread's task list, run one by one on one thread.
    let busy = |p: usize| {
        let mut ws = StrassenWorkspace::with_capacity(plan_workspace_elems(shared, N, cache, kind));
        let c = &c;
        Probe::new("core.tasks", 1, move |tr: &mut Tracer, root: SpanId| {
            let mut c = c.borrow_mut();
            for t in shared.tasks_for(p) {
                let mut cv = block(&mut c, t.c);
                let left = cols(a, t.a_cols);
                match t.kind {
                    ComputeKind::AtA => {
                        let call = tr.child(root, "core.ata_into_with_kind");
                        ata_into_with_kind(1.0, left, &mut cv, cache, kind, &mut ws);
                        tr.end(call);
                    }
                    ComputeKind::AtB => {
                        let call = tr.child(root, "strassen.gemm_into");
                        kind.gemm_into(1.0, left, cols(a, t.b_cols), &mut cv, cache, &mut ws);
                        tr.end(call);
                    }
                }
            }
        })
    };

    let mut probes = [
        gemm_leaf,
        syrk_leaf,
        syrk_full,
        strassen,
        classical,
        serial,
        atas,
        busy(0),
        busy(1),
    ];
    run_probes(tr, &mut probes);
    let [gemm_leaf, syrk_leaf, syrk_full, strassen, classical, serial, atas, busy0, busy1] =
        probes.map(|p| median(&p.ms));
    let slowest = busy0.max(busy1);
    vec![
        (
            "kernels.gemm_leaf_gflops",
            2.0 * (lm * ln * lk) as f64 / gemm_leaf / 1e6,
        ),
        (
            "kernels.syrk_leaf_gflops",
            (sm * sn * (sn + 1)) as f64 / syrk_leaf / 1e6,
        ),
        ("kernels.syrk_full_ms", syrk_full),
        ("strassen.offdiag_ms", strassen),
        ("strassen.offdiag_classical_ms", classical),
        ("strassen.sums_ms", strassen - leaves as f64 * gemm_leaf),
        ("core.serial_ms", serial),
        ("core.ata_over_syrk", serial / syrk_full),
        ("core.atas_ms", atas),
        ("core.busy_ms.p0", busy0),
        ("core.busy_ms.p1", busy1),
        ("core.imbalance", slowest / ((busy0 + busy1) / 2.0)),
        ("core.wait_ms", atas - slowest),
    ]
}
