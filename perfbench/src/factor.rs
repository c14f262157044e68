//! `factor_window`: one step per op on a `FactoredGram<f64>` with
//! n = 256 on `AtaContext::serial()`: push the newest 32-row chunk,
//! retract the oldest chunk of a 32-chunk window, then `solve` and
//! `ridge` at a fixed λ. Closed loop on one thread.
//!
//! Writes beside reads on one tier: rank-k LDLᵀ update and downdate
//! sweeps on the main and λ-shifted factors plus `syrk_ln_beta` folds,
//! then O(n²) solves. The working set fits in L2, with no Strassen and
//! no service involved.

use std::time::Instant;

use ata::linalg::update::{LdltFactor, UpdateError};
use ata::mat::{gen, MatRef, Matrix};
use ata::{AtaContext, FactoredGram};
use rand::RngCore;

use crate::report::median;
use crate::trace::Tracer;
use crate::{signs, stream, Opts, Recorder, Run};

const N: usize = 256;
const K: usize = 32;
const WINDOW: usize = 32;
/// Distinct seeded chunks cycled through; twice the window, so a chunk
/// leaves the window long before it comes back.
const RING: usize = 2 * WINDOW;
const LAMBDA: f64 = 1.0;
/// Relative residual a verified solve must reach. Backward-stable LDLᵀ
/// solves reach about n·u = 3e-14 here; the update and downdate sweeps
/// add rounding drift between factor and Gram over thousands of steps.
const RESIDUAL_TOL: f64 = 1e-9;
/// Steps replayed through the layers below in the traced pass.
const PROBE_STEPS: usize = 64;

/// `‖(C + λI) x - b‖ / (‖C + λI‖_F ‖x‖ + ‖b‖)` with `C` read from the
/// live lower triangle.
fn residual(c: MatRef<'_, f64>, lambda: f64, x: &[f64], b: &[f64]) -> f64 {
    let mut y: Vec<f64> = x.iter().map(|v| lambda * v).collect();
    let mut fro2 = N as f64 * lambda * lambda;
    for i in 0..N {
        let row = c.row(i);
        for j in 0..i {
            y[i] += row[j] * x[j];
            y[j] += row[j] * x[i];
            fro2 += 2.0 * row[j] * row[j];
        }
        y[i] += row[i] * x[i];
        fro2 += row[i] * row[i] + 2.0 * lambda * row[i];
    }
    let norm = |v: &[f64]| v.iter().map(|t| t * t).sum::<f64>().sqrt();
    let r: Vec<f64> = y.iter().zip(b).map(|(y, b)| y - b).collect();
    norm(&r) / (fro2.sqrt() * norm(x) + norm(b))
}

fn verified(
    fg: &FactoredGram<f64>,
    lambda: f64,
    x: &Result<Vec<f64>, UpdateError>,
    b: &[f64],
) -> bool {
    x.as_ref()
        .is_ok_and(|x| residual(fg.accumulator().as_lower(), lambda, x, b) <= RESIDUAL_TOL)
}

/// Build the context and the factored Gram, fill the first window and
/// make the first factorizations (plain and λ-shifted).
fn set_up(chunks: &[Matrix<f64>], b: &[f64]) -> (FactoredGram<f64>, f64, bool) {
    let t0 = Instant::now();
    let ctx = AtaContext::serial();
    let mut fg = ctx.factored_gram::<f64>(N);
    for chunk in &chunks[..WINDOW] {
        fg.push(chunk.as_ref());
    }
    let x = fg.solve(b);
    let xr = fg.ridge(LAMBDA, b);
    let s = t0.elapsed().as_secs_f64();
    let ok = verified(&fg, 0.0, &x, b) && verified(&fg, LAMBDA, &xr, b);
    (fg, s, ok)
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Run {
    let mut seeds = stream(opts.seed, 0xfac);
    let chunks: Vec<Matrix<f64>> = (0..RING)
        .map(|_| gen::standard::<f64>(seeds.next_u64(), K, N))
        .collect();
    let b = signs(&mut stream(opts.seed, 0xfad), N);

    let (mut fg, s, warm_ok) = set_up(&chunks, &b);
    let mut setups = vec![s];

    let updates0 = fg.factor_updates();
    let mut rec = Recorder::new(opts);
    while rec.running() {
        let op = rec.ops();
        let step = op as usize;
        let (new, old) = (&chunks[(WINDOW + step) % RING], &chunks[step % RING]);
        let root = tr.root(op);
        let t = Instant::now();
        let call = tr.child(root, "factor.push");
        fg.push(new.as_ref());
        tr.end(call);
        let call = tr.child(root, "factor.retract");
        let retracted = fg.retract(old.as_ref());
        tr.end(call);
        let call = tr.child(root, "factor.solve");
        let x = fg.solve(&b);
        tr.end(call);
        let call = tr.child(root, "factor.ridge");
        let xr = fg.ridge(LAMBDA, &b);
        tr.end(call);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.end(root);
        let ok = retracted.is_ok() && verified(&fg, 0.0, &x, &b) && verified(&fg, LAMBDA, &xr, &b);
        rec.record(tr.traces(op), ms, ok);
    }
    let mut run = rec.finish();
    run.one_in_flight = true;
    run.faults += u64::from(!warm_ok);
    run.counters = vec![
        (
            "factor.updates_per_op",
            (fg.factor_updates() - updates0) as f64 / run.attempted as f64,
        ),
        ("factor.refactors", fg.factor_refactors() as f64),
        (
            "context.plan_misses",
            fg.accumulator().context().plan_cache_misses() as f64,
        ),
    ];
    // The Gram, the plain and the shifted factor, plus the two chunks.
    run.working_set_mib = (3 * N * N + 2 * K * N) as f64 * 8.0 / 1048576.0;

    if tr.on() {
        let (layers, ok) = probes(tr, &chunks, &b);
        run.layers = layers;
        run.faults += u64::from(!ok);
        let ridge = median(&tr.durations_ms("factor.ridge"));
        let step = median(&run.traced_ms);
        let (fold, sweep, solve) = (
            run.layer("stream.fold_ms"),
            run.layer("linalg.sweep_ms"),
            run.layer("linalg.solve_ms"),
        );
        run.layers.extend([
            ("factor.ridge_ms", ridge),
            (
                "factor.overhead_ms",
                step - 2.0 * fold - 4.0 * sweep - solve - ridge,
            ),
        ]);
    }
    // The other set-ups, one factored Gram at a time.
    drop(fg);
    for _ in 1..opts.setups {
        let (_, s, ok) = set_up(&chunks, &b);
        setups.push(s);
        run.faults += u64::from(!ok);
    }
    run.setup_s = setups;
    run
}

/// Replay the loop's writes and solves one layer down: the accumulator
/// folds alone, and one standalone factor's sweeps and solve.
fn probes(tr: &mut Tracer, chunks: &[Matrix<f64>], b: &[f64]) -> (Vec<(&'static str, f64)>, bool) {
    let ctx = AtaContext::serial();
    let mut acc = ctx.gram_accumulator::<f64>(N);
    for chunk in &chunks[..WINDOW] {
        acc.push(chunk.as_ref());
    }
    let mut factor = LdltFactor::from_lower(acc.as_lower()).expect("a full window is definite");
    let (mut folds, mut sweeps, mut solves) = (Vec::new(), Vec::new(), Vec::new());
    let mut rhs = b.to_vec();
    let mut ok = true;
    for step in 0..PROBE_STEPS {
        let (new, old) = (
            chunks[(WINDOW + step) % RING].as_ref(),
            chunks[step % RING].as_ref(),
        );
        folds.push(tr.time_probe("stream.push", || acc.push(new)).1);
        folds.push(tr.time_probe("stream.retract", || acc.retract(old)).1);
        for (alpha, chunk) in [(1.0, new), (-1.0, old)] {
            let (r, ms) = tr.time_probe("linalg.rank_update", || factor.rank_update(alpha, chunk));
            ok &= r.is_ok();
            sweeps.push(ms);
        }
        rhs.copy_from_slice(b);
        let (r, ms) = tr.time_probe("linalg.solve_in_place", || factor.solve_in_place(&mut rhs));
        ok &= r.is_ok();
        solves.push(ms);
    }
    let layers = vec![
        ("stream.fold_ms", median(&folds)),
        ("linalg.sweep_ms", median(&sweeps)),
        ("linalg.solve_ms", median(&solves)),
    ];
    (layers, ok)
}
