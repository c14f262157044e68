//! Dispatch-overhead benchmark: repeated small-`n` Gram calls through
//! the one-shot `ata_s` free function vs a reused `AtaPlan`.
//!
//! This is the workload the Plan/Context redesign targets — a serving
//! loop computing many Gram matrices of one shape, where per-call
//! planning (task-tree build, arena allocation, thread spawn-up) is the
//! dominant cost at small sizes. Each `n` times the one-shot call, a
//! reused shared plan and a reused serial plan in interleaved rounds
//! (`ata_kernels::timing`) and prints the median one-shot/reused ratio.
//! The first `n` also times the shared plan against itself: the A/A row
//! (`ata_bench::aa_gate`).
//!
//! Smoke mode for CI: set `ATA_BENCH_SMOKE=1` to run three rounds per
//! `n` (the bench then only guards against rot).

use std::hint::black_box;
use std::num::NonZeroUsize;

use ata::core::parallel::ata_s;
use ata::kernels::timing::time_rounds;
use ata::kernels::CacheConfig;
use ata::mat::{gen, MatRef, Matrix};
use ata::{AtaContext, Output};
use ata_bench::{aa_gate, smoke};

/// Least timed rounds and seconds per `n` in a full run.
const ROUNDS: (usize, f64) = (200, 1.0);

/// One-shot Gram: AtA-S on the global pool, planning and allocating on
/// every call.
fn one_shot_gram(a: MatRef<'_, f64>, threads: usize) -> Matrix<f64> {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    ata_s(1.0, a, &mut c.as_mut(), threads, &CacheConfig::default());
    c.mirror_lower_to_upper();
    c
}

fn main() {
    let (rounds, secs) = if smoke() { (3, 0.0) } else { ROUNDS };
    let threads = NonZeroUsize::new(4).expect("4 > 0");
    for (i, n) in [16usize, 32, 64].into_iter().enumerate() {
        let m = 2 * n;
        let a = gen::standard::<f64>(7, m, n);
        let ctx = AtaContext::shared(threads);
        let plan = ctx.plan_with::<f64>(m, n, Output::Gram);
        let serial_ctx = AtaContext::serial();
        let serial_plan = serial_ctx.plan_with::<f64>(m, n, Output::Gram);
        let mut out = Matrix::<f64>::zeros(n, n);
        // Call 3, at the first `n` only, repeats the reused shared plan
        // opposite call 1, between the same two neighbours: the A/A row.
        let r = time_rounds(
            if i == 0 { 4 } else { 3 },
            rounds,
            secs,
            |call| match call {
                0 => {
                    black_box(one_shot_gram(a.as_ref(), threads.get()));
                }
                2 => {
                    serial_plan.execute_into(a.as_ref(), &mut out.as_mut());
                    black_box(out[(0, 0)]);
                }
                _ => {
                    plan.execute_into(a.as_ref(), &mut out.as_mut());
                    black_box(out[(0, 0)]);
                }
            },
        );
        println!(
            "dispatch (m={m}, n={n}, {} threads, {} rounds): one-shot {:.3e}s/call, \
             reused plan {:.3e}s/call, reused serial plan {:.3e}s/call, \
             one-shot/reused {:.2}x",
            threads.get(),
            r.rounds(),
            r.median(0),
            r.median(1),
            r.median(2),
            r.ratio(0, 1).median
        );
        if i == 0 {
            aa_gate(
                &format!("dispatch (reused plan vs itself, n={n})"),
                r.ratio(3, 1),
            );
        }
    }
}
