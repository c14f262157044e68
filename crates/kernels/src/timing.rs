//! The one timing primitive behind every speed comparison in the
//! workspace: the calibration sweeps, the figure binaries and the
//! record benches all time through [`time_rounds`].
//!
//! Timing each candidate in its own block of repetitions lets host drift
//! (frequency steps, a noisy neighbour, page-cache state) land on one
//! side of a comparison. [`time_rounds`] interleaves instead: after one
//! untimed warm-up per call it runs every call once per round, rotating
//! which call leads and alternating the direction, so drift and the
//! call run just before move all calls alike. A ratio is then
//! taken per round, where both sides saw the same host, and summarized
//! by its median and quartiles. An A/A row (the same call on both sides
//! of a ratio) shows how far that ratio moves when nothing changed.

use std::time::Instant;

/// Seconds per call and round from one [`time_rounds`] run.
#[derive(Debug, Clone)]
pub struct Rounds {
    /// `secs[call][round]`: every call has one sample per round.
    secs: Vec<Vec<f64>>,
}

/// First quartile, median and third quartile of a sample set
/// (linear interpolation between order statistics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

/// Time `calls` closures, addressed as `f(0)`, ..., `f(calls - 1)`.
///
/// Each call first runs once untimed. Then rounds run until at least
/// `min_rounds` rounds and `min_secs` seconds of timed rounds have
/// passed. Round `r` runs every call once, starting with call
/// `r % calls` and walking the calls upwards on even rounds and
/// downwards on odd ones, so an A/B pair alternates its order and, with
/// more calls, each call follows each of its two neighbours equally
/// often.
///
/// # Panics
/// If `calls` or `min_rounds` is zero.
pub fn time_rounds(calls: usize, min_rounds: usize, min_secs: f64, f: impl FnMut(usize)) -> Rounds {
    let start = Instant::now();
    rounds_on(calls, min_rounds, min_secs, f, || {
        start.elapsed().as_secs_f64()
    })
}

/// [`time_rounds`] against the clock `now` (seconds since any fixed
/// origin), so tests can drive it with a fake one.
fn rounds_on(
    calls: usize,
    min_rounds: usize,
    min_secs: f64,
    mut f: impl FnMut(usize),
    mut now: impl FnMut() -> f64,
) -> Rounds {
    assert!(calls >= 1, "time_rounds needs at least one call");
    assert!(min_rounds >= 1, "time_rounds needs at least one round");
    (0..calls).for_each(&mut f);
    let mut secs = vec![Vec::with_capacity(min_rounds); calls];
    let t0 = now();
    let mut round = 0;
    while round < min_rounds || now() - t0 < min_secs {
        let lead = round % calls;
        for j in 0..calls {
            // Odd rounds walk the cycle backwards, so no call always
            // runs right after the same neighbour.
            let call = if round % 2 == 0 {
                (lead + j) % calls
            } else {
                (lead + calls - j) % calls
            };
            let s = now();
            f(call);
            secs[call].push(now() - s);
        }
        round += 1;
    }
    Rounds { secs }
}

impl Rounds {
    /// Number of timed rounds (samples per call).
    pub fn rounds(&self) -> usize {
        self.secs[0].len()
    }

    /// Median seconds of `call`.
    pub fn median(&self, call: usize) -> f64 {
        quartiles(self.secs[call].clone()).median
    }

    /// Quartiles over rounds of `num`'s time divided by `den`'s time in
    /// the same round.
    pub fn ratio(&self, num: usize, den: usize) -> Quartiles {
        let per_round = self.secs[num].iter().zip(&self.secs[den]);
        quartiles(per_round.map(|(a, b)| a / b).collect())
    }
}

/// Quartiles of a non-empty sample set.
fn quartiles(mut v: Vec<f64>) -> Quartiles {
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let h = p * (v.len() - 1) as f64;
        let (lo, frac) = (h.floor() as usize, h.fract());
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + frac * (v[hi] - v[lo])
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// Run [`rounds_on`] on a fake clock where call `i` takes `cost(i, n)`
    /// seconds on its `n`-th run (warm-up included); returns the result
    /// and the order calls ran in.
    fn fake(
        calls: usize,
        min_rounds: usize,
        min_secs: f64,
        cost: impl Fn(usize, usize) -> f64,
    ) -> (Rounds, Vec<usize>) {
        let clock = Cell::new(0.0);
        let order = RefCell::new(Vec::new());
        let runs = RefCell::new(vec![0usize; calls]);
        let r = rounds_on(
            calls,
            min_rounds,
            min_secs,
            |i| {
                let n = runs.borrow()[i];
                runs.borrow_mut()[i] += 1;
                order.borrow_mut().push(i);
                clock.set(clock.get() + cost(i, n));
            },
            || clock.get(),
        );
        (r, order.into_inner())
    }

    #[test]
    fn warm_up_runs_once_per_call_and_is_never_sampled() {
        // The warm-up run takes 100 s; every later run takes 1 s.
        let (r, order) = fake(3, 4, 0.0, |_, n| if n == 0 { 100.0 } else { 1.0 });
        assert_eq!(&order[..3], &[0, 1, 2], "one warm-up per call, first");
        assert_eq!(order.len(), 3 + 3 * 4);
        for call in 0..3 {
            assert_eq!(order.iter().filter(|&&c| c == call).count(), 5);
            assert_eq!(r.median(call), 1.0, "warm-up time leaked into call {call}");
        }
    }

    #[test]
    fn the_leading_call_rotates_every_round() {
        let (_, order) = fake(2, 4, 0.0, |_, _| 1.0);
        assert_eq!(&order[2..], &[0, 1, 1, 0, 0, 1, 1, 0], "A/B alternates");
        // Three calls: six rounds run all six orders, so every call
        // leads twice and directly follows each other call twice.
        let (_, order) = fake(3, 6, 0.0, |_, _| 1.0);
        let rounds: Vec<&[usize]> = order[3..].chunks(3).collect();
        assert_eq!(
            rounds,
            [
                [0, 1, 2],
                [1, 0, 2],
                [2, 0, 1],
                [0, 2, 1],
                [1, 2, 0],
                [2, 1, 0]
            ]
        );
    }

    #[test]
    fn samples_follow_their_call_through_the_rotation() {
        // Call 1 is always twice as slow as call 0.
        let (r, _) = fake(2, 5, 0.0, |i, _| if i == 0 { 1.0 } else { 2.0 });
        assert_eq!(r.median(0), 1.0);
        assert_eq!(r.median(1), 2.0);
        let q = r.ratio(1, 0);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 2.0, 2.0));
    }

    #[test]
    fn stop_rule_needs_both_the_round_count_and_the_time() {
        // Rounds bind: 1 s per round, 0.5 s asked.
        let (r, _) = fake(1, 6, 0.5, |_, _| 1.0);
        assert_eq!(r.rounds(), 6);
        // Time binds: 0.25 s per round (two calls), 2 s asked: rounds
        // stop at the first check with 2 s elapsed.
        let (r, _) = fake(2, 1, 2.0, |_, _| 0.125);
        assert_eq!(r.rounds(), 8);
        // Neither binds past its own need.
        let (r, _) = fake(2, 3, 0.0, |_, _| 0.125);
        assert_eq!(r.rounds(), 3);
    }

    #[test]
    fn quartiles_interpolate_on_fixed_samples() {
        let q = quartiles(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = quartiles(vec![4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        let q = quartiles(vec![7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn ratio_is_taken_within_each_round() {
        // Per-round ratios 1, 4, 0.5 have median 1; the medians' ratio
        // would read 2 / 1.
        let (r, _) = fake(2, 3, 0.0, |i, n| {
            [[9.0, 1.0, 4.0, 2.0], [9.0, 1.0, 1.0, 4.0]][i][n]
        });
        assert_eq!(r.median(0) / r.median(1), 2.0);
        let q = r.ratio(0, 1);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.0, 2.5));
    }

    #[test]
    fn timing_returns_positive_median() {
        let mut n = 0u64;
        let r = time_rounds(1, 3, 0.0, |_| {
            n += 1;
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(n, 4, "warm-up plus rounds");
        assert_eq!(r.rounds(), 3);
        assert!(r.median(0) >= 0.0);
    }
}
