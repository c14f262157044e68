//! Spawning and harvesting a universe of ranks.

use crate::comm::{Comm, Envelope};
use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crossbeam::channel::unbounded;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Raises the universe's abort flag if its thread unwinds, so blocked
/// peers fail fast instead of waiting out the deadlock guard.
struct AbortOnPanic(Arc<AtomicBool>);

impl Drop for AbortOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Per-rank accounting returned by [`run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankMetrics {
    /// Rank id.
    pub rank: usize,
    /// Final simulated clock (seconds).
    pub sim_time: f64,
    /// Simulated compute component of `sim_time`.
    pub compute_time: f64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Payload words sent.
    pub words_sent: u64,
    /// Messages received (consumed by a matching receive).
    pub msgs_recv: u64,
    /// Payload words received — at rank 0 this is the root-bandwidth
    /// term of Proposition 4.2's retrieval phase.
    pub words_recv: u64,
    /// Real wall-clock seconds the rank's thread ran.
    pub wall_time: f64,
}

/// Results and metrics of a universe execution.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank metrics, indexed by rank.
    pub metrics: Vec<RankMetrics>,
}

impl<R> RunReport<R> {
    /// The simulated elapsed time of the whole run: the maximum clock
    /// over ranks (the critical path, §4.3.2).
    pub fn critical_path(&self) -> f64 {
        self.metrics.iter().map(|m| m.sim_time).fold(0.0, f64::max)
    }

    /// Total words sent by all ranks (the bandwidth volume of Prop 4.2).
    pub fn total_words(&self) -> u64 {
        self.metrics.iter().map(|m| m.words_sent).sum()
    }

    /// Total messages sent by all ranks (the latency count of Prop 4.2).
    pub fn total_msgs(&self) -> u64 {
        self.metrics.iter().map(|m| m.msgs_sent).sum()
    }
}

/// A configured universe: rank count, cost model, and (optionally) an
/// injected [`FaultPlan`] plus the simulated-clock patience of checked
/// receives.
///
/// [`run`] is the faultless shorthand; build a `Universe` explicitly to
/// install faults:
///
/// ```
/// use ata_mpisim::{CostModel, FaultPlan, Universe};
///
/// let plan = FaultPlan::new().crash_rank(0, 0);
/// let report = Universe::new(2, CostModel::zero())
///     .faults(plan)
///     .recv_deadline(1.0)
///     .run(|comm| {
///         if comm.rank() == 0 {
///             comm.send_checked(1, 7, vec![1.0f64]).map(|_| vec![])
///         } else {
///             comm.recv_checked(0, 7) // Err: the sender crashed
///         }
///     });
/// assert!(report.results[1].is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Universe {
    size: usize,
    model: CostModel,
    faults: Arc<FaultPlan>,
    recv_deadline: Option<f64>,
}

impl Universe {
    /// A faultless universe of `size` ranks under `model`.
    ///
    /// # Panics
    /// If `size == 0`.
    pub fn new(size: usize, model: CostModel) -> Self {
        assert!(size > 0, "universe needs at least one rank");
        Self {
            size,
            model,
            faults: Arc::new(FaultPlan::new()),
            recv_deadline: None,
        }
    }

    /// Install a fault schedule (replacing any previous one).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Arc::new(plan);
        self
    }

    /// How many simulated seconds a `recv_checked` waits past its
    /// current clock before giving up with `CommError::Timeout`.
    ///
    /// # Panics
    /// If `secs` is not positive.
    pub fn recv_deadline(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "recv_deadline must be positive");
        self.recv_deadline = Some(secs);
        self
    }

    /// Run every rank through `f` and collect results and metrics.
    /// Blocks until every rank finishes. See [`run`] for the contract;
    /// additionally, under a fault plan a rank's injected crash is *not*
    /// a panic when observed through the checked ops — the rank simply
    /// returns whatever `f` maps the error to.
    ///
    /// # Panics
    /// If any rank panics (including faults surfaced through the
    /// infallible communication API).
    pub fn run<T, R, F>(&self, f: F) -> RunReport<R>
    where
        T: Send + 'static,
        R: Send,
        F: Fn(&mut Comm<T>) -> R + Sync,
    {
        let size = self.size;
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (s, r) = unbounded::<Envelope<T>>();
            senders.push(s);
            receivers.push(r);
        }

        let mut outcome: Vec<Option<(R, RankMetrics)>> = (0..size).map(|_| None).collect();
        let f_ref = &f;
        let abort = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank, (receiver, slot)) in
                receivers.into_iter().zip(outcome.iter_mut()).enumerate()
            {
                let senders = senders.clone();
                let abort = abort.clone();
                let faults = self.faults.clone();
                let recv_deadline = self.recv_deadline;
                let model = self.model;
                // The simulated cluster's ranks ARE the parallelism under
                // test here — they model MPI processes, not pool workers,
                // and each rank's op counts are its own measurement.
                // ata-lint: allow(no-raw-spawn): simulated MPI ranks are
                // scoped threads by design.
                let handle = scope.spawn(move || {
                    let _guard = AbortOnPanic(abort.clone());
                    let start = Instant::now();
                    let mut comm = Comm::new(
                        rank,
                        size,
                        model,
                        senders,
                        receiver,
                        abort,
                        faults,
                        recv_deadline,
                    );
                    let result = f_ref(&mut comm);
                    let mut metrics = comm.metrics();
                    metrics.wall_time = start.elapsed().as_secs_f64();
                    *slot = Some((result, metrics));
                });
                handles.push((rank, handle));
            }
            // Join everything first, then report the *original* failure:
            // ranks that merely echoed the abort flag would otherwise mask
            // the culprit (joins happen in rank order).
            let mut failures: Vec<(usize, String)> = Vec::new();
            for (rank, handle) in handles {
                if let Err(payload) = handle.join() {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "<non-string panic>".into());
                    failures.push((rank, msg));
                }
            }
            if !failures.is_empty() {
                let (rank, msg) = failures
                    .iter()
                    .find(|(_, m)| !m.contains("another rank panicked"))
                    .unwrap_or(&failures[0]);
                panic!("rank {rank} panicked: {msg}");
            }
        });

        let mut results = Vec::with_capacity(size);
        let mut metrics = Vec::with_capacity(size);
        for slot in outcome {
            let (r, m) = slot.expect("every rank either finished or panicked");
            results.push(r);
            metrics.push(m);
        }
        RunReport { results, metrics }
    }
}

/// Run `size` ranks, each executing `f(&mut comm)`, and collect results
/// and metrics. Blocks until every rank finishes. Shorthand for a
/// faultless [`Universe`].
///
/// The closure runs on `size` OS threads; payload type `T` and result
/// type `R` must be `Send`. If any rank panics, the panic is propagated
/// with the rank id attached (failure injection relies on this).
///
/// # Panics
/// If `size == 0`, or if any rank panics.
pub fn run<T, R, F>(size: usize, model: CostModel, f: F) -> RunReport<R>
where
    T: Send + 'static,
    R: Send,
    F: Fn(&mut Comm<T>) -> R + Sync,
{
    Universe::new(size, model).run(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_indexed_by_rank() {
        let report = run::<f64, _, _>(4, CostModel::zero(), |comm| comm.rank() * 10);
        assert_eq!(report.results, vec![0, 10, 20, 30]);
        assert_eq!(report.metrics.len(), 4);
        for (i, m) in report.metrics.iter().enumerate() {
            assert_eq!(m.rank, i);
        }
    }

    #[test]
    fn critical_path_is_max_clock() {
        let model = CostModel::new(0.0, 0.0, 1.0);
        let report = run::<f64, _, _>(3, model, |comm| {
            comm.add_compute_flops((comm.rank() + 1) as f64);
        });
        assert!((report.critical_path() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn wall_time_is_recorded() {
        let report = run::<f64, _, _>(2, CostModel::zero(), |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        assert!(report.metrics.iter().all(|m| m.wall_time >= 0.004));
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panic_is_propagated_with_id() {
        let _ = run::<f64, _, _>(3, CostModel::zero(), |comm| {
            if comm.rank() == 1 {
                panic!("injected failure");
            }
        });
    }

    #[test]
    fn peer_failure_unblocks_receivers_quickly() {
        // Rank 0 dies; ranks 1..3 are blocked in recv. The abort flag
        // must release them in well under the 120 s deadlock guard, and
        // the reported culprit must be the original panicker.
        let start = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run::<f64, _, _>(4, CostModel::zero(), |comm| {
                if comm.rank() == 0 {
                    panic!("injected root failure");
                }
                let _ = comm.recv(0, 1); // never sent
            })
        }));
        let elapsed = start.elapsed().as_secs_f64();
        let err = result.expect_err("universe must propagate the panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("rank 0 panicked") && msg.contains("injected root failure"),
            "culprit not surfaced: {msg}"
        );
        assert!(elapsed < 10.0, "abort took {elapsed}s — flag not honored");
    }

    #[test]
    fn collective_participants_unblock_on_peer_failure() {
        let start = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run::<f64, _, _>(4, CostModel::zero(), |comm| {
                if comm.rank() == 3 {
                    panic!("leaf rank died before the all-gather");
                }
                let _ = comm.allgather(Vec::new());
            })
        }));
        assert!(result.is_err());
        assert!(start.elapsed().as_secs_f64() < 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_universe_rejected() {
        let _ = run::<f64, _, _>(0, CostModel::zero(), |_| ());
    }
}
