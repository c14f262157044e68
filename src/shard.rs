//! Gram serving: [`ShardedService`].
//!
//! Requests trickle in from many threads. [`ShardedService`] routes
//! them so that small Gram problems run whole — one per rank-shard,
//! coalesced into per-shard [`BatchPlan`] dispatches on the context's
//! pool — while problems too large for a single shard split across all
//! P simulated ranks via AtA-D (Algorithm 4, [`crate::dist::DistPlan`]).
//! Built with [`ShardedServiceBuilder::shards`] set to 1 it has no split
//! lane: one bounded queue feeds one worker's batched dispatches.
//!
//! Four properties make it a serving component rather than a demo:
//!
//! * **Priced routing.** Every split dispatch is quoted *before* it is
//!   accepted, by the bit-exact traffic predictor
//!   (`ata_dist::traffic`): the quoted [`RoutePrice`] words match the
//!   simulator's [`ata_mpisim::RankMetrics`] counters exactly, so
//!   admission control ([`ShardedServiceBuilder::admission_words`])
//!   rejects over-budget problems from *predicted* traffic, not from
//!   observed congestion.
//! * **Backpressure.** Each shard owns a bounded queue; a full preferred
//!   queue spills to the next live shard, and when every live queue is
//!   full [`ShardedService::try_submit`] reports
//!   [`ShardSubmitError::Full`], handing the operand back.
//! * **Failure containment.** A shard worker that panics stops
//!   computing: its accepted-but-unanswered jobs are requeued to
//!   surviving shards under a quarantine policy (requeued jobs run
//!   *solo*, so a job whose solo dispatch panics again is the proven
//!   culprit and is failed with [`JobError::Requeued`] instead of
//!   hunting more shards), capped by a retry budget. The dead shard's
//!   mailbox keeps being drained — a job routed to a dying shard is
//!   forwarded, never stranded. With
//!   [`ShardedServiceBuilder::revive_after`], dead shards return to
//!   duty on probation after the survivors prove the fleet healthy.
//! * **Graceful degradation.** The split lane survives communication
//!   faults on the simulated cluster: a dispatch that fails with a
//!   typed [`ata_dist::DistError`] is retried under a deterministic
//!   exponential backoff ([`RetryPolicy`], slept on the injected
//!   [`Clock`] — never the wall in tests), and when the budget runs out
//!   the job is re-executed *bit-correct* on the shared-memory backend
//!   instead of being failed ([`ShardedStats::degraded_jobs`]). Fault
//!   schedules are injected deterministically with
//!   [`ShardedServiceBuilder::split_chaos`] for drills and chaos tests.
//!
//! **Steady-state allocation.** Once warm, the whole lane builds each
//! `n x n` result in storage it already holds. Each shard keeps the
//! storage of the inputs it has answered, and the dense scratch of
//! packed results, as spares: at most `2 * max_batch` of them, each new
//! one evicting the oldest. It builds each later dense result in the
//! smallest spare that holds at least its `n²` elements and whose
//! capacity is at most `8 n²`, and allocates afresh only when none fits.
//! So a served dense output's [`Matrix::into_vec`] capacity is never
//! more than `8 n²`. A packed output is compacted from such a dense
//! scratch into a buffer of exactly `n(n+1)/2`, and the scratch returns
//! to the spares. With the allocator no longer handing pages back
//! between jobs, `serve_flood` (perfbench, 30 s on 2 vCPUs) went from 39
//! minor page faults per job to 6.3 (medians of ten runs each).

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ata_dist::{plan_traffic, DistPlan, RoutePrice};
use ata_mat::{Matrix, Scalar};
use ata_mpisim::{CostModel, FaultPlan, FaultSpec, Universe};
use crossbeam::channel::{self, TrySendError};

use crate::batch::BatchPlan;
use crate::clock::{Clock, WallClock};
use crate::context::{lock_recover, AtaContext, AtaOutput, Output};

/// Why a job handle carries no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The job was caught on panicking shards until the requeue path
    /// gave up: either its own solo dispatch panicked (proven culprit),
    /// the retry budget ran out, or no live shard was left to take it.
    /// `attempts` counts the dispatch attempts that ended in a panic.
    Requeued {
        /// Dispatch attempts that ended in a shard panic.
        attempts: usize,
    },
    /// The job's submission deadline passed before a worker could
    /// execute it (see [`ShardedService::submit_with_deadline`]).
    DeadlineExceeded,
    /// The service shut down before the job ran.
    Closed,
    /// An internal invariant failed while executing the job (e.g. the
    /// simulated cluster produced no rank-0 result); the job is failed
    /// instead of panicking the serving lane.
    Internal,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Requeued { attempts } => {
                write!(f, "job failed after {attempts} panicked dispatch attempts")
            }
            JobError::DeadlineExceeded => write!(f, "job deadline passed before execution"),
            JobError::Closed => write!(f, "service shut down before the job ran"),
            JobError::Internal => write!(f, "internal invariant failed while executing the job"),
        }
    }
}

impl std::error::Error for JobError {}

/// Deterministic exponential backoff for the split lane's fault
/// retries: attempt `k` (0-based) failing sleeps
/// `min(base * 2^k, cap)` on the service's injected [`Clock`] before
/// the next attempt, and `budget` retries follow the first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `budget + 1` attempts run
    /// before the job degrades to the shared-memory backend).
    pub budget: usize,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    /// Two retries, 10 ms doubling to a 1 s cap.
    fn default() -> Self {
        RetryPolicy {
            budget: 2,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// No retries: the first faulted attempt degrades immediately.
    pub fn none() -> Self {
        RetryPolicy {
            budget: 0,
            ..RetryPolicy::default()
        }
    }

    /// The backoff slept after failed attempt `attempt` (0-based):
    /// `min(base * 2^attempt, cap)`.
    pub fn backoff(&self, attempt: usize) -> Duration {
        let factor = 1u32 << attempt.min(20);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// Deterministic fault injection for the split lane: each AtA-D
/// dispatch attempt runs on a [`Universe`] with a fresh seeded
/// [`FaultPlan`] (derived from `seed`, the dispatch number and the
/// attempt number) and the given receive deadline, so dropped messages
/// surface as typed timeouts instead of hangs. The same `SplitChaos`
/// always produces the same fault schedule — chaos runs replay.
#[derive(Debug, Clone)]
pub struct SplitChaos {
    /// Base seed every per-attempt fault plan derives from.
    pub seed: u64,
    /// Shape of the fault schedules to draw.
    pub spec: FaultSpec,
    /// Simulated-clock receive deadline (seconds) installed on every
    /// rank; bounds how long a rank waits on a lost message.
    pub recv_deadline: f64,
}

impl SplitChaos {
    /// Chaos with the default [`FaultSpec`] and a 1-second simulated
    /// receive deadline.
    ///
    /// # Panics
    /// Never; see [`SplitChaos::recv_deadline`] for the deadline knob.
    pub fn new(seed: u64) -> Self {
        SplitChaos {
            seed,
            spec: FaultSpec::default(),
            recv_deadline: 1.0,
        }
    }

    /// Replace the fault-schedule shape.
    pub fn spec(mut self, spec: FaultSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Replace the simulated receive deadline.
    ///
    /// # Panics
    /// If `secs` is not strictly positive.
    pub fn recv_deadline(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "recv_deadline must be positive");
        self.recv_deadline = secs;
        self
    }
}

/// The result side of a submitted job; [`JobHandle::wait`] blocks
/// until a shard has executed (or given up on) the job.
#[derive(Debug)]
pub struct JobHandle<T: Scalar> {
    recv: channel::Receiver<Result<AtaOutput<T>, JobError>>,
}

impl<T: Scalar> JobHandle<T> {
    /// Block until the job's outcome is known: the result, or the
    /// [`JobError`] explaining why there is none.
    pub fn wait(self) -> Result<AtaOutput<T>, JobError> {
        match self.recv.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(JobError::Closed),
        }
    }

    /// Wait at most `timeout` (wall time) for the outcome. `None` means
    /// the job is still pending — the handle stays valid, so callers
    /// can poll or fall back to a blocking [`JobHandle::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<AtaOutput<T>, JobError>> {
        match self.recv.recv_timeout(timeout) {
            Ok(outcome) => Some(outcome),
            Err(channel::RecvTimeoutError::Timeout) => None,
            Err(channel::RecvTimeoutError::Disconnected) => Some(Err(JobError::Closed)),
        }
    }
}

/// Error returned by [`ShardedService::submit`] and
/// [`ShardedService::try_submit`]; variants carrying the operand hand it
/// back so the caller can retry, shed or reroute.
#[derive(Debug)]
pub enum ShardSubmitError<T: Scalar> {
    /// Every live shard's bounded queue is at capacity (`try_submit`
    /// only) — the backpressure signal.
    Full(Matrix<T>),
    /// Admission control: the traffic predictor priced this problem's
    /// AtA-D split above the configured word budget.
    Rejected {
        /// The operand, handed back.
        a: Matrix<T>,
        /// The quoted per-rank word bill ([`RoutePrice::max_rank_words`]).
        predicted_words: u64,
        /// The configured [`ShardedServiceBuilder::admission_words`] cap.
        budget: u64,
    },
    /// The service has shut down, or every shard has failed.
    Closed(Matrix<T>),
}

/// What a queued job carries: an operand, or an injected failure.
#[derive(Debug)]
enum Payload<T: Scalar> {
    Compute(Matrix<T>),
    /// Failure injection: panics the shard worker that dequeues it.
    Poison,
}

/// One queued job, re-submittable across shards: the payload stays
/// owned until the job is answered, so a panicked shard's jobs can move.
#[derive(Debug)]
struct ShardJob<T: Scalar> {
    payload: Payload<T>,
    resp: channel::Sender<Result<AtaOutput<T>, JobError>>,
    /// Dispatch attempts that ended in a shard panic.
    attempts: usize,
    /// Quarantined after a requeue: runs alone, never coalesced, so a
    /// second panic identifies it as the culprit.
    solo: bool,
    /// Absolute expiry on the service clock; `None` = no deadline.
    deadline: Option<Duration>,
}

impl<T: Scalar> ShardJob<T> {
    fn shape(&self) -> (usize, usize) {
        match &self.payload {
            Payload::Compute(a) => a.shape(),
            Payload::Poison => (0, 0),
        }
    }

    /// Descending-dispatch key: the `m n^2` multiply volume of the
    /// classical product. Under a pool the batch's critical path is its
    /// biggest job, so starting it first keeps the tail of the batch
    /// from serializing behind it.
    fn flop_estimate(&self) -> u128 {
        let (m, n) = self.shape();
        m as u128 * n as u128 * n as u128
    }

    fn into_matrix(self) -> Matrix<T> {
        match self.payload {
            Payload::Compute(a) => a,
            Payload::Poison => unreachable!("poison jobs never hand an operand back"),
        }
    }
}

/// Per-shard slot: the queue's sending half plus this shard's counters.
#[derive(Debug)]
struct ShardSlot<T: Scalar> {
    /// `Some` until shutdown; the router and requeuing workers clone it
    /// briefly, so dropping the slot's copy disconnects the queue once
    /// in-flight sends finish.
    sender: Mutex<Option<channel::Sender<ShardJob<T>>>>,
    /// Set when this shard's worker panics; cleared only by probation
    /// revival ([`ShardedServiceBuilder::revive_after`]).
    dead: AtomicBool,
    jobs: AtomicUsize,
    batches: AtomicUsize,
    /// Jobs this shard handed away: panic requeues plus dead-mailbox
    /// forwards.
    requeues: AtomicUsize,
}

/// A shared AtA-D plan with the price quote derived from it, cached per
/// distinct split shape.
type PricedPlan = Arc<(DistPlan, RoutePrice)>;

/// State shared by the router, the shard workers and the split worker.
#[derive(Debug)]
struct Shared<T: Scalar> {
    ctx: AtaContext,
    slots: Vec<ShardSlot<T>>,
    max_batch: usize,
    output: Output,
    retry_budget: usize,
    clock: Arc<dyn Clock>,
    retry: RetryPolicy,
    chaos: Option<SplitChaos>,
    /// Clean survivor batches required before one dead shard is revived
    /// on probation; `None` = dead shards stay dead.
    revive_after: Option<usize>,
    /// Shape-keyed cache of the shared AtA-D plan (and its price quote)
    /// the split lane executes — built once per distinct large shape.
    dist_plans: Mutex<HashMap<(usize, usize), PricedPlan>>,
    split_jobs: AtomicUsize,
    failed_jobs: AtomicUsize,
    rejected_jobs: AtomicUsize,
    dead_shards: AtomicUsize,
    degraded_jobs: AtomicUsize,
    expired_jobs: AtomicUsize,
    revived_shards: AtomicUsize,
    split_retries: AtomicUsize,
    /// Successful whole-lane batches since the last death or revival —
    /// the probation meter [`ShardedServiceBuilder::revive_after`] reads.
    clean_batches: AtomicUsize,
    predicted_split_words: AtomicU64,
    simulated_split_words: AtomicU64,
    predicted_root_recv_words: AtomicU64,
    simulated_root_recv_words: AtomicU64,
}

impl<T: Scalar + 'static> Shared<T> {
    /// Fetch or build the shared `(DistPlan, RoutePrice)` for an
    /// `(m, n)` split — the price is derived from the *same* plan the
    /// split lane executes, which is what makes predicted and simulated
    /// words bit-identical.
    fn dist_plan_for(&self, m: usize, n: usize) -> PricedPlan {
        let mut map = lock_recover(&self.dist_plans);
        map.entry((m, n))
            .or_insert_with(|| {
                let cfg = self.ctx.dist_config::<T>();
                let plan = DistPlan::build(m, n, self.slots.len(), &cfg);
                let price = plan_traffic(&plan).price();
                Arc::new((plan, price))
            })
            .clone()
    }

    /// Hand a job to a live shard, round-robin from `from + 1`. With
    /// `panicked` the job came out of a panicked batch: its attempt
    /// count grows and the quarantine policy applies; otherwise this is
    /// a dead shard's mailbox forwarding a routing race, context intact.
    fn reroute(&self, from: usize, job: ShardJob<T>, panicked: bool) {
        let mut job = job;
        if panicked {
            job.attempts += 1;
            if job.solo || job.attempts > self.retry_budget {
                // A solo dispatch that panicked proves the job itself is
                // the trigger — fail it instead of hunting more shards.
                self.failed_jobs.fetch_add(1, Ordering::SeqCst);
                let attempts = job.attempts;
                let _ = job.resp.send(Err(JobError::Requeued { attempts }));
                return;
            }
            job.solo = true;
        }
        self.slots[from].requeues.fetch_add(1, Ordering::SeqCst);
        let p = self.slots.len();
        for k in 1..p {
            let i = (from + k) % p;
            if self.slots[i].dead.load(Ordering::SeqCst) {
                continue;
            }
            let Some(sender) = lock_recover(&self.slots[i].sender).clone() else {
                continue;
            };
            // Blocking send is safe: every shard queue is drained by its
            // worker or, after a panic, by the worker's ghost loop.
            match sender.send(job) {
                Ok(()) => return,
                Err(channel::SendError(back)) => job = back,
            }
        }
        // No surviving shard can take it.
        self.failed_jobs.fetch_add(1, Ordering::SeqCst);
        let attempts = job.attempts;
        let _ = job.resp.send(Err(JobError::Requeued { attempts }));
    }

    /// Probation bookkeeping after a successful whole-lane batch: once
    /// `revive_after` clean batches accumulate while a shard is dead,
    /// one dead shard is returned to duty (its ghost worker resumes
    /// computing on the next dequeue) and the meter resets. A revived
    /// shard that panics again is simply marked dead again — probation
    /// is the ordinary containment machinery, re-armed.
    fn note_clean_batch(&self) {
        let Some(threshold) = self.revive_after else {
            return;
        };
        if self.dead_shards.load(Ordering::SeqCst) == 0 {
            return;
        }
        let clean = self.clean_batches.fetch_add(1, Ordering::SeqCst) + 1;
        if clean < threshold {
            return;
        }
        for slot in &self.slots {
            if slot
                .dead
                .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.clean_batches.store(0, Ordering::SeqCst);
                self.dead_shards.fetch_sub(1, Ordering::SeqCst);
                self.revived_shards.fetch_add(1, Ordering::SeqCst);
                return;
            }
        }
    }

    /// Answer every job in `batch` whose deadline has passed with the
    /// typed expiry; return the still-live remainder.
    fn expire_batch(&self, batch: Vec<ShardJob<T>>) -> Vec<ShardJob<T>> {
        let now = self.clock.now();
        let mut live = Vec::with_capacity(batch.len());
        for job in batch {
            if job.deadline.is_some_and(|d| now >= d) {
                self.expired_jobs.fetch_add(1, Ordering::SeqCst);
                let _ = job.resp.send(Err(JobError::DeadlineExceeded));
            } else {
                live.push(job);
            }
        }
        live
    }
}

/// Most elements a spare may hold per element of the output built in
/// it: a served output's capacity stays within this factor of its `n²`.
const SPARE_SLACK: usize = 8;

/// One shard's spare buffers: the storage of inputs (and packed
/// results' dense scratch) from batches it has answered, in which later
/// whole-lane outputs are built. It keeps at most `2 * max_batch`, and
/// each new spare evicts the oldest, so no buffer outlives its job by
/// more than that many jobs.
struct Spares<T> {
    bufs: VecDeque<Vec<T>>,
    cap: usize,
}

impl<T> Spares<T> {
    fn new(max_batch: usize) -> Self {
        let cap = 2 * max_batch;
        Spares {
            bufs: VecDeque::with_capacity(cap),
            cap,
        }
    }

    fn give(&mut self, buf: Vec<T>) {
        if self.bufs.len() == self.cap {
            self.bufs.pop_front();
        }
        self.bufs.push_back(buf);
    }

    /// The smallest spare holding at least `len` elements within
    /// [`SPARE_SLACK`] times `len`, or an empty vector when none fits.
    fn take(&mut self, len: usize) -> Vec<T> {
        let fits = |b: &Vec<T>| b.len() >= len && b.capacity() <= len.saturating_mul(SPARE_SLACK);
        let best = (0..self.bufs.len())
            .filter(|&i| fits(&self.bufs[i]))
            .min_by_key(|&i| self.bufs[i].capacity());
        best.and_then(|i| self.bufs.remove(i)).unwrap_or_default()
    }
}

/// One shard's worker loop: drain the queue into largest-first batches,
/// execute through a per-shard [`BatchPlan`], answer the submitters.
/// After a panic the loop degrades to a ghost that only forwards — the
/// shard is dead for compute, but its mailbox never strands a job —
/// until probation revival (if enabled) puts it back on duty.
fn shard_worker<T: Scalar + 'static>(
    shared: Arc<Shared<T>>,
    index: usize,
    receiver: channel::Receiver<ShardJob<T>>,
) {
    let slot = &shared.slots[index];
    let mut pending: Option<ShardJob<T>> = None;
    let mut spares = Spares::new(shared.max_batch);
    loop {
        let first = match pending.take() {
            Some(job) => job,
            None => match receiver.recv() {
                Ok(job) => job,
                Err(_) => break,
            },
        };
        if slot.dead.load(Ordering::SeqCst) {
            shared.reroute(index, first, false);
            continue;
        }
        let mut batch = vec![first];
        if !batch[0].solo {
            while batch.len() < shared.max_batch {
                match receiver.try_recv() {
                    // Quarantined jobs must run alone: stop coalescing
                    // and keep the solo job as the next dispatch.
                    Ok(job) if job.solo => {
                        pending = Some(job);
                        break;
                    }
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
        }
        let batch = shared.expire_batch(batch);
        if batch.is_empty() {
            continue;
        }
        let mut batch = batch;
        batch.sort_by_key(|job| std::cmp::Reverse(job.flop_estimate()));
        let poisoned = batch
            .iter()
            .any(|job| matches!(job.payload, Payload::Poison));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if poisoned {
                panic!("injected shard failure (poison job)");
            }
            let shapes: Vec<(usize, usize)> = batch.iter().map(|job| job.shape()).collect();
            let plan: BatchPlan<T> = shared.ctx.batch_plan(&shapes, shared.output);
            let refs: Vec<_> = batch
                .iter()
                .map(|job| match &job.payload {
                    Payload::Compute(a) => a.as_ref(),
                    Payload::Poison => unreachable!("poisoned batches panic before planning"),
                })
                .collect();
            let storage = shapes.iter().map(|&(_, n)| spares.take(n * n)).collect();
            plan.execute_batch_in(&refs, storage)
        }));
        match outcome {
            Ok(results) => {
                slot.jobs.fetch_add(batch.len(), Ordering::SeqCst);
                slot.batches.fetch_add(1, Ordering::SeqCst);
                for (job, (result, scratch)) in batch.into_iter().zip(results) {
                    let _ = job.resp.send(Ok(result));
                    spares.give(job.into_matrix().into_vec());
                    if let Some(scratch) = scratch {
                        spares.give(scratch);
                    }
                }
                shared.note_clean_batch();
            }
            Err(_) => {
                // A dead shard computes nothing until revived: free its
                // spares rather than hold them.
                spares.bufs.clear();
                slot.dead.store(true, Ordering::SeqCst);
                shared.dead_shards.fetch_add(1, Ordering::SeqCst);
                // A fresh death invalidates progress toward revival.
                shared.clean_batches.store(0, Ordering::SeqCst);
                for job in batch {
                    shared.reroute(index, job, true);
                }
            }
        }
    }
}

/// The per-attempt simulated cluster, under [`CostModel::zero`] (pure
/// counting). Its fault schedule is deterministic in the chaos seed, the
/// dispatch number and the attempt number, so retries see *different*
/// faults (a transient drop clears on retry) while replays of the same
/// service run see identical ones.
fn attempt_universe<T: Scalar>(
    shared: &Shared<T>,
    procs: usize,
    dispatch: u64,
    attempt: u64,
) -> Universe {
    let mut universe = Universe::new(procs, CostModel::zero());
    if let Some(chaos) = &shared.chaos {
        let seed = chaos.seed
            ^ dispatch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03);
        universe = universe
            .faults(FaultPlan::seeded(seed, procs, &chaos.spec))
            .recv_deadline(chaos.recv_deadline);
    }
    universe
}

/// Execute `a` bit-correct on the shared-memory backend — the split
/// lane's graceful-degradation path once the retry budget is spent.
fn degrade<T: Scalar + 'static>(
    shared: &Shared<T>,
    a: &Matrix<T>,
    resp: &channel::Sender<Result<AtaOutput<T>, JobError>>,
) {
    let plan: BatchPlan<T> = shared.ctx.batch_plan(&[a.shape()], shared.output);
    let mut results = plan.execute_batch(&[a.as_ref()]);
    match results.pop() {
        Some(out) => {
            shared.degraded_jobs.fetch_add(1, Ordering::SeqCst);
            let _ = resp.send(Ok(out));
        }
        None => {
            let _ = resp.send(Err(JobError::Internal));
        }
    }
}

/// The split lane's worker: executes each large job through the shared
/// AtA-D plan on the simulated P-rank cluster, retrying faulted
/// dispatches under the [`RetryPolicy`] backoff and degrading to the
/// shared-memory backend when the budget runs out. Price counters are
/// reconciled only on clean dispatches, where the simulator's words are
/// bit-identical to the predictor's quote.
fn split_worker<T: Scalar + 'static>(
    shared: Arc<Shared<T>>,
    receiver: channel::Receiver<ShardJob<T>>,
) {
    let mut dispatch: u64 = 0;
    while let Ok(job) = receiver.recv() {
        let ShardJob {
            payload,
            resp,
            deadline,
            ..
        } = job;
        let Payload::Compute(a) = payload else {
            // Poison targets shard workers; the split lane ignores it.
            continue;
        };
        if deadline.is_some_and(|d| shared.clock.now() >= d) {
            shared.expired_jobs.fetch_add(1, Ordering::SeqCst);
            let _ = resp.send(Err(JobError::DeadlineExceeded));
            continue;
        }
        let (m, n) = a.shape();
        let entry = shared.dist_plan_for(m, n);
        let (plan, price) = (&entry.0, entry.1);
        dispatch += 1;
        let mut answered = false;
        for attempt in 0..=shared.retry.budget {
            let universe = attempt_universe(&shared, plan.procs(), dispatch, attempt as u64);
            let a_ref = &a;
            let report = universe.run(move |comm| {
                let input = (comm.rank() == 0).then_some(a_ref);
                plan.execute(input, comm)
            });
            let total_words = report.total_words();
            let root_recv_words = report.metrics[0].words_recv;
            let mut lower = None;
            let mut faulted = false;
            for rank_result in report.results {
                match rank_result {
                    Ok(Some(c)) => lower = Some(c),
                    Ok(None) => {}
                    Err(_) => faulted = true,
                }
            }
            if faulted {
                shared.split_retries.fetch_add(1, Ordering::SeqCst);
                if attempt < shared.retry.budget {
                    shared.clock.sleep(shared.retry.backoff(attempt));
                    if deadline.is_some_and(|d| shared.clock.now() >= d) {
                        shared.expired_jobs.fetch_add(1, Ordering::SeqCst);
                        let _ = resp.send(Err(JobError::DeadlineExceeded));
                        answered = true;
                        break;
                    }
                }
                continue;
            }
            // The closure passed to `run` returns Some exactly on rank
            // 0; if the contract is ever broken, fail the job, not the
            // lane — a broken contract will not heal on retry.
            let Some(lower) = lower else {
                let _ = resp.send(Err(JobError::Internal));
                answered = true;
                break;
            };
            shared.split_jobs.fetch_add(1, Ordering::SeqCst);
            shared
                .predicted_split_words
                .fetch_add(price.total_words, Ordering::SeqCst);
            shared
                .simulated_split_words
                .fetch_add(total_words, Ordering::SeqCst);
            shared
                .predicted_root_recv_words
                .fetch_add(price.root_recv_words, Ordering::SeqCst);
            shared
                .simulated_root_recv_words
                .fetch_add(root_recv_words, Ordering::SeqCst);
            let _ = resp.send(Ok(AtaOutput::from_lower(lower, shared.output)));
            answered = true;
            break;
        }
        if !answered {
            degrade(&shared, &a, &resp);
        }
    }
}

/// One shard's statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Jobs this shard executed to completion.
    pub jobs: usize,
    /// Batched dispatches this shard ran.
    pub batches: usize,
    /// Jobs this shard handed away (panic requeues plus dead-mailbox
    /// forwards).
    pub requeues: usize,
    /// Whether this shard's worker is currently dead (panicked and not
    /// revived).
    pub dead: bool,
}

/// Snapshot of a sharded service's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardedStats {
    /// Per-shard counters, indexed by shard.
    pub per_shard: Vec<ShardStats>,
    /// Jobs routed whole-per-shard and completed.
    pub whole_jobs: usize,
    /// Jobs split across the ranks via AtA-D and completed.
    pub split_jobs: usize,
    /// Requeue events across all shards.
    pub requeued_jobs: usize,
    /// Jobs answered with [`JobError::Requeued`].
    pub failed_jobs: usize,
    /// Jobs refused by admission control.
    pub rejected_jobs: usize,
    /// Shards currently dead (panicked and not revived).
    pub dead_shards: usize,
    /// Split jobs that exhausted the fault-retry budget and completed
    /// on the shared-memory backend instead.
    pub degraded_jobs: usize,
    /// Jobs answered [`JobError::DeadlineExceeded`].
    pub expired_jobs: usize,
    /// Dead shards returned to duty on probation
    /// ([`ShardedServiceBuilder::revive_after`]).
    pub revived_shards: usize,
    /// Split-lane dispatch attempts that failed with a communication
    /// fault (each is retried or, past the budget, degraded).
    pub split_retries: usize,
    /// Predictor-quoted total words across all split dispatches.
    pub predicted_split_words: u64,
    /// Simulator-counted total words across all split dispatches
    /// (bit-identical to the prediction — asserted in the bench record).
    pub simulated_split_words: u64,
    /// Predictor-quoted words converging on rank 0 during retrieval.
    pub predicted_root_recv_words: u64,
    /// Simulator-counted words received by rank 0.
    pub simulated_root_recv_words: u64,
}

impl ShardedStats {
    /// Total jobs that completed with a result: whole-lane, split-lane
    /// and degraded split jobs.
    pub fn completed_jobs(&self) -> usize {
        self.whole_jobs + self.split_jobs + self.degraded_jobs
    }
}

/// Builder for [`ShardedService`] — see [`ShardedService::builder`].
#[derive(Debug)]
pub struct ShardedServiceBuilder {
    ctx: AtaContext,
    shards: usize,
    queue_capacity: usize,
    max_batch: usize,
    output: Output,
    split_words: usize,
    retry_budget: usize,
    admission_words: Option<u64>,
    clock: Arc<dyn Clock>,
    retry: RetryPolicy,
    chaos: Option<SplitChaos>,
    revive_after: Option<usize>,
}

impl ShardedServiceBuilder {
    /// Start building a sharded service over `ctx` (shared, not
    /// consumed: plan cores, arenas and the worker pool stay common
    /// property of every front-end on the context).
    pub fn new(ctx: &AtaContext) -> Self {
        ShardedServiceBuilder {
            ctx: ctx.clone(),
            shards: 4,
            queue_capacity: 16,
            max_batch: 8,
            output: Output::Gram,
            split_words: 32 * 1024,
            retry_budget: 2,
            admission_words: None,
            clock: Arc::new(WallClock::new()),
            retry: RetryPolicy::default(),
            chaos: None,
            revive_after: None,
        }
    }

    /// Number of rank-shards `P`. Small problems run whole on one of
    /// them; large problems split across all of them via AtA-D.
    /// Default 4.
    ///
    /// # Panics
    /// If zero.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "a sharded service needs at least one shard");
        self.shards = shards;
        self
    }

    /// Bound on each shard's queued (not yet dispatched) jobs; the split
    /// lane uses the same bound. Default 16.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Most jobs one shard coalesces into one batched dispatch.
    /// Default 8.
    ///
    /// # Panics
    /// If zero.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        self.max_batch = max_batch;
        self
    }

    /// Output representation of every result. Default [`Output::Gram`].
    pub fn output(mut self, output: Output) -> Self {
        self.output = output;
        self
    }

    /// The routing threshold, in operand words `m * n`: problems at or
    /// above it split across the ranks via AtA-D, smaller ones run whole
    /// on one shard. Default 32768: a fixed routing threshold, which the
    /// cache model does not set (its recursion cutoffs are separate and
    /// far larger). `usize::MAX` disables splitting.
    pub fn split_words(mut self, words: usize) -> Self {
        self.split_words = words;
        self
    }

    /// How many times a job caught in a panicked batch may be requeued
    /// before it is failed with [`JobError::Requeued`]. Requeued jobs
    /// run solo (quarantine), so one poisonous job stops hunting shards
    /// after its first solo panic regardless of this budget. Default 2.
    pub fn retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Admission budget in predicted per-rank words
    /// ([`RoutePrice::max_rank_words`]): a split dispatch quoted above
    /// this is refused at submission with [`ShardSubmitError::Rejected`].
    /// Default: no cap.
    pub fn admission_words(mut self, words: u64) -> Self {
        self.admission_words = Some(words);
        self
    }

    /// The time source deadlines and retry backoff are measured on.
    /// Default [`WallClock`]; tests and chaos drills inject
    /// [`crate::clock::ManualClock`] so modeled backoff costs no wall
    /// time.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Retry policy for split dispatches that fail with a communication
    /// fault. Default [`RetryPolicy::default`] (2 retries, 10 ms
    /// doubling backoff capped at 1 s).
    pub fn split_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Deterministic fault injection on the split lane's simulated
    /// cluster — every dispatch attempt draws a seeded [`FaultPlan`].
    /// Default: no injected faults.
    pub fn split_chaos(mut self, chaos: SplitChaos) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Enable probation revival: after `batches` consecutive clean
    /// whole-lane batches while at least one shard is dead, one dead
    /// shard returns to duty (elastic shard counts). A revived shard
    /// that panics again is contained exactly like the first time.
    /// Default: off — dead shards stay dead.
    ///
    /// # Panics
    /// If `batches` is zero.
    pub fn revive_after(mut self, batches: usize) -> Self {
        assert!(batches > 0, "revive_after needs at least one clean batch");
        self.revive_after = Some(batches);
        self
    }

    /// Spawn the shard workers and the split lane; returns the running
    /// service.
    pub fn build<T: Scalar + 'static>(self) -> ShardedService<T> {
        let mut slots = Vec::with_capacity(self.shards);
        let mut receivers = Vec::with_capacity(self.shards);
        for _ in 0..self.shards {
            let (sender, receiver) = channel::bounded::<ShardJob<T>>(self.queue_capacity);
            slots.push(ShardSlot {
                sender: Mutex::new(Some(sender)),
                dead: AtomicBool::new(false),
                jobs: AtomicUsize::new(0),
                batches: AtomicUsize::new(0),
                requeues: AtomicUsize::new(0),
            });
            receivers.push(receiver);
        }
        let shared = Arc::new(Shared {
            ctx: self.ctx,
            slots,
            max_batch: self.max_batch,
            output: self.output,
            retry_budget: self.retry_budget,
            clock: self.clock,
            retry: self.retry,
            chaos: self.chaos,
            revive_after: self.revive_after,
            dist_plans: Mutex::new(HashMap::new()),
            split_jobs: AtomicUsize::new(0),
            failed_jobs: AtomicUsize::new(0),
            rejected_jobs: AtomicUsize::new(0),
            dead_shards: AtomicUsize::new(0),
            degraded_jobs: AtomicUsize::new(0),
            expired_jobs: AtomicUsize::new(0),
            revived_shards: AtomicUsize::new(0),
            split_retries: AtomicUsize::new(0),
            clean_batches: AtomicUsize::new(0),
            predicted_split_words: AtomicU64::new(0),
            simulated_split_words: AtomicU64::new(0),
            predicted_root_recv_words: AtomicU64::new(0),
            simulated_root_recv_words: AtomicU64::new(0),
        });
        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(index, receiver)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ata-shard-{index}"))
                    .spawn(move || shard_worker(shared, index, receiver)) // ata-lint: allow(no-raw-spawn): shard serving thread, compute stays in the pool
                    .expect("failed to spawn shard worker") // ata-lint: allow(no-unwrap-in-lib): OS spawn failure at build time is unrecoverable
            })
            .collect();
        let (split_sender, split_receiver) = channel::bounded::<ShardJob<T>>(self.queue_capacity);
        let split_shared = shared.clone();
        let split_worker = std::thread::Builder::new()
            .name("ata-shard-split".into())
            .spawn(move || split_worker(split_shared, split_receiver)) // ata-lint: allow(no-raw-spawn): split-lane serving thread, compute stays in the simulator
            .expect("failed to spawn split worker"); // ata-lint: allow(no-unwrap-in-lib): OS spawn failure at build time is unrecoverable
        ShardedService {
            shared,
            split_sender: Some(split_sender),
            workers,
            split_worker: Some(split_worker),
            cursor: AtomicUsize::new(0),
            split_words: self.split_words,
            admission_words: self.admission_words,
        }
    }
}

/// The sharded serving front door: P rank-shards with bounded queues
/// for whole small problems, one AtA-D split lane for large ones,
/// traffic-priced routing, requeue-on-shard-failure, and
/// retry-then-degrade on injected communication faults. [`Send`] and
/// [`Sync`] — share it behind an `Arc` and submit from any number of
/// threads.
///
/// Dropping the service closes every queue and joins the workers after
/// they drain the jobs already accepted.
///
/// # Example
///
/// ```
/// use ata::shard::ShardedServiceBuilder;
/// use ata::AtaContext;
/// use ata::mat::gen;
///
/// let ctx = AtaContext::serial();
/// let svc = ShardedServiceBuilder::new(&ctx)
///     .shards(4)
///     .split_words(16 * 1024)
///     .build::<f64>();
/// // 96 x 40 = 3840 words: routed whole to one shard.
/// let small = svc.submit(gen::standard::<f64>(1, 96, 40)).unwrap();
/// // 512 x 64 = 32768 words: split across the 4 ranks via AtA-D.
/// let large = svc.submit(gen::standard::<f64>(2, 512, 64)).unwrap();
/// assert_eq!(small.wait().unwrap().order(), 40);
/// assert_eq!(large.wait().unwrap().order(), 64);
/// let stats = svc.shutdown();
/// assert_eq!(stats.whole_jobs, 1);
/// assert_eq!(stats.split_jobs, 1);
/// assert_eq!(stats.predicted_split_words, stats.simulated_split_words);
/// ```
#[derive(Debug)]
pub struct ShardedService<T: Scalar> {
    shared: Arc<Shared<T>>,
    /// `Some` until shutdown; dropped before joining the split worker.
    split_sender: Option<channel::Sender<ShardJob<T>>>,
    workers: Vec<JoinHandle<()>>,
    split_worker: Option<JoinHandle<()>>,
    /// Round-robin routing cursor over the shards.
    cursor: AtomicUsize,
    split_words: usize,
    admission_words: Option<u64>,
}

impl<T: Scalar + 'static> ShardedService<T> {
    /// Start building a sharded service over `ctx` — see
    /// [`ShardedServiceBuilder::new`].
    pub fn builder(ctx: &AtaContext) -> ShardedServiceBuilder {
        ShardedServiceBuilder::new(ctx)
    }

    /// Number of rank-shards.
    pub fn shards(&self) -> usize {
        self.shared.slots.len()
    }

    /// The routing threshold in operand words.
    pub fn split_words(&self) -> usize {
        self.split_words
    }

    /// Whether an `(m, n)` problem would split across the ranks.
    fn is_split(&self, m: usize, n: usize) -> bool {
        self.shards() > 1 && m > 0 && n > 0 && m.saturating_mul(n) >= self.split_words
    }

    /// The routing decision and its price for an `(m, n)` problem:
    /// `None` when it would run whole on one shard, the predictor's
    /// quote when it would split via AtA-D — the same quote admission
    /// control uses, exposed so callers can pre-flight a workload.
    pub fn quote(&self, m: usize, n: usize) -> Option<RoutePrice> {
        self.is_split(m, n)
            .then(|| self.shared.dist_plan_for(m, n).1)
    }

    /// Submit a job, blocking while the routed queue is full. Admission
    /// control still applies ([`ShardSubmitError::Rejected`]), and a
    /// fully failed or shut-down service reports
    /// [`ShardSubmitError::Closed`]; `Full` never occurs here.
    pub fn submit(&self, a: Matrix<T>) -> Result<JobHandle<T>, ShardSubmitError<T>> {
        self.submit_inner(a, true, None)
    }

    /// Submit without blocking: [`ShardSubmitError::Full`] when every
    /// live shard's queue (or, for a large problem, the split lane) is
    /// at capacity — the backpressure signal, handing the operand back.
    pub fn try_submit(&self, a: Matrix<T>) -> Result<JobHandle<T>, ShardSubmitError<T>> {
        self.submit_inner(a, false, None)
    }

    /// Submit with an expiry: if the job is still queued `deadline`
    /// from now (on the service's injected clock) when a worker reaches
    /// it — including after split-lane retry backoff — it is answered
    /// [`JobError::DeadlineExceeded`] instead of executed.
    pub fn submit_with_deadline(
        &self,
        a: Matrix<T>,
        deadline: Duration,
    ) -> Result<JobHandle<T>, ShardSubmitError<T>> {
        let expiry = self.shared.clock.now().saturating_add(deadline);
        self.submit_inner(a, true, Some(expiry))
    }

    fn submit_inner(
        &self,
        a: Matrix<T>,
        blocking: bool,
        deadline: Option<Duration>,
    ) -> Result<JobHandle<T>, ShardSubmitError<T>> {
        let (m, n) = a.shape();
        if self.is_split(m, n) {
            // Price the split before dispatch; the same cached plan the
            // split lane will execute backs the quote.
            let price = self.shared.dist_plan_for(m, n).1;
            if let Some(budget) = self.admission_words {
                if price.max_rank_words > budget {
                    self.shared.rejected_jobs.fetch_add(1, Ordering::SeqCst);
                    return Err(ShardSubmitError::Rejected {
                        a,
                        predicted_words: price.max_rank_words,
                        budget,
                    });
                }
            }
            let (resp, recv) = channel::unbounded();
            let job = ShardJob {
                payload: Payload::Compute(a),
                resp,
                attempts: 0,
                solo: false,
                deadline,
            };
            let Some(sender) = self.split_sender.as_ref() else {
                return Err(ShardSubmitError::Closed(job.into_matrix()));
            };
            return if blocking {
                match sender.send(job) {
                    Ok(()) => Ok(JobHandle { recv }),
                    Err(channel::SendError(job)) => {
                        Err(ShardSubmitError::Closed(job.into_matrix()))
                    }
                }
            } else {
                match sender.try_send(job) {
                    Ok(()) => Ok(JobHandle { recv }),
                    Err(TrySendError::Full(job)) => Err(ShardSubmitError::Full(job.into_matrix())),
                    Err(TrySendError::Disconnected(job)) => {
                        Err(ShardSubmitError::Closed(job.into_matrix()))
                    }
                }
            };
        }
        let (resp, recv) = channel::unbounded();
        let job = ShardJob {
            payload: Payload::Compute(a),
            resp,
            attempts: 0,
            solo: false,
            deadline,
        };
        match self.route_to_shard(job, blocking) {
            Ok(()) => Ok(JobHandle { recv }),
            Err((job, full)) => {
                let a = job.into_matrix();
                Err(if full {
                    ShardSubmitError::Full(a)
                } else {
                    ShardSubmitError::Closed(a)
                })
            }
        }
    }

    /// Route a job round-robin over the live shards; non-blocking mode
    /// spills to the next live shard when the preferred queue is full.
    /// On failure returns the job and whether backpressure (rather than
    /// a closed/failed service) was the cause.
    fn route_to_shard(&self, job: ShardJob<T>, blocking: bool) -> Result<(), (ShardJob<T>, bool)> {
        let p = self.shards();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        let mut job = job;
        let mut saw_full = false;
        for k in 0..p {
            let i = (start + k) % p;
            if self.shared.slots[i].dead.load(Ordering::SeqCst) {
                continue;
            }
            let Some(sender) = lock_recover(&self.shared.slots[i].sender).clone() else {
                continue;
            };
            if blocking {
                match sender.send(job) {
                    Ok(()) => return Ok(()),
                    Err(channel::SendError(back)) => job = back,
                }
            } else {
                match sender.try_send(job) {
                    Ok(()) => return Ok(()),
                    Err(TrySendError::Full(back)) => {
                        saw_full = true;
                        job = back;
                    }
                    Err(TrySendError::Disconnected(back)) => job = back,
                }
            }
        }
        Err((job, saw_full))
    }

    /// Failure injection: enqueue a job that panics the shard worker
    /// dequeuing it (together with whatever batch it was coalesced
    /// into — those jobs exercise the requeue path). The handle reports
    /// [`JobError::Requeued`] once the quarantine gives up on the
    /// poison. For shard-failure tests and chaos drills — not part of
    /// the supported serving API.
    #[doc(hidden)]
    pub fn submit_poison(&self) -> JobHandle<T> {
        let (resp, recv) = channel::unbounded();
        let job = ShardJob {
            payload: Payload::Poison,
            resp,
            attempts: 0,
            solo: false,
            deadline: None,
        };
        if let Err((job, _)) = self.route_to_shard(job, true) {
            let _ = job.resp.send(Err(JobError::Closed));
        }
        JobHandle { recv }
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ShardedStats {
        let per_shard: Vec<ShardStats> = self
            .shared
            .slots
            .iter()
            .map(|s| ShardStats {
                jobs: s.jobs.load(Ordering::SeqCst),
                batches: s.batches.load(Ordering::SeqCst),
                requeues: s.requeues.load(Ordering::SeqCst),
                dead: s.dead.load(Ordering::SeqCst),
            })
            .collect();
        let whole_jobs = per_shard.iter().map(|s| s.jobs).sum();
        let requeued_jobs = per_shard.iter().map(|s| s.requeues).sum();
        ShardedStats {
            per_shard,
            whole_jobs,
            split_jobs: self.shared.split_jobs.load(Ordering::SeqCst),
            requeued_jobs,
            failed_jobs: self.shared.failed_jobs.load(Ordering::SeqCst),
            rejected_jobs: self.shared.rejected_jobs.load(Ordering::SeqCst),
            dead_shards: self.shared.dead_shards.load(Ordering::SeqCst),
            degraded_jobs: self.shared.degraded_jobs.load(Ordering::SeqCst),
            expired_jobs: self.shared.expired_jobs.load(Ordering::SeqCst),
            revived_shards: self.shared.revived_shards.load(Ordering::SeqCst),
            split_retries: self.shared.split_retries.load(Ordering::SeqCst),
            predicted_split_words: self.shared.predicted_split_words.load(Ordering::SeqCst),
            simulated_split_words: self.shared.simulated_split_words.load(Ordering::SeqCst),
            predicted_root_recv_words: self.shared.predicted_root_recv_words.load(Ordering::SeqCst),
            simulated_root_recv_words: self.shared.simulated_root_recv_words.load(Ordering::SeqCst),
        }
    }

    /// Close every queue, let the workers drain the accepted jobs, and
    /// join them. Equivalent to dropping the service, but explicit and
    /// returning the final statistics.
    pub fn shutdown(mut self) -> ShardedStats {
        self.close_and_join(true);
        self.stats()
    }
}

impl<T: Scalar> ShardedService<T> {
    fn close_and_join(&mut self, loud: bool) {
        for slot in &self.shared.slots {
            drop(lock_recover(&slot.sender).take());
        }
        drop(self.split_sender.take());
        let mut payload = None;
        for worker in self.workers.drain(..) {
            if let Err(p) = worker.join() {
                payload.get_or_insert(p);
            }
        }
        if let Some(worker) = self.split_worker.take() {
            if let Err(p) = worker.join() {
                payload.get_or_insert(p);
            }
        }
        // Shard panics were already contained (dead flag + requeue);
        // only an unexpected escape reaches here.
        if loud {
            if let Some(p) = payload {
                std::panic::resume_unwind(p);
            }
        }
    }
}

impl<T: Scalar> Drop for ShardedService<T> {
    fn drop(&mut self) {
        // Drop must not panic; shutdown() is the loud path.
        self.close_and_join(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use ata_mat::{gen, reference};

    fn oracle(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.cols();
        let mut c = Matrix::zeros(n, n);
        reference::syrk_ln(1.0, a.as_ref(), &mut c.as_mut());
        c.mirror_lower_to_upper();
        c
    }

    fn service(split_words: usize) -> ShardedService<f64> {
        ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(4)
            .split_words(split_words)
            .build()
    }

    #[test]
    fn routes_small_whole_and_large_split() {
        let svc = service(2048);
        // 48 x 16 = 768 words: whole-per-shard. 128 x 32 = 4096: split.
        let smalls: Vec<Matrix<f64>> = (0..6).map(|i| gen::standard::<f64>(i, 48, 16)).collect();
        let larges: Vec<Matrix<f64>> = (0..2)
            .map(|i| gen::standard::<f64>(100 + i, 128, 32))
            .collect();
        let hs: Vec<_> = smalls
            .iter()
            .map(|a| svc.submit(a.clone()).unwrap())
            .collect();
        let hl: Vec<_> = larges
            .iter()
            .map(|a| svc.submit(a.clone()).unwrap())
            .collect();
        for (h, a) in hs.into_iter().zip(&smalls) {
            let g = h.wait().expect("whole job completes").into_dense();
            assert!(g.max_abs_diff(&oracle(a)) < 1e-10);
        }
        for (h, a) in hl.into_iter().zip(&larges) {
            let g = h.wait().expect("split job completes").into_dense();
            assert!(g.max_abs_diff(&oracle(a)) < 1e-10);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.whole_jobs, 6);
        assert_eq!(stats.split_jobs, 2);
        assert_eq!(stats.completed_jobs(), 8);
        assert_eq!(stats.failed_jobs, 0);
        assert_eq!(stats.dead_shards, 0);
        assert_eq!(stats.degraded_jobs, 0);
        assert_eq!(stats.split_retries, 0, "no chaos, no faulted attempts");
        assert!(stats.predicted_split_words > 0, "4-rank splits communicate");
        // The routing quote and the simulator's counters agree bit-exactly.
        assert_eq!(stats.predicted_split_words, stats.simulated_split_words);
        assert_eq!(
            stats.predicted_root_recv_words,
            stats.simulated_root_recv_words
        );
    }

    #[test]
    fn packed_output_round_trips_through_both_routes() {
        let svc: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(2)
            .split_words(2048)
            .output(Output::Packed)
            .build();
        let small = gen::standard::<f64>(3, 40, 12);
        let large = gen::standard::<f64>(4, 96, 48);
        let hs = svc.submit(small.clone()).unwrap();
        let hl = svc.submit(large.clone()).unwrap();
        for (h, a) in [(hs, &small), (hl, &large)] {
            let out = h.wait().expect("completes");
            assert!(matches!(out, AtaOutput::Packed(_)));
            assert!(out.into_dense().max_abs_diff(&oracle(a)) < 1e-10);
        }
    }

    #[test]
    fn quote_prices_only_the_split_route() {
        let svc = service(2048);
        assert!(svc.quote(48, 16).is_none(), "small problems are not priced");
        let q = svc.quote(128, 32).expect("large problems are");
        assert!(q.total_words > 0);
        assert!(q.root_recv_words > 0);
        // Deterministic: quoting twice is bit-identical.
        assert_eq!(q, svc.quote(128, 32).unwrap());
    }

    #[test]
    fn admission_control_rejects_overpriced_splits() {
        let svc: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(4)
            .split_words(2048)
            .admission_words(1)
            .build();
        let a = gen::standard::<f64>(9, 128, 32);
        match svc.submit(a) {
            Err(ShardSubmitError::Rejected {
                a,
                predicted_words,
                budget,
            }) => {
                assert_eq!(a.shape(), (128, 32), "operand handed back intact");
                assert!(predicted_words > budget);
                assert_eq!(budget, 1);
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        // Small problems bypass admission control entirely.
        let h = svc.submit(gen::standard::<f64>(10, 48, 16)).unwrap();
        assert_eq!(h.wait().unwrap().order(), 16);
        let stats = svc.shutdown();
        assert_eq!(stats.rejected_jobs, 1);
        assert_eq!(stats.whole_jobs, 1);
    }

    #[test]
    fn try_submit_accounting_under_backpressure() {
        let svc: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(2)
            .queue_capacity(1)
            .split_words(usize::MAX)
            .build();
        let (mut accepted, mut shed) = (0usize, 0usize);
        let mut handles = Vec::new();
        for i in 0..100u64 {
            match svc.try_submit(gen::standard::<f64>(i, 64, 32)) {
                Ok(h) => {
                    accepted += 1;
                    handles.push(h);
                }
                Err(ShardSubmitError::Full(a)) => {
                    shed += 1;
                    assert_eq!(a.shape(), (64, 32), "operand handed back intact");
                }
                other => panic!("service must be alive and nothing splits: {other:?}"),
            }
        }
        assert!(accepted > 0, "some jobs must get through");
        for h in handles {
            assert!(h.wait().is_ok());
        }
        assert_eq!(accepted + shed, 100);
        assert_eq!(svc.shutdown().whole_jobs, accepted);
    }

    #[test]
    fn poison_is_quarantined_and_innocents_complete() {
        let svc = service(usize::MAX);
        let poison = svc.submit_poison();
        // The poison panics its first shard, is requeued solo, panics a
        // second, and the quarantine then convicts it: attempts == 2.
        assert!(matches!(
            poison.wait(),
            Err(JobError::Requeued { attempts: 2 })
        ));
        // Two shards are gone; the service still serves on the rest.
        let inputs: Vec<Matrix<f64>> = (0..8).map(|i| gen::standard::<f64>(i, 32, 16)).collect();
        let handles: Vec<_> = inputs
            .iter()
            .map(|a| svc.submit(a.clone()).unwrap())
            .collect();
        for (h, a) in handles.into_iter().zip(&inputs) {
            let g = h.wait().expect("innocent job completes").into_dense();
            assert!(g.max_abs_diff(&oracle(a)) < 1e-10);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.dead_shards, 2);
        assert_eq!(stats.failed_jobs, 1, "only the poison fails");
        assert_eq!(stats.whole_jobs, 8);
        assert_eq!(stats.revived_shards, 0, "revival is opt-in");
        assert!(stats.requeued_jobs >= 1, "the solo requeue is counted");
        assert_eq!(
            stats.per_shard.iter().filter(|s| s.dead).count(),
            2,
            "per-shard flags agree with the aggregate"
        );
    }

    #[test]
    fn zero_retry_budget_convicts_on_first_panic() {
        let svc: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(3)
            .retry_budget(0)
            .split_words(usize::MAX)
            .build();
        assert!(matches!(
            svc.submit_poison().wait(),
            Err(JobError::Requeued { attempts: 1 })
        ));
        let stats = svc.shutdown();
        assert_eq!(stats.dead_shards, 1);
        assert_eq!(stats.failed_jobs, 1);
    }

    #[test]
    fn all_shards_dead_reports_closed() {
        let svc: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(1)
            .retry_budget(0)
            .split_words(usize::MAX)
            .build();
        assert!(matches!(
            svc.submit_poison().wait(),
            Err(JobError::Requeued { attempts: 1 })
        ));
        match svc.submit(gen::standard::<f64>(1, 16, 8)) {
            Err(ShardSubmitError::Closed(a)) => assert_eq!(a.shape(), (16, 8)),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(svc.shutdown().dead_shards, 1);
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let svc = service(usize::MAX);
        let a = gen::standard::<f64>(7, 30, 15);
        let handles: Vec<_> = (0..8).map(|_| svc.submit(a.clone()).unwrap()).collect();
        let stats = svc.shutdown();
        assert_eq!(stats.whole_jobs, 8, "accepted jobs are served before exit");
        for h in handles {
            assert!(h.wait().is_ok(), "handle answered even after shutdown");
        }
    }

    #[test]
    fn shutdown_under_full_queues_answers_every_accepted_job() {
        // Saturate every bounded queue with try_submit, then shut down:
        // each accepted job must be answered with a result or a typed
        // error — never left hanging, even waited on after shutdown.
        let svc: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(2)
            .queue_capacity(2)
            .split_words(usize::MAX)
            .build();
        let mut handles = Vec::new();
        for i in 0..64u64 {
            match svc.try_submit(gen::standard::<f64>(i, 40, 20)) {
                Ok(h) => handles.push(h),
                Err(ShardSubmitError::Full(_)) => {}
                other => panic!("service must be alive: {other:?}"),
            }
        }
        let accepted = handles.len();
        let stats = svc.shutdown();
        assert_eq!(stats.whole_jobs, accepted, "every accepted job executed");
        for h in handles {
            assert!(h.wait().is_ok(), "waiting after shutdown still answers");
        }
    }

    #[test]
    fn zero_deadline_expires_on_both_lanes() {
        let clock = Arc::new(ManualClock::new());
        let svc: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(2)
            .split_words(2048)
            .clock(clock)
            .build();
        // Whole lane (40 x 20 = 800 words) and split lane (96 x 48 =
        // 4608 words), both with an already-passed deadline.
        let whole = svc
            .submit_with_deadline(gen::standard::<f64>(1, 40, 20), Duration::ZERO)
            .unwrap();
        let split = svc
            .submit_with_deadline(gen::standard::<f64>(2, 96, 48), Duration::ZERO)
            .unwrap();
        assert!(matches!(whole.wait(), Err(JobError::DeadlineExceeded)));
        assert!(matches!(split.wait(), Err(JobError::DeadlineExceeded)));
        // Generous deadlines complete on both lanes.
        let whole = svc
            .submit_with_deadline(gen::standard::<f64>(3, 40, 20), Duration::from_secs(60))
            .unwrap();
        let split = svc
            .submit_with_deadline(gen::standard::<f64>(4, 96, 48), Duration::from_secs(60))
            .unwrap();
        assert!(whole.wait().is_ok());
        assert!(split.wait().is_ok());
        let stats = svc.shutdown();
        assert_eq!(stats.expired_jobs, 2);
        assert_eq!(stats.whole_jobs, 1);
        assert_eq!(stats.split_jobs, 1);
    }

    #[test]
    fn wait_timeout_polls_then_delivers() {
        let svc = service(usize::MAX);
        let a = gen::standard::<f64>(11, 48, 24);
        let h = svc.submit(a.clone()).unwrap();
        let out = loop {
            match h.wait_timeout(Duration::from_millis(10)) {
                Some(out) => break out,
                None => continue,
            }
        };
        assert!(
            out.expect("completes")
                .into_dense()
                .max_abs_diff(&oracle(&a))
                < 1e-10
        );
        svc.shutdown();
    }

    #[test]
    fn delay_only_chaos_completes_bit_identical() {
        // Delay-only fault schedules under a generous receive deadline
        // never lose a message: every split dispatch succeeds (possibly
        // late on the simulated clock) with bit-identical results and
        // exact counter reconciliation.
        let larges: Vec<Matrix<f64>> = (0..4)
            .map(|i| gen::standard::<f64>(300 + i, 128, 32))
            .collect();
        let clean: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(4)
            .split_words(2048)
            .build();
        let expected: Vec<Matrix<f64>> = larges
            .iter()
            .map(|a| {
                clean
                    .submit(a.clone())
                    .unwrap()
                    .wait()
                    .unwrap()
                    .into_dense()
            })
            .collect();
        clean.shutdown();

        let chaotic: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(4)
            .split_words(2048)
            .clock(Arc::new(ManualClock::new()))
            .split_chaos(
                SplitChaos::new(42)
                    .spec(FaultSpec::delays_only())
                    .recv_deadline(10.0),
            )
            .build();
        let handles: Vec<_> = larges
            .iter()
            .map(|a| chaotic.submit(a.clone()).unwrap())
            .collect();
        for (h, want) in handles.into_iter().zip(&expected) {
            let got = h.wait().expect("delayed but delivered").into_dense();
            assert_eq!(got.max_abs_diff(want), 0.0, "delays never change bits");
        }
        let stats = chaotic.shutdown();
        assert_eq!(stats.split_jobs, 4);
        assert_eq!(stats.degraded_jobs, 0);
        assert_eq!(stats.split_retries, 0, "nothing times out under delays");
        assert_eq!(stats.predicted_split_words, stats.simulated_split_words);
    }

    #[test]
    fn chaos_sweep_degrades_but_never_corrupts() {
        // Full chaos (drops + delays + crashes) with no retries: every
        // job still completes — split or degraded — and every result is
        // correct. Backoff runs on the manual clock, so the sweep costs
        // no wall time. The accounting identity is the chaos contract:
        // split + degraded == accepted, and degraded > 0 across this
        // seed sweep (drops/crashes do fire).
        let clock = Arc::new(ManualClock::new());
        let svc: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(4)
            .split_words(2048)
            .clock(clock)
            .split_retry(RetryPolicy {
                budget: 1,
                ..RetryPolicy::default()
            })
            .split_chaos(SplitChaos::new(7).recv_deadline(0.5))
            .build();
        let inputs: Vec<Matrix<f64>> = (0..24)
            .map(|i| gen::standard::<f64>(500 + i, 128, 32))
            .collect();
        let handles: Vec<_> = inputs
            .iter()
            .map(|a| svc.submit(a.clone()).unwrap())
            .collect();
        for (h, a) in handles.into_iter().zip(&inputs) {
            let g = h.wait().expect("split or degraded, never failed");
            assert!(g.into_dense().max_abs_diff(&oracle(a)) < 1e-10);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.split_jobs + stats.degraded_jobs, 24);
        assert_eq!(stats.completed_jobs(), 24);
        assert!(
            stats.split_retries > 0,
            "the default FaultSpec fires across 24 dispatches"
        );
        assert!(
            stats.degraded_jobs > 0,
            "budget 1 with recurring faults must degrade at least once"
        );
        // Counters reconcile exactly: only clean dispatches are billed.
        assert_eq!(stats.predicted_split_words, stats.simulated_split_words);
        assert_eq!(
            stats.predicted_root_recv_words,
            stats.simulated_root_recv_words
        );
    }

    #[test]
    fn revive_after_returns_dead_shards_to_duty() {
        let svc: ShardedService<f64> = ShardedServiceBuilder::new(&AtaContext::serial())
            .shards(4)
            .split_words(usize::MAX)
            .revive_after(2)
            .build();
        // The poison kills two shards (first batch + solo retry).
        assert!(svc.submit_poison().wait().is_err());
        // Sequential submissions: each is its own clean batch on a
        // survivor, feeding the probation meter until both shards are
        // back. (2 clean batches per revival, 2 revivals.)
        for i in 0..12u64 {
            let a = gen::standard::<f64>(i, 32, 16);
            let g = svc.submit(a.clone()).unwrap().wait().expect("completes");
            assert!(g.into_dense().max_abs_diff(&oracle(&a)) < 1e-10);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.revived_shards, 2, "both dead shards return");
        assert_eq!(stats.dead_shards, 0);
        assert_eq!(
            stats.per_shard.iter().filter(|s| s.dead).count(),
            0,
            "per-shard flags cleared on revival"
        );
        assert_eq!(stats.whole_jobs, 12);
        assert_eq!(stats.failed_jobs, 1, "only the poison failed");
    }

    #[test]
    fn sharded_service_is_send_and_sync() {
        fn assert_send_sync<X: Send + Sync>() {}
        assert_send_sync::<ShardedService<f64>>();
        assert_send_sync::<ShardedService<f32>>();
    }
}
