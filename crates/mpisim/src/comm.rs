//! The per-rank communicator: point-to-point messaging with selective
//! receive, plus the simulated clock.

use crate::cost::CostModel;
use crate::fault::{CommError, FaultPlan};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reserved tag bit for collectives; user tags must stay below this.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 62;

/// A typed message between ranks.
#[derive(Debug, Clone)]
pub struct Message<T> {
    /// Sending rank.
    pub src: usize,
    /// User (or collective) tag.
    pub tag: u64,
    /// Payload elements.
    pub payload: Vec<T>,
    /// Simulated arrival time at the receiver.
    pub arrival: f64,
}

/// What actually travels on the transport: a payload, a tombstone for a
/// message the fault plan dropped (so deadline receives can time out
/// deterministically instead of waiting out the wall-clock guard), or a
/// crash marker poisoning the peers of a dead rank.
#[derive(Debug)]
pub(crate) enum Envelope<T> {
    Msg(Message<T>),
    Dropped { src: usize, tag: u64 },
    Crashed { src: usize },
}

/// Per-rank communicator handle (the `MPI_Comm` + rank state analogue).
///
/// Owned exclusively by the rank's thread; all methods take `&mut self`.
pub struct Comm<T> {
    rank: usize,
    size: usize,
    model: CostModel,
    senders: Vec<Sender<Envelope<T>>>,
    receiver: Receiver<Envelope<T>>,
    /// Out-of-order buffer for selective receive.
    mailbox: VecDeque<Message<T>>,
    /// Simulated local time (seconds).
    clock: f64,
    /// Simulated seconds spent in compute (subset of `clock`).
    compute: f64,
    msgs_sent: u64,
    words_sent: u64,
    msgs_recv: u64,
    words_recv: u64,
    /// Receive timeout guarding against deadlocks in tests.
    timeout: Duration,
    /// Set by the universe when any rank panics: blocked receivers bail
    /// out promptly instead of waiting for the deadlock guard.
    abort: Arc<AtomicBool>,
    /// Injected fault schedule (empty by default).
    faults: Arc<FaultPlan>,
    /// Simulated-clock patience of checked receives: how long a
    /// `recv_checked` waits past its current clock before giving up
    /// with [`CommError::Timeout`]. `None` waits forever (modulo the
    /// wall-clock deadlock guard).
    recv_deadline: Option<f64>,
    /// Messages sent so far per destination rank — the `nth` counter
    /// the fault plan's drop/delay schedule keys on.
    edge_sends: Vec<u64>,
    /// Communication ops performed (sends + receives) — the crash
    /// schedule keys on this.
    ops: u64,
    /// Set once this rank's scheduled crash fires (records the op).
    crashed: Option<u64>,
    /// Tombstones received for dropped messages, as `(src, tag)`.
    tombstones: VecDeque<(usize, u64)>,
    /// Peers known to have crashed.
    dead_peers: Vec<bool>,
}

impl<T: Send + 'static> Comm<T> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        model: CostModel,
        senders: Vec<Sender<Envelope<T>>>,
        receiver: Receiver<Envelope<T>>,
        abort: Arc<AtomicBool>,
        faults: Arc<FaultPlan>,
        recv_deadline: Option<f64>,
    ) -> Self {
        Self {
            rank,
            size,
            model,
            senders,
            receiver,
            mailbox: VecDeque::new(),
            clock: 0.0,
            compute: 0.0,
            msgs_sent: 0,
            words_sent: 0,
            msgs_recv: 0,
            words_recv: 0,
            timeout: Duration::from_secs(120),
            abort,
            faults,
            recv_deadline,
            edge_sends: vec![0; size],
            ops: 0,
            crashed: None,
            tombstones: VecDeque::new(),
            dead_peers: vec![false; size],
        }
    }

    /// Blocking channel read with abort/deadlock guards. Polls in short
    /// slices so a peer's failure surfaces in milliseconds, not at the
    /// deadlock-guard horizon.
    fn blocking_next(&mut self, what: &dyn Fn() -> String) -> Envelope<T> {
        let deadline = Instant::now() + self.timeout;
        loop {
            match self.receiver.recv_timeout(Duration::from_millis(20)) {
                Ok(env) => return env,
                Err(RecvTimeoutError::Timeout) => {
                    assert!(
                        !self.abort.load(Ordering::Relaxed),
                        "rank {} aborting {}: another rank panicked",
                        self.rank,
                        what()
                    );
                    assert!(
                        Instant::now() < deadline,
                        "rank {} deadlocked {}",
                        self.rank,
                        what()
                    );
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable while this Comm is alive (it holds a
                    // sender to itself), but bail out defensively.
                    panic!("rank {}: transport disconnected {}", self.rank, what());
                }
            }
        }
    }

    /// File one envelope into the matching local buffer.
    fn file(&mut self, env: Envelope<T>) {
        match env {
            Envelope::Msg(m) => self.mailbox.push_back(m),
            Envelope::Dropped { src, tag } => self.tombstones.push_back((src, tag)),
            Envelope::Crashed { src } => self.dead_peers[src] = true,
        }
    }

    /// Block for one envelope and file it.
    fn pump(&mut self, what: &dyn Fn() -> String) {
        let env = self.blocking_next(what);
        self.file(env);
    }

    /// Account one communication op against the crash schedule. Once
    /// this rank's crash op is reached, the rank broadcasts a poison
    /// marker (control traffic — not charged to the clock or counters)
    /// and every op, this one included, fails with
    /// [`CommError::Crashed`].
    fn op_guard(&mut self) -> Result<(), CommError> {
        let op = self.ops;
        self.ops += 1;
        if let Some(k) = self.crashed {
            return Err(CommError::Crashed {
                rank: self.rank,
                op: k,
            });
        }
        if self.faults.crash_op(self.rank) == Some(op) {
            self.crashed = Some(op);
            for to in 0..self.size {
                if to != self.rank {
                    let _ = self.senders[to].send(Envelope::Crashed { src: self.rank });
                }
            }
            return Err(CommError::Crashed {
                rank: self.rank,
                op,
            });
        }
        Ok(())
    }

    /// [`Self::op_guard`] for the infallible API: an injected crash has
    /// no error channel there, so it surfaces as a panic.
    fn op_guard_infallible(&mut self, what: &str) {
        if let Err(e) = self.op_guard() {
            panic!(
                "rank {}: {e} while {what} (injected fault on the infallible API; \
                 use the checked ops to observe faults as errors)",
                self.rank
            );
        }
    }

    /// This rank's id, `0 .. size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current simulated time (seconds).
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Simulated compute seconds so far.
    #[inline]
    pub fn compute_time(&self) -> f64 {
        self.compute
    }

    /// Messages sent so far.
    #[inline]
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    /// Payload words sent so far.
    #[inline]
    pub fn words_sent(&self) -> u64 {
        self.words_sent
    }

    /// Messages received (consumed by a matching receive) so far.
    #[inline]
    pub fn msgs_recv(&self) -> u64 {
        self.msgs_recv
    }

    /// Payload words received so far — the quantity Proposition 4.2
    /// bounds at the root during retrieval.
    #[inline]
    pub fn words_recv(&self) -> u64 {
        self.words_recv
    }

    /// Cost model in force.
    #[inline]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The simulated-clock deadline of checked receives, if any.
    #[inline]
    pub fn recv_deadline(&self) -> Option<f64> {
        self.recv_deadline
    }

    /// True once this rank's scheduled crash has fired.
    #[inline]
    pub fn is_crashed(&self) -> bool {
        self.crashed.is_some()
    }

    /// Advance the simulated clock by `flops` of local computation.
    ///
    /// The caller still performs the computation for real; this only
    /// accounts for its *modeled* duration.
    pub fn add_compute_flops(&mut self, flops: f64) {
        let t = self.model.compute_time(flops);
        self.clock += t;
        self.compute += t;
    }

    /// Advance the simulated clock by an explicit duration (e.g. a
    /// measured kernel time instead of a modeled one).
    pub fn add_compute_seconds(&mut self, secs: f64) {
        assert!(secs >= 0.0, "negative compute time");
        self.clock += secs;
        self.compute += secs;
    }

    /// Send `payload` to rank `to` with `tag` (asynchronous, like
    /// `MPI_Isend` + eager buffering).
    ///
    /// # Panics
    /// If `to` is out of range, the tag collides with the reserved
    /// collective space, or an injected crash fires on this op (use
    /// [`Comm::send_checked`] to observe faults as errors).
    pub fn send(&mut self, to: usize, tag: u64, payload: Vec<T>) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} collides with reserved collective tags"
        );
        self.send_impl(to, tag, payload);
    }

    /// Fault-aware send: like [`Comm::send`], but an injected crash on
    /// this rank surfaces as `Err(CommError::Crashed)` instead of a
    /// panic. Drops and delays apply transparently on the wire either
    /// way (the *receiver* observes them).
    ///
    /// # Panics
    /// If `to` is out of range or the tag collides with the reserved
    /// collective space.
    pub fn send_checked(&mut self, to: usize, tag: u64, payload: Vec<T>) -> Result<(), CommError> {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} collides with reserved collective tags"
        );
        self.send_impl_checked(to, tag, payload)
    }

    pub(crate) fn send_impl(&mut self, to: usize, tag: u64, payload: Vec<T>) {
        self.op_guard_infallible("sending");
        self.transmit(to, tag, payload);
    }

    pub(crate) fn send_impl_checked(
        &mut self,
        to: usize,
        tag: u64,
        payload: Vec<T>,
    ) -> Result<(), CommError> {
        self.op_guard()?;
        self.transmit(to, tag, payload);
        Ok(())
    }

    /// The common send body: charge the LogGP clock and traffic
    /// counters (the send completes locally even if the network then
    /// drops the message), apply the fault plan's drop/delay schedule,
    /// and hand the envelope to the transport.
    fn transmit(&mut self, to: usize, tag: u64, payload: Vec<T>) {
        assert!(
            to < self.size,
            "send to rank {to} out of range (size {})",
            self.size
        );
        let words = payload.len();
        let nth = self.edge_sends[to];
        self.edge_sends[to] += 1;
        // Sender occupied for the latency; payload lands after transfer.
        let mut arrival = self.clock + self.model.transfer_time(words);
        self.clock += self.model.alpha;
        self.msgs_sent += 1;
        self.words_sent += words as u64;
        let env = if self.faults.is_dropped(self.rank, to, nth) {
            Envelope::Dropped {
                src: self.rank,
                tag,
            }
        } else {
            if let Some(extra) = self.faults.delay(self.rank, to, nth) {
                arrival += extra;
            }
            Envelope::Msg(Message {
                src: self.rank,
                tag,
                payload,
                arrival,
            })
        };
        if self.senders[to].send(env).is_err() {
            // The peer's thread already terminated and its channel is
            // gone. On a plain universe that is an SPMD protocol bug —
            // fail fast with a clear culprit. Under fault machinery
            // (a fault plan or a recv deadline) it is the expected
            // wake of a rank that bailed out early on a typed error:
            // the message is lost, exactly as if the network ate it.
            assert!(
                self.recv_deadline.is_some() || !self.faults.is_empty(),
                "rank {to} hung up (send from {})",
                self.rank
            );
        }
    }

    /// Declare this rank failed to every peer: each receives a crash
    /// marker (as if this rank crashed), so checked receives matching
    /// on this rank fail fast with [`CommError::PeerCrashed`] instead
    /// of waiting out a deadline on messages that will never come.
    ///
    /// Call this before bailing out of an SPMD computation on error —
    /// errors then cascade through the rank graph in bounded simulated
    /// time. Local state is untouched: control traffic, no clock or
    /// counter charges.
    pub fn abandon(&mut self) {
        for to in 0..self.size {
            if to != self.rank {
                let _ = self.senders[to].send(Envelope::Crashed { src: self.rank });
            }
        }
    }

    /// Blocking selective receive matching `(from, tag)`.
    ///
    /// Advances the simulated clock to the message's arrival time if the
    /// receiver got there early.
    ///
    /// # Panics
    /// If no matching message arrives within the deadlock-guard timeout,
    /// or if an injected fault (drop, peer crash, own crash) surfaces on
    /// this receive — use [`Comm::recv_checked`] to observe faults as
    /// errors.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<T> {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} collides with reserved collective tags"
        );
        self.recv_impl(from, tag)
    }

    /// Fault-aware selective receive. Where [`Comm::recv`] panics on an
    /// injected fault, this returns the typed [`CommError`]:
    ///
    /// * `Timeout` — the matching message was dropped (its tombstone is
    ///   consumed), or is modeled to arrive later than the universe's
    ///   `recv_deadline` past this rank's current clock (the message
    ///   stays in flight for a later, retried receive). Either way the
    ///   clock advances by the full deadline — waiting costs time.
    /// * `PeerCrashed` — `from` crashed before satisfying the receive.
    /// * `Crashed` — this rank itself crashed on an earlier (or this)
    ///   op.
    ///
    /// # Panics
    /// On a reserved tag, or if no deciding event (message, tombstone,
    /// crash marker) arrives within the wall-clock deadlock guard.
    pub fn recv_checked(&mut self, from: usize, tag: u64) -> Result<Vec<T>, CommError> {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} collides with reserved collective tags"
        );
        self.recv_impl_checked(from, tag)
    }

    /// Consume a matched message: advance the clock to its arrival and
    /// account it on the receive counters.
    fn consume(&mut self, msg: Message<T>) -> Vec<T> {
        self.clock = self.clock.max(msg.arrival);
        self.msgs_recv += 1;
        self.words_recv += msg.payload.len() as u64;
        msg.payload
    }

    pub(crate) fn recv_impl(&mut self, from: usize, tag: u64) -> Vec<T> {
        self.op_guard_infallible("receiving");
        loop {
            // Check the out-of-order buffer first.
            if let Some(pos) = self
                .mailbox
                .iter()
                .position(|m| m.src == from && m.tag == tag)
            {
                let msg = self.mailbox.remove(pos).expect("position valid");
                return self.consume(msg);
            }
            if self.tombstones.iter().any(|&(s, t)| s == from && t == tag) {
                panic!(
                    "rank {}: message (src={from}, tag={tag}) was dropped by the \
                     fault plan (use recv_checked under a recv_deadline)",
                    self.rank
                );
            }
            if self.dead_peers[from] {
                panic!(
                    "rank {}: peer rank {from} crashed (use recv_checked to \
                     observe the failure as an error)",
                    self.rank
                );
            }
            self.pump(&|| format!("waiting for (src={from}, tag={tag})"));
        }
    }

    pub(crate) fn recv_impl_checked(&mut self, from: usize, tag: u64) -> Result<Vec<T>, CommError> {
        self.op_guard()?;
        loop {
            if let Some(pos) = self
                .mailbox
                .iter()
                .position(|m| m.src == from && m.tag == tag)
            {
                if let Some(d) = self.recv_deadline {
                    let limit = self.clock + d;
                    if self.mailbox[pos].arrival > limit {
                        // Modeled to arrive later than this receive was
                        // willing to wait: give up at the deadline, but
                        // leave the message in flight for a retry.
                        self.clock = limit;
                        return Err(CommError::Timeout { from, tag });
                    }
                }
                let msg = self.mailbox.remove(pos).expect("position valid");
                return Ok(self.consume(msg));
            }
            if let Some(pos) = self
                .tombstones
                .iter()
                .position(|&(s, t)| s == from && t == tag)
            {
                self.tombstones.remove(pos);
                // The receiver waits out its full patience before
                // giving up on the dropped message.
                self.clock += self.recv_deadline.unwrap_or(0.0);
                return Err(CommError::Timeout { from, tag });
            }
            if self.dead_peers[from] {
                return Err(CommError::PeerCrashed { from });
            }
            self.pump(&|| format!("waiting (checked) for (src={from}, tag={tag})"));
        }
    }

    /// Drain the channel into the local buffers without blocking.
    fn drain_channel(&mut self) {
        while let Ok(env) = self.receiver.try_recv() {
            self.file(env);
        }
    }

    /// Non-blocking selective receive (`MPI_Iprobe` + matched receive):
    /// returns the payload if a matching message has *already* been
    /// delivered, `None` otherwise. Never advances past messages that do
    /// not match — they stay buffered for later `recv`s.
    ///
    /// Note the simulated-clock semantics: a message can be present in
    /// the transport (and thus returned here) while its modeled
    /// `arrival` time is in the future; like `recv`, the receiver's
    /// clock is advanced to the arrival time. This mirrors MPI progress
    /// semantics, where probing cannot observe a message earlier than
    /// the network could deliver it.
    ///
    /// # Panics
    /// If the tag collides with the reserved collective space.
    pub fn try_recv(&mut self, from: usize, tag: u64) -> Option<Vec<T>> {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} collides with reserved collective tags"
        );
        self.drain_channel();
        let pos = self
            .mailbox
            .iter()
            .position(|m| m.src == from && m.tag == tag)?;
        let msg = self.mailbox.remove(pos).expect("position valid");
        Some(self.consume(msg))
    }

    /// True if a matching message is already deliverable (`MPI_Iprobe`).
    /// Does not consume the message or advance the clock.
    pub fn probe(&mut self, from: usize, tag: u64) -> bool {
        self.drain_channel();
        self.mailbox.iter().any(|m| m.src == from && m.tag == tag)
    }

    /// Blocking receive from *any* source with the given tag
    /// (`MPI_ANY_SOURCE`); returns `(source, payload)`. Among buffered
    /// candidates the earliest-buffered wins (FIFO fairness).
    ///
    /// # Panics
    /// If no matching message arrives within the deadlock-guard timeout,
    /// on a reserved tag, or if an injected fault surfaces on this
    /// receive.
    pub fn recv_any(&mut self, tag: u64) -> (usize, Vec<T>) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} collides with reserved collective tags"
        );
        self.op_guard_infallible("receiving (any source)");
        loop {
            if let Some(pos) = self.mailbox.iter().position(|m| m.tag == tag) {
                let msg = self.mailbox.remove(pos).expect("position valid");
                let src = msg.src;
                return (src, self.consume(msg));
            }
            if let Some(&(s, _)) = self.tombstones.iter().find(|&&(_, t)| t == tag) {
                panic!(
                    "rank {}: message (src={s}, tag={tag}) was dropped by the \
                     fault plan (recv_any has no checked variant)",
                    self.rank
                );
            }
            self.pump(&|| format!("waiting for (any src, tag={tag})"));
        }
    }

    pub(crate) fn metrics(&self) -> crate::universe::RankMetrics {
        crate::universe::RankMetrics {
            rank: self.rank,
            sim_time: self.clock,
            compute_time: self.compute,
            msgs_sent: self.msgs_sent,
            words_sent: self.words_sent,
            msgs_recv: self.msgs_recv,
            words_recv: self.words_recv,
            wall_time: 0.0, // filled by the universe
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, CommError, CostModel, FaultPlan, Universe};

    #[test]
    fn ping_pong_transfers_payload() {
        let report = run(2, CostModel::zero(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64, 2.0, 3.0]);
                comm.recv(1, 8)
            } else {
                let v = comm.recv(0, 7);
                let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
                comm.send(0, 8, doubled.clone());
                doubled
            }
        });
        assert_eq!(report.results[0], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn selective_receive_reorders() {
        // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
        let report = run(2, CostModel::zero(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 2, vec![20.0f64]);
                comm.send(1, 1, vec![10.0f64]);
                vec![]
            } else {
                let first = comm.recv(0, 1);
                let second = comm.recv(0, 2);
                vec![first[0], second[0]]
            }
        });
        assert_eq!(report.results[1], vec![10.0, 20.0]);
    }

    #[test]
    fn clock_advances_with_messages_and_compute() {
        let model = CostModel::new(1.0, 0.5, 0.0); // alpha=1s, beta=0.5s/word
        let report = run::<f64, _, _>(2, model, |comm| {
            if comm.rank() == 0 {
                comm.add_compute_seconds(3.0);
                comm.send(1, 1, vec![0.0; 4]); // arrival = 3 + 1 + 2 = 6
                comm.clock()
            } else {
                let _ = comm.recv(0, 1);
                comm.clock()
            }
        });
        // Sender: 3 (compute) + 1 (latency) = 4.
        assert!((report.results[0] - 4.0).abs() < 1e-12);
        // Receiver jumped to the arrival time 6.
        assert!((report.results[1] - 6.0).abs() < 1e-12);
        assert!((report.critical_path() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_counters_are_exact() {
        let report = run(3, CostModel::zero(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![0.0f64; 10]);
                comm.send(2, 1, vec![0.0f64; 20]);
            } else {
                let _ = comm.recv(0, 1);
            }
        });
        assert_eq!(report.metrics[0].msgs_sent, 2);
        assert_eq!(report.metrics[0].words_sent, 30);
        assert_eq!(report.metrics[1].msgs_sent, 0);
        // Receive counters mirror the sends on the consuming side.
        assert_eq!(report.metrics[0].msgs_recv, 0);
        assert_eq!(report.metrics[1].msgs_recv, 1);
        assert_eq!(report.metrics[1].words_recv, 10);
        assert_eq!(report.metrics[2].words_recv, 20);
    }

    #[test]
    fn compute_flops_uses_model() {
        let model = CostModel::new(0.0, 0.0, 1e-9);
        let report = run::<f64, _, _>(1, model, |comm| {
            comm.add_compute_flops(2e9);
            comm.clock()
        });
        assert!((report.results[0] - 2.0).abs() < 1e-9);
        assert!((report.metrics[0].compute_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn send_to_self_works() {
        let report = run(1, CostModel::zero(), |comm| {
            comm.send(0, 5, vec![42.0f64]);
            comm.recv(0, 5)
        });
        assert_eq!(report.results[0], vec![42.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_out_of_range_panics() {
        let _ = run(1, CostModel::zero(), |comm| {
            comm.send(3, 1, vec![0.0f64]);
        });
    }

    #[test]
    fn try_recv_returns_none_until_delivery() {
        let report = run(2, CostModel::zero(), |comm| {
            if comm.rank() == 0 {
                // Rank 1 holds its payload until released below, so
                // nothing has been sent yet: must be None.
                let early = comm.try_recv(1, 5).is_none();
                comm.send(1, 7, vec![]);
                // Handshake so rank 1's message is definitely in flight.
                let _ = comm.recv(1, 6);
                // Poll until the payload lands (it was sent before tag 6).
                let mut got = None;
                for _ in 0..1000 {
                    got = comm.try_recv(1, 5);
                    if got.is_some() {
                        break;
                    }
                    std::thread::yield_now();
                }
                vec![f64::from(early), got.expect("payload delivered")[0]]
            } else {
                let _ = comm.recv(0, 7);
                comm.send(0, 5, vec![77.0f64]);
                comm.send(0, 6, vec![]);
                vec![]
            }
        });
        assert_eq!(report.results[0], vec![1.0, 77.0]);
    }

    #[test]
    fn probe_sees_without_consuming() {
        let report = run(2, CostModel::zero(), |comm| {
            if comm.rank() == 0 {
                let _ = comm.recv(1, 2); // ensure tag-1 msg already queued
                let mut seen = false;
                for _ in 0..1000 {
                    if comm.probe(1, 1) {
                        seen = true;
                        break;
                    }
                    std::thread::yield_now();
                }
                assert!(seen, "probe never saw the message");
                assert!(comm.probe(1, 1), "probe must not consume");
                comm.recv(1, 1)
            } else {
                comm.send(0, 1, vec![5.0f64]);
                comm.send(0, 2, vec![]);
                vec![]
            }
        });
        assert_eq!(report.results[0], vec![5.0]);
    }

    #[test]
    fn recv_any_matches_any_source() {
        let report = run(4, CostModel::zero(), |comm| {
            if comm.rank() == 0 {
                let mut from = Vec::new();
                for _ in 0..3 {
                    let (src, payload) = comm.recv_any(9);
                    assert_eq!(payload, vec![src as f64]);
                    from.push(src);
                }
                from.sort_unstable();
                from
            } else {
                comm.send(0, 9, vec![comm.rank() as f64]);
                vec![]
            }
        });
        assert_eq!(report.results[0], vec![1, 2, 3]);
    }

    #[test]
    fn recv_any_leaves_other_tags_buffered() {
        let report = run(2, CostModel::zero(), |comm| {
            if comm.rank() == 0 {
                let (src, v) = comm.recv_any(11);
                assert_eq!(src, 1);
                // The tag-10 message must still be receivable.
                let w = comm.recv(1, 10);
                vec![v[0], w[0]]
            } else {
                comm.send(0, 10, vec![1.0f64]);
                comm.send(0, 11, vec![2.0f64]);
                vec![]
            }
        });
        assert_eq!(report.results[0], vec![2.0, 1.0]);
    }

    #[test]
    fn try_recv_advances_clock_to_arrival() {
        let model = CostModel::new(0.0, 1.0, 0.0); // 1 s per word
        let report = run::<f64, _, _>(2, model, |comm| {
            if comm.rank() == 0 {
                let _ = comm.recv(1, 2); // sync: payload already sent
                let mut clock_after = 0.0;
                for _ in 0..1000 {
                    if let Some(_v) = comm.try_recv(1, 1) {
                        clock_after = comm.clock();
                        break;
                    }
                    std::thread::yield_now();
                }
                clock_after
            } else {
                comm.send(0, 1, vec![0.0; 5]); // arrival at t = 5
                comm.send(0, 2, vec![]);
                0.0
            }
        });
        assert!(
            report.results[0] >= 5.0,
            "clock {} < arrival",
            report.results[0]
        );
    }

    // ---- fault injection -------------------------------------------

    #[test]
    fn dropped_message_times_out_with_typed_error() {
        let plan = FaultPlan::new().drop_message(0, 1, 0);
        let report = Universe::new(2, CostModel::zero())
            .faults(plan)
            .recv_deadline(2.0)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send_checked(1, 7, vec![1.0f64]).map(|_| vec![])
                } else {
                    comm.recv_checked(0, 7)
                }
            });
        assert_eq!(
            report.results[1],
            Err(CommError::Timeout { from: 0, tag: 7 })
        );
        // The receiver paid its full patience on the simulated clock.
        assert!(report.metrics[1].sim_time >= 2.0);
    }

    #[test]
    fn delayed_message_arrives_late_but_intact() {
        let plan = FaultPlan::new().delay_message(0, 1, 0, 5.0);
        let report = Universe::new(2, CostModel::zero())
            .faults(plan)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, vec![4.0f64]);
                    vec![]
                } else {
                    comm.recv(0, 7)
                }
            });
        assert_eq!(report.results[1], vec![4.0]);
        assert!(
            report.metrics[1].sim_time >= 5.0,
            "delay not charged: {}",
            report.metrics[1].sim_time
        );
    }

    #[test]
    fn deadline_rejects_late_arrival_then_retry_succeeds() {
        // Delay beyond the deadline: first checked recv times out (the
        // message stays in flight), the retry consumes it.
        let plan = FaultPlan::new().delay_message(0, 1, 0, 3.0);
        let report = Universe::new(2, CostModel::zero())
            .faults(plan)
            .recv_deadline(2.0)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, vec![4.0f64]);
                    (Ok(vec![]), Ok(vec![]))
                } else {
                    // Ensure the message is buffered before judging it.
                    while !comm.probe(0, 7) {
                        std::thread::yield_now();
                    }
                    let first = comm.recv_checked(0, 7);
                    let second = comm.recv_checked(0, 7);
                    (first, second)
                }
            });
        let (first, second) = &report.results[1];
        // Arrival is modeled at t = 3; the first receive gives up at
        // its deadline t = 2, the retry (limit t = 4) consumes it.
        assert_eq!(*first, Err(CommError::Timeout { from: 0, tag: 7 }));
        assert_eq!(*second, Ok(vec![4.0]));
    }

    #[test]
    fn crashed_rank_fails_own_ops_and_poisons_peers() {
        let plan = FaultPlan::new().crash_rank(1, 0);
        let report = Universe::new(3, CostModel::zero())
            .faults(plan)
            .recv_deadline(1.0)
            .run(|comm| match comm.rank() {
                1 => {
                    let first = comm.send_checked(0, 7, vec![1.0f64]);
                    let later = comm.send_checked(2, 7, vec![1.0f64]);
                    assert!(comm.is_crashed());
                    (first.err(), later.err())
                }
                _ => {
                    let got = comm.recv_checked(1, 7);
                    (got.err(), None)
                }
            });
        assert_eq!(
            report.results[1].0,
            Some(CommError::Crashed { rank: 1, op: 0 })
        );
        assert_eq!(
            report.results[1].1,
            Some(CommError::Crashed { rank: 1, op: 0 })
        );
        // Peers fail fast with the poisoned-mailbox error.
        assert_eq!(
            report.results[0].0,
            Some(CommError::PeerCrashed { from: 1 })
        );
        assert_eq!(
            report.results[2].0,
            Some(CommError::PeerCrashed { from: 1 })
        );
    }

    #[test]
    fn fault_outcomes_are_deterministic_across_runs() {
        let run_once = || {
            let plan = FaultPlan::new()
                .drop_message(0, 2, 0)
                .delay_message(0, 1, 0, 3.0)
                .crash_rank(3, 2);
            Universe::new(4, CostModel::zero())
                .faults(plan)
                .recv_deadline(2.0)
                .run(|comm| match comm.rank() {
                    0 => {
                        comm.recv_checked(3, 9)?;
                        comm.send_checked(1, 1, vec![1.0f64])?;
                        comm.send_checked(2, 1, vec![2.0f64])?;
                        Ok(comm.clock())
                    }
                    1 => {
                        comm.recv_checked(3, 9)?;
                        comm.recv_checked(0, 1).map(|_| comm.clock())
                    }
                    2 => {
                        // Rank 3 crashes on its third op — the send to
                        // us never happens.
                        let first = comm.recv_checked(3, 9);
                        assert!(first.is_err(), "rank 2 must see the crash");
                        comm.recv_checked(0, 1).map(|_| comm.clock())
                    }
                    3 => {
                        comm.send_checked(0, 9, vec![0.0f64])?;
                        comm.send_checked(1, 9, vec![0.0f64])?;
                        comm.send_checked(2, 9, vec![0.0f64]).map(|_| comm.clock())
                    }
                    _ => unreachable!(),
                })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.results, b.results);
        for (ma, mb) in a.metrics.iter().zip(b.metrics.iter()) {
            assert_eq!(ma.sim_time, mb.sim_time, "rank {} clock", ma.rank);
            assert_eq!(ma.words_sent, mb.words_sent);
            assert_eq!(ma.words_recv, mb.words_recv);
        }
    }

    #[test]
    #[should_panic(expected = "dropped by the fault plan")]
    fn infallible_recv_panics_on_dropped_message() {
        let plan = FaultPlan::new().drop_message(0, 1, 0);
        let _ = Universe::new(2, CostModel::zero())
            .faults(plan)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, vec![1.0f64]);
                    vec![]
                } else {
                    comm.recv(0, 7)
                }
            });
    }

    #[test]
    fn fault_free_universe_matches_plain_run_bit_for_bit() {
        let body = |comm: &mut crate::Comm<f64>| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.5f64, 2.5]);
                comm.recv(1, 8)
            } else {
                let v = comm.recv(0, 7);
                comm.send(0, 8, v.clone());
                v
            }
        };
        let plain = run(2, CostModel::new(1e-6, 1e-9, 0.0), body);
        let faulted = Universe::new(2, CostModel::new(1e-6, 1e-9, 0.0))
            .faults(FaultPlan::new())
            .recv_deadline(10.0)
            .run(body);
        assert_eq!(plain.results, faulted.results);
        for (a, b) in plain.metrics.iter().zip(faulted.metrics.iter()) {
            assert_eq!(a.sim_time, b.sim_time);
            assert_eq!(a.words_sent, b.words_sent);
        }
    }
}
