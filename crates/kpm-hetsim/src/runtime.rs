//! MPI-like message-passing runtime over OS threads, with typed error
//! handling, receive deadlines, and pluggable fault injection.
//!
//! The paper uses one MPI process per device "already on the node level"
//! so the same code scales from one heterogeneous node to the full
//! machine (Section VI-A). This module provides that programming model
//! in-process: [`World::run`] spawns one thread per rank and hands each
//! a [`Communicator`] with point-to-point send/recv, barrier, and
//! allreduce collectives.
//!
//! Resilience semantics (this is what later scaling PRs test against):
//!
//! * [`Communicator::send`] returns `Err(KpmError::SendFailed)` when the
//!   destination rank has terminated, instead of panicking.
//! * [`Communicator::recv_timeout`] polls with exponential backoff and
//!   returns `Err(KpmError::RankUnreachable)` when the deadline expires,
//!   so a lost peer is *detected* rather than hung on.
//! * Deliveries are exactly-once: every message carries a per-link
//!   sequence number and receivers discard replayed copies, so a
//!   [`FaultPlan`] injecting duplicates cannot corrupt collectives that
//!   reuse tags.
//! * The out-of-order stash is bounded ([`WorldConfig::stash_capacity`])
//!   and overflow surfaces as `Err(KpmError::StashOverflow)` instead of
//!   unbounded memory growth under a message storm.
//! * A drop-time leak ledger counts every logical message sent and
//!   consumed; [`World::run`] asserts nothing was left undelivered after
//!   a fault-free world, and [`WorldOutcome::undelivered`] reports the
//!   count otherwise.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use kpm_num::{Complex64, KpmError};
use kpm_obs::metrics;

use crate::fault::FaultPlan;

/// Default bound on out-of-order messages a rank will hold.
pub const DEFAULT_STASH_CAPACITY: usize = 4096;

/// Smallest backoff slice of [`Communicator::recv_timeout`].
const BACKOFF_MIN: Duration = Duration::from_micros(200);

/// Largest backoff slice of [`Communicator::recv_timeout`].
const BACKOFF_MAX: Duration = Duration::from_millis(50);

/// Multiplicative jitter on one backoff slice, scaling `base` by a
/// factor in `[0.5, 1.5)` drawn from a splitmix64 stream advanced in
/// `state`. Ranks that lose the same peer at the same instant would
/// otherwise double their slices in lockstep and keep polling on the
/// identical schedule; per-rank seeding decorrelates them while keeping
/// each rank's schedule deterministic.
fn jittered_backoff(base: Duration, state: &mut u64) -> Duration {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let draw = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    base.mul_f64(0.5 + draw)
}

/// A tagged message payload.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender rank.
    pub from: usize,
    /// User tag (e.g. iteration number).
    pub tag: u64,
    /// Payload.
    pub data: Vec<Complex64>,
    /// Per-link sequence number (assigned by the sender). Fault-injected
    /// duplicate copies reuse the original's number, so receivers
    /// deduplicate by `(from, seq)` and the leak ledger stays exact.
    seq: u64,
    /// Sender's Lamport timestamp at send time (0 when tracing is
    /// disabled). Receivers max-merge it into the global clock so
    /// cross-rank span orderings reflect the happens-before relation.
    clock: u64,
}

/// Message accounting shared by every rank of a world: `leaked = sent -
/// consumed - expired` after all ranks have finished.
#[derive(Debug, Default)]
struct Ledger {
    /// Logical messages dispatched into some rank's inbox.
    sent: AtomicU64,
    /// Logical messages returned from a `recv`.
    consumed: AtomicU64,
    /// Logical messages that became undeliverable through injected
    /// faults (e.g. a delayed copy whose receiver terminated first).
    expired: AtomicU64,
}

struct WorldShared {
    ledger: Ledger,
    /// Join handles of delay-injection timer threads.
    timers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    faults: Option<Arc<FaultPlan>>,
    /// Per-rank link telemetry, flushed when each communicator drops.
    telemetry: Mutex<Vec<RankTelemetry>>,
}

/// Per-rank link/retry/fault telemetry, collected unconditionally
/// (plain integer bumps on thread-local state) and surfaced through
/// [`WorldOutcome::telemetry`]. When `kpm-obs` instrumentation is
/// enabled the totals are also mirrored into the global metrics
/// registry at rank teardown (`runtime.*` / `fault.injected.*`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankTelemetry {
    /// Which rank this row describes.
    pub rank: usize,
    /// Logical messages this rank successfully dispatched.
    pub msgs_sent: u64,
    /// Messages this rank's application consumed.
    pub msgs_consumed: u64,
    /// Replayed copies discarded by exactly-once dedup.
    pub dup_discarded: u64,
    /// Sends the fault plan dropped on the wire.
    pub injected_drops: u64,
    /// Sends the fault plan duplicated.
    pub injected_dups: u64,
    /// Sends the fault plan delayed.
    pub injected_delays: u64,
    /// Receive deadlines that expired (peer silent or gone).
    pub recv_timeouts: u64,
    /// Empty backoff slices waited inside `recv_timeout`.
    pub backoff_slices: u64,
    /// Messages parked in the out-of-order stash.
    pub stashed: u64,
    /// High-water mark of the stash depth.
    pub stash_peak: u64,
    /// True if this rank hit a scheduled crash point.
    pub crashed: bool,
}

impl RankTelemetry {
    /// Mirrors this rank's totals into the global metrics registry
    /// (no-op while instrumentation is disabled).
    fn publish(&self) {
        metrics::counter_add("runtime.msg.sent", self.msgs_sent);
        metrics::counter_add("runtime.msg.consumed", self.msgs_consumed);
        metrics::counter_add("runtime.msg.dup_discarded", self.dup_discarded);
        metrics::counter_add("fault.injected.drop", self.injected_drops);
        metrics::counter_add("fault.injected.duplicate", self.injected_dups);
        metrics::counter_add("fault.injected.delay", self.injected_delays);
        metrics::counter_add("runtime.recv.timeout", self.recv_timeouts);
        metrics::counter_add("runtime.recv.backoff_slices", self.backoff_slices);
        metrics::counter_add("runtime.stash.stashed", self.stashed);
        metrics::gauge_max("runtime.stash.peak", self.stash_peak as f64);
        if self.crashed {
            metrics::counter_inc("fault.injected.crash");
        }
    }
}

/// Per-rank communication endpoint.
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>, // senders[d] delivers to rank d
    inbox: Receiver<Message>,
    /// Messages received but not yet matched by tag/source.
    stash: Vec<Message>,
    stash_capacity: usize,
    /// Sequence numbers already delivered, per source rank.
    seen: Vec<HashSet<u64>>,
    /// Next sequence number per destination rank.
    next_seq: Vec<u64>,
    /// Set once a simulated crash fired; all later traffic fails.
    crashed: bool,
    /// Splitmix64 state driving [`jittered_backoff`], seeded per rank.
    backoff_state: u64,
    default_timeout: Option<Duration>,
    barrier: Arc<Barrier>,
    shared: Arc<WorldShared>,
    tele: RankTelemetry,
}

impl Communicator {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends `data` to rank `to` with `tag`. Never blocks; returns an
    /// error if the destination rank has terminated (its inbox is gone)
    /// or this rank has crashed.
    pub fn send(&mut self, to: usize, tag: u64, data: Vec<Complex64>) -> Result<(), KpmError> {
        if self.crashed {
            return Err(KpmError::RankCrashed { rank: self.rank });
        }
        if to >= self.size {
            return Err(KpmError::InvalidParams {
                what: "destination rank",
                details: format!("rank {to} out of range for world of {}", self.size),
            });
        }
        let seq = self.next_seq[to];
        self.next_seq[to] += 1;
        let fate = match &self.shared.faults {
            Some(plan) => plan.decide(self.rank, to, tag, seq),
            None => crate::fault::MessageFate::CLEAN,
        };
        // Count every injected fault the plan decided on, even when a
        // drop co-fires with a duplicate/delay, so per-rank telemetry
        // totals equal `FaultPlan::stats` exactly.
        if fate.drop {
            self.tele.injected_drops += 1;
        }
        if fate.duplicate {
            self.tele.injected_dups += 1;
        }
        if fate.delay.is_some() {
            self.tele.injected_delays += 1;
        }
        if fate.drop {
            // The message is lost on the wire: the sender cannot know.
            return Ok(());
        }
        let msg = Message {
            from: self.rank,
            tag,
            data,
            seq,
            clock: kpm_obs::clock::tick(),
        };
        let mut replay_delivered = false;
        if fate.duplicate {
            // Replayed copy, delivered immediately; receivers drop it by
            // sequence number if the original also arrives.
            // A failed duplicate is not an error: the original decides.
            replay_delivered = self.senders[to].send(msg.clone()).is_ok();
        }
        match fate.delay {
            Some(delay) => {
                self.shared.ledger.sent.fetch_add(1, Ordering::Relaxed);
                self.tele.msgs_sent += 1;
                let sender = self.senders[to].clone();
                let shared = Arc::clone(&self.shared);
                let handle = std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    if sender.send(msg).is_err() {
                        // Receiver terminated before the delayed copy
                        // landed: the message expired in flight.
                        shared.ledger.expired.fetch_add(1, Ordering::Relaxed);
                    }
                });
                self.shared
                    .timers
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(handle);
                Ok(())
            }
            None => match self.senders[to].send(msg) {
                Ok(()) => {
                    self.shared.ledger.sent.fetch_add(1, Ordering::Relaxed);
                    self.tele.msgs_sent += 1;
                    Ok(())
                }
                // A receiver may legitimately consume the replayed copy,
                // finish, and close its inbox before the original lands;
                // the logical message still arrived exactly once.
                Err(_) if replay_delivered => {
                    self.shared.ledger.sent.fetch_add(1, Ordering::Relaxed);
                    self.tele.msgs_sent += 1;
                    Ok(())
                }
                Err(_) => Err(KpmError::SendFailed {
                    from: self.rank,
                    to,
                    tag,
                }),
            },
        }
    }

    /// Receives the next message from `from` with `tag`. Blocks until it
    /// arrives, or until the world-default receive timeout expires if
    /// one was configured ([`WorldConfig::default_recv_timeout`]).
    /// Out-of-order arrivals are stashed and matched later.
    pub fn recv(&mut self, from: usize, tag: u64) -> Result<Vec<Complex64>, KpmError> {
        match self.default_timeout {
            Some(t) => self.recv_timeout(from, tag, t),
            None => self.recv_blocking(from, tag),
        }
    }

    /// Receives with an explicit deadline. Polls the inbox with
    /// exponentially growing backoff slices (200 µs up to 50 ms, each
    /// scaled by seeded per-rank jitter in `[0.5, 1.5)` so ranks do not
    /// poll in lockstep) and returns `Err(KpmError::RankUnreachable)`
    /// once `timeout` has elapsed without a matching message — the
    /// caller decides whether to retry, restart from a checkpoint, or
    /// abort.
    pub fn recv_timeout(
        &mut self,
        from: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<Complex64>, KpmError> {
        if self.crashed {
            return Err(KpmError::RankCrashed { rank: self.rank });
        }
        if let Some(data) = self.take_stashed(from, tag) {
            return Ok(data);
        }
        let start = Instant::now();
        let deadline = start + timeout;
        let mut slice = BACKOFF_MIN;
        loop {
            let now = Instant::now();
            if now >= deadline {
                self.tele.recv_timeouts += 1;
                return Err(KpmError::RankUnreachable {
                    rank: self.rank,
                    peer: from,
                    tag,
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            let wait = jittered_backoff(slice, &mut self.backoff_state).min(deadline - now);
            match self.inbox.recv_timeout(wait) {
                Ok(msg) => {
                    if let Some(data) = self.accept(msg, from, tag)? {
                        return Ok(data);
                    }
                    // A message arrived (even if it was for another
                    // tag): the link is alive, reset the backoff.
                    slice = BACKOFF_MIN;
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.tele.backoff_slices += 1;
                    slice = (slice * 2).min(BACKOFF_MAX);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.tele.recv_timeouts += 1;
                    return Err(KpmError::RankUnreachable {
                        rank: self.rank,
                        peer: from,
                        tag,
                        waited_ms: start.elapsed().as_millis() as u64,
                    });
                }
            }
        }
    }

    fn recv_blocking(&mut self, from: usize, tag: u64) -> Result<Vec<Complex64>, KpmError> {
        if self.crashed {
            return Err(KpmError::RankCrashed { rank: self.rank });
        }
        if let Some(data) = self.take_stashed(from, tag) {
            return Ok(data);
        }
        loop {
            let msg = self.inbox.recv().map_err(|_| KpmError::RankUnreachable {
                rank: self.rank,
                peer: from,
                tag,
                waited_ms: 0,
            })?;
            if let Some(data) = self.accept(msg, from, tag)? {
                return Ok(data);
            }
        }
    }

    /// Pops a stashed message matching `(from, tag)`, if any.
    fn take_stashed(&mut self, from: usize, tag: u64) -> Option<Vec<Complex64>> {
        let pos = self
            .stash
            .iter()
            .position(|m| m.from == from && m.tag == tag)?;
        self.shared.ledger.consumed.fetch_add(1, Ordering::Relaxed);
        self.tele.msgs_consumed += 1;
        Some(self.stash.swap_remove(pos).data)
    }

    /// Ingests one arrived message: deduplicates replays, returns the
    /// payload if it matches, stashes it (bounded) otherwise.
    fn accept(
        &mut self,
        msg: Message,
        want_from: usize,
        want_tag: u64,
    ) -> Result<Option<Vec<Complex64>>, KpmError> {
        if !self.seen[msg.from].insert(msg.seq) {
            // Second copy of an already-arrived message (at-least-once
            // delivery): discard for exactly-once semantics.
            self.tele.dup_discarded += 1;
            return Ok(None);
        }
        // Lamport merge: pull the receiver's clock past the sender's
        // stamp so subsequent spans on this rank order after the send.
        kpm_obs::clock::observe(msg.clock);
        if msg.from == want_from && msg.tag == want_tag {
            self.shared.ledger.consumed.fetch_add(1, Ordering::Relaxed);
            self.tele.msgs_consumed += 1;
            return Ok(Some(msg.data));
        }
        if self.stash.len() >= self.stash_capacity {
            return Err(KpmError::StashOverflow {
                rank: self.rank,
                capacity: self.stash_capacity,
            });
        }
        self.stash.push(msg);
        self.tele.stashed += 1;
        self.tele.stash_peak = self.tele.stash_peak.max(self.stash.len() as u64);
        Ok(None)
    }

    /// Synchronizes all ranks. Only safe in fault-free worlds: a crashed
    /// rank never reaches the barrier, so resilient code paths must use
    /// message-based synchronization (allreduce with deadlines) instead.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Marks this rank dead if the attached [`FaultPlan`] schedules a
    /// crash at `iteration`. Returns `Err(KpmError::RankCrashed)` on the
    /// crash; every later operation on this communicator fails too, and
    /// dropping it closes the inbox so peers observe `SendFailed` /
    /// receive timeouts.
    pub fn crash_point(&mut self, iteration: usize) -> Result<(), KpmError> {
        if self.crashed {
            return Err(KpmError::RankCrashed { rank: self.rank });
        }
        if let Some(plan) = &self.shared.faults {
            if plan.crash_pending(self.rank, iteration) {
                self.crashed = true;
                self.tele.crashed = true;
                return Err(KpmError::RankCrashed { rank: self.rank });
            }
        }
        Ok(())
    }

    /// Global element-wise sum of `local` over all ranks; every rank
    /// returns the identical result. Deterministic reduction order
    /// (by ascending rank at rank 0, then broadcast), so the result does
    /// not depend on timing.
    pub fn allreduce_sum(&mut self, local: &[Complex64]) -> Result<Vec<Complex64>, KpmError> {
        const TAG_GATHER: u64 = u64::MAX - 1;
        const TAG_BCAST: u64 = u64::MAX - 2;
        if self.size == 1 {
            return Ok(local.to_vec());
        }
        if self.rank == 0 {
            let mut acc = local.to_vec();
            for src in 1..self.size {
                let part = self.recv(src, TAG_GATHER)?;
                if part.len() != acc.len() {
                    return Err(KpmError::InvalidParams {
                        what: "allreduce length",
                        details: format!(
                            "rank {src} contributed {} elements, expected {}",
                            part.len(),
                            acc.len()
                        ),
                    });
                }
                for (a, b) in acc.iter_mut().zip(&part) {
                    *a += *b;
                }
            }
            for dst in 1..self.size {
                self.send(dst, TAG_BCAST, acc.clone())?;
            }
            Ok(acc)
        } else {
            self.send(0, TAG_GATHER, local.to_vec())?;
            self.recv(0, TAG_BCAST)
        }
    }

    /// Global sum of a scalar.
    pub fn allreduce_scalar(&mut self, x: Complex64) -> Result<Complex64, KpmError> {
        Ok(self.allreduce_sum(&[x])?[0])
    }
}

impl Drop for Communicator {
    /// Drop-time leak check: any message still sitting in the inbox or
    /// stash was sent but never delivered to the application. Replayed
    /// duplicates and already-seen copies don't count — they were
    /// delivered through their original.
    fn drop(&mut self) {
        for msg in self.stash.drain(..) {
            // Stashed messages were counted `sent` but never consumed;
            // they surface via the sent/consumed imbalance.
            debug_assert!(self.seen[msg.from].contains(&msg.seq));
        }
        while let Ok(msg) = self.inbox.try_recv() {
            if !self.seen[msg.from].insert(msg.seq) {
                self.tele.dup_discarded += 1;
                continue; // duplicate of a delivered message
            }
            let _ = msg; // counted as sent, never consumed -> leak
        }
        self.tele.rank = self.rank;
        self.tele.publish();
        self.shared
            .telemetry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(self.tele.clone());
    }
}

/// Configuration of a message-passing world.
#[derive(Clone)]
pub struct WorldConfig {
    /// Number of ranks (threads).
    pub size: usize,
    /// Faults to inject; `None` runs clean.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Bound on each rank's out-of-order stash.
    pub stash_capacity: usize,
    /// Deadline applied by plain [`Communicator::recv`] calls; `None`
    /// blocks forever (classic MPI semantics).
    pub default_recv_timeout: Option<Duration>,
}

impl WorldConfig {
    /// A fault-free world of `size` ranks with blocking receives.
    pub fn new(size: usize) -> Self {
        WorldConfig {
            size,
            fault_plan: None,
            stash_capacity: DEFAULT_STASH_CAPACITY,
            default_recv_timeout: None,
        }
    }

    /// Attaches a fault plan.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Applies `timeout` to every plain `recv`.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.default_recv_timeout = Some(timeout);
        self
    }

    /// Bounds the out-of-order stash.
    pub fn with_stash_capacity(mut self, capacity: usize) -> Self {
        self.stash_capacity = capacity;
        self
    }
}

/// What a configured world run produced.
#[derive(Debug)]
pub struct WorldOutcome<T> {
    /// Per-rank results; a rank that returned an error or panicked is an
    /// `Err`.
    pub results: Vec<Result<T, KpmError>>,
    /// Logical messages sent but never delivered to the application.
    /// Zero for every correct protocol on a lossless plan.
    pub undelivered: u64,
    /// Per-rank link/retry/fault telemetry, sorted by rank. Ranks whose
    /// thread died without unwinding cleanly may be missing.
    pub telemetry: Vec<RankTelemetry>,
}

impl<T> WorldOutcome<T> {
    /// Unwraps all ranks, returning the first error if any rank failed.
    pub fn into_results(self) -> Result<Vec<T>, KpmError> {
        let mut out = Vec::with_capacity(self.results.len());
        for r in self.results {
            out.push(r?);
        }
        Ok(out)
    }

    /// True when every rank succeeded.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }
}

/// A fixed-size group of ranks running one closure each.
pub struct World;

impl World {
    /// Runs `f(communicator)` on `size` ranks (threads) and returns each
    /// rank's result, indexed by rank. Fault-free compatibility entry
    /// point: panics if a rank panics or if the world leaked messages.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Communicator) -> T + Send + Sync,
    {
        let outcome = Self::run_config(WorldConfig::new(size), |comm| Ok(f(comm)));
        assert_eq!(
            outcome.undelivered, 0,
            "world leaked {} undelivered message(s)",
            outcome.undelivered
        );
        outcome
            .into_results()
            // kpm::allow(no_panic): World::run is the documented panicking
            // compatibility wrapper; fault-tolerant callers use run_config.
            .expect("rank thread must not panic in World::run")
    }

    /// Runs a configured world. Rank closures return `Result`; a rank
    /// that panics is reported as `Err(KpmError::RankCrashed)` instead
    /// of poisoning the whole world. Delay-injection timers are joined
    /// before returning, and the leak ledger is settled into
    /// [`WorldOutcome::undelivered`].
    pub fn run_config<T, F>(config: WorldConfig, f: F) -> WorldOutcome<T>
    where
        T: Send,
        F: Fn(Communicator) -> Result<T, KpmError> + Send + Sync,
    {
        let size = config.size;
        assert!(size >= 1, "need at least one rank");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let barrier = Arc::new(Barrier::new(size));
        let shared = Arc::new(WorldShared {
            ledger: Ledger::default(),
            timers: Mutex::new(Vec::new()),
            faults: config.fault_plan.clone(),
            telemetry: Mutex::new(Vec::new()),
        });
        let mut comms: Vec<Communicator> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| Communicator {
                rank,
                size,
                senders: senders.clone(),
                inbox,
                stash: Vec::new(),
                stash_capacity: config.stash_capacity,
                seen: vec![HashSet::new(); size],
                next_seq: vec![0; size],
                crashed: false,
                backoff_state: (rank as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                default_timeout: config.default_recv_timeout,
                barrier: Arc::clone(&barrier),
                shared: Arc::clone(&shared),
                tele: RankTelemetry::default(),
            })
            .collect();
        drop(senders);

        let results: Vec<Result<T, KpmError>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for comm in comms.drain(..) {
                let fref = &f;
                let rank = comm.rank;
                let builder = std::thread::Builder::new().name(format!("kpm-rank-{rank}"));
                handles.push((rank, builder.spawn_scoped(scope, move || fref(comm))));
            }
            handles
                .into_iter()
                .map(|(rank, h)| match h {
                    Ok(h) => match h.join() {
                        Ok(result) => result,
                        Err(_) => Err(KpmError::RankCrashed { rank }),
                    },
                    // The OS refused the thread; report the rank as
                    // crashed instead of tearing down the world (its
                    // Communicator was dropped, so peers see a closed
                    // inbox, exactly as after a real crash).
                    Err(_) => Err(KpmError::RankCrashed { rank }),
                })
                .collect()
        });

        // Let every in-flight delayed message land or expire before
        // settling the ledger.
        let timers = std::mem::take(&mut *shared.timers.lock().unwrap_or_else(|e| e.into_inner()));
        for t in timers {
            let _ = t.join();
        }
        let sent = shared.ledger.sent.load(Ordering::Relaxed);
        let consumed = shared.ledger.consumed.load(Ordering::Relaxed);
        let expired = shared.ledger.expired.load(Ordering::Relaxed);
        let mut telemetry =
            std::mem::take(&mut *shared.telemetry.lock().unwrap_or_else(|e| e.into_inner()));
        telemetry.sort_by_key(|t| t.rank);
        WorldOutcome {
            results,
            undelivered: sent.saturating_sub(consumed + expired),
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Complex64 {
        Complex64::real(re)
    }

    #[test]
    fn ranks_are_distinct_and_sized() {
        let got = World::run(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(got, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn ring_send_recv() {
        let got = World::run(3, |mut comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, vec![c(comm.rank() as f64)])
                .expect("ring send");
            comm.recv(prev, 7).expect("ring recv")[0].re
        });
        assert_eq!(got, vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let got = World::run(2, |mut comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1.
                comm.send(1, 2, vec![c(20.0)]).unwrap();
                comm.send(1, 1, vec![c(10.0)]).unwrap();
                0.0
            } else {
                // Receive in the opposite order.
                let a = comm.recv(0, 1).unwrap()[0].re;
                let b = comm.recv(0, 2).unwrap()[0].re;
                a + b
            }
        });
        assert_eq!(got[1], 30.0);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let got = World::run(5, |mut comm| {
            let local = vec![c(comm.rank() as f64), c(1.0)];
            let sum = comm.allreduce_sum(&local).expect("allreduce");
            (sum[0].re, sum[1].re)
        });
        for (a, b) in got {
            assert_eq!(a, 10.0); // 0+1+2+3+4
            assert_eq!(b, 5.0);
        }
    }

    #[test]
    fn allreduce_scalar_deterministic() {
        let a = World::run(7, |mut comm| {
            comm.allreduce_scalar(Complex64::new(0.1 * comm.rank() as f64, -1.0))
                .expect("allreduce")
        });
        let b = World::run(7, |mut comm| {
            comm.allreduce_scalar(Complex64::new(0.1 * comm.rank() as f64, -1.0))
                .expect("allreduce")
        });
        assert_eq!(a, b);
        assert!((a[0].im + 7.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_does_not_deadlock() {
        let got = World::run(4, |comm| {
            for _ in 0..10 {
                comm.barrier();
            }
            comm.rank()
        });
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn single_rank_world() {
        let got = World::run(1, |mut comm| comm.allreduce_scalar(c(42.0)).unwrap().re);
        assert_eq!(got, vec![42.0]);
    }

    #[test]
    fn backoff_jitter_varies_but_stays_deterministic() {
        let base = Duration::from_micros(800);
        let mut state = 0xdead_beef_u64;
        let slices: Vec<Duration> = (0..16)
            .map(|_| jittered_backoff(base, &mut state))
            .collect();
        // Every slice stays inside the documented [0.5, 1.5) band.
        for s in &slices {
            assert!(
                *s >= base / 2 && *s < base * 3 / 2,
                "jitter out of band: {s:?}"
            );
        }
        // Successive slices are not identical: the stream really varies.
        assert!(
            slices.windows(2).any(|w| w[0] != w[1]),
            "jitter produced a constant schedule"
        );
        // Same seed, same schedule: per-rank determinism.
        let mut state2 = 0xdead_beef_u64;
        let again: Vec<Duration> = (0..16)
            .map(|_| jittered_backoff(base, &mut state2))
            .collect();
        assert_eq!(slices, again);
        // A different seed decorrelates the schedule.
        let mut state3 = 0x1234_5678_u64;
        let other: Vec<Duration> = (0..16)
            .map(|_| jittered_backoff(base, &mut state3))
            .collect();
        assert_ne!(slices, other);
    }

    #[test]
    fn recv_timeout_expires_on_silent_peer() {
        let deadline = Duration::from_millis(50);
        let outcome = World::run_config(WorldConfig::new(2), |mut comm| {
            if comm.rank() == 1 {
                // Rank 0 never sends: the deadline must fire, promptly.
                let t0 = Instant::now();
                let err = comm
                    .recv_timeout(0, 9, deadline)
                    .expect_err("no message was ever sent");
                let elapsed = t0.elapsed();
                assert!(
                    matches!(err, KpmError::RankUnreachable { peer: 0, .. }),
                    "unexpected error {err:?}"
                );
                assert!(elapsed >= deadline, "returned before the deadline");
                assert!(
                    elapsed < deadline * 20,
                    "took {elapsed:?}, deadline {deadline:?}"
                );
            }
            Ok(())
        });
        assert!(outcome.all_ok());
        assert_eq!(outcome.undelivered, 0);
    }

    #[test]
    fn send_to_terminated_rank_errors() {
        let outcome = World::run_config(WorldConfig::new(2), |mut comm| {
            if comm.rank() == 0 {
                // Rank 1 exits immediately; once its inbox is gone our
                // send must fail rather than panic. Retry until the
                // drop is observed.
                let t0 = Instant::now();
                loop {
                    match comm.send(1, 1, vec![c(1.0)]) {
                        Err(KpmError::SendFailed { from: 0, to: 1, .. }) => break,
                        Err(e) => panic!("unexpected error {e:?}"),
                        Ok(()) => std::thread::sleep(Duration::from_millis(1)),
                    }
                    assert!(t0.elapsed() < Duration::from_secs(5), "send never failed");
                }
            }
            Ok(())
        });
        // Rank 1 never consumed what rank 0 managed to enqueue.
        assert!(outcome.all_ok());
    }

    #[test]
    fn stash_overflow_surfaces_as_error() {
        let cfg = WorldConfig::new(2).with_stash_capacity(4);
        let outcome = World::run_config(cfg, |mut comm| {
            if comm.rank() == 0 {
                for tag in 0..8 {
                    comm.send(1, tag, vec![c(tag as f64)])?;
                }
                // Tell rank 1 everything is enqueued.
                comm.send(1, 99, vec![c(0.0)])?;
                Ok(())
            } else {
                // Wait for a tag that sorts after 5 unmatched ones.
                match comm.recv_timeout(0, 7, Duration::from_secs(5)) {
                    Err(KpmError::StashOverflow {
                        rank: 1,
                        capacity: 4,
                    }) => Ok(()),
                    other => panic!("expected stash overflow, got {other:?}"),
                }
            }
        });
        assert!(outcome.all_ok());
    }

    #[test]
    fn duplicated_and_delayed_messages_deliver_exactly_once() {
        use crate::fault::FaultPlan;
        let plan = Arc::new(
            FaultPlan::new(11)
                .with_message_duplication(0.8)
                .with_message_delays(0.5, Duration::from_millis(5)),
        );
        let cfg = WorldConfig::new(3).with_faults(Arc::clone(&plan));
        let outcome = World::run_config(cfg, |mut comm| {
            let mut total = 0.0;
            for round in 0..20u64 {
                for peer in 0..comm.size() {
                    if peer != comm.rank() {
                        comm.send(
                            peer,
                            round,
                            vec![c((comm.rank() * 100 + round as usize) as f64)],
                        )?;
                    }
                }
                for peer in 0..comm.size() {
                    if peer != comm.rank() {
                        let got = comm.recv_timeout(peer, round, Duration::from_secs(5))?;
                        total += got[0].re;
                    }
                }
            }
            Ok(total)
        });
        let stats = plan.stats();
        assert!(stats.duplicated > 0, "plan never duplicated");
        assert!(stats.delayed > 0, "plan never delayed");
        assert_eq!(outcome.undelivered, 0, "exactly-once delivery leaked");
        // Every rank saw each peer message exactly once (rank 0 checked).
        let expect: f64 = (0..20u64)
            .map(|round| {
                (1..3)
                    .map(|p| (p * 100 + round as usize) as f64)
                    .sum::<f64>()
            })
            .sum();
        let results = outcome.into_results().expect("all ranks ok");
        assert_eq!(results[0], expect);
    }

    #[test]
    fn dropped_message_is_detected_by_deadline_not_hang() {
        use crate::fault::FaultPlan;
        let plan = Arc::new(FaultPlan::new(5).with_message_drops(1.0));
        let cfg = WorldConfig::new(2).with_faults(plan);
        let outcome = World::run_config(cfg, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![c(1.0)])?; // dropped on the wire
                Ok(0.0)
            } else {
                match comm.recv_timeout(0, 0, Duration::from_millis(40)) {
                    Err(KpmError::RankUnreachable { peer: 0, .. }) => Ok(1.0),
                    other => panic!("expected timeout, got {other:?}"),
                }
            }
        });
        assert!(outcome.all_ok());
        assert_eq!(outcome.undelivered, 0, "dropped messages are not leaks");
    }

    #[test]
    fn crash_point_kills_rank_and_peers_observe_it() {
        use crate::fault::FaultPlan;
        let plan = Arc::new(FaultPlan::new(1).with_rank_crash(1, 3));
        let cfg = WorldConfig::new(2).with_faults(plan);
        let outcome = World::run_config(cfg, |mut comm| {
            for iter in 0..10usize {
                comm.crash_point(iter)?;
                if comm.rank() == 0 {
                    match comm.recv_timeout(1, iter as u64, Duration::from_millis(200)) {
                        Ok(_) => {}
                        Err(KpmError::RankUnreachable { peer: 1, .. }) => {
                            return Ok(iter as f64); // detected the death
                        }
                        Err(e) => return Err(e),
                    }
                } else {
                    comm.send(0, iter as u64, vec![c(iter as f64)])?;
                }
            }
            Ok(f64::NAN)
        });
        assert!(
            matches!(outcome.results[1], Err(KpmError::RankCrashed { rank: 1 })),
            "rank 1 should have crashed: {:?}",
            outcome.results[1]
        );
        match &outcome.results[0] {
            Ok(iter) => assert!(*iter >= 3.0, "detected too early: {iter}"),
            other => panic!("rank 0 should detect the crash, got {other:?}"),
        }
    }

    #[test]
    fn world_leak_ledger_flags_unconsumed_messages() {
        let outcome = World::run_config(WorldConfig::new(2), |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 77, vec![c(1.0)])?; // never received
            }
            // Rank 1 must outlive the send: a send to a terminated rank
            // is an error, not a leak.
            comm.barrier();
            Ok(())
        });
        assert!(outcome.all_ok());
        assert_eq!(outcome.undelivered, 1, "leak went undetected");
    }
}
