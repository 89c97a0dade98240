//! A loom-style deterministic schedule explorer for the hetsim
//! runtime model.
//!
//! The real `kpm-hetsim::runtime` spawns OS threads; its races cannot
//! be exhaustively tested by running it. This module re-expresses the
//! runtime's communication skeleton — channel send/recv (with
//! timeout), the out-of-order stash, the exactly-once dedup set, and
//! checkpoint version writes — as a handful of atomic operations over
//! virtual threads, then explores *every* interleaving by depth-first
//! search with state cloning, checking the protocol invariants at
//! each completed schedule:
//!
//! - **deadlock freedom**: some thread can always run until all are done;
//! - **no lost message**: every channel drains by the end;
//! - **exactly-once**: each `(from, seq)` pair sent is delivered
//!   exactly once, even when fault injection duplicates the send;
//! - **checkpoint monotonicity**: the persisted version never regresses.
//!
//! The search is deterministic: a seeded LCG shuffles the choice order
//! (so different seeds walk the tree in different orders without
//! changing the set of leaves), and an optional preemption bound
//! restricts context switches the way loom's does.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One atomic operation of a virtual thread's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push `(from, tag, seq)` into rank `to`'s inbox.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u32,
        /// Sequence number, the exactly-once key with the sender.
        seq: u64,
    },
    /// Blocking receive of the first inbox message with `tag`;
    /// delivers unconditionally (no dedup).
    Recv {
        /// Tag to match.
        tag: u32,
    },
    /// Receive with a timeout: if no matching message is queued the
    /// thread may take the timeout branch and move on. When a match
    /// *is* queued, both outcomes (deliver, spurious timeout) are
    /// explored, as in the real runtime where the message may arrive
    /// just after the deadline.
    RecvTimeout {
        /// Tag to match.
        tag: u32,
    },
    /// Blocking receive that runs the exactly-once filter: the
    /// message is consumed, but delivered only if `(from, seq)` was
    /// not seen before (when the dedup model is enabled).
    DedupRecv {
        /// Tag to match.
        tag: u32,
    },
    /// Push a copy of the thread's own `(tag, seq)` onto the shared
    /// out-of-order stash.
    StashPush {
        /// Message tag.
        tag: u32,
        /// Sequence number.
        seq: u64,
    },
    /// Pop one stashed entry (blocks while the stash is empty) and
    /// deliver it through the dedup filter.
    StashPop,
    /// Write `version` to the shared checkpoint register.
    CkptWrite {
        /// The version written.
        version: u64,
    },
    /// Read the shared checkpoint register.
    CkptRead,
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Stop after this many completed interleavings (the report's
    /// `truncated` flag records whether the budget was hit).
    pub max_interleavings: usize,
    /// loom-style bound on preemptive context switches per schedule;
    /// `None` explores all schedules.
    pub preemption_bound: Option<usize>,
    /// Seed for the choice-order shuffle.
    pub seed: u64,
    /// Model the runtime's `(from, seq)` dedup set. Disabling it
    /// models a runtime without exactly-once filtering, which the
    /// checker must catch as double delivery.
    pub model_dedup: bool,
    /// Assert every sent `(from, seq)` is delivered exactly once.
    pub check_exactly_once: bool,
    /// Assert all inboxes and the stash drain by the end.
    pub check_no_lost: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_interleavings: 100_000,
            preemption_bound: None,
            seed: 0x5eed_cafe,
            model_dedup: true,
            check_exactly_once: true,
            check_no_lost: true,
        }
    }
}

/// A protocol violation found on some schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// No thread can run but some have not finished.
    Deadlock,
    /// `(from, seq)` delivered more than once.
    DoubleDelivery {
        /// Sending rank.
        from: usize,
        /// Sequence number.
        seq: u64,
    },
    /// `(from, seq)` sent but never delivered, or left in a queue.
    LostMessage {
        /// Sending rank.
        from: usize,
        /// Sequence number.
        seq: u64,
    },
    /// The checkpoint register went backwards.
    VersionRegression {
        /// The version held before the write.
        prev: u64,
        /// The older version written over it.
        next: u64,
    },
}

/// A violation plus the schedule (thread, op) steps that produced it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What went wrong.
    pub violation: Violation,
    /// The schedule as `rank<i>: <op>` strings, in execution order.
    pub trace: Vec<String>,
}

/// Aggregate result of an exploration.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Completed schedules explored (including deadlocked ones).
    pub interleavings: usize,
    /// True when `max_interleavings` cut the search short.
    pub truncated: bool,
    /// Deadlocked schedules seen.
    pub deadlocks: usize,
    /// Schedules with a double delivery.
    pub double_deliveries: usize,
    /// Schedules with a lost message.
    pub lost_messages: usize,
    /// Checkpoint version regressions seen (counted per write).
    pub version_regressions: usize,
    /// Up to [`MAX_COUNTEREXAMPLES`] sample traces.
    pub counterexamples: Vec<Counterexample>,
}

impl Report {
    /// True when no invariant was violated on any explored schedule.
    pub fn clean(&self) -> bool {
        self.deadlocks == 0
            && self.double_deliveries == 0
            && self.lost_messages == 0
            && self.version_regressions == 0
    }
}

/// Cap on recorded counterexample traces (counters keep exact totals).
pub const MAX_COUNTEREXAMPLES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Msg {
    from: usize,
    tag: u32,
    seq: u64,
}

/// The full model state; cloned at each branch point.
#[derive(Debug, Clone)]
struct State {
    pc: Vec<usize>,
    inbox: Vec<VecDeque<Msg>>,
    stash: VecDeque<Msg>,
    dedup: BTreeSet<(usize, u64)>,
    delivered: BTreeMap<(usize, u64), u32>,
    sent: BTreeSet<(usize, u64)>,
    ckpt: u64,
    last_thread: Option<usize>,
    preemptions: usize,
}

impl State {
    fn new(nthreads: usize) -> Self {
        State {
            pc: vec![0; nthreads],
            inbox: vec![VecDeque::new(); nthreads],
            stash: VecDeque::new(),
            dedup: BTreeSet::new(),
            delivered: BTreeMap::new(),
            sent: BTreeSet::new(),
            ckpt: 0,
            last_thread: None,
            preemptions: 0,
        }
    }
}

/// One schedulable step: run thread `t`'s next op, or take its
/// timeout branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    Run(usize),
    Timeout(usize),
}

/// Explores every interleaving of `threads` under `cfg`.
pub fn explore(threads: &[Vec<Op>], cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut state = State::new(threads.len());
    let mut trace = Vec::new();
    let mut rng = cfg.seed | 1;
    dfs(threads, cfg, &mut state, &mut trace, &mut rng, &mut report);
    report
}

fn lcg(rng: &mut u64) -> u64 {
    // Numerical Recipes LCG; quality is irrelevant, determinism is not.
    *rng = rng
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *rng >> 33
}

fn dfs(
    threads: &[Vec<Op>],
    cfg: &Config,
    state: &mut State,
    trace: &mut Vec<String>,
    rng: &mut u64,
    report: &mut Report,
) {
    if report.interleavings >= cfg.max_interleavings {
        report.truncated = true;
        return;
    }

    let mut choices = enabled_choices(threads, state);
    if let Some(bound) = cfg.preemption_bound {
        // A switch away from a still-enabled previous thread is a
        // preemption; once at the bound, only non-preemptive choices
        // remain (the previous thread itself, or any thread when the
        // previous one is blocked/finished).
        if state.preemptions >= bound {
            if let Some(prev) = state.last_thread {
                let prev_enabled = choices.iter().any(|c| choice_thread(*c) == prev);
                if prev_enabled {
                    choices.retain(|c| choice_thread(*c) == prev);
                }
            }
        }
    }

    if choices.is_empty() {
        let done = state.pc.iter().zip(threads).all(|(&pc, p)| pc >= p.len());
        report.interleavings += 1;
        if !done {
            report.deadlocks += 1;
            record(report, Violation::Deadlock, trace);
        } else {
            check_leaf(cfg, state, trace, report);
        }
        return;
    }

    // Seeded shuffle: the leaf set is order-independent, but different
    // seeds surface counterexamples from different regions first.
    let mut order: Vec<usize> = (0..choices.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (lcg(rng) as usize) % (i + 1);
        order.swap(i, j);
    }

    for &ci in &order {
        let choice = choices[ci];
        let mut next = state.clone();
        let t = choice_thread(choice);
        if let Some(prev) = state.last_thread {
            if prev != t && choices.iter().any(|c| choice_thread(*c) == prev) {
                next.preemptions += 1;
            }
        }
        let desc = step(threads, cfg, &mut next, choice, report, trace);
        trace.push(desc);
        dfs(threads, cfg, &mut next, trace, rng, report);
        trace.pop();
        if report.truncated {
            return;
        }
    }
}

fn choice_thread(c: Choice) -> usize {
    match c {
        Choice::Run(t) | Choice::Timeout(t) => t,
    }
}

/// All steps some thread can take from `state`.
fn enabled_choices(threads: &[Vec<Op>], state: &State) -> Vec<Choice> {
    let mut out = Vec::new();
    for (t, prog) in threads.iter().enumerate() {
        let Some(op) = prog.get(state.pc[t]) else {
            continue;
        };
        match op {
            Op::Send { .. } | Op::CkptWrite { .. } | Op::CkptRead | Op::StashPush { .. } => {
                out.push(Choice::Run(t));
            }
            Op::Recv { tag } | Op::DedupRecv { tag } => {
                if state.inbox[t].iter().any(|m| m.tag == *tag) {
                    out.push(Choice::Run(t));
                }
            }
            Op::RecvTimeout { tag } => {
                if state.inbox[t].iter().any(|m| m.tag == *tag) {
                    out.push(Choice::Run(t));
                }
                // The timeout branch is always enabled: the deadline
                // can fire even when a message is queued.
                out.push(Choice::Timeout(t));
            }
            Op::StashPop => {
                if !state.stash.is_empty() {
                    out.push(Choice::Run(t));
                }
            }
        }
    }
    out
}

/// Executes one step and returns its trace line.
fn step(
    threads: &[Vec<Op>],
    cfg: &Config,
    state: &mut State,
    choice: Choice,
    report: &mut Report,
    trace: &[String],
) -> String {
    let t = choice_thread(choice);
    let op = threads[t][state.pc[t]];
    state.pc[t] += 1;
    state.last_thread = Some(t);

    if let Choice::Timeout(_) = choice {
        if let Op::RecvTimeout { tag } = op {
            return format!("rank{t}: recv_timeout(tag={tag}) -> timed out");
        }
    }

    match op {
        Op::Send { to, tag, seq } => {
            state.inbox[to].push_back(Msg { from: t, tag, seq });
            state.sent.insert((t, seq));
            format!("rank{t}: send(to={to}, tag={tag}, seq={seq})")
        }
        Op::Recv { tag } | Op::RecvTimeout { tag } => {
            let msg = take_matching(&mut state.inbox[t], tag);
            deliver(cfg, state, report, trace, msg, false);
            format!(
                "rank{t}: recv(tag={tag}) -> from={} seq={}",
                msg.from, msg.seq
            )
        }
        Op::DedupRecv { tag } => {
            let msg = take_matching(&mut state.inbox[t], tag);
            deliver(cfg, state, report, trace, msg, cfg.model_dedup);
            format!(
                "rank{t}: dedup_recv(tag={tag}) -> from={} seq={}",
                msg.from, msg.seq
            )
        }
        Op::StashPush { tag, seq } => {
            state.stash.push_back(Msg { from: t, tag, seq });
            state.sent.insert((t, seq));
            format!("rank{t}: stash_push(tag={tag}, seq={seq})")
        }
        Op::StashPop => {
            // enabled_choices guarantees the stash is non-empty.
            let msg = state.stash.pop_front().unwrap_or(Msg {
                from: t,
                tag: 0,
                seq: 0,
            });
            deliver(cfg, state, report, trace, msg, cfg.model_dedup);
            format!("rank{t}: stash_pop -> from={} seq={}", msg.from, msg.seq)
        }
        Op::CkptWrite { version } => {
            if version < state.ckpt {
                report.version_regressions += 1;
                record(
                    report,
                    Violation::VersionRegression {
                        prev: state.ckpt,
                        next: version,
                    },
                    trace,
                );
            }
            state.ckpt = version;
            format!("rank{t}: ckpt_write(version={version})")
        }
        Op::CkptRead => format!("rank{t}: ckpt_read -> {}", state.ckpt),
    }
}

/// Removes and returns the first inbox message with `tag`.
/// enabled_choices guarantees one exists.
fn take_matching(inbox: &mut VecDeque<Msg>, tag: u32) -> Msg {
    let pos = inbox.iter().position(|m| m.tag == tag).unwrap_or(0);
    inbox.remove(pos).unwrap_or(Msg {
        from: usize::MAX,
        tag,
        seq: u64::MAX,
    })
}

/// Runs the delivery path, applying the dedup filter when modeled.
fn deliver(
    cfg: &Config,
    state: &mut State,
    report: &mut Report,
    trace: &[String],
    msg: Msg,
    dedup: bool,
) {
    if dedup && !state.dedup.insert((msg.from, msg.seq)) {
        return; // duplicate filtered: consumed, not delivered
    }
    let count = state.delivered.entry((msg.from, msg.seq)).or_insert(0);
    *count += 1;
    if cfg.check_exactly_once && *count == 2 {
        report.double_deliveries += 1;
        record(
            report,
            Violation::DoubleDelivery {
                from: msg.from,
                seq: msg.seq,
            },
            trace,
        );
    }
}

/// Invariant checks on a fully completed schedule.
fn check_leaf(cfg: &Config, state: &State, trace: &[String], report: &mut Report) {
    if cfg.check_no_lost {
        let leftover = state
            .inbox
            .iter()
            .flat_map(|q| q.iter())
            .chain(state.stash.iter())
            .next()
            .copied();
        let undelivered = state
            .sent
            .iter()
            .find(|key| state.delivered.get(key).copied().unwrap_or(0) == 0);
        if let Some(m) = leftover {
            report.lost_messages += 1;
            record(
                report,
                Violation::LostMessage {
                    from: m.from,
                    seq: m.seq,
                },
                trace,
            );
        } else if let Some(&(from, seq)) = undelivered {
            report.lost_messages += 1;
            record(report, Violation::LostMessage { from, seq }, trace);
        }
    }
}

fn record(report: &mut Report, violation: Violation, trace: &[String]) {
    if report.counterexamples.len() < MAX_COUNTEREXAMPLES {
        report.counterexamples.push(Counterexample {
            violation,
            trace: trace.to_vec(),
        });
    }
}

// ---------------------------------------------------------------------
// Standard models of the hetsim runtime protocol.
// ---------------------------------------------------------------------

/// Tag used for moment-exchange messages in the standard models.
pub const TAG_MOMENTS: u32 = 1;

/// The 2-rank exactly-once model: rank 0 sends `n_msgs` sequenced
/// messages to rank 1 (fault injection duplicates `dup_seq` when
/// given, as the real runtime's resend path does), rank 1 consumes
/// every physical copy through the dedup filter.
pub fn two_rank_dedup_model(n_msgs: u64, dup_seq: Option<u64>) -> Vec<Vec<Op>> {
    let mut sender = Vec::new();
    for seq in 0..n_msgs {
        sender.push(Op::Send {
            to: 1,
            tag: TAG_MOMENTS,
            seq,
        });
        if dup_seq == Some(seq) {
            sender.push(Op::Send {
                to: 1,
                tag: TAG_MOMENTS,
                seq,
            });
        }
    }
    let receiver = vec![Op::DedupRecv { tag: TAG_MOMENTS }; sender.len()];
    vec![sender, receiver]
}

/// The 3-rank pipeline: rank 0 and rank 1 each send two sequenced
/// messages to rank 2 (rank 1's first is duplicated), rank 2 consumes
/// all five physical copies through the dedup filter and checkpoints
/// after each logical delivery round.
pub fn three_rank_pipeline_model() -> Vec<Vec<Op>> {
    let r0 = vec![
        Op::Send {
            to: 2,
            tag: TAG_MOMENTS,
            seq: 0,
        },
        Op::Send {
            to: 2,
            tag: TAG_MOMENTS,
            seq: 1,
        },
    ];
    let r1 = vec![
        Op::Send {
            to: 2,
            tag: TAG_MOMENTS,
            seq: 10,
        },
        Op::Send {
            to: 2,
            tag: TAG_MOMENTS,
            seq: 10,
        }, // injected duplicate
        Op::Send {
            to: 2,
            tag: TAG_MOMENTS,
            seq: 11,
        },
    ];
    let r2 = vec![
        Op::DedupRecv { tag: TAG_MOMENTS },
        Op::DedupRecv { tag: TAG_MOMENTS },
        Op::CkptWrite { version: 1 },
        Op::DedupRecv { tag: TAG_MOMENTS },
        Op::DedupRecv { tag: TAG_MOMENTS },
        Op::DedupRecv { tag: TAG_MOMENTS },
        Op::CkptWrite { version: 2 },
    ];
    vec![r0, r1, r2]
}

/// A deadlocking protocol: both ranks receive before sending.
pub fn deadlock_model() -> Vec<Vec<Op>> {
    let r0 = vec![
        Op::Recv { tag: TAG_MOMENTS },
        Op::Send {
            to: 1,
            tag: TAG_MOMENTS,
            seq: 0,
        },
    ];
    let r1 = vec![
        Op::Recv { tag: TAG_MOMENTS },
        Op::Send {
            to: 0,
            tag: TAG_MOMENTS,
            seq: 0,
        },
    ];
    vec![r0, r1]
}

/// A lossy protocol: the receiver polls with a timeout and gives up,
/// so schedules exist where the message is never consumed.
pub fn lost_message_model() -> Vec<Vec<Op>> {
    let r0 = vec![Op::Send {
        to: 1,
        tag: TAG_MOMENTS,
        seq: 0,
    }];
    let r1 = vec![Op::RecvTimeout { tag: TAG_MOMENTS }];
    vec![r0, r1]
}

/// Two ranks racing unguarded checkpoint writes: rank 0 writes
/// versions 1 then 2, rank 1 writes version 3; interleavings exist
/// where the register regresses from 3 to 1.
pub fn racing_checkpoint_model() -> Vec<Vec<Op>> {
    let r0 = vec![Op::CkptWrite { version: 1 }, Op::CkptWrite { version: 2 }];
    let r1 = vec![Op::CkptWrite { version: 3 }];
    vec![r0, r1]
}
