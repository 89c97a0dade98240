//! A loom-style deterministic schedule explorer.
//!
//! A concurrent protocol is re-expressed as a handful of atomic
//! operations over virtual threads; the explorer then walks *every*
//! interleaving by depth-first search with state cloning and reports
//! the schedules on which no thread can run although some have not
//! finished (**deadlock**).
//!
//! The search is deterministic: a seeded LCG shuffles the choice order
//! (so different seeds walk the tree in different orders without
//! changing the set of leaves), and an optional preemption bound
//! restricts context switches the way loom's does.
//!
//! The op set is one blocking message pair, [`Op::Send`] and
//! [`Op::Recv`]; a protocol with other primitives grows it.

use std::collections::VecDeque;

/// One atomic operation of a virtual thread's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push a message with `tag` into thread `to`'s inbox.
    Send {
        /// Destination thread.
        to: usize,
        /// Message tag.
        tag: u32,
    },
    /// Blocking receive of the first inbox message with `tag`.
    Recv {
        /// Tag to match.
        tag: u32,
    },
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
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_interleavings: 100_000,
            preemption_bound: None,
            seed: 0x5eed_cafe,
        }
    }
}

/// A protocol violation found on some schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// No thread can run but some have not finished.
    Deadlock,
}

/// A violation plus the schedule (thread, op) steps that produced it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What went wrong.
    pub violation: Violation,
    /// The schedule as `thread<i>: <op>` strings, in execution order.
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
    /// Up to [`MAX_COUNTEREXAMPLES`] sample traces.
    pub counterexamples: Vec<Counterexample>,
}

impl Report {
    /// True when no invariant was violated on any explored schedule.
    pub fn clean(&self) -> bool {
        self.deadlocks == 0
    }
}

/// Cap on recorded counterexample traces (counters keep exact totals).
pub const MAX_COUNTEREXAMPLES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Msg {
    from: usize,
    tag: u32,
}

/// The full model state; cloned at each branch point.
#[derive(Debug, Clone)]
struct State {
    pc: Vec<usize>,
    inbox: Vec<VecDeque<Msg>>,
    last_thread: Option<usize>,
    preemptions: usize,
}

impl State {
    fn new(nthreads: usize) -> Self {
        State {
            pc: vec![0; nthreads],
            inbox: vec![VecDeque::new(); nthreads],
            last_thread: None,
            preemptions: 0,
        }
    }
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

    let mut runnable = runnable_threads(threads, state);
    if let Some(bound) = cfg.preemption_bound {
        // A switch away from a still-runnable previous thread is a
        // preemption; once at the bound, only non-preemptive choices
        // remain (the previous thread itself, or any thread when the
        // previous one is blocked/finished).
        if state.preemptions >= bound {
            if let Some(prev) = state.last_thread {
                if runnable.contains(&prev) {
                    runnable = vec![prev];
                }
            }
        }
    }

    if runnable.is_empty() {
        let done = state.pc.iter().zip(threads).all(|(&pc, p)| pc >= p.len());
        report.interleavings += 1;
        if !done {
            report.deadlocks += 1;
            if report.counterexamples.len() < MAX_COUNTEREXAMPLES {
                report.counterexamples.push(Counterexample {
                    violation: Violation::Deadlock,
                    trace: trace.clone(),
                });
            }
        }
        return;
    }

    // Seeded shuffle: the leaf set is order-independent, but different
    // seeds surface counterexamples from different regions first.
    let mut order: Vec<usize> = (0..runnable.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (lcg(rng) as usize) % (i + 1);
        order.swap(i, j);
    }

    for &ci in &order {
        let t = runnable[ci];
        let mut next = state.clone();
        if let Some(prev) = state.last_thread {
            if prev != t && runnable.contains(&prev) {
                next.preemptions += 1;
            }
        }
        let desc = step(threads, &mut next, t);
        trace.push(desc);
        dfs(threads, cfg, &mut next, trace, rng, report);
        trace.pop();
        if report.truncated {
            return;
        }
    }
}

/// The threads whose next op can run from `state`.
fn runnable_threads(threads: &[Vec<Op>], state: &State) -> Vec<usize> {
    let mut out = Vec::new();
    for (t, prog) in threads.iter().enumerate() {
        let runnable = match prog.get(state.pc[t]) {
            None => false,
            Some(Op::Send { .. }) => true,
            Some(Op::Recv { tag }) => state.inbox[t].iter().any(|m| m.tag == *tag),
        };
        if runnable {
            out.push(t);
        }
    }
    out
}

/// Executes thread `t`'s next op and returns its trace line.
fn step(threads: &[Vec<Op>], state: &mut State, t: usize) -> String {
    let op = threads[t][state.pc[t]];
    state.pc[t] += 1;
    state.last_thread = Some(t);
    match op {
        Op::Send { to, tag } => {
            state.inbox[to].push_back(Msg { from: t, tag });
            format!("thread{t}: send(to={to}, tag={tag})")
        }
        Op::Recv { tag } => {
            // runnable_threads guarantees a matching message is queued.
            let inbox = &mut state.inbox[t];
            let from = inbox
                .iter()
                .position(|m| m.tag == tag)
                .and_then(|pos| inbox.remove(pos))
                .map_or(usize::MAX, |m| m.from);
            format!("thread{t}: recv(tag={tag}) -> from={from}")
        }
    }
}
