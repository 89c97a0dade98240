//! The service load: a seeded request schedule, a closed loop of
//! clients that each wait for a reply before sending the next request,
//! and the checks on what comes back.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use kpm_core::kernels::Kernel;
use kpm_service::{
    Admission, Curve, LedgerSnapshot, Outcome, QueryKind, ReplyStats, Request, Service,
    ServiceConfig, ShutdownMode,
};

use kpm_sparse::KpmMatrix;
use kpm_topo::ScaleFactors;

use crate::csv;
use crate::model;
use crate::stats;

/// Random vectors per DOS / Green request, energy points per reply.
pub const NUM_RANDOM: usize = 2;
pub const POINTS: usize = 256;
/// Columns an LDOS request contributes: the four orbitals of a site.
const LDOS_COLUMNS: usize = 4;
/// 30 % of requests draw their seed or site from a hot set of 8.
const HOT_SET: u64 = 8;
const HOT_PER_MILLE: u64 = 300;
/// 60 % DOS, 25 % LDOS, 15 % Green.
const DOS_PER_MILLE: u64 = 600;
const LDOS_PER_MILLE: u64 = 250;
/// More requests per client than any run reaches: 600 s at the rate
/// measured on the 2-vCPU host the benchmark was sized on.
pub const PLAN_PER_CLIENT: usize = 40_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    pub kind: QueryKind,
    pub hot: bool,
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The request schedule of every client, a pure function of `seed`,
/// generated before the clock starts. Hot requests repeat one of 8
/// seeds (DOS, Green) or sites (LDOS); every other request is unique.
pub fn schedule(seed: u64, clients: usize, per_client: usize, sites: usize) -> Vec<Vec<Planned>> {
    assert!(sites as u64 > HOT_SET, "lattice too small for the hot set");
    let base = SplitMix(seed).next() >> 1;
    (0..clients)
        .map(|c| {
            let mut rng = SplitMix(seed ^ (c as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
            (0..per_client)
                .map(|i| {
                    let unique = (c * per_client + i) as u64;
                    let hot = rng.next() % 1000 < HOT_PER_MILLE;
                    let id = if hot {
                        rng.next() % HOT_SET
                    } else {
                        HOT_SET + unique
                    };
                    let roll = rng.next() % 1000;
                    let kind = if roll < DOS_PER_MILLE {
                        QueryKind::Dos {
                            seed: base + id,
                            num_random: NUM_RANDOM,
                        }
                    } else if roll < DOS_PER_MILLE + LDOS_PER_MILLE {
                        let site = if hot {
                            id
                        } else {
                            HOT_SET + unique % (sites as u64 - HOT_SET)
                        };
                        QueryKind::Ldos {
                            site: site as usize,
                        }
                    } else {
                        QueryKind::Green {
                            seed: base + id,
                            num_random: NUM_RANDOM,
                        }
                    };
                    Planned { kind, hot }
                })
                .collect()
        })
        .collect()
}

/// Two requests with equal keys run the same recurrence, so their
/// moments must be bitwise equal: DOS and Green share starting vectors.
fn moments_key(kind: QueryKind) -> (bool, u64) {
    match kind {
        QueryKind::Dos { seed, .. } | QueryKind::Green { seed, .. } => (false, seed),
        QueryKind::Ldos { site } => (true, site as u64),
    }
}

fn columns(kind: QueryKind) -> usize {
    match kind {
        QueryKind::Dos { num_random, .. } | QueryKind::Green { num_random, .. } => num_random,
        QueryKind::Ldos { .. } => LDOS_COLUMNS,
    }
}

/// FNV-1a over the bit patterns of the moments.
fn bits_hash(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One request as its client saw it.
pub struct Reply {
    pub client: usize,
    pub kind: QueryKind,
    pub hot: bool,
    pub start: Instant,
    pub latency_s: f64,
    /// `None` when the request was rejected or never answered.
    pub stats: Option<ReplyStats>,
    pub moments_hash: u64,
    /// Why this request counts as failed, if it does.
    pub failure: Option<String>,
}

pub struct Load {
    /// First submit to last reply.
    pub elapsed_s: f64,
    pub replies: Vec<Reply>,
    pub ledger: LedgerSnapshot,
}

/// Starts the service with its default configuration and registers the
/// workload's matrix.
pub fn start(matrix: KpmMatrix, sf: ScaleFactors) -> (Service, u64) {
    let svc = Service::start(ServiceConfig::default());
    let fp = svc.register_matrix(matrix, sf);
    (svc, fp)
}

fn request_once(svc: &Service, fp: u64, client: usize, plan: Planned, moments: usize) -> Reply {
    let start = Instant::now();
    let admission = svc.submit(Request {
        matrix: fp,
        kind: plan.kind,
        num_moments: moments,
        kernel: Kernel::Jackson,
        points: POINTS,
        deadline: None,
    });
    let response = match admission {
        Admission::Admitted(ticket) => ticket.wait().ok_or_else(|| "never answered".to_string()),
        Admission::Rejected { reason, .. } => Err(format!("rejected: {reason:?}")),
    };
    let latency_s = start.elapsed().as_secs_f64();
    let mut reply = Reply {
        client,
        kind: plan.kind,
        hot: plan.hot,
        start,
        latency_s,
        stats: None,
        moments_hash: 0,
        failure: None,
    };
    match response {
        Err(why) => reply.failure = Some(why),
        Ok(response) => {
            reply.stats = Some(response.stats);
            match response.outcome {
                Outcome::Success(answer) => {
                    reply.moments_hash = bits_hash(answer.moments.as_slice());
                    if let Curve::Dos(curve) = &answer.curve {
                        reply.failure =
                            csv::check_curve(&curve.energies, &curve.values, POINTS, 1e-2).err();
                    }
                }
                Outcome::Degraded { info, .. } => {
                    reply.failure = Some(format!("degraded: {info:?}"))
                }
                Outcome::Failed(e) => reply.failure = Some(format!("failed: {e:?}")),
            }
        }
    }
    reply
}

/// Runs the closed loop until `budget` is used up, then drains the
/// service. Each client sends its next request only after the reply to
/// the previous one, so runnable threads stay at or below the clients
/// plus the service's own.
pub fn closed_loop(
    svc: Service,
    fp: u64,
    plan: &[Vec<Planned>],
    moments: usize,
    budget: Duration,
) -> Load {
    let t0 = Instant::now();
    let deadline = t0 + budget;
    let mut replies: Vec<Reply> = std::thread::scope(|scope| {
        let svc = &svc;
        let clients: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(c, requests)| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for &planned in requests {
                        if Instant::now() >= deadline {
                            break;
                        }
                        mine.push(request_once(svc, fp, c, planned, moments));
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let last_reply = replies
        .iter()
        .map(|r| r.start + Duration::from_secs_f64(r.latency_s))
        .max()
        .unwrap_or(t0);
    let ledger = svc.shutdown(ShutdownMode::Drain);
    replies.sort_by_key(|r| r.start);
    Load {
        elapsed_s: last_reply.duration_since(t0).as_secs_f64(),
        replies,
        ledger,
    }
}

impl Load {
    /// Failed requests, one line each (at most `cap`), plus the
    /// run-wide checks: ledger consistency and bitwise-equal moments
    /// for equal keys.
    pub fn failures(&self, cap: usize) -> (u64, Vec<String>) {
        let mut failed = 0u64;
        let mut lines = Vec::new();
        let mut note = |line: String| {
            if lines.len() < cap {
                lines.push(line);
            }
        };
        let mut first_hash: HashMap<(bool, u64), u64> = HashMap::new();
        for r in &self.replies {
            if let Some(why) = &r.failure {
                failed += 1;
                note(format!("{:?}: {why}", r.kind));
            } else if r.hot {
                let seen = *first_hash
                    .entry(moments_key(r.kind))
                    .or_insert(r.moments_hash);
                if seen != r.moments_hash {
                    failed += 1;
                    note(format!(
                        "{:?}: moments differ from an earlier reply to the same key",
                        r.kind
                    ));
                }
            }
        }
        if !self.ledger.consistent() {
            note(format!("ledger inconsistent: {:?}", self.ledger));
        }
        (failed, lines)
    }

    pub fn rps(&self) -> f64 {
        self.replies.len() as f64 / self.elapsed_s
    }

    /// Flops the answered requests asked for (computed; a cache hit
    /// counts in full, it delivered the same moments).
    pub fn requested_flops(&self, n: f64, nnz: f64, moments: usize) -> f64 {
        self.replies
            .iter()
            .filter(|r| r.failure.is_none())
            .map(|r| model::solve_flops(n, nnz, columns(r.kind) as f64, moments))
            .sum()
    }

    pub fn latencies_ms_sorted(&self) -> Vec<f64> {
        stats::sorted(
            &self
                .replies
                .iter()
                .map(|r| r.latency_s * 1e3)
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_different_seed_different_schedule() {
        let a = schedule(2015, 4, 500, 864);
        assert_eq!(a, schedule(2015, 4, 500, 864));
        assert_ne!(a, schedule(2016, 4, 500, 864));
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn schedule_has_the_stated_mix_and_unique_cold_keys() {
        let plan = schedule(7, 4, 5000, 864);
        let all: Vec<Planned> = plan.into_iter().flatten().collect();
        let share = |f: &dyn Fn(&Planned) -> bool| {
            all.iter().filter(|p| f(p)).count() as f64 / all.len() as f64
        };
        assert!((share(&|p| p.hot) - 0.30).abs() < 0.02);
        assert!((share(&|p| matches!(p.kind, QueryKind::Dos { .. })) - 0.60).abs() < 0.02);
        assert!((share(&|p| matches!(p.kind, QueryKind::Ldos { .. })) - 0.25).abs() < 0.02);
        let mut hot_keys = std::collections::HashSet::new();
        let mut cold_seeds = std::collections::HashSet::new();
        for p in &all {
            match (p.hot, p.kind) {
                (true, kind) => {
                    hot_keys.insert(moments_key(kind));
                }
                (false, QueryKind::Dos { seed, .. } | QueryKind::Green { seed, .. }) => {
                    assert!(cold_seeds.insert(seed), "cold seed {seed} repeats");
                }
                (false, QueryKind::Ldos { site }) => assert!((8..864).contains(&site)),
            }
        }
        assert_eq!(hot_keys.len(), 16, "8 hot seeds and 8 hot sites");
        assert!(hot_keys.iter().all(|k| !cold_seeds.contains(&k.1) || k.0));
    }

    #[test]
    fn bits_hash_sees_a_one_ulp_change() {
        let a: [f64; 3] = [1.0, 0.5, -0.25];
        let mut b = a;
        b[2] = f64::from_bits(b[2].to_bits() + 1);
        assert_ne!(bits_hash(&a), bits_hash(&b));
        assert_eq!(bits_hash(&a), bits_hash(&[1.0, 0.5, -0.25]));
    }
}
