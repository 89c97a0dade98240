//! Tier-1 chaos suite for the service runtime.
//!
//! Runs hundreds of seeded randomized schedules — random configs,
//! random request mixes, injected worker crashes, slow solves, queue
//! poisonings, deadline storms, and both shutdown modes — and asserts
//! the runtime's core invariants on every one:
//!
//! 1. every admitted request receives exactly one terminal reply
//!    (ledger `admitted == replied`, verified per-ticket too);
//! 2. rejections are typed and carry an actionable `retry_after`;
//! 3. the service shuts down cleanly (joins its threads; `shutdown`
//!    returning *is* the proof — a deadlock hangs the test);
//! 4. successful full-quality answers remain bitwise identical to the
//!    serial solver even while the chaos layer is crashing workers.

use std::time::Duration;

use kpm_repro::core::kernels::Kernel;
use kpm_repro::core::moments::MomentSet;
use kpm_repro::core::solver::{moments_from_start, starting_vectors, KpmParams};
use kpm_repro::service::{
    chaos::install_quiet_poison_hook, Admission, ChaosPlan, Outcome, QueryKind, Request, Service,
    ServiceConfig, ShutdownMode, Ticket,
};
use kpm_repro::sparse::{CrsMatrix, KpmMatrix};
use kpm_repro::topo::{ScaleFactors, TopoHamiltonian};

const SCHEDULES: u64 = 500;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Tiny deterministic schedule RNG (test-local; no external deps).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix(self.0);
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The fixed probe query present in every schedule; its full-quality
/// answers are checked bitwise against this serial reference.
fn probe_request(fp: u64) -> Request {
    Request {
        matrix: fp,
        kind: QueryKind::Dos {
            seed: 7,
            num_random: 1,
        },
        num_moments: 12,
        kernel: Kernel::Jackson,
        points: 8,
        deadline: None,
    }
}

fn probe_reference(h: &CrsMatrix, sf: ScaleFactors) -> MomentSet {
    let params = KpmParams {
        num_moments: 12,
        num_random: 1,
        seed: 7,
        parallel: false,
        threads: 0,
        power: 1,
        first_touch: false,
    };
    let mut acc = MomentSet::zeros(12);
    for v in &starting_vectors(h.nrows(), &params) {
        acc.accumulate(&moments_from_start(h, sf, v, 12, false).expect("serial probe"));
    }
    acc
}

fn random_config(rng: &mut Rng, schedule: u64) -> ServiceConfig {
    let chaos = ChaosPlan::new(schedule)
        .with_worker_crashes([0.0, 0.3, 0.7][rng.below(3) as usize])
        .with_slow_solver(
            [0.0, 0.4][rng.below(2) as usize],
            Duration::from_micros(200 + rng.below(800)),
        );
    let chaos = if rng.chance(0.3) {
        chaos.with_queue_poisoning(1 + rng.below(4))
    } else {
        chaos
    };
    let workers = 1 + rng.below(2) as usize;
    let queue_capacity = 2 + rng.below(6) as usize;
    let max_batch_width = [1, 4, 8][rng.below(3) as usize];
    // Drawn and discarded: the service lost its coalescing window, and
    // each schedule seed keeps drawing the configuration it always has.
    let _ = rng.below(300);
    ServiceConfig {
        workers,
        queue_capacity,
        max_batch_width,
        default_deadline: Duration::from_millis(500),
        max_retries: rng.below(3) as u32,
        backoff_base: Duration::from_micros(50),
        backoff_max: Duration::from_micros(500),
        hedge_after: if rng.chance(0.5) {
            Some(Duration::from_micros(200 + rng.below(2000)))
        } else {
            None
        },
        degrade_at_depth: 0.5,
        min_degraded_moments: 4,
        breaker_threshold: 1 + rng.below(3) as u32,
        breaker_cooldown: Duration::from_micros(200),
        cache_capacity: 8,
        seed: schedule,
        chaos: Some(chaos),
    }
}

fn random_request(rng: &mut Rng, fp: u64, i: u64) -> Request {
    let kind = match rng.below(3) {
        0 => QueryKind::Dos {
            seed: i,
            num_random: 1 + rng.below(2) as usize,
        },
        1 => QueryKind::Ldos {
            site: rng.below(8) as usize,
        },
        _ => QueryKind::Green {
            seed: i,
            num_random: 1,
        },
    };
    // A deadline storm: some requests carry budgets the injected
    // slowdowns all but guarantee to blow, some are instantly doomed.
    let deadline = match rng.below(4) {
        0 => Some(Duration::ZERO),
        1 => Some(Duration::from_micros(800)),
        _ => None,
    };
    Request {
        // Occasionally name a matrix nobody registered.
        matrix: if rng.chance(0.05) { fp ^ 1 } else { fp },
        kind,
        num_moments: 8 + 2 * rng.below(4) as usize,
        kernel: [Kernel::Jackson, Kernel::Dirichlet, Kernel::Lorentz(3.0)][rng.below(3) as usize],
        points: 8,
        deadline,
    }
}

/// The headline invariant, over hundreds of randomized chaos schedules:
/// no admitted request is ever lost, no schedule deadlocks, and the
/// arithmetic stays bitwise-serial whenever a full-quality answer is
/// produced.
#[test]
fn randomized_chaos_schedules_never_lose_an_admitted_request() {
    install_quiet_poison_hook();
    let h = TopoHamiltonian::clean(2, 2, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let reference = probe_reference(&h, sf);

    for schedule in 0..SCHEDULES {
        let mut rng = Rng(splitmix(
            schedule.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0xabcd,
        ));
        let svc = Service::start(random_config(&mut rng, schedule));
        let fp = svc.register_matrix(KpmMatrix::crs(h.clone()), sf);

        let mut tickets: Vec<Ticket> = Vec::new();
        let mut rejections = 0u64;
        let mut submit =
            |svc: &Service, req: Request, tickets: &mut Vec<Ticket>| match svc.submit(req) {
                Admission::Admitted(t) => tickets.push(t),
                Admission::Rejected { retry_after, .. } => {
                    assert!(
                        retry_after > Duration::ZERO,
                        "schedule {schedule}: rejection without an actionable hint"
                    );
                    rejections += 1;
                }
            };

        submit(&svc, probe_request(fp), &mut tickets);
        let extra = 2 + rng.below(5);
        for i in 0..extra {
            submit(&svc, random_request(&mut rng, fp, i), &mut tickets);
            if rng.chance(0.3) {
                std::thread::sleep(Duration::from_micros(rng.below(400)));
            }
        }

        let mode = if rng.chance(0.5) {
            ShutdownMode::Drain
        } else {
            ShutdownMode::Abort
        };
        // Invariant 3: shutdown returns (no deadlock) and joins cleanly.
        let ledger = svc.shutdown(mode);

        // Invariant 1: exactly one terminal reply per admitted ticket,
        // already buffered by the time shutdown returned.
        for t in &tickets {
            let resp = t
                .wait_timeout(Duration::from_secs(10))
                .unwrap_or_else(|| panic!("schedule {schedule}: admitted request lost"));
            assert!(
                t.rx.try_recv().is_err(),
                "schedule {schedule}: duplicate terminal reply"
            );
            // Invariant 4: full-quality probe answers stay bitwise.
            if resp.id == 1 {
                if let Outcome::Success(answer) = &resp.outcome {
                    assert_eq!(
                        answer.moments.as_slice(),
                        reference.as_slice(),
                        "schedule {schedule}: chaos changed the probe arithmetic"
                    );
                }
            }
        }
        assert_eq!(
            ledger.admitted,
            tickets.len() as u64,
            "schedule {schedule}: admitted count drifted"
        );
        assert_eq!(
            ledger.rejected, rejections,
            "schedule {schedule}: rejected count drifted"
        );
        assert!(
            ledger.consistent(),
            "schedule {schedule}: ledger imbalance {ledger:?}"
        );
    }
}
