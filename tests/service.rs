//! Tier-1 suite for the KPM service runtime.
//!
//! Covers the service contract end to end: batched block solves are
//! bitwise identical to the serial solver for any batch composition,
//! repeat queries answer from the moment cache, backpressure and
//! past-deadline rejections are typed and carry a `retry_after` hint,
//! overload and solve-deadline pressure degrade gracefully (explicit
//! annotation, quantified broadening penalty), and both shutdown modes
//! reply to every admitted request.

use std::time::Duration;

use kpm_repro::core::kernels::Kernel;
use kpm_repro::core::ldos::site_moments;
use kpm_repro::core::moments::MomentSet;
use kpm_repro::core::solver::{batch_lanes, moments_from_start, starting_vectors, KpmParams};
use kpm_repro::num::KpmError;
use kpm_repro::service::{
    Admission, Answer, ChaosPlan, Outcome, QueryKind, RejectReason, Request, Response, Service,
    ServiceConfig, ServiceError, ShutdownMode, Ticket,
};
use kpm_repro::sparse::{CrsMatrix, KpmMatrix};
use kpm_repro::topo::{ScaleFactors, TopoHamiltonian};

fn test_matrix() -> (CrsMatrix, ScaleFactors) {
    let h = TopoHamiltonian::clean(3, 3, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    (h, sf)
}

/// The serial ground truth for a trace query: accumulate
/// `moments_from_start` over the solver's own starting vectors.
fn serial_reference(h: &CrsMatrix, sf: ScaleFactors, seed: u64, r: usize, m: usize) -> MomentSet {
    let params = KpmParams {
        num_moments: m,
        num_random: r,
        seed,
        parallel: false,
        threads: 0,
        power: 1,
        first_touch: false,
    };
    let mut acc = MomentSet::zeros(m);
    for v in &starting_vectors(h.nrows(), &params) {
        acc.accumulate(&moments_from_start(h, sf, v, m, false).expect("serial solve"));
    }
    acc
}

fn answer_of(resp: &Response) -> &Answer {
    match &resp.outcome {
        Outcome::Success(a) => a,
        Outcome::Degraded { answer, .. } => answer,
        Outcome::Failed(e) => panic!("request {} failed: {e}", resp.id),
    }
}

fn submit_ok(svc: &Service, req: Request) -> Ticket {
    match svc.submit(req) {
        Admission::Admitted(t) => t,
        Admission::Rejected { reason, .. } => panic!("unexpected rejection: {reason:?}"),
    }
}

fn dos_request(fp: u64, seed: u64, num_random: usize, m: usize) -> Request {
    Request {
        matrix: fp,
        kind: QueryKind::Dos { seed, num_random },
        num_moments: m,
        kernel: Kernel::Jackson,
        points: 16,
        deadline: None,
    }
}

/// Batched block solves are bitwise the serial solver, for a batch
/// mixing DOS, LDOS and Green queries with different seeds, widths and
/// moment counts — the service's central correctness guarantee. The
/// four arrive while the one worker is held, so they ride in one block
/// of 2 + 1 + 4 + 1 columns, the widest batch the service seals.
#[test]
fn batched_answers_bitwise_match_serial_for_mixed_batches() {
    watchdog(|| {
        let (h, sf) = test_matrix();
        let sites = h.nrows() / 4;
        let (svc, holder_fp) = one_slow_worker(ServiceConfig::default());
        let fp = svc.register_matrix(KpmMatrix::crs(h.clone()), sf);
        // Seeds and site move with the key, so a repeated round answers
        // nothing from the cache.
        let site = |key: u64| (3 + key as usize) % sites;
        let (key, replies) =
            replies_to_requests_that_arrive_during_a_solve(&svc, holder_fp, 0..8, |key| {
                vec![
                    dos_request(fp, 1 + 8 * key, 2, 32),
                    dos_request(fp, 2 + 8 * key, 1, 16),
                    Request {
                        matrix: fp,
                        kind: QueryKind::Ldos { site: site(key) },
                        num_moments: 32,
                        kernel: Kernel::Jackson,
                        points: 16,
                        deadline: None,
                    },
                    Request {
                        matrix: fp,
                        kind: QueryKind::Green {
                            seed: 5 + 8 * key,
                            num_random: 1,
                        },
                        num_moments: 24,
                        kernel: Kernel::Lorentz(3.0),
                        points: 16,
                        deadline: None,
                    },
                ]
            });
        let [r_dos_a, r_dos_b, r_ldos, r_green] = &replies[..] else {
            panic!("four replies expected, got {}", replies.len());
        };
        let widths: Vec<usize> = replies.iter().map(|r| r.stats.batch_width).collect();
        assert_eq!(widths, [8, 8, 8, 8], "the four requests are one batch");

        assert_eq!(
            answer_of(r_dos_a).moments.as_slice(),
            serial_reference(&h, sf, 1 + 8 * key, 2, 32).as_slice(),
            "batched DOS moments differ from serial"
        );
        assert_eq!(
            answer_of(r_dos_b).moments.as_slice(),
            serial_reference(&h, sf, 2 + 8 * key, 1, 16).as_slice(),
            "mixed-M member differs from serial"
        );
        assert_eq!(
            answer_of(r_ldos).moments.as_slice(),
            site_moments(&h, sf, site(key), 32)
                .expect("serial ldos")
                .as_slice(),
            "batched LDOS moments differ from site_moments"
        );
        assert_eq!(
            answer_of(r_green).moments.as_slice(),
            serial_reference(&h, sf, 5 + 8 * key, 1, 24).as_slice(),
            "batched Green moments differ from serial"
        );

        let ledger = svc.shutdown(ShutdownMode::Drain);
        assert!(ledger.consistent(), "ledger must balance: {ledger:?}");
        // The round admits its holder and the four.
        assert_eq!(ledger.admitted, 5 * (key + 1));
    });
}

/// A repeat of an identical query answers from the moment cache —
/// bitwise the same moments, flagged as a cache hit, no second solve.
#[test]
fn repeat_queries_answer_from_the_moment_cache() {
    let (h, sf) = test_matrix();
    let svc = Service::start(ServiceConfig::default());
    let fp = svc.register_matrix(KpmMatrix::crs(h.clone()), sf);

    let first = submit_ok(&svc, dos_request(fp, 9, 1, 32))
        .wait()
        .expect("first");
    assert!(!first.stats.cache_hit);
    let second = submit_ok(&svc, dos_request(fp, 9, 1, 32))
        .wait()
        .expect("second");
    assert!(
        second.stats.cache_hit,
        "identical repeat must hit the cache"
    );
    assert_eq!(
        answer_of(&first).moments.as_slice(),
        answer_of(&second).moments.as_slice(),
        "cached answer must be bitwise the solved answer"
    );

    // A shorter repeat is served from the same entry (moment prefixes
    // are bitwise shorter runs); it is full quality, not degraded.
    let shorter = submit_ok(&svc, dos_request(fp, 9, 1, 16))
        .wait()
        .expect("shorter");
    assert!(shorter.stats.cache_hit && !shorter.is_degraded());
    assert_eq!(
        answer_of(&shorter).moments.as_slice(),
        &answer_of(&first).moments.as_slice()[..16],
    );
    svc.shutdown(ShutdownMode::Drain);
}

/// The benchmark's `svc_mixed` shape — the 3,456-row lattice, DOS and
/// Green queries of two random vectors, LDOS queries, hot keys asked
/// again — through the blocked initialisation: every solved column is
/// bitwise its own `moments_from_start` run, and a hot key's cached
/// reply carries bitwise the moments of its first, solved one.
#[test]
fn svc_mixed_shaped_solves_and_hot_keys_are_bitwise_the_serial_solver() {
    let h = TopoHamiltonian::clean(12, 12, 6).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let m = 32;
    let svc = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let fp = svc.register_matrix(KpmMatrix::crs(h.clone()), sf);
    let query = |kind: QueryKind| Request {
        kind,
        ..dos_request(fp, 0, 0, m)
    };
    let (dos, green) = (
        |seed| QueryKind::Dos {
            seed,
            num_random: 2,
        },
        |seed| QueryKind::Green {
            seed,
            num_random: 2,
        },
    );
    // One coalescing burst of the three routes, then the hot keys again.
    let kinds = [
        dos(1),
        dos(2),
        QueryKind::Ldos { site: 5 },
        green(7),
        dos(3),
        QueryKind::Ldos { site: 863 },
    ];
    let solved: Vec<Response> = (kinds.iter())
        .map(|kind| submit_ok(&svc, query(*kind)))
        .collect::<Vec<Ticket>>()
        .into_iter()
        .map(|t| t.wait().expect("reply"))
        .collect();
    for (kind, resp) in kinds.iter().zip(&solved) {
        let want = match *kind {
            QueryKind::Dos { seed, num_random } | QueryKind::Green { seed, num_random } => {
                serial_reference(&h, sf, seed, num_random, m)
            }
            QueryKind::Ldos { site } => site_moments(&h, sf, site, m).expect("serial ldos"),
        };
        assert!(
            !resp.stats.cache_hit,
            "{kind:?} is asked for the first time"
        );
        assert_eq!(
            answer_of(resp).moments.as_slice(),
            want.as_slice(),
            "{kind:?}"
        );
    }
    for hot in [0, 2, 3] {
        let again = submit_ok(&svc, query(kinds[hot])).wait().expect("reply");
        assert!(again.stats.cache_hit, "{:?} is a hot key", kinds[hot]);
        assert_eq!(
            answer_of(&again).moments.as_slice(),
            answer_of(&solved[hot]).moments.as_slice(),
            "{:?}",
            kinds[hot]
        );
    }
    assert!(svc.shutdown(ShutdownMode::Drain).consistent());
}

/// A CRS handle and a stencil handle of one lattice hash —
/// each lazily, on registration — to the same fingerprint: they
/// register as one matrix, requests naming either coalesce into one
/// block solve, and an answer solved on one is a cache hit for the
/// other.
#[test]
fn crs_and_stencil_handles_of_one_lattice_coalesce_and_share_the_cache() {
    watchdog(|| {
        let ham = TopoHamiltonian::clean(3, 3, 2);
        let (h, sf) = test_matrix();
        let (svc, holder_fp) = one_slow_worker(ServiceConfig::default());
        let fp_stencil = svc.register_matrix(KpmMatrix::stencil(ham.stencil_matrix()), sf);
        let fp_crs = svc.register_matrix(KpmMatrix::crs(h.clone()), sf);
        assert_eq!(fp_stencil, fp_crs, "one operator, one fingerprint");
        assert_eq!(fp_crs, h.content_fingerprint());

        // Submitted while the worker is held, one per handle name.
        let (key, replies) =
            replies_to_requests_that_arrive_during_a_solve(&svc, holder_fp, 0..8, |key| {
                vec![
                    dos_request(fp_stencil, 9 + 2 * key, 1, 32),
                    dos_request(fp_crs, 10 + 2 * key, 1, 32),
                ]
            });
        let (a, b) = (&replies[0], &replies[1]);
        assert_eq!((a.stats.batch_width, b.stats.batch_width), (2, 2));
        assert_eq!(
            answer_of(a).moments.as_slice(),
            serial_reference(&h, sf, 9 + 2 * key, 1, 32).as_slice(),
            "the registered (stencil) handle must solve to the CRS bits"
        );

        let again = submit_ok(&svc, dos_request(fp_crs, 9 + 2 * key, 1, 32))
            .wait()
            .expect("again");
        assert!(again.stats.cache_hit, "same key through the other name");
        assert_eq!(
            answer_of(&again).moments.as_slice(),
            answer_of(a).moments.as_slice()
        );
        svc.shutdown(ShutdownMode::Drain);
    });
}

/// A zero deadline is rejected at admission with a positive
/// `retry_after` hint, not admitted and doomed.
#[test]
fn past_deadline_requests_are_rejected_with_retry_after() {
    let (h, sf) = test_matrix();
    let svc = Service::start(ServiceConfig::default());
    let fp = svc.register_matrix(KpmMatrix::crs(h), sf);
    let mut req = dos_request(fp, 1, 1, 16);
    req.deadline = Some(Duration::ZERO);
    match svc.submit(req) {
        Admission::Rejected {
            retry_after,
            reason,
        } => {
            assert_eq!(reason, RejectReason::PastDeadline);
            assert!(retry_after > Duration::ZERO, "hint must be actionable");
        }
        Admission::Admitted(_) => panic!("zero-deadline request must be rejected"),
    }
    let ledger = svc.shutdown(ShutdownMode::Drain);
    assert_eq!(ledger.rejected, 1);
    assert!(ledger.consistent());
}

/// A full admission queue sheds load with typed `QueueFull` rejections
/// while every admitted request still gets its reply.
#[test]
fn queue_full_backpressure_is_explicit_and_lossless() {
    let (h, sf) = test_matrix();
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        chaos: Some(ChaosPlan::new(1).with_slow_solver(1.0, Duration::from_millis(10))),
        ..ServiceConfig::default()
    });
    let fp = svc.register_matrix(KpmMatrix::crs(h), sf);

    let mut tickets = Vec::new();
    let mut rejections = 0u64;
    for i in 0..30 {
        match svc.submit(dos_request(fp, i, 1, 8)) {
            Admission::Admitted(t) => tickets.push(t),
            Admission::Rejected {
                retry_after,
                reason,
            } => {
                assert_eq!(reason, RejectReason::QueueFull);
                assert!(retry_after > Duration::ZERO);
                rejections += 1;
            }
        }
    }
    assert!(
        rejections > 0,
        "a 30-burst against capacity 2 must shed load"
    );
    let admitted = tickets.len() as u64;
    for t in &tickets {
        assert!(
            t.wait_timeout(Duration::from_secs(30)).is_some(),
            "admitted request lost under backpressure"
        );
    }
    let ledger = svc.shutdown(ShutdownMode::Drain);
    assert_eq!(ledger.admitted, admitted);
    assert_eq!(ledger.rejected, rejections);
    assert!(ledger.consistent());
}

/// Runs `test` on a thread of its own and fails, instead of hanging,
/// when it has not finished after a minute (the pool tests' pattern): a
/// hand-off that loses a wake-up never finishes.
fn watchdog(test: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        test();
        let _ = done_tx.send(());
    });
    if done_rx.recv_timeout(Duration::from_secs(60))
        == Err(std::sync::mpsc::RecvTimeoutError::Timeout)
    {
        panic!("the service hung");
    }
    if let Err(payload) = runner.join() {
        std::panic::resume_unwind(payload);
    }
}

/// Sustained overload — one full-width request every 2 ms against one
/// worker that needs at least 20 ms per batch — is shed where the
/// bound is: requests wait in the admission queue until the worker can
/// start them, so the queue fills and rejects with a typed reason and a
/// hint, at most `queue_capacity + workers` admitted requests are ever
/// unanswered, nothing is hedged (no batch waits behind another) and no
/// admitted request fails on its deadline. (With batches sealed on
/// arrival and parked in an unbounded channel the same load admitted
/// 200 of 200, hedged 195 batches that had not started and failed 92.)
#[test]
fn sustained_overload_is_shed_at_the_admission_queue() {
    watchdog(|| {
        let (h, sf) = test_matrix();
        let (workers, queue_capacity) = (1, 4);
        let svc = Service::start(ServiceConfig {
            workers,
            queue_capacity,
            chaos: Some(ChaosPlan::new(5).with_slow_solver(1.0, Duration::from_millis(20))),
            ..ServiceConfig::default()
        });
        let fp = svc.register_matrix(KpmMatrix::crs(h), sf);

        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        let mut most_unanswered = 0;
        for seed in 0..200 {
            match svc.submit(dos_request(fp, seed, 8, 16)) {
                Admission::Admitted(t) => tickets.push(t),
                Admission::Rejected {
                    retry_after,
                    reason,
                } => {
                    assert_eq!(reason, RejectReason::QueueFull);
                    assert!(retry_after > Duration::ZERO, "hint must be actionable");
                    rejected += 1;
                }
            }
            let ledger = svc.ledger();
            most_unanswered = most_unanswered.max(ledger.admitted - ledger.replied);
            std::thread::sleep(Duration::from_millis(2));
        }
        println!(
            "overload: 200 requests, {} admitted, {rejected} rejected, at most {most_unanswered} unanswered",
            tickets.len()
        );
        assert!(rejected > 0, "ten times the worker's rate must shed load");
        assert!(
            most_unanswered <= (queue_capacity + workers) as u64,
            "{most_unanswered} admitted requests unanswered: something buffers behind the queue"
        );
        for t in &tickets {
            let resp = t
                .wait_timeout(Duration::from_secs(30))
                .expect("admitted request lost under overload");
            assert!(resp.is_answered(), "request {} failed: {resp:?}", resp.id);
        }
        let ledger = svc.shutdown(ShutdownMode::Drain);
        assert_eq!(ledger.admitted, tickets.len() as u64);
        assert_eq!(ledger.rejected, rejected);
        assert_eq!(ledger.hedged, 0, "no batch waits where a hedge can see it");
        assert!(ledger.consistent());
    });
}

/// A one-worker service built from `config`, every solve slowed by
/// 40 ms, with a small second matrix registered whose fingerprint
/// [`replies_to_requests_that_arrive_during_a_solve`] holds the worker
/// on.
fn one_slow_worker(config: ServiceConfig) -> (Service, u64) {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        chaos: Some(ChaosPlan::new(6).with_slow_solver(1.0, Duration::from_millis(40))),
        ..config
    });
    let other = TopoHamiltonian::clean(2, 2, 2).assemble();
    let holder_fp = svc.register_matrix(
        KpmMatrix::crs(other.clone()),
        ScaleFactors::from_gershgorin(&other, 0.01),
    );
    (svc, holder_fp)
}

/// Submits `held(key)` while the single worker is held by a (slowed)
/// solve on another matrix and returns `key` and the replies. A batch
/// is sealed only when a worker can start it, so everything submitted
/// before the holder's reply is delivered is still in the admission
/// queue when the worker comes free. A round in which the holder
/// answered before the last submit (a stalled test thread) proves
/// nothing and is repeated under the next key, so that nothing in it is
/// a cache hit.
fn replies_to_requests_that_arrive_during_a_solve(
    svc: &Service,
    holder_fp: u64,
    keys: std::ops::Range<u64>,
    held: impl Fn(u64) -> Vec<Request>,
) -> (u64, Vec<Response>) {
    for key in keys {
        let holder = submit_ok(svc, dos_request(holder_fp, key, 1, 16));
        // Apart in time: what joins them is the wait for the worker.
        let tickets: Vec<Ticket> = (held(key).into_iter())
            .map(|req| {
                std::thread::sleep(Duration::from_millis(2));
                submit_ok(svc, req)
            })
            .collect();
        let all_arrived_during_the_solve = holder.rx.try_recv().is_err();
        let replies = tickets
            .iter()
            .map(|t| t.wait().expect("reply"))
            .collect::<Vec<_>>();
        if all_arrived_during_the_solve {
            return (key, replies);
        }
    }
    panic!("in every round the holder answered before the last submit");
}

/// Late binding: requests that arrive while the worker is busy wait in
/// the admission queue and ride in one block — `Dos{R=2}`, `Ldos`,
/// `Dos{R=2}` as one batch of 8, `Dos{R=2}` + `Ldos` as one of 6 —
/// with every reply bitwise its serial reference, and `batch_width`
/// counting the requested columns, not the lanes the solver pads a
/// panel with (6 columns are swept on 8). Then a closed loop of four
/// clients in the benchmark's mix, whose coalescing `scripts/verify.sh`
/// prints.
#[test]
fn requests_that_arrive_during_a_solve_share_the_next_batch() {
    watchdog(|| {
        let (h, sf) = test_matrix();
        let sites = (h.nrows() / 4) as u64;
        let (svc, holder_fp) = one_slow_worker(ServiceConfig::default());
        let fp = svc.register_matrix(KpmMatrix::crs(h.clone()), sf);
        let m = 32;
        let ldos = |key: u64| Request {
            kind: QueryKind::Ldos {
                site: (key % sites) as usize,
            },
            ..dos_request(fp, 0, 0, m)
        };
        let moments_of = |r: &Response| {
            assert!(!r.stats.cache_hit);
            answer_of(r).moments.clone()
        };
        let ldos_reference =
            |key: u64| site_moments(&h, sf, (key % sites) as usize, m).expect("serial ldos");

        let (key, replies) =
            replies_to_requests_that_arrive_during_a_solve(&svc, holder_fp, 0..sites / 2, |key| {
                vec![
                    dos_request(fp, 2 * key, 2, m),
                    ldos(key),
                    dos_request(fp, 2 * key + 1, 2, m),
                ]
            });
        let widths: Vec<usize> = replies.iter().map(|r| r.stats.batch_width).collect();
        assert_eq!(widths, [8, 8, 8], "2 + 4 + 2 columns are one batch");
        let want = [
            serial_reference(&h, sf, 2 * key, 2, m),
            ldos_reference(key),
            serial_reference(&h, sf, 2 * key + 1, 2, m),
        ];
        for (reply, want) in replies.iter().zip(&want) {
            assert_eq!(moments_of(reply).as_slice(), want.as_slice());
        }

        let (key, replies) = replies_to_requests_that_arrive_during_a_solve(
            &svc,
            holder_fp,
            sites / 2..sites,
            |key| vec![dos_request(fp, 2 * key, 2, m), ldos(key)],
        );
        let widths: Vec<usize> = replies.iter().map(|r| r.stats.batch_width).collect();
        assert_eq!(
            widths,
            [6, 6],
            "six requested columns, swept on eight lanes"
        );
        assert_eq!(
            moments_of(&replies[0]).as_slice(),
            serial_reference(&h, sf, 2 * key, 2, m).as_slice()
        );
        assert_eq!(
            moments_of(&replies[1]).as_slice(),
            ldos_reference(key).as_slice()
        );
        assert!(svc.shutdown(ShutdownMode::Drain).consistent());
    });
    watchdog(closed_loop_coalescing);
}

/// Four clients, each sending its next request when the last is
/// answered, 60 % DOS / 25 % LDOS / 15 % Green with unique keys, on the
/// default configuration: prints how the service coalesced them.
fn closed_loop_coalescing() {
    let h = TopoHamiltonian::clean(6, 6, 4).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let sites = h.nrows() / 4;
    let svc = Service::start(ServiceConfig::default());
    let fp = svc.register_matrix(KpmMatrix::crs(h), sf);
    let (clients, per_client) = (4u64, 40u64);
    let replies: Vec<Response> = std::thread::scope(|scope| {
        let svc = &svc;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    (0..per_client)
                        .map(|i| {
                            let key = c * per_client + i;
                            let roll = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % 100;
                            let kind = match roll {
                                0..60 => QueryKind::Dos {
                                    seed: key,
                                    num_random: 2,
                                },
                                60..85 => QueryKind::Ldos {
                                    site: key as usize % sites,
                                },
                                _ => QueryKind::Green {
                                    seed: key,
                                    num_random: 2,
                                },
                            };
                            let req = Request {
                                kind,
                                ..dos_request(fp, 0, 0, 64)
                            };
                            submit_ok(svc, req).wait().expect("reply")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        (handles.into_iter())
            .flat_map(|h| h.join().expect("client"))
            .collect()
    });
    assert!(svc.shutdown(ShutdownMode::Drain).consistent());
    // The members of one batch share its solve time to the nanosecond.
    let mut batches = std::collections::BTreeMap::new();
    for r in replies.iter().filter(|r| !r.stats.cache_hit) {
        assert!(r.is_answered(), "{r:?}");
        batches.insert(r.stats.solve, r.stats.batch_width);
    }
    let columns: usize = batches.values().sum();
    let lanes: usize = batches.values().map(|&w| batch_lanes(w)).sum();
    println!(
        "closed loop: {} requests, {} batches, {:.2} columns per solved batch, {:.0} % of {lanes} lanes filled",
        replies.len(),
        batches.len(),
        columns as f64 / batches.len() as f64,
        100.0 * columns as f64 / lanes as f64,
    );
}

/// When the solve blows its deadline but the cache holds a shorter run
/// for the same query, the service degrades gracefully: the reply is a
/// valid truncated-`M` answer with `degraded: true` and the broadening
/// penalty quantified, bitwise equal to a serial run at the served `M`.
#[test]
fn solve_deadline_degrades_to_a_cached_shorter_answer() {
    let (h, sf) = test_matrix();
    let svc = Service::start(ServiceConfig {
        workers: 1,
        // Every solve attempt is slowed past the tight deadline below.
        chaos: Some(ChaosPlan::new(2).with_slow_solver(1.0, Duration::from_millis(40))),
        hedge_after: None,
        ..ServiceConfig::default()
    });
    let fp = svc.register_matrix(KpmMatrix::crs(h.clone()), sf);

    // Warm the cache at M=32 (the slow solver delays but the default
    // deadline absorbs it).
    let warm = submit_ok(&svc, dos_request(fp, 4, 1, 32))
        .wait()
        .expect("warm");
    assert!(!warm.is_degraded());

    // Now ask for M=64 with a deadline the injected slowdown must blow.
    let mut req = dos_request(fp, 4, 1, 64);
    req.deadline = Some(Duration::from_millis(25));
    let resp = submit_ok(&svc, req).wait().expect("degraded reply");
    match &resp.outcome {
        Outcome::Degraded { answer, info } => {
            assert!(info.from_cache);
            assert_eq!(info.requested_moments, 64);
            assert_eq!(info.served_moments, 32);
            assert!(info.extra_broadening > 0.0, "penalty must be quantified");
            assert_eq!(
                answer.moments.as_slice(),
                serial_reference(&h, sf, 4, 1, 32).as_slice(),
                "degraded answer must still be bitwise a serial run at the served M"
            );
        }
        other => panic!("expected a degraded cache answer, got {other:?}"),
    }
    let ledger = svc.shutdown(ShutdownMode::Drain);
    assert!(ledger.consistent());
    assert!(ledger.degraded >= 1);
}

/// Abort shutdown fails queued work fast — but every admitted request
/// still receives exactly one terminal reply before `shutdown` returns.
#[test]
fn abort_shutdown_replies_to_every_admitted_request() {
    let (h, sf) = test_matrix();
    let svc = Service::start(ServiceConfig {
        workers: 1,
        chaos: Some(ChaosPlan::new(3).with_slow_solver(1.0, Duration::from_millis(20))),
        ..ServiceConfig::default()
    });
    let fp = svc.register_matrix(KpmMatrix::crs(h), sf);
    let tickets: Vec<Ticket> = (0..8)
        .map(|i| submit_ok(&svc, dos_request(fp, i, 1, 16)))
        .collect();
    let ledger = svc.shutdown(ShutdownMode::Abort);
    assert_eq!(ledger.admitted, 8);
    assert!(
        ledger.consistent(),
        "abort must not lose replies: {ledger:?}"
    );
    for t in &tickets {
        let resp = t
            .wait_timeout(Duration::from_secs(5))
            .expect("terminal reply must be buffered before shutdown returns");
        // Exactly one reply per ticket.
        assert!(t.rx.try_recv().is_err());
        drop(resp);
    }
}

/// Structural garbage (unknown matrix, odd moment counts, out-of-range
/// sites) answers with typed errors through the normal reply path, so
/// the ledger stays uniform.
#[test]
fn invalid_requests_fail_typed_through_the_reply_path() {
    let (h, sf) = test_matrix();
    let svc = Service::start(ServiceConfig::default());
    let fp = svc.register_matrix(KpmMatrix::crs(h), sf);

    let unknown = submit_ok(&svc, dos_request(0xdead_beef, 1, 1, 16))
        .wait()
        .expect("typed reply");
    assert!(!unknown.is_answered());

    let mut odd = dos_request(fp, 1, 1, 15);
    odd.num_moments = 15;
    let odd_resp = submit_ok(&svc, odd).wait().expect("typed reply");
    assert!(!odd_resp.is_answered());

    let bad_site = submit_ok(
        &svc,
        Request {
            matrix: fp,
            kind: QueryKind::Ldos { site: 10_000 },
            num_moments: 16,
            kernel: Kernel::Jackson,
            points: 16,
            deadline: None,
        },
    )
    .wait()
    .expect("typed reply");
    assert!(!bad_site.is_answered());

    let ledger = svc.shutdown(ShutdownMode::Drain);
    assert_eq!(ledger.admitted, 3);
    assert!(ledger.consistent());
}

/// True when Linux must refuse one allocation of `bytes`: heuristic
/// (0) and strict (2) overcommit both refuse more than RAM + swap.
fn allocation_must_fail(bytes: u64) -> bool {
    let read = |p| std::fs::read_to_string(p).unwrap_or_default();
    let meminfo = read("/proc/meminfo");
    let kib = |key: &str| {
        meminfo.lines().find_map(|l| {
            let v = l.strip_prefix(key)?.trim().strip_suffix("kB")?;
            v.trim().parse::<u64>().ok()
        })
    };
    let strict_enough = matches!(read("/proc/sys/vm/overcommit_memory").trim(), "0" | "2");
    match (kib("MemTotal:"), kib("SwapTotal:")) {
        (Some(ram), Some(swap)) => strict_enough && (ram + swap) * 1024 < bytes,
        _ => false,
    }
}

/// A request whose fields size a buffer the host cannot allocate is
/// answered through the reply path with a typed error naming the field,
/// and the service keeps serving: sizes past `isize::MAX` bytes on any
/// host, and `kpm serve`'s `dos 1 99999999999 64` and
/// `dos 1 2 1000000000` wherever that allocation must fail.
#[test]
fn unallocatable_requests_fail_typed_naming_the_field() {
    let (h, sf) = test_matrix();
    let svc = Service::start(ServiceConfig::default());
    let fp = svc.register_matrix(KpmMatrix::crs(h.clone()), sf);
    let huge = (usize::MAX / 8) & !1;
    let mut cases = vec![
        (dos_request(fp, 1, huge, 64), "num_random"),
        (dos_request(fp, 1, 2, huge), "num_moments"),
        (
            Request {
                points: huge,
                ..dos_request(fp, 1, 2, 64)
            },
            "points",
        ),
    ];
    let entry = 16 * h.nrows() as u64;
    if allocation_must_fail(99_999_999_999 * entry) {
        cases.push((dos_request(fp, 1, 99_999_999_999, 64), "num_random"));
    }
    if allocation_must_fail(2 * 1_000_000_000 * 16) {
        cases.push((dos_request(fp, 1, 2, 1_000_000_000), "num_moments"));
    }
    let refused = cases.len() as u64;
    for (req, field) in cases {
        let resp = submit_ok(&svc, req).wait().expect("typed reply");
        match &resp.outcome {
            Outcome::Failed(ServiceError::Solver(KpmError::InvalidParams { what, .. })) => {
                assert_eq!(*what, field, "{resp:?}")
            }
            other => panic!("{field}: {other:?}"),
        }
    }
    let after = submit_ok(&svc, dos_request(fp, 3, 1, 16))
        .wait()
        .expect("reply");
    assert!(after.is_answered(), "{after:?}");
    let ledger = svc.shutdown(ShutdownMode::Drain);
    assert_eq!(ledger.admitted, refused + 1);
    assert!(ledger.consistent());
}
