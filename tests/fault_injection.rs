//! Tier-1 fault-injection and recovery suite.
//!
//! Exercises the resilience contract end to end: lossless message faults
//! (duplication, delay) must not change a single bit of the Chebyshev
//! moments; a rank crash mid-run must be survived via checkpoint/restart
//! with the recovered moments matching an uninterrupted run; and failure
//! detection (receive deadlines, stash bounds, spectral guardrails) must
//! produce typed errors instead of hangs or panics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kpm_repro::core::checkpoint::{latest_consistent, MemoryCheckpointStore};
use kpm_repro::core::solver::{
    kpm_moments, kpm_moments_checkpointed, KpmParams, KpmVariant, SolverCheckpointing,
};
use kpm_repro::hetsim::dist::{
    distributed_kpm, distributed_kpm_faulty, distributed_kpm_resilient, ResilienceConfig,
    RestartStrategy,
};
use kpm_repro::hetsim::{FaultPlan, World, WorldConfig};
use kpm_repro::num::{Complex64, KpmError};
use kpm_repro::topo::model::random_hermitian;
use kpm_repro::topo::{ScaleFactors, TopoHamiltonian};

fn params(m: usize, r: usize, seed: u64) -> KpmParams {
    KpmParams {
        num_moments: m,
        num_random: r,
        seed,
        parallel: false,
        threads: 0,
        power: 1,
        first_touch: false,
    }
}

/// Lossless faults (duplication + delay) leave the distributed moments
/// bitwise identical to the fault-free run — exactly-once delivery in
/// property-test form, swept over seeds.
#[test]
fn lossless_faults_preserve_moments_bitwise() {
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let p = params(16, 2, 1234);
    let clean = distributed_kpm(&h, sf, &p, &[1.0, 1.0, 1.0], false).unwrap();
    for fault_seed in 0..6u64 {
        let plan = Arc::new(
            FaultPlan::new(fault_seed)
                .with_message_duplication(0.4)
                .with_message_delays(0.4, Duration::from_millis(5)),
        );
        let faulty =
            distributed_kpm_faulty(&h, sf, &p, &[1.0, 1.0, 1.0], false, Some(Arc::clone(&plan)))
                .unwrap();
        assert_eq!(
            clean.moments.as_slice(),
            faulty.moments.as_slice(),
            "seed {fault_seed}: lossless faults changed the moments"
        );
        let s = plan.stats();
        assert!(
            s.duplicated + s.delayed > 0,
            "seed {fault_seed} injected nothing — test is vacuous"
        );
    }
}

/// The headline acceptance scenario: a rank crash at iteration M/2 in a
/// distributed DOS run is survived through checkpoint/restart, and the
/// recovered moments match the fault-free run to < 1e-10.
#[test]
fn rank_crash_at_half_m_recovers_via_checkpoint() {
    let h = random_hermitian(200, 4, 5);
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let p = params(32, 2, 99); // 15 sweeps
    let reference = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
    let crash_at = p.iterations() / 2;
    let plan = Arc::new(FaultPlan::new(7).with_rank_crash(1, crash_at));
    let store = MemoryCheckpointStore::new();
    let cfg = ResilienceConfig {
        checkpoint_interval: 3,
        recv_timeout: Duration::from_millis(500),
        max_restarts: 2,
        restart: RestartStrategy::SameRanks,
    };
    let res = distributed_kpm_resilient(&h, sf, &p, &[1.0, 1.0], Some(plan), &cfg, &store)
        .expect("crash must be survived");
    assert_eq!(res.restarts, 1);
    assert!(
        !res.resumed_from.is_empty() && res.resumed_from[0] > 0,
        "restarted from scratch"
    );
    let diff = reference.max_abs_diff(&res.report.moments);
    assert!(diff < 1e-10, "recovered moments diverged by {diff}");
}

/// A receive aimed at a crashed peer returns a typed timeout error
/// within (roughly) the configured deadline instead of hanging.
#[test]
fn recv_on_crashed_peer_times_out_within_deadline() {
    let deadline = Duration::from_millis(150);
    let outcome = World::run_config(
        WorldConfig::new(2).with_faults(Arc::new(FaultPlan::new(0).with_rank_crash(1, 0))),
        |mut comm| {
            if comm.rank() == 1 {
                comm.crash_point(0)?;
                unreachable!("rank 1 is scheduled to crash at iteration 0");
            }
            let t0 = Instant::now();
            let err = comm
                .recv_timeout(1, 42, deadline)
                .expect_err("rank 1 is dead; recv must fail");
            let waited = t0.elapsed();
            assert!(
                matches!(
                    err,
                    KpmError::RankUnreachable {
                        peer: 1,
                        tag: 42,
                        ..
                    }
                ),
                "{err:?}"
            );
            assert!(
                waited >= deadline,
                "returned before the deadline: {waited:?}"
            );
            assert!(
                waited < deadline + Duration::from_secs(2),
                "deadline overshot: {waited:?}"
            );
            Ok(0u8)
        },
    );
    assert!(matches!(
        outcome.results[1],
        Err(KpmError::RankCrashed { rank: 1 })
    ));
    assert!(outcome.results[0].is_ok());
}

/// Checkpoint write → crash → resume on the shared-memory solver
/// reproduces the uninterrupted moments to < 1e-12 (bitwise, in fact),
/// and the store only retains consistent restart points.
#[test]
fn checkpoint_crash_resume_roundtrip() {
    use kpm_repro::core::checkpoint::CheckpointStore as _;

    let h = random_hermitian(120, 4, 17);
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let p = params(48, 3, 4321); // 23 sweeps
    let straight = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();

    let store = MemoryCheckpointStore::new();
    let crashing = SolverCheckpointing {
        store: &store,
        interval: 4,
        crash_at: Some(p.iterations() / 2),
    };
    let err =
        kpm_moments_checkpointed(&h, sf, &p, &crashing).expect_err("injected crash must surface");
    assert!(matches!(err, KpmError::RankCrashed { .. }), "{err:?}");
    let resume_at = latest_consistent(&store, h.nrows())
        .unwrap()
        .expect("a checkpoint must exist before the crash");
    assert!(resume_at > 0 && resume_at <= p.iterations() / 2);

    // Second call resumes from the stored state (crash_at only fires on
    // fresh runs) and must agree with the uninterrupted solve.
    let resumed = kpm_moments_checkpointed(&h, sf, &p, &crashing).unwrap();
    let diff = straight.max_abs_diff(&resumed);
    assert!(diff < 1e-12, "resume drifted by {diff}");

    // A crash point off the interval grid: before each sweep the solver
    // first saves (on a boundary it swept up to), then crashes — so
    // sweep 7 is never run, the store holds exactly the states after 3
    // and 6 sweeps, and the resume reproduces the uninterrupted bits.
    let store = MemoryCheckpointStore::new();
    let off_grid = SolverCheckpointing {
        store: &store,
        interval: 3,
        crash_at: Some(7),
    };
    let err = kpm_moments_checkpointed(&h, sf, &p, &off_grid).expect_err("injected crash");
    assert!(matches!(err, KpmError::RankCrashed { .. }), "{err:?}");
    assert_eq!(store.eta_iterations().unwrap(), [3, 6]);
    assert_eq!(latest_consistent(&store, h.nrows()).unwrap(), Some(6));
    let resumed = kpm_moments_checkpointed(&h, sf, &p, &off_grid).unwrap();
    assert_eq!(straight.as_slice(), resumed.as_slice(), "not bitwise equal");
}

/// A corrupt checkpoint file — a truncated write or garbage bytes under
/// a checkpoint name — must not abort restart discovery:
/// `latest_consistent` skips the damaged record, lets the tiling check
/// disqualify the iteration, and falls back to the previous consistent
/// state. Direct loads still surface the damage as a typed error.
#[test]
fn corrupt_checkpoint_files_fall_back_to_older_consistent_state() {
    use kpm_repro::core::checkpoint::{
        CheckpointStore, DirCheckpointStore, EtaCheckpoint, RankCheckpoint,
    };

    let dir = std::env::temp_dir().join(format!("kpm-fault-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DirCheckpointStore::new(&dir).expect("create store");
    let n = 20usize;
    let width = 2usize;
    let save_full = |iteration: usize| {
        for rank in 0..2usize {
            let rows = n / 2;
            let begin = rank * rows;
            store
                .save_rank(&RankCheckpoint {
                    iteration,
                    rank,
                    row_begin: begin,
                    row_end: begin + rows,
                    width,
                    halo_sent: 0,
                    v: vec![Complex64::real(1.0); rows * width],
                    w: vec![Complex64::real(2.0); rows * width],
                })
                .expect("save rank");
        }
        store
            .save_eta(&EtaCheckpoint {
                iteration,
                width,
                eta: vec![Complex64::real(0.5); EtaCheckpoint::expected_len(iteration, width)],
            })
            .expect("save eta");
    };
    save_full(4);
    save_full(8);
    assert_eq!(latest_consistent(&store, n).unwrap(), Some(8));

    // Truncate one rank record of the newest iteration: its tiling of
    // 0..n breaks, so discovery falls back to 4 instead of erroring.
    let victim = dir.join("rank-00000008-0000.ckpt");
    let bytes = std::fs::read(&victim).expect("read victim");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate victim");
    assert_eq!(latest_consistent(&store, n).unwrap(), Some(4));

    // Direct loads still report the damage as typed corruption.
    let err = store
        .load_rank(8, 0)
        .expect_err("truncated record must decode to a typed error");
    assert!(matches!(err, KpmError::CheckpointCorrupt { .. }), "{err:?}");

    // Replace the η record at 4 with garbage: iteration 4 is
    // disqualified too and no consistent restart point remains.
    std::fs::write(dir.join("eta-00000004.ckpt"), b"not a checkpoint at all")
        .expect("write garbage");
    assert_eq!(latest_consistent(&store, n).unwrap(), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The out-of-order stash is bounded: a rank flooded with messages it
/// never consumes reports `StashOverflow` instead of growing without
/// limit.
#[test]
fn message_storm_hits_stash_bound() {
    let outcome = World::run_config(
        WorldConfig::new(2)
            .with_stash_capacity(8)
            .with_recv_timeout(Duration::from_millis(250)),
        |mut comm| {
            if comm.rank() == 0 {
                for tag in 0..32u64 {
                    comm.send(1, tag, vec![Complex64::real(tag as f64)])?;
                }
                return Ok(0usize);
            }
            // Rank 1 waits for a tag rank 0 never sends; the storm of
            // unconsumed tags must trip the stash bound first.
            match comm.recv(0, u64::MAX) {
                Err(KpmError::StashOverflow {
                    rank: 1,
                    capacity: 8,
                }) => Ok(1),
                other => panic!("expected stash overflow, got {other:?}"),
            }
        },
    );
    // Overflow is an application-visible error, not a world failure.
    assert!(outcome.results.iter().all(|r| r.is_ok()));
}

/// The numerical guardrail: feeding the solver a matrix scaled *outside*
/// [-1, 1] makes the Chebyshev recurrence blow up, which must surface as
/// a typed `SpectralBoundsViolated` (carrying the offending iteration)
/// rather than silent garbage or a panic.
#[test]
fn unscaled_spectrum_trips_divergence_guardrail() {
    let h = random_hermitian(96, 4, 23);
    // Deliberately wrong scale factors: pretend the spectrum fits in
    // [-0.05, 0.05] so the scaled operator has norm >> 1.
    let sf = ScaleFactors::from_bounds(-0.05, 0.05, 0.0);
    let p = params(64, 2, 5);
    let err = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv)
        .expect_err("divergent recurrence must be detected");
    match err {
        KpmError::SpectralBoundsViolated {
            iteration,
            value,
            bound,
        } => {
            assert!(iteration < p.iterations());
            assert!(value > bound);
        }
        KpmError::NonFinite { .. } => {} // overflow straight to inf is fine too
        other => panic!("expected a guardrail error, got {other:?}"),
    }
}

/// The guardrail is not delayed by the sweep's zero-skip arms (which,
/// unlike the four-product arm, would not turn an infinite `x` into a
/// NaN): with scale factors that undersize the spectrum — grossly, and
/// by a factor that lets the recurrence grow for 17 sweeps first —
/// streaming the CRS or matrix-free, at block widths on both sides of
/// the arms' threshold, the solver stops with `SpectralBoundsViolated`
/// at the iteration the commit before the arms stopped at (recorded
/// from a build of it), and so never hands out a moment set.
#[test]
fn undersized_scale_factors_trip_the_guardrail_at_the_parents_iteration() {
    use kpm_repro::sparse::KpmMatrix;
    let ham = TopoHamiltonian::quantum_dot_superlattice(5, 4, 6);
    let formats = [
        ("crs", KpmMatrix::crs(ham.assemble())),
        ("stencil", KpmMatrix::stencil(ham.stencil_matrix())),
    ];
    // (half-width the spectrum is claimed to fit in, the parent's
    // iteration).
    for (half, at) in [(0.05, 0), (4.5, 17)] {
        let sf = ScaleFactors::from_bounds(-half, half, 0.0);
        for r in [1, 8, 32] {
            for (name, m) in &formats {
                let err = kpm_moments(m, sf, &params(128, r, 5), KpmVariant::AugSpmmv)
                    .expect_err("divergent recurrence must be detected");
                match err {
                    KpmError::SpectralBoundsViolated { iteration, .. } => {
                        assert_eq!(iteration, at, "{name}, R = {r}, half-width {half}")
                    }
                    other => panic!("{name}, R = {r}, half-width {half}: {other:?}"),
                }
            }
        }
    }
}

/// Dropped (lossy) faults are *detected*: the run fails with a typed
/// timeout error instead of hanging, and the leak ledger accounts for
/// the vanished messages.
#[test]
fn lossy_faults_fail_loud_not_silent() {
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let p = params(16, 2, 1234);
    // Drop half of all messages; with halo exchanges every sweep this is
    // certain to hit quickly.
    let plan = Arc::new(FaultPlan::new(11).with_message_drops(0.5));
    let err = distributed_kpm_faulty(&h, sf, &p, &[1.0, 1.0], false, Some(plan))
        .expect_err("a lossy network must surface an error");
    assert!(
        matches!(
            err,
            KpmError::RankUnreachable { .. }
                | KpmError::SendFailed { .. }
                | KpmError::MessageLeak { .. }
        ),
        "{err:?}"
    );
}
