//! Tier-1 crash-recovery and guardrail suite for the single-process
//! solver.
//!
//! A crash injected into a checkpointed run must be survived by resuming
//! from the newest consistent checkpoint, with the resumed moments
//! bitwise those of an uninterrupted run; a damaged checkpoint file must
//! make discovery fall back to an older consistent state; and scale
//! factors that do not cover the spectrum must stop the recurrence with
//! a typed error instead of handing out garbage moments.

use kpm_repro::core::checkpoint::{latest_consistent, MemoryCheckpointStore};
use kpm_repro::core::solver::{
    kpm_moments, kpm_moments_checkpointed, KpmParams, KpmVariant, SolverCheckpointing,
};
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
