//! Bitwise reproducibility of the solver under shared-memory
//! parallelism.
//!
//! The parallel kernels pin their reduction-tree boundaries to fixed,
//! caller-chosen chunk sizes — never to the thread count or to which
//! member of the pool's team happened to claim a range. These tests are the
//! contract: the moments of a KPM run are *bitwise identical* for any
//! worker-thread count and across repeated runs, for every solver
//! variant. `assert_eq!` on `f64` slices is deliberate; a 1-ulp
//! difference is a failure.

use kpm_repro::core::solver::{kpm_moments, KpmParams, KpmVariant};
use kpm_repro::topo::{ScaleFactors, TopoHamiltonian};

fn params(threads: usize) -> KpmParams {
    KpmParams {
        num_moments: 64,
        num_random: 6,
        seed: 20150527, // IPDPS 2015
        parallel: true,
        threads,
        power: 1,
        first_touch: false,
    }
}

fn moments_at(threads: usize, variant: KpmVariant) -> Vec<f64> {
    let h = TopoHamiltonian::clean(4, 4, 3).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    kpm_moments(&h, sf, &params(threads), variant)
        .expect("solver run")
        .into_vec()
}

#[test]
fn moments_bitwise_identical_across_thread_counts() {
    for variant in [KpmVariant::Naive, KpmVariant::AugSpmv, KpmVariant::AugSpmmv] {
        let baseline = moments_at(1, variant);
        assert!(baseline.iter().all(|m| m.is_finite()));
        for threads in [2usize, 4, 8] {
            let got = moments_at(threads, variant);
            assert_eq!(baseline, got, "{variant:?} differs at {threads} threads");
        }
    }
}

#[test]
fn moments_bitwise_identical_across_repeated_runs() {
    // Same thread count, repeated runs: which thread claims which range
    // off the pool's cursor differs from run to run, the moments must
    // not see it.
    for variant in [KpmVariant::AugSpmv, KpmVariant::AugSpmmv] {
        let first = moments_at(4, variant);
        for _ in 0..3 {
            assert_eq!(first, moments_at(4, variant), "{variant:?} is not stable");
        }
    }
}

#[test]
fn parallel_matches_serial_kernels_bitwise() {
    // The parallel kernels run the same per-chunk arithmetic as their
    // serial twins, and the cross-chunk reductions are pinned to the
    // same fixed boundaries — so even `parallel: false` agrees exactly
    // for the fused variants.
    let h = TopoHamiltonian::clean(4, 4, 3).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    for variant in [KpmVariant::AugSpmv, KpmVariant::AugSpmmv] {
        let serial = kpm_moments(
            &h,
            sf,
            &KpmParams {
                parallel: false,
                ..params(0)
            },
            variant,
        )
        .expect("serial run")
        .into_vec();
        let parallel = moments_at(4, variant);
        assert_eq!(serial, parallel, "{variant:?} parallel != serial");
    }
}

#[test]
fn checkpointed_solver_is_thread_count_invariant() {
    use kpm_repro::core::checkpoint::MemoryCheckpointStore;
    use kpm_repro::core::solver::{kpm_moments_checkpointed, SolverCheckpointing};

    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let mut baseline = None;
    for threads in [1usize, 4] {
        let store = MemoryCheckpointStore::new();
        let ckpt = SolverCheckpointing {
            store: &store,
            interval: 7,
            crash_at: None,
        };
        let set = kpm_moments_checkpointed(&h, sf, &params(threads), &ckpt)
            .expect("checkpointed run")
            .into_vec();
        match &baseline {
            None => baseline = Some(set),
            Some(b) => assert_eq!(b, &set, "checkpointed moments differ at {threads} threads"),
        }
    }
}

#[test]
fn stencil_and_crs_thread_grid_is_bitwise_identical() {
    // The acceptance grid of the matrix-free work: {crs, stencil} ×
    // {1, 2, 4, 8 threads} must all reproduce the plain CRS moments bit
    // for bit.
    use kpm_repro::sparse::KpmMatrix;
    let ham = TopoHamiltonian::clean(3, 3, 12);
    let h = ham.assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let baseline = kpm_moments(&h, sf, &params(1), KpmVariant::AugSpmmv)
        .expect("baseline run")
        .into_vec();

    let handles: Vec<(&str, KpmMatrix)> = vec![
        ("crs", KpmMatrix::crs(h.clone())),
        ("stencil", KpmMatrix::stencil(ham.stencil_matrix())),
    ];
    for (name, m) in &handles {
        for threads in [1usize, 2, 4, 8] {
            let got = kpm_moments(m, sf, &params(threads), KpmVariant::AugSpmmv)
                .expect("solver run")
                .into_vec();
            assert_eq!(baseline, got, "{name} moments differ at {threads} threads");
        }
    }
}

/// Serialises the tests that flip the process-wide `simd::set_enabled`
/// switch, so each arm of a comparison runs the body it names.
static SIMD_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn simd_toggle_grid_is_bitwise_identical() {
    // The lane dimension of the determinism contract: the AVX2 copy
    // of the sweep replays the scalar operation order per lane, so
    // toggling it at runtime — across formats and thread counts — must
    // reproduce the baseline CRS moments bit for bit. The switch selects between the baseline
    // and the AVX2 copy of the CRS and stencil sweep, so this is a real
    // comparison on any CPU with AVX2 (and says so when it is not).
    use kpm_repro::sparse::{simd, KpmMatrix};
    let _switch = SIMD_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    simd::set_enabled(true);
    if simd::active_lanes() == 1 {
        println!(
            "simd_toggle_grid: no AVX2 on this CPU — both arms run the baseline \
             copy, the vector comparison DID NOT RUN"
        );
    }
    let ham = TopoHamiltonian::clean(3, 3, 12);
    let h = ham.assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    simd::set_enabled(false);
    let baseline = kpm_moments(&h, sf, &params(1), KpmVariant::AugSpmmv)
        .expect("scalar baseline")
        .into_vec();
    // The sweep at the panel splits of the benchmark widths (8 = one
    // panel, 24 = three with mid-site tile edges, 32 = four) and at
    // width 1 — the chain both copies now compile — through the
    // blocked and the single-vector fused-dots entry points.
    let wide_params = |r: usize, threads: usize| KpmParams {
        num_moments: 16,
        num_random: r,
        ..params(threads)
    };
    let wide_baseline = [
        (1usize, KpmVariant::AugSpmmv),
        (1, KpmVariant::AugSpmv),
        (8, KpmVariant::AugSpmmv),
        (24, KpmVariant::AugSpmmv),
        (32, KpmVariant::AugSpmmv),
    ]
    .map(|(r, variant)| {
        let m = kpm_moments(&h, sf, &wide_params(r, 1), variant);
        (r, variant, m.expect("scalar baseline").into_vec())
    });

    let handles: Vec<(&str, KpmMatrix)> = vec![
        ("crs", KpmMatrix::crs(h.clone())),
        ("stencil", KpmMatrix::stencil(ham.stencil_matrix())),
    ];
    for simd_on in [false, true] {
        simd::set_enabled(simd_on);
        for (name, m) in &handles {
            for threads in [1usize, 4] {
                let got = kpm_moments(m, sf, &params(threads), KpmVariant::AugSpmmv)
                    .expect("solver run")
                    .into_vec();
                assert_eq!(
                    baseline, got,
                    "{name} differs with simd={simd_on} threads={threads}"
                );
                for (r, variant, want) in &wide_baseline {
                    let got = kpm_moments(m, sf, &wide_params(*r, threads), *variant)
                        .expect("solver run")
                        .into_vec();
                    assert_eq!(
                        want, &got,
                        "{name} {variant:?} differs at R={r} with simd={simd_on} threads={threads}"
                    );
                }
            }
        }
    }
    simd::set_enabled(true);
}

#[test]
fn simd_checkpoint_restart_is_bitwise_identical() {
    // Crash with the SIMD bodies enabled, resume with them disabled:
    // the checkpointed (v, w, η) state is bitwise, so a restart under a
    // different lane configuration must still reproduce the scalar
    // uninterrupted run exactly.
    use kpm_repro::core::checkpoint::MemoryCheckpointStore;
    use kpm_repro::core::solver::{kpm_moments_checkpointed, SolverCheckpointing};
    use kpm_repro::num::KpmError;
    use kpm_repro::sparse::simd;

    let _switch = SIMD_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    simd::set_enabled(false);
    let reference = kpm_moments(&h, sf, &params(1), KpmVariant::AugSpmmv)
        .expect("reference run")
        .into_vec();

    simd::set_enabled(true);
    let store = MemoryCheckpointStore::new();
    let ckpt = SolverCheckpointing {
        store: &store,
        interval: 5,
        crash_at: Some(12),
    };
    let err = kpm_moments_checkpointed(&h, sf, &params(2), &ckpt).expect_err("injected crash");
    assert!(matches!(err, KpmError::RankCrashed { .. }), "{err:?}");

    simd::set_enabled(false);
    let resumed = SolverCheckpointing {
        store: &store,
        interval: 5,
        crash_at: Some(12), // ignored on resume
    };
    let got = kpm_moments_checkpointed(&h, sf, &params(2), &resumed)
        .expect("resumed run")
        .into_vec();
    simd::set_enabled(true);
    assert_eq!(
        reference, got,
        "simd-crash / scalar-resume diverged from the scalar run"
    );
}
