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

/// Serialises the tests that move the process-wide `simd::set_cap`, so
/// each arm of a comparison runs the body it names.
static SIMD_CAP: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The sweep bodies this CPU executes, narrowest first — saying loudly
/// which comparisons cannot be made here instead of skipping them.
fn runnable_bodies(test: &str) -> Vec<kpm_repro::sparse::simd::Body> {
    use kpm_repro::sparse::simd::Body;
    let (run, missing): (Vec<Body>, Vec<Body>) = Body::ALL.iter().partition(|b| b.supported());
    for body in missing {
        println!(
            "{test}: this CPU does not execute the {} body — its comparison DOES NOT RUN",
            body.name()
        );
    }
    run
}

#[test]
fn simd_toggle_grid_is_bitwise_identical() {
    // The lane dimension of the determinism contract: every compiled
    // copy of the sweep (baseline, AVX2, AVX-512) replays the scalar
    // operation order per lane, so moving the cap at runtime — across
    // formats and thread counts — must reproduce the baseline CRS
    // moments bit for bit. The cap selects the copy of the CRS and
    // stencil sweep, so each arm is a real comparison on any CPU that
    // executes the body (and says so when it does not).
    use kpm_repro::sparse::simd::{self, Body};
    use kpm_repro::sparse::KpmMatrix;
    let _cap = SIMD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    let bodies = runnable_bodies("simd_toggle_grid");
    let ham = TopoHamiltonian::clean(3, 3, 12);
    let h = ham.assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    simd::set_cap(Body::Baseline);
    let baseline = kpm_moments(&h, sf, &params(1), KpmVariant::AugSpmmv)
        .expect("scalar baseline")
        .into_vec();
    // Every cut of a row into layout panels and two-panel passes: 8 =
    // one panel, 13 = 8 + 4 + 1, 16 = one AVX-512 pass, 17 = a pass and
    // a column, 24 = a pass and a panel (mid-site tile edges), 40 = two
    // passes and a panel — and width 1, the chain every copy compiles,
    // through the blocked and the single-vector fused-dots entry points.
    let wide_params = |r: usize, threads: usize| KpmParams {
        num_moments: 16,
        num_random: r,
        ..params(threads)
    };
    let blocked = [1usize, 2, 3, 7, 8, 13, 16, 17, 24, 32, 33, 40];
    let entry_points = blocked
        .iter()
        .map(|&r| (r, KpmVariant::AugSpmmv))
        .chain([(1, KpmVariant::AugSpmv)]);
    let wide_baseline: Vec<_> = entry_points
        .map(|(r, variant)| {
            let m = kpm_moments(&h, sf, &wide_params(r, 1), variant);
            (r, variant, m.expect("scalar baseline").into_vec())
        })
        .collect();

    let handles: Vec<(&str, KpmMatrix)> = vec![
        ("crs", KpmMatrix::crs(h.clone())),
        ("stencil", KpmMatrix::stencil(ham.stencil_matrix())),
    ];
    for body in bodies {
        simd::set_cap(body);
        assert_eq!(simd::wide().body(), body, "the cap picks the body");
        for (name, m) in &handles {
            for threads in [1usize, 2] {
                let got = kpm_moments(m, sf, &params(threads), KpmVariant::AugSpmmv)
                    .expect("solver run")
                    .into_vec();
                assert_eq!(
                    baseline, got,
                    "{name} differs on the {body:?} body, threads={threads}"
                );
                for (r, variant, want) in &wide_baseline {
                    let got = kpm_moments(m, sf, &wide_params(*r, threads), *variant)
                        .expect("solver run")
                        .into_vec();
                    assert_eq!(
                        want, &got,
                        "{name} {variant:?} differs at R={r} on the {body:?} body, threads={threads}"
                    );
                }
            }
        }
    }
    simd::set_cap(Body::Avx512);
}

#[test]
fn simd_checkpoint_restart_is_bitwise_identical() {
    // Crash under one sweep body, resume under another — every ordered
    // pair of the bodies this CPU executes: the checkpointed (v, w, η)
    // state is bitwise and its records are row-major whatever the
    // block's layout, so a restart under a different lane configuration
    // must still reproduce the baseline uninterrupted run exactly.
    use kpm_repro::core::checkpoint::MemoryCheckpointStore;
    use kpm_repro::core::solver::{kpm_moments_checkpointed, SolverCheckpointing};
    use kpm_repro::num::KpmError;
    use kpm_repro::sparse::simd::{self, Body};

    let _cap = SIMD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    let bodies = runnable_bodies("simd_checkpoint_restart");
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    // 13 columns: an 8-, a 4- and a 1-column panel in every record.
    let params = |threads| KpmParams {
        num_random: 13,
        ..params(threads)
    };
    simd::set_cap(Body::Baseline);
    let reference = kpm_moments(&h, sf, &params(1), KpmVariant::AugSpmmv)
        .expect("reference run")
        .into_vec();

    for &crashed in &bodies {
        for &resumed in &bodies {
            simd::set_cap(crashed);
            let store = MemoryCheckpointStore::new();
            let ckpt = SolverCheckpointing {
                store: &store,
                interval: 5,
                crash_at: Some(12), // ignored on resume
            };
            let err = kpm_moments_checkpointed(&h, sf, &params(2), &ckpt);
            let err = err.expect_err("injected crash");
            assert!(matches!(err, KpmError::RankCrashed { .. }), "{err:?}");

            simd::set_cap(resumed);
            let got = kpm_moments_checkpointed(&h, sf, &params(2), &ckpt)
                .expect("resumed run")
                .into_vec();
            assert_eq!(
                reference, got,
                "{crashed:?}-crash / {resumed:?}-resume diverged from the baseline run"
            );
        }
    }
    simd::set_cap(Body::Avx512);
}

#[test]
fn checkpoint_records_stay_row_major() {
    // The `v`/`w` records are documented as interleaved: entry (i, j)
    // at `i * R + j`. With split-panel blocks every round trip stays
    // green whichever order the record is in, so pin the order itself.
    use kpm_repro::core::checkpoint::{CheckpointStore, MemoryCheckpointStore};
    use kpm_repro::core::solver::starting_block;
    use kpm_repro::core::solver::{kpm_moments_checkpointed, SolverCheckpointing};
    use kpm_repro::sparse::SparseKernels;

    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let n = h.nrows();
    for r in [3usize, 8, 13] {
        let p = KpmParams {
            num_random: r,
            ..params(1)
        };
        let store = MemoryCheckpointStore::new();
        let ckpt = SolverCheckpointing {
            store: &store,
            interval: 1,
            crash_at: Some(2),
        };
        kpm_moments_checkpointed(&h, sf, &p, &ckpt).expect_err("injected crash");
        // The state after one sweep, rebuilt through the accessors.
        let v0 = starting_block(n, &p);
        let mut v1 = kpm_repro::num::BlockVector::zeros(n, r);
        h.spmmv(&v0, &mut v1);
        kpm_repro::num::block::shift_scale_dots(sf.a, sf.b, &v0, &mut v1);
        let (v, mut w) = (v1, v0);
        h.aug_spmmv(sf.a, sf.b, &v, &mut w);
        let rck = store
            .load_rank(1, 0)
            .expect("load")
            .expect("saved at sweep 1");
        assert_eq!((rck.width, rck.v.len(), rck.w.len()), (r, n * r, n * r));
        for (i, j) in (0..n).flat_map(|i| (0..r).map(move |j| (i, j))) {
            assert_eq!(rck.v[i * r + j], v.get(i, j), "v({i}, {j}) at R = {r}");
            assert_eq!(rck.w[i * r + j], w.get(i, j), "w({i}, {j}) at R = {r}");
        }
    }
}

#[test]
fn batched_solves_on_padded_panels_are_bitwise_the_serial_chain() {
    // `kpm_batch_moments` sweeps a group of 3 on 4 lanes and one of 5,
    // 6 or 7 on 8, the extra lanes zero. Columns never mix, so column j
    // must stay bitwise its own `moments_from_start` run at every width
    // through one, two and three groups — in both formats, serial and
    // parallel, under every sweep body this CPU executes — and a zero
    // lane must never trip a guardrail while a diverging column still
    // does.
    use kpm_repro::core::solver::{
        batch_lanes, kpm_batch_moments, moments_from_start, starting_vectors,
    };
    use kpm_repro::num::{KpmError, Vector};
    use kpm_repro::sparse::simd::{self, Body};
    use kpm_repro::sparse::KpmMatrix;
    let _cap = SIMD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    let bodies = runnable_bodies("batched_solves_on_padded_panels");
    let ham = TopoHamiltonian::clean(3, 3, 4);
    let h = ham.assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let m = 16;
    let starts = starting_vectors(
        h.nrows(),
        &KpmParams {
            num_random: 17,
            ..params(1)
        },
    );
    let lanes: Vec<usize> = (1..=17).map(batch_lanes).collect();
    assert_eq!(
        lanes,
        [1, 2, 4, 4, 8, 8, 8, 8, 9, 10, 12, 12, 16, 16, 16, 16, 17]
    );
    simd::set_cap(Body::Baseline);
    let want: Vec<Vec<f64>> = starts
        .iter()
        .map(|v| moments_from_start(&h, sf, v, m, false).expect("serial chain"))
        .map(|set| set.into_vec())
        .collect();
    let handles: Vec<(&str, KpmMatrix)> = vec![
        ("crs", KpmMatrix::crs(h.clone())),
        ("stencil", KpmMatrix::stencil(ham.stencil_matrix())),
    ];
    let undersized = ScaleFactors::from_bounds(-0.5, 0.5, 0.0);
    let mut with_a_zero_column = starts[..2].to_vec();
    with_a_zero_column.push(Vector::zeros(h.nrows()));
    for body in bodies {
        simd::set_cap(body);
        for (name, matrix) in &handles {
            for parallel in [false, true] {
                let at = format!("{name}, {body:?} body, parallel = {parallel}");
                for width in 1..=17 {
                    let got = kpm_batch_moments(matrix, sf, &starts[..width], m, parallel, None)
                        .unwrap_or_else(|e| panic!("width {width}, {at}: {e}"));
                    assert_eq!(got.len(), width, "pad lanes are not columns ({at})");
                    for (j, set) in got.iter().enumerate() {
                        assert_eq!(set.as_slice(), want[j], "width {width} column {j}, {at}");
                    }
                }
                // An all-zero lane — a pad lane, or a column that is
                // one — passes every guardrail with moments of 0.
                let got = kpm_batch_moments(matrix, sf, &with_a_zero_column, m, parallel, None)
                    .unwrap_or_else(|e| panic!("zero column, {at}: {e}"));
                assert!(got[2].as_slice().iter().all(|&mu| mu == 0.0), "{at}");
                assert_eq!(got[1].as_slice(), want[1], "{at}");
                // A real column that diverges fails the batch, padded
                // (3 on 4, 5 on 8) or not (8).
                for width in [3, 5, 8] {
                    let err = kpm_batch_moments(
                        matrix,
                        undersized,
                        &starts[..width],
                        128,
                        parallel,
                        None,
                    )
                    .expect_err("the recurrence diverges");
                    assert!(
                        matches!(err, KpmError::SpectralBoundsViolated { .. }),
                        "width {width}, {at}: {err:?}"
                    );
                }
            }
        }
    }
    simd::set_cap(Body::Avx512);
}
