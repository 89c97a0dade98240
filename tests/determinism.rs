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
use kpm_repro::sparse::CrsMatrix;
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
    // The parallel kernels run the same per-row arithmetic as their
    // serial twins, and the serial sweep is one range: while one
    // reduction tile spans every row (512 rows up to R = 8, 128 at
    // R = 32), even `parallel: false` agrees exactly for the fused
    // variants. Besides R = 6, the blocked kernel runs at R = 12 (an 8-
    // and a 4-wide panel) and at the paper's production width R = 32
    // (four 8-wide panels), on a 128-row lattice.
    let run = |(nx, ny, nz): (usize, usize, usize), r: usize, variant, parallel| {
        let h = TopoHamiltonian::clean(nx, ny, nz).assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = KpmParams {
            parallel,
            num_random: r,
            ..params(4)
        };
        kpm_moments(&h, sf, &p, variant)
            .expect("solver run")
            .into_vec()
    };
    for (lattice, r, variant) in [
        ((4, 4, 3), 6, KpmVariant::AugSpmv),
        ((4, 4, 3), 6, KpmVariant::AugSpmmv),
        ((4, 4, 2), 12, KpmVariant::AugSpmmv),
        ((4, 4, 2), 32, KpmVariant::AugSpmmv),
    ] {
        let serial = run(lattice, r, variant, false);
        let parallel = run(lattice, r, variant, true);
        assert_eq!(serial, parallel, "{variant:?} R = {r}: parallel != serial");
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
    // Both formats' builds of a lattice × {1, 2, 4, 8 threads} must all
    // reproduce the moments of the assembled CRS bit for bit.
    let ham = TopoHamiltonian::clean(3, 3, 12);
    let h = ham.assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let baseline = kpm_moments(&h, sf, &params(1), KpmVariant::AugSpmmv)
        .expect("baseline run")
        .into_vec();

    let formats: Vec<(&str, CrsMatrix)> = vec![
        ("crs", h.clone()),
        ("stencil", ham.stencil_matrix().to_crs()),
    ];
    for (name, m) in &formats {
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

    let formats: Vec<(&str, CrsMatrix)> = vec![
        ("crs", h.clone()),
        ("stencil", ham.stencil_matrix().to_crs()),
    ];
    for body in bodies {
        simd::set_cap(body);
        assert_eq!(simd::wide().body(), body, "the cap picks the body");
        for (name, m) in &formats {
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
            assert!(matches!(err, KpmError::InjectedCrash), "{err:?}");

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
        let ck = store
            .load_checkpoint(1)
            .expect("load")
            .expect("saved at sweep 1");
        assert_eq!((ck.width, ck.v.len(), ck.w.len()), (r, n * r, n * r));
        for (i, j) in (0..n).flat_map(|i| (0..r).map(move |j| (i, j))) {
            assert_eq!(ck.v[i * r + j], v.get(i, j), "v({i}, {j}) at R = {r}");
            assert_eq!(ck.w[i * r + j], w.get(i, j), "w({i}, {j}) at R = {r}");
        }
    }
}

#[test]
fn batched_solves_on_padded_panels_are_bitwise_the_serial_chain() {
    // `kpm_batch_moments` sweeps a group of 3 on 4 lanes and one of 5,
    // 6 or 7 on 8, the extra lanes zero. Columns never mix, so column j
    // must stay bitwise its own `moments_from_start` run at every width
    // through one, two and three groups — in both formats, under every
    // sweep body this CPU executes — and a zero
    // lane must never trip a guardrail while a diverging column still
    // does.
    use kpm_repro::core::solver::{
        batch_lanes, kpm_batch_moments, moments_from_start, starting_vectors,
    };
    use kpm_repro::num::{KpmError, Vector};
    use kpm_repro::sparse::simd::{self, Body};
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
        .map(|v| moments_from_start(&h, sf, v, m).expect("serial chain"))
        .map(|set| set.into_vec())
        .collect();
    let formats: Vec<(&str, CrsMatrix)> = vec![
        ("crs", h.clone()),
        ("stencil", ham.stencil_matrix().to_crs()),
    ];
    let undersized = ScaleFactors::from_bounds(-0.5, 0.5, 0.0);
    let mut with_a_zero_column = starts[..2].to_vec();
    with_a_zero_column.push(Vector::zeros(h.nrows()));
    for body in bodies {
        simd::set_cap(body);
        for (name, matrix) in &formats {
            let at = format!("{name}, {body:?} body");
            for width in 1..=17 {
                let got = kpm_batch_moments(matrix, sf, &starts[..width], m, None)
                    .unwrap_or_else(|e| panic!("width {width}, {at}: {e}"));
                assert_eq!(got.len(), width, "pad lanes are not columns ({at})");
                for (j, set) in got.iter().enumerate() {
                    assert_eq!(set.as_slice(), want[j], "width {width} column {j}, {at}");
                }
            }
            // An all-zero lane — a pad lane, or a column that is one —
            // passes every guardrail with moments of 0.
            let got = kpm_batch_moments(matrix, sf, &with_a_zero_column, m, None)
                .unwrap_or_else(|e| panic!("zero column, {at}: {e}"));
            assert!(got[2].as_slice().iter().all(|&mu| mu == 0.0), "{at}");
            assert_eq!(got[1].as_slice(), want[1], "{at}");
            // A real column that diverges fails the batch, padded (3 on
            // 4, 5 on 8) or not (8).
            for width in [3, 5, 8] {
                let err = kpm_batch_moments(matrix, undersized, &starts[..width], 128, None)
                    .expect_err("the recurrence diverges");
                assert!(
                    matches!(err, KpmError::SpectralBoundsViolated { .. }),
                    "width {width}, {at}: {err:?}"
                );
            }
        }
    }
    simd::set_cap(Body::Avx512);
}

/// The rows of `h`, stored plain: the same arrays through `from_raw`.
fn stored_plain(h: &CrsMatrix) -> CrsMatrix {
    let n = h.nrows();
    let vals = (0..n).flat_map(|r| h.row(r).vals().to_vec()).collect();
    let cols = (0..n).flat_map(|r| h.row(r).cols().to_vec()).collect();
    CrsMatrix::from_raw(n, h.ncols(), h.row_ptr().to_vec(), cols, vals)
}

#[test]
fn coded_and_plain_values_give_identical_moments() {
    // One lattice CRS built twice: coded by its generator, plain from
    // the same arrays. Every entry reads back the same `Complex64` bits,
    // so the moments must agree bit for bit at every width, under every
    // sweep body, serial and chunked on 1 and 2 threads. 1,152 rows:
    // width 1 has two chunks.
    use kpm_repro::sparse::simd::{self, Body};
    let _cap = SIMD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    let bodies = runnable_bodies("coded_and_plain_values");
    let coded = TopoHamiltonian::quantum_dot_superlattice(3, 6, 16).assemble();
    let plain = stored_plain(&coded);
    assert!(coded.value_table().is_some() && plain.value_table().is_none());
    assert!(coded == plain);
    assert_eq!(coded.content_fingerprint(), plain.content_fingerprint());
    let sf = ScaleFactors::from_gershgorin(&coded, 0.01);
    for body in bodies {
        simd::set_cap(body);
        for (parallel, threads) in [(false, 1), (true, 1), (true, 2)] {
            for r in [1usize, 2, 8, 16, 17, 32, 33] {
                let p = KpmParams {
                    num_moments: 16,
                    num_random: r,
                    parallel,
                    ..params(threads)
                };
                let run = |m: &CrsMatrix| {
                    let set = kpm_moments(m, sf, &p, KpmVariant::AugSpmmv);
                    set.expect("solver run").into_vec()
                };
                assert_eq!(
                    run(&coded),
                    run(&plain),
                    "R = {r}, {body:?} body, parallel = {parallel}, {threads} threads"
                );
            }
        }
    }
    simd::set_cap(Body::Avx512);
}

/// The bits of `z`, `(re, im)` per entry: tells `-0.0` from `+0.0`.
fn bits(z: &[kpm_repro::num::Complex64]) -> Vec<u64> {
    z.iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

#[test]
fn site_walk_is_bitwise_the_entry_chain() {
    // A lattice CRS whose values are coded sweeps its 4×4 site blocks at
    // every width — panels narrower than 8 columns on the lane walk,
    // several sites at a time, 8-column panels site by site in register
    // passes — multiplying the zeros of its blocks; the same arrays
    // stored plain sweep them entry by entry. Every kernel must leave the
    // same bits on both, in `w` (whose inputs hold zeros of both signs,
    // so a sign slip shows) and in the dots — serial, and chunked on 1
    // and 2 threads, under every sweep body, at widths 1 (through the
    // single-vector entry points too), 2, 3, 4, 5, 6, 7, 8, 10, 12, 16,
    // 17 and 32 (1-, 2- and 4-column tails beside none, 8- and 16-column
    // passes) — on a clean lattice (periodic x and y, open z), a dots
    // lattice of 1,280 rows (two 1,024-row chunks), one with an odd
    // number of sites (the width-1 walk's last site has no partner) and
    // one with an extent-1 axis.
    use kpm_repro::num::BlockVector;
    use kpm_repro::sparse::aug::{AugDots, AugDotsBlock};
    use kpm_repro::sparse::simd::{self, Body};
    use rand::{rngs::StdRng, SeedableRng};

    /// One kernel from `(v, w)`, `w` updated in place; returns its dots
    /// as bits.
    type Kernel = fn(&CrsMatrix, &BlockVector, &mut BlockVector) -> Vec<u64>;
    const A: f64 = 0.7;
    const B: f64 = -0.2;
    fn one(d: AugDots) -> Vec<u64> {
        [vec![d.eta_even.to_bits()], bits(&[d.eta_odd])].concat()
    }
    fn blocked(d: AugDotsBlock) -> Vec<u64> {
        let even = d.eta_even.iter().map(|e| e.to_bits());
        even.chain(bits(&d.eta_odd)).collect()
    }
    // The blocked kernels, then the single-vector ones, which take the
    // slots of a width-1 block.
    let kernels: [(&str, Kernel); 10] = [
        ("spmmv", |m, v, w| {
            m.spmmv(v, w);
            Vec::new()
        }),
        ("spmmv_par", |m, v, w| {
            m.spmmv_par(v, w);
            Vec::new()
        }),
        ("aug_spmmv", |m, v, w| blocked(m.aug_spmmv(A, B, v, w))),
        ("aug_spmmv_par", |m, v, w| {
            blocked(m.aug_spmmv_par(A, B, v, w))
        }),
        ("aug_spmmv_nodot", |m, v, w| {
            m.aug_spmmv_nodot(A, B, v, w);
            Vec::new()
        }),
        ("aug_spmmv_nodot_par", |m, v, w| {
            m.aug_spmmv_nodot_par(A, B, v, w);
            Vec::new()
        }),
        ("spmv", |m, v, w| {
            m.spmv(v.panel_slots(), w.panel_slots_mut());
            Vec::new()
        }),
        ("spmv_par", |m, v, w| {
            m.spmv_par(v.panel_slots(), w.panel_slots_mut());
            Vec::new()
        }),
        ("aug_spmv", |m, v, w| {
            one(m.aug_spmv(A, B, v.panel_slots(), w.panel_slots_mut()))
        }),
        ("aug_spmv_par", |m, v, w| {
            one(m.aug_spmv_par(A, B, v.panel_slots(), w.panel_slots_mut()))
        }),
    ];

    let _cap = SIMD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    let bodies = runnable_bodies("site_walk_is_bitwise_the_entry_chain");
    let pools = [1, 2].map(|t| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("pool")
    });
    let dots = TopoHamiltonian::quantum_dot_superlattice(8, 8, 5).assemble();
    assert_eq!(dots.nrows(), 1280);
    let cases = [
        ("clean 6x6x4", TopoHamiltonian::clean(6, 6, 4).assemble()),
        ("dots 8x8x5", dots),
        ("odd 5x3x3", TopoHamiltonian::clean(5, 3, 3).assemble()),
        ("extent-1 7x5x1", TopoHamiltonian::clean(7, 5, 1).assemble()),
    ];
    let mut rng = StdRng::seed_from_u64(27);
    for (lattice, coded) in cases {
        assert!(
            coded.site_blocks().is_some(),
            "{lattice}: the walk is on sites"
        );
        let plain = stored_plain(&coded);
        assert!(plain.site_blocks().is_none() && plain == coded);
        let signed_zeros = |mut z: BlockVector| {
            for (k, z) in z.panel_slots_mut().iter_mut().enumerate() {
                match k % 5 {
                    0 => z.re = 0.0,
                    2 => z.im = -0.0,
                    _ => {}
                }
            }
            z
        };
        let n = coded.nrows();
        for r in [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 17, 32] {
            let v = signed_zeros(BlockVector::random(n, r, &mut rng));
            let w0 = signed_zeros(BlockVector::random(n, r, &mut rng));
            let kernels = if r == 1 { &kernels[..] } else { &kernels[..6] };
            for &body in &bodies {
                simd::set_cap(body);
                for (threads, pool) in [1, 2].iter().zip(&pools) {
                    for (kernel, run) in kernels {
                        let sweep = |m: &CrsMatrix| {
                            let mut w = w0.clone();
                            let dots = pool.install(|| run(m, &v, &mut w));
                            (bits(w.panel_slots()), dots)
                        };
                        assert!(
                            sweep(&coded) == sweep(&plain),
                            "{lattice}: {kernel} differs from the entry chain at R = {r} \
                             ({body:?} body, {threads} threads)"
                        );
                    }
                }
            }
        }
    }
    simd::set_cap(Body::Avx512);
}

#[test]
fn site_walk_stops_at_the_end_of_exact_length_vectors() {
    // The lane walk's epilogue slices `v[at..at + 4·S]` and `w[..4·S]`
    // and its unit steps read the neighbours' rows through unchecked
    // pointers; a block vector's storage has padding behind its last
    // row, in which a read past the end would go unnoticed. Here `x` and
    // `w` are boxed slices of exactly `rows · r` entries, so the last
    // site's rows are the last entries of their allocations. Every
    // sweep must give the bits of the same arrays stored plain (the
    // entry chain at width 1): serial and chunked, on 1 and 2 threads,
    // under every sweep body, at widths 1–8, 12 and 17, on a lattice
    // with an odd number of sites (the width-1 walk's last site runs
    // alone) and on the 1,280-row dots lattice (two width-1 chunks).
    use kpm_repro::num::BlockVector;
    use kpm_repro::sparse::simd::{self, Body};
    use kpm_repro::sparse::{Schedule, SweepOp};
    use rand::{rngs::StdRng, SeedableRng};

    let ops = [
        SweepOp::Plain,
        SweepOp::Aug {
            a: 0.7,
            b: -0.2,
            dots: true,
        },
        SweepOp::Aug {
            a: 0.7,
            b: -0.2,
            dots: false,
        },
    ];
    let _cap = SIMD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    let bodies = runnable_bodies("site_walk_stops_at_the_end_of_exact_length_vectors");
    let pools = [1, 2].map(|t| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("pool")
    });
    let cases = [
        ("odd 5x3x3", TopoHamiltonian::clean(5, 3, 3).assemble()),
        (
            "dots 8x8x5",
            TopoHamiltonian::quantum_dot_superlattice(8, 8, 5).assemble(),
        ),
    ];
    let mut rng = StdRng::seed_from_u64(38);
    for (lattice, coded) in cases {
        assert!(
            coded.site_blocks().is_some(),
            "{lattice}: the walk is on sites"
        );
        let plain = stored_plain(&coded);
        let n = coded.nrows();
        for r in [1, 2, 3, 4, 5, 6, 7, 8, 12, 17] {
            let exact = |b: BlockVector| b.panel_slots().to_vec().into_boxed_slice();
            let x = exact(BlockVector::random(n, r, &mut rng));
            let w0 = exact(BlockVector::random(n, r, &mut rng));
            assert_eq!((x.len(), w0.len()), (n * r, n * r));
            for &body in &bodies {
                simd::set_cap(body);
                for (threads, pool) in [1, 2].iter().zip(&pools) {
                    for op in ops {
                        for schedule in [Schedule::Serial, Schedule::Chunked] {
                            let sweep = |m: &CrsMatrix| {
                                let mut w = w0.clone();
                                let dots = pool.install(|| m.sweep(op, schedule, &x, r, &mut w));
                                let even = dots.eta_even.iter().map(|e| e.to_bits());
                                (
                                    bits(&w),
                                    even.chain(bits(&dots.eta_odd)).collect::<Vec<_>>(),
                                )
                            };
                            assert!(
                                sweep(&coded) == sweep(&plain),
                                "{lattice}: {op:?} {schedule:?} differs from the entry chain at \
                                 R = {r} ({body:?} body, {threads} threads)"
                            );
                        }
                    }
                }
            }
        }
    }
    simd::set_cap(Body::Avx512);
}
