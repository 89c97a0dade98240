//! Tier-1 crash-recovery and guardrail suite for the single-process
//! solver.
//!
//! A crash injected into a checkpointed run must be survived by resuming
//! from the newest consistent checkpoint, read once, with the resumed
//! moments bitwise those of an uninterrupted run; a damaged, truncated
//! or version-1 checkpoint record must decode to a typed error without
//! allocating past its own length, and make discovery fall back to an
//! older consistent record; and scale factors that do not cover the
//! spectrum must stop the recurrence with a typed error instead of
//! handing out garbage moments.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use kpm_repro::core::checkpoint::{
    latest_consistent, Checkpoint, CheckpointStore, DirCheckpointStore, MemoryCheckpointStore,
};
use kpm_repro::core::solver::{
    kpm_moments, kpm_moments_checkpointed, KpmParams, KpmVariant, SolverCheckpointing,
};
use kpm_repro::num::{Complex64, KpmError};
use kpm_repro::topo::model::random_hermitian;
use kpm_repro::topo::{ScaleFactors, TopoHamiltonian};

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's requested bytes so a
/// test can bound what one call allocates.
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local without a destructor, so touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
    assert!(matches!(err, KpmError::InjectedCrash), "{err:?}");
    let resume_at = latest_consistent(&store, h.nrows())
        .unwrap()
        .expect("a checkpoint must exist before the crash")
        .iteration;
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
    assert!(matches!(err, KpmError::InjectedCrash), "{err:?}");
    assert_eq!(store.checkpoint_iterations().unwrap(), [3, 6]);
    let newest = latest_consistent(&store, h.nrows()).unwrap();
    assert_eq!(newest.map(|ck| ck.iteration), Some(6));
    let resumed = kpm_moments_checkpointed(&h, sf, &p, &off_grid).unwrap();
    assert_eq!(straight.as_slice(), resumed.as_slice(), "not bitwise equal");
}

/// A checkpoint store that counts the records it decodes.
struct CountingStore {
    inner: MemoryCheckpointStore,
    loads: AtomicUsize,
}

impl CheckpointStore for CountingStore {
    fn save_checkpoint(&self, ck: &Checkpoint) -> Result<(), KpmError> {
        self.inner.save_checkpoint(ck)
    }

    fn load_checkpoint(&self, iteration: usize) -> Result<Option<Checkpoint>, KpmError> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.inner.load_checkpoint(iteration)
    }

    fn checkpoint_iterations(&self) -> Result<Vec<usize>, KpmError> {
        self.inner.checkpoint_iterations()
    }
}

/// A resume decodes one record, the newest, and restores that record
/// itself: the restart path reads the `2 · n · R` block values once.
#[test]
fn restore_decodes_exactly_one_record() {
    let h = random_hermitian(120, 4, 17);
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let p = params(48, 3, 4321);
    let straight = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
    let store = CountingStore {
        inner: MemoryCheckpointStore::new(),
        loads: AtomicUsize::new(0),
    };
    let ckpt = SolverCheckpointing {
        store: &store,
        interval: 3,
        crash_at: Some(7),
    };
    let err = kpm_moments_checkpointed(&h, sf, &p, &ckpt).expect_err("injected crash");
    assert!(matches!(err, KpmError::InjectedCrash), "{err:?}");
    let loads = || store.loads.load(Ordering::Relaxed);
    assert_eq!(loads(), 0, "a fresh run loads nothing");
    let resumed = kpm_moments_checkpointed(&h, sf, &p, &ckpt).unwrap();
    assert_eq!(loads(), 1, "records decoded by the resume");
    assert_eq!(straight.as_slice(), resumed.as_slice(), "not bitwise equal");
}

/// A corrupt checkpoint file — a truncated write or garbage bytes under
/// a checkpoint name — must not abort restart discovery:
/// `latest_consistent` skips the damaged record and falls back to the
/// previous one. Direct loads still surface the damage as a typed error.
#[test]
fn corrupt_checkpoint_files_fall_back_to_older_consistent_state() {
    let dir = std::env::temp_dir().join(format!("kpm-fault-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DirCheckpointStore::new(&dir).expect("create store");
    let n = 20usize;
    for iteration in [4, 8] {
        store
            .save_checkpoint(&sample_record(iteration, n, 2))
            .expect("save");
    }
    let newest =
        |store: &DirCheckpointStore| latest_consistent(store, n).unwrap().map(|ck| ck.iteration);
    assert_eq!(newest(&store), Some(8));

    // Truncate the newest record: discovery falls back to 4 instead of
    // erroring.
    let victim = dir.join("ckpt-00000008.ckpt");
    let bytes = std::fs::read(&victim).expect("read victim");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate victim");
    assert_eq!(newest(&store), Some(4));

    // Direct loads still report the damage as typed corruption.
    let err = store
        .load_checkpoint(8)
        .expect_err("truncated record must decode to a typed error");
    assert!(matches!(err, KpmError::CheckpointCorrupt { .. }), "{err:?}");

    // Replace the record at 4 with garbage: no consistent restart point
    // remains.
    std::fs::write(dir.join("ckpt-00000004.ckpt"), b"not a checkpoint at all")
        .expect("write garbage");
    assert_eq!(newest(&store), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record of `rows` rows at width `width` after `iteration` sweeps,
/// every value distinct.
fn sample_record(iteration: usize, rows: usize, width: usize) -> Checkpoint {
    let block = |shift: f64| {
        (0..rows * width)
            .map(|i| Complex64::new(i as f64 + shift, -(i as f64)))
            .collect()
    };
    let eta_len = Checkpoint::eta_len(iteration, width).expect("small record");
    Checkpoint {
        iteration,
        width,
        v: block(0.25),
        w: block(0.5),
        eta: (0..eta_len).map(|i| Complex64::real(i as f64)).collect(),
    }
}

/// Rewrites the trailing FNV-1a checksum to match the edited body, so
/// the decoder's structural checks, not the checksum, must refuse it.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in &bytes[..body] {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    bytes[body..].copy_from_slice(&h.to_le_bytes());
    bytes
}

/// Byte offsets of a version-2 record's five integer fields: the
/// iteration, the width and the lengths of `v`, `w` and η.
fn integer_fields(ck: &Checkpoint) -> [usize; 5] {
    let block = 16 * ck.v.len();
    [8, 16, 24, 32 + block, 40 + 2 * block]
}

/// `bytes` with the integer field at `at` set to `u64::MAX`, resealed.
fn with_max_field(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(out)
}

/// `ck`'s blocks in the version-1 layout — magic `KPMCKPT\x01`, a kind
/// byte, then iteration, rank, row range, width, halo bytes, `v`, `w`
/// and the checksum — as the rank record that format wrote.
fn version_1(ck: &Checkpoint) -> Vec<u8> {
    let mut out = b"KPMCKPT\x01\x01".to_vec();
    for x in [ck.iteration, 0, 0, ck.rows(), ck.width, 0] {
        out.extend_from_slice(&(x as u64).to_le_bytes());
    }
    for block in [&ck.v, &ck.w] {
        out.extend_from_slice(&(block.len() as u64).to_le_bytes());
        for z in block.iter() {
            out.extend_from_slice(&z.re.to_le_bytes());
            out.extend_from_slice(&z.im.to_le_bytes());
        }
    }
    out.extend_from_slice(&[0; 8]);
    reseal(out)
}

/// Decodes `bytes`, which must be refused as `CheckpointCorrupt` with no
/// panic and nothing allocated beyond the record's length and the
/// error's text.
fn assert_refused(bytes: &[u8], what: &str) {
    let before = ALLOCATED.with(Cell::get);
    let got = Checkpoint::decode(bytes);
    let allocated = ALLOCATED.with(Cell::get) - before;
    match got {
        Err(KpmError::CheckpointCorrupt { details }) => assert!(
            allocated <= bytes.len() + details.len(),
            "{what}: {allocated} B allocated for a {} B record",
            bytes.len()
        ),
        other => panic!("{what}: expected CheckpointCorrupt, got {other:?}"),
    }
}

/// Hostile records — random byte flips, truncation at every length,
/// each integer field at `u64::MAX` and a version-1 record — of a few
/// rows at R = 1 and R = 3 all decode to `CheckpointCorrupt`, never a
/// panic or an allocation past their own length. A directory holding
/// such files at newer iterations beside one good record resumes from
/// the good one, bit for bit.
#[test]
fn hostile_checkpoint_records_are_refused_and_skipped() {
    for width in [1usize, 3] {
        let ck = sample_record(2, 4, width);
        let good = ck.encode();
        assert_eq!(Checkpoint::decode(&good).as_ref(), Ok(&ck));
        let mut rng = proptest::TestRng::for_case("checkpoint_record_fuzz", width as u32);
        for case in 0..256 {
            let mut bytes = good.clone();
            for _ in 0..1 + rng.next_u64() % 4 {
                let at = (rng.next_u64() % bytes.len() as u64) as usize;
                bytes[at] ^= 1 + (rng.next_u64() % 255) as u8;
            }
            assert_refused(&bytes, &format!("R = {width}, flip case {case}"));
        }
        for len in 0..good.len() {
            assert_refused(&good[..len], &format!("R = {width}, truncated to {len} B"));
        }
        for at in integer_fields(&ck) {
            let what = format!("R = {width}, field at byte {at} set to u64::MAX");
            assert_refused(&with_max_field(&good, at), &what);
        }
        assert_refused(&version_1(&ck), &format!("R = {width}, version 1"));
    }

    let h = random_hermitian(120, 4, 17);
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let p = params(48, 3, 4321);
    let straight = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
    let dir = std::env::temp_dir().join(format!("kpm-hostile-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DirCheckpointStore::new(&dir).expect("create store");
    let ckpt = SolverCheckpointing {
        store: &store,
        interval: 5,
        crash_at: Some(7),
    };
    let err = kpm_moments_checkpointed(&h, sf, &p, &ckpt).expect_err("injected crash");
    assert!(matches!(err, KpmError::InjectedCrash), "{err:?}");
    let good = std::fs::read(dir.join("ckpt-00000005.ckpt")).expect("the record at 5");
    let ck = Checkpoint::decode(&good).expect("a good record");
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x40;
    let hostile = [
        flipped,
        good[..good.len() - 1].to_vec(),
        with_max_field(&good, integer_fields(&ck)[2]),
        version_1(&ck),
    ];
    for (k, bytes) in hostile.iter().enumerate() {
        std::fs::write(dir.join(format!("ckpt-{:08}.ckpt", 6 + k)), bytes).expect("write");
    }
    let newest = latest_consistent(&store, h.nrows()).unwrap();
    assert_eq!(newest.map(|ck| ck.iteration), Some(5));
    let resumed = kpm_moments_checkpointed(&h, sf, &p, &ckpt).unwrap();
    assert_eq!(straight.as_slice(), resumed.as_slice(), "not bitwise equal");
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
/// under either `--format`, at block widths on both sides of
/// the arms' threshold, the solver stops with `SpectralBoundsViolated`
/// at the iteration the commit before the arms stopped at (recorded
/// from a build of it), and so never hands out a moment set.
#[test]
fn undersized_scale_factors_trip_the_guardrail_at_the_parents_iteration() {
    let ham = TopoHamiltonian::quantum_dot_superlattice(5, 4, 6);
    let formats = [
        ("crs", ham.assemble()),
        ("stencil", ham.stencil_matrix().to_crs()),
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
