//! Property-based tests (proptest) on the core kernels and data
//! structures: the fused kernels must equal the naive BLAS-1 chain for
//! *any* Hermitian matrix and block width, formats must round-trip, and
//! the KPM moment invariants must hold.

use kpm_repro::core::solver::{kpm_moments, KpmParams, KpmVariant};
use kpm_repro::num::vector::{axpy, dot, nrm2, scal};
use kpm_repro::num::{BlockVector, Complex64, Vector};
use kpm_repro::sparse::{CooMatrix, CrsMatrix, KpmMatrix, SparseKernels, StencilMatrix};
use kpm_repro::topo::{Boundary, Lattice3D, Potential, ScaleFactors, TopoHamiltonian};
use proptest::prelude::*;

/// Strategy: a random Hermitian matrix of dimension `4..=40` with a few
/// off-diagonal pairs per row, plus matching seed data.
fn hermitian_matrix() -> impl Strategy<Value = CrsMatrix> {
    (4usize..=40, 0usize..=4, any::<u64>()).prop_map(|(n, per_row, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, Complex64::real(rng.gen_range(-1.0..1.0)));
            for _ in 0..per_row {
                let c = rng.gen_range(0..n);
                if c != r {
                    let v = Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    coo.push(r, c, v);
                    coo.push(c, r, v.conj());
                }
            }
        }
        coo.to_crs().unwrap()
    })
}

/// Per-thread cache budgets of the parallel kernel checks: the default
/// and two that give other tile heights — whole sites still, as every
/// tile is a multiple of the 4 orbital rows.
const CACHE_BUDGETS: [usize; 3] = [256 * 1024, 100_000, 77_777];

/// The potentials of the stencil checks; `Uniform(2.0)` makes two of
/// the four on-site diagonal entries exactly zero (dropped by the
/// assembly).
fn stencil_potential(kind: usize, seed: u64) -> Potential {
    match kind {
        0 => Potential::Zero,
        1 => Potential::QuantumDots {
            strength: 0.153,
            period: 4,
            radius: 1.5,
            depth: 1,
        },
        2 => Potential::Disorder { width: 1.0, seed },
        _ => Potential::Uniform(2.0),
    }
}

/// Strategy: a TI lattice with extents from 1 (no bonds along the axis)
/// and 2 (coincident partners when periodic) upward, every open/periodic
/// combination, and every potential of [`stencil_potential`].
fn any_lattice() -> impl Strategy<Value = TopoHamiltonian> {
    (
        (1usize..=6, 1usize..=6, 1usize..=9),
        (0usize..8, 0usize..4, any::<u64>()),
    )
        .prop_map(|((nx, ny, nz), (bc, kind, seed))| TopoHamiltonian {
            lattice: Lattice3D::new(nx, ny, nz, boundaries(bc)),
            t: 1.0,
            potential: stencil_potential(kind, seed),
        })
}

fn boundaries(bits: usize) -> [Boundary; 3] {
    [0, 1, 2].map(|axis| {
        if bits >> axis & 1 == 1 {
            Boundary::Periodic
        } else {
            Boundary::Open
        }
    })
}

/// The generator of a lattice against its CRS build: shape, entry
/// count, the bits of the Gershgorin bounds and the Hermiticity verdict.
/// Both handles run the CRS build ([`stencil_handle_runs_the_crs_build`]),
/// so the kernels have one operator to agree on; the thread-count ×
/// cache-budget grid of a plain CRS's parallel kernels, bitwise against
/// the serial chain, is
/// `crs_panel_sweep_bitwise_equals_the_mul_add_chain_on_every_body`.
fn stencil_equals_crs(st: &StencilMatrix) -> Result<(), String> {
    let h = st.to_crs();
    if (st.nrows(), st.nnz()) != (h.nrows(), h.nnz()) {
        return Err("shape or nnz differ".into());
    }
    let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
    if bits(st.gershgorin_bounds()) != bits(h.gershgorin_bounds()) {
        return Err("gershgorin bounds differ".into());
    }
    if st.check_hermitian().is_err() || !h.is_hermitian() {
        return Err("hermiticity checks differ".into());
    }
    Ok(())
}

/// The stencil handle of the lattice `st` against its CRS build `h`: one
/// operator — the same CRS, coded or plain, reading the same bytes —
/// with the fingerprint of `h`.
fn stencil_handle_runs_the_crs_build(st: &StencilMatrix, h: &CrsMatrix, what: &str) {
    let handle = KpmMatrix::stencil(st.clone());
    assert!(handle.as_crs() == h, "{what}");
    assert_eq!(
        handle.content_fingerprint(),
        h.content_fingerprint(),
        "{what}"
    );
    assert_eq!(handle.matrix_bytes(), h.matrix_bytes(), "{what}");
}

/// The deterministic counterpart of the property below: every
/// open/periodic combination on shapes with an extent-1 axis, an
/// extent-2 axis and neither, and every potential.
#[test]
fn stencil_kernels_bitwise_equal_crs_on_the_boundary_grid() {
    for (shape_idx, (nx, ny, nz)) in [
        (1, 3, 4),
        (3, 1, 1),
        (2, 3, 3),
        (4, 2, 3),
        (3, 4, 2),
        (4, 3, 6),
    ]
    .into_iter()
    .enumerate()
    {
        for bc in 0..8 {
            let ham = TopoHamiltonian {
                lattice: Lattice3D::new(nx, ny, nz, boundaries(bc)),
                t: 1.0,
                potential: stencil_potential((shape_idx + bc) % 4, 11),
            };
            let st = ham.stencil_matrix();
            let what = format!("{nx}x{ny}x{nz}, boundaries {bc:03b}");
            if let Err(e) = stencil_equals_crs(&st) {
                panic!("{what}: {e}");
            }
            stencil_handle_runs_the_crs_build(&st, &st.to_crs(), &what);
        }
    }
}

/// The value table's limit, on 4×4×4 periodic lattices with six
/// distinct hopping values (three imaginary bonds and their adjoints) and
/// `onsite` distinct on-site ones: 250 of them make 256 values, which
/// the CRS build codes, and 251 make 257, which it stores plain — as it
/// does the 576 on-site values of a disordered lattice. Codes match
/// bits: on-site entries that alternate between `1 + 0i` and `1 − 0i`
/// from site to site take two slots. Each lattice's stencil handle holds
/// its CRS build, coded or plain, and hashes like it.
#[test]
fn crs_builds_code_at_most_256_distinct_values() {
    let lattice = |value: &dyn Fn(usize) -> Complex64| {
        let hop = bond_blocks(|j| Complex64::imag(0.125 * (j + 1) as f64));
        let diag = (0..64).map(|site| [0, 1, 2, 3].map(|o| value(4 * site + o)));
        per_site(4, 4, 4, [true; 3], diag.collect(), &hop)
    };
    let onsite = |distinct: usize| {
        move |slot: usize| Complex64::real(1.0 + (slot % distinct) as f64 / 256.0)
    };
    let signed = |slot: usize| {
        Complex64::new(
            1.0,
            if (slot / 4).is_multiple_of(2) {
                0.0
            } else {
                -0.0
            },
        )
    };
    let disorder = TopoHamiltonian {
        lattice: Lattice3D::paper_default(6, 6, 4),
        t: 1.0,
        potential: Potential::Disorder {
            width: 1.0,
            seed: 3,
        },
    };
    for (st, distinct) in [
        (lattice(&onsite(250)), Some(256)),
        (lattice(&onsite(251)), None),
        (lattice(&signed), Some(8)),
        (disorder.stencil_matrix(), None),
    ] {
        let h = st.to_crs();
        assert_eq!(h.value_table().map(<[_]>::len), distinct);
        stencil_handle_runs_the_crs_build(&st, &h, &format!("{distinct:?} distinct values"));
        if let Err(e) = stencil_equals_crs(&st) {
            panic!("{distinct:?} distinct values: {e}");
        }
    }
}

/// The site view's limit: an 8×8×5 periodic lattice has 12 hopping
/// blocks (two neighbours and two wraps per axis), and one on-site block
/// per distinct diagonal. Diagonals built from 33 distinct values — far
/// inside the value table — take 244 or 245 distinct combinations over
/// the 320 sites: 256 blocks, which the CRS build codes, and 257, which
/// it stores plain. Either way the stencil handle holds that CRS — as on
/// the 2×6×5 lattice, whose periodic extent-2 axis leaves it no view:
/// its coincident partners' entries are merged.
#[test]
fn a_257th_site_block_stores_the_crs_plain() {
    let lattice = |combinations: usize| {
        let hop = bond_blocks(|j| Complex64::imag(0.125 * (j + 1) as f64));
        let level = |k: usize| Complex64::real(1.0 + k as f64 / 64.0);
        let diag = (0..320).map(|site| {
            let q = site % combinations;
            [level(q % 16), level(16 + q / 16), level(40), level(40)]
        });
        per_site(8, 8, 5, [true; 3], diag.collect(), &hop)
    };
    for (combinations, blocks) in [(244, Some(256)), (245, None)] {
        let st = lattice(combinations);
        let h = st.to_crs();
        assert_eq!(h.site_blocks(), blocks, "{combinations} diagonals");
        let values = blocks.map(|_| 6 + 16 + 16 + 1);
        assert_eq!(h.value_table().map(<[_]>::len), values);
        stencil_handle_runs_the_crs_build(&st, &h, &format!("{combinations} diagonals"));
        if let Err(e) = stencil_equals_crs(&st) {
            panic!("{combinations} diagonals: {e}");
        }
    }
    let coincident = TopoHamiltonian::clean(2, 6, 5).stencil_matrix();
    let h = coincident.to_crs();
    assert_eq!(h.site_blocks(), None);
    stencil_handle_runs_the_crs_build(&coincident, &h, "coincident 2x6x5");
    if let Err(e) = stencil_equals_crs(&coincident) {
        panic!("coincident 2x6x5: {e}");
    }
}

/// Hopping blocks with one bond per axis `j`: `bond(j)` from orbital 0
/// to orbital 1 and its adjoint back.
fn bond_blocks(bond: impl Fn(usize) -> Complex64) -> [[[Complex64; 4]; 4]; 6] {
    let mut hop = [[[Complex64::default(); 4]; 4]; 6];
    for j in 0..3 {
        hop[2 * j][0][1] = bond(j);
        hop[2 * j + 1][1][0] = bond(j).conj();
    }
    hop
}

/// A site block holds each row's entries in at most two slots, one
/// product per part of `x`: a lattice with an entry whose two parts are
/// non-zero, or with three entries in a row of one block, is stored
/// plain — values included, as past 256 blocks. The lattice beside them
/// with the same bonds made imaginary is coded. Each stencil handle
/// holds its CRS build.
#[test]
fn a_site_block_that_does_not_fit_its_slots_stores_the_crs_plain() {
    let onsite = |site: usize| [0, 1, 2, 3].map(|o| Complex64::real((site % 3 + o) as f64));
    let lattice = |hop: &[[[Complex64; 4]; 4]; 6]| {
        per_site(
            3,
            4,
            5,
            [true, false, true],
            (0..60).map(onsite).collect(),
            hop,
        )
    };
    let mut three_in_a_row = bond_blocks(|_| Complex64::real(0.5));
    three_in_a_row[4][2] = [0.0, 0.25, -0.25, 0.5].map(Complex64::real);
    three_in_a_row[5] = std::array::from_fn(|o| std::array::from_fn(|p| three_in_a_row[4][p][o]));
    for (what, hop, coded) in [
        (
            "imaginary bonds",
            bond_blocks(|j| Complex64::imag(0.5 + j as f64)),
            true,
        ),
        (
            "complex bonds",
            bond_blocks(|j| Complex64::new(0.25, 0.5 + j as f64)),
            false,
        ),
        ("three entries in a row", three_in_a_row, false),
    ] {
        let st = lattice(&hop);
        let h = st.to_crs();
        assert_eq!(h.site_blocks().is_some(), coded, "{what}");
        assert_eq!(h.value_table().is_some(), coded, "{what}");
        stencil_handle_runs_the_crs_build(&st, &h, what);
        if let Err(e) = stencil_equals_crs(&st) {
            panic!("{what}: {e}");
        }
    }
}

/// Serialises the tests that move the process-wide cap on the sweep
/// body: each asserts which body runs. (The others run whichever is
/// selected when they call; every body gives the same bits.)
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

/// The same arrays stored plain, so that the width-1 sweep walks the
/// entry chain.
fn stored_plain(h: &CrsMatrix) -> CrsMatrix {
    let n = h.nrows();
    let vals = (0..n).flat_map(|r| h.row(r).vals().to_vec()).collect();
    let cols = (0..n).flat_map(|r| h.row(r).cols().to_vec()).collect();
    CrsMatrix::from_raw(n, h.ncols(), h.row_ptr().to_vec(), cols, vals)
}

/// The bits the kernels of `m` leave from `v` and `w0` at their width:
/// `y = A x`, and the augmented update serial and chunked with its dots
/// — through the single-vector kernels at width 1, the blocked ones
/// beyond.
fn sweep_bits(m: &CrsMatrix, v: &BlockVector, w0: &BlockVector) -> Vec<Vec<u64>> {
    use kpm_repro::sparse::aug::{AugDots, AugDotsBlock};
    let bits = |z: &[Complex64]| -> Vec<u64> {
        z.iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect()
    };
    let dot_bits = |d: AugDotsBlock| -> Vec<u64> {
        let even = d.eta_even.iter().map(|e| e.to_bits());
        even.chain(bits(&d.eta_odd)).collect()
    };
    let one = |d: AugDots| AugDotsBlock {
        eta_even: vec![d.eta_even],
        eta_odd: vec![d.eta_odd],
    };
    let (mut y, mut w, mut w_par) = (w0.clone(), w0.clone(), w0.clone());
    let (serial, chunked) = if v.width() == 1 {
        let vs = v.panel_slots();
        m.spmv(vs, y.panel_slots_mut());
        (
            one(m.aug_spmv(0.7, -0.2, vs, w.panel_slots_mut())),
            one(m.aug_spmv_par(0.7, -0.2, vs, w_par.panel_slots_mut())),
        )
    } else {
        m.spmmv(v, &mut y);
        (
            m.aug_spmmv(0.7, -0.2, v, &mut w),
            m.aug_spmmv_par(0.7, -0.2, v, &mut w_par),
        )
    };
    vec![
        bits(y.panel_slots()),
        bits(w.panel_slots()),
        dot_bits(serial),
        bits(w_par.panel_slots()),
        dot_bits(chunked),
    ]
}

/// Slot construction on random blocks: hopping blocks whose rows store
/// zero, one or two entries at random columns, each real or imaginary
/// with its zero part of either sign (explicit zeros of both signs among
/// them, which the assembly drops), and on-site entries drawn from eight
/// of the same kinds. Every build is coded, and its slots, applied to `x` holding
/// zeros of both signs, leave the entry chain's bits in every kernel at
/// widths 1, 2, 3, 8 and 17 under every sweep body.
#[test]
fn slots_of_random_axial_blocks_leave_the_entry_chain_bits() {
    use kpm_repro::sparse::simd;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let _cap = SIMD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    let bodies = runnable_bodies("slots_of_random_axial_blocks");
    let mut rng = StdRng::seed_from_u64(28);
    let entry = |rng: &mut StdRng| match rng.gen_range(0..6) {
        0 => Complex64::new(0.0, 0.0),
        1 => Complex64::new(-0.0, -0.0),
        _ => value_of_kind(rng, 4),
    };
    for case in 0..12 {
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for row in hop.iter_mut().flatten() {
            for _ in 0..rng.gen_range(0..=2) {
                row[rng.gen_range(0..4usize)] = entry(&mut rng);
            }
        }
        // No extent 2: a periodic one merges entries, and is stored plain.
        let mut extent = |at_least: usize| [1, 3, 4, 5][rng.gen_range(at_least..4)];
        let (nx, ny, nz) = (extent(0), extent(1), extent(0));
        let levels = [0; 8].map(|_| entry(&mut rng));
        let onsite: Vec<_> = (0..nx * ny * nz)
            .map(|_| [0; 4].map(|_| levels[rng.gen_range(0..8usize)]))
            .collect();
        let periodic = [0, 1, 2].map(|_| rng.gen_range(0..2) == 1);
        let coded = per_site(nx, ny, nz, periodic, onsite, &hop).to_crs();
        assert!(coded.site_blocks().is_some(), "case {case}: coded");
        let plain = stored_plain(&coded);
        let n = coded.nrows();
        for r in [1, 2, 3, 8, 17] {
            let mut v = BlockVector::random(n, r, &mut rng);
            let mut w0 = BlockVector::random(n, r, &mut rng);
            sprinkle_signed_zeros(&mut v);
            sprinkle_signed_zeros(&mut w0);
            let want = sweep_bits(&plain, &v, &w0);
            for &body in &bodies {
                simd::set_cap(body);
                assert!(
                    sweep_bits(&coded, &v, &w0) == want,
                    "case {case}, {nx}x{ny}x{nz} {periodic:?}, R = {r}: {body:?} body"
                );
            }
        }
    }
    simd::set_cap(simd::Body::Avx512);
}

/// `(η_even, η_odd)` per block column.
type Dots = (Vec<f64>, Vec<Complex64>);

/// Block widths of the CRS panel grid: every 8/4/2/1 layout panel on
/// its own and behind 8-column panels, and one, two and two-and-a-half
/// of the AVX-512 copy's 16-column passes with and without a tail.
const CRS_WIDTHS: [usize; 12] = [1, 2, 3, 7, 8, 13, 16, 17, 24, 32, 33, 40];

/// A Hermitian matrix with empty rows (every seventh), single-entry
/// rows (the next) and random off-diagonal pairs among the rest.
fn ragged_hermitian(n: usize, seed: u64) -> CrsMatrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    let free = |i: usize| i % 7 > 1;
    for r in 0..n {
        if r % 7 == 0 {
            continue;
        }
        coo.push(r, r, Complex64::real(rng.gen_range(-1.0..1.0)));
        for _ in 0..rng.gen_range(0..5) {
            let c = rng.gen_range(0..n);
            if c != r && free(r) && free(c) {
                let v = Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                coo.push(r, c, v);
                coo.push(c, r, v.conj());
            }
        }
    }
    coo.to_crs().unwrap()
}

/// One matrix value, its kind drawn from the first `kinds` of seven:
/// real and pure imaginary, each also with its zero part stored as
/// `−0.0`; both parts non-zero; a stored zero of either sign — what the
/// zero-skip arms of the sweep tell apart (`kinds` = 4 leaves out the
/// last three: every value has an exactly-zero part and none is zero).
fn value_of_kind(rng: &mut impl rand::Rng, kinds: usize) -> Complex64 {
    let (a, b) = (rng.gen_range(0.1..1.0), rng.gen_range(-1.0..-0.1));
    match rng.gen_range(0..kinds) {
        0 => Complex64::new(a, 0.0),
        1 => Complex64::new(b, -0.0),
        2 => Complex64::new(0.0, b),
        3 => Complex64::new(-0.0, a),
        4 => Complex64::new(a, b),
        5 => Complex64::new(0.0, 0.0),
        _ => Complex64::new(-0.0, 0.0),
    }
}

/// A square matrix whose stored values are drawn per entry from every
/// kind of [`value_of_kind`] — except in every third row, which draws
/// from the zero-part kinds alone, so both loops of the sweep run.
fn kinds_matrix(n: usize, seed: u64) -> CrsMatrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut row_ptr, mut cols, mut vals) = (vec![0u64], Vec::new(), Vec::new());
    for row in 0..n {
        let mut picked: Vec<u32> = (0..rng.gen_range(0..9))
            .map(|_| rng.gen_range(0..n) as u32)
            .collect();
        picked.sort_unstable();
        picked.dedup();
        for c in picked {
            cols.push(c);
            vals.push(value_of_kind(&mut rng, if row % 3 == 0 { 4 } else { 7 }));
        }
        row_ptr.push(cols.len() as u64);
    }
    CrsMatrix::from_raw(n, n, row_ptr, cols, vals)
}

/// A 3×3×3 periodic stencil with dense hopping blocks (25-entry rows)
/// whose values are drawn per entry: from the zero-part kinds in orbital
/// rows 0 and 1, from every kind in rows 2 and 3, and per site for the
/// on-site diagonal — so a site's rows take either loop of the sweep.
fn kinds_stencil(seed: u64) -> StencilMatrix {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let onsite = (0..27)
        .map(|_| [0; 4].map(|_| value_of_kind(&mut rng, 7)))
        .collect();
    let mut hop = [[[Complex64::default(); 4]; 4]; 6];
    for block in hop.iter_mut() {
        for (o, row) in block.iter_mut().enumerate() {
            for z in row.iter_mut() {
                *z = value_of_kind(&mut rng, if o < 2 { 4 } else { 7 });
            }
        }
    }
    per_site(3, 3, 3, [true; 3], onsite, &hop)
}

/// The generator of a lattice whose sites each have a diagonal of their
/// own in `onsite`, in site order.
fn per_site(
    nx: usize,
    ny: usize,
    nz: usize,
    periodic: [bool; 3],
    onsite: Vec<[Complex64; 4]>,
    hop: &[[[Complex64; 4]; 4]; 6],
) -> StencilMatrix {
    let site_diag = (0..onsite.len() as u32).collect();
    StencilMatrix::new(nx, ny, nz, periodic, onsite, site_diag, hop)
}

/// Overwrites every fifth part of `block` with a zero, alternating in
/// sign.
fn sprinkle_signed_zeros(block: &mut BlockVector) {
    let mut zero = 0.0f64;
    for (k, z) in block.panel_slots_mut().iter_mut().enumerate() {
        if k % 5 == 0 {
            z.re = zero;
            zero = -zero;
        }
        if k % 5 == 2 {
            z.im = zero;
            zero = -zero;
        }
    }
}

/// `block`'s parts as bit patterns: equality that tells `−0.0` from
/// `+0.0`.
fn block_bits(block: &BlockVector) -> Vec<[u64; 2]> {
    let bits = |z: &Complex64| [z.re.to_bits(), z.im.to_bits()];
    block.panel_slots().iter().map(bits).collect()
}

/// The reference the panel sweep is held to, written out as the plain
/// `Complex64::mul_add` chain: `acc = Σ_c H[row, c]·x[c]` in column
/// order, then either `y[row] = acc` (`aug = None`, no dots) or the
/// augmented update with both dot products, reduced over
/// `tile_rows`-row tiles whose partials are added in order (one tile =
/// the serial kernel).
fn reference_sweep(
    h: &CrsMatrix,
    aug: Option<(f64, f64)>,
    x: &BlockVector,
    w: &mut BlockVector,
    tile_rows: usize,
) -> Dots {
    let r = x.width();
    let zero = Complex64::default();
    let mut partials: Vec<Dots> = Vec::new();
    for row in 0..h.nrows() {
        if row % tile_rows == 0 {
            partials.push((vec![0.0; r], vec![zero; r]));
        }
        let (even, odd) = partials.last_mut().expect("a tile is open");
        let hrow = h.row(row);
        for j in 0..r {
            let mut acc = zero;
            for (hv, &c) in hrow.vals().iter().zip(hrow.cols()) {
                acc = hv.mul_add(x.get(c as usize, j), acc);
            }
            let Some((a, b)) = aug else {
                w.set(row, j, acc);
                continue;
            };
            let vr = x.get(row, j);
            let wr = (acc - vr.scale(b)).scale(2.0 * a) - w.get(row, j);
            w.set(row, j, wr);
            even[j] += vr.norm_sqr();
            odd[j] = wr.conj().mul_add(vr, odd[j]);
        }
    }
    if aug.is_none() {
        return (Vec::new(), Vec::new());
    }
    if partials.len() == 1 {
        return partials.pop().expect("one tile");
    }
    if r == 1 {
        // The single-vector kernel's grid: pairwise over its chunks.
        use kpm_repro::num::summation::{pairwise_sum, pairwise_sum_complex};
        let even: Vec<f64> = partials.iter().map(|p| p.0[0]).collect();
        let odd: Vec<Complex64> = partials.iter().map(|p| p.1[0]).collect();
        return (vec![pairwise_sum(&even)], vec![pairwise_sum_complex(&odd)]);
    }
    let mut total = (vec![0.0; r], vec![zero; r]);
    for (even, odd) in &partials {
        for j in 0..r {
            total.0[j] += even[j];
            total.1[j] += odd[j];
        }
    }
    total
}

/// The CRS register-panel sweep against [`reference_sweep`], bit for
/// bit: every width of [`CRS_WIDTHS`] — width 1 through the
/// single-vector entry points as well as the blocked ones (the 8×8×5
/// lattice has two 1024-row chunks); plain, augmented and
/// no-dot kernels; serial and on 1-, 2-, 4- and
/// 8-thread pools at three cache budgets; on ragged random and lattice
/// matrices; and under every position of the runtime cap, i.e. on the
/// baseline, the AVX2 and the AVX-512 copy of the body. The reference
/// multiplies out all four products of every entry; the sweep leaves
/// out those with an exactly-zero factor on rows that hold no other
/// kind of entry, so [`kinds_matrix`] and [`kinds_stencil`] draw the
/// kind per entry, `v` and
/// `w` hold zeros of both signs, and equality is on bit patterns — the
/// sign of every zero in `w` included.
#[test]
fn crs_panel_sweep_bitwise_equals_the_mul_add_chain_on_every_body() {
    use kpm_repro::sparse::tile::tile_rows_for_budget;
    use kpm_repro::sparse::{aug::AugDotsBlock, simd};
    use rand::SeedableRng;

    let _cap = SIMD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    let bodies = runnable_bodies("crs_panel_sweep");
    let pools: Vec<rayon::ThreadPool> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("pool")
        })
        .collect();
    let dots = |d: AugDotsBlock| (d.eta_even, d.eta_odd);
    let none = (Vec::new(), Vec::new());
    let matrices = [
        ("ragged-700", ragged_hermitian(700, 3)),
        ("ragged-90", ragged_hermitian(90, 4)),
        ("ti-8x8x5", TopoHamiltonian::clean(8, 8, 5).assemble()),
        (
            "dots-6x6x4",
            TopoHamiltonian::quantum_dot_superlattice(6, 6, 4).assemble(),
        ),
        ("kinds-150", kinds_matrix(150, 5)),
        ("kinds-stencil", kinds_stencil(6).to_crs()),
    ];
    let (a, b) = (0.7, -0.2);
    for (name, h) in &matrices {
        let n = h.nrows();
        // The budget travels with the handle: one per budget.
        let handles = CACHE_BUDGETS.map(|b| KpmMatrix::crs(h.clone()).with_cache_bytes(b));
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        for r in CRS_WIDTHS {
            let mut v = BlockVector::random(n, r, &mut rng);
            let mut w0 = BlockVector::random(n, r, &mut rng);
            sprinkle_signed_zeros(&mut v);
            sprinkle_signed_zeros(&mut w0);
            // (label, reference result) per kernel; the serial forms first.
            let expect = |m: &CrsMatrix, aug, tile: usize| {
                let mut w = w0.clone();
                let d = reference_sweep(m, aug, &v, &mut w, tile);
                (w, d)
            };
            // Rows per chunk of the parallel kernels at a cache budget.
            let tile_of = |budget| match r {
                1 => 1024,
                _ => tile_rows_for_budget(r, budget),
            };
            let serial_plain = expect(h, None, n);
            let serial_aug = expect(h, Some((a, b)), n);
            for &body in &bodies {
                simd::set_cap(body);
                assert_eq!(simd::wide().body(), body, "the cap picks the body");
                let check = |what: &str, want: &(BlockVector, _), got: (BlockVector, _)| {
                    let dot_bits = |d: &Dots| {
                        let odd = d.1.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]);
                        d.0.iter()
                            .map(|e| e.to_bits())
                            .chain(odd)
                            .collect::<Vec<_>>()
                    };
                    assert!(
                        block_bits(&want.0) == block_bits(&got.0)
                            && dot_bits(&want.1) == dot_bits(&got.1),
                        "{name}: {what} differs from the mul_add chain (r = {r}, {body:?} body)"
                    );
                };
                let run = |f: &dyn Fn(&mut BlockVector) -> Dots| {
                    let mut w = w0.clone();
                    let d = f(&mut w);
                    (w, d)
                };
                // The single-vector kernels on the one column of a
                // width-1 block.
                let run_vector = |f: &dyn Fn(&[Complex64], &mut [Complex64]) -> Dots| {
                    let mut w = w0.column(0).into_vec();
                    let d = f(v.column(0).as_slice(), &mut w);
                    (BlockVector::from_columns(&[Vector::from_vec(w)]), d)
                };
                check(
                    "spmmv",
                    &serial_plain,
                    run(&|w| {
                        h.spmmv(&v, w);
                        none.clone()
                    }),
                );
                check(
                    "aug_spmmv",
                    &serial_aug,
                    run(&|w| dots(h.aug_spmmv(a, b, &v, w))),
                );
                let single =
                    |d: kpm_repro::sparse::aug::AugDots| (vec![d.eta_even], vec![d.eta_odd]);
                if r == 1 {
                    check(
                        "spmv",
                        &serial_plain,
                        run_vector(&|v, w| {
                            h.spmv(v, w);
                            none.clone()
                        }),
                    );
                    check(
                        "aug_spmv",
                        &serial_aug,
                        run_vector(&|v, w| single(h.aug_spmv(a, b, v, w))),
                    );
                }
                let nodot = (serial_aug.0.clone(), none.clone());
                check(
                    "aug_spmmv_nodot",
                    &nodot,
                    run(&|w| {
                        h.aug_spmmv_nodot(a, b, &v, w);
                        none.clone()
                    }),
                );
                for (budget, m) in CACHE_BUDGETS.into_iter().zip(&handles) {
                    let par_aug = expect(h, Some((a, b)), tile_of(budget));
                    for pool in &pools {
                        pool.install(|| {
                            check(
                                "spmmv_par",
                                &serial_plain,
                                run(&|w| {
                                    m.spmmv_par(&v, w);
                                    none.clone()
                                }),
                            );
                            check(
                                "aug_spmmv_par",
                                &par_aug,
                                run(&|w| dots(m.aug_spmmv_par(a, b, &v, w))),
                            );
                            check(
                                "aug_spmmv_nodot_par",
                                &nodot,
                                run(&|w| {
                                    m.aug_spmmv_nodot_par(a, b, &v, w);
                                    none.clone()
                                }),
                            );
                            if r == 1 {
                                check(
                                    "spmv_par",
                                    &serial_plain,
                                    run_vector(&|v, w| {
                                        m.spmv_par(v, w);
                                        none.clone()
                                    }),
                                );
                                check(
                                    "aug_spmv_par",
                                    &par_aug,
                                    run_vector(&|v, w| single(m.aug_spmv_par(a, b, v, w))),
                                );
                            }
                        });
                    }
                }
            }
        }
    }
    simd::set_cap(simd::Body::Avx512);
}

fn cvec(n: usize, seed: u64) -> Vec<Complex64> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    Vector::random(n, &mut rng).into_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_matrices_are_hermitian(h in hermitian_matrix()) {
        prop_assert!(h.is_hermitian());
    }

    #[test]
    fn aug_spmv_equals_naive_chain(h in hermitian_matrix(), a in -2.0f64..2.0, b in -1.0f64..1.0, seed in any::<u64>()) {
        let n = h.nrows();
        let v = cvec(n, seed);
        let w0 = cvec(n, seed.wrapping_add(1));

        // Naive: u = Hv; u -= b v; w = -w; w += 2a u; dots separately.
        let mut u = vec![Complex64::default(); n];
        h.spmv(&v, &mut u);
        axpy(Complex64::real(-b), &v, &mut u);
        let mut w_naive = w0.clone();
        scal(Complex64::real(-1.0), &mut w_naive);
        axpy(Complex64::real(2.0 * a), &u, &mut w_naive);
        let even_ref = nrm2(&v);
        let odd_ref = dot(&w_naive, &v);

        let mut w_aug = w0;
        let dots = h.aug_spmv(a, b, &v, &mut w_aug);
        for (x, y) in w_aug.iter().zip(&w_naive) {
            prop_assert!(x.approx_eq(*y, 1e-10));
        }
        prop_assert!((dots.eta_even - even_ref).abs() < 1e-8);
        prop_assert!(dots.eta_odd.approx_eq(odd_ref, 1e-8));
    }

    #[test]
    fn aug_spmmv_equals_columnwise_aug_spmv(h in hermitian_matrix(), r in 1usize..=8, seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = h.nrows();
        let mut rng = StdRng::seed_from_u64(seed);
        let v = BlockVector::random(n, r, &mut rng);
        let w0 = BlockVector::random(n, r, &mut rng);
        let mut w = w0.clone();
        let dots = h.aug_spmmv(0.7, -0.2, &v, &mut w);
        for j in 0..r {
            let vc = v.column(j).into_vec();
            let mut wc = w0.column(j).into_vec();
            let d = h.aug_spmv(0.7, -0.2, &vc, &mut wc);
            let got = w.column(j).into_vec();
            for (x, y) in got.iter().zip(&wc) {
                prop_assert!(x.approx_eq(*y, 1e-10));
            }
            prop_assert!((dots.eta_even[j] - d.eta_even).abs() < 1e-8);
            prop_assert!(dots.eta_odd[j].approx_eq(d.eta_odd, 1e-8));
        }
    }

    #[test]
    fn spmmv_linearity(h in hermitian_matrix(), r in 1usize..=4, seed in any::<u64>()) {
        // A(x + y) = Ax + Ay, columnwise over the block.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = h.nrows();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = BlockVector::random(n, r, &mut rng);
        let y = BlockVector::random(n, r, &mut rng);
        let mut xy = BlockVector::zeros(n, r);
        for i in 0..n {
            for j in 0..r {
                xy.set(i, j, x.get(i, j) + y.get(i, j));
            }
        }
        let mut ax = BlockVector::zeros(n, r);
        let mut ay = BlockVector::zeros(n, r);
        let mut axy = BlockVector::zeros(n, r);
        h.spmmv(&x, &mut ax);
        h.spmmv(&y, &mut ay);
        h.spmmv(&xy, &mut axy);
        for i in 0..n {
            for j in 0..r {
                prop_assert!(axy.get(i, j).approx_eq(ax.get(i, j) + ay.get(i, j), 1e-9));
            }
        }
    }

    #[test]
    fn moments_bounded_and_mu0_unit(h in hermitian_matrix(), seed in any::<u64>()) {
        let sf = ScaleFactors::from_gershgorin(&h, 0.05);
        let p = KpmParams { num_moments: 16, num_random: 2, seed, parallel: false, threads: 0, power: 1, first_touch: false };
        let set = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        prop_assert!((set.as_slice()[0] - 1.0).abs() < 1e-10);
        for &mu in set.as_slice() {
            prop_assert!(mu.abs() <= 1.0 + 1e-9);
            prop_assert!(mu.is_finite());
        }
    }

    #[test]
    fn rayleigh_quotient_within_gershgorin(h in hermitian_matrix(), seed in any::<u64>()) {
        let n = h.nrows();
        let v = cvec(n, seed);
        let mut hv = vec![Complex64::default(); n];
        h.spmv(&v, &mut hv);
        let den = nrm2(&v);
        prop_assume!(den > 1e-12);
        let q = dot(&v, &hv).re / den;
        let (lo, hi) = h.gershgorin_bounds();
        prop_assert!(q >= lo - 1e-9 && q <= hi + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warp_executor_equals_cpu_kernel(h in hermitian_matrix(), r in 1usize..=40, seed in any::<u64>()) {
        use kpm_repro::simgpu::warp_exec::aug_spmmv_warp_exec;
        use kpm_repro::simgpu::GpuDevice;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let d = GpuDevice::k20m();
        let n = h.nrows();
        let mut rng = StdRng::seed_from_u64(seed);
        let v = BlockVector::random(n, r, &mut rng);
        let w0 = BlockVector::random(n, r, &mut rng);
        let mut w_cpu = w0.clone();
        let mut w_gpu = w0;
        let d_cpu = h.aug_spmmv(0.3, 0.2, &v, &mut w_cpu);
        let d_gpu = aug_spmmv_warp_exec(&d, &h, 0.3, 0.2, &v, &mut w_gpu);
        prop_assert_eq!(w_cpu, w_gpu);
        for j in 0..r {
            prop_assert!((d_cpu.eta_even[j] - d_gpu.eta_even[j]).abs() < 1e-8);
            prop_assert!(d_cpu.eta_odd[j].approx_eq(d_gpu.eta_odd[j], 1e-8));
        }
    }

    #[test]
    fn mm_roundtrip_any_hermitian(h in hermitian_matrix()) {
        use kpm_repro::sparse::io::{read, write_hermitian};
        use std::io::BufReader;
        let mut buf = Vec::new();
        write_hermitian(&h, &mut buf).unwrap();
        let back = read(BufReader::new(buf.as_slice())).unwrap();
        prop_assert_eq!(h, back);
    }

    #[test]
    fn eigencount_fraction_bounded(h in hermitian_matrix(), seed in any::<u64>()) {
        use kpm_repro::core::eigencount::window_fraction;
        use kpm_repro::core::solver::kpm_moments;
        let sf = ScaleFactors::from_gershgorin(&h, 0.05);
        let p = KpmParams { num_moments: 16, num_random: 2, seed, parallel: false, threads: 0, power: 1, first_touch: false };
        let set = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let f = window_fraction(&set, kpm_repro::core::Kernel::Jackson, -0.5, 0.5);
        // Jackson-damped fractions stay within [-eps, 1+eps].
        prop_assert!(f > -1e-6 && f < 1.0 + 1e-6, "fraction {f}");
        let whole = window_fraction(&set, kpm_repro::core::Kernel::Jackson, -1.0, 1.0);
        prop_assert!((whole - 1.0).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stencil_kernels_bitwise_equal_crs(ham in any_lattice()) {
        // Any lattice shape, boundary and potential: the stencil handle
        // runs the CRS build itself, so its kernels are the CRS's bit
        // for bit, and the generator's bounds and verdict are the
        // build's.
        let st = ham.stencil_matrix();
        let checked = stencil_equals_crs(&st);
        prop_assert!(checked.is_ok(), "{:?}: {}", ham.lattice, checked.unwrap_err());
        stencil_handle_runs_the_crs_build(&st, &st.to_crs(), &format!("{:?}", ham.lattice));
    }

    #[test]
    fn site_walk_bitwise_equals_the_entry_chain_on_any_lattice(
        ham in any_lattice(),
        seed in any::<u64>(),
    ) {
        // Whatever the lattice, the width-1 walk of a coded CRS over its
        // site blocks leaves the bits the entry chain leaves on the same
        // arrays stored plain, under every sweep body (each has its own
        // lane gather).
        use kpm_repro::sparse::simd;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let coded = ham.assemble();
        prop_assume!(coded.site_blocks().is_some());
        let n = coded.nrows();
        let plain = stored_plain(&coded);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = BlockVector::random(n, 1, &mut rng);
        let mut w0 = BlockVector::random(n, 1, &mut rng);
        sprinkle_signed_zeros(&mut v);
        sprinkle_signed_zeros(&mut w0);
        let want = sweep_bits(&plain, &v, &w0);
        let _cap = SIMD_CAP.lock().unwrap_or_else(|e| e.into_inner());
        let bodies = runnable_bodies("site_walk_bitwise_equals_the_entry_chain");
        let got: Vec<_> = bodies.iter().map(|&body| {
            simd::set_cap(body);
            (body, sweep_bits(&coded, &v, &w0))
        }).collect();
        simd::set_cap(simd::Body::Avx512);
        for (body, got) in got {
            prop_assert!(got == want, "{:?}: {:?} body", ham.lattice, body);
        }
    }
}
