//! Property-based tests (proptest) on the core kernels and data
//! structures: the fused kernels must equal the naive BLAS-1 chain for
//! *any* Hermitian matrix and block width, formats must round-trip, and
//! the KPM moment invariants must hold.

use kpm_repro::core::solver::{kpm_moments, KpmParams, KpmVariant};
use kpm_repro::num::vector::{axpy, dot, nrm2, scal};
use kpm_repro::num::{BlockVector, Complex64, Vector};
use kpm_repro::sparse::{CooMatrix, CrsMatrix, KpmMatrix, SparseKernels};
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
        coo.to_crs()
    })
}

/// Block widths of the stencil checks: the narrow ones plus the
/// paper's sweep; 24 puts the default 170-row tile edges mid-site.
const STENCIL_WIDTHS: [usize; 8] = [1, 2, 3, 4, 8, 16, 24, 32];

/// Per-thread cache budgets of the stencil checks: the default and two
/// that give tile heights which are not multiples of the 4 orbital rows
/// at most widths.
const STENCIL_BUDGETS: [usize; 3] = [256 * 1024, 100_000, 77_777];

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

/// Every stencil kernel against its CRS twin, bit for bit, at block
/// width `r` and the given cache budget: the serial kernels, then the
/// parallel ones on 1-, 2-, 4- and 8-thread pools; plain, augmented
/// with dots and augmented without.
fn stencil_equals_crs(
    ham: &TopoHamiltonian,
    r: usize,
    cache_bytes: usize,
    seed: u64,
) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let h = ham.assemble();
    let st = ham.stencil_matrix();
    if (st.nrows(), st.nnz()) != (h.nrows(), h.nnz()) {
        return Err("shape or nnz differ".into());
    }
    if st.gershgorin_bounds() != h.gershgorin_bounds() {
        return Err("gershgorin bounds differ".into());
    }
    if st.check_hermitian().is_err() || !h.is_hermitian() {
        return Err("hermiticity checks differ".into());
    }
    let n = h.nrows();
    let crs = KpmMatrix::crs(h).with_cache_bytes(cache_bytes);
    let st = KpmMatrix::stencil(st).with_cache_bytes(cache_bytes);
    let v = cvec(n, seed);
    let w0 = cvec(n, seed.wrapping_add(3));
    let mut rng = StdRng::seed_from_u64(seed);
    let vb = BlockVector::random(n, r, &mut rng);
    let wb0 = BlockVector::random(n, r, &mut rng);

    // One kernel on both formats from identical inputs; `$dots` is the
    // kernel's return value (`()` for the plain and no-dot kernels).
    macro_rules! same {
        ($what:expr, $w0:expr, |$m:ident, $w:ident| $call:expr) => {{
            let ($m, mut $w) = (&crs, $w0.clone());
            let d_crs = $call;
            let w_crs = $w;
            let ($m, mut $w) = (&st, $w0.clone());
            let d_st = $call;
            if w_crs != $w || d_crs != d_st {
                return Err(format!(
                    "{} differs (r = {r}, budget = {cache_bytes})",
                    $what
                ));
            }
        }};
    }
    same!("spmv", w0, |m, w| m.spmv(&v, &mut w));
    same!("spmmv", wb0, |m, w| m.spmmv(&vb, &mut w));
    same!("aug_spmv", w0, |m, w| m.aug_spmv(0.7, -0.2, &v, &mut w));
    same!("aug_spmmv", wb0, |m, w| m.aug_spmmv(0.7, -0.2, &vb, &mut w));
    same!("aug_spmmv_nodot", wb0, |m, w| m
        .aug_spmmv_nodot(0.7, -0.2, &vb, &mut w));
    same!("aug_spmmv_rect", wb0, |m, w| m
        .aug_spmmv_rect(0.7, -0.2, &vb, &mut w));
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| e.to_string())?;
        pool.install(|| {
            same!("spmv_par", w0, |m, w| m.spmv_par(&v, &mut w));
            same!("spmmv_par", wb0, |m, w| m.spmmv_par(&vb, &mut w));
            same!("aug_spmv_par", w0, |m, w| m
                .aug_spmv_par(0.7, -0.2, &v, &mut w));
            same!("aug_spmmv_par", wb0, |m, w| m
                .aug_spmmv_par(0.7, -0.2, &vb, &mut w));
            same!("aug_spmmv_nodot_par", wb0, |m, w| m
                .aug_spmmv_nodot_par(0.7, -0.2, &vb, &mut w));
            Ok::<(), String>(())
        })
        .map_err(|e| format!("{e} at {threads} threads"))?;
    }
    Ok(())
}

/// The deterministic counterpart of the property below: every
/// open/periodic combination on shapes with an extent-1 axis, an
/// extent-2 axis and neither, every potential, and widths on both sides
/// of the panel and tile boundaries (the last shape has 288 rows, so at
/// width 24 the 170-row tile edge falls inside site 42).
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
            for (r, budget) in [
                (1, STENCIL_BUDGETS[0]),
                (8, STENCIL_BUDGETS[1]),
                (24, STENCIL_BUDGETS[0]),
            ] {
                if let Err(e) = stencil_equals_crs(&ham, r, budget, 5 + bc as u64) {
                    panic!("{nx}x{ny}x{nz}, boundaries {bc:03b}: {e}");
                }
            }
        }
    }
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
    coo.to_crs()
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
        let mut row_cols: Vec<u32> = (0..rng.gen_range(0..9))
            .map(|_| rng.gen_range(0..n) as u32)
            .collect();
        row_cols.sort_unstable();
        row_cols.dedup();
        for c in row_cols {
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
fn kinds_stencil(seed: u64) -> kpm_repro::sparse::StencilMatrix {
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
    kpm_repro::sparse::StencilMatrix::new(3, 3, 3, [true; 3], onsite, &hop)
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
        for j in 0..r {
            let mut acc = zero;
            for (hv, &c) in h.row_vals(row).iter().zip(h.row_cols(row)) {
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
/// lattice has two 1024-row chunks); plain, augmented,
/// no-dot and rectangular kernels; serial and on 1-, 2-, 4- and
/// 8-thread pools at three cache budgets; on ragged random and lattice
/// matrices; and under every position of the runtime cap, i.e. on the
/// baseline, the AVX2 and the AVX-512 copy of the body. The reference
/// multiplies out all four products of every entry; the sweep leaves
/// out those with an exactly-zero factor on rows that hold no other
/// kind of entry, so [`kinds_matrix`] and [`kinds_stencil`] (the latter
/// through the stencil's own kernels) draw the kind per entry, `v` and
/// `w` hold zeros of both signs, and equality is on bit patterns — the
/// sign of every zero in `w` included.
#[test]
fn crs_panel_sweep_bitwise_equals_the_mul_add_chain_on_every_body() {
    use kpm_repro::sparse::tile::tile_rows_for_budget;
    use kpm_repro::sparse::{aug::AugDotsBlock, simd};
    use rand::SeedableRng;

    // The only test of this file that moves the process-wide cap (the
    // others run whichever copy is selected when they call).
    let (bodies, missing): (Vec<simd::Body>, Vec<simd::Body>) =
        simd::Body::ALL.iter().partition(|b| b.supported());
    for body in missing {
        println!(
            "crs_panel_sweep: this CPU does not execute the {} body — its comparison \
             with the reference DOES NOT RUN",
            body.name()
        );
    }
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
    let stencil = kinds_stencil(6);
    let matrices = [
        ("ragged-700", ragged_hermitian(700, 3)),
        ("ragged-90", ragged_hermitian(90, 4)),
        ("ti-8x8x5", TopoHamiltonian::clean(8, 8, 5).assemble()),
        (
            "dots-6x6x4",
            TopoHamiltonian::quantum_dot_superlattice(6, 6, 4).assemble(),
        ),
        ("kinds-150", kinds_matrix(150, 5)),
        ("kinds-stencil", stencil.to_crs()),
    ];
    let stencil = KpmMatrix::stencil(stencil);
    let (a, b) = (0.7, -0.2);
    for (name, h) in &matrices {
        let n = h.nrows();
        let top = h.row_block(0, n / 2);
        // The budget travels with the handle: one per budget.
        let handles = STENCIL_BUDGETS.map(|b| KpmMatrix::crs(h.clone()).with_cache_bytes(b));
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
            let rect_plain = expect(&top, None, n);
            let rect_aug = expect(&top, Some((a, b)), n);
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
                check(
                    "spmmv_rect",
                    &rect_plain,
                    run(&|w| {
                        top.spmmv_rect(&v, w);
                        none.clone()
                    }),
                );
                check(
                    "aug_spmmv_rect",
                    &rect_aug,
                    run(&|w| dots(top.aug_spmmv_rect(a, b, &v, w))),
                );
                if *name == "kinds-stencil" {
                    // The same rows through the matrix-free walk, at
                    // the default budget.
                    check(
                        "stencil spmmv",
                        &serial_plain,
                        run(&|w| {
                            stencil.spmmv(&v, w);
                            none.clone()
                        }),
                    );
                    check(
                        "stencil aug_spmmv",
                        &serial_aug,
                        run(&|w| dots(stencil.aug_spmmv(a, b, &v, w))),
                    );
                    check(
                        "stencil aug_spmmv_par",
                        &expect(h, Some((a, b)), tile_of(STENCIL_BUDGETS[0])),
                        pools[1].install(|| run(&|w| dots(stencil.aug_spmmv_par(a, b, &v, w)))),
                    );
                }
                for (budget, m) in STENCIL_BUDGETS.into_iter().zip(&handles) {
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
    fn evolution_preserves_norm_for_any_hermitian(h in hermitian_matrix(), t in -5.0f64..5.0, seed in any::<u64>()) {
        use kpm_repro::core::evolution::evolve;
        let sf = ScaleFactors::from_gershgorin(&h, 0.05);
        let mut v = Vector::from_vec(cvec(h.nrows(), seed));
        prop_assume!(v.norm() > 1e-9);
        v.normalize();
        let out = evolve(&h, sf, &v, t);
        prop_assert!((out.norm() - 1.0).abs() < 1e-9, "norm {}", out.norm());
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
    fn stencil_kernels_bitwise_equal_crs(
        ham in any_lattice(),
        r_idx in 0usize..STENCIL_WIDTHS.len(),
        budget_idx in 0usize..STENCIL_BUDGETS.len(),
        seed in any::<u64>(),
    ) {
        // The matrix-free stencil rebuilds the operator from the lattice
        // geometry; every kernel result must be *bitwise* equal to the
        // assembled CRS operator — any lattice shape and boundary, any
        // block width, any tile height, any thread count.
        let checked = stencil_equals_crs(&ham, STENCIL_WIDTHS[r_idx], STENCIL_BUDGETS[budget_idx], seed);
        prop_assert!(checked.is_ok(), "{:?}: {}", ham.lattice, checked.unwrap_err());
    }
}
