//! End-to-end integration: topological-insulator Hamiltonian → KPM-DOS
//! (all three optimization stages) → spectral reconstruction, validated
//! against exact diagonalization.

use kpm_repro::core::dos::{moment_integral, reconstruct};
use kpm_repro::core::lanczos::lanczos_bounds;
use kpm_repro::core::solver::{kpm_moments, KpmParams, KpmVariant};
use kpm_repro::core::Kernel;
use kpm_repro::topo::model::exact_eigenvalues;
use kpm_repro::topo::{Lattice3D, Potential, ScaleFactors, TopoHamiltonian};

fn params(m: usize, r: usize) -> KpmParams {
    KpmParams {
        num_moments: m,
        num_random: r,
        seed: 20150527, // IPDPS 2015
        parallel: true,
        threads: 0,
        power: 1,
        first_touch: false,
    }
}

#[test]
fn all_three_stages_agree_on_the_physics_workload() {
    let h = TopoHamiltonian::quantum_dot_superlattice(6, 6, 3).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let p = params(64, 4);
    let naive = kpm_moments(&h, sf, &p, KpmVariant::Naive).unwrap();
    let s1 = kpm_moments(&h, sf, &p, KpmVariant::AugSpmv).unwrap();
    let s2 = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
    assert!(naive.max_abs_diff(&s1) < 1e-10);
    assert!(naive.max_abs_diff(&s2) < 1e-10);
}

#[test]
fn kpm_dos_matches_exact_spectrum_histogram() {
    // Small enough for the dense Jacobi eigensolver: compare eigenvalue
    // counts in several windows.
    let h = TopoHamiltonian::clean(3, 3, 3).assemble(); // N = 108
    let n = h.nrows();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let set = kpm_moments(&h, sf, &params(256, 64), KpmVariant::AugSpmmv).unwrap();
    let curve = reconstruct(&set, Kernel::Jackson, sf, 4096);
    let evs = exact_eigenvalues(&h);
    assert_eq!(evs.len(), n);

    for (lo, hi) in [(-6.0, -2.0), (-2.0, 2.0), (2.0, 6.0)] {
        let exact = evs.iter().filter(|e| **e >= lo && **e < hi).count() as f64;
        let kpm = curve.integral_window(lo, hi) * n as f64;
        // Stochastic trace + Jackson broadening: demand agreement to a
        // few states.
        assert!(
            (kpm - exact).abs() < 0.12 * n as f64,
            "window [{lo},{hi}]: KPM {kpm:.1} vs exact {exact}"
        );
    }
    // Total state count is exact up to quadrature error.
    assert!((curve.integral() - 1.0).abs() < 0.02);
    assert!((moment_integral(&set, Kernel::Jackson) - 1.0).abs() < 1e-10);
}

#[test]
fn lanczos_and_gershgorin_bounds_both_contain_spectrum() {
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let evs = exact_eigenvalues(&h);
    let (emin, emax) = (evs[0], *evs.last().unwrap());
    let (glo, ghi) = h.gershgorin_bounds();
    assert!(glo <= emin && ghi >= emax);
    let (llo, lhi) = lanczos_bounds(&h, 40, 1);
    assert!(llo <= emin + 1e-9 && lhi >= emax - 1e-9);
    // Lanczos is at least as tight.
    assert!(lhi - llo <= ghi - glo + 1e-9);
}

#[test]
fn quantum_dots_shift_spectral_weight() {
    // The gate potential moves states: DOS with dots differs from the
    // clean DOS near E = 0 but total weight is conserved.
    let lat = Lattice3D::paper_default(8, 8, 3);
    let clean = TopoHamiltonian {
        lattice: lat,
        t: 1.0,
        potential: Potential::Zero,
    }
    .assemble();
    let dotted = TopoHamiltonian {
        lattice: lat,
        t: 1.0,
        potential: Potential::QuantumDots {
            strength: 1.0,
            period: 8,
            radius: 2.5,
            depth: 1,
        },
    }
    .assemble();
    let p = params(128, 8);
    let sf_c = ScaleFactors::from_gershgorin(&clean, 0.01);
    let sf_d = ScaleFactors::from_gershgorin(&dotted, 0.01);
    let dos_c = reconstruct(
        &kpm_moments(&clean, sf_c, &p, KpmVariant::AugSpmmv).unwrap(),
        Kernel::Jackson,
        sf_c,
        1024,
    );
    let dos_d = reconstruct(
        &kpm_moments(&dotted, sf_d, &p, KpmVariant::AugSpmmv).unwrap(),
        Kernel::Jackson,
        sf_d,
        1024,
    );
    assert!((dos_c.integral() - dos_d.integral()).abs() < 0.03);
    let diff: f64 = (-10..=10)
        .map(|i| {
            let e = i as f64 * 0.05;
            (dos_c.value_at(e) - dos_d.value_at(e)).abs()
        })
        .sum();
    assert!(diff > 1e-3, "dots must modify the low-energy DOS: {diff}");
}

#[test]
fn dirichlet_vs_jackson_gibbs_behaviour_end_to_end() {
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let set = kpm_moments(&h, sf, &params(128, 16), KpmVariant::AugSpmmv).unwrap();
    let jackson = reconstruct(&set, Kernel::Jackson, sf, 1024);
    let dirichlet = reconstruct(&set, Kernel::Dirichlet, sf, 1024);
    let j_min = jackson.values.iter().cloned().fold(f64::INFINITY, f64::min);
    let d_min = dirichlet
        .values
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(j_min > -1e-6, "Jackson DOS must be non-negative: {j_min}");
    assert!(d_min < j_min, "sharp truncation must oscillate lower");
}

#[test]
fn disorder_broadens_the_spectrum() {
    // Physics of paper ref. [20] ("Fate of topological-insulator
    // surface states under strong disorder"): on-site disorder widens
    // the spectral support and fills structure in the DOS.
    let lat = Lattice3D::paper_default(6, 6, 3);
    let clean = TopoHamiltonian {
        lattice: lat,
        t: 1.0,
        potential: Potential::Zero,
    }
    .assemble();
    let dirty = TopoHamiltonian {
        lattice: lat,
        t: 1.0,
        potential: Potential::Disorder {
            width: 4.0,
            seed: 99,
        },
    }
    .assemble();
    let (clo, chi) = clean.gershgorin_bounds();
    let (dlo, dhi) = dirty.gershgorin_bounds();
    assert!(dlo < clo && dhi > chi, "disorder widens Gershgorin bounds");

    // DOS: the clean system has a bulk gap around E = 0 (low DOS);
    // strong disorder fills it.
    let p = params(128, 8);
    let sfc = ScaleFactors::from_gershgorin(&clean, 0.01);
    let sfd = ScaleFactors::from_gershgorin(&dirty, 0.01);
    let dos_c = reconstruct(
        &kpm_moments(&clean, sfc, &p, KpmVariant::AugSpmmv).unwrap(),
        Kernel::Jackson,
        sfc,
        1024,
    );
    let dos_d = reconstruct(
        &kpm_moments(&dirty, sfd, &p, KpmVariant::AugSpmmv).unwrap(),
        Kernel::Jackson,
        sfd,
        1024,
    );
    let gap_c = dos_c.integral_window(-0.4, 0.4);
    let gap_d = dos_d.integral_window(-0.4, 0.4);
    assert!(
        gap_d > gap_c,
        "disorder must add states near E=0: clean {gap_c}, dirty {gap_d}"
    );
}

#[test]
fn lorentz_kernel_broadens_but_conserves_weight() {
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let set = kpm_moments(&h, sf, &params(128, 8), KpmVariant::AugSpmmv).unwrap();
    let curve = reconstruct(&set, Kernel::Lorentz(4.0), sf, 2048);
    assert!((curve.integral() - 1.0).abs() < 0.02);
}

#[test]
fn ldos_moments_match_exact_eigenvector_expansion() {
    // The spectral theorem check the LDOS machinery must pass:
    // mu_m(site) = (1/4) sum_orbitals sum_n |psi_n(4*site+o)|^2 T_m(x_n),
    // with (E_n, psi_n) from the dense Jacobi eigensolver.
    use kpm_repro::core::chebyshev::t;
    use kpm_repro::core::ldos::site_moments;
    use kpm_repro::topo::model::to_dense_hermitian;

    let h = TopoHamiltonian::clean(2, 2, 2).assemble(); // N = 32
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let (evs, vecs) = to_dense_hermitian(&h).eigen_decomposition(1e-13);

    let site = 3usize;
    let m_count = 24usize;
    let kpm = site_moments(&h, sf, site, m_count).unwrap();

    for m in 0..m_count {
        let mut exact = 0.0;
        for o in 0..4 {
            let row = 4 * site + o;
            for (e, v) in evs.iter().zip(&vecs) {
                exact += v[row].norm_sqr() * t(m, sf.to_chebyshev(*e));
            }
        }
        exact /= 4.0; // site_moments averages the four orbital runs
        assert!(
            (kpm.as_slice()[m] - exact).abs() < 1e-8,
            "m={m}: KPM {} vs exact {exact}",
            kpm.as_slice()[m]
        );
    }
}

#[test]
fn graphene_dos_has_dirac_dip_and_van_hove_peaks() {
    // Second application workload (paper ref. [21]): the honeycomb
    // lattice DOS vanishes ~linearly at E = 0 and peaks at |E| = t.
    use kpm_repro::topo::graphene::{clean_graphene, GrapheneLattice};
    let lat = GrapheneLattice::new(48, 48);
    let h = clean_graphene(lat, 1.0);
    let sf = ScaleFactors::from_bounds(-3.0, 3.0, 0.02);
    let set = kpm_moments(&h, sf, &params(256, 8), KpmVariant::AugSpmmv).unwrap();
    let dos = reconstruct(&set, Kernel::Jackson, sf, 2048);
    let at_zero = dos.value_at(0.0);
    let at_vanhove = dos.value_at(1.0).max(dos.value_at(-1.0));
    assert!(
        at_vanhove > 4.0 * at_zero,
        "van Hove {at_vanhove} vs Dirac point {at_zero}"
    );
    // Particle-hole symmetry of the reconstruction.
    assert!((dos.value_at(0.7) - dos.value_at(-0.7)).abs() < 0.1 * dos.value_at(0.7));
    assert!((dos.integral() - 1.0).abs() < 0.02);
}

#[test]
fn wave_packet_spreads_under_evolution() {
    // Chebyshev propagation on the TI: a site-localized packet must
    // spread (participation ratio grows) while the norm stays 1.
    use kpm_repro::core::evolution::evolve;
    use kpm_repro::num::{Complex64, Vector};
    let h = TopoHamiltonian::clean(6, 6, 3).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let n = h.nrows();
    let mut data = vec![Complex64::default(); n];
    data[4 * 20] = Complex64::real(1.0);
    let psi0 = Vector::from_vec(data);
    let participation = |v: &Vector| -> f64 {
        let p4: f64 = v.as_slice().iter().map(|z| z.norm_sqr().powi(2)).sum();
        1.0 / p4
    };
    let psi_t = evolve(&h, sf, &psi0, 3.0);
    assert!((psi_t.norm() - 1.0).abs() < 1e-10);
    assert!(
        participation(&psi_t) > 5.0 * participation(&psi0),
        "packet must spread: {} -> {}",
        participation(&psi0),
        participation(&psi_t)
    );
}

/// The built `kpm dos` prints the same CSV, byte for byte, whether it
/// streams the assembled CRS or runs matrix-free end to end (no CRS is
/// assembled under `--format stencil`: bounds, scale factors and every
/// moment must still carry the CRS bits) — on a lattice with a periodic
/// extent-2 axis and the dots potential, at one and two threads, and
/// through `kpm count`.
#[test]
fn kpm_dos_stencil_stdout_is_byte_identical_to_crs() {
    let run = |sub: &str, extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_kpm"))
            .arg(sub)
            .args(["--nx", "2", "--ny", "5", "--nz", "4", "--potential", "dots"])
            .args(["--moments", "48", "--random", "3", "--seed", "7"])
            .args(extra)
            .output()
            .expect("kpm runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "kpm {sub} {extra:?}: {stderr}");
        (out.stdout, stderr)
    };
    for threads in ["1", "2"] {
        let (crs, crs_banner) = run("dos", &["--threads", threads, "--format", "crs"]);
        let (stencil, banner) = run("dos", &["--threads", threads, "--format", "stencil"]);
        assert!(crs.starts_with(b"energy,dos\n") && crs.len() > 1024);
        assert!(crs == stencil, "dos CSV differs at --threads {threads}");
        // Same N and Nnz on the banner, read off the stencil.
        assert_eq!(
            banner.replace("format = stencil", "format = crs"),
            crs_banner
        );
    }
    let window = ["--from", "-0.5", "--to", "0.5", "--threads", "2"];
    let (crs, _) = run("count", &[&window[..], &["--format", "crs"]].concat());
    let (stencil, _) = run("count", &[&window[..], &["--format", "stencil"]].concat());
    assert!(crs == stencil && !crs.is_empty(), "count output differs");
}

/// The built `kpm dos` still prints what older binaries printed: the
/// CSVs under `tests/golden/` were captured from parent binaries (the
/// first two from the commit before the set-up rewrite, the 8×8×6 pair
/// from the one before the kernel collapse), so this is a check against
/// *old* outputs, not of the code against itself — byte for byte at one
/// and two threads, streaming the CRS or matrix-free, with the widest
/// sweep body the CPU executes (AVX-512, else AVX2) or the baseline one. The second lattice has a periodic extent-2
/// axis (coincident partners: rows are regenerated and merged); the
/// 8×8×6 one has 1,536 rows — two width-1 chunks, three 512-row tiles —
/// at R = 1 (the width-1 path) and R = 5 (panels 4 + 1). The 5×4×6 pair
/// (periodic x and y, open z; printed by the commit before the zero-skip
/// arms) pins the AVX-512 copy's 16-column pass: R = 17 is one such pass
/// plus a column, R = 32 two of them on whole rows.
#[test]
fn kpm_dos_reproduces_the_golden_outputs_of_the_parent_binary() {
    let golden = |name: &str| {
        let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let dots = "--nx 6 --ny 5 --nz 4 --potential dots --moments 32 --random 3 --seed 7";
    let coincident = "--nx 2 --ny 6 --nz 5 --moments 16 --random 8";
    let chunked = "--nx 8 --ny 8 --nz 6 --potential dots --moments 32 --seed 7";
    let (chunked_r1, chunked_r5) = (
        format!("{chunked} --random 1"),
        format!("{chunked} --random 5"),
    );
    let two_panel = "--nx 5 --ny 4 --nz 6 --potential dots --moments 32 --seed 7";
    let (two_panel_r17, two_panel_r32) = (
        format!("{two_panel} --random 17"),
        format!("{two_panel} --random 32"),
    );
    for (command, want) in [
        (dots, golden("dos_6x5x4_dots_m32_r3_s7.csv")),
        (coincident, golden("dos_2x6x5_m16_r8.csv")),
        (&chunked_r1[..], golden("dos_8x8x6_dots_m32_r1_s7.csv")),
        (&chunked_r5[..], golden("dos_8x8x6_dots_m32_r5_s7.csv")),
        (&two_panel_r17[..], golden("dos_5x4x6_dots_m32_r17_s7.csv")),
        (&two_panel_r32[..], golden("dos_5x4x6_dots_m32_r32_s7.csv")),
    ] {
        for threads in ["1", "2"] {
            for format in ["crs", "stencil"] {
                for body in [&[][..], &["--no-simd"]] {
                    let out = std::process::Command::new(env!("CARGO_BIN_EXE_kpm"))
                        .arg("dos")
                        .args(command.split(' '))
                        .args(["--threads", threads, "--format", format])
                        .args(body)
                        .output()
                        .expect("kpm runs");
                    let run =
                        format!("kpm dos {command} --threads {threads} --format {format} {body:?}");
                    assert!(out.status.success(), "{run}");
                    assert!(
                        out.stdout == want,
                        "{run}: stdout differs from the golden CSV"
                    );
                }
            }
        }
    }
}
