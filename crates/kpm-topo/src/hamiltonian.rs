//! Assembly of the topological-insulator Hamiltonian (paper Eq. 1).
//!
//! For site `n`, row block `n` of the matrix receives
//!
//! * the diagonal on-site block `V_n Γ⁰ + 2Γ¹`,
//! * the block `T_j† = -t(Γ¹ + iΓ^{j+1})/2` in column block `n + ê_j`
//!   (the H.c. partner of the outgoing bond), and
//! * the block `T_j = -t(Γ¹ - iΓ^{j+1})/2` in column block `n − ê_j`
//!   (the incoming bond `Ψ†_{n} … Ψ_{n-ê_j}` of Eq. 1).
//!
//! Every interior row has exactly 13 non-zeros (1 diagonal + 6 bonds × 2
//! per orbital row), matching the paper's `N_nz ≈ 13·N`.
//!
//! [`TopoHamiltonian::stencil_matrix`] turns exactly these inputs into
//! the stencil tables, which generate both forms of the operator: the
//! matrix-free sweeps and, through [`TopoHamiltonian::assemble`], the
//! CRS matrix. The literal per-row gather/sort/merge of the blocks
//! survives as the test oracle both are checked against.

use kpm_num::Complex64;
use kpm_sparse::{CrsMatrix, StencilMatrix};

use crate::gamma::{dagger, hopping_block, onsite_block, Gamma};
use crate::lattice::{Boundary, Lattice3D};
use crate::potential::Potential;

/// Spectral rescaling `H̃ = a(H - b·1)` (paper Section II).
///
/// `a` and `b` are chosen so the spectrum of `H̃` lies strictly inside
/// the Chebyshev interval of orthogonality `[-1, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleFactors {
    /// Multiplicative factor (`1/half-width`, shrunk by the safety
    /// margin ε).
    pub a: f64,
    /// Spectrum centre.
    pub b: f64,
}

impl ScaleFactors {
    /// Computes scale factors from spectral bounds `[lo, hi]` with a
    /// relative safety margin `epsilon` (typical: 0.01).
    pub fn from_bounds(lo: f64, hi: f64, epsilon: f64) -> Self {
        assert!(hi >= lo, "invalid spectral bounds");
        assert!((0.0..1.0).contains(&epsilon), "epsilon must be in [0,1)");
        let b = 0.5 * (hi + lo);
        let half = 0.5 * (hi - lo);
        let a = if half > 0.0 {
            (1.0 - epsilon) / half
        } else {
            1.0
        };
        Self { a, b }
    }

    /// Computes scale factors from Gershgorin bounds of `h` (the paper's
    /// default method).
    pub fn from_gershgorin(h: &CrsMatrix, epsilon: f64) -> Self {
        let (lo, hi) = h.gershgorin_bounds();
        Self::from_bounds(lo, hi, epsilon)
    }

    /// Maps a matrix eigenvalue `E` to the Chebyshev coordinate
    /// `x = a(E - b)`.
    pub fn to_chebyshev(&self, e: f64) -> f64 {
        self.a * (e - self.b)
    }

    /// Maps a Chebyshev coordinate `x ∈ [-1,1]` back to energy
    /// `E = x/a + b`.
    pub fn to_energy(&self, x: f64) -> f64 {
        x / self.a + self.b
    }
}

/// The topological-insulator Hamiltonian of paper Eq. (1).
#[derive(Debug, Clone)]
pub struct TopoHamiltonian {
    /// Lattice geometry and boundary conditions.
    pub lattice: Lattice3D,
    /// Hopping amplitude `t` (paper: the energy unit, t = 1).
    pub t: f64,
    /// On-site potential landscape.
    pub potential: Potential,
}

impl TopoHamiltonian {
    /// The clean system (V = 0) on the paper's default boundary
    /// conditions, `t = 1`.
    pub fn clean(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            lattice: Lattice3D::paper_default(nx, ny, nz),
            t: 1.0,
            potential: Potential::Zero,
        }
    }

    /// The quantum-dot superlattice configuration of paper Fig. 2.
    pub fn quantum_dot_superlattice(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            lattice: Lattice3D::paper_default(nx, ny, nz),
            t: 1.0,
            potential: Potential::paper_quantum_dots(),
        }
    }

    /// Matrix dimension `N = 4·Nx·Ny·Nz`.
    pub fn dim(&self) -> usize {
        self.lattice.dim()
    }

    /// Assembles the sparse matrix in CRS format: the stencil tables
    /// are the lattice's one generator, and this is their CRS form
    /// ([`StencilMatrix::to_crs`] — row lengths from the boundary-class
    /// table, rows filled in parallel on the ambient pool).
    pub fn assemble(&self) -> CrsMatrix {
        self.stencil_matrix().to_crs()
    }

    /// Builds the matrix-free stencil representation of the same
    /// operator.
    ///
    /// The stencil rebuilds the operator from the lattice geometry, the
    /// per-site on-site diagonals, and the six hopping blocks, visiting
    /// each row's entries in ascending column order, so rows (and
    /// therefore every kernel result, the Gershgorin bounds and the
    /// content fingerprint) are bitwise-identical to its CRS form
    /// (asserted against the gather/sort/merge oracle in the tests
    /// below and by the workspace determinism suite).
    pub fn stencil_matrix(&self) -> StencilMatrix {
        let lat = &self.lattice;
        let t_blocks: [Gamma; 3] = [
            hopping_block(self.t, 1),
            hopping_block(self.t, 2),
            hopping_block(self.t, 3),
        ];
        let t_dagger: [Gamma; 3] = [
            dagger(&t_blocks[0]),
            dagger(&t_blocks[1]),
            dagger(&t_blocks[2]),
        ];
        // Direction layout of StencilMatrix: 2j = +ê_j (the H.c. block
        // T_j†), 2j+1 = −ê_j (the incoming block T_j).
        let mut hop = [[[Complex64::default(); 4]; 4]; 6];
        for j in 0..3 {
            hop[2 * j] = t_dagger[j];
            hop[2 * j + 1] = t_blocks[j];
        }
        let onsite: Vec<[Complex64; 4]> = (0..lat.sites())
            .map(|site| {
                let (x, y, z) = lat.coords(site);
                let block = onsite_block(self.potential.value(lat, x, y, z));
                // The on-site block is exactly diagonal (Γ⁰ and Γ¹ are);
                // the stencil stores only the diagonal.
                debug_assert!(
                    (0..4).all(|o| (0..4).all(|p| o == p || block[o][p] == Complex64::default()))
                );
                [block[0][0], block[1][1], block[2][2], block[3][3]]
            })
            .collect();
        let periodic = [
            lat.boundary[0] == Boundary::Periodic,
            lat.boundary[1] == Boundary::Periodic,
            lat.boundary[2] == Boundary::Periodic,
        ];
        StencilMatrix::new(lat.nx, lat.ny, lat.nz, periodic, onsite, &hop)
    }

    /// The four Bloch eigenvalues of the translation-invariant system
    /// (`V_n = v` uniform, fully periodic lattice) at momentum
    /// `(kx, ky, kz)`:
    ///
    /// `E(k) = v ± sqrt( (2 - t·Σ_j cos k_j)² + t²·Σ_j sin² k_j )`,
    /// each doubly degenerate. Used to validate the assembled matrix
    /// against exact plane-wave states.
    pub fn bloch_eigenvalues(t: f64, v: f64, kx: f64, ky: f64, kz: f64) -> [f64; 4] {
        let mass = 2.0 - t * (kx.cos() + ky.cos() + kz.cos());
        let kin = t * t * (kx.sin() * kx.sin() + ky.sin() * ky.sin() + kz.sin() * kz.sin());
        let e = (mass * mass + kin).sqrt();
        [v - e, v - e, v + e, v + e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::{dagger, hopping_block, onsite_block, Gamma};
    use kpm_num::vector::dot;
    use kpm_num::Complex64;
    use kpm_sparse::SparseKernels;
    use std::f64::consts::PI;

    /// The literal assembly of Eq. (1), kept as the oracle the one
    /// generator is checked against: per site gather the on-site block
    /// and the up-to-six hopping blocks, per orbital row filter the
    /// zeros, sort by column and merge coincident partners.
    fn assemble_oracle(ham: &TopoHamiltonian) -> CrsMatrix {
        let lat = &ham.lattice;
        let n_sites = lat.sites();
        let dim = lat.dim();

        // Precompute the six hopping blocks (direction x sign).
        let t_blocks: [Gamma; 3] = [
            hopping_block(ham.t, 1),
            hopping_block(ham.t, 2),
            hopping_block(ham.t, 3),
        ];
        let t_dagger: [Gamma; 3] = [
            dagger(&t_blocks[0]),
            dagger(&t_blocks[1]),
            dagger(&t_blocks[2]),
        ];

        let mut row_ptr: Vec<u64> = Vec::with_capacity(dim + 1);
        // 13 nnz per interior row.
        let mut cols: Vec<u32> = Vec::with_capacity(13 * dim);
        let mut vals: Vec<Complex64> = Vec::with_capacity(13 * dim);
        row_ptr.push(0);

        // Scratch: (column block site, 4x4 block) pairs for one site.
        let mut blocks: Vec<(usize, Gamma)> = Vec::with_capacity(7);
        let mut entries: Vec<(u32, Complex64)> = Vec::with_capacity(32);

        for site in 0..n_sites {
            let (x, y, z) = lat.coords(site);
            let v = ham.potential.value(lat, x, y, z);
            let onsite = onsite_block(v);

            blocks.clear();
            blocks.push((site, onsite));
            for j in 1..=3 {
                if let Some(m) = lat.neighbor(x, y, z, j) {
                    // Outgoing bond n -> m: H.c. block T_j† in row n, col m.
                    blocks.push((m, t_dagger[j - 1]));
                }
                if let Some(m) = lat.neighbor_prev(x, y, z, j) {
                    // Incoming bond m -> n: block T_j in row n, col m.
                    blocks.push((m, t_blocks[j - 1]));
                }
            }

            for o in 0..4 {
                entries.clear();
                for (col_site, block) in &blocks {
                    let row = &block[o];
                    for (p, &val) in row.iter().enumerate() {
                        if val != Complex64::default() {
                            entries.push(((4 * *col_site + p) as u32, val));
                        }
                    }
                }
                entries.sort_unstable_by_key(|e| e.0);
                // Merge duplicates (possible only on tiny periodic
                // lattices where n+ê_j == n-ê_j).
                let mut k = 0;
                while k < entries.len() {
                    let (c, mut acc) = entries[k];
                    k += 1;
                    while k < entries.len() && entries[k].0 == c {
                        acc += entries[k].1;
                        k += 1;
                    }
                    cols.push(c);
                    vals.push(acc);
                }
                row_ptr.push(cols.len() as u64);
            }
        }

        CrsMatrix::from_raw(dim, dim, row_ptr, cols, vals)
    }

    fn all_boundaries(nx: usize, ny: usize, nz: usize) -> impl Iterator<Item = Lattice3D> {
        use crate::lattice::Boundary::{Open, Periodic};
        (0..8usize).map(move |bc| {
            let bound = |axis: usize| if bc >> axis & 1 == 1 { Periodic } else { Open };
            Lattice3D::new(nx, ny, nz, [bound(0), bound(1), bound(2)])
        })
    }

    fn potentials() -> [Potential; 4] {
        [
            Potential::Zero,
            Potential::paper_quantum_dots(),
            Potential::Disorder {
                width: 1.5,
                seed: 9,
            },
            Potential::Uniform(-2.0),
        ]
    }

    #[test]
    fn assemble_equals_the_gather_sort_merge_oracle_bitwise() {
        // Every shape with extents 1..=6 (extent 1 drops the axis,
        // extent 2 periodic merges the coincident partners), all eight
        // open/periodic combinations, four potentials — each smaller
        // than one fill chunk, so filled inline. `CrsMatrix: PartialEq`
        // compares row_ptr, cols and the values' bits.
        for (nx, ny, nz) in (0..216).map(|i| (1 + i % 6, 1 + i / 6 % 6, 1 + i / 36)) {
            for lattice in all_boundaries(nx, ny, nz) {
                for potential in potentials() {
                    let ham = TopoHamiltonian {
                        lattice,
                        t: 0.9,
                        potential,
                    };
                    let (h, st) = (ham.assemble(), ham.stencil_matrix());
                    assert!(h == assemble_oracle(&ham), "{ham:?}");
                    // What `kpm dos` reads off the generator instead of
                    // the CRS: the structural proof agrees with the
                    // entrywise check, the tabulated Gershgorin sums
                    // with the fold over the rows — bit-equal bounds,
                    // hence scale factors — and so does the entry count.
                    assert_eq!(st.check_hermitian().is_ok(), h.is_hermitian());
                    assert!(h.is_hermitian(), "{ham:?}");
                    assert_eq!(st.gershgorin_bounds(), h.gershgorin_bounds());
                    assert_eq!(st.nnz(), h.nnz());
                }
            }
        }
    }

    #[test]
    fn assemble_fills_chunks_in_parallel_to_the_same_bits() {
        // Two and three fill chunks of 16,384 rows with a ragged last
        // one, on pools of 1, 2 and 4 workers; 2 x 48 x 48 also takes
        // the coincident-partner path through the chunked fill.
        for (nx, ny, nz) in [(17, 16, 16), (40, 21, 10), (2, 48, 48)] {
            for (lattice, potential) in all_boundaries(nx, ny, nz).step_by(3).zip(potentials()) {
                let ham = TopoHamiltonian {
                    lattice,
                    t: 1.0,
                    potential,
                };
                let want = assemble_oracle(&ham);
                for threads in [1, 2, 4] {
                    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
                    let h = pool.build().unwrap().install(|| ham.assemble());
                    assert!(h == want, "{ham:?} on {threads} threads");
                }
            }
        }
    }

    #[test]
    fn dimensions_and_nnz_density() {
        let h = TopoHamiltonian::clean(6, 6, 4).assemble();
        assert_eq!(h.nrows(), 4 * 6 * 6 * 4);
        // Interior rows have 13 nnz; open-z boundary rows have 11.
        let nnzr = h.avg_nnz_per_row();
        assert!(nnzr > 11.9 && nnzr <= 13.0, "nnzr = {nnzr}");
    }

    #[test]
    fn fully_periodic_has_exactly_13_per_row() {
        let h = TopoHamiltonian {
            lattice: Lattice3D::periodic(4, 4, 4),
            t: 1.0,
            potential: Potential::Zero,
        }
        .assemble();
        for r in 0..h.nrows() {
            assert_eq!(h.row_len(r), 13, "row {r}");
        }
    }

    #[test]
    fn matrix_is_hermitian() {
        for ham in [
            TopoHamiltonian::clean(4, 3, 3),
            TopoHamiltonian::quantum_dot_superlattice(5, 5, 2),
            TopoHamiltonian {
                lattice: Lattice3D::periodic(3, 3, 3),
                t: 0.7,
                potential: Potential::Disorder {
                    width: 1.0,
                    seed: 3,
                },
            },
        ] {
            assert!(ham.assemble().is_hermitian());
        }
    }

    #[test]
    fn plane_waves_are_eigenstates() {
        // Fully periodic clean lattice: |k, s> built from the Bloch
        // eigenvectors of H(k) must satisfy H|psi> = E|psi>. We avoid
        // diagonalizing H(k) by checking the residual of the *projector*
        // identity instead: for the plane-wave-carrying subspace,
        // (H - E_-)(H - E_+)|psi> = 0 for ANY spinor amplitude, because
        // the 4x4 Bloch matrix has only eigenvalues E_- and E_+.
        let lat = Lattice3D::periodic(4, 4, 4);
        let ham = TopoHamiltonian {
            lattice: lat,
            t: 1.0,
            potential: Potential::Zero,
        };
        let h = ham.assemble();
        let n = h.nrows();
        let (kx, ky, kz) = (2.0 * PI / 4.0, -PI / 2.0, PI);
        let evs = TopoHamiltonian::bloch_eigenvalues(1.0, 0.0, kx, ky, kz);
        let (e_minus, e_plus) = (evs[0], evs[2]);

        // Plane wave with an arbitrary spinor.
        let spinor = [
            Complex64::new(0.3, 0.1),
            Complex64::new(-0.2, 0.5),
            Complex64::new(0.9, -0.4),
            Complex64::new(0.05, 0.6),
        ];
        let mut psi = vec![Complex64::default(); n];
        for site in 0..lat.sites() {
            let (x, y, z) = lat.coords(site);
            let phase = kx * x as f64 + ky * y as f64 + kz * z as f64;
            let bloch = Complex64::new(phase.cos(), phase.sin());
            for o in 0..4 {
                psi[4 * site + o] = bloch * spinor[o];
            }
        }

        // r = (H - E+)(H - E-) psi should vanish.
        let mut tmp = vec![Complex64::default(); n];
        h.spmv(&psi, &mut tmp);
        for i in 0..n {
            tmp[i] -= psi[i].scale(e_minus);
        }
        let mut r = vec![Complex64::default(); n];
        h.spmv(&tmp, &mut r);
        for i in 0..n {
            r[i] -= tmp[i].scale(e_plus);
        }
        let res: f64 = r.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        let norm: f64 = psi.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!(res / norm < 1e-10, "plane-wave residual {res}");
    }

    #[test]
    fn rayleigh_quotients_within_gershgorin() {
        let ham = TopoHamiltonian::quantum_dot_superlattice(6, 6, 3);
        let h = ham.assemble();
        let (lo, hi) = h.gershgorin_bounds();
        let mut rng = rand::rngs::mock::StepRng::new(1, 0x9E3779B97F4A7C15);
        use rand::Rng;
        let n = h.nrows();
        for _ in 0..5 {
            let v: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let mut hv = vec![Complex64::default(); n];
            h.spmv(&v, &mut hv);
            let num = dot(&v, &hv);
            let den = dot(&v, &v).re;
            let rayleigh = num.re / den;
            assert!(rayleigh >= lo - 1e-12 && rayleigh <= hi + 1e-12);
            // Hermitian matrix: Rayleigh quotient is real.
            assert!((num.im / den).abs() < 1e-10);
        }
    }

    #[test]
    fn scale_factors_map_bounds_into_unit_interval() {
        let h = TopoHamiltonian::clean(4, 4, 4).assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let (lo, hi) = h.gershgorin_bounds();
        assert!(sf.to_chebyshev(lo) >= -1.0);
        assert!(sf.to_chebyshev(hi) <= 1.0);
        assert!((sf.to_chebyshev(lo) + 0.99).abs() < 1e-12);
        assert!((sf.to_chebyshev(hi) - 0.99).abs() < 1e-12);
        // Round trip.
        let e = 0.37 * hi + 0.63 * lo;
        assert!((sf.to_energy(sf.to_chebyshev(e)) - e).abs() < 1e-12);
    }

    #[test]
    fn uniform_potential_shifts_diagonal() {
        let h0 = TopoHamiltonian::clean(3, 3, 2).assemble();
        let ham = TopoHamiltonian {
            lattice: Lattice3D::paper_default(3, 3, 2),
            t: 1.0,
            potential: Potential::Uniform(0.5),
        };
        let h1 = ham.assemble();
        for r in 0..h0.nrows() {
            let d0 = h0.get(r, r);
            let d1 = h1.get(r, r);
            assert!((d1 - d0).approx_eq(Complex64::real(0.5), 1e-14));
        }
    }

    #[test]
    fn structure_matches_paper_description() {
        // Paper Section I-B: "the matrix is a stencil but not a band
        // matrix"; periodic x/y boundaries produce outlying corner
        // diagonals.
        let lat = Lattice3D::paper_default(6, 5, 4);
        let h = TopoHamiltonian {
            lattice: lat,
            t: 1.0,
            potential: Potential::Zero,
        }
        .assemble();
        let stats = kpm_sparse::stats::analyze(&h, 4);
        assert!(stats.is_stencil(), "TI matrix must be a stencil");
        // Bulk hopping diagonals exist at +-4 (x), +-4*Nx (y), +-4*Nx*Ny
        // (z) plus intra-block offsets; bandwidth is the corner wrap,
        // far beyond the stencil width: not a band matrix.
        assert!(!stats.is_band_matrix(16 * lat.nx));
        let corners = stats.corner_diagonals(0.5);
        assert!(
            !corners.is_empty(),
            "periodic BCs must create corner diagonals"
        );
        // x-wrap: site offset (Nx-1) -> matrix offset 4*(Nx-1) block.
        let xwrap = 4 * (lat.nx as i64 - 1);
        assert!(
            stats
                .diagonals
                .iter()
                .any(|d| (d.offset - xwrap).abs() <= 3),
            "x wrap-around diagonal near {xwrap} expected"
        );
    }

    #[test]
    fn stencil_matrix_is_bitwise_identical_to_assembly() {
        // Every row of the regenerated stencil must equal the assembled
        // CRS row exactly — same columns, same bits — across boundary
        // conditions, potentials, and the duplicate-merging extent-2
        // periodic case.
        for ham in [
            TopoHamiltonian::clean(4, 3, 3),
            TopoHamiltonian::quantum_dot_superlattice(5, 4, 2),
            TopoHamiltonian {
                lattice: Lattice3D::periodic(3, 4, 3),
                t: 0.7,
                potential: Potential::Disorder {
                    width: 1.0,
                    seed: 3,
                },
            },
            TopoHamiltonian {
                lattice: Lattice3D::periodic(2, 3, 3),
                t: 1.3,
                potential: Potential::Uniform(0.25),
            },
        ] {
            let crs = assemble_oracle(&ham);
            let st = ham.stencil_matrix();
            assert_eq!(st.nrows(), crs.nrows());
            assert_eq!(st.nnz(), crs.nnz());
            let regen = st.to_crs();
            for r in 0..crs.nrows() {
                assert_eq!(regen.row_cols(r), crs.row_cols(r), "row {r}");
                assert_eq!(regen.row_vals(r), crs.row_vals(r), "row {r}");
            }
            // Equal rows imply equal content fingerprints: stencil and
            // CRS handles of one operator coalesce in the service.
            assert_eq!(st.content_fingerprint(), crs.content_fingerprint());
        }
    }

    #[test]
    fn stencil_kernels_match_crs_on_the_ti_operator() {
        use kpm_num::BlockVector;
        use kpm_sparse::SparseKernels;
        let ham = TopoHamiltonian::quantum_dot_superlattice(6, 5, 3);
        let crs = ham.assemble();
        let st = ham.stencil_matrix();
        let n = crs.nrows();
        let mut rng = rand::rngs::mock::StepRng::new(7, 0x9E3779B97F4A7C15);
        let v = BlockVector::random(n, 4, &mut rng);
        let w0 = BlockVector::random(n, 4, &mut rng);
        let (mut w1, mut w2) = (w0.clone(), w0);
        let d1 = SparseKernels::aug_spmmv(&crs, 0.4, -0.05, &v, &mut w1);
        let d2 = SparseKernels::aug_spmmv(&st, 0.4, -0.05, &v, &mut w2);
        assert_eq!(w1.max_abs_diff(&w2), 0.0);
        assert_eq!(d1, d2);
    }

    #[test]
    fn scale_factor_degenerate_spectrum() {
        let sf = ScaleFactors::from_bounds(2.0, 2.0, 0.05);
        assert_eq!(sf.b, 2.0);
        assert_eq!(sf.a, 1.0);
        assert_eq!(sf.to_chebyshev(2.0), 0.0);
    }
}
