//! Graphene quantum-dot superlattices (paper ref. [21]).
//!
//! The physics companion to the 3D topological insulator: Fig. 2 of the
//! paper studies the same dot-superlattice physics that Pieper et al.
//! (Phys. Rev. B 89, 165121 — ref. [21]) establish for graphene. This
//! module provides the honeycomb-lattice tight-binding Hamiltonian
//!
//! `H = -t Σ_{<ij>} c†_i c_j + Σ_i V_i c†_i c_i`,
//!
//! so the full KPM stack (DOS, LDOS, spectral function, evolution) runs
//! on a second real workload with a qualitatively different spectrum
//! (linear Dirac DOS at E = 0 instead of a gapped 3D band structure).

use kpm_num::Complex64;
use kpm_sparse::{CooMatrix, CrsMatrix};

/// A honeycomb lattice of `nx × ny` unit cells (two sites per cell),
/// periodic in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrapheneLattice {
    /// Cells along the first lattice vector.
    pub nx: usize,
    /// Cells along the second lattice vector.
    pub ny: usize,
}

impl GrapheneLattice {
    /// Creates a periodic honeycomb lattice; extents must be ≥ 2 so the
    /// wrap-around bonds are distinct.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx >= 2 && ny >= 2, "need at least 2x2 cells");
        Self { nx, ny }
    }

    /// Number of sites (2 per cell).
    pub fn sites(&self) -> usize {
        2 * self.nx * self.ny
    }

    /// Matrix row of cell `(x, y)`, sublattice `s ∈ {0 (A), 1 (B)}`.
    #[inline]
    pub fn site(&self, x: usize, y: usize, s: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && s < 2);
        2 * (x + self.nx * y) + s
    }

    /// The three B-sublattice neighbours of the A site in cell `(x, y)`:
    /// same cell, cell `x-1`, and cell `y-1` (periodic wrap).
    pub fn neighbors_of_a(&self, x: usize, y: usize) -> [usize; 3] {
        let xm = (x + self.nx - 1) % self.nx;
        let ym = (y + self.ny - 1) % self.ny;
        [self.site(x, y, 1), self.site(xm, y, 1), self.site(x, ym, 1)]
    }
}

/// Graphene Hamiltonian: hopping `t` plus an on-site potential given by
/// a per-site closure (cell x, cell y, sublattice) → V.
pub fn graphene_hamiltonian<F>(lattice: GrapheneLattice, t: f64, potential: F) -> CrsMatrix
where
    F: Fn(usize, usize, usize) -> f64,
{
    let n = lattice.sites();
    let mut coo = CooMatrix::with_capacity(n, n, 4 * n);
    for y in 0..lattice.ny {
        for x in 0..lattice.nx {
            for s in 0..2 {
                let v = potential(x, y, s);
                if v != 0.0 {
                    coo.push(
                        lattice.site(x, y, s),
                        lattice.site(x, y, s),
                        Complex64::real(v),
                    );
                }
            }
            let a = lattice.site(x, y, 0);
            for b in lattice.neighbors_of_a(x, y) {
                coo.push(a, b, Complex64::real(-t));
                coo.push(b, a, Complex64::real(-t));
            }
        }
    }
    coo.to_crs()
}

/// The clean graphene sheet.
pub fn clean_graphene(lattice: GrapheneLattice, t: f64) -> CrsMatrix {
    graphene_hamiltonian(lattice, t, |_, _, _| 0.0)
}

/// Graphene with a square superlattice of circular gate-defined dots of
/// the given `strength`, `period` (in cells) and `radius` (the system of
/// paper ref. [21]).
pub fn graphene_quantum_dots(
    lattice: GrapheneLattice,
    t: f64,
    strength: f64,
    period: usize,
    radius: f64,
) -> CrsMatrix {
    graphene_hamiltonian(lattice, t, move |x, y, _| {
        let p = period as f64;
        let dx = (x as f64 - p / 2.0).rem_euclid(p)
            - if (x as f64 - p / 2.0).rem_euclid(p) > p / 2.0 {
                p
            } else {
                0.0
            };
        let dy = (y as f64 - p / 2.0).rem_euclid(p)
            - if (y as f64 - p / 2.0).rem_euclid(p) > p / 2.0 {
                p
            } else {
                0.0
            };
        if (dx * dx + dy * dy).sqrt() <= radius {
            strength
        } else {
            0.0
        }
    })
}

/// The two Bloch band energies of clean graphene at momentum
/// `(kx, ky)` (in reciprocal-cell units): `E = ±t·|1 + e^{ikx} + e^{iky}|`.
pub fn graphene_bloch_energies(t: f64, kx: f64, ky: f64) -> [f64; 2] {
    let f = Complex64::real(1.0) + Complex64::new(0.0, kx).exp() + Complex64::new(0.0, ky).exp();
    let e = t * f.abs();
    [-e, e]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::exact_eigenvalues;
    use kpm_sparse::SparseKernels;

    #[test]
    fn dimensions_and_coordination() {
        let lat = GrapheneLattice::new(4, 4);
        let h = clean_graphene(lat, 1.0);
        assert_eq!(h.nrows(), 32);
        // Every site has exactly 3 neighbours.
        for r in 0..h.nrows() {
            assert_eq!(h.row_len(r), 3, "row {r}");
        }
        assert!(h.is_hermitian());
    }

    #[test]
    fn spectrum_is_particle_hole_symmetric() {
        // Bipartite lattice: spectrum symmetric under E -> -E.
        let lat = GrapheneLattice::new(3, 3);
        let h = clean_graphene(lat, 1.0);
        let evs = exact_eigenvalues(&h);
        let n = evs.len();
        for i in 0..n / 2 {
            assert!(
                (evs[i] + evs[n - 1 - i]).abs() < 1e-9,
                "{} vs {}",
                evs[i],
                evs[n - 1 - i]
            );
        }
        // Bandwidth is 3t (the Gamma-point energy).
        assert!((evs[n - 1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bloch_momenta_are_exact_eigenvalues() {
        // Allowed momenta k = 2 pi m / N: each Bloch energy must appear
        // in the exact spectrum.
        let lat = GrapheneLattice::new(4, 4);
        let h = clean_graphene(lat, 1.0);
        let evs = exact_eigenvalues(&h);
        for mx in 0..4 {
            for my in 0..4 {
                let kx = 2.0 * std::f64::consts::PI * mx as f64 / 4.0;
                let ky = 2.0 * std::f64::consts::PI * my as f64 / 4.0;
                for e in graphene_bloch_energies(1.0, kx, ky) {
                    assert!(
                        evs.iter().any(|ev| (ev - e).abs() < 1e-9),
                        "Bloch energy {e} missing (k = {mx},{my})"
                    );
                }
            }
        }
    }

    #[test]
    fn plane_wave_projector_annihilates() {
        // (H - E-)(H - E+) |k, spinor> = 0 for any sublattice spinor.
        let lat = GrapheneLattice::new(6, 6);
        let h = clean_graphene(lat, 1.0);
        let n = h.nrows();
        let (kx, ky) = (
            2.0 * std::f64::consts::PI / 6.0,
            4.0 * std::f64::consts::PI / 6.0,
        );
        let [e_m, e_p] = graphene_bloch_energies(1.0, kx, ky);
        let spinor = [Complex64::new(0.4, 0.1), Complex64::new(-0.3, 0.8)];
        let mut psi = vec![Complex64::default(); n];
        for y in 0..6 {
            for x in 0..6 {
                let phase = kx * x as f64 + ky * y as f64;
                let bloch = Complex64::new(phase.cos(), phase.sin());
                for s in 0..2 {
                    psi[lat.site(x, y, s)] = bloch * spinor[s];
                }
            }
        }
        let mut t1 = vec![Complex64::default(); n];
        h.spmv(&psi, &mut t1);
        for i in 0..n {
            t1[i] -= psi[i].scale(e_m);
        }
        let mut r = vec![Complex64::default(); n];
        h.spmv(&t1, &mut r);
        for i in 0..n {
            r[i] -= t1[i].scale(e_p);
        }
        let res: f64 = r.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!(res < 1e-9, "residual {res}");
    }

    #[test]
    fn dirac_point_dos_vanishes() {
        // KPM DOS of clean graphene: rho(0) << rho at the van Hove
        // energy |E| = t.
        use crate::ScaleFactors;
        let lat = GrapheneLattice::new(24, 24);
        let h = clean_graphene(lat, 1.0);
        let sf = ScaleFactors::from_bounds(-3.0, 3.0, 0.02);
        // Single-state KPM is not enough; use the full solver via the
        // public kpm-core API in integration tests. Here: Gershgorin
        // sanity + structure only.
        let (lo, hi) = h.gershgorin_bounds();
        assert!(lo >= -3.0 - 1e-9 && hi <= 3.0 + 1e-9);
        assert!(sf.a > 0.0);
    }

    #[test]
    fn dots_add_diagonal_entries() {
        let lat = GrapheneLattice::new(8, 8);
        let h = graphene_quantum_dots(lat, 1.0, 0.3, 8, 2.0);
        assert!(h.is_hermitian());
        let with_diag = (0..h.nrows())
            .filter(|&r| h.get(r, r) != Complex64::default())
            .count();
        assert!(with_diag > 0 && with_diag < h.nrows());
        // Dot-centre site carries the potential.
        let centre = lat.site(4, 4, 0);
        assert_eq!(h.get(centre, centre), Complex64::real(0.3));
    }
}
