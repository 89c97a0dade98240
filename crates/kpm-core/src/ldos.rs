//! Site-resolved local density of states (LDOS).
//!
//! The left panel of paper Fig. 2 shows the LDOS of the quantum-dot
//! superlattice on the surface layer at `E = 0`: the dot-bound states
//! appear as bright disks. The LDOS at site `n` is
//!
//! `ρ_n(E) = Σ_{o=0..3} ⟨n,o| δ(E - H) |n,o⟩`,
//!
//! i.e. a KPM run per orbital with the unit vector `e_{4n+o}` as start —
//! no stochastic trace involved.

use kpm_num::{Complex64, KpmError, Vector};
use kpm_sparse::CrsMatrix;
use kpm_topo::{Lattice3D, ScaleFactors};

use crate::dos::{reconstruct, DosCurve};
use crate::kernels::Kernel;
use crate::moments::MomentSet;
use crate::solver::moments_from_start;

/// LDOS moments of a single lattice site (all four orbitals summed).
pub fn site_moments(
    h: &CrsMatrix,
    sf: ScaleFactors,
    site: usize,
    num_moments: usize,
) -> Result<MomentSet, KpmError> {
    if 4 * site + 3 >= h.nrows() {
        return Err(KpmError::InvalidParams {
            what: "site",
            details: format!(
                "site index out of range (site {site} needs rows {}..{}, matrix has {})",
                4 * site,
                4 * site + 4,
                h.nrows()
            ),
        });
    }
    let n = h.nrows();
    let mut acc = MomentSet::zeros(num_moments);
    for o in 0..4 {
        let mut data = vec![Complex64::default(); n];
        data[4 * site + o] = Complex64::real(1.0);
        let start = Vector::from_vec(data);
        // The inner kernels stay serial: parallelism is across sites.
        acc.accumulate(&moments_from_start(h, sf, &start, num_moments)?);
    }
    Ok(acc)
}

/// The full LDOS curve `ρ_n(E)` of one site. The per-orbital moment
/// average is rescaled by 4 so the curve integrates to the number of
/// local states (4).
pub fn site_ldos(
    h: &CrsMatrix,
    sf: ScaleFactors,
    site: usize,
    num_moments: usize,
    kernel: Kernel,
    n_points: usize,
) -> Result<DosCurve, KpmError> {
    let set = site_moments(h, sf, site, num_moments)?;
    let mut curve = reconstruct(&set, kernel, sf, n_points);
    for v in &mut curve.values {
        *v *= 4.0;
    }
    Ok(curve)
}

/// A sampled LDOS map over the surface layer (fixed `z`), evaluated at
/// one energy — the data of paper Fig. 2, left panel.
#[derive(Debug, Clone)]
pub struct LdosMap {
    /// Lattice x-coordinates of the sample points.
    pub xs: Vec<usize>,
    /// Lattice y-coordinates of the sample points.
    pub ys: Vec<usize>,
    /// LDOS value at each `(x, y)`.
    pub values: Vec<f64>,
}

impl LdosMap {
    /// The value at sample index `(x, y)`, if present.
    pub fn get(&self, x: usize, y: usize) -> Option<f64> {
        self.xs
            .iter()
            .zip(&self.ys)
            .position(|(&xi, &yi)| xi == x && yi == y)
            .map(|i| self.values[i])
    }
}

/// Computes the LDOS map at energy `energy` on layer `z`, sampling every
/// `stride`-th site in x and y. Sites are processed in parallel (each
/// site is an independent KPM run).
#[allow(clippy::too_many_arguments)]
pub fn ldos_map(
    h: &CrsMatrix,
    sf: ScaleFactors,
    lattice: &Lattice3D,
    z: usize,
    energy: f64,
    stride: usize,
    num_moments: usize,
    kernel: Kernel,
) -> Result<LdosMap, KpmError> {
    if z >= lattice.nz {
        return Err(KpmError::InvalidParams {
            what: "z",
            details: format!("layer out of range (z = {z}, nz = {})", lattice.nz),
        });
    }
    if stride < 1 {
        return Err(KpmError::InvalidParams {
            what: "stride",
            details: "stride must be positive".to_string(),
        });
    }
    let coords: Vec<(usize, usize)> = (0..lattice.ny)
        .step_by(stride)
        .flat_map(|y| (0..lattice.nx).step_by(stride).map(move |x| (x, y)))
        .collect();
    let values: Vec<f64> = rayon::map_chunks(coords.iter(), |_, &(x, y)| {
        let site = lattice.site(x, y, z);
        let curve = site_ldos(h, sf, site, num_moments, kernel, 512)?;
        Ok(curve.value_at(energy))
    })
    .into_iter()
    .collect::<Result<_, KpmError>>()?;
    Ok(LdosMap {
        xs: coords.iter().map(|c| c.0).collect(),
        ys: coords.iter().map(|c| c.1).collect(),
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_topo::model::chain_1d;
    use kpm_topo::{Potential, TopoHamiltonian};

    #[test]
    fn ldos_integrates_to_local_state_count() {
        let ham = TopoHamiltonian::clean(4, 4, 2);
        let h = ham.assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let curve = site_ldos(&h, sf, 5, 64, Kernel::Jackson, 1024).unwrap();
        // 4 orbitals -> integral 4.
        assert!((curve.integral() - 4.0).abs() < 0.1, "{}", curve.integral());
    }

    #[test]
    fn uniform_system_has_uniform_surface_ldos() {
        // Clean system, periodic in x/y: all surface sites equivalent.
        let ham = TopoHamiltonian::clean(4, 4, 3);
        let h = ham.assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let lat = ham.lattice;
        let map = ldos_map(&h, sf, &lat, 0, 0.0, 1, 32, Kernel::Jackson).unwrap();
        let v0 = map.values[0];
        for v in &map.values {
            assert!((v - v0).abs() < 1e-8 * v0.abs().max(1.0), "{v} vs {v0}");
        }
        assert_eq!(map.values.len(), 16);
        assert!(map.get(1, 2).is_some());
        assert!(map.get(17, 0).is_none());
    }

    #[test]
    fn dot_potential_breaks_uniformity() {
        // A small dot superlattice must modulate the LDOS between
        // dot-centre and far-field sites somewhere in the spectrum.
        let ham = TopoHamiltonian {
            lattice: kpm_topo::Lattice3D::paper_default(8, 8, 2),
            t: 1.0,
            potential: Potential::QuantumDots {
                strength: 1.5,
                period: 8,
                radius: 2.0,
                depth: 1,
            },
        };
        let h = ham.assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let lat = ham.lattice;
        // Dot centre (4,4); far corner (0,0).
        let inside = site_ldos(&h, sf, lat.site(4, 4, 0), 64, Kernel::Jackson, 256).unwrap();
        let outside = site_ldos(&h, sf, lat.site(0, 0, 0), 64, Kernel::Jackson, 256).unwrap();
        let diff: f64 = inside
            .values
            .iter()
            .zip(&outside.values)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 0.05,
            "dot potential should modulate the LDOS: {diff}"
        );
    }

    #[test]
    fn chain_end_vs_middle_ldos_differ() {
        // Open chain: end sites have sqrt-band-edge-suppressed LDOS at
        // the band centre relative to bulk sites... use generic check:
        // the two curves are genuinely different.
        let h = chain_1d(64, 1.0);
        let sf = ScaleFactors::from_bounds(-2.0, 2.0, 0.05);
        // chain has 1 dof per site; emulate orbitals by bare start
        // vectors instead of site_ldos.
        let mut e0 = vec![Complex64::default(); 64];
        e0[0] = Complex64::real(1.0);
        let mut em = vec![Complex64::default(); 64];
        em[32] = Complex64::real(1.0);
        let end = moments_from_start(&h, sf, &Vector::from_vec(e0), 64).unwrap();
        let mid = moments_from_start(&h, sf, &Vector::from_vec(em), 64).unwrap();
        assert!(end.max_abs_diff(&mid) > 1e-3);
    }

    #[test]
    fn bad_site_rejected() {
        let h = chain_1d(16, 1.0);
        let sf = ScaleFactors::from_bounds(-2.0, 2.0, 0.05);
        // Site 4 needs rows 16..19, which the 16-row matrix lacks.
        let err = site_moments(&h, sf, 4, 8).expect_err("out-of-range site");
        assert!(err.to_string().contains("site index out of range"), "{err}");
    }
}
