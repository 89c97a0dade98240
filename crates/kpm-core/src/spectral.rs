//! Momentum-resolved spectral function `A(k, E)`.
//!
//! The right panel of paper Fig. 2 shows `A(k, E)` of the quantum-dot
//! superlattice: the Dirac cone of the topological surface state with
//! dot-induced band features. For a momentum `k` the spectral function
//! is
//!
//! `A(k, E) = Σ_σ ⟨k,σ| δ(E − H) |k,σ⟩`,
//!
//! with `|k,σ⟩` the normalized plane wave with spinor component `σ`,
//! computed as one KPM run per spinor channel.

use kpm_num::{Complex64, KpmError, Vector};
use kpm_sparse::CrsMatrix;
use kpm_topo::{Lattice3D, ScaleFactors};

use crate::dos::{reconstruct, DosCurve};
use crate::kernels::Kernel;
use crate::moments::MomentSet;
use crate::solver::moments_from_start;

/// Builds the normalized plane-wave state `|k, σ⟩` on the lattice:
/// amplitude `e^{i k·n} / √(sites)` on orbital `σ` of every site.
pub fn plane_wave(lattice: &Lattice3D, k: (f64, f64, f64), spinor: usize) -> Vector {
    assert!(spinor < 4, "spinor index must be 0..3");
    let n = lattice.dim();
    let norm = 1.0 / (lattice.sites() as f64).sqrt();
    let mut data = vec![Complex64::default(); n];
    for site in 0..lattice.sites() {
        let (x, y, z) = lattice.coords(site);
        let phase = k.0 * x as f64 + k.1 * y as f64 + k.2 * z as f64;
        data[4 * site + spinor] = Complex64::new(phase.cos(), phase.sin()).scale(norm);
    }
    Vector::from_vec(data)
}

/// KPM moments of `A(k, ·)`, averaged over the four spinor channels.
pub fn momentum_moments(
    h: &CrsMatrix,
    sf: ScaleFactors,
    lattice: &Lattice3D,
    k: (f64, f64, f64),
    num_moments: usize,
) -> Result<MomentSet, KpmError> {
    let mut acc = MomentSet::zeros(num_moments);
    for spinor in 0..4 {
        let start = plane_wave(lattice, k, spinor);
        acc.accumulate(&moments_from_start(h, sf, &start, num_moments, false)?);
    }
    Ok(acc)
}

/// The spectral function `A(k, E)` on an energy grid. Normalization:
/// the curve integrates to 4 (one state per spinor channel).
#[allow(clippy::too_many_arguments)]
pub fn spectral_function(
    h: &CrsMatrix,
    sf: ScaleFactors,
    lattice: &Lattice3D,
    k: (f64, f64, f64),
    num_moments: usize,
    kernel: Kernel,
    n_points: usize,
) -> Result<DosCurve, KpmError> {
    let set = momentum_moments(h, sf, lattice, k, num_moments)?;
    let mut curve = reconstruct(&set, kernel, sf, n_points);
    for v in &mut curve.values {
        *v *= 4.0;
    }
    Ok(curve)
}

/// A line cut through momentum space: `A(k_x, E)` for `n_k` momenta
/// along x (the abscissa of paper Fig. 2's right panel). Momenta are
/// processed in parallel.
pub struct SpectralCut {
    /// The sampled `k_x` values (in units where the Brillouin zone is
    /// `[-π, π]`).
    pub kx: Vec<f64>,
    /// One spectral curve per momentum.
    pub curves: Vec<DosCurve>,
}

/// Computes a `k_x` cut of the spectral function around the zone centre:
/// `k_x ∈ [-k_max, k_max]`, `k_y = k_z = 0`.
#[allow(clippy::too_many_arguments)]
pub fn spectral_cut(
    h: &CrsMatrix,
    sf: ScaleFactors,
    lattice: &Lattice3D,
    k_max: f64,
    n_k: usize,
    num_moments: usize,
    kernel: Kernel,
    n_points: usize,
) -> Result<SpectralCut, KpmError> {
    if n_k < 2 {
        return Err(KpmError::InvalidParams {
            what: "n_k",
            details: "need at least two momenta".to_string(),
        });
    }
    let kx: Vec<f64> = (0..n_k)
        .map(|i| -k_max + 2.0 * k_max * i as f64 / (n_k - 1) as f64)
        .collect();
    let curves: Vec<DosCurve> = rayon::map_chunks(kx.iter(), |_, &k| {
        spectral_function(h, sf, lattice, (k, 0.0, 0.0), num_moments, kernel, n_points)
    })
    .into_iter()
    .collect::<Result<_, KpmError>>()?;
    Ok(SpectralCut { kx, curves })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_topo::{Potential, TopoHamiltonian};

    fn periodic_clean(nx: usize, ny: usize, nz: usize) -> TopoHamiltonian {
        TopoHamiltonian {
            lattice: Lattice3D::periodic(nx, ny, nz),
            t: 1.0,
            potential: Potential::Zero,
        }
    }

    #[test]
    fn plane_wave_is_normalized() {
        let lat = Lattice3D::periodic(4, 4, 4);
        let v = plane_wave(&lat, (0.5, -0.25, 1.0), 2);
        assert!((v.norm() - 1.0).abs() < 1e-12);
        // Only the chosen spinor channel is occupied.
        for site in 0..lat.sites() {
            assert_eq!(v[4 * site], Complex64::default());
            assert!(v[4 * site + 2].abs() > 0.0);
        }
    }

    #[test]
    fn spectral_peaks_at_bloch_eigenvalues() {
        // Fully periodic clean system: A(k, E) must concentrate at the
        // two Bloch bands E_±(k).
        let ham = periodic_clean(6, 4, 4);
        let h = ham.assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let k = (2.0 * std::f64::consts::PI / 6.0, 0.0, 0.0); // allowed momentum
        let curve = spectral_function(&h, sf, &ham.lattice, k, 256, Kernel::Jackson, 1024).unwrap();
        let evs = TopoHamiltonian::bloch_eigenvalues(1.0, 0.0, k.0, k.1, k.2);
        let (e_minus, e_plus) = (evs[0], evs[2]);
        // The curve should be large near both band energies and small
        // in the middle of the gap between them... compare values.
        let at_minus = curve.value_at(e_minus);
        let at_plus = curve.value_at(e_plus);
        let mid = curve.value_at(0.5 * (e_minus + e_plus));
        assert!(at_minus > 10.0 * mid, "A at E- = {at_minus}, mid = {mid}");
        assert!(at_plus > 10.0 * mid, "A at E+ = {at_plus}, mid = {mid}");
    }

    #[test]
    fn spectral_integral_is_spinor_count() {
        let ham = periodic_clean(4, 4, 4);
        let h = ham.assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let curve = spectral_function(
            &h,
            sf,
            &ham.lattice,
            (0.0, 0.0, 0.0),
            128,
            Kernel::Jackson,
            2048,
        )
        .unwrap();
        assert!(
            (curve.integral() - 4.0).abs() < 0.05,
            "{}",
            curve.integral()
        );
    }

    #[test]
    fn cut_is_symmetric_for_clean_system() {
        // E(k) = E(-k) for the clean Hamiltonian: the cut's peak
        // energies must be symmetric around k = 0.
        let ham = periodic_clean(8, 4, 2);
        let h = ham.assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let cut = spectral_cut(
            &h,
            sf,
            &ham.lattice,
            std::f64::consts::PI / 2.0,
            5,
            96,
            Kernel::Jackson,
            256,
        )
        .unwrap();
        assert_eq!(cut.kx.len(), 5);
        assert!((cut.kx[2]).abs() < 1e-12);
        // A(k,E) = A(-k,E): the full curves must coincide (up to
        // Chebyshev round-off), not just their peaks.
        let left = &cut.curves[0];
        let right = &cut.curves[4];
        let max_val = left.values.iter().cloned().fold(0.0, f64::max);
        for (a, b) in left.values.iter().zip(&right.values) {
            assert!((a - b).abs() < 1e-6 * max_val.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "spinor index")]
    fn invalid_spinor_panics() {
        let lat = Lattice3D::periodic(2, 2, 2);
        plane_wave(&lat, (0.0, 0.0, 0.0), 4);
    }
}
