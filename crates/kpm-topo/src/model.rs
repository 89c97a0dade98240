//! Auxiliary model matrices with known spectra.
//!
//! These are not part of the paper's workload; they exist so the KPM
//! solver and the kernels can be validated against exactly solvable
//! systems (analytic spectra, or small enough for the dense Jacobi
//! eigensolver in `kpm-num::eigen`).

use kpm_num::eigen::DenseHermitian;
use kpm_num::Complex64;
use kpm_sparse::{CooMatrix, CrsMatrix};

/// Open 1D tight-binding chain of length `n` with hopping `t`:
/// eigenvalues `E_k = 2 t cos(k π / (n+1))`, `k = 1..n`.
pub fn chain_1d(n: usize, t: f64) -> CrsMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n.saturating_sub(1) {
        coo.push(i, i + 1, Complex64::real(t));
        coo.push(i + 1, i, Complex64::real(t));
    }
    coo.to_crs()
        .expect("a model matrix's row pointers fit in memory")
}

/// Exact eigenvalues of [`chain_1d`], ascending.
pub fn chain_1d_eigenvalues(n: usize, t: f64) -> Vec<f64> {
    let mut evs: Vec<f64> = (1..=n)
        .map(|k| 2.0 * t * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos())
        .collect();
    evs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    evs
}

/// Periodic 1D chain (ring) of length `n` with hopping `t`:
/// eigenvalues `E_k = 2 t cos(2π k/n)`, `k = 0..n-1`.
pub fn ring_1d(n: usize, t: f64) -> CrsMatrix {
    assert!(n >= 3, "ring needs at least 3 sites");
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let j = (i + 1) % n;
        coo.push(i, j, Complex64::real(t));
        coo.push(j, i, Complex64::real(t));
    }
    coo.to_crs()
        .expect("a model matrix's row pointers fit in memory")
}

/// Random sparse Hermitian matrix: `per_row` off-diagonal pairs per row
/// plus a real diagonal, entries bounded by 1 in modulus. Deterministic
/// in `seed`.
pub fn random_hermitian(n: usize, per_row: usize, seed: u64) -> CrsMatrix {
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
        .expect("a model matrix's row pointers fit in memory")
}

/// Converts a (small) CRS matrix to the dense form accepted by the
/// Jacobi eigensolver.
pub fn to_dense_hermitian(m: &CrsMatrix) -> DenseHermitian {
    assert_eq!(m.nrows(), m.ncols(), "matrix must be square");
    let n = m.nrows();
    assert!(
        n <= 2048,
        "dense conversion is for validation-sized systems"
    );
    let mut data = vec![Complex64::default(); n * n];
    for r in 0..n {
        let row = m.row(r);
        for (&c, &v) in row.cols().iter().zip(row.vals()) {
            data[r * n + c as usize] = v;
        }
    }
    DenseHermitian::from_row_major(n, data)
}

/// Exact eigenvalues of a (small) sparse Hermitian matrix via dense
/// Jacobi, ascending.
pub fn exact_eigenvalues(m: &CrsMatrix) -> Vec<f64> {
    to_dense_hermitian(m).eigenvalues(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_spectrum_matches_jacobi() {
        let n = 14;
        let m = chain_1d(n, 1.0);
        assert!(m.is_hermitian());
        let exact = chain_1d_eigenvalues(n, 1.0);
        let jacobi = exact_eigenvalues(&m);
        for (a, b) in exact.iter().zip(&jacobi) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn ring_spectrum_is_cosine_band() {
        let n = 12;
        let m = ring_1d(n, 0.5);
        let mut exact: Vec<f64> = (0..n)
            .map(|k| 2.0 * 0.5 * (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos())
            .collect();
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let jacobi = exact_eigenvalues(&m);
        for (a, b) in exact.iter().zip(&jacobi) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn random_hermitian_is_hermitian_and_deterministic() {
        let a = random_hermitian(60, 4, 5);
        let b = random_hermitian(60, 4, 5);
        assert!(a.is_hermitian());
        assert_eq!(a.nnz(), b.nnz());
        assert_eq!(a.get(7, 9), b.get(7, 9));
    }

    #[test]
    fn topo_hamiltonian_small_spectrum_symmetric() {
        // The clean TI Hamiltonian at V=0 has a spectrum symmetric under
        // E -> -E only in special cases; but its eigenvalues must match
        // the Jacobi solver's Gershgorin-bounded set. Smoke-check the
        // pipeline end to end on a tiny sample.
        use crate::TopoHamiltonian;
        let h = TopoHamiltonian::clean(2, 2, 2).assemble();
        let evs = exact_eigenvalues(&h);
        assert_eq!(evs.len(), h.nrows());
        let (lo, hi) = h.gershgorin_bounds();
        for e in &evs {
            assert!(*e >= lo - 1e-9 && *e <= hi + 1e-9);
        }
    }
}
