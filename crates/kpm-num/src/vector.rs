//! Dense complex vectors and BLAS level-1 kernels.
//!
//! These are the building blocks of the *naive* KPM-DOS algorithm (paper
//! Fig. 3): `spmv()` lives in `kpm-sparse`; `axpy()`, `scal()`, `nrm2()`
//! and `dot()` live here. Each kernel exists in a serial and a
//! rayon-parallel variant; the parallel variants chunk the index space so
//! reductions are tree-shaped and deterministic for a fixed chunk size.

use rand::Rng;
use rayon::prelude::*;

use crate::complex::Complex64;
use crate::summation::pairwise_sum_complex;

/// Chunk length used by the parallel kernels. One chunk of complex
/// doubles is 64 KiB — large enough to amortize scheduling, small enough
/// to load-balance.
pub(crate) const PAR_CHUNK: usize = 4096;

/// Leaf length of [`dot`]'s pairwise tree.
pub(crate) const DOT_BASE: usize = 256;

/// One uniform random entry of the complex square `[-1,1] x [-1,1]i`
/// (two draws: real part first).
#[inline]
pub fn random_entry<R: Rng>(rng: &mut R) -> Complex64 {
    let re = rng.gen_range(-1.0..=1.0);
    Complex64::new(re, rng.gen_range(-1.0..=1.0))
}

/// `nrm2` of the `n` entries [`Vector::fill_random`] would draw next,
/// reduced on [`dot`]'s tree as they are drawn — bit-equal to filling a
/// vector and taking its `nrm2`, without the vector.
pub fn random_nrm2<R: Rng>(n: usize, rng: &mut R) -> f64 {
    fn tree<R: Rng>(n: usize, rng: &mut R) -> Complex64 {
        if n <= DOT_BASE {
            let mut acc = Complex64::default();
            for _ in 0..n {
                let z = random_entry(rng);
                acc = z.conj().mul_add(z, acc);
            }
            return acc;
        }
        let lo = tree(n / 2, rng);
        lo + tree(n - n / 2, rng)
    }
    tree(n, rng).re
}

/// A dense vector of [`Complex64`] entries.
///
/// A thin newtype over `Vec<Complex64>`: it exists so that vector
/// semantics (dimension checks, fills, norms) have one home, while all
/// kernels accept plain slices and therefore also work on block-vector
/// columns and borrowed halves.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: Vec<Complex64>,
}

impl Vector {
    /// Creates a zero vector of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            data: vec![Complex64::default(); n],
        }
    }

    /// Creates a vector from existing data.
    pub fn from_vec(data: Vec<Complex64>) -> Self {
        Self { data }
    }

    /// Fills the vector with uniform random entries in the complex square
    /// `[-1,1] x [-1,1]i`, the random-phase initial states of the
    /// stochastic trace estimator.
    pub fn fill_random<R: Rng>(&mut self, rng: &mut R) {
        for z in &mut self.data {
            *z = random_entry(rng);
        }
    }

    /// A random vector of dimension `n`.
    pub fn random<R: Rng>(n: usize, rng: &mut R) -> Self {
        let mut v = Self::zeros(n);
        v.fill_random(rng);
        v
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the entries.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutably borrows the entries.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Consumes the vector, returning its storage.
    pub fn into_vec(self) -> Vec<Complex64> {
        self.data
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        nrm2(&self.data).sqrt()
    }

    /// Normalizes to unit Euclidean norm; returns the previous norm.
    pub fn normalize(&mut self) -> f64 {
        let n = self.norm();
        if n > 0.0 {
            scal(Complex64::real(1.0 / n), &mut self.data);
        }
        n
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = Complex64;
    fn index(&self, i: usize) -> &Complex64 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut Complex64 {
        &mut self.data[i]
    }
}

/// `y <- a*x + y` (BLAS `axpy`). Panics if dimensions differ.
pub fn axpy(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "axpy: dimension mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = a.mul_add(*xi, *yi);
    }
}

/// Parallel `y <- a*x + y`.
pub fn axpy_par(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "axpy_par: dimension mismatch");
    y.par_chunks_mut(PAR_CHUNK)
        .zip(x.par_chunks(PAR_CHUNK))
        .for_each(|(yc, xc)| axpy(a, xc, yc));
}

/// `x <- a*x` (BLAS `scal`).
pub fn scal(a: Complex64, x: &mut [Complex64]) {
    for xi in x {
        *xi = a * *xi;
    }
}

/// Parallel `x <- a*x`.
pub fn scal_par(a: Complex64, x: &mut [Complex64]) {
    x.par_chunks_mut(PAR_CHUNK).for_each(|c| scal(a, c));
}

/// Squared Euclidean norm `<x|x>` (BLAS `nrm2` squared), reduced
/// pairwise. The paper's `nrm2()` call computes `eta_{2m} = <v|v>`,
/// which is this quantity (no square root is ever taken in KPM).
pub fn nrm2(x: &[Complex64]) -> f64 {
    dot(x, x).re
}

/// Parallel squared Euclidean norm.
pub fn nrm2_par(x: &[Complex64]) -> f64 {
    dot_par(x, x).re
}

/// Sesquilinear dot product `<x|y> = sum_i conj(x_i) * y_i`, reduced
/// pairwise for accuracy and reduction-order stability.
pub fn dot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "dot: dimension mismatch");
    if x.len() <= DOT_BASE {
        let mut acc = Complex64::default();
        for (xi, yi) in x.iter().zip(y) {
            acc = xi.conj().mul_add(*yi, acc);
        }
        return acc;
    }
    let mid = x.len() / 2;
    dot(&x[..mid], &y[..mid]) + dot(&x[mid..], &y[mid..])
}

/// Parallel sesquilinear dot product. The partial sums per chunk are
/// themselves pairwise sums, and the chunk results are combined with a
/// final pairwise pass, so the result is independent of thread count.
pub fn dot_par(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "dot_par: dimension mismatch");
    let partials: Vec<Complex64> = x
        .par_chunks(PAR_CHUNK)
        .zip(y.par_chunks(PAR_CHUNK))
        .map(|(xc, yc)| dot(xc, yc))
        .collect();
    pairwise_sum_complex(&partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn zeros_has_zero_norm() {
        let v = Vector::zeros(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.norm(), 0.0);
    }

    #[test]
    fn random_entries_in_square() {
        let v = Vector::random(1000, &mut rng());
        for z in v.as_slice() {
            assert!(z.re.abs() <= 1.0 && z.im.abs() <= 1.0);
        }
        assert!(v.norm() > 0.0);
    }

    #[test]
    fn random_nrm2_is_the_norm_of_the_vector_it_does_not_store() {
        for n in [0, 1, 255, 256, 257, 4097, 10_000] {
            let drawn = nrm2(Vector::random(n, &mut rng()).as_slice());
            let mut r = rng();
            assert_eq!(random_nrm2(n, &mut r), drawn, "n = {n}");
            // ... and leaves the stream where the fill would have.
            let mut after = rng();
            Vector::random(n, &mut after);
            assert_eq!(r.gen_range(0u64..u64::MAX), after.gen_range(0u64..u64::MAX));
        }
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut v = Vector::random(257, &mut rng());
        let prev = v.norm();
        let reported = v.normalize();
        assert_eq!(prev, reported);
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        let a = Complex64::new(2.0, -1.0);
        let x: Vec<Complex64> = (0..37).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let mut y: Vec<Complex64> = (0..37).map(|i| Complex64::new(0.5, i as f64)).collect();
        let expect: Vec<Complex64> = x.iter().zip(&y).map(|(xi, yi)| a * *xi + *yi).collect();
        axpy(a, &x, &mut y);
        for (got, want) in y.iter().zip(&expect) {
            assert!(got.approx_eq(*want, 1e-12));
        }
    }

    #[test]
    fn axpy_par_matches_serial() {
        let mut r = rng();
        let a = Complex64::new(-0.7, 0.3);
        let x = Vector::random(10_000, &mut r).into_vec();
        let y0 = Vector::random(10_000, &mut r).into_vec();
        let mut y1 = y0.clone();
        let mut y2 = y0;
        axpy(a, &x, &mut y1);
        axpy_par(a, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn scal_par_matches_serial() {
        let a = Complex64::new(0.0, 1.0);
        let mut v1 = Vector::random(9999, &mut rng()).into_vec();
        let mut v2 = v1.clone();
        scal(a, &mut v1);
        scal_par(a, &mut v2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn dot_is_sesquilinear() {
        let x = vec![Complex64::new(0.0, 1.0); 4];
        let y = vec![Complex64::new(0.0, 1.0); 4];
        // <i*1|i*1> = conj(i)*i = 1 per element
        let d = dot(&x, &y);
        assert!(d.approx_eq(Complex64::real(4.0), 1e-15));
    }

    #[test]
    fn dot_conjugate_symmetry() {
        let mut r = rng();
        let x = Vector::random(513, &mut r).into_vec();
        let y = Vector::random(513, &mut r).into_vec();
        let a = dot(&x, &y);
        let b = dot(&y, &x);
        assert!(a.approx_eq(b.conj(), 1e-12));
    }

    #[test]
    fn dot_par_matches_serial_bitwise() {
        let mut r = rng();
        let x = Vector::random(100_000, &mut r).into_vec();
        let y = Vector::random(100_000, &mut r).into_vec();
        let s = dot(&x, &y);
        let p = dot_par(&x, &y);
        // Both are pairwise reductions; allow tiny differences from
        // different split points.
        assert!(s.approx_eq(p, 1e-9 * x.len() as f64 * f64::EPSILON.max(1e-16) + 1e-10));
    }

    #[test]
    fn nrm2_is_real_nonnegative() {
        let v = Vector::random(777, &mut rng());
        let n = nrm2(v.as_slice());
        assert!(n >= 0.0);
        assert!((nrm2_par(v.as_slice()) - n).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn axpy_dimension_mismatch_panics() {
        let x = vec![Complex64::default(); 3];
        let mut y = vec![Complex64::default(); 4];
        axpy(Complex64::real(1.0), &x, &mut y);
    }

    #[test]
    fn indexing_works() {
        let mut v = Vector::zeros(3);
        v[1] = Complex64::new(5.0, 6.0);
        assert_eq!(v[1], Complex64::new(5.0, 6.0));
        assert_eq!(v[0], Complex64::default());
    }
}
