//! Shared harness utilities for the figure/table regenerators and the
//! Criterion benches.
//!
//! Each `fig*`/`table*` binary in `src/bin/` regenerates one table or
//! figure of the paper and prints it as an aligned text table plus CSV
//! lines (prefixed `csv,`) so results can be both read and plotted.

#![warn(missing_docs)]

use std::time::Instant;

use kpm_num::{BlockVector, Complex64, Vector};
use kpm_sparse::{CrsMatrix, SparseKernels};
use kpm_topo::{ScaleFactors, TopoHamiltonian};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the paper's benchmark matrix for a given domain.
pub fn benchmark_matrix(nx: usize, ny: usize, nz: usize) -> (CrsMatrix, ScaleFactors) {
    let ham = TopoHamiltonian::clean(nx, ny, nz);
    let h = ham.assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    (h, sf)
}

/// Flops of one augmented blocked sweep (paper accounting).
fn sweep_flops(h: &CrsMatrix, r: usize) -> f64 {
    kpm_num::accounting::Sweep::Aug.flops(h.nrows(), h.nnz(), r) as f64
}

/// Measured sustained Gflop/s of the stage-1 kernel (`aug_spmv`) on
/// `threads` rayon threads: median over `reps` timed sweeps.
pub fn measure_aug_spmv(h: &CrsMatrix, sf: ScaleFactors, threads: usize, reps: usize) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let n = h.nrows();
    let mut rng = StdRng::seed_from_u64(42);
    let v = Vector::random(n, &mut rng).into_vec();
    let mut w = Vector::random(n, &mut rng).into_vec();
    let flops = sweep_flops(h, 1);
    let mut times = Vec::with_capacity(reps);
    pool.install(|| {
        // Warm-up sweep.
        h.aug_spmv_par(sf.a, sf.b, &v, &mut w);
        for _ in 0..reps {
            let t0 = Instant::now();
            h.aug_spmv_par(sf.a, sf.b, &v, &mut w);
            times.push(t0.elapsed().as_secs_f64());
        }
    });
    flops / median(&mut times) / 1e9
}

/// Measured sustained Gflop/s of the stage-2 kernel (`aug_spmmv`) at
/// block width `r` on `threads` rayon threads.
pub fn measure_aug_spmmv(
    h: &CrsMatrix,
    sf: ScaleFactors,
    r: usize,
    threads: usize,
    reps: usize,
) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let n = h.nrows();
    let mut rng = StdRng::seed_from_u64(43);
    let v = BlockVector::random(n, r, &mut rng);
    let mut w = BlockVector::random(n, r, &mut rng);
    let flops = sweep_flops(h, r);
    let mut times = Vec::with_capacity(reps);
    pool.install(|| {
        h.aug_spmmv_par(sf.a, sf.b, &v, &mut w);
        for _ in 0..reps {
            let t0 = Instant::now();
            h.aug_spmmv_par(sf.a, sf.b, &v, &mut w);
            times.push(t0.elapsed().as_secs_f64());
        }
    });
    flops / median(&mut times) / 1e9
}

/// Estimated attainable host memory bandwidth (GB/s) from a parallel
/// Schoenauer triad `a = b + s*c` over arrays far larger than the LLC.
pub fn measure_host_bandwidth() -> f64 {
    use rayon::prelude::*;
    let n = 1 << 24; // 16 Mi complex = 256 MiB per array
    let b = vec![Complex64::new(1.0, 2.0); n];
    let c = vec![Complex64::new(0.5, -0.5); n];
    let mut a = vec![Complex64::default(); n];
    let s = Complex64::real(1.5);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        a.par_iter_mut()
            .zip(b.par_iter().zip(c.par_iter()))
            .for_each(|(ai, (bi, ci))| *ai = s.mul_add(*ci, *bi));
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
    }
    // 3 arrays x 16 bytes.
    (3 * n * 16) as f64 / best / 1e9
}

/// Median of a mutable sample.
fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    xs[xs.len() / 2]
}

/// Parses `--flag value` style options, returning the value for `name`
/// or `default`.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Prints one aligned header row.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", cols.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_sample() {
        let mut xs = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut xs), 2.0);
    }

    #[test]
    fn benchmark_matrix_has_expected_occupancy() {
        let (h, sf) = benchmark_matrix(8, 8, 4);
        assert_eq!(h.nrows(), 4 * 8 * 8 * 4);
        assert!(h.avg_nnz_per_row() > 11.0);
        assert!(sf.a > 0.0);
    }

    #[test]
    fn measured_gflops_positive() {
        let (h, sf) = benchmark_matrix(6, 6, 4);
        let g = measure_aug_spmmv(&h, sf, 4, 2, 2);
        assert!(g > 0.0);
    }
}
