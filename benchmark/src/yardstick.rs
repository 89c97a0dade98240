//! The yardstick: a frozen, plain implementation of one blocked KPM
//! sweep that the untraced run times before and after every child
//! process, so that wall times can be reported in seconds of a quiet
//! host.
//!
//! The host this benchmark was sized on shares its memory system and
//! its cores' second hardware threads with other tenants. Unchanged
//! code runs up to twice slower for minutes at a time there, which no
//! estimator over the repetitions of one run removes. What does remove
//! it is dividing every wall time by the slowdown, measured at the same
//! moment, of code that loads the machine the way the workload does:
//! the same lattice, block width and thread count, a CRS matrix with
//! the same 13 entries per row, streamed the same way. The kernel is
//! written out here, on a matrix generated here, so that no change to
//! the crates under test can move it.

use std::time::Instant;

use crate::host::C64;

/// Orbitals per lattice site, entries per row: the diagonal plus two
/// orbitals on each of the six neighbours, as the paper's Hamiltonian.
const ORBITALS: usize = 4;
const ROW_ENTRIES: usize = 13;
/// Every entry; 13 of them keep the row sums below one.
const ENTRY: C64 = C64 {
    re: 1.0 / 14.0,
    im: 0.0,
};

pub struct Yardstick {
    r: usize,
    threads: usize,
    sweeps: usize,
    col: Vec<u32>,
    val: Vec<C64>,
    x: Vec<C64>,
    y: Vec<C64>,
}

impl Yardstick {
    /// A periodic `nx × ny × nz` lattice with four orbitals per site,
    /// block vectors of width `r` stored row-major, and `sweeps` sweeps
    /// per measurement.
    pub fn new(
        (nx, ny, nz): (usize, usize, usize),
        r: usize,
        threads: usize,
        sweeps: usize,
    ) -> Yardstick {
        let n = ORBITALS * nx * ny * nz;
        let site = |ix: usize, iy: usize, iz: usize| (ix * ny + iy) * nz + iz;
        let mut col = Vec::with_capacity(n * ROW_ENTRIES);
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let neighbours = [
                        site((ix + 1) % nx, iy, iz),
                        site((ix + nx - 1) % nx, iy, iz),
                        site(ix, (iy + 1) % ny, iz),
                        site(ix, (iy + ny - 1) % ny, iz),
                        site(ix, iy, (iz + 1) % nz),
                        site(ix, iy, (iz + nz - 1) % nz),
                    ];
                    for o in 0..ORBITALS {
                        let row_start = col.len();
                        col.push((ORBITALS * site(ix, iy, iz) + o) as u32);
                        for s in neighbours {
                            col.push((ORBITALS * s + o) as u32);
                            col.push((ORBITALS * s + (o ^ 1)) as u32);
                        }
                        col[row_start..].sort_unstable();
                    }
                }
            }
        }
        let val = vec![ENTRY; col.len()];
        let x = (0..n * r)
            .map(|i| C64 {
                re: 1.0 - (i % 7) as f64 * 0.25,
                im: (i % 5) as f64 * 0.25 - 0.5,
            })
            .collect();
        Yardstick {
            r,
            threads: threads.max(1),
            sweeps,
            col,
            val,
            x,
            y: vec![C64 { re: 0.0, im: 0.0 }; n * r],
        }
    }

    /// Seconds `sweeps` sweeps take on `threads` threads. One sweep is
    /// `y ← 2·H·x − y` with the two dot products of the paper's fused
    /// kernel; `x` stays as it is, so `y` alternates between two
    /// vectors and the threads, each on its own rows, never wait for
    /// each other.
    pub fn seconds(&mut self) -> f64 {
        match self.r {
            1 => self.timed::<1>(),
            2 => self.timed::<2>(),
            8 => self.timed::<8>(),
            32 => self.timed::<32>(),
            r => panic!("the yardstick has no sweep of width {r}; add it to this list"),
        }
    }

    fn timed<const R: usize>(&mut self) -> f64 {
        let sweeps = self.sweeps;
        let (x, _) = self.x.as_chunks::<R>();
        let (y, _) = self.y.as_chunks_mut::<R>();
        let (col, _) = self.col.as_chunks::<ROW_ENTRIES>();
        let (val, _) = self.val.as_chunks::<ROW_ENTRIES>();
        let rows_per_thread = y.len().div_ceil(self.threads);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for (t, y) in y.chunks_mut(rows_per_thread).enumerate() {
                let first = t * rows_per_thread;
                let rows = first..first + y.len();
                let (col, val, x_mine) = (&col[rows.clone()], &val[rows.clone()], &x[rows]);
                scope.spawn(move || {
                    let mut dots = (0.0, C64 { re: 0.0, im: 0.0 });
                    for _ in 0..sweeps {
                        for (((y, col), val), x_row) in y.iter_mut().zip(col).zip(val).zip(x_mine) {
                            let mut acc = [C64 { re: 0.0, im: 0.0 }; R];
                            for (&c, &a) in col.iter().zip(val) {
                                for (acc, &xv) in acc.iter_mut().zip(&x[c as usize]) {
                                    *acc = a.mul_add(xv, *acc);
                                }
                            }
                            for ((y, acc), xv) in y.iter_mut().zip(&acc).zip(x_row) {
                                *y = C64 {
                                    re: 2.0 * acc.re - y.re,
                                    im: 2.0 * acc.im - y.im,
                                };
                                dots.0 += xv.re * xv.re + xv.im * xv.im;
                                dots.1.re += xv.re * y.re + xv.im * y.im;
                                dots.1.im += xv.re * y.im - xv.im * y.re;
                            }
                        }
                    }
                    std::hint::black_box(dots);
                });
            }
        });
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_have_thirteen_distinct_sorted_columns() {
        let y = Yardstick::new((3, 4, 5), 2, 1, 1);
        let n = 4 * 3 * 4 * 5;
        assert_eq!(y.col.len(), 13 * n);
        for row in y.col.chunks(13) {
            assert!(row.windows(2).all(|w| w[0] < w[1]), "{row:?}");
            assert!(row.iter().all(|&c| (c as usize) < n));
        }
    }

    #[test]
    fn a_second_sweep_restores_y_and_threads_agree() {
        let mut one = Yardstick::new((3, 3, 3), 2, 1, 1);
        let mut two = Yardstick::new((3, 3, 3), 2, 2, 1);
        one.seconds();
        two.seconds();
        let after_one: Vec<(f64, f64)> = one.y.iter().map(|c| (c.re, c.im)).collect();
        assert!(after_one.iter().any(|&(re, _)| re != 0.0));
        assert_eq!(
            after_one,
            two.y.iter().map(|c| (c.re, c.im)).collect::<Vec<_>>()
        );
        // y ← 2Hx − (2Hx − 0) = 0.
        one.seconds();
        assert!(one.y.iter().all(|c| c.re == 0.0 && c.im == 0.0));
    }
}
