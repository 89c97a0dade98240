//! Weighted 1-D row-block decomposition and halo communication plans.
//!
//! The paper distributes matrix and vector rows across processes
//! proportionally to a per-process *weight* — the mechanism that load
//! balances heterogeneous devices (Section VI-A: "From this weight we
//! compute the amount of matrix/vector rows that get assigned to it").
//! The halo plan is derived from the matrix sparsity pattern: a rank
//! must receive exactly the off-range rows its column indices touch.

use kpm_sparse::{CrsMatrix, KpmMatrix, SparseKernels};

/// Splits `n` rows into contiguous ranges proportional to `weights`,
/// aligned down to multiples of `align` (4 keeps the orbital blocks of
/// one lattice site on one rank).
pub fn partition_rows(n: usize, weights: &[f64], align: usize) -> Vec<(usize, usize)> {
    assert!(!weights.is_empty(), "need at least one weight");
    assert!(align >= 1, "alignment must be positive");
    assert!(weights.iter().all(|w| *w > 0.0), "weights must be positive");
    let total: f64 = weights.iter().sum();
    let mut ranges = Vec::with_capacity(weights.len());
    let mut begin = 0usize;
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        let mut end = ((n as f64) * acc / total).round() as usize;
        end -= end % align;
        if i == weights.len() - 1 {
            end = n;
        }
        let end = end.max(begin);
        ranges.push((begin, end));
        begin = end;
    }
    ranges
}

/// The local view of one rank under row distribution.
#[derive(Debug, Clone)]
pub struct LocalProblem {
    /// This rank.
    pub rank: usize,
    /// Global row range `[row_begin, row_end)`.
    pub row_begin: usize,
    /// End of the global row range.
    pub row_end: usize,
    /// The local matrix: `n_local` rows over the remapped column space
    /// `local rows ++ halo rows` (halo sorted by global index), CRS
    /// behind the handle the solver kernels run on.
    pub matrix: KpmMatrix,
    /// Receive plan: for each peer rank, the *global* rows to receive,
    /// in the order they occupy the halo slots.
    pub recv_plan: Vec<(usize, Vec<u32>)>,
    /// Send plan: for each peer rank, the *local* row offsets to gather
    /// and ship.
    pub send_plan: Vec<(usize, Vec<u32>)>,
}

impl LocalProblem {
    /// Number of owned rows.
    pub fn n_local(&self) -> usize {
        self.row_end - self.row_begin
    }

    /// Number of halo slots.
    pub fn n_halo(&self) -> usize {
        self.matrix.ncols() - self.n_local()
    }

    /// Bytes exchanged (sent) per blocked sweep at block width `r`.
    pub fn send_bytes_per_sweep(&self, r: usize) -> u64 {
        self.send_plan
            .iter()
            .map(|(_, rows)| (rows.len() * r * 16) as u64)
            .sum()
    }
}

/// Builds every rank's [`LocalProblem`] from the global matrix and the
/// row ranges of [`partition_rows`], storing the local blocks as CRS.
pub fn decompose(h: &CrsMatrix, ranges: &[(usize, usize)]) -> Vec<LocalProblem> {
    assert_eq!(
        h.nrows(),
        h.ncols(),
        "decomposition expects a square matrix"
    );
    assert_eq!(
        ranges.last().map(|r| r.1),
        Some(h.nrows()),
        "ranges must cover all rows"
    );
    let owner_of = |row: usize| -> usize {
        ranges
            .iter()
            .position(|&(b, e)| row >= b && row < e)
            // kpm::allow(no_panic): coverage is asserted on entry; ranges come
            // from partition_rows, which tiles 0..nrows contiguously.
            .expect("row covered by some range")
    };

    // Pass 1: per-rank halo lists (global rows, sorted), grouped by owner.
    let mut halos: Vec<Vec<u32>> = Vec::with_capacity(ranges.len());
    for &(b, e) in ranges {
        halos.push(h.halo_columns(b, e));
    }

    // Pass 2: build local problems.
    let mut problems: Vec<LocalProblem> = Vec::with_capacity(ranges.len());
    for (rank, &(b, e)) in ranges.iter().enumerate() {
        let halo = &halos[rank];
        let n_local = e - b;

        // Column remap: global -> local.
        let remap = |gcol: u32| -> u32 {
            let g = gcol as usize;
            if g >= b && g < e {
                (g - b) as u32
            } else {
                // kpm::allow(no_panic): halo_columns(b, e) returns exactly the
                // sorted non-local columns of rows b..e, so every non-local
                // column in this row block is present by construction.
                let idx = halo.binary_search(&gcol).expect("halo contains column");
                (n_local + idx) as u32
            }
        };

        // Remapped local matrix. Row entries stay sorted under the
        // remap only if halo slots happen to sort after local ones, so
        // rebuild each row sorted.
        let block = h.row_block(b, e);
        let mut row_ptr = Vec::with_capacity(n_local + 1);
        let mut cols = Vec::with_capacity(block.nnz());
        let mut vals = Vec::with_capacity(block.nnz());
        row_ptr.push(0u64);
        let mut entries: Vec<(u32, kpm_num::Complex64)> = Vec::new();
        for r in 0..n_local {
            entries.clear();
            for (k, &c) in block.row_cols(r).iter().enumerate() {
                entries.push((remap(c), block.row_vals(r)[k]));
            }
            entries.sort_unstable_by_key(|x| x.0);
            for &(c, v) in &entries {
                cols.push(c);
                vals.push(v);
            }
            row_ptr.push(cols.len() as u64);
        }
        let matrix = CrsMatrix::from_raw(n_local, n_local + halo.len(), row_ptr, cols, vals);
        let matrix = KpmMatrix::crs(matrix);

        // Receive plan: halo rows grouped by owner, preserving sorted
        // order (which is also halo-slot order).
        let mut recv_plan: Vec<(usize, Vec<u32>)> = Vec::new();
        for &grow in halo {
            let owner = owner_of(grow as usize);
            debug_assert_ne!(owner, rank, "halo row owned by self");
            match recv_plan.iter_mut().find(|(o, _)| *o == owner) {
                Some((_, rows)) => rows.push(grow),
                None => recv_plan.push((owner, vec![grow])),
            }
        }

        problems.push(LocalProblem {
            rank,
            row_begin: b,
            row_end: e,
            matrix,
            recv_plan,
            send_plan: Vec::new(), // filled below
        });
    }

    // Pass 3: invert receive plans into send plans.
    for receiver in 0..problems.len() {
        let plan = problems[receiver].recv_plan.clone();
        for (owner, rows) in plan {
            let local_rows: Vec<u32> = rows
                .iter()
                .map(|&g| (g as usize - problems[owner].row_begin) as u32)
                .collect();
            problems[owner].send_plan.push((receiver, local_rows));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_topo::TopoHamiltonian;

    #[test]
    fn equal_weights_split_evenly() {
        let ranges = partition_rows(100, &[1.0, 1.0], 4);
        assert_eq!(ranges, vec![(0, 48), (48, 100)]);
        let ranges = partition_rows(96, &[1.0, 1.0, 1.0], 4);
        assert_eq!(ranges, vec![(0, 32), (32, 64), (64, 96)]);
    }

    #[test]
    fn weighted_split_is_proportional() {
        // Paper usage: GPU ~2x CPU weight.
        let ranges = partition_rows(3000, &[1.0, 2.0], 4);
        let cpu = ranges[0].1 - ranges[0].0;
        let gpu = ranges[1].1 - ranges[1].0;
        assert!((gpu as f64 / cpu as f64 - 2.0).abs() < 0.05);
        assert_eq!(ranges[1].1, 3000);
    }

    #[test]
    fn ranges_are_contiguous_and_aligned() {
        let ranges = partition_rows(1001, &[0.3, 0.5, 0.2], 4);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, 1001);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        for &(b, _) in &ranges {
            assert_eq!(b % 4, 0);
        }
    }

    #[test]
    fn decompose_covers_matrix_and_remaps_consistently() {
        let h = TopoHamiltonian::clean(4, 4, 4).assemble();
        let ranges = partition_rows(h.nrows(), &[1.0, 1.5, 0.8], 4);
        let parts = decompose(&h, &ranges);
        assert_eq!(parts.len(), 3);
        let total_local: usize = parts.iter().map(|p| p.n_local()).sum();
        assert_eq!(total_local, h.nrows());
        let total_nnz: usize = parts.iter().map(|p| p.matrix.nnz()).sum();
        assert_eq!(total_nnz, h.nnz());
        for p in &parts {
            // Every local matrix value equals the corresponding global
            // entry under the inverse remap.
            let local = p.matrix.as_crs().expect("decompose stores CRS locals");
            let halo = h.halo_columns(p.row_begin, p.row_end);
            for r in 0..p.n_local() {
                for (k, &c) in local.row_cols(r).iter().enumerate() {
                    let gcol = if (c as usize) < p.n_local() {
                        p.row_begin + c as usize
                    } else {
                        halo[c as usize - p.n_local()] as usize
                    };
                    assert_eq!(
                        local.row_vals(r)[k],
                        h.get(p.row_begin + r, gcol),
                        "rank {} row {r} col {c}",
                        p.rank
                    );
                }
            }
        }
    }

    #[test]
    fn send_and_recv_plans_are_inverse() {
        let h = TopoHamiltonian::clean(6, 4, 2).assemble();
        let ranges = partition_rows(h.nrows(), &[1.0, 1.0, 1.0, 1.0], 4);
        let parts = decompose(&h, &ranges);
        for p in &parts {
            for (owner, rows) in &p.recv_plan {
                // The owner's send plan to `p.rank` lists the same rows
                // in local coordinates.
                let send = parts[*owner]
                    .send_plan
                    .iter()
                    .find(|(dst, _)| *dst == p.rank)
                    .expect("matching send plan");
                let global_sent: Vec<u32> = send
                    .1
                    .iter()
                    .map(|&l| (parts[*owner].row_begin + l as usize) as u32)
                    .collect();
                assert_eq!(&global_sent, rows);
            }
        }
    }

    #[test]
    fn halo_is_empty_for_single_rank() {
        let h = TopoHamiltonian::clean(3, 3, 2).assemble();
        let parts = decompose(&h, &[(0, h.nrows())]);
        assert_eq!(parts[0].n_halo(), 0);
        assert!(parts[0].send_plan.is_empty());
        assert_eq!(parts[0].send_bytes_per_sweep(32), 0);
    }

    #[test]
    fn send_bytes_accounting() {
        let h = TopoHamiltonian::clean(4, 4, 4).assemble();
        let ranges = partition_rows(h.nrows(), &[1.0, 1.0], 4);
        let parts = decompose(&h, &ranges);
        let r = 8;
        for p in &parts {
            let expect: usize = p.send_plan.iter().map(|(_, rows)| rows.len()).sum();
            assert_eq!(p.send_bytes_per_sweep(r), (expect * r * 16) as u64);
            assert!(p.send_bytes_per_sweep(r) > 0);
        }
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_rejected() {
        partition_rows(10, &[1.0, 0.0], 1);
    }
}
