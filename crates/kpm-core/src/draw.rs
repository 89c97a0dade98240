//! The random starting vectors, drawn a register of columns at a time.
//!
//! Entry `(i, j)` of an `n`-row start of seed `s` is the pair of draws
//! `2·(j·n + i)` (real part) and `2·(j·n + i) + 1` (imaginary part) of
//! `s`'s one stream, each mapped as `gen_range(-1.0..=1.0)` maps it:
//! the entries `Vector::random` draws column after column. SplitMix64
//! is counter-based ([`splitmix64_state`]), so a lane may start
//! anywhere in the stream; the kernels give each SIMD lane a column, a
//! leaf of a column's norm tree or a run of draws, and step its state
//! by `2γ` per row (`L·γ` along a run).
//!
//! Two passes, each cut into [`Job`]s that run on one compiled copy
//! ([`Draws::run`]):
//! * the norms: every leaf of `nrm2`'s pairwise tree
//!   ([`DOT_BASE`]) of every column, each summed in row order on one
//!   lane as `nrm2`'s leaf loop sums it, then the leaf sums folded on
//!   the tree ([`Draws::column_scales`]), so each norm has `nrm2`'s
//!   bits;
//! * the fill: per row, two draws per lane, one scale and one store per
//!   part. An 8-column panel row is exactly `[re₀..re₇, im₀..im₇]`.
//!
//! Every value is the one the scalar path computes: same words, same
//! map, the leaf sums' additions in the same order, and the scale a
//! plain product (`Vector::normalize`'s `(s + 0i)·z` has the same bits,
//! since a drawn part is never `-0.0`).

use kpm_num::block::store_panel;
use kpm_num::vector::DOT_BASE;
use kpm_num::Complex64;
use kpm_sparse::simd::{Body, Wide};
use rand::f64_in_inclusive;
use rand::rngs::{splitmix64_mix, splitmix64_state, GAMMA};

/// Leaves per parallel job of the norm pass.
const LEAVES_PER_JOB: usize = 64;

/// One leaf of a column's norm tree: `len` rows from `row0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Leaf {
    col: usize,
    row0: usize,
    len: usize,
}

/// One piece of work for a compiled copy of the kernels.
pub(crate) enum Job<'a> {
    /// `sums[q]`: the row-order sum of `|z|²` over `leaves[q]`.
    Leaves {
        leaves: &'a [Leaf],
        sums: &'a mut [f64],
    },
    /// Columns `j0..j0 + w` (one layout panel, `w` = 8, 4, 2 or 1) of
    /// the rows `row0..` of a width-`r` block: `rows` holds those rows'
    /// slots, and `scales[k]` multiplies column `j0 + k`.
    Panel {
        row0: usize,
        r: usize,
        j0: usize,
        w: usize,
        scales: &'a [f64],
        rows: &'a mut [Complex64],
    },
    /// The draws `first..`, in order, times `scale`, as `out`'s doubles:
    /// a run of one column's rows (a width-1 block's, or a starting
    /// vector's).
    Run {
        first: u64,
        scale: f64,
        out: &'a mut [Complex64],
    },
}

/// The starting vectors of one seed with `n` rows each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Draws {
    /// The stream's seed.
    seed: u64,
    /// Rows per column.
    n: usize,
}

/// A draw's part of the square `[-1, 1] × [-1, 1]i` from its state.
#[inline(always)]
fn side(state: u64) -> f64 {
    f64_in_inclusive(splitmix64_mix(state), -1.0, 1.0)
}

/// Calls `leaf(row0, len)` for the leaves of `nrm2`'s pairwise tree
/// over rows `row0..row0 + n`, in row order.
fn tree_leaves(row0: usize, n: usize, leaf: &mut impl FnMut(usize, usize)) {
    if n <= DOT_BASE {
        leaf(row0, n);
        return;
    }
    tree_leaves(row0, n / 2, leaf);
    tree_leaves(row0 + n / 2, n - n / 2, leaf);
}

/// Folds one column's leaf sums, in row order, on the tree they were
/// cut from: `nrm2`'s own additions.
fn tree_fold(n: usize, sums: &mut impl Iterator<Item = f64>) -> f64 {
    if n <= DOT_BASE {
        // The leaves were cut from this tree: one sum each.
        return sums.next().unwrap_or(0.0);
    }
    let lo = tree_fold(n / 2, sums);
    lo + tree_fold(n - n / 2, sums)
}

impl Draws {
    /// The columns of `n` rows that `seed`'s stream draws.
    pub(crate) fn new(seed: u64, n: usize) -> Self {
        Self { seed, n }
    }

    /// The state of entry `(row, col)`'s real-part draw.
    #[inline(always)]
    fn entry_state(self, row: usize, col: usize) -> u64 {
        splitmix64_state(self.seed, 2 * (col * self.n + row) as u64)
    }

    /// The scale of each of the first `r` columns: `Vector::normalize`'s
    /// `1/‖v_j‖`, or 1 for a zero norm (the column stays as drawn).
    /// `parallel` sums the leaves in jobs of [`LEAVES_PER_JOB`] on the
    /// ambient pool; the fold is fixed, so the bits are the same.
    pub(crate) fn column_scales(self, r: usize, wide: Wide, parallel: bool) -> Vec<f64> {
        // Leaf-major: a register of columns shares one leaf, and fewer
        // columns than lanes fill it with the next leaves.
        let mut leaves = Vec::new();
        tree_leaves(0, self.n, &mut |row0, len| {
            leaves.extend((0..r).map(|col| Leaf { col, row0, len }));
        });
        let mut sums = vec![0.0; leaves.len()];
        if parallel {
            let jobs = (
                leaves.chunks(LEAVES_PER_JOB),
                sums.chunks_mut(LEAVES_PER_JOB),
            );
            rayon::map_chunks(jobs, |_, (leaves, sums)| {
                self.run(wide, Job::Leaves { leaves, sums });
            });
        } else {
            let (leaves, sums) = (&leaves[..], &mut sums[..]);
            self.run(wide, Job::Leaves { leaves, sums });
        }
        (0..r)
            .map(|j| {
                let norm = tree_fold(self.n, &mut sums.iter().skip(j).step_by(r).copied()).sqrt();
                if norm > 0.0 {
                    1.0 / norm
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Runs `job` on the copy `wide` names: 8 lanes on the AVX-512 one,
    /// 4 on the baseline one, which an AVX2 token also runs (an AVX2
    /// copy drew no faster).
    pub(crate) fn run(self, wide: Wide, job: Job<'_>) {
        match wide.body() {
            // SAFETY: a `Wide` token naming `Avx512` is only ever made by
            // `simd::wide` after `is_x86_feature_detected!` returned true
            // for both `avx512f` and `avx512dq`, so this CPU executes the
            // instructions the copy was compiled to.
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => unsafe { self.run_avx512(job) },
            _ => self.run_lanes::<4>(job),
        }
    }

    /// The AVX-512 copy: 64-bit lane multiplies (`vpmullq`) and
    /// conversions (`vcvtqq2pd`) need `avx512dq`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn run_avx512(self, job: Job<'_>) {
        self.run_lanes::<8>(job);
    }

    /// `job` on `L` lanes.
    #[inline(always)]
    fn run_lanes<const L: usize>(self, job: Job<'_>) {
        match job {
            Job::Leaves { leaves, sums } => {
                for (group, out) in leaves.chunks(L).zip(sums.chunks_mut(L)) {
                    self.leaf_sums::<L>(group, out);
                }
            }
            Job::Panel {
                row0,
                r,
                j0,
                w,
                scales,
                rows,
            } => {
                let at = (row0, r, j0);
                match w {
                    8 if L >= 8 => self.panel_lanes::<8, 8>(at, scales, rows),
                    // An 8-column panel on 4 lanes: two halves a row.
                    8 => self.panel_lanes::<8, 4>(at, scales, rows),
                    4 => self.panel_lanes::<4, 4>(at, scales, rows),
                    2 => self.panel_lanes::<2, 2>(at, scales, rows),
                    _ => self.panel_lanes::<1, 1>(at, scales, rows),
                }
            }
            Job::Run { first, scale, out } => self.run_draws::<L>(first, scale, out),
        }
    }

    /// [`Job::Leaves`] for at most `L` leaves, one per lane. Lanes past a
    /// shorter leaf's end add nothing.
    #[inline(always)]
    fn leaf_sums<const L: usize>(self, group: &[Leaf], out: &mut [f64]) {
        let mut state = [0u64; L];
        let mut len = [0usize; L];
        for (l, leaf) in group.iter().enumerate() {
            state[l] = self.entry_state(leaf.row0, leaf.col);
            len[l] = leaf.len;
        }
        let short = len[..group.len()].iter().copied().min().unwrap_or(0);
        let long = len[..group.len()].iter().copied().max().unwrap_or(0);
        // `nrm2`'s leaf adds `conj(z)·z` as `re·re - (-im)·im + acc`,
        // which is `(re·re + im·im) + acc` bit for bit.
        let mut acc = [0.0f64; L];
        for _ in 0..short {
            for l in 0..L {
                let (re, im) = (side(state[l]), side(state[l].wrapping_add(GAMMA)));
                acc[l] += re * re + im * im;
                state[l] = state[l].wrapping_add(GAMMA.wrapping_mul(2));
            }
        }
        for row in short..long {
            for l in 0..L {
                let (re, im) = (side(state[l]), side(state[l].wrapping_add(GAMMA)));
                if row < len[l] {
                    acc[l] += re * re + im * im;
                }
                state[l] = state[l].wrapping_add(GAMMA.wrapping_mul(2));
            }
        }
        out.copy_from_slice(&acc[..out.len()]);
    }

    /// The `W` columns of a panel, `H` lanes at a time: `at` is (first
    /// row, block width, first column). Each row's lanes go out in one
    /// [`store_panel`]. The halves of an 8-column panel on 4 lanes are
    /// separate loops: one loop over all 8 drew the baseline copy's
    /// R = 8 and R = 32 starts about ×1.25 slower.
    #[inline(always)]
    fn panel_lanes<const W: usize, const H: usize>(
        self,
        at: (usize, usize, usize),
        scales: &[f64],
        rows: &mut [Complex64],
    ) {
        let (row0, r, j0) = at;
        let mut scale = [0.0; W];
        scale.copy_from_slice(&scales[..W]);
        let mut state: [u64; W] = std::array::from_fn(|k| self.entry_state(row0, j0 + k));
        for row in rows.chunks_exact_mut(r) {
            let (mut re, mut im) = ([0.0; W], [0.0; W]);
            for h in (0..W).step_by(H) {
                for k in h..h + H {
                    re[k] = side(state[k]) * scale[k];
                    im[k] = side(state[k].wrapping_add(GAMMA)) * scale[k];
                    state[k] = state[k].wrapping_add(GAMMA.wrapping_mul(2));
                }
            }
            store_panel::<W>(&re, &im, &mut row[j0..]);
        }
    }

    /// [`Job::Run`] on `L` lanes, lane `l` drawing every `L`-th double
    /// (`L / 2` slots a step).
    #[inline(always)]
    fn run_draws<const L: usize>(self, first: u64, scale: f64, out: &mut [Complex64]) {
        let mut state: [u64; L] =
            std::array::from_fn(|l| splitmix64_state(self.seed, first + l as u64));
        let step = GAMMA.wrapping_mul(L as u64);
        let mut slots = out.chunks_exact_mut(L / 2);
        for group in &mut slots {
            let mut x = [0.0; L];
            for l in 0..L {
                x[l] = side(state[l]) * scale;
                state[l] = state[l].wrapping_add(step);
            }
            for (k, z) in group.iter_mut().enumerate() {
                (z.re, z.im) = (x[2 * k], x[2 * k + 1]);
            }
        }
        for (k, z) in slots.into_remainder().iter_mut().enumerate() {
            z.re = side(state[2 * k]) * scale;
            z.im = side(state[2 * k + 1]) * scale;
        }
    }
}
