//! The KPM-DOS solver in all three optimization stages.
//!
//! | Variant | Paper | Matrix kernel | Vector traffic / iter |
//! |---|---|---|---|
//! | [`KpmVariant::Naive`] | Fig. 3 | `spmv` + 2×`axpy` + `scal` + `nrm2` + `dot` | 13·N·S_d |
//! | [`KpmVariant::AugSpmv`] | Fig. 4 | `aug_spmv` (all fused) | 3·N·S_d |
//! | [`KpmVariant::AugSpmmv`] | Fig. 5 | `aug_spmmv` (fused + blocked) | 3·N·S_d, matrix read once per `R` |
//!
//! All three run the identical arithmetic and produce identical moments
//! for the same seed — the paper's point is precisely that the
//! *algorithm is untouched* and only the implementation changes.

use kpm_num::block::{lanes_of, set_entry_at, shift_scale_dots, shift_scale_dots_par};
use kpm_num::vector::{
    axpy, axpy_par, dot, dot_par, nrm2, nrm2_par, random_entry, random_nrm2, scal, scal_par,
};
use kpm_num::{BlockVector, Complex64, KpmError, Vector};
use kpm_obs::{metrics, span::span};
use kpm_sparse::SparseKernels;
use kpm_topo::ScaleFactors;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::checkpoint::{CheckpointStore, EtaCheckpoint, RankCheckpoint};
use crate::moments::MomentSet;

/// Divergence guardrail: a partial `η_even = ‖ν_m‖²` may never exceed
/// this multiple of `µ0 = ‖ν_0‖²`. With correct scale factors the
/// Chebyshev polynomials are bounded by 1 on the spectrum, so the norm
/// cannot grow at all; growth past this factor means the spectrum pokes
/// out of `[-1, 1]` and the recurrence is diverging exponentially.
const DIVERGENCE_FACTOR: f64 = 1e3;

/// Numerical guardrail applied every sweep in every variant: NaN/Inf in
/// a moment partial aborts with `NonFinite`; exponential growth aborts
/// with `SpectralBoundsViolated` carrying the offending iteration.
fn check_partials(iteration: usize, even: f64, odd: Complex64, mu0: f64) -> Result<(), KpmError> {
    if !even.is_finite() {
        return Err(KpmError::NonFinite {
            context: "eta_even",
            iteration,
        });
    }
    if !odd.is_finite() {
        return Err(KpmError::NonFinite {
            context: "eta_odd",
            iteration,
        });
    }
    let bound = DIVERGENCE_FACTOR * mu0.max(1.0);
    if even > bound {
        return Err(KpmError::SpectralBoundsViolated {
            iteration,
            value: even,
            bound,
        });
    }
    Ok(())
}

/// Which implementation stage executes the KPM iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KpmVariant {
    /// Paper Fig. 3: one SpMV plus a chain of BLAS-1 calls.
    Naive,
    /// Paper Fig. 4, optimization stage 1: the fused augmented SpMV.
    AugSpmv,
    /// Paper Fig. 5, optimization stage 2: the blocked augmented SpMMV.
    AugSpmmv,
}

/// Parameters of a KPM-DOS computation.
#[derive(Debug, Clone, Copy)]
pub struct KpmParams {
    /// Number of Chebyshev moments `M` (even, ≥ 2). The solver performs
    /// `M/2 - 1` matrix sweeps per random vector.
    pub num_moments: usize,
    /// Number of random vectors `R` for the stochastic trace.
    pub num_random: usize,
    /// RNG seed; the starting vectors are a pure function of it, so all
    /// variants see identical inputs.
    pub seed: u64,
    /// Use the rayon-parallel kernels.
    pub parallel: bool,
    /// Worker threads for the parallel kernels. `0` inherits the ambient
    /// pool (the `KPM_THREADS` environment variable, else one worker per
    /// available core); any other value pins a dedicated pool of that
    /// size for the solver run. Moments are bitwise-identical for every
    /// setting — the reduction tree is fixed by chunk boundaries, not by
    /// the thread count.
    pub threads: usize,
    /// Chebyshev iterations per matrix sweep: always 1. Iteration
    /// blocking was removed (EXPERIMENTS.md, "Level-blocked matrix
    /// powers, the last trial"); the field is still here only because
    /// `benchmark/src/pipeline.rs`, which solver PRs may not edit,
    /// spells `power: 1` in its struct literal. It goes when that does.
    pub power: usize,
    /// Always false. First-touch placement was removed (EXPERIMENTS.md,
    /// "First-touch placement, the last trial"); like `power`, the field
    /// is still here only because `benchmark/src/pipeline.rs` spells
    /// `first_touch: false` in its struct literal.
    pub first_touch: bool,
}

impl Default for KpmParams {
    fn default() -> Self {
        Self {
            num_moments: 256,
            num_random: 8,
            seed: 0x4B50_4D21, // "KPM!"
            parallel: true,
            threads: 0,
            power: 1,
            first_touch: false,
        }
    }
}

impl KpmParams {
    /// Matrix sweeps per random vector. Callers reach this only through
    /// entry points that ran [`KpmParams::validate`], so the evenness
    /// invariant is a debug assertion here.
    pub fn iterations(&self) -> usize {
        debug_assert!(
            self.num_moments >= 2 && self.num_moments.is_multiple_of(2),
            "num_moments must be even and >= 2"
        );
        self.num_moments / 2 - 1
    }

    /// Checks the user-facing parameter invariants, returning a typed
    /// error instead of panicking on bad input.
    pub fn validate(&self) -> Result<(), KpmError> {
        if self.num_moments < 2 || !self.num_moments.is_multiple_of(2) {
            return Err(KpmError::InvalidParams {
                what: "num_moments",
                details: format!(
                    "num_moments must be even and >= 2 (got {})",
                    self.num_moments
                ),
            });
        }
        if self.num_random < 1 {
            return Err(KpmError::InvalidParams {
                what: "num_random",
                details: "need at least one random vector".to_string(),
            });
        }
        if self.power != 1 {
            return Err(KpmError::InvalidParams {
                what: "power",
                details: format!(
                    "one Chebyshev iteration per matrix sweep is the only schedule (got {})",
                    self.power
                ),
            });
        }
        if self.first_touch {
            return Err(KpmError::InvalidParams {
                what: "first_touch",
                details: "first-touch placement was removed; pages land where the \
                          worker that fills them runs"
                    .to_string(),
            });
        }
        Ok(())
    }
}

/// Runs `f` under the thread count the caller asked for: on the ambient
/// pool when `threads` is 0 or the ambient pool already has that many
/// workers (a command that installed its `--threads` pool around
/// set-up and solve gets no second one), else on a dedicated pool of
/// `threads` workers. Scoping the pool to the call means nested calls
/// (e.g. the distributed driver invoking per-rank solvers) compose
/// without global state.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> Result<T, KpmError> {
    if threads == 0 || threads == rayon::current_num_threads() {
        return Ok(f());
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| KpmError::InvalidParams {
            what: "threads",
            details: format!("failed to build thread pool: {e}"),
        })?;
    Ok(pool.install(f))
}

/// Checks that `h` is square, as KPM requires.
fn validate_square<M: SparseKernels + ?Sized>(h: &M) -> Result<(), KpmError> {
    if h.nrows() != h.ncols() {
        return Err(KpmError::InvalidMatrix {
            what: "shape",
            details: format!(
                "KPM needs a square matrix (got {} x {})",
                h.nrows(),
                h.ncols()
            ),
        });
    }
    Ok(())
}

/// Runs KPM-DOS: estimates the Chebyshev moments
/// `μ_m ≈ tr[T_m(H̃)]/N` of the rescaled operator `H̃ = a(H − b·1)`
/// averaged over `R` random unit vectors, using the chosen
/// implementation stage.
///
/// Generic over the storage format: pass a `CrsMatrix`, a
/// `StencilMatrix`, or a format-erased [`kpm_sparse::KpmMatrix`] — moments are
/// bitwise-identical across formats (and across thread counts) because
/// every [`SparseKernels`] implementation computes the same
/// floating-point chain.
pub fn kpm_moments<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    params: &KpmParams,
    variant: KpmVariant,
) -> Result<MomentSet, KpmError> {
    params.validate()?;
    validate_square(h)?;
    let _sp = span("solver.run", "solver")
        .arg("variant", format!("{variant:?}"))
        .arg("moments", params.num_moments)
        .arg("random", params.num_random);
    with_threads(params.threads, || match variant {
        KpmVariant::AugSpmmv => run_blocked_variant(h, sf, params),
        KpmVariant::Naive | KpmVariant::AugSpmv => {
            let starts = {
                let _sp = span("solver.start", "solver");
                starting_vectors(h.nrows(), params)
            };
            run_vector_variant(h, sf, params, &starts, variant == KpmVariant::AugSpmv)
        }
    })?
}

/// The normalized random starting vectors — a pure function of the seed,
/// shared with the distributed solver so moments agree exactly.
pub fn starting_vectors(n: usize, params: &KpmParams) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    (0..params.num_random)
        .map(|_| {
            let mut v = Vector::random(n, &mut rng);
            v.normalize();
            v
        })
        .collect()
}

/// Rows per parallel fill chunk of [`starting_block`].
const START_CHUNK_ROWS: usize = 4096;

/// [`starting_vectors`] written straight into the block:
/// `starting_block(n, p).column(j) == starting_vectors(n, p)[j]` bit for
/// bit, without the `R` column vectors in between.
///
/// All columns share one seeded stream and column `j` starts `2·n·j`
/// draws into it, so every `(row, column)` is a random-access position
/// ([`StdRng::advance`]). Two passes on the ambient pool when
/// `params.parallel`: the columns' norms, reduced on `nrm2`'s tree as
/// the entries are drawn (one task per column, nothing stored), then
/// fixed row chunks of the block, each entry drawn again and written
/// scaled — every block page is written once, by the worker that fills
/// it. Drawing twice costs less than a second pass over the block.
pub fn starting_block(n: usize, params: &KpmParams) -> BlockVector {
    let r = params.num_random;
    let stream_at = |row: usize, j: usize| {
        let mut rng = StdRng::seed_from_u64(params.seed);
        rng.advance(2 * (j * n + row) as u64);
        rng
    };
    // `Vector::normalize`: scale by `1/‖v‖` unless the norm is zero.
    let scale_of = |j: usize| {
        let norm = random_nrm2(n, &mut stream_at(0, j)).sqrt();
        (norm > 0.0).then(|| Complex64::real(1.0 / norm))
    };
    let scales: Vec<Option<Complex64>> = if params.parallel {
        (0..r).into_par_iter().map(scale_of).collect()
    } else {
        (0..r).map(scale_of).collect()
    };
    let fill = |(chunk, rows): (usize, &mut [Complex64])| {
        for (j, scale) in scales.iter().enumerate() {
            let mut rng = stream_at(chunk * START_CHUNK_ROWS, j);
            let at = lanes_of(r, j);
            for row in rows.chunks_exact_mut(r) {
                let z = random_entry(&mut rng);
                set_entry_at(row, at, scale.map_or(z, |s| s * z));
            }
        }
    };
    let mut v = BlockVector::zeros(n, r);
    if params.parallel {
        let chunks = v.panel_slots_mut().par_chunks_mut(START_CHUNK_ROWS * r);
        chunks.enumerate().for_each(fill);
    } else {
        let chunks = v.panel_slots_mut().chunks_mut(START_CHUNK_ROWS * r);
        chunks.enumerate().for_each(fill);
    }
    v
}

/// Computes the moments `μ_m = ⟨φ|T_m(H̃)|φ⟩` of a *given* (not
/// necessarily normalized) starting vector — the primitive behind local
/// DOS and spectral functions, where the "trace" is over one state.
pub fn moments_from_start<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    start: &Vector,
    num_moments: usize,
    parallel: bool,
) -> Result<MomentSet, KpmError> {
    validate_square(h)?;
    let params = KpmParams {
        num_moments,
        num_random: 1,
        seed: 0,
        parallel,
        threads: 0,
        power: 1,
        first_touch: false,
    };
    params.validate()?;
    single_run_aug(h, sf, &params, start)
}

/// One KPM run in the naive (Fig. 3) or stage-1 (Fig. 4) formulation.
fn run_vector_variant<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    params: &KpmParams,
    starts: &[Vector],
    fused: bool,
) -> Result<MomentSet, KpmError> {
    let mut acc = MomentSet::zeros(params.num_moments);
    for v0 in starts {
        let set = if fused {
            single_run_aug(h, sf, params, v0)?
        } else {
            single_run_naive(h, sf, params, v0)?
        };
        acc.accumulate(&set);
    }
    Ok(acc)
}

/// Shared initialization: `ν₁ = H̃ν₀`, `μ₀ = ⟨ν₀|ν₀⟩`, `μ₁ = ⟨ν₁|ν₀⟩`.
///
/// Returns `(w, mu0, mu1)` with `w = ν₁`; `ν₀` stays the caller's.
/// Implemented with the same BLAS-1 chain in every variant so that
/// moments agree exactly.
fn init_recurrence<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    v: &[Complex64],
    parallel: bool,
) -> (Vec<Complex64>, f64, f64) {
    let _sp = span("solver.init", "solver");
    let mut w = vec![Complex64::default(); h.nrows()];
    if parallel {
        h.spmv_par(v, &mut w);
        axpy_par(Complex64::real(-sf.b), v, &mut w);
        scal_par(Complex64::real(sf.a), &mut w);
        let mu0 = nrm2_par(v);
        let mu1 = dot_par(&w, v).re;
        (w, mu0, mu1)
    } else {
        h.spmv(v, &mut w);
        axpy(Complex64::real(-sf.b), v, &mut w);
        scal(Complex64::real(sf.a), &mut w);
        let mu0 = nrm2(v);
        let mu1 = dot(&w, v).re;
        (w, mu0, mu1)
    }
}

/// The recurrence state of a stage-2 run: the block pair, `(ν_m, ν_{m+1})`
/// after `m` sweeps, and every moment partial recorded so far in the
/// flat layout `[µ₀ | µ₁ | per sweep (η_even | η_odd)]`, each `R` wide —
/// the layout [`moments_from_flat_eta`], the checkpoints and the
/// distributed solver share.
struct BlockedState {
    v: BlockVector,
    w: BlockVector,
    eta: Vec<Complex64>,
}

/// [`init_recurrence`] for all columns of a blocked run at once, as the
/// paper's Fig. 5 loop does on its first trip: one width-`R` `spmmv`
/// (the matrix is read once, not `R` times) and one fused pass for the
/// shift, the scaling and both dot products. Returns the state before
/// the first of `iters` sweeps, `(V, W, [µ₀ | µ₁])`; every column
/// carries the bits of its own [`init_recurrence`] chain, serial or
/// parallel.
fn init_block<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    v: BlockVector,
    iters: usize,
    parallel: bool,
) -> BlockedState {
    let _sp = span("solver.init", "solver").arg("width", v.width());
    let mut w = BlockVector::zeros(v.rows(), v.width());
    let (mu0, mu1) = if parallel {
        h.spmmv_par(&v, &mut w);
        shift_scale_dots_par(sf.a, sf.b, &v, &mut w)
    } else {
        h.spmmv(&v, &mut w);
        shift_scale_dots(sf.a, sf.b, &v, &mut w)
    };
    let mut eta = Vec::with_capacity(EtaCheckpoint::expected_len(iters, v.width()));
    eta.extend(mu0.into_iter().chain(mu1).map(Complex64::real));
    BlockedState { v, w, eta }
}

/// The naive KPM loop (paper Fig. 3): per iteration one `spmv()`, two
/// `axpy()`, one `scal()`, one `nrm2()` and one `dot()` — the vectors
/// stream through memory six times.
fn single_run_naive<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    params: &KpmParams,
    v0: &Vector,
) -> Result<MomentSet, KpmError> {
    let n = h.nrows();
    let par = params.parallel;
    // Loop invariant at iteration m: v = ν_{m-1}, w = ν_m.
    let (mut w, mu0, mu1) = init_recurrence(h, sf, v0.as_slice(), par);
    let mut v = v0.as_slice().to_vec();
    let mut u = vec![Complex64::default(); n];
    let mut eta = Vec::with_capacity(params.iterations());
    let two_a = Complex64::real(2.0 * sf.a);
    let minus_b = Complex64::real(-sf.b);
    let minus_one = Complex64::real(-1.0);
    for m in 0..params.iterations() {
        let _sweep = span("solver.sweep", "solver");
        std::mem::swap(&mut v, &mut w); // v = ν_m, w = ν_{m-1}
        let pair = if par {
            h.spmv_par(&v, &mut u); // u = H v
            axpy_par(minus_b, &v, &mut u); // u = u - b v
            scal_par(minus_one, &mut w); // w = -w
            axpy_par(two_a, &u, &mut w); // w = w + 2a u  (= ν_{m+1})
            (nrm2_par(&v), dot_par(&w, &v))
        } else {
            h.spmv(&v, &mut u);
            axpy(minus_b, &v, &mut u);
            scal(minus_one, &mut w);
            axpy(two_a, &u, &mut w);
            (nrm2(&v), dot(&w, &v))
        };
        check_partials(m, pair.0, pair.1, mu0)?;
        eta.push(pair);
    }
    Ok(MomentSet::from_eta(mu0, mu1, &eta))
}

/// The stage-1 loop (paper Fig. 4): one fused `aug_spmv()` per
/// iteration.
fn single_run_aug<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    params: &KpmParams,
    v0: &Vector,
) -> Result<MomentSet, KpmError> {
    let par = params.parallel;
    let (mut w, mu0, mu1) = init_recurrence(h, sf, v0.as_slice(), par);
    let mut v = v0.as_slice().to_vec();
    let mut eta = Vec::with_capacity(params.iterations());
    for m in 0..params.iterations() {
        let _sweep = span("solver.sweep", "solver");
        std::mem::swap(&mut v, &mut w);
        let dots = if par {
            h.aug_spmv_par(sf.a, sf.b, &v, &mut w)
        } else {
            h.aug_spmv(sf.a, sf.b, &v, &mut w)
        };
        check_partials(m, dots.eta_even, dots.eta_odd, mu0)?;
        eta.push((dots.eta_even, dots.eta_odd));
    }
    Ok(MomentSet::from_eta(mu0, mu1, &eta))
}

/// The stage-2 loop (paper Fig. 5), the only one there is: all `R`
/// columns advance together through one blocked augmented SpMMV per
/// iteration, so the matrix is streamed once per iteration instead of
/// `R` times. For each iteration `m` of `iterations`: `before_sweep(m,
/// state)` — the deadline test of the batched solver, the save and the
/// injected crash of the checkpointed one — then swap, sweep, the
/// [`check_partials`] guardrail on every column, and the partials
/// appended to `state.eta`.
fn blocked_sweeps<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    parallel: bool,
    state: &mut BlockedState,
    iterations: std::ops::Range<usize>,
    mut before_sweep: impl FnMut(usize, &BlockedState) -> Result<(), KpmError>,
) -> Result<(), KpmError> {
    for m in iterations {
        before_sweep(m, state)?;
        let _sweep = span("solver.sweep", "solver");
        state.v.swap(&mut state.w);
        let dots = if parallel {
            h.aug_spmmv_par(sf.a, sf.b, &state.v, &mut state.w)
        } else {
            // On CRS and stencil the same register-panel sweep as the
            // parallel one, as one row range.
            h.aug_spmmv(sf.a, sf.b, &state.v, &mut state.w)
        };
        for (j, (&even, &odd)) in dots.eta_even.iter().zip(&dots.eta_odd).enumerate() {
            check_partials(m, even, odd, state.eta[j].re)?;
        }
        state
            .eta
            .extend(dots.eta_even.iter().map(|&even| Complex64::real(even)));
        state.eta.extend_from_slice(&dots.eta_odd);
    }
    Ok(())
}

/// [`KpmVariant::AugSpmmv`]: [`blocked_sweeps`] from the seeded starting
/// block to the last iteration, nothing in between.
fn run_blocked_variant<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    params: &KpmParams,
) -> Result<MomentSet, KpmError> {
    let start = {
        let _sp = span("solver.start", "solver");
        starting_block(h.nrows(), params)
    };
    let iters = params.iterations();
    let par = params.parallel;
    let mut state = init_block(h, sf, start, iters, par);
    blocked_sweeps(h, sf, par, &mut state, 0..iters, |_, _| Ok(()))?;
    let (m, r) = (params.num_moments, params.num_random);
    Ok(moments_from_flat_eta(&state.eta, m, r, iters))
}

/// Columns per task when a batched solve runs in parallel.
///
/// Fixed (never derived from the thread count) so the column grouping —
/// and therefore every floating-point chain — is identical no matter
/// how many workers execute the groups.
const BATCH_GROUP_COLS: usize = 8;

/// Lanes a batch of `columns` is swept on: groups of
/// [`BATCH_GROUP_COLS`], the last zero-filled to the next power of two —
/// one 8/4/2/1 panel. A sweep's price follows the panels in the cut, not
/// the columns (six as 4 + 2 cost 1.9× what eight cost as one).
pub fn batch_lanes(columns: usize) -> usize {
    let tail = columns % BATCH_GROUP_COLS;
    columns - tail + tail.next_power_of_two() * usize::from(tail > 0)
}

/// Deadline-aware batched KPM runs over arbitrary starting vectors —
/// the service front-end's solve primitive.
///
/// Column `j` of the result is **bitwise identical** to
/// [`moments_from_start`]`(h, sf, &starts[j], num_moments, false)`
/// regardless of the batch composition: every column runs the serial
/// blocked kernel chain, whose per-column arithmetic is the single
/// fused `aug_spmv` chain (see `kpm-sparse::aug`). `parallel` splits
/// the batch into fixed groups of [`BATCH_GROUP_COLS`] columns solved
/// concurrently; grouping never mixes columns arithmetically, so
/// results are also bitwise-identical across thread counts.
///
/// `deadline` aborts a group with [`KpmError::DeadlineExceeded`] when
/// the wall clock has passed it before a sweep — the hook the service
/// uses to thread per-request budgets through the solver.
pub fn kpm_batch_moments<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    starts: &[Vector],
    num_moments: usize,
    parallel: bool,
    deadline: Option<std::time::Instant>,
) -> Result<Vec<MomentSet>, KpmError> {
    validate_square(h)?;
    KpmParams {
        num_moments,
        num_random: 1,
        ..KpmParams::default()
    }
    .validate()?;
    for v0 in starts {
        if v0.len() != h.nrows() {
            return Err(KpmError::InvalidParams {
                what: "starts",
                details: format!(
                    "starting vector length {} does not match matrix dimension {}",
                    v0.len(),
                    h.nrows()
                ),
            });
        }
    }
    let _sp = span("solver.batch", "solver")
        .arg("columns", starts.len())
        .arg("moments", num_moments);
    let solve_group = |group: &[Vector]| batch_group_serial(h, sf, group, num_moments, deadline);
    let groups: Result<Vec<Vec<MomentSet>>, KpmError> =
        if parallel && starts.len() > BATCH_GROUP_COLS {
            starts
                .par_chunks(BATCH_GROUP_COLS)
                .map(solve_group)
                .collect()
        } else {
            starts.chunks(BATCH_GROUP_COLS).map(solve_group).collect()
        };
    Ok(groups?.into_iter().flatten().collect())
}

/// One column group of a batched solve: the serial stage-2 recurrence
/// over up to [`BATCH_GROUP_COLS`] columns (callers never pass an empty
/// group) on [`batch_lanes`] lanes, the deadline tested before every
/// sweep. Serial by design — see [`kpm_batch_moments`] for the bitwise
/// argument; a pad lane's partials are exactly 0 and trip no guardrail.
fn batch_group_serial<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    starts: &[Vector],
    num_moments: usize,
    deadline: Option<std::time::Instant>,
) -> Result<Vec<MomentSet>, KpmError> {
    let (r, lanes) = (starts.len(), batch_lanes(starts.len()));
    let iters = num_moments / 2 - 1;
    let start = BlockVector::from_columns_padded(starts, lanes);
    let mut state = init_block(h, sf, start, iters, false);
    blocked_sweeps(h, sf, false, &mut state, 0..iters, |m, _| match deadline {
        Some(d) if std::time::Instant::now() >= d => {
            Err(KpmError::DeadlineExceeded { iteration: m })
        }
        _ => Ok(()),
    })?;
    Ok((0..r)
        .map(|j| column_from_flat_eta(&state.eta, lanes, iters, j))
        .collect())
}

/// Checkpoint/restart policy for [`kpm_moments_checkpointed`].
pub struct SolverCheckpointing<'a> {
    /// Where checkpoints are written and restarts read from.
    pub store: &'a dyn CheckpointStore,
    /// Sweeps between checkpoints (≥ 1).
    pub interval: usize,
    /// Test hook: simulate a crash (return `Err(RankCrashed)`) when a
    /// *fresh* run reaches this sweep. A run resumed from a checkpoint
    /// never crashes here, so write → crash → resume roundtrips in one
    /// process.
    pub crash_at: Option<usize>,
}

/// The stage-2 blocked solver with checkpoint/restart: identical
/// arithmetic to [`kpm_moments`] with [`KpmVariant::AugSpmmv`], but the
/// recurrence state `(m, ν_m, ν_{m+1}, η prefix)` is serialized into
/// `ckpt.store` every `ckpt.interval` sweeps, and on entry the newest
/// consistent checkpoint (if any) is restored instead of starting over.
///
/// Because η values are recorded *as computed* and never recomputed, the
/// resumed run reproduces the uninterrupted moments bit for bit.
pub fn kpm_moments_checkpointed<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    params: &KpmParams,
    ckpt: &SolverCheckpointing<'_>,
) -> Result<MomentSet, KpmError> {
    with_threads(params.threads, || checkpointed_run(h, sf, params, ckpt))?
}

/// [`kpm_moments_checkpointed`] under the already-installed pool.
fn checkpointed_run<M: SparseKernels + ?Sized>(
    h: &M,
    sf: ScaleFactors,
    params: &KpmParams,
    ckpt: &SolverCheckpointing<'_>,
) -> Result<MomentSet, KpmError> {
    validate_square(h)?;
    params.validate()?;
    if ckpt.interval == 0 {
        return Err(KpmError::InvalidParams {
            what: "interval",
            details: "checkpoint interval must be >= 1 sweeps".to_string(),
        });
    }
    let n = h.nrows();
    let (r, par) = (params.num_random, params.parallel);
    let iters = params.iterations();

    let restore_sp = span("solver.ckpt.restore", "ckpt");
    let restore_t0 = std::time::Instant::now();
    let (mut state, start_iter) = match crate::checkpoint::latest_consistent(ckpt.store, n)? {
        Some(it) => {
            let rck = ckpt
                .store
                .load_rank(it, 0)?
                .ok_or_else(|| KpmError::CheckpointMissing {
                    details: format!("rank 0 record at iteration {it}"),
                })?;
            let eck = ckpt
                .store
                .load_eta(it)?
                .ok_or_else(|| KpmError::CheckpointMissing {
                    details: format!("eta record at iteration {it}"),
                })?;
            if rck.width != r || eck.width != r || rck.row_end - rck.row_begin != n {
                return Err(KpmError::CheckpointCorrupt {
                    details: "checkpoint geometry does not match this run".to_string(),
                });
            }
            let state = BlockedState {
                v: BlockVector::from_interleaved(&rck.v, n, r),
                w: BlockVector::from_interleaved(&rck.w, n, r),
                eta: eck.eta,
            };
            metrics::counter_inc("solver.ckpt.restores");
            metrics::hist_record_ns(
                "solver.ckpt.restore_ns",
                restore_t0.elapsed().as_nanos() as u64,
            );
            (state, it)
        }
        None => {
            let start = starting_block(n, params);
            (init_block(h, sf, start, iters, par), 0)
        }
    };
    drop(restore_sp);

    // Before sweep `m`, in this order: the state after `m` sweeps is
    // saved when `m` is an interval boundary this run swept up to, then
    // a fresh run crashes if `m` is the injected crash point — so a
    // crash on a boundary still leaves that boundary's checkpoint.
    let save_or_crash = |m: usize, state: &BlockedState| {
        if m > start_iter && m.is_multiple_of(ckpt.interval) {
            let _save_sp = span("solver.ckpt.save", "ckpt");
            let save_t0 = std::time::Instant::now();
            ckpt.store.save_rank(&RankCheckpoint {
                iteration: m,
                rank: 0,
                row_begin: 0,
                row_end: n,
                width: r,
                halo_sent: 0,
                v: state.v.to_interleaved(),
                w: state.w.to_interleaved(),
            })?;
            ckpt.store.save_eta(&EtaCheckpoint {
                iteration: m,
                width: r,
                eta: state.eta.clone(),
            })?;
            metrics::counter_inc("solver.ckpt.saves");
            metrics::hist_record_ns("solver.ckpt.save_ns", save_t0.elapsed().as_nanos() as u64);
        }
        if start_iter == 0 && ckpt.crash_at == Some(m) {
            return Err(KpmError::RankCrashed { rank: 0 });
        }
        Ok(())
    };
    blocked_sweeps(h, sf, par, &mut state, start_iter..iters, save_or_crash)?;
    Ok(moments_from_flat_eta(
        &state.eta,
        params.num_moments,
        r,
        iters,
    ))
}

/// Rebuilds a [`MomentSet`] — the average over the `r` columns — from
/// the flat η layout shared by the shared-memory and the distributed
/// solver.
pub fn moments_from_flat_eta(
    eta_flat: &[Complex64],
    num_moments: usize,
    r: usize,
    iters: usize,
) -> MomentSet {
    let mut acc = MomentSet::zeros(num_moments);
    for j in 0..r {
        acc.accumulate(&column_from_flat_eta(eta_flat, r, iters, j));
    }
    acc
}

/// The moments of column `j` alone from the flat η layout.
fn column_from_flat_eta(eta_flat: &[Complex64], r: usize, iters: usize, j: usize) -> MomentSet {
    debug_assert_eq!(eta_flat.len(), EtaCheckpoint::expected_len(iters, r));
    let sweep = |m: usize| {
        let base = 2 * r + m * 2 * r;
        (eta_flat[base + j].re, eta_flat[base + r + j])
    };
    let eta: Vec<_> = (0..iters).map(sweep).collect();
    MomentSet::from_eta(eta_flat[j].re, eta_flat[r + j].re, &eta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chebyshev::t;
    use kpm_topo::model::{chain_1d, chain_1d_eigenvalues, random_hermitian};
    use kpm_topo::TopoHamiltonian;

    fn params(m: usize, r: usize) -> KpmParams {
        KpmParams {
            num_moments: m,
            num_random: r,
            seed: 1234,
            parallel: false,
            threads: 0,
            power: 1,
            first_touch: false,
        }
    }

    #[test]
    fn all_variants_agree_to_rounding() {
        let h = random_hermitian(200, 4, 7);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(64, 4);
        let naive = kpm_moments(&h, sf, &p, KpmVariant::Naive).unwrap();
        let stage1 = kpm_moments(&h, sf, &p, KpmVariant::AugSpmv).unwrap();
        let stage2 = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        assert!(naive.max_abs_diff(&stage1) < 1e-10, "naive vs stage1");
        assert!(naive.max_abs_diff(&stage2) < 1e-10, "naive vs stage2");
    }

    #[test]
    fn parallel_matches_serial() {
        let h = random_hermitian(300, 4, 11);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let mut p = params(32, 2);
        let serial = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        p.parallel = true;
        let parallel = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        assert!(serial.max_abs_diff(&parallel) < 1e-9);
    }

    /// Runs `f` on a dedicated pool of `threads` workers.
    fn on_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
        pool.build().unwrap().install(f)
    }

    #[test]
    fn init_block_is_the_per_column_chain_bitwise() {
        // 4,508 rows: two ragged 4,096-row chunks, ragged 256-row leaves.
        let ham = TopoHamiltonian::quantum_dot_superlattice(7, 7, 23);
        let crs = ham.assemble();
        let sf = ScaleFactors::from_gershgorin(&crs, 0.01);
        let stencil = ham.stencil_matrix();
        let formats: [&dyn SparseKernels; 2] = [&crs, &stencil];
        // The chain `init_block` replaced, column by column.
        let reference = |h: &dyn SparseKernels, v: &[Complex64], parallel: bool| {
            let mut w = vec![Complex64::default(); v.len()];
            let (minus_b, a) = (Complex64::real(-sf.b), Complex64::real(sf.a));
            if parallel {
                h.spmv_par(v, &mut w);
                axpy_par(minus_b, v, &mut w);
                scal_par(a, &mut w);
                let mu1 = dot_par(&w, v).re;
                (w, nrm2_par(v), mu1)
            } else {
                h.spmv(v, &mut w);
                axpy(minus_b, v, &mut w);
                scal(a, &mut w);
                let mu1 = dot(&w, v).re;
                (w, nrm2(v), mu1)
            }
        };
        for width in [1, 2, 3, 8, 24, 32, 33] {
            let p = params(4, width);
            let start = starting_block(crs.nrows(), &p);
            for h in formats {
                let check = |parallel: bool| {
                    let BlockedState { v, w, eta } = init_block(h, sf, start.clone(), 0, parallel);
                    assert_eq!((&v, eta.len()), (&start, 2 * width));
                    for j in 0..width {
                        let want = reference(h, start.column(j).as_slice(), parallel);
                        let mu = (eta[j], eta[width + j]);
                        assert_eq!((mu.0.im, mu.1.im), (0.0, 0.0));
                        let got = (w.column(j).into_vec(), mu.0.re, mu.1.re);
                        assert!(got == want, "{} R={width} column {j}", h.format());
                    }
                };
                check(false);
                for threads in [1, 2, 4, 8] {
                    on_pool(threads, || check(true));
                }
            }
        }
    }

    #[test]
    fn starting_block_is_the_starting_vectors_bitwise() {
        // Every 8/4/2/1 cut of a row at a chunk-sized block; a few at
        // one row and at two ragged fill chunks.
        let all_cuts: Vec<usize> = (1..=40).collect();
        for (n, widths) in [
            (1, &[1, 2, 7, 33][..]),
            (255, &all_cuts),
            (4097, &[1, 2, 7, 33]),
        ] {
            for &r in widths {
                let mut p = params(4, r);
                let want = starting_vectors(n, &p);
                let check = |p: &KpmParams| {
                    let block = starting_block(n, p);
                    for (j, v) in want.iter().enumerate() {
                        assert!(block.column(j) == *v, "n={n} R={r} column {j}");
                    }
                };
                check(&p);
                p.parallel = true;
                for threads in [1, 2, 4, 8] {
                    on_pool(threads, || check(&p));
                }
            }
        }
    }

    #[test]
    fn with_threads_reuses_an_installed_pool_of_the_requested_size() {
        // Worker threads carry the pool's name; the caller does not.
        let on_worker = || {
            let name = |_| std::thread::current().name().map(str::to_owned);
            (0..64).into_par_iter().map(name).collect::<Vec<_>>()
        };
        on_pool(3, || {
            assert_eq!(with_threads(3, rayon::current_num_threads).unwrap(), 3);
            assert_eq!(with_threads(0, rayon::current_num_threads).unwrap(), 3);
            assert_eq!(with_threads(2, rayon::current_num_threads).unwrap(), 2);
            assert!(with_threads(3, on_worker)
                .unwrap()
                .iter()
                .all(Option::is_some));
        });
    }

    #[test]
    fn mu0_is_one_for_normalized_starts() {
        let h = random_hermitian(150, 3, 13);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let set = kpm_moments(&h, sf, &params(16, 3), KpmVariant::AugSpmv).unwrap();
        assert!((set.as_slice()[0] - 1.0).abs() < 1e-12);
        assert_eq!(set.runs(), 3);
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn moments_bounded_by_one() {
        // |μ_m| = |tr T_m(H̃)|/N <= 1 because ‖T_m(H̃)‖ <= 1 on [-1,1].
        let ham = TopoHamiltonian::clean(4, 4, 3);
        let h = ham.assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let set = kpm_moments(&h, sf, &params(64, 2), KpmVariant::AugSpmmv).unwrap();
        for (m, &mu) in set.as_slice().iter().enumerate() {
            assert!(mu.abs() <= 1.0 + 1e-9, "mu[{m}] = {mu}");
        }
    }

    #[test]
    fn single_state_moments_match_exact_chebyshev_sum() {
        // For a start vector expanded in exact eigenvectors, μ_m =
        // Σ_n |c_n|² T_m(x_n). Use the 1D chain where eigenvectors are
        // sines: pick a single eigenvector as the start, then
        // μ_m = T_m(x_k) exactly.
        let n = 40;
        let h = chain_1d(n, 1.0);
        let sf = ScaleFactors::from_bounds(-2.0, 2.0, 0.05);
        let evs = chain_1d_eigenvalues(n, 1.0);
        let k_mode = 7usize; // arbitrary eigenmode (1-based k = 8)
                             // Eigenvector of the open chain: v_i ∝ sin((i+1) k π / (n+1)).
        let kq = (k_mode + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0);
        let mut v = Vector::from_vec(
            (0..n)
                .map(|i| Complex64::real(((i + 1) as f64 * kq).sin()))
                .collect(),
        );
        v.normalize();
        // Energy of this mode is 2cos(kq) — check that it appears in the
        // sorted eigenvalue list.
        let e_mode = 2.0 * kq.cos();
        assert!(evs.iter().any(|e| (e - e_mode).abs() < 1e-12));

        let set = moments_from_start(&h, sf, &v, 48, false).unwrap();
        let x = sf.to_chebyshev(e_mode);
        for (m, &mu) in set.as_slice().iter().enumerate() {
            assert!(
                (mu - t(m, x)).abs() < 1e-8,
                "m={m}: mu={mu} vs T_m={}",
                t(m, x)
            );
        }
    }

    #[test]
    fn more_random_vectors_reduce_trace_noise() {
        // The exact normalized trace of T_1(H̃) for the chain is
        // tr[H̃]/n = -a·b (diagonal is zero). Compare estimator errors.
        let n = 400;
        let h = chain_1d(n, 1.0);
        let sf = ScaleFactors::from_bounds(-2.0, 2.0, 0.05);
        let exact_mu1 = -sf.a * sf.b; // = 0 here, b = 0
        let err = |r: usize| -> f64 {
            let set = kpm_moments(&h, sf, &params(8, r), KpmVariant::AugSpmmv).unwrap();
            (set.as_slice()[1] - exact_mu1).abs()
        };
        // With 64x more vectors the stochastic error should clearly drop.
        let e1 = err(1);
        let e64 = err(64);
        assert!(e64 < e1, "e1={e1} e64={e64}");
    }

    #[test]
    fn odd_moment_count_rejected() {
        let h = chain_1d(10, 1.0);
        let sf = ScaleFactors::from_bounds(-2.0, 2.0, 0.05);
        let p = KpmParams {
            num_moments: 7,
            num_random: 1,
            seed: 0,
            parallel: false,
            threads: 0,
            power: 1,
            first_touch: false,
        };
        let err = kpm_moments(&h, sf, &p, KpmVariant::Naive).expect_err("odd M must be rejected");
        assert!(
            matches!(
                err,
                KpmError::InvalidParams {
                    what: "num_moments",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("even"), "{err}");
    }

    #[test]
    fn zero_random_vectors_rejected() {
        let h = chain_1d(10, 1.0);
        let sf = ScaleFactors::from_bounds(-2.0, 2.0, 0.05);
        let p = KpmParams {
            num_moments: 8,
            num_random: 0,
            seed: 0,
            parallel: false,
            threads: 0,
            power: 1,
            first_touch: false,
        };
        let err = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).expect_err("R = 0 is invalid");
        assert!(matches!(
            err,
            KpmError::InvalidParams {
                what: "num_random",
                ..
            }
        ));
    }

    #[test]
    fn removed_fields_are_rejected_before_the_matrix_is_looked_at() {
        // `power` and `first_touch` outlived their code paths only as
        // fields: any value but the neutral one is a typed error.
        let p = params(8, 1);
        let cases = [
            ("power", KpmParams { power: 0, ..p }),
            ("power", KpmParams { power: 2, ..p }),
            (
                "first_touch",
                KpmParams {
                    first_touch: true,
                    ..p
                },
            ),
        ];
        // Not square either: the parameter error comes first.
        let h = kpm_sparse::CooMatrix::new(2, 3).to_crs();
        let sf = ScaleFactors::from_bounds(-1.0, 1.0, 0.0);
        for (field, p) in cases {
            for err in [
                p.validate().expect_err("only the neutral value is valid"),
                kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).expect_err("rejected"),
            ] {
                assert!(
                    matches!(err, KpmError::InvalidParams { what, .. } if what == field),
                    "{field}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn batch_moments_are_the_single_vector_chain_and_stop_at_a_past_deadline() {
        // 3 columns take the serial path, 11 the grouped one (8 + 3).
        let h = random_hermitian(90, 3, 29);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let starts = starting_vectors(h.nrows(), &params(20, 11));
        for (columns, parallel) in [(3, false), (3, true), (11, false), (11, true)] {
            let batch = &starts[..columns];
            let sets = kpm_batch_moments(&h, sf, batch, 20, parallel, None).unwrap();
            assert_eq!(sets.len(), columns);
            for (set, v0) in sets.iter().zip(batch) {
                let alone = moments_from_start(&h, sf, v0, 20, false).unwrap();
                assert_eq!(set.as_slice(), alone.as_slice(), "{columns} columns");
            }
            // The deadline is tested before every sweep, the first included.
            let past = Some(std::time::Instant::now());
            let err = kpm_batch_moments(&h, sf, batch, 20, parallel, past)
                .expect_err("no sweep may start after the deadline");
            assert!(
                matches!(err, KpmError::DeadlineExceeded { iteration: 0 }),
                "{columns} columns, parallel = {parallel}: {err:?}"
            );
        }
    }

    #[test]
    fn undersized_scale_factors_trip_the_divergence_guardrail() {
        // Spectrum of the chain is [-2, 2]; claim it is [-0.5, 0.5] so
        // ‖H̃‖ > 1 and the recurrence grows exponentially.
        let h = chain_1d(64, 1.0);
        let sf = ScaleFactors::from_bounds(-0.5, 0.5, 0.0);
        let err = kpm_moments(&h, sf, &params(128, 1), KpmVariant::Naive)
            .expect_err("divergence must be detected");
        match err {
            KpmError::SpectralBoundsViolated {
                iteration,
                value,
                bound,
            } => {
                assert!(iteration < 128, "iteration {iteration} out of range");
                assert!(value > bound, "value {value} <= bound {bound}");
            }
            other => panic!("expected SpectralBoundsViolated, got {other:?}"),
        }
        // All variants detect it, at the same iteration.
        let err2 = kpm_moments(&h, sf, &params(128, 1), KpmVariant::AugSpmmv)
            .expect_err("blocked variant must also detect divergence");
        assert!(matches!(err2, KpmError::SpectralBoundsViolated { .. }));
    }

    #[test]
    fn checkpointed_run_matches_plain_run_bitwise() {
        use crate::checkpoint::MemoryCheckpointStore;
        let h = random_hermitian(120, 4, 3);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(32, 3);
        let plain = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let store = MemoryCheckpointStore::new();
        let ckpt = SolverCheckpointing {
            store: &store,
            interval: 4,
            crash_at: None,
        };
        let checkpointed = kpm_moments_checkpointed(&h, sf, &p, &ckpt).unwrap();
        assert_eq!(
            plain.as_slice(),
            checkpointed.as_slice(),
            "not bitwise equal"
        );
    }

    #[test]
    fn crash_and_resume_reproduces_the_uninterrupted_moments() {
        use crate::checkpoint::MemoryCheckpointStore;
        let h = random_hermitian(100, 3, 5);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(40, 2); // 19 sweeps
        let reference = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();

        let store = MemoryCheckpointStore::new();
        let crash_mid = SolverCheckpointing {
            store: &store,
            interval: 3,
            crash_at: Some(p.iterations() / 2),
        };
        let err = kpm_moments_checkpointed(&h, sf, &p, &crash_mid)
            .expect_err("the injected crash must fire");
        assert!(matches!(err, KpmError::RankCrashed { rank: 0 }));

        // Resume from the surviving store; the crash hook does not fire
        // on resumed runs.
        let resumed = kpm_moments_checkpointed(&h, sf, &p, &crash_mid).unwrap();
        let diff = reference.max_abs_diff(&resumed);
        assert!(diff < 1e-12, "resume diverged from fault-free run: {diff}");
        assert_eq!(
            reference.as_slice(),
            resumed.as_slice(),
            "not bitwise equal"
        );
    }
}
