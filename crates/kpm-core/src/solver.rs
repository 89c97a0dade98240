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

use kpm_num::aligned::populate_pages;
use kpm_num::block::{shift_scale_dots, shift_scale_dots_par};
use kpm_num::for_panels;
use kpm_num::vector::{axpy, axpy_par, dot, dot_par, nrm2, nrm2_par, scal, scal_par};
use kpm_num::{BlockVector, Complex64, KpmError, Vector};
use kpm_obs::{hist, metrics, span::span};
use kpm_sparse::{simd, CrsMatrix};
use kpm_topo::ScaleFactors;

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::draw::{Draws, Job};
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

/// Checks, before any of them is allocated, that the buffers a run's
/// request sizes can be had on this host, so a request too large for it
/// fails with a typed error naming its field instead of aborting in the
/// allocator: the block of `columns` starting vectors on `n` rows
/// (`num_random`), the η record of `num_moments` moments per column
/// (`num_moments`) and a curve of `points` energies (`points`), in that
/// order. Each is reserved with `try_reserve_exact`, as
/// `CooMatrix::to_crs` reserves its row pointers, and released
/// untouched.
pub fn check_allocatable(
    n: usize,
    columns: usize,
    num_moments: usize,
    points: usize,
) -> Result<(), KpmError> {
    reserve_released(
        "num_random",
        n.checked_mul(columns),
        format_args!("{columns} starting vectors of {n} rows"),
    )?;
    reserve_released(
        "num_moments",
        columns.checked_mul(num_moments),
        format_args!("{num_moments} moments of {columns} columns"),
    )?;
    reserve_released(
        "points",
        Some(points),
        format_args!("a curve of {points} points"),
    )
}

/// Reserves `entries` complex values and releases them untouched; an
/// overflowing size (`None`) or a refusal is an `InvalidParams` naming
/// `what` and saying what `of` asked for.
fn reserve_released(
    what: &'static str,
    entries: Option<usize>,
    of: std::fmt::Arguments<'_>,
) -> Result<(), KpmError> {
    let refused = |why: String| KpmError::InvalidParams {
        what,
        details: format!("{of} {why}"),
    };
    let entries =
        entries.ok_or_else(|| refused("cannot be allocated: the size overflows".into()))?;
    Vec::<Complex64>::new()
        .try_reserve_exact(entries)
        .map_err(|e| {
            let gib = entries as f64 * 16.0 / (1u64 << 30) as f64;
            refused(format!("({gib:.1} GiB) cannot be allocated: {e}"))
        })
}

/// Runs `f` under the thread count the caller asked for: on the ambient
/// pool when `threads` is 0 or the ambient pool already has that many
/// workers (a command that installed its `--threads` pool around
/// set-up and solve gets no second one), else on a dedicated pool of
/// `threads` workers. Scoping the pool to the call means nested calls
/// compose without global state.
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
fn validate_square(h: &CrsMatrix) -> Result<(), KpmError> {
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
/// Moments are bitwise-identical across thread counts, and across a
/// lattice's coded and plain CRS, because every kernel computes the same
/// floating-point chain on either.
pub fn kpm_moments(
    h: &CrsMatrix,
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

/// The normalized random starting vectors — a pure function of the
/// seed, column for column the starting block of the blocked variants
/// and bit for bit `Vector::random` + `normalize` on one seeded stream.
/// Drawn serially by the lane kernels of `draw.rs`: the norms, then
/// each column as one run of draws.
pub fn starting_vectors(n: usize, params: &KpmParams) -> Vec<Vector> {
    let (wide, draws) = (simd::wide(), Draws::new(params.seed, n));
    let scales = draws.column_scales(params.num_random, wide, false);
    let column = |(j, &scale): (usize, &f64)| {
        let mut v = Vector::zeros(n);
        let (first, out) = (2 * (j * n) as u64, v.as_mut_slice());
        draws.run(wide, Job::Run { first, scale, out });
        v
    };
    scales.iter().enumerate().map(column).collect()
}

/// Rows per parallel fill chunk of [`starting_block`].
const START_CHUNK_ROWS: usize = 4096;

/// [`starting_vectors`] written straight into the block:
/// `starting_block(n, p).column(j) == starting_vectors(n, p)[j]` bit for
/// bit, without the `R` column vectors in between.
///
/// Two passes of `draw.rs`'s lane kernels, on the ambient pool
/// when `params.parallel`: the columns' norms, every entry drawn and
/// reduced on `nrm2`'s tree without being stored (one lane per column,
/// or per leaf below a register of columns; jobs of leaves on the
/// pool), then fixed row chunks of the block, each entry drawn again
/// and written scaled, a layout panel a register at a time — every
/// block page is written once, by the worker that fills it, which has
/// the chunk's pages populated in one batch first ([`populate_pages`]).
/// Drawing twice costs about what a second pass over the block would:
/// on one core of the AVX-512 host the norm pass took 0.59 ms at R = 32
/// on 16,000 rows, where a rescaling pass over the cache-resident 8 MB
/// block took 0.47 ms, and 2.0 ms at R = 8 on 221,184 rows, where the
/// pass over 28 MB took 3.4 ms; the baseline copy's norm pass took 1.4
/// and 5.0 ms (EXPERIMENTS.md, "Starting vectors, eight columns a
/// register").
pub fn starting_block(n: usize, params: &KpmParams) -> BlockVector {
    let (r, wide) = (params.num_random, simd::wide());
    let draws = Draws::new(params.seed, n);
    let scales = draws.column_scales(r, wide, params.parallel);
    let fill = |chunk: usize, rows: &mut [Complex64]| {
        populate_pages(rows);
        let row0 = chunk * START_CHUNK_ROWS;
        if r == 1 {
            let (first, scale, out) = (2 * row0 as u64, scales[0], rows);
            return draws.run(wide, Job::Run { first, scale, out });
        }
        let mut j0 = 0;
        for_panels!(r, j0, W => {
            let scales = &scales[j0..j0 + W];
            let rows = &mut *rows;
            draws.run(wide, Job::Panel { row0, r, j0, w: W, scales, rows });
        });
    };
    let mut v = BlockVector::zeros(n, r);
    if params.parallel {
        rayon::map_chunks(v.panel_slots_mut().chunks_mut(START_CHUNK_ROWS * r), fill);
    } else {
        let chunks = v.panel_slots_mut().chunks_mut(START_CHUNK_ROWS * r);
        for (chunk, rows) in chunks.enumerate() {
            fill(chunk, rows);
        }
    }
    v
}

/// Computes the moments `μ_m = ⟨φ|T_m(H̃)|φ⟩` of a *given* (not
/// necessarily normalized) starting vector — the primitive behind local
/// DOS and spectral functions, where the "trace" is over one state. It
/// runs the serial stage-1 chain (`aug_spmv`), the chain
/// [`kpm_batch_moments`] is bitwise equal to column by column.
pub fn moments_from_start(
    h: &CrsMatrix,
    sf: ScaleFactors,
    start: &Vector,
    num_moments: usize,
) -> Result<MomentSet, KpmError> {
    validate_square(h)?;
    let params = KpmParams {
        num_moments,
        num_random: 1,
        seed: 0,
        parallel: false,
        threads: 0,
        power: 1,
        first_touch: false,
    };
    params.validate()?;
    single_run_aug(h, sf, &params, start)
}

/// One KPM run in the naive (Fig. 3) or stage-1 (Fig. 4) formulation.
fn run_vector_variant(
    h: &CrsMatrix,
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
fn init_recurrence(
    h: &CrsMatrix,
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
/// the layout [`moments_from_flat_eta`] and the checkpoints share.
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
/// parallel. The fresh `W` has its pages populated first, chunk by
/// chunk on the pool when `parallel` ([`populate_pages`]), so the
/// `spmmv` that writes it first takes no page faults; one call on the
/// calling thread instead measured slower at two threads.
fn init_block(
    h: &CrsMatrix,
    sf: ScaleFactors,
    v: BlockVector,
    iters: usize,
    parallel: bool,
) -> BlockedState {
    let _sp = span("solver.init", "solver").arg("width", v.width());
    let mut w = BlockVector::zeros(v.rows(), v.width());
    let (mu0, mu1) = if parallel {
        let chunks = w.panel_slots_mut().chunks_mut(START_CHUNK_ROWS * v.width());
        rayon::map_chunks(chunks, |_, slots| populate_pages(slots));
        h.spmmv_par(&v, &mut w);
        shift_scale_dots_par(sf.a, sf.b, &v, &mut w)
    } else {
        populate_pages(w.panel_slots_mut());
        h.spmmv(&v, &mut w);
        shift_scale_dots(sf.a, sf.b, &v, &mut w)
    };
    let mut eta = Vec::with_capacity(Checkpoint::eta_len(iters, v.width()).unwrap_or(0));
    eta.extend(mu0.into_iter().chain(mu1).map(Complex64::real));
    BlockedState { v, w, eta }
}

/// The naive KPM loop (paper Fig. 3): per iteration one `spmv()`, two
/// `axpy()`, one `scal()`, one `nrm2()` and one `dot()` — the vectors
/// stream through memory six times.
fn single_run_naive(
    h: &CrsMatrix,
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
fn single_run_aug(
    h: &CrsMatrix,
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
fn blocked_sweeps(
    h: &CrsMatrix,
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
fn run_blocked_variant(
    h: &CrsMatrix,
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

/// Columns per group of a batched solve: one 8-column panel, the
/// widest the sweep runs in registers.
const BATCH_GROUP_COLS: usize = 8;

/// Lanes a batch of `columns` is swept on: groups of
/// [`BATCH_GROUP_COLS`], the last zero-filled to the next power of two —
/// one 8/4/2/1 panel. A sweep's price follows the panels in the cut, not
/// the columns (on the 3,456-row lattice, one thread, AVX-512, with the
/// dots: three as 2 + 1 cost 1.5× what four cost, seven as 4 + 2 + 1
/// 1.4× what eight cost, six as 4 + 2 1.0× and five as 4 + 1 0.9×; eight
/// cost 1.8× four and 2.8× two). Whether to pad only 3 → 4 and 7 → 8
/// stays open: the service's mix forms batches of 2, 4, 6 and 8 columns
/// only (DOS and Green requests are 2 columns, LDOS 4), so its only
/// padding is 6 → 8, which costs what the 4 + 2 cut does.
pub fn batch_lanes(columns: usize) -> usize {
    let tail = columns % BATCH_GROUP_COLS;
    columns - tail + tail.next_power_of_two() * usize::from(tail > 0)
}

/// Deadline-aware batched KPM runs over arbitrary starting vectors —
/// the service front-end's solve primitive.
///
/// Column `j` of the result is **bitwise identical** to
/// [`moments_from_start`]`(h, sf, &starts[j], num_moments)`
/// regardless of the batch composition: every column runs the serial
/// blocked kernel chain, whose per-column arithmetic is the single
/// fused `aug_spmv` chain (see `kpm-sparse::aug`). A batch wider than
/// [`BATCH_GROUP_COLS`] is solved as groups of that many columns, one
/// after another on the calling thread; grouping never mixes columns
/// arithmetically. A service runs batches in parallel by running one
/// per worker thread, not by splitting one.
///
/// `deadline` aborts a group with [`KpmError::DeadlineExceeded`] when
/// the wall clock has passed it before a sweep — the hook the service
/// uses to thread per-request budgets through the solver.
pub fn kpm_batch_moments(
    h: &CrsMatrix,
    sf: ScaleFactors,
    starts: &[Vector],
    num_moments: usize,
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
    let mut sets = Vec::with_capacity(starts.len());
    for group in starts.chunks(BATCH_GROUP_COLS) {
        sets.extend(batch_group_serial(h, sf, group, num_moments, deadline)?);
    }
    Ok(sets)
}

/// One column group of a batched solve: the serial stage-2 recurrence
/// over up to [`BATCH_GROUP_COLS`] columns (callers never pass an empty
/// group) on [`batch_lanes`] lanes, the deadline tested before every
/// sweep. Serial by design — see [`kpm_batch_moments`] for the bitwise
/// argument; a pad lane's partials are exactly 0 and trip no guardrail.
fn batch_group_serial(
    h: &CrsMatrix,
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
    /// Test hook: simulate a crash (return `Err(InjectedCrash)`) when a
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
pub fn kpm_moments_checkpointed(
    h: &CrsMatrix,
    sf: ScaleFactors,
    params: &KpmParams,
    ckpt: &SolverCheckpointing<'_>,
) -> Result<MomentSet, KpmError> {
    with_threads(params.threads, || checkpointed_run(h, sf, params, ckpt))?
}

/// [`kpm_moments_checkpointed`] under the already-installed pool.
fn checkpointed_run(
    h: &CrsMatrix,
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
        Some(ck) => {
            if ck.width != r {
                return Err(KpmError::CheckpointCorrupt {
                    details: "checkpoint width does not match this run".to_string(),
                });
            }
            let state = BlockedState {
                v: BlockVector::from_interleaved(&ck.v, n, r),
                w: BlockVector::from_interleaved(&ck.w, n, r),
                eta: ck.eta,
            };
            metrics::counter_inc("solver.ckpt.restores");
            hist::record(
                "solver.ckpt.restore_ns",
                restore_t0.elapsed().as_nanos() as u64,
            );
            (state, ck.iteration)
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
            ckpt.store.save_checkpoint(&Checkpoint {
                iteration: m,
                width: r,
                v: state.v.to_interleaved(),
                w: state.w.to_interleaved(),
                eta: state.eta.clone(),
            })?;
            metrics::counter_inc("solver.ckpt.saves");
            hist::record("solver.ckpt.save_ns", save_t0.elapsed().as_nanos() as u64);
        }
        if start_iter == 0 && ckpt.crash_at == Some(m) {
            return Err(KpmError::InjectedCrash);
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
/// the flat η layout of [`BlockedState`] and the checkpoints.
fn moments_from_flat_eta(
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
    debug_assert_eq!(Some(eta_flat.len()), Checkpoint::eta_len(iters, r));
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

    /// Sizes past `isize::MAX` bytes, which no allocator grants on any
    /// host, fail typed and name the field that sized them; a run of
    /// ordinary size passes.
    #[test]
    fn unallocatable_run_sizes_are_typed_errors_naming_the_field() {
        assert!(check_allocatable(3456, 8, 256, 1024).is_ok());
        let huge = usize::MAX / 4;
        for (args, field) in [
            ((72, huge, 64, 256), "num_random"),
            ((usize::MAX, 2, 64, 256), "num_random"),
            ((72, 2, huge, 256), "num_moments"),
            ((72, 2, 64, huge), "points"),
        ] {
            let (n, columns, m, points) = args;
            match check_allocatable(n, columns, m, points) {
                Err(KpmError::InvalidParams { what, details }) => {
                    assert_eq!(what, field, "{details}")
                }
                other => panic!("{args:?}: {other:?}"),
            }
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
        // The chain `init_block` replaced, column by column.
        let reference = |v: &[Complex64], parallel: bool| {
            let mut w = vec![Complex64::default(); v.len()];
            let (minus_b, a) = (Complex64::real(-sf.b), Complex64::real(sf.a));
            if parallel {
                crs.spmv_par(v, &mut w);
                axpy_par(minus_b, v, &mut w);
                scal_par(a, &mut w);
                let mu1 = dot_par(&w, v).re;
                (w, nrm2_par(v), mu1)
            } else {
                crs.spmv(v, &mut w);
                axpy(minus_b, v, &mut w);
                scal(a, &mut w);
                let mu1 = dot(&w, v).re;
                (w, nrm2(v), mu1)
            }
        };
        for width in [1, 2, 3, 8, 24, 32, 33] {
            let p = params(4, width);
            let start = starting_block(crs.nrows(), &p);
            let check = |parallel: bool| {
                let BlockedState { v, w, eta } = init_block(&crs, sf, start.clone(), 0, parallel);
                assert_eq!((&v, eta.len()), (&start, 2 * width));
                for j in 0..width {
                    let want = reference(start.column(j).as_slice(), parallel);
                    let mu = (eta[j], eta[width + j]);
                    assert_eq!((mu.0.im, mu.1.im), (0.0, 0.0));
                    let got = (w.column(j).into_vec(), mu.0.re, mu.1.re);
                    assert!(got == want, "R={width} column {j}");
                }
            };
            check(false);
            for threads in [1, 2, 4, 8] {
                on_pool(threads, || check(true));
            }
        }
    }

    /// `Vector::random` + `normalize` on one seeded stream: the scalar
    /// chain the lane kernels replaced, as `(re, im)` bit patterns.
    fn sequential_starts(n: usize, p: &KpmParams) -> Vec<Vec<(u64, u64)>> {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(p.seed);
        let mut column = || {
            let mut v = Vector::random(n, &mut rng);
            v.normalize();
            bits(&v)
        };
        (0..p.num_random).map(|_| column()).collect()
    }

    fn bits(v: &Vector) -> Vec<(u64, u64)> {
        v.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn starting_block_is_the_starting_vectors_bitwise() {
        use kpm_sparse::simd::Body;
        // Rows: one; a short leaf; one, a whole and a ragged 256-row
        // leaf; either side of a 4,096-row fill chunk; the R = 32
        // benchmark line's 16,000. Widths: every 8/4/2/1 cut to 40 at
        // 255 rows (4- and 2-column panels behind 8 and 32 columns
        // included); elsewhere each cut to 9, 8 + 8, 16 + 1, 32 and
        // 32 + 1. The only cap setter in this test binary, so it takes
        // no lock: a test running meanwhile on the other copy gets the
        // same bits anyway.
        let some_cuts = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 32, 33];
        let all_cuts: Vec<usize> = (1..=40).collect();
        for n in [1, 7, 255, 256, 257, 4095, 4097, 16_000] {
            let widths = if n == 255 { &all_cuts[..] } else { &some_cuts };
            for &r in widths {
                let mut p = params(4, r);
                let want = sequential_starts(n, &p);
                for body in Body::ALL.into_iter().filter(|b| b.supported()) {
                    simd::set_cap(body);
                    let got: Vec<_> = starting_vectors(n, &p).iter().map(bits).collect();
                    assert!(got == want, "vectors n={n} R={r} {body:?}");
                    let check = |p: &KpmParams| {
                        let block = starting_block(n, p);
                        for (j, v) in want.iter().enumerate() {
                            let at = format!("block n={n} R={r} {body:?} column {j}");
                            assert!(bits(&block.column(j)) == *v, "{at}");
                        }
                    };
                    p.parallel = false;
                    check(&p);
                    p.parallel = true;
                    for threads in [1, 2, 4, 8] {
                        on_pool(threads, || check(&p));
                    }
                }
            }
        }
        simd::set_cap(Body::Avx512);
    }

    #[test]
    fn with_threads_reuses_an_installed_pool_of_the_requested_size() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::{self, ThreadId};
        use std::time::{Duration, Instant};
        // The threads a 64-chunk job runs on. Each chunk waits until
        // three threads have run one (for 10 s per job at most), so every
        // member of a three-thread team shows up however the claims
        // race; a job run inline shows only the caller, after the wait.
        let team = || {
            let seen = Mutex::new(HashSet::<ThreadId>::new());
            let deadline = Instant::now() + Duration::from_secs(10);
            rayon::map_chunks(0..64, |_, _| {
                seen.lock().unwrap().insert(thread::current().id());
                while seen.lock().unwrap().len() < 3 && Instant::now() < deadline {
                    thread::yield_now();
                }
            });
            seen.into_inner().unwrap()
        };
        on_pool(3, || {
            assert_eq!(with_threads(3, rayon::current_num_threads).unwrap(), 3);
            assert_eq!(with_threads(0, rayon::current_num_threads).unwrap(), 3);
            assert_eq!(with_threads(2, rayon::current_num_threads).unwrap(), 2);
            // The caller and the installed pool's two workers, and the
            // same three again under `with_threads(3, ..)`: no pool of
            // its own, and no job that stayed on the caller.
            let installed = team();
            assert_eq!(installed.len(), 3);
            assert!(installed.contains(&thread::current().id()));
            assert_eq!(with_threads(3, team).unwrap(), installed);
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

        let set = moments_from_start(&h, sf, &v, 48).unwrap();
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
        let h = kpm_sparse::CooMatrix::new(2, 3).to_crs().unwrap();
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
        // 3 columns are one group, 11 two (8 + 3).
        let h = random_hermitian(90, 3, 29);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let starts = starting_vectors(h.nrows(), &params(20, 11));
        for columns in [3, 11] {
            let batch = &starts[..columns];
            let sets = kpm_batch_moments(&h, sf, batch, 20, None).unwrap();
            assert_eq!(sets.len(), columns);
            for (set, v0) in sets.iter().zip(batch) {
                let alone = moments_from_start(&h, sf, v0, 20).unwrap();
                assert_eq!(set.as_slice(), alone.as_slice(), "{columns} columns");
            }
            // The deadline is tested before every sweep, the first included.
            let past = Some(std::time::Instant::now());
            let err = kpm_batch_moments(&h, sf, batch, 20, past)
                .expect_err("no sweep may start after the deadline");
            assert!(
                matches!(err, KpmError::DeadlineExceeded { iteration: 0 }),
                "{columns} columns: {err:?}"
            );
        }
    }

    #[test]
    fn batch_moments_on_a_lattice_are_the_single_vector_chain() {
        // The service's contract on the operator it serves: a coded
        // lattice, swept through its site view — the lane walk on 1, 2
        // and 4 lanes, the register passes on 8. Batches of 1–8 columns
        // that mix random and LDOS unit starts sweep on those four lane
        // counts, and every column must be bitwise its own run alone.
        let h = TopoHamiltonian::clean(4, 4, 3).assemble();
        assert!(h.site_blocks().is_some(), "the sweep walks sites");
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let n = h.nrows();
        let random = starting_vectors(n, &params(32, 4));
        let unit = |i: usize| {
            let mut e = vec![Complex64::default(); n];
            e[i] = Complex64::new(1.0, 0.0);
            Vector::from_vec(e)
        };
        let units = [unit(0), unit(4 * 7 + 2), unit(n - 1), unit(17)];
        let starts: Vec<Vector> = random
            .into_iter()
            .zip(units)
            .flat_map(<[_; 2]>::from)
            .collect();
        let bits = |set: &MomentSet| {
            set.as_slice()
                .iter()
                .map(|m| m.to_bits())
                .collect::<Vec<_>>()
        };
        let alone: Vec<Vec<u64>> = starts
            .iter()
            .map(|v| bits(&moments_from_start(&h, sf, v, 32).unwrap()))
            .collect();
        let lanes: Vec<usize> = (1..=8).map(batch_lanes).collect();
        assert_eq!(lanes, [1, 2, 4, 4, 8, 8, 8, 8]);
        for width in 1..=8 {
            let sets = kpm_batch_moments(&h, sf, &starts[..width], 32, None).unwrap();
            assert_eq!(sets.len(), width);
            for (j, set) in sets.iter().enumerate() {
                assert_eq!(bits(set), alone[j], "width {width} column {j}");
            }
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
        assert!(matches!(err, KpmError::InjectedCrash));

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

        // A record of another block width is refused, not restored.
        let wider = KpmParams { num_random: 3, ..p };
        let err = kpm_moments_checkpointed(&h, sf, &wider, &crash_mid).expect_err("width");
        assert!(matches!(err, KpmError::CheckpointCorrupt { .. }), "{err:?}");
    }
}
