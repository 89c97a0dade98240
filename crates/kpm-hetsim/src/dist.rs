//! The distributed blocked KPM solver (functional layer).
//!
//! Executes optimization stage 2 (paper Fig. 5) across ranks: every rank
//! owns a weighted row block, exchanges halo rows of the current
//! Chebyshev block before each sweep, runs the local augmented SpMMV,
//! and contributes partial scalar products. Two reduction policies
//! reproduce the paper's Table III comparison:
//!
//! * `reduce_every_iteration = false` — the optimized scheme: partial η
//!   sums accumulate locally and a *single* global reduction runs at the
//!   very end (paper Section II: "a careful implementation reduces the
//!   amount of global reductions ... to a single one").
//! * `reduce_every_iteration = true` — the `aug_spmmv()*` variant with
//!   one global reduction per iteration.
//!
//! On top of the plain driver, [`distributed_kpm_resilient`] adds the
//! fault-tolerant execution mode: receive deadlines instead of hangs,
//! periodic checkpoints of `(m, ν_m, ν_{m+1}, η prefix)` through a
//! [`CheckpointStore`], and automatic restart from the newest consistent
//! checkpoint when a rank dies — either on the same rank count or
//! redistributing the rows over the survivors
//! ([`RestartStrategy::DropCrashed`]). Checkpoints store the *globally
//! reduced* η prefix, so a resumed run reproduces the uninterrupted
//! moments bit for bit.

use std::sync::Arc;
use std::time::Duration;

use kpm_num::{BlockVector, Complex64, KpmError, Vector};
use kpm_obs::{metrics, span::span};
use kpm_sparse::{CrsMatrix, SparseKernels};
use kpm_topo::ScaleFactors;

use kpm_core::checkpoint::{latest_consistent, CheckpointStore, EtaCheckpoint, RankCheckpoint};
use kpm_core::moments::MomentSet;
use kpm_core::solver::{moments_from_flat_eta, starting_vectors, KpmParams};

use crate::decomp::{decompose, partition_rows, LocalProblem};
use crate::fault::FaultPlan;
use crate::runtime::{Communicator, RankTelemetry, World, WorldConfig};

/// Result of a distributed KPM run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// The stochastically averaged Chebyshev moments (identical on all
    /// ranks; validated against the single-process solver).
    pub moments: MomentSet,
    /// Total halo payload bytes sent across all ranks and iterations.
    pub halo_bytes: u64,
    /// Number of global reductions performed.
    pub global_reductions: usize,
    /// Per-rank link/fault telemetry from the world that produced the
    /// moments (the final world, for resilient runs), sorted by rank.
    pub telemetry: Vec<RankTelemetry>,
}

/// Runs the distributed blocked KPM over `weights.len()` ranks.
///
/// Starting vectors are generated exactly as in
/// [`kpm_core::solver::kpm_moments`], so for equal seeds the moments
/// must agree with the shared-memory stage-2 solver up to reduction
/// order.
pub fn distributed_kpm(
    h: &CrsMatrix,
    sf: ScaleFactors,
    params: &KpmParams,
    weights: &[f64],
    reduce_every_iteration: bool,
) -> Result<DistReport, KpmError> {
    distributed_kpm_faulty(h, sf, params, weights, reduce_every_iteration, None)
}

/// [`distributed_kpm`] with an optional fault plan attached — the entry
/// point the lossless-fault property tests drive (duplication and delay
/// must not change a single bit of the moments).
pub fn distributed_kpm_faulty(
    h: &CrsMatrix,
    sf: ScaleFactors,
    params: &KpmParams,
    weights: &[f64],
    reduce_every_iteration: bool,
    plan: Option<Arc<FaultPlan>>,
) -> Result<DistReport, KpmError> {
    validate_inputs(h, params, weights)?;
    let n = h.nrows();
    let r = params.num_random;
    let iters = params.iterations();
    let starts = starting_vectors(n, params);

    let ranges = partition_rows(n, weights, 4.min(n));
    let parts = decompose(h, &ranges);

    let mut cfg = WorldConfig::new(parts.len());
    if let Some(p) = plan {
        // Injected faults may stall a link; bound every receive. Two
        // seconds dwarfs any injected delay but keeps lossy-plan tests
        // from hanging for long.
        cfg = cfg.with_faults(p).with_recv_timeout(Duration::from_secs(2));
    }
    let _sp = span("dist.run", "dist").arg("ranks", parts.len());
    let mut outcome = World::run_config(cfg, |mut comm| {
        let local = &parts[comm.rank()];
        rank_main(&mut comm, local, sf, &starts, iters, reduce_every_iteration)
    });
    let telemetry = std::mem::take(&mut outcome.telemetry);
    let results = outcome.into_results()?;

    // All ranks return identical reduced data; take rank 0's.
    let (eta_flat, halo_bytes, global_reductions) = results
        .into_iter()
        .next()
        .ok_or(KpmError::RankCrashed { rank: 0 })?;
    Ok(DistReport {
        moments: moments_from_flat_eta(&eta_flat, params.num_moments, r, iters),
        halo_bytes,
        global_reductions,
        telemetry,
    })
}

fn validate_inputs(h: &CrsMatrix, params: &KpmParams, weights: &[f64]) -> Result<(), KpmError> {
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
    params.validate()?;
    // NaN weights must fail too, hence the negated comparison.
    if weights.is_empty() || !weights.iter().all(|w| *w > 0.0) {
        return Err(KpmError::InvalidParams {
            what: "weights",
            details: format!("weights must be a non-empty positive list (got {weights:?})"),
        });
    }
    Ok(())
}

/// Per-rank worker: returns the globally reduced flat η array, the
/// all-rank total of halo bytes, and the reduction count.
fn rank_main(
    comm: &mut Communicator,
    local: &LocalProblem,
    sf: ScaleFactors,
    starts: &[Vector],
    iters: usize,
    reduce_every_iteration: bool,
) -> Result<(Vec<Complex64>, u64, usize), KpmError> {
    let r = starts.len();
    let mut reductions = 0usize;
    let mut halo_sent = 0u64;

    let slot_offsets = halo_slot_offsets(local);
    let (mut v, mut w, mut eta_flat) = init_rank_state(
        comm,
        local,
        sf,
        starts,
        &slot_offsets,
        &mut halo_sent,
        iters,
    )?;

    // --- Chebyshev loop. ---
    for m in 0..iters {
        v.swap(&mut w);
        exchange_halo(
            comm,
            local,
            &mut v,
            &slot_offsets,
            &mut halo_sent,
            m as u64 + 1,
        )?;
        let dots = local.matrix.aug_spmmv_rect(sf.a, sf.b, &v, &mut w);
        if reduce_every_iteration {
            let mut pair: Vec<Complex64> = Vec::with_capacity(2 * r);
            pair.extend(dots.eta_even.iter().map(|&x| Complex64::real(x)));
            pair.extend_from_slice(&dots.eta_odd);
            let reduced = comm.allreduce_sum(&pair)?;
            reductions += 1;
            check_reduced_partials(m, &reduced, &eta_flat, r)?;
            eta_flat.extend_from_slice(&reduced);
        } else {
            eta_flat.extend(dots.eta_even.iter().map(|&x| Complex64::real(x)));
            eta_flat.extend_from_slice(&dots.eta_odd);
        }
    }

    // --- Final reduction(s). ---
    let reduced = if reduce_every_iteration {
        // Only the init moments still need summing; the per-iteration
        // entries are already global.
        let head = comm.allreduce_sum(&eta_flat[..2 * r])?;
        reductions += 1;
        let mut all = head;
        all.extend_from_slice(&eta_flat[2 * r..]);
        all
    } else {
        reductions += 1;
        comm.allreduce_sum(&eta_flat)?
    };
    let halo_total = comm.allreduce_scalar(Complex64::real(halo_sent as f64))?.re as u64;
    Ok((reduced, halo_total, reductions))
}

/// Halo slot offsets per recv-plan group (groups appear in ascending
/// owner order, matching the sorted halo layout).
fn halo_slot_offsets(local: &LocalProblem) -> Vec<usize> {
    let mut slot_offsets = Vec::with_capacity(local.recv_plan.len());
    let mut off = local.n_local();
    for (_, rows) in &local.recv_plan {
        slot_offsets.push(off);
        off += rows.len();
    }
    debug_assert_eq!(off, local.matrix.ncols());
    slot_offsets
}

/// Fresh-start initialization shared by the plain and resilient rank
/// workers: loads the start columns, exchanges the initial halo (tag 0),
/// computes the local `µ0`/`µ1` partials, and returns
/// `(ν0-block, ν1-block, η-flat prefix)` on the extended index space.
fn init_rank_state(
    comm: &mut Communicator,
    local: &LocalProblem,
    sf: ScaleFactors,
    starts: &[Vector],
    slot_offsets: &[usize],
    halo_sent: &mut u64,
    iters: usize,
) -> Result<(BlockVector, BlockVector, Vec<Complex64>), KpmError> {
    let r = starts.len();
    let n_local = local.n_local();
    let n_ext = local.matrix.ncols();

    // V holds the current Chebyshev block on the extended index space;
    // W the previous/next one.
    let mut v = BlockVector::zeros(n_ext, r);
    let mut w = BlockVector::zeros(n_ext, r);
    for (j, s) in starts.iter().enumerate() {
        for i in 0..n_local {
            v.set(i, j, s[local.row_begin + i]);
        }
    }

    // --- Initialization: mu0, nu1 = H~ nu0, mu1 (local partials). ---
    exchange_halo(comm, local, &mut v, slot_offsets, halo_sent, 0)?;
    let mut mu0 = vec![Complex64::default(); r];
    for i in 0..n_local {
        for (j, mu) in mu0.iter_mut().enumerate() {
            *mu += Complex64::real(v.get(i, j).norm_sqr());
        }
    }
    local.matrix.spmmv_rect(&v, &mut w);
    let mut mu1 = vec![Complex64::default(); r];
    for i in 0..n_local {
        // w <- a (w - b v) on local rows; mu1 += conj(w) v.
        #[allow(clippy::needless_range_loop)] // j indexes three aligned arrays
        for j in 0..r {
            let wi = (w.get(i, j) - v.get(i, j).scale(sf.b)).scale(sf.a);
            w.set(i, j, wi);
            mu1[j] = wi.conj().mul_add(v.get(i, j), mu1[j]);
        }
    }

    // Local eta storage: flat layout [mu0 | mu1 | iter0(even|odd) | ...].
    let mut eta_flat: Vec<Complex64> = Vec::with_capacity(2 * r + iters * 2 * r);
    eta_flat.extend_from_slice(&mu0);
    eta_flat.extend_from_slice(&mu1);
    Ok((v, w, eta_flat))
}

/// Guardrail on globally reduced per-iteration partials (only global
/// values are meaningful to test — a local partial is just one rank's
/// share). `prefix` carries the reduced `µ0` in its first `r` slots when
/// reductions run per iteration.
fn check_reduced_partials(
    iteration: usize,
    reduced: &[Complex64],
    prefix: &[Complex64],
    r: usize,
) -> Result<(), KpmError> {
    for j in 0..r {
        let even = reduced[j].re;
        let odd = reduced[r + j];
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
        let bound = 1e3 * prefix[j].re.max(1.0);
        if even > bound {
            return Err(KpmError::SpectralBoundsViolated {
                iteration,
                value: even,
                bound,
            });
        }
    }
    Ok(())
}

/// One halo exchange of the current block `v` under `tag`.
fn exchange_halo(
    comm: &mut Communicator,
    local: &LocalProblem,
    v: &mut BlockVector,
    slot_offsets: &[usize],
    halo_sent: &mut u64,
    tag: u64,
) -> Result<(), KpmError> {
    let r = v.width();
    for (dst, rows) in &local.send_plan {
        let mut buf = Vec::with_capacity(rows.len() * r);
        for &lr in rows {
            buf.extend((0..r).map(|j| v.get(lr as usize, j)));
        }
        *halo_sent += (buf.len() * 16) as u64;
        comm.send(*dst, tag, buf)?;
    }
    for (g, (src, rows)) in local.recv_plan.iter().enumerate() {
        let buf = comm.recv(*src, tag)?;
        if buf.len() != rows.len() * r {
            return Err(KpmError::InvalidParams {
                what: "halo payload",
                details: format!(
                    "rank {} got {} halo values from {src}, expected {}",
                    comm.rank(),
                    buf.len(),
                    rows.len() * r
                ),
            });
        }
        let base = slot_offsets[g];
        for (i, chunk) in buf.chunks(r).enumerate() {
            for (j, &z) in chunk.iter().enumerate() {
                v.set(base + i, j, z);
            }
        }
    }
    Ok(())
}

// --- Resilient driver ------------------------------------------------

/// How to rebuild the world after a rank dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartStrategy {
    /// Re-run on the same rank count (the crashed "node" comes back).
    SameRanks,
    /// Drop crashed ranks and redistribute their rows over the
    /// survivors, reusing the weighted splitter.
    DropCrashed,
}

/// Policy knobs of [`distributed_kpm_resilient`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Sweeps between checkpoints (≥ 1).
    pub checkpoint_interval: usize,
    /// Receive deadline; a silent peer is declared lost after this.
    pub recv_timeout: Duration,
    /// How many restarts to attempt before giving up.
    pub max_restarts: usize,
    /// What to do with the ranks of a crashed attempt.
    pub restart: RestartStrategy,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint_interval: 4,
            recv_timeout: Duration::from_secs(2),
            max_restarts: 2,
            restart: RestartStrategy::SameRanks,
        }
    }
}

/// Outcome of a resilient run.
#[derive(Debug, Clone)]
pub struct ResilientReport {
    /// The final moments and traffic accounting (halo bytes count only
    /// work actually performed, including lost pre-crash progress).
    pub report: DistReport,
    /// Restarts that were needed (0 = clean run).
    pub restarts: usize,
    /// The checkpoint iteration each restart resumed from.
    pub resumed_from: Vec<usize>,
    /// Ranks in the final (successful) world.
    pub final_ranks: usize,
}

/// Restored per-rank state handed into a resumed world.
struct ResumeState {
    start_iter: usize,
    /// Per new rank: local rows of ν_m / ν_{m+1}, row-major interleaved.
    v_slices: Vec<Vec<Complex64>>,
    w_slices: Vec<Vec<Complex64>>,
    /// Globally reduced η prefix (rank 0 seeds this; others run zeros so
    /// the final reduction counts it exactly once).
    eta_prefix: Vec<Complex64>,
    /// Halo bytes already spent before the restart.
    halo_restored: u64,
}

/// The distributed stage-2 solver with checkpoint/restart and receive
/// deadlines. Uses the single-final-reduction scheme (plus one reduction
/// per checkpoint). On success the moments are bitwise identical to the
/// fault-free [`distributed_kpm`] run with the same parameters.
pub fn distributed_kpm_resilient(
    h: &CrsMatrix,
    sf: ScaleFactors,
    params: &KpmParams,
    weights: &[f64],
    plan: Option<Arc<FaultPlan>>,
    cfg: &ResilienceConfig,
    store: &dyn CheckpointStore,
) -> Result<ResilientReport, KpmError> {
    validate_inputs(h, params, weights)?;
    if cfg.checkpoint_interval == 0 {
        return Err(KpmError::InvalidParams {
            what: "checkpoint_interval",
            details: "checkpoint interval must be >= 1 sweeps".to_string(),
        });
    }
    let n = h.nrows();
    let r = params.num_random;
    let iters = params.iterations();
    let starts = starting_vectors(n, params);

    let mut weights_now: Vec<f64> = weights.to_vec();
    let mut restarts = 0usize;
    let mut resumed_from: Vec<usize> = Vec::new();

    loop {
        // Restart attempts get their own span so a recovered run shows
        // exactly one `dist.restart` per world rebuild in the trace.
        let _attempt_sp = if restarts > 0 {
            Some(span("dist.restart", "dist").arg("attempt", restarts))
        } else {
            None
        };
        let ranges = partition_rows(n, &weights_now, 4.min(n));
        let parts = decompose(h, &ranges);
        let size = parts.len();

        // Restore from the newest consistent checkpoint, reslicing the
        // global recurrence state onto the current decomposition.
        let resume = match latest_consistent(store, n)? {
            Some(it) => Some(load_resume_state(store, it, n, r, &ranges)?),
            None => None,
        };
        if let Some(s) = &resume {
            if restarts > 0 {
                resumed_from.push(s.start_iter);
            }
        } else if restarts > 0 {
            resumed_from.push(0);
        }

        let mut wcfg = WorldConfig::new(size).with_recv_timeout(cfg.recv_timeout);
        if let Some(p) = &plan {
            wcfg = wcfg.with_faults(Arc::clone(p));
        }
        let resume_ref = resume.as_ref();
        let mut outcome = World::run_config(wcfg, |mut comm| {
            let rank = comm.rank();
            rank_resilient(
                &mut comm,
                &parts[rank],
                sf,
                &starts,
                iters,
                resume_ref,
                store,
                cfg.checkpoint_interval,
            )
        });

        if outcome.all_ok() {
            let telemetry = std::mem::take(&mut outcome.telemetry);
            let results = outcome.into_results()?;
            let (eta_flat, halo_bytes, global_reductions) = results
                .into_iter()
                .next()
                .ok_or(KpmError::RankCrashed { rank: 0 })?;
            return Ok(ResilientReport {
                report: DistReport {
                    moments: moments_from_flat_eta(&eta_flat, params.num_moments, r, iters),
                    halo_bytes,
                    global_reductions,
                    telemetry,
                },
                restarts,
                resumed_from,
                final_ranks: size,
            });
        }

        // Something died. Budget check, then rebuild the world.
        restarts += 1;
        metrics::counter_inc("dist.restarts");
        if restarts > cfg.max_restarts {
            let last = outcome
                .results
                .iter()
                .find_map(|res| res.as_ref().err())
                .map(|e| e.to_string())
                .unwrap_or_else(|| "unknown".to_string());
            return Err(KpmError::RestartsExhausted {
                attempts: restarts,
                last_error: last,
            });
        }
        if cfg.restart == RestartStrategy::DropCrashed {
            let crashed: Vec<usize> = outcome
                .results
                .iter()
                .enumerate()
                .filter(|(rank, res)| {
                    matches!(res, Err(KpmError::RankCrashed { rank: r2 }) if r2 == rank)
                })
                .map(|(rank, _)| rank)
                .collect();
            if crashed.len() == weights_now.len() {
                return Err(KpmError::RestartsExhausted {
                    attempts: restarts,
                    last_error: "every rank crashed; no survivors to restart on".to_string(),
                });
            }
            if !crashed.is_empty() {
                weights_now = weights_now
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !crashed.contains(i))
                    .map(|(_, w)| *w)
                    .collect();
            }
        }
    }
}

/// Reassembles the global recurrence state at checkpoint `it` from the
/// per-rank records of the *old* decomposition, then slices it for the
/// `ranges` of the new one.
fn load_resume_state(
    store: &dyn CheckpointStore,
    it: usize,
    n: usize,
    r: usize,
    ranges: &[(usize, usize)],
) -> Result<ResumeState, KpmError> {
    let eta = store
        .load_eta(it)?
        .ok_or_else(|| KpmError::CheckpointMissing {
            details: format!("eta record at iteration {it}"),
        })?;
    if eta.width != r || eta.eta.len() != EtaCheckpoint::expected_len(it, r) {
        return Err(KpmError::CheckpointCorrupt {
            details: "eta checkpoint geometry does not match this run".to_string(),
        });
    }

    let mut v_global = vec![Complex64::default(); n * r];
    let mut w_global = vec![Complex64::default(); n * r];
    let mut halo_restored = 0u64;
    for rank in store.ranks_at(it)? {
        let ck = store
            .load_rank(it, rank)?
            .ok_or_else(|| KpmError::CheckpointMissing {
                details: format!("rank {rank} record at iteration {it}"),
            })?;
        if ck.width != r || ck.row_end > n {
            return Err(KpmError::CheckpointCorrupt {
                details: "rank checkpoint geometry does not match this run".to_string(),
            });
        }
        let base = ck.row_begin * r;
        v_global[base..base + ck.v.len()].copy_from_slice(&ck.v);
        w_global[base..base + ck.w.len()].copy_from_slice(&ck.w);
        halo_restored += ck.halo_sent;
    }

    let slice = |global: &[Complex64], (b, e): (usize, usize)| global[b * r..e * r].to_vec();
    Ok(ResumeState {
        start_iter: it,
        v_slices: ranges.iter().map(|&rg| slice(&v_global, rg)).collect(),
        w_slices: ranges.iter().map(|&rg| slice(&w_global, rg)).collect(),
        eta_prefix: eta.eta,
        halo_restored,
    })
}

/// The resilient per-rank worker: consults the crash schedule at every
/// iteration boundary, checkpoints every `interval` sweeps, and seeds
/// its state from `resume` when restarting.
#[allow(clippy::too_many_arguments)]
fn rank_resilient(
    comm: &mut Communicator,
    local: &LocalProblem,
    sf: ScaleFactors,
    starts: &[Vector],
    iters: usize,
    resume: Option<&ResumeState>,
    store: &dyn CheckpointStore,
    interval: usize,
) -> Result<(Vec<Complex64>, u64, usize), KpmError> {
    let r = starts.len();
    let rank = comm.rank();
    let n_local = local.n_local();
    let n_ext = local.matrix.ncols();
    let mut reductions = 0usize;
    let mut halo_sent = 0u64;
    let slot_offsets = halo_slot_offsets(local);

    let (mut v, mut w, mut eta_flat, start_iter) = match resume {
        Some(state) => {
            // Restore local rows; halo slots refresh at the next
            // exchange. Rank 0 carries the reduced prefix (and the
            // pre-crash halo accounting); everyone else runs zeros so
            // the final reduction counts each exactly once.
            let mut v = BlockVector::zeros(n_ext, r);
            let mut w = BlockVector::zeros(n_ext, r);
            for i in 0..n_local {
                for j in 0..r {
                    v.set(i, j, state.v_slices[rank][i * r + j]);
                    w.set(i, j, state.w_slices[rank][i * r + j]);
                }
            }
            let eta_flat = if rank == 0 {
                halo_sent = state.halo_restored;
                state.eta_prefix.clone()
            } else {
                vec![Complex64::default(); state.eta_prefix.len()]
            };
            (v, w, eta_flat, state.start_iter)
        }
        None => {
            comm.crash_point(0)?;
            let (v, w, eta_flat) = init_rank_state(
                comm,
                local,
                sf,
                starts,
                &slot_offsets,
                &mut halo_sent,
                iters,
            )?;
            (v, w, eta_flat, 0)
        }
    };

    for m in start_iter..iters {
        comm.crash_point(m)?;
        v.swap(&mut w);
        exchange_halo(
            comm,
            local,
            &mut v,
            &slot_offsets,
            &mut halo_sent,
            m as u64 + 1,
        )?;
        let dots = local.matrix.aug_spmmv_rect(sf.a, sf.b, &v, &mut w);
        eta_flat.extend(dots.eta_even.iter().map(|&x| Complex64::real(x)));
        eta_flat.extend_from_slice(&dots.eta_odd);

        let done = m + 1;
        if done.is_multiple_of(interval) && done < iters {
            // Checkpoint: one extra global reduction gives every rank
            // the reduced prefix; rank 0 persists it, every rank
            // persists its local recurrence state.
            let reduced = comm.allreduce_sum(&eta_flat)?;
            reductions += 1;
            check_reduced_partials(m, &reduced[2 * r + m * 2 * r..], &reduced, r)?;
            store.save_rank(&RankCheckpoint {
                iteration: done,
                rank,
                row_begin: local.row_begin,
                row_end: local.row_end,
                width: r,
                halo_sent,
                v: local_rows(&v, n_local),
                w: local_rows(&w, n_local),
            })?;
            if rank == 0 {
                store.save_eta(&EtaCheckpoint {
                    iteration: done,
                    width: r,
                    eta: reduced,
                })?;
            }
        }
    }

    let reduced = comm.allreduce_sum(&eta_flat)?;
    reductions += 1;
    let halo_total = comm.allreduce_scalar(Complex64::real(halo_sent as f64))?.re as u64;
    Ok((reduced, halo_total, reductions))
}

/// The first `n_local` rows of `b` as the interleaved checkpoint
/// record (the halo rows behind them are not part of the state).
fn local_rows(b: &BlockVector, n_local: usize) -> Vec<Complex64> {
    let mut out = b.to_interleaved();
    out.truncate(n_local * b.width());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_core::checkpoint::MemoryCheckpointStore;
    use kpm_core::solver::{kpm_moments, KpmVariant};
    use kpm_topo::model::random_hermitian;
    use kpm_topo::TopoHamiltonian;

    fn params(m: usize, r: usize) -> KpmParams {
        KpmParams {
            num_moments: m,
            num_random: r,
            seed: 777,
            parallel: false,
            threads: 0,
            power: 1,
            first_touch: false,
        }
    }

    #[test]
    fn two_ranks_match_shared_memory_solver() {
        let h = TopoHamiltonian::clean(4, 4, 3).assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(32, 4);
        let reference = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let dist = distributed_kpm(&h, sf, &p, &[1.0, 1.0], false).unwrap();
        assert!(
            reference.max_abs_diff(&dist.moments) < 1e-9,
            "diff = {}",
            reference.max_abs_diff(&dist.moments)
        );
        assert_eq!(dist.global_reductions, 1);
        assert!(dist.halo_bytes > 0);
    }

    #[test]
    fn weighted_heterogeneous_split_matches_too() {
        // CPU:GPU-like weights (1 : 2.3) over 3 ranks.
        let h = TopoHamiltonian::clean(4, 4, 2).assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(16, 2);
        let reference = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let dist = distributed_kpm(&h, sf, &p, &[1.0, 2.3, 0.7], false).unwrap();
        assert!(reference.max_abs_diff(&dist.moments) < 1e-9);
    }

    #[test]
    fn per_iteration_reduction_gives_identical_moments() {
        let h = random_hermitian(160, 3, 5);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(16, 3);
        let end = distributed_kpm(&h, sf, &p, &[1.0, 1.0], false).unwrap();
        let every = distributed_kpm(&h, sf, &p, &[1.0, 1.0], true).unwrap();
        assert!(end.moments.max_abs_diff(&every.moments) < 1e-10);
        // M/2 - 1 iterations + 1 init reduction.
        assert_eq!(every.global_reductions, p.iterations() + 1);
        assert_eq!(end.global_reductions, 1);
    }

    #[test]
    fn four_ranks_on_random_matrix() {
        let h = random_hermitian(240, 4, 9);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(24, 2);
        let reference = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let dist = distributed_kpm(&h, sf, &p, &[1.0; 4], false).unwrap();
        assert!(reference.max_abs_diff(&dist.moments) < 1e-9);
    }

    #[test]
    fn single_rank_needs_no_halo() {
        let h = random_hermitian(100, 3, 11);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(16, 2);
        let dist = distributed_kpm(&h, sf, &p, &[1.0], false).unwrap();
        assert_eq!(dist.halo_bytes, 0);
        let reference = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        assert!(reference.max_abs_diff(&dist.moments) < 1e-9);
    }

    #[test]
    fn halo_traffic_grows_with_rank_count() {
        let h = TopoHamiltonian::clean(4, 4, 6).assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(16, 2);
        let two = distributed_kpm(&h, sf, &p, &[1.0; 2], false).unwrap();
        let four = distributed_kpm(&h, sf, &p, &[1.0; 4], false).unwrap();
        assert!(four.halo_bytes > two.halo_bytes);
    }

    #[test]
    fn resilient_clean_run_matches_plain_distributed() {
        let h = random_hermitian(200, 4, 13);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(24, 3);
        let plain = distributed_kpm(&h, sf, &p, &[1.0, 1.0], false).unwrap();
        let store = MemoryCheckpointStore::new();
        let res = distributed_kpm_resilient(
            &h,
            sf,
            &p,
            &[1.0, 1.0],
            None,
            &ResilienceConfig::default(),
            &store,
        )
        .unwrap();
        assert_eq!(res.restarts, 0);
        assert_eq!(
            plain.moments.as_slice(),
            res.report.moments.as_slice(),
            "checkpoint reductions changed the moments"
        );
    }

    #[test]
    fn crash_mid_run_recovers_from_checkpoint_same_ranks() {
        let h = random_hermitian(160, 4, 21);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(40, 2); // 19 sweeps
        let reference = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let crash_at = p.iterations() / 2;
        let plan = Arc::new(FaultPlan::new(3).with_rank_crash(1, crash_at));
        let store = MemoryCheckpointStore::new();
        let cfg = ResilienceConfig {
            checkpoint_interval: 3,
            recv_timeout: Duration::from_millis(500),
            max_restarts: 2,
            restart: RestartStrategy::SameRanks,
        };
        let res = distributed_kpm_resilient(&h, sf, &p, &[1.0, 1.0, 1.0], Some(plan), &cfg, &store)
            .unwrap();
        assert_eq!(res.restarts, 1);
        assert_eq!(res.final_ranks, 3);
        assert_eq!(res.resumed_from.len(), 1);
        assert!(res.resumed_from[0] <= crash_at, "resumed past the crash");
        let diff = reference.max_abs_diff(&res.report.moments);
        assert!(diff < 1e-10, "recovered moments diverged: {diff}");
    }

    #[test]
    fn crash_recovers_by_redistributing_over_survivors() {
        let h = random_hermitian(240, 4, 31);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(32, 2); // 15 sweeps
        let reference = kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
        let plan = Arc::new(FaultPlan::new(9).with_rank_crash(2, 8));
        let store = MemoryCheckpointStore::new();
        let cfg = ResilienceConfig {
            checkpoint_interval: 4,
            recv_timeout: Duration::from_millis(500),
            max_restarts: 2,
            restart: RestartStrategy::DropCrashed,
        };
        let res = distributed_kpm_resilient(&h, sf, &p, &[1.0, 1.0, 1.0], Some(plan), &cfg, &store)
            .unwrap();
        assert_eq!(res.restarts, 1);
        assert_eq!(res.final_ranks, 2, "crashed rank was not dropped");
        let diff = reference.max_abs_diff(&res.report.moments);
        assert!(diff < 1e-10, "redistributed moments diverged: {diff}");
    }

    #[test]
    fn unrecoverable_crash_exhausts_restart_budget() {
        let h = random_hermitian(80, 3, 41);
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let p = params(16, 1);
        // Crash rank 0 on every attempt: three separate one-shot specs.
        let plan = Arc::new(
            FaultPlan::new(1)
                .with_rank_crash(0, 2)
                .with_rank_crash(0, 0)
                .with_rank_crash(0, 0),
        );
        let store = MemoryCheckpointStore::new();
        let cfg = ResilienceConfig {
            checkpoint_interval: 2,
            recv_timeout: Duration::from_millis(200),
            max_restarts: 2,
            restart: RestartStrategy::SameRanks,
        };
        let err = distributed_kpm_resilient(&h, sf, &p, &[1.0, 1.0], Some(plan), &cfg, &store)
            .expect_err("three crashes must exhaust two restarts");
        assert!(
            matches!(err, KpmError::RestartsExhausted { attempts: 3, .. }),
            "{err:?}"
        );
    }
}
