//! Emits `BENCH_power.json`: the memory-wall ablation of the blocked
//! augmented kernels — storage format × matrix-power depth × block
//! width. Each candidate runs `p` Chebyshev iterations per kernel call
//! (`aug_spmmv_power`), so CRS and the matrix-free stencil take the
//! level-blocked wavefront where the sliding window fits the power
//! budget, while SELL (no row view) always falls back to `p` plain
//! sweeps — the flat SELL rows are the control group.
//!
//! Every point also carries the roofline model's predicted
//! seconds-per-iteration for that (format, p) — the same score
//! [`kpm_sparse::autotune_formats`] minimizes — so the artifact shows
//! the achieved-vs-modeled gap directly: on a bandwidth-starved host
//! the `1/p` matrix-traffic divisor is worth its modeled factor, on a
//! compute-bound host the measured rates collapse onto the flop roof
//! and `model_gap` says by how much the model over-promises.
//!
//! All candidates are timed **round-robin** (one call each per rep
//! after a warm-up round; median of reps) so throughput drift hits
//! every candidate alike. The default lattice is elongated along z —
//! deep level sets keep the p = 4 window inside the power budget.
//!
//! ```text
//! bench_power_json [--nx N] [--ny N] [--nz N] [--reps K]
//!                  [--threads T] [--power-budget-mb M] [--out FILE]
//! ```
//!
//! Like the other baseline-gating artifacts, the committed
//! `BENCH_power.json` may not be stamped from a single-core host: the
//! parallel power kernels' level-blocked scheduling (and its
//! interaction with the cache budget) is exactly what the artifact
//! claims to measure, and a one-core run degenerates every candidate
//! to the serial wavefront. Scratch `--out` paths stay allowed, as
//! does `KPM_BENCH_ALLOW_SINGLE_CORE=1`.

use std::fmt::Write as _;
use std::time::Instant;

use kpm_bench::{arg_usize, guard_baseline_stamp, median};
use kpm_num::accounting::aug_spmmv_flops;
use kpm_num::BlockVector;
use kpm_obs::json::num;
use kpm_sparse::autotune::model_seconds_fmt;
use kpm_sparse::power::power_feasible;
use kpm_sparse::{autotune, autotune_formats, AutotuneEnv, FormatSpec, KpmMatrix, SparseKernels};
use kpm_topo::TopoHamiltonian;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One (format, power) pair under test.
struct Candidate {
    format: &'static str,
    p: usize,
    baseline: bool,
    m: KpmMatrix,
}

/// Median seconds per *iteration* of the parallel power kernel at
/// width `r` for every candidate, round-robin. Each candidate owns its
/// (v, w) pair — the power kernel advances the iterate in place.
fn measure_all(
    cands: &mut [Candidate],
    a: f64,
    b: f64,
    r: usize,
    threads: usize,
    reps: usize,
) -> Vec<f64> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let n = cands[0].m.nrows();
    let mut states: Vec<(BlockVector, BlockVector)> = cands
        .iter()
        .map(|_| {
            let mut rng = StdRng::seed_from_u64(44);
            (
                BlockVector::random(n, r, &mut rng),
                BlockVector::random(n, r, &mut rng),
            )
        })
        .collect();
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); cands.len()];
    for rep in 0..=reps {
        for (i, cand) in cands.iter().enumerate() {
            let (v, w) = &mut states[i];
            let p = cand.p;
            let secs = pool.install(|| {
                let t0 = Instant::now();
                cand.m.aug_spmmv_power_par(p, a, b, v, w);
                t0.elapsed().as_secs_f64()
            });
            if rep > 0 {
                times[i].push(secs / p as f64); // rep 0 is the warm-up round
            }
        }
    }
    times.iter_mut().map(|t| median(t)).collect()
}

fn main() {
    let nx = arg_usize("--nx", 32);
    let ny = arg_usize("--ny", 32);
    let nz = arg_usize("--nz", 160);
    let reps = arg_usize("--reps", 5).max(1);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = arg_usize("--threads", host_cores).max(1);
    let budget = arg_usize("--power-budget-mb", 8).max(1) * 1024 * 1024;
    let out = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_power.json".to_string());
    guard_baseline_stamp(&out, "BENCH_power.json", host_cores);

    let ham = TopoHamiltonian::clean(nx, ny, nz);
    let h = ham.assemble();
    let sf = kpm_topo::ScaleFactors::from_gershgorin(&h, 0.01);
    let st = ham.stencil_matrix();
    eprintln!(
        "matrix: N = {}, Nnz = {} ({:.0} MB stored), T = {threads}, host cores = {host_cores}, reps = {reps}",
        h.nrows(),
        h.nnz(),
        h.nnz() as f64 * 20.0 / 1e6
    );

    // The p = 1 baseline is the pre-existing tuner's CRS/SELL pick —
    // the bar every stencil / power candidate has to clear.
    let env = AutotuneEnv::generic(threads).with_probe_reps(3);
    let baseline = autotune(&h, &env);
    let (bc, bsigma) = match baseline.format {
        FormatSpec::Sell {
            chunk_height,
            sigma,
        } => (chunk_height, sigma),
        _ => (1, 1),
    };
    eprintln!(
        "baseline autotune (p = 1): {} (probed = {})",
        baseline.format, baseline.probed
    );

    let powers = [1usize, 2, 4];
    let mut cands: Vec<Candidate> = Vec::new();
    for &p in &powers {
        cands.push(Candidate {
            format: "crs",
            p,
            baseline: baseline.format == FormatSpec::Crs && p == 1,
            m: KpmMatrix::crs(h.clone()).with_power_budget_bytes(budget),
        });
        let spec = if bc > 1 {
            FormatSpec::Sell {
                chunk_height: bc,
                sigma: bsigma,
            }
        } else {
            FormatSpec::Sell {
                chunk_height: 8,
                sigma: 32,
            }
        };
        cands.push(Candidate {
            format: "sell",
            p,
            baseline: matches!(baseline.format, FormatSpec::Sell { .. }) && p == 1,
            m: KpmMatrix::try_with_format(h.clone(), &spec).expect("valid SELL spec"),
        });
        cands.push(Candidate {
            format: "stencil",
            p,
            baseline: false,
            m: KpmMatrix::stencil(st.clone()).with_power_budget_bytes(budget),
        });
    }

    // Per-depth predicted winner over the full three-format field, with
    // the empirical probe on — `winners` records whether the model's
    // pick matches the measured one at each (p, r).
    let predicted: Vec<(usize, &'static str)> = powers
        .iter()
        .map(|&p| {
            let c = autotune_formats(&h, &env, Some(&st), p);
            (p, c.format.name())
        })
        .collect();

    let mut lines: Vec<String> = Vec::new();
    let mut winner_lines: Vec<String> = Vec::new();
    for r in [1usize, 8] {
        let secs = measure_all(&mut cands, sf.a, sf.b, r, threads, reps);
        let flops = aug_spmmv_flops(h.nrows(), h.nnz(), r) as f64;
        for (cand, s) in cands.iter().zip(&secs) {
            let engaged = cand
                .m
                .level_set()
                .is_some_and(|l| power_feasible(l, cand.p, r, budget));
            let stored = cand.m.stored_elements();
            // SELL has no level-blocked kernels: it streams the matrix
            // every iteration regardless of the requested depth.
            let model_p = if cand.format == "sell" { 1 } else { cand.p };
            let modeled = model_seconds_fmt(h.nrows(), h.nnz(), stored, &env, bc.max(1), model_p);
            let gflops = flops / s / 1e9;
            eprintln!(
                "{:<8} p={} R={r}  {:>7.2} GF/s  model_gap={:>5.2}x  wavefront={}",
                cand.format,
                cand.p,
                gflops,
                s / modeled,
                engaged
            );
            lines.push(format!(
                "    {{\"format\": \"{}\", \"p\": {}, \"r\": {}, \"beta\": {}, \"seconds_per_iter\": {}, \"gflops\": {}, \"modeled_seconds_per_iter\": {}, \"model_gap\": {}, \"wavefront\": {}, \"baseline\": {}}}",
                cand.format,
                cand.p,
                r,
                num(cand.m.beta()),
                num(*s),
                num(gflops),
                num(modeled),
                num(s / modeled),
                engaged,
                cand.baseline
            ));
        }
        for &(p, pred) in &predicted {
            let measured = cands
                .iter()
                .zip(&secs)
                .filter(|(c, _)| c.p == p)
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, _)| c.format)
                .unwrap_or("crs");
            winner_lines.push(format!(
                "    {{\"p\": {p}, \"r\": {r}, \"predicted\": \"{pred}\", \"measured\": \"{measured}\", \"matched\": {}}}",
                pred == measured
            ));
        }
    }

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"schema\": \"kpm-bench-power-v3\",");
    let _ = writeln!(
        body,
        "  \"matrix\": {{\"nx\": {nx}, \"ny\": {ny}, \"nz\": {nz}, \"rows\": {}, \"nnz\": {}}},",
        h.nrows(),
        h.nnz()
    );
    let _ = writeln!(body, "  \"threads\": {threads},");
    let _ = writeln!(body, "  \"host_cores\": {host_cores},");
    let _ = writeln!(body, "  \"reps\": {reps},");
    let _ = writeln!(
        body,
        "  \"simd_compiled\": {},",
        kpm_sparse::simd::compiled()
    );
    let _ = writeln!(body, "  \"simd_lanes\": {},", kpm_sparse::simd::lanes());
    let _ = writeln!(body, "  \"first_touch\": false,");
    let _ = writeln!(body, "  \"power_budget_bytes\": {budget},");
    let _ = writeln!(
        body,
        "  \"baseline\": {{\"format\": \"{}\", \"c\": {bc}, \"sigma\": {bsigma}, \"probed\": {}}},",
        baseline.format.name(),
        baseline.probed
    );
    let _ = writeln!(body, "  \"points\": [");
    for (i, line) in lines.iter().enumerate() {
        let comma = if i + 1 < lines.len() { "," } else { "" };
        let _ = writeln!(body, "{line}{comma}");
    }
    let _ = writeln!(body, "  ],");
    let _ = writeln!(body, "  \"winners\": [");
    for (i, line) in winner_lines.iter().enumerate() {
        let comma = if i + 1 < winner_lines.len() { "," } else { "" };
        let _ = writeln!(body, "{line}{comma}");
    }
    let _ = writeln!(body, "  ]");
    let _ = writeln!(body, "}}");

    kpm_obs::json::parse(&body).expect("generated JSON must parse");
    std::fs::write(&out, &body).expect("write output file");
    eprintln!("wrote {out}");
}
