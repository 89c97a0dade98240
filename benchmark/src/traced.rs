//! The traced run: per-layer numbers from spans the benchmark records
//! around calls into each layer's public functions. Every workload
//! goes through the same four phases on its own matrix, so that every
//! layer metric is measured on every workload:
//!
//! * `host` — triad bandwidth and in-core multiply-add rate at the
//!   workload's thread count;
//! * `iteration` (repeated) — the real `kpm dos` process, then its
//!   in-process replica layer by layer, the same solve at the other
//!   thread count, and the three solver stages at M = 32;
//! * `service` — a closed loop against a `Service` holding the same
//!   matrix, once with `kpm_obs` off and once with it on.
//!
//! Times are minima over the iterations, the estimator of the
//! end-to-end wall time they are compared with.

use std::path::Path;
use std::time::{Duration, Instant};

use kpm_core::KpmVariant;

use crate::csv;
use crate::host;
use crate::model;
use crate::pipeline::{self, Built};
use crate::process::run_child;
use crate::report::Report;
use crate::stats;
use crate::svc;
use crate::trace::{SpanId, Tracer};
use crate::untraced::check_dos_output;
use crate::workloads::{Driver, Workload};

/// Moments of the per-kernel solves.
const KERNEL_MOMENTS: usize = 32;
/// Largest share of the real binary's wall time the in-process replica
/// may leave unexplained before profile or pipeline drift is suspected.
const MAX_RESIDUAL_FRAC: f64 = 0.15;
/// Largest gap between the service's four stage means and the mean
/// latency its clients saw.
const MAX_UNTILED_FRAC: f64 = 0.05;

/// Share of `--seconds` the service phase gets.
fn service_share(w: &Workload) -> f64 {
    match w.driver {
        Driver::Process => 0.2,
        Driver::Service => 0.8,
    }
}

/// Per-iteration samples, one vector per quantity.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    assemble: Vec<f64>,
    scale: Vec<f64>,
    format: Vec<f64>,
    startvec: Vec<f64>,
    solve: Vec<f64>,
    reconstruct: Vec<f64>,
    solve_1t: Vec<f64>,
    solve_2t: Vec<f64>,
    naive: Vec<f64>,
    aug_spmv: Vec<f64>,
    aug_spmmv: Vec<f64>,
    csv_bytes: usize,
    dims: Option<(f64, f64)>,
}

pub fn run(w: &'static Workload, seed: u64, seconds: f64, kpm: &Path, out_dir: &Path) -> Report {
    let mut report = Report::new(w.name, seed, true);
    let mut tracer = Tracer::new("run");
    kpm_obs::set_enabled(false);

    let threads = w.effective_threads();
    let host_span = tracer.open("host", Some(Tracer::ROOT));
    let (stream_gbs, _) = tracer.timed("host.stream", host_span, || host::stream_gbs(threads, 5));
    let (cmuladd_gflops, _) = tracer.timed("host.cmuladd", host_span, || {
        host::cmuladd_gflops(threads, 3)
    });
    tracer.close(host_span);
    let nproc = host::nproc();
    let host_note = format!("best of reps on {threads} thread(s), as the workload runs");
    report.set(
        "host.stream_gbs",
        stream_gbs,
        5,
        format!(
            "complex triad over 3 x {} MiB; {host_note}",
            host::TRIAD_ARRAY_BYTES >> 20
        ),
    );
    report.set(
        "host.cmuladd_gflops",
        cmuladd_gflops,
        3,
        format!("register-resident; {host_note}"),
    );
    report.set("host.nproc", nproc as f64, 1, "available_parallelism");

    let iterate_s = seconds * (1.0 - service_share(w));
    let mut samples = Samples::default();
    let t0 = Instant::now();
    let mut iteration_s = Vec::new();
    let built = loop {
        let it0 = Instant::now();
        let built = iteration(w, seed, kpm, &mut tracer, &mut samples, &mut report);
        iteration_s.push(it0.elapsed().as_secs_f64());
        if t0.elapsed().as_secs_f64() + stats::median(&iteration_s) > iterate_s {
            break built;
        }
    };
    layer_metrics(w, &samples, stream_gbs, cmuladd_gflops, nproc, &mut report);
    service_phase(
        w,
        seed,
        seconds * service_share(w),
        built,
        &mut tracer,
        &mut report,
    );

    if tracer.orphans() > 0 {
        report.problem(format!("{} spans have no parent", tracer.orphans()));
    }
    tracer.close(Tracer::ROOT);
    let path = out_dir.join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(w.name, seed)));
    match written {
        Ok(()) => eprintln!(
            "{}: {} spans written to {}",
            w.name,
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => report.warn(format!("cannot write {}: {e}", path.display())),
    }
    report
}

/// One pass over the process, its replica, the pool and the kernels.
/// Returns the replica's matrix for the service phase.
fn iteration(
    w: &Workload,
    seed: u64,
    kpm: &Path,
    tracer: &mut Tracer,
    samples: &mut Samples,
    report: &mut Report,
) -> Built {
    let it = tracer.open("iteration", Some(Tracer::ROOT));

    let args = w.dos_args(w.moments, seed, w.stencil);
    let (ran, _) = tracer.timed("cli.process", it, || run_child(kpm, &args, &[]));
    let reference = match ran.and_then(|run| check_dos_output(&run, None).map(|dims| (run, dims))) {
        Ok((run, dims)) => {
            samples.wall.push(run.wall_s);
            samples.csv_bytes = run.stdout.len();
            samples.dims = Some(dims);
            report.attempt(Ok(()));
            Some(run.stdout)
        }
        Err(e) => {
            report.attempt(Err(e));
            None
        }
    };

    let replica = tracer.open("replica", Some(it));
    let built = pipeline::build(w, tracer, replica);
    samples.assemble.push(built.assemble_s);
    samples.scale.push(built.scale_s);
    samples.format.push(built.format_s);
    let params = pipeline::params(w, w.moments, w.threads, seed);
    let solved = pipeline::solve(
        &built,
        &params,
        KpmVariant::AugSpmmv,
        "core.solve",
        tracer,
        replica,
    );
    let outcome = solved.and_then(|(moments, solve_s)| {
        samples.solve.push(solve_s);
        let (curve, reconstruct_s) =
            pipeline::reconstruct_curve(&moments, built.sf, tracer, replica);
        samples.reconstruct.push(reconstruct_s);
        csv::check_curve(&curve.energies, &curve.values, pipeline::POINTS, 1e-3)?;
        // The replica must be the computation the binary ran.
        let text = reference.as_deref().map(String::from_utf8_lossy);
        match text.as_deref().map(csv::parse) {
            Some(Ok(table)) if table.dos != curve.values => {
                Err("replica DOS differs from the binary's CSV".into())
            }
            _ => Ok(()),
        }
    });
    tracer.close(replica);
    report.attempt(outcome);

    // Probes beside the replica, not part of what the binary does.
    samples
        .startvec
        .push(pipeline::startvec_s(&built, &params, tracer, it));
    let pool = tracer.open("pool", Some(it));
    for (t, name, into) in [
        (1, "pool.solve_1t", &mut samples.solve_1t),
        (2, "pool.solve_2t", &mut samples.solve_2t),
    ] {
        if t == w.threads {
            continue;
        }
        let params = pipeline::params(w, w.moments, t, seed);
        match pipeline::solve(&built, &params, KpmVariant::AugSpmmv, name, tracer, pool) {
            Ok((_, s)) => into.push(s),
            Err(e) => report.problem(e),
        }
    }
    tracer.close(pool);

    let kernels = tracer.open("kernels", Some(it));
    let params = pipeline::params(w, KERNEL_MOMENTS, w.threads, seed);
    for (variant, name, into) in [
        (KpmVariant::Naive, "kernel.naive", &mut samples.naive),
        (
            KpmVariant::AugSpmv,
            "kernel.aug_spmv",
            &mut samples.aug_spmv,
        ),
        (
            KpmVariant::AugSpmmv,
            "kernel.aug_spmmv",
            &mut samples.aug_spmmv,
        ),
    ] {
        match pipeline::solve(&built, &params, variant, name, tracer, kernels) {
            Ok((_, s)) => into.push(s),
            Err(e) => report.problem(e),
        }
    }
    tracer.close(kernels);
    tracer.close(it);
    built
}

fn layer_metrics(
    w: &Workload,
    s: &Samples,
    stream_gbs: f64,
    cmuladd_gflops: f64,
    nproc: usize,
    report: &mut Report,
) {
    let Some((n, nnz)) = s.dims else {
        report.problem("no `kpm dos` run succeeded, so N and Nnz are unknown".into());
        return;
    };
    let complete = [
        &s.wall,
        &s.assemble,
        &s.scale,
        &s.format,
        &s.startvec,
        &s.solve,
        &s.reconstruct,
        &s.naive,
        &s.aug_spmv,
        &s.aug_spmmv,
    ];
    if complete.iter().any(|v| v.is_empty()) {
        report.problem("a layer was never measured".into());
        return;
    }
    let r = w.random as f64;
    let min_of = |report: &mut Report, name: &'static str, values: &[f64], note: &str| {
        let v = stats::min(values);
        report.set(
            name,
            v,
            values.len(),
            format!("min; median {:.5}. {note}", stats::median(values)),
        );
        v
    };

    min_of(
        report,
        "topo.assemble_s",
        &s.assemble,
        "TopoHamiltonian::clean + assemble",
    );
    min_of(
        report,
        "topo.scale_s",
        &s.scale,
        "ScaleFactors::from_gershgorin",
    );
    min_of(
        report,
        "sparse.format_s",
        &s.format,
        "KpmMatrix::crs / stencil_matrix + KpmMatrix::stencil",
    );
    report.set(
        "sparse.matrix_mib",
        model::matrix_mib(n, nnz, w.stencil),
        1,
        "computed from N, Nnz",
    );
    min_of(
        report,
        "core.startvec_s",
        &s.startvec,
        "starting_vectors alone; also inside core.solve_s",
    );
    min_of(
        report,
        "core.solve_s",
        &s.solve,
        "kpm_moments, AugSpmmv, the workload's M, R, threads",
    );
    min_of(
        report,
        "core.reconstruct_s",
        &s.reconstruct,
        "reconstruct, Jackson, 1,024 points",
    );
    report.set(
        "core.sweeps",
        model::sweeps(w.moments) as f64,
        1,
        "blocked sweeps per solve, M/2 - 1",
    );
    report.set(
        "core.flops",
        model::solve_flops(n, nnz, r, w.moments),
        1,
        "computed, paper Table I",
    );

    // The three stages at M = 32, sweeps only: the serial starting
    // vectors are measured beside them and taken out.
    let startvec = stats::min(&s.startvec);
    let flops = model::solve_flops(n, nnz, r, KERNEL_MOMENTS);
    let sweep_s = |values: &[f64]| (stats::min(values) - startvec).max(f64::MIN_POSITIVE);
    for (name, values) in [
        ("kernel.naive.gflops", &s.naive),
        ("kernel.aug_spmv.gflops", &s.aug_spmv),
        ("kernel.aug_spmmv.gflops", &s.aug_spmmv),
    ] {
        report.set(
            name,
            flops / sweep_s(values) / 1e9,
            values.len(),
            format!("computed {flops:.3e} flops at M = {KERNEL_MOMENTS} / (min call - starting vectors)"),
        );
    }
    let spmmv_s = sweep_s(&s.aug_spmmv);
    let spmmv_gflops = flops / spmmv_s / 1e9;
    let bf_min = model::bf_min(n, nnz, r);
    report.set(
        "kernel.aug_spmmv.bf_min",
        bf_min,
        1,
        "computed, paper Eq. 5 over Table I; CRS traffic",
    );
    let bytes = model::sweeps(KERNEL_MOMENTS) as f64 * model::sweep_min_bytes(n, nnz, r);
    report.set(
        "kernel.aug_spmmv.bw_eff_gbs",
        bytes / spmmv_s / 1e9,
        s.aug_spmmv.len(),
        "computed minimum bytes / time",
    );
    let roof = cmuladd_gflops.min(stream_gbs / bf_min);
    report.set(
        "kernel.aug_spmmv.roof_frac",
        spmmv_gflops / roof,
        s.aug_spmmv.len(),
        format!("roof {roof:.3} GF/s = min(host.cmuladd_gflops, host.stream_gbs / bf_min)"),
    );

    // The workload's own solve already is one of the two thread counts.
    let one = if w.threads == 1 {
        &s.solve
    } else {
        &s.solve_1t
    };
    let two = if w.threads == 2 {
        &s.solve
    } else {
        &s.solve_2t
    };
    if one.is_empty() || two.is_empty() {
        report.problem("a pool solve failed".into());
        return;
    }
    let t1 = min_of(
        report,
        "pool.solve_1t_s",
        one,
        "the workload's solve on 1 thread",
    );
    let t2 = min_of(
        report,
        "pool.solve_2t_s",
        two,
        "the workload's solve on 2 threads",
    );
    if nproc >= 2 {
        report.set(
            "pool.par_eff_2t",
            t1 / (2.0 * t2),
            one.len().min(two.len()),
            "1t / (2 x 2t)",
        );
    } else {
        report.warn(format!(
            "PARALLEL EFFICIENCY NOT MEASURED: this host has {nproc} core, pool.par_eff_2t reads 0"
        ));
        report.set(
            "pool.par_eff_2t",
            0.0,
            0,
            "not measured: fewer than 2 cores",
        );
    }

    // What the binary took beyond the replica's five steps, iteration by
    // iteration: the two ran seconds apart, on a host whose speed
    // drifts over minutes.
    let residuals: Vec<(f64, f64)> = s
        .wall
        .iter()
        .enumerate()
        .filter_map(|(i, &wall)| {
            let layers = s.assemble.get(i)?
                + s.scale.get(i)?
                + s.format.get(i)?
                + s.solve.get(i)?
                + s.reconstruct.get(i)?;
            Some((wall - layers, (wall - layers) / wall))
        })
        .collect();
    let seconds: Vec<f64> = residuals.iter().map(|r| r.0).collect();
    let fracs: Vec<f64> = residuals.iter().map(|r| r.1).collect();
    report.set(
        "cli.residual_s",
        stats::median(&seconds),
        seconds.len(),
        "median over iterations of the real binary's wall time - (assemble + scale + format + solve + reconstruct)",
    );
    report.set(
        "cli.residual_frac",
        stats::median(&fracs),
        fracs.len(),
        format!(
            "median over iterations of cli.residual_s / wall; smallest {:.4}",
            stats::min(&fracs)
        ),
    );
    report.set(
        "cli.csv_bytes",
        s.csv_bytes as f64,
        1,
        "bytes of CSV on stdout",
    );
    // Drift shows in every iteration, the host's noise does not; fewer
    // than three iterations cannot tell the two apart.
    if w.driver == Driver::Process && fracs.len() >= 3 && stats::min(&fracs) >= MAX_RESIDUAL_FRAC {
        report.warn(format!(
            "cli.residual_frac {:.3} >= {MAX_RESIDUAL_FRAC} in every iteration: the in-process replica no longer \
             explains the binary (build profile or pipeline drift?)",
            stats::min(&fracs)
        ));
    }
}

/// Closed loop against a service holding the workload's matrix, first
/// with `kpm_obs` off, then on; the stage numbers come from the second
/// pass, the cost of observing from the difference.
fn service_phase(
    w: &Workload,
    seed: u64,
    seconds: f64,
    built: Built,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let phase = tracer.open("service", Some(Tracer::ROOT));
    let plan = svc::schedule(seed, w.svc_clients, svc::PLAN_PER_CLIENT, w.sites());
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let pass = |observed: bool, tracer: &mut Tracer| {
        let span = tracer.open(
            if observed {
                "service.observed"
            } else {
                "service.unobserved"
            },
            Some(phase),
        );
        kpm_obs::set_enabled(observed);
        let ((service, fp), _) = tracer.timed("service.start", span, || {
            svc::start(built.matrix.clone(), built.sf)
        });
        let load = svc::closed_loop(service, fp, &plan, w.svc_moments, budget);
        kpm_obs::set_enabled(false);
        tracer.close(span);
        (load, span)
    };
    let (unobserved, _) = pass(false, tracer);
    let (observed, span) = pass(true, tracer);
    tracer.close(phase);
    record_load_checks(&unobserved, report);
    record_load_checks(&observed, report);
    request_spans(&observed, span, tracer);

    let answered: Vec<_> = observed
        .replies
        .iter()
        .filter_map(|r| r.stats.map(|s| (r, s)))
        .collect();
    if answered.is_empty() || unobserved.replies.is_empty() {
        report.problem("the service phase completed no request".into());
        return;
    }
    let count = answered.len();
    let mean = |f: &dyn Fn(&kpm_service::ReplyStats) -> f64| {
        answered.iter().map(|(_, s)| f(s)).sum::<f64>() / count as f64
    };
    let stages = [
        ("service.queue_ms", mean(&|s| s.stages.queue_us) / 1e3),
        ("service.batch_ms", mean(&|s| s.stages.batch_us) / 1e3),
        ("service.solve_ms", mean(&|s| s.stages.solve_us) / 1e3),
        ("service.reply_ms", mean(&|s| s.stages.reply_us) / 1e3),
    ];
    for (name, ms) in stages {
        report.set(name, ms, count, "mean over replies of ReplyStats.stages");
    }
    let mean_latency_ms = stats::mean(
        &answered
            .iter()
            .map(|(r, _)| r.latency_s * 1e3)
            .collect::<Vec<_>>(),
    );
    let untiled = 1.0 - stages.iter().map(|(_, ms)| ms).sum::<f64>() / mean_latency_ms;
    report.set(
        "service.untiled_frac",
        untiled,
        count,
        format!("1 - sum of the four stage means / mean client latency {mean_latency_ms:.3} ms"),
    );
    if w.driver == Driver::Service && untiled.abs() > MAX_UNTILED_FRAC {
        report.warn(format!(
            "service.untiled_frac {untiled:.3}: the stage means do not tile the mean latency"
        ));
    }
    report.set(
        "service.cache_hit_frac",
        mean(&|s| f64::from(u8::from(s.cache_hit))),
        count,
        "replies with cache_hit",
    );
    report.set(
        "service.batch_width_mean",
        mean(&|s| s.batch_width as f64),
        count,
        "mean ReplyStats.batch_width",
    );
    report.set(
        "service.hedged",
        observed.ledger.hedged as f64,
        count,
        "ledger",
    );
    report.set(
        "service.degraded",
        observed.ledger.degraded as f64,
        count,
        "ledger",
    );
    report.set(
        "service.rejected",
        observed.ledger.rejected as f64,
        count,
        "ledger",
    );
    report.set(
        "service.rps",
        observed.rps(),
        observed.replies.len(),
        format!(
            "{} clients, closed loop, M = {}, kpm_obs on",
            w.svc_clients, w.svc_moments
        ),
    );
    let latencies = observed.latencies_ms_sorted();
    for (name, q) in [
        ("service.lat_p50_ms", 0.50),
        ("service.lat_p90_ms", 0.90),
        ("service.lat_p99_ms", 0.99),
    ] {
        let beyond = latencies.len() - (q * latencies.len() as f64).ceil() as usize;
        report.set(
            name,
            stats::quantile_nearest_rank(&latencies, q),
            latencies.len(),
            format!("nearest rank, {beyond} samples beyond it"),
        );
    }
    report.set(
        "obs.overhead_frac",
        1.0 - observed.rps() / unobserved.rps(),
        observed.replies.len(),
        format!(
            "1 - {:.2} req/s observed / {:.2} req/s unobserved",
            observed.rps(),
            unobserved.rps()
        ),
    );
}

/// Counts every request as attempted and every failed one as failed.
fn record_load_checks(load: &svc::Load, report: &mut Report) {
    let (failed, lines) = load.failures(8);
    report.attempted += load.replies.len() as u64;
    report.failed += failed;
    for line in lines {
        report.problem(line);
    }
    if load.replies.is_empty() {
        report.problem("the closed loop completed no request".into());
    }
}

/// One span per request with the service's four stages under it, laid
/// end to end so that the last ends when the client had its reply.
fn request_spans(load: &svc::Load, parent: SpanId, tracer: &mut Tracer) {
    for r in &load.replies {
        let request = tracer.add(
            &format!("request.client{}.{}", r.client, r.kind.route()),
            parent,
            r.start,
            r.latency_s,
        );
        let Some(stats) = r.stats else { continue };
        let mut at = tracer.spans[request].end_us - stats.stages.total_us();
        for (name, us) in [
            ("service.queue", stats.stages.queue_us),
            ("service.batch", stats.stages.batch_us),
            ("service.solve", stats.stages.solve_us),
            ("service.reply", stats.stages.reply_us),
        ] {
            tracer.add_at(name, request, at, us);
            at += us;
        }
    }
}
