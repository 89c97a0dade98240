//! The untraced run: end-to-end numbers from the real `kpm` binary
//! (dos workloads) and the real `Service` (service workload), with
//! `kpm_obs` off and no spans recorded. Every repetition is a fresh
//! process with a yardstick reading on either side of it.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::csv;
use crate::model;
use crate::pipeline::{self, Built};
use crate::process::{parse_banner, run_child, ProcRun};
use crate::report::Report;
use crate::stats;
use crate::svc;
use crate::trace::Tracer;
use crate::workloads::{Driver, Workload};
use crate::yardstick::Yardstick;

/// Fewer repetitions than this and the median is not yet an estimate.
const MIN_REPS: usize = 3;
/// Requests each client of one service repetition sends.
const SVC_REQUESTS_PER_CLIENT: usize = 150;
/// Set-ups per service repetition; the median is reported.
const SVC_SETUPS: usize = 9;
/// Under glibc's default, self-adjusting mmap threshold the service's
/// peak resident set ran from 14.5 to 31 MiB over eight identical
/// repetitions: whether a freed block vector goes back to the system
/// depends on the order in which threads freed the ones before it.
/// With the threshold pinned, sixteen repetitions stayed within
/// 8.4 to 9.2 MiB.
const SVC_CHILD_ENV: &[(&str, &str)] = &[("MALLOC_MMAP_THRESHOLD_", "65536")];

pub fn run(w: &'static Workload, seed: u64, seconds: f64, kpm: &Path) -> Report {
    let mut report = Report::new(w.name, seed, false);
    let mut yard = w.yardstick();
    // Faults the yardstick's pages in.
    yard.seconds();
    let host = Host {
        yard,
        quiet_s: w.yard_quiet_s,
        readings: Vec::new(),
    };
    match w.driver {
        Driver::Process => run_process(w, seed, seconds, kpm, host, &mut report),
        Driver::Service => run_service(w, seed, seconds, host, &mut report),
    }
    report
}

/// The yardstick and what it has read so far.
struct Host {
    yard: Yardstick,
    /// What the yardstick reads on the quiet host.
    quiet_s: f64,
    readings: Vec<f64>,
}

impl Host {
    fn read(&mut self) -> f64 {
        let s = self.yard.seconds();
        self.readings.push(s);
        s
    }

    /// Runs `child` and returns what it returned with the host's
    /// slowdown around it: the mean of the readings before and after,
    /// over the quiet host's.
    fn around<T>(&mut self, child: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.readings.last() {
            Some(&last) => last,
            None => self.read(),
        };
        let out = child();
        let after = self.read();
        (out, 0.5 * (before + after) / self.quiet_s)
    }
}

/// Exit status, banner and CSV checks of one `kpm dos` process.
/// Returns `(N, Nnz)` from the banner.
pub fn check_dos_output(run: &ProcRun, reference: Option<&[u8]>) -> Result<(f64, f64), String> {
    if !run.success {
        return Err(format!("kpm exited with failure: {}", run.stderr.trim()));
    }
    let banner = parse_banner(&run.stderr)
        .ok_or_else(|| format!("no `N = …, Nnz = …` banner in `{}`", run.stderr.trim()))?;
    let text = std::str::from_utf8(&run.stdout).map_err(|e| format!("CSV is not UTF-8: {e}"))?;
    let table = csv::parse(text)?;
    csv::check_curve(&table.energies, &table.dos, pipeline::POINTS, 1e-3)?;
    if reference.is_some_and(|r| r != run.stdout) {
        return Err("CSV differs from the reference CSV of this workload".into());
    }
    Ok(banner)
}

/// Repetitions of one command: wall time as measured and the host's
/// slowdown around each.
#[derive(Default)]
struct Reps {
    raw_s: Vec<f64>,
    slowdown: Vec<f64>,
}

impl Reps {
    fn push(&mut self, raw_s: f64, slowdown: f64) {
        self.raw_s.push(raw_s);
        self.slowdown.push(slowdown);
    }

    /// Seconds of the quiet host.
    fn quiet_s(&self) -> Vec<f64> {
        self.raw_s
            .iter()
            .zip(&self.slowdown)
            .map(|(s, h)| s / h)
            .collect()
    }

    fn note(&self, what: &str) -> String {
        format!(
            "{what}; as measured: min {:.4}, median {:.4}, max {:.4}",
            stats::min(&self.raw_s),
            stats::median(&self.raw_s),
            stats::max(&self.raw_s)
        )
    }
}

/// Stops a loop of repetitions when the next would overrun `seconds`.
struct Budget {
    t0: Instant,
    seconds: f64,
    rep_s: Vec<f64>,
}

impl Budget {
    fn new(seconds: f64) -> Budget {
        Budget {
            t0: Instant::now(),
            seconds,
            rep_s: Vec::new(),
        }
    }

    /// Notes a repetition that started at `started` and says whether
    /// there is time for one more.
    fn allows_another(&mut self, started: Instant) -> bool {
        self.rep_s.push(started.elapsed().as_secs_f64());
        let next_ends = self.t0.elapsed().as_secs_f64() + stats::median(&self.rep_s);
        self.rep_s.len() < MIN_REPS || next_ends <= self.seconds
    }
}

/// Every sample behind the normalised values, for the JSON document.
fn record_series(report: &mut Report, fulls: &Reps, twins: &Reps, host: &Host) {
    report.series("full.raw_s", &fulls.raw_s);
    report.series("full.slowdown", &fulls.slowdown);
    report.series("twin.raw_s", &twins.raw_s);
    report.series("twin.slowdown", &twins.slowdown);
    report.series("yardstick_s", &host.readings);
}

/// Interleaved repetitions of the zero-sweep twin and the command,
/// until the next pair would overrun `seconds`.
fn run_process(
    w: &Workload,
    seed: u64,
    seconds: f64,
    kpm: &Path,
    mut host: Host,
    report: &mut Report,
) {
    let full_args = w.dos_args(w.moments, seed, w.stencil);
    let twin_args = w.dos_args(2, seed, w.stencil);

    // One discarded run warms the page cache. For the stencil workload
    // it is the CRS command, whose CSV the stencil's must equal byte
    // for byte.
    let warm_args = if w.stencil {
        w.dos_args(w.moments, seed, false)
    } else {
        twin_args.clone()
    };
    let mut reference: Option<Vec<u8>> = None;
    match run_child(kpm, &warm_args, &[]).and_then(|run| check_dos_output(&run, None).map(|_| run))
    {
        Ok(run) if w.stencil => reference = Some(run.stdout),
        Ok(_) => {}
        Err(e) => report.problem(format!("warm-up: {e}")),
    }

    let mut budget = Budget::new(seconds);
    let (mut fulls, mut twins) = (Reps::default(), Reps::default());
    let mut rss_kib = Vec::new();
    let mut banner = None;
    loop {
        let pair_t0 = Instant::now();
        let (twin, slowdown) = host.around(|| run_child(kpm, &twin_args, &[]));
        match twin.and_then(|run| check_dos_output(&run, None).map(|_| run)) {
            Ok(run) => {
                twins.push(run.wall_s, slowdown);
                report.attempt(Ok(()));
            }
            Err(e) => report.attempt(Err(format!("twin: {e}"))),
        }
        let (full, slowdown) = host.around(|| run_child(kpm, &full_args, &[]));
        let checked = full
            .and_then(|run| check_dos_output(&run, reference.as_deref()).map(|dims| (run, dims)));
        match checked {
            Ok((run, dims)) => {
                banner = Some(dims);
                fulls.push(run.wall_s, slowdown);
                rss_kib.push(run.peak_rss_kib as f64);
                reference.get_or_insert(run.stdout);
                report.attempt(Ok(()));
            }
            Err(e) => report.attempt(Err(e)),
        }
        if !budget.allows_another(pair_t0) {
            break;
        }
    }

    let (Some((n, nnz)), false, false) = (banner, fulls.raw_s.is_empty(), twins.raw_s.is_empty())
    else {
        report.problem("no repetition succeeded".into());
        return;
    };
    let (wall, setup) = (
        stats::median(&fulls.quiet_s()),
        stats::median(&twins.quiet_s()),
    );
    report.set(
        "wall_s",
        wall,
        fulls.raw_s.len(),
        fulls.note("median of reps, in seconds of the quiet host"),
    );
    report.set(
        "setup_s",
        setup,
        twins.raw_s.len(),
        twins.note("median of --moments 2 twins, in seconds of the quiet host"),
    );
    let flops = model::solve_flops(n, nnz, w.random as f64, w.moments);
    report.set(
        "sweep_gflops",
        flops / (wall - setup) / 1e9,
        fulls.raw_s.len(),
        format!("computed {flops:.4e} flops / (wall_s - setup_s); N {n}, Nnz {nnz}"),
    );
    report.set(
        "peak_rss_mib",
        stats::median(&rss_kib) / 1024.0,
        rss_kib.len(),
        "median over reps of the last VmHWM polled",
    );
    record_series(report, &fulls, &twins, &host);
}

/// What one service repetition, a child of this program, measured.
struct SvcRep {
    setup_s: f64,
    elapsed_s: f64,
    requests: u64,
    failed: u64,
    flops: f64,
}

/// The child side of a service repetition: sets the service up, runs
/// the closed loop over a fixed number of requests and prints what it
/// measured on one line.
pub fn svc_child(w: &Workload, seed: u64) {
    // Everything a service user waits for before the first request,
    // several times over: one set-up takes milliseconds.
    let mut setups = Vec::with_capacity(SVC_SETUPS);
    let (service, fingerprint, n, nnz) = loop {
        let t0 = Instant::now();
        let Built {
            matrix, sf, n, nnz, ..
        } = pipeline::build(w, &mut Tracer::new("setup"), Tracer::ROOT);
        let (service, fingerprint) = svc::start(matrix, sf);
        setups.push(t0.elapsed().as_secs_f64());
        if setups.len() == SVC_SETUPS {
            break (service, fingerprint, n, nnz);
        }
        service.shutdown(kpm_service::ShutdownMode::Drain);
    };
    let setup_s = stats::median(&setups);
    let plan = svc::schedule(seed, w.svc_clients, SVC_REQUESTS_PER_CLIENT, w.sites());
    let no_limit = Duration::from_secs(3600);
    let load = svc::closed_loop(service, fingerprint, &plan, w.svc_moments, no_limit);
    let (failed, lines) = load.failures(8);
    for line in lines {
        eprintln!("problem: {line}");
    }
    println!(
        "setup_s={setup_s} elapsed_s={} requests={} failed={failed} flops={}",
        load.elapsed_s,
        load.replies.len(),
        load.requested_flops(n, nnz, w.svc_moments)
    );
}

fn parse_svc_rep(run: &ProcRun) -> Result<SvcRep, String> {
    if !run.success {
        return Err(format!("service child failed: {}", run.stderr.trim()));
    }
    let line = String::from_utf8_lossy(&run.stdout);
    let field = |key: &str| -> Result<f64, String> {
        line.split_whitespace()
            .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no `{key}` in the service child's output `{}`", line.trim()))
    };
    Ok(SvcRep {
        setup_s: field("setup_s")?,
        elapsed_s: field("elapsed_s")?,
        requests: field("requests")? as u64,
        failed: field("failed")? as u64,
        flops: field("flops")?,
    })
}

/// Fresh service processes, each a closed loop over the same request
/// schedule, until the next would overrun `seconds`.
fn run_service(w: &Workload, seed: u64, seconds: f64, mut host: Host, report: &mut Report) {
    let me = match std::env::current_exe() {
        Ok(me) => me,
        Err(e) => return report.problem(format!("cannot find this program: {e}")),
    };
    let args: Vec<String> = ["svc-child", "--workload", w.name, "--seed"]
        .iter()
        .map(|s| s.to_string())
        .chain([seed.to_string()])
        .collect();
    let mut budget = Budget::new(seconds);
    let (mut loops, mut setups) = (Reps::default(), Reps::default());
    let (mut rss_kib, mut gflops) = (Vec::new(), Vec::new());
    loop {
        let rep_t0 = Instant::now();
        let (run, slowdown) = host.around(|| run_child(&me, &args, SVC_CHILD_ENV));
        match run.and_then(|run| parse_svc_rep(&run).map(|rep| (run, rep))) {
            Ok((run, rep)) => {
                report.attempted += rep.requests;
                report.failed += rep.failed;
                for line in run
                    .stderr
                    .lines()
                    .filter_map(|l| l.strip_prefix("problem: "))
                {
                    report.problem(line.to_string());
                }
                if rep.requests == 0 {
                    report.problem("the closed loop completed no request".into());
                } else {
                    loops.push(rep.elapsed_s * 1000.0 / rep.requests as f64, slowdown);
                    setups.push(rep.setup_s, slowdown);
                    gflops.push(rep.flops / (rep.elapsed_s / slowdown) / 1e9);
                    rss_kib.push(run.peak_rss_kib as f64);
                }
            }
            Err(e) => report.attempt(Err(e)),
        }
        if !budget.allows_another(rep_t0) {
            break;
        }
    }
    if loops.raw_s.is_empty() {
        return report.problem("no repetition succeeded".into());
    }
    report.set(
        "wall_s",
        stats::median(&loops.quiet_s()),
        loops.raw_s.len(),
        loops.note(&format!(
            "per 1,000 requests, median of closed loops of {} x {SVC_REQUESTS_PER_CLIENT}, in seconds of the quiet host",
            w.svc_clients
        )),
    );
    report.set(
        "setup_s",
        stats::median(&setups.quiet_s()),
        setups.raw_s.len(),
        setups.note("assemble + bounds + start + register, median of reps of the median of 9, in seconds of the quiet host"),
    );
    report.set(
        "sweep_gflops",
        stats::median(&gflops),
        gflops.len(),
        "computed flops the replies asked for / loop time; cache hits count in full",
    );
    report.set(
        "peak_rss_mib",
        stats::median(&rss_kib) / 1024.0,
        rss_kib.len(),
        "median over reps of the last VmHWM polled of the process hosting the service, mmap threshold pinned",
    );
    record_series(report, &loops, &setups, &host);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(success: bool, stdout: &str) -> ProcRun {
        ProcRun {
            wall_s: 1.0,
            peak_rss_kib: 1,
            success,
            stdout: stdout.as_bytes().to_vec(),
            stderr: "problem: why\n".into(),
        }
    }

    #[test]
    fn reads_what_a_service_child_prints() {
        let line = "setup_s=0.0025 elapsed_s=2.5 requests=600 failed=1 flops=43327872000\n";
        let rep = parse_svc_rep(&finished(true, line)).unwrap();
        assert_eq!(
            (rep.setup_s, rep.elapsed_s, rep.requests, rep.failed),
            (0.0025, 2.5, 600, 1)
        );
        assert_eq!(rep.flops, 43_327_872_000.0);
        assert!(parse_svc_rep(&finished(false, line)).is_err());
        assert!(parse_svc_rep(&finished(true, "setup_s=0.0025 requests=600\n")).is_err());
        assert!(parse_svc_rep(&finished(true, "")).is_err());
    }

    #[test]
    fn a_host_twice_as_slow_halves_the_seconds() {
        let mut reps = Reps::default();
        reps.push(3.0, 2.0);
        reps.push(1.5, 1.0);
        assert_eq!(reps.quiet_s(), [1.5, 1.5]);
    }
}
