//! The repo benchmark. See README.md beside this package.
//!
//! ```text
//! kpm-benchmark run [--workload NAME] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--out FILE]
//! kpm-benchmark selfcheck [--workload NAME] [--seed S] [--seconds N]
//! kpm-benchmark yardstick [--workload NAME]
//! ```
//!
//! `run` builds `kpm` from the root workspace, runs one workload (or all
//! five), checks their outputs, prints every metric by name and, as the
//! last line of each workload, the result object the driver reads.

mod csv;
mod host;
mod model;
mod pipeline;
mod process;
mod report;
mod stats;
mod svc;
mod trace;
mod traced;
mod untraced;
mod workloads;
mod yardstick;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Better, Report, END_TO_END};
use workloads::{Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 2015;
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || WORKLOADS.map(|w| w.name).join(", ");
                o.workload = Some(
                    Workload::by_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}` (try: {})", known()))?,
                );
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => o.traced = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn header(root: &Path) {
    println!(
        "# kpm-benchmark: {}, revision {}, nproc {}, caches {}",
        host::rustc_version(),
        host::git_revision(root),
        host::nproc(),
        host::cache_sizes()
    );
}

fn run_one(
    w: &'static Workload,
    traced: bool,
    seed: u64,
    seconds: f64,
    kpm: &Path,
    out_dir: &Path,
) -> Report {
    println!("-- {}: {}", w.name, w.why);
    let report = if traced {
        traced::run(w, seed, seconds, kpm, out_dir)
    } else {
        untraced::run(w, seed, seconds, kpm)
    };
    print!("{}", report.table());
    report
}

fn selected(o: &Options) -> Vec<&'static Workload> {
    o.workload
        .map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w])
}

fn cmd_run(o: &Options) -> Result<(), String> {
    let root = process::repo_root();
    let kpm = process::build_kpm()?;
    header(&root);
    let out_dir = root.join("benchmark").join("out");
    let mut documents = Vec::new();
    for w in selected(o) {
        let report = run_one(w, o.traced, o.seed, o.seconds, &kpm, &out_dir);
        documents.push(report.to_json());
        // Last line of a workload's output: what the driver reads.
        println!("{}", report.contract_line());
    }
    if let Some(path) = &o.out {
        let text = format!("[\n{}\n]\n", documents.join(",\n"));
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Worsening of `second` against `first` as a share of `first`.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Two untraced runs of the same build must agree within every bound
/// in either direction with nothing failed, and one traced run must
/// give every layer metric, parented spans and no warning.
fn cmd_selfcheck(o: &Options) -> Result<(), String> {
    let root = process::repo_root();
    let kpm = process::build_kpm()?;
    header(&root);
    let out_dir = root.join("benchmark").join("out");
    let mut complaints = Vec::new();
    let complain_about = |r: &Report, complaints: &mut Vec<String>| {
        if !r.correct() {
            complaints.push(format!(
                "{} ({}): not correct: {:?}, missing {:?}",
                r.workload,
                r.traced,
                r.problems,
                r.missing()
            ));
        }
        complaints.extend(r.warnings.iter().map(|w| format!("{}: {w}", r.workload)));
    };
    for w in selected(o) {
        let first = run_one(w, false, o.seed, o.seconds, &kpm, &out_dir);
        let second = run_one(w, false, o.seed, o.seconds, &kpm, &out_dir);
        for r in [&first, &second] {
            complain_about(r, &mut complaints);
        }
        println!("-- {}: A/A difference of two untraced runs", w.name);
        for d in END_TO_END {
            let (Some(a), Some(b), Some(bound)) = (first.get(d.name), second.get(d.name), d.bound)
            else {
                continue;
            };
            let worst = worsening(d.better, a, b).max(worsening(d.better, b, a));
            let verdict = if worst > bound { "EXCEEDS" } else { "within" };
            println!(
                "{:<14} {a:>14.6} {b:>14.6} {:<5} differ by {:.4}, {verdict} bound {bound}",
                d.name, d.unit, worst
            );
            if worst > bound {
                complaints.push(format!(
                    "{}: {} differs by {worst:.4} > bound {bound}",
                    w.name, d.name
                ));
            }
        }
        // Twice the time, so that the minima the residual check compares
        // come from several iterations.
        complain_about(
            &run_one(w, true, o.seed, 2.0 * o.seconds, &kpm, &out_dir),
            &mut complaints,
        );
    }
    if complaints.is_empty() {
        println!("selfcheck passed");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", complaints.join("\n  ")))
    }
}

/// What the yardstick of each selected workload reads on this host
/// now, for setting `yard_quiet_s` when the benchmark moves.
fn cmd_yardstick(o: &Options) -> Result<(), String> {
    const READINGS: usize = 20;
    for w in selected(o) {
        let mut yard = w.yardstick();
        yard.seconds();
        let readings: Vec<f64> = (0..READINGS).map(|_| yard.seconds()).collect();
        println!(
            "{:<16} {} sweeps: min {:.5} s, median {:.5} s, max {:.5} s of {READINGS}; quiet host {:.5} s",
            w.name,
            w.yard_sweeps,
            stats::min(&readings),
            stats::median(&readings),
            stats::max(&readings),
            w.yard_quiet_s
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    // The ambient pool of the in-process layers must be sized by the
    // host, as the children's is.
    std::env::remove_var("KPM_THREADS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_options(rest).and_then(|o| cmd_run(&o)),
        Some((cmd, rest)) if cmd == "selfcheck" => {
            parse_options(rest).and_then(|o| cmd_selfcheck(&o))
        }
        Some((cmd, rest)) if cmd == "yardstick" => {
            parse_options(rest).and_then(|o| cmd_yardstick(&o))
        }
        // One repetition of the service workload, started by `run`.
        Some((cmd, rest)) if cmd == "svc-child" => parse_options(rest).and_then(|o| {
            let w = o.workload.ok_or("svc-child needs --workload")?;
            untraced::svc_child(w, o.seed);
            Ok(())
        }),
        _ => Err(
            "usage: kpm-benchmark run|selfcheck|yardstick [--workload NAME] [--seed S] [--seconds N] \
                  [--trace 0|1 | --traced] [--out FILE]"
                .into(),
        ),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kpm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
