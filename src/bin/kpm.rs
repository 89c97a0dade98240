//! `kpm` — command-line front end for the KPM library.
//!
//! ```text
//! kpm generate --nx 20 --ny 20 --nz 10 --out ti.mtx     # write a TI matrix
//! kpm info ti.mtx                                       # structure report
//! kpm dos ti.mtx --moments 512 --random 16              # DOS as CSV
//! kpm dos --nx 20 --ny 20 --nz 10                       # ... without a file
//! kpm count ti.mtx --from -0.5 --to 0.5                 # eigenvalue count
//! kpm report --nx 20 --ny 20 --nz 10 --random 8         # achieved vs model
//! ```
//!
//! Matrices are exchanged in Matrix Market format (`coordinate complex
//! hermitian/general`), so the tool interoperates with SuiteSparse-style
//! collections.
//!
//! Every subcommand rejects flags it does not know (a typo like
//! `--moment 512` fails instead of silently running with the default),
//! and all diagnostics go to stderr so CSV output on stdout stays
//! machine-clean. `--metrics-out FILE.jsonl` / `--trace-out FILE.json`
//! enable the `kpm-obs` instrumentation and export its registry when
//! the command finishes.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;

use kpm_repro::core::dos::reconstruct;
use kpm_repro::core::eigencount::count_from_moments;
use kpm_repro::core::solver::{
    check_allocatable, kpm_moments, with_threads, KpmParams, KpmVariant,
};
use kpm_repro::core::Kernel;
use kpm_repro::num::KpmError;
use kpm_repro::obs;
use kpm_repro::perfmodel::cachesim::CacheConfig;
use kpm_repro::perfmodel::machine::Machine;
use kpm_repro::perfmodel::omega::measure_omega_kernel;
use kpm_repro::perfmodel::roofline::custom_roofline;
use kpm_repro::service::{
    Admission, QueryKind, RejectReason, Request, Service, ServiceConfig, ShutdownMode,
    MAX_BATCH_WIDTH,
};
use kpm_repro::sparse::{io as mmio, stats, CrsMatrix};
use kpm_repro::topo::{ScaleFactors, TopoHamiltonian};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env_threads = std::env::var_os("KPM_THREADS");
    let result = check_env_threads(env_threads.as_deref()).and_then(|()| subcommand(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("kpm: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn subcommand(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("dos") => cmd_dos(&args[1..]),
        Some("count") => cmd_count(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("trace-report") => cmd_trace_report(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    }
}

/// `KPM_THREADS`, when set, must be a thread count the pool can give:
/// the pool takes an unusable value for "not set", which would silently
/// run the command on every core.
fn check_env_threads(value: Option<&std::ffi::OsStr>) -> Result<(), String> {
    let Some(value) = value else { return Ok(()) };
    let usable = value
        .to_str()
        .and_then(|v| v.trim().parse().ok())
        .is_some_and(|n: usize| (1..=rayon::MAX_THREADS).contains(&n));
    if usable {
        return Ok(());
    }
    Err(format!(
        "bad value for KPM_THREADS: {} (a thread count from 1 to {})",
        value.to_string_lossy(),
        rayon::MAX_THREADS
    ))
}

/// `--workers W` of `kpm serve`: a service worker is an OS thread like a
/// pool worker, so the pool's limit is the limit.
fn opt_workers(args: &[String]) -> Result<usize, String> {
    match opt_usize(args, "--workers", 2)? {
        workers if workers > rayon::MAX_THREADS => Err(format!(
            "bad value for --workers: {workers} (at most {} supported)",
            rayon::MAX_THREADS
        )),
        workers => Ok(workers.max(1)),
    }
}

const USAGE: &str = "usage:
  kpm generate --nx N --ny N --nz N [--potential dots] --out FILE.mtx
  kpm info FILE.mtx
  kpm dos [FILE.mtx | --nx N --ny N --nz N] [--moments M] [--random R] [--seed S]
             [--points K]
  kpm count [FILE.mtx | --nx N --ny N --nz N] --from E --to E [--moments M] [--random R]
             [--seed S]
  kpm report [FILE.mtx | --nx N --ny N --nz N] [--moments M] [--random R] [--seed S]
             [--machine IVB|SNB|K20m|K20X] [--llc-mib F] [--sweeps S]
  kpm serve  [FILE.mtx | --nx N --ny N --nz N] [--workers W] [--queue Q]
             [--width R (at most 8)] [--deadline-ms D] [--points K]
             [--kernel jackson|dirichlet|lorentz] [--lambda L]
             [--slo-ms MS] [--slo-goal G] [--flight-recorder PREFIX]
             (requests on stdin: 'dos SEED R M [MS]' | 'ldos SITE M [MS]'
              | 'green SEED R M [MS]'; one JSON reply line per request)
  kpm stats  FILE.jsonl      (metrics JSONL -> Prometheus text exposition)
  kpm trace-report FILE.json [--machine IVB|SNB|K20m|K20X] [--flight FILE.jsonl]
             [--paths]
             (per-request critical path + roofline attribution from a
              Chrome trace export; optionally merges a flight-recorder dump;
              --paths lists every span of each request)
common:
  --threads T                worker threads of generate, info, dos, count and report
                             (0 = KPM_THREADS env, else all cores)
  --format crs|stencil       the name the banner and the report give the
                             format (crs, the default; stencil needs
                             --nx/--ny/--nz); every lattice runs its CRS
                             form either way, coded when it has one
  --no-simd                  run the baseline copy of the sweep instead of the
                             widest copy (AVX-512, else AVX2) the CPU executes
                             (moments are bitwise-identical either way)
  --metrics-out FILE.jsonl   export the kpm-obs metrics registry
  --trace-out FILE.json      export spans as a Chrome trace-event file";

/// Flags shared by every matrix source.
const MATRIX_FLAGS: &[&str] = &["--nx", "--ny", "--nz", "--potential"];
/// Flags of the shared-memory solver.
const SOLVER_FLAGS: &[&str] = &["--moments", "--random", "--seed", "--threads"];
/// `--threads` alone, for subcommands that do parallel work without the
/// full solver parameter set.
const THREADS_FLAGS: &[&str] = &["--threads"];
/// Observability exports, accepted by every solver-running subcommand.
const OBS_FLAGS: &[&str] = &["--metrics-out", "--trace-out"];
/// Storage-format selection, accepted by every solver-running
/// subcommand.
const FORMAT_FLAGS: &[&str] = &["--format", "--no-simd"];
/// Flags that take no value (presence toggles).
const BOOLEAN_FLAGS: &[&str] = &["--no-simd", "--paths"];
/// Each subcommand's own flags.
const GENERATE_FLAGS: &[&str] = &["--out"];
const DOS_FLAGS: &[&str] = &["--points"];
const COUNT_FLAGS: &[&str] = &["--from", "--to"];
const REPORT_FLAGS: &[&str] = &["--machine", "--llc-mib", "--sweeps"];
const SERVE_FLAGS: &[&str] = &[
    "--workers",
    "--queue",
    "--width",
    "--deadline-ms",
    "--points",
    "--kernel",
    "--lambda",
    "--slo-ms",
    "--slo-goal",
    "--flight-recorder",
];
const TRACE_REPORT_FLAGS: &[&str] = &["--machine", "--flight", "--paths"];

/// Rejects any `--flag` not in `allowed`, any flag given twice (the
/// lookups below would silently take the first), any value flag with
/// nothing after it and any second positional argument, so typos fail
/// loudly instead of silently running with a default value.
fn check_args(args: &[String], allowed: &[&[&str]]) -> Result<(), String> {
    let mut positionals = 0usize;
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if let Some(flag) = a.strip_prefix("--").map(|_| a.as_str()) {
            if !allowed.iter().any(|set| set.contains(&flag)) {
                let hint = allowed
                    .iter()
                    .flat_map(|set| set.iter())
                    .find(|c| c.starts_with(flag) || flag.starts_with(**c))
                    .map(|c| format!(" (did you mean {c}?)"))
                    .unwrap_or_default();
                return Err(format!("unknown flag '{flag}'{hint}\n{USAGE}"));
            }
            if seen.contains(&flag) {
                return Err(format!("flag '{flag}' given more than once\n{USAGE}"));
            }
            seen.push(flag);
            if !BOOLEAN_FLAGS.contains(&flag) && rest.next().is_none() {
                return Err(format!("flag '{flag}' needs a value\n{USAGE}"));
            }
            continue;
        }
        positionals += 1;
        if positionals > 1 {
            return Err(format!("unexpected extra argument '{a}'\n{USAGE}"));
        }
    }
    Ok(())
}

/// `--flag value` lookup.
fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn opt_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match opt(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

fn opt_f64(args: &[String], name: &str) -> Result<Option<f64>, String> {
    match opt(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for {name}: {v}")),
    }
}

/// [`opt_f64`] for a quantity that has to be a number: `nan` and `inf`
/// parse as `f64` and are refused here.
fn opt_finite(args: &[String], name: &str) -> Result<Option<f64>, String> {
    match opt_f64(args, name)? {
        Some(v) if !v.is_finite() => Err(format!("bad value for {name}: {v} (must be finite)")),
        v => Ok(v),
    }
}

/// `--points K`: a curve is reconstructed on at least two energies.
fn opt_points(args: &[String], default: usize) -> Result<usize, String> {
    match opt_usize(args, "--points", default)? {
        points @ 0..=1 => Err(format!(
            "bad value for --points: {points} (need at least 2 energy points)"
        )),
        points => Ok(points),
    }
}

/// A lattice extent (`--nx`, `--ny`, `--nz`), `None` when not given.
fn opt_extent(args: &[String], name: &str) -> Result<Option<usize>, String> {
    match opt(args, name).map(|v| (v, v.parse())) {
        None => Ok(None),
        Some((_, Ok(n @ 1..))) => Ok(Some(n)),
        Some((v, _)) => Err(format!(
            "bad value for {name}: {v} (lattice extents are integers from 1)"
        )),
    }
}

/// True when the presence-only `name` flag appears.
fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The positional (non-flag) argument, if any.
fn positional(args: &[String]) -> Option<&str> {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !BOOLEAN_FLAGS.contains(&a.as_str());
            continue;
        }
        return Some(a);
    }
    None
}

/// The `--metrics-out` / `--trace-out` pair: enables instrumentation up
/// front when either is requested and exports on [`ObsOutputs::export`].
struct ObsOutputs {
    metrics: Option<String>,
    trace: Option<String>,
}

impl ObsOutputs {
    fn from_args(args: &[String]) -> ObsOutputs {
        let out = ObsOutputs {
            metrics: opt(args, "--metrics-out").map(str::to_string),
            trace: opt(args, "--trace-out").map(str::to_string),
        };
        if out.metrics.is_some() || out.trace.is_some() {
            obs::reset();
            obs::set_enabled(true);
        }
        out
    }

    fn export(&self) -> Result<(), String> {
        if let Some(path) = &self.metrics {
            obs::export::export_metrics_to_path(Path::new(path))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote metrics to {path}");
        }
        if let Some(path) = &self.trace {
            obs::export::export_trace_to_path(Path::new(path))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote trace to {path}");
        }
        Ok(())
    }
}

/// Where the matrix comes from, decided (and checked against the
/// storage flags) from the command line alone: nothing has been read or
/// assembled yet.
enum MatrixSource {
    /// A Matrix Market file (the positional argument).
    File(String),
    /// A generated topological-insulator system (`--nx/--ny/--nz`).
    Lattice(TopoHamiltonian),
}

fn matrix_source(args: &[String]) -> Result<MatrixSource, String> {
    let source = if let Some(path) = positional(args) {
        MatrixSource::File(path.to_string())
    } else {
        let Some(nx) = opt_extent(args, "--nx")? else {
            return Err(format!("need a FILE.mtx or --nx/--ny/--nz\n{USAGE}"));
        };
        let ny = opt_extent(args, "--ny")?.unwrap_or(nx);
        let nz = opt_extent(args, "--nz")?.unwrap_or(nx);
        MatrixSource::Lattice(match opt(args, "--potential") {
            Some("dots") => TopoHamiltonian::quantum_dot_superlattice(nx, ny, nz),
            Some(other) => return Err(format!("unknown potential '{other}' (try: dots)")),
            None => TopoHamiltonian::clean(nx, ny, nz),
        })
    };
    check_format_flags(args, &source)?;
    Ok(source)
}

impl MatrixSource {
    /// The CRS matrix of the source: the file's, or the lattice's CRS
    /// form (coded when the lattice has one).
    fn into_crs(self) -> Result<CrsMatrix, String> {
        let _sp = obs::span::span("setup.assemble", "setup");
        match self {
            MatrixSource::File(path) => {
                let file = File::open(&path).map_err(|e| format!("cannot open {path}: {e}"))?;
                mmio::read(BufReader::new(file)).map_err(|e| e.to_string())
            }
            MatrixSource::Lattice(ham) => Ok(ham.assemble()),
        }
    }
}

/// The Hermiticity gate and the spectral rescaling of every
/// solver-running subcommand: `gate` gives the verdict and, when it
/// passes, the Gershgorin bounds.
fn scale_factors(
    gate: impl FnOnce() -> Result<(f64, f64), KpmError>,
) -> Result<ScaleFactors, String> {
    let _sp = obs::span::span("setup.bounds", "setup");
    let (lo, hi) = gate().map_err(|e| e.to_string())?;
    Ok(ScaleFactors::from_bounds(lo, hi, 0.01))
}

const STENCIL_NEEDS_LATTICE: &str =
    "--format stencil names a generated lattice's operator and cannot be \
     given with a FILE.mtx source (use --nx/--ny/--nz)";

/// The format `--format` names — `crs` unless given — which the
/// `dos` banner and the `report` table print.
fn format_name(args: &[String]) -> &str {
    opt(args, "--format").unwrap_or("crs")
}

fn unknown_format(name: &str) -> String {
    format!("unknown format '{name}' (try: crs, stencil)")
}

/// Rejects contradictory storage flags — and applies the `--no-simd`
/// cap — before anything is loaded.
fn check_format_flags(args: &[String], source: &MatrixSource) -> Result<(), String> {
    if has_flag(args, "--no-simd") {
        kpm_repro::sparse::simd::set_cap(kpm_repro::sparse::simd::Body::Baseline);
    }
    let format = format_name(args);
    if !matches!(format, "crs" | "stencil") {
        return Err(unknown_format(format));
    }
    if format == "stencil" && matches!(source, MatrixSource::File(_)) {
        return Err(STENCIL_NEEDS_LATTICE.into());
    }
    Ok(())
}

/// Loads the matrix: either a Matrix Market file (positional argument)
/// or a generated topological-insulator system (`--nx/--ny/--nz`).
fn load_matrix(args: &[String]) -> Result<CrsMatrix, String> {
    matrix_source(args)?.into_crs()
}

/// The shared prologue of `dos`, `count`, `report` and `serve`: matrix
/// source → Hermiticity gate and spectral bounds → the CRS the solver runs.
///
/// A generated lattice is gated and bounded on its generator — the
/// structural check and the Gershgorin sums of its distinct rows,
/// bit-equal to the entrywise check and the fold over the CRS rows —
/// and then runs as its CRS form, coded when it has one, whichever
/// format is named. A `FILE.mtx` pays the entrywise check and a pass
/// over its rows. Either way the scale factors — and every output byte —
/// do not depend on the format.
fn solver_matrix(args: &[String]) -> Result<(CrsMatrix, ScaleFactors), String> {
    let ham = match matrix_source(args)? {
        MatrixSource::Lattice(ham) => ham,
        file => {
            let h = file.into_crs()?;
            let sf = scale_factors(|| h.check_hermitian().map(|()| h.gershgorin_bounds()))?;
            return Ok((h, sf));
        }
    };
    let st = {
        let _sp = obs::span::span("setup.assemble", "setup");
        ham.stencil_matrix()
    };
    let sf = scale_factors(|| st.check_hermitian().map(|()| st.gershgorin_bounds()))?;
    let _sp = obs::span::span("setup.format", "setup");
    Ok((st.to_crs(), sf))
}

/// Runs a command's set-up and solve on one pool: the `--threads` pool
/// is built once here, and the solver finds it installed.
fn in_pool<T>(threads: usize, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    with_threads(threads, f).map_err(|e| e.to_string())?
}

/// The solver flags, validated here — before anything is loaded — so a
/// bad `--moments` or `--random` names its flag and costs no assembly.
fn solver_params(args: &[String]) -> Result<KpmParams, String> {
    let params = KpmParams {
        num_moments: opt_usize(args, "--moments", 256)?,
        num_random: opt_usize(args, "--random", 8)?,
        seed: opt_usize(args, "--seed", 2015)? as u64,
        parallel: true,
        threads: opt_usize(args, "--threads", 0)?,
        power: 1,
        first_touch: false,
    };
    params.validate().map_err(|e| flag_error(&e, &params, 0))?;
    Ok(params)
}

/// A solver-parameter error as a `bad value for --flag` line naming the
/// flag it came from.
fn flag_error(e: &KpmError, params: &KpmParams, points: usize) -> String {
    let what = match e {
        KpmError::InvalidParams { what, .. } => *what,
        _ => "",
    };
    match what {
        "num_moments" => format!("bad value for --moments: {} ({e})", params.num_moments),
        "num_random" => format!("bad value for --random: {} ({e})", params.num_random),
        "points" => format!("bad value for --points: {points} ({e})"),
        _ => e.to_string(),
    }
}

/// Refuses, naming the flag, a run on `n` rows whose `--random`,
/// `--moments` or `--points` sizes a buffer this host cannot allocate,
/// before the solver would abort allocating it.
fn check_run_fits(n: usize, params: &KpmParams, points: usize) -> Result<(), String> {
    check_allocatable(n, params.num_random, params.num_moments, points)
        .map_err(|e| flag_error(&e, params, points))
}

/// The banner fields naming how a CRS matrix stores its values and what
/// its sweep walks, at every width: the site blocks of a coded lattice
/// matrix, or the entries.
fn value_storage(h: &CrsMatrix) -> String {
    let values = match h.value_table() {
        Some(table) => format!("coded ({} distinct)", table.len()),
        None => "plain".into(),
    };
    let walk = match h.site_blocks() {
        Some(blocks) => format!("sites ({blocks} codes)"),
        None => "entries".into(),
    };
    format!(", values = {values}, walk = {walk}")
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    check_args(args, &[MATRIX_FLAGS, THREADS_FLAGS, GENERATE_FLAGS])?;
    let out_path = opt(args, "--out").ok_or("generate needs --out FILE.mtx")?;
    let h = in_pool(opt_usize(args, "--threads", 0)?, || load_matrix(args))?;
    let file = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    let mut w = BufWriter::new(file);
    mmio::write_hermitian(&h, &mut w).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {out_path}: {} rows, {} non-zeros",
        h.nrows(),
        h.nnz()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    check_args(args, &[MATRIX_FLAGS, THREADS_FLAGS])?;
    let h = in_pool(opt_usize(args, "--threads", 0)?, || load_matrix(args))?;
    let s = stats::analyze(&h, 8.max(h.nrows() / 100));
    println!("rows x cols   : {} x {}", s.nrows, s.ncols);
    println!("non-zeros     : {} ({:.2} per row)", s.nnz, s.avg_row_len);
    println!("row lengths   : {}..{}", s.min_row_len, s.max_row_len);
    println!("bandwidth     : {}", s.bandwidth);
    println!("hermitian     : {}", h.is_hermitian());
    println!("stencil       : {}", s.is_stencil());
    let (lo, hi) = h.gershgorin_bounds();
    println!("gershgorin    : [{lo:.4}, {hi:.4}]");
    println!("diagonals     : {} detected", s.diagonals.len());
    for d in s.diagonals.iter().take(16) {
        println!(
            "  offset {:>8}: {:>9} entries ({:.0}% occupied)",
            d.offset,
            d.count,
            100.0 * d.occupancy
        );
    }
    let corners = s.corner_diagonals(0.5);
    if !corners.is_empty() {
        println!("corner diags  : {corners:?} (periodic wrap-arounds)");
    }
    Ok(())
}

fn cmd_dos(args: &[String]) -> Result<(), String> {
    check_args(
        args,
        &[
            MATRIX_FLAGS,
            SOLVER_FLAGS,
            OBS_FLAGS,
            FORMAT_FLAGS,
            DOS_FLAGS,
        ],
    )?;
    let params = solver_params(args)?;
    let points = opt_points(args, 1024)?;
    let outputs = ObsOutputs::from_args(args);
    let curve = in_pool(params.threads, || {
        let (m, sf) = solver_matrix(args)?;
        check_run_fits(m.nrows(), &params, points)?;
        eprintln!(
            "N = {}, Nnz = {}, M = {}, R = {}, format = {}{}",
            m.nrows(),
            m.nnz(),
            params.num_moments,
            params.num_random,
            format_name(args),
            value_storage(&m)
        );
        let moments =
            kpm_moments(&m, sf, &params, KpmVariant::AugSpmmv).map_err(|e| e.to_string())?;
        Ok(reconstruct(&moments, Kernel::Jackson, sf, points))
    })?;
    // A closed pipe (`kpm dos ... | head`) must not abort the run: stop
    // emitting rows but still write the requested metric/trace exports.
    let out = std::io::stdout();
    let mut out = std::io::BufWriter::new(out.lock());
    let mut write_row = |line: std::fmt::Arguments| -> bool {
        use std::io::Write as _;
        out.write_fmt(line).and_then(|()| writeln!(out)).is_ok()
    };
    if write_row(format_args!("energy,dos")) {
        for (e, v) in curve.energies.iter().zip(&curve.values) {
            if !write_row(format_args!("{e},{v}")) {
                break;
            }
        }
    }
    outputs.export()
}

fn cmd_count(args: &[String]) -> Result<(), String> {
    check_args(
        args,
        &[
            MATRIX_FLAGS,
            SOLVER_FLAGS,
            OBS_FLAGS,
            FORMAT_FLAGS,
            COUNT_FLAGS,
        ],
    )?;
    let e_lo = opt_finite(args, "--from")?.ok_or("count needs --from E")?;
    let e_hi = opt_finite(args, "--to")?.ok_or("count needs --to E")?;
    if e_lo >= e_hi {
        return Err("--from must be below --to".into());
    }
    let params = solver_params(args)?;
    let outputs = ObsOutputs::from_args(args);
    let (n, count) = in_pool(params.threads, || {
        let (m, sf) = solver_matrix(args)?;
        check_run_fits(m.nrows(), &params, 0)?;
        let moments =
            kpm_moments(&m, sf, &params, KpmVariant::AugSpmmv).map_err(|e| e.to_string())?;
        let n = m.nrows();
        Ok((
            n,
            count_from_moments(&moments, Kernel::Jackson, sf, n, e_lo, e_hi),
        ))
    })?;
    println!("estimated eigenvalues in [{e_lo}, {e_hi}]: {count:.1} of {n}");
    outputs.export()
}

/// Largest `--llc-mib` the cachesim replay of `kpm report` accepts.
const MAX_LLC_MIB: usize = 1024;

/// `kpm report` — runs all three solver variants instrumented and prints
/// the achieved-vs-predicted roofline table: per-kernel achieved GF/s,
/// minimum bytes/flop, the *live* Ω from a warm cachesim replay of the
/// kernel's own address stream, and the model prediction
/// `P* = min(P_MEM, P_LLC)` (paper Eq. 11) at that Ω (at 1 when the
/// operator is cache-resident and the replay measures less).
fn cmd_report(args: &[String]) -> Result<(), String> {
    check_args(
        args,
        &[
            MATRIX_FLAGS,
            SOLVER_FLAGS,
            OBS_FLAGS,
            FORMAT_FLAGS,
            REPORT_FLAGS,
        ],
    )?;
    let params = solver_params(args)?;
    let machine_name = opt(args, "--machine").unwrap_or("IVB");
    let machine = Machine::by_name(machine_name)
        .ok_or_else(|| format!("unknown machine '{machine_name}' (try: IVB, SNB, K20m, K20X)"))?;
    let llc_mib = opt_finite(args, "--llc-mib")?.unwrap_or(machine.llc_mib);
    let llc = CacheConfig {
        capacity_bytes: (llc_mib * 1024.0 * 1024.0) as usize,
        line_bytes: 64,
        ways: 16,
    };
    // One set at least, and a replay that fits in memory (the simulator
    // keeps a record per line).
    let one_set = llc.ways * llc.line_bytes;
    if !(one_set..=MAX_LLC_MIB << 20).contains(&llc.capacity_bytes) {
        return Err(format!(
            "bad value for --llc-mib: {llc_mib} (the simulated LLC holds between {one_set} B \
             — {} ways of {} B lines — and {MAX_LLC_MIB} MiB)",
            llc.ways, llc.line_bytes
        ));
    }
    let sweeps = opt_usize(args, "--sweeps", 3)?.max(1);
    let outputs = ObsOutputs::from_args(args);

    // The report needs the probes regardless of the export flags.
    obs::set_enabled(true);
    // The CRS is kept for the cachesim replay.
    let format = format_name(args);
    let h = in_pool(params.threads, || {
        let (h, sf) = solver_matrix(args)?;
        check_run_fits(h.nrows(), &params, 0)?;
        eprintln!(
            "N = {}, Nnz = {}, M = {}, R = {}, machine = {}, LLC = {llc_mib} MiB, format = {}{} \
             (lanes = {}, sweep body = {})",
            h.nrows(),
            h.nnz(),
            params.num_moments,
            params.num_random,
            machine.name,
            format,
            value_storage(&h),
            kpm_repro::sparse::simd::active_lanes(),
            kpm_repro::sparse::simd::body_name()
        );
        // What the table divides by, and how much of it the sweep runs:
        // counted here, over the CRS the replay keeps anyway.
        let axial_in = |row: usize| {
            let row = h.row(row);
            let axial = row.vals().iter().filter(|v| v.re == 0.0 || v.im == 0.0);
            axial.count()
        };
        let axial: usize = (0..h.nrows()).map(axial_in).sum();
        eprintln!(
            "GF/s = paper Table I flops (8 per entry and block column) per second; {:.1} % of \
             the entries have an exactly-zero part, and at R >= 16 a row of such entries alone \
             skips the products with it",
            100.0 * axial as f64 / h.nnz().max(1) as f64
        );
        // The blocked variant first: its initialisation is one width-R
        // `spmv` call, and the probe's `width` column is that of a
        // kind's last call — the naive loop's width-1 ones.
        for variant in [KpmVariant::AugSpmmv, KpmVariant::Naive, KpmVariant::AugSpmv] {
            kpm_moments(&h, sf, &params, variant).map_err(|e| e.to_string())?;
        }
        Ok(h)
    })?;

    let nnzr = h.nnz() as f64 / h.nrows() as f64;
    println!("kernel     fmt      calls  width  achieved-GF/s  GB-moved  GB/s   B_min(B/F)  omega-live  omega-pred  B_eff(B/F)  P*(GF/s)  %P*");
    for rep in obs::probe::snapshot() {
        let r = rep.width.max(1) as usize;
        let live = measure_omega_kernel(&h, rep.kind, r, llc, sweeps);
        let pred = measure_omega_kernel(&h, rep.kind, r, llc, 1);
        // A warm replay of an operator that fits the simulated LLC
        // measures Ω < 1; the omega columns show that, and the roofline
        // — a model of memory traffic, Ω ≥ 1 — is evaluated at 1.
        let point = custom_roofline(&machine, nnzr, r, live.omega.max(1.0));
        let b_eff = rep.min_bytes_per_flop() * live.omega;
        let achieved = rep.gflops();
        let gb_moved = rep.min_bytes as f64 / 1e9;
        let gb_per_s = if rep.seconds > 0.0 {
            gb_moved / rep.seconds
        } else {
            0.0
        };
        println!(
            "{:<9} {:<7} {:>6} {:>6}  {:>13.2}  {:>8.3}  {:>5.1}  {:>10.2}  {:>10.3}  {:>10.3}  {:>10.2}  {:>8.1}  {:>3.0}",
            rep.kind.name(),
            format,
            rep.calls,
            r,
            achieved,
            gb_moved,
            gb_per_s,
            rep.min_bytes_per_flop(),
            live.omega,
            pred.omega,
            b_eff,
            point.p_star,
            100.0 * achieved / point.p_star
        );
    }
    outputs.export()
}

/// Request lines accepted by `kpm serve` (one request per line; blank
/// lines and `#` comments skipped; `quit` stops reading early):
///
/// ```text
/// dos SEED R M [DEADLINE_MS]
/// ldos SITE M [DEADLINE_MS]
/// green SEED R M [DEADLINE_MS]
/// ```
///
/// Any other line, a token past `DEADLINE_MS` included, is an `Err`
/// naming what it could not read.
fn parse_request_line(
    line: &str,
    matrix: u64,
    kernel: Kernel,
    points: usize,
) -> Result<Option<Request>, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let int = |s: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|_| format!("bad number '{s}' in '{line}'"))
    };
    // At most one token after the sizes: the deadline.
    let deadline = |rest: &[&str]| -> Result<Option<std::time::Duration>, String> {
        match rest {
            [] => Ok(None),
            [ms] => int(ms).map(|ms| Some(std::time::Duration::from_millis(ms))),
            [_, extra, ..] => Err(format!("unexpected token '{extra}' in '{line}'")),
        }
    };
    let (kind, num_moments, deadline) = match tokens.as_slice() {
        [] => return Ok(None),
        ["quit"] => return Ok(None),
        ["dos", seed, r, m, rest @ ..] => (
            QueryKind::Dos {
                seed: int(seed)?,
                num_random: int(r)? as usize,
            },
            int(m)? as usize,
            deadline(rest)?,
        ),
        ["ldos", site, m, rest @ ..] => (
            QueryKind::Ldos {
                site: int(site)? as usize,
            },
            int(m)? as usize,
            deadline(rest)?,
        ),
        ["green", seed, r, m, rest @ ..] => (
            QueryKind::Green {
                seed: int(seed)?,
                num_random: int(r)? as usize,
            },
            int(m)? as usize,
            deadline(rest)?,
        ),
        _ => {
            return Err(format!(
                "cannot parse request '{line}' (expected 'dos SEED R M [MS]', \
                 'ldos SITE M [MS]' or 'green SEED R M [MS]')"
            ))
        }
    };
    Ok(Some(Request {
        matrix,
        kind,
        num_moments,
        kernel,
        points,
        deadline,
    }))
}

/// A scalar digest of the reconstructed curve, so smoke tests can
/// assert the served numbers without shipping whole curves as JSON.
fn curve_checksum(curve: &kpm_repro::service::Curve) -> f64 {
    use kpm_repro::service::Curve;
    match curve {
        Curve::Dos(c) | Curve::Ldos(c) => c.values.iter().sum(),
        Curve::Green(c) => c.values.iter().map(|v| v.norm_sqr().sqrt()).sum(),
    }
}

/// The trace id + exact per-stage latency breakdown carried on every
/// traced reply, as a JSON fragment (empty when tracing is off).
fn trace_fragment(stats: &kpm_repro::service::ReplyStats) -> String {
    if stats.trace == 0 {
        return String::new();
    }
    let s = &stats.stages;
    format!(
        ", \"trace\": {}, \"stages_us\": {{\"queue\": {}, \"batch\": {}, \
         \"solve\": {}, \"reply\": {}, \"total\": {}}}",
        stats.trace,
        obs::json::num(s.queue_us),
        obs::json::num(s.batch_us),
        obs::json::num(s.solve_us),
        obs::json::num(s.reply_us),
        obs::json::num(s.total_us()),
    )
}

/// One JSON reply line per request, in submission order.
fn serve_reply_line(index: usize, resp: &kpm_repro::service::Response) -> String {
    use kpm_repro::service::Outcome;
    let trace = trace_fragment(&resp.stats);
    match &resp.outcome {
        Outcome::Success(answer) => format!(
            "{{\"request\": {index}, \"status\": \"ok\", \"m_served\": {}, \
             \"cache_hit\": {}, \"batch_width\": {}, \"checksum\": {}{trace}}}",
            answer.moments.len(),
            resp.stats.cache_hit,
            resp.stats.batch_width,
            obs::json::num(curve_checksum(&answer.curve)),
        ),
        Outcome::Degraded { answer, info } => format!(
            "{{\"request\": {index}, \"status\": \"degraded\", \"m_requested\": {}, \
             \"m_served\": {}, \"extra_broadening\": {}, \"from_cache\": {}, \"checksum\": {}{trace}}}",
            info.requested_moments,
            info.served_moments,
            obs::json::num(info.extra_broadening),
            info.from_cache,
            obs::json::num(curve_checksum(&answer.curve)),
        ),
        Outcome::Failed(e) => {
            let e = obs::json::escape(&e.to_string());
            format!("{{\"request\": {index}, \"status\": \"error\", \"error\": \"{e}\"{trace}}}")
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    check_args(args, &[MATRIX_FLAGS, OBS_FLAGS, FORMAT_FLAGS, SERVE_FLAGS])?;
    let points = opt_points(args, 256)?;
    let workers = opt_workers(args)?;
    let kernel = match opt(args, "--kernel").unwrap_or("jackson") {
        "jackson" => Kernel::Jackson,
        "dirichlet" => Kernel::Dirichlet,
        "lorentz" => Kernel::Lorentz(opt_f64(args, "--lambda")?.unwrap_or(3.0)),
        other => {
            return Err(format!(
                "unknown kernel '{other}' (try: jackson, dirichlet, lorentz)"
            ))
        }
    };
    let outputs = ObsOutputs::from_args(args);
    let flight_prefix = opt(args, "--flight-recorder").map(str::to_string);
    let deadline_ms = opt_usize(args, "--deadline-ms", 2000)?.max(1);
    // SLO threshold defaults to the deadline; burn rates > 1 on the
    // closing ledger line mean the error budget is being consumed
    // faster than the objective allows.
    let slo_ms = opt_usize(args, "--slo-ms", deadline_ms)?.max(1);
    let slo_goal = opt_f64(args, "--slo-goal")?.unwrap_or(0.99);
    if flight_prefix.is_some() && outputs.metrics.is_none() && outputs.trace.is_none() {
        // The recorder rides on the same runtime gate as the exporters.
        obs::reset();
        obs::set_enabled(true);
    }
    if obs::enabled() {
        for route in ["dos", "ldos", "green"] {
            obs::slo::objective(route, (slo_ms as u64).saturating_mul(1_000_000), slo_goal);
        }
        if let Some(prefix) = &flight_prefix {
            obs::recorder::configure_dump(prefix);
            obs::recorder::arm_sigterm();
        }
    }
    let (m, sf) = solver_matrix(args)?;

    let width = opt_usize(args, "--width", MAX_BATCH_WIDTH)?.max(1);
    if width > MAX_BATCH_WIDTH {
        eprintln!(
            "kpm: --width {width} clamped to {MAX_BATCH_WIDTH}, the widest batch the service runs"
        );
    }
    let config = ServiceConfig {
        workers,
        queue_capacity: opt_usize(args, "--queue", 64)?.max(1),
        max_batch_width: width.min(MAX_BATCH_WIDTH),
        default_deadline: std::time::Duration::from_millis(deadline_ms as u64),
        ..ServiceConfig::default()
    };
    let svc = Service::start(config);
    let fingerprint = svc.register_matrix(m, sf);
    eprintln!(
        "serving matrix {fingerprint:#018x}; reading requests from stdin (EOF or 'quit' drains and exits)"
    );

    // Submit everything first so concurrent same-matrix requests
    // coalesce into block solves; replies print in submission order.
    enum Slot {
        Ticket(kpm_repro::service::Ticket),
        Line(String),
    }
    let mut slots: Vec<Slot> = Vec::new();
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        use std::io::BufRead as _;
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed == "quit" {
            break;
        }
        let index = slots.len();
        // A line that does not parse is answered in its place, typed;
        // the requests around it are served.
        let req = match parse_request_line(trimmed, fingerprint, kernel, points) {
            Ok(Some(req)) => req,
            Ok(None) => continue,
            Err(e) => {
                slots.push(Slot::Line(format!(
                    "{{\"request\": {index}, \"status\": \"error\", \"error\": \"{}\"}}",
                    obs::json::escape(&e)
                )));
                continue;
            }
        };
        match svc.submit(req) {
            Admission::Admitted(ticket) => slots.push(Slot::Ticket(ticket)),
            Admission::Rejected {
                retry_after,
                reason,
            } => {
                let reason = match reason {
                    RejectReason::QueueFull => "queue_full",
                    RejectReason::PastDeadline => "past_deadline",
                    RejectReason::ShuttingDown => "shutting_down",
                };
                slots.push(Slot::Line(format!(
                    "{{\"request\": {index}, \"status\": \"rejected\", \"reason\": \"{reason}\", \
                     \"retry_after_ms\": {}}}",
                    obs::json::num(retry_after.as_secs_f64() * 1e3),
                )));
            }
        }
    }

    for (index, slot) in slots.iter().enumerate() {
        match slot {
            Slot::Line(json) => println!("{json}"),
            Slot::Ticket(ticket) => match ticket.wait() {
                Some(resp) => println!("{}", serve_reply_line(index, &resp)),
                None => println!(
                    "{{\"request\": {index}, \"status\": \"error\", \"error\": \"service dropped the reply\"}}"
                ),
            },
        }
    }

    if obs::recorder::sigterm_seen() {
        if let Some(path) = obs::recorder::trigger_dump("sigterm") {
            eprintln!("SIGTERM: wrote flight-recorder dump to {path}");
        }
    }
    let ledger = svc.shutdown(ShutdownMode::Drain);
    // Per-route SLO burn rates ride on the ledger line: burn = (bad
    // fraction) / (error budget), so > 1 means the objective is being
    // missed. Empty when instrumentation is off.
    let mut slo = String::new();
    for r in obs::slo::snapshot() {
        if r.events == 0 {
            continue;
        }
        if !slo.is_empty() {
            slo.push_str(", ");
        }
        let _ = std::fmt::Write::write_fmt(
            &mut slo,
            format_args!(
                "{{\"route\": \"{}\", \"events\": {}, \"breaches\": {}, \"burn_rate\": {}, \
                 \"window_burn_rate\": {}}}",
                obs::json::escape(&r.route),
                r.events,
                r.breaches,
                obs::json::num(r.burn_rate),
                obs::json::num(r.window_burn_rate),
            ),
        );
    }
    println!(
        "{{\"ledger\": {{\"admitted\": {}, \"replied\": {}, \"rejected\": {}, \"degraded\": {}, \
         \"cache_hits\": {}, \"consistent\": {}, \"slo\": [{slo}]}}}}",
        ledger.admitted,
        ledger.replied,
        ledger.rejected,
        ledger.degraded,
        ledger.cache_hits,
        ledger.consistent(),
    );
    if !ledger.consistent() {
        return Err("service ledger imbalance: admitted != replied".into());
    }
    outputs.export()
}

/// Mangles a dotted kpm-obs metric name into a Prometheus-legal one:
/// `svc.queue.wait_ns` becomes `kpm_svc_queue_wait_ns`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("kpm_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// `kpm stats` — re-serializes a `kpm-obs-v1` metrics JSONL snapshot
/// (written by `--metrics-out`) as a Prometheus text exposition on
/// stdout. Pure file-to-file: no network listener, no added deps.
fn cmd_stats(args: &[String]) -> Result<(), String> {
    check_args(args, &[])?;
    let path = positional(args).ok_or_else(|| format!("need a metrics FILE.jsonl\n{USAGE}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let num_of = |v: &obs::json::Value, key: &str| v.get(key).and_then(obs::json::Value::as_f64);
    let fmt = obs::json::num;
    let mut typed: Vec<String> = Vec::new();
    let mut type_line = |name: &str, kind: &str| -> String {
        if typed.iter().any(|t| t == name) {
            String::new()
        } else {
            typed.push(name.to_string());
            format!("# TYPE {name} {kind}\n")
        }
    };
    let mut out = String::new();
    use std::fmt::Write as _;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = obs::json::parse(line).map_err(|e| format!("{path}: bad JSONL line: {e}"))?;
        let kind = v
            .get("type")
            .and_then(obs::json::Value::as_str)
            .unwrap_or("");
        let name = v
            .get("name")
            .and_then(obs::json::Value::as_str)
            .unwrap_or("");
        match kind {
            "counter" | "gauge" => {
                let p = prom_name(name);
                let _ = writeln!(
                    out,
                    "{}{p} {}",
                    type_line(&p, kind),
                    fmt(num_of(&v, "value").unwrap_or(0.0)),
                );
            }
            "exact_histogram" => {
                // Log-linear exact-percentile histogram -> Prometheus
                // summary with a `scope` label (total vs sliding window).
                let p = prom_name(name);
                let scope = v
                    .get("scope")
                    .and_then(obs::json::Value::as_str)
                    .unwrap_or("total");
                let _ = write!(out, "{}", type_line(&p, "summary"));
                for (q, key) in [
                    ("0.5", "p50"),
                    ("0.9", "p90"),
                    ("0.99", "p99"),
                    ("0.999", "p999"),
                ] {
                    let _ = writeln!(
                        out,
                        "{p}{{scope=\"{scope}\",quantile=\"{q}\"}} {}",
                        fmt(num_of(&v, key).unwrap_or(0.0)),
                    );
                }
                let _ = writeln!(
                    out,
                    "{p}_sum{{scope=\"{scope}\"}} {}\n{p}_count{{scope=\"{scope}\"}} {}",
                    fmt(num_of(&v, "sum").unwrap_or(0.0)),
                    fmt(num_of(&v, "count").unwrap_or(0.0)),
                );
            }
            "slo" => {
                let route = v
                    .get("route")
                    .and_then(obs::json::Value::as_str)
                    .unwrap_or("");
                for (metric, key, mkind) in [
                    ("kpm_slo_events_total", "events", "counter"),
                    ("kpm_slo_breaches_total", "breaches", "counter"),
                    ("kpm_slo_goal", "goal", "gauge"),
                    ("kpm_slo_burn_rate", "burn_rate", "gauge"),
                    ("kpm_slo_window_burn_rate", "window_burn_rate", "gauge"),
                ] {
                    let _ = writeln!(
                        out,
                        "{}{metric}{{route=\"{route}\"}} {}",
                        type_line(metric, mkind),
                        fmt(num_of(&v, key).unwrap_or(0.0)),
                    );
                }
            }
            "kernel" => {
                let k = v
                    .get("kernel")
                    .and_then(obs::json::Value::as_str)
                    .unwrap_or("");
                for (metric, key, mkind) in [
                    ("kpm_kernel_calls_total", "calls", "counter"),
                    ("kpm_kernel_seconds_total", "seconds", "counter"),
                    ("kpm_kernel_gflops", "gflops", "gauge"),
                    ("kpm_kernel_min_balance_bytes_per_flop", "min_bf", "gauge"),
                ] {
                    let _ = writeln!(
                        out,
                        "{}{metric}{{kernel=\"{k}\"}} {}",
                        type_line(metric, mkind),
                        fmt(num_of(&v, key).unwrap_or(0.0)),
                    );
                }
            }
            _ => {}
        }
    }
    print!("{out}");
    Ok(())
}

/// One span as reconstructed from a Chrome trace export or a
/// flight-recorder dump.
struct ReportSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    trace: u64,
    lamport: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    args: Vec<(String, String)>,
}

impl ReportSpan {
    fn arg_f64(&self, key: &str) -> Option<f64> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
    }

    fn arg_str(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Extracts traced spans from a Chrome trace-event document.
fn spans_from_chrome(doc: &obs::json::Value) -> Result<Vec<ReportSpan>, String> {
    use obs::json::Value;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("not a Chrome trace: missing traceEvents")?;
    let mut spans = Vec::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let args = e.get("args");
        let arg_u64 = |key: &str| -> Option<u64> {
            args.and_then(|a| a.get(key))
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
        };
        let mut extra = Vec::new();
        if let Some(Value::Obj(pairs)) = args {
            for (k, v) in pairs {
                if matches!(k.as_str(), "parent" | "trace" | "lamport") {
                    continue;
                }
                if let Some(s) = v.as_str() {
                    extra.push((k.clone(), s.to_string()));
                }
            }
        }
        spans.push(ReportSpan {
            id: e
                .get("id")
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            parent: arg_u64("parent"),
            name: e
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            trace: arg_u64("trace").unwrap_or(0),
            lamport: arg_u64("lamport").unwrap_or(0),
            tid: e.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            ts_us: e.get("ts").and_then(Value::as_f64).unwrap_or(0.0),
            dur_us: e.get("dur").and_then(Value::as_f64).unwrap_or(0.0),
            args: extra,
        });
    }
    Ok(spans)
}

/// Extracts spans from a `kpm-flight-v1` flight-recorder JSONL dump.
fn spans_from_flight(text: &str) -> Result<Vec<ReportSpan>, String> {
    use obs::json::Value;
    let mut spans = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = obs::json::parse(line).map_err(|e| format!("bad flight JSONL line: {e}"))?;
        if v.get("type").and_then(Value::as_str) != Some("span") {
            continue;
        }
        let mut extra = Vec::new();
        if let Some(Value::Obj(pairs)) = v.get("args") {
            for (k, av) in pairs {
                if let Some(s) = av.as_str() {
                    extra.push((k.clone(), s.to_string()));
                }
            }
        }
        spans.push(ReportSpan {
            id: v.get("id").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            parent: v.get("parent").and_then(Value::as_f64).map(|p| p as u64),
            name: v
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            trace: v.get("trace").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            lamport: v.get("lamport").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            tid: v.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            ts_us: v.get("ts_us").and_then(Value::as_f64).unwrap_or(0.0),
            dur_us: v.get("dur_us").and_then(Value::as_f64).unwrap_or(0.0),
            args: extra,
        });
    }
    Ok(spans)
}

/// `kpm trace-report` — reconstructs the per-request critical path from
/// a Chrome trace export (and optionally a flight-recorder dump),
/// checks that the stage breakdown tiles each request's end-to-end
/// latency, and attributes solve wall time to the roofline model.
fn cmd_trace_report(args: &[String]) -> Result<(), String> {
    check_args(args, &[TRACE_REPORT_FLAGS])?;
    let path = positional(args).ok_or_else(|| format!("need a trace FILE.json\n{USAGE}"))?;
    let machine_name = opt(args, "--machine").unwrap_or("IVB");
    let machine = Machine::by_name(machine_name)
        .ok_or_else(|| format!("unknown machine '{machine_name}' (try: IVB, SNB, K20m, K20X)"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut spans = spans_from_chrome(&doc)?;
    if let Some(flight) = opt(args, "--flight") {
        let ftext =
            std::fs::read_to_string(flight).map_err(|e| format!("cannot read {flight}: {e}"))?;
        let extra = spans_from_flight(&ftext)?;
        // Chrome export and flight dump overlap; keep one copy per id.
        for s in extra {
            if !spans.iter().any(|have| have.id == s.id) {
                spans.push(s);
            }
        }
    }

    let mut traces: Vec<u64> = spans.iter().map(|s| s.trace).filter(|&t| t != 0).collect();
    traces.sort_unstable();
    traces.dedup();
    if traces.is_empty() {
        println!("no traced requests in {path} (serve with --trace-out and tracing enabled)");
        return Ok(());
    }

    println!(
        "machine = {} (peak {:.0} GF/s, bw {:.0} GB/s); {} traced request(s)",
        machine.name,
        machine.peak_gflops,
        machine.mem_bw_gbs,
        traces.len()
    );
    println!(
        "{:<7} {:>6} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9} {:>8}",
        "trace",
        "route",
        "outcome",
        "e2e_us",
        "queue",
        "batch",
        "solve",
        "reply",
        "cover%",
        "orphan",
        "B_min",
        "P*(GF/s)"
    );
    let (mut sum_e2e, mut sums) = (0.0f64, [0.0f64; 4]);
    let mut worst_cover = f64::INFINITY;
    let mut total_orphans = 0usize;
    for &trace in &traces {
        let mut mine: Vec<&ReportSpan> = spans.iter().filter(|s| s.trace == trace).collect();
        // Lamport order is the causal order across threads; wall-clock
        // ties (retroactive stage spans) break by ts.
        mine.sort_by(|a, b| {
            (a.lamport, a.ts_us)
                .partial_cmp(&(b.lamport, b.ts_us))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let root = mine.iter().find(|s| s.name == "svc.request");
        let stage = |name: &str| -> f64 {
            mine.iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_us)
                .sum()
        };
        let stages = [
            stage("svc.stage.queue"),
            stage("svc.stage.batch"),
            stage("svc.stage.solve"),
            stage("svc.stage.reply"),
        ];
        let stage_sum: f64 = stages.iter().sum();
        let e2e = root.map_or(stage_sum, |r| r.dur_us);
        let cover = if e2e > 0.0 {
            100.0 * stage_sum / e2e
        } else {
            100.0
        };
        worst_cover = worst_cover.min(cover);
        // A parent in another trace is legitimate causality (one batch
        // solve serves several requests); an orphan is a parent id that
        // resolves nowhere in the whole pool.
        let orphans = mine
            .iter()
            .filter(|s| {
                s.parent
                    .map(|p| !spans.iter().any(|q| q.id == p))
                    .unwrap_or(false)
            })
            .count();
        total_orphans += orphans;
        // The carrying block solve: this trace's own svc.solve span, or
        // the shared one reached by walking up from the reply span.
        let ancestor_solve = || -> Option<&ReportSpan> {
            let mut cur = mine.iter().find(|s| s.name == "svc.reply")?.parent;
            for _ in 0..16 {
                let s = spans.iter().find(|q| Some(q.id) == cur)?;
                if s.name == "svc.solve" {
                    return Some(s);
                }
                cur = s.parent;
            }
            None
        };
        let solve_span = mine
            .iter()
            .find(|s| s.name == "svc.solve")
            .copied()
            .or_else(ancestor_solve);
        let roof = solve_span.and_then(|s| {
            let rows = s.arg_f64("rows")?;
            let nnz = s.arg_f64("nnz")?;
            let width = s.arg_f64("width")? as usize;
            if rows <= 0.0 {
                return None;
            }
            Some(custom_roofline(&machine, nnz / rows, width.max(1), 1.0))
        });
        println!(
            "{:<7} {:>6} {:>9} {:>10.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>7.1} {:>7} {:>9} {:>8}",
            trace,
            root.and_then(|r| r.arg_str("route")).unwrap_or("?"),
            root.and_then(|r| r.arg_str("outcome")).unwrap_or("?"),
            e2e,
            stages[0],
            stages[1],
            stages[2],
            stages[3],
            cover,
            orphans,
            roof.map_or("-".to_string(), |p| format!("{:.2}", p.balance)),
            roof.map_or("-".to_string(), |p| format!("{:.1}", p.p_star)),
        );
        sum_e2e += e2e;
        for (acc, s) in sums.iter_mut().zip(stages) {
            *acc += s;
        }
        if has_flag(args, "--paths") {
            for s in &mine {
                println!(
                    "    L{:<6} {:<18} tid={} ts={:.1} dur={:.1}us",
                    s.lamport, s.name, s.tid, s.ts_us, s.dur_us
                );
            }
        }
    }
    if sum_e2e > 0.0 {
        println!(
            "attribution: queue {:.1}%  batch {:.1}%  solve {:.1}%  reply {:.1}%  \
             (stage sum covers {:.1}% of wall time; worst request {:.1}%)",
            100.0 * sums[0] / sum_e2e,
            100.0 * sums[1] / sum_e2e,
            100.0 * sums[2] / sum_e2e,
            100.0 * sums[3] / sum_e2e,
            100.0 * sums.iter().sum::<f64>() / sum_e2e,
            worst_cover,
        );
    }
    if total_orphans > 0 {
        return Err(format!(
            "{total_orphans} orphan span(s): parent ids missing from their own trace"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn opt_parsing() {
        let a = args(&["--nx", "12", "file.mtx", "--moments", "64"]);
        assert_eq!(opt(&a, "--nx"), Some("12"));
        assert_eq!(opt_usize(&a, "--moments", 0).unwrap(), 64);
        assert_eq!(opt_usize(&a, "--missing", 7).unwrap(), 7);
        assert!(opt_usize(&args(&["--nx", "abc"]), "--nx", 0).is_err());
    }

    #[test]
    fn threads_flag_reaches_solver_params() {
        let a = args(&["--threads", "4"]);
        assert_eq!(solver_params(&a).unwrap().threads, 4);
        assert_eq!(solver_params(&args(&[])).unwrap().threads, 0);
        assert!(check_args(&a, &[MATRIX_FLAGS, SOLVER_FLAGS]).is_ok());
        assert!(check_args(&a, &[MATRIX_FLAGS, THREADS_FLAGS]).is_ok());
    }

    #[test]
    fn positional_skips_flag_values() {
        let a = args(&["--nx", "12", "file.mtx"]);
        assert_eq!(positional(&a), Some("file.mtx"));
        let b = args(&["--nx", "12"]);
        assert_eq!(positional(&b), None);
    }

    #[test]
    fn load_generated_matrix() {
        let a = args(&["--nx", "4", "--ny", "4", "--nz", "2"]);
        let h = load_matrix(&a).unwrap();
        assert_eq!(h.nrows(), 4 * 4 * 4 * 2);
        assert!(h.is_hermitian());
        assert!(h.value_table().is_some(), "a generated lattice is coded");
    }

    #[test]
    fn load_requires_source() {
        assert!(load_matrix(&args(&["--moments", "64"])).is_err());
    }

    #[test]
    fn unknown_potential_rejected() {
        let a = args(&["--nx", "4", "--potential", "banana"]);
        assert!(load_matrix(&a).is_err());
    }

    #[test]
    fn unknown_flag_rejected_with_hint() {
        // The typo the strict parser exists for: --moment vs --moments.
        let a = args(&["--nx", "4", "--moment", "512"]);
        let err = check_args(&a, &[MATRIX_FLAGS, SOLVER_FLAGS]).unwrap_err();
        assert!(err.contains("--moment"), "{err}");
        assert!(err.contains("--moments"), "{err}");
    }

    #[test]
    fn repeated_flag_and_missing_value_rejected_naming_the_flag() {
        // Both used to run: the first value won, the default filled in.
        let dos_flags: &[&[&str]] = &[MATRIX_FLAGS, SOLVER_FLAGS, OBS_FLAGS, FORMAT_FLAGS];
        let lattice = ["--nx", "4", "--random", "1"];
        for twice in [
            &["--moments", "16", "--moments", "64"][..],
            &["--format", "stencil", "--format", "crs"],
            &["--no-simd", "--no-simd"],
        ] {
            let a = args(&[&lattice[..], twice].concat());
            let err = check_args(&a, dos_flags).unwrap_err();
            let want = format!("flag '{}' given more than once", twice[0]);
            assert!(err.starts_with(&want), "{err}");
        }
        let a = args(&[&lattice[..], &["--moments"]].concat());
        let err = check_args(&a, dos_flags).unwrap_err();
        assert!(err.starts_with("flag '--moments' needs a value"), "{err}");
        // A presence flag may come last; a value may look like anything.
        let a = args(&[&lattice[..], &["--seed", "7", "--no-simd"]].concat());
        assert!(check_args(&a, dos_flags).is_ok());
        let paths = args(&["trace.json", "--paths"]);
        assert!(check_args(&paths, &[TRACE_REPORT_FLAGS]).is_ok());
    }

    #[test]
    fn known_flags_and_one_positional_pass() {
        let a = args(&["file.mtx", "--moments", "64", "--seed", "1"]);
        assert!(check_args(&a, &[MATRIX_FLAGS, SOLVER_FLAGS]).is_ok());
    }

    #[test]
    fn extra_positional_rejected() {
        let a = args(&["file.mtx", "extra.mtx"]);
        let err = check_args(&a, &[MATRIX_FLAGS]).unwrap_err();
        assert!(err.contains("extra.mtx"), "{err}");
    }

    #[test]
    fn flag_values_are_not_positionals() {
        // "--from -0.5" must not count -0.5 as a positional.
        let a = args(&["file.mtx", "--from", "-0.5", "--to", "0.5"]);
        assert!(check_args(&a, &[COUNT_FLAGS]).is_ok());
    }

    #[test]
    fn format_flags_build_the_requested_matrix() {
        // Every lattice runs its CRS form under either format — coded
        // when it has one, plain when a periodic extent-2 axis leaves it
        // none — and the flag only names the format the banner prints.
        let coded = ["--nx", "4", "--ny", "4", "--nz", "3"];
        for (lattice, is_coded) in [
            (coded, true),
            (["--nx", "2", "--ny", "4", "--nz", "3"], false),
        ] {
            let a = args(&lattice);
            let (crs, _) = solver_matrix(&a).unwrap();
            assert_eq!(format_name(&a), "crs");
            let mut a = a;
            a.extend(args(&["--format", "stencil"]));
            let (stencil, _) = solver_matrix(&a).unwrap();
            assert_eq!(format_name(&a), "stencil");
            assert_eq!(crs.value_table().is_some(), is_coded);
            assert!(stencil == crs, "one operator");
            assert_eq!(stencil.matrix_bytes(), crs.matrix_bytes());
        }
        let mut a = args(&coded);
        a.extend(args(&["--format", "ellpack"]));
        assert!(solver_matrix(&a).is_err());
    }

    #[test]
    fn stencil_on_a_file_is_rejected_before_any_load() {
        // The file does not exist: the flag contradiction must win over
        // the open error, on every loading path.
        let a = args(&["missing.mtx", "--format", "stencil"]);
        assert_eq!(solver_matrix(&a).unwrap_err(), STENCIL_NEEDS_LATTICE);
        assert_eq!(load_matrix(&a).unwrap_err(), STENCIL_NEEDS_LATTICE);
        let typo = args(&["missing.mtx", "--format", "ellpack"]);
        assert!(solver_matrix(&typo).unwrap_err().contains("unknown format"));
    }

    #[test]
    fn removed_format_and_simd_flags_fail_before_anything_is_loaded() {
        // SELL-C-sigma, the optional vector feature, iteration
        // blocking, the format tuner and page placement are gone: their
        // format value and flags are errors, not silent defaults, and
        // the file that does not exist is never opened.
        let err = solver_matrix(&args(&["missing.mtx", "--format", "sell"])).unwrap_err();
        assert!(err.contains("unknown format 'sell'"), "{err}");
        assert!(err.ends_with("(try: crs, stencil)"), "{err}");
        let dos_flags: &[&[&str]] = &[MATRIX_FLAGS, SOLVER_FLAGS, OBS_FLAGS, FORMAT_FLAGS];
        // (Spelled without their dashes, the last two in halves, so
        // that a grep for the removed flags finds nothing in the tree.)
        let gone_flags = [
            ("sell-c", "8"),
            ("sell-sigma", "32"),
            ("simd", ""),
            ("power-blocking", "2"),
            (concat!("auto", "tune"), ""),
            (concat!("first", "-touch"), ""),
        ];
        for (gone, value) in gone_flags {
            let flag = format!("--{gone}");
            let a = args(&["missing.mtx", &flag, value]);
            let err = check_args(&a, dos_flags).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
        assert!(check_args(&args(&["missing.mtx", "--no-simd"]), dos_flags).is_ok());
    }

    #[test]
    fn stencil_prologue_matches_the_crs_prologue() {
        let lattice = ["--nx", "4", "--ny", "2", "--nz", "3", "--potential", "dots"];
        let (crs, sf_crs) = solver_matrix(&args(&lattice)).unwrap();
        let mut a = args(&lattice);
        a.extend(args(&["--format", "stencil"]));
        let (st, sf_st) = solver_matrix(&a).unwrap();
        // The periodic y axis of extent 2 leaves the lattice no coded
        // form: both formats run its plain CRS.
        assert!(crs.value_table().is_none());
        assert!(st == crs);
        assert_eq!(
            sf_crs, sf_st,
            "bit-equal bounds give bit-equal scale factors"
        );
        assert_eq!((crs.nrows(), crs.nnz()), (st.nrows(), st.nnz()));
    }

    #[test]
    fn generated_lattices_are_checked_and_bounded_on_their_generator() {
        // The generator's structural proof and tabulated row sums stand
        // in for the entrywise check and the CRS fold: same verdict,
        // bit-equal scale factors, on the path every command takes —
        // here on a lattice with no coded form, under both formats.
        let lattice = args(&["--nx", "2", "--ny", "5", "--nz", "3", "--potential", "dots"]);
        let h = load_matrix(&lattice).unwrap();
        let (m, sf) = solver_matrix(&lattice).unwrap();
        assert!(h.check_hermitian().is_ok());
        assert_eq!(sf, ScaleFactors::from_gershgorin(&h, 0.01));
        assert!(m == h);
        let mut a = lattice;
        a.extend(args(&["--format", "stencil"]));
        let (stencil, sf_stencil) = solver_matrix(&a).unwrap();
        assert_eq!(sf_stencil, sf);
        assert!(stencil == h);
    }

    #[test]
    fn non_hermitian_file_is_rejected_naming_the_entry() {
        let h = load_matrix(&args(&["--nx", "3", "--ny", "2", "--nz", "2"])).unwrap();
        // Break the second stored entry, (0, 4): (4, 0) no longer is
        // its conjugate.
        let n = h.nrows();
        let cols = (0..n).flat_map(|r| h.row(r).cols().to_vec()).collect();
        let mut vals: Vec<_> = (0..n).flat_map(|r| h.row(r).vals().to_vec()).collect();
        assert_eq!(h.row(0).cols()[1], 4);
        vals[1].re += 1.0;
        let broken = CrsMatrix::from_raw(n, n, h.row_ptr().to_vec(), cols, vals);
        let path = std::env::temp_dir().join(format!("kpm-nonherm-{}.mtx", std::process::id()));
        let mut file = BufWriter::new(File::create(&path).unwrap());
        mmio::write_general(&broken, &mut file).unwrap();
        drop(file);
        let err = solver_matrix(&args(&[path.to_str().unwrap()])).map(|_| ());
        std::fs::remove_file(&path).unwrap();
        let err = err.unwrap_err();
        assert!(err.contains("invalid matrix (hermiticity)"), "{err}");
        assert!(err.contains("entry (0, 4)"), "{err}");
    }

    #[test]
    fn no_simd_is_a_presence_flag() {
        // A positional right after --no-simd must not be swallowed as
        // the flag's value.
        let a = args(&["--no-simd", "file.mtx"]);
        assert!(check_args(&a, &[MATRIX_FLAGS, FORMAT_FLAGS]).is_ok());
        assert_eq!(positional(&a), Some("file.mtx"));
        assert!(has_flag(&a, "--no-simd"));
        assert!(!has_flag(&args(&["file.mtx"]), "--no-simd"));
    }

    #[test]
    fn flag_tables_and_usage_agree_in_both_directions() {
        let tables = [
            MATRIX_FLAGS,
            SOLVER_FLAGS,
            THREADS_FLAGS,
            OBS_FLAGS,
            FORMAT_FLAGS,
            BOOLEAN_FLAGS,
            GENERATE_FLAGS,
            DOS_FLAGS,
            COUNT_FLAGS,
            REPORT_FLAGS,
            SERVE_FLAGS,
            TRACE_REPORT_FLAGS,
        ];
        let documented: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|t| t.starts_with("--") && t.len() > 2)
            .collect();
        for flag in &documented {
            let known = tables.iter().any(|t| t.contains(flag));
            assert!(known, "USAGE documents {flag}, which no command accepts");
        }
        for flag in tables.iter().flat_map(|t| t.iter()) {
            assert!(documented.contains(flag), "{flag} is missing from USAGE");
        }
        // BOOLEAN_FLAGS only says "takes no value": each of its flags
        // must also be in the table of a command that accepts it.
        for flag in BOOLEAN_FLAGS {
            let tables = tables.iter().filter(|t| t.contains(flag)).count();
            assert_eq!(tables, 2, "{flag} is accepted by no command");
        }
    }

    /// `run(args)` must fail naming `flag` — and before the source is
    /// touched: every command line here names a file that does not
    /// exist, so a check that ran after the load would report that
    /// instead.
    fn assert_refused_before_any_load(
        run: fn(&[String]) -> Result<(), String>,
        line: &[&str],
        flag: &str,
    ) {
        let err = run(&args(line)).expect_err(&line.join(" "));
        assert!(err.contains(flag), "{line:?}: {err}");
        assert!(!err.contains("cannot open"), "{line:?}: {err}");
    }

    /// Flag values that size a buffer past `isize::MAX` bytes — which no
    /// host can allocate — are refused naming the flag, after the
    /// lattice is built and before the solver would abort allocating.
    #[test]
    fn unallocatable_runs_are_refused_naming_the_flag() {
        let huge = ((usize::MAX / 8) & !1).to_string();
        let lattice = ["--nx", "2", "--ny", "2", "--nz", "2"];
        let range = ["--from", "0", "--to", "1"];
        for (run, flag, extra) in [
            (cmd_dos as fn(&[String]) -> _, "--random", &[][..]),
            (cmd_dos, "--moments", &[]),
            (cmd_dos, "--points", &[]),
            (cmd_count, "--random", &range),
            (cmd_count, "--moments", &range),
        ] {
            let line: Vec<&str> = (lattice.iter().chain(extra).copied())
                .chain([flag, &huge])
                .collect();
            let err = run(&args(&line)).expect_err(&line.join(" "));
            assert!(
                err.starts_with(&format!("bad value for {flag}: {huge}")),
                "{err}"
            );
            assert!(err.contains("cannot be allocated"), "{err}");
        }
    }

    #[test]
    fn hostile_solver_flag_values_are_refused_before_any_load() {
        for (line, flag) in [
            (&["missing.mtx", "--points", "0"][..], "--points: 0"),
            (&["missing.mtx", "--points", "1"], "--points: 1"),
            (&["missing.mtx", "--moments", "3"], "--moments: 3"),
            (&["missing.mtx", "--moments", "0"], "--moments: 0"),
            (&["missing.mtx", "--random", "0"], "--random: 0"),
            (&["missing.mtx", "--threads", "100000"], "`threads`"),
            (&["--nx", "0"], "--nx: 0"),
            (&["--nx", "4", "--ny", "0"], "--ny: 0"),
            (&["--nx", "4", "--nz", "-1"], "--nz: -1"),
        ] {
            assert_refused_before_any_load(cmd_dos, line, flag);
        }
        for (line, flag) in [
            (
                &["missing.mtx", "--from", "nan", "--to", "0.5"][..],
                "--from: NaN",
            ),
            (
                &["missing.mtx", "--from", "-0.5", "--to", "nan"],
                "--to: NaN",
            ),
            (
                &["missing.mtx", "--from", "-inf", "--to", "inf"],
                "--from: -inf",
            ),
            (
                &["missing.mtx", "--from", "0", "--to", "1", "--random", "0"],
                "--random: 0",
            ),
        ] {
            assert_refused_before_any_load(cmd_count, line, flag);
        }
        for (line, flag) in [
            (&["missing.mtx", "--llc-mib", "nan"][..], "--llc-mib: NaN"),
            (
                &["missing.mtx", "--llc-mib", "1e-9"],
                "--llc-mib: 0.000000001",
            ),
            (&["missing.mtx", "--llc-mib", "-1"], "--llc-mib: -1"),
            (
                &["missing.mtx", "--llc-mib", "1e12"],
                "--llc-mib: 1000000000000",
            ),
            (&["missing.mtx", "--moments", "3"], "--moments: 3"),
        ] {
            assert_refused_before_any_load(cmd_report, line, flag);
        }
        assert_refused_before_any_load(cmd_serve, &["missing.mtx", "--points", "1"], "--points: 1");
        for workers in ["1025", "100000"] {
            let flag = format!("--workers: {workers}");
            assert_refused_before_any_load(
                cmd_serve,
                &["missing.mtx", "--workers", workers],
                &flag,
            );
        }
        // The smallest accepted values still reach the (missing) file.
        for (run, line) in [
            (
                cmd_dos as fn(&[String]) -> _,
                &["missing.mtx", "--points", "2", "--moments", "2"][..],
            ),
            (cmd_report, &["missing.mtx", "--llc-mib", "0.001"]),
            (cmd_serve, &["missing.mtx", "--workers", "1024"]),
        ] {
            let err = run(&args(line)).unwrap_err();
            assert!(err.contains("cannot open missing.mtx"), "{err}");
        }
    }

    #[test]
    fn a_set_but_unusable_kpm_threads_is_refused_naming_the_variable() {
        use std::ffi::OsStr;
        for usable in [None, Some("1"), Some(" 8 "), Some("1024")] {
            assert_eq!(check_env_threads(usable.map(OsStr::new)), Ok(()));
        }
        for unusable in ["", "0", "lots", "-2", "1025", "100000"] {
            let err = check_env_threads(Some(OsStr::new(unusable))).unwrap_err();
            assert!(err.contains(&format!("KPM_THREADS: {unusable} (")), "{err}");
        }
    }

    /// The tokens a mangled request line is made of: sizes that fit,
    /// `u64::MAX` and past it, sizes no host allocates, signs, floats,
    /// non-ASCII digits and words.
    const HOSTILE_TOKENS: [&str; 20] = [
        "0",
        "1",
        "2",
        "3",
        "16",
        "64",
        "18446744073709551615",
        "18446744073709551616",
        "4611686018427387904",
        "1099511627776",
        "99999999999",
        "-1",
        "+5",
        "1.5",
        "1e3",
        "nan",
        "\u{663}",
        "\u{ff11}\u{ff16}",
        "straße",
        "dos",
    ];

    /// Serves `line` as `kpm serve` would, on a fresh one-worker service
    /// over a 2×2×2 lattice: `Err` names what went wrong — a dropped
    /// reply (a worker panicked), an unbalanced ledger, or a line served
    /// although it is longer than its form (`dos`/`green` take four
    /// tokens and a deadline, `ldos` three and a deadline).
    fn serve_line(line: &str) -> Result<(), String> {
        let longest = if line.starts_with("ldos") { 4 } else { 5 };
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let h = TopoHamiltonian::clean(2, 2, 2).assemble();
        let sf = ScaleFactors::from_gershgorin(&h, 0.01);
        let matrix = svc.register_matrix(h, sf);
        let served = match parse_request_line(line, matrix, Kernel::Jackson, 64) {
            Err(e) if e.is_empty() => Err(format!("'{line}': untyped error")),
            Err(_) => Ok(()),
            Ok(None) if line.is_empty() => Ok(()),
            Ok(None) => Err(format!("'{line}' skipped")),
            Ok(Some(_)) if line.split_whitespace().count() > longest => {
                Err(format!("'{line}' served past its last token"))
            }
            Ok(Some(req)) => match svc.submit(req) {
                Admission::Admitted(ticket) if ticket.wait().is_none() => {
                    Err(format!("'{line}': reply dropped"))
                }
                _ => Ok(()),
            },
        };
        let ledger = svc.shutdown(ShutdownMode::Drain);
        served?;
        match ledger.consistent() {
            true => Ok(()),
            false => Err(format!("'{line}': {ledger:?}")),
        }
    }

    #[test]
    fn trailing_tokens_and_wrapping_sites_are_typed_errors() {
        for line in [
            "dos 1 2 16 50 junk",
            "ldos 0 16 5 6 7",
            "green 1 2 16 50 0",
            "ldos 18446744073709551615 16",
            "ldos 4611686018427387904 16",
        ] {
            let err = parse_request_line(line, 0, Kernel::Jackson, 64).err();
            let site = line.starts_with("ldos") && err.is_none();
            assert!(
                site || err.is_some_and(|e| e.contains("unexpected token")),
                "'{line}'"
            );
            serve_line(line).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// Each request line made from a valid one by replacing one token
        /// with a hostile one, then truncating it, inserting or appending
        /// a second one — or not — is served or answered with a typed
        /// error in its place: never a panic, never a dropped reply,
        /// never a trailing token ignored.
        #[test]
        fn mangled_request_lines_are_served_or_typed_errors(
            base in 0usize..3,
            at in 0usize..4,
            pick in 0usize..20,
            op in 0usize..4,
            cut in 0usize..6,
            second in 0usize..20,
        ) {
            const VALID: [&str; 3] = ["dos 1 2 16", "ldos 3 16 2000", "green 5 2 16"];
            let mut tokens: Vec<&str> = VALID[base].split_whitespace().collect();
            let at = at % tokens.len();
            tokens[at] = HOSTILE_TOKENS[pick];
            let cut = cut % (tokens.len() + 1);
            match op {
                0 => {}
                1 => tokens.truncate(cut),
                2 => tokens.insert(cut, HOSTILE_TOKENS[second]),
                _ => tokens.push(HOSTILE_TOKENS[second]),
            }
            let served = serve_line(&tokens.join(" "));
            proptest::prop_assert!(served.is_ok(), "{}", served.unwrap_err());
        }
    }
}
