//! Builds the real `kpm` binary and runs it as a user would: a fresh
//! process per repetition, stdout piped and read to the end, peak
//! resident set polled from `/proc` while it runs.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::host;

/// The root of the checkout this package sits in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repo root")
        .to_path_buf()
}

/// Builds `kpm` from the root workspace with its release profile and
/// returns the path of the binary. Honours `CARGO_TARGET_DIR`, which
/// cargo resolves against the current directory exactly as the `cargo
/// run` that started this program did.
pub fn build_kpm() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "kpm",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building kpm failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let bin = target.join("release").join("kpm");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo built no {}", bin.display()))
    }
}

/// One finished child process.
#[derive(Debug)]
pub struct ProcRun {
    /// Spawn to exit, with stdout read to the end.
    pub wall_s: f64,
    /// Last `VmHWM` seen while the process ran, in KiB.
    pub peak_rss_kib: u64,
    pub success: bool,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

const RSS_POLL: Duration = Duration::from_millis(20);

/// Runs `bin` with `args` and `env` added to this program's
/// environment, `KPM_THREADS` taken out of it.
pub fn run_child(bin: &Path, args: &[String], env: &[(&str, &str)]) -> Result<ProcRun, String> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .envs(env.iter().copied())
        .env_remove("KPM_THREADS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let pid = child.id();
    let mut out_pipe = child.stdout.take().expect("stdout was piped");
    let mut err_pipe = child.stderr.take().expect("stderr was piped");
    let done = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let mut stdout = Vec::new();
    let mut stderr = String::new();

    let waited = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if let Some(kib) = host::vm_hwm_kib(pid) {
                    peak.store(kib, Ordering::Relaxed);
                }
                std::thread::sleep(RSS_POLL);
            }
        });
        scope.spawn(|| {
            // The banner is one line; an unreadable one fails the
            // banner check later.
            let _ = err_pipe.read_to_string(&mut stderr);
        });
        let read = out_pipe.read_to_end(&mut stdout);
        let waited = child.wait();
        let wall_s = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        read.and(waited).map(|status| (status, wall_s))
    });
    let (status, wall_s) = waited.map_err(|e| format!("waiting for {}: {e}", bin.display()))?;
    Ok(ProcRun {
        wall_s,
        peak_rss_kib: peak.load(Ordering::Relaxed),
        success: status.success(),
        stdout,
        stderr,
    })
}

/// `N` and `Nnz` from the `N = …, Nnz = …` banner `kpm dos` prints.
pub fn parse_banner(stderr: &str) -> Option<(f64, f64)> {
    let field = |key: &str| -> Option<f64> {
        let line = stderr.lines().find(|l| l.starts_with("N = "))?;
        let at = line.find(key)? + key.len();
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    };
    Some((field("N = ")?, field("Nnz = ")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_dos_banner() {
        let banner = "N = 221184, Nnz = 2838528, M = 512, R = 1, format = crs\n";
        assert_eq!(parse_banner(banner), Some((221_184.0, 2_838_528.0)));
        assert_eq!(parse_banner("kpm: unknown flag\n"), None);
        assert_eq!(
            parse_banner("note\nN = 16, Nnz = 208, M = 2\n"),
            Some((16.0, 208.0))
        );
    }
}
