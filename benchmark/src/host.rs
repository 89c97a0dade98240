//! What the benchmark measures about the machine it runs on: a complex
//! triad for sustainable bandwidth, a register-resident complex
//! multiply-add for the in-core ceiling, core count, cache sizes, and
//! the toolchain and revision stamps of the header.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Bytes of each of the three triad arrays. 3 × 32 MiB is the size
/// class of the streaming workloads' own data (57 MB of matrix plus
/// 2 × 28 MB of block vectors): well past both 2 MiB L2s, inside the
/// L3 this VM reports.
pub const TRIAD_ARRAY_BYTES: usize = 32 << 20;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[derive(Clone, Copy)]
pub struct C64 {
    pub re: f64,
    pub im: f64,
}

impl C64 {
    /// `self · z + w`.
    #[inline(always)]
    pub fn mul_add(self, z: C64, w: C64) -> C64 {
        C64 {
            re: self.re * z.re - self.im * z.im + w.re,
            im: self.re * z.im + self.im * z.re + w.im,
        }
    }
}

/// `a[i] = b[i] + s·c[i]` over complex arrays, split over `threads`
/// scoped threads; best of `reps` passes, in GB/s of the 3 × 32 MiB the
/// loop names (computed: the write-allocate stream is not counted).
pub fn stream_gbs(threads: usize, reps: usize) -> f64 {
    let len = TRIAD_ARRAY_BYTES / std::mem::size_of::<C64>();
    let mut a = vec![C64 { re: 0.0, im: 0.0 }; len];
    let b = vec![C64 { re: 1.0, im: 0.5 }; len];
    let c = vec![C64 { re: 0.25, im: -1.0 }; len];
    let s = C64 { re: 0.5, im: 0.125 };
    let chunk = len.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, &b), &c) in a.iter_mut().zip(b).zip(c) {
                        *a = s.mul_add(c, b);
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&mut a);
    }
    3.0 * TRIAD_ARRAY_BYTES as f64 / best / 1e9
}

/// Eight independent complex multiply-add chains held in registers on
/// each of `threads` threads; 8 flops per multiply-add, best of `reps`.
pub fn cmuladd_gflops(threads: usize, reps: usize) -> f64 {
    const CHAINS: usize = 8;
    const STEPS: usize = 4_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads.max(1) {
                scope.spawn(move || {
                    // |z| < 1 keeps every chain bounded.
                    let z = black_box(C64 { re: 0.6, im: 0.7 });
                    let w = black_box(C64 {
                        re: 1e-3,
                        im: t as f64 * 1e-3,
                    });
                    let mut acc = [C64 { re: 1.0, im: 0.0 }; CHAINS];
                    for _ in 0..STEPS {
                        for a in &mut acc {
                            *a = a.mul_add(z, w);
                        }
                    }
                    black_box(acc);
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (threads.max(1) * CHAINS * STEPS * 8) as f64 / best / 1e9
}

/// `VmHWM` of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of process `pid` so far; `None` once it is gone.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    parse_vm_hwm_kib(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// `L1d 32K, L2 2048K, L3 266240K` from sysfs, or why it is unknown.
pub fn cache_sizes() -> String {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut levels: Vec<String> = (0..8)
        .filter_map(|i| {
            let index = dir.join(format!("index{i}"));
            let level = read(index.join("level"))?;
            let kind = read(index.join("type"))?;
            let size = read(index.join("size"))?;
            let suffix = match kind.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            Some(format!("L{level}{suffix} {size}"))
        })
        .collect();
    if levels.is_empty() {
        levels.push(format!("unknown ({} not readable)", dir.display()));
    }
    levels.join(", ")
}

fn first_line_of(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of(Command::new("rustc").arg("--version"))
}

/// Short revision of the checkout; `unknown` outside a git repository.
pub fn git_revision(root: &Path) -> String {
    first_line_of(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "--short", "HEAD"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_from_a_status_file() {
        let status = "Name:\tkpm\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tkpm\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn reads_its_own_peak_rss() {
        assert!(vm_hwm_kib(std::process::id()).is_some_and(|kib| kib > 0));
    }

    #[test]
    fn complex_multiply_add() {
        let r =
            C64 { re: 1.0, im: 2.0 }.mul_add(C64 { re: 3.0, im: 4.0 }, C64 { re: 0.5, im: 0.5 });
        assert_eq!((r.re, r.im), (-4.5, 10.5));
    }
}
