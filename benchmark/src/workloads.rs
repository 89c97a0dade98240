//! The five workloads and why each exists.

use crate::host;
use crate::yardstick::Yardstick;

/// What produces a workload's end-to-end numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// A fresh `kpm dos` process per repetition: CLI users pay page
    /// faults and teardown on every run.
    Process,
    /// The in-process `kpm_service::Service` under a closed loop.
    Service,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    pub lattice: (usize, usize, usize),
    /// `--moments`, `--random`, `--threads` (0 = all cores) of the
    /// `kpm dos` command line and of its in-process replica.
    pub moments: usize,
    pub random: usize,
    pub threads: usize,
    pub stencil: bool,
    /// Closed-loop clients and moments per request of the service
    /// phase. On the dos workloads that phase is a short probe in the
    /// traced run only, with few enough sweeps per request that a
    /// solve on the large lattice stays near the service's 100 ms
    /// hedging delay and the probe completes tens of requests.
    pub svc_clients: usize,
    pub svc_moments: usize,
    /// Sweeps per yardstick reading, sized to a quarter of a second on
    /// the busy host, and what such a reading takes on the quiet host:
    /// the reading that goes with the wall times this host showed in a
    /// quiet hour (1.45, 1.42, 1.84 and 1.29 s for the dos workloads,
    /// 226 requests per second for the service).
    pub yard_sweeps: usize,
    pub yard_quiet_s: f64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "dos_stream_r1",
        why: "1 thread, R=1, CRS 57 MB = 14x both L2s: the paper's bandwidth-bound regime (B/F 2.23); \
              cutting matrix bytes or set-up must show here, pool work must not",
        driver: Driver::Process,
        lattice: (48, 48, 24),
        moments: 512,
        random: 1,
        threads: 1,
        stencil: false,
        svc_clients: 2,
        svc_moments: 4,
        yard_sweeps: 25,
        yard_quiet_s: 0.128,
    },
    Workload {
        name: "dos_block_r8",
        why: "the paper's stage 2 on all cores: matrix streamed once per 8 vectors, block vectors dominate \
              traffic; blocked-kernel, tiling and pool scheduling changes work here",
        driver: Driver::Process,
        lattice: (48, 48, 24),
        moments: 96,
        random: 8,
        threads: 2,
        stencil: false,
        svc_clients: 2,
        svc_moments: 4,
        yard_sweeps: 8,
        yard_quiet_s: 0.120,
    },
    Workload {
        name: "dos_stencil_r8",
        why: "dos_block_r8 matrix-free: rows regenerated instead of streamed, so a CRS gain that costs the \
              stencil path (or the reverse) shows; its CSV must equal dos_block_r8's byte for byte",
        driver: Driver::Process,
        lattice: (48, 48, 24),
        moments: 96,
        random: 8,
        threads: 2,
        stencil: true,
        svc_clients: 2,
        svc_moments: 4,
        yard_sweeps: 8,
        yard_quiet_s: 0.120,
    },
    Workload {
        name: "dos_incore_r32",
        why: "cache-resident 16,000-row matrix at R=32, 1 thread: in-core bound (B/F 0.41), so SIMD/FMA/loop-body \
              work shows here and traffic-reducing work is predicted to change nothing",
        driver: Driver::Process,
        lattice: (20, 20, 10),
        moments: 256,
        random: 32,
        threads: 1,
        stencil: false,
        svc_clients: 2,
        svc_moments: 32,
        yard_sweeps: 20,
        yard_quiet_s: 0.158,
    },
    Workload {
        name: "svc_mixed",
        why: "closed loop, 4 clients, 60% DOS / 25% LDOS / 15% Green, 30% hot keys, on a 3,456-row lattice: the only \
              workload where queue, batching, coalescing and the moment cache carry the time",
        driver: Driver::Service,
        lattice: (12, 12, 6),
        moments: 128,
        random: 2,
        threads: 0,
        stencil: false,
        svc_clients: 4,
        svc_moments: 128,
        yard_sweeps: 2800,
        yard_quiet_s: 0.217,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn sites(&self) -> usize {
        self.lattice.0 * self.lattice.1 * self.lattice.2
    }

    /// Threads the solve actually runs on.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            host::nproc()
        }
    }

    /// The yardstick that loads the machine as this workload does.
    pub fn yardstick(&self) -> Yardstick {
        Yardstick::new(
            self.lattice,
            self.random,
            self.effective_threads(),
            self.yard_sweeps,
        )
    }

    /// The `kpm dos` command line; `moments = 2` gives the zero-sweep
    /// twin that does everything but the sweeps.
    pub fn dos_args(&self, moments: usize, seed: u64, stencil: bool) -> Vec<String> {
        let (nx, ny, nz) = self.lattice;
        let mut args: Vec<String> = vec!["dos".into()];
        for (flag, value) in [
            ("--nx", nx as u64),
            ("--ny", ny as u64),
            ("--nz", nz as u64),
            ("--moments", moments as u64),
            ("--random", self.random as u64),
            ("--threads", self.threads as u64),
            ("--seed", seed),
        ] {
            args.push(flag.into());
            args.push(value.to_string());
        }
        if stencil {
            args.extend(["--format".into(), "stencil".into()]);
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
    }

    #[test]
    fn twin_differs_from_the_command_only_in_moments() {
        let w = Workload::by_name("dos_stencil_r8").unwrap();
        let full = w.dos_args(w.moments, 7, w.stencil);
        let twin = w.dos_args(2, 7, w.stencil);
        let differing: Vec<_> = full.iter().zip(&twin).filter(|(a, b)| a != b).collect();
        assert_eq!(differing, [(&"96".to_string(), &"2".to_string())]);
        assert!(full.ends_with(&["--format".to_string(), "stencil".to_string()]));
    }
}
