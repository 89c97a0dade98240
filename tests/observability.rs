//! Tier-1 observability suite.
//!
//! Validates the `kpm-obs` instrumentation end to end: the exporters
//! emit parseable JSONL/Chrome-trace documents, the solver records the
//! expected span taxonomy and kernel probes, the live (warm cachesim
//! replay) Ω agrees with the cold prediction on a deterministic
//! workload, and the service's traces, latency histograms, SLOs and
//! flight recorder account for every request. The instrumentation flag
//! and registries are process-global, so every test takes the same
//! mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};

use kpm_repro::core::solver::{
    batch_lanes, kpm_batch_moments, kpm_moments, starting_vectors, KpmParams, KpmVariant,
};
use kpm_repro::num::accounting::Sweep;
use kpm_repro::num::Complex64;
use kpm_repro::obs;
use kpm_repro::obs::probe::KernelKind;
use kpm_repro::perfmodel::cachesim::CacheConfig;
use kpm_repro::perfmodel::omega::{measure_omega, measure_omega_kernel};
use kpm_repro::topo::{ScaleFactors, TopoHamiltonian};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn params(m: usize, r: usize) -> KpmParams {
    KpmParams {
        num_moments: m,
        num_random: r,
        seed: 2015,
        parallel: false,
        threads: 0,
        power: 1,
        first_touch: false,
    }
}

/// The probe crate holds no accounting of its own: a probed kernel call
/// records the counts `kpm_num::accounting` gives for its sweep — flops
/// on the logical non-zeros, bytes on the matrix data the format streams:
/// at every width, the lattice's site view — a byte per block of each
/// site plus the distinct blocks — for its coded CRS, bare or behind the
/// stencil handle, and a value and a column index per entry for the same
/// matrix stored plain.
#[test]
fn probe_constants_match_accounting() {
    use kpm_repro::num::accounting::crs_bytes;
    use kpm_repro::num::BlockVector;
    use kpm_repro::sparse::{CrsMatrix, KpmMatrix, SparseKernels};
    let _g = serial();
    let ham = TopoHamiltonian::clean(4, 4, 2);
    let (crs, stencil) = (ham.assemble(), KpmMatrix::stencil(ham.stencil_matrix()));
    let (n, nnz) = (crs.nrows(), crs.nnz());
    assert!(crs.value_table().is_some(), "the lattice's CRS is coded");
    // Each of the 32 sites reads six blocks (itself, four neighbours in
    // the periodic x-y plane, one along the open z axis of extent 2), 11
    // distinct: x ± 1 and the two x wraps, the same along y, z ± 1 and
    // the on-site block. A block is two slots of eight lane indices and
    // eight factors, 256 bytes, and its slot count and neighbour offset,
    // on 64-byte lines: 320 bytes.
    assert_eq!(crs.site_blocks(), Some(11));
    let site_view = 32 * 6 + 11 * 320;
    let vals = (0..n)
        .flat_map(|row| crs.row(row).vals().to_vec())
        .collect();
    let cols = (0..n)
        .flat_map(|row| crs.row(row).cols().to_vec())
        .collect();
    let plain = CrsMatrix::from_raw(n, n, crs.row_ptr().to_vec(), cols, vals);
    // (name, operator, width, matrix bytes per sweep)
    let cases: [(&str, &dyn SparseKernels, usize, usize); 6] = [
        ("coded", &crs, 1, site_view),
        ("coded", &crs, 3, site_view),
        ("plain", &plain, 1, crs_bytes(nnz)),
        ("plain", &plain, 3, crs_bytes(nnz)),
        ("stencil handle", &stencil, 1, site_view),
        ("stencil handle", &stencil, 3, site_view),
    ];
    for (name, h, r, stored) in cases {
        assert_eq!(h.matrix_bytes(), stored, "{name} at width {r}");
        let v = BlockVector::zeros(n, r);
        let mut w = BlockVector::zeros(n, r);
        obs::reset();
        obs::set_enabled(true);
        h.spmmv(&v, &mut w);
        h.aug_spmmv(0.5, 0.1, &v, &mut w);
        obs::set_enabled(false);
        let got: Vec<_> = obs::probe::snapshot()
            .into_iter()
            .map(|rep| (rep.kind, rep.flops as usize, rep.min_bytes as usize))
            .collect();
        let (plain, aug) = (Sweep::Plain, Sweep::Aug);
        let want = [
            (
                KernelKind::Spmv,
                plain.flops(n, nnz, r),
                plain.min_bytes(n, stored, r),
            ),
            (
                KernelKind::AugSpmmv,
                aug.flops(n, nnz, r),
                aug.min_bytes(n, stored, r),
            ),
        ];
        assert_eq!(got, want, "{name} at width {r}");
    }
}

/// An instrumented solver run records the span taxonomy (one
/// `solver.run`, one `solver.sweep` per iteration) and per-kernel
/// probes whose modeled totals match the accounting formulas.
#[test]
fn solver_run_records_spans_and_probes() {
    let _g = serial();
    obs::reset();
    obs::set_enabled(true);
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let p = params(16, 2);
    kpm_moments(&h, sf, &p, KpmVariant::AugSpmmv).unwrap();
    obs::set_enabled(false);

    assert_eq!(obs::span::count("solver.run"), 1);
    assert_eq!(obs::span::count("solver.sweep"), p.iterations());
    let snap = obs::probe::snapshot();
    let aug = snap
        .iter()
        .find(|rep| rep.kind == KernelKind::AugSpmmv)
        .expect("aug_spmmv probe recorded");
    // One aug_spmmv call per sweep, at the solver's block width.
    assert_eq!(aug.calls as usize, p.iterations());
    assert_eq!(aug.width as usize, p.num_random);
    let (n, nnz, r) = (h.nrows(), h.nnz(), p.num_random);
    assert_eq!(aug.flops, aug.calls * Sweep::Aug.flops(n, nnz, r) as u64);
    let matrix = h.matrix_bytes();
    assert_eq!(
        aug.min_bytes,
        aug.calls * Sweep::Aug.min_bytes(n, matrix, r) as u64
    );

    // A batched solve sweeps three columns on four lanes, the fourth
    // zero (one register panel instead of two): the probe counts the
    // columns that were asked for, not the lanes.
    obs::reset();
    obs::set_enabled(true);
    let starts = starting_vectors(n, &params(16, 3));
    kpm_batch_moments(&h, sf, &starts, 16, None).unwrap();
    obs::set_enabled(false);
    assert_eq!(batch_lanes(3), 4);
    let snap = obs::probe::snapshot();
    let aug = snap
        .iter()
        .find(|rep| rep.kind == KernelKind::AugSpmmv)
        .expect("aug_spmmv probe recorded");
    assert_eq!((aug.calls as usize, aug.width), (p.iterations(), 3));
    assert_eq!(aug.flops, aug.calls * Sweep::Aug.flops(n, nnz, 3) as u64);
    assert_eq!(
        aug.min_bytes,
        aug.calls * Sweep::Aug.min_bytes(n, matrix, 3) as u64
    );
}

/// Every named kernel of `SparseKernels` is one provided method over
/// the format's `sweep`, so it must behave alike whatever it is called
/// on: driven through the bare CRS matrix and both `KpmMatrix` handles
/// of one lattice (1,152 rows: two width-1 chunks, three 512-row tiles)
/// at R = 1, 3 and 8 — the serial kernels on the calling thread, the
/// parallel ones on 1-, 2- and 4-thread pools — all three return the
/// same bits, and each call leaves exactly one probe record of the
/// kernel's kind at its width.
#[test]
fn named_kernels_agree_and_probe_once_on_every_operator() {
    use kpm_repro::num::BlockVector;
    use kpm_repro::sparse::aug::{AugDots, AugDotsBlock};
    use kpm_repro::sparse::{KpmMatrix, SparseKernels};
    use rand::SeedableRng;
    use KernelKind::{AugSpmmv, AugSpmv, Spmv};

    let _g = serial();
    let ham = TopoHamiltonian::quantum_dot_superlattice(6, 6, 8);
    let crs = ham.assemble();
    let (crs_handle, st_handle) = (
        KpmMatrix::crs(crs.clone()),
        KpmMatrix::stencil(ham.stencil_matrix()),
    );
    let operators: [(&str, &dyn SparseKernels); 3] = [
        ("&CrsMatrix", &crs),
        ("KpmMatrix::crs", &crs_handle),
        ("KpmMatrix::stencil", &st_handle),
    ];
    let (n, nnz) = (crs.nrows(), crs.nnz());
    let pools = [1usize, 2, 4].map(|t| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t);
        pool.build().expect("pool")
    });
    let (a, b) = (0.7, -0.2);
    /// What a kernel leaves behind: the written block and its dots.
    type Out = (Vec<Complex64>, Vec<f64>, Vec<Complex64>);
    let block = |d: AugDotsBlock| (d.eta_even, d.eta_odd);
    let single = |d: AugDots| (vec![d.eta_even], vec![d.eta_odd]);
    let none = || (Vec::new(), Vec::new());

    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    for r in [1usize, 3, 8] {
        let v = BlockVector::random(n, r, &mut rng);
        let w0 = BlockVector::random(n, r, &mut rng);
        // (name, probe kind, parallel, the call on a fresh copy of w0);
        // the last four take plain vectors, which a width-1 block is.
        type Call<'a> =
            &'a dyn Fn(&dyn SparseKernels, &mut BlockVector) -> (Vec<f64>, Vec<Complex64>);
        let kernels: [(&str, KernelKind, bool, Call); 10] = [
            ("spmmv", Spmv, false, &|m, w| {
                m.spmmv(&v, w);
                none()
            }),
            ("spmmv_par", Spmv, true, &|m, w| {
                m.spmmv_par(&v, w);
                none()
            }),
            ("aug_spmmv", AugSpmmv, false, &|m, w| {
                block(m.aug_spmmv(a, b, &v, w))
            }),
            ("aug_spmmv_par", AugSpmmv, true, &|m, w| {
                block(m.aug_spmmv_par(a, b, &v, w))
            }),
            ("aug_spmmv_nodot", AugSpmmv, false, &|m, w| {
                m.aug_spmmv_nodot(a, b, &v, w);
                none()
            }),
            ("aug_spmmv_nodot_par", AugSpmmv, true, &|m, w| {
                m.aug_spmmv_nodot_par(a, b, &v, w);
                none()
            }),
            ("spmv", Spmv, false, &|m, w| {
                m.spmv(v.panel_slots(), w.panel_slots_mut());
                none()
            }),
            ("spmv_par", Spmv, true, &|m, w| {
                m.spmv_par(v.panel_slots(), w.panel_slots_mut());
                none()
            }),
            ("aug_spmv", AugSpmv, false, &|m, w| {
                single(m.aug_spmv(a, b, v.panel_slots(), w.panel_slots_mut()))
            }),
            ("aug_spmv_par", AugSpmv, true, &|m, w| {
                single(m.aug_spmv_par(a, b, v.panel_slots(), w.panel_slots_mut()))
            }),
        ];
        let blocked = if r == 1 { 10 } else { 6 };
        for (name, kind, parallel, call) in &kernels[..blocked] {
            let mut first: Option<Out> = None;
            let runs = if *parallel { &pools[..] } else { &pools[..1] };
            for pool in runs {
                for (operator, m) in operators {
                    obs::reset();
                    obs::set_enabled(true);
                    let mut w = w0.clone();
                    let (even, odd) = match parallel {
                        true => pool.install(|| call(m, &mut w)),
                        false => call(m, &mut w),
                    };
                    obs::set_enabled(false);
                    let what = format!("{name} on {operator}, R = {r}");
                    let got: Out = (w.to_interleaved(), even, odd);
                    assert!(
                        *first.get_or_insert_with(|| got.clone()) == got,
                        "{what}: bits differ"
                    );
                    let snap = obs::probe::snapshot();
                    let records: Vec<_> = snap
                        .iter()
                        .map(|p| (p.kind, p.calls, p.width, p.rows, p.nnz))
                        .collect();
                    let want = vec![(*kind, 1, r as u64, n as u64, nnz as u64)];
                    assert_eq!(records, want, "{what}: probe records");
                }
            }
        }
    }
}

/// The JSONL metrics export and the Chrome trace-event export both
/// parse with the crate's own JSON parser and carry the recorded data.
#[test]
fn jsonl_and_trace_exports_parse() {
    let _g = serial();
    obs::reset();
    obs::set_enabled(true);
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    kpm_moments(&h, sf, &params(16, 2), KpmVariant::AugSpmmv).unwrap();
    obs::metrics::counter_add("test.export.counter", 7);
    obs::hist::record("test.export.hist", 250);
    let jsonl = obs::export::metrics_jsonl_string();
    let trace = obs::export::chrome_trace_string();
    obs::set_enabled(false);

    let mut types = Vec::new();
    for line in jsonl.lines() {
        let v = obs::json::parse(line).expect("every JSONL line parses");
        types.push(v.get("type").and_then(|t| t.as_str()).unwrap().to_string());
        if v.get("name").and_then(|n| n.as_str()) == Some("test.export.counter") {
            assert_eq!(v.get("value").and_then(|x| x.as_f64()), Some(7.0));
        }
        if v.get("type").and_then(|t| t.as_str()) == Some("kernel") {
            assert!(v.get("gflops").and_then(|x| x.as_f64()).is_some());
            assert!(v.get("min_bf").and_then(|x| x.as_f64()).unwrap() > 0.0);
        }
    }
    assert_eq!(types[0], "meta");
    for want in ["counter", "exact_histogram", "kernel"] {
        assert!(types.iter().any(|t| t == want), "missing '{want}' line");
    }

    let doc = obs::json::parse(&trace).expect("trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let phase = |v: &obs::json::Value| v.get("ph").and_then(|p| p.as_str()).map(str::to_string);
    assert!(events.iter().any(|e| phase(e).as_deref() == Some("M")));
    let sweeps = events
        .iter()
        .filter(|e| {
            phase(e).as_deref() == Some("X")
                && e.get("name").and_then(|n| n.as_str()) == Some("solver.sweep")
        })
        .count();
    assert_eq!(sweeps, params(16, 2).iterations());
}

/// Acceptance: live Ω (warm multi-sweep replay of the kernel's address
/// stream) agrees with the cold cachesim prediction within 15% on a
/// deterministic workload whose working set exceeds the LLC.
#[test]
fn live_omega_agrees_with_cachesim_prediction() {
    let h = TopoHamiltonian::clean(16, 16, 4).assemble();
    let llc = CacheConfig {
        capacity_bytes: 128 * 1024,
        line_bytes: 64,
        ways: 16,
    };
    for r in [4usize, 8] {
        let live = measure_omega_kernel(&h, KernelKind::AugSpmmv, r, llc, 3);
        let pred = measure_omega(&h, r, llc);
        assert!(live.omega >= 1.0, "R={r}: live omega {} < 1", live.omega);
        let rel = (live.omega / pred.omega - 1.0).abs();
        assert!(
            rel < 0.15,
            "R={r}: live {} vs predicted {} ({}% apart)",
            live.omega,
            pred.omega,
            100.0 * rel
        );
    }
}

/// `kpm report` on an operator that fits the simulated LLC: the warm
/// replay measures Ω < 1, which the table shows as measured while the
/// roofline is evaluated at Ω = 1 — a row per kernel and exit 0, where
/// the roofline model's `omega must be >= 1` assertion used to fire.
#[test]
fn kpm_report_prints_its_table_on_a_cache_resident_operator() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_kpm"))
        .args(["report", "--nx", "2", "--ny", "2", "--nz", "2"])
        .args(["--moments", "4", "--random", "1"])
        .output()
        .expect("kpm runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "kpm report: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    let mut lines = stdout.lines();
    let header: Vec<&str> = lines.next().expect("header").split_whitespace().collect();
    let omega_live = header.iter().position(|h| *h == "omega-live").unwrap();
    let kernels: Vec<Vec<&str>> = lines.map(|l| l.split_whitespace().collect()).collect();
    let names: Vec<&str> = kernels.iter().map(|row| row[0]).collect();
    assert_eq!(names, ["spmv", "aug_spmv", "aug_spmmv"]);
    for row in &kernels {
        let omega: f64 = row[omega_live].parse().expect("omega-live is a number");
        assert!(omega > 0.0 && omega < 1.0, "{row:?}: cache-resident Ω");
        let p_star: f64 = row[row.len() - 2].parse().expect("P* is a number");
        assert!(p_star.is_finite() && p_star > 0.0, "{row:?}");
    }
}

/// With instrumentation disabled nothing is recorded anywhere: no
/// spans, no metrics, no kernel probes.
#[test]
fn disabled_instrumentation_is_inert() {
    let _g = serial();
    obs::reset();
    obs::set_enabled(false);
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    kpm_moments(&h, sf, &params(16, 2), KpmVariant::AugSpmmv).unwrap();
    assert_eq!(obs::span::snapshot().len(), 0);
    assert_eq!(obs::probe::snapshot().len(), 0);
    // The world telemetry ledger still works (plain counters), but the
    // global metrics registry stays empty.
    assert!(obs::metrics::snapshot().is_empty());
}

// ---------------------------------------------------------------------
// PR 7: exact-percentile histograms, sliding windows, request tracing,
// and the flight recorder.
// ---------------------------------------------------------------------

/// Nearest-rank quantile on a sorted sample vector: the oracle the
/// log-linear histogram is checked against.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[rank as usize - 1]
}

/// The HDR-style histogram reports p50/p90/p99/p999 within its
/// documented relative-error bound against a sorted-vector oracle, on
/// pathological distributions: constant, extreme bimodal, power-law
/// tails, dense sequential, and the sub-linear exact range.
#[test]
fn exact_histogram_quantiles_match_sorted_oracle() {
    let distributions: Vec<Vec<u64>> = vec![
        vec![42; 10_000], // constant
        {
            // Extreme bimodal: 99% fast, 1% five decades slower.
            let mut v = vec![120u64; 9_900];
            v.extend(std::iter::repeat_n(17_000_000_000u64, 100));
            v
        },
        (0..64)
            .map(|k| 1u64 << (k % 40))
            .cycle()
            .take(8_000)
            .collect(), // power-law
        (1..=10_000u64).collect(),                // sequential
        (0..31u64).cycle().take(5_000).collect(), // exact sub-linear range
        vec![u64::MAX, 0, 1],                     // extremes
    ];
    for (i, mut sample) in distributions.into_iter().enumerate() {
        let mut h = obs::hist::ExactHist::new();
        for &v in &sample {
            h.record(v);
        }
        sample.sort_unstable();
        assert_eq!(h.count(), sample.len() as u64, "dist {i}: count");
        assert_eq!(h.min(), sample[0], "dist {i}: min is exact");
        for q in [0.5, 0.9, 0.99, 0.999] {
            let oracle = oracle_quantile(&sample, q);
            let got = h.value_at_quantile(q);
            let err = (got as f64 - oracle as f64).abs() / (oracle.max(1) as f64);
            assert!(
                err <= obs::hist::ExactHist::MAX_RELATIVE_ERROR,
                "dist {i} q={q}: got {got}, oracle {oracle}, rel err {err:.5}"
            );
            if oracle < 32 {
                assert_eq!(got, oracle, "dist {i} q={q}: sub-linear range is exact");
            }
        }
    }
}

/// The sliding window drops samples once they age out of the slot
/// ring, while the cumulative total keeps everything.
#[test]
fn sliding_window_expires_old_samples() {
    let mut w = obs::hist::Windowed::new();
    for _ in 0..5 {
        w.record(100);
    }
    assert_eq!(w.window().count(), 5, "fresh samples are in the window");
    for _ in 0..obs::hist::WINDOW_SLOTS {
        w.advance();
    }
    assert_eq!(w.window().count(), 0, "window forgot the old samples");
    assert_eq!(w.total().count(), 5, "the total keeps them");
    w.record(7);
    assert_eq!(w.window().count(), 1);
    assert_eq!(w.window().min(), 7);
    assert_eq!(w.total().count(), 6);
}

/// Every admitted request carries a complete trace: a nonzero trace
/// id on the reply, an exact stage breakdown whose sum equals the
/// request's end-to-end wall time (within 5%), a `svc.request` root
/// span, four stage spans, and no orphan parent pointers anywhere.
#[test]
fn service_replies_carry_complete_traces_and_stage_tilings() {
    use kpm_repro::service::{Admission, QueryKind, Request, Service, ServiceConfig, ShutdownMode};
    use kpm_repro::sparse::KpmMatrix;

    let _g = serial();
    obs::reset();
    obs::set_enabled(true);
    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let svc = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let fp = svc.register_matrix(KpmMatrix::crs(h), sf);
    let kinds = [
        QueryKind::Dos {
            seed: 1,
            num_random: 2,
        },
        QueryKind::Ldos { site: 3 },
        QueryKind::Green {
            seed: 2,
            num_random: 1,
        },
        QueryKind::Dos {
            seed: 1,
            num_random: 2,
        }, // cache-hit candidate
    ];
    let mut traces = Vec::new();
    for kind in kinds {
        let admission = svc.submit(Request {
            matrix: fp,
            kind,
            num_moments: 24,
            kernel: kpm_repro::core::Kernel::Jackson,
            points: 16,
            deadline: None,
        });
        let Admission::Admitted(ticket) = admission else {
            panic!("uncontended submit was rejected");
        };
        let resp = ticket.wait().expect("exactly-once reply");
        assert_ne!(resp.stats.trace, 0, "traced reply carries its id");
        let s = resp.stats.stages;
        assert!(s.total_us() > 0.0, "stage breakdown is populated");
        for part in [s.queue_us, s.batch_us, s.solve_us, s.reply_us] {
            assert!(part >= 0.0, "stages are non-negative");
        }
        traces.push(resp.stats.trace);
    }
    svc.shutdown(ShutdownMode::Drain);

    let spans = obs::span::snapshot();
    for &trace in &traces {
        let mine: Vec<_> = spans.iter().filter(|s| s.trace == trace).collect();
        let root = mine
            .iter()
            .find(|s| s.name == "svc.request")
            .unwrap_or_else(|| panic!("trace {trace} has no svc.request root"));
        let mut stage_sum = 0.0;
        for stage in [
            "svc.stage.queue",
            "svc.stage.batch",
            "svc.stage.solve",
            "svc.stage.reply",
        ] {
            let sp = mine
                .iter()
                .find(|s| s.name == stage)
                .unwrap_or_else(|| panic!("trace {trace} is missing {stage}"));
            assert_eq!(sp.parent, Some(root.id), "{stage} hangs off the root");
            stage_sum += sp.dur_us;
        }
        assert!(
            (stage_sum - root.dur_us).abs() <= 0.05 * root.dur_us.max(1.0),
            "trace {trace}: stages sum to {stage_sum} us but e2e is {} us",
            root.dur_us
        );
        // No orphans: every parent pointer resolves in the full pool
        // (stage parents in-trace; batch/solve spans may be shared).
        for s in &mine {
            if let Some(p) = s.parent {
                assert!(
                    spans.iter().any(|q| q.id == p),
                    "trace {trace}: span {} has orphan parent {p}",
                    s.id
                );
            }
        }
    }
    obs::set_enabled(false);
}

/// A chaos-injected worker crash triggers an automatic flight-recorder
/// dump: a `kpm-flight-v1` JSONL file whose every line parses and
/// whose event stream contains the crash marker.
#[test]
fn flight_recorder_dumps_on_chaos_crash() {
    use kpm_repro::service::{
        Admission, ChaosPlan, QueryKind, Request, Service, ServiceConfig, ShutdownMode,
    };
    use kpm_repro::sparse::KpmMatrix;

    let _g = serial();
    obs::reset();
    obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("kpm-flight-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let prefix = dir.join("flight");
    obs::recorder::configure_dump(prefix.to_str().expect("utf-8 temp path"));

    let h = TopoHamiltonian::clean(4, 4, 2).assemble();
    let sf = ScaleFactors::from_gershgorin(&h, 0.01);
    let svc = Service::start(ServiceConfig {
        workers: 1,
        max_retries: 0,
        chaos: Some(ChaosPlan::new(77).with_worker_crashes(1.0)),
        ..ServiceConfig::default()
    });
    let fp = svc.register_matrix(KpmMatrix::crs(h), sf);
    let admission = svc.submit(Request {
        matrix: fp,
        kind: QueryKind::Dos {
            seed: 5,
            num_random: 1,
        },
        num_moments: 16,
        kernel: kpm_repro::core::Kernel::Jackson,
        points: 16,
        deadline: None,
    });
    let Admission::Admitted(ticket) = admission else {
        panic!("submit rejected");
    };
    let resp = ticket.wait().expect("terminal reply even under chaos");
    assert_ne!(resp.stats.trace, 0, "failed replies are traced too");
    svc.shutdown(ShutdownMode::Drain);

    assert!(
        obs::recorder::dumps_triggered() > 0,
        "chaos crash must trigger an automatic dump"
    );
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".jsonl"))
        .collect();
    assert!(!dumps.is_empty(), "dump file written");
    let text = std::fs::read_to_string(dumps[0].path()).expect("read dump");
    let mut crash_seen = false;
    for (i, line) in text.lines().enumerate() {
        let v = obs::json::parse(line).unwrap_or_else(|e| panic!("dump line {i}: {e}"));
        if i == 0 {
            assert_eq!(
                v.get("schema").and_then(obs::json::Value::as_str),
                Some("kpm-flight-v1")
            );
        }
        if v.get("kind").and_then(obs::json::Value::as_str) == Some("chaos.crash") {
            crash_seen = true;
        }
    }
    assert!(crash_seen, "dump records the chaos.crash event");
    let _ = std::fs::remove_dir_all(&dir);
    obs::set_enabled(false);
}

/// The per-route SLO ledger counts breaches and reports burn rates
/// against the configured objective.
#[test]
fn slo_burn_rate_counts_breaches() {
    let _g = serial();
    obs::reset();
    obs::set_enabled(true);
    // 99% of requests under 1 ms.
    obs::slo::objective("dos", 1_000_000, 0.99);
    for _ in 0..98 {
        obs::slo::observe("dos", 500_000);
    }
    obs::slo::observe("dos", 2_000_000);
    obs::slo::observe("dos", 3_000_000);
    let snap = obs::slo::snapshot();
    let r = snap
        .iter()
        .find(|r| r.route == "dos")
        .expect("dos objective");
    assert_eq!(r.events, 100);
    assert_eq!(r.breaches, 2);
    // 2% bad over a 1% budget: burning 2x.
    assert!((r.burn_rate - 2.0).abs() < 1e-9, "burn {}", r.burn_rate);
    obs::set_enabled(false);
}
