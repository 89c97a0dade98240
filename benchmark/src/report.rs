//! The metric tables (names, units, directions, bounds, layers and the
//! end-to-end metric each layer metric should move) and the result of
//! one workload run, printed as a table, as the driver's result line
//! and as JSON. `BENCHMARK.json` repeats the names, units, directions
//! and bounds; a unit test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    pub layer: &'static str,
    /// For a layer metric: the end-to-end metric it should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "end-to-end",
        moves: "",
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off. Every workload reports every one of
/// them; README.md gives the per-workload definitions.
pub const END_TO_END: &[Def] = &[
    e2e("wall_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sweep_gflops", "GF/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

/// Measured in the traced run, from spans the benchmark records around
/// calls into each layer.
pub const PER_LAYER: &[Def] = &[
    layer("kpm-topo", "topo.assemble_s", "s", Lower, "setup_s"),
    layer("kpm-topo", "topo.scale_s", "s", Lower, "setup_s"),
    layer("kpm-sparse", "sparse.format_s", "s", Lower, "setup_s"),
    layer(
        "kpm-sparse",
        "sparse.matrix_mib",
        "MiB",
        Lower,
        "peak_rss_mib",
    ),
    layer(
        "kpm-sparse",
        "kernel.naive.gflops",
        "GF/s",
        Higher,
        "sweep_gflops",
    ),
    layer(
        "kpm-sparse",
        "kernel.aug_spmv.gflops",
        "GF/s",
        Higher,
        "sweep_gflops",
    ),
    layer(
        "kpm-sparse",
        "kernel.aug_spmmv.gflops",
        "GF/s",
        Higher,
        "sweep_gflops, wall_s",
    ),
    layer(
        "kpm-sparse",
        "kernel.aug_spmmv.bf_min",
        "B/F",
        Lower,
        "sweep_gflops",
    ),
    layer(
        "kpm-sparse",
        "kernel.aug_spmmv.bw_eff_gbs",
        "GB/s",
        Higher,
        "sweep_gflops",
    ),
    layer(
        "kpm-sparse",
        "kernel.aug_spmmv.roof_frac",
        "fraction",
        Higher,
        "sweep_gflops",
    ),
    layer("kpm-core", "core.startvec_s", "s", Lower, "setup_s"),
    layer("kpm-core", "core.solve_s", "s", Lower, "wall_s"),
    layer("kpm-core", "core.reconstruct_s", "s", Lower, "setup_s"),
    layer("kpm-core", "core.sweeps", "count", Lower, "wall_s"),
    layer("kpm-core", "core.flops", "count", Lower, "wall_s"),
    layer("shims/rayon", "pool.solve_1t_s", "s", Lower, "wall_s"),
    layer("shims/rayon", "pool.solve_2t_s", "s", Lower, "wall_s"),
    layer(
        "shims/rayon",
        "pool.par_eff_2t",
        "fraction",
        Higher,
        "wall_s",
    ),
    layer("kpm CLI", "cli.residual_s", "s", Lower, "wall_s"),
    layer("kpm CLI", "cli.residual_frac", "fraction", Lower, "wall_s"),
    layer("kpm CLI", "cli.csv_bytes", "B", Lower, "wall_s"),
    layer("kpm-service", "service.queue_ms", "ms", Lower, "wall_s"),
    layer("kpm-service", "service.batch_ms", "ms", Lower, "wall_s"),
    layer("kpm-service", "service.solve_ms", "ms", Lower, "wall_s"),
    layer("kpm-service", "service.reply_ms", "ms", Lower, "wall_s"),
    layer(
        "kpm-service",
        "service.untiled_frac",
        "fraction",
        Lower,
        "wall_s",
    ),
    layer(
        "kpm-service",
        "service.cache_hit_frac",
        "fraction",
        Higher,
        "wall_s, sweep_gflops",
    ),
    layer(
        "kpm-service",
        "service.batch_width_mean",
        "count",
        Higher,
        "wall_s, sweep_gflops",
    ),
    layer("kpm-service", "service.hedged", "count", Lower, "wall_s"),
    layer("kpm-service", "service.degraded", "count", Lower, "wall_s"),
    layer("kpm-service", "service.rejected", "count", Lower, "wall_s"),
    layer("kpm-service", "service.rps", "1/s", Higher, "wall_s"),
    layer("kpm-service", "service.lat_p50_ms", "ms", Lower, "wall_s"),
    layer("kpm-service", "service.lat_p90_ms", "ms", Lower, "wall_s"),
    layer("kpm-service", "service.lat_p99_ms", "ms", Lower, "wall_s"),
    layer("kpm-obs", "obs.overhead_frac", "fraction", Lower, "wall_s"),
    layer("host", "host.stream_gbs", "GB/s", Higher, "sweep_gflops"),
    layer(
        "host",
        "host.cmuladd_gflops",
        "GF/s",
        Higher,
        "sweep_gflops",
    ),
    layer("host", "host.nproc", "count", Higher, "wall_s"),
];

#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    pub note: String,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, and anything else that makes the
    /// numbers unfit to use.
    pub problems: Vec<String>,
    /// Doubts about the measurement itself (layer times that do not
    /// tile the wall time, too few cores). They leave `correct` alone,
    /// which speaks for the program's outputs; `selfcheck` fails on
    /// them.
    pub warnings: Vec<String>,
    pub values: BTreeMap<&'static str, Value>,
    /// Per-repetition samples behind the values, for the JSON document.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            warnings: Vec::new(),
            values: BTreeMap::new(),
            series: Vec::new(),
        }
    }

    pub fn defs(&self) -> &'static [Def] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, n: usize, note: impl Into<String>) {
        debug_assert!(
            self.defs().iter().any(|d| d.name == name),
            "{name} is not a listed metric"
        );
        if !value.is_finite() {
            self.problems.push(format!("{name} is not finite"));
        }
        self.values.insert(
            name,
            Value {
                value,
                n,
                note: note.into(),
            },
        );
    }

    pub fn series(&mut self, name: &'static str, samples: &[f64]) {
        self.series.push((name, samples.to_vec()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("!! {}: {what}", self.workload);
        self.problems.push(what);
    }

    pub fn warn(&mut self, what: String) {
        eprintln!("!! WARNING {}: {what}", self.workload);
        self.warnings.push(what);
    }

    /// One more attempted operation; `Err` counts it as failed.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.problem(e);
        }
    }

    pub fn missing(&self) -> Vec<&'static str> {
        self.defs()
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.missing().is_empty()
    }

    /// Every metric by name with unit, sample count, direction and
    /// regression bound.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {}) — attempted {}, failed {} (fail_frac {:.4}), outputs {}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            if self.correct() {
                "correct"
            } else {
                "NOT CORRECT"
            },
        );
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:<9} {:>5}  {:<6} {:<6} {:<11} note",
            "metric", "value", "unit", "n", "better", "bound", "layer"
        );
        for d in self.defs() {
            let Some(v) = self.values.get(d.name) else {
                let _ = writeln!(out, "{:<28} {:>14}", d.name, "MISSING");
                continue;
            };
            let bound = d.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            let mut note = v.note.clone();
            if !d.moves.is_empty() {
                let _ = write!(
                    note,
                    "{}-> {}",
                    if note.is_empty() { "" } else { "; " },
                    d.moves
                );
            }
            let _ = writeln!(
                out,
                "{:<28} {:>14.6} {:<9} {:>5}  {:<6} {:<6} {:<11} {}",
                d.name,
                v.value,
                d.unit,
                v.n,
                d.better.as_str(),
                bound,
                d.layer,
                note
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "!! problem: {p}");
        }
        for w in &self.warnings {
            let _ = writeln!(out, "!! WARNING: {w}");
        }
        out
    }

    fn metrics_json(&self, detailed: bool) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for d in self.defs() {
            let Some(v) = self.values.get(d.name) else {
                continue;
            };
            let sep = if first { "" } else { ", " };
            first = false;
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"",
                d.name, d.unit
            );
            if detailed {
                let bound = d.bound.map_or("null".to_string(), |b| b.to_string());
                let _ = write!(
                    out,
                    ", \"n\": {}, \"better\": \"{}\", \"bound\": {bound}, \"layer\": \"{}\", \"moves\": \"{}\", \"note\": \"{}\"",
                    v.n,
                    d.better.as_str(),
                    d.layer,
                    d.moves,
                    escape(&v.note)
                );
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(false)
        )
    }

    /// The same numbers with everything the table shows.
    pub fn to_json(&self) -> String {
        let list = |items: &[String]| {
            let quoted: Vec<String> = items.iter().map(|p| format!("\"{}\"", escape(p))).collect();
            quoted.join(", ")
        };
        let series: Vec<String> = self
            .series
            .iter()
            .map(|(name, samples)| {
                let samples: Vec<String> = samples.iter().map(f64::to_string).collect();
                format!("\"{name}\": [{}]", samples.join(", "))
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"problems\": [{}], \"warnings\": [{}], \"metrics\": {}, \"series\": {{{}}}}}",
            self.workload,
            self.seed,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            list(&self.problems),
            list(&self.warnings),
            self.metrics_json(true),
            series.join(", ")
        )
    }
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The text of the JSON array under `key`.
    fn section(key: &str) -> &'static str {
        let start = BENCHMARK_JSON.find(&format!("\"{key}\"")).expect(key);
        let rest = &BENCHMARK_JSON[start..];
        &rest[..rest.find(']').expect("array end")]
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let text = section(key);
            assert_eq!(text.matches("\"name\"").count(), defs.len(), "{key}");
            for d in defs {
                let mut entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name,
                    d.unit,
                    d.better.as_str()
                );
                if let Some(b) = d.bound {
                    let _ = write!(entry, ", \"bound\": {b}");
                }
                assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let text = section("workloads");
        assert_eq!(
            text.matches("\"name\"").count(),
            crate::workloads::WORKLOADS.len()
        );
        for w in &crate::workloads::WORKLOADS {
            let entry = format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound <= setup.bound && d.bound <= Some(0.25)));
    }

    #[test]
    fn result_line_has_the_contract_keys_and_counts_failures() {
        let mut r = Report::new("dos_stream_r1", 3, false);
        for d in END_TO_END {
            r.set(d.name, 1.5, 9, "");
        }
        r.attempt(Ok(()));
        assert!(r.correct());
        let line = r.contract_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        r.attempt(Err("bad \"csv\"".into()));
        assert!(!r.correct());
        assert!(r
            .contract_line()
            .contains("\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(r.to_json().contains("bad \\\"csv\\\""));
    }

    #[test]
    fn a_missing_metric_is_not_correct() {
        let mut r = Report::new("svc_mixed", 3, true);
        r.attempt(Ok(()));
        r.set("host.nproc", 2.0, 1, "");
        assert_eq!(r.missing().len(), PER_LAYER.len() - 1);
        assert!(!r.correct());
    }
}
