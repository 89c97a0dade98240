//! Exporters: JSONL metrics snapshots and Chrome trace-event span
//! dumps (loadable in `chrome://tracing` / Perfetto).
//!
//! JSONL schema (`kpm-obs-v1`), one object per line:
//!
//! ```text
//! {"type":"meta","schema":"kpm-obs-v1","epoch_unix_us":...,"snapshot_us":...}
//! {"type":"counter","name":"svc.admitted","value":42}
//! {"type":"gauge","name":"svc.queue_depth","value":3}
//! {"type":"exact_histogram","name":"solver.ckpt.save_ns","scope":"total",
//!  "count":..,"sum":..,"min":..,"max":..,"mean":..,
//!  "p50":..,"p90":..,"p99":..,"p999":..}
//! {"type":"slo","route":"dos","threshold_ns":..,"goal":..,"events":..,
//!  "breaches":..,"burn_rate":..,"window_events":..,"window_breaches":..,
//!  "window_burn_rate":..}
//! {"type":"kernel","kernel":"aug_spmmv","calls":..,"seconds":..,
//!  "flops":..,"min_bytes":..,"gflops":..,"min_bf":..,
//!  "rows":..,"nnz":..,"width":..}
//! ```
//!
//! Each exact histogram writes a `"total"` line and, while its sliding
//! window holds samples, a `"window"` line.
//!
//! The trace export is a single JSON object with `traceEvents`:
//! `ph:"M"` thread-name metadata followed by `ph:"X"` complete events
//! (`ts`/`dur` in microseconds since the obs epoch).

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

use crate::json::{escape, num};
use crate::metrics::{self, Metric};
use crate::{hist, probe, slo, span};

/// Writes the metrics + kernel-probe snapshot as JSONL.
pub fn write_metrics_jsonl<W: Write>(mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "{{\"type\":\"meta\",\"schema\":\"kpm-obs-v1\",\"epoch_unix_us\":{},\"snapshot_us\":{}}}",
        span::epoch_unix_us(),
        num(span::micros_since_epoch()),
    )?;
    for (name, metric) in metrics::snapshot() {
        match metric {
            Metric::Counter(v) => writeln!(
                w,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                escape(&name)
            )?,
            Metric::Gauge(v) => writeln!(
                w,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                escape(&name),
                num(v)
            )?,
        }
    }
    for (name, win) in hist::snapshot() {
        for (scope, h) in [("total", win.total().clone()), ("window", win.window())] {
            if h.count() == 0 {
                continue;
            }
            let (p50, p90, p99, p999) = h.quartet();
            writeln!(
                w,
                "{{\"type\":\"exact_histogram\",\"name\":\"{}\",\"scope\":\"{scope}\",\
                 \"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
                 \"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"p999\":{p999}}}",
                escape(&name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                num(h.mean()),
            )?;
        }
    }
    for r in slo::snapshot() {
        writeln!(
            w,
            "{{\"type\":\"slo\",\"route\":\"{}\",\"threshold_ns\":{},\"goal\":{},\
             \"events\":{},\"breaches\":{},\"burn_rate\":{},\
             \"window_events\":{},\"window_breaches\":{},\"window_burn_rate\":{}}}",
            escape(&r.route),
            r.threshold_ns,
            num(r.goal),
            r.events,
            r.breaches,
            num(r.burn_rate),
            r.window_events,
            r.window_breaches,
            num(r.window_burn_rate),
        )?;
    }
    for rep in probe::snapshot() {
        writeln!(
            w,
            "{{\"type\":\"kernel\",\"kernel\":\"{}\",\"calls\":{},\"seconds\":{},\
             \"flops\":{},\"min_bytes\":{},\"gflops\":{},\"min_bf\":{},\
             \"rows\":{},\"nnz\":{},\"width\":{}}}",
            rep.kind.name(),
            rep.calls,
            num(rep.seconds),
            rep.flops,
            rep.min_bytes,
            num(rep.gflops()),
            num(rep.min_bytes_per_flop()),
            rep.rows,
            rep.nnz,
            rep.width,
        )?;
    }
    Ok(())
}

/// The metrics snapshot as an in-memory JSONL string.
pub fn metrics_jsonl_string() -> String {
    let mut buf = Vec::new();
    write_metrics_jsonl(&mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

/// Chrome-trace pid every thread renders under.
const HOST_PID: u64 = 1;

/// Writes every recorded span as a Chrome trace-event JSON document.
/// Each registered thread keeps its own `tid` under the one process
/// lane, pid 1, with `process_name` / `thread_name` metadata so
/// the viewer labels every lane.
pub fn write_chrome_trace<W: Write>(mut w: W) -> io::Result<()> {
    write!(w, "{{\"traceEvents\":[")?;
    write!(
        w,
        "{{\"ph\":\"M\",\"pid\":{HOST_PID},\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"kpm\"}}}}"
    )?;
    for (tid, name) in span::threads() {
        write!(
            w,
            ",{{\"ph\":\"M\",\"pid\":{HOST_PID},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(&name)
        )?;
    }
    for s in span::snapshot() {
        let mut args = String::new();
        if let Some(parent) = s.parent {
            let _ = write!(args, "\"parent\":\"{parent}\"");
        }
        if s.trace != 0 {
            if !args.is_empty() {
                args.push(',');
            }
            let _ = write!(
                args,
                "\"trace\":\"{}\",\"lamport\":\"{}\"",
                s.trace, s.lamport
            );
        }
        for (k, v) in &s.args {
            if !args.is_empty() {
                args.push(',');
            }
            let _ = write!(args, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        write!(
            w,
            ",{{\"ph\":\"X\",\"pid\":{HOST_PID},\"tid\":{},\"id\":\"{}\",\"name\":\"{}\",\
             \"cat\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            s.tid,
            s.id,
            escape(s.name),
            escape(s.cat),
            num(s.start_us),
            num(s.dur_us),
        )?;
    }
    write!(
        w,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"kpm-obs-v1\",\
         \"epoch_unix_us\":{},\"spans_dropped\":{}}}}}",
        span::epoch_unix_us(),
        span::dropped()
    )?;
    writeln!(w)
}

/// The trace as an in-memory JSON string.
pub fn chrome_trace_string() -> String {
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

/// Writes the metrics JSONL snapshot to `path`.
pub fn export_metrics_to_path(path: &Path) -> io::Result<()> {
    write_metrics_jsonl(io::BufWriter::new(std::fs::File::create(path)?))
}

/// Writes the Chrome trace to `path`.
pub fn export_trace_to_path(path: &Path) -> io::Result<()> {
    write_chrome_trace(io::BufWriter::new(std::fs::File::create(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::test_lock as serial;

    #[test]
    fn metrics_jsonl_lines_parse() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        metrics::counter_add("test.count", 5);
        metrics::gauge_set("test.level", 2.5);
        hist::record("test.lat", 300);
        {
            let (kind, format) = (probe::KernelKind::AugSpmv, probe::ProbeFormat::Crs);
            let _t = probe::kernel_timer(kind, format, 10, 40, 1, || (660, 1280));
        }
        let text = metrics_jsonl_string();
        let mut counter_seen = false;
        let mut kernel_seen = false;
        for line in text.lines() {
            let v = parse(line).expect("every JSONL line parses");
            match v.get("type").and_then(Value::as_str) {
                Some("counter") => {
                    assert_eq!(v.get("name").and_then(Value::as_str), Some("test.count"));
                    assert_eq!(v.get("value").and_then(Value::as_f64), Some(5.0));
                    counter_seen = true;
                }
                Some("kernel") => {
                    assert_eq!(v.get("kernel").and_then(Value::as_str), Some("aug_spmv"));
                    assert_eq!(v.get("calls").and_then(Value::as_f64), Some(1.0));
                    kernel_seen = true;
                }
                _ => {}
            }
        }
        assert!(counter_seen && kernel_seen);
    }

    #[test]
    fn chrome_trace_parses_and_nests() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        {
            let _a = span::span("outer", "test");
            let _b = span::span("inner", "test").arg("note", "x\"y");
        }
        let doc = parse(&chrome_trace_string()).expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        let inner = complete
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("inner"))
            .unwrap();
        assert!(inner.get("args").unwrap().get("parent").is_some());
        assert_eq!(
            inner
                .get("args")
                .unwrap()
                .get("note")
                .and_then(Value::as_str),
            Some("x\"y")
        );
    }
}
