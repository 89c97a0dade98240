//! The flight recorder: a fixed-size, lock-sharded ring of recent
//! events, dumped to JSONL when something goes wrong.
//!
//! [`note`] appends an [`EventRecord`] (timestamp, thread, trace id,
//! Lamport stamp, kind, detail) to one of [`SHARDS`] bounded rings
//! chosen by thread id, so concurrent writers rarely contend and memory
//! stays constant no matter how long the process runs. When a trigger
//! fires — a breaker opening, a deadline miss, or SIGTERM —
//! [`trigger_dump`] freezes the rings plus the tail of the
//! span registry into a `kpm-flight-v1` JSONL file for post-mortem
//! replay with `kpm trace-report`.
//!
//! Dumping is rare and allowed to be expensive; noting must stay cheap
//! and is gated like every other recording entry point. The SIGTERM
//! handler only sets an atomic flag (async-signal-safe); the host loop
//! polls [`sigterm_seen`] and performs the dump on its own thread.

use std::collections::VecDeque;
use std::fmt::Display;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::{escape, num};
use crate::{clock, span};

/// Number of independent ring shards.
pub const SHARDS: usize = 8;
/// Events retained per shard (total capacity `SHARDS * PER_SHARD`).
pub const PER_SHARD: usize = 512;
/// Most recent spans included in a dump alongside the event rings.
pub const DUMP_SPAN_TAIL: usize = 512;
/// Automatic dumps after this many are ignored (the post-mortem wants
/// the first incidents, not a disk full of repeats).
pub const MAX_AUTO_DUMPS: u64 = 16;

/// One recorded event.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Microseconds since the obs epoch.
    pub ts_us: f64,
    /// Observability thread id.
    pub tid: u64,
    /// Trace the event belongs to (0 = none).
    pub trace: u64,
    /// Lamport stamp at record time.
    pub lamport: u64,
    /// Event kind, e.g. `deadline.miss`, `breaker.open`.
    pub kind: &'static str,
    /// Free-form detail.
    pub detail: String,
}

fn rings() -> &'static Vec<Mutex<VecDeque<EventRecord>>> {
    static RINGS: OnceLock<Vec<Mutex<VecDeque<EventRecord>>>> = OnceLock::new();
    RINGS.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect())
}

fn dump_prefix_slot() -> &'static Mutex<Option<String>> {
    static PREFIX: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    PREFIX.get_or_init(|| Mutex::new(None))
}

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

/// Records one event into the ring. No-op when disabled.
pub fn note(kind: &'static str, trace: u64, detail: impl Display) {
    if !crate::enabled() {
        return;
    }
    let tid = span::current_tid();
    let rec = EventRecord {
        ts_us: span::micros_since_epoch(),
        tid,
        trace,
        lamport: clock::tick(),
        kind,
        detail: detail.to_string(),
    };
    let ring = &rings()[(tid as usize) % SHARDS];
    let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
    if ring.len() == PER_SHARD {
        ring.pop_front();
    }
    ring.push_back(rec);
}

/// Sets the path prefix for automatic dumps (`<prefix>-NNN-<reason>.jsonl`).
/// No-op when disabled.
pub fn configure_dump(prefix: &str) {
    if !crate::enabled() {
        return;
    }
    *dump_prefix_slot().lock().unwrap_or_else(|e| e.into_inner()) = Some(prefix.to_string());
}

/// The configured dump prefix, if any.
pub fn dump_prefix() -> Option<String> {
    dump_prefix_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Every retained event, merged across shards and ordered by timestamp.
pub fn snapshot() -> Vec<EventRecord> {
    let mut all = Vec::new();
    for ring in rings() {
        all.extend(
            ring.lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .cloned(),
        );
    }
    all.sort_by(|a, b| {
        a.ts_us
            .partial_cmp(&b.ts_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.lamport.cmp(&b.lamport))
    });
    all
}

/// Number of events currently retained.
pub fn len() -> usize {
    rings()
        .iter()
        .map(|r| r.lock().unwrap_or_else(|e| e.into_inner()).len())
        .sum()
}

/// Writes the flight-recorder contents to `path` as `kpm-flight-v1`
/// JSONL: one meta line, then `event` lines (ring contents in time
/// order), then the last [`DUMP_SPAN_TAIL`] `span` lines.
pub fn dump_to(path: &Path, reason: &str) -> io::Result<usize> {
    let events = snapshot();
    let spans = span::snapshot();
    let tail_start = spans.len().saturating_sub(DUMP_SPAN_TAIL);
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"type\":\"meta\",\"schema\":\"kpm-flight-v1\",\"reason\":\"{}\",\
         \"epoch_unix_us\":{},\"dumped_at_us\":{},\"events\":{},\"spans\":{}}}",
        escape(reason),
        span::epoch_unix_us(),
        num(span::micros_since_epoch()),
        events.len(),
        spans.len() - tail_start,
    )?;
    let mut written = 1usize;
    for e in &events {
        writeln!(
            w,
            "{{\"type\":\"event\",\"ts_us\":{},\"tid\":{},\"trace\":{},\"lamport\":{},\
             \"kind\":\"{}\",\"detail\":\"{}\"}}",
            num(e.ts_us),
            e.tid,
            e.trace,
            e.lamport,
            escape(e.kind),
            escape(&e.detail),
        )?;
        written += 1;
    }
    for s in &spans[tail_start..] {
        let mut args = String::new();
        for (k, v) in &s.args {
            if !args.is_empty() {
                args.push(',');
            }
            use std::fmt::Write as _;
            let _ = write!(args, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        writeln!(
            w,
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"cat\":\"{}\",\
             \"tid\":{},\"trace\":{},\"lamport\":{},\"ts_us\":{},\"dur_us\":{},\"args\":{{{args}}}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            escape(s.name),
            escape(s.cat),
            s.tid,
            s.trace,
            s.lamport,
            num(s.start_us),
            num(s.dur_us),
        )?;
        written += 1;
    }
    w.flush()?;
    Ok(written)
}

/// Performs an automatic dump if recording is enabled and a prefix is
/// configured; returns the written path. Quietly rate-limited to
/// [`MAX_AUTO_DUMPS`] per process; IO errors are swallowed (a failing
/// post-mortem writer must not take down the service).
pub fn trigger_dump(reason: &str) -> Option<String> {
    if !crate::enabled() {
        return None;
    }
    let prefix = dump_prefix()?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    if seq >= MAX_AUTO_DUMPS {
        return None;
    }
    let safe_reason: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = format!("{prefix}-{seq:03}-{safe_reason}.jsonl");
    match dump_to(Path::new(&path), reason) {
        Ok(_) => Some(path),
        Err(_) => None,
    }
}

/// Number of automatic dumps triggered so far.
pub fn dumps_triggered() -> u64 {
    DUMP_SEQ.load(Ordering::Relaxed).min(MAX_AUTO_DUMPS)
}

#[cfg(unix)]
extern "C" fn on_sigterm(_sig: i32) {
    // Async-signal-safe: a single atomic store, nothing else.
    SIGTERM_SEEN.store(true, Ordering::Relaxed);
}

/// Installs a SIGTERM handler that sets a flag for [`sigterm_seen`].
/// The host loop polls the flag and calls [`trigger_dump`] itself; the
/// handler never allocates or locks. No-op off Unix.
pub fn arm_sigterm() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is the libc signal(2) binding (std links libc
        // on every Unix target); the installed handler only performs an
        // atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_sigterm as *const () as usize);
        }
    }
}

/// True once SIGTERM has been delivered after [`arm_sigterm`].
pub fn sigterm_seen() -> bool {
    SIGTERM_SEEN.load(Ordering::Relaxed)
}

/// Clears the rings, dump configuration, and counters.
pub(crate) fn reset() {
    for ring in rings() {
        ring.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
    *dump_prefix_slot().lock().unwrap_or_else(|e| e.into_inner()) = None;
    DUMP_SEQ.store(0, Ordering::Relaxed);
    SIGTERM_SEEN.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as serial;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        for i in 0..(PER_SHARD + 100) {
            note("test.fill", 0, i);
        }
        // All notes from one thread land in one shard.
        assert_eq!(len(), PER_SHARD);
        let snap = snapshot();
        assert_eq!(snap.last().unwrap().detail, (PER_SHARD + 99).to_string());
        assert!(snap.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn disabled_recorder_stays_dark() {
        let _g = serial();
        crate::set_enabled(false);
        crate::reset();
        note("test.dark", 1, "x");
        configure_dump("/tmp/should-not-matter");
        assert_eq!(len(), 0);
        assert!(dump_prefix().is_none());
        assert!(trigger_dump("dark").is_none());
    }

    #[test]
    fn dump_writes_parseable_jsonl() {
        let _g = serial();
        crate::reset();
        let _on = crate::EnabledGuard::new();
        note("deadline.miss", 42, "batch=7 expired mid-solve");
        {
            let _s = crate::span::span("svc.request", "svc").trace(42);
        }
        let path =
            std::env::temp_dir().join(format!("kpm-flight-test-{}.jsonl", std::process::id()));
        let lines = dump_to(&path, "unit test").expect("dump");
        assert!(lines >= 3);
        let text = std::fs::read_to_string(&path).expect("read back");
        let mut kinds = Vec::new();
        for line in text.lines() {
            let v = crate::json::parse(line).expect("line parses");
            kinds.push(
                v.get("type")
                    .and_then(crate::json::Value::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
        assert_eq!(kinds[0], "meta");
        assert!(kinds.iter().any(|k| k == "event"));
        assert!(kinds.iter().any(|k| k == "span"));
        let _ = std::fs::remove_file(&path);
    }
}
