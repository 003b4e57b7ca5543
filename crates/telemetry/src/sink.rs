//! The process-wide trace sink: JSON-lines structured events to a file,
//! stderr, or an in-memory buffer (tests), plus the human-readable
//! breakdown table renderer.
//!
//! One event per line, each a self-contained JSON object with a `type`
//! discriminator:
//!
//! | `type`     | emitted by                         | fields |
//! |------------|------------------------------------|--------|
//! | `meta`     | sink initialisation                | `version`, `schema` |
//! | `span`     | [`crate::span`] guards on drop     | `name`, `depth`, `thread`, `t_ns`, `dur_ns` |
//! | `step`     | `gothic::pipeline` per block step  | `step`, `t`, `n_active`, `rebuilt`, `modeled_s`, `wall_s`, event totals |
//! | `counters` | [`emit_counters`]                  | the run's counters, then every registry counter, by name |
//! | `hazard`   | `simt::racecheck` per hazard site  | `class`, access pair / mask bits, `count` |
//! | `racecheck`| `simt::racecheck` report summary   | `hazards`, `distinct`, `truncated` |
//!
//! The sink is behind a `Mutex`; span emission is per phase (a handful
//! of events per block step), so lock traffic is negligible next to the
//! work being measured.
//!
//! A second output format, [`TraceFormat::Chrome`], renders the same
//! span stream as Chrome trace-event JSON (one array of `ph:"X"`
//! complete events plus `ph:"C"` counter samples) so a run opens
//! directly in Perfetto or `chrome://tracing`. Structured JSON-lines
//! events without a trace-event analogue (`step`, `hazard`,
//! `racecheck`) are dropped in Chrome mode — the timeline carries the
//! spans and counters only.

use crate::json::JsonObject;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Trace format version (bump on schema changes; readers check `meta`).
pub const TRACE_VERSION: u32 = 1;

enum Target {
    File(BufWriter<File>),
    Stderr,
    Memory(Vec<String>),
}

/// Trace output format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// One self-contained JSON object per line (the native schema).
    #[default]
    JsonLines,
    /// Chrome trace-event JSON: a single array of `ph:"X"` span events
    /// and `ph:"C"` counter samples, loadable in Perfetto and
    /// `chrome://tracing`. Timestamps/durations are microseconds.
    Chrome,
}

struct Sink {
    target: Target,
    format: TraceFormat,
    /// Chrome events written so far, for comma framing of the array.
    events: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process trace epoch: all `t_ns` timestamps are relative to it.
/// First access pins it; sink initialisation calls this eagerly.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_LABEL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Small dense per-thread label for trace events (0 = first thread that
/// emitted, usually the driver).
pub fn thread_label() -> u64 {
    THREAD_LABEL.with(|l| *l)
}

fn lock() -> MutexGuard<'static, Option<Sink>> {
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Where [`init_trace`] sends the trace.
#[derive(Clone, Copy, Debug)]
pub enum TraceTo<'a> {
    /// Create (or truncate) the file at this path.
    File(&'a Path),
    /// Standard error.
    Stderr,
    /// An in-memory buffer, read back with [`drain_memory`] (tests).
    Memory,
}

/// Install the process-wide trace sink and enable spans + metrics. Only
/// a [`TraceTo::File`] that cannot be created returns an error.
pub fn init_trace(to: TraceTo<'_>, format: TraceFormat) -> std::io::Result<()> {
    let target = match to {
        TraceTo::File(path) => Target::File(BufWriter::new(File::create(path)?)),
        TraceTo::Stderr => Target::Stderr,
        TraceTo::Memory => Target::Memory(Vec::new()),
    };
    epoch();
    let mut g = lock();
    *g = Some(Sink {
        target,
        format,
        events: 0,
    });
    match format {
        TraceFormat::JsonLines => {
            let mut o = JsonObject::new();
            o.str("type", "meta")
                .u64("version", TRACE_VERSION as u64)
                .str("schema", "span|step|counters|hazard|racecheck");
            write_line(&mut g, &o.finish());
        }
        TraceFormat::Chrome => {
            write_line(&mut g, "[");
            let mut args = JsonObject::new();
            args.str("name", "gothic");
            let mut o = JsonObject::new();
            o.str("name", "process_name")
                .str("ph", "M")
                .u64("pid", std::process::id() as u64)
                .u64("tid", 0)
                .raw("args", &args.finish());
            write_chrome_event(&mut g, &o.finish());
        }
    }
    drop(g);
    crate::enable_all();
    Ok(())
}

/// True when a sink is installed.
pub fn trace_active() -> bool {
    lock().is_some()
}

/// Drain the lines collected by a memory sink (empty for other sinks).
/// In Chrome format the concatenation of the drained lines is the JSON
/// document built so far (without the closing `]` written by
/// [`shutdown`]).
pub fn drain_memory() -> Vec<String> {
    match &mut *lock() {
        Some(Sink {
            target: Target::Memory(v),
            ..
        }) => std::mem::take(v),
        _ => Vec::new(),
    }
}

/// Flush and remove the sink; disables spans and metrics. In Chrome
/// format this also closes the event array — a trace file is valid JSON
/// only after shutdown.
pub fn shutdown() {
    crate::disable_all();
    let mut g = lock();
    if let Some(s) = &mut *g {
        if s.format == TraceFormat::Chrome {
            write_line(&mut g, "]");
        }
    }
    if let Some(Sink {
        target: Target::File(w),
        ..
    }) = &mut *g
    {
        let _ = w.flush();
    }
    *g = None;
}

fn write_line(g: &mut MutexGuard<'_, Option<Sink>>, line: &str) {
    match &mut **g {
        None => {}
        Some(s) => match &mut s.target {
            Target::File(w) => {
                let _ = writeln!(w, "{line}");
            }
            Target::Stderr => {
                eprintln!("{line}");
            }
            Target::Memory(v) => v.push(line.to_string()),
        },
    }
}

/// Append one event object to a Chrome-format trace, handling the comma
/// framing of the surrounding array.
fn write_chrome_event(g: &mut MutexGuard<'_, Option<Sink>>, json: &str) {
    let first = match &mut **g {
        Some(s) => {
            let first = s.events == 0;
            s.events += 1;
            first
        }
        None => return,
    };
    if first {
        write_line(g, json);
    } else {
        write_line(g, &format!(",{json}"));
    }
}

fn format_of(g: &MutexGuard<'_, Option<Sink>>) -> Option<TraceFormat> {
    g.as_ref().map(|s| s.format)
}

/// Emit one pre-built event object as a trace line. JSON-lines only:
/// structured events without a trace-event analogue are dropped by a
/// Chrome sink.
pub fn emit(obj: &JsonObject) {
    let mut g = lock();
    if format_of(&g) == Some(TraceFormat::JsonLines) {
        let line = obj.finish();
        write_line(&mut g, &line);
    }
}

/// Record one completed span (called by the [`crate::SpanGuard`] drop).
pub fn record_span(name: &'static str, depth: u32, t_ns: u64, dur_ns: u64) {
    let mut g = lock();
    match format_of(&g) {
        None => {}
        Some(TraceFormat::JsonLines) => {
            let mut o = JsonObject::new();
            o.str("type", "span")
                .str("name", name)
                .u64("depth", depth as u64)
                .u64("thread", thread_label())
                .u64("t_ns", t_ns)
                .u64("dur_ns", dur_ns);
            write_line(&mut g, &o.finish());
        }
        Some(TraceFormat::Chrome) => {
            let mut args = JsonObject::new();
            args.u64("depth", depth as u64);
            let mut o = JsonObject::new();
            o.str("name", name)
                .str("cat", "span")
                .str("ph", "X")
                .f64("ts", t_ns as f64 / 1_000.0)
                .f64("dur", dur_ns as f64 / 1_000.0)
                .u64("pid", std::process::id() as u64)
                .u64("tid", thread_label())
                .raw("args", &args.finish());
            write_chrome_event(&mut g, &o.finish());
        }
    }
}

/// A run's counters followed by the process-scoped registry snapshot:
/// the schema of the `counters` trace line, the counter table and the
/// run reports.
pub(crate) fn with_registry(run: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    let mut all = run.to_vec();
    all.extend(crate::metrics::snapshot());
    all
}

/// Emit a `counters` line carrying `run` (the run-scoped counters, e.g.
/// `gothic::RunSummary::counters`) and the full registry snapshot. A
/// Chrome sink renders the nonzero counters as one `ph:"C"` counter
/// sample.
pub fn emit_counters(run: &[(&'static str, u64)]) {
    let mut g = lock();
    match format_of(&g) {
        None => {}
        Some(TraceFormat::JsonLines) => {
            let mut inner = JsonObject::new();
            for (name, value) in with_registry(run) {
                inner.u64(name, value);
            }
            let mut o = JsonObject::new();
            o.str("type", "counters").raw("counters", &inner.finish());
            write_line(&mut g, &o.finish());
        }
        Some(TraceFormat::Chrome) => {
            let mut args = JsonObject::new();
            let mut any = false;
            for (name, value) in with_registry(run) {
                if value > 0 {
                    args.u64(name, value);
                    any = true;
                }
            }
            if !any {
                return;
            }
            let ts = Instant::now().duration_since(epoch()).as_nanos() as f64 / 1_000.0;
            let mut o = JsonObject::new();
            o.str("name", "counters")
                .str("ph", "C")
                .f64("ts", ts)
                .u64("pid", std::process::id() as u64)
                .u64("tid", 0)
                .raw("args", &args.finish());
            write_chrome_event(&mut g, &o.finish());
        }
    }
}

/// Render the modeled-vs-measured breakdown table:
///
/// ```text
/// function     modeled s/step   wall s/step   modeled %   wall %
/// walk tree        1.234e-2       5.67e-3        81.2      64.3
/// ...
/// total            ...
/// ```
///
/// `rows` are `(name, modeled_seconds, wall_seconds)` totals; `steps`
/// normalises them to per-step values.
pub fn breakdown_table(title: &str, rows: &[(&str, f64, f64)], steps: u64) -> String {
    let steps = steps.max(1) as f64;
    let modeled_total: f64 = rows.iter().map(|r| r.1).sum();
    let wall_total: f64 = rows.iter().map(|r| r.2).sum();
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "  {:<11} {:>14} {:>13} {:>10} {:>8}\n",
        "function", "modeled s/step", "wall s/step", "modeled %", "wall %"
    ));
    for (name, modeled, wall) in rows {
        out.push_str(&format!(
            "  {:<11} {:>14.3e} {:>13.3e} {:>10.1} {:>8.1}\n",
            name,
            modeled / steps,
            wall / steps,
            100.0 * modeled / modeled_total.max(f64::MIN_POSITIVE),
            100.0 * wall / wall_total.max(f64::MIN_POSITIVE),
        ));
    }
    out.push_str(&format!(
        "  {:<11} {:>14.3e} {:>13.3e} {:>10.1} {:>8.1}\n",
        "total",
        modeled_total / steps,
        wall_total / steps,
        100.0,
        100.0
    ));
    out
}

/// Render `run` and the counter registry as an aligned two-column table,
/// skipping zero counters (pass `include_zero = true` to keep them).
pub fn counters_table(run: &[(&'static str, u64)], include_zero: bool) -> String {
    let mut out = String::new();
    out.push_str("counters:\n");
    for (name, value) in with_registry(run) {
        if value == 0 && !include_zero {
            continue;
        }
        out.push_str(&format!("  {name:<28} {value:>16}\n"));
    }
    out
}

/// Global lock serialising tests that touch the process-wide sink and
/// enable flags. Public so dependent crates' integration tests can
/// serialise too.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn memory_sink_collects_meta_and_counter_lines() {
        let _g = test_lock();
        init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
        crate::metrics::reset_all();
        crate::metrics::counters::POOL_CHUNKS.add(5);
        emit_counters(&[("walk.interactions", 7)]);
        let lines = drain_memory();
        shutdown();
        assert!(lines.len() >= 2);
        let meta = json::parse(&lines[0]).unwrap();
        assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(
            meta.get("version").unwrap().as_u64(),
            Some(TRACE_VERSION as u64)
        );
        let counters = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(counters.get("type").unwrap().as_str(), Some("counters"));
        let inner = counters.get("counters").unwrap();
        assert_eq!(inner.get("walk.interactions").unwrap().as_u64(), Some(7));
        assert_eq!(inner.get("pool.chunks").unwrap().as_u64(), Some(5));
        // The run's counters, then every registered counter.
        assert_eq!(
            inner.as_obj().unwrap().len(),
            1 + crate::metrics::counters::ALL.len()
        );
        crate::metrics::reset_all();
    }

    #[test]
    fn file_sink_writes_parseable_json_lines() {
        let _g = test_lock();
        let path = std::env::temp_dir().join("telemetry_sink_test.jsonl");
        init_trace(TraceTo::File(&path), TraceFormat::JsonLines).unwrap();
        {
            let _s = crate::span("file test");
        }
        emit_counters(&[]);
        shutdown();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let mut types = Vec::new();
        for line in text.lines() {
            let v = json::parse(line).expect("every trace line parses");
            types.push(v.get("type").unwrap().as_str().unwrap().to_string());
        }
        assert_eq!(types[0], "meta");
        assert!(types.contains(&"span".to_string()));
        assert!(types.contains(&"counters".to_string()));
    }

    #[test]
    fn shutdown_disables_recording_and_drops_sink() {
        let _g = test_lock();
        init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();
        assert!(trace_active());
        assert!(crate::spans_enabled());
        shutdown();
        assert!(!trace_active());
        assert!(!crate::spans_enabled());
        // Emission without a sink is a silent no-op.
        record_span("ghost", 0, 0, 1);
    }

    #[test]
    fn chrome_sink_builds_a_valid_event_array() {
        let _g = test_lock();
        let path = std::env::temp_dir().join("telemetry_sink_test_chrome.json");
        crate::metrics::reset_all();
        init_trace(TraceTo::File(&path), TraceFormat::Chrome).unwrap();
        {
            let _outer = crate::span("outer");
            let _inner = crate::span("inner");
        }
        emit_counters(&[("walk.interactions", 11), ("walk.opens", 0)]);
        // Structured lines are dropped, not corrupted, in Chrome mode.
        let mut stray = JsonObject::new();
        stray.str("type", "step");
        emit(&stray);
        shutdown();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let doc = json::parse(&text).expect("chrome trace is one valid JSON document");
        let events = doc.as_arr().expect("top level is an array");
        // process_name metadata + 2 spans + 1 counter sample.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        for s in &spans {
            for k in ["ts", "dur", "name", "pid", "tid"] {
                assert!(s.get(k).is_some(), "X event missing {k}");
            }
        }
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert_eq!(counters.len(), 1);
        assert_eq!(
            counters[0]
                .get("args")
                .unwrap()
                .get("walk.interactions")
                .unwrap()
                .as_u64(),
            Some(11)
        );
        crate::metrics::reset_all();
    }

    #[test]
    fn breakdown_table_lists_all_rows_and_total() {
        let rows = [("walk tree", 8.0, 4.0), ("calc node", 2.0, 1.0)];
        let t = breakdown_table("breakdown:", &rows, 2);
        assert!(t.contains("walk tree"));
        assert!(t.contains("calc node"));
        assert!(t.contains("total"));
        // 8 of 10 modeled seconds → 80%.
        assert!(t.contains("80.0"), "{t}");
    }

    #[test]
    fn counters_table_hides_zeros_by_default() {
        let _g = test_lock();
        crate::metrics::reset_all();
        crate::set_metrics_enabled(true);
        crate::metrics::counters::POOL_CHUNKS.add(3);
        crate::set_metrics_enabled(false);
        let run = [("sort.radix_passes", 16), ("walk.mac_evals", 0)];
        let t = counters_table(&run, false);
        assert!(t.contains("sort.radix_passes"));
        assert!(t.contains("pool.chunks"));
        assert!(!t.contains("walk.mac_evals"));
        assert!(!t.contains("pool.steals"));
        let full = counters_table(&run, true);
        assert!(full.contains("walk.mac_evals"));
        assert!(full.contains("pool.steals"));
        crate::metrics::reset_all();
    }
}
