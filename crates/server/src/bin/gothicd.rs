//! `gothicd` — the GOTHIC simulation job daemon.
//!
//! ```text
//! gothicd [OPTIONS]
//!
//!   --addr <host:port>   bind address                [127.0.0.1:7414]
//!   --workers <k>        job worker threads          [2]
//!   --queue-cap <k>      bounded job queue capacity  [8]
//!   --cache-cap <k>      result cache entries        [64]
//!   --deadline-ms <ms>   default simulate budget     [0 = unlimited]
//!   --trace <path|->     JSON-lines trace sink
//!   --report             write results/gothicd.json on exit
//! ```
//!
//! The daemon prints `gothicd listening on <addr>` once the socket is
//! bound (scripts wait for that line), then serves until a `shutdown`
//! request, SIGTERM, or SIGINT arrives — at which point it drains:
//! accepted jobs finish, connections close, telemetry flushes, and the
//! process exits 0.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use gothic::telemetry;
use gothic::telemetry::sink::{TraceFormat, TraceTo};
use server::{Server, ServerConfig};

const USAGE: &str = "gothicd — GOTHIC simulation job daemon (NDJSON over TCP)

USAGE:
    gothicd [OPTIONS]

OPTIONS:
    --addr <host:port>    bind address (port 0 = ephemeral)  [127.0.0.1:7414]
    --workers <k>         job worker threads                 [2]
    --queue-cap <k>       bounded job queue capacity         [8]
    --cache-cap <k>       result cache entries (0 = off)     [64]
    --deadline-ms <ms>    default simulate budget, 0 = none  [0]
    --trace <path|->      write a JSON-lines trace of spans and
                          counter totals ('-' traces to stderr)
    --report              write a structured run report to
                          results/gothicd.json on exit
    -h, --help            print this help

PROTOCOL (one JSON object per line; responses echo the request \"id\"):
    {\"type\":\"simulate\",\"model\":\"plummer\",\"n\":16384,\"steps\":8,
     \"seed\":42,\"dacc\":1.953125e-3,\"arch\":\"v100\",\"mode\":\"pascal\",
     \"deadline_ms\":60000,\"cache\":true}
    {\"type\":\"predict\",\"n\":8388608,\"arch\":\"v100\",\"mode\":\"volta\"}
    {\"type\":\"racecheck\",\"mode\":\"volta\"}
    {\"type\":\"status\"}
    {\"type\":\"shutdown\"}

A saturated queue answers {\"ok\":false,\"error\":\"busy\"} immediately;
an exceeded budget answers \"deadline_exceeded\" with the completed step
count. Shutdown drains: accepted jobs finish before the process exits.";

static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Raw libc signal(2) via the C runtime the binary already links —
    // the workspace is hermetic, so no libc crate. The handler only
    // stores to an AtomicBool, which is async-signal-safe.
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct Args {
    cfg: ServerConfig,
    trace: Option<String>,
    report: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        cfg: ServerConfig {
            addr: "127.0.0.1:7414".into(),
            workers: 2,
            queue_cap: 8,
            cache_cap: 64,
            default_deadline_ms: 0,
        },
        trace: None,
        report: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => a.cfg.addr = val()?,
            "--workers" => a.cfg.workers = val()?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--queue-cap" => {
                a.cfg.queue_cap = val()?.parse().map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--cache-cap" => {
                a.cfg.cache_cap = val()?.parse().map_err(|e| format!("--cache-cap: {e}"))?
            }
            "--deadline-ms" => {
                a.cfg.default_deadline_ms =
                    val()?.parse().map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--trace" => a.trace = Some(val()?),
            "--report" => a.report = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if a.cfg.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if a.cfg.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gothicd: {e}");
            std::process::exit(2);
        }
    };

    if let Some(path) = args.trace.as_deref() {
        let to = match path {
            "-" => TraceTo::Stderr,
            _ => TraceTo::File(std::path::Path::new(path)),
        };
        if let Err(e) = telemetry::sink::init_trace(to, TraceFormat::JsonLines) {
            eprintln!("gothicd: cannot open trace file {path}: {e}");
            std::process::exit(1);
        }
    }

    install_signal_handlers();

    let server = match Server::start(args.cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gothicd: cannot bind {}: {e}", args.cfg.addr);
            std::process::exit(1);
        }
    };
    println!("gothicd listening on {}", server.addr());
    println!(
        "workers = {}, queue capacity = {}, cache capacity = {}, default deadline = {}",
        args.cfg.workers,
        args.cfg.queue_cap,
        args.cfg.cache_cap,
        if args.cfg.default_deadline_ms == 0 {
            "none".to_string()
        } else {
            format!("{} ms", args.cfg.default_deadline_ms)
        }
    );

    while !SIGNALLED.load(Ordering::SeqCst) && !server.is_draining() {
        std::thread::sleep(Duration::from_millis(100));
    }

    eprintln!("gothicd: draining (accepted jobs will finish)");
    let summary = server.drain();
    eprintln!(
        "gothicd: drained {} queued job(s), joined {} connection(s)",
        summary.backlog_drained, summary.connections_joined
    );
    let tallies: Vec<String> = summary
        .counters
        .iter()
        .map(|(name, v)| format!("{name} = {v}"))
        .collect();
    eprintln!("gothicd: {}", tallies.join(", "));

    if args.trace.is_some() {
        telemetry::sink::shutdown();
    }
    if args.report {
        let mut report = telemetry::RunReport::new("gothicd");
        report
            .meta_u64("backlog_drained", summary.backlog_drained as u64)
            .meta_u64("connections_joined", summary.connections_joined as u64)
            .add_counters(&summary.counters);
        for (name, h) in &summary.histograms {
            report.add_histogram(name, h);
        }
        if let Err(e) = report.write() {
            eprintln!("gothicd: cannot write run report: {e}");
        }
    }
}
