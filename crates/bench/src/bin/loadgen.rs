//! `loadgen` — concurrent load generator and latency reporter for
//! `gothicd`.
//!
//! ```text
//! loadgen [OPTIONS]
//!
//!   --addr <host:port>   target daemon (omit to spawn one in-process)
//!   --clients <k>        concurrent client connections     [4]
//!   --requests <k>       requests per client               [32]
//!   --n <N>              particles per simulate            [2048]
//!   --steps <k>          block steps per simulate          [2]
//!   --configs <k>        distinct configs cycled through   [4]
//!   --no-cache           send cache:false on every request
//!   --quick              small smoke preset (CI)
//! ```
//!
//! Each client sends `simulate` requests round-robin over `--configs`
//! distinct seeds, so the steady-state cache hit rate is
//! `1 - configs / (clients × requests)` when caching is on and 0 when it
//! is off. The run report (`results/loadgen.json`) carries throughput,
//! p50/p95/p99 latency, and the busy-rejection rate — the numbers quoted
//! in EXPERIMENTS.md §Service. With an in-process daemon it also carries
//! that daemon's `server.*` counters and its request-latency and
//! step-wall histograms, taken from its drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use telemetry::json::{self, JsonObject};
use telemetry::RunReport;

struct Args {
    addr: Option<String>,
    clients: usize,
    requests: usize,
    n: usize,
    steps: u64,
    configs: u64,
    cache: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        addr: None,
        clients: 4,
        requests: 32,
        n: 2048,
        steps: 2,
        configs: 4,
        cache: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => a.addr = Some(val()?),
            "--clients" => a.clients = val()?.parse().map_err(|e| format!("--clients: {e}"))?,
            "--requests" => a.requests = val()?.parse().map_err(|e| format!("--requests: {e}"))?,
            "--n" => a.n = val()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--steps" => a.steps = val()?.parse().map_err(|e| format!("--steps: {e}"))?,
            "--configs" => a.configs = val()?.parse().map_err(|e| format!("--configs: {e}"))?,
            "--no-cache" => a.cache = false,
            "--quick" => {
                a.clients = 2;
                a.requests = 8;
                a.n = 1024;
                a.steps = 2;
                a.configs = 2;
            }
            "--help" | "-h" => {
                println!(
                    "loadgen — concurrent gothicd load generator\n\n\
                     --addr <host:port>  target daemon (omit to spawn in-process)\n\
                     --clients <k>       concurrent clients          [4]\n\
                     --requests <k>      requests per client         [32]\n\
                     --n <N>             particles per simulate      [2048]\n\
                     --steps <k>         block steps per simulate    [2]\n\
                     --configs <k>       distinct configs cycled     [4]\n\
                     --no-cache          disable the result cache\n\
                     --quick             small smoke preset (CI)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if a.clients == 0 || a.requests == 0 || a.configs == 0 {
        return Err("--clients, --requests, and --configs must be at least 1".into());
    }
    Ok(a)
}

#[derive(Clone, Copy, Debug, Default)]
struct ClientTally {
    ok: u64,
    cached: u64,
    busy: u64,
    errors: u64,
}

/// One client: a connection sending `requests` simulate lines, recording
/// per-request latency.
fn run_client(addr: &str, id: usize, args: &Args) -> std::io::Result<(ClientTally, Vec<Duration>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(300)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut tally = ClientTally::default();
    let mut latencies = Vec::with_capacity(args.requests);

    for k in 0..args.requests {
        // Cycle a small set of distinct configs: with caching on, each
        // config computes once and hits thereafter.
        let seed = (id + k) as u64 % args.configs;
        let line = format!(
            r#"{{"type":"simulate","model":"plummer","n":{},"steps":{},"seed":{},"cache":{}}}"#,
            args.n, args.steps, seed, args.cache
        );
        let t0 = Instant::now();
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut resp = String::new();
        if reader.read_line(&mut resp)? == 0 {
            break; // server drained mid-run
        }
        latencies.push(t0.elapsed());
        match json::parse(resp.trim()) {
            Ok(v) if v.get("ok").and_then(|b| b.as_bool()) == Some(true) => {
                tally.ok += 1;
                if v.get("cached").and_then(|b| b.as_bool()) == Some(true) {
                    tally.cached += 1;
                }
            }
            Ok(v) if v.get("error").and_then(|e| e.as_str()) == Some("busy") => tally.busy += 1,
            _ => tally.errors += 1,
        }
    }
    Ok((tally, latencies))
}

/// Ask the daemon for its Prometheus metrics and pull the server-side
/// `serve.request` latency quantiles (nanoseconds). The server measures
/// inside the request handler, so the gap to the client-observed
/// latency is the wire + framing + accept-queue overhead.
fn fetch_server_quantiles(addr: &str) -> Option<(u64, u64, u64)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let mut writer = stream.try_clone().ok()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"type\":\"metrics\"}\n").ok()?;
    writer.flush().ok()?;
    let mut resp = String::new();
    reader.read_line(&mut resp).ok()?;
    let v = json::parse(resp.trim()).ok()?;
    let text = v.get("metrics")?.as_str()?.to_string();
    let quantile = |q: &str| -> Option<u64> {
        let needle = format!("serve_request_ns{{quantile=\"{q}\"}} ");
        let line = text.lines().find(|l| l.starts_with(&needle))?;
        line[needle.len()..].trim().parse().ok()
    };
    Some((quantile("0.5")?, quantile("0.95")?, quantile("0.99")?))
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    // No --addr: spawn an in-process server so the binary is
    // self-contained (the CI smoke test drives a real gothicd instead).
    let (addr, local) = match &args.addr {
        Some(a) => (a.clone(), None),
        None => {
            let srv = server::Server::start(server::ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_cap: 16,
                cache_cap: 64,
                default_deadline_ms: 0,
            })
            .unwrap_or_else(|e| {
                eprintln!("loadgen: cannot start in-process server: {e}");
                std::process::exit(1);
            });
            (srv.addr().to_string(), Some(srv))
        }
    };

    println!(
        "loadgen: {} clients x {} requests against {} (n = {}, steps = {}, configs = {}, cache = {})",
        args.clients, args.requests, addr, args.n, args.steps, args.configs, args.cache
    );

    let t0 = Instant::now();
    let results: Vec<(ClientTally, Vec<Duration>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|id| {
                let addr = addr.clone();
                let args = &args;
                s.spawn(move || run_client(&addr, id, args))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().expect("client thread").unwrap_or_else(|e| {
                    eprintln!("loadgen: client failed: {e}");
                    (ClientTally::default(), Vec::new())
                })
            })
            .collect()
    });
    let wall = t0.elapsed();

    let mut tally = ClientTally::default();
    let mut latencies: Vec<Duration> = Vec::new();
    for (t, l) in results {
        tally.ok += t.ok;
        tally.cached += t.cached;
        tally.busy += t.busy;
        tally.errors += t.errors;
        latencies.extend(l);
    }
    latencies.sort_unstable();
    let total = (tally.ok + tally.busy + tally.errors).max(1);
    let throughput = tally.ok as f64 / wall.as_secs_f64();
    let p50 = percentile(&latencies, 0.50);
    let p95 = percentile(&latencies, 0.95);
    let p99 = percentile(&latencies, 0.99);
    let rejection_rate = tally.busy as f64 / total as f64;
    let hit_rate = tally.cached as f64 / tally.ok.max(1) as f64;

    println!(
        "loadgen: {} ok ({} cached, hit rate {:.1}%), {} busy ({:.1}%), {} errors in {:.2} s",
        tally.ok,
        tally.cached,
        100.0 * hit_rate,
        tally.busy,
        100.0 * rejection_rate,
        tally.errors,
        wall.as_secs_f64()
    );
    println!(
        "loadgen: throughput = {throughput:.1} req/s, latency p50 = {:.2} ms, p95 = {:.2} ms, p99 = {:.2} ms",
        p50.as_secs_f64() * 1e3,
        p95.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3
    );

    // Server-vs-client skew: the daemon's own serve.request histogram
    // (via the metrics request) against what the clients observed. The
    // server-side quantiles are log₂-bucketed (exact within a factor of
    // two); the interesting signal is the client-minus-server gap.
    let server_quantiles = fetch_server_quantiles(&addr);
    if let Some((s50, s95, s99)) = server_quantiles {
        let ms = |ns: u64| ns as f64 / 1e6;
        println!(
            "loadgen: server-side p50 = {:.2} ms, p95 = {:.2} ms, p99 = {:.2} ms \
             (client-minus-server p50 skew = {:.2} ms)",
            ms(s50),
            ms(s95),
            ms(s99),
            p50.as_secs_f64() * 1e3 - ms(s50)
        );
    } else {
        eprintln!("loadgen: daemon did not answer the metrics request (old server?)");
    }

    let drained = local.map(|srv| srv.drain());
    let mut report = RunReport::new("loadgen");
    report
        .meta_str("addr", &addr)
        .meta_u64("clients", args.clients as u64)
        .meta_u64("requests_per_client", args.requests as u64)
        .meta_u64("n", args.n as u64)
        .meta_u64("steps", args.steps)
        .meta_u64("configs", args.configs)
        .meta_str("cache", if args.cache { "on" } else { "off" });
    let mut row = JsonObject::new();
    row.u64("ok", tally.ok)
        .u64("cached", tally.cached)
        .u64("busy", tally.busy)
        .u64("errors", tally.errors)
        .f64("wall_seconds", wall.as_secs_f64())
        .f64("throughput_rps", throughput)
        .f64("latency_p50_ms", p50.as_secs_f64() * 1e3)
        .f64("latency_p95_ms", p95.as_secs_f64() * 1e3)
        .f64("latency_p99_ms", p99.as_secs_f64() * 1e3)
        .f64("rejection_rate", rejection_rate)
        .f64("cache_hit_rate", hit_rate);
    if let Some((s50, s95, s99)) = server_quantiles {
        row.f64("server_latency_p50_ms", s50 as f64 / 1e6)
            .f64("server_latency_p95_ms", s95 as f64 / 1e6)
            .f64("server_latency_p99_ms", s99 as f64 / 1e6)
            .f64(
                "latency_skew_p50_ms",
                p50.as_secs_f64() * 1e3 - s50 as f64 / 1e6,
            );
    }
    report.add_row(row);
    if let Some(d) = &drained {
        report.add_counters(&d.counters);
        for (name, h) in &d.histograms {
            report.add_histogram(name, h);
        }
    }
    if let Err(e) = report.write() {
        eprintln!("loadgen: cannot write report: {e}");
        std::process::exit(1);
    }

    if tally.errors > 0 {
        std::process::exit(1);
    }
}
