//! End-to-end service tests: boot a real `Server` on an ephemeral port
//! and exercise the contract over an actual TCP socket — caching,
//! backpressure, deadlines, graceful drain, and telemetry.
//!
//! The tests share process-global telemetry state (sink, counters), so
//! every test serializes on one mutex.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use gothic::telemetry::sink::{TraceFormat, TraceTo};
use gothic::telemetry::{self, json};
use server::{Server, ServerConfig};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// One NDJSON client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to gothicd");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        self.stream.flush().unwrap();
    }

    fn recv(&mut self) -> json::Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection unexpectedly");
        json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    fn roundtrip(&mut self, line: &str) -> json::Value {
        self.send(line);
        self.recv()
    }
}

fn start(workers: usize, queue_cap: usize, cache_cap: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        cache_cap,
        default_deadline_ms: 0,
    })
    .expect("bind ephemeral port")
}

#[test]
fn repeated_config_hits_the_cache() {
    let _g = serial();
    let srv = start(2, 8, 16);
    let mut c = Client::connect(srv.addr());

    let req = r#"{"id":"a","type":"simulate","model":"plummer","n":1024,"steps":3,"seed":11}"#;
    let first = c.roundtrip(req);
    assert_eq!(first.get("ok").unwrap().as_bool(), Some(true), "{first:?}");
    assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));

    // Same content, different spelling: key order shuffled, float
    // defaults explicit. Must be a hit.
    let respelled =
        r#"{"steps":3,"seed":11,"model":"plummer","n":1024,"type":"simulate","id":"b","eta":5e-1}"#;
    let second = c.roundtrip(respelled);
    assert_eq!(second.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(
        second.get("cached").unwrap().as_bool(),
        Some(true),
        "respelled identical request must hit: {second:?}"
    );
    assert_eq!(second.get("id").unwrap().as_str(), Some("b"));
    assert_eq!(
        first.get("result").unwrap().get("e_final").unwrap(),
        second.get("result").unwrap().get("e_final").unwrap(),
        "cached result must be the original result"
    );

    // cache:false opts out: a fresh run even though the entry exists.
    let uncached = c.roundtrip(
        r#"{"type":"simulate","model":"plummer","n":1024,"steps":3,"seed":11,"cache":false}"#,
    );
    assert_eq!(uncached.get("cached").unwrap().as_bool(), Some(false));

    let status = c.roundtrip(r#"{"type":"status"}"#);
    assert_eq!(status.get("cache_hits").unwrap().as_u64(), Some(1));
    assert_eq!(status.get("cache_len").unwrap().as_u64(), Some(1));
    srv.drain();
}

#[test]
fn saturated_queue_answers_busy_immediately() {
    let _g = serial();
    // One worker, queue of one: the first job occupies the worker, the
    // second fills the queue, the third must bounce.
    let srv = start(1, 1, 0);
    let addr = srv.addr();

    let slow = |seed: u64| {
        format!(
            r#"{{"type":"simulate","model":"plummer","n":8192,"steps":40,"seed":{seed},"cache":false}}"#
        )
    };
    let mut c1 = Client::connect(addr);
    let mut c2 = Client::connect(addr);
    let mut c3 = Client::connect(addr);

    c1.send(&slow(1));
    // Wait until the worker has *taken* job 1 (queue drains to 0).
    let t0 = std::time::Instant::now();
    while srv
        .stats()
        .accepted
        .load(std::sync::atomic::Ordering::Relaxed)
        < 1
        && t0.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    c2.send(&slow(2));
    std::thread::sleep(Duration::from_millis(100));

    let t_busy = std::time::Instant::now();
    let refused = c3.roundtrip(&slow(3));
    let busy_latency = t_busy.elapsed();
    assert_eq!(refused.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        refused.get("error").unwrap().as_str(),
        Some("busy"),
        "third job must be rejected: {refused:?}"
    );
    assert!(
        busy_latency < Duration::from_secs(2),
        "busy must be immediate, took {busy_latency:?}"
    );

    // The accepted jobs still complete.
    assert_eq!(c1.recv().get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(c2.recv().get("ok").unwrap().as_bool(), Some(true));

    let mut c4 = Client::connect(addr);
    let status = c4.roundtrip(r#"{"type":"status"}"#);
    assert_eq!(status.get("rejected_busy").unwrap().as_u64(), Some(1));
    srv.drain();
}

#[test]
fn tiny_deadline_is_exceeded_with_step_accounting() {
    let _g = serial();
    let srv = start(1, 4, 0);
    let mut c = Client::connect(srv.addr());
    let resp = c.roundtrip(
        r#"{"type":"simulate","model":"plummer","n":4096,"steps":64,"deadline_ms":1,"cache":false}"#,
    );
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        resp.get("error").unwrap().as_str(),
        Some("deadline_exceeded")
    );
    let done = resp.get("steps_done").unwrap().as_u64().unwrap();
    assert!(done < 64, "the budget cannot cover all 64 steps");

    let status = c.roundtrip(r#"{"type":"status"}"#);
    assert_eq!(status.get("deadline_exceeded").unwrap().as_u64(), Some(1));
    srv.drain();
}

#[test]
fn shutdown_request_drains_gracefully() {
    let _g = serial();
    let srv = start(1, 4, 0);
    let addr = srv.addr();

    // A slow job in flight…
    let mut worker_conn = Client::connect(addr);
    worker_conn.send(r#"{"type":"simulate","model":"plummer","n":8192,"steps":30,"cache":false}"#);
    std::thread::sleep(Duration::from_millis(150));

    // …then a shutdown from a second client.
    let mut admin = Client::connect(addr);
    let ack = admin.roundtrip(r#"{"type":"shutdown"}"#);
    assert_eq!(ack.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(ack.get("draining").unwrap().as_bool(), Some(true));
    assert!(srv.is_draining());

    // The in-flight job completes during the drain — accepted work is
    // never dropped.
    let result = worker_conn.recv();
    assert_eq!(
        result.get("ok").unwrap().as_bool(),
        Some(true),
        "in-flight job must finish: {result:?}"
    );
    let summary = srv.drain();
    assert_eq!(summary.connections_joined, 2);
    // The drain carries this server's histograms: both requests'
    // latencies and the simulate's 30 block steps.
    let count = |name: &str| {
        summary
            .histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, h)| h.count)
    };
    assert_eq!(count("serve.request.ns"), 2);
    assert_eq!(count("step.wall.ns"), 30);

    // And the port no longer accepts connections.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(
        refused.is_err(),
        "drained server must refuse new connections"
    );
}

#[test]
fn metrics_request_exposes_prometheus_text_with_latency_quantiles() {
    let _g = serial();
    let srv = start(1, 4, 16);
    let mut c = Client::connect(srv.addr());

    // Put some traffic through so the latency histogram has samples.
    c.roundtrip(r#"{"type":"status"}"#);
    let sim =
        c.roundtrip(r#"{"type":"simulate","model":"plummer","n":512,"steps":2,"cache":false}"#);
    assert_eq!(sim.get("ok").unwrap().as_bool(), Some(true));

    let resp = c.roundtrip(r#"{"id":"m1","type":"metrics"}"#);
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(resp.get("id").unwrap().as_str(), Some("m1"));
    let text = resp.get("metrics").unwrap().as_str().unwrap().to_string();

    // Counters appear in Prometheus exposition form, names sanitized.
    assert!(
        text.contains("# TYPE server_accepted counter"),
        "missing counter TYPE line:\n{text}"
    );
    // The request-latency histogram appears as a summary with the three
    // quantiles plus sum and count, and the quantiles are sane.
    assert!(
        text.contains("# TYPE serve_request_ns summary"),
        "missing summary TYPE line:\n{text}"
    );
    let quantile = |q: &str| -> u64 {
        let needle = format!("serve_request_ns{{quantile=\"{q}\"}} ");
        let line = text
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("no {needle} line in:\n{text}"));
        line[needle.len()..].trim().parse().unwrap()
    };
    let (p50, p95, p99) = (quantile("0.5"), quantile("0.95"), quantile("0.99"));
    assert!(p50 > 0, "p50 must be positive once requests were served");
    assert!(p50 <= p95 && p95 <= p99, "quantiles must be monotone");
    let count = |text: &str| -> u64 {
        let count_line = text
            .lines()
            .find(|l| l.starts_with("serve_request_ns_count "))
            .expect("summary must include a _count line");
        count_line["serve_request_ns_count ".len()..]
            .trim()
            .parse()
            .unwrap()
    };
    assert!(
        count(&text) >= 2,
        "at least the two prior requests are recorded"
    );
    srv.drain();

    // A second server in the same process exposes only its own traffic.
    let srv = start(1, 4, 16);
    let mut c = Client::connect(srv.addr());
    c.roundtrip(r#"{"type":"status"}"#);
    let resp = c.roundtrip(r#"{"type":"metrics"}"#);
    let text = resp.get("metrics").unwrap().as_str().unwrap();
    assert_eq!(count(text), 1, "only this server's one status:\n{text}");
    srv.drain();
}

#[test]
fn consecutive_jobs_report_their_own_counter_deltas() {
    let _g = serial();
    // Regression test for counter bleed between in-process jobs: with
    // one worker the two jobs run back to back in the same process, and
    // each payload must report only the pipeline steps *it* executed.
    let srv = start(1, 4, 0);
    let mut c = Client::connect(srv.addr());

    let steps_delta = |resp: &json::Value| {
        resp.get("result")
            .unwrap()
            .get("counters")
            .expect("payload must carry per-job counters")
            .get("pipeline.steps")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let first = c.roundtrip(
        r#"{"type":"simulate","model":"plummer","n":512,"steps":3,"seed":1,"cache":false}"#,
    );
    assert_eq!(first.get("ok").unwrap().as_bool(), Some(true), "{first:?}");
    let second = c.roundtrip(
        r#"{"type":"simulate","model":"plummer","n":512,"steps":5,"seed":2,"cache":false}"#,
    );
    assert_eq!(second.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(steps_delta(&first), 3, "first job counts its own 3 steps");
    assert_eq!(
        steps_delta(&second),
        5,
        "second job must not inherit the first job's steps"
    );
    srv.drain();
}

#[test]
fn concurrent_jobs_report_their_solo_counters() {
    let _g = serial();
    // Regression test for counter bleed between concurrent jobs: two
    // different jobs run at once on two workers, and each payload must
    // carry exactly the counts the same job reports when run alone.
    let srv = start(2, 4, 0);
    let addr = srv.addr();
    let job = |seed: u64| {
        format!(
            r#"{{"type":"simulate","model":"plummer","n":8192,"steps":6,"seed":{seed},"cache":false}}"#
        )
    };
    let counts = |resp: json::Value| {
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        let c = resp.get("result").unwrap().get("counters").unwrap();
        ["walk.interactions", "pipeline.steps"]
            .map(|k| c.get(k).and_then(|v| v.as_u64()).unwrap_or(0))
    };
    let mut c1 = Client::connect(addr);
    let mut c2 = Client::connect(addr);
    let solo = [counts(c1.roundtrip(&job(1))), counts(c1.roundtrip(&job(2)))];
    assert!(solo[0][0] > 0 && solo[0][1] == 6, "{solo:?}");
    assert_ne!(solo[0], solo[1], "the two jobs must differ");

    c1.send(&job(1));
    c2.send(&job(2));
    let together = [counts(c1.recv()), counts(c2.recv())];
    assert_eq!(
        together, solo,
        "concurrent jobs must report their solo counts"
    );
    srv.drain();
}

#[test]
fn requests_appear_as_spans_and_counters_in_the_trace() {
    let _g = serial();
    let _t = telemetry::sink::test_lock();
    telemetry::metrics::reset_all();
    telemetry::sink::init_trace(TraceTo::Memory, TraceFormat::JsonLines).unwrap();

    let srv = start(1, 4, 16);
    let mut c = Client::connect(srv.addr());
    let sim = r#"{"type":"simulate","model":"plummer","n":1024,"steps":2,"seed":3}"#;
    assert_eq!(
        c.roundtrip(sim).get("cached").unwrap().as_bool(),
        Some(false)
    );
    assert_eq!(
        c.roundtrip(sim).get("cached").unwrap().as_bool(),
        Some(true)
    );
    c.roundtrip(r#"{"type":"status"}"#);
    srv.drain(); // emits the counter snapshot into the trace

    let lines = telemetry::sink::drain_memory();
    telemetry::sink::shutdown();
    let docs: Vec<json::Value> = lines.iter().map(|l| json::parse(l).unwrap()).collect();

    let serve_spans = docs
        .iter()
        .filter(|d| {
            d.get("type").and_then(|t| t.as_str()) == Some("span")
                && d.get("name").and_then(|n| n.as_str()) == Some("serve.request")
        })
        .count();
    assert_eq!(serve_spans, 3, "one serve.request span per request");

    // The cached request must NOT have run the pipeline: exactly one
    // serve.simulate span despite two simulate requests.
    let sim_spans = docs
        .iter()
        .filter(|d| {
            d.get("type").and_then(|t| t.as_str()) == Some("span")
                && d.get("name").and_then(|n| n.as_str()) == Some("serve.simulate")
        })
        .count();
    assert_eq!(sim_spans, 1, "a cache hit must skip the pipeline");

    let counters = docs
        .iter()
        .find(|d| d.get("type").and_then(|t| t.as_str()) == Some("counters"))
        .expect("drain must flush a counter snapshot")
        .get("counters")
        .expect("counters line nests the registry snapshot");
    let get = |k: &str| counters.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    assert_eq!(get("server.accepted"), 3);
    assert_eq!(get("server.cache_hits"), 1);
    assert_eq!(get("server.completed"), 3);
    assert_eq!(get("server.rejected_busy"), 0);
}
