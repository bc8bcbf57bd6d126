//! End-to-end observability tests: the Prometheus exposition on
//! `GET /metrics`, the flight recorder's `GET /debug/traces` JSONL, the
//! slow-request counter, and — the liveness property the inline probe
//! path exists for — `/healthz`, `/stats`, and `/metrics` answering from
//! the reactor thread while the worker pool is saturated.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sns_server::json::{self, Json};
use sns_server::{Server, ServerConfig, ShutdownHandle};

fn boot(config: ServerConfig) -> (String, ShutdownHandle) {
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn config(threads: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        ..ServerConfig::default()
    }
}

/// A raw-text HTTP client: `/metrics` and `/debug/traces` are not JSON.
struct Client {
    stream: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            stream: BufReader::new(stream),
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &str) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: sns\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut raw = head.into_bytes();
        raw.extend_from_slice(body.as_bytes());
        let out = self.stream.get_mut();
        out.write_all(&raw).expect("write request");
        out.flush().expect("flush");
    }

    fn read_response(&mut self) -> (u16, String, String) {
        let mut status_line = String::new();
        self.stream
            .read_line(&mut status_line)
            .expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line: {status_line:?}"));
        let mut content_type = String::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.stream.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => content_length = value.trim().parse().expect("length"),
                    "content-type" => content_type = value.trim().to_string(),
                    _ => {}
                }
            }
        }
        let mut buf = vec![0u8; content_length];
        self.stream.read_exact(&mut buf).expect("body");
        (status, content_type, String::from_utf8(buf).expect("utf8"))
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String, String) {
        self.send(method, path, body);
        self.read_response()
    }

    fn get(&mut self, path: &str) -> (u16, String, String) {
        self.request("GET", path, "")
    }
}

/// Creates a session, runs `drags` drag requests plus a commit, returns
/// the session id — enough traffic to populate every tracing surface.
fn drive_traffic(addr: &str, drags: usize) -> String {
    let mut c = Client::connect(addr);
    let (status, _, body) = c.request(
        "POST",
        "/sessions",
        "{\"source\":\"(svg [(rect 'gold' 10 20 30 40)])\"}",
    );
    assert_eq!(status, 201, "{body}");
    let v = json::parse(&body).expect("create response json");
    let id = v.get("id").unwrap().as_str().unwrap().to_string();
    for step in 1..=drags {
        let (status, _, body) = c.request(
            "POST",
            &format!("/sessions/{id}/drag"),
            &format!("{{\"shape\":0,\"zone\":\"Interior\",\"dx\":{step},\"dy\":0}}"),
        );
        assert_eq!(status, 200, "{body}");
    }
    let (status, _, _) = c.request("POST", &format!("/sessions/{id}/commit"), "{}");
    assert_eq!(status, 200);
    id
}

/// Validates one Prometheus text-exposition body: every non-comment line
/// is `name[{labels}] value`, every `# TYPE`/`# HELP` names a metric that
/// appears, histograms carry `_bucket`/`_sum`/`_count` with a `+Inf`
/// bucket. Returns the set of sample names seen.
fn check_exposition(body: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            assert!(
                kind == "HELP" || kind == "TYPE",
                "unknown comment kind: {line}"
            );
            let name = parts.next().expect("metric name in comment");
            assert!(is_metric_name(name), "bad metric name in comment: {line}");
            continue;
        }
        let (sample, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line}");
        });
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample value: {line}"
        );
        let name = sample.split('{').next().unwrap();
        assert!(is_metric_name(name), "bad sample name: {line}");
        if let Some(labels) = sample.strip_prefix(name) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "malformed labels: {line}"
                );
            }
        }
        names.push(name.to_string());
    }
    // Histogram shape: each *_bucket family has a +Inf bucket and the
    // matching _sum/_count samples.
    let has = |n: &str| names.iter().any(|x| x == n);
    for name in names.clone() {
        if let Some(base) = name.strip_suffix("_bucket") {
            assert!(has(&format!("{base}_sum")), "{base}: no _sum");
            assert!(has(&format!("{base}_count")), "{base}: no _count");
            assert!(
                body.contains(&format!("{name}{{le=\"+Inf\"}}")),
                "{name}: no +Inf bucket"
            );
        }
    }
    names
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

/// `/metrics` serves a parseable Prometheus exposition that covers the
/// `/stats` fields and all six per-stage histograms.
#[test]
fn metrics_exposition_parses_and_covers_stages() {
    let (addr, handle) = boot(config(2));
    drive_traffic(&addr, 5);

    let mut c = Client::connect(&addr);
    let (status, content_type, body) = c.get("/metrics");
    assert_eq!(status, 200);
    assert!(content_type.starts_with("text/plain"), "{content_type}");
    let names = check_exposition(&body);
    let has = |n: &str| names.iter().any(|x| x == n);
    for required in [
        "sns_requests_total",
        "sns_errors_total",
        "sns_request_us_bucket",
        "sns_sessions",
        "sns_conns_open",
        "sns_uptime_seconds",
        "sns_slow_requests_total",
    ] {
        assert!(has(required), "missing {required} in /metrics");
    }
    for stage in ["queue", "prepare", "journal", "fsync", "repl_ack", "write"] {
        assert!(
            has(&format!("sns_stage_{stage}_us_bucket")),
            "missing stage histogram for {stage}"
        );
    }
    // The traced traffic actually landed: request count is nonzero.
    let count_line = body
        .lines()
        .find(|l| l.starts_with("sns_requests_total "))
        .expect("sns_requests_total sample");
    let count: f64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 7.0, "{count_line}");
    handle.shutdown();
}

/// `/debug/traces` is one well-formed JSON object per line, stamped with
/// the stages each request actually crossed.
#[test]
fn debug_traces_is_stage_stamped_jsonl() {
    let (addr, handle) = boot(config(2));
    let id = drive_traffic(&addr, 3);
    // A code edit always goes to the worker pool.
    let mut c = Client::connect(&addr);
    let code = format!("/sessions/{id}/code");
    let edit = "{\"source\":\"(svg [(rect 'gold' 10 20 30 41)])\"}";
    let (status, _, body) = c.request("PUT", &code, edit);
    assert_eq!(status, 200, "{body}");

    // A trace is recorded after its response is written: poll until the
    // last request's (the code edit's) has landed.
    let deadline = Instant::now() + Duration::from_secs(5);
    let body = loop {
        let (status, content_type, body) = c.get("/debug/traces");
        assert_eq!(status, 200);
        assert!(
            content_type.starts_with("application/x-ndjson"),
            "{content_type}"
        );
        if body.contains(&format!("\"{code}\"")) {
            break body;
        }
        assert!(Instant::now() < deadline, "no code-edit trace:\n{body}");
        std::thread::sleep(Duration::from_millis(10));
    };
    let (mut drag_seen, mut commit_seen, mut code_seen) = (false, false, false);
    let has = |stages: &Json, stage: &str| stages.get(stage).is_some();
    for line in body.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line}: {e:?}"));
        for field in ["id", "status", "total_us"] {
            assert!(v.get(field).and_then(Json::as_f64).is_some(), "{line}");
        }
        assert!(v.get("method").and_then(Json::as_str).is_some(), "{line}");
        assert!(v.get("path").and_then(Json::as_str).is_some(), "{line}");
        assert!(v.get("slow").is_some(), "no slow flag: {line}");
        let stages = v.get("stages").expect("stages object");
        assert!(stages.get("parse_done").is_some(), "{line}");
        let path = v.get("path").and_then(Json::as_str).unwrap_or_default();
        let inline = if path == format!("/sessions/{id}/drag") {
            drag_seen = true;
            true
        } else if path == format!("/sessions/{id}/commit") {
            commit_seen = true;
            true
        } else {
            false
        };
        if inline {
            // A proof-only drag, and a fast-tier commit with nothing to
            // journal, are answered on the reactor thread: they cross the
            // live-sync apply but never the pool.
            for stage in [
                "dispatched",
                "prepare_done",
                "worker_done",
                "response_written",
            ] {
                assert!(has(stages, stage), "{path} missing {stage}: {line}");
            }
            for stage in ["queued", "dequeued"] {
                assert!(!has(stages, stage), "inline {path} has {stage}: {line}");
            }
        }
        if path == code {
            code_seen = true;
            // A code edit evaluates the program, so it goes to the pool.
            for stage in ["queued", "dequeued", "dispatched", "worker_done"] {
                assert!(has(stages, stage), "code edit missing {stage}: {line}");
            }
        }
    }
    assert!(drag_seen, "no drag trace in the flight recorder:\n{body}");
    assert!(
        commit_seen,
        "no commit trace in the flight recorder:\n{body}"
    );
    assert!(
        code_seen,
        "no code-edit trace in the flight recorder:\n{body}"
    );
    handle.shutdown();
}

/// With `--slow-ms 0` every request is slow: the counter on `/stats`
/// climbs and the recorder marks the traces.
#[test]
fn slow_threshold_zero_flags_every_request() {
    let (addr, handle) = boot(ServerConfig {
        slow_ms: 0,
        ..config(2)
    });
    drive_traffic(&addr, 3);

    // A trace is recorded only after its response is written, and the
    // scrape may land on another reactor: `/stats` is eventually
    // consistent with responses the client already holds, so poll.
    let mut c = Client::connect(&addr);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, _, stats) = c.get("/stats");
        assert_eq!(status, 200);
        let v = json::parse(&stats).expect("stats json");
        let slow = v.get("slow_requests").unwrap().as_f64().unwrap();
        if slow >= 5.0 {
            break;
        }
        assert!(Instant::now() < deadline, "slow_requests = {slow}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (_, _, traces) = c.get("/debug/traces");
    assert!(
        traces.lines().any(|l| l.contains("\"slow\":true")),
        "no slow-marked trace:\n{traces}"
    );
    handle.shutdown();
}

/// Tracing off: the endpoints stay up (empty recorder, zeroed stage
/// histograms) rather than 404ing — scrapers keep working.
#[test]
fn no_trace_keeps_endpoints_alive() {
    let (addr, handle) = boot(ServerConfig {
        trace: false,
        ..config(2)
    });
    drive_traffic(&addr, 2);
    let mut c = Client::connect(&addr);
    let (status, _, body) = c.get("/metrics");
    assert_eq!(status, 200);
    check_exposition(&body);
    let (status, _, traces) = c.get("/debug/traces");
    assert_eq!(status, 200);
    assert!(traces.is_empty(), "untraced run recorded traces: {traces}");
    handle.shutdown();
}

/// The liveness property: with one worker and a one-deep queue saturated
/// by a burst of creates, `/healthz`, `/stats`, and `/metrics` still
/// answer 200 from the reactor thread — probes never see the pool's 503.
#[test]
fn probes_answer_while_pool_is_saturated() {
    let (addr, handle) = boot(ServerConfig {
        queue_depth: 1,
        ..config(1)
    });
    // Saturate: a burst of creates from separate connections. The single
    // worker takes one, the queue slot takes one, the rest are shed —
    // but none of that involves the reactor's inline probe path.
    const BURST: usize = 8;
    let body = "{\"example\":\"us50_flag\"}";
    let mut busy: Vec<Client> = (0..BURST).map(|_| Client::connect(&addr)).collect();
    for c in &mut busy {
        c.send("POST", "/sessions", body);
    }
    // While the burst is in flight, every probe answers promptly.
    for path in ["/healthz", "/stats", "/metrics"] {
        let mut probe = Client::connect(&addr);
        let (status, _, resp) = probe.get(path);
        assert_eq!(status, 200, "probe {path} failed under saturation: {resp}");
    }
    let mut shed = 0;
    for c in &mut busy {
        let (status, _, _) = c.read_response();
        match status {
            201 => {}
            503 => shed += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(shed >= 1, "pool never saturated; probe test proved nothing");
    handle.shutdown();
}

/// `GET /debug/sessions/:id/timeline` is one typed event per line —
/// created, drags (coalesced), commit — and `/stats` summarizes the
/// registry; an unknown session 404s.
#[test]
fn session_timeline_is_typed_jsonl_and_summarized_in_stats() {
    let (addr, handle) = boot(config(2));
    let id = drive_traffic(&addr, 4);

    let mut c = Client::connect(&addr);
    let (status, content_type, body) = c.get(&format!("/debug/sessions/{id}/timeline"));
    assert_eq!(status, 200, "{body}");
    assert!(
        content_type.starts_with("application/x-ndjson"),
        "{content_type}"
    );
    let mut kinds = Vec::new();
    let mut drag_count = 0.0;
    for line in body.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad timeline line {line}: {e:?}"));
        assert!(v.get("at_ms").and_then(Json::as_f64).is_some(), "{line}");
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no kind: {line}"))
            .to_string();
        let count = v.get("count").and_then(Json::as_f64).expect("count");
        assert!(count >= 1.0, "{line}");
        if kind == "drag" {
            drag_count += count;
        }
        kinds.push(kind);
    }
    assert_eq!(kinds.first().map(String::as_str), Some("created"), "{body}");
    assert!(kinds.iter().any(|k| k == "commit"), "{body}");
    assert!(
        drag_count >= 4.0,
        "4 drags should be on the timeline (coalesced or not): {body}"
    );

    // The commit event carries the prepare-path detail.
    let commit_line = body
        .lines()
        .find(|l| l.contains("\"kind\":\"commit\""))
        .expect("commit event");
    assert!(
        commit_line.contains("\"detail\":"),
        "commit event should say which prepare path ran: {commit_line}"
    );

    // /stats summarizes the registry without dumping the rings.
    let (_, _, stats) = c.get("/stats");
    let v = json::parse(&stats).expect("stats json");
    let tracked = v
        .get("timeline_sessions")
        .and_then(Json::as_f64)
        .expect("timeline_sessions in /stats");
    assert!(tracked >= 1.0, "{stats}");
    let events = v.get("timeline_events").expect("timeline_events in /stats");
    assert!(
        events.get("drag").and_then(Json::as_f64).unwrap_or(0.0) >= 4.0,
        "{stats}"
    );

    let (status, _, body) = c.get("/debug/sessions/no-such-session/timeline");
    assert_eq!(status, 404, "{body}");
    handle.shutdown();
}

/// Release provenance: `/healthz` names the version and `/metrics`
/// carries the constant `sns_build_info` gauge with version + git sha
/// labels — so a scrape tells you *what* is running, not just how.
#[test]
fn build_info_is_on_healthz_and_metrics() {
    let (addr, handle) = boot(config(1));
    let mut c = Client::connect(&addr);

    let (status, _, health) = c.get("/healthz");
    assert_eq!(status, 200);
    let v = json::parse(&health).expect("healthz json");
    let version = v
        .get("version")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no version in /healthz: {health}"))
        .to_string();
    assert!(!version.is_empty());

    let (status, _, metrics) = c.get("/metrics");
    assert_eq!(status, 200);
    let info_line = metrics
        .lines()
        .find(|l| l.starts_with("sns_build_info{"))
        .unwrap_or_else(|| panic!("no sns_build_info sample:\n{metrics}"));
    assert!(
        info_line.contains(&format!("version=\"{version}\"")),
        "{info_line}"
    );
    assert!(info_line.contains("git_sha=\""), "{info_line}");
    assert!(
        info_line.ends_with(" 1"),
        "info gauge must be constant 1: {info_line}"
    );
    handle.shutdown();
}
