//! End-to-end tests: boot the server on an ephemeral port and drive the
//! full live-sync loop over real sockets — create → canvas → drag →
//! commit → code, concurrent sessions, LRU eviction, and malformed input.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use sns_server::json::{self, Json};
use sns_server::{Server, ServerConfig, ShutdownHandle};

/// Boots a server with the given capacity; returns its address and a
/// shutdown handle (dropped handles leave the detached thread to die with
/// the process, which is fine for tests).
fn boot(threads: usize, max_sessions: usize) -> (String, ShutdownHandle) {
    boot_with(ServerConfig {
        threads,
        max_sessions,
        ..ServerConfig::default()
    })
}

fn boot_with(config: ServerConfig) -> (String, ShutdownHandle) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// A tiny blocking HTTP client speaking just enough HTTP/1.1.
struct Client {
    stream: BufReader<TcpStream>,
    /// Sent as `Authorization: Bearer <token>` when set.
    token: Option<String>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            stream: BufReader::new(stream),
            token: None,
        }
    }

    fn with_token(addr: &str, token: &str) -> Client {
        let mut c = Client::connect(addr);
        c.token = Some(token.to_string());
        c
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&Json>) -> (u16, Json) {
        let body = body.map(Json::to_string).unwrap_or_default();
        let auth = match &self.token {
            Some(t) => format!("Authorization: Bearer {t}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: sns\r\n{auth}Content-Length: {}\r\n\r\n",
            body.len()
        );
        let mut raw = head.into_bytes();
        raw.extend_from_slice(body.as_bytes());
        let out = self.stream.get_mut();
        out.write_all(&raw).expect("write request");
        out.flush().expect("flush");

        let mut status_line = String::new();
        self.stream
            .read_line(&mut status_line)
            .expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line: {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.stream.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("content-length");
            }
        }
        let mut buf = vec![0u8; content_length];
        self.stream.read_exact(&mut buf).expect("body");
        let text = String::from_utf8(buf).expect("utf8 body");
        (status, json::parse(&text).expect("json body"))
    }

    fn post(&mut self, path: &str, body: Json) -> (u16, Json) {
        self.request("POST", path, Some(&body))
    }

    fn get(&mut self, path: &str) -> (u16, Json) {
        self.request("GET", path, None)
    }
}

fn create_session(client: &mut Client, body: Json) -> String {
    let (status, v) = client.post("/sessions", body);
    assert_eq!(status, 201, "{v}");
    v.get("id").unwrap().as_str().unwrap().to_string()
}

#[test]
fn create_canvas_drag_commit_code_roundtrip() {
    let (addr, handle) = boot(4, 32);
    let mut c = Client::connect(&addr);

    // Create from inline source.
    let id = create_session(
        &mut c,
        Json::obj([("source", Json::str("(svg [(rect 'gold' 10 20 30 40)])"))]),
    );

    // Canvas: one rect with nine zones, captioned.
    let (status, canvas) = c.get(&format!("/sessions/{id}/canvas"));
    assert_eq!(status, 200);
    assert!(canvas
        .get("svg")
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("<svg"));
    let shapes = canvas.get("shapes").unwrap().as_arr().unwrap();
    assert_eq!(shapes.len(), 1);
    let zones = shapes[0].get("zones").unwrap().as_arr().unwrap();
    assert_eq!(zones.len(), 9);
    assert!(zones.iter().any(|z| z
        .get("caption")
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("Active")));

    // Two drag movements (total offsets), then mouse-up.
    let drag = |dx: f64, dy: f64| {
        Json::obj([
            ("shape", Json::Num(0.0)),
            ("zone", Json::str("Interior")),
            ("dx", Json::Num(dx)),
            ("dy", Json::Num(dy)),
        ])
    };
    let (status, out) = c.post(&format!("/sessions/{id}/drag"), drag(10.0, 0.0));
    assert_eq!(status, 200, "{out}");
    let (status, out) = c.post(&format!("/sessions/{id}/drag"), drag(25.0, 5.0));
    assert_eq!(status, 200);
    assert_eq!(
        out.get("code").unwrap().as_str(),
        Some("(svg [(rect 'gold' 35 25 30 40)])")
    );
    let (status, _) = c.post(&format!("/sessions/{id}/commit"), Json::obj([]));
    assert_eq!(status, 200);

    // The committed code round-trips.
    let (status, out) = c.get(&format!("/sessions/{id}/code"));
    assert_eq!(status, 200);
    assert_eq!(
        out.get("code").unwrap().as_str(),
        Some("(svg [(rect 'gold' 35 25 30 40)])")
    );

    // Corpus examples load by slug.
    let id2 = create_session(&mut c, Json::obj([("example", Json::str("wave_boxes"))]));
    let (status, canvas) = c.get(&format!("/sessions/{id2}/canvas"));
    assert_eq!(status, 200);
    assert_eq!(canvas.get("shapes").unwrap().as_arr().unwrap().len(), 12);

    // The commit above was served by the incremental-prepare path (the
    // drag's substitution touches no control-flow location) and the drags
    // by the tier proof without evaluation; /stats exposes both.
    let (status, stats) = c.get("/stats");
    assert_eq!(status, 200);
    assert!(stats.get("prepare_incremental").unwrap().as_f64().unwrap() >= 1.0);
    assert!(stats.get("eval_fast").unwrap().as_f64().unwrap() >= 2.0);
    // Session creation always runs one full prepare per session.
    assert!(stats.get("prepare_full").unwrap().as_f64().unwrap() >= 2.0);

    handle.shutdown();
}

#[test]
fn reconcile_applies_best_candidate() {
    let (addr, handle) = boot(2, 8);
    let mut c = Client::connect(&addr);
    let id = create_session(
        &mut c,
        Json::obj([(
            "source",
            Json::str(
                "(def [x0 sep] [50 100]) (svg [(rect 'red' x0 10 30 30) (rect 'blue' (+ x0 sep) 10 30 30)])",
            ),
        )]),
    );
    let (status, out) = c.post(
        &format!("/sessions/{id}/reconcile"),
        Json::obj([(
            "edits",
            Json::Arr(vec![Json::obj([
                ("shape", Json::Num(1.0)),
                ("attr", Json::str("x")),
                ("value", Json::Num(250.0)),
            ])]),
        )]),
    );
    assert_eq!(status, 200, "{out}");
    assert_eq!(out.get("candidates").unwrap().as_arr().unwrap().len(), 2);
    assert!(out.get("code").unwrap().as_str().unwrap().contains("200"));
    handle.shutdown();
}

#[test]
fn sixty_four_concurrent_live_sync_sessions() {
    let (addr, handle) = boot(80, 128);
    const SESSIONS: usize = 64;
    const DRAGS: usize = 4;

    let workers: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr);
                // Every session gets its own program; offsets differ per i.
                let id = create_session(
                    &mut c,
                    Json::obj([(
                        "source",
                        Json::str(format!(
                            "(def [x y] [{} {}]) (svg [(rect 'navy' x y 20 20)])",
                            10 + i,
                            20 + i
                        )),
                    )]),
                );
                for step in 1..=DRAGS {
                    let (status, _) = c.post(
                        &format!("/sessions/{id}/drag"),
                        Json::obj([
                            ("shape", Json::Num(0.0)),
                            ("zone", Json::str("Interior")),
                            ("dx", Json::Num(step as f64)),
                            ("dy", Json::Num(0.0)),
                        ]),
                    );
                    assert_eq!(status, 200);
                }
                let (status, _) = c.post(&format!("/sessions/{id}/commit"), Json::obj([]));
                assert_eq!(status, 200);
                let (status, out) = c.get(&format!("/sessions/{id}/code"));
                assert_eq!(status, 200);
                let expected = format!(
                    "(def [x y] [{} {}]) (svg [(rect 'navy' x y 20 20)])",
                    10 + i + DRAGS,
                    20 + i
                );
                assert_eq!(out.get("code").unwrap().as_str(), Some(expected.as_str()));
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    // All sessions are alive and the stats endpoint saw the traffic.
    let mut c = Client::connect(&addr);
    let (status, stats) = c.get("/stats");
    assert_eq!(status, 200);
    assert_eq!(
        stats.get("sessions").unwrap().as_f64(),
        Some(SESSIONS as f64)
    );
    assert!(stats.get("requests").unwrap().as_f64().unwrap() >= (SESSIONS * (DRAGS + 3)) as f64);
    assert!(stats.get("request_p99_ms").unwrap().as_f64().unwrap() > 0.0);
    handle.shutdown();
}

#[test]
fn lru_eviction_drops_cold_sessions() {
    let (addr, handle) = boot(2, 4);
    let mut c = Client::connect(&addr);
    let src = |i: usize| {
        Json::obj([(
            "source",
            Json::str(format!("(svg [(circle 'red' {} 50 10)])", 10 + i)),
        )])
    };
    let ids: Vec<String> = (0..4).map(|i| create_session(&mut c, src(i))).collect();
    // Touch sessions 1..3 so session 0 is coldest, then overflow.
    for id in &ids[1..] {
        let (status, _) = c.get(&format!("/sessions/{id}/code"));
        assert_eq!(status, 200);
    }
    let id4 = create_session(&mut c, src(99));
    let (status, _) = c.get(&format!("/sessions/{}/code", ids[0]));
    assert_eq!(status, 404, "coldest session should have been evicted");
    let (status, _) = c.get(&format!("/sessions/{id4}/code"));
    assert_eq!(status, 200);
    let (_, stats) = c.get("/stats");
    assert_eq!(stats.get("evictions").unwrap().as_f64(), Some(1.0));
    handle.shutdown();
}

#[test]
fn malformed_requests_get_400s_and_hostile_programs_422() {
    let (addr, handle) = boot(2, 8);
    let mut c = Client::connect(&addr);

    // Not JSON at all.
    let (status, v) = c.post("/sessions", Json::str("drag me"));
    // (A bare string IS valid JSON; the object shape is what's missing.)
    assert_eq!(status, 400, "{v}");

    // Unknown route and unknown session.
    let (status, _) = c.get("/frobnicate");
    assert_eq!(status, 404);
    let (status, _) = c.get("/sessions/nope/canvas");
    assert_eq!(status, 404);

    // Unknown zone name.
    let id = create_session(
        &mut c,
        Json::obj([("source", Json::str("(svg [(rect 'red' 1 2 3 4)])"))]),
    );
    let (status, v) = c.post(
        &format!("/sessions/{id}/drag"),
        Json::obj([
            ("shape", Json::Num(0.0)),
            ("zone", Json::str("weird")),
            ("dx", Json::Num(1.0)),
            ("dy", Json::Num(1.0)),
        ]),
    );
    assert_eq!(status, 400);
    assert!(v
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown zone"));

    // A program that would spin forever must bounce off the limits.
    let (status, v) = c.post(
        "/sessions",
        Json::obj([(
            "source",
            Json::str("(defrec spin (λ n (spin n))) (svg [(spin 0)])"),
        )]),
    );
    assert_eq!(status, 422, "{v}");

    // Raw non-HTTP bytes are answered with a 400 and a closed connection.
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(b"this is not http\r\n\r\n").expect("write");
    let mut buf = String::new();
    raw.read_to_string(&mut buf).expect("read");
    assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");

    handle.shutdown();
}

#[test]
fn healthz_is_cheap_and_truthful() {
    let (addr, handle) = boot(1, 2);
    let mut c = Client::connect(&addr);
    let (status, v) = c.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    handle.shutdown();
}

#[test]
fn bearer_auth_gates_every_route_except_healthz() {
    let (addr, handle) = boot_with(ServerConfig {
        threads: 2,
        auth_token: Some("sekrit-token-123".to_string()),
        ..ServerConfig::default()
    });

    // Unauthenticated: health stays open, everything else is challenged.
    let mut anon = Client::connect(&addr);
    let (status, v) = anon.get("/healthz");
    assert_eq!(status, 200, "{v}");
    for (method, path) in [
        ("GET", "/stats"),
        ("POST", "/sessions"),
        ("GET", "/sessions/nope/code"),
        ("DELETE", "/sessions/nope"),
    ] {
        let (status, v) = anon.request(method, path, Some(&Json::obj([])));
        assert_eq!(status, 401, "{method} {path}: {v}");
    }

    // The wrong token is also refused (and must not 404 first: existence
    // probes without the secret learn nothing).
    let mut wrong = Client::with_token(&addr, "sekrit-token-124");
    let (status, _) = wrong.get("/sessions/nope/code");
    assert_eq!(status, 401);

    // The right token restores the full surface.
    let mut c = Client::with_token(&addr, "sekrit-token-123");
    let id = create_session(
        &mut c,
        Json::obj([("source", Json::str("(svg [(rect 'red' 1 2 3 4)])"))]),
    );
    let (status, v) = c.get(&format!("/sessions/{id}/code"));
    assert_eq!(status, 200, "{v}");
    let (status, _) = c.get("/stats");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn auth_challenge_carries_www_authenticate() {
    let (addr, handle) = boot_with(ServerConfig {
        threads: 1,
        auth_token: Some("t".to_string()),
        ..ServerConfig::default()
    });
    // Raw request so the header (dropped by the JSON client) is visible.
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(b"GET /stats HTTP/1.1\r\nHost: sns\r\nConnection: close\r\n\r\n")
        .expect("write");
    let mut buf = String::new();
    raw.read_to_string(&mut buf).expect("read");
    assert!(buf.starts_with("HTTP/1.1 401"), "{buf}");
    assert!(buf.contains("WWW-Authenticate: Bearer"), "{buf}");
    handle.shutdown();
}

#[test]
fn put_code_replaces_the_program() {
    let (addr, handle) = boot(2, 8);
    let mut c = Client::connect(&addr);
    let id = create_session(
        &mut c,
        Json::obj([("source", Json::str("(svg [(rect 'red' 1 2 3 4)])"))]),
    );
    let (status, v) = c.request(
        "PUT",
        &format!("/sessions/{id}/code"),
        Some(&Json::obj([(
            "source",
            Json::str("(svg [(circle 'blue' 50 50 10)])"),
        )])),
    );
    assert_eq!(status, 200, "{v}");
    assert_eq!(
        v.get("code").unwrap().as_str(),
        Some("(svg [(circle 'blue' 50 50 10)])")
    );
    // A broken replacement is refused and the old program survives.
    let (status, v) = c.request(
        "PUT",
        &format!("/sessions/{id}/code"),
        Some(&Json::obj([("source", Json::str("(svg [(oops)])"))])),
    );
    assert_eq!(status, 422, "{v}");
    let (status, v) = c.get(&format!("/sessions/{id}/code"));
    assert_eq!(status, 200);
    assert_eq!(
        v.get("code").unwrap().as_str(),
        Some("(svg [(circle 'blue' 50 50 10)])")
    );
    handle.shutdown();
}
