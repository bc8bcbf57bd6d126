//! Reactor-era end-to-end tests: connection/CPU decoupling at scale, the
//! slow-client defenses, backpressure, the per-IP quota, and graceful
//! drain — everything the blocking thread-per-connection model could not
//! do.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sns_server::json::{self, Json};
use sns_server::{Server, ServerConfig, ShutdownHandle};

/// Boots a server; returns its address and a shutdown handle. The server
/// thread drains cleanly at shutdown (drops are detached, fine in tests).
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
        reactors: test_reactors(),
        ..ServerConfig::default()
    }
}

/// Reactor count for the suite: `SNS_TEST_REACTORS` pins it (CI runs the
/// whole suite at 1 and again at 4); unset means one per core.
fn test_reactors() -> usize {
    std::env::var("SNS_TEST_REACTORS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A tiny blocking HTTP client speaking just enough HTTP/1.1, with
/// response-header capture (the quota test asserts on `Retry-After`).
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

    fn send(&mut self, method: &str, path: &str, body: Option<&Json>) {
        let body = body.map(Json::to_string).unwrap_or_default();
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

    fn read_response(&mut self) -> (u16, Vec<(String, String)>, Json) {
        let mut status_line = String::new();
        self.stream
            .read_line(&mut status_line)
            .expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line: {status_line:?}"));
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.stream.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().expect("content-length");
                }
                headers.push((name, value));
            }
        }
        let mut buf = vec![0u8; content_length];
        self.stream.read_exact(&mut buf).expect("body");
        let text = String::from_utf8(buf).expect("utf8 body");
        (status, headers, json::parse(&text).expect("json body"))
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&Json>) -> (u16, Json) {
        self.send(method, path, body);
        let (status, _, v) = self.read_response();
        (status, v)
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

fn drag_body(dx: f64, dy: f64) -> Json {
    Json::obj([
        ("shape", Json::Num(0.0)),
        ("zone", Json::str("Interior")),
        ("dx", Json::Num(dx)),
        ("dy", Json::Num(dy)),
    ])
}

/// The tentpole: a 4-worker pool holds 1024 concurrent keep-alive
/// live-sync sessions — each connection a session, drags interleaved
/// across all of them — because connections cost the reactor a file
/// descriptor, not a pool thread.
#[test]
fn thousand_keepalive_sessions_on_four_workers() {
    const CLIENT_THREADS: usize = 16;
    const CONNS_PER_THREAD: usize = 64;
    const SESSIONS: usize = CLIENT_THREADS * CONNS_PER_THREAD; // 1024
    const DRAG_ROUNDS: usize = 2;

    let (addr, handle) = boot(ServerConfig {
        max_sessions: SESSIONS + 64,
        max_conns: SESSIONS + 64,
        ..config(4)
    });

    let workers: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                // One keep-alive connection per session, all open at once.
                let mut clients: Vec<(Client, String)> = (0..CONNS_PER_THREAD)
                    .map(|c| {
                        let mut client = Client::connect(&addr);
                        let i = t * CONNS_PER_THREAD + c;
                        let id = create_session(
                            &mut client,
                            Json::obj([(
                                "source",
                                Json::str(format!(
                                    "(def [x y] [{} {}]) (svg [(rect 'navy' x y 20 20)])",
                                    10 + i,
                                    20 + i
                                )),
                            )]),
                        );
                        (client, id)
                    })
                    .collect();
                // Interleaved drags: round-robin over every connection, so
                // all 1024 sessions stay live and active concurrently.
                for round in 1..=DRAG_ROUNDS {
                    for (client, id) in &mut clients {
                        let (status, v) = client.post(
                            &format!("/sessions/{id}/drag"),
                            drag_body(round as f64, 0.0),
                        );
                        assert_eq!(status, 200, "{v}");
                    }
                }
                for (client, id) in &mut clients {
                    let (status, _) = client.post(&format!("/sessions/{id}/commit"), Json::obj([]));
                    assert_eq!(status, 200);
                }
                // Spot-check the committed code on this thread's first session.
                let (client, id) = &mut clients[0];
                let (status, out) = client.get(&format!("/sessions/{id}/code"));
                assert_eq!(status, 200);
                let i = t * CONNS_PER_THREAD;
                let expected = format!(
                    "(def [x y] [{} {}]) (svg [(rect 'navy' x y 20 20)])",
                    10 + i + DRAG_ROUNDS,
                    20 + i
                );
                assert_eq!(out.get("code").unwrap().as_str(), Some(expected.as_str()));
                clients // Keep every connection open until the stats check.
            })
        })
        .collect();
    let all_clients: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .collect();

    // All 1024 sessions live; the reactor's gauges see >= 1024 open
    // connections (published every 50 ms, so poll briefly).
    let mut c = Client::connect(&addr);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, stats) = c.get("/stats");
        assert_eq!(status, 200);
        let sessions = stats.get("sessions").unwrap().as_f64().unwrap();
        let open = stats.get("conns_open").unwrap().as_f64().unwrap();
        if sessions == SESSIONS as f64 && open >= SESSIONS as f64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauges never caught up: sessions {sessions}, conns_open {open}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(all_clients);
    handle.shutdown();
}

/// A slow-loris client dribbling its header a byte at a time is cut off
/// by the read deadline — and costs only a connection slot: a healthy
/// client keeps getting sub-deadline service the whole time.
#[test]
fn slow_loris_is_reaped_without_hurting_neighbors() {
    let (addr, handle) = boot(ServerConfig {
        read_timeout: Duration::from_millis(400),
        ..config(2)
    });

    let mut loris = TcpStream::connect(&addr).expect("connect");
    loris.set_nodelay(true).expect("nodelay");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut healthy = Client::connect(&addr);

    // Dribble one header byte every 25 ms; the deadline starts at the
    // first byte and is NOT extended by later bytes, so ~400 ms in the
    // server cuts us off mid-head.
    let head = b"GET /healthz HTTP/1.1\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    let mut healthy_requests = 0u32;
    let start = Instant::now();
    let mut cut_off = false;
    for byte in head.iter().cycle() {
        if loris.write_all(std::slice::from_ref(byte)).is_err() {
            cut_off = true; // Server closed on us mid-dribble.
            break;
        }
        // The neighbor is served normally while the loris dribbles.
        let (status, _) = healthy.get("/healthz");
        assert_eq!(status, 200);
        healthy_requests += 1;
        std::thread::sleep(Duration::from_millis(25));
        if start.elapsed() > Duration::from_secs(10) {
            break;
        }
    }
    if !cut_off {
        // Writes may keep succeeding into kernel buffers after the server
        // closes; the read side gives the definitive EOF/reset.
        let mut sink = [0u8; 16];
        cut_off = !matches!(loris.read(&mut sink), Ok(n) if n > 0);
    }
    assert!(cut_off, "slow-loris connection was never cut off");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "cutoff took implausibly long"
    );
    assert!(healthy_requests > 5, "healthy client was starved");

    let (status, stats) = healthy.get("/stats");
    assert_eq!(status, 200);
    assert!(
        stats.get("read_timeouts").unwrap().as_f64().unwrap() >= 1.0,
        "{stats}"
    );
    handle.shutdown();
}

/// Keep-alive connections idle past the idle deadline are reaped.
#[test]
fn idle_keepalive_connections_are_reaped() {
    let (addr, handle) = boot(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..config(1)
    });
    let mut c = Client::connect(&addr);
    let (status, _) = c.get("/healthz");
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(700));
    // The server reaped us while idle: the next read sees EOF (or reset).
    let mut sink = [0u8; 16];
    let gone = !matches!(c.stream.get_mut().read(&mut sink), Ok(n) if n > 0);
    assert!(gone, "idle connection survived the reaper");
    let mut c2 = Client::connect(&addr);
    let (status, stats) = c2.get("/stats");
    assert_eq!(status, 200);
    assert!(
        stats.get("idle_reaped").unwrap().as_f64().unwrap() >= 1.0,
        "{stats}"
    );
    handle.shutdown();
}

/// When every worker is busy and the bounded queue is full, new requests
/// are shed with 503 + Retry-After instead of piling up unboundedly —
/// and the connection stays usable afterwards.
#[test]
fn saturated_pool_sheds_load_with_503() {
    let (addr, handle) = boot(ServerConfig {
        queue_depth: 1,
        // One reactor: with N reactors the burst would spread over N
        // single-slot queues and nothing would be shed.
        reactors: 1,
        ..config(1)
    });
    // Burst 8 creates from 8 connections at once. The reactor dispatches
    // the whole burst within one or two event batches — far faster than
    // any create can finish — so the single worker takes one, the single
    // queue slot takes one, and the rest must be shed with 503s.
    const BURST: usize = 8;
    let body = Json::obj([("example", Json::str("us50_flag"))]);
    let mut clients: Vec<Client> = (0..BURST).map(|_| Client::connect(&addr)).collect();
    for c in &mut clients {
        c.send("POST", "/sessions", Some(&body));
    }
    let mut created = 0;
    let mut shed = 0;
    for c in &mut clients {
        let (status, headers, v) = c.read_response();
        match status {
            201 => created += 1,
            503 => {
                shed += 1;
                assert!(
                    headers.iter().any(|(k, v)| k == "retry-after" && v == "1"),
                    "{headers:?}"
                );
                // A shed connection is kept alive and usable afterwards.
                let (status, _) = c.get("/healthz");
                assert_eq!(status, 200);
            }
            other => panic!("unexpected status {other}: {v}"),
        }
    }
    assert!(created >= 1, "no request got through");
    assert!(shed >= 1, "backpressure never fired (created={created})");
    let mut s = Client::connect(&addr);
    let (_, stats) = s.get("/stats");
    assert!(
        stats.get("queue_rejections").unwrap().as_f64().unwrap() >= shed as f64,
        "{stats}"
    );
    handle.shutdown();
}

/// The per-IP session quota: creates past the quota answer 429 with a
/// Retry-After hint, are counted in /stats, and free up on DELETE.
#[test]
fn per_ip_session_quota_answers_429() {
    let (addr, handle) = boot(ServerConfig {
        max_sessions_per_ip: 2,
        ..config(2)
    });
    let mut c = Client::connect(&addr);
    let src = |i: usize| {
        Json::obj([(
            "source",
            Json::str(format!("(svg [(circle 'red' {} 50 10)])", 10 + i)),
        )])
    };
    let id0 = create_session(&mut c, src(0));
    let _id1 = create_session(&mut c, src(1));
    c.send("POST", "/sessions", Some(&src(2)));
    let (status, headers, v) = c.read_response();
    assert_eq!(status, 429, "{v}");
    assert!(
        headers.iter().any(|(k, _)| k == "retry-after"),
        "{headers:?}"
    );
    // Deleting one session frees a quota slot for the same IP.
    let (status, _) = c.request("DELETE", &format!("/sessions/{id0}"), None);
    assert_eq!(status, 200);
    let _id2 = create_session(&mut c, src(3));
    let (_, stats) = c.get("/stats");
    assert_eq!(
        stats.get("quota_rejections").unwrap().as_f64(),
        Some(1.0),
        "{stats}"
    );
    handle.shutdown();
}

/// A client that writes its whole request and then half-closes its write
/// side (shutdown(WR)) still gets the response — EOF is not abandonment.
#[test]
fn half_close_after_request_still_gets_answered() {
    let (addr, handle) = boot(config(1));
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
        .expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw:?}");
    assert!(raw.contains("\"ok\":true"), "{raw:?}");
    handle.shutdown();
}

/// A burst of pipelined requests written in one shot is answered
/// in-order on the same connection (and, per the reactor's design, with
/// constant stack depth — request N+1 parses only after response N is
/// fully written).
#[test]
fn pipelined_burst_is_served_in_order() {
    let (addr, handle) = boot(config(2));
    const BURST: usize = 64;
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let one = b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
    let raw: Vec<u8> = one
        .iter()
        .copied()
        .cycle()
        .take(one.len() * BURST)
        .collect();
    stream.write_all(&raw).expect("write burst");
    let mut reader = BufReader::new(stream);
    for i in 0..BURST {
        let mut status = String::new();
        reader.read_line(&mut status).expect("status line");
        assert!(
            status.starts_with("HTTP/1.1 200"),
            "response {i}: {status:?}"
        );
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header");
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line
                .trim_end()
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
            {
                content_length = v.trim().parse().expect("length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
    }
    handle.shutdown();
}

/// Graceful drain: shutdown stops accepting and finishes in-flight work;
/// `Server::run` returns cleanly and the port closes.
#[test]
fn drain_finishes_in_flight_requests_then_exits() {
    let server = Server::bind(&config(2)).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());

    let mut c = Client::connect(&addr);
    let id = create_session(
        &mut c,
        Json::obj([("source", Json::str("(svg [(rect 'gold' 10 20 30 40)])"))]),
    );
    // Fire a request, give the reactor a beat to read + dispatch it, then
    // drain: whether the drain lands while the request is queued,
    // executing, or already answered, the client still gets the response.
    // (A request the reactor has not finished *reading* is not in-flight:
    // drain drops those connections, which is the intended policy.)
    c.send(
        "POST",
        &format!("/sessions/{id}/drag"),
        Some(&drag_body(5.0, 0.0)),
    );
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();
    let (status, _, v) = c.read_response();
    assert_eq!(status, 200, "{v}");

    let result = runner.join().expect("reactor thread");
    assert!(result.is_ok(), "{result:?}");
    // The listener is gone: new connections are refused.
    assert!(
        TcpStream::connect(&addr).is_err(),
        "drained server still accepting"
    );
}

/// Sharded serving is sticky only as an optimization: a session created
/// on whatever reactor accepted the POST keeps working across keep-alive
/// *re*connects, each of which the kernel may land on a different
/// reactor. /stats reports the shard layout.
#[test]
fn session_survives_reconnects_across_reactors() {
    let (addr, handle) = boot(ServerConfig {
        reactors: 4,
        ..config(2)
    });
    let mut c = Client::connect(&addr);
    let id = create_session(
        &mut c,
        Json::obj([("source", Json::str("(svg [(rect 'plum' 10 20 30 40)])"))]),
    );
    drop(c);
    // Each reconnect is a fresh SO_REUSEPORT pick: over 8 tries a
    // 4-reactor server virtually always serves this session from several
    // different loops.
    for round in 1..=8 {
        let mut c = Client::connect(&addr);
        let (status, v) = c.post(&format!("/sessions/{id}/drag"), drag_body(1.0, 0.0));
        assert_eq!(status, 200, "reconnect {round}: {v}");
    }
    let mut c = Client::connect(&addr);
    let (status, stats) = c.get("/stats");
    assert_eq!(status, 200);
    let Some(Json::Obj(per_reactor)) = stats.get("reactor_conns") else {
        panic!("reactor_conns is not an object: {stats}");
    };
    let labels: Vec<&str> = per_reactor.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(labels, ["0", "1", "2", "3"], "{stats}");
    handle.shutdown();
}

/// Every reactor runs its own deadline wheel: slow-loris connections
/// spread across the shards are all reaped, not just the ones that
/// happened to land on reactor 0.
#[test]
fn slow_loris_is_reaped_on_every_reactor() {
    const LORISES: usize = 8;
    let (addr, handle) = boot(ServerConfig {
        reactors: 2,
        read_timeout: Duration::from_millis(300),
        ..config(2)
    });
    // One header byte arms each connection's read deadline; with 8
    // connections over 2 reactors both wheels hold victims.
    let mut lorises: Vec<TcpStream> = (0..LORISES)
        .map(|_| {
            let mut s = TcpStream::connect(&addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            s.write_all(b"G").expect("first byte");
            s
        })
        .collect();
    for (i, loris) in lorises.iter_mut().enumerate() {
        let mut sink = [0u8; 16];
        let cut = !matches!(loris.read(&mut sink), Ok(n) if n > 0);
        assert!(cut, "loris {i} was never cut off");
    }
    let mut c = Client::connect(&addr);
    let (status, stats) = c.get("/stats");
    assert_eq!(status, 200);
    assert!(
        stats.get("read_timeouts").unwrap().as_f64().unwrap() >= LORISES as f64,
        "{stats}"
    );
    handle.shutdown();
}

/// A drain request reaches every reactor: all idle connections (wherever
/// they were accepted) are dropped, every loop exits, and the port
/// closes.
#[test]
fn drain_covers_every_reactor() {
    let server = Server::bind(&ServerConfig {
        reactors: 4,
        ..config(2)
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());
    // Park idle keep-alive connections across the shards.
    let mut parked: Vec<Client> = (0..12)
        .map(|_| {
            let mut c = Client::connect(&addr);
            let (status, _) = c.get("/healthz");
            assert_eq!(status, 200);
            c
        })
        .collect();
    handle.shutdown();
    let result = runner.join().expect("reactor threads");
    assert!(result.is_ok(), "{result:?}");
    // Every parked connection was dropped by its owning reactor.
    for (i, c) in parked.iter_mut().enumerate() {
        let mut sink = [0u8; 16];
        let gone = !matches!(c.stream.get_mut().read(&mut sink), Ok(n) if n > 0);
        assert!(gone, "parked connection {i} survived the drain");
    }
    assert!(
        TcpStream::connect(&addr).is_err(),
        "drained server still accepting"
    );
}

/// `--max-conns` is a whole-server gate, not per reactor: once the
/// *global* count is at the limit, whichever reactor accepts the next
/// connection sheds it with a 503.
#[test]
fn conn_gate_is_global_across_reactors() {
    const LIMIT: usize = 8;
    let (addr, handle) = boot(ServerConfig {
        reactors: 4,
        max_conns: LIMIT,
        ..config(2)
    });
    // Fill the global gate with admitted, healthy connections (the
    // round-trip proves each was admitted, not parked in a backlog).
    let mut admitted: Vec<Client> = (0..LIMIT)
        .map(|_| {
            let mut c = Client::connect(&addr);
            let (status, _) = c.get("/healthz");
            assert_eq!(status, 200);
            c
        })
        .collect();
    // The next connection lands on *some* reactor; the shared count says
    // the server is full, so it gets the 503 regardless of which one.
    let mut extra = TcpStream::connect(&addr).expect("connect");
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut raw = String::new();
    let _ = extra.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw:?}");
    assert!(raw.contains("connection limit reached"), "{raw:?}");
    // Freeing one slot re-opens the gate for a newcomer. The write may
    // race the server still counting the closed connection down, so
    // retry; `Connection: close` makes the success read self-delimiting.
    drop(admitted.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut s = TcpStream::connect(&addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let _ = s.write_all(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
        );
        let mut raw = String::new();
        let _ = s.read_to_string(&mut raw);
        if raw.starts_with("HTTP/1.1 200") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gate never re-opened after a close: {raw:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(admitted);
    handle.shutdown();
}
