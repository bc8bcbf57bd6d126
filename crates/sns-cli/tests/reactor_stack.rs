//! One stack policy for every thread that solves: a proof-only drag is
//! answered on the reactor thread that owns its connection, and the
//! trigger solve it runs recurses with the depth of the zone's traces.
//! Here `sns serve --reactors 2` runs as a user starts it, without the
//! 256 MiB `RUST_MIN_STACK` cargo gives every process it runs (which would
//! hide a thread spawned with the platform-default stack), and drags a
//! zone whose trace is thousands of operations deep over connections
//! held open on both reactors. The drag's commit is answered on a reactor
//! thread too: its tape sweep and canvas write run there.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sns_server::json::{self, Json};

/// The dragged rect's `x` is a fold that adds `1` [`ADDS`] times per
/// step over [`STEPS`] steps, so its trace `(+ (+ … (+ x0 1) …) 1)` is
/// `STEPS × ADDS` operations deep, while the interpreter, whose recursion
/// depth is capped, recurses only about `STEPS` deep.
const STEPS: usize = 800;

/// Additions per fold step.
const ADDS: usize = 50;

/// Connections held open at once; the kernel spreads them over the
/// reactors, and the test waits until both hold some.
const CONNS: usize = 16;

/// Reads the "listening on http://ADDR" line the server logs at startup,
/// then keeps draining stderr so the server never blocks on the pipe.
fn wait_for_addr(child: &mut Child) -> String {
    let mut reader = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server stderr");
        assert!(n > 0, "server exited before announcing its address");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest
                .split_whitespace()
                .next()
                .expect("address after listening banner")
                .to_string();
            std::thread::spawn(move || {
                let mut sink = String::new();
                let _ = reader.read_to_string(&mut sink);
            });
            return addr;
        }
    }
}

/// The server process, killed when the test ends, failed or not.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A keep-alive connection.
struct Conn(BufReader<TcpStream>);

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Conn(BufReader::new(stream))
    }

    /// One request; `None` when the server dropped the connection.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: sns\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.0.get_mut();
        stream.write_all(head.as_bytes()).ok()?;
        stream.write_all(body.as_bytes()).ok()?;
        let mut status = None;
        let mut length = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if self.0.read_line(&mut line).ok()? == 0 {
                return None;
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if status.is_none() {
                status = line.split_whitespace().nth(1)?.parse().ok();
            } else if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().ok()?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.0.read_exact(&mut body).ok()?;
        Some((status?, String::from_utf8(body).ok()?))
    }
}

fn stats(addr: &str) -> Json {
    let (status, body) = Conn::open(addr)
        .request("GET", "/stats", "")
        .expect("the server answers /stats");
    assert_eq!(status, 200, "{body}");
    json::parse(&body).expect("stats are JSON")
}

#[test]
fn both_reactors_inline_drag_a_deep_trace_without_rust_min_stack() {
    let child = Command::new(env!("CARGO_BIN_EXE_sns"))
        .env_remove("RUST_MIN_STACK")
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--reactors",
            "2",
        ])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn sns serve");
    let mut server = Server(child);
    let addr = wait_for_addr(&mut server.0);

    let step = (0..ADDS).fold("acc".to_string(), |e, _| format!("(+ {e} 1)"));
    let source = format!(
        "(def x0 10) (def x (foldl (λ(i acc) {step}) x0 (zeroTo {STEPS}!))) \
         (svg [(rect 'teal' x 20 30 40)])"
    );
    let (status, body) = Conn::open(&addr)
        .request(
            "POST",
            "/sessions",
            &Json::obj([("source", Json::str(source))]).to_string(),
        )
        .expect("the server creates the session");
    assert_eq!(status, 201, "{body}");
    let reply = json::parse(&body).expect("JSON reply");
    let id = reply.get("id").and_then(Json::as_str).expect("session id");

    let mut conns: Vec<Conn> = (0..CONNS).map(|_| Conn::open(&addr)).collect();
    // A zero-length body is a complete request, so the reactor accepts
    // and counts each connection before any drag is sent.
    for c in &mut conns {
        let (status, _) = c.request("GET", "/healthz", "").expect("healthz");
        assert_eq!(status, 200);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let per_reactor = match stats(&addr).get("reactor_conns") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(_, v)| v.as_f64().expect("a count"))
                .collect::<Vec<_>>(),
            other => panic!("no reactor_conns in /stats: {other:?}"),
        };
        assert_eq!(per_reactor.len(), 2, "{per_reactor:?}");
        if per_reactor.iter().all(|&n| n > 0.0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "all {CONNS} connections stayed on one reactor: {per_reactor:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let drag = "{\"shape\":0,\"zone\":\"Interior\",\"dx\":3,\"dy\":1}";
    for (i, c) in conns.iter_mut().enumerate() {
        let reply = c.request("POST", &format!("/sessions/{id}/drag"), drag);
        let Some((status, body)) = reply else {
            let exit = server.0.try_wait().ok().flatten();
            panic!("drag {i}: the server dropped the connection (exit: {exit:?})");
        };
        assert_eq!(status, 200, "drag {i}: {body}");
    }
    // Counters land after the reply is written: poll.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let inline = stats(&addr).get("drags_inline").and_then(Json::as_f64);
        if inline == Some(CONNS as f64) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "not every drag was answered inline: {inline:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let commit = conns[0].request("POST", &format!("/sessions/{id}/commit"), "");
    let Some((status, body)) = commit else {
        let exit = server.0.try_wait().ok().flatten();
        panic!("commit: the server dropped the connection (exit: {exit:?})");
    };
    assert_eq!(status, 200, "commit: {body}");
    assert!(body.contains("(def x0 13)"), "{body}");
    let inline = stats(&addr).get("commits_inline").and_then(Json::as_f64);
    assert_eq!(inline, Some(1.0), "the commit was not answered inline");
}
