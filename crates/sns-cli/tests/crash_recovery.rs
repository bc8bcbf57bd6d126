//! The durability contract, end to end against the real binary: `sns
//! serve --data-dir …` under its default fsync policy (group commit) is
//! `kill -9`ed — first at rest, then while a client is hammering commits
//! mid-write — and after a restart every commit the server
//! *acknowledged* must come back with bit-identical code and canvas.
//! Unacknowledged work may come back or not; what is not allowed is a
//! state the server never acked.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Reads the "listening on http://ADDR" line the server logs at startup.
fn wait_for_addr(child: &mut Child) -> String {
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
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
            // Keep draining stderr in the background so the server never
            // blocks on a full pipe.
            std::thread::spawn(move || {
                let mut sink = String::new();
                let _ = reader.read_to_string(&mut sink);
            });
            return addr;
        }
    }
}

fn spawn_server(data_dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sns"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--data-dir",
            data_dir.to_str().expect("utf8 tmp path"),
        ])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn sns serve");
    let addr = wait_for_addr(&mut child);
    (child, addr)
}

/// One request on a fresh connection. `None` when the server died under
/// us (connection refused/reset) — which is the point of this test.
fn try_http(addr: &str, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: sns\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).ok()?;
    stream.write_all(body.as_bytes()).ok()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).ok()?;
    let status: u16 = raw.split_whitespace().nth(1).and_then(|s| s.parse().ok())?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Some((status, body))
}

/// Like [`try_http`], but the server is expected to be alive.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    try_http(addr, method, path, body)
        .unwrap_or_else(|| panic!("request {method} {path} failed against a live server"))
}

/// Pulls a string field out of a flat JSON body (the test avoids a JSON
/// dependency; server strings are escaped, so the raw escaped form is
/// compared — equality of escaped forms is equality of values).
fn field<'a>(body: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let start = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + pat.len();
    let mut end = start;
    let bytes = body.as_bytes();
    while end < bytes.len() {
        match bytes[end] {
            b'\\' => end += 2,
            b'"' => break,
            _ => end += 1,
        }
    }
    &body[start..end]
}

fn create(addr: &str, source: &str) -> String {
    let (status, body) = http(
        addr,
        "POST",
        "/sessions",
        &format!("{{\"source\":\"{source}\"}}"),
    );
    assert_eq!(status, 201, "{body}");
    field(&body, "id").to_string()
}

fn drag_commit(addr: &str, id: &str, dx: f64, dy: f64) -> Option<String> {
    let (status, _) = try_http(
        addr,
        "POST",
        &format!("/sessions/{id}/drag"),
        &format!("{{\"shape\":0,\"zone\":\"Interior\",\"dx\":{dx},\"dy\":{dy}}}"),
    )?;
    if status != 200 {
        return None;
    }
    let (status, body) = try_http(addr, "POST", &format!("/sessions/{id}/commit"), "{}")?;
    (status == 200).then(|| field(&body, "code").to_string())
}

fn get_code(addr: &str, id: &str) -> String {
    let (status, body) = http(addr, "GET", &format!("/sessions/{id}/code"), "");
    assert_eq!(status, 200, "{body}");
    field(&body, "code").to_string()
}

fn get_canvas(addr: &str, id: &str) -> String {
    let (status, body) = http(addr, "GET", &format!("/sessions/{id}/canvas"), "");
    assert_eq!(status, 200, "{body}");
    body
}

fn kill_dash_nine(child: &mut Child) {
    // Child::kill is SIGKILL on unix: no handlers, no drain, no goodbye.
    child.kill().expect("kill -9");
    child.wait().expect("reap");
}

#[test]
fn acked_commits_survive_kill_minus_nine() {
    let data_dir = std::env::temp_dir().join(format!("sns-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    // ---- Phase 1: deterministic acked state across several sessions.
    let (mut child, addr) = spawn_server(&data_dir);
    let quiet = create(&addr, "(svg [(rect 'gold' 10 20 30 40)])");
    let busy = create(&addr, "(svg [(circle 'navy' 100 100 30)])");
    let slider = create(
        &addr,
        "(def n 4!{3-30}) (svg [(rect 'red' (* n 10) 20 30 40)])",
    );
    for step in 1..=3 {
        assert!(drag_commit(&addr, &quiet, 5.0 * step as f64, 1.0).is_some());
    }
    let quiet_code = get_code(&addr, &quiet);
    let quiet_canvas = get_canvas(&addr, &quiet);
    let slider_code = get_code(&addr, &slider);

    // ---- Phase 2: hammer commits on `busy` from a thread, then SIGKILL
    // the server mid-stream. Every code the *client saw acked* goes into
    // the set of states the restarted server may legally serve.
    let hammer_addr = addr.clone();
    let hammer_id = busy.clone();
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let hammer = std::thread::spawn(move || {
        let mut acked: Vec<String> = Vec::new();
        let mut step = 0.0f64;
        while stop_rx.try_recv().is_err() {
            step += 1.0;
            if let Some(code) = drag_commit(&hammer_addr, &hammer_id, step, 0.0) {
                acked.push(code);
            }
        }
        acked
    });
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(300) {
        std::thread::sleep(Duration::from_millis(10));
    }
    kill_dash_nine(&mut child);
    let _ = stop_tx.send(());
    let acked: Vec<String> = hammer.join().expect("hammer thread");
    let busy_initial = "(svg [(circle 'navy' 100 100 30)])".to_string();
    // Durability is one-sided: nothing acked may be lost, but a commit the
    // server journaled whose ack the kill swallowed is legal too. The
    // hammer is sequential, so exactly one such state is possible: one
    // step past the last ack (each step j moves cx by j from step j-1).
    let k = acked.len() as u64;
    let inflight_x = 100 + k * (k + 1) / 2 + (k + 1);
    let inflight = format!("(svg [(circle 'navy' {inflight_x} 100 30)])");
    let legal: HashSet<&String> = acked.iter().chain([&busy_initial, &inflight]).collect();

    // ---- Phase 3: restart on the same data dir; every acked state must
    // be back, bit for bit.
    let (mut child, addr) = spawn_server(&data_dir);
    assert_eq!(get_code(&addr, &quiet), quiet_code, "acked commits lost");
    assert_eq!(
        get_canvas(&addr, &quiet),
        quiet_canvas,
        "recovered canvas diverged"
    );
    assert_eq!(get_code(&addr, &slider), slider_code);
    let busy_code = get_code(&addr, &busy);
    assert!(
        legal.contains(&busy_code),
        "recovered `busy` serves a state the server never acked: {busy_code} \
         (acked {} commits)",
        acked.len()
    );
    // Specifically: no rollback. The group commit makes an ack durable
    // before the client sees it, so the recovered state is the last acked
    // commit (or the one un-acked step past it) — never anything earlier.
    if let Some(last) = acked.last() {
        assert!(
            busy_code == *last || busy_code == inflight,
            "rolled back past an acked commit: recovered {busy_code}, last acked {last}"
        );
    }

    // The recovered server is fully live: sessions keep committing and
    // new sessions journal onto the same directory.
    assert!(drag_commit(&addr, &quiet, 1.0, 1.0).is_some());
    let extra = create(&addr, "(svg [(rect 'red' 1 2 3 4)])");
    assert!(drag_commit(&addr, &extra, 2.0, 0.0).is_some());

    // ---- Phase 4: a second SIGKILL immediately after, then verify the
    // post-restart commits also survived.
    let quiet_code2 = get_code(&addr, &quiet);
    kill_dash_nine(&mut child);
    let (mut child, addr) = spawn_server(&data_dir);
    assert_eq!(get_code(&addr, &quiet), quiet_code2);
    assert_eq!(get_code(&addr, &extra), "(svg [(rect 'red' 3 2 3 4)])");
    kill_dash_nine(&mut child);

    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn unknown_fsync_policy_is_refused_naming_the_valid_ones() {
    let data_dir = std::env::temp_dir().join(format!("sns-fsync-flag-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_sns"))
        .args(["serve", "--addr", "127.0.0.1:0", "--data-dir"])
        .arg(&data_dir)
        .args(["--fsync", "always"])
        .output()
        .expect("run sns serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "`--fsync always` was accepted: {stderr}"
    );
    assert!(
        stderr.contains("batch|never"),
        "error names no valid policy: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}
