//! The fail-over contract, end to end against real binaries: a leader
//! (`--repl-listen --replicate-to 1`) and a follower (`--follow`) run as
//! separate processes; a client hammers commits; the leader is killed
//! with `kill -9` mid-stream; the follower is promoted and must serve
//! every commit the leader *acknowledged*, bit-identical (code and
//! canvas), then accept writes itself. Mirrors the shape of
//! `crash_recovery.rs`, with the promoted follower standing in for the
//! restarted leader.
//!
//! `--replicate-to 1` is what makes the assertion exact rather than
//! probabilistic: the leader does not ack a commit until the follower
//! has journaled and applied it, so the kill can never swallow acked
//! data that the follower lacks. (A commit the leader journaled and
//! streamed whose ack the kill swallowed is legal on the follower too —
//! the hammer is sequential, so exactly one such state is possible.)

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Reads the server's startup banner lines: the HTTP address, and (when
/// `want_repl`) the replication-listener address announced after it.
fn wait_for_addrs(child: &mut Child, want_repl: bool) -> (String, Option<String>) {
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    let mut http = None;
    let mut repl = None;
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server stderr");
        assert!(n > 0, "server exited before announcing its address(es)");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            http = Some(
                rest.split_whitespace()
                    .next()
                    .expect("address after listening banner")
                    .to_string(),
            );
        }
        if let Some(rest) = line.split("replicating on ").nth(1) {
            repl = Some(
                rest.split_whitespace()
                    .next()
                    .expect("address after replicating banner")
                    .to_string(),
            );
        }
        if let Some(http) = http.as_ref().filter(|_| !want_repl || repl.is_some()) {
            // Keep draining stderr in the background so the server never
            // blocks on a full pipe.
            let http = http.clone();
            std::thread::spawn(move || {
                let mut sink = String::new();
                let _ = reader.read_to_string(&mut sink);
            });
            return (http, repl);
        }
    }
}

/// `sns serve` as a user starts it. Cargo's `[env]` gives every process it
/// runs a 256 MiB `RUST_MIN_STACK`, which would hide a thread spawned with
/// the platform-default stack; the nodes here run without it.
fn sns() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sns"));
    cmd.env_remove("RUST_MIN_STACK");
    cmd
}

fn spawn_leader(data_dir: &Path) -> (Child, String, String) {
    let mut child = sns()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--data-dir",
            data_dir.to_str().expect("utf8 tmp path"),
            "--repl-listen",
            "127.0.0.1:0",
            "--replicate-to",
            "1",
        ])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn sns serve (leader)");
    let (http, repl) = wait_for_addrs(&mut child, true);
    (child, http, repl.expect("repl addr"))
}

fn spawn_follower(data_dir: &Path, leader_repl: &str) -> (Child, String) {
    let mut child = sns()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--data-dir",
            data_dir.to_str().expect("utf8 tmp path"),
            "--follow",
            leader_repl,
        ])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn sns serve (follower)");
    let (http, _) = wait_for_addrs(&mut child, false);
    (child, http)
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

fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    try_http(addr, method, path, body)
        .unwrap_or_else(|| panic!("request {method} {path} failed against a live server"))
}

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

/// Creates a session on a sync-replicated leader, retrying while the
/// leader refuses writes until its follower has connected.
fn create_when_connected(leader_http: &str, source: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (status, body) = http(
            leader_http,
            "POST",
            "/sessions",
            &format!("{{\"source\":\"{source}\"}}"),
        );
        if status == 201 {
            return field(&body, "id").to_string();
        }
        assert!(
            Instant::now() < deadline,
            "leader never accepted a write: {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn kill_dash_nine(child: &mut Child) {
    // Child::kill is SIGKILL on unix: no handlers, no drain, no goodbye.
    child.kill().expect("kill -9");
    child.wait().expect("reap");
}

#[test]
fn promoted_follower_serves_every_acked_commit_after_leader_kill() {
    let dir_l = std::env::temp_dir().join(format!("sns-repl-failover-l-{}", std::process::id()));
    let dir_f = std::env::temp_dir().join(format!("sns-repl-failover-f-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);

    let (mut leader, leader_http, leader_repl) = spawn_leader(&dir_l);
    let (mut follower, follower_http) = spawn_follower(&dir_f, &leader_repl);

    // The leader refuses writes until its sync follower is connected
    // (--replicate-to 1), so the first successful create doubles as the
    // connection barrier.
    let quiet = create_when_connected(&leader_http, "(svg [(rect 'gold' 10 20 30 40)])");
    let busy = create(&leader_http, "(svg [(circle 'navy' 100 100 30)])");
    for step in 1..=3 {
        assert!(drag_commit(&leader_http, &quiet, 5.0 * step as f64, 1.0).is_some());
    }
    let quiet_code = get_code(&leader_http, &quiet);
    let quiet_canvas = get_canvas(&leader_http, &quiet);

    // Writes on the follower are misdirected while the leader lives.
    let (status, body) = try_http(
        &follower_http,
        "POST",
        &format!("/sessions/{busy}/commit"),
        "{}",
    )
    .expect("follower alive");
    assert_eq!(status, 421, "{body}");
    assert_eq!(field(&body, "leader"), leader_http);

    // ---- Hammer commits, then SIGKILL the leader mid-stream.
    let hammer_addr = leader_http.clone();
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
    std::thread::sleep(Duration::from_millis(400));
    kill_dash_nine(&mut leader);
    let _ = stop_tx.send(());
    let acked: Vec<String> = hammer.join().expect("hammer thread");
    assert!(
        !acked.is_empty(),
        "hammer never got an ack; sync replication may be wedged"
    );
    // Legal post-fail-over states for `busy`: any acked code, or the one
    // commit past the last ack that the leader journaled + streamed but
    // whose ack the kill swallowed (the hammer is sequential, so there is
    // exactly one such state: step k+1 moves cx by k+1 from step k).
    let busy_initial = "(svg [(circle 'navy' 100 100 30)])".to_string();
    let k = acked.len() as u64;
    let inflight_x = 100 + k * (k + 1) / 2 + (k + 1);
    let inflight = format!("(svg [(circle 'navy' {inflight_x} 100 30)])");
    let legal: HashSet<&String> = acked.iter().chain([&busy_initial, &inflight]).collect();

    // ---- Promote the follower and hold it to the acked history.
    let (status, body) = http(&follower_http, "POST", "/promote", "");
    assert_eq!(status, 200, "promotion failed: {body}");
    assert!(body.contains("\"promoted\":true"), "{body}");

    assert_eq!(
        get_code(&follower_http, &quiet),
        quiet_code,
        "acked commits lost in fail-over"
    );
    assert_eq!(
        get_canvas(&follower_http, &quiet),
        quiet_canvas,
        "promoted canvas diverged"
    );
    let busy_code = get_code(&follower_http, &busy);
    assert!(
        legal.contains(&busy_code),
        "promoted follower serves a state the leader never acked: {busy_code} \
         (acked {} commits)",
        acked.len()
    );
    // Zero acked-data loss: never anything *earlier* than the last ack.
    if let Some(last) = acked.last() {
        assert!(
            busy_code == *last || busy_code == inflight,
            "rolled back past an acked commit: promoted node has {busy_code}, last acked {last}"
        );
    }

    // ---- The promoted node is a real leader: existing sessions keep
    // committing, new sessions work, and it all lands in its own journal.
    assert!(drag_commit(&follower_http, &quiet, 1.0, 1.0).is_some());
    let extra = create(&follower_http, "(svg [(rect 'red' 1 2 3 4)])");
    assert_eq!(
        drag_commit(&follower_http, &extra, 2.0, 0.0).as_deref(),
        Some("(svg [(rect 'red' 3 2 3 4)])")
    );

    kill_dash_nine(&mut follower);
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);
}

/// Evaluating `little` recurses with list length, so a follower replaying
/// a long list needs the same deep stack as the leader's pool workers,
/// which evaluated it first. A stack overflow aborts the follower, and
/// with `--replicate-to 1` the leader then refuses the write as well.
#[test]
fn follower_replays_a_deep_program_the_leader_accepted() {
    let dir_l = std::env::temp_dir().join(format!("sns-repl-deep-l-{}", std::process::id()));
    let dir_f = std::env::temp_dir().join(format!("sns-repl-deep-f-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);

    let (mut leader, leader_http, leader_repl) = spawn_leader(&dir_l);
    let (mut follower, follower_http) = spawn_follower(&dir_f, &leader_repl);

    let deep = "(svg (map (λ i (rect 'teal' i 10 5 5)) (zeroTo 1000)))";
    create_when_connected(&leader_http, "(svg [(rect 'gold' 10 20 30 40)])");
    let id = create(&leader_http, deep);
    let committed = drag_commit(&leader_http, &id, 3.0, 1.0).expect("leader commits");
    assert_eq!(get_code(&follower_http, &id), committed);

    kill_dash_nine(&mut leader);
    kill_dash_nine(&mut follower);
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);
}
