//! Replication, in-process against real [`Server`]s on loopback: a
//! leader streaming its journal and a follower applying it through the
//! replay path. Covers the protocol's three regimes — snapshot catch-up
//! for a far-behind (fresh) follower, live tailing, and the mid-stream
//! compaction handoff — plus the read-only contract (421 on writes, reads
//! served locally) and promotion. The `kill -9` fail-over version against
//! real processes lives in `sns-cli/tests/replication.rs`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sns_server::json::{self, Json};
use sns_server::{Server, ServerConfig, ShutdownHandle};

struct Node {
    addr: SocketAddr,
    repl: Option<SocketAddr>,
    shutdown: ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Node {
    fn stop(self) {
        self.shutdown.shutdown();
        self.thread.join().expect("server thread").expect("run");
    }
}

fn spawn(config: ServerConfig) -> Node {
    let server = Server::bind(&config).expect("bind server");
    let addr = server.local_addr().expect("local addr");
    let repl = server.repl_addr();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    Node {
        addr,
        repl,
        shutdown,
        thread,
    }
}

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sns-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One request on a fresh connection (the crash-recovery test's helper).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: sns\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Member `key` of the JSON object `body`. Panics when the body is not
/// JSON or lacks the key, so a renamed key fails loudly instead of
/// reading as a default.
fn json_field(body: &str, key: &str) -> Json {
    let v = json::parse(body).unwrap_or_else(|e| panic!("not JSON ({e:?}): {body}"));
    v.get(key)
        .cloned()
        .unwrap_or_else(|| panic!("no {key} in {body}"))
}

fn field(body: &str, key: &str) -> String {
    json_field(body, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key} is not a string in {body}"))
        .to_string()
}

fn num_field(body: &str, key: &str) -> f64 {
    json_field(body, key)
        .as_f64()
        .unwrap_or_else(|| panic!("{key} is not numeric in {body}"))
}

fn create(addr: SocketAddr, source: &str) -> String {
    let (status, body) = http(
        addr,
        "POST",
        "/sessions",
        &format!("{{\"source\":\"{source}\"}}"),
    );
    assert_eq!(status, 201, "{body}");
    field(&body, "id")
}

fn drag_commit(addr: SocketAddr, id: &str, dx: f64) -> String {
    let (status, body) = http(
        addr,
        "POST",
        &format!("/sessions/{id}/drag"),
        &format!("{{\"shape\":0,\"zone\":\"Interior\",\"dx\":{dx},\"dy\":0}}"),
    );
    assert_eq!(status, 200, "{body}");
    let (status, body) = http(addr, "POST", &format!("/sessions/{id}/commit"), "{}");
    assert_eq!(status, 200, "{body}");
    field(&body, "code")
}

fn get_code(addr: SocketAddr, id: &str) -> Option<String> {
    let (status, body) = http(addr, "GET", &format!("/sessions/{id}/code"), "");
    (status == 200).then(|| field(&body, "code"))
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn leader_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        data_dir: Some(dir.to_path_buf()),
        repl_listen: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    }
}

fn follower_config(dir: &Path, leader_repl: SocketAddr) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        data_dir: Some(dir.to_path_buf()),
        follow: Some(leader_repl.to_string()),
        ..ServerConfig::default()
    }
}

#[test]
fn follower_catches_up_tails_survives_compaction_and_promotes() {
    let dir_l = data_dir("leader");
    let dir_f = data_dir("follower");
    let leader = spawn(leader_config(&dir_l));
    let leader_repl = leader.repl.expect("repl listener bound");

    // ---- State built *before* the follower exists, deep enough that the
    // leader compacts (> COMPACT_MIN_RECORDS in one shard): catching up
    // will require the snapshot path, not a tail from offset zero.
    let a = create(leader.addr, "(svg [(rect 'gold' 10 20 30 40)])");
    let mut a_code = String::new();
    for step in 1..=70 {
        a_code = drag_commit(leader.addr, &a, step as f64);
    }
    wait_until(
        "leader background compaction",
        Duration::from_secs(5),
        || num_field(&http(leader.addr, "GET", "/stats", "").1, "snapshot_count") >= 1.0,
    );

    // ---- Follower connects and catches up from the snapshot.
    let follower = spawn(follower_config(&dir_f, leader_repl));
    wait_until("snapshot catch-up", Duration::from_secs(10), || {
        get_code(follower.addr, &a).as_deref() == Some(a_code.as_str())
    });
    // The caught-up session is readable a moment before the apply
    // counter moves: `/stats` is eventually consistent, so poll it.
    wait_until("snapshot catch-up counted", Duration::from_secs(5), || {
        num_field(
            &http(follower.addr, "GET", "/stats", "").1,
            "repl_snapshots_applied",
        ) >= 1.0
    });
    let stats = http(follower.addr, "GET", "/stats", "").1;
    assert_eq!(num_field(&stats, "repl_follower"), 1.0, "{stats}");
    let leader_stats = http(leader.addr, "GET", "/stats", "").1;
    assert_eq!(num_field(&leader_stats, "repl_followers_connected"), 1.0);

    // ---- Live tail: a fresh commit appears on the follower.
    let b = create(leader.addr, "(svg [(circle 'navy' 100 100 30)])");
    let b_code = drag_commit(leader.addr, &b, 17.0);
    wait_until("live tail", Duration::from_secs(10), || {
        get_code(follower.addr, &b).as_deref() == Some(b_code.as_str())
    });

    // ---- Mid-stream compaction handoff: push the leader over another
    // compaction threshold while the follower tails; the follower's
    // cursor generation goes stale and it must re-sync via snapshot.
    let snaps_before = num_field(
        &http(follower.addr, "GET", "/stats", "").1,
        "repl_snapshots_applied",
    );
    for step in 71..=145 {
        a_code = drag_commit(leader.addr, &a, step as f64);
    }
    wait_until(
        "post-compaction convergence",
        Duration::from_secs(10),
        || get_code(follower.addr, &a).as_deref() == Some(a_code.as_str()),
    );
    wait_until("handoff snapshot", Duration::from_secs(10), || {
        num_field(
            &http(follower.addr, "GET", "/stats", "").1,
            "repl_snapshots_applied",
        ) > snaps_before
    });

    // ---- Deletes replicate too.
    let (status, _) = http(leader.addr, "DELETE", &format!("/sessions/{b}"), "");
    assert_eq!(status, 200);
    wait_until("replicated delete", Duration::from_secs(10), || {
        get_code(follower.addr, &b).is_none()
    });

    // ---- The read-only contract: reads serve locally, writes 421 with
    // the leader's address.
    let (status, body) = http(
        follower.addr,
        "POST",
        &format!("/sessions/{a}/commit"),
        "{}",
    );
    assert_eq!(status, 421, "{body}");
    assert_eq!(field(&body, "leader"), leader.addr.to_string());

    // ---- Promotion: drain, flip, accept writes.
    let (status, body) = http(follower.addr, "POST", "/promote", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"promoted\":true"), "{body}");
    assert_eq!(
        num_field(&http(follower.addr, "GET", "/stats", "").1, "repl_follower"),
        0.0
    );
    let promoted_code = drag_commit(follower.addr, &a, 500.0);
    assert_ne!(
        promoted_code, a_code,
        "write on promoted node had no effect"
    );
    let c = create(follower.addr, "(svg [(rect 'red' 1 2 3 4)])");
    assert!(get_code(follower.addr, &c).is_some());
    // Promote is idempotent.
    let (status, body) = http(follower.addr, "POST", "/promote", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"promoted\":false"), "{body}");

    leader.stop();
    follower.stop();
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);
}

#[test]
fn replication_stream_is_gated_by_the_auth_token() {
    // The journal stream carries every session's source text and its
    // acks can satisfy --replicate-to, so when the HTTP surface is
    // token-gated the stream is too: a client without the token gets
    // dropped before any data (even the welcome) flows; a follower
    // presenting its own matching --auth-token replicates normally.
    let dir_l = data_dir("auth-leader");
    let dir_f = data_dir("auth-follower");
    let leader = spawn(ServerConfig {
        auth_token: Some("sesame".to_string()),
        ..leader_config(&dir_l)
    });
    let leader_repl = leader.repl.expect("repl addr");

    // An unauthenticated peer: hello without a token → disconnected
    // without a single byte of payload.
    let mut crasher = TcpStream::connect(leader_repl).expect("connect");
    crasher
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Frame: [len][crc32][payload] with the journal's CRC-32 (IEEE).
    let payload = br#"{"t":"hello"}"#;
    let crc = {
        let mut crc = !0u32;
        for b in payload.iter() {
            crc ^= u32::from(*b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xedb8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    };
    crasher
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    crasher.write_all(&crc.to_le_bytes()).unwrap();
    crasher.write_all(payload).unwrap();
    let mut sink = Vec::new();
    let got = crasher.read_to_end(&mut sink).expect("read to EOF");
    assert_eq!(got, 0, "unauthenticated peer received {got} bytes");

    // A properly-credentialed follower syncs fine.
    let follower = spawn(ServerConfig {
        auth_token: Some("sesame".to_string()),
        ..follower_config(&dir_f, leader_repl)
    });
    let auth_http = |addr: SocketAddr, method: &str, path: &str, body: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: sns\r\nConnection: close\r\n\
             Authorization: Bearer sesame\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    };
    let (status, body) = auth_http(
        leader.addr,
        "POST",
        "/sessions",
        "{\"source\":\"(svg [(rect 'gold' 10 20 30 40)])\"}",
    );
    assert_eq!(status, 201, "{body}");
    let id = field(&body, "id");
    wait_until("authed replication", Duration::from_secs(10), || {
        auth_http(follower.addr, "GET", &format!("/sessions/{id}/code"), "").0 == 200
    });

    leader.stop();
    follower.stop();
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);
}

#[test]
fn sync_replication_means_acked_implies_on_follower() {
    // --replicate-to 1: the leader must not ack a write before the
    // follower has journaled and applied it — so the instant a commit
    // returns, the follower serves it. No sleeps, no polling: this is
    // the invariant the fail-over test relies on.
    let dir_l = data_dir("sync-leader");
    let dir_f = data_dir("sync-follower");
    let leader = spawn(ServerConfig {
        replicate_to: 1,
        ..leader_config(&dir_l)
    });
    let follower = spawn(follower_config(&dir_f, leader.repl.expect("repl addr")));
    wait_until("follower registration", Duration::from_secs(10), || {
        num_field(
            &http(leader.addr, "GET", "/stats", "").1,
            "repl_followers_connected",
        ) >= 1.0
    });

    let id = create(leader.addr, "(svg [(rect 'gold' 10 20 30 40)])");
    assert_eq!(
        get_code(follower.addr, &id).as_deref(),
        get_code(leader.addr, &id).as_deref(),
        "acked create not on follower"
    );
    for step in 1..=10 {
        let acked = drag_commit(leader.addr, &id, step as f64);
        assert_eq!(
            get_code(follower.addr, &id).as_deref(),
            Some(acked.as_str()),
            "acked commit {step} not on follower at ack time"
        );
    }
    // With everything acked, lag gauges sit at zero.
    let stats = http(leader.addr, "GET", "/stats", "").1;
    assert_eq!(num_field(&stats, "repl_lag_records"), 0.0, "{stats}");
    assert_eq!(num_field(&stats, "repl_lag_bytes"), 0.0, "{stats}");

    leader.stop();
    follower.stop();
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);
}

/// Extracts the top-level numeric `"id"` from one `/debug/traces` JSONL
/// line (the trace id, not the session id).
fn trace_id(line: &str) -> u64 {
    let pat = "\"id\":";
    let start = line.find(pat).unwrap_or_else(|| panic!("no id in {line}")) + pat.len();
    line[start..]
        .split([',', '}'])
        .next()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("trace id not numeric in {line}"))
}

/// Cross-node trace propagation under synchronous replication: the
/// leader's commit trace carries a per-follower ack span labeled with
/// the follower's node id, the follower's flight recorder holds a REPL
/// child span whose `origin` names the leader's trace id and node, and
/// the per-peer gauge families show up on the leader's `/metrics`.
#[test]
fn commit_traces_propagate_to_follower_and_leader_stitches_acks() {
    let dir_l = data_dir("trace-leader");
    let dir_f = data_dir("trace-follower");
    let leader = spawn(ServerConfig {
        replicate_to: 1,
        ..leader_config(&dir_l)
    });
    let follower = spawn(follower_config(&dir_f, leader.repl.expect("repl addr")));
    wait_until("follower registration", Duration::from_secs(10), || {
        num_field(
            &http(leader.addr, "GET", "/stats", "").1,
            "repl_followers_connected",
        ) >= 1.0
    });
    let follower_node = follower.addr.to_string();
    let leader_node = leader.addr.to_string();

    let id = create(leader.addr, "(svg [(rect 'gold' 10 20 30 40)])");
    for step in 1..=3 {
        drag_commit(leader.addr, &id, step as f64);
    }

    // Leader side: every commit trace was stitched with the follower's
    // ack, labeled by the follower's node id.
    let (status, traces) = http(leader.addr, "GET", "/debug/traces", "");
    assert_eq!(status, 200);
    let commit_path = format!("\"path\":\"/sessions/{id}/commit\"");
    let commit_ids: Vec<u64> = traces
        .lines()
        .filter(|l| l.contains(&commit_path))
        .map(|l| {
            assert!(
                l.contains(&format!("\"follower_acks\":{{\"{follower_node}\":")),
                "commit trace not stitched with the follower ack: {l}"
            );
            trace_id(l)
        })
        .collect();
    assert_eq!(commit_ids.len(), 3, "expected 3 commit traces:\n{traces}");

    // Follower side: each leader commit shows up as a REPL child span
    // whose origin is the leader's trace id and node identity. The span
    // finishes when the covering ack is written, a hair after the
    // leader's HTTP response — so poll.
    wait_until("follower child spans", Duration::from_secs(5), || {
        let (_, traces) = http(follower.addr, "GET", "/debug/traces", "");
        commit_ids.iter().all(|tid| {
            traces.lines().any(|l| {
                l.contains(&format!(
                    "\"origin\":{{\"trace\":{tid},\"node\":\"{leader_node}\"}}"
                ))
            })
        })
    });
    let (_, ftraces) = http(follower.addr, "GET", "/debug/traces", "");
    let child = ftraces
        .lines()
        .find(|l| l.contains(&format!("\"origin\":{{\"trace\":{},", commit_ids[0])))
        .unwrap_or_else(|| panic!("no child span for {}:\n{ftraces}", commit_ids[0]));
    assert!(child.contains("\"method\":\"REPL\""), "{child}");
    assert!(child.contains("\"path\":\"/repl/apply\""), "{child}");
    assert!(child.contains("\"status\":200"), "{child}");
    for stage in ["parse_done", "prepare_done", "response_written"] {
        assert!(child.contains(&format!("\"{stage}\"")), "{child}");
    }

    // The per-peer gauge families are labeled by node id and carry the
    // right tuple field each: the follower acked every record (lag 0)
    // and reported a nonzero apply time. The ack bookkeeping lands a
    // hair after the sync gate releases the commit, so poll.
    let sample = |metrics: &str, family: &str| -> Option<f64> {
        let series = format!("{family}{{peer=\"{follower_node}\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(series.as_str()))
            .and_then(|v| v.parse().ok())
    };
    wait_until("per-peer gauges settle", Duration::from_secs(5), || {
        let (_, metrics) = http(leader.addr, "GET", "/metrics", "");
        sample(&metrics, "sns_repl_follower_lag_records") == Some(0.0)
            && sample(&metrics, "sns_repl_apply_us").is_some_and(|us| us > 0.0)
    });
    let stats = http(leader.addr, "GET", "/stats", "").1;
    let per_peer = |key: &str| {
        json_field(&stats, key)
            .get(&follower_node)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no {key} for {follower_node} in {stats}"))
    };
    assert_eq!(per_peer("repl_follower_lag_records"), 0.0, "{stats}");
    assert!(per_peer("repl_apply_us") > 0.0, "{stats}");

    leader.stop();
    follower.stop();
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);
}

/// Trace propagation survives the snapshot path: a follower that caught
/// up via snapshot resync (not a tail from offset zero) still opens
/// child spans for the records streamed after the handoff, its timeline
/// records the resync, and the origin ids keep matching the leader's.
#[test]
fn trace_propagation_survives_snapshot_resync() {
    let dir_l = data_dir("snap-trace-leader");
    let dir_f = data_dir("snap-trace-follower");
    let leader = spawn(leader_config(&dir_l));
    let leader_node = leader.addr.to_string();

    // Deep enough history that the leader compacts: catch-up must go
    // through the snapshot, not replay from offset zero.
    let id = create(leader.addr, "(svg [(rect 'gold' 10 20 30 40)])");
    let mut code = String::new();
    for step in 1..=70 {
        code = drag_commit(leader.addr, &id, step as f64);
    }
    wait_until("leader compaction", Duration::from_secs(5), || {
        num_field(&http(leader.addr, "GET", "/stats", "").1, "snapshot_count") >= 1.0
    });

    let follower = spawn(follower_config(&dir_f, leader.repl.expect("repl listener")));
    wait_until("snapshot catch-up", Duration::from_secs(10), || {
        get_code(follower.addr, &id).as_deref() == Some(code.as_str())
    });
    // The session is readable a moment before the apply counter moves.
    wait_until("snapshot catch-up counted", Duration::from_secs(5), || {
        num_field(
            &http(follower.addr, "GET", "/stats", "").1,
            "repl_snapshots_applied",
        ) >= 1.0
    });

    // The resync left a mark on the session's follower-side timeline.
    let (status, timeline) = http(
        follower.addr,
        "GET",
        &format!("/debug/sessions/{id}/timeline"),
        "",
    );
    assert_eq!(status, 200, "{timeline}");
    assert!(
        timeline.contains("\"kind\":\"resync\""),
        "follower timeline missing the resync event:\n{timeline}"
    );

    // A post-resync commit still propagates its trace context.
    drag_commit(leader.addr, &id, 99.0);
    let (_, traces) = http(leader.addr, "GET", "/debug/traces", "");
    let commit_path = format!("\"path\":\"/sessions/{id}/commit\"");
    let last_commit = traces
        .lines()
        .rfind(|l| l.contains(&commit_path))
        .unwrap_or_else(|| panic!("no commit trace on leader:\n{traces}"));
    let tid = trace_id(last_commit);
    wait_until("post-resync child span", Duration::from_secs(5), || {
        let (_, ftraces) = http(follower.addr, "GET", "/debug/traces", "");
        ftraces.lines().any(|l| {
            l.contains(&format!(
                "\"origin\":{{\"trace\":{tid},\"node\":\"{leader_node}\"}}"
            ))
        })
    });

    leader.stop();
    follower.stop();
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);
}
