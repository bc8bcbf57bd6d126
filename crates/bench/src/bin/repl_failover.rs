//! Benchmarks the replication subsystem end to end, in-process: a leader
//! (`repl_listen`, `--replicate-to 1`) and a follower run on loopback;
//! the harness measures synchronous-commit latency (each ack implies the
//! follower applied the record), how fast the follower's lag settles to
//! zero once the leader goes idle, how long a *fresh* follower takes to
//! catch up from snapshots, and how long promotion takes — then fails
//! over and verifies every session is bit-identical on the promoted
//! node.
//!
//! ```sh
//! cargo run --release -p bench --bin repl_failover -- \
//!     [--sessions N] [--commits N] [--max-lag-ms F] [--max-catchup-ms F] \
//!     [--max-promote-ms F]
//! ```
//!
//! Writes `BENCH_replication.json` and exits non-zero when a gate fails
//! or the promoted follower diverges from the leader's acked state.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bench::{num_field, str_field};
use sns_obs::Histogram;
use sns_server::{Server, ServerConfig};

struct BenchArgs {
    sessions: usize,
    commits: usize,
    max_lag_ms: f64,
    max_catchup_ms: f64,
    max_promote_ms: f64,
}

fn parse_args() -> BenchArgs {
    let mut out = BenchArgs {
        sessions: 4,
        commits: 20,
        // CI boxes are slow and shared; the gates catch order-of-magnitude
        // regressions (a broken ack path parks for seconds), not jitter.
        max_lag_ms: 2_000.0,
        max_catchup_ms: 15_000.0,
        max_promote_ms: 5_000.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--sessions" => out.sessions = need("--sessions").parse().expect("--sessions"),
            "--commits" => out.commits = need("--commits").parse().expect("--commits"),
            "--max-lag-ms" => out.max_lag_ms = need("--max-lag-ms").parse().expect("--max-lag-ms"),
            "--max-catchup-ms" => {
                out.max_catchup_ms = need("--max-catchup-ms").parse().expect("--max-catchup-ms")
            }
            "--max-promote-ms" => {
                out.max_promote_ms = need("--max-promote-ms").parse().expect("--max-promote-ms")
            }
            other => panic!("unknown argument {other}"),
        }
    }
    out
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sns-bench-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw
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

fn main() {
    let args = parse_args();
    let dir_l = tmp_dir("leader");
    let dir_f1 = tmp_dir("f1");
    let dir_f2 = tmp_dir("f2");

    // ---- Leader with synchronous replication (factor 1).
    let leader = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // Sharded even on one core, so fail-over is tested against the
        // SO_REUSEPORT accept path and per-reactor drain.
        reactors: 2,
        threads: 2,
        data_dir: Some(dir_l.clone()),
        repl_listen: Some("127.0.0.1:0".to_string()),
        replicate_to: 1,
        ..ServerConfig::default()
    })
    .expect("bind leader");
    let leader_addr = leader.local_addr().expect("leader addr");
    let leader_repl = leader.repl_addr().expect("repl addr");
    let leader_handle = leader.shutdown_handle();
    std::thread::spawn(move || leader.run().expect("leader run"));

    let follower = |dir: &PathBuf| {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            reactors: 2,
            threads: 2,
            data_dir: Some(dir.clone()),
            follow: Some(leader_repl.to_string()),
            ..ServerConfig::default()
        })
        .expect("bind follower");
        let addr = server.local_addr().expect("follower addr");
        let handle = server.shutdown_handle();
        std::thread::spawn(move || server.run().expect("follower run"));
        (addr, handle)
    };
    let (f1_addr, f1_handle) = follower(&dir_f1);

    // Sync factor 1: the first accepted create doubles as the barrier for
    // the follower being connected and registered.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (status, _) = http(
            leader_addr,
            "POST",
            "/sessions",
            "{\"source\":\"(svg [(rect 'gray' 1 2 3 4)])\"}",
        );
        if status == 201 {
            break;
        }
        assert!(Instant::now() < deadline, "follower never connected");
        std::thread::sleep(Duration::from_millis(100));
    }

    // ---- Steady state: synchronous commits (ack ⇒ follower applied).
    let mut ids = Vec::new();
    for i in 0..args.sessions {
        let (status, body) = http(
            leader_addr,
            "POST",
            "/sessions",
            &format!(
                "{{\"source\":\"(svg [(rect 'gold' {} 20 30 40)])\"}}",
                10 + i
            ),
        );
        assert_eq!(status, 201, "{body}");
        ids.push(str_field(&body, "id"));
    }
    // Same log2-bucketed histogram the server itself serves quantiles
    // from, so the bench and `/stats` agree on estimation semantics.
    let commit_hist = Histogram::new();
    for step in 1..=args.commits {
        for id in &ids {
            let (status, _) = http(
                leader_addr,
                "POST",
                &format!("/sessions/{id}/drag"),
                &format!("{{\"shape\":0,\"zone\":\"Interior\",\"dx\":{step},\"dy\":0}}"),
            );
            assert_eq!(status, 200);
            let started = Instant::now();
            let (status, _) = http(leader_addr, "POST", &format!("/sessions/{id}/commit"), "{}");
            assert_eq!(status, 200);
            commit_hist.record(started.elapsed());
        }
    }
    let commit_p50 = commit_hist.quantile_ms(0.50);
    let commit_p99 = commit_hist.quantile_ms(0.99);

    // ---- Lag settle: leader idle → follower acked everything.
    let started = Instant::now();
    let lag_settle_ms = loop {
        let (_, stats) = http(leader_addr, "GET", "/stats", "");
        if num_field(&stats, "repl_lag_records") == 0.0
            && num_field(&stats, "repl_lag_bytes") == 0.0
        {
            break started.elapsed().as_secs_f64() * 1e3;
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "follower lag never settled: {stats}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };

    // ---- Fresh-follower catch-up (snapshot or full-tail replay).
    let probe = ids.last().expect("sessions").clone();
    let (_, body) = http(leader_addr, "GET", &format!("/sessions/{probe}/code"), "");
    let probe_code = str_field(&body, "code");
    let started = Instant::now();
    let (f2_addr, f2_handle) = follower(&dir_f2);
    let catchup_ms = loop {
        let (status, body) = http(f2_addr, "GET", &format!("/sessions/{probe}/code"), "");
        if status == 200 && str_field(&body, "code") == probe_code {
            break started.elapsed().as_secs_f64() * 1e3;
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "fresh follower never caught up"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    // ---- Fail-over: stop the leader, promote follower 1, verify every
    // session bit-identical, then write through the promoted node.
    let mut expected: BTreeMap<String, String> = BTreeMap::new();
    for id in &ids {
        let (_, body) = http(leader_addr, "GET", &format!("/sessions/{id}/code"), "");
        expected.insert(id.clone(), str_field(&body, "code"));
    }
    // The leader's own stage breakdown for the synchronous-commit path:
    // journal append, fsync, and the follower-ack wait.
    let (_, leader_stats) = http(leader_addr, "GET", "/stats", "");
    let stage = |name: &str| num_field(&leader_stats, &format!("stage_{name}_p99_ms"));
    let (journal_p99, fsync_p99, repl_ack_p99) =
        (stage("journal"), stage("fsync"), stage("repl_ack"));
    leader_handle.shutdown();
    let started = Instant::now();
    let (status, body) = http(f1_addr, "POST", "/promote", "");
    let promote_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(status, 200, "promotion failed: {body}");
    let mut diverged = 0usize;
    for (id, want) in &expected {
        let (status, body) = http(f1_addr, "GET", &format!("/sessions/{id}/code"), "");
        if status != 200 || str_field(&body, "code") != *want {
            eprintln!("DIVERGED {id}: want {want}, got {status} {body}");
            diverged += 1;
        }
    }
    let (status, _) = http(
        f1_addr,
        "POST",
        &format!("/sessions/{probe}/drag"),
        "{\"shape\":0,\"zone\":\"Interior\",\"dx\":5,\"dy\":5}",
    );
    assert_eq!(status, 200, "promoted node refused a drag");
    let (status, _) = http(f1_addr, "POST", &format!("/sessions/{probe}/commit"), "{}");
    assert_eq!(status, 200, "promoted node refused a commit");

    f1_handle.shutdown();
    f2_handle.shutdown();

    eprintln!("== sns-server replication ==");
    eprintln!("sessions              {}", args.sessions);
    eprintln!("commits/session       {}", args.commits);
    eprintln!("sync commit p50       {commit_p50:.2} ms  (ack ⇒ applied on follower)");
    eprintln!("sync commit p99       {commit_p99:.2} ms");
    eprintln!("  stage journal p99   {journal_p99:.3} ms");
    eprintln!("  stage fsync p99     {fsync_p99:.3} ms");
    eprintln!("  stage repl ack p99  {repl_ack_p99:.3} ms");
    eprintln!("lag settle after idle {lag_settle_ms:.1} ms");
    eprintln!("fresh catch-up        {catchup_ms:.1} ms");
    eprintln!("promotion             {promote_ms:.1} ms");
    eprintln!("diverged sessions     {diverged}");

    let json = format!(
        "{{\n  \"bench\": \"repl_failover\",\n  \"sessions\": {},\n  \"commits_per_session\": {},\n  \
         \"sync_commit_p50_ms\": {commit_p50:.3},\n  \"sync_commit_p99_ms\": {commit_p99:.3},\n  \
         \"stage_journal_p99_ms\": {journal_p99:.3},\n  \"stage_fsync_p99_ms\": {fsync_p99:.3},\n  \
         \"stage_repl_ack_p99_ms\": {repl_ack_p99:.3},\n  \
         \"lag_settle_ms\": {lag_settle_ms:.1},\n  \"catchup_ms\": {catchup_ms:.1},\n  \
         \"promote_ms\": {promote_ms:.1},\n  \"diverged_sessions\": {diverged}\n}}\n",
        args.sessions, args.commits,
    );
    std::fs::write("BENCH_replication.json", &json).expect("write BENCH_replication.json");
    eprintln!("wrote BENCH_replication.json");

    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f1);
    let _ = std::fs::remove_dir_all(&dir_f2);

    let mut failed = diverged > 0;
    for (what, got, max) in [
        ("lag settle", lag_settle_ms, args.max_lag_ms),
        ("fresh catch-up", catchup_ms, args.max_catchup_ms),
        ("promotion", promote_ms, args.max_promote_ms),
    ] {
        if got > max {
            eprintln!("GATE FAIL: {what} took {got:.1} ms (> {max:.0} ms)");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
