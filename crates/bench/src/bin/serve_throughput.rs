//! Benchmarks `sns-server` end to end: N concurrent live-sync sessions
//! drive drag traffic over loopback HTTP — optionally while a fleet of
//! *idle* keep-alive sessions sits connected, proving the reactor serves
//! them from connection slots rather than pool threads — and the harness
//! reports requests/sec plus latency quantiles.
//!
//! ```sh
//! cargo run --release -p bench --bin serve_throughput \
//!     [SESSIONS] [DRAGS] [--idle N] [--threads N] [--reactors N] \
//!     [--min-rps F] [--fsync batch|never] [--scaling]
//! ```
//!
//! Without `--idle` the numbers land in `BENCH_server.json`; with it, in
//! `BENCH_server_idle.json` (so the two baselines never overwrite each
//! other). `--fsync MODE` runs the server durably (temp data dir) under
//! that journal policy, committing after every drag, and writes
//! `BENCH_server_fsync_<mode>.json` — the throughput and tail of
//! concurrent writers sharing group fsyncs (`batch`) or leaving syncing
//! to the OS (`never`). `--min-rps` turns the run into a regression gate: the
//! process exits non-zero when throughput falls below the floor.
//!
//! Every measured pass runs for at least [`MIN_RUN`]: the drivers keep
//! cycling drag rounds over their (fixed) sessions until the clock says
//! enough, so a pass is never a sub-100ms blip whose rps is mostly
//! thread start-up noise. Every mode first runs one discarded warm-up
//! pass (for `--scaling`, of the sweep's first row), so no measured pass
//! pays the process's cold start.
//!
//! The plain (`BENCH_server.json`) run doubles as the **tracing-overhead
//! gate**: it benchmarks once with per-request tracing disabled and once
//! enabled (the production default) and fails unless the traced run is
//! within 2% of the untraced throughput (best of three attempts, since
//! loopback throughput is noisy). Both numbers, plus the per-stage
//! latency breakdown the traced run exposes on `/stats`, land in the
//! JSON.
//!
//! `--scaling` runs the reactor-sharding sweep instead: one traced pass
//! per reactor count in {1, 2, nproc}, plus a big-idle-fleet pass at
//! nproc reactors, all landing in `BENCH_server_scaling.json`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bench::{num_field, str_field};
use sns_server::{Server, ServerConfig};

/// The last pass's `/metrics` and `/debug/traces` bodies, captured just
/// before the server shuts down. A failing gate writes them under
/// `BENCH_DEBUG/` so CI uploads the evidence, not just the exit code.
static LAST_DEBUG: Mutex<Option<(String, String, String)>> = Mutex::new(None);

/// Writes the captured debug surfaces of the most recent pass to
/// `BENCH_DEBUG/`. Best-effort: a dump failure must not mask the gate.
fn dump_debug_artifacts() {
    let Some((tag, metrics, traces)) = LAST_DEBUG.lock().expect("debug capture lock").take() else {
        return;
    };
    let dir = std::path::Path::new("BENCH_DEBUG");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(
        dir.join(format!("serve_throughput-{tag}-metrics.txt")),
        metrics,
    );
    let _ = std::fs::write(
        dir.join(format!("serve_throughput-{tag}-traces.jsonl")),
        traces,
    );
    eprintln!("wrote BENCH_DEBUG/serve_throughput-{tag}-{{metrics.txt,traces.jsonl}}");
}

const DEFAULT_SESSIONS: usize = 64;
const DEFAULT_DRAGS: usize = 50;
/// The traced run may cost at most this fraction of untraced throughput.
const MAX_TRACE_OVERHEAD: f64 = 0.02;
const OVERHEAD_ATTEMPTS: usize = 3;
/// Minimum wall-clock per measured pass: drivers keep cycling drag
/// rounds over their sessions until this much time has elapsed.
const MIN_RUN: Duration = Duration::from_secs(2);
/// The `--scaling` idle-fleet size. The spirit is 10k, but both ends of
/// every loopback connection live in this one process, so RLIMIT_NOFILE
/// (20000 here) caps the fleet at just under limit/2.
const SCALING_IDLE_FLEET: usize = 9000;

#[derive(Clone)]
struct BenchArgs {
    sessions: usize,
    drags: usize,
    idle: usize,
    threads: usize,
    reactors: usize,
    min_rps: Option<f64>,
    fsync: Option<String>,
    scaling: bool,
}

fn parse_args() -> BenchArgs {
    let mut out = BenchArgs {
        sessions: DEFAULT_SESSIONS,
        drags: DEFAULT_DRAGS,
        idle: 0,
        threads: 0,
        reactors: 0,
        min_rps: None,
        fsync: None,
        scaling: false,
    };
    let mut positional = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut opt = |name: &str| -> Option<String> {
            if a == name {
                Some(
                    args.next()
                        .unwrap_or_else(|| panic!("{name} needs a value")),
                )
            } else {
                None
            }
        };
        if a == "--scaling" {
            out.scaling = true;
        } else if let Some(v) = opt("--idle") {
            out.idle = v.parse().expect("--idle");
        } else if let Some(v) = opt("--threads") {
            out.threads = v.parse().expect("--threads");
        } else if let Some(v) = opt("--reactors") {
            out.reactors = v.parse().expect("--reactors");
        } else if let Some(v) = opt("--min-rps") {
            out.min_rps = Some(v.parse().expect("--min-rps"));
        } else if let Some(v) = opt("--fsync") {
            out.fsync = Some(v);
        } else {
            let v: usize = a.parse().unwrap_or_else(|_| panic!("bad argument {a}"));
            match positional {
                0 => out.sessions = v,
                1 => out.drags = v,
                _ => panic!("too many positional arguments"),
            }
            positional += 1;
        }
    }
    out
}

/// The measurements of one full server-lifetime benchmark pass.
struct Pass {
    /// Reactor count the server actually ran (0-in resolves to cores).
    reactors: usize,
    requests: u64,
    elapsed: f64,
    rps: f64,
    p50: f64,
    p99: f64,
    queue_p99: f64,
    fsyncs: f64,
    /// Journaled writes the run sent: every session create, and each
    /// commit.
    writes: u64,
    /// The six per-stage `(name, p50_ms, p99_ms)` rows from `/stats`
    /// (zeros when tracing is off).
    stages: Vec<(&'static str, f64, f64)>,
}

const STAGE_NAMES: [&str; 6] = ["queue", "prepare", "journal", "fsync", "repl_ack", "write"];

/// Boots a server (traced or not), drives the full workload against it,
/// scrapes `/stats`, and shuts it down.
fn run_pass(args: &BenchArgs, trace: bool, pass_tag: &str) -> Pass {
    let (sessions, drags, idle) = (args.sessions, args.drags, args.idle);

    // A durable run journals every mutation to a temp data dir under the
    // requested fsync policy; commits then carry the WAL (and its sync
    // discipline) on the request path, which is what the fsync modes are
    // compared on.
    let data_dir = args.fsync.as_ref().map(|_| {
        let dir = std::env::temp_dir().join(format!(
            "sns-bench-serve-durable-{}-{pass_tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: args.threads,   // CPU workers (0 = one per core).
        reactors: args.reactors, // Epoll loops (0 = one per core).
        max_sessions: sessions + idle + 32,
        max_conns: sessions + idle + 32,
        data_dir: data_dir.clone(),
        fsync: args
            .fsync
            .as_deref()
            .map(|m| m.parse().expect("--fsync"))
            .unwrap_or_default(),
        trace,
        ..ServerConfig::default()
    })
    .expect("bind server");
    let addr = server.local_addr().expect("local addr").to_string();
    let reactors = server.reactor_count();
    let handle = server.shutdown_handle();
    std::thread::spawn(move || server.run().expect("server run"));

    // The idle fleet: each connection creates a session, then just sits
    // there keep-alive while the drivers run. Under the old blocking
    // model each of these would have pinned a pool worker for the whole
    // bench; under the reactor they cost file descriptors.
    let mut idle_conns: Vec<(BufReader<TcpStream>, String)> = (0..idle)
        .map(|i| {
            let mut stream = connect(&addr);
            let body = format!(
                "{{\"source\":\"(svg [(rect 'gray' {} 10 20 20)])\"}}",
                10 + i
            );
            let (status, resp) = http_on(&mut stream, "POST", "/sessions", Some(&body));
            assert_eq!(status, 201, "idle session create failed: {resp}");
            (stream, str_field(&resp, "id"))
        })
        .collect();
    if idle > 0 {
        eprintln!("parked {idle} idle keep-alive sessions");
    }
    // With a parked fleet, the cumulative /stats histogram would blend
    // the fleet's (expensive) session creates into the driven workload's
    // latency. Snapshot the request histogram now and diff after the
    // drive: the reported p50/p99 then cover exactly the driven phase —
    // which is what "parked connections don't cost latency" claims.
    let parked_baseline = (idle > 0).then(|| request_us_buckets(&addr));

    // Fsync-policy runs commit after every drag: commits are what carry
    // the WAL append + sync, so a commit-dominated workload is the one
    // that shows what the group commit costs concurrent writers.
    let commit_each = args.fsync.is_some();
    eprintln!(
        "driving {sessions} sessions x {drags} drags/round against {addr} \
         (tracing {}, >= {MIN_RUN:?})",
        if trace { "on" } else { "off" }
    );
    let start = Instant::now();
    // Every driver cycles rounds of `drags` drags over its one session
    // until the shared floor has elapsed: pass length is set by the
    // clock, not the request count, so rps is not start-up noise — and
    // the session population stays fixed (more sessions would LRU-evict
    // the parked idle fleet).
    let run_until = start + MIN_RUN;
    let workers: Vec<_> = (0..sessions)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || drive_session(&addr, i, drags, commit_each, run_until))
        })
        .collect();
    let (mut requests, mut writes) = (0u64, idle as u64);
    for w in workers {
        let (r, w) = w.join().expect("worker");
        requests += r;
        writes += w;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rps = requests as f64 / elapsed;
    let drive_quantiles = parked_baseline.map(|before| {
        let after = request_us_buckets(&addr);
        (
            diff_quantile_ms(&before, &after, 0.50),
            diff_quantile_ms(&before, &after, 0.99),
        )
    });

    // Every idle connection must still be alive and serving after the
    // storm — same socket, no reconnect.
    for (stream, id) in &mut idle_conns {
        let (status, _) = http_on(stream, "GET", &format!("/sessions/{id}/code"), None);
        assert_eq!(status, 200, "idle keep-alive session died during the bench");
    }

    // Pull the server's own latency histograms before shutting down.
    let (_, stats) = http(&addr, "GET", "/stats", None);
    let field = |k: &str| num_field(&stats, k);
    let stages = STAGE_NAMES
        .iter()
        .map(|name| {
            (
                *name,
                field(&format!("stage_{name}_p50_ms")),
                field(&format!("stage_{name}_p99_ms")),
            )
        })
        .collect();
    let pass = Pass {
        reactors,
        requests,
        elapsed,
        rps,
        p50: drive_quantiles.map_or_else(|| field("request_p50_ms"), |(p50, _)| p50),
        p99: drive_quantiles.map_or_else(|| field("request_p99_ms"), |(_, p99)| p99),
        queue_p99: field("stage_queue_p99_ms"),
        fsyncs: field("fsyncs"),
        writes,
        stages,
    };
    // Capture the debug surfaces while the server is still up; a gate
    // failure later dumps them for the CI artifact.
    let (_, metrics_dump) = http(&addr, "GET", "/metrics", None);
    let (_, traces_dump) = http(&addr, "GET", "/debug/traces", None);
    *LAST_DEBUG.lock().expect("debug capture lock") =
        Some((pass_tag.to_string(), metrics_dump, traces_dump));
    handle.shutdown();
    if let Some(dir) = &data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    pass
}

fn stage_json(pass: &Pass) -> String {
    pass.stages
        .iter()
        .map(|(name, p50, p99)| {
            format!("\n  \"stage_{name}_p50_ms\": {p50:.3},\n  \"stage_{name}_p99_ms\": {p99:.3},")
        })
        .collect()
}

/// The `--scaling` sweep: one traced pass per reactor count in
/// {1, 2, nproc} (deduplicated — on few-core machines the set shrinks),
/// then a big-idle-fleet pass at nproc reactors. Lands in
/// `BENCH_server_scaling.json`.
fn run_scaling(args: &BenchArgs) {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut counts = vec![1usize, 2, cores];
    counts.sort_unstable();
    counts.dedup();
    let row_json = |pass: &Pass, idle: usize| {
        format!(
            "{{\"reactors\": {}, \"idle_conns\": {idle}, \"requests\": {}, \
             \"elapsed_secs\": {:.3}, \"requests_per_sec\": {:.1}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"queue_p99_ms\": {:.3}, \
             \"stage_queue_p99_ms\": {:.3}}}",
            pass.reactors,
            pass.requests,
            pass.elapsed,
            pass.rps,
            pass.p50,
            pass.p99,
            pass.queue_p99,
            pass.stages[0].2,
        )
    };
    let mut rows = Vec::new();
    for &reactors in &counts {
        let pass_args = BenchArgs {
            reactors,
            idle: 0,
            fsync: None,
            ..args.clone()
        };
        let pass = run_pass(&pass_args, true, &format!("scale{reactors}"));
        eprintln!(
            "reactors {reactors}: {:.0} req/s, p99 {:.3} ms, stage queue p99 {:.3} ms",
            pass.rps, pass.p99, pass.stages[0].2
        );
        rows.push(row_json(&pass, 0));
    }
    // The parked-fleet pass: nproc reactors serving the drag workload
    // while thousands of idle keep-alive sessions sit connected. The
    // claim under test: parked connections cost fds, not latency.
    let idle_args = BenchArgs {
        reactors: cores,
        idle: SCALING_IDLE_FLEET,
        fsync: None,
        ..args.clone()
    };
    let idle_pass = run_pass(&idle_args, true, "scale-idle");
    eprintln!(
        "reactors {} + {} idle parked: {:.0} req/s, p99 {:.3} ms",
        idle_pass.reactors, SCALING_IDLE_FLEET, idle_pass.rps, idle_pass.p99
    );
    let json = format!(
        "{{\n  \"bench\": \"serve_scaling\",\n  \"cores\": {cores},\n  \
         \"sessions\": {},\n  \"drags_per_session\": {},\n  \"sweep\": [\n    {}\n  ],\n  \
         \"idle_fleet\": {}\n}}\n",
        args.sessions,
        args.drags,
        rows.join(",\n    "),
        row_json(&idle_pass, SCALING_IDLE_FLEET),
    );
    std::fs::write("BENCH_server_scaling.json", &json).expect("write bench json");
    eprintln!("wrote BENCH_server_scaling.json");
}

fn main() {
    let args = parse_args();
    // The process's first pass pays its cold start (page faults,
    // allocator growth, clock ramp-up) and reads low; discard it.
    let warmup = if args.scaling {
        BenchArgs {
            reactors: 1,
            idle: 0,
            fsync: None,
            ..args.clone()
        }
    } else {
        args.clone()
    };
    run_pass(&warmup, true, "warmup");
    if args.scaling {
        run_scaling(&args);
        return;
    }
    let (sessions, drags, idle) = (args.sessions, args.drags, args.idle);
    let plain = args.fsync.is_none() && idle == 0;

    // The plain run is the tracing-overhead gate: untraced baseline vs
    // the traced default, best of three attempts each way. The bests are
    // compared *across* attempts (not paired within one) because each
    // pass is an independent estimate of the same maximum throughput —
    // pairing let whichever pass ran first eat the cold-start penalty
    // and report absurd negative overheads (the warm-up pass above pays
    // that penalty up front).
    let (pass, baseline) = if plain {
        let mut best_on: Option<Pass> = None;
        let mut best_off: Option<Pass> = None;
        for attempt in 1..=OVERHEAD_ATTEMPTS {
            let off = run_pass(&args, false, &format!("off{attempt}"));
            let on = run_pass(&args, true, &format!("on{attempt}"));
            eprintln!(
                "attempt {attempt}: {:.0} req/s untraced, {:.0} req/s traced",
                off.rps, on.rps
            );
            if best_off.as_ref().is_none_or(|b| off.rps > b.rps) {
                best_off = Some(off);
            }
            if best_on.as_ref().is_none_or(|b| on.rps > b.rps) {
                best_on = Some(on);
            }
        }
        let (on, off) = (
            best_on.expect("at least one attempt"),
            best_off.expect("at least one attempt"),
        );
        let overhead = 1.0 - on.rps / off.rps;
        if overhead > MAX_TRACE_OVERHEAD {
            eprintln!(
                "FAIL: tracing overhead {:.2}% (best-of-{OVERHEAD_ATTEMPTS} each way) \
                 exceeds {:.0}%",
                overhead * 100.0,
                MAX_TRACE_OVERHEAD * 100.0
            );
            dump_debug_artifacts();
            std::process::exit(1);
        }
        eprintln!(
            "gate ok: tracing overhead {:+.2}% <= {:.0}% (best-of-{OVERHEAD_ATTEMPTS} each way)",
            overhead * 100.0,
            MAX_TRACE_OVERHEAD * 100.0
        );
        (on, Some(off))
    } else {
        (run_pass(&args, true, "main"), None)
    };

    println!("== sns-server throughput ==");
    println!("sessions          {sessions}");
    println!("idle keep-alive   {idle}");
    println!("drags/session     {drags}");
    println!("total requests    {}", pass.requests);
    println!("elapsed           {:.2} s", pass.elapsed);
    println!("requests/sec      {:.0}", pass.rps);
    println!("p50 latency       {:.3} ms", pass.p50);
    println!("p99 latency       {:.3} ms", pass.p99);
    println!("queue p99         {:.3} ms", pass.queue_p99);
    for (name, p50, p99) in &pass.stages {
        println!("stage {name:<9} p50 {p50:.3} ms, p99 {p99:.3} ms");
    }

    let out_file = match (&args.fsync, idle > 0) {
        (Some(mode), _) => format!("BENCH_server_fsync_{mode}.json"),
        (None, true) => "BENCH_server_idle.json".to_string(),
        (None, false) => "BENCH_server.json".to_string(),
    };
    let fsyncs_per_write = pass.fsyncs / pass.writes.max(1) as f64;
    if args.fsync.is_some() {
        eprintln!(
            "journal: {} durable writes sent, {:.0} fsyncs ({fsyncs_per_write:.3} per write)",
            pass.writes, pass.fsyncs
        );
    }
    let fsync_field = args
        .fsync
        .as_deref()
        .map(|m| {
            format!(
                "\n  \"fsync\": \"{m}\",\n  \"commit_per_drag\": true,\n  \
                 \"fsyncs\": {:.0},\n  \"durable_writes\": {},\n  \
                 \"fsyncs_per_write\": {fsyncs_per_write:.3},",
                pass.fsyncs, pass.writes
            )
        })
        .unwrap_or_default();
    let trace_field = baseline
        .as_ref()
        .map(|off| {
            format!(
                "\n  \"requests_per_sec_untraced\": {:.1},\n  \
                 \"trace_overhead_pct\": {:.2},",
                off.rps,
                (1.0 - pass.rps / off.rps) * 100.0
            )
        })
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",{fsync_field}{trace_field}\n  \"reactors\": {},\n  \"sessions\": {sessions},\n  \"idle_conns\": {idle},\n  \"drags_per_session\": {drags},\n  \"requests\": {},\n  \"elapsed_secs\": {:.3},\n  \"requests_per_sec\": {:.1},\n  \"p50_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \"queue_p99_ms\": {:.3},{}\n  \"tracing\": true\n}}\n",
        pass.reactors,
        pass.requests,
        pass.elapsed,
        pass.rps,
        pass.p50,
        pass.p99,
        pass.queue_p99,
        stage_json(&pass)
    );
    std::fs::write(&out_file, &json).expect("write bench json");
    eprintln!("wrote {out_file}");

    // Trajectory ledger: one row per run, keyed by variant (fsync and
    // idle runs measure different things and must not share a baseline).
    let ledger_bench = match (&args.fsync, idle > 0) {
        (Some(mode), _) => format!("serve_throughput_fsync_{mode}"),
        (None, true) => "serve_throughput_idle".to_string(),
        (None, false) => "serve_throughput".to_string(),
    };
    let mut metrics = vec![
        ("requests_per_sec", pass.rps),
        ("p50_ms", pass.p50),
        ("p99_ms", pass.p99),
        ("queue_p99_ms", pass.queue_p99),
    ];
    if let Some(off) = &baseline {
        metrics.push(("trace_overhead_pct", (1.0 - pass.rps / off.rps) * 100.0));
    }
    bench::ledger::append(&ledger_bench, &metrics);

    if let Some(floor) = args.min_rps {
        if pass.rps < floor {
            eprintln!(
                "FAIL: {:.0} req/s is below the {floor:.0} req/s floor",
                pass.rps
            );
            dump_debug_artifacts();
            std::process::exit(1);
        }
        eprintln!("gate ok: {:.0} req/s >= {floor:.0} req/s floor", pass.rps);
    }
}

/// Scrapes the cumulative `sns_request_us` bucket counts (le edge in
/// microseconds, `+Inf` as infinity) from `/metrics`.
fn request_us_buckets(addr: &str) -> Vec<(f64, u64)> {
    let (status, text) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200, "metrics scrape failed");
    text.lines()
        .filter_map(|l| l.strip_prefix("sns_request_us_bucket{le=\""))
        .filter_map(|rest| {
            let (edge, tail) = rest.split_once("\"}")?;
            let edge: f64 = if edge == "+Inf" {
                f64::INFINITY
            } else {
                edge.parse().ok()?
            };
            Some((edge, tail.trim().parse().ok()?))
        })
        .collect()
}

/// Upper-edge quantile (in ms) of the requests recorded *between* two
/// cumulative bucket snapshots of the same histogram.
fn diff_quantile_ms(before: &[(f64, u64)], after: &[(f64, u64)], q: f64) -> f64 {
    assert_eq!(before.len(), after.len(), "bucket layouts differ");
    let total = after.last().map_or(0, |(_, c)| *c) - before.last().map_or(0, |(_, c)| *c);
    if total == 0 {
        return 0.0;
    }
    let target = ((q * total as f64).ceil() as u64).max(1);
    for ((edge, after_c), (_, before_c)) in after.iter().zip(before) {
        if after_c - before_c >= target {
            return if edge.is_finite() {
                edge / 1000.0
            } else {
                f64::MAX
            };
        }
    }
    f64::MAX
}

fn connect(addr: &str) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    BufReader::new(stream)
}

/// One client: create a session, then cycle rounds of `drags` drag
/// requests (keep-alive) until `run_until` has passed — committing after
/// every drag when `commit_each` (the durable/fsync workload), else once
/// at the very end — and return the requests issued and, of those, the
/// journaled writes (the create and every commit).
fn drive_session(
    addr: &str,
    i: usize,
    drags: usize,
    commit_each: bool,
    run_until: Instant,
) -> (u64, u64) {
    let mut stream = connect(addr);
    let source = format!(
        "(def [x0 y0 w h sep] [{} 28 60 130 110]) \
         (def boxi (λ i (rect 'lightblue' (+ x0 (* i sep)) y0 w h))) \
         (svg (map boxi (zeroTo 3!)))",
        40 + i
    );
    let body = format!(
        "{{\"source\":\"{}\"}}",
        source.replace('\\', "\\\\").replace('"', "\\\"")
    );
    let (_, resp) = http_on(&mut stream, "POST", "/sessions", Some(&body));
    let id = str_field(&resp, "id");

    let (mut requests, mut writes) = (1u64, 1u64);
    loop {
        for step in 1..=drags {
            let body = format!(
                "{{\"shape\":0,\"zone\":\"Interior\",\"dx\":{},\"dy\":{}}}",
                (step % 40) as f64,
                (step % 25) as f64 * 0.5
            );
            let (status, _) = http_on(
                &mut stream,
                "POST",
                &format!("/sessions/{id}/drag"),
                Some(&body),
            );
            assert_eq!(status, 200, "drag failed");
            requests += 1;
            if commit_each {
                let (status, _) = http_on(
                    &mut stream,
                    "POST",
                    &format!("/sessions/{id}/commit"),
                    Some("{}"),
                );
                assert_eq!(status, 200);
                requests += 1;
                writes += 1;
            }
        }
        if Instant::now() >= run_until {
            break;
        }
    }
    if commit_each {
        return (requests, writes);
    }
    let (status, _) = http_on(
        &mut stream,
        "POST",
        &format!("/sessions/{id}/commit"),
        Some("{}"),
    );
    assert_eq!(status, 200);
    (requests + 1, writes + 1)
}

/// One-shot request on a fresh connection.
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = connect(addr);
    http_on(&mut stream, method, path, body)
}

/// A request on an existing keep-alive connection.
fn http_on(
    stream: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, String) {
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut raw = head.into_bytes();
    raw.extend_from_slice(body.as_bytes());
    let out = stream.get_mut();
    out.write_all(&raw).expect("write request");
    out.flush().expect("flush");

    let mut status_line = String::new();
    stream.read_line(&mut status_line).expect("status");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        stream.read_line(&mut line).expect("header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("length");
        }
    }
    let mut buf = vec![0u8; content_length];
    stream.read_exact(&mut buf).expect("body");
    (status, String::from_utf8(buf).expect("utf8"))
}
