//! Chaos/differential hammer: seeded randomized fault traces against a
//! real leader + follower fleet (separate `sns serve` processes), with
//! differential oracles that hold the system to its durability and
//! replication contracts under injected disk and network faults:
//!
//! * **acked survival** — every commit the leader acknowledged is served
//!   bit-identical after a `kill -9` + restart (and after promotion);
//! * **follower equality** — once the stream drains, every session's
//!   code *and* canvas are byte-identical on leader and follower;
//! * **incremental ≡ full** — a fresh session created from an evolved
//!   session's code renders the identical canvas (the incremental
//!   prepare path agrees with a from-scratch prepare).
//!
//! Each seed picks a fault plan (injected ENOSPC / torn journal writes /
//! failed fsyncs / failed compaction renames / truncated or failing
//! replication frames / follower apply stalls) and a trace of create /
//! drag+commit / set-code / delete / crash / promote events. Fault plans
//! only arm in debug builds, so point `--sns` at `target/debug/sns`.
//!
//! ```sh
//! cargo run --release -p bench --bin chaos_hammer -- \
//!     --sns target/debug/sns [--seeds N] [--seed-base B] [--jobs N] [--short]
//! ```
//!
//! Writes `BENCH_chaos.json` and exits non-zero on any acked-commit
//! loss, leader/follower divergence, or prepare mismatch.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bench::{num_field, str_field};
use sns_faults::SplitMix64;

struct Args {
    sns: PathBuf,
    seeds: u64,
    seed_base: u64,
    jobs: usize,
    short: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        sns: PathBuf::new(),
        seeds: 32,
        seed_base: 1,
        jobs: 4,
        short: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--sns" => out.sns = PathBuf::from(need("--sns")),
            "--seeds" => out.seeds = need("--seeds").parse().expect("--seeds"),
            "--seed-base" => out.seed_base = need("--seed-base").parse().expect("--seed-base"),
            "--jobs" => out.jobs = need("--jobs").parse().expect("--jobs"),
            "--short" => out.short = true,
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(
        !out.sns.as_os_str().is_empty(),
        "--sns PATH is required (a *debug* sns binary, so fault plans arm)"
    );
    out
}

// ---------------------------------------------------------------------------
// Process + HTTP plumbing
// ---------------------------------------------------------------------------

/// A spawned `sns serve`, killed on drop so a panicking seed never leaks
/// a listening process.
struct Proc {
    child: Child,
}

impl Proc {
    fn kill_dash_nine(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill_dash_nine();
    }
}

/// Reserves a loopback port by binding :0 and immediately dropping the
/// listener. The small reuse race is acceptable: crashed nodes must
/// restart on the *same* address, so ephemeral binds cannot be used.
fn pick_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind :0")
        .local_addr()
        .expect("local addr")
        .port()
}

/// Spawns `sns serve` with the given flags and waits for its startup
/// banner(s). Panics with the child's stderr when it dies before
/// announcing — e.g. a fault plan handed to a release binary.
// The child is reaped by `Proc::drop` (or explicitly in the early-exit
// branch); a panic mid-banner-wait leaks it, which kills the run anyway.
#[allow(clippy::zombie_processes)]
fn spawn_serve(sns: &Path, flags: &[String], want_repl: bool) -> Proc {
    let mut child = Command::new(sns)
        .arg("serve")
        .args(flags)
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", sns.display()));
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    let mut seen_http = false;
    let mut seen_repl = false;
    let mut captured = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server stderr");
        if n == 0 {
            let _ = child.wait();
            panic!(
                "sns serve exited before announcing its address \
                 (fault plans need a debug binary). stderr:\n{captured}"
            );
        }
        captured.push_str(&line);
        if line.contains("listening on http://") {
            seen_http = true;
        }
        if line.contains("replicating on ") {
            seen_repl = true;
        }
        if seen_http && (!want_repl || seen_repl) {
            // Drain stderr in the background so the child never blocks
            // on a full pipe.
            std::thread::spawn(move || {
                let mut sink = String::new();
                let _ = reader.read_to_string(&mut sink);
            });
            return Proc { child };
        }
    }
}

/// One request on a fresh connection; `None` when the node is down.
fn try_http(addr: &str, method: &str, path: &str, body: &str) -> Option<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).ok()?;
    stream.write_all(body.as_bytes()).ok()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).ok()?;
    let status: u16 = raw.split_whitespace().nth(1).and_then(|s| s.parse().ok())?;
    let (headers, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    Some((status, headers, body))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

// ---------------------------------------------------------------------------
// Fault-plan menus
// ---------------------------------------------------------------------------

/// Leader-side plans. Every entry is self-healing: `@N..M` windows close
/// as hits (including degraded-mode recovery probes) accumulate, and
/// `@pP` probabilities leave most operations through — so a trace never
/// wedges behind a fault that cannot clear. (`repl.send=drop` exists as
/// an injection action but is deliberately absent: silently dropping a
/// streamed record *is* the divergence these oracles exist to catch.)
fn leader_plan(rng: &mut SplitMix64, seed: u64) -> Option<String> {
    match rng.next_u64() % 8 {
        0 | 1 => None,
        2 => {
            let a = 3 + rng.next_u64() % 6;
            Some(format!("journal.write=enospc@{a}..{};seed={seed}", a + 4))
        }
        3 => Some(format!("journal.fsync=fail@p6;seed={seed}")),
        4 => Some(format!(
            "journal.write=short@{};seed={seed}",
            2 + rng.next_u64() % 8
        )),
        5 => Some(format!("journal.rename=fail@p40;seed={seed}")),
        6 => Some(format!(
            "repl.send=truncate@{};seed={seed}",
            1 + rng.next_u64() % 20
        )),
        _ => Some(format!("repl.send=fail@p3;seed={seed}")),
    }
}

fn follower_plan(rng: &mut SplitMix64, seed: u64) -> Option<String> {
    match rng.next_u64() % 4 {
        0 | 1 => None,
        2 => Some(format!("repl.apply=delay:80@p10;seed={seed}")),
        _ => Some(format!("journal.fsync=fail@p5;seed={seed}")),
    }
}

// ---------------------------------------------------------------------------
// One seed
// ---------------------------------------------------------------------------

#[derive(Default)]
struct SeedReport {
    ops: u64,
    creates: u64,
    deletes: u64,
    commits_acked: u64,
    commits_failed: u64,
    set_codes: u64,
    leader_crashes: u64,
    follower_crashes: u64,
    promoted: bool,
    faults_armed: u64,
    degraded_seen: bool,
    violations: Vec<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum Dirty {
    /// A mutation failed; the session's acked state is the model's, but
    /// it must see one more *successful* commit before a kill so the
    /// journal tail is unambiguous and no drag preview is left pending.
    Commit,
    /// A delete failed; retried until the session is confirmed gone.
    Delete,
}

struct Fleet {
    seed: u64,
    leader_http: String,
    leader_repl: String,
    follower_http: String,
    dir_l: PathBuf,
    dir_f: PathBuf,
    leader: Option<Proc>,
    follower: Option<Proc>,
}

impl Fleet {
    fn leader_flags(&self, plan: Option<&str>) -> Vec<String> {
        let mut flags = vec![
            "--addr".into(),
            self.leader_http.clone(),
            // Two reactors regardless of core count: the hammer must cover
            // the SO_REUSEPORT sharded accept path, not just one loop.
            "--reactors".into(),
            "2".into(),
            "--threads".into(),
            "2".into(),
            "--data-dir".into(),
            self.dir_l.to_str().expect("utf8 tmp path").into(),
            "--repl-listen".into(),
            self.leader_repl.clone(),
            "--replicate-to".into(),
            "1".into(),
        ];
        if let Some(plan) = plan {
            flags.push("--fault-plan".into());
            flags.push(plan.into());
        }
        flags
    }

    fn follower_flags(&self, plan: Option<&str>) -> Vec<String> {
        let mut flags = vec![
            "--addr".into(),
            self.follower_http.clone(),
            "--reactors".into(),
            "2".into(),
            "--threads".into(),
            "2".into(),
            "--data-dir".into(),
            self.dir_f.to_str().expect("utf8 tmp path").into(),
            "--follow".into(),
            self.leader_repl.clone(),
        ];
        if let Some(plan) = plan {
            flags.push("--fault-plan".into());
            flags.push(plan.into());
        }
        flags
    }

    /// Blocks until the leader reports ≥1 connected follower — issuing
    /// writes while the sync follower is away would park them on the
    /// 5-second replication gate and could leave legal-but-unacked
    /// records that weaken the bit-identical oracle.
    fn wait_follower_connected(&self, report: &mut SeedReport) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some((200, _, stats)) = try_http(&self.leader_http, "GET", "/stats", "") {
                if num_field(&stats, "repl_followers_connected") >= 1.0 {
                    return;
                }
            }
            if Instant::now() > deadline {
                report
                    .violations
                    .push(format!("seed {}: follower never (re)connected", self.seed));
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

fn drag_commit(addr: &str, id: &str, dx: i64, dy: i64) -> Result<String, String> {
    let (status, _, body) = try_http(
        addr,
        "POST",
        &format!("/sessions/{id}/drag"),
        &format!("{{\"shape\":0,\"zone\":\"Interior\",\"dx\":{dx},\"dy\":{dy}}}"),
    )
    .ok_or("node down")?;
    if status != 200 {
        // Drags are in-memory: a refused drag (degraded 503) leaves no
        // pending preview and nothing in any journal.
        return Err(format!("drag {status}: {body}"));
    }
    let (status, _, body) =
        try_http(addr, "POST", &format!("/sessions/{id}/commit"), "{}").ok_or("node down")?;
    if status == 200 {
        Ok(str_field(&body, "code"))
    } else {
        Err(format!("commit {status}: {body}"))
    }
}

/// Clears a session's dirty state: a dirty commit is retried (the first
/// `commit` flushes any pending drag preview) until the journal accepts
/// it again — which is also how the trace waits out a degraded window —
/// and a dirty delete is retried until the session is confirmed gone.
fn repair(
    fleet: &Fleet,
    report: &mut SeedReport,
    model: &mut BTreeMap<String, String>,
    id: &str,
    kind: Dirty,
) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match kind {
            Dirty::Commit => {
                match try_http(
                    &fleet.leader_http,
                    "POST",
                    &format!("/sessions/{id}/commit"),
                    "{}",
                ) {
                    Some((200, _, body)) => {
                        model.insert(id.to_string(), str_field(&body, "code"));
                        report.commits_acked += 1;
                        return true;
                    }
                    Some((status, _, body)) if (400..500).contains(&status) => {
                        // Nothing pending to commit: the acked state is
                        // whatever the node serves.
                        let _ = (status, body);
                        if let Some((200, _, body)) = try_http(
                            &fleet.leader_http,
                            "GET",
                            &format!("/sessions/{id}/code"),
                            "",
                        ) {
                            model.insert(id.to_string(), str_field(&body, "code"));
                        }
                        return true;
                    }
                    Some((_, _, body)) if body.contains("degraded") => {
                        report.degraded_seen = true;
                    }
                    _ => {}
                }
            }
            Dirty::Delete => {
                match try_http(&fleet.leader_http, "DELETE", &format!("/sessions/{id}"), "") {
                    Some((200 | 404, _, _)) => {
                        model.remove(id);
                        report.deletes += 1;
                        return true;
                    }
                    Some((_, _, body)) if body.contains("degraded") => {
                        report.degraded_seen = true;
                    }
                    _ => {}
                }
            }
        }
        if Instant::now() > deadline {
            report.violations.push(format!(
                "seed {}: repair of session {id} never succeeded (journal never recovered?)",
                fleet.seed
            ));
            return false;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn run_seed(sns: &Path, seed: u64, short: bool) -> SeedReport {
    let mut report = SeedReport::default();
    let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(42));
    let tag = format!("{}-{seed}", std::process::id());
    let dir_l = std::env::temp_dir().join(format!("sns-chaos-l-{tag}"));
    let dir_f = std::env::temp_dir().join(format!("sns-chaos-f-{tag}"));
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);

    let mut fleet = Fleet {
        seed,
        leader_http: format!("127.0.0.1:{}", pick_port()),
        leader_repl: format!("127.0.0.1:{}", pick_port()),
        follower_http: format!("127.0.0.1:{}", pick_port()),
        dir_l: dir_l.clone(),
        dir_f: dir_f.clone(),
        leader: None,
        follower: None,
    };
    let plan = leader_plan(&mut rng, seed);
    report.faults_armed += plan.is_some() as u64;
    fleet.leader = Some(spawn_serve(sns, &fleet.leader_flags(plan.as_deref()), true));
    let plan = follower_plan(&mut rng, seed);
    report.faults_armed += plan.is_some() as u64;
    fleet.follower = Some(spawn_serve(
        sns,
        &fleet.follower_flags(plan.as_deref()),
        false,
    ));
    fleet.wait_follower_connected(&mut report);

    // Acked state per live session id; `dirty` marks sessions whose last
    // mutation failed and must be repaired before any kill.
    let mut model: BTreeMap<String, String> = BTreeMap::new();
    let mut dirty: HashMap<String, Dirty> = HashMap::new();

    // Bring-up barrier: retry a create until the replicated write path
    // is live end to end.
    let deadline = Instant::now() + Duration::from_secs(30);
    while model.is_empty() {
        create_session(&fleet.leader_http, &mut rng, &mut model, &mut report);
        if Instant::now() > deadline {
            report
                .violations
                .push(format!("seed {seed}: leader never accepted a create"));
            return report;
        }
        if model.is_empty() {
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    let total_ops: u64 = if short { 30 } else { 70 };
    let mut leader_crashes_left: u64 = if short { 1 } else { 2 };
    let mut follower_crashes_left: u64 = 1;
    for _ in 0..total_ops {
        report.ops += 1;
        let ids: Vec<String> = model.keys().cloned().collect();
        let pick = |rng: &mut SplitMix64| ids[(rng.next_u64() % ids.len() as u64) as usize].clone();
        match rng.next_u64() % 100 {
            0..=19 if model.len() < 5 => {
                create_session(&fleet.leader_http, &mut rng, &mut model, &mut report)
            }
            0..=64 => {
                let id = pick(&mut rng);
                let (dx, dy) = (
                    (rng.next_u64() % 41) as i64 - 20,
                    (rng.next_u64() % 41) as i64 - 20,
                );
                match drag_commit(&fleet.leader_http, &id, dx, dy) {
                    Ok(code) => {
                        model.insert(id.clone(), code);
                        dirty.remove(&id);
                        report.commits_acked += 1;
                    }
                    Err(why) => {
                        if why.contains("degraded") {
                            report.degraded_seen = true;
                        }
                        report.commits_failed += 1;
                        dirty.insert(id, Dirty::Commit);
                    }
                }
            }
            65..=74 => {
                let id = pick(&mut rng);
                let (x, y) = (10 + rng.next_u64() % 90, 10 + rng.next_u64() % 90);
                let source = format!("(svg [(rect 'blue' {x} {y} 20 50)])");
                match try_http(
                    &fleet.leader_http,
                    "PUT",
                    &format!("/sessions/{id}/code"),
                    &format!("{{\"source\":\"{source}\"}}"),
                ) {
                    Some((200, _, body)) => {
                        model.insert(id.clone(), str_field(&body, "code"));
                        dirty.remove(&id);
                        report.set_codes += 1;
                    }
                    Some((_, _, body)) => {
                        if body.contains("degraded") {
                            report.degraded_seen = true;
                        }
                        dirty.insert(id, Dirty::Commit);
                    }
                    None => {
                        dirty.insert(id, Dirty::Commit);
                    }
                }
            }
            75..=79 if model.len() > 1 => {
                let id = pick(&mut rng);
                match try_http(&fleet.leader_http, "DELETE", &format!("/sessions/{id}"), "") {
                    Some((200 | 404, _, _)) => {
                        model.remove(&id);
                        dirty.remove(&id);
                        report.deletes += 1;
                    }
                    _ => {
                        dirty.insert(id, Dirty::Delete);
                    }
                }
            }
            80..=89 if leader_crashes_left > 0 => {
                leader_crashes_left -= 1;
                report.leader_crashes += 1;
                for (id, kind) in dirty.drain().collect::<Vec<_>>() {
                    repair(&fleet, &mut report, &mut model, &id, kind);
                }
                fleet.leader.take().expect("leader alive").kill_dash_nine();
                let plan = leader_plan(&mut rng, seed.wrapping_add(report.leader_crashes));
                report.faults_armed += plan.is_some() as u64;
                fleet.leader = Some(spawn_serve(sns, &fleet.leader_flags(plan.as_deref()), true));
                fleet.wait_follower_connected(&mut report);
                // Oracle: every acked commit survives the kill bit-identical.
                for (id, want) in &model {
                    match try_http(
                        &fleet.leader_http,
                        "GET",
                        &format!("/sessions/{id}/code"),
                        "",
                    ) {
                        Some((200, _, body)) if str_field(&body, "code") == *want => {}
                        got => report.violations.push(format!(
                            "seed {seed}: ACKED-LOSS after leader crash: session {id} \
                             want {want}, got {got:?}"
                        )),
                    }
                }
            }
            _ if follower_crashes_left > 0 => {
                follower_crashes_left -= 1;
                report.follower_crashes += 1;
                fleet
                    .follower
                    .take()
                    .expect("follower alive")
                    .kill_dash_nine();
                let plan = follower_plan(&mut rng, seed.wrapping_add(99));
                report.faults_armed += plan.is_some() as u64;
                fleet.follower = Some(spawn_serve(
                    sns,
                    &fleet.follower_flags(plan.as_deref()),
                    false,
                ));
                fleet.wait_follower_connected(&mut report);
            }
            _ => {
                // Crash budget exhausted (or no session to act on): fall
                // back to the bread-and-butter commit op.
                let id = pick(&mut rng);
                match drag_commit(&fleet.leader_http, &id, 3, 1) {
                    Ok(code) => {
                        model.insert(id.clone(), code);
                        dirty.remove(&id);
                        report.commits_acked += 1;
                    }
                    Err(why) => {
                        if why.contains("degraded") {
                            report.degraded_seen = true;
                        }
                        report.commits_failed += 1;
                        dirty.insert(id, Dirty::Commit);
                    }
                }
            }
        }
    }

    // Settle: repair every dirty session so leader state is fully acked
    // and committed (no pending drag previews in any canvas).
    for (id, kind) in dirty.drain().collect::<Vec<_>>() {
        repair(&fleet, &mut report, &mut model, &id, kind);
    }

    // Oracle: the follower converges to byte-identical code and canvas.
    let deadline = Instant::now() + Duration::from_secs(30);
    'converge: for (id, want) in &model {
        loop {
            if let Some((200, _, body)) = try_http(
                &fleet.follower_http,
                "GET",
                &format!("/sessions/{id}/code"),
                "",
            ) {
                if str_field(&body, "code") == *want {
                    break;
                }
            }
            if Instant::now() > deadline {
                report.violations.push(format!(
                    "seed {seed}: DIVERGENCE: follower never converged on session {id}"
                ));
                break 'converge;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let leader_canvas = try_http(
            &fleet.leader_http,
            "GET",
            &format!("/sessions/{id}/canvas"),
            "",
        );
        let follower_canvas = try_http(
            &fleet.follower_http,
            "GET",
            &format!("/sessions/{id}/canvas"),
            "",
        );
        match (&leader_canvas, &follower_canvas) {
            (Some((200, _, l)), Some((200, _, f))) if l == f => {}
            _ => report.violations.push(format!(
                "seed {seed}: DIVERGENCE: canvas mismatch on session {id}"
            )),
        }
    }

    // Oracle: incremental ≡ full — a fresh session created from the
    // evolved code must render the identical canvas.
    for (id, code) in &model {
        let Some((200, _, evolved)) = try_http(
            &fleet.leader_http,
            "GET",
            &format!("/sessions/{id}/canvas"),
            "",
        ) else {
            report
                .violations
                .push(format!("seed {seed}: canvas read failed on session {id}"));
            continue;
        };
        let fresh = try_http(
            &fleet.leader_http,
            "POST",
            "/sessions",
            &format!("{{\"source\":\"{}\"}}", json_escape(code)),
        );
        match fresh {
            Some((201, _, body)) => {
                let probe = str_field(&body, "id");
                match try_http(
                    &fleet.leader_http,
                    "GET",
                    &format!("/sessions/{probe}/canvas"),
                    "",
                ) {
                    Some((200, _, canvas)) if canvas == evolved => {}
                    _ => report.violations.push(format!(
                        "seed {seed}: PREPARE-MISMATCH: fresh prepare of session {id}'s \
                         code renders a different canvas"
                    )),
                }
                let _ = try_http(
                    &fleet.leader_http,
                    "DELETE",
                    &format!("/sessions/{probe}"),
                    "",
                );
            }
            _ => {
                // The probe create can be refused (e.g. still degraded);
                // that is availability, not a prepare mismatch.
            }
        }
    }

    // Finale (half the seeds): kill the leader for good and promote the
    // follower — every acked commit must survive the fail-over.
    if rng.next_u64().is_multiple_of(2) {
        fleet.leader.take().expect("leader alive").kill_dash_nine();
        let mut promoted = false;
        let deadline = Instant::now() + Duration::from_secs(20);
        while !promoted && Instant::now() < deadline {
            match try_http(&fleet.follower_http, "POST", "/promote", "") {
                Some((200, _, _)) => promoted = true,
                _ => std::thread::sleep(Duration::from_millis(200)),
            }
        }
        if !promoted {
            report
                .violations
                .push(format!("seed {seed}: promotion never completed"));
        } else {
            report.promoted = true;
            for (id, want) in &model {
                match try_http(
                    &fleet.follower_http,
                    "GET",
                    &format!("/sessions/{id}/code"),
                    "",
                ) {
                    Some((200, _, body)) if str_field(&body, "code") == *want => {}
                    got => report.violations.push(format!(
                        "seed {seed}: ACKED-LOSS after promotion: session {id} \
                         want {want}, got {got:?}"
                    )),
                }
            }
            // And the promoted node accepts writes.
            if let Some(id) = model.keys().next() {
                if drag_commit(&fleet.follower_http, id, 1, 1).is_err() {
                    report
                        .violations
                        .push(format!("seed {seed}: promoted node refused a commit"));
                }
            }
        }
    }

    // A violated seed dumps each surviving node's flight recorder and
    // metrics before teardown: `CHAOS_DEBUG/` rides up as a CI artifact,
    // so the post-mortem starts with traces instead of a rerun.
    if !report.violations.is_empty() {
        dump_debug_artifacts(&fleet, seed);
    }

    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);
    report
}

/// Best-effort: fetches `/debug/traces` and `/metrics` from whichever
/// fleet nodes still answer and writes them under `CHAOS_DEBUG/`.
/// Failures to fetch or write are ignored — diagnostics must never turn
/// a red oracle into a harness crash.
fn dump_debug_artifacts(fleet: &Fleet, seed: u64) {
    let dir = Path::new("CHAOS_DEBUG");
    let _ = std::fs::create_dir_all(dir);
    let nodes = [
        ("leader", &fleet.leader_http),
        ("follower", &fleet.follower_http),
    ];
    for (role, addr) in nodes {
        for (path, file) in [
            ("/debug/traces", "traces.jsonl"),
            ("/metrics", "metrics.txt"),
        ] {
            if let Some((200, _, body)) = try_http(addr, "GET", path, "") {
                let _ = std::fs::write(dir.join(format!("seed{seed}-{role}-{file}")), body);
            }
        }
    }
}

fn create_session(
    leader_http: &str,
    rng: &mut SplitMix64,
    model: &mut BTreeMap<String, String>,
    report: &mut SeedReport,
) {
    let (x, y) = (10 + rng.next_u64() % 90, 10 + rng.next_u64() % 90);
    let source = format!("(svg [(rect 'red' {x} {y} 30 40)])");
    match try_http(
        leader_http,
        "POST",
        "/sessions",
        &format!("{{\"source\":\"{source}\"}}"),
    ) {
        Some((201, _, body)) => {
            model.insert(str_field(&body, "id"), str_field(&body, "code"));
            report.creates += 1;
        }
        Some((_, _, body)) if body.contains("degraded") => {
            report.degraded_seen = true;
        }
        // Any other refused create is invisible: the id never escaped.
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let next_seed = AtomicU64::new(0);
    let reports: Mutex<Vec<SeedReport>> = Mutex::new(Vec::new());
    let jobs = args.jobs.clamp(1, 16);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next_seed.fetch_add(1, Ordering::Relaxed);
                if i >= args.seeds {
                    return;
                }
                let seed = args.seed_base + i;
                let report = std::thread::scope(|inner| {
                    inner.spawn(|| run_seed(&args.sns, seed, args.short)).join()
                })
                .unwrap_or_else(|_| {
                    let mut r = SeedReport::default();
                    r.violations
                        .push(format!("seed {seed}: harness panicked (see stderr above)"));
                    r
                });
                eprintln!(
                    "seed {seed}: {} ops, {} acked / {} failed commits, {} crashes{}{} — {}",
                    report.ops,
                    report.commits_acked,
                    report.commits_failed,
                    report.leader_crashes + report.follower_crashes,
                    if report.promoted { ", promoted" } else { "" },
                    if report.degraded_seen {
                        ", degraded+recovered"
                    } else {
                        ""
                    },
                    if report.violations.is_empty() {
                        "ok".to_string()
                    } else {
                        format!("{} VIOLATIONS", report.violations.len())
                    }
                );
                reports.lock().expect("reports lock").push(report);
            });
        }
    });

    let reports = reports.into_inner().expect("reports lock");
    let sum = |f: fn(&SeedReport) -> u64| reports.iter().map(f).sum::<u64>();
    let acked_loss = reports
        .iter()
        .flat_map(|r| &r.violations)
        .filter(|v| v.contains("ACKED-LOSS"))
        .count();
    let divergence = reports
        .iter()
        .flat_map(|r| &r.violations)
        .filter(|v| v.contains("DIVERGENCE"))
        .count();
    let prepare_mismatch = reports
        .iter()
        .flat_map(|r| &r.violations)
        .filter(|v| v.contains("PREPARE-MISMATCH"))
        .count();
    let violations = reports.iter().map(|r| r.violations.len()).sum::<usize>();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    for r in &reports {
        for v in &r.violations {
            eprintln!("VIOLATION: {v}");
        }
    }
    eprintln!("== sns chaos hammer ==");
    eprintln!("seeds                 {}", args.seeds);
    eprintln!("ops                   {}", sum(|r| r.ops));
    eprintln!("commits acked         {}", sum(|r| r.commits_acked));
    eprintln!("commits failed        {}", sum(|r| r.commits_failed));
    eprintln!("leader crashes        {}", sum(|r| r.leader_crashes));
    eprintln!("follower crashes      {}", sum(|r| r.follower_crashes));
    eprintln!(
        "promotions            {}",
        reports.iter().filter(|r| r.promoted).count()
    );
    eprintln!("fault plans armed     {}", sum(|r| r.faults_armed));
    eprintln!(
        "seeds seen degraded   {}",
        reports.iter().filter(|r| r.degraded_seen).count()
    );
    eprintln!("acked-commit loss     {acked_loss}");
    eprintln!("divergence            {divergence}");
    eprintln!("prepare mismatch      {prepare_mismatch}");
    eprintln!("violations (total)    {violations}");
    eprintln!("wall                  {wall_ms:.0} ms");

    let json = format!(
        "{{\n  \"bench\": \"chaos_hammer\",\n  \"seeds\": {},\n  \"seed_base\": {},\n  \
         \"short\": {},\n  \"ops_total\": {},\n  \"creates\": {},\n  \"deletes\": {},\n  \
         \"commits_acked\": {},\n  \"commits_failed\": {},\n  \"set_codes\": {},\n  \
         \"leader_crashes\": {},\n  \"follower_crashes\": {},\n  \"promotions\": {},\n  \
         \"fault_plans_armed\": {},\n  \"seeds_degraded\": {},\n  \
         \"acked_commit_loss\": {acked_loss},\n  \"divergence\": {divergence},\n  \
         \"prepare_mismatch\": {prepare_mismatch},\n  \"violations\": {violations},\n  \
         \"wall_ms\": {wall_ms:.0}\n}}\n",
        args.seeds,
        args.seed_base,
        args.short,
        sum(|r| r.ops),
        sum(|r| r.creates),
        sum(|r| r.deletes),
        sum(|r| r.commits_acked),
        sum(|r| r.commits_failed),
        sum(|r| r.set_codes),
        sum(|r| r.leader_crashes),
        sum(|r| r.follower_crashes),
        reports.iter().filter(|r| r.promoted).count(),
        sum(|r| r.faults_armed),
        reports.iter().filter(|r| r.degraded_seen).count(),
    );
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    eprintln!("wrote BENCH_chaos.json");

    bench::ledger::append(
        "chaos_hammer",
        &[
            ("ops_total", sum(|r| r.ops) as f64),
            ("commits_acked", sum(|r| r.commits_acked) as f64),
            ("violations", violations as f64),
            ("wall_ms", wall_ms),
        ],
    );

    if violations > 0 {
        std::process::exit(1);
    }
}
