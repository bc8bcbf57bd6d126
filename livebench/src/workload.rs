//! The two workloads and the closed loop they share.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sns_lang::Subst;
use sns_server::json::Json;
use sns_server::persist::{Op, SessionBackend};
use sns_server::{FsyncPolicy, JournalBackend, JournalConfig};

use crate::calib::{self, Calibration};
use crate::client::{self, Conn, Reply};
use crate::script::{self, EditClass, Rng, Shadow};
use crate::servers::{self, Running, Scratch};
use crate::stats;
use crate::traced::{self, Tracer};

/// Identical set-up passes per run; `setup_s` is their median. A stopped
/// durable server leaves its replication and journal-maintenance threads
/// running (five per leader/follower pair), so more passes would add idle
/// threads to the timed load and memory to `peak_rss_mb`.
const SETUP_PASSES: usize = 11;
/// Identical cold reopens per run; `recovery_s` is their median.
const RECOVERY_PASSES: usize = 19;
/// After the first pass, a session that has taken this many writes is
/// deleted and created again from its original source. The editor keeps
/// an unbounded undo stack (one program per write), and seeded edits and
/// drags random-walk the program's literals (loop counts among them), so
/// without this the process grows by ~100 KB per write and the programs a
/// run ends on depend on how many writes the host managed to make. A
/// session whose canvas has more than doubled is recycled at once, in the
/// first pass too ([`Shadow::overgrown`]).
const RECYCLE_WRITES: usize = 16;
/// Kernel samples taken just before and just after each set-up pass and
/// each reopen, which are scaled by them.
const BRACKET_SAMPLES: usize = 9;
/// Read-only warm-up rounds over every session at the end of set-up.
const WARMUP_ROUNDS: usize = 2;

/// What a workload runs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Drag steps per gesture.
    pub drags: usize,
    /// A `set_code` follows every `edit_every`-th gesture.
    pub edit_every: usize,
    /// Gestures in the first pass, over which the
    /// deterministic counts are taken.
    pub pass_gestures: usize,
    /// Journal + synchronous follower instead of the memory backend.
    pub durable: bool,
    /// `GET /code` and `/canvas` are checked every this many gestures.
    pub check_every: usize,
}

/// The largest corpus examples by shape count.
const DRAG_LARGE: [&str; 7] = [
    "us50_flag",
    "fractal_tree",
    "sliders",
    "keyboard",
    "tessellation",
    "us13_flag",
    "spiral",
];

/// Mid-size corpus examples (7–13 shapes).
const EDIT_DURABLE: [&str; 7] = [
    "wave_boxes",
    "ferris_wheel",
    "frank_lloyd_wright",
    "solar_system",
    "pie_chart",
    "pop_pl_logo",
    "bar_graph",
];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "drag_large" => Spec {
            name: "drag_large",
            drags: 20,
            edit_every: 4,
            pass_gestures: 14,
            durable: false,
            check_every: 4,
        },
        "edit_durable" => Spec {
            name: "edit_durable",
            drags: 3,
            edit_every: 1,
            pass_gestures: 14,
            durable: true,
            check_every: 4,
        },
        _ => return None,
    })
}

/// The program sources of the workload's sessions.
fn sources(spec: &Spec) -> Vec<String> {
    let slugs: &[&str] = if spec.durable {
        &EDIT_DURABLE
    } else {
        &DRAG_LARGE
    };
    slugs
        .iter()
        .map(|s| {
            let ex = sns_examples::by_slug(s).expect("workload example is in the corpus");
            script::with_anchor(ex.source)
        })
        .collect()
}

/// Operation kinds the client times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `POST /sessions/:id/drag`
    Drag,
    /// `POST /sessions/:id/commit`
    Commit,
    /// `PUT /sessions/:id/code`
    SetCode,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 3] = [Kind::Drag, Kind::Commit, Kind::SetCode];

    /// The metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Drag => "drag",
            Kind::Commit => "commit",
            Kind::SetCode => "set_code",
        }
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
struct OpRec {
    kind: Kind,
    ns: u64,
    window: usize,
    traced: bool,
}

/// A journaled write of the recovery fixture.
#[derive(Debug, Clone)]
enum Write {
    Commit(Subst),
    SetCode(String),
}

/// Deterministic counts taken over the first pass.
#[derive(Debug, Clone, Default)]
struct PassCounts {
    drags: u64,
    drag_bytes: u64,
    writes: u64,
    classes: BTreeMap<&'static str, u64>,
}

/// The load-generating connection and everything it owns.
struct Load {
    conn: Conn,
    shadows: Vec<Shadow>,
    rng: Rng,
    cal: Calibration,
    recs: Vec<OpRec>,
    gestures: usize,
    edits: usize,
    attempted: u64,
    failed: u64,
    /// The first few failures, for the report.
    failures: Vec<String>,
    pass: PassCounts,
    tracer: Option<Tracer>,
    tracing: bool,
}

impl Load {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        } else if self.failures.len() == 20 {
            self.failures.push("(further failures elided)".into());
        }
    }

    /// One timed request; the reply must be 200 and, when `want` is set,
    /// equal `want` byte for byte.
    fn op(
        &mut self,
        kind: Kind,
        method: &str,
        path: &str,
        body: &str,
        want: Option<&str>,
    ) -> Option<Reply> {
        self.attempted += 1;
        let reply = match self.conn.request(method, path, body) {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("{method} {path}: {e}"));
                return None;
            }
        };
        self.recs.push(OpRec {
            kind,
            ns: reply.ns,
            window: self.cal.window(),
            traced: self.tracing,
        });
        if reply.status != 200 {
            self.fail(format!(
                "{method} {path} answered {}: {}",
                reply.status, reply.body
            ));
            return None;
        }
        if let Some(want) = want {
            if reply.body != want {
                self.fail(format!(
                    "{method} {path}: reply differs from the in-process shadow"
                ));
            }
        }
        Some(reply)
    }

    /// An untimed read that must equal the shadow bitwise.
    fn check(&mut self, path: &str, want: &str) {
        self.attempted += 1;
        match self.conn.request("GET", path, "") {
            Ok(r) if r.status == 200 && r.body == want => {}
            Ok(r) => self.fail(format!("GET {path}: {} differs from the shadow", r.status)),
            Err(e) => self.fail(format!("GET {path}: {e}")),
        }
    }

    /// One gesture: drags, the commit, and (every `edit_every`-th time)
    /// a code edit.
    fn gesture(&mut self, spec: &Spec, in_pass: bool) {
        let s = self.gestures % self.shadows.len();
        self.gestures += 1;
        let (gesture, want_drag) = match self.shadows[s].plan_gesture(&mut self.rng, spec.drags) {
            Ok(g) => g,
            Err(e) => return self.fail(e),
        };
        let id = self.shadows[s].id.clone();
        let drag_path = format!("/sessions/{id}/drag");
        for i in 0..gesture.steps.len() {
            let body = gesture.body(i);
            let last = i + 1 == gesture.steps.len();
            let want = last.then_some(want_drag.as_str());
            let reply = self.op(Kind::Drag, "POST", &drag_path, &body, want);
            if let (Some(r), true) = (&reply, in_pass) {
                self.pass.drags += 1;
                self.pass.drag_bytes += r.wire_bytes as u64;
            }
            if let (Some(r), true, Some(t)) = (&reply, self.tracing, self.tracer.as_mut()) {
                let (dx, dy) = gesture.steps[i];
                t.drag(
                    s,
                    gesture.shape,
                    gesture.zone,
                    dx,
                    dy,
                    i == 0,
                    self.conn.last_request(),
                    r,
                );
            }
            self.cal.sample();
        }
        let want_commit = match self.shadows[s].commit() {
            Ok(w) => w,
            Err(e) => return self.fail(e),
        };
        let reply = self.op(
            Kind::Commit,
            "POST",
            &format!("/sessions/{id}/commit"),
            "",
            Some(&want_commit),
        );
        if let (Some(r), true, Some(t)) = (&reply, self.tracing, self.tracer.as_mut()) {
            t.commit(s, self.conn.last_request(), r);
        }
        if in_pass && reply.is_some() {
            self.pass.writes += 1;
        }
        self.cal.sample();
        if spec.edit_every > 0 && self.gestures.is_multiple_of(spec.edit_every) {
            self.edit(s, in_pass);
        }
        if self.gestures.is_multiple_of(spec.check_every) {
            let (code, canvas) = (self.shadows[s].code_body(), self.shadows[s].canvas.clone());
            self.check(&format!("/sessions/{id}/code"), &code);
            self.check(&format!("/sessions/{id}/canvas"), &canvas);
        }
        if (!in_pass && self.shadows[s].writes >= RECYCLE_WRITES) || self.shadows[s].overgrown() {
            self.recycle(s);
        }
    }

    /// Deletes session `s` and creates it again from its original source
    /// (untimed), on the server, in the shadow and in the tracer.
    fn recycle(&mut self, s: usize) {
        let old = self.shadows[s].id.clone();
        self.attempted += 2;
        match self.conn.request("DELETE", &format!("/sessions/{old}"), "") {
            Ok(r) if r.status == 200 => {}
            Ok(r) => return self.fail(format!("DELETE {old} answered {}", r.status)),
            Err(e) => return self.fail(format!("DELETE {old}: {e}")),
        }
        let id = match create(&mut self.conn, &self.shadows[s].source) {
            Ok(id) => id,
            Err(e) => return self.fail(e),
        };
        if let Err(e) = self.shadows[s].recreate(id) {
            return self.fail(e);
        }
        if let Some(t) = self.tracer.as_mut() {
            if let Err(e) = t.recycle(s, &self.shadows[s]) {
                self.fail(format!("tracer: {e}"));
            }
        }
        self.cal.sample();
    }

    fn edit(&mut self, s: usize, in_pass: bool) {
        let class = EditClass::nth(self.edits);
        self.edits += 1;
        let before = self.shadows[s].session.code();
        let (source, want) = match self.shadows[s].plan_edit(&mut self.rng, class) {
            Ok(e) => e,
            Err(e) => return self.fail(e),
        };
        let id = self.shadows[s].id.clone();
        let body = Json::obj([("source", Json::str(source.clone()))]).to_string();
        let reply = self.op(
            Kind::SetCode,
            "PUT",
            &format!("/sessions/{id}/code"),
            &body,
            Some(&want),
        );
        if let (Some(r), true, Some(t)) = (&reply, self.tracing, self.tracer.as_mut()) {
            t.set_code(s, &source, self.conn.last_request(), r);
        }
        if in_pass && reply.is_some() {
            *self
                .pass
                .classes
                .entry(script::classify(&before, &source))
                .or_default() += 1;
            self.pass.writes += 1;
        }
        self.cal.sample();
    }
}

/// The servers one set-up pass leaves running.
struct Env {
    leader: Running,
    follower: Option<Running>,
    leader_dir: Option<PathBuf>,
    /// Server ids, in source order.
    ids: Vec<String>,
    /// The connection that created them (the sessions live on its
    /// reactor), until the load takes it.
    conn: Option<Conn>,
}

impl Env {
    fn stop(self) -> Result<(), String> {
        drop(self.conn);
        self.leader.stop()?;
        if let Some(f) = self.follower {
            f.stop()?;
        }
        Ok(())
    }
}

/// One set-up pass: bind (plus journal open and follower connect when
/// durable), create every session, warm up. Returns the environment and
/// the pass's raw and normalized durations in seconds, kernel time taken
/// out.
fn setup_pass(
    spec: &Spec,
    sources: &[String],
    scratch: &mut Scratch,
) -> Result<(Env, f64, f64), String> {
    let mut cal = Calibration::new();
    for _ in 0..BRACKET_SAMPLES {
        cal.sample();
    }
    let t0 = Instant::now();
    let mut kernel_ns = 0u64;
    let (leader, follower, leader_dir) = if spec.durable {
        let ldir = scratch.dir("leader");
        let leader = Running::start(&servers::leader_config(&ldir))?;
        let repl = leader
            .repl_addr
            .ok_or("leader without a replication listener")?;
        let follower = Running::start(&servers::follower_config(&scratch.dir("follower"), repl))?;
        (leader, Some(follower), Some(ldir))
    } else {
        (Running::start(&servers::memory_config())?, None, None)
    };
    let mut conn = Conn::connect(leader.addr).map_err(|e| e.to_string())?;
    let mut ids = Vec::new();
    for src in sources {
        ids.push(create(&mut conn, src)?);
        kernel_ns += cal.sample();
    }
    for _ in 0..WARMUP_ROUNDS {
        for id in &ids {
            for what in ["canvas", "code"] {
                let reply = conn
                    .request("GET", &format!("/sessions/{id}/{what}"), "")
                    .map_err(|e| e.to_string())?;
                if reply.status != 200 {
                    return Err(format!("warm-up {what} answered {}", reply.status));
                }
            }
        }
    }
    let raw = (t0.elapsed().as_nanos() as u64).saturating_sub(kernel_ns) as f64 / 1e9;
    for _ in 0..BRACKET_SAMPLES {
        cal.sample();
    }
    let norm = raw * calib::REF_KERNEL_US / cal.median_us();
    Ok((
        Env {
            leader,
            follower,
            leader_dir,
            ids,
            conn: Some(conn),
        },
        raw,
        norm,
    ))
}

/// `POST /sessions` with `source`; returns the new session's id.
fn create(conn: &mut Conn, source: &str) -> Result<String, String> {
    let body = Json::obj([("source", Json::str(source))]).to_string();
    let reply = conn
        .request("POST", "/sessions", &body)
        .map_err(|e| e.to_string())?;
    if reply.status != 201 {
        return Err(format!("create answered {}: {}", reply.status, reply.body));
    }
    sns_server::json::parse(&reply.body)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string))
        .ok_or_else(|| "create reply without an id".to_string())
}

/// Sessions in the recovery fixture, at least: the workload's sessions are
/// repeated, each copy on its own seeded stream, until there are this many.
/// One seed's handful of writes can land on an expensive tier (an escaped
/// location, a full prepare); over several streams that averages out, and
/// replay work outweighs the fixed cost of a bind.
const FIXTURE_SESSIONS: usize = 56;

/// The recovery fixture's script, generated in-process from the seed: the
/// workload's sessions (repeated as [`FIXTURE_SESSIONS`] asks), each
/// taking two gestures and their commits, with the workload's `set_code`
/// cadence. Returns the creates (id, source), the writes (id, write, code
/// after it) and every session's final code.
#[allow(clippy::type_complexity)]
fn fixture_script(
    spec: &Spec,
    seed: u64,
    sources: &[String],
) -> Result<
    (
        Vec<(String, String)>,
        Vec<(String, Write, String)>,
        Vec<(String, String)>,
    ),
    String,
> {
    let (mut creates, mut log, mut finals) = (Vec::new(), Vec::new(), Vec::new());
    for stream in 0..FIXTURE_SESSIONS.div_ceil(sources.len()) {
        let mut rng = Rng::new(seed, 1000 + stream as u64);
        let mut shadows = Vec::new();
        for (i, src) in sources.iter().enumerate() {
            let shadow = Shadow::new(format!("fixture-{stream:02}-{i:03}"), src)?;
            creates.push((shadow.id.clone(), shadow.session.code()));
            shadows.push(shadow);
        }
        let mut edits = 0;
        for g in 1..=2 * shadows.len() {
            let shadow = &mut shadows[(g - 1) % sources.len()];
            shadow.plan_gesture(&mut rng, spec.drags)?;
            let subst = shadow
                .pending()
                .ok_or("fixture gesture left nothing to commit")?;
            shadow.commit()?;
            log.push((
                shadow.id.clone(),
                Write::Commit(subst),
                shadow.session.code(),
            ));
            if g.is_multiple_of(spec.edit_every) {
                let (source, _) = shadow.plan_edit(&mut rng, EditClass::nth(edits))?;
                edits += 1;
                log.push((
                    shadow.id.clone(),
                    Write::SetCode(source),
                    shadow.session.code(),
                ));
            }
        }
        finals.extend(shadows.iter().map(|s| (s.id.clone(), s.session.code())));
    }
    Ok((creates, log, finals))
}

/// Writes the recovery fixture: every session's create plus the first
/// pass's writes, through the journal backend itself.
fn write_fixture(
    dir: &Path,
    creates: &[(String, String)],
    log: &[(String, Write, String)],
) -> Result<(), String> {
    let (backend, _) = JournalBackend::open(JournalConfig {
        fsync: FsyncPolicy::Batch,
        ..JournalConfig::new(dir)
    })
    .map_err(|e| format!("fixture journal: {e}"))?;
    let err = |e: std::io::Error| format!("fixture append: {e}");
    for (id, code) in creates {
        backend
            .append(Op::Create {
                id,
                source: code,
                owner: None,
            })
            .map_err(err)?;
        backend.applied_create(id, code, None);
    }
    for (id, write, after) in log {
        match write {
            Write::Commit(subst) => backend.append(Op::Commit { id, subst }),
            Write::SetCode(source) => backend.append(Op::SetCode { id, source }),
        }
        .map_err(err)?;
        backend.applied(id, Some(after));
    }
    Ok(())
}

/// Cold-starts a server on `dir` and reads every session's code back.
/// Returns the wall time from bind to the last `/code`, in seconds.
fn reopen(dir: &Path, expect: &[(String, String)]) -> Result<f64, String> {
    let t0 = Instant::now();
    let server = Running::start(&servers::reopen_config(dir))?;
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let mut bad = None;
    for (id, code) in expect {
        let want = Json::obj([("code", Json::str(code.clone()))]).to_string();
        match conn.request("GET", &format!("/sessions/{id}/code"), "") {
            Ok(r) if r.status == 200 && r.body == want => {}
            Ok(r) => {
                bad = Some(format!(
                    "session {id} after reopen: {} {}",
                    r.status,
                    r.body.len()
                ))
            }
            Err(e) => bad = Some(format!("session {id} after reopen: {e}")),
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(conn);
    server.stop()?;
    match bad {
        Some(e) => Err(e),
        None => Ok(elapsed),
    }
}

/// Everything one run measured.
pub struct Outcome {
    /// Timed operations and checks attempted.
    pub attempted: u64,
    /// Failed or mismatching ones.
    pub failed: u64,
    /// What failed (first few).
    pub failures: Vec<String>,
    /// End-to-end metrics: name, value, unit.
    pub e2e: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics: name, value, unit.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// Runs workload `spec` for `seconds` with `seed`; `trace` adds the
/// traced second half and the per-layer table.
pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut scratch = Scratch::new()?;
    let sources = sources(spec);

    // ---- Set-up: SETUP_PASSES identical passes; the last one stays up.
    let mut setup_raw = Vec::new();
    let mut setup_norm = Vec::new();
    let mut env = None;
    for pass in 0..SETUP_PASSES {
        let (e, raw, norm) = setup_pass(spec, &sources, &mut scratch)?;
        setup_raw.push(raw);
        setup_norm.push(norm);
        if pass + 1 < SETUP_PASSES {
            e.stop()?;
        } else {
            env = Some(e);
        }
    }
    let mut env = env.expect("at least one set-up pass");

    // ---- Shadows (outside every timing) and the load.
    let mut shadows = Vec::new();
    for (src, id) in sources.iter().zip(&env.ids) {
        shadows.push(Shadow::new(id.clone(), src)?);
    }
    let tracer = if trace {
        Some(Tracer::new(
            &shadows,
            spec.durable,
            &scratch.dir("trace-journal"),
        )?)
    } else {
        None
    };
    let m_start = env.leader.metrics()?;
    let f_start = match &env.follower {
        Some(f) => Some(f.metrics()?),
        None => None,
    };
    let mut load = Load {
        conn: env.conn.take().expect("set-up leaves its connection"),
        shadows,
        rng: Rng::new(seed, 0),
        cal: Calibration::new(),
        recs: Vec::new(),
        gestures: 0,
        edits: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        pass: PassCounts::default(),
        tracer,
        tracing: false,
    };
    let run_for = Duration::from_secs(seconds);
    let started = Instant::now();
    for _ in 0..spec.pass_gestures {
        load.gesture(spec, true);
    }
    let peak_rss_mb = servers::peak_rss_mb();
    let m_pass = env.leader.metrics()?;
    let f_pass = match &env.follower {
        Some(f) => Some(f.metrics()?),
        None => None,
    };
    while started.elapsed() < run_for {
        if trace && !load.tracing && started.elapsed() >= run_for / 2 {
            load.tracing = true;
            let Load {
                tracer, shadows, ..
            } = &mut load;
            if let Err(e) = tracer.as_mut().map_or(Ok(()), |t| t.start(shadows)) {
                load.fail(format!("tracer: {e}"));
            }
        }
        load.gesture(spec, false);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let m_end = env.leader.metrics()?;

    let mut attempted = load.attempted;
    let mut failures = load.failures.clone();
    let mut failed = load.failed;

    // ---- Durable correctness: follower ≡ leader ≡ shadow, and every
    // acknowledged write survives a cold reopen of the leader's directory.
    let mut lines = Vec::new();
    let mut reopen_tail_s = f64::NAN;
    let finals: Vec<(String, String)> = load
        .shadows
        .iter()
        .map(|s| (s.id.clone(), s.session.code()))
        .collect();
    if let Some(follower) = &env.follower {
        for (id, code) in &finals {
            let want = Json::obj([("code", Json::str(code.clone()))]).to_string();
            for (who, addr) in [("leader", env.leader.addr), ("follower", follower.addr)] {
                attempted += 1;
                match client::once(addr, "GET", &format!("/sessions/{id}/code"), "") {
                    Ok(r) if r.status == 200 && r.body == want => {}
                    _ => {
                        failed += 1;
                        failures.push(format!("{who} code of {id} differs from the acked state"));
                    }
                }
            }
        }
    }
    let f_end = match &env.follower {
        Some(f) => Some(f.metrics()?),
        None => None,
    };
    let leader_dir = env.leader_dir.clone();
    env.stop()?;
    if let Some(dir) = &leader_dir {
        attempted += 1;
        match reopen(dir, &finals) {
            Ok(s) => reopen_tail_s = s,
            Err(e) => {
                failed += 1;
                failures.push(format!("acked writes lost across reopen: {e}"));
            }
        }
    }

    // ---- Recovery: cold reopens of a journal fixed by the seed.
    let (creates, log, expect) = fixture_script(spec, seed, &sources)?;
    let fixture = scratch.dir("fixture");
    write_fixture(&fixture, &creates, &log)?;
    let mut rec_raw = Vec::new();
    let mut rec_norm = Vec::new();
    for _ in 0..RECOVERY_PASSES {
        let dir = scratch.dir("reopen");
        servers::copy_dir(&fixture, &dir)?;
        // Each reopen is scaled by kernel samples taken right around it.
        let mut cal = Calibration::new();
        for _ in 0..BRACKET_SAMPLES {
            cal.sample();
        }
        attempted += 1;
        let result = reopen(&dir, &expect);
        for _ in 0..BRACKET_SAMPLES {
            cal.sample();
        }
        match result {
            Ok(s) => {
                rec_raw.push(s);
                rec_norm.push(s * calib::REF_KERNEL_US / cal.median_us());
            }
            Err(e) => {
                failed += 1;
                failures.push(format!("fixture reopen: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- Timings.
    let mut norm: BTreeMap<(Kind, bool), Vec<f64>> = BTreeMap::new();
    let mut raw: BTreeMap<(Kind, bool), Vec<f64>> = BTreeMap::new();
    // Normalized drag times by quarter of the run: drift within a run
    // (state growing with the op count) shows as a rising row.
    let mut quarters: [Vec<f64>; 4] = Default::default();
    let last_window = load.recs.iter().map(|r| r.window).max().unwrap_or(0);
    let factors = load.cal.factors();
    // Per calibration window: (ops, normalized busy seconds).
    let mut windows: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for r in &load.recs {
        let ms = r.ns as f64 / 1e6;
        let nms = calib::normalize(&factors, ms, r.window);
        norm.entry((r.kind, r.traced)).or_default().push(nms);
        if r.kind == Kind::Drag && !r.traced {
            quarters[(r.window * 4 / (last_window + 1)).min(3)].push(nms);
        }
        raw.entry((r.kind, r.traced)).or_default().push(ms);
        if !r.traced {
            let w = windows.entry(r.window).or_default();
            w.0 += 1.0;
            w.1 += nms / 1e3;
        }
    }
    // The median window's rate: a mean over the whole run would be set by
    // its few slowest operations.
    let rates: Vec<f64> = windows.values().map(|(n, busy)| n / busy).collect();
    let ops_per_s = stats::median(&rates);
    let host_calib_us = load.cal.median_us();
    let p50 = |m: &BTreeMap<(Kind, bool), Vec<f64>>, k: Kind, traced: bool| {
        m.get(&(k, traced)).map_or(f64::NAN, |v| stats::median(v))
    };
    let PassCounts {
        drags: pass_drags,
        drag_bytes: pass_bytes,
        writes: pass_writes,
        ref classes,
    } = load.pass;
    let wire_bytes_per_drag = pass_bytes as f64 / pass_drags.max(1) as f64;

    let setup_s = stats::median(&setup_norm);
    let recovery_s = stats::median(&rec_norm);
    let e2e = vec![
        ("setup_s".to_string(), setup_s, "s"),
        (
            "drag_p50_ms".to_string(),
            p50(&norm, Kind::Drag, false),
            "ms",
        ),
        (
            "commit_p50_ms".to_string(),
            p50(&norm, Kind::Commit, false),
            "ms",
        ),
        (
            "set_code_p50_ms".to_string(),
            p50(&norm, Kind::SetCode, false),
            "ms",
        ),
        ("recovery_s".to_string(), recovery_s, "s"),
        ("ops_per_s".to_string(), ops_per_s, "1/s"),
        (
            "wire_bytes_per_drag".to_string(),
            wire_bytes_per_drag,
            "count",
        ),
        ("peak_rss_mb".to_string(), peak_rss_mb, "MiB"),
    ];

    // ---- Deterministic first-pass counts (server counters + client).
    let d = |name: &str| servers::delta(&m_start, &m_pass, name);
    let fallback = |reason: &str| {
        let label = format!("reason=\"{reason}\"");
        m_pass.labeled("sns_prepare_fallback_total", &label)
            - m_start.labeled("sns_prepare_fallback_total", &label)
    };
    let fast = d("sns_prepare_incremental_total");
    let partial = d("sns_prepare_partial_total");
    let full = d("sns_prepare_full_total");
    let class = |c: &str| classes.get(c).copied().unwrap_or(0) as f64;
    let writes = pass_writes.max(1) as f64;
    let (fsyncs_pw, bytes_pw, records_pw) = match (&f_start, &f_pass) {
        (Some(fs), Some(fp)) => (
            d("sns_fsyncs_total") / writes,
            d("sns_journal_bytes") / writes,
            servers::delta(fs, fp, "sns_repl_records_applied_total") / writes,
        ),
        _ => (0.0, 0.0, 0.0),
    };
    let counts: Vec<(String, f64, &'static str)> = vec![
        ("live.prepare_fast".into(), fast, "count"),
        ("live.prepare_partial".into(), partial, "count"),
        ("live.prepare_full".into(), full, "count"),
        ("live.fallback_escaped".into(), fallback("escaped"), "count"),
        (
            "live.fallback_structural".into(),
            fallback("structural"),
            "count",
        ),
        (
            "live.fallback_reconcile".into(),
            fallback("reconcile"),
            "count",
        ),
        (
            "live.set_code_identical".into(),
            class("identical"),
            "count",
        ),
        ("live.set_code_literals".into(), class("literals"), "count"),
        ("live.set_code_subtree".into(), class("subtree"), "count"),
        (
            "live.set_code_structural".into(),
            class("structural"),
            "count",
        ),
        (
            "live.incremental_ratio".into(),
            (fast + partial) / (fast + partial + full).max(1.0),
            "ratio",
        ),
        ("journal.fsyncs_per_write".into(), fsyncs_pw, "count"),
        ("journal.bytes_per_write".into(), bytes_pw, "count"),
        ("repl.records_per_write".into(), records_pw, "count"),
    ];

    // ---- The workload must still exercise its layer.
    let mut guard = |ok: bool, what: &str| {
        if !ok {
            failed += 1;
            failures.push(format!("{}: {what}", spec.name));
        }
    };
    match spec.name {
        "drag_large" => guard(
            fast + partial > 0.0,
            "no fast or partial commit in the first pass",
        ),
        _ => {
            for c in ["literals", "subtree", "structural"] {
                guard(
                    class(c) > 0.0,
                    &format!("no {c} set_code in the first pass"),
                );
            }
            guard(fsyncs_pw > 0.0, "writes were not fsynced");
            guard(records_pw > 0.0, "writes were not replicated");
        }
    }

    // ---- Report.
    let total_ops = load.recs.len();
    lines.push(format!(
        "workload {} seed {seed}: {total_ops} timed ops in {elapsed:.1} s, host kernel median {host_calib_us:.2} us (reference {} us)",
        spec.name,
        calib::REF_KERNEL_US
    ));
    lines.push(format!(
        "{:<22} {:>12} {:>6} {:>12}  {}",
        "metric", "value", "unit", "raw", "samples"
    ));
    for k in Kind::ALL {
        let n = norm.get(&(k, false)).map_or(0, Vec::len);
        let tail = stats::supported_tail(n).map_or(String::new(), |(q, label)| {
            let v = norm
                .get(&(k, false))
                .map_or(f64::NAN, |v| stats::quantile(v, q));
            format!(", {label} {v:.4} ms")
        });
        lines.push(format!(
            "{:<22} {:>12.4} {:>6} {:>12.4}  n={n}{tail}",
            format!("{}_p50_ms", k.name()),
            p50(&norm, k, false),
            "ms",
            p50(&raw, k, false)
        ));
    }
    let passes: Vec<String> = setup_norm.iter().map(|v| format!("{v:.4}")).collect();
    lines.push(format!(
        "{:<22} {:>12.4} {:>6} {:>12.4}  n={} passes: {}",
        "setup_s",
        setup_s,
        "s",
        stats::median(&setup_raw),
        setup_norm.len(),
        passes.join(" ")
    ));
    let reopens: Vec<String> = rec_norm.iter().map(|v| format!("{v:.4}")).collect();
    lines.push(format!(
        "{:<22} {:>12.4} {:>6} {:>12.4}  n={} reopens of {} sessions + {} writes: {}",
        "recovery_s",
        recovery_s,
        "s",
        stats::median(&rec_raw),
        rec_norm.len(),
        creates.len(),
        log.len(),
        reopens.join(" ")
    ));
    lines.push(format!(
        "{:<22} {:>12.1} {:>6}",
        "ops_per_s", ops_per_s, "1/s"
    ));
    let drift: Vec<String> = quarters
        .iter()
        .map(|q| match q.is_empty() {
            true => "-".to_string(),
            false => format!("{:.4}", stats::median(q)),
        })
        .collect();
    lines.push(format!(
        "untraced drag p50 by quarter of the run (ms, normalized): {}",
        drift.join(" ")
    ));
    lines.push(format!(
        "{:<22} {:>12.1} {:>6}               n={pass_drags} first-pass drags",
        "wire_bytes_per_drag", wire_bytes_per_drag, "count"
    ));
    lines.push(format!(
        "{:<22} {:>12.1} {:>6}               after set-up and the first pass; {:.1} MiB at the end",
        "peak_rss_mb",
        peak_rss_mb,
        "MiB",
        servers::peak_rss_mb()
    ));
    lines.push(format!(
        "{:<22} {:>12.4} {:>6}               {failed} of {attempted}",
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    ));
    if !reopen_tail_s.is_nan() {
        lines.push(format!(
            "leader reopen after the run (acked => survives): {reopen_tail_s:.4} s raw"
        ));
    }
    let counts_line: Vec<String> = counts.iter().map(|(n, v, _)| format!("{n}={v}")).collect();
    lines.push(format!("first-pass counts: {}", counts_line.join(" ")));

    // ---- Per-layer figures.
    let mut layers = Vec::new();
    let server_ops = servers::delta(&m_start, &m_end, "sns_requests_total").max(1.0);
    layers.push((
        "reactor.queue_wait_us".to_string(),
        servers::hist_p50_us(&m_start, &m_end, "sns_stage_queue_us"),
        "us",
    ));
    layers.push((
        "reactor.wakes_per_op".into(),
        servers::delta(&m_start, &m_end, "sns_reactor_wakes_total") / server_ops,
        "count",
    ));
    layers.push((
        "store.evictions".into(),
        servers::delta(&m_start, &m_end, "sns_evictions_total"),
        "count",
    ));
    layers.push((
        "journal.fsync_wait_us".into(),
        servers::hist_p50_us(&m_start, &m_end, "sns_stage_fsync_us"),
        "us",
    ));
    layers.push((
        "repl.ack_us".into(),
        servers::hist_p50_us(&m_start, &m_end, "sns_stage_repl_ack_us"),
        "us",
    ));
    let apply = f_end
        .as_ref()
        .map_or(0.0, |_| m_end.sum("sns_repl_apply_us"));
    layers.push(("repl.apply_us".into(), apply, "us"));
    layers.extend(counts.iter().cloned());
    layers.push(("host_calib_us".into(), host_calib_us, "us"));
    for k in Kind::ALL {
        layers.push((
            format!("{}_p50_raw_ms", k.name()),
            p50(&raw, k, false),
            "ms",
        ));
    }
    layers.push(("setup_raw_s".into(), stats::median(&setup_raw), "s"));
    layers.push(("recovery_raw_s".into(), stats::median(&rec_raw), "s"));

    if trace {
        let mut report = traced::Report::default();
        if let Some(t) = load.tracer {
            report.merge(t.finish());
        }
        let client: Vec<(Kind, f64, f64)> = Kind::ALL
            .iter()
            .map(|&k| (k, p50(&raw, k, true), p50(&raw, k, false)))
            .collect();
        let (table, figures) = report.summarize(&client, spec.durable, &layers);
        lines.extend(table);
        layers.extend(figures);
        let path = report.write_spans(spec.name, seed)?;
        lines.push(format!("spans written to {}", path.display()));
    }

    Ok(Outcome {
        attempted,
        failed,
        failures,
        e2e,
        layers,
        lines,
    })
}
