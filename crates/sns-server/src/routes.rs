//! Request routing: URL + JSON glue between HTTP and the session store.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sns_obs::trace::{stamp_current, Stage, Trace, TraceCtx};
use sns_obs::{log as obs_log, FlightRecorder};
use sns_svg::{AttrRef, ShapeId, Zone};
use sns_sync::{LiveStats, OutputEdit};

use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::replicate::ReplControl;
use crate::session::Session;
use crate::stats::ServerStats;
use crate::store::{InsertError, SessionStore};
use crate::timeline::{Kind as TimelineKind, Timelines};

/// Per-request tracing state shared between the reactor (which allocates
/// and finishes traces) and the routes (which dump them).
pub struct Telemetry {
    enabled: bool,
    /// Completed-trace rings behind `GET /debug/traces`.
    pub flight: FlightRecorder,
    next_trace_id: AtomicU64,
    /// This node's identity (resolved HTTP listen address) — carried as
    /// the origin node in propagated replication trace contexts.
    node: String,
    /// Stall-watchdog threshold in microseconds (0 disables the sweep).
    stall_us: u64,
    /// In-flight pooled traces, one slot per reactor so each reactor
    /// sweeps only its own entries without cross-reactor contention.
    in_flight: Vec<Mutex<HashMap<u64, Arc<Trace>>>>,
}

impl Telemetry {
    /// Creates telemetry state. `enabled = false` (`--no-trace`) makes
    /// [`start_trace`](Telemetry::start_trace) a no-op returning `None`;
    /// `stall_us` arms the watchdog (0 disables), `reactors` sizes the
    /// in-flight registry, `node` names this process in propagated trace
    /// contexts.
    pub fn new(
        enabled: bool,
        ring_capacity: usize,
        slow_threshold_us: u64,
        stall_us: u64,
        reactors: usize,
        node: String,
    ) -> Telemetry {
        Telemetry {
            enabled,
            flight: FlightRecorder::new(ring_capacity, slow_threshold_us),
            next_trace_id: AtomicU64::new(1),
            node,
            stall_us,
            in_flight: (0..reactors.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Allocates a trace for a freshly parsed request (or `None` under
    /// `--no-trace`).
    pub fn start_trace(&self, method: &str, path: &str) -> Option<Arc<Trace>> {
        if !self.enabled {
            return None;
        }
        let id = self.next_trace_id.fetch_add(1, Ordering::Relaxed);
        Some(Arc::new(Trace::new(id, method, path)))
    }

    /// Allocates a *child* trace descending from a cross-node parent
    /// context (a follower's apply span for a replicated record).
    pub fn start_child_trace(&self, method: &str, path: &str, ctx: TraceCtx) -> Option<Arc<Trace>> {
        if !self.enabled {
            return None;
        }
        let id = self.next_trace_id.fetch_add(1, Ordering::Relaxed);
        Some(Arc::new(Trace::with_ctx(id, method, path, Some(ctx))))
    }

    /// Whether traces are being allocated.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// This node's identity in propagated trace contexts.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The stall-watchdog threshold in microseconds (0 = disabled).
    pub fn stall_us(&self) -> u64 {
        self.stall_us
    }

    /// Registers a pooled in-flight trace with `reactor`'s watchdog slot.
    pub fn track(&self, reactor: usize, trace: &Arc<Trace>) {
        if self.stall_us == 0 {
            return;
        }
        self.in_flight[reactor % self.in_flight.len()]
            .lock()
            .expect("in-flight slot lock")
            .insert(trace.id, Arc::clone(trace));
    }

    /// Drops a trace from the watchdog registry (its completion reached
    /// the reactor — response-write stalls are covered by write
    /// deadlines, not the watchdog).
    pub fn untrack(&self, reactor: usize, id: u64) {
        if self.stall_us == 0 {
            return;
        }
        self.in_flight[reactor % self.in_flight.len()]
            .lock()
            .expect("in-flight slot lock")
            .remove(&id);
    }

    /// Sweeps `reactor`'s in-flight traces: any request older than the
    /// stall threshold is snapshotted once — stage stamps so far plus
    /// queue depth, reactor id, and the degraded flag — into the flight
    /// recorder, and a `stall_detected` log record fires. Returns how
    /// many new stalls were caught.
    pub fn sweep_stalls(&self, reactor: usize, queue_depth: u64, degraded: bool) -> u64 {
        if self.stall_us == 0 {
            return 0;
        }
        let mut wedged = Vec::new();
        {
            let slot = self.in_flight[reactor % self.in_flight.len()]
                .lock()
                .expect("in-flight slot lock");
            for t in slot.values() {
                if t.elapsed_us() >= self.stall_us && t.mark_stalled() {
                    wedged.push(Arc::clone(t));
                }
            }
        }
        let n = wedged.len() as u64;
        for t in wedged {
            let mut snap = t.finish();
            snap.extra = format!(
                ",\"stalled\":true,\"reactor\":{reactor},\"queue_depth\":{queue_depth},\"degraded\":{degraded}"
            );
            let elapsed = snap.total_us.max(t.elapsed_us());
            self.flight.record(snap);
            obs_log::warn(
                "stall_detected",
                &[
                    ("id", obs_log::Value::U64(t.id)),
                    ("method", obs_log::Value::Str(&t.method)),
                    ("path", obs_log::Value::Str(&t.path)),
                    ("elapsed_us", obs_log::Value::U64(elapsed)),
                    ("reactor", obs_log::Value::U64(reactor as u64)),
                    ("queue_depth", obs_log::Value::U64(queue_depth)),
                    ("degraded", obs_log::Value::Bool(degraded)),
                ],
            );
        }
        n
    }

    /// Records a completed trace into the flight recorder; slow traces
    /// additionally produce a structured `slow_request` log record.
    pub fn finish(&self, trace: &Trace) -> sns_obs::CompletedTrace {
        let done = trace.finish();
        if self.flight.record(done.clone()) {
            obs_log::info(
                "slow_request",
                &[
                    ("id", obs_log::Value::U64(done.id)),
                    ("method", obs_log::Value::Str(&done.method)),
                    ("path", obs_log::Value::Str(&done.path)),
                    ("status", obs_log::Value::U64(u64::from(done.status))),
                    ("total_us", obs_log::Value::U64(done.total_us)),
                ],
            );
        }
        done
    }
}

/// Shared server state handed to every worker.
pub struct ServerState {
    /// The session store.
    pub store: SessionStore,
    /// Request statistics.
    pub stats: ServerStats,
    /// Tracing + flight-recorder state.
    pub telemetry: Telemetry,
    /// Per-session event timelines (`GET /debug/sessions/:id/timeline`).
    pub timelines: Arc<Timelines>,
    /// Server start time (for uptime reporting).
    pub started: Instant,
    /// Live sessions one IP may hold before `POST /sessions` answers 429
    /// (0 disables the quota).
    pub max_sessions_per_ip: usize,
    /// Durable (on-disk) sessions one IP may hold before `POST /sessions`
    /// answers 429 (0 disables the quota). Unlike the resident quota,
    /// demotion does not release these slots — this is the disk bound.
    pub max_durable_per_ip: usize,
    /// When set, every route except `GET /healthz` requires
    /// `Authorization: Bearer <token>`.
    pub auth_token: Option<String>,
    /// Replication role: a follower answers writes with 421 until
    /// promoted; a leader streaming to followers publishes lag gauges.
    pub repl: Arc<ReplControl>,
    /// Fault-injection handle (disabled unless the server was armed with
    /// a `--fault-plan`; always disabled in release builds). The follower
    /// apply loop reads its `repl.apply` point from here.
    pub faults: sns_faults::Faults,
}

fn error_response(status: u16, msg: &str) -> Response {
    Response::json(status, Json::obj([("error", Json::str(msg))]).to_string())
}

fn ok_json(status: u16, body: Json) -> Response {
    match body {
        // Already JSON text: it becomes the body as it is.
        Json::Raw(text) => Response::json(status, text),
        body => Response::json(status, body.to_string()),
    }
}

/// Constant-time byte comparison: the work done is independent of where
/// the first mismatch occurs, so response timing does not leak a token
/// prefix. (Token *length* is not concealed; tokens should be
/// high-entropy, not short secrets padded by obscurity.) Shared with the
/// replication handshake's token check.
pub(crate) fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// 401 challenge for a missing or wrong bearer token.
fn unauthorized() -> Response {
    error_response(401, "missing or invalid bearer token")
        .with_header("WWW-Authenticate", "Bearer realm=\"sns\"")
}

/// Whether a request mutates session state — what a follower refuses.
fn is_write(method: &str, segments: &[&str]) -> bool {
    matches!(
        (method, segments),
        ("POST", ["sessions"])
            | ("PUT", ["sessions", _, "code"])
            | ("POST", ["sessions", _, "drag" | "commit" | "reconcile"])
            | ("DELETE", ["sessions", _])
    )
}

/// 421 for a write that landed on a read-only follower: the client is
/// told where the leader is (as learned from its `welcome` message) both
/// in the body and an `X-SNS-Leader` header.
fn follower_redirect(state: &Arc<ServerState>) -> Response {
    let leader = state.repl.leader_http().unwrap_or_default();
    let resp = Response::json(
        421,
        Json::obj([
            (
                "error",
                Json::str("this node is a read-only replication follower"),
            ),
            ("leader", Json::str(leader.clone())),
        ])
        .to_string(),
    );
    if leader.is_empty() {
        resp
    } else {
        resp.with_header("X-SNS-Leader", leader)
    }
}

/// `POST /promote`: asks the follower loop to drain the stream and start
/// accepting writes; blocks (bounded) until the flip is visible.
/// Idempotent — promoting a leader reports `promoted: false`.
fn promote(state: &Arc<ServerState>) -> Response {
    if !state.repl.is_follower() {
        return ok_json(
            200,
            Json::obj([
                ("role", Json::str("leader")),
                ("promoted", Json::Bool(false)),
            ]),
        );
    }
    state.repl.request_promote();
    if state.repl.wait_promoted(Duration::from_secs(10)) {
        ok_json(
            200,
            Json::obj([
                ("role", Json::str("leader")),
                ("promoted", Json::Bool(true)),
            ]),
        )
    } else {
        error_response(
            503,
            "promotion pending: still draining the replication stream",
        )
        .with_header("Retry-After", "1")
    }
}

/// The request path split into its non-empty segments.
fn segments(request: &Request) -> Vec<&str> {
    request
        .path
        .trim_end_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect()
}

/// Why a request is refused before its route runs.
enum Refusal {
    /// Missing or wrong bearer token.
    Unauthorized,
    /// A write on a read-only replication follower.
    Follower,
    /// A write while the journal is degraded.
    Degraded,
}

/// The checks every request passes before its route runs, in order:
/// bearer auth, the follower's read-only gate, and the degraded journal's
/// read-only gate. Shared by [`dispatch`] and [`inline`]. It has no side
/// effects; [`refuse`] answers a refusal.
fn refusal(state: &ServerState, request: &Request, segments: &[&str]) -> Option<Refusal> {
    if let Some(token) = &state.auth_token {
        // Health stays open so liveness probes don't need the secret.
        let is_health = request.method == "GET" && segments == ["healthz"];
        // RFC 7235: the auth-scheme token is case-insensitive (`bearer`,
        // `BEARER`, … are all legal); only the token itself is compared
        // byte-exactly (and in constant time).
        let authed = request
            .header("authorization")
            .and_then(|h| h.split_once(' '))
            .filter(|(scheme, _)| scheme.eq_ignore_ascii_case("bearer"))
            .is_some_and(|(_, presented)| {
                constant_time_eq(presented.trim_start().as_bytes(), token.as_bytes())
            });
        if !is_health && !authed {
            return Some(Refusal::Unauthorized);
        }
    }
    // Follower read-only gate: reads (canvas/code/stats) are served
    // locally; writes are misdirected — the leader's address is in the
    // response. Promotion itself must of course pass.
    if state.repl.is_follower() && is_write(&request.method, segments) {
        return Some(Refusal::Follower);
    }
    // Degraded read-only gate: the journal backend has suspended appends
    // after persistent disk failures. Reads keep flowing from memory;
    // writes are refused with a retry hint rather than an opaque 500,
    // because the backend's probe re-arms appends on its own once the
    // disk recovers (see docs/robustness.md).
    if state.store.backend().degraded() && is_write(&request.method, segments) {
        return Some(Refusal::Degraded);
    }
    None
}

/// The response to a refused request.
fn refuse(state: &Arc<ServerState>, segments: &[&str], why: Refusal) -> Response {
    match why {
        Refusal::Unauthorized => unauthorized(),
        Refusal::Follower => follower_redirect(state),
        Refusal::Degraded => {
            // Terminal stamp: a rejected write never reaches the journal
            // stages but must not vanish from the flight recorder.
            stamp_current(Stage::RejectedDegraded);
            if let ["sessions", id, ..] = segments {
                state
                    .timelines
                    .record(id, TimelineKind::RejectedDegraded, "");
            }
            error_response(
                503,
                "journal degraded: node is read-only until the disk recovers",
            )
            .with_header("Retry-After", "1")
        }
    }
}

/// Dispatches one parsed request against the state. `peer` is the client
/// address the reactor accepted the connection from (quota accounting).
pub fn dispatch(state: &Arc<ServerState>, request: &Request, peer: IpAddr) -> Response {
    let segments = segments(request);
    if let Some(why) = refusal(state, request, &segments) {
        return refuse(state, &segments, why);
    }
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => ok_json(
            200,
            Json::obj([
                ("ok", Json::Bool(true)),
                ("degraded", Json::Bool(state.store.backend().degraded())),
                ("version", Json::str(crate::stats::VERSION)),
                ("git_sha", Json::str(crate::stats::GIT_SHA)),
            ]),
        ),
        ("POST", ["promote"]) => promote(state),
        ("GET", ["stats"]) => stats(state),
        ("GET", ["metrics"]) => metrics(state),
        ("GET", ["debug", "traces"]) => debug_traces(state),
        ("GET", ["debug", "sessions", id, "timeline"]) => match state.timelines.render_jsonl(id) {
            Some(body) => Response::with_body(200, "application/x-ndjson", body),
            None => error_response(404, "no timeline for that session"),
        },
        ("POST", ["sessions"]) => create_session(state, &request.body, peer),
        ("GET", ["sessions", id, "canvas"]) => {
            with_session(state, id, |s| Ok(Json::Raw(s.canvas_body())))
        }
        ("GET", ["sessions", id, "code"]) => with_session(state, id, |s| {
            Ok(Json::obj([("code", Json::str(s.code()))]))
        }),
        ("PUT", ["sessions", id, "code"]) => set_code(state, id, &request.body),
        ("POST", ["sessions", id, "drag"]) => drag(state, id, &request.body),
        ("POST", ["sessions", id, "commit"]) => {
            with_session_ev(state, id, Some(TimelineKind::Commit), |s| {
                s.commit()?;
                Ok(commit_reply(s))
            })
        }
        ("POST", ["sessions", id, "reconcile"]) => reconcile(state, id, &request.body),
        ("DELETE", ["sessions", id]) => match state.store.remove(id) {
            Ok(true) => {
                state.timelines.record(id, TimelineKind::Deleted, "");
                ok_json(200, Json::obj([("deleted", Json::Bool(true))]))
            }
            Ok(false) => error_response(404, "no such session"),
            Err(e) => error_response(500, &format!("durability failure: {e}")),
        },
        ("GET" | "POST" | "PUT" | "DELETE", _) => error_response(404, "no such route"),
        _ => error_response(405, "method not allowed"),
    }
}

/// Answers a request on the reactor's own thread, bypassing the worker
/// pool, or returns `None` to send it to the pool unchanged. Three kinds
/// of request qualify:
///
/// * `GET /healthz`, `/stats` and `/metrics`, so liveness and telemetry
///   stay readable when the pool queue is full (a saturated server must
///   still answer its probes). They are read-only and never touch a
///   session lock.
/// * `POST /sessions/:id/drag` when the step needs no evaluation and no
///   commit (see [`inline_drag`]), and
/// * `POST /sessions/:id/commit` when it is a fast-tier commit with
///   nothing to journal (see [`inline_commit`]). Each then costs about as
///   much as the hand-off to a worker and back would.
///
/// The reactor installs the request's trace as the current one around
/// this call; the route stamps `Dispatched` once it is committed to
/// answering (a commit stamps it before its fast step, and a declined one
/// is stamped again by the worker).
pub fn inline(state: &Arc<ServerState>, request: &Request, peer: IpAddr) -> Option<Response> {
    let segments = segments(request);
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz" | "stats" | "metrics"]) => {
            stamp_current(Stage::Dispatched);
            Some(dispatch(state, request, peer))
        }
        ("POST", ["sessions", id, "drag"]) if refusal(state, request, &segments).is_none() => {
            inline_drag(state, request, id)
        }
        // The durable check comes first, so a journaled commit pays for
        // nothing but it on its way to the pool.
        ("POST", ["sessions", id, "commit"])
            if !state.store.backend().durable() && refusal(state, request, &segments).is_none() =>
        {
            inline_commit(state, id)
        }
        _ => None,
    }
}

/// Serves a drag on the reactor thread if, and only if, nothing in it can
/// block or run long:
///
/// * the session is resident (a demoted one would have to be faulted in
///   from disk and re-prepared);
/// * its lock is free (the reactor never waits on a session lock);
/// * the drag continues the in-flight drag or starts one, so no implicit
///   commit (journal append, fsync, replication ack, re-prepare) runs;
/// * the session's live sync proves every step on that zone without
///   evaluating ([`Session::drag_is_proof_only`]).
///
/// Otherwise `None`; a malformed body also goes to the pool, which
/// answers it with the same 400.
fn inline_drag(state: &Arc<ServerState>, request: &Request, id: &str) -> Option<Response> {
    let (shape, zone, dx, dy) = drag_args(&request.body).ok()?;
    let session = state.store.get_resident(id)?;
    let guard = session.try_lock().ok()?;
    if !guard.drag_is_proof_only(shape, zone) {
        return None;
    }
    stamp_current(Stage::Dispatched);
    state.stats.record_inline_drag();
    Some(run_locked(
        state,
        id,
        Some(TimelineKind::Drag),
        guard,
        |s| s.drag(shape, zone, dx, dy),
    ))
}

/// Serves a commit on the reactor thread if, and only if, it is the
/// fast tier's sweep and nothing more, on a store that journals nothing
/// ([`inline`] checks that): the session is resident, its lock is free,
/// it is not deleted, and [`Session::commit_fast`] takes the pending
/// update (it avoids every escaped location and the tape sweeps under
/// it). Otherwise `None`, with the session untouched, and the pool runs
/// [`Session::commit`]. The reply is the pool's, through [`run_locked`].
fn inline_commit(state: &Arc<ServerState>, id: &str) -> Option<Response> {
    let session = state.store.get_resident(id)?;
    let mut guard = session.try_lock().ok()?;
    stamp_current(Stage::Dispatched);
    if !guard.commit_fast() {
        return None;
    }
    state.stats.record_inline_commit();
    Some(run_locked(
        state,
        id,
        Some(TimelineKind::Commit),
        guard,
        |s| Ok(commit_reply(s)),
    ))
}

/// The reply to a commit, `{"code":…}` with the committed program's
/// text: the cached text is escaped straight into the body, with no copy
/// of it and no JSON tree.
fn commit_reply(session: &Session) -> Json {
    let code = session.editor().program().code_str();
    let mut body = String::with_capacity(code.len() + "{\"code\":\"\"}".len());
    body.push_str("{\"code\":");
    json::write_str(&mut body, code).expect("writing to a String cannot fail");
    body.push('}');
    Json::Raw(body)
}

/// `GET /metrics`: the whole registry as Prometheus text exposition.
fn metrics(state: &Arc<ServerState>) -> Response {
    Response::with_body(
        200,
        "text/plain; version=0.0.4",
        state.stats.render_prometheus(),
    )
}

/// `GET /stats`: the same registry as one flat JSON object.
fn stats(state: &Arc<ServerState>) -> Response {
    Response::json(200, state.stats.render_json())
}

/// `GET /debug/traces`: recent + slow completed traces as JSONL.
fn debug_traces(state: &Arc<ServerState>) -> Response {
    Response::with_body(
        200,
        "application/x-ndjson",
        state.telemetry.flight.dump_jsonl(),
    )
}

fn parse_body(body: &[u8]) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(body).map_err(|_| error_response(400, "request body is not UTF-8"))?;
    json::parse(text).map_err(|e| error_response(400, &format!("malformed JSON: {e}")))
}

/// 429 with a Retry-After hint: the quota frees up as the client's other
/// sessions are deleted or age out of the LRU, not on a fixed clock, so
/// the hint is a polite backoff, not a promise.
fn quota_response(state: &Arc<ServerState>) -> Response {
    state.stats.record_quota_rejection();
    error_response(429, "per-IP session quota reached").with_header("Retry-After", "1")
}

/// 429 for the durable bound. No Retry-After: durable slots free only on
/// explicit DELETE, never by waiting.
fn durable_quota_response(state: &Arc<ServerState>) -> Response {
    state.stats.record_quota_rejection();
    error_response(
        429,
        "per-IP durable-session quota reached; DELETE a session to free a slot",
    )
}

fn create_session(state: &Arc<ServerState>, body: &[u8], peer: IpAddr) -> Response {
    let quota = state.max_sessions_per_ip;
    let durable_quota = state.max_durable_per_ip;
    // Cheap pre-checks: a client at quota is refused before its program
    // text is parsed or evaluated.
    if quota > 0 && state.store.ip_sessions(peer) >= quota {
        return quota_response(state);
    }
    if durable_quota > 0
        && state.store.backend().durable()
        && state.store.backend().durable_sessions_of(peer) >= durable_quota
    {
        return durable_quota_response(state);
    }
    let body = match parse_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let source = if let Some(src) = body.get("source").and_then(Json::as_str) {
        src.to_string()
    } else if let Some(slug) = body.get("example").and_then(Json::as_str) {
        match sns_examples::by_slug(slug) {
            Some(ex) => ex.source.to_string(),
            None => return error_response(404, &format!("no corpus example named `{slug}`")),
        }
    } else {
        return error_response(400, "body must carry `source` or `example`");
    };
    let id = state.store.fresh_id();
    match Session::create(id.clone(), &source) {
        Ok(mut session) => {
            stamp_current(Stage::PrepareDone);
            let code = session.code();
            let canvas = Json::Raw(session.canvas_body());
            let live_delta = session.live_stats_delta();
            // Authoritative quota check: the insert itself is atomic with
            // the per-IP count, so concurrent creates cannot sneak past.
            // (Cache counters fold in only on success — a rejected
            // session's work must not skew the /stats hit rates.)
            match state
                .store
                .try_insert(session, Some(peer), quota, durable_quota)
            {
                Ok(_) => {}
                Err(InsertError::Quota) => return quota_response(state),
                Err(InsertError::DurableQuota) => return durable_quota_response(state),
                Err(InsertError::Journal(e)) => {
                    return error_response(500, &format!("durability failure: {e}"))
                }
            }
            state.stats.record_live(live_delta);
            state.timelines.record(
                &id,
                TimelineKind::Created,
                prepare_detail(TimelineKind::Created, &live_delta),
            );
            ok_json(
                201,
                Json::obj([
                    ("id", Json::str(id)),
                    ("code", Json::str(code)),
                    ("canvas", canvas),
                ]),
            )
        }
        Err(e) => error_response(e.status, &e.msg),
    }
}

/// Runs `f` against the locked session, translating failures to HTTP.
fn with_session(
    state: &Arc<ServerState>,
    id: &str,
    f: impl FnOnce(&mut Session) -> Result<Json, crate::session::SessionError>,
) -> Response {
    with_session_ev(state, id, None, f)
}

/// [`with_session`] plus a timeline event: when `f` succeeds and `ev` is
/// set, the session's timeline records the event with a detail string
/// derived from the live-stats delta (which prepare tier ran, whether a
/// fallback fired).
fn with_session_ev(
    state: &Arc<ServerState>,
    id: &str,
    ev: Option<TimelineKind>,
    f: impl FnOnce(&mut Session) -> Result<Json, crate::session::SessionError>,
) -> Response {
    let Some(session) = state.store.get(id) else {
        return error_response(404, "no such session");
    };
    let guard = match session.lock() {
        Ok(g) => g,
        // A worker panicked mid-request (a bug, not a client error); the
        // in-memory state may be inconsistent, so drop it — but only from
        // memory. The durable copy holds the last *acknowledged* state,
        // so the next request re-materializes the session intact instead
        // of a server bug permanently deleting a user's work.
        Err(_) => {
            state.store.discard_resident(id);
            return error_response(500, "session poisoned; discarded");
        }
    };
    run_locked(state, id, ev, guard, f)
}

/// Runs `f` against an already-locked session: the part of
/// [`with_session_ev`] that the reactor's inline drags and commits share.
fn run_locked(
    state: &Arc<ServerState>,
    id: &str,
    ev: Option<TimelineKind>,
    mut guard: MutexGuard<'_, Session>,
    f: impl FnOnce(&mut Session) -> Result<Json, crate::session::SessionError>,
) -> Response {
    // A handler that fetched the Arc just before a DELETE journaled the
    // session away must not touch it: mutating a tombstoned session would
    // re-journal it into existence.
    if guard.is_deleted() {
        return error_response(404, "no such session");
    }
    guard.requests += 1;
    let result = f(&mut guard);
    let delta = guard.live_stats_delta();
    drop(guard);
    state.stats.record_live(delta);
    if result.is_ok() {
        if let Some(kind) = ev {
            state
                .timelines
                .record(id, kind, prepare_detail(kind, &delta));
        }
    }
    match result {
        Ok(v) => ok_json(200, v),
        Err(e) => error_response(e.status, &e.msg),
    }
}

/// Every prepare detail of [`prepare_detail`], by tier (`partial`,
/// `incremental`, `full`, `none`), then fallback (none, `escaped`,
/// `structural`, `reconcile`).
macro_rules! prepare_details {
    ($($tier:literal),*) => {
        [$([
            concat!("tier=", $tier),
            concat!("tier=", $tier, " fallback=escaped"),
            concat!("tier=", $tier, " fallback=structural"),
            concat!("tier=", $tier, " fallback=reconcile"),
        ]),*]
    };
}
const PREPARE_DETAILS: [[&str; 4]; 4] = prepare_details!("partial", "incremental", "full", "none");

/// Derives a timeline detail string from a live-stats delta: the prepare
/// tier the operation took and any fallback reason. Drags carry the eval
/// path instead (a tier proof without evaluation vs full re-eval). Every
/// detail is a constant, so recording one allocates nothing.
fn prepare_detail(kind: TimelineKind, d: &LiveStats) -> &'static str {
    if kind == TimelineKind::Drag {
        return if d.full_evals > 0 {
            "eval=full"
        } else {
            "eval=fast"
        };
    }
    let tier = if d.partial_prepares > 0 {
        0
    } else if d.incremental_prepares > 0 {
        1
    } else if d.full_prepares > 0 {
        2
    } else {
        3
    };
    let fallback = if d.fallback_escaped > 0 {
        1
    } else if d.fallback_structural > 0 {
        2
    } else if d.fallback_reconcile > 0 {
        3
    } else {
        0
    };
    PREPARE_DETAILS[tier][fallback]
}

fn set_code(state: &Arc<ServerState>, id: &str, body: &[u8]) -> Response {
    let body = match parse_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(source) = body
        .get("source")
        .and_then(Json::as_str)
        .map(str::to_string)
    else {
        return error_response(400, "body must carry `source`");
    };
    with_session_ev(state, id, Some(TimelineKind::SetCode), |s| {
        s.set_code(&source)
    })
}

fn field_f64(body: &Json, key: &str) -> Result<f64, Response> {
    body.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| error_response(400, &format!("missing numeric field `{key}`")))
}

/// A drag body's shape, zone, and total offsets, or the 400 answering it.
fn drag_args(body: &[u8]) -> Result<(ShapeId, Zone, f64, f64), Response> {
    let body = parse_body(body)?;
    let shape = ShapeId(field_f64(&body, "shape")? as usize);
    let zone: Zone = match body.get("zone").and_then(Json::as_str) {
        Some(z) => z
            .parse()
            .map_err(|e| error_response(400, &format!("{e}")))?,
        None => return Err(error_response(400, "missing string field `zone`")),
    };
    Ok((
        shape,
        zone,
        field_f64(&body, "dx")?,
        field_f64(&body, "dy")?,
    ))
}

fn drag(state: &Arc<ServerState>, id: &str, body: &[u8]) -> Response {
    let (shape, zone, dx, dy) = match drag_args(body) {
        Ok(args) => args,
        Err(resp) => return resp,
    };
    with_session_ev(state, id, Some(TimelineKind::Drag), |s| {
        s.drag(shape, zone, dx, dy)
    })
}

/// Attribute whitelist shared with the CLI's `reconcile` command.
fn plain_attr(name: &str) -> Option<AttrRef> {
    Some(AttrRef::Plain(match name {
        "x" => "x",
        "y" => "y",
        "width" => "width",
        "height" => "height",
        "cx" => "cx",
        "cy" => "cy",
        "r" => "r",
        "rx" => "rx",
        "ry" => "ry",
        "x1" => "x1",
        "y1" => "y1",
        "x2" => "x2",
        "y2" => "y2",
        _ => return None,
    }))
}

fn reconcile(state: &Arc<ServerState>, id: &str, body: &[u8]) -> Response {
    let body = match parse_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(items) = body.get("edits").and_then(Json::as_arr) else {
        return error_response(400, "missing array field `edits`");
    };
    let mut edits = Vec::with_capacity(items.len());
    for item in items {
        let shape = match field_f64(item, "shape") {
            Ok(v) => ShapeId(v as usize),
            Err(resp) => return resp,
        };
        let attr = match item.get("attr").and_then(Json::as_str).and_then(plain_attr) {
            Some(a) => a,
            None => return error_response(400, "each edit needs a supported `attr`"),
        };
        let new_value = match field_f64(item, "value") {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        edits.push(OutputEdit {
            shape,
            attr,
            new_value,
        });
    }
    with_session_ev(state, id, Some(TimelineKind::Commit), |s| {
        s.reconcile(&edits)
    })
}
