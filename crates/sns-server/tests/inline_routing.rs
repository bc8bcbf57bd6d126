//! Which drags and commits the reactor answers on its own thread, and
//! that doing so never changes a reply.
//!
//! Each test drives two twin sessions over the same program: the
//! reference twin only through `routes::dispatch` (the worker pool's
//! path), the other through `routes::inline` first, falling back to
//! `dispatch` when the inline path declines. Every reply must match the
//! reference byte for byte, and the inline path must take exactly the
//! proof-only drags (a resident, unlocked session, no implicit commit,
//! and a zone whose trigger locations never escape) and the fast-tier
//! commits with nothing to journal (a resident, unlocked session whose
//! pending update avoids every escaped location).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_server::http::{Request, Response};
use sns_server::json::{self, Json};
use sns_server::persist::{JournalGauges, Op};
use sns_server::routes::{self, ServerState, Telemetry};
use sns_server::session::Session;
use sns_server::stats::ServerStats;
use sns_server::store::SessionStore;
use sns_server::timeline::Timelines;
use sns_server::{
    JournalBackend, JournalConfig, ReplControl, Server, ServerConfig, SessionBackend,
};

/// Shape 0's x flows through a comparison (it escapes); shape 1's
/// numbers do not.
const PROGRAM: &str = "(def x 100) \
    (svg [(rect 'blue' (if (< x 300!) x 0) 50 40 30) (rect 'red' 10 20 30 40)])";

const PEER: IpAddr = IpAddr::V4(Ipv4Addr::LOCALHOST);

fn state(follower: bool, auth_token: Option<&str>) -> Arc<ServerState> {
    state_on(SessionStore::new(64), follower, auth_token)
}

fn state_on(store: SessionStore, follower: bool, auth_token: Option<&str>) -> Arc<ServerState> {
    Arc::new_cyclic(|state| ServerState {
        store,
        stats: ServerStats::with_reactors(1, state),
        telemetry: Telemetry::new(true, 64, u64::MAX, 0, 1, "local".to_string()),
        timelines: Arc::new(Timelines::new()),
        started: Instant::now(),
        max_sessions_per_ip: 0,
        max_durable_per_ip: 0,
        auth_token: auth_token.map(str::to_string),
        repl: Arc::new(ReplControl::new(follower)),
        faults: sns_faults::Faults::disabled(),
    })
}

fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

fn dispatch(state: &Arc<ServerState>, req: &Request) -> Response {
    routes::dispatch(state, req, PEER)
}

fn create(state: &Arc<ServerState>) -> String {
    let body = Json::obj([("source", Json::str(PROGRAM))]).to_string();
    let resp = dispatch(state, &request("POST", "/sessions", &body));
    assert_eq!(resp.status, 201);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    v.get("id").unwrap().as_str().unwrap().to_string()
}

/// A counter from `/stats`.
fn stat(state: &ServerState, key: &str) -> f64 {
    let v = json::parse(&state.stats.render_json()).unwrap();
    v.get(key).and_then(Json::as_f64).unwrap()
}

fn drags_inline(state: &ServerState) -> f64 {
    stat(state, "drags_inline")
}

fn commits_inline(state: &ServerState) -> f64 {
    stat(state, "commits_inline")
}

/// A session's timeline, event kinds and details only (times differ).
fn timeline(state: &ServerState, id: &str) -> Vec<String> {
    let jsonl = state.timelines.render_jsonl(id).unwrap_or_default();
    jsonl
        .lines()
        .map(|line| {
            let v = json::parse(line).unwrap();
            let field = |k: &str| v.get(k).map(Json::to_string).unwrap_or_default();
            format!("{} {} {}", field("kind"), field("count"), field("detail"))
        })
        .collect()
}

/// Twin sessions: `subject` is served inline whenever the route allows,
/// `reference` always goes through `dispatch`.
struct Twins {
    state: Arc<ServerState>,
    subject: String,
    reference: String,
}

impl Twins {
    fn new() -> Twins {
        Twins::on(state(false, None))
    }

    fn on(state: Arc<ServerState>) -> Twins {
        let subject = create(&state);
        let reference = create(&state);
        Twins {
            state,
            subject,
            reference,
        }
    }

    /// The subject's reply, from the inline path when it takes the
    /// request (then `true`), else from the pool's.
    fn serve(&self, req: &Request) -> (Response, bool) {
        match routes::inline(&self.state, req, PEER) {
            Some(resp) => (resp, true),
            None => (dispatch(&self.state, req), false),
        }
    }

    /// Drags both twins; returns whether the subject's drag was served
    /// inline. Both replies must be identical.
    fn drag(&self, shape: usize, zone: &str, dx: f64) -> bool {
        let body = format!("{{\"shape\":{shape},\"zone\":\"{zone}\",\"dx\":{dx},\"dy\":1}}");
        let req = request("POST", &format!("/sessions/{}/drag", self.subject), &body);
        let (got, inlined) = self.serve(&req);
        let reference = request("POST", &format!("/sessions/{}/drag", self.reference), &body);
        self.assert_same(&got, &dispatch(&self.state, &reference));
        inlined
    }

    /// Commits both twins; returns whether the subject's commit was
    /// served inline. Both replies, and then both sessions, must be
    /// identical.
    fn commit(&self) -> bool {
        let commit = |id: &str| request("POST", &format!("/sessions/{id}/commit"), "");
        let (got, inlined) = self.serve(&commit(&self.subject));
        self.assert_same(&got, &dispatch(&self.state, &commit(&self.reference)));
        self.assert_twins();
        inlined
    }

    /// Both twins read the same over the API, and their timelines record
    /// the same events.
    fn assert_twins(&self) {
        for what in ["canvas", "code"] {
            let read = |id: &str| {
                dispatch(
                    &self.state,
                    &request("GET", &format!("/sessions/{id}/{what}"), ""),
                )
            };
            self.assert_same(&read(&self.subject), &read(&self.reference));
        }
        assert_eq!(
            timeline(&self.state, &self.subject),
            timeline(&self.state, &self.reference)
        );
    }

    fn assert_same(&self, got: &Response, want: &Response) {
        assert_eq!(got.status, want.status);
        assert_eq!(
            String::from_utf8_lossy(&got.body),
            String::from_utf8_lossy(&want.body)
        );
    }
}

#[test]
fn proof_only_drags_are_inline_and_the_rest_go_to_the_pool() {
    let twins = Twins::new();
    // Shape 1's interior never escapes: served inline, step after step.
    assert!(twins.drag(1, "Interior", 5.0));
    assert!(twins.drag(1, "Interior", 9.0));
    assert_eq!(drags_inline(&twins.state), 2.0);
    // A zone switch commits the in-flight drag first: pool.
    assert!(!twins.drag(1, "RightEdge", 3.0));
    // Shape 0's x escapes into a comparison: pool, whether or not the
    // drag also switches zones.
    assert!(!twins.drag(0, "Interior", 4.0));
    assert!(!twins.drag(0, "Interior", 12.0));
    twins.commit();
    // After the commit a new drag on a proof-only zone is inline again.
    assert!(twins.drag(1, "Interior", -2.0));
    twins.commit();
    assert_eq!(drags_inline(&twins.state), 3.0);
}

#[test]
fn a_locked_session_goes_to_the_pool() {
    let twins = Twins::new();
    twins.drag(1, "Interior", 5.0);
    let session = twins.state.store.get(&twins.subject).unwrap();
    let (locked_tx, locked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        let _guard = session.lock().unwrap();
        locked_tx.send(()).unwrap();
        release_rx.recv().unwrap();
    });
    locked_rx.recv().unwrap();
    let body = "{\"shape\":1,\"zone\":\"Interior\",\"dx\":7,\"dy\":1}";
    let req = request("POST", &format!("/sessions/{}/drag", twins.subject), body);
    assert!(routes::inline(&twins.state, &req, PEER).is_none());
    release_tx.send(()).unwrap();
    holder.join().unwrap();
    // The pool then serves it exactly as the reference.
    let reference = request("POST", &format!("/sessions/{}/drag", twins.reference), body);
    twins.assert_same(
        &dispatch(&twins.state, &req),
        &dispatch(&twins.state, &reference),
    );
    twins.commit();
}

#[test]
fn refused_and_unroutable_drags_go_to_the_pool() {
    let body = "{\"shape\":1,\"zone\":\"Interior\",\"dx\":7,\"dy\":1}";
    let inline = |state: &Arc<ServerState>, req: &Request| {
        routes::inline(state, req, PEER).map(|r| r.status)
    };
    // Missing bearer token: the pool answers 401.
    let authed = state(false, Some("secret"));
    let mut create_req = request(
        "POST",
        "/sessions",
        &Json::obj([("source", Json::str(PROGRAM))]).to_string(),
    );
    create_req
        .headers
        .push(("authorization".into(), "Bearer secret".into()));
    let resp = dispatch(&authed, &create_req);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let id = v.get("id").unwrap().as_str().unwrap();
    let drag = request("POST", &format!("/sessions/{id}/drag"), body);
    assert_eq!(inline(&authed, &drag), None);
    assert_eq!(dispatch(&authed, &drag).status, 401);
    // A follower refuses writes with 421 — from the pool.
    let follower = state(true, None);
    let drag = request("POST", "/sessions/whatever/drag", body);
    assert_eq!(inline(&follower, &drag), None);
    assert_eq!(dispatch(&follower, &drag).status, 421);
    // Unknown sessions and malformed bodies: the pool's 404 and 400.
    let plain = state(false, None);
    assert_eq!(inline(&plain, &drag), None);
    assert_eq!(dispatch(&plain, &drag).status, 404);
    let id = create(&plain);
    let bad = request("POST", &format!("/sessions/{id}/drag"), "{\"shape\":1}");
    assert_eq!(inline(&plain, &bad), None);
    assert_eq!(dispatch(&plain, &bad).status, 400);
    // Probes stay inline; every other route goes to the pool.
    assert_eq!(inline(&plain, &request("GET", "/healthz", "")), Some(200));
    assert_eq!(inline(&plain, &request("GET", "/stats/", "")), Some(200));
    let code = request("GET", &format!("/sessions/{id}/code"), "");
    assert_eq!(inline(&plain, &code), None);
    assert_eq!(drags_inline(&plain), 0.0);
}

/// `/stats`' count of full-prepare fallbacks because a commit touched an
/// escaped location.
fn fallback_escaped(state: &ServerState) -> f64 {
    let v = json::parse(&state.stats.render_json()).unwrap();
    let family = v.get("prepare_fallback").unwrap();
    family.get("escaped").and_then(Json::as_f64).unwrap()
}

#[test]
fn fast_tier_commits_are_inline_and_the_rest_go_to_the_pool() {
    let twins = Twins::new();
    // A proof-only drag's update takes the fast tier: inline.
    assert!(twins.drag(1, "Interior", 5.0));
    assert!(twins.commit());
    assert_eq!(commits_inline(&twins.state), 1.0);
    // An update that touches an escaped location needs a full prepare:
    // the pool runs it, and both twins count the fallback.
    assert!(!twins.drag(0, "Interior", 4.0));
    assert!(!twins.commit());
    assert_eq!(fallback_escaped(&twins.state), 2.0);
    // With no drag in flight there is nothing to commit: the pool's
    // no-op.
    assert!(!twins.commit());
    assert!(twins.drag(1, "RightEdge", 3.0));
    assert!(twins.commit());
    assert_eq!(commits_inline(&twins.state), 2.0);
    assert_eq!(drags_inline(&twins.state), 2.0);
}

#[test]
fn a_commit_on_a_locked_session_goes_to_the_pool() {
    let twins = Twins::new();
    assert!(twins.drag(1, "Interior", 5.0));
    let session = twins.state.store.get(&twins.subject).unwrap();
    let (locked_tx, locked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        let _guard = session.lock().unwrap();
        locked_tx.send(()).unwrap();
        release_rx.recv().unwrap();
    });
    locked_rx.recv().unwrap();
    let commit = |id: &str| request("POST", &format!("/sessions/{id}/commit"), "");
    assert!(routes::inline(&twins.state, &commit(&twins.subject), PEER).is_none());
    release_tx.send(()).unwrap();
    holder.join().unwrap();
    twins.assert_same(
        &dispatch(&twins.state, &commit(&twins.subject)),
        &dispatch(&twins.state, &commit(&twins.reference)),
    );
    twins.assert_twins();
    assert_eq!(commits_inline(&twins.state), 0.0);
}

#[test]
fn a_journaled_commit_goes_to_the_pool() {
    let dir = std::env::temp_dir().join(format!("sns-inline-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (backend, _) = JournalBackend::open(JournalConfig::new(&dir)).expect("open journal");
    let twins = Twins::on(state_on(
        SessionStore::with_backend(64, Arc::new(backend)),
        false,
        None,
    ));
    assert!(twins.drag(1, "Interior", 5.0));
    assert!(!twins.commit());
    assert_eq!(commits_inline(&twins.state), 0.0);
    drop(twins);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A backend that journals nothing but reads as degraded, so the
/// read-only gate (not the journal check) is what refuses a commit.
struct Degraded;

impl SessionBackend for Degraded {
    fn durable(&self) -> bool {
        false
    }
    fn degraded(&self) -> bool {
        true
    }
    fn append(&self, _op: Op<'_>) -> std::io::Result<()> {
        Ok(())
    }
    fn applied_create(&self, _id: &str, _code: &str, _owner: Option<IpAddr>) {}
    fn applied(&self, _id: &str, _code: Option<&str>) {}
    fn applied_delete(&self, _id: &str) {}
    fn contains(&self, _id: &str) -> bool {
        false
    }
    fn code_of(&self, _id: &str) -> Option<String> {
        None
    }
    fn fault_in(&self, _id: &str) -> Option<Session> {
        None
    }
    fn gauges(&self) -> JournalGauges {
        JournalGauges::default()
    }
}

#[test]
fn refused_and_unknown_commits_go_to_the_pool() {
    let cases = [
        (state(false, Some("secret")), 401),
        (state(true, None), 421),
        (
            state_on(
                SessionStore::with_backend(64, Arc::new(Degraded)),
                false,
                None,
            ),
            503,
        ),
        (state_on(SessionStore::new(64), false, None), 404),
    ];
    for (state, status) in cases {
        // These states refuse the requests that would set the twins up,
        // so each gets its drag in flight directly.
        let ids = ["subject", "reference"].map(|id| {
            let mut session = Session::create(id.to_string(), PROGRAM).unwrap();
            session
                .drag(sns_svg::ShapeId(1), sns_svg::Zone::Interior, 5.0, 1.0)
                .unwrap();
            if status != 404 {
                state.store.insert(session);
            }
            id
        });
        let commit = |id: &str| request("POST", &format!("/sessions/{id}/commit"), "");
        assert!(routes::inline(&state, &commit(ids[0]), PEER).is_none());
        for id in ids {
            assert_eq!(dispatch(&state, &commit(id)).status, status);
        }
        if status != 404 {
            let read = |id: &str| {
                let session = state.store.get(id).unwrap();
                let s = session.lock().unwrap();
                (s.code(), s.pending_commit(), s.canvas_body())
            };
            let subject = read(ids[0]);
            assert!(subject.1.is_some(), "the drag is still in flight");
            assert_eq!(subject, read(ids[1]));
        }
        assert_eq!(commits_inline(&state), 0.0);
    }
}

/// The reactor wiring, over a real socket: a proof-only drag shows up in
/// `sns_drags_inline_total`, its commit in `sns_commits_inline_total`,
/// and the reply carries the dragged code.
#[test]
fn the_reactor_serves_proof_only_drags_itself() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        reactors: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    std::thread::spawn(move || server.run().expect("server run"));

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    let mut call = |method: &str, path: &str, body: &str| -> (u16, String) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: sns\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.get_mut().write_all(head.as_bytes()).unwrap();
        let mut line = String::new();
        conn.read_line(&mut line).unwrap();
        let status = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut length = 0;
        loop {
            let mut header = String::new();
            conn.read_line(&mut header).unwrap();
            let header = header.trim_end().to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("content-length:") {
                length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0; length];
        conn.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    };

    let create = Json::obj([("source", Json::str(PROGRAM))]).to_string();
    let (status, body) = call("POST", "/sessions", &create);
    assert_eq!(status, 201, "{body}");
    let v = json::parse(&body).unwrap();
    let id = v.get("id").unwrap().as_str().unwrap().to_string();
    let drag = "{\"shape\":1,\"zone\":\"Interior\",\"dx\":5,\"dy\":0}";
    let (status, body) = call("POST", &format!("/sessions/{id}/drag"), drag);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("(rect 'red' 15 20 30 40)"), "{body}");
    let (status, _) = call("POST", &format!("/sessions/{id}/commit"), "");
    assert_eq!(status, 200);
    let (status, stats) = call("GET", "/stats", "");
    assert_eq!(status, 200);
    let v = json::parse(&stats).unwrap();
    for key in ["drags_inline", "commits_inline"] {
        assert_eq!(v.get(key).and_then(Json::as_f64), Some(1.0), "{stats}");
    }
    handle.shutdown();
}
