//! sns-replica: journal-streaming replication with warm fail-over and
//! follower reads.
//!
//! The write-ahead journal ([`crate::journal`]) already makes every
//! session mutation a self-contained, checksummed record; this module
//! ships those records to follower processes over a length-prefixed TCP
//! protocol, so a peer holds a continuously-updated copy of every
//! session — warm fail-over — and serves read traffic locally.
//!
//! # Protocol
//!
//! Every message is one frame — `[len: u32 LE] [crc32: u32 LE] [payload]`,
//! the journal's own framing — whose payload is a JSON object tagged `t`:
//!
//! ```text
//! follower → leader   {"t":"hello","v":2,"node":"<follower http addr>",
//!                      "cursors":[[gen,bytes] × 16]}
//! leader  → follower  {"t":"welcome","http":"<leader http addr>","shards":16}
//! leader  → follower  {"t":"snap","shard":i,"gen":g,"bytes":b,
//!                      "sessions":[{"id":..,"code":..,"owner":..?},..]}
//! leader  → follower  {"t":"rec","shard":i,"gen":g,"end":e,
//!                      "trace":{"id":n,"node":"<leader>"}?,"op":{..}}
//! follower → leader   {"t":"ack","cursors":[[gen,bytes] × 16],"applied":n,
//!                      "trace":{"apply_us":u}?}
//! ```
//!
//! The `v`, `node`, and `trace` fields are protocol-v2 additions, all
//! optional: a v1 peer simply never sends or reads them, so mixed-version
//! pairs interoperate. `node` names the follower for the leader's
//! per-peer gauges (`sns_repl_follower_lag_records{peer}`); absent, the
//! socket's peer address stands in. `trace` on a `rec` carries the
//! originating request's trace id so the follower can open a *child span*
//! for the apply (visible on its `/debug/traces`); `trace` on an `ack`
//! reports the last apply's duration, which feeds
//! `sns_repl_apply_us{peer}` on the leader.
//!
//! Per shard, the leader either *tails* — streams journal records from
//! the follower's cursor, each a verbatim journal record (`op`) with the
//! offset it ends at — or, when the follower's cursor points at a
//! generation the leader no longer has (a fresh follower, or a journal
//! compacted mid-stream), sends a **snapshot**: the shard's current
//! shadow (id → program text) plus the `(generation, offset)` it covers,
//! after which tailing resumes from that offset. Snapshot offsets never
//! over-claim: they may *under*-claim while an operation is in flight, in
//! which case the straddling records are re-streamed — and every follower
//! apply is idempotent (creates compare-and-replace, commits and code
//! replacements are absolute), so over-delivery converges.
//!
//! The follower applies records through the same editor paths as boot
//! replay — `LiveSync` incremental prepare and all — so a follower is,
//! continuously, what a crash recovery would produce, and every
//! replicated commit re-exercises the incremental machinery as a
//! correctness oracle. Applies are journaled into the follower's *own*
//! data directory first (when it has one), so a promoted follower is
//! durable in its own right.
//!
//! # Acks and synchronous replication
//!
//! Followers ack applied positions whenever the stream goes momentarily
//! quiet (and at least every 250 ms as a heartbeat). With
//! `--replicate-to N`, a leader append blocks until N connected
//! followers have acked past the record — so a client ack implies the
//! record is on N+1 nodes, and fail-over loses nothing acked. With the
//! default (`0`, async), replication trails by the ack round-trip.
//!
//! # Promotion
//!
//! `POST /promote` (or SIGUSR1) on a follower drains the stream — applies
//! everything already received until the socket goes quiet — then flips
//! the node to leader: writes are accepted, 421s stop. Until then every
//! mutating route answers `421 Misdirected Request` with the leader's
//! HTTP address (learned from the `welcome` message).
//!
//! Consistency invariants (enforced by `tests/replication.rs` and
//! `sns-cli/tests/replication.rs`):
//!
//! 1. **No acked commit is lost on fail-over** under `--replicate-to ≥ 1`
//!    with the default `--fsync batch`: the leader does not ack until the
//!    follower has journaled and applied the record.
//! 2. **A follower never serves a state the leader did not produce**: it
//!    applies only leader-journaled records, in journal order per
//!    session, through the replay path.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use sns_faults::{FaultAction, Faults, SplitMix64};
use sns_obs::log::{self as obs_log, Value};
use sns_obs::trace::{self as obs_trace, TraceCtx};

use crate::journal::{self, crc32, read_frames, JournalInner, OwnedOp, ShadowEntry};
use crate::json::{self, Json};
use crate::routes::ServerState;
use crate::session::Session;
use crate::store::SHARDS;
use crate::threadpool::WORKER_STACK;

/// Upper bound on one protocol frame (a snapshot of one shard; program
/// text is small, so this is generous).
const MAX_FRAME: usize = 64 << 20;

/// Follower socket read timeout — the granularity at which the apply loop
/// notices promotion requests and sends quiet-stream acks.
const FOLLOWER_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Follower heartbeat-ack interval (keeps the leader's `last_ack_ms`
/// gauge honest and its dead-peer detection armed).
const ACK_HEARTBEAT: Duration = Duration::from_millis(250);

/// Leader-side read timeout on the ack stream; a follower silent this
/// long (heartbeats are 250 ms) is dead and gets dropped.
const LEADER_ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the leader streamer parks on the append signal before
/// re-scanning shard positions anyway.
const STREAM_PARK: Duration = Duration::from_millis(25);

/// First reconnect delay for a follower that lost its leader; doubles
/// per consecutive failure up to [`RECONNECT_BACKOFF_CAP`], with equal
/// jitter so a fleet of followers does not reconnect in lockstep.
const RECONNECT_BACKOFF_BASE: Duration = Duration::from_millis(100);

/// Ceiling on the reconnect backoff.
const RECONNECT_BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Dial timeout for a follower connecting to its leader: an unreachable
/// host (packets blackholed, not refused) must not wedge the reconnect
/// loop for the OS's multi-minute TCP timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Capped exponential reconnect backoff with equal jitter: failure N
/// sleeps between half and all of `min(base · 2^N, cap)`. Reset by any
/// successful connection.
struct Backoff {
    failures: u32,
    rng: SplitMix64,
}

impl Backoff {
    fn new() -> Backoff {
        // Jitter only has to decorrelate followers, not be reproducible,
        // so wall clock + pid is the right seed here (the deterministic
        // seeded randomness lives in `sns_faults::FaultPlan`).
        let nanos = SystemTime::UNIX_EPOCH
            .elapsed()
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        Backoff {
            failures: 0,
            rng: SplitMix64::seed_from_u64(u64::from(nanos) ^ u64::from(std::process::id())),
        }
    }

    /// The delay for the next retry; each call counts one more failure.
    fn next_delay(&mut self) -> Duration {
        let base = RECONNECT_BACKOFF_BASE.as_millis() as u64;
        let cap = RECONNECT_BACKOFF_CAP.as_millis() as u64;
        let ceiling = base
            .saturating_mul(1u64 << self.failures.min(16))
            .min(cap)
            .max(2);
        self.failures = self.failures.saturating_add(1);
        let jittered = ceiling / 2 + self.rng.next_u64() % (ceiling / 2);
        Duration::from_millis(jittered)
    }

    fn reset(&mut self) {
        self.failures = 0;
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one `[len][crc32][json]` frame.
fn write_msg(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    let payload = msg.to_string().into_bytes();
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    w.write_all(&frame)
}

/// [`write_msg`] behind the `repl.send` injection point, used for the
/// leader's `snap`/`rec` frames. `drop` skips the send (modelling a
/// leader streaming bug — the differential oracles exist to catch this
/// class), `truncate`/`short` ship half a frame and then kill the
/// stream (the follower must discard the torn tail and resync on
/// reconnect), `delay` stalls the streamer, anything else fails the
/// stream outright.
fn write_msg_injected(w: &mut impl Write, msg: &Json, faults: &Faults) -> io::Result<()> {
    match faults.decide("repl.send") {
        None => write_msg(w, msg),
        Some(FaultAction::Drop) => Ok(()),
        Some(FaultAction::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            write_msg(w, msg)
        }
        Some(FaultAction::Short | FaultAction::Truncate) => {
            let payload = msg.to_string().into_bytes();
            let mut frame = Vec::with_capacity(8 + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            let _ = w.write_all(&frame[..frame.len() / 2]);
            Err(io::Error::other("injected fault: truncated frame"))
        }
        Some(_) => Err(io::Error::other("injected fault: send failed")),
    }
}

/// Incremental frame reader over a socket with a read timeout: partial
/// reads accumulate in an internal buffer, so a timeout mid-frame never
/// desynchronizes the stream.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    fn new(stream: TcpStream) -> FrameReader {
        FrameReader {
            stream,
            buf: Vec::new(),
        }
    }

    /// Whether a complete frame is already buffered (no socket read
    /// needed to produce the next message).
    fn has_buffered(&self) -> bool {
        if self.buf.len() < 8 {
            return false;
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        self.buf.len() >= 8 + len
    }

    fn take_frame(&mut self) -> io::Result<Option<Json>> {
        if self.buf.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "replication frame too large",
            ));
        }
        if self.buf.len() < 8 + len {
            return Ok(None);
        }
        let crc = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes"));
        let payload = &self.buf[8..8 + len];
        if crc32(payload) != crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "replication frame checksum mismatch",
            ));
        }
        let msg = std::str::from_utf8(payload)
            .ok()
            .and_then(|t| json::parse(t).ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "replication frame is not JSON")
            })?;
        self.buf.drain(..8 + len);
        Ok(Some(msg))
    }

    /// The next message: `Ok(Some)` — a frame; `Ok(None)` — the read
    /// timed out with no complete frame; `Err` — peer closed or the
    /// stream is corrupt.
    fn next(&mut self) -> io::Result<Option<Json>> {
        loop {
            if let Some(msg) = self.take_frame()? {
                return Ok(Some(msg));
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "replication peer closed",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn cursors_json(cursors: &[(u64, u64)]) -> Json {
    Json::Arr(
        cursors
            .iter()
            .map(|(g, b)| Json::Arr(vec![Json::Num(*g as f64), Json::Num(*b as f64)]))
            .collect(),
    )
}

fn parse_cursors(v: Option<&Json>) -> Option<Vec<(u64, u64)>> {
    let arr = v?.as_arr()?;
    if arr.len() != SHARDS {
        return None;
    }
    let mut out = Vec::with_capacity(SHARDS);
    for pair in arr {
        let pair = pair.as_arr()?;
        out.push((
            pair.first()?.as_f64()? as u64,
            pair.get(1)?.as_f64()? as u64,
        ));
    }
    Some(out)
}

fn field_u64(msg: &Json, key: &str) -> io::Result<u64> {
    msg.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("replication message missing `{key}`"),
            )
        })
}

// ---------------------------------------------------------------------------
// Role control (shared with the HTTP layer)
// ---------------------------------------------------------------------------

/// Follower-side replication counters, published on `/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplApplyGauges {
    /// Journal records applied from the leader's stream.
    pub records_applied: u64,
    /// Shard snapshots applied (catch-up rounds).
    pub snapshots_applied: u64,
    /// Connections made to the leader (1 = the initial connect).
    pub connects: u64,
    /// The reconnect delay currently being served, in milliseconds
    /// (0 while connected). Rises with consecutive failures, so a
    /// persistently unreachable leader is visible at a glance.
    pub reconnect_backoff_ms: u64,
}

/// The node's replication role and its coupling to the HTTP layer: routes
/// consult it to gate writes, `/promote` requests flow through it, and
/// `/stats` reads its gauges.
pub struct ReplControl {
    follower: AtomicBool,
    promote_req: AtomicBool,
    promote_mx: Mutex<()>,
    promote_cv: Condvar,
    leader_http: Mutex<Option<String>>,
    hub: Mutex<Option<Arc<ReplHub>>>,
    records_applied: AtomicU64,
    snapshots_applied: AtomicU64,
    connects: AtomicU64,
    reconnect_backoff_ms: AtomicU64,
    /// Set by [`shutdown`](ReplControl::shutdown): the follower loop exits.
    stopping: AtomicBool,
}

impl ReplControl {
    /// A control in the given initial role.
    pub fn new(follower: bool) -> ReplControl {
        ReplControl {
            follower: AtomicBool::new(follower),
            promote_req: AtomicBool::new(false),
            promote_mx: Mutex::new(()),
            promote_cv: Condvar::new(),
            leader_http: Mutex::new(None),
            hub: Mutex::new(None),
            records_applied: AtomicU64::new(0),
            snapshots_applied: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            reconnect_backoff_ms: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
        }
    }

    /// Whether this node is (still) a read-only follower.
    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::Acquire)
    }

    /// The leader's HTTP address as learned from its `welcome` message —
    /// what a 421 points writers at.
    pub fn leader_http(&self) -> Option<String> {
        self.leader_http.lock().expect("leader addr lock").clone()
    }

    fn set_leader_http(&self, addr: String) {
        *self.leader_http.lock().expect("leader addr lock") = Some(addr);
    }

    /// Requests promotion; the follower loop drains and completes it.
    pub fn request_promote(&self) {
        self.promote_req.store(true, Ordering::Release);
    }

    /// Whether promotion has been requested — via the HTTP endpoint or
    /// SIGUSR1.
    pub fn promotion_requested(&self) -> bool {
        self.promote_req.load(Ordering::Acquire) || crate::reactor::promote_signal_pending()
    }

    /// Flips the node to leader and wakes promotion waiters.
    fn complete_promotion(&self) {
        self.follower.store(false, Ordering::Release);
        let _guard = self.promote_mx.lock().expect("promote lock");
        self.promote_cv.notify_all();
    }

    /// Blocks until the node is a leader (or the timeout passes);
    /// returns whether it is.
    pub fn wait_promoted(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.promote_mx.lock().expect("promote lock");
        while self.is_follower() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            guard = self
                .promote_cv
                .wait_timeout(guard, left)
                .expect("promote lock")
                .0;
        }
        true
    }

    /// Stops this node's replication threads once its reactors have
    /// drained: the follower loop exits at its next check (within one
    /// read timeout or backoff slice), and a leader's hub closes its
    /// listener and every follower stream, joining their threads. Runs
    /// from `Server`'s `Drop`, so it must not panic: a poisoned lock still
    /// holds a valid `Option`.
    pub(crate) fn shutdown(&self) {
        self.stopping.store(true, Ordering::Release);
        let hub = self
            .hub
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(hub) = hub {
            hub.stop();
        }
    }

    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    pub(crate) fn set_hub(&self, hub: Arc<ReplHub>) {
        *self.hub.lock().expect("hub lock") = Some(hub);
    }

    /// Leader-side gauges, when this node streams to followers.
    pub fn leader_gauges(&self) -> Option<ReplLeaderGauges> {
        self.hub
            .lock()
            .expect("hub lock")
            .as_ref()
            .map(|h| h.gauges())
    }

    /// Follower-side apply counters.
    pub fn apply_gauges(&self) -> ReplApplyGauges {
        ReplApplyGauges {
            records_applied: self.records_applied.load(Ordering::Relaxed),
            snapshots_applied: self.snapshots_applied.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            reconnect_backoff_ms: self.reconnect_backoff_ms.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Leader side
// ---------------------------------------------------------------------------

/// Leader-side replication gauges, published on `/stats`.
#[derive(Debug, Clone, Default)]
pub struct ReplLeaderGauges {
    /// Followers currently connected.
    pub followers_connected: u64,
    /// Records sent but not yet acked (worst follower).
    pub repl_lag_records: u64,
    /// Journal bytes not yet acked (worst follower).
    pub repl_lag_bytes: u64,
    /// Milliseconds since the most recent ack from any follower
    /// (0 when no follower is connected).
    pub last_ack_ms: f64,
    /// Per-follower `(peer, lag_records, apply_us)` — the labeled rows
    /// behind `sns_repl_follower_lag_records{peer}` and
    /// `sns_repl_apply_us{peer}`.
    pub per_follower: Vec<(String, u64, u64)>,
}

struct FollowerInfo {
    /// Label for per-peer metric families: the follower's self-reported
    /// `node` from its v2 hello, or the socket peer address.
    peer: String,
    sent_records: u64,
    acked_records: u64,
    acked: Vec<(u64, u64)>,
    last_ack: Instant,
    /// The follower's last reported apply duration (µs), from the
    /// optional `trace` field on its acks.
    apply_us: u64,
}

/// The leader's replication hub: the listener, one streamer + ack-reader
/// thread pair per connected follower, and the shared bookkeeping the
/// gauges and the sync gate read.
pub struct ReplHub {
    inner: Arc<JournalInner>,
    http_addr: String,
    listen_addr: SocketAddr,
    /// When set, followers must present this token in their `hello`.
    auth_token: Option<String>,
    followers: Mutex<HashMap<u64, FollowerInfo>>,
    next_id: AtomicU64,
    /// Injection points `repl.connect` and `repl.send`; disabled (and
    /// compiled out in release) unless the server was armed with a
    /// fault plan.
    faults: Faults,
    /// Set by [`stop`](ReplHub::stop): the accept loop and every
    /// streamer exit.
    stopping: AtomicBool,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl ReplHub {
    /// Binds the replication listener and starts accepting followers.
    /// `min_sync` (the `--replicate-to` count) arms the journal's ack
    /// gate: appends block until that many followers ack. When
    /// `auth_token` is set (the server's `--auth-token`), every follower
    /// must present it in its `hello` — the journal stream carries every
    /// session's source text, so it gets the same gate the HTTP surface
    /// has.
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot be bound.
    pub(crate) fn start(
        addr: &str,
        inner: Arc<JournalInner>,
        http_addr: String,
        min_sync: usize,
        auth_token: Option<String>,
        faults: Faults,
    ) -> io::Result<Arc<ReplHub>> {
        let listener = TcpListener::bind(addr)?;
        let listen_addr = listener.local_addr()?;
        inner.gate.set_min_sync(min_sync);
        let hub = Arc::new(ReplHub {
            inner,
            http_addr,
            listen_addr,
            auth_token,
            followers: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            faults,
            stopping: AtomicBool::new(false),
            accept: Mutex::new(None),
        });
        let accept_hub = Arc::clone(&hub);
        let accept = std::thread::Builder::new()
            .name("sns-repl-accept".to_string())
            .spawn(move || accept_loop(&accept_hub, &listener))
            .map_err(io::Error::other)?;
        *hub.accept.lock().expect("accept lock") = Some(accept);
        Ok(hub)
    }

    /// Closes the listener and every follower stream, and joins the
    /// threads serving them (a streamer stops within one [`STREAM_PARK`];
    /// one blocked writing to a follower that stopped reading, within
    /// [`LEADER_ACK_TIMEOUT`]). A throwaway connection to the listener wakes
    /// the accept loop out of its blocking accept (on Linux, connecting
    /// to a wildcard address reaches the local host).
    fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        let _ = TcpStream::connect_timeout(&self.listen_addr, CONNECT_TIMEOUT);
        let accept = self
            .accept
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(accept) = accept {
            let _ = accept.join();
        }
    }

    /// The bound replication address (resolves port 0).
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Current leader-side gauges.
    pub fn gauges(&self) -> ReplLeaderGauges {
        let positions = self.inner.positions();
        let followers = self.followers.lock().expect("followers lock");
        let mut g = ReplLeaderGauges {
            followers_connected: followers.len() as u64,
            ..ReplLeaderGauges::default()
        };
        let mut freshest: Option<Duration> = None;
        for info in followers.values() {
            let lag_records = info.sent_records.saturating_sub(info.acked_records);
            let lag_bytes: u64 = positions
                .iter()
                .zip(&info.acked)
                .map(|((lg, lb), (ag, ab))| {
                    if lg == ag {
                        lb.saturating_sub(*ab)
                    } else {
                        *lb
                    }
                })
                .sum();
            g.repl_lag_records = g.repl_lag_records.max(lag_records);
            g.repl_lag_bytes = g.repl_lag_bytes.max(lag_bytes);
            g.per_follower
                .push((info.peer.clone(), lag_records, info.apply_us));
            let since = info.last_ack.elapsed();
            freshest = Some(freshest.map_or(since, |f| f.min(since)));
        }
        g.last_ack_ms = freshest.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        g
    }

    fn record_ack(&self, id: u64, msg: &Json) {
        let cursors = parse_cursors(msg.get("cursors"));
        let applied = msg.get("applied").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if let Some(cursors) = &cursors {
            self.inner.gate.record_ack(id, cursors);
        }
        let apply_us = msg
            .get("trace")
            .and_then(|t| t.get("apply_us"))
            .and_then(Json::as_f64)
            .map(|v| v as u64);
        let mut followers = self.followers.lock().expect("followers lock");
        if let Some(info) = followers.get_mut(&id) {
            info.acked_records = applied;
            info.last_ack = Instant::now();
            if let Some(cursors) = cursors {
                info.acked = cursors;
            }
            if let Some(us) = apply_us {
                info.apply_us = us;
            }
        }
    }
}

/// Accepts followers, one streamer thread each, until the hub stops;
/// then joins the streamers, which stop at their next pass.
fn accept_loop(hub: &Arc<ReplHub>, listener: &TcpListener) {
    let mut streamers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if hub.stopping.load(Ordering::Acquire) {
            break;
        }
        match conn {
            Ok(stream) => {
                streamers.retain(|streamer| !streamer.is_finished());
                let hub = Arc::clone(hub);
                if let Ok(streamer) = std::thread::Builder::new()
                    .name("sns-repl-stream".to_string())
                    .spawn(move || serve_follower(&hub, stream))
                {
                    streamers.push(streamer);
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    for streamer in streamers {
        let _ = streamer.join();
    }
}

fn serve_follower(hub: &Arc<ReplHub>, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .unwrap_or_else(|_| "0.0.0.0:0".parse().expect("addr"));
    if let Err(e) = serve_follower_inner(hub, stream, peer) {
        obs_log::warn(
            "repl_follower_dropped",
            &[
                ("peer", Value::Str(&peer.to_string())),
                ("error", Value::Str(&e.to_string())),
            ],
        );
    }
}

fn serve_follower_inner(hub: &Arc<ReplHub>, stream: TcpStream, peer: SocketAddr) -> io::Result<()> {
    match hub.faults.decide("repl.connect") {
        None => {}
        Some(FaultAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(_) => {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "injected fault: follower connection refused",
            ))
        }
    }
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(LEADER_ACK_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = FrameReader::new(stream);

    // Handshake: the follower leads with its cursors; absent or malformed
    // cursors mean "fresh", which the zero vector encodes (a generation-0
    // offset-0 cursor either matches an uncompacted journal — tail it
    // from the top, which is exactly boot replay — or mismatches a
    // compacted one and triggers snapshot catch-up).
    let hello = match reader.next()? {
        Some(msg) if msg.get("t").and_then(Json::as_str) == Some("hello") => msg,
        Some(_) | None => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "follower did not say hello",
            ))
        }
    };
    // The stream ships every session's source text and its acks can
    // satisfy `--replicate-to`: when the HTTP surface is token-gated, so
    // is this one, with the same token and the same constant-time
    // comparison. Reject before anything — even `welcome` — goes out.
    if let Some(token) = &hub.auth_token {
        let presented = hello.get("token").and_then(Json::as_str).unwrap_or("");
        if !crate::routes::constant_time_eq(presented.as_bytes(), token.as_bytes()) {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "follower presented a missing or invalid token",
            ));
        }
    }
    let claimed = parse_cursors(hello.get("cursors")).unwrap_or_else(|| vec![(0, 0); SHARDS]);
    // An explicit resync request overrides the cursors for *streaming*:
    // every shard gets a snapshot (state transfer) before tailing
    // resumes. Followers send it after a divergence, and on first connect
    // with pre-existing local state — cases where replaying records would
    // repeat the problem or miss sessions a zero cursor can never
    // subtract. The ack gate is registered with zeros either way below
    // (a resyncing follower holds nothing it can vouch for).
    let resync = hello.get("resync") == Some(&Json::Bool(true));
    let cursors = if resync {
        vec![(u64::MAX, 0); SHARDS]
    } else {
        claimed.clone()
    };
    write_msg(
        &mut writer,
        &Json::obj([
            ("t", Json::str("welcome")),
            ("http", Json::str(hub.http_addr.clone())),
            ("shards", Json::Num(SHARDS as f64)),
        ]),
    )?;

    let id = hub.next_id.fetch_add(1, Ordering::Relaxed);
    let vouched = if resync {
        vec![(0, 0); SHARDS]
    } else {
        claimed
    };
    // The follower's self-reported identity (v2 hello) labels its
    // per-peer gauges and its ack spans on leader traces; a v1 follower
    // is labeled by its socket address.
    let node = hello
        .get("node")
        .and_then(Json::as_str)
        .filter(|n| !n.is_empty())
        .map_or_else(|| peer.to_string(), str::to_string);
    hub.inner.gate.register(id, node.clone(), vouched.clone());
    hub.followers.lock().expect("followers lock").insert(
        id,
        FollowerInfo {
            peer: node.clone(),
            sent_records: 0,
            acked_records: 0,
            acked: vouched,
            last_ack: Instant::now(),
            apply_us: 0,
        },
    );
    obs_log::info(
        "repl_follower_connected",
        &[
            ("peer", Value::Str(&peer.to_string())),
            ("node", Value::Str(&node)),
        ],
    );

    // Ack reader: a dedicated thread so acks flow while the streamer
    // blocks in a long write. `closed` is the cross-signal.
    let closed = Arc::new(AtomicBool::new(false));
    let reader_hub = Arc::clone(hub);
    let reader_closed = Arc::clone(&closed);
    let reader_handle = std::thread::Builder::new()
        .name("sns-repl-acks".to_string())
        .spawn(move || {
            let mut reader = reader;
            // A follower silent past the ack timeout (`Ok(None)`) is dead,
            // exactly like one whose socket errored.
            while let Ok(Some(msg)) = reader.next() {
                if msg.get("t").and_then(Json::as_str) == Some("ack") {
                    reader_hub.record_ack(id, &msg);
                }
            }
            // Shut the socket down, not just the flag: the streamer may
            // be parked inside a blocking `write_all` against a peer that
            // stopped reading (full send buffer), and only an error on
            // that write gets it to the cleanup path.
            let _ = reader.stream.shutdown(std::net::Shutdown::Both);
            reader_closed.store(true, Ordering::Release);
        })
        .map_err(io::Error::other)?;

    let result = stream_to_follower(hub, id, &mut writer, cursors, &closed);

    closed.store(true, Ordering::Release);
    hub.inner.gate.deregister(id);
    hub.followers.lock().expect("followers lock").remove(&id);
    // Unblock the ack reader (it may sit in a 10 s read).
    let _ = writer.shutdown(std::net::Shutdown::Both);
    let _ = reader_handle.join();
    result
}

/// The per-follower streamer: tails every shard's journal towards the
/// follower, falling back to a shard snapshot whenever the follower's
/// cursor points at a generation the journal no longer has (fresh
/// follower, or a compaction rotated mid-stream).
fn stream_to_follower(
    hub: &Arc<ReplHub>,
    id: u64,
    writer: &mut TcpStream,
    mut cursors: Vec<(u64, u64)>,
    closed: &AtomicBool,
) -> io::Result<()> {
    let inner = &hub.inner;
    loop {
        if closed.load(Ordering::Acquire) || hub.stopping.load(Ordering::Acquire) {
            return Ok(());
        }
        let seen = inner.signal.current();
        let mut progress = false;
        let mut sent_records = 0u64;
        let positions = inner.positions();
        for (idx, &(lgen, lbytes)) in positions.iter().enumerate() {
            let (cgen, cbytes) = cursors[idx];
            if cgen == lgen && cbytes == lbytes {
                continue; // caught up
            }
            progress = true;
            if cgen != lgen || cbytes > lbytes {
                // Generation handoff: ship the shard's materialized state
                // and resume tailing from the offset it covers.
                let (sgen, sbytes, rows) = inner.shard_state(idx);
                write_msg_injected(
                    writer,
                    &Json::obj([
                        ("t", Json::str("snap")),
                        ("shard", Json::Num(idx as f64)),
                        ("gen", Json::Num(sgen as f64)),
                        ("bytes", Json::Num(sbytes as f64)),
                        ("sessions", Json::Arr(rows)),
                    ]),
                    &hub.faults,
                )?;
                cursors[idx] = (sgen, sbytes);
                continue;
            }
            // Tail: forward the records in [cursor, head) one frame at a
            // time, each tagged with the offset it ends at.
            let Some(span) = inner.read_span(idx, lgen, cbytes, lbytes)? else {
                continue; // rotated under us; next pass snapshots
            };
            let (payloads, valid) = read_frames(&span);
            if valid != span.len() {
                return Err(io::Error::other("journal span misframed (leader bug)"));
            }
            let mut at = cbytes;
            for payload in payloads {
                at += 8 + payload.len() as u64;
                let op = std::str::from_utf8(payload)
                    .ok()
                    .and_then(|t| json::parse(t).ok())
                    .ok_or_else(|| io::Error::other("journal record is not JSON"))?;
                // Journal records carry the originating request's trace
                // id (`tr`, spliced in at append time); lift it to a
                // frame-level trace context so the follower can open a
                // child span without understanding op encodings.
                let mut rec = vec![
                    ("t", Json::str("rec")),
                    ("shard", Json::Num(idx as f64)),
                    ("gen", Json::Num(lgen as f64)),
                    ("end", Json::Num(at as f64)),
                ];
                if let Some(tr) = op.get("tr").and_then(Json::as_f64) {
                    rec.push((
                        "trace",
                        Json::obj([
                            ("id", Json::Num(tr)),
                            ("node", Json::str(hub.http_addr.clone())),
                        ]),
                    ));
                }
                rec.push(("op", op));
                write_msg_injected(writer, &Json::obj(rec), &hub.faults)?;
                sent_records += 1;
            }
            cursors[idx] = (lgen, lbytes);
        }
        if sent_records > 0 {
            let mut followers = hub.followers.lock().expect("followers lock");
            if let Some(info) = followers.get_mut(&id) {
                info.sent_records += sent_records;
            }
        }
        if !progress {
            inner.signal.wait_past(seen, STREAM_PARK);
        }
    }
}

// ---------------------------------------------------------------------------
// Follower side
// ---------------------------------------------------------------------------

/// Spawns the follower loop: connect to the leader, apply its stream into
/// the local store, serve reads, and promote on request. The loop runs
/// until promotion or [`ReplControl::shutdown`].
///
/// # Errors
///
/// Fails when the thread cannot be spawned.
pub(crate) fn start_follower(
    state: Arc<ServerState>,
    leader: String,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("sns-repl-follower".to_string())
        .stack_size(WORKER_STACK)
        .spawn(move || follower_loop(&state, &leader))
}

fn follower_loop(state: &Arc<ServerState>, leader: &str) {
    let control = Arc::clone(&state.repl);
    let mut cursors = vec![(0u64, 0u64); SHARDS];
    // Session ids this follower holds, bucketed by the *leader's* shard
    // function (identical on both sides) — the diff basis for snapshot
    // applies. Seeded from the local backend so a restarted durable
    // follower can drop sessions the leader deleted in the gap.
    let mut known: Vec<HashSet<String>> = vec![HashSet::new(); SHARDS];
    for id in state.store.backend().ids() {
        known[journal::shard_index(&id)].insert(id);
    }
    // Pre-existing local state with no cursor to anchor it (a restarted
    // follower, or a node from another lineage rejoining) must be
    // reconciled by snapshot: a gen-0 tail only ever *adds* state, so
    // sessions the leader never had would otherwise survive here
    // forever. Divergence mid-stream re-arms this below.
    let mut resync = known.iter().any(|s| !s.is_empty());
    let mut backoff = Backoff::new();
    loop {
        if control.stopping() {
            return;
        }
        if control.promotion_requested() {
            control.complete_promotion();
            obs_log::info("repl_promoted", &[("reason", Value::Str("stream_closed"))]);
            return;
        }
        let stream = match connect_leader(leader) {
            Ok(s) => s,
            Err(e) => {
                let delay = backoff.next_delay();
                control
                    .reconnect_backoff_ms
                    .store(delay.as_millis() as u64, Ordering::Relaxed);
                obs_log::warn(
                    "repl_connect_failed",
                    &[
                        ("leader", Value::Str(leader)),
                        ("error", Value::Str(&e.to_string())),
                        ("backoff_ms", Value::U64(delay.as_millis() as u64)),
                    ],
                );
                sleep_backoff(&control, delay);
                continue;
            }
        };
        backoff.reset();
        control.reconnect_backoff_ms.store(0, Ordering::Relaxed);
        control.connects.fetch_add(1, Ordering::Relaxed);
        match apply_stream(
            state,
            &control,
            stream,
            &mut cursors,
            &mut known,
            &mut resync,
        ) {
            Ok(()) => {
                // Promotion completed inside the stream loop.
                obs_log::info("repl_promoted", &[("reason", Value::Str("stream_drained"))]);
                return;
            }
            Err(e) => {
                if control.stopping() {
                    return;
                }
                if control.promotion_requested() {
                    control.complete_promotion();
                    obs_log::info(
                        "repl_promoted",
                        &[
                            ("reason", Value::Str("leader_gone")),
                            ("error", Value::Str(&e.to_string())),
                        ],
                    );
                    return;
                }
                if e.kind() == io::ErrorKind::InvalidData {
                    // Divergence (a mutation for a session we don't hold,
                    // an undecodable record): retrying the same cursors
                    // would replay the same bytes into the same error.
                    // Ask the leader for a full snapshot re-sync instead —
                    // state transfer sidesteps the bad record, and our
                    // durable store makes it a diff, not a rebuild.
                    resync = true;
                    cursors.iter_mut().for_each(|c| *c = (0, 0));
                }
                let delay = backoff.next_delay();
                control
                    .reconnect_backoff_ms
                    .store(delay.as_millis() as u64, Ordering::Relaxed);
                obs_log::warn(
                    "repl_stream_ended",
                    &[
                        ("leader", Value::Str(leader)),
                        ("error", Value::Str(&e.to_string())),
                        ("resync", Value::Bool(resync)),
                        ("backoff_ms", Value::U64(delay.as_millis() as u64)),
                    ],
                );
                sleep_backoff(&control, delay);
            }
        }
    }
}

/// Dials the leader with [`CONNECT_TIMEOUT`] per resolved address, so a
/// blackholed leader costs a bounded slice of the reconnect loop instead
/// of the OS's multi-minute TCP handshake timeout.
fn connect_leader(leader: &str) -> io::Result<TcpStream> {
    let mut last = io::Error::new(
        io::ErrorKind::AddrNotAvailable,
        format!("no address for {leader}"),
    );
    for addr in leader.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Sleeps out a reconnect delay in short slices so a promotion request
/// (fail-over is exactly when the leader is unreachable and the backoff
/// is at its cap) or a shutdown is honored within ~50 ms, not seconds.
fn sleep_backoff(control: &ReplControl, delay: Duration) {
    let deadline = Instant::now() + delay;
    loop {
        if control.promotion_requested() || control.stopping() {
            return;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(50)));
    }
}

/// Consumes one connection's stream. Returns `Ok(())` only when a
/// requested promotion completed after draining; every other exit is an
/// error the caller may retry.
fn apply_stream(
    state: &Arc<ServerState>,
    control: &ReplControl,
    stream: TcpStream,
    cursors: &mut [(u64, u64)],
    known: &mut [HashSet<String>],
    resync: &mut bool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(FOLLOWER_READ_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    // The follower presents its own --auth-token as the stream
    // credential: a replicated pair shares one token.
    let mut hello = vec![
        ("t", Json::str("hello")),
        ("v", Json::Num(2.0)),
        ("node", Json::str(state.telemetry.node().to_string())),
        ("cursors", cursors_json(cursors)),
    ];
    if *resync {
        hello.push(("resync", Json::Bool(true)));
    }
    if let Some(token) = &state.auth_token {
        hello.push(("token", Json::str(token.clone())));
    }
    write_msg(&mut writer, &Json::obj(hello))?;
    let mut reader = FrameReader::new(stream);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match reader.next()? {
            Some(msg) if msg.get("t").and_then(Json::as_str) == Some("welcome") => {
                if let Some(http) = msg.get("http").and_then(Json::as_str) {
                    // A leader bound to a wildcard advertises an
                    // unroutable IP; substitute the one this stream
                    // actually dialed, keeping the advertised HTTP port.
                    let resolved = match http.parse::<SocketAddr>() {
                        Ok(sa) if sa.ip().is_unspecified() => writer
                            .peer_addr()
                            .map(|peer| SocketAddr::new(peer.ip(), sa.port()).to_string())
                            .unwrap_or_else(|_| http.to_string()),
                        _ => http.to_string(),
                    };
                    control.set_leader_http(resolved);
                }
                break;
            }
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected welcome",
                ))
            }
            None if Instant::now() > deadline => {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no welcome"))
            }
            None => {}
        }
    }

    let mut applied = 0u64; // rec messages applied on this connection
    let mut unacked = 0u64;
    let mut last_ack = Instant::now();
    // Child spans opened for traced `rec` applies; they finish (and land
    // in this node's flight recorder) when the covering ack goes out —
    // the span's last stamp is literally "ack sent".
    let mut spans = PendingSpans::default();
    // A requested resync stays requested until this connection has
    // delivered a snapshot for every shard (under resync the leader
    // snapshots all of them, empty ones included) — a connection that
    // dies mid-resync must re-request it, or sessions from another
    // lineage could survive in the shards that were never reconciled.
    let mut snapped: HashSet<usize> = HashSet::new();
    loop {
        if control.stopping() {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "server stopped"));
        }
        match reader.next()? {
            Some(msg) => {
                if *resync && msg.get("t").and_then(Json::as_str) == Some("snap") {
                    if let Some(idx) = msg.get("shard").and_then(Json::as_f64) {
                        snapped.insert(idx as usize);
                    }
                    if snapped.len() >= SHARDS {
                        *resync = false;
                    }
                }
                apply_msg(
                    state,
                    control,
                    &msg,
                    cursors,
                    known,
                    &mut applied,
                    &mut spans,
                )?;
                unacked += 1;
            }
            None => {
                // The stream is momentarily quiet: the right time both to
                // ack (sync-mode leaders are waiting) and to honor a
                // promotion request (the drain is complete).
                if control.promotion_requested() {
                    let _ = send_ack(&mut writer, cursors, applied, &mut spans, state);
                    control.complete_promotion();
                    return Ok(());
                }
            }
        }
        let quiet = !reader.has_buffered();
        if (unacked > 0 && (quiet || unacked >= 64)) || last_ack.elapsed() >= ACK_HEARTBEAT {
            send_ack(&mut writer, cursors, applied, &mut spans, state)?;
            unacked = 0;
            last_ack = Instant::now();
        }
    }
}

/// Child spans waiting for their covering ack, plus the duration of the
/// most recent apply (reported back to the leader on that ack).
#[derive(Default)]
struct PendingSpans {
    pending: Vec<Arc<sns_obs::Trace>>,
    last_apply_us: u64,
}

fn send_ack(
    writer: &mut TcpStream,
    cursors: &[(u64, u64)],
    applied: u64,
    spans: &mut PendingSpans,
    state: &Arc<ServerState>,
) -> io::Result<()> {
    let mut msg = vec![
        ("t", Json::str("ack")),
        ("cursors", cursors_json(cursors)),
        ("applied", Json::Num(applied as f64)),
    ];
    if spans.last_apply_us > 0 {
        msg.push((
            "trace",
            Json::obj([("apply_us", Json::Num(spans.last_apply_us as f64))]),
        ));
    }
    write_msg(writer, &Json::obj(msg))?;
    // The ack is on the wire: every pending child span is complete.
    for t in spans.pending.drain(..) {
        t.stamp(obs_trace::Stage::ResponseWritten);
        let done = state.telemetry.finish(&t);
        state.stats.record_trace(&done);
    }
    Ok(())
}

fn apply_msg(
    state: &Arc<ServerState>,
    control: &ReplControl,
    msg: &Json,
    cursors: &mut [(u64, u64)],
    known: &mut [HashSet<String>],
    applied: &mut u64,
    spans: &mut PendingSpans,
) -> io::Result<()> {
    // `repl.apply`: stall the follower (its acks stop flowing, sync-mode
    // leaders feel the lag) or fail the stream to force a reconnect.
    match state.faults.decide("repl.apply") {
        None => {}
        Some(FaultAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(_) => return Err(io::Error::other("injected fault: apply failed")),
    }
    match msg.get("t").and_then(Json::as_str) {
        Some("snap") => {
            let idx = field_u64(msg, "shard")? as usize;
            let gen = field_u64(msg, "gen")?;
            let bytes = field_u64(msg, "bytes")?;
            if idx >= SHARDS {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "snapshot shard out of range",
                ));
            }
            let rows = msg.get("sessions").and_then(Json::as_arr).unwrap_or(&[]);
            let desired: HashMap<String, ShadowEntry> = rows
                .iter()
                .filter_map(journal::decode_snapshot_row)
                .collect();
            // The snapshot is the whole truth for its shard: anything we
            // hold that it lacks was deleted on the leader. Local
            // durability failures propagate as errors — the shard's
            // cursor must not advance (and so must not be acked) past
            // state this node failed to take.
            for id in known[idx].iter() {
                if !desired.contains_key(id) {
                    state.store.remove(id)?;
                }
            }
            for (id, entry) in &desired {
                ensure_session(state, id, &entry.code, entry.owner)?;
                state
                    .timelines
                    .record(id, crate::timeline::Kind::Resync, "");
            }
            known[idx] = desired.into_keys().collect();
            cursors[idx] = (gen, bytes);
            control.snapshots_applied.fetch_add(1, Ordering::Relaxed);
            obs_log::info(
                "repl_snapshot_applied",
                &[
                    ("shard", Value::U64(idx as u64)),
                    ("gen", Value::U64(gen)),
                    ("bytes", Value::U64(bytes)),
                    ("sessions", Value::U64(known[idx].len() as u64)),
                ],
            );
        }
        Some("rec") => {
            let idx = field_u64(msg, "shard")? as usize;
            let gen = field_u64(msg, "gen")?;
            let end = field_u64(msg, "end")?;
            if idx >= SHARDS {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "record shard out of range",
                ));
            }
            // A traced record opens a *child span*: recv → (journal,
            // fsync — stamped by the local append through the
            // thread-local) → LiveSync oracle → ack-sent. It carries the
            // originating trace id + node, so a cluster-wide request can
            // be stitched from each node's `/debug/traces`.
            let child = msg.get("trace").and_then(|t| {
                let tid = t.get("id").and_then(Json::as_f64)? as u64;
                let node = t.get("node").and_then(Json::as_str).unwrap_or("");
                state.telemetry.start_child_trace(
                    "REPL",
                    "/repl/apply",
                    TraceCtx {
                        origin_trace: tid,
                        origin_node: node.to_string(),
                    },
                )
            });
            let began = Instant::now();
            let _guard = child.as_ref().map(obs_trace::set_current);
            obs_trace::stamp_current(obs_trace::Stage::ParseDone);
            let op = msg.get("op").and_then(journal::decode_op_value);
            match op {
                Some(OwnedOp::Create(id, source, owner)) => {
                    ensure_session(state, &id, &source, owner)?;
                    known[idx].insert(id);
                }
                Some(OwnedOp::SetCode(id, source)) => {
                    apply_session_op(state, &id, "set_code", |s| {
                        s.apply_recorded_set_code(&source)
                    })?;
                }
                Some(OwnedOp::Commit(id, subst)) => {
                    apply_session_op(state, &id, "commit", |s| s.apply_recorded_commit(&subst))?;
                }
                Some(OwnedOp::Delete(id)) => {
                    state.store.remove(&id)?;
                    known[idx].remove(&id);
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "undecodable replicated record",
                    ))
                }
            }
            cursors[idx] = (gen, end);
            *applied += 1;
            control.records_applied.fetch_add(1, Ordering::Relaxed);
            // The LiveSync commit oracle has run (inside the session
            // apply); the span now waits on its ack.
            if let Some(t) = child {
                t.stamp(obs_trace::Stage::PrepareDone);
                t.set_status(200);
                spans.last_apply_us = began.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                spans.pending.push(t);
            }
        }
        // Unknown tags from a newer leader are skippable only if they
        // carry no positional meaning; nothing defined today does, so a
        // mismatch is a protocol error worth a resync.
        Some("welcome") => {}
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unknown replication message",
            ))
        }
    }
    Ok(())
}

/// Applies one streamed mutation to the named session. Failure handling
/// is the crux of the sync-replication invariant: a *durability* failure
/// (the follower's own journal refused the record) or a missing session
/// is an `Err` — the caller must not advance the cursor, so the record
/// is never acked and the leader's `--replicate-to` wait cannot be
/// satisfied by a node that does not hold it. A *deterministic* editor
/// failure is skipped exactly as the leader (and boot replay) skipped
/// it — the two nodes agree on the outcome.
fn apply_session_op(
    state: &Arc<ServerState>,
    id: &str,
    what: &str,
    apply: impl FnOnce(&mut Session) -> Result<(), crate::session::SessionError>,
) -> io::Result<()> {
    let Some(session) = state.store.get(id) else {
        // The create precedes every mutation in its shard's journal; a
        // miss means this node diverged — resync, don't ack.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("replicated {what} for unknown session {id}"),
        ));
    };
    let Ok(mut s) = session.lock() else {
        return Err(io::Error::other(format!(
            "replicated {what}: session {id} poisoned"
        )));
    };
    match apply(&mut s) {
        Ok(()) => Ok(()),
        // 500 is the journal refusing the local append: not applied, not
        // durable here — fail the stream rather than ack.
        Err(e) if e.status == 500 => Err(io::Error::other(format!(
            "replicated {what} on {id}: {}",
            e.msg
        ))),
        Err(e) => {
            obs_log::warn(
                "repl_record_skipped",
                &[
                    ("op", Value::Str(what)),
                    ("session", Value::Str(id)),
                    ("error", Value::Str(&e.msg)),
                ],
            );
            Ok(())
        }
    }
}

/// Idempotent session install: present with identical code — done;
/// present with different code — replace (the streamed records that
/// produced the difference are about to be re-applied on top, so this
/// converges); absent — create. All through the store, so the follower's
/// own journal records everything — and a journal refusal is an `Err`,
/// not a skip, so the record is never acked un-held (see
/// [`apply_session_op`]).
fn ensure_session(
    state: &Arc<ServerState>,
    id: &str,
    code: &str,
    owner: Option<IpAddr>,
) -> io::Result<()> {
    // Cheap current-text check first: the backend's shadow answers with a
    // string compare, where `store.get` would materialize (full prepare)
    // a demoted session just to learn it needs nothing — a snapshot
    // resync over a large durable follower must be a diff, not a rebuild.
    if state.store.backend().code_of(id).as_deref() == Some(code) {
        return Ok(());
    }
    if let Some(existing) = state.store.get(id) {
        if existing.lock().is_ok_and(|s| s.code() == code) {
            return Ok(());
        }
        state.store.remove(id)?;
    }
    match Session::create(id.to_string(), code) {
        Ok(session) => match state.store.try_insert(session, owner, 0, 0) {
            Ok(_) => Ok(()),
            Err(crate::store::InsertError::Journal(e)) => Err(e),
            // Quotas are disabled (0) on the replication path; anything
            // else here is a bug worth hearing about, not acking over.
            Err(other) => Err(io::Error::other(format!(
                "replicated create {id} refused: {other:?}"
            ))),
        },
        Err(e) => {
            // Deterministic: the same create failed its apply on the
            // leader (and would fail in boot replay); both sides skip.
            obs_log::warn(
                "repl_record_skipped",
                &[
                    ("op", Value::Str("create")),
                    ("session", Value::Str(id)),
                    ("error", Value::Str(&e.msg)),
                ],
            );
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursors_roundtrip_through_json() {
        let mut cursors = vec![(0u64, 0u64); SHARDS];
        cursors[3] = (2, 12345);
        cursors[15] = (1, u64::from(u32::MAX));
        let back = parse_cursors(Some(&cursors_json(&cursors))).expect("parse");
        assert_eq!(back, cursors);
        // Wrong arity is rejected (a different SHARDS build must resync).
        let short = Json::Arr(vec![Json::Arr(vec![Json::Num(0.0), Json::Num(0.0)])]);
        assert!(parse_cursors(Some(&short)).is_none());
        assert!(parse_cursors(None).is_none());
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        // A loopback socket pair: write a frame in two halves and one
        // whole, read back both messages.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nodelay(true).unwrap();

        let msg = Json::obj([("t", Json::str("hello")), ("n", Json::Num(7.0))]);
        let mut bytes = Vec::new();
        write_msg(&mut bytes, &msg).unwrap();
        let (a, b) = bytes.split_at(5);
        (&server).write_all(a).unwrap();
        let mut reader = FrameReader::new(client);
        reader
            .stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        assert!(reader.next().unwrap().is_none(), "frame not yet complete");
        (&server).write_all(b).unwrap();
        write_msg(&mut (&server), &Json::obj([("t", Json::str("ack"))])).unwrap();
        let first = reader.next().unwrap().expect("first frame");
        assert_eq!(first.get("t").and_then(Json::as_str), Some("hello"));
        assert!(reader.has_buffered(), "second frame should be buffered");
        let second = reader.next().unwrap().expect("second frame");
        assert_eq!(second.get("t").and_then(Json::as_str), Some("ack"));
    }

    #[test]
    fn corrupt_frames_are_an_error_not_a_desync() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let payload = b"{\"t\":\"x\"}";
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&(crc32(payload) ^ 1).to_le_bytes()); // bad crc
        frame.extend_from_slice(payload);
        (&server).write_all(&frame).unwrap();
        let mut reader = FrameReader::new(client);
        reader
            .stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let err = loop {
            match reader.next() {
                Ok(Some(_)) => panic!("corrupt frame accepted"),
                Ok(None) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn promote_control_flips_role_and_wakes_waiters() {
        let control = Arc::new(ReplControl::new(true));
        assert!(control.is_follower());
        assert!(!control.wait_promoted(Duration::from_millis(10)));
        let waiter = {
            let control = Arc::clone(&control);
            std::thread::spawn(move || control.wait_promoted(Duration::from_secs(5)))
        };
        control.request_promote();
        assert!(control.promotion_requested());
        control.complete_promotion();
        assert!(waiter.join().unwrap(), "waiter not woken by promotion");
        assert!(!control.is_follower());
    }
}
