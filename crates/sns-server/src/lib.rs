//! **sns-server** — the prodirect-manipulation loop as a multi-session
//! live-synchronization service.
//!
//! The paper's prepare → drag → re-evaluate loop (§4) runs in-process in
//! [`sns_editor::Editor`]; this crate puts it behind a concurrent,
//! session-oriented HTTP boundary so many users can live-sync programs at
//! once:
//!
//! * [`reactor`] — sharded epoll readiness loops (one per core by
//!   default, `--reactors`): `SO_REUSEPORT` accept sharding, per-loop
//!   deadlines and worker pools, vectored zero-copy response writes,
//!   backpressure, graceful drain across every loop;
//! * [`http`] — hand-rolled minimal HTTP/1.1 with a *resumable* request
//!   parser (requests arrive in whatever pieces the sockets produce);
//! * [`json`] — a dependency-free JSON encoder/decoder;
//! * [`threadpool`] — a fixed-size CPU worker pool over a bounded queue;
//! * [`session`] — one editor per session; `prepare` is cached between
//!   drags and recomputed only on commit (the editor's mouse-up);
//! * [`store`] — sharded session map, per-session locks, LRU eviction
//!   (or demotion-to-disk), per-IP session accounting;
//! * [`persist`] — the [`SessionBackend`](persist::SessionBackend) seam:
//!   mutations journal *before* they apply;
//! * [`journal`] — the durable backend: per-shard write-ahead journal,
//!   group-commit fsync batching, background snapshot compaction, crash
//!   recovery, eviction-to-disk + fault-in;
//! * [`replicate`] — journal-streaming replication: a leader tails its
//!   WALs to connected followers (snapshot catch-up for far-behind
//!   peers), followers serve reads locally and promote to leader for
//!   warm fail-over;
//! * [`stats`] — request counters, p50/p99 latency, connection gauges;
//! * [`routes`] — the endpoint surface (bearer-token gated when
//!   configured).
//!
//! `--threads` sizes the *CPU pool* (how many requests execute at once);
//! `--max-conns` gates *connections* (how many sockets may be open). The
//! two are independent: a 4-thread pool happily holds a thousand idle
//! keep-alive editor sessions, because an idle connection costs a file
//! descriptor, not a thread. See `docs/server.md` for the architecture.
//!
//! # Endpoints
//!
//! ```text
//! POST   /sessions                  {"source": "..."} | {"example": "slug"}
//! GET    /sessions/:id/canvas       rendered SVG + zone/caption metadata
//! GET    /sessions/:id/code         current program text
//! PUT    /sessions/:id/code         {"source": "..."} (replace the program)
//! POST   /sessions/:id/drag         {"shape": 0, "zone": "Interior", "dx": 5, "dy": 7}
//! POST   /sessions/:id/commit       mouse-up: apply + re-prepare
//! POST   /sessions/:id/reconcile    {"edits": [{"shape": 0, "attr": "x", "value": 120}]}
//! DELETE /sessions/:id
//! POST   /promote                   follower → leader (drain stream, accept writes)
//! GET    /healthz                   (never requires auth)
//! GET    /stats                     sessions, requests, latency, connection + journal + replication gauges
//! ```
//!
//! With `data_dir` set, every session mutation is appended to a
//! write-ahead journal before it applies, restarts replay the journal
//! (so acknowledged commits survive `kill -9`), and LRU pressure demotes
//! sessions to disk instead of destroying them. See `docs/persistence.md`.

#![deny(unsafe_code)] // Except the epoll/signal FFI in `reactor::ffi`.
#![warn(missing_docs)]

pub mod http;
pub mod journal;
pub mod json;
pub mod persist;
pub mod reactor;
pub mod replicate;
pub mod routes;
pub mod session;
pub mod stats;
pub mod store;
pub mod threadpool;
pub mod timeline;

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use journal::{FsyncPolicy, JournalBackend, JournalConfig};
pub use persist::{MemoryBackend, SessionBackend};
pub use reactor::{install_sigterm_drain, install_sigusr1_promote};
pub use replicate::ReplControl;

use reactor::{Reactor, ReactorOptions, ReactorShared};
use replicate::ReplHub;
use routes::ServerState;
use stats::ServerStats;
use store::SessionStore;
use threadpool::ThreadPool;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 for ephemeral).
    pub addr: String,
    /// CPU worker count — how many requests execute concurrently
    /// (0 = one per available core). Connections are gated separately by
    /// [`max_conns`](ServerConfig::max_conns). Workers are divided
    /// evenly across the reactors.
    pub threads: usize,
    /// Event-loop (reactor) count — how many epoll loops share the
    /// accept load via `SO_REUSEPORT` (0 = one per available core,
    /// capped at the store's shard count). Each reactor owns its own
    /// listener, wake pipe, deadline wheel, and worker-pool slice.
    pub reactors: usize,
    /// Session capacity before LRU eviction kicks in.
    pub max_sessions: usize,
    /// Open-connection gate: connections accepted past this are shed with
    /// a 503 instead of admitted.
    pub max_conns: usize,
    /// Requests that may wait for a worker before the reactor sheds new
    /// ones with 503s (0 = 16 per worker, at least 64).
    pub queue_depth: usize,
    /// How long a client may take to deliver a complete request head +
    /// body (and, symmetrically, to read its response) before the
    /// connection is closed.
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the reaper closes it.
    pub idle_timeout: Duration,
    /// Live sessions one client IP may hold; `POST /sessions` past the
    /// quota answers 429 with `Retry-After` (0 disables the quota). The
    /// quota bounds *resident* sessions: under a durable backend,
    /// demotion to disk releases the owner's slot — the disk copy is
    /// text, not work — so it is a memory-pressure guard, not a cap on
    /// an IP's durable footprint.
    pub max_sessions_per_ip: usize,
    /// Durable session storage: when set, mutations are journaled here
    /// before they apply, restarts replay the journal, and eviction
    /// demotes to disk instead of destroying. `None` keeps the original
    /// memory-only behavior.
    pub data_dir: Option<PathBuf>,
    /// When journal appends are fsynced (meaningful only with
    /// [`data_dir`](ServerConfig::data_dir)).
    pub fsync: FsyncPolicy,
    /// Require `Authorization: Bearer <token>` on every route except
    /// `GET /healthz`.
    pub auth_token: Option<String>,
    /// Durable (on-disk) sessions one client IP may hold; `POST /sessions`
    /// past the quota answers 429 (0 disables). Demotion releases a
    /// *resident* slot but never a durable one, so this bounds disk.
    pub max_durable_per_ip: usize,
    /// Bind a replication listener here (e.g. `127.0.0.1:7979`): followers
    /// connect to it and receive the journal stream. Requires
    /// [`data_dir`](ServerConfig::data_dir).
    pub repl_listen: Option<String>,
    /// Run as a replication follower of the leader whose `repl_listen`
    /// address this is: apply its stream, serve reads, 421 writes, and
    /// promote on `POST /promote` or SIGUSR1.
    pub follow: Option<String>,
    /// Synchronous replication factor: a write is not acknowledged until
    /// this many connected followers have acked its journal record
    /// (0 = asynchronous). Requires [`repl_listen`](ServerConfig::repl_listen).
    pub replicate_to: usize,
    /// Allocate a per-request [`sns_obs::Trace`] stamped at each stage
    /// boundary, feeding the `sns_stage_*` histograms and the flight
    /// recorder (`--no-trace` disables; counters and the latency
    /// histograms stay on either way).
    pub trace: bool,
    /// Requests slower than this end-to-end land in the flight
    /// recorder's slow ring and emit a `slow_request` log record.
    pub slow_ms: u64,
    /// Stall-watchdog threshold: an in-flight request older than this is
    /// snapshotted into the flight recorder — stage stamps so far, queue
    /// depth, reactor, degraded flag — and logged as `stall_detected`,
    /// *while* it is still wedged (0 disables; requires
    /// [`trace`](ServerConfig::trace)).
    pub stall_ms: u64,
    /// Deterministic fault-injection plan (`--fault-plan` /
    /// `SNS_FAULT_PLAN`), e.g. `journal.write=enospc@3..;seed=7`. Only
    /// honored in debug builds — [`Server::bind`] refuses it in release,
    /// where every injection point compiles to a no-op. See
    /// `docs/robustness.md` for the grammar and the point catalogue.
    pub fault_spec: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            threads: 0,
            reactors: 0,
            max_sessions: 1024,
            max_conns: 4096,
            queue_depth: 0,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            max_sessions_per_ip: 0,
            data_dir: None,
            fsync: FsyncPolicy::Batch,
            auth_token: None,
            max_durable_per_ip: 0,
            repl_listen: None,
            follow: None,
            replicate_to: 0,
            trace: true,
            slow_ms: 50,
            stall_ms: 1000,
            fault_spec: None,
        }
    }
}

impl ServerConfig {
    /// The CPU worker count `threads` resolves to (0 = auto).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    }

    /// The pending-request queue depth `queue_depth` resolves to (0 = auto).
    pub fn resolved_queue_depth(&self) -> usize {
        if self.queue_depth > 0 {
            return self.queue_depth;
        }
        (self.resolved_threads() * 16).max(64)
    }

    /// The reactor count `reactors` resolves to (0 = auto), capped at the
    /// store's shard count.
    pub fn resolved_reactors(&self) -> usize {
        let n = if self.reactors > 0 {
            self.reactors
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        };
        n.clamp(1, store::SHARDS)
    }
}

/// A bound, not-yet-running server. Dropping it (which [`Server::run`]
/// does once every reactor has exited) stops and joins the replication
/// threads that [`Server::bind`] started.
pub struct Server {
    reactors: Vec<Reactor>,
    shared: Arc<ReactorShared>,
    http_addr: std::net::SocketAddr,
    repl_addr: Option<std::net::SocketAddr>,
    repl: Arc<ReplControl>,
    follower: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, builds the worker pool, and sets up the epoll
    /// reactor — plus, when configured, the replication listener
    /// (`repl_listen`) or the follower loop (`follow`).
    ///
    /// # Errors
    ///
    /// Fails when an address cannot be bound, the epoll instance (or its
    /// wake pipe) cannot be created, or the replication flags are
    /// inconsistent (`repl_listen` without `data_dir`, `replicate_to`
    /// without `repl_listen`).
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        if config.repl_listen.is_some() && config.data_dir.is_none() {
            return Err(std::io::Error::other(
                "replication streams the journal: --repl-listen requires --data-dir",
            ));
        }
        if config.replicate_to > 0 && config.repl_listen.is_none() {
            return Err(std::io::Error::other(
                "--replicate-to requires --repl-listen",
            ));
        }
        if config.follow.is_some() && config.data_dir.is_none() {
            // A memory-only follower destroys sessions under LRU pressure
            // and then cannot apply their streamed mutations — the stream
            // would loop on a resync forever. A follower journals what it
            // applies, which is also what makes its promotion durable.
            return Err(std::io::Error::other(
                "a follower journals replicated state locally: --follow requires --data-dir",
            ));
        }
        let faults = match &config.fault_spec {
            Some(spec) => sns_faults::Faults::from_spec(spec).map_err(std::io::Error::other)?,
            None => sns_faults::Faults::disabled(),
        };
        let reactors = config.resolved_reactors();
        // Accept sharding: one SO_REUSEPORT listener per reactor so the
        // kernel spreads connections across the loops.
        let listeners = if reactors == 1 {
            vec![TcpListener::bind(&config.addr)?]
        } else {
            reactor::bind_sharded(&config.addr, reactors)?
        };
        let http_addr = listeners[0].local_addr()?;
        let mut journal: Option<Arc<JournalBackend>> = None;
        let store = match &config.data_dir {
            Some(dir) => {
                let (backend, recovered) = JournalBackend::open(JournalConfig {
                    fsync: config.fsync,
                    faults: faults.clone(),
                    ..JournalConfig::new(dir)
                })?;
                let backend = Arc::new(backend);
                journal = Some(Arc::clone(&backend));
                let store = SessionStore::with_backend(config.max_sessions, backend);
                // Sessions the journal tail touched come back resident
                // (replay already paid their prepare); snapshot-only
                // sessions stay demoted until a request faults them in.
                for session in recovered {
                    store.adopt(session);
                }
                store
            }
            None => SessionStore::new(config.max_sessions),
        };
        let repl = Arc::new(ReplControl::new(config.follow.is_some()));
        let timelines = Arc::new(timeline::Timelines::new());
        store.set_timelines(Arc::clone(&timelines));
        // The stats registry reads store, journal, replication and
        // timeline values from the state at scrape time, so it holds a
        // weak reference back to the state that owns it.
        let state = Arc::new_cyclic(|weak| ServerState {
            store,
            stats: ServerStats::with_reactors(reactors, weak),
            telemetry: routes::Telemetry::new(
                config.trace,
                sns_obs::flight::DEFAULT_CAPACITY,
                config.slow_ms.saturating_mul(1_000),
                config.stall_ms.saturating_mul(1_000),
                reactors,
                http_addr.to_string(),
            ),
            timelines,
            started: Instant::now(),
            max_sessions_per_ip: config.max_sessions_per_ip,
            max_durable_per_ip: config.max_durable_per_ip,
            auth_token: config.auth_token.clone(),
            repl: Arc::clone(&repl),
            faults: faults.clone(),
        });
        // Each reactor gets its own worker pool: `--threads` and the
        // queue depth are whole-server budgets, divided (rounding up)
        // across the loops so the aggregate stays at least what a single
        // reactor would have offered.
        let workers_each = config.resolved_threads().div_ceil(reactors);
        let queue_each = config.resolved_queue_depth().div_ceil(reactors);
        let opts = ReactorOptions {
            max_conns: config.max_conns.max(1),
            read_timeout: config.read_timeout,
            idle_timeout: config.idle_timeout,
        };
        let (shared, wake_rxs) = Reactor::shared_for(reactors)?;
        let mut loops = Vec::with_capacity(reactors);
        for (index, (listener, wake_rx)) in listeners.into_iter().zip(wake_rxs).enumerate() {
            let pool = ThreadPool::new(workers_each, queue_each);
            loops.push(Reactor::new(
                index,
                listener,
                Arc::clone(&state),
                pool,
                opts.clone(),
                Arc::clone(&shared),
                wake_rx,
            )?);
        }
        // From here on, an early return drops the server, which stops
        // whatever replication thread was already started.
        let mut server = Server {
            reactors: loops,
            shared,
            http_addr,
            repl_addr: None,
            repl: Arc::clone(&repl),
            follower: None,
        };
        if let Some(addr) = &config.repl_listen {
            let backend = journal.as_ref().expect("checked above");
            let hub = ReplHub::start(
                addr,
                backend.inner(),
                http_addr.to_string(),
                config.replicate_to,
                config.auth_token.clone(),
                faults.clone(),
            )?;
            server.repl_addr = Some(hub.listen_addr());
            repl.set_hub(hub);
        }
        if let Some(leader) = &config.follow {
            server.follower = Some(replicate::start_follower(state, leader.clone())?);
        }
        Ok(server)
    }

    /// The bound replication-listener address, when `repl_listen` was
    /// configured (resolves port 0).
    pub fn repl_addr(&self) -> Option<std::net::SocketAddr> {
        self.repl_addr
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Never fails; kept fallible for call-site compatibility.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        Ok(self.http_addr)
    }

    /// How many reactor event loops this server runs.
    pub fn reactor_count(&self) -> usize {
        self.reactors.len()
    }

    /// A handle that can drain a running server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The readiness loops: reactor 0 runs on the calling thread, the
    /// rest on their own threads. Reactors answer proof-only drags inline,
    /// which runs the solver over the zone's traces, so the spawned ones
    /// get the worker pool's stack; the caller gives reactor 0 a stack as
    /// deep (`sns serve` runs under [`sns_eval::with_big_stack`]).
    /// Blocks until the server is drained (via
    /// [`ShutdownHandle::shutdown`] or SIGTERM after
    /// [`install_sigterm_drain`]), every loop has exited, and the
    /// replication threads have stopped — after which the data directory
    /// and the replication port are free to bind again.
    ///
    /// # Errors
    ///
    /// Returns the first fatal epoll error any reactor hit.
    pub fn run(mut self) -> std::io::Result<()> {
        let mut reactors = std::mem::take(&mut self.reactors).into_iter();
        let first = reactors
            .next()
            .ok_or_else(|| std::io::Error::other("server has no reactors"))?;
        let handles: Vec<_> = reactors
            .enumerate()
            .map(|(i, r)| {
                std::thread::Builder::new()
                    .name(format!("sns-reactor-{}", i + 1))
                    .stack_size(threadpool::WORKER_STACK)
                    .spawn(move || r.run())
            })
            .collect::<std::io::Result<_>>()?;
        let mut result = first.run();
        for handle in handles {
            let joined = handle
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("reactor thread panicked")));
            if result.is_ok() {
                result = joined;
            }
        }
        result
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.repl.shutdown();
        if let Some(follower) = self.follower.take() {
            let _ = follower.join();
        }
    }
}

/// Drains a running server: stops accepting on every reactor, finishes
/// in-flight requests, then lets [`Server::run`] return. Idempotent.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    shared: Arc<ReactorShared>,
}

impl ShutdownHandle {
    /// Requests a drain and wakes every reactor so they notice promptly.
    pub fn shutdown(&self) {
        self.shared.request_drain();
    }
}
