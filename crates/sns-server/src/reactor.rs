//! The event-driven transport: epoll readiness loops (one per core by
//! default) that decouple *connections* from *CPU*.
//!
//! The reactor is *sharded*: `--reactors N` (default: one per core,
//! capped at the store's shard count) spawns N independent loops, each
//! with its own epoll fd, its own listener (`SO_REUSEPORT`, so the kernel
//! spreads incoming connections across them), its own bounded worker
//! pool, its own completion queue + wake pipe, and its own deadline
//! sweep. A connection accepted by reactor R lives its whole life on R:
//! no socket, parser buffer, or response buffer ever changes loops.
//! Sessions are not tied to a loop: any reactor serves any session id
//! through the shared store. No thread is pinned to a core, so "one loop
//! per core" is a count, not a placement; `docs/server.md` records the
//! throughput that count buys over a single loop.
//!
//! Within one reactor, the loop is unchanged: non-blocking reads feed
//! each connection's resumable [`ConnParser`]; the moment a complete
//! request materializes, it is handed to the reactor's worker pool and
//! the loop goes back to servicing other sockets — unless
//! [`routes::inline`] answers it on the spot (probes, drags that need
//! no evaluation and no commit, and fast-tier commits with nothing to
//! journal). Workers push finished
//! responses onto the reactor's completion queue and wake it through a
//! pipe; responses drain with vectored non-blocking writes (header +
//! body in one `writev`, the head serialized into a per-connection
//! buffer that is cleared — never shrunk — between keep-alive
//! responses). An idle keep-alive connection therefore costs one file
//! descriptor and ~one `Conn` struct — never a thread — so a small pool
//! can serve thousands of mostly-idle editor sessions (the paper's
//! many-users live-sync setting).
//!
//! What stays global across reactors: the `--max-conns` accept gate (a
//! shared atomic), per-IP quotas (the shared store), the drain flag, and
//! every `/stats`-visible total (per-reactor gauges are published
//! alongside, labeled `reactor="i"`).
//!
//! The epoll + socket surface is declared directly (`extern "C"`): the
//! crate stays std-only, at the price of being Linux-only — which it de
//! facto already was, and which CI exercises.
//!
//! Connection state machine (deadlines in parentheses):
//!
//! ```text
//!           bytes arrive            head+body complete
//!   Idle ───────────────▶ Reading ───────────────────▶ Dispatched
//!   (idle_timeout)        (read_timeout)               (no deadline)
//!     ▲                                                     │ worker done
//!     │ keep-alive, response fully written                  ▼
//!     └────────────────────────────────────────────── Writing
//!                                                     (read_timeout)
//! ```
//!
//! Any expired deadline closes the connection: a stalled client costs a
//! connection slot, never a worker.

use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sns_obs::trace::{self, Stage, Trace};

use crate::http::{ConnParser, Parsed, Request, Response};
use crate::json::Json;
use crate::routes::{self, ServerState};
use crate::stats::ConnGauges;
use crate::threadpool::ThreadPool;

/// Raw epoll + signal + socket declarations. The only unsafe in the
/// crate lives here, wrapped so the reactor proper stays in safe code.
#[allow(unsafe_code)]
mod ffi {
    use std::net::{SocketAddr, TcpListener};
    use std::os::raw::c_int;
    use std::os::unix::io::FromRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const SIGTERM: c_int = 15;
    const SIGUSR1: c_int = 10;

    /// Mirrors `struct epoll_event`; packed on x86-64, where the kernel
    /// ABI leaves the 64-bit payload unaligned.
    #[derive(Clone, Copy)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    const LISTEN_BACKLOG: c_int = 1024;

    /// `struct sockaddr_in` (fields in network byte order where the ABI
    /// says so).
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port_be: u16,
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// `struct sockaddr_in6`.
    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port_be: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn signal(signum: c_int, handler: usize) -> usize;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_int,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const u8, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    /// Builds a listener with `SO_REUSEPORT` set *before* bind, so several
    /// reactors can each own a socket on the same address and the kernel
    /// spreads incoming connections across them. `std::net::TcpListener`
    /// offers no pre-bind socket options, hence the raw path; the fd is
    /// wrapped in a `TcpListener` immediately so every error path closes
    /// it.
    pub fn reuseport_listener(addr: SocketAddr) -> std::io::Result<TcpListener> {
        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: plain syscall; no pointers involved.
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh socket we exclusively own.
        let wrapped = unsafe { TcpListener::from_raw_fd(fd) };
        let one: c_int = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            // SAFETY: optval points at a live c_int of the advertised size.
            let rc = unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    &one,
                    std::mem::size_of::<c_int>() as u32,
                )
            };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
        }
        let rc = match addr {
            SocketAddr::V4(v4) => {
                let sa = SockAddrIn {
                    family: AF_INET as u16,
                    port_be: v4.port().to_be(),
                    addr: v4.ip().octets(),
                    zero: [0; 8],
                };
                // SAFETY: `sa` is a properly laid-out sockaddr_in whose
                // length is passed alongside; the kernel copies it out.
                unsafe {
                    bind(
                        fd,
                        (&sa as *const SockAddrIn).cast(),
                        std::mem::size_of::<SockAddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(v6) => {
                let sa = SockAddrIn6 {
                    family: AF_INET6 as u16,
                    port_be: v6.port().to_be(),
                    flowinfo: v6.flowinfo(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                // SAFETY: as above, for sockaddr_in6.
                unsafe {
                    bind(
                        fd,
                        (&sa as *const SockAddrIn6).cast(),
                        std::mem::size_of::<SockAddrIn6>() as u32,
                    )
                }
            }
        };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: plain syscall on our fd.
        let rc = unsafe { listen(fd, LISTEN_BACKLOG) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(wrapped)
    }

    pub fn create() -> std::io::Result<c_int> {
        // SAFETY: plain syscall; no pointers involved.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(fd)
    }

    fn ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn add(epfd: c_int, fd: c_int, events: u32, token: u64) -> std::io::Result<()> {
        ctl(epfd, EPOLL_CTL_ADD, fd, events, token)
    }

    pub fn modify(epfd: c_int, fd: c_int, events: u32, token: u64) -> std::io::Result<()> {
        ctl(epfd, EPOLL_CTL_MOD, fd, events, token)
    }

    pub fn del(epfd: c_int, fd: c_int) -> std::io::Result<()> {
        ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0)
    }

    pub fn wait(epfd: c_int, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        // SAFETY: the out-buffer is sized by its real length.
        let rc =
            unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0); // Signal delivery (e.g. SIGTERM); caller re-checks flags.
            }
            return Err(err);
        }
        Ok(rc as usize)
    }

    pub fn close_fd(fd: c_int) {
        // SAFETY: the caller owns `fd` (our epoll fd, closed exactly once).
        let _ = unsafe { close(fd) };
    }

    /// Set asynchronously by the SIGTERM handler, polled by the reactor.
    pub static SIGTERM_PENDING: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigterm(_sig: c_int) {
        // Only async-signal-safe work: one atomic store. The reactor's
        // epoll timeout is capped, so the flag is observed promptly.
        SIGTERM_PENDING.store(true, Ordering::Release);
    }

    pub fn install_sigterm() {
        // SAFETY: installs a handler that does nothing but store a flag.
        unsafe {
            signal(SIGTERM, on_sigterm as *const () as usize);
        }
    }

    /// Set asynchronously by the SIGUSR1 handler, polled by the
    /// replication follower loop (promotion request).
    pub static SIGUSR1_PENDING: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigusr1(_sig: c_int) {
        SIGUSR1_PENDING.store(true, Ordering::Release);
    }

    pub fn install_sigusr1() {
        // SAFETY: installs a handler that does nothing but store a flag.
        unsafe {
            signal(SIGUSR1, on_sigusr1 as *const () as usize);
        }
    }
}

/// Routes SIGTERM into drain mode: after this call, a running server's
/// reactor finishes in-flight requests, stops accepting, and `run`
/// returns `Ok(())` — so the process can exit 0 under e.g. Kubernetes pod
/// termination. Process-wide; intended for `sns serve`.
pub fn install_sigterm_drain() {
    ffi::install_sigterm();
}

/// Routes SIGUSR1 into a promotion request: a replication follower that
/// receives the signal drains its stream and starts accepting writes
/// (the signal-driven twin of `POST /promote`). Process-wide; intended
/// for `sns serve --follow`.
pub fn install_sigusr1_promote() {
    ffi::install_sigusr1();
}

/// Whether SIGUSR1 has been received since
/// [`install_sigusr1_promote`] was called.
pub fn promote_signal_pending() -> bool {
    ffi::SIGUSR1_PENDING.load(Ordering::Acquire)
}

fn sigterm_pending() -> bool {
    ffi::SIGTERM_PENDING.load(Ordering::Acquire)
}

/// The answer to a request whose route panicked.
fn internal_error() -> Response {
    Response::json(
        500,
        Json::obj([("error", Json::str("internal error"))]).to_string(),
    )
}

/// Maximum events per `epoll_wait` call.
const MAX_EVENTS: usize = 256;

/// Ceiling on the epoll timeout so drain flags and SIGTERM are observed
/// promptly even when no deadline is near.
const MAX_POLL: Duration = Duration::from_millis(250);

/// How often the connection gauges are pushed into [`ServerStats`].
const GAUGE_PERIOD: Duration = Duration::from_millis(50);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// A finished request: a worker produced `response` for the request that
/// was read off connection `token`.
#[derive(Debug)]
struct Completion {
    token: u64,
    response: Response,
    keep_alive: bool,
    /// The request's trace, handed back so the reactor can stamp
    /// `ResponseWritten` once the bytes are out.
    trace: Option<Arc<Trace>>,
}

/// Worker → reactor channel: completed responses plus the wake pipe that
/// pulls the reactor out of `epoll_wait`.
#[derive(Debug)]
pub(crate) struct Notifier {
    done: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
}

impl Notifier {
    /// Creates the channel; the returned `UnixStream` is the read end the
    /// owning reactor registers with its epoll.
    fn new() -> std::io::Result<(Arc<Notifier>, UnixStream)> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok((
            Arc::new(Notifier {
                done: Mutex::new(Vec::new()),
                wake_tx,
            }),
            wake_rx,
        ))
    }

    fn push(&self, completion: Completion) {
        self.done.lock().expect("completion lock").push(completion);
        self.wake();
    }

    /// Wakes the reactor (used by workers and the shutdown handle). A
    /// full pipe means a wake is already pending, so errors are ignored.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// State shared by every reactor of one server: the drain flag, the
/// global open-connection count behind the `--max-conns` gate, and every
/// reactor's notifier (so a drain request can wake all loops).
#[derive(Debug)]
pub(crate) struct ReactorShared {
    drain: AtomicBool,
    conns_open: AtomicUsize,
    notifiers: Vec<Arc<Notifier>>,
}

impl ReactorShared {
    pub(crate) fn request_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
        for n in &self.notifiers {
            n.wake();
        }
    }
}

/// Connection lifecycle phase; see the module diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between keep-alive requests; no bytes of the next request yet.
    Idle,
    /// A request is partially buffered.
    Reading,
    /// A complete request is with the worker pool.
    Dispatched,
    /// A response is being written back.
    Writing,
}

/// Per-connection state owned by the reactor.
struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    parser: ConnParser,
    phase: Phase,
    /// Serialized response head, reused across keep-alive responses:
    /// cleared (capacity kept) each time, so it grows once to the largest
    /// head this connection ever produced and never reallocates again.
    head_buf: Vec<u8>,
    /// Response body, *moved* out of the worker's `Response` (never
    /// copied); written alongside the head with one vectored write.
    body: Vec<u8>,
    /// Bytes of head + body already on the wire.
    written: usize,
    keep_alive_after_write: bool,
    /// When this connection gets reaped, per current phase; `None` while
    /// dispatched (the server working is not the client stalling).
    deadline: Option<Instant>,
    /// Event mask currently registered with epoll.
    interest: u32,
    /// The peer half-closed its write side (EOF seen). Requests already
    /// buffered are still answered; the connection closes once the
    /// parser runs dry instead of going idle.
    peer_closed: bool,
    /// The in-flight request's trace, finished (stage histograms + flight
    /// recorder) when its response is fully written.
    trace: Option<Arc<Trace>>,
}

/// What became of a response write (or the connection under it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteProgress {
    /// Response fully written, connection kept alive and idle again.
    Idle,
    /// Bytes remain; EPOLLOUT will resume the write.
    Pending,
    /// The connection was closed (completed non-keep-alive, error, drain).
    Closed,
}

/// Reactor tuning knobs, resolved from [`crate::ServerConfig`].
#[derive(Clone)]
pub(crate) struct ReactorOptions {
    /// Global open-connection gate (checked against the *shared* count).
    pub max_conns: usize,
    pub read_timeout: Duration,
    pub idle_timeout: Duration,
}

/// Binds `count` `SO_REUSEPORT` listeners on `addr`. Port 0 is resolved
/// by the first bind — the remaining listeners bind the concrete port it
/// got, since N ephemeral binds would land on N different ports.
pub(crate) fn bind_sharded(addr: &str, count: usize) -> std::io::Result<Vec<TcpListener>> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("{addr}: no usable address")))?;
    let first = ffi::reuseport_listener(sock_addr)?;
    let resolved = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..count {
        listeners.push(ffi::reuseport_listener(resolved)?);
    }
    Ok(listeners)
}

/// Why the reactor is closing a connection (stats attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseWhy {
    /// Peer closed, protocol violation already answered, or I/O error.
    Gone,
    /// `Connection: close` (or drain) after a completed exchange.
    Finished,
    /// Read/write deadline expired mid-request.
    TimedOut,
    /// Idle keep-alive deadline expired between requests.
    IdleReaped,
}

/// Wraps the epoll fd so it closes exactly once.
struct Epoll {
    fd: std::os::raw::c_int,
}

impl Drop for Epoll {
    fn drop(&mut self) {
        ffi::close_fd(self.fd);
    }
}

pub(crate) struct Reactor {
    epoll: Epoll,
    /// This reactor's accept socket (one `SO_REUSEPORT` listener per
    /// reactor).
    listener: TcpListener,
    /// This reactor's index (its per-loop gauges and watchdog slot).
    index: usize,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    state: Arc<ServerState>,
    pool: ThreadPool,
    notifier: Arc<Notifier>,
    wake_rx: UnixStream,
    shared: Arc<ReactorShared>,
    draining: bool,
    in_flight: u64,
    opts: ReactorOptions,
    next_sweep: Instant,
    next_gauge_push: Instant,
    /// Next stall-watchdog pass over this reactor's in-flight traces.
    next_stall_sweep: Instant,
}

impl Reactor {
    /// Builds the shared state for `count` reactors (notifiers are
    /// created here so the shutdown handle can reach every loop). Returns
    /// the shared handle plus each reactor's wake-pipe read end,
    /// index-aligned.
    pub(crate) fn shared_for(
        count: usize,
    ) -> std::io::Result<(Arc<ReactorShared>, Vec<UnixStream>)> {
        let mut notifiers = Vec::with_capacity(count);
        let mut wake_rxs = Vec::with_capacity(count);
        for _ in 0..count {
            let (notifier, wake_rx) = Notifier::new()?;
            notifiers.push(notifier);
            wake_rxs.push(wake_rx);
        }
        Ok((
            Arc::new(ReactorShared {
                drain: AtomicBool::new(false),
                conns_open: AtomicUsize::new(0),
                notifiers,
            }),
            wake_rxs,
        ))
    }

    pub(crate) fn new(
        index: usize,
        listener: TcpListener,
        state: Arc<ServerState>,
        pool: ThreadPool,
        opts: ReactorOptions,
        shared: Arc<ReactorShared>,
        wake_rx: UnixStream,
    ) -> std::io::Result<Reactor> {
        let epoll = Epoll { fd: ffi::create()? };
        listener.set_nonblocking(true)?;
        ffi::add(epoll.fd, listener.as_raw_fd(), ffi::EPOLLIN, TOKEN_LISTENER)?;
        ffi::add(epoll.fd, wake_rx.as_raw_fd(), ffi::EPOLLIN, TOKEN_WAKE)?;
        let notifier = Arc::clone(&shared.notifiers[index]);
        let now = Instant::now();
        Ok(Reactor {
            epoll,
            listener,
            index,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            state,
            pool,
            notifier,
            wake_rx,
            shared,
            draining: false,
            in_flight: 0,
            opts,
            next_sweep: now,
            next_gauge_push: now,
            next_stall_sweep: now,
        })
    }

    /// The readiness loop. Returns `Ok(())` once a drain request (the
    /// shutdown handle or SIGTERM via [`install_sigterm_drain`]) has been
    /// observed and every in-flight request has been answered.
    pub(crate) fn run(mut self) -> std::io::Result<()> {
        let mut events = [ffi::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        loop {
            let timeout = self.poll_timeout();
            let n = ffi::wait(self.epoll.fd, &mut events, timeout)?;
            for ev in &events[..n] {
                let bits = ev.events;
                match ev.data {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake_pipe(),
                    token => self.conn_event(token, bits),
                }
            }
            self.apply_completions();
            if !self.draining && (self.shared.drain.load(Ordering::SeqCst) || sigterm_pending()) {
                // Propagate (idempotently) so sibling reactors that have
                // not polled the signal flag yet drain promptly too.
                self.shared.request_drain();
                self.enter_drain();
            }
            self.sweep_deadlines();
            self.sweep_stalls();
            self.push_gauges();
            if self.draining && self.in_flight == 0 && self.conns.is_empty() {
                self.push_gauges_now();
                return Ok(());
            }
        }
    }

    /// Milliseconds until the next scheduled deadline sweep or gauge
    /// push, capped so control flags are observed promptly. Rounded *up*:
    /// truncating would wake a sub-millisecond early, find nothing due,
    /// and spin on zero-timeout waits until the remainder elapsed.
    fn poll_timeout(&self) -> i32 {
        let now = Instant::now();
        let next = self.next_sweep.min(self.next_gauge_push);
        let until = next.saturating_duration_since(now).min(MAX_POLL);
        let ms = until.as_millis() as u32;
        let ms = if Duration::from_millis(u64::from(ms)) < until {
            ms + 1
        } else {
            ms
        };
        ms as i32
    }

    fn schedule_sweep(&mut self, deadline: Instant) {
        if deadline < self.next_sweep {
            self.next_sweep = deadline;
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // Transient accept failure; readiness will re-fire.
            };
            if self.draining {
                continue; // Listener is being torn down; drop the socket.
            }
            self.admit(stream, peer);
        }
    }

    /// Registers one connection accepted on this reactor's listener,
    /// enforcing the *global* `--max-conns` gate.
    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) {
        if self.shared.conns_open.load(Ordering::Relaxed) >= self.opts.max_conns {
            // The accept gate: past `max_conns`, shed the connection
            // with a best-effort 503 instead of letting it camp in
            // the backlog until a deadline it cannot see.
            self.state.stats.record_accept_drop();
            let _ = stream.set_nonblocking(true);
            let resp = Response::json(
                503,
                Json::obj([("error", Json::str("connection limit reached"))]).to_string(),
            )
            .with_header("Retry-After", "1");
            let _ = (&stream).write(&resp.encode(false));
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Interactive request/response traffic: never wait on Nagle.
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if ffi::add(self.epoll.fd, stream.as_raw_fd(), ffi::EPOLLIN, token).is_err() {
            return;
        }
        self.shared.conns_open.fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + self.opts.idle_timeout;
        self.conns.insert(
            token,
            Conn {
                stream,
                peer: peer.ip(),
                parser: ConnParser::new(),
                phase: Phase::Idle,
                head_buf: Vec::new(),
                body: Vec::new(),
                written: 0,
                keep_alive_after_write: true,
                deadline: Some(deadline),
                interest: ffi::EPOLLIN,
                peer_closed: false,
                trace: None,
            },
        );
        self.schedule_sweep(deadline);
    }

    fn drain_wake_pipe(&mut self) {
        self.state.stats.record_reactor_wake(self.index);
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        if bits & (ffi::EPOLLHUP | ffi::EPOLLERR) != 0 {
            self.close(token, CloseWhy::Gone);
            return;
        }
        if bits & ffi::EPOLLIN != 0 && !self.read_ready(token) {
            return; // Connection closed while reading.
        }
        if bits & ffi::EPOLLOUT != 0 && self.try_write(token) == WriteProgress::Idle {
            // Response done, keep-alive: a pipelined follow-up may already
            // be buffered.
            self.advance(token);
        }
    }

    /// How many reads one readiness event may consume before yielding the
    /// reactor back to other sockets (level-triggered epoll re-fires for
    /// whatever remains). Bounds both per-connection monopoly of the
    /// reactor thread and parser-buffer growth between `advance` calls.
    const READ_BUDGET: usize = 16;

    /// Drains (a bounded amount of) the socket into the connection's
    /// parser. Returns `false` when the connection was closed.
    fn read_ready(&mut self, token: u64) -> bool {
        enum Outcome {
            Progress,
            Eof,
            Errored,
        }
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            let mut chunk = [0u8; 16 * 1024];
            let mut reads = 0;
            loop {
                if reads == Self::READ_BUDGET {
                    break Outcome::Progress;
                }
                match conn.stream.read(&mut chunk) {
                    Ok(0) => break Outcome::Eof, // Peer half-closed its write side.
                    Ok(n) => {
                        conn.parser.feed(&chunk[..n]);
                        reads += 1;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        break Outcome::Progress
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break Outcome::Errored,
                }
            }
        };
        match outcome {
            Outcome::Errored => {
                self.close(token, CloseWhy::Gone);
                false
            }
            Outcome::Eof => {
                // EOF is not abandonment: a client may send its request,
                // shutdown(WR), and wait. Answer whatever is already
                // buffered; `advance` closes the moment the parser runs
                // dry (and a half-read request head never completes, so
                // it closes immediately).
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.peer_closed = true;
                }
                self.advance(token);
                self.conns.contains_key(&token)
            }
            Outcome::Progress => {
                self.advance(token);
                true
            }
        }
    }

    /// Runs the parser over whatever is buffered: dispatches complete
    /// requests, answers malformed ones, or records the right deadline
    /// for a partial one. One request is in flight per connection at a
    /// time; pipelined followers stay buffered until the response is out.
    ///
    /// This is a *loop*, not recursion: a burst of pipelined requests that
    /// are answered synchronously (503 shedding, 400s) cycles
    /// parse → respond → parse here with constant stack depth —
    /// [`try_write`](Reactor::try_write) never calls back into `advance`.
    fn advance(&mut self, token: u64) {
        loop {
            let now = Instant::now();
            let parsed = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.phase != Phase::Idle && conn.phase != Phase::Reading {
                    return;
                }
                conn.parser.advance()
            };
            match parsed {
                Parsed::Incomplete => {
                    let mut sweep = None;
                    if let Some(conn) = self.conns.get_mut(&token) {
                        if conn.peer_closed {
                            // EOF seen and nothing more answerable is
                            // buffered: the exchange is over.
                            self.close(token, CloseWhy::Finished);
                            return;
                        }
                        let (phase, timeout) = if conn.parser.mid_request() {
                            (Phase::Reading, self.opts.read_timeout)
                        } else {
                            (Phase::Idle, self.opts.idle_timeout)
                        };
                        // Keep an existing read deadline: a slow-loris
                        // client must not extend its budget by dribbling
                        // bytes.
                        if conn.phase != phase {
                            let deadline = now + timeout;
                            conn.phase = phase;
                            conn.deadline = Some(deadline);
                            sweep = Some(deadline);
                        }
                    }
                    if let Some(deadline) = sweep {
                        self.schedule_sweep(deadline);
                    }
                    return;
                }
                Parsed::Request(request) => match self.dispatch(token, request) {
                    // With the pool: the completion queue continues this
                    // connection later.
                    None => return,
                    // Shed synchronously and the connection is idle again:
                    // keep parsing the pipelined backlog.
                    Some(WriteProgress::Idle) => continue,
                    Some(WriteProgress::Pending | WriteProgress::Closed) => return,
                },
                Parsed::Malformed(msg) => {
                    let resp =
                        Response::json(400, Json::obj([("error", Json::str(msg))]).to_string());
                    self.queue_response(token, resp, false);
                    return;
                }
            }
        }
    }

    /// Hands a complete request to the worker pool (`None`), answers it
    /// synchronously on the reactor thread (liveness probes, proof-only
    /// drags, 503 shedding when the pool's bounded queue is full —
    /// backpressure), returning how that synchronous response went.
    fn dispatch(&mut self, token: u64, request: Request) -> Option<WriteProgress> {
        let Some(conn) = self.conns.get(&token) else {
            return Some(WriteProgress::Closed);
        };
        let keep_alive = !request.wants_close() && !self.draining;
        let peer = conn.peer;
        // The trace starts at parse completion: its clock zero *is* the
        // ParseDone stamp.
        let request_trace = self
            .state
            .telemetry
            .start_trace(&request.method, &request.path);
        if let Some(t) = &request_trace {
            t.stamp(Stage::ParseDone);
        }
        // Liveness and telemetry bypass the pool entirely (a saturated
        // queue must not 503 the probes that would diagnose it), and so
        // do a drag that needs no evaluation and no commit, and a
        // fast-tier commit with nothing to journal (the hand-off to a
        // worker and back would cost as much as either). It runs as a
        // pool job does: its trace is current and a panic becomes a 500.
        let start = Instant::now();
        let inline = {
            let _current = request_trace.as_ref().map(trace::set_current);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                routes::inline(&self.state, &request, peer)
            }))
            .unwrap_or_else(|_| Some(internal_error()))
        };
        if let Some(response) = inline {
            self.state
                .stats
                .record(start.elapsed(), response.status >= 400);
            if let Some(t) = &request_trace {
                t.set_status(response.status);
                t.stamp(Stage::WorkerDone);
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.trace = request_trace;
            }
            return Some(self.queue_response(token, response, keep_alive));
        }
        let state = Arc::clone(&self.state);
        let notifier = Arc::clone(&self.notifier);
        let job_trace = request_trace.clone();
        // Two clocks: queue wait (enqueue → worker pickup) and processing
        // (the route itself). /stats reports both, so load shows up as
        // stage_queue_p99 instead of silently inflating the processing number
        // that is compared across transports.
        let enqueued = Instant::now();
        if let Some(t) = &request_trace {
            t.stamp(Stage::Queued);
        }
        let job = move || {
            let start = Instant::now();
            state.stats.record_queue_wait(start - enqueued);
            // Install the trace as the worker's current one so the layers
            // below (journal append, fsync, replication gate, prepare)
            // can stamp without being handed a handle; the guard restores
            // on unwind too.
            let guard = job_trace.as_ref().map(|t| {
                t.stamp(Stage::Dequeued);
                trace::set_current(t)
            });
            if let Some(t) = &job_trace {
                t.stamp(Stage::Dispatched);
            }
            // A panicking route must still produce a completion: without
            // it, `in_flight` never reaches zero again, the connection
            // wedges in Dispatched, and graceful drain can never finish.
            let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                routes::dispatch(&state, &request, peer)
            }))
            .unwrap_or_else(|_| internal_error());
            drop(guard);
            if let Some(t) = &job_trace {
                t.set_status(response.status);
                t.stamp(Stage::WorkerDone);
            }
            state.stats.record(start.elapsed(), response.status >= 400);
            notifier.push(Completion {
                token,
                response,
                keep_alive,
                trace: job_trace,
            });
        };
        match self.pool.try_execute(job) {
            Ok(()) => {
                self.in_flight += 1;
                // Register with the stall watchdog for as long as the
                // request is queued or executing; untracked when its
                // completion reaches this reactor (write-phase stalls are
                // already bounded by write deadlines).
                if let Some(t) = &request_trace {
                    self.state.telemetry.track(self.index, t);
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.phase = Phase::Dispatched;
                    conn.deadline = None;
                }
                // Stop reading while the request is in flight: pipelined
                // bytes wait in the kernel buffer, bounded by TCP flow
                // control rather than our memory.
                self.set_interest(token, 0);
                None
            }
            Err(_) => {
                self.state.stats.record_queue_rejection();
                let resp = Response::json(
                    503,
                    Json::obj([("error", Json::str("server saturated"))]).to_string(),
                )
                .with_header("Retry-After", "1");
                if let Some(t) = &request_trace {
                    t.set_status(resp.status);
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.trace = request_trace;
                }
                Some(self.queue_response(token, resp, keep_alive))
            }
        }
    }

    /// Serializes a response onto the connection and starts writing it.
    /// Takes the response by value: the body is *moved* into the
    /// connection (zero copies), and the head is serialized into the
    /// connection's reusable head buffer.
    fn queue_response(
        &mut self,
        token: u64,
        response: Response,
        keep_alive: bool,
    ) -> WriteProgress {
        let keep_alive = keep_alive && !self.draining;
        let deadline = Instant::now() + self.opts.read_timeout;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return WriteProgress::Closed;
            };
            response.encode_head_into(keep_alive, &mut conn.head_buf);
            conn.body = response.body;
            conn.written = 0;
            conn.keep_alive_after_write = keep_alive;
            conn.phase = Phase::Writing;
            // A peer that stops reading its response is as stalled as one
            // that stops sending its request.
            conn.deadline = Some(deadline);
        }
        self.schedule_sweep(deadline);
        self.try_write(token)
    }

    /// Pushes buffered response bytes — head and body together through
    /// one vectored write (`writev`) while the head is unfinished, then
    /// plain writes for the body remainder. Most responses complete here
    /// in one syscall and never touch EPOLLOUT. Never re-enters the
    /// parser — callers react to [`WriteProgress::Idle`] instead, so
    /// pipelined bursts cannot recurse.
    fn try_write(&mut self, token: u64) -> WriteProgress {
        enum Outcome {
            Done(bool),
            Blocked,
            Dead,
        }
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return WriteProgress::Closed;
            };
            loop {
                let head_len = conn.head_buf.len();
                if conn.written == head_len + conn.body.len() {
                    break Outcome::Done(conn.keep_alive_after_write);
                }
                let result = if conn.written < head_len {
                    let bufs = [
                        IoSlice::new(&conn.head_buf[conn.written..]),
                        IoSlice::new(&conn.body),
                    ];
                    (&conn.stream).write_vectored(&bufs)
                } else {
                    (&conn.stream).write(&conn.body[conn.written - head_len..])
                };
                match result {
                    Ok(0) => break Outcome::Dead,
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Outcome::Blocked,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break Outcome::Dead,
                }
            }
        };
        if matches!(outcome, Outcome::Done(_)) {
            // The response is fully on the wire: stamp the final stage and
            // feed the histograms + flight recorder. `take()` makes later
            // passes over an already-written buffer a no-op.
            if let Some(t) = self.conns.get_mut(&token).and_then(|c| c.trace.take()) {
                t.stamp(Stage::ResponseWritten);
                let done = self.state.telemetry.finish(&t);
                self.state.stats.record_trace(&done);
            }
        }
        match outcome {
            // Keep-alive survives the response only outside drain mode: a
            // draining reactor must not park connections in Idle, or run()
            // would wait out their idle_timeout before exiting.
            Outcome::Done(true) if !self.draining => {
                let deadline = Instant::now() + self.opts.idle_timeout;
                if let Some(conn) = self.conns.get_mut(&token) {
                    // Keep `head_buf`'s capacity for the next response on
                    // this connection; only the (moved-in) body is dropped.
                    conn.head_buf.clear();
                    conn.body = Vec::new();
                    conn.written = 0;
                    conn.phase = Phase::Idle;
                    conn.deadline = Some(deadline);
                }
                self.schedule_sweep(deadline);
                self.set_interest(token, ffi::EPOLLIN);
                WriteProgress::Idle
            }
            Outcome::Done(_) => {
                self.close(token, CloseWhy::Finished);
                WriteProgress::Closed
            }
            Outcome::Blocked => {
                self.set_interest(token, ffi::EPOLLOUT);
                WriteProgress::Pending
            }
            Outcome::Dead => {
                self.close(token, CloseWhy::Gone);
                WriteProgress::Closed
            }
        }
    }

    /// Applies responses the workers finished since the last pass.
    fn apply_completions(&mut self) {
        let done = std::mem::take(&mut *self.notifier.done.lock().expect("completion lock"));
        for completion in done {
            self.in_flight -= 1;
            if let Some(t) = &completion.trace {
                self.state.telemetry.untrack(self.index, t.id);
            }
            // The connection may have died while its request was being
            // processed; the response is then dropped on the floor.
            if self.conns.contains_key(&completion.token) {
                if let Some(conn) = self.conns.get_mut(&completion.token) {
                    conn.trace = completion.trace;
                }
                let progress = self.queue_response(
                    completion.token,
                    completion.response,
                    completion.keep_alive,
                );
                if progress == WriteProgress::Idle {
                    // Serve whatever the client pipelined behind the
                    // answered request.
                    self.advance(completion.token);
                }
            }
        }
    }

    fn set_interest(&mut self, token: u64, events: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.interest == events {
            return;
        }
        conn.interest = events;
        let fd = conn.stream.as_raw_fd();
        if ffi::modify(self.epoll.fd, fd, events, token).is_err() {
            self.close(token, CloseWhy::Gone);
        }
    }

    /// Closes expired connections and reschedules the next sweep.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        if now < self.next_sweep {
            return;
        }
        let mut next = now + MAX_POLL.max(self.opts.idle_timeout);
        let mut expired = Vec::new();
        for (&token, conn) in &self.conns {
            match conn.deadline {
                Some(d) if d <= now => expired.push((token, conn.phase)),
                Some(d) => next = next.min(d),
                None => {}
            }
        }
        self.next_sweep = next;
        for (token, phase) in expired {
            let why = if phase == Phase::Idle {
                CloseWhy::IdleReaped
            } else {
                CloseWhy::TimedOut
            };
            self.close(token, why);
        }
    }

    /// The stall watchdog: snapshots any in-flight trace older than the
    /// configured threshold into the flight recorder (with queue depth
    /// and the degraded flag) so a wedged request is inspectable *while*
    /// it is wedged, not only after it completes. Paced at a quarter of
    /// the threshold — the [`MAX_POLL`] wake floor guarantees the
    /// cadence even on an otherwise idle reactor.
    fn sweep_stalls(&mut self) {
        let stall_us = self.state.telemetry.stall_us();
        if stall_us == 0 || Instant::now() < self.next_stall_sweep {
            return;
        }
        let period = Duration::from_micros((stall_us / 4).max(50_000));
        self.next_stall_sweep = Instant::now() + period;
        let stalled = self.state.telemetry.sweep_stalls(
            self.index,
            self.pool.queued() as u64,
            self.state.store.backend().degraded(),
        );
        if stalled > 0 {
            self.state.stats.record_stalls(stalled);
        }
    }

    fn close(&mut self, token: u64, why: CloseWhy) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.shared.conns_open.fetch_sub(1, Ordering::Relaxed);
        match why {
            CloseWhy::TimedOut => self.state.stats.record_read_timeout(),
            CloseWhy::IdleReaped => self.state.stats.record_idle_reaped(),
            CloseWhy::Gone | CloseWhy::Finished => {}
        }
        // Dropping the stream closes the fd, which also detaches it from
        // epoll; an explicit DEL keeps the interest list tidy if the fd
        // were ever held elsewhere, and is harmless when not.
        let _ = ffi::del(self.epoll.fd, conn.stream.as_raw_fd());
    }

    /// Flips into drain mode: stop accepting, shed idle and half-read
    /// connections, and let dispatched/writing requests finish.
    fn enter_drain(&mut self) {
        self.draining = true;
        let _ = ffi::del(self.epoll.fd, self.listener.as_raw_fd());
        let doomed: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.phase, Phase::Idle | Phase::Reading))
            .map(|(&t, _)| t)
            .collect();
        for token in doomed {
            self.close(token, CloseWhy::Finished);
        }
    }

    /// Publishes connection gauges at most every [`GAUGE_PERIOD`] — the
    /// counts are O(connections) to compute, and `/stats` does not need
    /// them fresher than that.
    fn push_gauges(&mut self) {
        if Instant::now() < self.next_gauge_push {
            return;
        }
        self.push_gauges_now();
    }

    fn push_gauges_now(&mut self) {
        // A fully idle server has nothing changing: fall back to the
        // MAX_POLL wake floor instead of a 20 Hz gauge heartbeat. Any
        // accept or completion wakes the reactor and refreshes sooner.
        let quiescent = self.conns.is_empty() && self.in_flight == 0;
        self.next_gauge_push = Instant::now() + if quiescent { MAX_POLL } else { GAUGE_PERIOD };
        let idle = self
            .conns
            .values()
            .filter(|c| c.phase == Phase::Idle)
            .count() as u64;
        self.state.stats.set_reactor_gauges(
            self.index,
            ConnGauges {
                open: self.conns.len() as u64,
                idle,
                in_flight: self.in_flight,
            },
            self.pool.queued() as u64,
        );
    }
}
