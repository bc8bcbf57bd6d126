//! The journaled [`SessionBackend`]: a per-shard write-ahead log with
//! snapshot compaction, crash recovery, eviction-to-disk — and a tail
//! surface ([`positions`](JournalBackend::positions) /
//! [`read_span`](JournalBackend::read_span) /
//! [`shard_state`](JournalBackend::shard_state)) that the replication
//! subsystem ([`crate::replicate`]) streams to followers.
//!
//! # On-disk layout
//!
//! The data directory holds, per shard (sharding by a stable FNV-1a hash
//! of the session id, *not* the process-keyed hasher the store uses):
//!
//! ```text
//! shard07.g000000.wal     framed mutation records, append-only
//! shard07.g000001.snap    materialized state at the start of g000001
//! shard07.g000001.wal     records appended since that snapshot
//! ```
//!
//! Every record is length-prefixed and checksummed:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: `len` bytes of JSON]
//! ```
//!
//! A torn or corrupt record — a crash mid-write — ends the journal: the
//! file is truncated at the last valid record and the server boots with
//! everything before it. Only acknowledged operations are ever fsynced
//! past, so nothing acknowledged is lost (under `--fsync batch`).
//!
//! # Fsync policies
//!
//! `batch` (the default) is a *group commit*: no append is acknowledged
//! before an fsync covers it. An appender that finds no fsync in flight
//! leads one immediately (a lone writer pays one fsync per record);
//! appenders that arrive during a sync wait for it and are covered by the
//! next one — so a burst of W concurrent writers costs ~2 fsyncs instead
//! of W. A failed fsync fails every append of its group and degrades the
//! shard. The maintenance thread also flushes any pending group every
//! [`TICK`]. `never` leaves syncing to the OS.
//!
//! # Generations and compaction
//!
//! `snap.g(N)` holds the state at the *start* of `wal.g(N)`; replay is
//! "load snapshot, apply wal". Compaction creates an empty `wal.g(N+1)`,
//! writes `snap.g(N+1)` from the in-memory shadow state and renames it
//! into place — the commit point, and the last fallible step — then
//! removes generation `N`. A failure anywhere before the rename leaves
//! the shard appending to `wal.g(N)`, which boot still selects: gen
//! selection keys off *snapshots* (a wal without its snapshot is an
//! incomplete compaction, empty by construction), so a failed compaction
//! can never orphan records acked after it. Compaction only runs when no
//! operation sits between its journal append and its in-memory apply
//! (`in_flight == 0`), the one window where rotating the journal could
//! drop an acknowledged record — and it runs on the backend's maintenance
//! thread, never on a request path: the request that trips a threshold
//! pays nothing; the rotation happens within a tick.
//!
//! # Replay as a correctness oracle
//!
//! Replay does not shortcut: committed substitutions are re-applied
//! through the same editor path as live traffic — full prepare on create,
//! incremental prepare per commit — so every recovery exercises
//! `sns-sync`'s incremental machinery and must reproduce the pre-crash
//! code and canvas bit for bit (see `tests/persistence.rs`). Replication
//! followers apply the *same* records through the same path, so a
//! follower is, continuously, what a recovery would produce.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::IpAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sns_faults::{FaultAction, Faults};
use sns_lang::{LocId, Subst};
use sns_obs::log::{self as obs_log, Value};
use sns_obs::trace as obs_trace;

use crate::json::{self, Json};
use crate::persist::{JournalGauges, Op, SessionBackend};
use crate::session::Session;
use crate::store::SHARDS;

/// When `fsync` runs relative to journal appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Group commit, the default: an appender with no fsync in progress
    /// performs one immediately, covering every record written so far;
    /// appenders that arrive while a sync runs wait for it and join the
    /// next group. No acknowledged operation can be lost to a crash, and
    /// one fsync is amortized across every writer in the group, so under
    /// concurrency the tail pays one fsync, not one *per record*.
    #[default]
    Batch,
    /// Never sync explicitly; the OS decides. Survives process crashes
    /// (the page cache persists) but not power loss.
    Never,
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "batch" => Ok(FsyncPolicy::Batch),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("unknown fsync policy `{other}` (batch|never)")),
        }
    }
}

/// How long an append waits for its group fsync before giving up (only
/// fires if the disk has wedged).
const GROUP_COMMIT_TIMEOUT: Duration = Duration::from_secs(2);

/// The maintenance thread's period: each tick flushes pending group
/// fsyncs, probes degraded shards and compacts where thresholds crossed.
const TICK: Duration = Duration::from_millis(5);

/// How long an append waits for the configured number of follower acks
/// (`--replicate-to`) before failing the request.
const REPL_SYNC_TIMEOUT: Duration = Duration::from_secs(5);

/// Journal configuration.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// The data directory (created if absent).
    pub dir: PathBuf,
    /// When to fsync appended records.
    pub fsync: FsyncPolicy,
    /// Compact a shard once its journal exceeds this many bytes.
    pub compact_bytes: u64,
    /// Compact a shard once its record count exceeds this multiple of its
    /// live-session count (so replay cost tracks live state, not history).
    pub compact_factor: u64,
    /// Fault injection handle (debug builds only; disarmed by default).
    /// Injection points: `journal.write`, `journal.fsync`,
    /// `journal.rename`.
    pub faults: Faults,
}

impl JournalConfig {
    /// Defaults tuned for tiny per-session state: compact at 1 MiB or 8
    /// records per live session, whichever comes first; group commit.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Batch,
            compact_bytes: 1 << 20,
            compact_factor: 8,
            faults: Faults::disabled(),
        }
    }
}

/// Consecutive failed journal writes on one shard before it degrades to
/// read-only (a single failed write is the client's problem; a run of
/// them means the disk, not the request). A failed fsync degrades at
/// once: its group's records may sit anywhere behind the head.
const DEGRADE_AFTER_FAILURES: u32 = 3;

/// How often the maintenance thread probes a degraded shard's disk.
const PROBE_INTERVAL: Duration = Duration::from_millis(100);

/// The record a degraded-shard probe appends (and immediately truncates
/// away). Decodes to no known op, so a crash mid-probe replays past it
/// harmlessly.
const PROBE_RECORD: &[u8] = br#"{"op":"probe"}"#;

/// A shard never compacts below this many records (avoids churn while a
/// shard is nearly empty).
const COMPACT_MIN_RECORDS: u64 = 64;

/// One durable session as the shadow map holds it: current program text
/// plus the creating IP (the per-IP durable quota's unit of account).
#[derive(Debug, Clone)]
pub(crate) struct ShadowEntry {
    pub(crate) code: String,
    pub(crate) owner: Option<IpAddr>,
}

/// Per-shard journal state. The shadow map holds every durable session's
/// current program text — the store's source of truth for fault-in and
/// the snapshot writer's input. Program text is small (the paper's whole
/// corpus is ~100 KB), so retaining it in memory is the cheap half of
/// demotion: the expensive state an evicted session sheds is its editor
/// (canvas, traces, triggers), which is orders of magnitude larger.
struct Shard {
    wal: File,
    gen: u64,
    bytes: u64,
    records: u64,
    /// Records appended since the last fsync started (batch policy).
    unsynced: u64,
    /// Operations journaled but not yet reported via `applied` — while
    /// nonzero, compaction must not rotate the journal.
    in_flight: u64,
    /// The journal offset below which every record's effect is reflected
    /// in the shadow — the safe cursor for a replication snapshot.
    /// Updated whenever `in_flight` touches zero; while operations are in
    /// flight it stays at the offset before the burst began, so a
    /// snapshot taken mid-burst under-claims (the burst's records get
    /// re-streamed, and follower applies are idempotent).
    shadow_stable: u64,
    /// Set when an append's post-write wait failed (`abort_in_flight`):
    /// the journal now holds a record whose effect will *never* reach the
    /// shadow, so `shadow_stable` must not advance past it — it freezes
    /// until the next compaction rewrites history from the shadow (which
    /// is the point where the orphaned record leaves the journal).
    stable_frozen: bool,
    /// Set when the shard's disk stopped taking writes — a failed append
    /// could not be truncated away, a group fsync failed, or appends kept
    /// failing — and the shard refuses appends instead of issuing false
    /// acks. Unlike the old permanent "poisoned" state this is
    /// *recoverable*: the maintenance thread probes the disk
    /// ([`JournalInner::probe_degraded`]) and re-arms writes once a full
    /// write + fsync round-trip succeeds again. Reads never consult this
    /// flag; a degraded shard keeps serving from its shadow.
    degraded: bool,
    /// Consecutive failed journal writes; at [`DEGRADE_AFTER_FAILURES`]
    /// the shard degrades. Reset by any successful append.
    append_failures: u32,
    /// When the shard degraded (for the recovery log's outage span).
    degraded_since: Option<Instant>,
    /// When the maintenance thread last probed this degraded shard.
    last_probe: Option<Instant>,
    shadow: HashMap<String, ShadowEntry>,
}

/// Group-commit rendezvous for one shard: the absolute journal offset the
/// last successful fsync covered, plus whether a sync is in flight (the
/// group being formed). Batch-policy appenders either lead a sync or
/// wait for the running one and join the next group.
struct GroupSync {
    state: Mutex<GroupState>,
    cv: Condvar,
}

#[derive(Debug, Clone, Copy)]
struct GroupState {
    synced: u64,
    syncing: bool,
    poisoned: bool,
    /// Bumped by every [`reset`](GroupSync::reset): offsets from
    /// different journal generations must never compare, so a completed
    /// fsync only publishes if its epoch still matches — an fsync of the
    /// *retired* file finishing after a rotation must not mark the fresh
    /// generation's offsets as covered.
    epoch: u64,
}

impl GroupSync {
    fn new(synced: u64) -> GroupSync {
        GroupSync {
            state: Mutex::new(GroupState {
                synced,
                syncing: false,
                poisoned: false,
                epoch: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The current epoch (callers capture it before starting an fsync).
    fn epoch(&self) -> u64 {
        self.state.lock().expect("group sync lock").epoch
    }

    /// Compaction reset: a fresh generation starts at offset zero, fully
    /// synced (rotation only runs with no waiters in flight).
    fn reset(&self) {
        let mut st = self.state.lock().expect("group sync lock");
        st.synced = 0;
        st.epoch += 1;
        drop(st);
        self.cv.notify_all();
    }

    /// Clears a poisoned group after the shard's disk recovered: the
    /// probe has fsynced the whole file, so `synced` jumps to the shard
    /// head. The epoch bump keeps any straggling fsync of the failed
    /// regime from publishing.
    fn repair(&self, synced: u64) {
        let mut st = self.state.lock().expect("group sync lock");
        st.poisoned = false;
        st.synced = synced;
        st.epoch += 1;
        drop(st);
        self.cv.notify_all();
    }
}

/// A monotone counter bumped on every journal append, waitable — how the
/// replication streamers learn there is something new to ship without
/// polling the shard locks hot.
pub(crate) struct AppendSignal {
    seq: Mutex<u64>,
    cv: Condvar,
}

impl AppendSignal {
    fn new() -> AppendSignal {
        AppendSignal {
            seq: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn bump(&self) {
        *self.seq.lock().expect("append signal lock") += 1;
        self.cv.notify_all();
    }

    /// The current sequence number.
    pub(crate) fn current(&self) -> u64 {
        *self.seq.lock().expect("append signal lock")
    }

    /// Waits (bounded) until the sequence passes `seen`; returns the
    /// sequence observed on wake.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let seq = self.seq.lock().expect("append signal lock");
        if *seq > seen {
            return *seq;
        }
        *self
            .cv
            .wait_timeout(seq, timeout)
            .expect("append signal lock")
            .0
    }
}

/// One registered follower's gate state: its human-meaningful peer label
/// (for trace stitching and labeled metrics) and the positions it acked.
struct FollowerSlot {
    peer: String,
    /// Acked `(generation, bytes)` per shard.
    cursors: Vec<(u64, u64)>,
}

/// The synchronous-replication gate: follower ack positions, and the wait
/// an append performs when `--replicate-to N` demands N follower acks
/// before the client may be answered.
pub(crate) struct ReplGate {
    min_sync: AtomicUsize,
    /// Follower id → peer label + acked positions.
    acked: Mutex<HashMap<u64, FollowerSlot>>,
    cv: Condvar,
}

impl ReplGate {
    fn new() -> ReplGate {
        ReplGate {
            min_sync: AtomicUsize::new(0),
            acked: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn set_min_sync(&self, n: usize) {
        self.min_sync.store(n, Ordering::Relaxed);
        self.cv.notify_all();
    }

    /// Registers a connected follower with the positions it claims to
    /// have already applied. `peer` labels the follower in stitched
    /// traces and the per-peer metric families.
    pub(crate) fn register(&self, id: u64, peer: String, cursors: Vec<(u64, u64)>) {
        self.acked
            .lock()
            .expect("repl gate lock")
            .insert(id, FollowerSlot { peer, cursors });
        self.cv.notify_all();
    }

    /// Drops a disconnected follower; waiters re-evaluate (and, with too
    /// few followers left, eventually time out).
    pub(crate) fn deregister(&self, id: u64) {
        self.acked.lock().expect("repl gate lock").remove(&id);
        self.cv.notify_all();
    }

    pub(crate) fn record_ack(&self, id: u64, cursors: &[(u64, u64)]) {
        if let Some(slot) = self.acked.lock().expect("repl gate lock").get_mut(&id) {
            slot.cursors.clear();
            slot.cursors.extend_from_slice(cursors);
        }
        self.cv.notify_all();
    }

    fn covered(cursor: (u64, u64), gen: u64, bytes: u64) -> bool {
        cursor.0 > gen || (cursor.0 == gen && cursor.1 >= bytes)
    }

    /// Blocks until `min_sync` followers have acked shard `idx` through
    /// `(gen, bytes)`. A no-op when `min_sync` is zero (async mode).
    /// Returns each covering follower's `(peer, µs until its ack first
    /// covered the record)` — the leader stitches these into the
    /// request's trace as per-follower ack spans.
    fn wait_replicated(&self, idx: usize, gen: u64, bytes: u64) -> io::Result<Vec<(String, u64)>> {
        let need = self.min_sync.load(Ordering::Relaxed);
        if need == 0 {
            return Ok(Vec::new());
        }
        let began = Instant::now();
        let deadline = began + REPL_SYNC_TIMEOUT;
        // Follower id → (peer, first-cover latency). Tracked across
        // condvar passes so a follower observed covering on an early pass
        // keeps its early timestamp even if the wait continues for peers.
        let mut seen: HashMap<u64, (String, u64)> = HashMap::new();
        let mut acked = self.acked.lock().expect("repl gate lock");
        loop {
            // A follower that covered earlier but has since disconnected
            // loses its vote, exactly as the pre-latency gate behaved.
            seen.retain(|id, _| acked.contains_key(id));
            let elapsed_us = began.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            for (id, slot) in acked.iter() {
                if !seen.contains_key(id)
                    && slot
                        .cursors
                        .get(idx)
                        .is_some_and(|c| ReplGate::covered(*c, gen, bytes))
                {
                    seen.insert(*id, (slot.peer.clone(), elapsed_us));
                }
            }
            if seen.len() >= need {
                return Ok(seen.into_values().collect());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("replication sync: {}/{need} followers acked", seen.len()),
                ));
            }
            acked = self.cv.wait_timeout(acked, left).expect("repl gate lock").0;
        }
    }
}

/// One shard's catch-up snapshot: `(generation, covered offset, one
/// [`snapshot_row`] per session)`. See [`JournalInner::shard_state`].
pub(crate) type ShardState = (u64, u64, Vec<Json>);

/// The shared core of the journal: everything the backend, its
/// maintenance thread, and the replication streamers touch.
pub(crate) struct JournalInner {
    dir: PathBuf,
    fsync: FsyncPolicy,
    compact_bytes: u64,
    compact_factor: u64,
    shards: Vec<Mutex<Shard>>,
    group: Vec<GroupSync>,
    /// Durable sessions per creating IP, maintained incrementally at
    /// `applied_create`/`applied_delete` (and seeded by replay): the
    /// quota check on every `POST /sessions` must not scan 16 shadow
    /// maps under their locks.
    owner_counts: Mutex<HashMap<IpAddr, usize>>,
    pub(crate) signal: AppendSignal,
    pub(crate) gate: ReplGate,
    faults: Faults,
    /// How many shards are currently degraded (read-only).
    degraded_count: AtomicUsize,
    snapshots: AtomicU64,
    faultins: AtomicU64,
    fsyncs: AtomicU64,
    replay_us: AtomicU64,
    stop: Mutex<bool>,
    stop_cv: Condvar,
}

/// The journaled backend. See the module docs for the design. Thin
/// wrapper over an [`JournalInner`] shared with the maintenance thread
/// (group fsyncs + background compaction) and any replication streamers.
pub struct JournalBackend {
    inner: Arc<JournalInner>,
    maintenance: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Held for the backend's lifetime; removed on drop (a crash leaves
    /// it behind, and the stale-pid check below reclaims it).
    lock_path: PathBuf,
}

impl Drop for JournalBackend {
    fn drop(&mut self) {
        *self.inner.stop.lock().expect("journal stop lock") = true;
        self.inner.stop_cv.notify_all();
        if let Some(handle) = self.maintenance.lock().expect("maintenance lock").take() {
            let _ = handle.join();
        }
        let _ = fs::remove_file(&self.lock_path);
    }
}

/// Claims exclusive ownership of a data directory via a pid lockfile.
/// Two live servers appending to the same shards would corrupt each
/// other (truncate each other's "torn" tails, unlink each other's
/// generations), so a second open must fail loudly instead. A lockfile
/// whose pid is no longer alive (`/proc/<pid>` absent — the `kill -9`
/// this journal exists to survive) is stale and reclaimed.
fn acquire_dir_lock(dir: &Path) -> io::Result<PathBuf> {
    let lock_path = dir.join("sns-server.lock");
    for _ in 0..3 {
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(mut lock) => {
                lock.write_all(std::process::id().to_string().as_bytes())?;
                lock.sync_all()?;
                return Ok(lock_path);
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let holder = fs::read_to_string(&lock_path).unwrap_or_default();
                let alive = holder
                    .trim()
                    .parse::<u32>()
                    .is_ok_and(|pid| Path::new(&format!("/proc/{pid}")).exists());
                if alive {
                    return Err(io::Error::other(format!(
                        "data dir {} is in use by pid {} (two servers on one \
                         journal would corrupt it)",
                        dir.display(),
                        holder.trim()
                    )));
                }
                // Stale lock from a crashed process. Claim it by renaming
                // it to a name only we use — rename is atomic on the
                // source, so of N contenders exactly one succeeds and the
                // rest retry `create_new` (and then lose to the winner's
                // fresh, live-pid lock). A plain `remove_file` here would
                // let two contenders both delete-and-create.
                let tomb = dir.join(format!("sns-server.lock.stale.{}", std::process::id()));
                if fs::rename(&lock_path, &tomb).is_ok() {
                    let _ = fs::remove_file(&tomb);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::other(format!(
        "could not claim lock in {}",
        dir.display()
    )))
}

impl JournalBackend {
    /// Opens (or initializes) a data directory, replaying each shard's
    /// snapshot and journal tail. Returns the backend plus the sessions the journal
    /// tail touched, already materialized — the caller adopts them into
    /// the store; snapshot-only sessions stay demoted until faulted in.
    /// Spawns the maintenance thread (group fsyncs under `batch`,
    /// background snapshot compaction), joined again on drop.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating, reading, or truncating files.
    /// Corrupt or torn trailing records are truncated, not fatal.
    pub fn open(config: JournalConfig) -> io::Result<(JournalBackend, Vec<Session>)> {
        let started = Instant::now();
        fs::create_dir_all(&config.dir)?;
        let lock_path = acquire_dir_lock(&config.dir)?;
        let mut shards = Vec::with_capacity(SHARDS);
        let mut group = Vec::with_capacity(SHARDS);
        let mut recovered = Vec::new();
        let mut owner_counts: HashMap<IpAddr, usize> = HashMap::new();
        for idx in 0..SHARDS {
            match replay_shard(&config.dir, idx) {
                Ok((shard, mut sessions)) => {
                    for entry in shard.shadow.values() {
                        if let Some(ip) = entry.owner {
                            *owner_counts.entry(ip).or_insert(0) += 1;
                        }
                    }
                    recovered.append(&mut sessions);
                    group.push(GroupSync::new(shard.bytes));
                    shards.push(Mutex::new(shard));
                }
                Err(e) => {
                    // No backend will exist to drop the lock; release it
                    // here or this process could never retry the open.
                    let _ = fs::remove_file(&lock_path);
                    return Err(e);
                }
            }
        }
        // Appends fsync file contents, not directory entries: without
        // this, a power cut could make a freshly created generation-0
        // wal (and every acked record in it) vanish on remount. The data
        // dir's own entry gets the same treatment, best-effort.
        if let Err(e) = sync_dir(&config.dir) {
            let _ = fs::remove_file(&lock_path);
            return Err(e);
        }
        if let Some(parent) = config.dir.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = sync_dir(parent);
        }
        let inner = Arc::new(JournalInner {
            dir: config.dir,
            fsync: config.fsync,
            compact_bytes: config.compact_bytes.max(1),
            compact_factor: config.compact_factor.max(1),
            shards,
            group,
            owner_counts: Mutex::new(owner_counts),
            signal: AppendSignal::new(),
            gate: ReplGate::new(),
            faults: config.faults,
            degraded_count: AtomicUsize::new(0),
            snapshots: AtomicU64::new(0),
            faultins: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            replay_us: AtomicU64::new(started.elapsed().as_micros() as u64),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
        });
        let maint = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("sns-journal-maint".to_string())
                .spawn(move || maintenance_loop(&inner))
                .map_err(io::Error::other)
        };
        let maint = match maint {
            Ok(handle) => handle,
            Err(e) => {
                let _ = fs::remove_file(&lock_path);
                return Err(e);
            }
        };
        let backend = JournalBackend {
            inner,
            maintenance: Mutex::new(Some(maint)),
            lock_path,
        };
        Ok((backend, recovered))
    }

    /// The shared journal core, for the replication subsystem.
    pub(crate) fn inner(&self) -> Arc<JournalInner> {
        Arc::clone(&self.inner)
    }

    /// Compacts every shard with journal records right now, regardless of
    /// thresholds (skipping shards with an operation in flight). For
    /// graceful shutdown and benchmarks; normal operation compacts on the
    /// maintenance thread.
    ///
    /// # Errors
    ///
    /// The first shard rotation that fails.
    pub fn compact_now(&self) -> io::Result<()> {
        self.inner.compact_now()
    }
}

/// The maintenance loop: every [`TICK`], performs the pending group fsync
/// for each shard and any threshold-crossed compaction — both off the
/// request path.
fn maintenance_loop(inner: &JournalInner) {
    let mut stop = inner.stop.lock().expect("journal stop lock");
    loop {
        let (guard, _) = inner
            .stop_cv
            .wait_timeout(stop, TICK)
            .expect("journal stop lock");
        stop = guard;
        if *stop {
            return;
        }
        drop(stop);
        inner.tick();
        stop = inner.stop.lock().expect("journal stop lock");
    }
}

impl JournalInner {
    fn sync(&self, file: &File) -> io::Result<()> {
        match self.faults.decide("journal.fsync") {
            None => {}
            Some(FaultAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(action) => return Err(sns_faults::write_error(action)),
        }
        file.sync_all()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// [`write_frame`] with the `journal.write` injection point applied.
    /// `Short`/`Truncate` leave a genuinely torn frame on disk before
    /// failing — exactly the tail the rollback must cut.
    fn write_frame_checked(&self, file: &mut File, payload: &[u8]) -> io::Result<u64> {
        match self.faults.decide("journal.write") {
            None => write_frame(file, payload),
            Some(FaultAction::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                write_frame(file, payload)
            }
            Some(action @ (FaultAction::Short | FaultAction::Truncate)) => {
                let frame = frame_bytes(payload);
                let _ = file.write_all(&frame[..frame.len() / 2]);
                Err(sns_faults::write_error(action))
            }
            Some(action) => Err(sns_faults::write_error(action)),
        }
    }

    /// One maintenance pass over every shard: re-probe degraded disks,
    /// flush a pending group fsync, and compact where thresholds crossed.
    fn tick(&self) {
        for idx in 0..SHARDS {
            self.probe_degraded(idx);
            let pending = {
                let shard = self.shards[idx].lock().expect("journal shard lock");
                !shard.degraded && shard.unsynced > 0
            };
            if pending {
                // Lead the group only if no appender is leading it: a
                // second, racing fsync would cover nothing new.
                let mut st = self.group[idx].state.lock().expect("group sync lock");
                if !st.syncing && !st.poisoned {
                    st.syncing = true;
                    drop(st);
                    // A failure poisons the group and degrades the shard.
                    let _ = self.lead_group_sync(idx);
                }
            }
            let mut shard = self.shards[idx].lock().expect("journal shard lock");
            self.maybe_compact(idx, &mut shard);
        }
    }

    /// Marks a shard degraded (idempotent; called with the shard locked)
    /// and emits the typed `journal_degraded` event. Reads keep serving;
    /// appends are refused until [`probe_degraded`](Self::probe_degraded)
    /// proves the disk works again.
    fn enter_degraded(&self, idx: usize, shard: &mut Shard, cause: &str, error: &io::Error) {
        if shard.degraded {
            return;
        }
        shard.degraded = true;
        shard.degraded_since = Some(Instant::now());
        shard.last_probe = None;
        self.degraded_count.fetch_add(1, Ordering::Relaxed);
        obs_log::error(
            "journal_degraded",
            &[
                ("shard", Value::U64(idx as u64)),
                ("cause", Value::Str(cause)),
                ("error", Value::Str(&error.to_string())),
            ],
        );
    }

    /// While a shard is degraded, periodically proves its disk works
    /// again and re-arms writes: cut any garbage past the accounted
    /// tail, append a probe frame, fsync, truncate the probe away, fsync
    /// again. Success means a full write + fsync round-trip works, so
    /// the shard leaves degraded mode (`journal_recovered`); failure
    /// stays quiet — the transition was already logged — and the next
    /// tick retries.
    fn probe_degraded(&self, idx: usize) {
        let mut shard = self.shards[idx].lock().expect("journal shard lock");
        if !shard.degraded {
            return;
        }
        if shard
            .last_probe
            .is_some_and(|at| at.elapsed() < PROBE_INTERVAL)
        {
            return;
        }
        shard.last_probe = Some(Instant::now());
        let probed = (|| -> io::Result<()> {
            shard.wal.set_len(shard.bytes)?;
            shard.wal.seek(SeekFrom::End(0))?;
            self.write_frame_checked(&mut shard.wal, PROBE_RECORD)?;
            self.sync(&shard.wal)?;
            shard.wal.set_len(shard.bytes)?;
            self.sync(&shard.wal)?;
            shard.wal.seek(SeekFrom::End(0))?;
            Ok(())
        })();
        if probed.is_err() {
            return;
        }
        shard.degraded = false;
        shard.append_failures = 0;
        // Records journaled after the last successful fsync were failed
        // to their clients (un-acked); freeze the snapshot cursor until
        // compaction rewrites history without them.
        shard.stable_frozen = true;
        let outage_ms = shard
            .degraded_since
            .take()
            .map(|at| at.elapsed().as_millis() as u64)
            .unwrap_or(0);
        self.degraded_count.fetch_sub(1, Ordering::Relaxed);
        // The probe's final fsync covered the whole file, so the group
        // cursor jumps straight to the head.
        self.group[idx].repair(shard.bytes);
        obs_log::info(
            "journal_recovered",
            &[
                ("shard", Value::U64(idx as u64)),
                ("outage_ms", Value::U64(outage_ms)),
            ],
        );
    }

    /// Cuts a shard's journal back to its last complete, acknowledged
    /// record after a failed write (a partial or unacknowledged frame
    /// must not survive to replay). If the file cannot be restored —
    /// truncate or its fsync fails — the shard degrades immediately:
    /// refusing appends until the probe repairs the tail beats
    /// acknowledging records that replay may discard.
    fn rollback_tail(&self, idx: usize, shard: &mut Shard, cause: &io::Error) {
        let recovered = shard
            .wal
            .set_len(shard.bytes)
            .and_then(|()| shard.wal.sync_all())
            .and_then(|()| shard.wal.seek(SeekFrom::End(0)).map(|_| ()));
        if let Err(e) = recovered {
            obs_log::error(
                "journal_rollback_failed",
                &[
                    ("shard", Value::U64(idx as u64)),
                    ("append_error", Value::Str(&cause.to_string())),
                    ("rollback_error", Value::Str(&e.to_string())),
                ],
            );
            self.enter_degraded(idx, shard, "rollback_failed", &e);
        }
    }

    /// Counts a failed journal write; a run of [`DEGRADE_AFTER_FAILURES`]
    /// consecutive failures means the disk, not the request, and the
    /// shard degrades to read-only.
    fn note_append_failure(&self, idx: usize, shard: &mut Shard, error: &io::Error) {
        shard.append_failures = shard.append_failures.saturating_add(1);
        if shard.append_failures >= DEGRADE_AFTER_FAILURES {
            self.enter_degraded(idx, shard, "persistent_append_failure", error);
        }
    }

    /// Rotates one shard: snapshot the shadow, start a fresh journal
    /// generation, remove the old one. Called with the shard locked and
    /// `in_flight == 0`.
    ///
    /// Failure discipline: the snapshot `rename` is the commit point and
    /// the *last* fallible step. Every error before it leaves the shard
    /// untouched on generation N (appends keep landing in `wal.g(N)`,
    /// which boot still selects — a failed compaction can never orphan
    /// records acked afterward). Once the rename succeeds, the swap to
    /// the new generation is unconditional, so no later append can land
    /// in a journal the snapshot has superseded.
    fn compact(&self, idx: usize, shard: &mut Shard) -> io::Result<()> {
        // The outgoing journal must be durable before the snapshot claims
        // to supersede it (a crash between rename and cleanup replays the
        // *new* generation only).
        self.sync(&shard.wal)?;
        let next = shard.gen + 1;
        let wal_path = shard_file(&self.dir, idx, next, "wal");
        let wal = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&wal_path)?;
        self.sync(&wal)?;
        let snap_path = shard_file(&self.dir, idx, next, "snap");
        let tmp_path = snap_path.with_extension("snap.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            for (id, entry) in &shard.shadow {
                write_frame(&mut tmp, snapshot_row(id, entry).to_string().as_bytes())?;
            }
            self.sync(&tmp)?;
        }
        // New wal + snapshot contents durable before the rename publishes
        // them; boot keys generation selection off *snapshots*, so the
        // pre-created wal is invisible until this rename lands.
        sync_dir(&self.dir)?;
        if let Some(action) = self.faults.decide("journal.rename") {
            return Err(sns_faults::write_error(action));
        }
        fs::rename(&tmp_path, &snap_path)?;
        // Commit point passed: from here on, only best-effort steps.
        if let Err(e) = sync_dir(&self.dir) {
            // The rename is visible to this process either way; worst
            // case a crash before the directory entry hits disk boots
            // from generation N, whose journal is complete up to here.
            obs_log::warn(
                "journal_dir_sync_failed",
                &[
                    ("shard", Value::U64(idx as u64)),
                    ("error", Value::Str(&e.to_string())),
                ],
            );
        }
        let _ = fs::remove_file(shard_file(&self.dir, idx, shard.gen, "wal"));
        if shard.gen > 0 {
            let _ = fs::remove_file(shard_file(&self.dir, idx, shard.gen, "snap"));
        }
        let (folded_bytes, folded_records) = (shard.bytes, shard.records);
        shard.wal = wal;
        shard.gen = next;
        shard.bytes = 0;
        shard.records = 0;
        shard.unsynced = 0;
        shard.shadow_stable = 0;
        shard.stable_frozen = false;
        self.group[idx].reset();
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        obs_log::info(
            "journal_compacted",
            &[
                ("shard", Value::U64(idx as u64)),
                ("gen", Value::U64(next)),
                ("folded_records", Value::U64(folded_records)),
                ("folded_bytes", Value::U64(folded_bytes)),
                ("sessions", Value::U64(shard.shadow.len() as u64)),
            ],
        );
        // Streamers tailing the retired generation need to notice and
        // fall back to a snapshot of the new one.
        self.signal.bump();
        Ok(())
    }

    fn compact_now(&self) -> io::Result<()> {
        for (idx, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock().expect("journal shard lock");
            if shard.in_flight == 0 && shard.records > 0 {
                self.compact(idx, &mut shard)?;
            }
        }
        Ok(())
    }

    fn maybe_compact(&self, idx: usize, shard: &mut Shard) {
        if shard.in_flight != 0 || shard.degraded || shard.records <= COMPACT_MIN_RECORDS {
            return;
        }
        let by_bytes = shard.bytes > self.compact_bytes;
        let by_records = shard.records
            > self
                .compact_factor
                .saturating_mul(shard.shadow.len().max(1) as u64);
        if by_bytes || by_records {
            if let Err(e) = self.compact(idx, shard) {
                // Compaction is an optimization; the journal is still the
                // truth. Log and carry on appending to the long journal.
                obs_log::warn(
                    "journal_compaction_failed",
                    &[
                        ("shard", Value::U64(idx as u64)),
                        ("error", Value::Str(&e.to_string())),
                    ],
                );
            }
        }
    }

    /// Folds one shadow-entry ownership transition into the per-IP
    /// durable counts. Called after the shard lock is released (the map
    /// has its own lock; nothing takes a shard lock while holding it).
    fn owner_changed(&self, from: Option<IpAddr>, to: Option<IpAddr>) {
        if from == to {
            return;
        }
        let mut counts = self.owner_counts.lock().expect("owner counts lock");
        if let Some(ip) = from {
            if let Some(n) = counts.get_mut(&ip) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    counts.remove(&ip);
                }
            }
        }
        if let Some(ip) = to {
            *counts.entry(ip).or_insert(0) += 1;
        }
    }

    /// Undoes the `in_flight` claim of an append whose post-append wait
    /// (group fsync, replication ack) failed: the caller will report the
    /// operation failed and never call `applied`, so the claim must be
    /// released here or the shard could never compact again. The record
    /// itself stays in the journal with no shadow effect to come, so the
    /// snapshot cursor freezes below it — advancing past it would hand
    /// followers a snapshot claiming coverage of a record they were
    /// never sent and whose effect it lacks (an over-claim). The freeze
    /// lifts at the next compaction, which drops the orphaned record.
    fn abort_in_flight(&self, idx: usize) {
        let mut shard = self.shards[idx].lock().expect("journal shard lock");
        shard.in_flight = shard.in_flight.saturating_sub(1);
        shard.stable_frozen = true;
    }

    /// Fsyncs shard `idx`'s journal as it stands; returns the offset the
    /// sync is guaranteed to cover plus the group epoch it belongs to
    /// (publishable only while that epoch is current). The fsync itself
    /// runs on a cloned file handle *outside* the shard lock — that is the
    /// whole point of the group commit: writers keep appending (and
    /// joining the next group) while the disk works. Records appended
    /// after the clone may get synced too; the returned offset only
    /// under-claims. A failure degrades the shard (unsynced records may
    /// be anywhere behind the head; no rollback can be exact). With no
    /// record appended since the last sync began there is nothing to
    /// sync: whatever zeroed `unsynced` — the previous group leader (only
    /// one leads at a time) or a compaction — has already synced the
    /// head.
    fn sync_shard_tail(&self, idx: usize) -> io::Result<(u64, u64)> {
        let (wal, end, epoch) = {
            let mut shard = self.shards[idx].lock().expect("journal shard lock");
            if shard.degraded {
                return Err(io::Error::other("journal shard degraded"));
            }
            if shard.unsynced == 0 {
                return Ok((shard.bytes, self.group[idx].epoch()));
            }
            let wal = match shard.wal.try_clone() {
                Ok(wal) => wal,
                Err(e) => {
                    self.enter_degraded(idx, &mut shard, "tail_fsync", &e);
                    return Err(e);
                }
            };
            shard.unsynced = 0;
            // Epoch captured under the shard lock (rotation bumps it
            // while holding the same lock), so a rotation racing this
            // fsync leaves the result unpublishable rather than marking
            // the fresh generation's offsets as covered.
            (wal, shard.bytes, self.group[idx].epoch())
        };
        match self.sync(&wal) {
            Ok(()) => Ok((end, epoch)),
            Err(e) => {
                let mut shard = self.shards[idx].lock().expect("journal shard lock");
                self.enter_degraded(idx, &mut shard, "tail_fsync", &e);
                Err(e)
            }
        }
    }

    /// Runs one group fsync as its leader (the caller has set `syncing`)
    /// and wakes every waiter. Success publishes the covered offset;
    /// failure poisons the group, so each waiting append fails too, and
    /// [`sync_shard_tail`](Self::sync_shard_tail) has degraded the shard.
    fn lead_group_sync(&self, idx: usize) -> io::Result<()> {
        let result = self.sync_shard_tail(idx);
        let gs = &self.group[idx];
        let mut st = gs.state.lock().expect("group sync lock");
        st.syncing = false;
        let out = match result {
            Ok((covered, epoch)) => {
                // An fsync of a retired generation must not mark the
                // fresh one's offsets as covered.
                if st.epoch == epoch && covered > st.synced {
                    st.synced = covered;
                }
                Ok(())
            }
            Err(e) => {
                st.poisoned = true;
                Err(e)
            }
        };
        drop(st);
        gs.cv.notify_all();
        out
    }

    /// The group commit: blocks until a successful fsync covers `end`.
    /// An appender that finds no sync in flight *leads* one immediately —
    /// a lone writer pays one fsync — while appenders that arrive during
    /// a sync wait for it and join the next group, so a burst of W
    /// writers costs ~2 fsyncs, not W.
    fn group_commit(&self, idx: usize, end: u64) -> io::Result<()> {
        let gs = &self.group[idx];
        let deadline = Instant::now() + GROUP_COMMIT_TIMEOUT;
        let mut st = gs.state.lock().expect("group sync lock");
        loop {
            if st.poisoned {
                return Err(io::Error::other("journal shard degraded during group sync"));
            }
            if st.synced >= end {
                return Ok(());
            }
            if !st.syncing {
                st.syncing = true;
                drop(st);
                self.lead_group_sync(idx)?;
                st = gs.state.lock().expect("group sync lock");
                continue;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "group commit did not complete in time",
                ));
            }
            st = gs.cv.wait_timeout(st, left).expect("group sync lock").0;
        }
    }

    // ---- Tail surface (replication) -------------------------------------

    /// Every shard's current `(generation, bytes)` position. Offsets are
    /// always frame-aligned.
    pub(crate) fn positions(&self) -> Vec<(u64, u64)> {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().expect("journal shard lock");
                (s.gen, s.bytes)
            })
            .collect()
    }

    /// Bytes `[from, to)` of shard `idx`'s journal, provided `gen` is
    /// still the live generation — `None` means the journal rotated under
    /// the caller, who should fall back to [`shard_state`](Self::shard_state).
    pub(crate) fn read_span(
        &self,
        idx: usize,
        gen: u64,
        from: u64,
        to: u64,
    ) -> io::Result<Option<Vec<u8>>> {
        // Validate under the lock, read outside it: a catch-up span can
        // be the whole journal, and appends to this shard must not stall
        // behind a follower's disk read. The bytes in [from, to) are
        // immutable once written — rollback only truncates the *unacked*
        // tail above `bytes`, and a compaction racing this read either
        // makes the open fail (file unlinked → treated as rotated) or
        // leaves the open fd reading the retired file's valid frames,
        // which the follower applies idempotently before the next pass
        // notices the new generation and re-syncs.
        let to = {
            let shard = self.shards[idx].lock().expect("journal shard lock");
            if shard.gen != gen || from > shard.bytes {
                return Ok(None);
            }
            to.min(shard.bytes)
        };
        if to <= from {
            return Ok(Some(Vec::new()));
        }
        // A fresh read handle: the append handle's cursor must not move.
        let mut f = match File::open(shard_file(&self.dir, idx, gen, "wal")) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        f.seek(SeekFrom::Start(from))?;
        let mut buf = vec![0u8; (to - from) as usize];
        match f.read_exact(&mut buf) {
            Ok(()) => Ok(Some(buf)),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// A consistent snapshot of one shard for follower catch-up: the
    /// shadow map plus the `(generation, offset)` it is guaranteed to
    /// cover. Records past the offset may already be reflected too (an
    /// operation was in flight); the caller re-streams them, and follower
    /// applies are idempotent, so over-delivery is harmless — what the
    /// offset never does is over-claim.
    pub(crate) fn shard_state(&self, idx: usize) -> ShardState {
        let shard = self.shards[idx].lock().expect("journal shard lock");
        let sessions = shard
            .shadow
            .iter()
            .map(|(id, e)| snapshot_row(id, e))
            .collect();
        (shard.gen, shard.shadow_stable, sessions)
    }
}

impl SessionBackend for JournalBackend {
    fn durable(&self) -> bool {
        true
    }

    fn append(&self, op: Op<'_>) -> io::Result<()> {
        let inner = &*self.inner;
        let payload = {
            let mut v = encode_op(&op);
            // Tag the record with the originating trace id so replication
            // streamers can lift it into the frame-level trace context.
            // Decoders ignore unknown keys, so replay and old peers are
            // unaffected; under --no-trace no tag is ever written.
            if let Some(t) = obs_trace::current() {
                if let Json::Obj(pairs) = &mut v {
                    pairs.push(("tr".to_string(), Json::Num(t.id as f64)));
                }
            }
            v.to_string()
        };
        let idx = shard_index(op.id());
        let mut group_wait: Option<u64> = None;
        let (gen, end) = {
            let mut shard = inner.shards[idx].lock().expect("journal shard lock");
            if shard.degraded {
                return Err(io::Error::other(
                    "journal degraded: writes suspended until the disk recovers",
                ));
            }
            // Mutations on a session the shadow no longer holds lost a race
            // with its (already acknowledged) delete: refuse, so no commit
            // can ever be acked after the delete that erases it. This check
            // and `applied_delete` run under the same shard lock, which is
            // what makes delete-vs-commit linearizable.
            if let Op::Commit { id, .. } | Op::SetCode { id, .. } = op {
                if !shard.shadow.contains_key(id) {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        "session was deleted",
                    ));
                }
            }
            if shard.in_flight == 0 && !shard.stable_frozen {
                // Everything on disk so far is reflected in the shadow;
                // pin the snapshot cursor before this record muddies it.
                shard.shadow_stable = shard.bytes;
            }
            let wrote = match inner.write_frame_checked(&mut shard.wal, payload.as_bytes()) {
                Ok(n) => n,
                Err(e) => {
                    // A partial frame may be on disk (e.g. ENOSPC mid-write).
                    // Cut the file back to the last valid record: replay stops
                    // at the first bad frame, so garbage left here would make
                    // it silently discard every *acked* record appended after.
                    inner.rollback_tail(idx, &mut shard, &e);
                    inner.note_append_failure(idx, &mut shard, &e);
                    return Err(e);
                }
            };
            obs_trace::stamp_current(obs_trace::Stage::JournalAppended);
            if inner.fsync == FsyncPolicy::Batch {
                // Group-committed outside the shard lock, so the writers
                // this sync is amortized across can append meanwhile.
                shard.unsynced += 1;
                group_wait = Some(shard.bytes + wrote);
            }
            shard.bytes += wrote;
            shard.records += 1;
            shard.in_flight += 1;
            shard.append_failures = 0;
            (shard.gen, shard.bytes)
        };
        inner.signal.bump();
        // Post-append waits (group fsync, follower acks) can fail after
        // the record is in the WAL, and later appends may already sit
        // behind it, so it cannot be rolled back like a failed write.
        // The client is told failure; the record itself
        // is in the *un-acked* state every crash already produces (a kill
        // between journal append and HTTP response): a restart may
        // surface it or a compaction may drop it, and either is legal —
        // durability is one-sided, nothing *acked* is ever lost, nothing
        // un-acked is ever promised. Commits carry absolute values, so a
        // surfaced un-acked record converges with the state the client
        // rebuilt after its error.
        if let Some(end) = group_wait {
            if let Err(e) = inner.group_commit(idx, end) {
                inner.abort_in_flight(idx);
                return Err(e);
            }
            obs_trace::stamp_current(obs_trace::Stage::Fsynced);
        }
        match inner.gate.wait_replicated(idx, gen, end) {
            Ok(acks) => {
                if !acks.is_empty() {
                    // Only stamp when the gate actually waited for
                    // followers; an async-replication append has no
                    // repl-ack stage. Each follower's first-cover latency
                    // is stitched into the request trace as its ack span.
                    obs_trace::stamp_current(obs_trace::Stage::ReplAcked);
                    if let Some(t) = obs_trace::current() {
                        for (peer, us) in &acks {
                            t.annotate_follower_ack(peer, *us);
                        }
                    }
                }
            }
            Err(e) => {
                inner.abort_in_flight(idx);
                return Err(e);
            }
        }
        Ok(())
    }

    fn applied_create(&self, id: &str, code: &str, owner: Option<IpAddr>) {
        let idx = shard_index(id);
        let mut shard = self.inner.shards[idx].lock().expect("journal shard lock");
        shard.in_flight = shard.in_flight.saturating_sub(1);
        let previous = shard.shadow.insert(
            id.to_string(),
            ShadowEntry {
                code: code.to_string(),
                owner,
            },
        );
        if shard.in_flight == 0 && !shard.stable_frozen {
            shard.shadow_stable = shard.bytes;
        }
        drop(shard);
        self.inner
            .owner_changed(previous.and_then(|p| p.owner), owner);
    }

    fn applied(&self, id: &str, code: Option<&str>) {
        let idx = shard_index(id);
        let mut shard = self.inner.shards[idx].lock().expect("journal shard lock");
        shard.in_flight = shard.in_flight.saturating_sub(1);
        if let Some(code) = code {
            // Update-only: a session deleted between this op's append and
            // now must stay deleted (inserting here would resurrect it).
            if let Some(slot) = shard.shadow.get_mut(id) {
                code.clone_into(&mut slot.code);
            }
        }
        if shard.in_flight == 0 && !shard.stable_frozen {
            shard.shadow_stable = shard.bytes;
        }
    }

    fn applied_delete(&self, id: &str) {
        let idx = shard_index(id);
        let mut shard = self.inner.shards[idx].lock().expect("journal shard lock");
        shard.in_flight = shard.in_flight.saturating_sub(1);
        let previous = shard.shadow.remove(id);
        if shard.in_flight == 0 && !shard.stable_frozen {
            shard.shadow_stable = shard.bytes;
        }
        drop(shard);
        self.inner
            .owner_changed(previous.and_then(|p| p.owner), None);
    }

    fn contains(&self, id: &str) -> bool {
        self.inner.shards[shard_index(id)]
            .lock()
            .expect("journal shard lock")
            .shadow
            .contains_key(id)
    }

    fn code_of(&self, id: &str) -> Option<String> {
        self.inner.shards[shard_index(id)]
            .lock()
            .expect("journal shard lock")
            .shadow
            .get(id)
            .map(|e| e.code.clone())
    }

    fn fault_in(&self, id: &str) -> Option<Session> {
        // Clone the text and release the lock before the expensive
        // re-evaluation; the session is not resident, so nobody can be
        // mutating its shadow entry meanwhile.
        let code = self.code_of(id)?;
        match Session::create(id.to_string(), &code) {
            Ok(session) => {
                self.inner.faultins.fetch_add(1, Ordering::Relaxed);
                Some(session)
            }
            Err(e) => {
                obs_log::warn(
                    "session_faultin_failed",
                    &[("session", Value::Str(id)), ("error", Value::Str(&e.msg))],
                );
                None
            }
        }
    }

    fn durable_sessions_of(&self, ip: IpAddr) -> usize {
        self.inner
            .owner_counts
            .lock()
            .expect("owner counts lock")
            .get(&ip)
            .copied()
            .unwrap_or(0)
    }

    fn ids(&self) -> Vec<String> {
        self.inner
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("journal shard lock")
                    .shadow
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded_count.load(Ordering::Relaxed) > 0
    }

    fn gauges(&self) -> JournalGauges {
        let inner = &*self.inner;
        let mut g = JournalGauges {
            snapshot_count: inner.snapshots.load(Ordering::Relaxed),
            replay_ms_last: inner.replay_us.load(Ordering::Relaxed) as f64 / 1000.0,
            faultins: inner.faultins.load(Ordering::Relaxed),
            fsyncs: inner.fsyncs.load(Ordering::Relaxed),
            degraded_shards: inner.degraded_count.load(Ordering::Relaxed) as u64,
            ..JournalGauges::default()
        };
        for shard in &inner.shards {
            let shard = shard.lock().expect("journal shard lock");
            g.journal_bytes += shard.bytes;
            g.journal_records += shard.records;
            g.durable_sessions += shard.shadow.len() as u64;
        }
        g
    }
}

// The FNV-1a shard map lives in `store` (the store's in-memory shards
// share it); the journal and replication protocol use it through this
// alias.
pub(crate) use crate::store::shard_index;

fn shard_file(dir: &Path, idx: usize, gen: u64, ext: &str) -> PathBuf {
    dir.join(format!("shard{idx:02}.g{gen:06}.{ext}"))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Renames and creates are only durable once the directory itself is.
    File::open(dir)?.sync_all()
}

/// CRC-32 (IEEE 802.3), table-driven; the table is built at compile time.
/// Shared with the replication framing ([`crate::replicate`]).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for b in bytes {
        crc = TABLE[((crc ^ u32::from(*b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// One framed record as it appears on disk.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Appends one framed record; returns the bytes written.
fn write_frame(file: &mut File, payload: &[u8]) -> io::Result<u64> {
    let frame = frame_bytes(payload);
    file.write_all(&frame)?;
    Ok(frame.len() as u64)
}

/// Splits a byte buffer into validated record payloads. Returns the
/// payloads plus the offset of the first invalid byte — everything past it
/// (a torn write, a bad checksum) is to be truncated away.
pub(crate) fn read_frames(buf: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut at = 0usize;
    while buf.len() - at >= 8 {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes"));
        let Some(end) = at.checked_add(8 + len) else {
            break;
        };
        if end > buf.len() {
            break; // torn final record
        }
        let payload = &buf[at + 8..end];
        if crc32(payload) != crc {
            break; // corrupt record: everything after is suspect
        }
        payloads.push(payload);
        at = end;
    }
    (payloads, at)
}

/// A journal record decoded to owned values — also the unit the
/// replication stream ships, so a follower applies exactly what replay
/// would.
pub(crate) enum OwnedOp {
    Create(String, String, Option<IpAddr>),
    SetCode(String, String),
    Commit(String, Subst),
    Delete(String),
}

/// A session as one snapshot row, `{id, code, owner?}`: a frame of a
/// `.snap` file and an element of a replication `snap` message.
fn snapshot_row(id: &str, entry: &ShadowEntry) -> Json {
    let mut pairs = vec![
        ("id", Json::str(id.to_string())),
        ("code", Json::str(entry.code.clone())),
    ];
    if let Some(ip) = entry.owner {
        pairs.push(("owner", Json::str(ip.to_string())));
    }
    Json::obj(pairs)
}

/// The session a [`snapshot_row`] holds; `None` when `row` lacks an id
/// or code. An owner that does not parse reads as none.
pub(crate) fn decode_snapshot_row(row: &Json) -> Option<(String, ShadowEntry)> {
    let id = row.get("id").and_then(Json::as_str)?;
    let code = row.get("code").and_then(Json::as_str)?;
    let owner = row
        .get("owner")
        .and_then(Json::as_str)
        .and_then(|s| s.parse().ok());
    let code = code.to_string();
    Some((id.to_string(), ShadowEntry { code, owner }))
}

fn encode_op(op: &Op<'_>) -> Json {
    match op {
        Op::Create { id, source, owner } => {
            let mut pairs = vec![
                ("op", Json::str("create")),
                ("id", Json::str(*id)),
                ("source", Json::str(*source)),
            ];
            if let Some(ip) = owner {
                pairs.push(("owner", Json::str(ip.to_string())));
            }
            Json::obj(pairs)
        }
        Op::SetCode { id, source } => Json::obj([
            ("op", Json::str("set_code")),
            ("id", Json::str(*id)),
            ("source", Json::str(*source)),
        ]),
        Op::Commit { id, subst } => Json::obj([
            ("op", Json::str("commit")),
            ("id", Json::str(*id)),
            (
                "subst",
                Json::Arr(
                    subst
                        .iter()
                        .map(|(loc, v)| {
                            // Values as bit patterns: JSON number text would
                            // round-trip, but bit-identical recovery must not
                            // hinge on float formatting (e.g. `-0.0`).
                            Json::Arr(vec![
                                Json::Num(f64::from(loc.0)),
                                Json::str(format!("{:016x}", v.to_bits())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Op::Delete { id } => Json::obj([("op", Json::str("delete")), ("id", Json::str(*id))]),
    }
}

/// Decodes one journal-record payload (framed bytes).
pub(crate) fn decode_op(payload: &[u8]) -> Option<OwnedOp> {
    let text = std::str::from_utf8(payload).ok()?;
    decode_op_value(&json::parse(text).ok()?)
}

/// Decodes one journal record already parsed as JSON — the replication
/// stream embeds records as JSON objects rather than nested strings.
pub(crate) fn decode_op_value(v: &Json) -> Option<OwnedOp> {
    let id = v.get("id")?.as_str()?.to_string();
    match v.get("op")?.as_str()? {
        "create" => {
            let owner = v
                .get("owner")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok());
            Some(OwnedOp::Create(
                id,
                v.get("source")?.as_str()?.to_string(),
                owner,
            ))
        }
        "set_code" => Some(OwnedOp::SetCode(id, v.get("source")?.as_str()?.to_string())),
        "commit" => {
            let mut subst = Subst::new();
            for pair in v.get("subst")?.as_arr()? {
                let pair = pair.as_arr()?;
                let loc = pair.first()?.as_f64()? as u32;
                let bits = u64::from_str_radix(pair.get(1)?.as_str()?, 16).ok()?;
                subst.insert(LocId(loc), f64::from_bits(bits));
            }
            Some(OwnedOp::Commit(id, subst))
        }
        "delete" => Some(OwnedOp::Delete(id)),
        _ => None,
    }
}

/// Discovers the live generation of one shard, loads its snapshot into
/// the shadow, replays its journal through real sessions, and deletes
/// superseded files. Returns the shard state plus the sessions the
/// journal touched (materialized; the store adopts them as resident).
fn replay_shard(dir: &Path, idx: usize) -> io::Result<(Shard, Vec<Session>)> {
    let prefix = format!("shard{idx:02}.g");
    let mut snap_gens = Vec::new();
    let mut wal_gens = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        if let Some(gen) = rest.strip_suffix(".snap.tmp") {
            // An unfinished snapshot from a crashed compaction.
            if gen.parse::<u64>().is_ok() {
                let _ = fs::remove_file(entry.path());
            }
            continue;
        }
        if let Some(gen) = rest.strip_suffix(".wal") {
            if let Ok(gen) = gen.parse::<u64>() {
                wal_gens.push(gen);
            }
        } else if let Some(gen) = rest.strip_suffix(".snap") {
            if let Ok(gen) = gen.parse::<u64>() {
                snap_gens.push(gen);
            }
        }
    }
    // Generation selection keys off *snapshots*: `wal.g(N+1)` is created
    // (empty) before `snap.g(N+1)` is renamed into place, so a wal with
    // no matching snapshot is an incomplete compaction with no records —
    // never state. No snapshot at all means no compaction ever finished:
    // generation 0.
    let gen = snap_gens.iter().copied().max().unwrap_or(0);

    // Snapshot: materialized `{id, code, owner}` records, straight into
    // the shadow. No evaluation happens here — snapshot-only sessions stay
    // demoted until a request faults them in, so post-compaction replay
    // cost is bounded by live-session *text*, not session count × eval.
    let mut shadow: HashMap<String, ShadowEntry> = HashMap::new();
    if snap_gens.contains(&gen) {
        let buf = fs::read(shard_file(dir, idx, gen, "snap"))?;
        let (payloads, _) = read_frames(&buf);
        for payload in payloads {
            let row = std::str::from_utf8(payload)
                .ok()
                .and_then(|t| json::parse(t).ok());
            if let Some((id, entry)) = row.as_ref().and_then(decode_snapshot_row) {
                shadow.insert(id, entry);
            }
        }
    }

    // Journal tail: replayed through real sessions so recovery runs the
    // same prepare/commit machinery as the traffic that produced it.
    let wal_path = shard_file(dir, idx, gen, "wal");
    let mut records = 0u64;
    let mut live: HashMap<String, Session> = HashMap::new();
    // Owners of sessions materialized out of the shadow (or created by
    // the tail) — re-attached when the shadow entry is rebuilt below.
    let mut owners: HashMap<String, Option<IpAddr>> = HashMap::new();
    let mut wal = OpenOptions::new()
        .create(true)
        .truncate(false) // an existing journal is the point
        .read(true)
        .write(true)
        .open(&wal_path)?;
    let mut buf = Vec::new();
    wal.read_to_end(&mut buf)?;
    let (payloads, valid_end) = read_frames(&buf);
    for payload in payloads {
        let Some(op) = decode_op(payload) else {
            continue;
        };
        records += 1;
        // Recovered commits and code replacements take the follower's
        // apply path; a recovering session has no backend attached, so
        // nothing is re-journaled.
        let (id, name, outcome) = match op {
            OwnedOp::Create(id, source, owner) => {
                if shadow.contains_key(&id) || live.contains_key(&id) {
                    // Re-created id: only possible replaying records that
                    // an interrupted compaction already snapshotted.
                    continue;
                }
                let outcome = Session::create(id.clone(), &source).map(|s| {
                    owners.insert(id.clone(), owner);
                    live.insert(id.clone(), s);
                });
                (id, "create", outcome)
            }
            OwnedOp::SetCode(id, source) => {
                let Some(s) = materialize(&mut live, &mut shadow, &mut owners, &id) else {
                    continue;
                };
                let outcome = s.apply_recorded_set_code(&source);
                (id, "set_code", outcome)
            }
            OwnedOp::Commit(id, subst) => {
                let Some(s) = materialize(&mut live, &mut shadow, &mut owners, &id) else {
                    continue;
                };
                let outcome = s.apply_recorded_commit(&subst);
                (id, "commit", outcome)
            }
            OwnedOp::Delete(id) => {
                live.remove(&id);
                shadow.remove(&id);
                owners.remove(&id);
                continue;
            }
        };
        if let Err(e) = outcome {
            obs_log::warn(
                "journal_replay_skipped",
                &[
                    ("op", Value::Str(name)),
                    ("session", Value::Str(&id)),
                    ("error", Value::Str(&e.msg)),
                ],
            );
        }
    }
    if valid_end < buf.len() {
        obs_log::warn(
            "journal_torn_tail",
            &[
                ("bytes", Value::U64((buf.len() - valid_end) as u64)),
                ("file", Value::Str(&wal_path.display().to_string())),
            ],
        );
        wal.set_len(valid_end as u64)?;
    }
    wal.seek(SeekFrom::End(0))?;

    // Retire generations this one supersedes (a compaction crashed
    // between rename and cleanup) and wals past it (a compaction crashed
    // before its snapshot rename; such wals are empty by construction).
    for g in snap_gens.iter().chain(wal_gens.iter()) {
        if *g < gen {
            let _ = fs::remove_file(shard_file(dir, idx, *g, "wal"));
            let _ = fs::remove_file(shard_file(dir, idx, *g, "snap"));
        }
    }
    for g in &wal_gens {
        if *g > gen {
            let _ = fs::remove_file(shard_file(dir, idx, *g, "wal"));
        }
    }

    let sessions: Vec<Session> = live
        .into_iter()
        .map(|(id, session)| {
            let owner = owners.get(&id).copied().flatten();
            shadow.insert(
                id,
                ShadowEntry {
                    code: session.code(),
                    owner,
                },
            );
            session
        })
        .collect();
    let bytes = valid_end.min(buf.len()) as u64;
    Ok((
        Shard {
            wal,
            gen,
            bytes,
            records,
            unsynced: 0,
            in_flight: 0,
            shadow_stable: bytes,
            stable_frozen: false,
            degraded: false,
            append_failures: 0,
            degraded_since: None,
            last_probe: None,
            shadow,
        },
        sessions,
    ))
}

/// Fetches the session being replayed, materializing it from the shadow
/// on first touch.
fn materialize<'a>(
    live: &'a mut HashMap<String, Session>,
    shadow: &mut HashMap<String, ShadowEntry>,
    owners: &mut HashMap<String, Option<IpAddr>>,
    id: &str,
) -> Option<&'a mut Session> {
    if !live.contains_key(id) {
        let entry = shadow.remove(id)?;
        match Session::create(id.to_string(), &entry.code) {
            Ok(s) => {
                owners.insert(id.to_string(), entry.owner);
                live.insert(id.to_string(), s);
            }
            Err(e) => {
                obs_log::warn(
                    "journal_replay_skipped",
                    &[
                        ("op", Value::Str("materialize")),
                        ("session", Value::Str(id)),
                        ("error", Value::Str(&e.msg)),
                    ],
                );
                shadow.insert(id.to_string(), entry);
                return None;
            }
        }
    }
    live.get_mut(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sns-journal-{tag}-{}", std::process::id(),));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Polls `cond` (background compaction runs on the maintenance
    /// thread, so threshold-crossing is eventually-visible, not inline).
    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip_and_tear_cleanly() {
        let dir = tmp_dir("frames");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        write_frame(&mut f, b"alpha").unwrap();
        write_frame(&mut f, b"beta").unwrap();
        let whole = fs::read(&path).unwrap();
        let (payloads, end) = read_frames(&whole);
        assert_eq!(payloads, vec![&b"alpha"[..], &b"beta"[..]]);
        assert_eq!(end, whole.len());

        // A torn third record: only the first two come back.
        let mut torn = whole.clone();
        torn.extend_from_slice(&42u32.to_le_bytes());
        torn.extend_from_slice(&[1, 2, 3]);
        let (payloads, end) = read_frames(&torn);
        assert_eq!(payloads.len(), 2);
        assert_eq!(end, whole.len());

        // A flipped payload bit: checksum stops the scan at that record.
        let mut corrupt = whole.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let (payloads, _) = read_frames(&corrupt);
        assert_eq!(payloads, vec![&b"alpha"[..]]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ops_encode_and_decode_bit_exactly() {
        let subst = Subst::from_pairs([(LocId(3), -0.0), (LocId(9), 1.5e-308)]);
        let op = Op::Commit {
            id: "s1",
            subst: &subst,
        };
        let text = encode_op(&op).to_string();
        let Some(OwnedOp::Commit(id, back)) = decode_op(text.as_bytes()) else {
            panic!("decode failed: {text}");
        };
        assert_eq!(id, "s1");
        assert_eq!(back.get(LocId(3)).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.get(LocId(9)), Some(1.5e-308));
    }

    #[test]
    fn create_owner_roundtrips() {
        let ip: IpAddr = "10.1.2.3".parse().unwrap();
        let op = Op::Create {
            id: "s1",
            source: "(svg [])",
            owner: Some(ip),
        };
        let text = encode_op(&op).to_string();
        let Some(OwnedOp::Create(_, _, owner)) = decode_op(text.as_bytes()) else {
            panic!("decode failed: {text}");
        };
        assert_eq!(owner, Some(ip));
        // Ownerless creates (adopted/recovered sessions) stay ownerless.
        let op = Op::Create {
            id: "s2",
            source: "(svg [])",
            owner: None,
        };
        let Some(OwnedOp::Create(_, _, owner)) = decode_op(encode_op(&op).to_string().as_bytes())
        else {
            panic!("decode failed");
        };
        assert_eq!(owner, None);
    }

    #[test]
    fn create_commit_delete_replays() {
        let dir = tmp_dir("replay");
        {
            let (backend, recovered) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
            assert!(recovered.is_empty());
            let src = "(svg [(rect 'red' 10 20 30 40)])";
            let mut a = Session::create("a".into(), src).unwrap();
            backend
                .append(Op::Create {
                    id: "a",
                    source: src,
                    owner: None,
                })
                .unwrap();
            backend.applied_create("a", &a.code(), None);
            // Commit through the real editor so the journaled subst and the
            // in-memory state agree.
            use sns_svg::{ShapeId, Zone};
            a.drag(ShapeId(0), Zone::Interior, 5.0, 7.0).unwrap();
            // (commit path journals via the persist handle in production;
            // here we drive the record by hand)
            let pending = a.pending_commit().unwrap();
            backend
                .append(Op::Commit {
                    id: "a",
                    subst: &pending,
                })
                .unwrap();
            a.commit().unwrap();
            backend.applied("a", Some(&a.code()));
            backend
                .append(Op::Create {
                    id: "b",
                    source: src,
                    owner: None,
                })
                .unwrap();
            backend.applied_create("b", src, None);
            backend.append(Op::Delete { id: "b" }).unwrap();
            backend.applied_delete("b");
            assert_eq!(backend.gauges().durable_sessions, 1);
        }
        let (backend, recovered) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.len(), 1, "b was deleted, a survives");
        assert_eq!(recovered[0].id, "a");
        assert_eq!(recovered[0].code(), "(svg [(rect 'red' 15 27 30 40)])");
        assert!(backend.contains("a"));
        assert!(!backend.contains("b"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_bounds_replay_and_survives_restart() {
        let dir = tmp_dir("compact");
        let src = "(svg [(rect 'red' 10 20 30 40)])";
        {
            let config = JournalConfig {
                compact_factor: 2,
                ..JournalConfig::new(&dir)
            };
            let (backend, _) = JournalBackend::open(config).unwrap();
            let mut s = Session::create("only".into(), src).unwrap();
            backend
                .append(Op::Create {
                    id: "only",
                    source: src,
                    owner: None,
                })
                .unwrap();
            backend.applied_create("only", &s.code(), None);
            use sns_svg::{ShapeId, Zone};
            for step in 0..COMPACT_MIN_RECORDS + 16 {
                s.drag(ShapeId(0), Zone::Interior, 1.0 + step as f64, 0.0)
                    .unwrap();
                let pending = s.pending_commit().unwrap();
                backend
                    .append(Op::Commit {
                        id: "only",
                        subst: &pending,
                    })
                    .unwrap();
                s.commit().unwrap();
                backend.applied("only", Some(&s.code()));
            }
            // Compaction happens on the maintenance thread (off the
            // request path); give it a tick or two.
            wait_for(
                || backend.gauges().snapshot_count >= 1,
                "background compaction",
            );
            let g = backend.gauges();
            assert!(
                g.journal_records <= COMPACT_MIN_RECORDS + 1,
                "journal not reset: {g:?}"
            );
            // The state the snapshot must carry.
            assert!(backend.contains("only"));
        }
        let (backend, recovered) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        // Commits up to the last compaction live in the snapshot; only the
        // journal tail (appended since) replays eagerly. Either way the
        // session must come back with its final code.
        assert!(recovered.len() <= 1);
        let code = match recovered.into_iter().next() {
            Some(s) => s.code(),
            None => backend.fault_in("only").expect("fault-in").code(),
        };
        // Each drag offsets 1+step from the previously committed x, so the
        // final x is 10 + Σ_{k=1..n} k.
        let n = COMPACT_MIN_RECORDS + 16;
        let expected_x = 10 + n * (n + 1) / 2;
        assert_eq!(code, format!("(svg [(rect 'red' {expected_x} 20 30 40)])"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_group_commit_is_time_bounded_and_durable() {
        let dir = tmp_dir("batch");
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        {
            let (backend, _) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
            // A lone append has no group to join: it must lead its own
            // sync and return promptly, not park on a timer waiting for
            // writers that never come.
            let started = Instant::now();
            backend
                .append(Op::Create {
                    id: "a",
                    source: src,
                    owner: None,
                })
                .unwrap();
            backend.applied_create("a", src, None);
            assert!(
                started.elapsed() < Duration::from_millis(500),
                "group commit not time-bounded: {:?}",
                started.elapsed()
            );
            // Exactly one: the maintenance tick never races the leader
            // with a second fsync of the same record.
            assert_eq!(
                backend.gauges().fsyncs,
                1,
                "a lone writer leads one group fsync"
            );
        }
        // And the acked record really is on disk.
        let (backend, recovered) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].code(), src);
        drop(backend);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        {
            let (backend, _) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
            backend
                .append(Op::Create {
                    id: "a",
                    source: src,
                    owner: None,
                })
                .unwrap();
            backend.applied_create("a", src, None);
        }
        // Simulate a crash mid-append: garbage half-record at the tail of
        // whichever shard holds "a".
        let idx = shard_index("a");
        let wal = shard_file(&dir, idx, 0, "wal");
        let mut f = OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&99u32.to_le_bytes()).unwrap();
        f.write_all(&[0xde, 0xad]).unwrap();
        drop(f);
        let before = fs::metadata(&wal).unwrap().len();
        let (backend, recovered) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].code(), src);
        assert!(backend.contains("a"));
        assert!(fs::metadata(&wal).unwrap().len() < before, "tail not cut");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn data_dir_admits_one_live_writer() {
        let dir = tmp_dir("lock");
        let (first, _) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        let err = match JournalBackend::open(JournalConfig::new(&dir)) {
            Err(e) => e,
            Ok(_) => panic!("second live writer admitted"),
        };
        assert!(err.to_string().contains("in use by pid"), "{err}");
        drop(first); // clean shutdown releases the lock
        let (second, _) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        drop(second);
        // A crashed holder leaves a stale lock; a dead pid is reclaimed.
        fs::write(dir.join("sns-server.lock"), "4294967294").unwrap();
        let (_third, _) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutations_on_a_deleted_id_are_refused_and_cannot_resurrect() {
        let dir = tmp_dir("del-guard");
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        let (backend, _) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        backend
            .append(Op::Create {
                id: "a",
                source: src,
                owner: None,
            })
            .unwrap();
        backend.applied_create("a", src, None);
        backend.append(Op::Delete { id: "a" }).unwrap();
        backend.applied_delete("a");
        // A mutation that lost the race with the delete: refused at the
        // append (so it can never be acked)...
        let subst = Subst::from_pairs([(LocId(0), 9.0)]);
        let err = backend
            .append(Op::Commit {
                id: "a",
                subst: &subst,
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        // ...and a stale `applied` (its append raced ahead of the delete)
        // must not resurrect the shadow entry.
        backend.applied("a", Some(src));
        assert!(!backend.contains("a"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wal_without_its_snapshot_never_shadows_real_state() {
        // The crash window of a compaction that died after creating
        // `wal.g(1)` but before renaming `snap.g(1)` into place: the
        // higher-generation wal is empty and must not outrank the
        // populated generation 0.
        let dir = tmp_dir("orphan-wal");
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        {
            let (backend, _) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
            backend
                .append(Op::Create {
                    id: "a",
                    source: src,
                    owner: None,
                })
                .unwrap();
            backend.applied_create("a", src, None);
        }
        let idx = shard_index("a");
        File::create(shard_file(&dir, idx, 1, "wal")).unwrap();
        // An orphaned tmp snapshot from the same crash is reaped too.
        File::create(shard_file(&dir, idx, 1, "snap").with_extension("snap.tmp")).unwrap();
        let (backend, recovered) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.len(), 1, "generation 0 must win");
        assert_eq!(recovered[0].code(), src);
        assert!(backend.contains("a"));
        assert!(
            !shard_file(&dir, idx, 1, "wal").exists(),
            "incomplete-compaction wal not reaped"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_sessions_of_tracks_owners_across_restart() {
        let dir = tmp_dir("durable-quota");
        let ip: IpAddr = "10.0.0.9".parse().unwrap();
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        {
            let (backend, _) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
            for id in ["a", "b"] {
                backend
                    .append(Op::Create {
                        id,
                        source: src,
                        owner: Some(ip),
                    })
                    .unwrap();
                backend.applied_create(id, src, Some(ip));
            }
            backend
                .append(Op::Create {
                    id: "c",
                    source: src,
                    owner: None,
                })
                .unwrap();
            backend.applied_create("c", src, None);
            assert_eq!(backend.durable_sessions_of(ip), 2);
            let mut ids = backend.ids();
            ids.sort();
            assert_eq!(ids, ["a", "b", "c"]);
            backend.compact_now().unwrap();
            assert_eq!(
                backend.durable_sessions_of(ip),
                2,
                "owner lost to compaction"
            );
        }
        // Owners survive snapshot + restart (the quota is about disk, and
        // disk outlives the process).
        let (backend, _) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(backend.durable_sessions_of(ip), 2, "owner lost to restart");
        assert!(backend.append(Op::Delete { id: "a" }).is_ok());
        backend.applied_delete("a");
        assert_eq!(backend.durable_sessions_of(ip), 1);
        drop(backend);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_surface_spans_and_rotation() {
        let dir = tmp_dir("tail");
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        let (backend, _) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        let inner = backend.inner();
        let idx = shard_index("a");
        let before = inner.positions()[idx];
        assert_eq!(before, (0, 0));
        backend
            .append(Op::Create {
                id: "a",
                source: src,
                owner: None,
            })
            .unwrap();
        backend.applied_create("a", src, None);
        let after = inner.positions()[idx];
        assert!(after.1 > 0, "append advanced no bytes");
        // The span reads back as exactly one valid frame decoding to the
        // create we wrote.
        let span = inner
            .read_span(idx, after.0, 0, after.1)
            .unwrap()
            .expect("live generation");
        let (payloads, end) = read_frames(&span);
        assert_eq!(end as u64, after.1);
        assert_eq!(payloads.len(), 1);
        assert!(matches!(
            decode_op(payloads[0]),
            Some(OwnedOp::Create(id, _, _)) if id == "a"
        ));
        // Snapshot state covers the applied create.
        let (gen, stable, sessions) = inner.shard_state(idx);
        assert_eq!(gen, after.0);
        assert_eq!(stable, after.1);
        assert_eq!(sessions.len(), 1);
        assert_eq!(decode_snapshot_row(&sessions[0]).unwrap().0, "a");
        // Rotation invalidates the old generation's spans.
        backend.compact_now().unwrap();
        assert_eq!(inner.read_span(idx, after.0, 0, after.1).unwrap(), None);
        let rotated = inner.positions()[idx];
        assert_eq!(rotated, (after.0 + 1, 0));
        drop(backend);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repl_gate_counts_acks_and_times_out() {
        let gate = ReplGate::new();
        // Async mode: no wait at all, no ack spans.
        assert!(gate.wait_replicated(0, 0, 100).unwrap().is_empty());
        gate.set_min_sync(1);
        gate.register(7, "f7:9090".to_string(), vec![(0, 0); SHARDS]);
        // Acked through (0, 50): a record ending at 40 is covered, one at
        // 60 is not (and times out — exercised with a tiny custom wait via
        // the public API would stall 5s, so only the covered path runs).
        let mut cursors = vec![(0, 0); SHARDS];
        cursors[3] = (0, 50);
        gate.record_ack(7, &cursors);
        let acks = gate.wait_replicated(3, 0, 40).unwrap();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].0, "f7:9090");
        gate.wait_replicated(3, 0, 50).unwrap();
        // A newer generation covers everything earlier.
        cursors[3] = (1, 0);
        gate.record_ack(7, &cursors);
        gate.wait_replicated(3, 0, 999).unwrap();
        gate.deregister(7);
        gate.set_min_sync(0);
        gate.wait_replicated(3, 0, 999).unwrap();
    }

    // Fault-injection tests are debug-only: release builds compile the
    // injection points to no-ops and `Faults::from_spec` refuses to arm.
    #[cfg(debug_assertions)]
    #[test]
    fn enospc_degrades_shard_then_probe_recovers() {
        let dir = tmp_dir("enospc");
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        let config = JournalConfig {
            // Hit 1 is the create; hits 2..8 fail with ENOSPC. The
            // recovery probe's own writes advance the window past 8, so
            // the "disk" heals while the shard is degraded.
            faults: Faults::from_spec("journal.write=enospc@2..8").unwrap(),
            ..JournalConfig::new(&dir)
        };
        let (backend, _) = JournalBackend::open(config).unwrap();
        backend
            .append(Op::Create {
                id: "a",
                source: src,
                owner: None,
            })
            .unwrap();
        backend.applied_create("a", src, None);
        let subst = Subst::from_pairs([(LocId(0), 9.0)]);
        // Three consecutive ENOSPC appends degrade the shard.
        for _ in 0..3 {
            let err = backend
                .append(Op::Commit {
                    id: "a",
                    subst: &subst,
                })
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        }
        assert!(backend.degraded(), "three ENOSPC appends should degrade");
        assert_eq!(backend.gauges().degraded_shards, 1);
        // Reads keep serving from the shadow...
        assert_eq!(backend.code_of("a").as_deref(), Some(src));
        assert!(backend.contains("a"));
        // ...while appends are refused at the gate (not with ENOSPC).
        let err = backend
            .append(Op::Commit {
                id: "a",
                subst: &subst,
            })
            .unwrap_err();
        assert!(err.to_string().contains("degraded"), "{err}");
        // The maintenance probe re-arms writes once its round-trip works.
        wait_for(|| !backend.degraded(), "probe recovery");
        assert_eq!(backend.gauges().degraded_shards, 0);
        backend
            .append(Op::Commit {
                id: "a",
                subst: &subst,
            })
            .unwrap();
        backend.applied("a", Some(src));
        drop(backend);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn short_write_is_rolled_back_and_replays_cleanly() {
        let dir = tmp_dir("short-write");
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        {
            let config = JournalConfig {
                faults: Faults::from_spec("journal.write=short@2").unwrap(),
                ..JournalConfig::new(&dir)
            };
            let (backend, _) = JournalBackend::open(config).unwrap();
            backend
                .append(Op::Create {
                    id: "a",
                    source: src,
                    owner: None,
                })
                .unwrap();
            backend.applied_create("a", src, None);
            let idx = shard_index("a");
            let wal = shard_file(&dir, idx, 0, "wal");
            let clean_len = fs::metadata(&wal).unwrap().len();
            // The torn append leaves half a frame on disk, then fails;
            // rollback must cut the file back to the last good record.
            let subst = Subst::from_pairs([(LocId(0), 9.0)]);
            let err = backend
                .append(Op::Commit {
                    id: "a",
                    subst: &subst,
                })
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WriteZero);
            assert_eq!(
                fs::metadata(&wal).unwrap().len(),
                clean_len,
                "torn frame not rolled back"
            );
            assert!(!backend.degraded(), "one failure is not persistent");
            // The next append lands after the cut tail.
            let mut s = Session::create("a".into(), src).unwrap();
            use sns_svg::{ShapeId, Zone};
            s.drag(ShapeId(0), Zone::Interior, 5.0, 0.0).unwrap();
            let pending = s.pending_commit().unwrap();
            backend
                .append(Op::Commit {
                    id: "a",
                    subst: &pending,
                })
                .unwrap();
            s.commit().unwrap();
            backend.applied("a", Some(&s.code()));
        }
        let (backend, recovered) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].code(), "(svg [(rect 'red' 6 2 3 4)])");
        drop(backend);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn failed_compaction_rename_leaves_generation_live() {
        let dir = tmp_dir("rename-fault");
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        {
            let config = JournalConfig {
                faults: Faults::from_spec("journal.rename=fail@1").unwrap(),
                ..JournalConfig::new(&dir)
            };
            let (backend, _) = JournalBackend::open(config).unwrap();
            backend
                .append(Op::Create {
                    id: "a",
                    source: src,
                    owner: None,
                })
                .unwrap();
            backend.applied_create("a", src, None);
            // The rename is the commit point; failing it must leave the
            // shard appending to generation 0 with no snapshot claimed.
            backend.compact_now().unwrap_err();
            assert_eq!(backend.gauges().snapshot_count, 0);
            let inner = backend.inner();
            assert_eq!(inner.positions()[shard_index("a")].0, 0, "gen advanced");
            // Appends still work after the failed rotation.
            let subst = Subst::from_pairs([(LocId(0), 9.0)]);
            backend
                .append(Op::Commit {
                    id: "a",
                    subst: &subst,
                })
                .unwrap();
            backend.applied("a", Some(src));
        }
        // A restart replays generation 0 (reaping the leftover tmp
        // snapshot), and a fault-free compaction then succeeds.
        let (backend, recovered) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.len(), 1);
        backend.compact_now().unwrap();
        assert_eq!(backend.gauges().snapshot_count, 1);
        drop(backend);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn fsync_failures_degrade_and_probe_recovers() {
        use sns_svg::{ShapeId, Zone};
        let dir = tmp_dir("fsync-fault");
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        {
            let config = JournalConfig {
                // Hit 1 is the create's group fsync; hit 2 (the commit's)
                // fails, and so do the first two probes' syncs (hits 3
                // and 4), which keeps the shard degraded for at least one
                // probe interval. The third probe (hits 5, 6) succeeds.
                faults: Faults::from_spec("journal.fsync=fail@2..4").unwrap(),
                ..JournalConfig::new(&dir)
            };
            let (backend, _) = JournalBackend::open(config).unwrap();
            backend
                .append(Op::Create {
                    id: "a",
                    source: src,
                    owner: None,
                })
                .unwrap();
            backend.applied_create("a", src, None);
            // One failed group fsync fails its append and degrades the
            // shard at once: the group's records may sit anywhere behind
            // the head, so there is no strike count to wait out.
            let mut failed = Session::create("a".into(), src).unwrap();
            failed.drag(ShapeId(0), Zone::Interior, 3.0, 0.0).unwrap();
            let pending = failed.pending_commit().unwrap();
            backend
                .append(Op::Commit {
                    id: "a",
                    subst: &pending,
                })
                .unwrap_err();
            assert!(backend.degraded(), "a failed fsync should degrade at once");
            // Appends are refused at the gate until the probe recovers.
            let err = backend
                .append(Op::Commit {
                    id: "a",
                    subst: &pending,
                })
                .unwrap_err();
            assert!(err.to_string().contains("degraded"), "{err}");
            wait_for(|| !backend.degraded(), "probe recovery");
            let mut s = Session::create("a".into(), src).unwrap();
            s.drag(ShapeId(0), Zone::Interior, 5.0, 0.0).unwrap();
            let pending = s.pending_commit().unwrap();
            backend
                .append(Op::Commit {
                    id: "a",
                    subst: &pending,
                })
                .unwrap();
            s.commit().unwrap();
            backend.applied("a", Some(&s.code()));
        }
        // The acked commit is durable. The failed one stays in the journal
        // un-acked (replay may surface it), and the acked commit's
        // absolute values overwrite it either way.
        let (backend, recovered) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].code(), "(svg [(rect 'red' 6 2 3 4)])");
        drop(backend);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn concurrent_writers_share_group_fsyncs() {
        use sns_svg::{ShapeId, Zone};
        const WRITERS: usize = 16;
        let dir = tmp_dir("group-burst");
        let src = "(svg [(rect 'red' 1 2 3 4)])";
        // Sixteen sessions on one shard, so the burst shares one group.
        let shard = shard_index("w0");
        let ids: Vec<String> = (0..)
            .map(|n| format!("w{n}"))
            .filter(|id| shard_index(id) == shard)
            .take(WRITERS)
            .collect();
        {
            let config = JournalConfig {
                // A slow disk: every fsync takes 50 ms, so the writers
                // that arrive during one sync pile up behind it.
                faults: Faults::from_spec("journal.fsync=delay:50@1..").unwrap(),
                ..JournalConfig::new(&dir)
            };
            let (backend, _) = JournalBackend::open(config).unwrap();
            for id in &ids {
                backend
                    .append(Op::Create {
                        id,
                        source: src,
                        owner: None,
                    })
                    .unwrap();
                backend.applied_create(id, src, None);
            }
            let before = backend.gauges().fsyncs;
            let barrier = std::sync::Barrier::new(WRITERS);
            std::thread::scope(|scope| {
                for (k, id) in ids.iter().enumerate() {
                    let (backend, barrier) = (&backend, &barrier);
                    scope.spawn(move || {
                        let mut s = Session::create(id.clone(), src).unwrap();
                        s.drag(ShapeId(0), Zone::Interior, 1.0 + k as f64, 0.0)
                            .unwrap();
                        let pending = s.pending_commit().unwrap();
                        barrier.wait();
                        backend
                            .append(Op::Commit {
                                id,
                                subst: &pending,
                            })
                            .unwrap();
                        s.commit().unwrap();
                        backend.applied(id, Some(&s.code()));
                    });
                }
            });
            let burst = backend.gauges().fsyncs - before;
            assert!(
                burst <= 8,
                "{WRITERS} concurrent commits cost {burst} fsyncs"
            );
        }
        // Every acked commit survives a reopen.
        let (backend, recovered) = JournalBackend::open(JournalConfig::new(&dir)).unwrap();
        let codes: HashMap<String, String> =
            recovered.iter().map(|s| (s.id.clone(), s.code())).collect();
        for (k, id) in ids.iter().enumerate() {
            let code = match codes.get(id) {
                Some(code) => code.clone(),
                None => backend.fault_in(id).expect("fault-in").code(),
            };
            assert_eq!(
                code,
                format!("(svg [(rect 'red' {} 2 3 4)])", 2 + k),
                "{id}"
            );
        }
        drop(backend);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_index_is_stable() {
        // Pinned: a renamed/revised hash would orphan existing data dirs.
        assert_eq!(shard_index(""), 0xcbf2_9ce4_8422_2325usize % SHARDS);
        let idx = shard_index("s0001-0123456789abcdef");
        assert!(idx < SHARDS);
        assert_eq!(idx, shard_index("s0001-0123456789abcdef"));
    }
}
