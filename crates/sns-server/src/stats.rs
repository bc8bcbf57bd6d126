//! Service statistics over the [`sns_obs`] metrics registry.
//!
//! Every metric is declared once, here, in a [`Registry`] that renders
//! both surfaces: the Prometheus text at `/metrics` and the flat JSON
//! `/stats` document (keys by [`Registry::render_json`]'s rule).
//! Hot-path metrics (request counts, latency buckets) are recorded
//! directly on their `Arc` handles — relaxed atomics, no registry
//! lookup. Values owned by other subsystems (the store's eviction count,
//! the journal's byte totals, replication lag) are registered as
//! closures over the server state and read at scrape time; the journal
//! and the replication hub are each read once per scrape, so one scrape
//! sweeps their shard locks once and reports one moment of each.

use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use sns_obs::metrics::{Counter, Gauge, Histogram, Registry};
use sns_obs::trace::{CompletedTrace, Stage};

use crate::routes::ServerState;
use crate::timeline;

/// Crate version baked into `sns_build_info` and `/healthz`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Short git sha stamped by `build.rs` (`unknown` outside a checkout).
pub const GIT_SHA: &str = env!("SNS_GIT_SHA");

/// Point-in-time connection gauges published by the reactor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnGauges {
    /// Connections currently open.
    pub open: u64,
    /// Open connections idle between keep-alive requests.
    pub idle: u64,
    /// Requests dispatched to the worker pool and not yet answered.
    pub in_flight: u64,
}

/// Indices into the `sns_prepare_fallback_total{reason=...}` counter
/// family (label order matches registration order).
const FALLBACK_ESCAPED: usize = 0;
const FALLBACK_STRUCTURAL: usize = 1;
const FALLBACK_RECONCILE: usize = 2;

/// A scrape-time reader of one value the server state owns. Before the
/// state exists (or once it is gone) the value reads as its default.
fn from_state<T: Default>(
    state: &Weak<ServerState>,
    read: impl Fn(&ServerState) -> T + Send + Sync + 'static,
) -> impl Fn() -> T + Send + Sync + 'static {
    let state = state.clone();
    move || state.upgrade().map_or_else(T::default, |s| read(&s))
}

/// Request statistics shared across workers, backed by a metrics
/// registry renderable as Prometheus text and as JSON.
pub struct ServerStats {
    registry: Registry,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    request_us: Arc<Histogram>,
    stage_queue_us: Arc<Histogram>,
    stage_prepare_us: Arc<Histogram>,
    stage_journal_us: Arc<Histogram>,
    stage_fsync_us: Arc<Histogram>,
    stage_repl_ack_us: Arc<Histogram>,
    stage_write_us: Arc<Histogram>,
    prepare_full: Arc<Counter>,
    prepare_incremental: Arc<Counter>,
    prepare_partial: Arc<Counter>,
    prepare_fallback: Vec<Arc<Counter>>,
    eval_fast: Arc<Counter>,
    eval_full: Arc<Counter>,
    drags_inline: Arc<Counter>,
    commits_inline: Arc<Counter>,
    conns_open: Arc<Gauge>,
    conns_idle: Arc<Gauge>,
    conns_in_flight: Arc<Gauge>,
    // Per-reactor gauges under one labeled family each; the slots vec
    // holds the last value every reactor published so any single
    // reactor's update can recompute the aggregate totals above.
    reactor_slots: Mutex<Vec<ConnGauges>>,
    reactor_conns: Vec<Arc<Gauge>>,
    reactor_queue_depth: Vec<Arc<Gauge>>,
    reactor_wakes: Vec<Arc<Counter>>,
    accept_drops: Arc<Counter>,
    read_timeouts: Arc<Counter>,
    idle_reaped: Arc<Counter>,
    queue_rejections: Arc<Counter>,
    quota_rejections: Arc<Counter>,
    stalls: Arc<Counter>,
}

impl ServerStats {
    /// Creates zeroed stats with every metric registered: per-reactor
    /// families sized for `reactors` event loops (clamped to at least
    /// one), and the values other subsystems own read from `state` at
    /// scrape time.
    pub fn with_reactors(reactors: usize, state: &Weak<ServerState>) -> ServerStats {
        let n = reactors.max(1);
        let labels: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let r = Registry::new();
        let reactor_conns = r.gauge_vec(
            "sns_reactor_conns",
            "Connections currently open on each reactor.",
            "reactor",
            labels.clone(),
        );
        let reactor_queue_depth = r.gauge_vec(
            "sns_reactor_queue_depth",
            "Jobs waiting in each reactor's worker-pool queue.",
            "reactor",
            labels.clone(),
        );
        let reactor_wakes = r.counter_vec(
            "sns_reactor_wakes_total",
            "Wake-pipe wakeups delivered to each reactor.",
            "reactor",
            labels,
        );
        let requests = r.counter("sns_requests_total", "Requests served.");
        let errors = r.counter(
            "sns_errors_total",
            "Requests answered with a non-2xx status.",
        );
        let request_us = r.histogram(
            "sns_request_us",
            "Route processing latency on a worker, in microseconds.",
        );
        let stage_queue_us = r.histogram(
            "sns_stage_queue_us",
            "Time a request waited in the worker-pool queue, in microseconds.",
        );
        let stage_prepare_us = r.histogram(
            "sns_stage_prepare_us",
            "Time spent in live-sync prepare/apply, in microseconds.",
        );
        let stage_journal_us = r.histogram(
            "sns_stage_journal_us",
            "Time spent appending to the write-ahead journal, in microseconds.",
        );
        let stage_fsync_us = r.histogram(
            "sns_stage_fsync_us",
            "Time spent waiting for the journal fsync (group commit), in microseconds.",
        );
        let stage_repl_ack_us = r.histogram(
            "sns_stage_repl_ack_us",
            "Time spent waiting for synchronous follower acks, in microseconds.",
        );
        let stage_write_us = r.histogram(
            "sns_stage_write_us",
            "Time from worker completion to the response fully written, in microseconds.",
        );
        let prepare_full = r.counter("sns_prepare_full_total", "Full (cold) prepares.");
        let prepare_incremental = r.counter(
            "sns_prepare_incremental_total",
            "Incremental prepares: fast-tier commits and literal-only code edits, \
             served by a trace-tape sweep with nothing recomputed per zone.",
        );
        let prepare_partial = r.counter(
            "sns_prepare_partial_total",
            "Partial prepares: re-evaluated code edits whose canvas was unchanged, \
             so the prepare was kept.",
        );
        let prepare_fallback = r.counter_vec(
            "sns_prepare_fallback_total",
            "Full-prepare fallbacks by reason: a commit touched an escaped \
             location, a re-evaluated code edit changed what the prepare \
             reads, or a cheaper tier's verification failed.",
            "reason",
            ["escaped", "structural", "reconcile"].map(String::from),
        );
        let eval_fast = r.counter(
            "sns_eval_fast_total",
            "Fast-path (substitution-only) evals.",
        );
        let eval_full = r.counter("sns_eval_full_total", "Full re-evaluations.");
        let drags_inline = r.counter(
            "sns_drags_inline_total",
            "Drag steps answered on the reactor thread: proof-only, no commit, \
             session resident and unlocked.",
        );
        let commits_inline = r.counter(
            "sns_commits_inline_total",
            "Commits answered on the reactor thread: fast tier, nothing \
             journaled, session resident and unlocked.",
        );
        let conns_open = r.gauge("sns_conns_open", "Connections currently open.");
        let conns_idle = r.gauge(
            "sns_conns_idle",
            "Open connections idle between keep-alive requests.",
        );
        let conns_in_flight = r.gauge(
            "sns_conns_in_flight",
            "Requests dispatched to the worker pool and not yet answered.",
        );
        let accept_drops = r.counter(
            "sns_accept_drops_total",
            "Connections turned away at the --max-conns accept gate.",
        );
        let read_timeouts = r.counter(
            "sns_read_timeouts_total",
            "Connections closed for blowing a read/write deadline.",
        );
        let idle_reaped = r.counter(
            "sns_idle_reaped_total",
            "Idle keep-alive connections reaped by the idle timeout.",
        );
        let queue_rejections = r.counter(
            "sns_queue_rejections_total",
            "Requests refused with 503 because the job queue was full.",
        );
        let quota_rejections = r.counter(
            "sns_quota_rejections_total",
            "Sessions refused with 429 (per-IP quota).",
        );
        let journal = r.per_scrape(from_state(state, |s| s.store.journal_gauges()));
        let leader = r.per_scrape(from_state(state, |s| {
            s.repl.leader_gauges().unwrap_or_default()
        }));
        r.gauge_fn(
            "sns_sessions",
            "Resident sessions.",
            from_state(state, |s| s.store.len() as f64),
        );
        r.gauge_fn(
            "sns_sessions_durable",
            "Durable (on-disk) sessions.",
            journal.reader(|g| g.durable_sessions as f64),
        );
        r.counter_fn(
            "sns_evictions_total",
            "LRU evictions (destroy or demote).",
            from_state(state, |s| s.store.evictions()),
        );
        r.counter_fn(
            "sns_demotions_total",
            "Sessions demoted to disk.",
            from_state(state, |s| s.store.demotions()),
        );
        r.gauge_fn(
            "sns_journal_bytes",
            "Live journal bytes across shards.",
            journal.reader(|g| g.journal_bytes as f64),
        );
        r.gauge_fn(
            "sns_journal_records",
            "Live journal records across shards.",
            journal.reader(|g| g.journal_records as f64),
        );
        r.counter_fn(
            "sns_snapshot_count_total",
            "Snapshot (compaction) generations taken.",
            journal.reader(|g| g.snapshot_count),
        );
        r.gauge_fn(
            "sns_replay_ms_last",
            "Duration of the last boot replay, in milliseconds.",
            journal.reader(|g| g.replay_ms_last),
        );
        r.counter_fn(
            "sns_faultins_total",
            "Sessions faulted in from disk.",
            journal.reader(|g| g.faultins),
        );
        r.counter_fn(
            "sns_fsyncs_total",
            "fsync calls issued by the journal.",
            journal.reader(|g| g.fsyncs),
        );
        r.gauge_fn(
            "sns_repl_follower",
            "1 when this node is a replication follower, 0 on a leader.",
            from_state(state, |s| f64::from(u8::from(s.repl.is_follower()))),
        );
        r.gauge_fn(
            "sns_repl_followers_connected",
            "Followers currently connected (leader side).",
            leader.reader(|g| g.followers_connected as f64),
        );
        r.gauge_fn(
            "sns_repl_lag_records",
            "Worst connected-follower lag, in journal records.",
            leader.reader(|g| g.repl_lag_records as f64),
        );
        r.gauge_fn(
            "sns_repl_lag_bytes",
            "Worst connected-follower lag, in journal bytes.",
            leader.reader(|g| g.repl_lag_bytes as f64),
        );
        r.gauge_fn(
            "sns_repl_last_ack_ms",
            "Milliseconds since the freshest follower ack.",
            leader.reader(|g| g.last_ack_ms),
        );
        r.counter_fn(
            "sns_repl_records_applied_total",
            "Records applied from the leader's stream (follower side).",
            from_state(state, |s| s.repl.apply_gauges().records_applied),
        );
        r.counter_fn(
            "sns_repl_snapshots_applied_total",
            "Snapshot catch-ups applied (follower side).",
            from_state(state, |s| s.repl.apply_gauges().snapshots_applied),
        );
        r.counter_fn(
            "sns_repl_connects_total",
            "Times the follower (re)connected to its leader.",
            from_state(state, |s| s.repl.apply_gauges().connects),
        );
        r.gauge_fn(
            "sns_repl_reconnect_backoff_ms",
            "Reconnect delay the follower is currently serving (0 while connected).",
            from_state(state, |s| s.repl.apply_gauges().reconnect_backoff_ms as f64),
        );
        r.gauge_fn(
            "sns_degraded",
            "1 while the journal is degraded to read-only after persistent disk failures.",
            journal.reader(|g| f64::from(u8::from(g.degraded_shards > 0))),
        );
        let per_follower = |read: fn(&(String, u64, u64)) -> f64| {
            leader.reader(move |g| {
                g.per_follower
                    .iter()
                    .map(|f| (f.0.clone(), read(f)))
                    .collect()
            })
        };
        r.gauge_vec_fn(
            "sns_repl_follower_lag_records",
            "Per-connected-follower replication lag, in journal records.",
            "peer",
            per_follower(|f| f.1 as f64),
        );
        r.gauge_vec_fn(
            "sns_repl_apply_us",
            "Per-connected-follower apply latency self-reported in its last ack, \
             in microseconds.",
            "peer",
            per_follower(|f| f.2 as f64),
        );
        r.counter_fn(
            "sns_slow_requests_total",
            "Requests slower than the --slow-ms threshold.",
            from_state(state, |s| s.telemetry.flight.slow_count()),
        );
        let stalls = r.counter(
            "sns_stalls_total",
            "In-flight requests the watchdog caught exceeding --stall-ms.",
        );
        r.counter_vec_fn(
            "sns_timeline_events_total",
            "Per-session timeline events recorded, by kind.",
            "kind",
            from_state(state, |s| {
                timeline::Kind::ALL
                    .iter()
                    .zip(s.timelines.totals())
                    .map(|(k, n)| (k.name().to_string(), n))
                    .collect()
            }),
        );
        r.gauge_fn(
            "sns_timeline_sessions",
            "Sessions with a timeline currently held.",
            from_state(state, |s| s.timelines.tracked_sessions() as f64),
        );
        r.gauge_fn(
            "sns_uptime_seconds",
            "Seconds since the server started.",
            from_state(state, |s| s.started.elapsed().as_secs_f64()),
        );
        r.info(
            "sns_build_info",
            "Build identity of this binary (value is always 1).",
            [
                ("version", VERSION.to_string()),
                ("git_sha", GIT_SHA.to_string()),
            ],
        );
        ServerStats {
            registry: r,
            requests,
            errors,
            request_us,
            stage_queue_us,
            stage_prepare_us,
            stage_journal_us,
            stage_fsync_us,
            stage_repl_ack_us,
            stage_write_us,
            prepare_full,
            prepare_incremental,
            prepare_partial,
            prepare_fallback,
            eval_fast,
            eval_full,
            drags_inline,
            commits_inline,
            conns_open,
            conns_idle,
            conns_in_flight,
            reactor_slots: Mutex::new(vec![ConnGauges::default(); n]),
            reactor_conns,
            reactor_queue_depth,
            reactor_wakes,
            accept_drops,
            read_timeouts,
            idle_reaped,
            queue_rejections,
            quota_rejections,
            stalls,
        }
    }

    /// Records one request and its *processing* latency (route dispatch on
    /// a worker — the number comparable across the blocking and reactor
    /// transports; pool queue wait is recorded separately by
    /// [`record_queue_wait`](ServerStats::record_queue_wait)).
    pub fn record(&self, latency: Duration, is_error: bool) {
        self.requests.inc();
        if is_error {
            self.errors.inc();
        }
        self.request_us.record(latency);
    }

    /// Records how long one request waited in the worker-pool queue
    /// before a worker picked it up. This feeds the queue-stage histogram
    /// directly (rather than via trace completion) so the number exists
    /// even under `--no-trace`.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.stage_queue_us.record(wait);
    }

    /// Feeds a completed trace's stage durations into the per-stage
    /// histograms. The queue stage is skipped — `record_queue_wait`
    /// already counted it.
    pub fn record_trace(&self, trace: &CompletedTrace) {
        for (stage, us) in trace.stage_durations_us() {
            match stage {
                Stage::JournalAppended => self.stage_journal_us.record_micros(us),
                Stage::Fsynced => self.stage_fsync_us.record_micros(us),
                Stage::ReplAcked => self.stage_repl_ack_us.record_micros(us),
                Stage::PrepareDone => self.stage_prepare_us.record_micros(us),
                Stage::ResponseWritten => self.stage_write_us.record_micros(us),
                _ => {}
            }
        }
    }

    /// Accumulates live-sync cache counters reported by a session after a
    /// request (deltas since that session's previous report).
    pub fn record_live(&self, delta: sns_sync::LiveStats) {
        self.prepare_full.add(delta.full_prepares);
        self.prepare_incremental.add(delta.incremental_prepares);
        self.prepare_partial.add(delta.partial_prepares);
        self.prepare_fallback[FALLBACK_ESCAPED].add(delta.fallback_escaped);
        self.prepare_fallback[FALLBACK_STRUCTURAL].add(delta.fallback_structural);
        self.prepare_fallback[FALLBACK_RECONCILE].add(delta.fallback_reconcile);
        self.eval_fast.add(delta.fast_evals);
        self.eval_full.add(delta.full_evals);
    }

    /// Counts one drag step the reactor answered without the worker pool.
    pub fn record_inline_drag(&self) {
        self.drags_inline.inc();
    }

    /// Counts one commit the reactor answered without the worker pool.
    pub fn record_inline_commit(&self) {
        self.commits_inline.inc();
    }

    /// Publishes aggregate connection gauges (absolute values).
    fn set_conn_gauges(&self, gauges: ConnGauges) {
        self.conns_open.set(gauges.open as f64);
        self.conns_idle.set(gauges.idle as f64);
        self.conns_in_flight.set(gauges.in_flight as f64);
    }

    /// Publishes one reactor's connection gauges and worker-queue depth,
    /// then folds every reactor's last report into the aggregate totals
    /// so `/stats` and the unlabeled `sns_conns_*` gauges keep their
    /// whole-server meaning.
    pub fn set_reactor_gauges(&self, reactor: usize, gauges: ConnGauges, queue_depth: u64) {
        let totals = {
            let mut slots = self.reactor_slots.lock().unwrap_or_else(|e| e.into_inner());
            let Some(slot) = slots.get_mut(reactor) else {
                return;
            };
            *slot = gauges;
            slots
                .iter()
                .fold(ConnGauges::default(), |acc, s| ConnGauges {
                    open: acc.open + s.open,
                    idle: acc.idle + s.idle,
                    in_flight: acc.in_flight + s.in_flight,
                })
        };
        self.reactor_conns[reactor].set(gauges.open as f64);
        self.reactor_queue_depth[reactor].set(queue_depth as f64);
        self.set_conn_gauges(totals);
    }

    /// Counts one wake-pipe wakeup delivered to `reactor`.
    pub fn record_reactor_wake(&self, reactor: usize) {
        if let Some(c) = self.reactor_wakes.get(reactor) {
            c.inc();
        }
    }

    /// Counts a connection turned away at the `--max-conns` accept gate.
    pub fn record_accept_drop(&self) {
        self.accept_drops.inc();
    }

    /// Counts a connection closed for blowing a read/write deadline.
    pub fn record_read_timeout(&self) {
        self.read_timeouts.inc();
    }

    /// Counts an idle keep-alive connection reaped by the idle timeout.
    pub fn record_idle_reaped(&self) {
        self.idle_reaped.inc();
    }

    /// Counts a request refused with 503 because the job queue was full.
    pub fn record_queue_rejection(&self) {
        self.queue_rejections.inc();
    }

    /// Counts a session refused with 429 (per-IP quota).
    pub fn record_quota_rejection(&self) {
        self.quota_rejections.inc();
    }

    /// Counts `n` stalls the watchdog caught this sweep.
    pub fn record_stalls(&self, n: u64) {
        self.stalls.add(n);
    }

    /// Renders every metric as Prometheus text exposition (`/metrics`).
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Renders every metric as one flat JSON object (`/stats`): each key
    /// is the metric name minus `sns_`, by the rule in
    /// [`Registry::render_json`].
    pub fn render_json(&self) -> String {
        self.registry.render_json("sns_")
    }
}

impl std::fmt::Debug for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerStats")
            .field("requests", &self.requests.get())
            .field("errors", &self.errors.get())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::json::{self, Json};
    use crate::replicate::ReplControl;
    use crate::routes::Telemetry;
    use crate::session::Session;
    use crate::store::SessionStore;
    use crate::timeline::Timelines;

    /// Stats with no server state behind them: mirrored values read 0.
    fn detached(reactors: usize) -> ServerStats {
        ServerStats::with_reactors(reactors, &Weak::new())
    }

    /// A minimal server state whose stats read it back at scrape time.
    fn server_state(follower: bool) -> Arc<ServerState> {
        Arc::new_cyclic(|state| ServerState {
            store: SessionStore::new(8),
            stats: ServerStats::with_reactors(1, state),
            telemetry: Telemetry::new(true, 16, 0, 0, 1, "local".to_string()),
            timelines: Arc::new(Timelines::new()),
            started: Instant::now(),
            max_sessions_per_ip: 0,
            max_durable_per_ip: 0,
            auth_token: None,
            repl: Arc::new(ReplControl::new(follower)),
            faults: sns_faults::Faults::disabled(),
        })
    }

    /// The `/stats` document, parsed.
    fn stats_json(stats: &ServerStats) -> Json {
        json::parse(&stats.render_json()).expect("stats render as JSON")
    }

    fn num(v: &Json, key: &str) -> f64 {
        v.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no numeric {key} in {v}"))
    }

    #[test]
    fn quantiles_track_recorded_latencies() {
        let stats = detached(1);
        for _ in 0..99 {
            stats.record(Duration::from_micros(100), false);
        }
        stats.record(Duration::from_millis(50), true);
        let v = stats_json(&stats);
        assert_eq!(num(&v, "requests"), 100.0);
        assert_eq!(num(&v, "errors"), 1.0);
        let p50 = num(&v, "request_p50_ms");
        let p99 = num(&v, "request_p99_ms");
        assert!(p50 <= 0.256, "p50 {p50}");
        assert!(p99 <= 0.256, "p99 {p99}");
        // The slowest request lands in the 50 ms bucket (p100 >= 50 ms).
        let text = stats.render_prometheus();
        assert!(text.contains("sns_request_us_bucket{le=\"32768\"} 99\n"));
        assert!(text.contains("sns_request_us_bucket{le=\"65536\"} 100\n"));
        // Queue waits land in their own histogram, not the latency one.
        stats.record_queue_wait(Duration::from_millis(8));
        let v = stats_json(&stats);
        assert!(num(&v, "stage_queue_p99_ms") >= 8.0, "{v}");
        assert_eq!(num(&v, "requests"), 100.0);
        assert!(num(&v, "request_p99_ms") <= 0.256, "{v}");
    }

    #[test]
    fn empty_stats_report_zero() {
        let v = stats_json(&detached(1));
        assert_eq!(num(&v, "request_p50_ms"), 0.0);
        assert_eq!(num(&v, "requests"), 0.0);
        assert_eq!(num(&v, "sessions"), 0.0, "detached mirrors read zero");
    }

    #[test]
    fn gauges_and_counters_roundtrip() {
        let stats = detached(1);
        let conns =
            |v: &Json| ["conns_open", "conns_idle", "conns_in_flight"].map(|k| num(v, k) as u64);
        assert_eq!(conns(&stats_json(&stats)), [0, 0, 0]);
        stats.set_conn_gauges(ConnGauges {
            open: 1024,
            idle: 1000,
            in_flight: 3,
        });
        assert_eq!(conns(&stats_json(&stats)), [1024, 1000, 3]);
        stats.record_accept_drop();
        stats.record_read_timeout();
        stats.record_idle_reaped();
        stats.record_queue_rejection();
        stats.record_quota_rejection();
        let v = stats_json(&stats);
        assert_eq!(
            [
                "accept_drops",
                "read_timeouts",
                "idle_reaped",
                "queue_rejections",
                "quota_rejections"
            ]
            .map(|k| num(&v, k)),
            [1.0; 5]
        );
    }

    #[test]
    fn per_reactor_gauges_aggregate_into_totals() {
        let stats = detached(3);
        stats.set_reactor_gauges(
            0,
            ConnGauges {
                open: 5,
                idle: 4,
                in_flight: 1,
            },
            2,
        );
        stats.set_reactor_gauges(
            2,
            ConnGauges {
                open: 7,
                idle: 6,
                in_flight: 0,
            },
            0,
        );
        stats.record_reactor_wake(1);
        stats.record_reactor_wake(1);
        stats.record_reactor_wake(99); // out of range: ignored, no panic
        let v = stats_json(&stats);
        assert_eq!(
            ["conns_open", "conns_idle", "conns_in_flight"].map(|k| num(&v, k)),
            [12.0, 10.0, 1.0]
        );
        let per_reactor = v.get("reactor_conns").expect("reactor_conns");
        assert_eq!(
            per_reactor,
            &Json::Obj(vec![
                ("0".to_string(), Json::Num(5.0)),
                ("1".to_string(), Json::Num(0.0)),
                ("2".to_string(), Json::Num(7.0)),
            ]),
            "{v}"
        );
        assert_eq!(num(v.get("reactor_queue_depth").unwrap(), "0"), 2.0);
        assert_eq!(num(v.get("reactor_wakes").unwrap(), "1"), 2.0);
        let text = stats.render_prometheus();
        assert!(
            text.contains("sns_reactor_conns{reactor=\"0\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("sns_reactor_conns{reactor=\"2\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("sns_reactor_queue_depth{reactor=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("sns_reactor_wakes_total{reactor=\"1\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn trace_completion_feeds_stage_histograms() {
        use sns_obs::trace::Trace;
        let stats = detached(1);
        let t = Trace::new(1, "POST", "/sessions/x/drag");
        t.stamp(Stage::ParseDone);
        t.stamp(Stage::Queued);
        t.stamp(Stage::Dequeued);
        t.stamp(Stage::Dispatched);
        t.stamp(Stage::JournalAppended);
        t.stamp(Stage::Fsynced);
        t.stamp(Stage::PrepareDone);
        t.stamp(Stage::WorkerDone);
        t.stamp(Stage::ResponseWritten);
        stats.record_trace(&t.finish());
        // journal/fsync/prepare/write got one observation each; repl_ack
        // (never stamped) and queue (fed by record_queue_wait) got none.
        let v = stats_json(&stats);
        let p99 = |stage: &str| num(&v, &format!("stage_{stage}_p99_ms"));
        assert_eq!(p99("queue"), 0.0, "queue fed only by record_queue_wait");
        assert!(p99("prepare") > 0.0, "prepare");
        assert!(p99("journal") > 0.0, "journal");
        assert!(p99("fsync") > 0.0, "fsync");
        assert_eq!(p99("repl_ack"), 0.0, "repl_ack unstamped");
        assert!(p99("write") > 0.0, "write");
    }

    #[test]
    fn prometheus_covers_stats_fields() {
        let state = server_state(true);
        for i in 0..3 {
            let session = Session::create(format!("s{i}"), "(svg [(rect 'red' 1 2 3 4)])")
                .expect("valid program");
            state.store.adopt(session);
        }
        let text = state.stats.render_prometheus();
        for name in [
            "sns_requests_total",
            "sns_errors_total",
            "sns_request_us",
            "sns_stage_queue_us",
            "sns_stage_prepare_us",
            "sns_stage_journal_us",
            "sns_stage_fsync_us",
            "sns_stage_repl_ack_us",
            "sns_stage_write_us",
            "sns_sessions",
            "sns_journal_bytes",
            "sns_repl_follower",
            "sns_uptime_seconds",
            "sns_build_info",
            "sns_stalls_total",
            "sns_timeline_events_total",
            "sns_timeline_sessions",
            "sns_repl_follower_lag_records",
            "sns_repl_apply_us",
        ] {
            assert!(text.contains(&format!("# TYPE {name} ")), "missing {name}");
        }
        assert!(text.contains("sns_sessions 3\n"), "{text}");
        assert!(text.contains("sns_repl_follower 1\n"), "{text}");
        assert!(
            text.contains(&format!(
                "sns_build_info{{version=\"{VERSION}\",git_sha=\"{GIT_SHA}\"}} 1"
            )),
            "{text}"
        );
        // /stats reads the same values through the key rule.
        let v = stats_json(&state.stats);
        assert_eq!(num(&v, "sessions"), 3.0);
        assert_eq!(num(&v, "repl_follower"), 1.0);
        assert!(num(&v, "uptime_seconds") >= 0.0);
        let build = v.get("build_info").expect("build_info");
        assert_eq!(build.get("version").and_then(Json::as_str), Some(VERSION));
    }

    #[test]
    fn per_peer_families_follow_the_mirror() {
        // No hub, no followers: both per-peer families are declared and
        // empty; series appear only while a follower is connected (the
        // replication test `commit_traces_propagate_to_follower_and_leader_
        // stitches_acks` checks each family's value for a live follower).
        let state = server_state(false);
        let text = state.stats.render_prometheus();
        for family in ["sns_repl_follower_lag_records", "sns_repl_apply_us"] {
            assert!(text.contains(&format!("# TYPE {family} gauge")), "{text}");
            assert!(!text.contains(&format!("{family}{{")), "{text}");
        }
        let v = stats_json(&state.stats);
        assert_eq!(v.get("repl_follower_lag_records"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("repl_apply_us"), Some(&Json::Obj(vec![])));
        assert_eq!(num(&v, "repl_followers_connected"), 0.0);
        assert_eq!(num(&v, "repl_follower"), 0.0);
    }

    #[test]
    fn timeline_totals_mirror_into_the_kind_family() {
        let state = server_state(false);
        for _ in 0..7 {
            state.timelines.record("s1", timeline::Kind::Commit, "");
        }
        for _ in 0..2 {
            state
                .timelines
                .record("s2", timeline::Kind::RejectedDegraded, "");
        }
        state.stats.record_stalls(3);
        let text = state.stats.render_prometheus();
        assert!(
            text.contains("sns_timeline_events_total{kind=\"commit\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("sns_timeline_events_total{kind=\"rejected_degraded\"} 2"),
            "{text}"
        );
        assert!(text.contains("sns_stalls_total 3"), "{text}");
        let v = stats_json(&state.stats);
        assert_eq!(num(&v, "stalls"), 3.0);
        assert_eq!(num(&v, "timeline_sessions"), 2.0);
        let events = v.get("timeline_events").expect("timeline_events");
        assert_eq!(num(events, "commit"), 7.0);
        assert_eq!(num(events, "rejected_degraded"), 2.0);
        assert_eq!(num(events, "drag"), 0.0);
    }
}
