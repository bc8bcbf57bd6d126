//! Per-request span tracing.
//!
//! A [`Trace`] is allocated when a request is parsed off the wire and
//! stamped at each stage boundary it crosses with a monotonic elapsed
//! time. Stages a request never reaches (a read has no journal append;
//! async replication never waits for an ack) simply stay unstamped.
//! [`Trace::finish`] turns the stamp vector into a [`CompletedTrace`]
//! whose per-stage *durations* are differences between adjacent present
//! stamps — so skipped stages cost nothing and attribute nothing.
//!
//! Deep layers (the journal's group-commit, the replication gate) stamp
//! through a thread-local *current trace* ([`set_current`] /
//! [`stamp_current`]) instead of threading a handle through every API;
//! the worker installs the trace before route dispatch and the guard
//! restores the previous value even on panic.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A stage boundary a request crosses, in execution order.
///
/// The journal-before-apply contract puts journal append, fsync, and the
/// replication ack *before* prepare/apply: a mutation is made durable
/// (and replicated, when demanded) first, then applied in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Request head + body fully parsed off the socket.
    ParseDone,
    /// Handed to the worker pool's bounded queue.
    Queued,
    /// Picked up by a worker.
    Dequeued,
    /// Route dispatch began on the worker.
    Dispatched,
    /// Terminal stamp: the request was refused with a 503 because the
    /// journal is degraded to read-only. A rejected write never reaches
    /// the journal stages, but it must not vanish from the recorder.
    RejectedDegraded,
    /// Journal record written to the shard WAL.
    JournalAppended,
    /// Journal record durable (group-commit fsync).
    Fsynced,
    /// Synchronous-replication gate satisfied (`--replicate-to`).
    ReplAcked,
    /// Live-sync prepare/apply finished (drag, commit, create, …).
    PrepareDone,
    /// Route dispatch returned; response handed back to the reactor.
    WorkerDone,
    /// Response fully written to the socket.
    ResponseWritten,
}

/// Number of stages.
pub const STAGES: usize = 11;

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; STAGES] = [
        Stage::ParseDone,
        Stage::Queued,
        Stage::Dequeued,
        Stage::Dispatched,
        Stage::RejectedDegraded,
        Stage::JournalAppended,
        Stage::Fsynced,
        Stage::ReplAcked,
        Stage::PrepareDone,
        Stage::WorkerDone,
        Stage::ResponseWritten,
    ];

    /// Stable snake_case name (used in `/debug/traces` JSONL and docs).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ParseDone => "parse_done",
            Stage::Queued => "queued",
            Stage::Dequeued => "dequeued",
            Stage::Dispatched => "dispatched",
            Stage::RejectedDegraded => "rejected_degraded",
            Stage::JournalAppended => "journal_appended",
            Stage::Fsynced => "fsynced",
            Stage::ReplAcked => "repl_acked",
            Stage::PrepareDone => "prepare_done",
            Stage::WorkerDone => "worker_done",
            Stage::ResponseWritten => "response_written",
        }
    }
}

/// Cross-node trace context: the originating trace id and node that a
/// child span (a follower's replicated apply) descends from. Carried in
/// replication frames so one logical commit correlates across the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCtx {
    /// The originating trace's id on its own node.
    pub origin_trace: u64,
    /// The originating node's identity (listen address or operator name).
    pub origin_node: String,
}

/// A live per-request trace: monotonic stage stamps over a shared handle.
#[derive(Debug)]
pub struct Trace {
    /// Monotonically increasing request id (process-local).
    pub id: u64,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Cross-node parent context (`None` for locally originated spans).
    pub ctx: Option<TraceCtx>,
    start: Instant,
    /// Elapsed nanoseconds at each stage; 0 = not reached (a stamp that
    /// truly lands at 0 ns is clamped to 1).
    stamps: [AtomicU64; STAGES],
    status: AtomicU32,
    /// Per-follower `(peer, ack latency µs)` the leader stitched into
    /// this trace while its sync-replication gate waited.
    follower_acks: Mutex<Vec<(String, u64)>>,
    /// Set once by the stall watchdog so each wedged request is
    /// snapshotted into the recorder exactly once.
    stalled: AtomicBool,
}

impl Trace {
    /// Starts a trace; the clock starts now.
    pub fn new(id: u64, method: impl Into<String>, path: impl Into<String>) -> Trace {
        Trace::with_ctx(id, method, path, None)
    }

    /// Starts a child trace carrying a cross-node parent context.
    pub fn with_ctx(
        id: u64,
        method: impl Into<String>,
        path: impl Into<String>,
        ctx: Option<TraceCtx>,
    ) -> Trace {
        Trace {
            id,
            method: method.into(),
            path: path.into(),
            ctx,
            start: Instant::now(),
            stamps: Default::default(),
            status: AtomicU32::new(0),
            follower_acks: Mutex::new(Vec::new()),
            stalled: AtomicBool::new(false),
        }
    }

    /// Stamps a stage with the elapsed time since the trace began. Last
    /// stamp wins if a stage is (incorrectly) stamped twice.
    pub fn stamp(&self, stage: Stage) {
        let nanos = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.stamps[stage as usize].store(nanos.max(1), Ordering::Relaxed);
    }

    /// Records the response status.
    pub fn set_status(&self, status: u16) {
        self.status.store(u32::from(status), Ordering::Relaxed);
    }

    /// Elapsed nanoseconds at `stage`, or `None` if not reached.
    pub fn stamp_nanos(&self, stage: Stage) -> Option<u64> {
        match self.stamps[stage as usize].load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// Elapsed time since the trace's clock started.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Records one follower's ack latency (leader-side stitching).
    pub fn annotate_follower_ack(&self, peer: &str, us: u64) {
        self.follower_acks
            .lock()
            .expect("follower ack lock")
            .push((peer.to_string(), us));
    }

    /// Marks the trace stalled; returns `true` on the first call only,
    /// so the watchdog snapshots each wedged request exactly once.
    pub fn mark_stalled(&self) -> bool {
        !self.stalled.swap(true, Ordering::Relaxed)
    }

    /// Freezes the trace into its completed form.
    pub fn finish(&self) -> CompletedTrace {
        let stamps_us: Vec<(Stage, u64)> = Stage::ALL
            .iter()
            .filter_map(|&s| self.stamp_nanos(s).map(|n| (s, n / 1_000)))
            .collect();
        let total_us = stamps_us.iter().map(|&(_, us)| us).max().unwrap_or(0);
        CompletedTrace {
            id: self.id,
            method: self.method.clone(),
            path: self.path.clone(),
            ctx: self.ctx.clone(),
            status: self.status.load(Ordering::Relaxed) as u16,
            total_us,
            stamps_us,
            follower_acks: self
                .follower_acks
                .lock()
                .expect("follower ack lock")
                .clone(),
            extra: String::new(),
        }
    }
}

/// A finished trace: stage stamps in microseconds since request start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTrace {
    /// Request id.
    pub id: u64,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Cross-node parent context (`None` for locally originated spans).
    pub ctx: Option<TraceCtx>,
    /// Response status (0 when the request died before a response).
    pub status: u16,
    /// Elapsed microseconds at the last stamped stage.
    pub total_us: u64,
    /// `(stage, elapsed µs since start)` for each stage reached, in
    /// execution order.
    pub stamps_us: Vec<(Stage, u64)>,
    /// Per-follower `(peer, ack latency µs)` stitched by the leader.
    pub follower_acks: Vec<(String, u64)>,
    /// Extra raw-JSON fields spliced into [`Self::to_json`] (must start
    /// with `,` when non-empty) — the stall watchdog's snapshot context.
    pub extra: String,
}

impl CompletedTrace {
    /// Per-stage *durations*: each reached stage attributed the time
    /// since the previous reached stage (the first since request start).
    /// Skipped stages are absent, so their time attributes to whichever
    /// stage actually contains it.
    pub fn stage_durations_us(&self) -> Vec<(Stage, u64)> {
        let mut prev = 0u64;
        self.stamps_us
            .iter()
            .map(|&(s, at)| {
                let d = at.saturating_sub(prev);
                prev = at;
                (s, d)
            })
            .collect()
    }

    /// One JSONL record (no trailing newline).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"id\":{},\"method\":\"{}\",\"path\":\"{}\",\"status\":{},\"total_us\":{},\"stages\":{{",
            self.id,
            escape_json(&self.method),
            escape_json(&self.path),
            self.status,
            self.total_us,
        );
        for (i, (s, at)) in self.stamps_us.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", s.name(), at);
        }
        out.push('}');
        if let Some(ctx) = &self.ctx {
            let _ = write!(
                out,
                ",\"origin\":{{\"trace\":{},\"node\":\"{}\"}}",
                ctx.origin_trace,
                escape_json(&ctx.origin_node),
            );
        }
        if !self.follower_acks.is_empty() {
            out.push_str(",\"follower_acks\":{");
            for (i, (peer, us)) in self.follower_acks.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", escape_json(peer), us);
            }
            out.push('}');
        }
        out.push_str(&self.extra);
        out.push('}');
        out
    }
}

/// Minimal JSON string escaping (control chars, quote, backslash).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Trace>>> = const { RefCell::new(None) };
}

/// Restores the previously-current trace on drop (panic-safe).
pub struct CurrentGuard {
    prev: Option<Arc<Trace>>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Installs `trace` as this thread's current trace until the returned
/// guard drops. Layers below can then [`stamp_current`] without holding
/// a handle.
#[must_use]
pub fn set_current(trace: &Arc<Trace>) -> CurrentGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(trace)));
    CurrentGuard { prev }
}

/// Stamps `stage` on the thread's current trace; a no-op when tracing is
/// off or the caller runs outside a traced request (maintenance threads,
/// replication appliers).
pub fn stamp_current(stage: Stage) {
    CURRENT.with(|c| {
        if let Some(t) = c.borrow().as_ref() {
            t.stamp(stage);
        }
    });
}

/// The thread's current trace handle, if any — deep layers that need
/// more than a stamp (the sync-replication gate stitching follower ack
/// latencies) borrow the handle instead of threading it through APIs.
pub fn current() -> Option<Arc<Trace>> {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_land_in_execution_order() {
        let t = Trace::new(7, "POST", "/sessions/s1/drag");
        t.stamp(Stage::ParseDone);
        t.stamp(Stage::Queued);
        t.stamp(Stage::Dequeued);
        t.stamp(Stage::JournalAppended);
        t.stamp(Stage::ResponseWritten);
        t.set_status(200);
        let done = t.finish();
        assert_eq!(done.id, 7);
        assert_eq!(done.status, 200);
        let stages: Vec<Stage> = done.stamps_us.iter().map(|&(s, _)| s).collect();
        assert_eq!(
            stages,
            vec![
                Stage::ParseDone,
                Stage::Queued,
                Stage::Dequeued,
                Stage::JournalAppended,
                Stage::ResponseWritten
            ]
        );
        // Stamps are monotone in execution order, so durations are
        // non-negative and sum to the last stamp.
        let durations = done.stage_durations_us();
        let sum: u64 = durations.iter().map(|&(_, d)| d).sum();
        assert_eq!(sum, done.total_us);
    }

    #[test]
    fn unstamped_stages_are_absent() {
        let t = Trace::new(1, "GET", "/healthz");
        t.stamp(Stage::ParseDone);
        let done = t.finish();
        assert_eq!(done.stamps_us.len(), 1);
        assert!(done
            .stamps_us
            .iter()
            .all(|&(s, _)| s != Stage::JournalAppended));
    }

    #[test]
    fn jsonl_escapes_and_nests() {
        let t = Trace::new(3, "GET", "/weird\"path\n");
        t.stamp(Stage::ParseDone);
        t.set_status(404);
        let line = t.finish().to_json();
        assert!(line.starts_with("{\"id\":3,"));
        assert!(line.contains("\\\"path\\n"));
        assert!(line.contains("\"stages\":{\"parse_done\":"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn current_trace_nests_and_restores() {
        assert!(peek_current().is_none());
        let outer = Arc::new(Trace::new(1, "GET", "/a"));
        {
            let _g1 = set_current(&outer);
            stamp_current(Stage::ParseDone);
            let inner = Arc::new(Trace::new(2, "GET", "/b"));
            {
                let _g2 = set_current(&inner);
                stamp_current(Stage::Queued);
            }
            // Guard restored the outer trace.
            stamp_current(Stage::Queued);
            assert!(inner.stamp_nanos(Stage::Queued).is_some());
            assert!(inner.stamp_nanos(Stage::ParseDone).is_none());
        }
        assert!(peek_current().is_none());
        assert!(outer.stamp_nanos(Stage::ParseDone).is_some());
        assert!(outer.stamp_nanos(Stage::Queued).is_some());
    }

    fn peek_current() -> Option<u64> {
        CURRENT.with(|c| c.borrow().as_ref().map(|t| t.id))
    }

    #[test]
    fn ctx_and_follower_acks_serialize() {
        let ctx = TraceCtx {
            origin_trace: 42,
            origin_node: "10.0.0.1:8080".to_string(),
        };
        let t = Trace::with_ctx(9, "REPL", "/repl/apply/s1", Some(ctx));
        t.stamp(Stage::ParseDone);
        t.annotate_follower_ack("10.0.0.2:9090", 350);
        t.set_status(200);
        let done = t.finish();
        assert_eq!(done.ctx.as_ref().unwrap().origin_trace, 42);
        let line = done.to_json();
        assert!(
            line.contains("\"origin\":{\"trace\":42,\"node\":\"10.0.0.1:8080\"}"),
            "{line}"
        );
        assert!(
            line.contains("\"follower_acks\":{\"10.0.0.2:9090\":350}"),
            "{line}"
        );
        assert!(line.ends_with('}') && line.starts_with('{'));
    }

    #[test]
    fn extra_fields_splice_into_json() {
        let t = Trace::new(5, "POST", "/sessions/s1/commit");
        t.stamp(Stage::ParseDone);
        let mut snap = t.finish();
        snap.extra = ",\"stalled\":true,\"reactor\":3".to_string();
        let line = snap.to_json();
        assert!(line.contains("\"stalled\":true,\"reactor\":3}"), "{line}");
    }

    #[test]
    fn mark_stalled_fires_once() {
        let t = Trace::new(6, "GET", "/x");
        assert!(t.mark_stalled());
        assert!(!t.mark_stalled());
    }

    #[test]
    fn rejected_degraded_stage_is_named() {
        assert_eq!(Stage::RejectedDegraded.name(), "rejected_degraded");
        assert_eq!(Stage::ALL.len(), STAGES);
    }
}
