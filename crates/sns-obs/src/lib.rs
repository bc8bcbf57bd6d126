//! **sns-obs** — std-only observability primitives shared by the server
//! and the bench harness.
//!
//! Four small pieces, composable but independent:
//!
//! * [`metrics`] — counters, gauges, and log2 latency histograms behind a
//!   [`Registry`](metrics::Registry) that renders Prometheus text
//!   exposition format and a flat JSON object from one declaration;
//! * [`trace`] — per-request span tracing: a [`Trace`](trace::Trace)
//!   handle stamped at stage boundaries with monotonic timestamps, plus a
//!   thread-local *current trace* so deep layers (journal, replication
//!   gate) can stamp without threading a handle through every API;
//! * [`flight`] — a ring-buffer flight recorder keeping the last N
//!   completed traces and every trace slower than a threshold;
//! * [`log`] — a leveled logger writing one-line text or JSONL records to
//!   stderr.
//!
//! Everything is lock-free or per-slot-locked on the hot path: recording
//! a latency is one relaxed `fetch_add`, stamping a span is one relaxed
//! `store`, and pushing a completed trace takes one uncontended slot
//! mutex.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod log;
pub mod metrics;
pub mod trace;

pub use flight::FlightRecorder;
pub use log::{Format, Level};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{CompletedTrace, Stage, Trace, TraceCtx};
