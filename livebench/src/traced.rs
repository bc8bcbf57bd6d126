//! The traced run: after each HTTP op, the same op is replayed in-process
//! through every layer's public entry point, outer layer first, on shadow
//! instances that hold the same program state. Each call records a span;
//! spans stay in memory and are written out when the run ends.
//!
//! A layer's self time is its median minus the medians of the layers it
//! calls. What the client saw that no layer accounts for is reported as
//! `unattributed`, against the client p50 of the untraced first half of
//! the run. The replays run on the client thread between requests, and
//! the server answers more slowly while they do; that difference is
//! reported as the tracing overhead.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sns_editor::{Editor, EditorConfig};
use sns_eval::Program;
use sns_lang::{diff_exprs, unparse, Subst};
use sns_server::http::{ConnParser, Parsed, Response};
use sns_server::json::{self, Json};
use sns_server::persist::{Op, SessionBackend};
use sns_server::session::{server_limits, Session};
use sns_server::store::SessionStore;
use sns_server::{FsyncPolicy, JournalBackend, JournalConfig};
use sns_solver::{solve, Equation};
use sns_svg::{Canvas, ShapeId, Zone};
use sns_sync::{LiveConfig, LiveSync};

use crate::client::Reply;
use crate::script::Shadow;
use crate::stats;
use crate::workload::Kind;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    op: u64,
    kind: Kind,
    name: &'static str,
    parent: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// The layer tree: each span name and the span that calls it. `op` is the
/// client-observed request.
const PARENTS: &[(&str, &str)] = &[
    ("http.parse", "op"),
    ("json.decode", "op"),
    ("store.get", "op"),
    ("session", "op"),
    ("json.encode", "op"),
    ("http.encode", "op"),
    ("journal.append", "op"),
    ("lang.unparse.reply", "op"),
    ("editor.drag_to", "session"),
    ("editor.preview", "session"),
    ("editor.end_drag", "session"),
    ("editor.set_code", "session"),
    ("svg.render", "session"),
    ("live.drag", "editor.drag_to"),
    ("solver.solve", "live.drag"),
    ("eval.with_subst", "editor.preview"),
    ("lang.unparse", "editor.preview"),
    ("live.commit", "editor.end_drag"),
    ("eval.parse", "editor.set_code"),
    ("live.set_code", "editor.set_code"),
    ("lang.diff", "live.set_code"),
    ("eval.eval", "live.set_code"),
    ("svg.canvas", "live.set_code"),
];

fn parent_of(name: &str) -> &'static str {
    PARENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("op", |(_, p)| p)
}

/// Runs `f`, returning its result and `(start, duration)` in ns since
/// `epoch`.
fn timed<R>(epoch: Instant, f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let start = epoch.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let r = f();
    (r, (start, t0.elapsed().as_nanos() as u64))
}

/// Per-session shadow instances, one per layer that owns state.
struct Instances {
    id: String,
    editor: Editor,
    live: LiveSync,
    /// The last drag's substitution on `live` (what its commit applies).
    live_pending: Option<Subst>,
}

/// Records spans for one connection's sessions.
pub struct Tracer {
    epoch: Instant,
    next_op: u64,
    spans: Vec<Span>,
    store: SessionStore,
    sessions: Vec<Instances>,
    journal: Option<JournalBackend>,
    journal_dir: PathBuf,
    durable: bool,
    solved: u64,
    solves: u64,
    reply_bytes: Vec<f64>,
    svg_bytes: Vec<f64>,
}

fn session_program(code: &str) -> Result<Program, String> {
    let mut p = Program::parse(code).map_err(|e| e.to_string())?;
    p.set_limits(server_limits());
    Ok(p)
}

impl Tracer {
    /// A tracer for `shadows`' sessions. Instances are built lazily, from
    /// the shadows' state at the moment tracing starts.
    pub fn new(shadows: &[Shadow], durable: bool, journal_dir: &Path) -> Result<Tracer, String> {
        Ok(Tracer {
            epoch: Instant::now(),
            next_op: 0,
            spans: Vec::new(),
            store: SessionStore::new(shadows.len().max(1) * 2),
            sessions: Vec::new(),
            journal: None,
            journal_dir: journal_dir.to_path_buf(),
            durable,
            solved: 0,
            solves: 0,
            reply_bytes: Vec::new(),
            svg_bytes: Vec::new(),
        })
    }

    /// Builds the instances from the shadows' current code (called at a
    /// gesture boundary, where no drag is in flight).
    pub fn start(&mut self, shadows: &[Shadow]) -> Result<(), String> {
        if !self.sessions.is_empty() {
            return Ok(());
        }
        if self.durable {
            let (backend, _) = JournalBackend::open(JournalConfig {
                fsync: FsyncPolicy::Batch,
                ..JournalConfig::new(&self.journal_dir)
            })
            .map_err(|e| format!("trace journal: {e}"))?;
            self.journal = Some(backend);
        }
        for shadow in shadows {
            let inst = self.instances(shadow)?;
            self.sessions.push(inst);
        }
        Ok(())
    }

    /// Rebuilds session `s`'s instances after the workload recreated it
    /// (a no-op before tracing starts).
    pub fn recycle(&mut self, s: usize, shadow: &Shadow) -> Result<(), String> {
        if self.sessions.is_empty() {
            return Ok(());
        }
        self.store
            .remove(&self.sessions[s].id)
            .map_err(|e| e.to_string())?;
        self.sessions[s] = self.instances(shadow)?;
        Ok(())
    }

    /// Builds the instances of one session from `shadow`'s current code.
    fn instances(&mut self, shadow: &Shadow) -> Result<Instances, String> {
        let code = shadow.session.code();
        let session = Session::create(shadow.id.clone(), &code).map_err(|e| e.msg)?;
        self.store.insert(session);
        let editor = Editor::from_program(session_program(&code)?, EditorConfig::default())
            .map_err(|e| e.to_string())?;
        let live = LiveSync::new(session_program(&code)?, LiveConfig::default())
            .map_err(|e| e.to_string())?;
        if let Some(j) = &self.journal {
            j.append(Op::Create {
                id: &shadow.id,
                source: &code,
                owner: None,
            })
            .map_err(|e| e.to_string())?;
            j.applied_create(&shadow.id, &code, None);
        }
        Ok(Instances {
            id: shadow.id.clone(),
            editor,
            live,
            live_pending: None,
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<R>(&mut self, op: u64, kind: Kind, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, t) = timed(self.epoch, f);
        self.push(op, kind, name, t);
        r
    }

    fn begin(&mut self, kind: Kind, reply: &Reply) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        let end = self.now();
        self.spans.push(Span {
            op,
            kind,
            name: "op",
            parent: "",
            start_ns: end.saturating_sub(reply.ns),
            dur_ns: reply.ns,
        });
        op
    }

    /// Request framing and body decoding, as the reactor and router do.
    fn decode(&mut self, op: u64, kind: Kind, req: &[u8], has_body: bool) {
        let body = self.span(op, kind, "http.parse", || {
            let mut p = ConnParser::new();
            p.feed(req);
            match p.advance() {
                Parsed::Request(r) => r.body,
                _ => Vec::new(),
            }
        });
        if has_body {
            self.span(op, kind, "json.decode", || {
                std::hint::black_box(json::parse(std::str::from_utf8(&body).unwrap_or("")).ok())
            });
        }
    }

    /// Reply encoding: JSON text, then the HTTP head.
    fn encode(&mut self, op: u64, kind: Kind, reply: &Json) {
        let text = self.span(op, kind, "json.encode", || reply.to_string());
        self.reply_bytes.push(text.len() as f64);
        self.span(op, kind, "http.encode", || {
            let mut head = Vec::new();
            Response::json(200, text).encode_head_into(true, &mut head);
            head.len()
        });
    }

    fn lookup(&mut self, op: u64, kind: Kind, s: usize) {
        let (store, id) = (&self.store, &self.sessions[s].id);
        let (_, t) = timed(self.epoch, || {
            store.get(id).map(|h| drop(h.lock().expect("session lock")))
        });
        self.push(op, kind, "store.get", t);
    }

    fn with_session<R>(
        &mut self,
        op: u64,
        kind: Kind,
        s: usize,
        f: impl FnOnce(&mut Session) -> R,
    ) -> R {
        let handle = self
            .store
            .get(&self.sessions[s].id)
            .expect("traced session is resident");
        let mut guard = handle.lock().expect("session lock");
        self.span(op, kind, "session", || f(&mut guard))
    }

    fn push(&mut self, op: u64, kind: Kind, name: &'static str, (start_ns, dur_ns): (u64, u64)) {
        self.spans.push(Span {
            op,
            kind,
            name,
            parent: parent_of(name),
            start_ns,
            dur_ns,
        });
    }

    /// Replays one drag step.
    #[allow(clippy::too_many_arguments)]
    pub fn drag(
        &mut self,
        s: usize,
        shape: ShapeId,
        zone: Zone,
        dx: f64,
        dy: f64,
        first: bool,
        req: &[u8],
        reply: &Reply,
    ) {
        let kind = Kind::Drag;
        let epoch = self.epoch;
        let op = self.begin(kind, reply);
        self.decode(op, kind, req, true);
        self.lookup(op, kind, s);
        let out = self.with_session(op, kind, s, |sess| sess.drag(shape, zone, dx, dy));
        let Ok(out) = out else { return };
        self.encode(op, kind, &out);

        // Editor: mouse-move, then the code-pane preview.
        let inst = &mut self.sessions[s];
        if first {
            let _ = inst.editor.start_drag(shape, zone);
        }
        let (fb, t) = timed(epoch, || inst.editor.drag_to(dx, dy));
        self.push(op, kind, "editor.drag_to", t);
        if let Ok(fb) = fb {
            let program = self.sessions[s].editor.program().clone();
            self.span(op, kind, "editor.preview", || {
                program.with_subst(&fb.subst).code()
            });
            let p2 = self.span(op, kind, "eval.with_subst", || {
                program.with_subst(&fb.subst)
            });
            self.span(op, kind, "lang.unparse", || unparse(p2.user_expr()));
        }

        // LiveSync: the trigger fire + preview canvas, then the solver on
        // each of the zone's equations.
        let live = &self.sessions[s].live;
        let (result, t) = timed(epoch, || live.drag(shape, zone, dx, dy));
        let rho0 = live.program().subst();
        let eqs: Vec<_> = live
            .trigger(shape, zone)
            .map(|t| {
                t.parts
                    .iter()
                    .map(|p| {
                        (
                            p.loc,
                            Equation::new(p.base + p.offset.delta(dx, dy), Arc::clone(&p.trace)),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        self.push(op, kind, "live.drag", t);
        if let Ok(r) = result {
            self.sessions[s].live_pending = Some(r.subst);
        }
        for (loc, eq) in &eqs {
            let solved = self.span(op, kind, "solver.solve", || solve(&rho0, *loc, eq));
            self.solves += 1;
            self.solved += u64::from(solved.is_some());
        }
    }

    /// Replays a commit (mouse-up).
    pub fn commit(&mut self, s: usize, req: &[u8], reply: &Reply) {
        let kind = Kind::Commit;
        let epoch = self.epoch;
        let op = self.begin(kind, reply);
        self.decode(op, kind, req, false);
        self.lookup(op, kind, s);
        let pending = self.sessions[s].editor.pending_subst().cloned();
        let _ = self.with_session(op, kind, s, |sess| sess.commit());
        let code = self.with_session_untimed(s, Session::code);
        let out = self.span(op, kind, "lang.unparse.reply", || {
            Json::obj([("code", Json::str(code.clone()))])
        });
        self.encode(op, kind, &out);
        if let (Some(subst), Some(j)) = (&pending, &self.journal) {
            let id = &self.sessions[s].id;
            let ((), t) = timed(epoch, || {
                if j.append(Op::Commit { id, subst }).is_ok() {
                    j.applied(id, Some(&code));
                }
            });
            self.push(op, kind, "journal.append", t);
        }
        let inst = &mut self.sessions[s];
        let (_, t) = timed(epoch, || inst.editor.end_drag());
        let t_live = inst
            .live_pending
            .take()
            .map(|subst| timed(epoch, || inst.live.commit(&subst)).1);
        self.push(op, kind, "editor.end_drag", t);
        if let Some(t) = t_live {
            self.push(op, kind, "live.commit", t);
        }
    }

    fn with_session_untimed<R>(&self, s: usize, f: impl FnOnce(&Session) -> R) -> R {
        let handle = self
            .store
            .get(&self.sessions[s].id)
            .expect("traced session is resident");
        let guard = handle.lock().expect("session lock");
        f(&guard)
    }

    /// Replays a code edit.
    pub fn set_code(&mut self, s: usize, source: &str, req: &[u8], reply: &Reply) {
        let kind = Kind::SetCode;
        let epoch = self.epoch;
        let op = self.begin(kind, reply);
        self.decode(op, kind, req, true);
        self.lookup(op, kind, s);
        let out = self.with_session(op, kind, s, |sess| sess.set_code(source));
        let Ok(out) = out else { return };
        self.encode(op, kind, &out);
        if let Some(j) = &self.journal {
            let id = &self.sessions[s].id;
            let code = self.with_session_untimed(s, Session::code);
            let ((), t) = timed(epoch, || {
                if j.append(Op::SetCode { id, source }).is_ok() {
                    j.applied(id, Some(&code));
                }
            });
            self.push(op, kind, "journal.append", t);
        }

        // Editor: parse + diffed replace; then the canvas render.
        let editor = &mut self.sessions[s].editor;
        let (result, t) = timed(epoch, || editor.set_code(source));
        let render = result.is_ok().then(|| timed(epoch, || editor.canvas_svg()));
        self.push(op, kind, "editor.set_code", t);
        if let Some((svg, t)) = render {
            self.push(op, kind, "svg.render", t);
            self.svg_bytes.push(svg.len() as f64);
        }
        let _ = self.span(op, kind, "eval.parse", || {
            session_program(source).map(|p| p.next_loc())
        });

        // LiveSync and the layers under it, each on the new program.
        let Ok(new_program) = session_program(source) else {
            return;
        };
        let old_expr = self.sessions[s].live.program().user_expr().clone();
        self.span(op, kind, "lang.diff", || {
            diff_exprs(&old_expr, new_program.user_expr())
        });
        let outcome = self.span(op, kind, "eval.eval", || new_program.eval_traced());
        if let Ok(outcome) = outcome {
            let _ = self.span(op, kind, "svg.canvas", || {
                Canvas::from_value(&outcome.value).map(|c| c.shapes().len())
            });
        }
        let live = &mut self.sessions[s].live;
        let (_, t) = timed(epoch, || live.set_program_diffed(new_program));
        self.push(op, kind, "live.set_code", t);
    }

    /// Hands the recorded spans and counters over for the report.
    pub fn finish(self) -> Report {
        Report {
            spans: self.spans,
            solved: self.solved,
            solves: self.solves,
            reply_bytes: self.reply_bytes,
            svg_bytes: self.svg_bytes,
        }
    }
}

/// Spans of every connection of a run.
#[derive(Debug, Default)]
pub struct Report {
    spans: Vec<Span>,
    solved: u64,
    solves: u64,
    reply_bytes: Vec<f64>,
    svg_bytes: Vec<f64>,
}

fn zero_nan(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl Report {
    /// Folds another connection's spans in (op ids are offset to stay
    /// unique).
    pub fn merge(&mut self, other: Report) {
        let base = self.spans.iter().map(|s| s.op + 1).max().unwrap_or(0);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            op: s.op + base,
            ..s
        }));
        self.solved += other.solved;
        self.solves += other.solves;
        self.reply_bytes.extend(other.reply_bytes);
        self.svg_bytes.extend(other.svg_bytes);
    }

    fn medians(&self) -> BTreeMap<(Kind, &'static str), (f64, usize)> {
        let mut by: BTreeMap<(Kind, &'static str), Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            by.entry((s.kind, s.name))
                .or_default()
                .push(s.dur_ns as f64 / 1e3);
        }
        by.into_iter()
            .map(|(k, v)| (k, (stats::median(&v), v.len())))
            .collect()
    }

    /// The per-layer table (one block per op type) and the per-layer
    /// figures. `client` holds, per kind, the traced and untraced client
    /// p50 in ms (raw).
    pub fn summarize(
        &self,
        client: &[(Kind, f64, f64)],
        durable: bool,
        counters: &[(String, f64, &'static str)],
    ) -> (Vec<String>, Vec<(String, f64, &'static str)>) {
        let med = self.medians();
        let mut lines = Vec::new();
        let mut figures: Vec<(String, f64, &'static str)> = Vec::new();
        let counter = |name: &str| {
            counters
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |(_, v, _)| *v)
        };
        for &(kind, traced_ms, untraced_ms) in client {
            let client_us = untraced_ms * 1e3;
            let layer_names: Vec<&'static str> = med
                .keys()
                .filter(|(k, n)| *k == kind && *n != "op")
                .map(|(_, n)| *n)
                .collect();
            if layer_names.is_empty() {
                continue;
            }
            lines.push(format!(
                "-- {} (client p50 {:.1} us untraced, {:.1} us traced; raw, not normalized)",
                kind.name(),
                client_us,
                traced_ms * 1e3
            ));
            lines.push(format!(
                "{:<22} {:>8} {:>12} {:>12}  {}",
                "layer", "n", "median_us", "self_us", "called by"
            ));
            let mut self_sum = 0.0;
            for name in &layer_names {
                let (m, n) = med[&(kind, *name)];
                let children: f64 = PARENTS
                    .iter()
                    .filter(|(_, p)| p == name)
                    .filter_map(|(c, _)| med.get(&(kind, *c)).map(|x| x.0))
                    .sum();
                let self_us = (m - children).max(0.0);
                self_sum += self_us;
                lines.push(format!(
                    "{name:<22} {n:>8} {m:>12.2} {self_us:>12.2}  {}",
                    parent_of(name)
                ));
            }
            // Waits read from the server's stage histograms (log2 buckets:
            // coarse). The replayed `journal.append` already includes the
            // group fsync, so the fsync wait is shown but not added.
            let queue = counter("reactor.queue_wait_us");
            let mut server_side = queue;
            let coarse = "op (server stage p50, log2 buckets: coarse)";
            lines.push(format!(
                "{:<22} {:>8} {queue:>12.2} {queue:>12.2}  {coarse}",
                "reactor.queue_wait", "-"
            ));
            if durable && kind != Kind::Drag {
                let fsync = counter("journal.fsync_wait_us");
                let ack = counter("repl.ack_us");
                server_side += ack;
                lines.push(format!(
                    "{:<22} {:>8} {fsync:>12.2} {:>12}  {coarse}; inside journal.append",
                    "journal.fsync_wait", "-", "-"
                ));
                lines.push(format!(
                    "{:<22} {:>8} {ack:>12.2} {ack:>12.2}  {coarse}",
                    "repl.ack", "-"
                ));
            }
            let session_us = med.get(&(kind, "session")).map_or(f64::NAN, |x| x.0);
            let transport = client_us - session_us;
            let unattributed = (client_us - self_sum - server_side) / client_us * 100.0;
            let overhead = (traced_ms / untraced_ms - 1.0) * 100.0;
            lines.push(format!(
                "transport (client p50 - session p50) {transport:.2} us; unattributed {unattributed:.1}% of client p50; tracing overhead {overhead:+.1}%"
            ));
            figures.push((
                format!("transport.{}_us", kind.name()),
                zero_nan(transport),
                "us",
            ));
            figures.push((
                format!("unattributed.{}_pct", kind.name()),
                zero_nan(unattributed),
                "%",
            ));
            figures.push((
                format!("trace_overhead.{}_pct", kind.name()),
                zero_nan(overhead),
                "%",
            ));
        }
        for kind in [Kind::Drag, Kind::Commit, Kind::SetCode] {
            for stem in ["transport", "unattributed", "trace_overhead"] {
                let suffix = if stem == "transport" { "us" } else { "pct" };
                let name = format!("{stem}.{}_{suffix}", kind.name());
                if !figures.iter().any(|(n, _, _)| *n == name) {
                    figures.push((name, 0.0, if suffix == "us" { "us" } else { "%" }));
                }
            }
        }
        let all_kinds = |name: &str| {
            let xs: Vec<f64> = self
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns as f64 / 1e3)
                .collect();
            zero_nan(stats::median(&xs))
        };
        let of =
            |kind: Kind, name: &str| zero_nan(med.get(&(kind, name)).map_or(f64::NAN, |x| x.0));
        let layer_figures: Vec<(String, f64, &'static str)> = vec![
            ("http.parse_us".into(), all_kinds("http.parse"), "us"),
            ("http.encode_us".into(), all_kinds("http.encode"), "us"),
            ("json.decode_us".into(), all_kinds("json.decode"), "us"),
            ("json.encode_us".into(), all_kinds("json.encode"), "us"),
            (
                "json.reply_bytes".into(),
                zero_nan(stats::median(&self.reply_bytes)),
                "count",
            ),
            ("store.get_us".into(), all_kinds("store.get"), "us"),
            ("session.drag_us".into(), of(Kind::Drag, "session"), "us"),
            (
                "session.commit_us".into(),
                of(Kind::Commit, "session"),
                "us",
            ),
            (
                "session.set_code_us".into(),
                of(Kind::SetCode, "session"),
                "us",
            ),
            (
                "editor.drag_to_us".into(),
                of(Kind::Drag, "editor.drag_to"),
                "us",
            ),
            (
                "editor.end_drag_us".into(),
                of(Kind::Commit, "editor.end_drag"),
                "us",
            ),
            (
                "editor.set_code_us".into(),
                of(Kind::SetCode, "editor.set_code"),
                "us",
            ),
            (
                "editor.preview_us".into(),
                of(Kind::Drag, "editor.preview"),
                "us",
            ),
            ("live.drag_us".into(), of(Kind::Drag, "live.drag"), "us"),
            (
                "live.commit_us".into(),
                of(Kind::Commit, "live.commit"),
                "us",
            ),
            (
                "live.set_code_us".into(),
                of(Kind::SetCode, "live.set_code"),
                "us",
            ),
            (
                "lang.unparse_us".into(),
                of(Kind::Drag, "lang.unparse"),
                "us",
            ),
            ("lang.diff_us".into(), of(Kind::SetCode, "lang.diff"), "us"),
            (
                "eval.parse_us".into(),
                of(Kind::SetCode, "eval.parse"),
                "us",
            ),
            ("eval.eval_us".into(), of(Kind::SetCode, "eval.eval"), "us"),
            (
                "eval.with_subst_us".into(),
                of(Kind::Drag, "eval.with_subst"),
                "us",
            ),
            (
                "svg.canvas_us".into(),
                of(Kind::SetCode, "svg.canvas"),
                "us",
            ),
            (
                "svg.render_us".into(),
                of(Kind::SetCode, "svg.render"),
                "us",
            ),
            (
                "svg.bytes".into(),
                zero_nan(stats::median(&self.svg_bytes)),
                "count",
            ),
            ("solver.solve_us".into(), all_kinds("solver.solve"), "us"),
            (
                "solver.solved_ratio".into(),
                if self.solves == 0 {
                    0.0
                } else {
                    self.solved as f64 / self.solves as f64
                },
                "ratio",
            ),
            (
                "journal.append_us".into(),
                all_kinds("journal.append"),
                "us",
            ),
        ];
        figures.extend(layer_figures);
        (lines, figures)
    }

    /// Writes every span as JSON lines to `.livebench_out/`.
    pub fn write_spans(&self, workload: &str, seed: u64) -> Result<PathBuf, String> {
        use std::io::Write as _;
        let dir = PathBuf::from(".livebench_out");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
        let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"kind\":\"{}\",\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.kind.name(),
                s.name,
                s.parent,
                s.start_ns,
                s.start_ns + s.dur_ns
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())?;
        Ok(path)
    }
}
