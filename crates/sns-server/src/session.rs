//! One live-synchronization session: an [`Editor`] whose mouse-down/move/up
//! protocol is mapped onto stateless HTTP requests.
//!
//! The expensive `prepare` (zone assignments + triggers) lives inside the
//! editor's `LiveSync` and is computed when the session is created and
//! after each *commit* — never per drag request, mirroring the editor's
//! mouse-up semantics (§4, §5.2.3).

use std::fmt::{self, Write as _};
use std::sync::Arc;

use sns_editor::{Editor, EditorConfig};
use sns_eval::{Limits, Program};
use sns_lang::Subst;
use sns_obs::trace::{stamp_current, Stage};
use sns_svg::{ShapeId, Zone};

use crate::json::{self, Escaped, Json};
use crate::persist::{Op, SessionBackend};

/// Server-side per-request evaluation limits: far below [`Limits::default`]
/// so one hostile program cannot pin a worker, yet ample for every corpus
/// example.
pub fn server_limits() -> Limits {
    Limits {
        max_steps: 5_000_000,
        max_depth: 4_000,
    }
}

/// A live session.
pub struct Session {
    /// The session id (also the store key).
    pub id: String,
    editor: Editor,
    /// Monotone count of requests served by this session.
    pub requests: u64,
    /// Live-sync counters as of the last [`Session::live_stats_delta`]
    /// call, so deltas can be folded into the server-wide stats.
    reported: sns_sync::LiveStats,
    /// Where mutations are journaled before they apply; `None` until the
    /// store attaches its backend (and always `None` under the in-memory
    /// backend, whose appends would be no-ops anyway).
    persist: Option<Arc<dyn SessionBackend>>,
    /// Tombstone set by [`Session::mark_deleted`].
    deleted: bool,
}

/// A journaled mutation kind; the session id (the missing half of
/// [`Op`]) is always the session's own.
enum MutOp<'a> {
    Commit(&'a Subst),
    SetCode(&'a str),
}

/// A journaled-but-not-yet-applied operation. [`finish`](JournalGuard::finish)
/// reports the apply's outcome; dropping without finishing (an apply that
/// panicked) reports failure, keeping the backend's in-flight accounting
/// exact.
struct JournalGuard {
    pending: Option<(Arc<dyn SessionBackend>, String)>,
}

impl JournalGuard {
    /// Reports the post-apply editor on success, `None` on failure. The
    /// program text is rendered only when a journal awaits it.
    fn finish(mut self, applied: Option<&Editor>) {
        if let Some((backend, id)) = self.pending.take() {
            backend.applied(&id, applied.map(Editor::code).as_deref());
        }
    }
}

impl Drop for JournalGuard {
    fn drop(&mut self) {
        if let Some((backend, id)) = self.pending.take() {
            backend.applied(&id, None);
        }
    }
}

// Sessions move between the reactor and the worker pool, so what a
// session owns must be `Send + Sync`. Evaluation values are not (their
// cons cells, closures and environments are `Rc`): none may reach a
// program, a canvas or a session, which keep only numbers and their
// `Arc` traces. This fails to compile if one does.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Session>();
    send_sync::<sns_sync::LiveSync>();
    send_sync::<sns_svg::Canvas>();
    send_sync::<Program>();
    send_sync::<Arc<sns_eval::Trace>>();
};

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("drag", &self.editor.drag_target())
            .field("requests", &self.requests)
            .field("durable", &self.persist.is_some())
            .finish_non_exhaustive()
    }
}

/// A session-level failure, mapped to an HTTP status by the router.
#[derive(Debug)]
pub struct SessionError {
    /// HTTP status the error maps to.
    pub status: u16,
    /// Human-readable message.
    pub msg: String,
}

impl SessionError {
    fn bad(msg: impl Into<String>) -> SessionError {
        SessionError {
            status: 422,
            msg: msg.into(),
        }
    }
}

impl Session {
    /// Creates a session from `little` source, enforcing server limits.
    ///
    /// # Errors
    ///
    /// Fails when the program does not parse, evaluate, or render.
    pub fn create(id: String, source: &str) -> Result<Session, SessionError> {
        let mut program = Program::parse(source)
            .map_err(|e| SessionError::bad(format!("program does not parse: {e}")))?;
        program.set_limits(server_limits());
        let editor = Editor::from_program(program, EditorConfig::default())
            .map_err(|e| SessionError::bad(format!("program does not run: {e}")))?;
        Ok(Session {
            id,
            editor,
            requests: 0,
            reported: sns_sync::LiveStats::default(),
            persist: None,
            deleted: false,
        })
    }

    /// Wires the session to a persistence backend: from here on every
    /// mutating operation is journaled before it applies. The store calls
    /// this when the session becomes resident.
    pub fn attach_persist(&mut self, backend: Arc<dyn SessionBackend>) {
        self.persist = Some(backend);
    }

    /// Tombstones the session. Set under the session lock by the store's
    /// delete, it stops requests that already hold the session `Arc` from
    /// mutating (and re-journaling) a session whose delete was already
    /// acknowledged — without it, a racing commit's `applied` would
    /// resurrect the id in the backend's shadow.
    pub fn mark_deleted(&mut self) {
        self.deleted = true;
        self.persist = None;
    }

    /// Whether the session was deleted while this handle was live.
    pub fn is_deleted(&self) -> bool {
        self.deleted
    }

    /// Whether a drag is in progress (uncommitted preview state, which is
    /// deliberately *not* durable — the store must not demote it away).
    pub fn dragging(&self) -> bool {
        self.editor.drag_target().is_some()
    }

    /// Whether a drag on `zone` of `shape` runs without evaluating or
    /// committing anything: it continues the in-flight drag or starts one
    /// (a drag on another zone would commit the in-flight one first), and
    /// the live sync proves every step on that zone without evaluating
    /// ([`sns_sync::LiveSync::drag_is_proof_only`]).
    pub fn drag_is_proof_only(&self, shape: ShapeId, zone: Zone) -> bool {
        self.editor.drag_target().is_none_or(|d| d == (shape, zone))
            && self.editor.live().drag_is_proof_only(shape, zone)
    }

    /// Appends `op` to the journal (if one is attached) and returns a
    /// guard that *must* see the apply's outcome. Mutating methods call
    /// this *before* touching the editor; the guard's `Drop` reports a
    /// failed apply, so the backend's append/applied pairing holds even
    /// if the apply panics (a leaked pairing would wedge that journal
    /// shard's compaction forever).
    fn journal(&self, op: Op<'_>) -> Result<JournalGuard, SessionError> {
        let Some(p) = &self.persist else {
            return Ok(JournalGuard { pending: None });
        };
        p.append(op).map_err(|e| match e.kind() {
            // The session's delete was acknowledged while this handle was
            // in hand; the mutation loses the race cleanly.
            std::io::ErrorKind::NotFound => SessionError {
                status: 404,
                msg: "session was deleted".to_string(),
            },
            _ => SessionError {
                status: 500,
                msg: format!("durability failure: {e}"),
            },
        })?;
        Ok(JournalGuard {
            pending: Some((Arc::clone(p), self.id.clone())),
        })
    }

    /// The journal-before-apply contract, in one place: append the
    /// record, run the editor mutation, report the outcome (post-apply
    /// code on success, failure otherwise — panic-safe via the guard).
    fn journaled_apply<T>(
        &mut self,
        op: MutOp<'_>,
        apply: impl FnOnce(&mut Editor) -> Result<T, sns_editor::EditorError>,
    ) -> Result<T, SessionError> {
        let guard = self.journal(match op {
            MutOp::Commit(subst) => Op::Commit {
                id: &self.id,
                subst,
            },
            MutOp::SetCode(source) => Op::SetCode {
                id: &self.id,
                source,
            },
        })?;
        let result = apply(&mut self.editor);
        if result.is_ok() {
            stamp_current(Stage::PrepareDone);
        }
        guard.finish(result.is_ok().then_some(&self.editor));
        result.map_err(|e| SessionError::bad(e.to_string()))
    }

    /// The live-sync cache counters accumulated since the last call — the
    /// router folds these into [`crate::stats::ServerStats`] after every
    /// session-touching request, making the incremental-prepare hit rate
    /// visible on `/stats`.
    pub fn live_stats_delta(&mut self) -> sns_sync::LiveStats {
        let now = self.editor.live_stats();
        // Saturating: editor reconfiguration (heuristic/freeze-mode swaps)
        // rebuilds the LiveSync and resets its counters below `reported`.
        let delta = now.since(&self.reported);
        self.reported = now;
        delta
    }

    /// The session's editor, read-only.
    pub fn editor(&self) -> &Editor {
        &self.editor
    }

    /// The current program text.
    pub fn code(&self) -> String {
        self.editor.code()
    }

    /// The canvas payload as a walkable tree: the parse of
    /// [`Session::canvas_body`], so it cannot drift from the wire.
    pub fn canvas_json(&self) -> Json {
        json::parse(&self.canvas_body()).expect("the canvas writer emits valid JSON")
    }

    /// The canvas payload as JSON text: rendered SVG plus zone/caption
    /// metadata, `{"svg":…,"shapes":[{"id","kind","hidden","zones":[{"zone",
    /// "active","caption"}]}]}`. Written in one pass: the SVG, zone names
    /// and captions are escaped straight into the text, so a reply
    /// allocates a constant number of times whatever the zone count.
    pub fn canvas_body(&self) -> String {
        let mut out = String::new();
        self.write_canvas(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_canvas(&self, out: &mut String) -> fmt::Result {
        let program = self.editor.program();
        // One analysis per (shape, zone), in canvas order.
        let mut zones = self.editor.live().assignments().zones.iter().peekable();
        out.push_str("{\"svg\":\"");
        self.editor.write_canvas_svg(&mut Escaped(out))?;
        out.push_str("\",\"shapes\":[");
        for (i, shape) in self.editor.shapes().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{{\"id\":{},\"kind\":", shape.id.0)?;
            json::write_str(out, &shape.node.kind)?;
            write!(out, ",\"hidden\":{},\"zones\":[", shape.hidden())?;
            let mut first = true;
            while let Some(a) = zones.next_if(|a| a.shape == shape.id) {
                if !std::mem::take(&mut first) {
                    out.push(',');
                }
                write!(
                    out,
                    "{{\"zone\":\"{}\",\"active\":{},\"caption\":\"",
                    a.zone,
                    a.is_active()
                )?;
                sns_editor::write_caption(&mut Escaped(out), program, a)?;
                out.push_str("\"}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        Ok(())
    }

    /// Applies one drag movement. `dx`/`dy` are total offsets from the
    /// drag's start, like the editor's mouse-move events. Starting a drag
    /// on a different zone implicitly commits the previous one.
    ///
    /// # Errors
    ///
    /// Fails when the zone is inactive or re-evaluation fails.
    pub fn drag(
        &mut self,
        shape: ShapeId,
        zone: Zone,
        dx: f64,
        dy: f64,
    ) -> Result<Json, SessionError> {
        if self
            .editor
            .drag_target()
            .is_some_and(|d| d != (shape, zone))
        {
            self.commit()?;
        }
        if self.editor.drag_target().is_none() {
            self.editor
                .start_drag(shape, zone)
                .map_err(|e| SessionError::bad(e.to_string()))?;
        }
        match self.editor.drag_to(dx, dy) {
            Ok(feedback) => {
                stamp_current(Stage::PrepareDone);
                let subst: Vec<Json> = feedback
                    .subst
                    .iter()
                    .map(|(loc, v)| {
                        Json::obj([
                            ("loc", Json::str(self.editor.program().display_loc(loc))),
                            ("value", Json::Num(v)),
                        ])
                    })
                    .collect();
                Ok(Json::obj([
                    ("code", Json::str(self.preview_code(&feedback.subst))),
                    ("subst", Json::Arr(subst)),
                    (
                        "failures",
                        Json::Num(
                            feedback
                                .highlights
                                .iter()
                                .filter(|(_, h)| *h == sns_editor::Highlight::Red)
                                .count() as f64,
                        ),
                    ),
                ]))
            }
            Err(e) => {
                // Leaving the editor's drag state behind would make every
                // later `start_drag` fail, wedging the session.
                self.editor.cancel_drag();
                Err(SessionError::bad(e.to_string()))
            }
        }
    }

    /// The program text as it would read if the in-flight drag committed —
    /// the live-updating code pane of the paper's editor. Spliced from the
    /// program's cached text, so a drag step neither clones the program
    /// nor walks its AST.
    fn preview_code(&self, subst: &sns_lang::Subst) -> String {
        self.editor.program().code_with(subst)
    }

    /// Commits the in-flight drag (mouse-up): journals the pending update,
    /// applies it, and re-prepares. A commit with no drag in progress is a
    /// no-op, so clients can call it defensively.
    ///
    /// # Errors
    ///
    /// Fails when the update cannot be journaled (the drag is then aborted
    /// rather than applied un-durably) or the committed program no longer
    /// runs.
    pub fn commit(&mut self) -> Result<(), SessionError> {
        if self.editor.drag_target().is_none() {
            return Ok(());
        }
        let Some(subst) = self.editor.pending_subst().cloned() else {
            // Mouse-up with no movement: nothing to persist or apply.
            self.editor.cancel_drag();
            return Ok(());
        };
        let result = self.journaled_apply(MutOp::Commit(&subst), |ed| ed.end_drag());
        if result.is_err() {
            // A journal failure leaves the editor's mouse-down state in
            // place; clear it so the session is not wedged. (After a
            // failed *apply* this is a no-op — `end_drag` already
            // consumed the drag.)
            self.editor.cancel_drag();
        }
        result
    }

    /// Commits the in-flight drag on the fast tier alone
    /// ([`Editor::end_drag_fast`]), for a session with nothing to journal.
    /// Returns false, with the session untouched, when a journal is
    /// attached, the session is deleted, or the fast tier declines;
    /// [`commit`](Session::commit) then does the work.
    pub fn commit_fast(&mut self) -> bool {
        if self.persist.is_some() || self.deleted || !self.editor.end_drag_fast() {
            return false;
        }
        stamp_current(Stage::PrepareDone);
        true
    }

    /// The substitution [`commit`](Session::commit) would journal and
    /// apply right now — for harnesses that drive the journal by hand.
    pub fn pending_commit(&self) -> Option<Subst> {
        self.editor.pending_subst().cloned()
    }

    /// Replaces the program text (the code pane), journaling first. An
    /// in-flight drag is committed first, like the editor's mouse-up on
    /// leaving the canvas — and that mouse-up stands on its own: it is
    /// durable even if the replacement below is then rejected.
    ///
    /// # Errors
    ///
    /// Fails when the text cannot be journaled or does not parse,
    /// evaluate, or render (the program as of the mouse-up stays).
    pub fn set_code(&mut self, source: &str) -> Result<Json, SessionError> {
        self.commit()?;
        self.journaled_apply(MutOp::SetCode(source), |ed| ed.set_code(source))?;
        Ok(Json::obj([
            ("code", Json::str(self.code())),
            ("canvas", Json::Raw(self.canvas_body())),
        ]))
    }

    /// Applies a commit read back from a journal record: the local WAL
    /// on boot recovery, or the leader's stream on a follower. It runs
    /// through the same incremental-prepare path as live traffic, so
    /// every recovered or replicated commit re-exercises
    /// `LiveSync::commit` as a correctness oracle. A follower journals it
    /// into its *own* WAL first, so a promoted follower is durable in its
    /// own right; a session being recovered has no backend attached yet,
    /// so nothing is re-journaled.
    ///
    /// # Errors
    ///
    /// Fails when the record cannot be journaled locally or the program
    /// no longer runs (deterministic — the same op failed when first
    /// journaled).
    pub fn apply_recorded_commit(&mut self, subst: &Subst) -> Result<(), SessionError> {
        self.journaled_apply(MutOp::Commit(subst), |ed| ed.apply_subst(subst))
    }

    /// Applies a code replacement read back from a journal record (see
    /// [`apply_recorded_commit`](Session::apply_recorded_commit)).
    ///
    /// # Errors
    ///
    /// Fails when the record cannot be journaled locally or the text does
    /// not parse, evaluate, or render.
    pub fn apply_recorded_set_code(&mut self, source: &str) -> Result<(), SessionError> {
        self.journaled_apply(MutOp::SetCode(source), |ed| ed.set_code(source))
    }

    /// Ranks and applies the best update reconciling ad-hoc output edits
    /// (§7.2 goal (c)).
    ///
    /// # Errors
    ///
    /// Fails when no candidate update reconciles the edits.
    pub fn reconcile(&mut self, edits: &[sns_sync::OutputEdit]) -> Result<Json, SessionError> {
        self.commit()?;
        let mut ranked = self.editor.reconcile_edits(edits);
        if ranked.is_empty() {
            return Err(SessionError::bad(
                "no candidate update reconciles those edits",
            ));
        }
        let candidates: Vec<Json> = ranked
            .iter()
            .map(|r| {
                Json::obj([
                    ("update", Json::str(r.update.subst.to_string())),
                    ("judgment", Json::str(format!("{:?}", r.judgment))),
                ])
            })
            .collect();
        // Apply the best candidate without rerunning the synthesis. The
        // applied update is a commit like any other: journal it first.
        let best = ranked.swap_remove(0);
        let subst = best.update.subst.clone();
        self.journaled_apply(MutOp::Commit(&subst), move |ed| {
            ed.apply_reconciliation(best)
        })?;
        Ok(Json::obj([
            ("candidates", Json::Arr(candidates)),
            ("code", Json::str(self.editor.code())),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_drag_commit_roundtrip() {
        let mut s = Session::create("s1".into(), "(svg [(rect 'gold' 10 20 30 40)])").unwrap();
        let out = s.drag(ShapeId(0), Zone::Interior, 25.0, 5.0).unwrap();
        assert_eq!(
            out.get("code").unwrap().as_str(),
            Some("(svg [(rect 'gold' 35 25 30 40)])")
        );
        s.commit().unwrap();
        assert_eq!(s.code(), "(svg [(rect 'gold' 35 25 30 40)])");
    }

    #[test]
    fn successive_drags_do_not_accumulate() {
        let mut s = Session::create("s1".into(), "(svg [(rect 'gold' 10 20 30 40)])").unwrap();
        // Total offsets, like mouse-move: the second supersedes the first.
        s.drag(ShapeId(0), Zone::Interior, 5.0, 0.0).unwrap();
        s.drag(ShapeId(0), Zone::Interior, 9.0, 1.0).unwrap();
        s.commit().unwrap();
        assert_eq!(s.code(), "(svg [(rect 'gold' 19 21 30 40)])");
    }

    #[test]
    fn switching_zones_commits_implicitly() {
        let mut s = Session::create("s1".into(), "(svg [(rect 'gold' 10 20 30 40)])").unwrap();
        s.drag(ShapeId(0), Zone::Interior, 5.0, 5.0).unwrap();
        s.drag(ShapeId(0), Zone::RightEdge, 10.0, 0.0).unwrap();
        s.commit().unwrap();
        assert_eq!(s.code(), "(svg [(rect 'gold' 15 25 40 40)])");
    }

    #[test]
    fn hostile_programs_hit_limits() {
        let err = Session::create("s1".into(), "(defrec spin (λ n (spin n))) (svg [(spin 0)])")
            .unwrap_err();
        assert!(err.msg.contains("limit"), "{}", err.msg);
    }

    #[test]
    fn set_code_keeps_the_server_limits() {
        // Recursion deeper than the server's depth limit but within the
        // library default: refused on create and on set_code alike.
        let deep = "(defrec f (λ n (if (< n 1) 0 (+ 1 (f (- n 1))))))
                    (svg [(rect 'gold' (f 1500) 20 30 40)])";
        assert!(Program::parse(deep).unwrap().eval().is_ok());
        let err = Session::create("s0".into(), deep).unwrap_err();
        assert!(err.msg.contains("limit"), "{}", err.msg);
        let mut s = Session::create("s1".into(), "(svg [(rect 'gold' 10 20 30 40)])").unwrap();
        let err = s.set_code(deep).unwrap_err();
        assert!(err.msg.contains("limit"), "{}", err.msg);
        assert_eq!(s.code(), "(svg [(rect 'gold' 10 20 30 40)])");
    }

    #[test]
    fn failed_drag_does_not_wedge_the_session() {
        // A drag whose re-evaluation fails must fully unwind the editor's
        // drag state, or every later drag dies with "already in progress".
        let mut s = Session::create(
            "s1".into(),
            "(def n 3!{1-5}) (def k 2) (svg [(rect 'red' (* k 10) 20 30 40)])",
        )
        .unwrap();
        // Force a failure by dragging an inactive zone mid-protocol: start
        // a healthy drag, then simulate drag_to failure via a bogus zone.
        assert!(s.drag(ShapeId(0), Zone::Interior, 5.0, 0.0).is_ok());
        // Implicit-commit path to a zone that is inactive errors cleanly…
        let err = s.drag(ShapeId(0), Zone::Rotation, 1.0, 0.0).unwrap_err();
        assert_eq!(err.status, 422);
        // …and the session still accepts new drags afterwards.
        assert!(
            s.drag(ShapeId(0), Zone::Interior, 7.0, 0.0).is_ok(),
            "session wedged"
        );
        s.commit().unwrap();
    }

    #[test]
    fn inactive_zone_is_a_client_error() {
        let mut s = Session::create("s1".into(), "(svg [(rect 'gold' 1! 2! 3! 4!)])").unwrap();
        let err = s.drag(ShapeId(0), Zone::Interior, 1.0, 1.0).unwrap_err();
        assert_eq!(err.status, 422);
    }
}
