//! Live synchronization (§4): the prepare → drag → re-evaluate loop.
//!
//! A [`LiveSync`] session owns a program and its current canvas. `prepare`
//! computes shape assignments and mouse triggers for every zone; `drag`
//! fires a trigger and infers the local update for one mouse-move event;
//! `commit` finalizes a drag (mouse-up), applying the update, after which
//! the session re-prepares in anticipation of the next user action.
//!
//! # Incremental preparation and the drag fast path
//!
//! The paper's own evaluation singles out `prepare` as the dominant cost
//! (§5.2.3), and a naïve session re-runs it — plus a full re-evaluation —
//! on every commit, making commit latency O(canvas). This implementation
//! makes both steps O(edit) whenever it can prove the edit cannot change
//! control flow:
//!
//! * evaluation records which locations *escape* the trace system
//!   (comparisons, `=`, `toString`, numeric patterns — see
//!   [`sns_eval::Evaluator::escaped_locs`]). A substitution avoiding all
//!   of them leaves control flow, output structure, and every trace
//!   unchanged;
//! * **drag fast path** — a mouse-move is the trigger solve plus the tier
//!   proof that the update preserves control flow. No canvas is built: the
//!   proof already guarantees the updated program evaluates. Only an
//!   update the proof rejects is evaluated in full, to refuse it if the
//!   program fails;
//! * **trace tape** — every prepare compiles the canvas's traces into a
//!   [`TraceTape`] and records which tape node each canvas number and each
//!   trigger part reads. A fast-tier commit ([`LiveSync::commit_fast`])
//!   *sweeps* the tape under the update in place — recomputing only the
//!   nodes downstream of a changed location — stores each swept number
//!   by index into the canvas's flat value array (the tree holds only
//!   traces; a shape is a view of its node and of that array), and
//!   commits them to the tape; [`LiveSync::preview_canvas`] sweeps a clone
//!   of the tape into a clone of the canvas;
//! * **incremental prepare** — with traces unchanged, candidate location
//!   sets, heuristic choices and triggers are unchanged too; only the
//!   attributes' current values move, and the tape already holds them. A
//!   drag reads each trigger part's base from its tape node, so a commit
//!   touches nothing per zone. The analyses' slot bases
//!   ([`AttrSlot::base`](crate::AttrSlot::base)) and the stored triggers'
//!   bases keep their prepare-time values; [`LiveSync::trigger`] returns a
//!   trigger with its current bases.
//!
//! A commit whose substitution touches an escaped location may change
//! control flow, so it re-evaluates and re-prepares in full (§4, §5.2.3).
//! So does one whose sweep fails (a changed trace node without a value).
//!
//! # Code edits
//!
//! [`LiveSync::set_program_diffed`] classifies a code edit with
//! [`sns_lang::diff_exprs`]. An edit of literal values only is the
//! bitwise difference of the two programs' ρ₀ (which [`Program`] holds;
//! its ASTs keep the values as parsed) and takes the commit path above.
//! Every other edit is evaluated once and follows one rule: when the new
//! canvas is what the current analyses describe (the same shapes,
//! structurally trace-equal, and every location they read frozen as
//! before), the analyses, triggers and dependence index stand and only
//! the program, the canvas, the escaped set and the trace tape are
//! installed; otherwise the same evaluation is prepared in full.
//!
//! Every full prepare shares one memo across its zones: trace locations
//! by trace address, candidates by slot signature (see [`crate::assign`]).
//! It is dropped when the prepare ends.
//!
//! Whenever a proof obligation fails (a sweep trips on anything
//! unexpected, a re-evaluated canvas differs from the analyzed one), the
//! session falls back to the full re-evaluate + re-prepare path,
//! [`LiveSync::replace_program`], so observable behaviour is identical.
//! That path is also the reference: the corpus-wide equivalence suite
//! (`tests/incremental_equiv.rs`) commits a twin session only through it
//! and checks the two bit-for-bit.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sns_eval::{
    AddrHasher, Escapes, EvalError, EvalOutcome, FreezeMode, Program, Trace, TraceTape,
};
use sns_lang::{diff_exprs, AstDiff, LocId, Subst};
use sns_svg::node::{PathCmd, TransformCmd};
use sns_svg::{resolve_attr, AttrValue, Canvas, NumTr, ShapeId, SvgChild, SvgError, SvgNode, Zone};

use crate::assign::{analyze_canvas_with, Assignments, Heuristic, PrepareMemo};
use crate::depindex::DepIndex;
use crate::trigger::{SolverChoice, Trigger, TriggerFire, TriggerPart, NO_NODE};

/// How [`LiveSync::set_program_diffed`] classified a code edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetCodeClass {
    /// The user expression is unchanged; session state was reused as-is.
    Identical,
    /// Only numeric literals changed; the edit became a substitution.
    Literals,
    /// Any other edit: the program was evaluated again, and prepared in
    /// full unless the new canvas is the one already analyzed.
    Reevaluated,
}

/// Configuration of a live-synchronization session.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveConfig {
    /// Disambiguation heuristic (§4.1 / App. B.1).
    pub heuristic: Heuristic,
    /// Which constants are changeable (§2.2).
    pub freeze_mode: FreezeMode,
    /// Equation solver used by triggers.
    pub solver: SolverChoice,
}

/// Counters describing how a session's work has been served (cache
/// observability for benchmarks and the server's `/stats` endpoint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Full prepares: initial, post-fallback, and `replace_program`.
    pub full_prepares: u64,
    /// Commits served by the incremental path (a tape sweep, nothing per
    /// zone).
    pub incremental_prepares: u64,
    /// Re-evaluated code edits whose canvas the current analyses already
    /// describe, so only the canvas and its tape were installed.
    pub partial_prepares: u64,
    /// Drag steps the fast tier proved safe, so nothing was evaluated.
    pub fast_evals: u64,
    /// Drag steps checked by a full re-evaluation.
    pub full_evals: u64,
    /// Full-prepare fallbacks because a commit touched an escaped location.
    pub fallback_escaped: u64,
    /// Full-prepare fallbacks because a re-evaluated code edit changed
    /// what the analyses read: the shapes, their traces, or which of
    /// their locations are frozen.
    pub fallback_structural: u64,
    /// Full-prepare fallbacks because a fast-tier commit's sweep failed.
    pub fallback_reconcile: u64,
}

impl LiveStats {
    /// What was counted since `earlier`, field by field (saturating, so a
    /// session rebuilt with fresh counters reads zero, not a wrap).
    pub fn since(&self, earlier: &LiveStats) -> LiveStats {
        LiveStats {
            full_prepares: self.full_prepares.saturating_sub(earlier.full_prepares),
            incremental_prepares: self
                .incremental_prepares
                .saturating_sub(earlier.incremental_prepares),
            partial_prepares: self
                .partial_prepares
                .saturating_sub(earlier.partial_prepares),
            fast_evals: self.fast_evals.saturating_sub(earlier.fast_evals),
            full_evals: self.full_evals.saturating_sub(earlier.full_evals),
            fallback_escaped: self
                .fallback_escaped
                .saturating_sub(earlier.fallback_escaped),
            fallback_structural: self
                .fallback_structural
                .saturating_sub(earlier.fallback_structural),
            fallback_reconcile: self
                .fallback_reconcile
                .saturating_sub(earlier.fallback_reconcile),
        }
    }
}

/// Trace-tape work a session has done, in tape nodes: deterministic
/// counts of what its prepares compiled and its commits swept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeWork {
    /// Nodes compiled onto tapes (each prepare compiles its canvas's).
    pub compiled: u64,
    /// Nodes the sweeps of fast-tier commits changed.
    pub swept: u64,
    /// The lengths of the tapes those sweeps ran on, summed: what
    /// recomputing each whole tape would have changed.
    pub swept_of: u64,
}

/// Errors from running or preparing a program in a live session.
#[derive(Debug, Clone)]
pub enum LiveError {
    /// The program failed to evaluate.
    Eval(EvalError),
    /// The program's output is not a well-formed SVG canvas.
    Svg(SvgError),
    /// The referenced shape/zone has no active trigger.
    NoTrigger {
        /// The shape that was addressed.
        shape: ShapeId,
        /// The zone that was addressed.
        zone: Zone,
    },
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Eval(e) => write!(f, "live sync: {e}"),
            LiveError::Svg(e) => write!(f, "live sync: {e}"),
            LiveError::NoTrigger { shape, zone } => {
                write!(f, "live sync: no active trigger for {shape} zone {zone}")
            }
        }
    }
}

impl Error for LiveError {}

impl From<EvalError> for LiveError {
    fn from(e: EvalError) -> Self {
        LiveError::Eval(e)
    }
}

impl From<SvgError> for LiveError {
    fn from(e: SvgError) -> Self {
        LiveError::Svg(e)
    }
}

/// The result of one in-flight drag step.
#[derive(Debug, Clone)]
pub struct DragResult {
    /// The local update inferred for this mouse position.
    pub subst: Subst,
    /// Attributes whose equations failed (red highlight).
    pub failures: Vec<sns_svg::AttrRef>,
}

/// A live-synchronization session over one program.
#[derive(Debug)]
pub struct LiveSync {
    program: Program,
    config: LiveConfig,
    canvas: Canvas,
    assignments: Assignments,
    triggers: HashMap<(ShapeId, Zone), Trigger>,
    /// Locations that escaped the trace system during the last full
    /// evaluation.
    escaped: Escapes,
    /// The locations the last full prepare's slot traces mention.
    depindex: DepIndex,
    /// The canvas's traces, compiled when the canvas was installed.
    compiled: Compiled,
    /// How this session's work has been served, but for its drag steps:
    /// a drag counts through a shared reference, so those two are atomic.
    stats: LiveStats,
    fast_evals: AtomicU64,
    full_evals: AtomicU64,
    tape_work: TapeWork,
}

/// The canvas's traces compiled onto a [`TraceTape`], where every trigger
/// part's current base lives. Rebuilt wherever a canvas is installed; a
/// fast-tier commit only sweeps it.
#[derive(Debug)]
struct Compiled {
    tape: TraceTape,
    /// The tape node of every canvas number, by slot: `outputs[i]` is
    /// the node of the value [`Canvas::nums`]`[i]`.
    outputs: Vec<u32>,
}

impl Compiled {
    /// Compiles `canvas`'s numbers and records in each trigger part the
    /// tape node of its attribute (a canvas number, so already compiled).
    fn build(
        canvas: &Canvas,
        triggers: &mut HashMap<(ShapeId, Zone), Trigger>,
        rho0: &Subst,
        work: &mut TapeWork,
    ) -> Compiled {
        let mut tape = TraceTape::builder(rho0);
        let mut outputs = Vec::new();
        canvas.for_each_num(|num| {
            debug_assert_eq!(num.slot, outputs.len(), "numbers are visited by slot");
            outputs.push(tape.push(&num.t));
        });
        for trigger in triggers.values_mut() {
            let shape = canvas.shape(trigger.shape);
            for part in &mut trigger.parts {
                part.node = shape
                    .and_then(|s| resolve_attr(s.node, &part.attr))
                    .map_or(NO_NODE, |num| tape.push(&num.t));
            }
        }
        let tape = tape.finish();
        work.compiled += tape.len() as u64;
        Compiled { tape, outputs }
    }

    /// A trigger part's current base: its tape node's value, or the
    /// prepared base where the node has none (no commit has changed it).
    fn base(&self, part: &TriggerPart) -> f64 {
        self.tape.value(part.node).unwrap_or(part.base)
    }
}

impl LiveSync {
    /// Runs the program and prepares assignments and triggers.
    ///
    /// # Errors
    ///
    /// Fails if the program does not evaluate or its output is not SVG.
    pub fn new(program: Program, config: LiveConfig) -> Result<LiveSync, LiveError> {
        let outcome = program.eval_traced()?;
        let canvas = Canvas::from_value(&outcome.value)?;
        let mut memo = PrepareMemo::default();
        let (assignments, mut triggers) = prepare_with(&program, &canvas, config, &mut memo);
        let depindex = DepIndex::build(&assignments, &mut memo.locs);
        let mut tape_work = TapeWork::default();
        let compiled = Compiled::build(&canvas, &mut triggers, program.rho0(), &mut tape_work);
        Ok(LiveSync {
            program,
            config,
            canvas,
            assignments,
            triggers,
            escaped: outcome.escaped,
            depindex,
            compiled,
            stats: LiveStats {
                full_prepares: 1,
                ..LiveStats::default()
            },
            fast_evals: AtomicU64::new(0),
            full_evals: AtomicU64::new(0),
            tape_work,
        })
    }

    /// The current program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The current canvas.
    pub fn canvas(&self) -> &Canvas {
        &self.canvas
    }

    /// The current zone assignments (for captions, highlights, statistics).
    /// Each [`AttrSlot::base`](crate::AttrSlot::base) is the value at the
    /// last prepare; a commit since moves the canvas, not the analyses.
    pub fn assignments(&self) -> &Assignments {
        &self.assignments
    }

    /// The trigger of a zone as it fires now, each part's base being the
    /// attribute's current value; `None` when the zone is inactive.
    pub fn trigger(&self, shape: ShapeId, zone: Zone) -> Option<Trigger> {
        let mut trigger = self.triggers.get(&(shape, zone))?.clone();
        for part in &mut trigger.parts {
            part.base = self.compiled.base(part);
        }
        Some(trigger)
    }

    /// Whether a zone is active (has a trigger).
    pub fn has_trigger(&self, shape: ShapeId, zone: Zone) -> bool {
        self.triggers.contains_key(&(shape, zone))
    }

    /// Simulates the mouse moving `(dx, dy)` while holding `zone` of
    /// `shape`: fires the trigger and checks that the update is usable. The
    /// session's program is *not* modified — call [`LiveSync::commit`] on
    /// mouse-up, or [`LiveSync::preview_canvas`] to see the update.
    ///
    /// When the fast tier proves the update preserves control flow, the
    /// updated program provably evaluates to a canvas of the same shape,
    /// so nothing is evaluated. Otherwise the updated program is evaluated
    /// in full, and a failure refuses the drag.
    ///
    /// # Errors
    ///
    /// Fails when the zone is inactive or the updated program misbehaves.
    pub fn drag(
        &self,
        shape: ShapeId,
        zone: Zone,
        dx: f64,
        dy: f64,
    ) -> Result<DragResult, LiveError> {
        let trigger = self
            .triggers
            .get(&(shape, zone))
            .ok_or(LiveError::NoTrigger { shape, zone })?;
        let TriggerFire { subst, failures } = trigger.fire_from(
            |part| self.compiled.base(part),
            self.program.rho0(),
            dx,
            dy,
            self.config.solver,
        );
        if self.control_flow_safe(&subst) {
            self.fast_evals.fetch_add(1, Ordering::Relaxed);
        } else {
            self.full_evals.fetch_add(1, Ordering::Relaxed);
            self.evaluated_canvas(&subst)?;
        }
        Ok(DragResult { subst, failures })
    }

    /// Whether a substitution provably cannot change control flow because
    /// it avoids every escaped location (the unconditional fast path).
    pub fn control_flow_safe(&self, subst: &Subst) -> bool {
        self.avoids_escapes(subst.domain())
    }

    fn avoids_escapes(&self, mut locs: impl Iterator<Item = LocId>) -> bool {
        locs.all(|l| !self.escaped.contains(&l))
    }

    /// Whether every drag step on `zone` of `shape` is proof-only: the
    /// zone has a trigger and none of its locations escapes. A trigger
    /// only binds its own locations, so every substitution it fires is
    /// [`control_flow_safe`](LiveSync::control_flow_safe) and
    /// [`LiveSync::drag`] takes the fast tier without evaluating anything.
    /// The server answers such drags on its event-loop thread.
    pub fn drag_is_proof_only(&self, shape: ShapeId, zone: Zone) -> bool {
        self.triggers
            .get(&(shape, zone))
            .is_some_and(|t| self.avoids_escapes(t.parts.iter().map(|p| p.loc)))
    }

    /// The canvas after applying `subst`: a copy of the cached canvas with
    /// the tape's sweep written in when control flow provably cannot
    /// change, rebuilt from a full re-evaluation otherwise.
    /// [`LiveSync::drag`] does not build it; this is for callers that want
    /// the picture of an in-flight update.
    ///
    /// # Errors
    ///
    /// Fails when the updated program does not evaluate to a canvas.
    pub fn preview_canvas(&self, subst: &Subst) -> Result<Canvas, LiveError> {
        if self.control_flow_safe(subst) {
            let mut tape = self.compiled.tape.clone();
            if let Some(sweep) = tape.sweep(subst) {
                let mut canvas = self.canvas.clone();
                canvas.write_nums(|i| sweep.get(self.compiled.outputs[i]));
                return Ok(canvas);
            };
        }
        self.evaluated_canvas(subst)
    }

    /// The canvas of `subst` applied to the program, by full evaluation.
    fn evaluated_canvas(&self, subst: &Subst) -> Result<Canvas, LiveError> {
        let preview = self.program.with_subst(subst);
        Ok(Canvas::from_value(&preview.eval()?)?)
    }

    /// Commits a drag (mouse-up): applies the final substitution to the
    /// program on the fast tier ([`LiveSync::commit_fast`]) when it takes
    /// it, else re-evaluates and re-prepares assignments and triggers for
    /// the next user action.
    ///
    /// # Errors
    ///
    /// Fails when the updated program does not evaluate to a canvas; the
    /// session is then left as it was.
    pub fn commit(&mut self, subst: &Subst) -> Result<(), LiveError> {
        if self.commit_fast(subst) {
            return Ok(());
        }
        if self.control_flow_safe(subst) {
            // The tier was sound but the sweep failed: reconcile fully.
            self.stats.fallback_reconcile += 1;
        } else {
            self.stats.fallback_escaped += 1;
        }
        self.replace_program(self.program.with_subst(subst))
    }

    /// The fast tier of [`LiveSync::commit`]: when `subst` provably leaves
    /// control flow unchanged and the tape sweeps under it, applies it to
    /// the program, writes the swept values into the canvas, commits them
    /// to the tape and returns true; nothing is evaluated. Otherwise
    /// returns false with the session untouched.
    pub fn commit_fast(&mut self, subst: &Subst) -> bool {
        if !self.control_flow_safe(subst) {
            return false;
        }
        let len = self.compiled.tape.len() as u64;
        let Some(sweep) = self.compiled.tape.sweep(subst) else {
            return false;
        };
        self.tape_work.swept += sweep.swept() as u64;
        self.tape_work.swept_of += len;
        self.program.apply_subst(subst);
        let outputs = &self.compiled.outputs;
        self.canvas.write_nums(|i| sweep.get(outputs[i]));
        sweep.commit();
        self.stats.incremental_prepares += 1;
        true
    }

    /// Cache-effectiveness counters for this session.
    pub fn stats(&self) -> LiveStats {
        LiveStats {
            fast_evals: self.fast_evals.load(Ordering::Relaxed),
            full_evals: self.full_evals.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// The trace-tape work this session has done.
    pub fn tape_work(&self) -> TapeWork {
        self.tape_work
    }

    /// The locations that escaped during the last full evaluation.
    pub fn escaped_locs(&self) -> &Escapes {
        &self.escaped
    }

    /// Replaces the program wholesale (a programmatic edit in the editor's
    /// code pane) and re-prepares. The new program is evaluated before it
    /// is installed, so a failure leaves the session as it was.
    ///
    /// # Errors
    ///
    /// Fails when the new program does not evaluate to a canvas.
    pub fn replace_program(&mut self, program: Program) -> Result<(), LiveError> {
        let outcome = program.eval_traced()?;
        let canvas = Canvas::from_value(&outcome.value)?;
        self.program = program;
        self.install_full_prepare(outcome, canvas);
        Ok(())
    }

    /// Replaces the program via AST diffing, reusing as much session state
    /// as the edit's classification allows: literal values only → the
    /// bitwise difference of the two ρ₀, nothing to do when empty, else a
    /// substitution through the commit path; anything else → one
    /// evaluation, keeping the prepare when the canvas and the frozen
    /// status of its locations are unchanged. Every shortcut verifies
    /// itself and falls back to the full path on any mismatch, so the
    /// result is always bit-identical to [`LiveSync::replace_program`].
    ///
    /// # Errors
    ///
    /// Fails when the new program does not evaluate to a canvas.
    pub fn set_program_diffed(&mut self, program: Program) -> Result<SetCodeClass, LiveError> {
        match diff_exprs(self.program.user_expr(), program.user_expr()) {
            // The ASTs hold parse-time values: only ρ₀ holds current ones.
            // The current program under their difference is the new one.
            AstDiff::Identical | AstDiff::Literals(_) => {
                let subst = literal_edit(self.program.rho0(), program.rho0());
                if subst.is_empty() {
                    return Ok(SetCodeClass::Identical);
                }
                self.commit(&subst)?;
                Ok(SetCodeClass::Literals)
            }
            _ => {
                self.reevaluate(program)?;
                Ok(SetCodeClass::Reevaluated)
            }
        }
    }

    /// Installs a program by evaluating it once. When the analyses,
    /// triggers and dependence index prepared for the current canvas are
    /// also what a full prepare of the new one would compute
    /// ([`LiveSync::prepare_stands`]), they stay, and only the program,
    /// the canvas, the escaped set and the trace tape are installed.
    /// Otherwise the same evaluation is prepared in full.
    fn reevaluate(&mut self, program: Program) -> Result<(), LiveError> {
        let outcome = program.eval_traced()?;
        let canvas = Canvas::from_value(&outcome.value)?;
        let stands = self.prepare_stands(&program, &canvas);
        self.program = program;
        if !stands {
            self.stats.fallback_structural += 1;
            self.install_full_prepare(outcome, canvas);
            return Ok(());
        }
        self.canvas = canvas;
        self.escaped = outcome.escaped;
        self.compiled = Compiled::build(
            &self.canvas,
            &mut self.triggers,
            self.program.rho0(),
            &mut self.tape_work,
        );
        self.stats.partial_prepares += 1;
        Ok(())
    }

    /// Whether the current prepare also describes `canvas` under
    /// `program`. A prepare reads the shapes' nodes and traces, and which
    /// of the locations in their slot traces are frozen; the heuristic's
    /// choices and the triggers are a deterministic function of those. So
    /// it stands when the shape count is unchanged, every location the
    /// dependence index holds (each slot trace's, frozen or not) is frozen
    /// the same way under both programs, and every shape is structurally
    /// trace-equal to the one analyzed.
    fn prepare_stands(&self, program: &Program, canvas: &Canvas) -> bool {
        let (old, new) = (self.canvas.shapes(), canvas.shapes());
        let mode = self.config.freeze_mode;
        let mut eq = TraceEq {
            nums: (self.canvas.nums(), canvas.nums()),
            ..TraceEq::default()
        };
        old.len() == new.len()
            && self
                .depindex
                .locs()
                .all(|l| self.program.is_frozen(l, mode) == program.is_frozen(l, mode))
            && old
                .zip(new)
                .all(|(a, b)| a.id == b.id && eq.node_eq(a.node, b.node))
    }

    /// Finishes a full prepare from an already-computed evaluation.
    fn install_full_prepare(&mut self, outcome: EvalOutcome, canvas: Canvas) {
        let mut memo = PrepareMemo::default();
        let (assignments, triggers) = prepare_with(&self.program, &canvas, self.config, &mut memo);
        self.depindex = DepIndex::build(&assignments, &mut memo.locs);
        self.canvas = canvas;
        self.assignments = assignments;
        self.triggers = triggers;
        self.escaped = outcome.escaped;
        self.compiled = Compiled::build(
            &self.canvas,
            &mut self.triggers,
            self.program.rho0(),
            &mut self.tape_work,
        );
        self.stats.full_prepares += 1;
    }
}

/// The local update taking ρ₀ `old` to `new`: every binding of `new`
/// whose value differs bitwise from its value in `old`. The two bind the
/// same locations: ASTs equal up to literal values number them alike.
fn literal_edit(old: &Subst, new: &Subst) -> Subst {
    debug_assert!(old.domain().eq(new.domain()));
    new.iter()
        .filter(|&(l, v)| old.get(l).map(f64::to_bits) != Some(v.to_bits()))
        .collect()
}

/// Structural equality over SVG nodes with traced numbers compared by the
/// bit pattern of their values, read from the two canvases' value arrays,
/// and structural trace equality memoized by address pair —
/// traces are shared DAGs, so derived recursion would blow up on deep
/// sharing. Only a pair in which either trace is shared is memoized: a
/// trace held by one parent is reached only through it, so a pair of such
/// traces is met once per visit of their parents' pair. Used by a
/// re-evaluated code edit to verify that each shape is exactly what the
/// cached analyses describe.
#[derive(Default)]
struct TraceEq<'c> {
    memo: HashMap<(usize, usize), bool, BuildHasherDefault<AddrHasher>>,
    /// The value arrays of the canvases the two sides' numbers index.
    nums: (&'c [f64], &'c [f64]),
}

impl TraceEq<'_> {
    fn trace_eq(&mut self, a: &Arc<Trace>, b: &Arc<Trace>) -> bool {
        if Arc::ptr_eq(a, b) {
            return true;
        }
        let key = (Arc::as_ptr(a) as usize, Arc::as_ptr(b) as usize);
        let shared = Arc::strong_count(a) > 1 || Arc::strong_count(b) > 1;
        if shared {
            if let Some(&hit) = self.memo.get(&key) {
                return hit;
            }
        }
        let eq = match (a.as_ref(), b.as_ref()) {
            (Trace::Loc(la), Trace::Loc(lb)) => la == lb,
            (Trace::Op(oa, xs), Trace::Op(ob, ys)) => {
                oa == ob
                    && xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|(x, y)| self.trace_eq(x, y))
            }
            _ => false,
        };
        if shared {
            self.memo.insert(key, eq);
        }
        eq
    }

    fn num_eq(&mut self, a: &NumTr, b: &NumTr) -> bool {
        a.value(self.nums.0).to_bits() == b.value(self.nums.1).to_bits()
            && self.trace_eq(&a.t, &b.t)
    }

    fn nums_eq(&mut self, xs: &[NumTr], ys: &[NumTr]) -> bool {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| self.num_eq(x, y))
    }

    fn path_eq(&mut self, a: &PathCmd, b: &PathCmd) -> bool {
        a.cmd == b.cmd && self.nums_eq(&a.args, &b.args)
    }

    fn transform_eq(&mut self, a: &TransformCmd, b: &TransformCmd) -> bool {
        a.cmd == b.cmd && self.nums_eq(&a.args, &b.args)
    }

    fn attr_eq(&mut self, a: &AttrValue, b: &AttrValue) -> bool {
        match (a, b) {
            (AttrValue::Num(x), AttrValue::Num(y)) => self.num_eq(x, y),
            (AttrValue::Str(x), AttrValue::Str(y)) => x == y,
            (AttrValue::Points(xs), AttrValue::Points(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((x1, y1), (x2, y2))| self.num_eq(x1, x2) && self.num_eq(y1, y2))
            }
            (AttrValue::Rgba(xs), AttrValue::Rgba(ys)) => self.nums_eq(&xs[..], &ys[..]),
            (AttrValue::ColorNum(x), AttrValue::ColorNum(y)) => self.num_eq(x, y),
            (AttrValue::Path(xs), AttrValue::Path(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| self.path_eq(x, y))
            }
            (AttrValue::Transform(xs), AttrValue::Transform(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| self.transform_eq(x, y))
            }
            _ => false,
        }
    }

    fn node_eq(&mut self, a: &SvgNode, b: &SvgNode) -> bool {
        a.kind == b.kind
            && a.attrs.len() == b.attrs.len()
            && a.attrs
                .iter()
                .zip(&b.attrs)
                .all(|((ka, va), (kb, vb))| ka == kb && self.attr_eq(va, vb))
            && a.children.len() == b.children.len()
            && a.children
                .iter()
                .zip(&b.children)
                .all(|(x, y)| match (x, y) {
                    (SvgChild::Node(na), SvgChild::Node(nb)) => self.node_eq(na, nb),
                    (SvgChild::Text(ta), SvgChild::Text(tb)) => ta == tb,
                    _ => false,
                })
    }
}

/// Computes assignments and triggers for every zone — the "Prepare"
/// operation measured in §5.2.3.
pub fn prepare(
    program: &Program,
    canvas: &Canvas,
    config: LiveConfig,
) -> (Assignments, HashMap<(ShapeId, Zone), Trigger>) {
    prepare_with(program, canvas, config, &mut PrepareMemo::default())
}

/// [`prepare`] feeding `memo`, which the caller goes on using for the
/// same prepare.
fn prepare_with<'t>(
    program: &Program,
    canvas: &'t Canvas,
    config: LiveConfig,
    memo: &mut PrepareMemo<'t>,
) -> (Assignments, HashMap<(ShapeId, Zone), Trigger>) {
    let frozen = |l: LocId| program.is_frozen(l, config.freeze_mode);
    let assignments = analyze_canvas_with(canvas, &frozen, config.heuristic, memo);
    let triggers = triggers_for(&assignments);
    (assignments, triggers)
}

/// The trigger of every active zone.
fn triggers_for(assignments: &Assignments) -> HashMap<(ShapeId, Zone), Trigger> {
    assignments
        .zones
        .iter()
        .filter_map(|analysis| {
            let trigger = Trigger::compute(analysis)?;
            Some(((analysis.shape, analysis.zone), trigger))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_lang::Op;

    const SINE_WAVE: &str = r#"
        (def [x0 y0 w h sep amp] [50 120 20 90 30 60])
        (def n 12!{3-30})
        (def boxi (λ i
          (let xi (+ x0 (* i sep))
          (let yi (- y0 (* amp (sin (* i (/ twoPi n)))))
            (rect 'lightblue' xi yi w h)))))
        (svg (map boxi (zeroTo n)))
    "#;

    fn session(src: &str) -> LiveSync {
        LiveSync::new(Program::parse(src).unwrap(), LiveConfig::default()).unwrap()
    }

    /// The reference commit: the program under `subst`, re-evaluated and
    /// prepared in full.
    fn full_commit(live: &mut LiveSync, subst: &Subst) {
        live.replace_program(live.program().with_subst(subst))
            .unwrap();
    }

    /// The analyses with each slot's base replaced by its current value,
    /// read from the canvas, then every trigger part's current base as
    /// bits: what a full prepare of the current program would compute.
    fn current_values(live: &LiveSync) -> String {
        let mut assignments = live.assignments().clone();
        for zone in &mut assignments.zones {
            let shape = live.canvas().shape(zone.shape).unwrap();
            for slot in &mut zone.slots {
                slot.base = shape.value(resolve_attr(shape.node, &slot.attr).unwrap());
            }
        }
        let parts: Vec<u64> = assignments
            .zones
            .iter()
            .filter_map(|z| live.trigger(z.shape, z.zone))
            .flat_map(|t| t.parts.into_iter().map(|p| p.base.to_bits()))
            .collect();
        format!("{assignments:?} {parts:?}")
    }

    #[test]
    fn tape_values_equal_the_prepared_bases_across_the_corpus() {
        sns_eval::with_big_stack(|| {
            for example in sns_examples::ALL {
                for heuristic in [Heuristic::Fair, Heuristic::Biased] {
                    let config = LiveConfig {
                        heuristic,
                        ..LiveConfig::default()
                    };
                    let program = Program::parse(example.source).unwrap();
                    let live = LiveSync::new(program, config).unwrap();
                    for trigger in live.triggers.values() {
                        for part in &trigger.parts {
                            assert_eq!(
                                live.compiled.tape.value(part.node).map(f64::to_bits),
                                Some(part.base.to_bits()),
                                "{} {heuristic:?}: {} {} {:?}",
                                example.slug,
                                trigger.shape,
                                trigger.zone,
                                part.attr
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn drag_preview_does_not_mutate_program() {
        let live = session(SINE_WAVE);
        let before = live.program().code();
        let result = live.drag(ShapeId(0), Zone::Interior, 45.0, 0.0).unwrap();
        assert!(!result.subst.is_empty());
        assert_eq!(live.program().code(), before);
    }

    #[test]
    fn commit_updates_program_text() {
        let mut live = session(SINE_WAVE);
        let result = live.drag(ShapeId(0), Zone::Interior, 45.0, 0.0).unwrap();
        live.commit(&result.subst).unwrap();
        // Dragging the first box updates x0 (fair heuristic's first pick).
        assert!(
            live.program().code().contains("95"),
            "{}",
            live.program().code()
        );
    }

    #[test]
    fn dragging_first_box_translates_all_boxes() {
        // §2.3: the first box's Interior is assigned {x0, y0}; all boxes
        // move in unison.
        let mut live = session(SINE_WAVE);
        let xs_before: Vec<f64> = live
            .canvas()
            .shapes()
            .map(|s| s.num("x").unwrap())
            .collect();
        let result = live.drag(ShapeId(0), Zone::Interior, 45.0, 0.0).unwrap();
        live.commit(&result.subst).unwrap();
        let xs_after: Vec<f64> = live
            .canvas()
            .shapes()
            .map(|s| s.num("x").unwrap())
            .collect();
        for (b, a) in xs_before.iter().zip(&xs_after) {
            assert!((a - b - 45.0).abs() < 1e-9);
        }
    }

    #[test]
    fn dragging_second_box_changes_spacing() {
        // §2.3: the second box's Interior is assigned {sep, …}; box i moves
        // by i × Δsep.
        let mut live = session(SINE_WAVE);
        let result = live.drag(ShapeId(1), Zone::Interior, 10.0, 0.0).unwrap();
        live.commit(&result.subst).unwrap();
        let xs: Vec<f64> = live
            .canvas()
            .shapes()
            .map(|s| s.num("x").unwrap())
            .collect();
        // sep solved from 80 + d = x0 + 1·sep → sep = 40.
        assert!((xs[0] - 50.0).abs() < 1e-9);
        assert!((xs[1] - 90.0).abs() < 1e-9);
        assert!((xs[2] - 130.0).abs() < 1e-9);
    }

    #[test]
    fn inactive_zone_reports_no_trigger() {
        // Freeze everything: no zone has a trigger.
        let program = Program::parse("(svg [(rect 'red' 1! 2! 3! 4!)])").unwrap();
        let live = LiveSync::new(program, LiveConfig::default()).unwrap();
        let err = live.drag(ShapeId(0), Zone::Interior, 1.0, 1.0).unwrap_err();
        assert!(matches!(err, LiveError::NoTrigger { .. }));
    }

    #[test]
    fn width_drag_affects_all_boxes_sharing_w() {
        let mut live = session(SINE_WAVE);
        let result = live.drag(ShapeId(5), Zone::RightEdge, 12.0, 0.0).unwrap();
        live.commit(&result.subst).unwrap();
        for s in live.canvas().shapes() {
            assert_eq!(s.num("width"), Some(32.0));
        }
    }

    #[test]
    fn drags_and_commits_take_the_fast_path() {
        let mut live = session(SINE_WAVE);
        assert_eq!(live.stats().full_prepares, 1);
        let result = live.drag(ShapeId(0), Zone::Interior, 45.0, 0.0).unwrap();
        assert!(live.control_flow_safe(&result.subst));
        live.commit(&result.subst).unwrap();
        let stats = live.stats();
        assert_eq!(stats.fast_evals, 1, "the drag should need no evaluation");
        assert_eq!(stats.incremental_prepares, 1);
        assert_eq!(stats.full_prepares, 1, "no fallback expected");
        // And the committed state is fully functional: drag again.
        let again = live.drag(ShapeId(1), Zone::Interior, 10.0, 0.0).unwrap();
        live.commit(&again.subst).unwrap();
        assert_eq!(live.stats().incremental_prepares, 2);
    }

    #[test]
    fn control_flow_locations_force_the_fallback() {
        use sns_lang::LocId;
        let mut live = session(SINE_WAVE);
        // `n` drives `zeroTo n` — it escapes via range's comparison.
        let n_loc = live
            .program()
            .slider_locs()
            .first()
            .map(|(l, _)| *l)
            .unwrap();
        let subst = Subst::from_pairs([(n_loc, 5.0)]);
        assert!(!live.control_flow_safe(&subst));
        live.commit(&subst).unwrap();
        assert_eq!(live.canvas().shapes().len(), 5, "shape count changed");
        let stats = live.stats();
        assert_eq!(stats.incremental_prepares, 0);
        assert_eq!(stats.full_prepares, 2);
        // Prelude loop counters always escape.
        assert!(live.escaped_locs().contains(&LocId(10)));
    }

    #[test]
    fn incremental_commit_matches_full_prepare_exactly() {
        let mut incremental = session(SINE_WAVE);
        let mut full = session(SINE_WAVE);
        for (shape, dx, dy) in [(0usize, 45.0, 3.0), (1, -12.0, 0.0), (5, 7.0, -9.0)] {
            let a = incremental
                .drag(ShapeId(shape), Zone::Interior, dx, dy)
                .unwrap();
            let b = full.drag(ShapeId(shape), Zone::Interior, dx, dy).unwrap();
            assert_eq!(a.subst, b.subst);
            incremental.commit(&a.subst).unwrap();
            full_commit(&mut full, &b.subst);
            assert_eq!(incremental.program().code(), full.program().code());
            assert_eq!(current_values(&incremental), current_values(&full));
        }
        assert_eq!(incremental.stats().incremental_prepares, 3);
        assert_eq!(full.stats().full_prepares, 4);
    }

    #[test]
    fn replace_program_reprepares() {
        let mut live = session(SINE_WAVE);
        live.replace_program(Program::parse("(svg [(circle 'red' 50 50 20)])").unwrap())
            .unwrap();
        assert_eq!(live.canvas().shapes().len(), 1);
        assert!(live.trigger(ShapeId(0), Zone::RightEdge).is_some());
    }

    /// A rect whose color is guarded by a comparison over its own x, so
    /// the x location escapes.
    const GUARDED_COLOR: &str = r#"
        (def x 100)
        (def color (if (< x 500!) 'blue' 'red'))
        (svg [(rect color x 50 40 30)])
    "#;

    #[test]
    fn escaped_commits_take_the_full_path() {
        let mut live = session(GUARDED_COLOR);
        assert!(!live.drag_is_proof_only(ShapeId(0), Zone::Interior));
        let result = live.drag(ShapeId(0), Zone::Interior, 45.0, 0.0).unwrap();
        assert!(
            !live.control_flow_safe(&result.subst),
            "x escapes via the comparison"
        );
        live.commit(&result.subst).unwrap();
        let stats = live.stats();
        assert_eq!((stats.fast_evals, stats.full_evals), (0, 1));
        assert_eq!(stats.incremental_prepares + stats.partial_prepares, 0);
        assert_eq!(stats.fallback_escaped, 1);
        assert_eq!(stats.full_prepares, 2);
        assert!(
            live.program().code().contains("145"),
            "{}",
            live.program().code()
        );
    }

    #[test]
    fn escaped_commits_match_the_reference_bitwise() {
        let mut live = session(GUARDED_COLOR);
        let mut full = session(GUARDED_COLOR);
        // The last step crosses the guard's threshold and turns the fill.
        let svg = |l: &LiveSync| l.canvas().to_svg(sns_svg::RenderOptions::default());
        for dx in [45.0, -30.0, 12.5, 450.0] {
            let a = live.drag(ShapeId(0), Zone::Interior, dx, 3.0).unwrap();
            let b = full.drag(ShapeId(0), Zone::Interior, dx, 3.0).unwrap();
            assert_eq!(a.subst, b.subst);
            live.commit(&a.subst).unwrap();
            full_commit(&mut full, &b.subst);
            assert_eq!(live.program().code(), full.program().code());
            assert_eq!(svg(&live), svg(&full));
            assert_eq!(current_values(&live), current_values(&full));
        }
        assert!(
            live.program().code().contains("577.5") && svg(&live).contains("red"),
            "{}",
            live.program().code()
        );
        assert_eq!(live.stats().fallback_escaped, 4);
    }

    #[test]
    fn guard_flips_force_the_full_fallback() {
        let mut live = session(GUARDED_COLOR);
        // Drag x past the 500 threshold: the comparison's outcome flips, so
        // the cached canvas (still blue) would be wrong.
        let result = live.drag(ShapeId(0), Zone::Interior, 450.0, 0.0).unwrap();
        live.commit(&result.subst).unwrap();
        let stats = live.stats();
        assert_eq!(stats.partial_prepares, 0);
        assert_eq!(stats.fallback_escaped, 1);
        assert_eq!(stats.full_prepares, 2);
        assert!(matches!(
            live.canvas().shape(ShapeId(0)).unwrap().node.attr("fill"),
            Some(AttrValue::Str(s)) if &**s == "red"
        ));
    }

    #[test]
    fn set_code_literal_edit_becomes_a_substitution() {
        let mut live = session(SINE_WAVE);
        let edited = SINE_WAVE.replace("[50 120 20 90 30 60]", "[61 120 20 90 30 60]");
        let class = live
            .set_program_diffed(Program::parse(&edited).unwrap())
            .unwrap();
        assert_eq!(class, SetCodeClass::Literals);
        let stats = live.stats();
        assert_eq!(stats.incremental_prepares, 1);
        assert_eq!(stats.full_prepares, 1);
        // The committed state matches a reference that re-prepared fully.
        let reference = session(&edited);
        assert_eq!(live.program().code(), reference.program().code());
        assert_eq!(current_values(&live), current_values(&reference));
    }

    #[test]
    fn set_code_identical_source_reuses_everything() {
        let mut live = session(SINE_WAVE);
        let class = live
            .set_program_diffed(Program::parse(SINE_WAVE).unwrap())
            .unwrap();
        assert_eq!(class, SetCodeClass::Identical);
        assert_eq!(live.stats().full_prepares, 1);
    }

    #[test]
    fn set_code_edit_to_a_drawn_subtree_prepares_in_full() {
        // The first rect's x is drawn, so swapping its operator changes the
        // canvas: the edit is evaluated once and prepared in full.
        let src = "(svg [(rect 'a' (* 2 50) 10 20 30) (rect 'b' 200 10 20 30)])";
        let edited = "(svg [(rect 'a' (+ 2 50) 10 20 30) (rect 'b' 200 10 20 30)])";
        let mut live = session(src);
        let class = live
            .set_program_diffed(Program::parse(edited).unwrap())
            .unwrap();
        assert_eq!(class, SetCodeClass::Reevaluated);
        let stats = live.stats();
        assert_eq!(stats.partial_prepares, 0);
        assert_eq!(stats.fallback_structural, 1);
        assert_eq!(stats.full_prepares, 2);
        let reference = session(edited);
        assert_eq!(live.program().code(), reference.program().code());
        assert_eq!(current_values(&live), current_values(&reference));
        // And the re-prepared session is still fully functional.
        let drag = live.drag(ShapeId(1), Zone::Interior, 5.0, 5.0).unwrap();
        live.commit(&drag.subst).unwrap();
    }

    #[test]
    fn set_code_structural_edit_falls_back_fully() {
        let mut live = session(SINE_WAVE);
        let class = live
            .set_program_diffed(Program::parse("(svg [(circle 'red' 50 50 20)])").unwrap())
            .unwrap();
        assert_eq!(class, SetCodeClass::Reevaluated);
        let stats = live.stats();
        assert_eq!(stats.fallback_structural, 1);
        assert_eq!(stats.full_prepares, 2);
        assert_eq!(live.canvas().shapes().len(), 1);
    }

    fn l(i: u32) -> Arc<Trace> {
        Trace::loc(LocId(i))
    }

    /// `(* s (sin s))` with `s = (+ l1 l<leaf>)` shared by both uses;
    /// returns `s` too, so the caller holds it.
    fn shared_dag(leaf: u32) -> (Arc<Trace>, Arc<Trace>) {
        let s = Trace::op(Op::Add, [l(1), l(leaf)]);
        let t = Trace::op(
            Op::Mul,
            [Arc::clone(&s), Trace::op(Op::Sin, [Arc::clone(&s)])],
        );
        (s, t)
    }

    fn key(a: &Arc<Trace>, b: &Arc<Trace>) -> (usize, usize) {
        (Arc::as_ptr(a) as usize, Arc::as_ptr(b) as usize)
    }

    #[test]
    fn trace_eq_compares_equal_dags_that_share_sub_traces() {
        let ((sa, a), (sb, b)) = (shared_dag(2), shared_dag(2));
        let mut eq = TraceEq::default();
        assert!(eq.trace_eq(&a, &b));
        // Only the shared pair is memoized: the roots, the `sin` nodes and
        // the leaves are each held by one parent.
        assert_eq!(eq.memo.len(), 1);
        assert_eq!(eq.memo.get(&key(&sa, &sb)), Some(&true));
    }

    #[test]
    fn trace_eq_catches_an_unshared_leaf_that_differs_under_a_shared_node() {
        let ((sa, a), (sb, b)) = (shared_dag(2), shared_dag(3));
        let mut eq = TraceEq::default();
        // The first time the shared pair is met.
        assert!(!eq.trace_eq(&a, &b));
        assert_eq!(eq.memo.get(&key(&sa, &sb)), Some(&false));
        // A later visit, through other unshared parents, reads the memo.
        let (pa, pb) = (
            Trace::op(Op::Cos, [Arc::clone(&sa)]),
            Trace::op(Op::Cos, [Arc::clone(&sb)]),
        );
        assert!(!eq.trace_eq(&pa, &pb));
        assert_eq!(eq.memo.len(), 1);
        // And the same DAGs compared afresh agree.
        assert!(!TraceEq::default().trace_eq(&pa, &pb));
    }

    #[test]
    fn trace_eq_short_circuits_a_pointer_equal_pair() {
        let (s, t) = shared_dag(2);
        let mut eq = TraceEq::default();
        assert!(eq.trace_eq(&t, &t));
        assert!(eq.trace_eq(&s, &Arc::clone(&s)));
        assert!(eq.memo.is_empty());
        // Under distinct parents, the shared child is not descended into.
        let (a, b) = (
            Trace::op(Op::Sqrt, [Arc::clone(&s)]),
            Trace::op(Op::Sqrt, [Arc::clone(&s)]),
        );
        assert!(eq.trace_eq(&a, &b));
        assert!(eq.memo.is_empty());
    }
}
