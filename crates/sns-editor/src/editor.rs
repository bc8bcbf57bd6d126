//! The headless prodirect-manipulation editor.
//!
//! [`Editor`] substitutes for the paper's browser UI: every user-visible
//! operation of Sketch-n-Sketch is available as a method — running code,
//! hovering zones, dragging them (live synchronization), manipulating
//! sliders, toggling hidden helper shapes, undoing, and exporting SVG. Only
//! pixel plotting is absent; all algorithmic code paths are identical.

use std::collections::VecDeque;

use sns_eval::{FreezeMode, Program};
use sns_lang::{LocId, Subst};
use sns_svg::{AttrRef, RenderOptions, Shape, ShapeId, Zone};
use sns_sync::{Heuristic, LiveConfig, LiveSync, SolverChoice, ZoneAnalysis};

use crate::caption::{caption_for, idle_highlights, Caption, Highlight};
use crate::error::EditorError;

/// Editor configuration (heuristic, freeze mode, solver, layers).
#[derive(Debug, Clone, Copy, Default)]
pub struct EditorConfig {
    /// Disambiguation heuristic.
    pub heuristic: Heuristic,
    /// Freeze mode for constants.
    pub freeze_mode: FreezeMode,
    /// Equation solver used by triggers.
    pub solver: SolverChoice,
    /// Whether hidden helper shapes are displayed (Appendix C "Layers").
    pub show_hidden: bool,
}

impl EditorConfig {
    fn live(&self) -> LiveConfig {
        LiveConfig {
            heuristic: self.heuristic,
            freeze_mode: self.freeze_mode,
            solver: self.solver,
        }
    }
}

/// A slider surfaced for a range-annotated constant (§2.4).
#[derive(Debug, Clone, PartialEq)]
pub struct Slider {
    /// The constant's location.
    pub loc: LocId,
    /// Display name (`n`, `rotAngle`, `l42`).
    pub name: String,
    /// Lower bound of the annotation.
    pub min: f64,
    /// Upper bound of the annotation.
    pub max: f64,
    /// The constant's current value.
    pub value: f64,
}

/// Feedback from one in-flight drag movement.
#[derive(Debug, Clone)]
pub struct DragFeedback {
    /// The local update currently applied.
    pub subst: Subst,
    /// Green/red constant highlights (green: updating; red: unsolvable).
    pub highlights: Vec<(LocId, Highlight)>,
}

#[derive(Debug)]
struct DragState {
    shape: ShapeId,
    zone: Zone,
    pending: Option<Subst>,
}

/// Undo points an editor keeps; pushing past this drops the oldest. A
/// server session commits for as long as it lives, and each point holds
/// a whole program.
const UNDO_DEPTH: usize = 100;

/// The headless Sketch-n-Sketch editor.
#[derive(Debug)]
pub struct Editor {
    live: LiveSync,
    config: EditorConfig,
    /// At most [`UNDO_DEPTH`] points, oldest first.
    undo_stack: VecDeque<Program>,
    redo_stack: Vec<Program>,
    drag: Option<DragState>,
}

impl Editor {
    /// Opens the editor on a program with default configuration.
    ///
    /// # Errors
    ///
    /// Fails if the program does not parse, evaluate, or produce SVG.
    pub fn new(source: &str) -> Result<Editor, EditorError> {
        Editor::with_config(source, EditorConfig::default())
    }

    /// Opens the editor with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Fails if the program does not parse, evaluate, or produce SVG.
    pub fn with_config(source: &str, config: EditorConfig) -> Result<Editor, EditorError> {
        let program = Program::parse(source)?;
        Editor::from_program(program, config)
    }

    /// Opens the editor on an already-parsed [`Program`], letting callers
    /// pre-configure it (e.g. the server attaches per-session
    /// [`sns_eval::Limits`] before the first evaluation).
    ///
    /// # Errors
    ///
    /// Fails if the program does not evaluate or produce SVG.
    pub fn from_program(program: Program, config: EditorConfig) -> Result<Editor, EditorError> {
        let live = LiveSync::new(program, config.live())?;
        Ok(Editor {
            live,
            config,
            undo_stack: VecDeque::new(),
            redo_stack: Vec::new(),
            drag: None,
        })
    }

    /// The current program text (the code pane).
    pub fn code(&self) -> String {
        self.live.program().code()
    }

    /// The current program.
    pub fn program(&self) -> &Program {
        self.live.program()
    }

    /// The shapes of the current canvas.
    pub fn shapes(&self) -> impl ExactSizeIterator<Item = Shape<'_>> {
        self.live.canvas().shapes()
    }

    /// The current canvas as SVG text, honoring the hidden-layer toggle.
    pub fn canvas_svg(&self) -> String {
        self.live.canvas().to_svg(self.render_options())
    }

    /// Writes the text [`Editor::canvas_svg`] returns into `out`.
    ///
    /// # Errors
    ///
    /// Fails only when `out` does.
    pub fn write_canvas_svg(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        self.live.canvas().write_svg(out, self.render_options())
    }

    fn render_options(&self) -> RenderOptions {
        RenderOptions {
            hide_hidden: !self.config.show_hidden,
        }
    }

    /// Exports final SVG (helper shapes always hidden), for pasting into
    /// other tools (Appendix C "Exporting to SVG").
    pub fn export_svg(&self) -> String {
        self.live
            .canvas()
            .to_svg(RenderOptions { hide_hidden: true })
    }

    /// Toggles display of hidden helper shapes.
    pub fn toggle_hidden(&mut self) {
        self.config.show_hidden = !self.config.show_hidden;
    }

    /// The zone analysis for a shape (captions, candidates, statistics).
    pub fn zone_analysis(&self, shape: ShapeId, zone: Zone) -> Option<&ZoneAnalysis> {
        self.live.assignments().zone(shape, zone)
    }

    /// Hover feedback for a zone: Active/Inactive caption plus the
    /// constants that would change.
    ///
    /// # Errors
    ///
    /// Fails when the shape has no such zone.
    pub fn hover(&self, shape: ShapeId, zone: Zone) -> Result<Caption, EditorError> {
        let analysis = self
            .zone_analysis(shape, zone)
            .ok_or_else(|| EditorError::action(format!("no zone {zone} on {shape}")))?;
        Ok(caption_for(self.live.program(), analysis))
    }

    /// Idle highlights for a zone (yellow selected / gray contributing).
    ///
    /// # Errors
    ///
    /// Fails when the shape has no such zone.
    pub fn highlights(
        &self,
        shape: ShapeId,
        zone: Zone,
    ) -> Result<Vec<(LocId, Highlight)>, EditorError> {
        let analysis = self
            .zone_analysis(shape, zone)
            .ok_or_else(|| EditorError::action(format!("no zone {zone} on {shape}")))?;
        Ok(idle_highlights(analysis))
    }

    /// Mouse-down on a zone: begins a drag.
    ///
    /// # Errors
    ///
    /// Fails when the zone is inactive or a drag is already in progress.
    pub fn start_drag(&mut self, shape: ShapeId, zone: Zone) -> Result<(), EditorError> {
        if self.drag.is_some() {
            return Err(EditorError::action("a drag is already in progress"));
        }
        if !self.live.has_trigger(shape, zone) {
            return Err(EditorError::action(format!(
                "zone {zone} of {shape} is inactive"
            )));
        }
        self.drag = Some(DragState {
            shape,
            zone,
            pending: None,
        });
        Ok(())
    }

    /// Mouse-move during a drag: `(dx, dy)` is the *total* offset from the
    /// drag's start. Applies live synchronization and returns the inferred
    /// update plus green/red highlights.
    ///
    /// # Errors
    ///
    /// Fails when no drag is in progress or re-evaluation fails.
    pub fn drag_to(&mut self, dx: f64, dy: f64) -> Result<DragFeedback, EditorError> {
        let Some(drag) = &self.drag else {
            return Err(EditorError::action("no drag in progress"));
        };
        let (shape, zone) = (drag.shape, drag.zone);
        let result = self.live.drag(shape, zone, dx, dy)?;
        let mut highlights: Vec<(LocId, Highlight)> = result
            .subst
            .domain()
            .map(|l| (l, Highlight::Green))
            .collect();
        if !result.failures.is_empty() {
            let trigger = self
                .live
                .trigger(shape, zone)
                .expect("trigger checked at start");
            for part in &trigger.parts {
                if result.failures.contains(&part.attr) {
                    highlights.push((part.loc, Highlight::Red));
                }
            }
        }
        let subst = result.subst.clone();
        self.drag.as_mut().expect("drag checked above").pending = Some(result.subst);
        Ok(DragFeedback { subst, highlights })
    }

    /// Mouse-up: commits the drag's last update to the program (pushing an
    /// undo point) and re-prepares triggers.
    ///
    /// # Errors
    ///
    /// Fails when no drag is in progress or the commit fails.
    pub fn end_drag(&mut self) -> Result<(), EditorError> {
        let Some(drag) = self.drag.take() else {
            return Err(EditorError::action("no drag in progress"));
        };
        match drag.pending {
            Some(subst) => self.commit(&subst),
            None => Ok(()),
        }
    }

    /// Mouse-up on the fast tier alone: commits the drag's last update
    /// behind an undo point, as [`end_drag`](Editor::end_drag) does, when
    /// [`LiveSync::commit_fast`] takes it. Returns false, with the editor
    /// untouched, when there is no update or the fast tier declines it.
    pub fn end_drag_fast(&mut self) -> bool {
        let Some(drag) = self.drag.take() else {
            return false;
        };
        let committed = drag.pending.as_ref().is_some_and(|subst| {
            matches!(self.undoable(|live| Ok(live.commit_fast(subst))), Ok(true))
        });
        if !committed {
            self.drag = Some(drag);
        }
        committed
    }

    /// Abandons an in-flight drag without committing anything (the editor's
    /// Escape key). A no-op when no drag is in progress.
    pub fn cancel_drag(&mut self) {
        self.drag = None;
    }

    /// The shape and zone of the in-flight drag, if any.
    pub fn drag_target(&self) -> Option<(ShapeId, Zone)> {
        self.drag.as_ref().map(|d| (d.shape, d.zone))
    }

    /// The substitution the in-flight drag would commit on mouse-up, if
    /// any — what a write-ahead journal must record *before* calling
    /// [`end_drag`](Editor::end_drag).
    pub fn pending_subst(&self) -> Option<&Subst> {
        self.drag.as_ref()?.pending.as_ref()
    }

    /// Commits an explicit substitution (pushing an undo point) exactly as
    /// a mouse-up would: the same `LiveSync::commit`, so the incremental
    /// prepare machinery runs. This is the journal-replay path — a
    /// recovered commit must travel the code path that produced it.
    ///
    /// # Errors
    ///
    /// Fails when the resulting program no longer runs.
    pub fn apply_subst(&mut self, subst: &Subst) -> Result<(), EditorError> {
        self.commit(subst)
    }

    /// Convenience: a full click-drag-release of a zone by `(dx, dy)`.
    ///
    /// # Errors
    ///
    /// Fails when the zone is inactive or synchronization fails.
    pub fn drag_zone(
        &mut self,
        shape: ShapeId,
        zone: Zone,
        dx: f64,
        dy: f64,
    ) -> Result<DragFeedback, EditorError> {
        self.start_drag(shape, zone)?;
        let feedback = match self.drag_to(dx, dy) {
            Ok(f) => f,
            Err(e) => {
                self.cancel_drag();
                return Err(e);
            }
        };
        self.end_drag()?;
        Ok(feedback)
    }

    /// The sliders requested by range annotations (§2.4), in program order.
    pub fn sliders(&self) -> Vec<Slider> {
        let program = self.live.program();
        let rho = program.subst();
        program
            .slider_locs()
            .into_iter()
            .map(|(loc, (min, max))| Slider {
                loc,
                name: program.display_loc(loc),
                min,
                max,
                value: rho.get(loc).unwrap_or(0.0),
            })
            .collect()
    }

    /// Moves a slider: sets the constant at `loc` to `value` clamped to its
    /// annotated range, then re-runs the program (an undo point is pushed).
    ///
    /// # Errors
    ///
    /// Fails when `loc` has no range annotation or the rerun fails.
    pub fn set_slider(&mut self, loc: LocId, value: f64) -> Result<(), EditorError> {
        let program = self.live.program();
        let Some(info) = program.loc_info(loc) else {
            return Err(EditorError::action(format!("unknown location {loc}")));
        };
        let Some((min, max)) = info.range else {
            return Err(EditorError::action(format!(
                "location {loc} has no range annotation"
            )));
        };
        self.commit(&Subst::from_pairs([(loc, value.clamp(min, max))]))
    }

    /// Replaces the program text (a programmatic edit in the code pane),
    /// pushing an undo point. The new program keeps the current one's
    /// evaluation limits.
    ///
    /// # Errors
    ///
    /// Fails when the new text does not parse, evaluate, or render.
    pub fn set_code(&mut self, source: &str) -> Result<(), EditorError> {
        let mut program = Program::parse(source)?;
        program.set_limits(self.live.program().limits());
        self.undoable(|live| live.set_program_diffed(program).map(|_| true))
            .map(drop)
    }

    /// Undoes the last committed action.
    ///
    /// # Errors
    ///
    /// Fails when there is nothing to undo.
    pub fn undo(&mut self) -> Result<(), EditorError> {
        let prev = self
            .undo_stack
            .pop_back()
            .ok_or_else(|| EditorError::action("nothing to undo"))?;
        let cur = self.live.program().clone();
        self.redo_stack.push(cur);
        self.live.set_program_diffed(prev)?;
        Ok(())
    }

    /// Redoes the last undone action.
    ///
    /// # Errors
    ///
    /// Fails when there is nothing to redo.
    pub fn redo(&mut self) -> Result<(), EditorError> {
        let next = self
            .redo_stack
            .pop()
            .ok_or_else(|| EditorError::action("nothing to redo"))?;
        let cur = self.live.program().clone();
        self.push_undo(cur);
        self.live.set_program_diffed(next)?;
        Ok(())
    }

    /// Switches the disambiguation heuristic and re-prepares.
    ///
    /// # Errors
    ///
    /// Fails when re-preparation fails (it should not, for a program that
    /// already ran).
    pub fn set_heuristic(&mut self, heuristic: Heuristic) -> Result<(), EditorError> {
        self.config.heuristic = heuristic;
        self.reconfigure()
    }

    /// Switches the freeze mode and re-prepares.
    ///
    /// # Errors
    ///
    /// Fails when re-preparation fails.
    pub fn set_freeze_mode(&mut self, mode: FreezeMode) -> Result<(), EditorError> {
        self.config.freeze_mode = mode;
        self.reconfigure()
    }

    fn reconfigure(&mut self) -> Result<(), EditorError> {
        let program = self.live.program().clone();
        self.live = LiveSync::new(program, self.config.live())?;
        Ok(())
    }

    /// Runs a program-changing step behind an undo point. The point is
    /// pushed (and the redo stack cleared) only when the step ran: it
    /// returned `Ok(true)`. A failed or declined step leaves the live
    /// session unchanged, so it leaves the history unchanged too.
    fn undoable(
        &mut self,
        step: impl FnOnce(&mut LiveSync) -> Result<bool, sns_sync::LiveError>,
    ) -> Result<bool, EditorError> {
        let prev = self.live.program().clone();
        let ran = step(&mut self.live)?;
        if ran {
            self.push_undo(prev);
            self.redo_stack.clear();
        }
        Ok(ran)
    }

    /// Commits `subst` behind an undo point ([`LiveSync::commit`]).
    fn commit(&mut self, subst: &Subst) -> Result<(), EditorError> {
        self.undoable(|live| live.commit(subst).map(|()| true))
            .map(drop)
    }

    fn push_undo(&mut self, program: Program) {
        if self.undo_stack.len() == UNDO_DEPTH {
            self.undo_stack.pop_front();
        }
        self.undo_stack.push_back(program);
    }

    /// Locations a color-number attribute of a shape could drive, exposing
    /// the built-in color slider of Appendix C.
    pub fn color_slider_loc(&self, shape: ShapeId) -> Option<LocId> {
        let s = self.live.canvas().shape(shape)?;
        let fill = s.node.attr("fill")?;
        let sns_svg::AttrValue::ColorNum(num) = fill else {
            return None;
        };
        let mode = self.config.freeze_mode;
        num.t
            .locs()
            .into_iter()
            .find(|l| !self.live.program().is_frozen(*l, mode))
    }

    /// Sets a shape's color number via its color slider.
    ///
    /// # Errors
    ///
    /// Fails when the shape has no manipulable color number.
    pub fn set_color(&mut self, shape: ShapeId, value: f64) -> Result<(), EditorError> {
        let loc = self
            .color_slider_loc(shape)
            .ok_or_else(|| EditorError::action(format!("{shape} has no color slider")))?;
        self.commit(&Subst::from_pairs([(loc, value.clamp(0.0, 500.0))]))
    }

    /// Ad-hoc synchronization (§7.2 goal (c)): rank the candidate program
    /// updates that reconcile a batch of direct numeric edits to the
    /// output, best first (hard constraints, then soft constraints, then
    /// change magnitude).
    pub fn reconcile_edits(&self, edits: &[sns_sync::OutputEdit]) -> Vec<sns_sync::RankedUpdate> {
        sns_sync::reconcile(
            self.live.program(),
            self.live.canvas(),
            edits,
            self.config.freeze_mode,
            sns_sync::SynthesisOptions::default(),
        )
    }

    /// Applies the best-ranked reconciliation for a batch of output edits,
    /// pushing an undo point.
    ///
    /// # Errors
    ///
    /// Fails when no candidate update exists or the rerun fails.
    pub fn apply_output_edits(
        &mut self,
        edits: &[sns_sync::OutputEdit],
    ) -> Result<sns_sync::RankedUpdate, EditorError> {
        let mut ranked = self.reconcile_edits(edits);
        if ranked.is_empty() {
            return Err(EditorError::action("no update reconciles those edits"));
        }
        let best = ranked.swap_remove(0);
        self.apply_reconciliation(best)
    }

    /// Applies one already-ranked reconciliation (from
    /// [`Editor::reconcile_edits`]), pushing an undo point. Lets callers
    /// that show candidates *and* apply the best one avoid running the
    /// synthesis twice.
    ///
    /// # Errors
    ///
    /// Fails when the rerun fails.
    pub fn apply_reconciliation(
        &mut self,
        ranked: sns_sync::RankedUpdate,
    ) -> Result<sns_sync::RankedUpdate, EditorError> {
        self.commit(&ranked.update.subst)?;
        Ok(ranked)
    }

    /// Direct access to the live-synchronization session (for statistics
    /// harnesses).
    pub fn live(&self) -> &LiveSync {
        &self.live
    }

    /// How this editor's drags and commits have been served: incremental
    /// prepares and proof-only (fast-path) drags vs full re-runs.
    pub fn live_stats(&self) -> sns_sync::LiveStats {
        self.live.stats()
    }

    /// The attribute assignments of the current preparation.
    pub fn assignments(&self) -> &sns_sync::Assignments {
        self.live.assignments()
    }

    /// Which attribute a zone drags for a given [`AttrRef`] — convenience
    /// for tests mirroring the paper's γ(v)(ζ)('k') notation.
    pub fn assigned_loc(&self, shape: ShapeId, zone: Zone, attr: &AttrRef) -> Option<LocId> {
        self.zone_analysis(shape, zone)?.loc_for(attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SINE_WAVE: &str = r#"
        (def [x0 y0 w h sep amp] [50 120 20 90 30 60])
        (def n 12!{3-30})
        (def boxi (λ i
          (let xi (+ x0 (* i sep))
          (let yi (- y0 (* amp (sin (* i (/ twoPi n)))))
            (rect 'lightblue' xi yi w h)))))
        (svg (map boxi (zeroTo n)))
    "#;

    #[test]
    fn full_drag_cycle_updates_code() {
        let mut ed = Editor::new(SINE_WAVE).unwrap();
        ed.start_drag(ShapeId(0), Zone::Interior).unwrap();
        let fb = ed.drag_to(45.0, 0.0).unwrap();
        assert!(fb.highlights.iter().any(|(_, h)| *h == Highlight::Green));
        ed.end_drag().unwrap();
        assert!(ed.code().contains("[95 120 20 90 30 60]"), "{}", ed.code());
    }

    #[test]
    fn undo_redo_roundtrip() {
        let mut ed = Editor::new(SINE_WAVE).unwrap();
        let original = ed.code();
        ed.drag_zone(ShapeId(0), Zone::Interior, 45.0, 0.0).unwrap();
        let dragged = ed.code();
        assert_ne!(original, dragged);
        ed.undo().unwrap();
        assert_eq!(ed.code(), original);
        ed.redo().unwrap();
        assert_eq!(ed.code(), dragged);
    }

    #[test]
    fn undo_history_keeps_the_last_undo_depth_points() {
        let mut ed = Editor::new("(def x 0{0-1000}) (svg [(rect 'red' x 2 3 4)])").unwrap();
        let x = ed.sliders()[0].loc;
        for step in 1..=UNDO_DEPTH + 5 {
            ed.set_slider(x, step as f64).unwrap();
        }
        for _ in 0..UNDO_DEPTH {
            ed.undo().unwrap();
        }
        assert!(
            ed.undo().is_err(),
            "more than {UNDO_DEPTH} undo points kept"
        );
        // The oldest point kept is the program from UNDO_DEPTH commits back.
        assert_eq!(ed.sliders()[0].value, 5.0, "{}", ed.code());
        assert!(ed.code().starts_with("(def x 5{0-1000})"), "{}", ed.code());
    }

    #[test]
    fn slider_for_n_changes_box_count() {
        let mut ed = Editor::new(SINE_WAVE).unwrap();
        let sliders = ed.sliders();
        assert_eq!(sliders.len(), 1);
        assert_eq!(sliders[0].name, "n");
        assert_eq!(sliders[0].value, 12.0);
        ed.set_slider(sliders[0].loc, 5.0).unwrap();
        assert_eq!(ed.shapes().len(), 5);
        // Clamping: the range is {3-30}.
        ed.set_slider(sliders[0].loc, 100.0).unwrap();
        assert_eq!(ed.shapes().len(), 30);
    }

    #[test]
    fn hover_names_the_constants() {
        let ed = Editor::new(SINE_WAVE).unwrap();
        let c = ed.hover(ShapeId(0), Zone::Interior).unwrap();
        assert!(c.active);
        assert_eq!(c.text, "Active: changes x0, y0");
    }

    #[test]
    fn set_code_is_undoable() {
        let mut ed = Editor::new(SINE_WAVE).unwrap();
        let original = ed.code();
        ed.set_code("(svg [(circle 'red' 9 9 3)])").unwrap();
        assert_eq!(ed.shapes().len(), 1);
        ed.undo().unwrap();
        assert_eq!(ed.code(), original);
    }

    #[test]
    fn bad_set_code_rolls_back() {
        let mut ed = Editor::new(SINE_WAVE).unwrap();
        assert!(ed.set_code("(svg [(oops)])").is_err());
        // Editor still works on the old program.
        assert_eq!(ed.shapes().len(), 12);
        assert!(ed.undo().is_err());
    }

    #[test]
    fn failed_commit_leaves_the_editor_untouched() {
        // Moving `k` to 3 leaves the `case` without a matching branch: `k`
        // escapes through the numeric pattern, so the commit takes the full
        // path, and the full evaluation fails.
        let src = "(def k 2{1-3}) (svg [(case k (2 (rect 'red' 1 2 3 4)))])";
        let mut ed = Editor::new(src).unwrap();
        let (code, svg) = (ed.code(), ed.canvas_svg());
        let k = ed.sliders()[0].loc;
        assert!(ed.set_slider(k, 3.0).is_err());
        assert_eq!(ed.code(), code);
        assert_eq!(ed.canvas_svg(), svg);
        assert!(ed.undo().is_err(), "a failed commit left an undo point");
        assert!(ed.apply_subst(&Subst::from_pairs([(k, 3.0)])).is_err());
        assert_eq!(ed.code(), code);
        assert!(ed.undo().is_err());
        // The session still commits what does run.
        ed.set_slider(k, 2.0).unwrap();
        assert_eq!(ed.code(), code);
        assert_eq!(ed.canvas_svg(), svg);
        ed.undo().unwrap();
    }

    #[test]
    fn failed_commit_keeps_the_redo_history() {
        let src =
            "(def k 2{1-3}) (svg [(case k (2 (rect 'red' 1 2 3 4)) (1 (rect 'blue' 1 2 3 4)))])";
        let mut ed = Editor::new(src).unwrap();
        let k = ed.sliders()[0].loc;
        ed.set_slider(k, 1.0).unwrap();
        ed.undo().unwrap();
        assert!(ed.set_slider(k, 3.0).is_err());
        ed.redo().unwrap();
        assert!(ed.code().contains("k 1"), "{}", ed.code());
    }

    #[test]
    fn freeze_all_mode_deactivates_zones() {
        let mut ed = Editor::new(SINE_WAVE).unwrap();
        ed.set_freeze_mode(FreezeMode::all_except_thawed()).unwrap();
        let c = ed.hover(ShapeId(0), Zone::Interior).unwrap();
        assert!(!c.active);
    }

    #[test]
    fn color_slider_drives_fill_number() {
        let mut ed = Editor::new("(def col 100) (svg [(rect col 0 0 10 10)])").unwrap();
        assert!(ed.color_slider_loc(ShapeId(0)).is_some());
        ed.set_color(ShapeId(0), 250.0).unwrap();
        assert!(ed.code().contains("250"));
        assert!(ed.export_svg().contains("hsl(250,100%,50%)"));
    }

    #[test]
    fn hidden_layers_toggle() {
        let src = "(svg (append (ghosts [(rect 'black' 0 0 5 5)]) [(circle 'red' 9 9 3)]))";
        let mut ed = Editor::new(src).unwrap();
        assert!(!ed.canvas_svg().contains("<rect"));
        ed.toggle_hidden();
        assert!(ed.canvas_svg().contains("<rect"));
        // Export always hides helpers.
        assert!(!ed.export_svg().contains("<rect"));
    }

    #[test]
    fn drag_requires_start() {
        let mut ed = Editor::new(SINE_WAVE).unwrap();
        assert!(ed.drag_to(1.0, 1.0).is_err());
        assert!(ed.end_drag().is_err());
    }

    #[test]
    fn output_edits_reconcile_through_the_editor() {
        let mut ed = Editor::new(
            "(def [x0 sep] [50 100]) (svg [(rect 'red' x0 10 30 30) (rect 'blue' (+ x0 sep) 10 30 30)])",
        )
        .unwrap();
        let edits = [sns_sync::OutputEdit {
            shape: ShapeId(1),
            attr: sns_svg::AttrRef::Plain("x"),
            new_value: 250.0,
        }];
        let best = ed.apply_output_edits(&edits).unwrap();
        assert!(best.judgment.is_faithful());
        // The gentler update (sep) was chosen; box 0 did not move.
        let x = |ed: &Editor, i| ed.shapes().nth(i).unwrap().num("x").unwrap();
        assert_eq!(x(&ed, 0), 50.0);
        assert_eq!(x(&ed, 1), 250.0);
        ed.undo().unwrap();
        assert_eq!(x(&ed, 1), 150.0);
    }

    #[test]
    fn red_highlight_for_unsolvable_attr() {
        let mut ed = Editor::new("(def x0 10.2) (svg [(rect 'red' (round x0) 20 30 40)])").unwrap();
        let fb = ed.drag_zone(ShapeId(0), Zone::Interior, 1.0, 1.0).unwrap();
        assert!(fb.highlights.iter().any(|(_, h)| *h == Highlight::Red));
    }
}
