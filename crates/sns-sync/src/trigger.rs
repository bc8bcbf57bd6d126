//! Mouse triggers (§4.1, Appendix B.1).
//!
//! After assignments are computed, the editor prepares a *trigger* per zone:
//! a function `τ = λ(dx, dy). ρ` that, given the distance the mouse has
//! moved, solves one univariate value-trace equation per controlled
//! attribute and combines the solutions into a substitution that is applied
//! to the program in real time.

use std::sync::Arc;

use sns_eval::Trace;
use sns_lang::{LocId, Subst};
use sns_solver::{solve, solve_extended, Equation};
use sns_svg::{AttrRef, Offset, ShapeId, Zone};

use crate::assign::ZoneAnalysis;

/// Which equation solver triggers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// The paper's `SolveOne` (SolveA then SolveB).
    #[default]
    Paper,
    /// The extended solver (also handles repeated unknowns under inverted
    /// operations; see [`sns_solver::solve_extended`]).
    Extended,
}

impl SolverChoice {
    fn run(self, rho: &Subst, loc: LocId, eq: &Equation) -> Option<f64> {
        match self {
            SolverChoice::Paper => solve(rho, loc, eq),
            SolverChoice::Extended => solve_extended(rho, loc, eq),
        }
    }
}

/// One attribute's share of a trigger: when the mouse moves, this attribute
/// must become `base + offset(dx, dy)` by changing `loc`.
#[derive(Debug, Clone)]
pub struct TriggerPart {
    /// The attribute being manipulated.
    pub attr: AttrRef,
    /// Covariant/contravariant offset direction.
    pub offset: Offset,
    /// The location assigned by the heuristics (γ(v)(ζ)('k')).
    pub loc: LocId,
    /// The attribute's value when the drag starts.
    pub base: f64,
    /// The attribute's trace.
    pub trace: Arc<Trace>,
    /// The trace-tape node a live session reads the attribute's current
    /// value from ([`NO_NODE`] until a session compiles its tape).
    pub(crate) node: u32,
}

/// The [`TriggerPart::node`] of a part no tape has compiled.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// A prepared mouse trigger for one zone (`ComputeTrigger`'s result).
#[derive(Debug, Clone)]
pub struct Trigger {
    /// The shape the trigger belongs to.
    pub shape: ShapeId,
    /// The zone the trigger belongs to.
    pub zone: Zone,
    /// Per-attribute solving obligations, in zone-table order. Solutions are
    /// applied in this order, later bindings shadowing earlier ones — the
    /// "plausible, not faithful" design of §4.1.
    pub parts: Vec<TriggerPart>,
}

/// The outcome of firing a trigger.
#[derive(Debug, Clone)]
pub struct TriggerFire {
    /// The combined local update ρ.
    pub subst: Subst,
    /// Attributes whose equations the solver could not solve (the editor's
    /// red highlight).
    pub failures: Vec<AttrRef>,
}

impl Trigger {
    /// Builds the trigger for an analyzed zone; `None` when the zone is
    /// inactive.
    pub fn compute(analysis: &ZoneAnalysis) -> Option<Trigger> {
        analysis.chosen_candidate()?;
        let mut parts = Vec::new();
        for slot in &analysis.slots {
            if let Some(loc) = analysis.loc_for(&slot.attr) {
                parts.push(TriggerPart {
                    attr: slot.attr.clone(),
                    offset: slot.offset,
                    loc,
                    base: slot.base,
                    trace: Arc::clone(&slot.trace),
                    node: NO_NODE,
                });
            }
        }
        Some(Trigger {
            shape: analysis.shape,
            zone: analysis.zone,
            parts,
        })
    }

    /// Fires the trigger for a mouse movement of `(dx, dy)` against the
    /// program's current substitution `rho0`: `ρ ⊕ (ℓx ↦ SolveOne(…)) ⊕ …`.
    ///
    /// Failed equations contribute nothing to the substitution and are
    /// reported in [`TriggerFire::failures`].
    pub fn fire(&self, rho0: &Subst, dx: f64, dy: f64, solver: SolverChoice) -> TriggerFire {
        self.fire_from(|part| part.base, rho0, dx, dy, solver)
    }

    /// [`Trigger::fire`] with each part's base read from `base`.
    pub(crate) fn fire_from(
        &self,
        base: impl Fn(&TriggerPart) -> f64,
        rho0: &Subst,
        dx: f64,
        dy: f64,
        solver: SolverChoice,
    ) -> TriggerFire {
        let mut subst = Subst::new();
        let mut failures = Vec::new();
        for part in &self.parts {
            let target = base(part) + part.offset.delta(dx, dy);
            let eq = Equation::new(target, Arc::clone(&part.trace));
            match solver.run(rho0, part.loc, &eq) {
                // Later bindings shadow earlier ones (plausible updates).
                Some(k) => {
                    subst.insert(part.loc, k);
                }
                None => failures.push(part.attr.clone()),
            }
        }
        TriggerFire { subst, failures }
    }

    /// The set of locations this trigger would modify (shown by the editor
    /// as yellow/green highlights and hover captions).
    pub fn loc_set(&self) -> Vec<LocId> {
        let mut locs: Vec<LocId> = self.parts.iter().map(|p| p.loc).collect();
        locs.sort();
        locs.dedup();
        locs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{analyze_canvas, Heuristic};
    use sns_eval::{FreezeMode, Program};
    use sns_svg::Canvas;

    fn triggers_for(src: &str) -> (Program, Vec<Trigger>) {
        let program = Program::parse(src).unwrap();
        let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
        let mode = FreezeMode::default();
        let frozen = |l: LocId| program.is_frozen(l, mode);
        let assignments = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
        let triggers = assignments
            .zones
            .iter()
            .filter_map(Trigger::compute)
            .collect();
        (program, triggers)
    }

    #[test]
    fn dragging_a_rect_interior_updates_x_and_y() {
        let (program, triggers) = triggers_for("(svg [(rect 'red' 10 20 30 40)])");
        let t = triggers
            .iter()
            .find(|t| t.shape == ShapeId(0) && t.zone == Zone::Interior)
            .unwrap();
        let fire = t.fire(&program.subst(), 5.0, -3.0, SolverChoice::Paper);
        assert!(fire.failures.is_empty());
        let mut updated = program.clone();
        updated.apply_subst(&fire.subst);
        let canvas = Canvas::from_value(&updated.eval().unwrap()).unwrap();
        let shape = canvas.shape(ShapeId(0)).unwrap();
        assert_eq!(shape.num("x"), Some(15.0));
        assert_eq!(shape.num("y"), Some(17.0));
    }

    #[test]
    fn contravariant_left_edge_preserves_right_edge() {
        let (program, triggers) = triggers_for("(svg [(rect 'red' 10 20 30 40)])");
        let t = triggers.iter().find(|t| t.zone == Zone::LeftEdge).unwrap();
        let fire = t.fire(&program.subst(), 4.0, 0.0, SolverChoice::Paper);
        let mut updated = program.clone();
        updated.apply_subst(&fire.subst);
        let canvas = Canvas::from_value(&updated.eval().unwrap()).unwrap();
        let shape = canvas.shape(ShapeId(0)).unwrap();
        // x grows, width shrinks; x + width is invariant.
        assert_eq!(shape.num("x"), Some(14.0));
        assert_eq!(shape.num("width"), Some(26.0));
    }

    #[test]
    fn overconstrained_shared_location_is_plausible() {
        // §4.1: (let xy 100 (rect 'red' xy xy 30 40)) — both x and y are
        // tied to the same location; the later solution wins.
        let (program, triggers) = triggers_for("(def xy 100) (svg [(rect 'red' xy xy 30 40)])");
        let t = triggers.iter().find(|t| t.zone == Zone::Interior).unwrap();
        let fire = t.fire(&program.subst(), 7.0, 3.0, SolverChoice::Paper);
        // One location bound once: the y equation's solution shadows x's.
        assert_eq!(fire.subst.len(), 1);
        let (_, v) = fire.subst.iter().next().unwrap();
        assert_eq!(v, 103.0);
    }

    #[test]
    fn unsolvable_parts_are_reported() {
        // x is (round x0): not invertible → red highlight for 'x'.
        let (program, triggers) =
            triggers_for("(def x0 10.2) (svg [(rect 'red' (round x0) 20 30 40)])");
        let t = triggers.iter().find(|t| t.zone == Zone::Interior).unwrap();
        let fire = t.fire(&program.subst(), 1.0, 1.0, SolverChoice::Paper);
        assert_eq!(fire.failures, vec![AttrRef::Plain("x")]);
        // y still solved.
        assert_eq!(fire.subst.len(), 1);
    }

    #[test]
    fn loc_set_is_deduplicated() {
        let (_, triggers) = triggers_for("(def xy 100) (svg [(rect 'red' xy xy 30 40)])");
        let t = triggers.iter().find(|t| t.zone == Zone::Interior).unwrap();
        assert_eq!(t.loc_set().len(), 1);
    }
}
