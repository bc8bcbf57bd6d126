//! Ad-hoc synchronization with soft-constraint ranking.
//!
//! §3 notes that "in a setting where multiple updates are synthesized,
//! ranking functions could be used to optimize for soft constraints", and
//! §7.2's third prodirect-manipulation goal is *ad hoc synchronization*:
//! let the user edit output values freely, then reconcile the edits with
//! the program. This module implements both for numeric attribute edits:
//!
//! 1. the user supplies a batch of [`OutputEdit`]s (shape, attribute, new
//!    value) — hard constraints;
//! 2. `SynthesizePlausible` enumerates candidate local updates;
//! 3. every candidate is *executed* and scored: how many hard constraints
//!    it satisfies, and how many untouched numeric outputs it preserves
//!    (the soft constraints of §3's table);
//! 4. candidates are ranked best-first.

use std::sync::Arc;

use sns_eval::{FreezeMode, Program};
use sns_lang::LocId;
use sns_solver::Equation;
use sns_svg::{resolve_attr, AttrRef, Canvas, ShapeId};

use crate::synthesize::{synthesize_plausible, CandidateUpdate, SynthesisOptions};

/// One user edit to the output: "attribute `attr` of shape `shape` should
/// become `new_value`".
#[derive(Debug, Clone, PartialEq)]
pub struct OutputEdit {
    /// The edited shape.
    pub shape: ShapeId,
    /// The edited attribute.
    pub attr: AttrRef,
    /// The desired new value.
    pub new_value: f64,
}

/// How a candidate update fared when executed (§3's hard/soft constraints).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReconcileJudgment {
    /// The updated program's canvas has a different shape structure
    /// (condition (c) of the faithful-update definition fails).
    StructureChanged,
    /// The canvas kept its structure; counts of satisfied constraints.
    Judged {
        /// Hard constraints (user edits) satisfied.
        hard_matched: usize,
        /// Hard constraints requested.
        hard_total: usize,
        /// Soft constraints (untouched outputs) preserved.
        soft_preserved: usize,
        /// Soft constraints total.
        soft_total: usize,
    },
}

impl ReconcileJudgment {
    /// All hard constraints hold.
    pub fn is_faithful(self) -> bool {
        matches!(self, ReconcileJudgment::Judged { hard_matched, hard_total, .. }
            if hard_matched == hard_total)
    }

    /// At least one hard constraint holds.
    pub fn is_plausible(self) -> bool {
        matches!(self, ReconcileJudgment::Judged { hard_matched, .. } if hard_matched >= 1)
    }
}

/// A candidate update together with its execution-based score.
#[derive(Debug, Clone)]
pub struct RankedUpdate {
    /// The synthesized local update.
    pub update: CandidateUpdate,
    /// The judgment from running it.
    pub judgment: ReconcileJudgment,
    /// Total absolute change to the program's constants (smaller = gentler).
    pub change_magnitude: f64,
}

const TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * b.abs().max(1.0)
}

/// Reconciles a batch of output edits with the program: synthesizes
/// candidate local updates, executes each, scores it against the hard and
/// soft constraints, and returns candidates best-first.
///
/// Ranking: faithful before plausible before neither; then by soft
/// constraints preserved (descending); then by change magnitude
/// (ascending); structure-changing candidates always rank last.
pub fn reconcile(
    program: &Program,
    canvas: &Canvas,
    edits: &[OutputEdit],
    mode: FreezeMode,
    options: SynthesisOptions,
) -> Vec<RankedUpdate> {
    // Hard constraints as value-trace equations.
    let mut equations = Vec::with_capacity(edits.len());
    for edit in edits {
        let Some(shape) = canvas.shape(edit.shape) else {
            return Vec::new();
        };
        let Some(num) = resolve_attr(shape.node, &edit.attr) else {
            return Vec::new();
        };
        equations.push(Equation::new(edit.new_value, Arc::clone(&num.t)));
    }
    let frozen = |l: LocId| program.is_frozen(l, mode);
    let rho0 = program.rho0();
    let candidates = synthesize_plausible(rho0, &equations, &frozen, options);

    let original = snapshot(canvas);
    let mut ranked = Vec::with_capacity(candidates.len());
    for update in candidates {
        let updated = program.with_subst(&update.subst);
        let judgment = match updated
            .eval()
            .ok()
            .and_then(|v| Canvas::from_value(&v).ok())
        {
            None => ReconcileJudgment::StructureChanged,
            Some(new_canvas) => judge_canvas(canvas, &new_canvas, &original, edits),
        };
        let change_magnitude = update
            .subst
            .iter()
            .map(|(l, v)| (v - rho0.get(l).unwrap_or(v)).abs())
            .sum();
        ranked.push(RankedUpdate {
            update,
            judgment,
            change_magnitude,
        });
    }
    ranked.sort_by(|a, b| rank_key(a).partial_cmp(&rank_key(b)).expect("finite keys"));
    ranked
}

/// Lower is better.
fn rank_key(r: &RankedUpdate) -> (f64, f64, f64) {
    match r.judgment {
        ReconcileJudgment::StructureChanged => (f64::INFINITY, 0.0, r.change_magnitude),
        ReconcileJudgment::Judged {
            hard_matched,
            hard_total,
            soft_preserved,
            soft_total,
        } => {
            let hard_miss = (hard_total - hard_matched) as f64;
            let soft_miss = (soft_total - soft_preserved) as f64;
            (hard_miss, soft_miss, r.change_magnitude)
        }
    }
}

/// Each shape's numbers, with the name of the attribute holding each.
fn snapshot(canvas: &Canvas) -> Vec<Vec<(Arc<str>, f64)>> {
    canvas
        .shapes()
        .map(|s| {
            s.node
                .attrs
                .iter()
                .flat_map(|(k, v)| {
                    v.nums()
                        .into_iter()
                        .map(move |n| (Arc::clone(k), s.value(n)))
                })
                .collect()
        })
        .collect()
}

fn judge_canvas(
    old: &Canvas,
    new: &Canvas,
    original: &[Vec<(Arc<str>, f64)>],
    edits: &[OutputEdit],
) -> ReconcileJudgment {
    if new.shapes().len() != old.shapes().len() {
        return ReconcileJudgment::StructureChanged;
    }
    let updated = snapshot(new);
    for (a, b) in original.iter().zip(&updated) {
        if a.len() != b.len() {
            return ReconcileJudgment::StructureChanged;
        }
    }
    // Hard constraints.
    let mut hard_matched = 0usize;
    for edit in edits {
        let satisfied = new
            .shape(edit.shape)
            .and_then(|s| Some(s.value(resolve_attr(s.node, &edit.attr)?)))
            .is_some_and(|n| close(n, edit.new_value));
        if satisfied {
            hard_matched += 1;
        }
    }
    // Soft constraints: every numeric output not named by an edit.
    let edited: Vec<(usize, &AttrRef)> = edits.iter().map(|e| (e.shape.0, &e.attr)).collect();
    let mut soft_total = 0usize;
    let mut soft_preserved = 0usize;
    for (si, (olds, news)) in original.iter().zip(&updated).enumerate() {
        // Identify edited positions by attribute-name prefix matching: the
        // edited AttrRefs resolve to specific positions; approximate by
        // name for plain attrs and by pair index for points/paths.
        for (pi, ((name_old, v_old), (_, v_new))) in olds.iter().zip(news).enumerate() {
            let is_edited = edited.iter().any(|(s, attr)| {
                *s == si
                    && match attr {
                        AttrRef::Plain(a) => *a == &**name_old,
                        AttrRef::PointX(i) => &**name_old == "points" && pi == (*i as usize) * 2,
                        AttrRef::PointY(i) => {
                            &**name_old == "points" && pi == (*i as usize) * 2 + 1
                        }
                        AttrRef::PathX(_) | AttrRef::PathY(_) => &**name_old == "d",
                        AttrRef::TransformArg(_) => &**name_old == "transform",
                    }
            });
            if is_edited {
                continue;
            }
            soft_total += 1;
            if close(*v_new, *v_old) {
                soft_preserved += 1;
            }
        }
    }
    ReconcileJudgment::Judged {
        hard_matched,
        hard_total: edits.len(),
        soft_preserved,
        soft_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_svg::Zone;

    fn setup(src: &str) -> (Program, Canvas) {
        let program = Program::parse(src).unwrap();
        let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
        (program, canvas)
    }

    const TWO_BOXES: &str = r#"
        (def [x0 sep y0] [50 100 40])
        (svg [(rect 'red' x0 y0 30 30)
              (rect 'blue' (+ x0 sep) y0 30 30)])
    "#;

    #[test]
    fn single_edit_ranks_soft_preserving_candidate_first() {
        // Editing the second box's x to 200 can change x0 (moves both
        // boxes: breaks a soft constraint) or sep (moves only box 2).
        let (program, canvas) = setup(TWO_BOXES);
        let edits = [OutputEdit {
            shape: ShapeId(1),
            attr: AttrRef::Plain("x"),
            new_value: 200.0,
        }];
        let ranked = reconcile(
            &program,
            &canvas,
            &edits,
            FreezeMode::default(),
            SynthesisOptions::default(),
        );
        assert_eq!(ranked.len(), 2);
        let best_name = program.display_loc(ranked[0].update.locs[0]);
        assert_eq!(best_name, "sep", "sep preserves box 1's position");
        assert!(ranked[0].judgment.is_faithful());
        // Both candidates satisfy the hard constraint; the x0 one breaks a
        // soft constraint.
        match ranked[1].judgment {
            ReconcileJudgment::Judged {
                soft_preserved,
                soft_total,
                ..
            } => {
                assert!(soft_preserved < soft_total);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_edit_reconciliation_finds_a_faithful_update() {
        // Move *both* boxes right by 25: only x0 can do that faithfully.
        let (program, canvas) = setup(TWO_BOXES);
        let edits = [
            OutputEdit {
                shape: ShapeId(0),
                attr: AttrRef::Plain("x"),
                new_value: 75.0,
            },
            OutputEdit {
                shape: ShapeId(1),
                attr: AttrRef::Plain("x"),
                new_value: 175.0,
            },
        ];
        let ranked = reconcile(
            &program,
            &canvas,
            &edits,
            FreezeMode::default(),
            SynthesisOptions::default(),
        );
        assert!(!ranked.is_empty());
        let best = &ranked[0];
        assert!(best.judgment.is_faithful(), "{:?}", best.judgment);
        assert_eq!(best.update.subst.len(), 1);
        let (loc, v) = best.update.subst.iter().next().unwrap();
        assert_eq!(program.display_loc(loc), "x0");
        assert_eq!(v, 75.0);
    }

    #[test]
    fn conflicting_edits_yield_plausible_not_faithful() {
        // Ask box 0 and box 1 to move by *different* amounts while only
        // editing through x0: no single-location update satisfies both.
        let src = r#"
            (def x0 50)
            (svg [(rect 'red' x0 10 30 30) (rect 'blue' x0 60 30 30)])
        "#;
        let (program, canvas) = setup(src);
        let edits = [
            OutputEdit {
                shape: ShapeId(0),
                attr: AttrRef::Plain("x"),
                new_value: 60.0,
            },
            OutputEdit {
                shape: ShapeId(1),
                attr: AttrRef::Plain("x"),
                new_value: 90.0,
            },
        ];
        let ranked = reconcile(
            &program,
            &canvas,
            &edits,
            FreezeMode::default(),
            SynthesisOptions::default(),
        );
        assert!(!ranked.is_empty());
        assert!(!ranked[0].judgment.is_faithful());
        assert!(ranked[0].judgment.is_plausible());
    }

    #[test]
    fn structure_changing_candidates_rank_last() {
        // The sine wave: editing a box's x admits candidates through the
        // Prelude (thawed mode) that change the box count.
        let src = r#"
            (def [x0 sep] [50 30])
            (svg (map (λ i (rect 'red' (+ x0 (* i sep)) 40 20 20)) (zeroTo 5)))
        "#;
        let (program, canvas) = setup(src);
        let edits = [OutputEdit {
            shape: ShapeId(2),
            attr: AttrRef::Plain("x"),
            new_value: 155.0,
        }];
        let ranked = reconcile(
            &program,
            &canvas,
            &edits,
            FreezeMode::nothing_frozen(),
            SynthesisOptions::default(),
        );
        assert!(ranked.len() >= 3);
        assert!(!matches!(
            ranked[0].judgment,
            ReconcileJudgment::StructureChanged
        ));
        assert!(matches!(
            ranked.last().unwrap().judgment,
            ReconcileJudgment::StructureChanged
        ));
    }

    #[test]
    fn zone_attrs_and_reconcile_agree() {
        // Reconciling an Interior-equivalent edit matches what a drag
        // through the trigger machinery would produce.
        let (program, canvas) = setup(TWO_BOXES);
        let live = crate::LiveSync::new(program.clone(), crate::LiveConfig::default()).unwrap();
        let drag = live.drag(ShapeId(1), Zone::Interior, 50.0, 0.0).unwrap();
        let edits = [OutputEdit {
            shape: ShapeId(1),
            attr: AttrRef::Plain("x"),
            new_value: 200.0,
        }];
        let ranked = reconcile(
            &program,
            &canvas,
            &edits,
            FreezeMode::default(),
            SynthesisOptions::default(),
        );
        // The drag also solved the y equation (dy = 0 keeps y0 at 40); its
        // x solution must appear among the reconcile candidates.
        assert!(ranked.iter().any(|r| {
            r.update
                .subst
                .iter()
                .all(|(l, v)| drag.subst.get(l) == Some(v))
        }));
    }
}
