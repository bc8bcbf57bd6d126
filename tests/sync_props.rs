//! Randomized tests of live synchronization end to end: generated programs
//! and drags must satisfy the paper's behavioural contracts. (Ported from
//! a `proptest` suite to the std-only harness in `tests/support`.)

mod support;

use support::{GenExt, SplitMix64};

use std::sync::Arc;

use sketch_n_sketch::editor::Editor;
use sketch_n_sketch::svg::{ShapeId, Zone};

/// A random row of rectangles with independent literal positions.
fn independent_rects(rng: &mut SplitMix64) -> String {
    let n = 1 + rng.index(4);
    let shapes: Vec<String> = (0..n)
        .map(|_| {
            let x = (rng.f64_in(10.0, 300.0) * 2.0).round() / 2.0;
            let y = (rng.f64_in(10.0, 300.0) * 2.0).round() / 2.0;
            format!(
                "(rect 'red' {} {} 20! 20!)",
                sketch_n_sketch::lang::fmt_num(x),
                sketch_n_sketch::lang::fmt_num(y),
            )
        })
        .collect();
    format!("(svg [{}])", shapes.join(" "))
}

/// Dragging the interior of a rect with fresh literal coordinates moves
/// exactly that rect by exactly (dx, dy) — the unambiguous case.
#[test]
fn unambiguous_drags_are_exact() {
    let mut rng = SplitMix64::seed_from_u64(10);
    for case in 0..48 {
        let src = independent_rects(&mut rng);
        let dx = rng.f64_in(-50.0, 50.0);
        let dy = rng.f64_in(-50.0, 50.0);
        let mut editor = Editor::new(&src).unwrap();
        let n = editor.shapes().len();
        let idx = rng.index(n);
        let before: Vec<(f64, f64)> = editor
            .shapes()
            .map(|s| (s.num("x").unwrap(), s.num("y").unwrap()))
            .collect();
        editor
            .drag_zone(ShapeId(idx), Zone::Interior, dx, dy)
            .unwrap();
        let after: Vec<(f64, f64)> = editor
            .shapes()
            .map(|s| (s.num("x").unwrap(), s.num("y").unwrap()))
            .collect();
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i == idx {
                assert!((a.0 - b.0 - dx).abs() < 1e-9, "case {case}");
                assert!((a.1 - b.1 - dy).abs() < 1e-9, "case {case}");
            } else {
                assert_eq!(a, b, "case {case}: shape {i} moved");
            }
        }
    }
}

/// Drag followed by undo restores the program text exactly.
#[test]
fn drag_undo_is_identity() {
    let mut rng = SplitMix64::seed_from_u64(11);
    for case in 0..48 {
        let src = independent_rects(&mut rng);
        let dx = rng.f64_in(-30.0, 30.0);
        let dy = rng.f64_in(-30.0, 30.0);
        let mut editor = Editor::new(&src).unwrap();
        let original = editor.code();
        editor
            .drag_zone(ShapeId(0), Zone::Interior, dx, dy)
            .unwrap();
        editor.undo().unwrap();
        assert_eq!(editor.code(), original, "case {case}");
    }
}

/// Committed drags preserve canvas structure (shape count and kinds):
/// interior drags are always *faithful* here, never structure-changing.
#[test]
fn interior_drags_preserve_structure() {
    let mut rng = SplitMix64::seed_from_u64(12);
    for case in 0..48 {
        let src = independent_rects(&mut rng);
        let dx = rng.f64_in(-30.0, 30.0);
        let dy = rng.f64_in(-30.0, 30.0);
        let mut editor = Editor::new(&src).unwrap();
        let kinds: Vec<Arc<str>> = editor.shapes().map(|s| s.node.kind.clone()).collect();
        editor
            .drag_zone(ShapeId(0), Zone::Interior, dx, dy)
            .unwrap();
        let kinds_after: Vec<Arc<str>> = editor.shapes().map(|s| s.node.kind.clone()).collect();
        assert_eq!(kinds, kinds_after, "case {case}");
    }
}

/// The editor's code pane always reparses: whatever sequence of drags
/// happened, `code()` is valid little producing the same canvas.
#[test]
fn code_pane_always_reparses() {
    let mut rng = SplitMix64::seed_from_u64(13);
    for case in 0..48 {
        let src = independent_rects(&mut rng);
        let mut editor = Editor::new(&src).unwrap();
        let n_drags = 1 + rng.index(3);
        for _ in 0..n_drags {
            let dx = rng.f64_in(-20.0, 20.0);
            let dy = rng.f64_in(-20.0, 20.0);
            editor
                .drag_zone(ShapeId(0), Zone::Interior, dx, dy)
                .unwrap();
        }
        let reopened = Editor::new(&editor.code()).unwrap();
        assert_eq!(
            reopened.shapes().len(),
            editor.shapes().len(),
            "case {case}"
        );
        assert_eq!(reopened.export_svg(), editor.export_svg(), "case {case}");
    }
}

/// Shared-location drags (x and y tied to one constant) stay plausible:
/// at least one of the two requested attribute updates holds.
#[test]
fn shared_location_drags_are_plausible() {
    let mut rng = SplitMix64::seed_from_u64(14);
    for case in 0..48 {
        let base = rng.f64_in(50.0, 150.0).round();
        let dx = rng.f64_in(-20.0, 20.0);
        let dy = rng.f64_in(-20.0, 20.0);
        let src = format!("(def xy {base}) (svg [(rect 'red' xy xy 30! 30!)])");
        let mut editor = Editor::new(&src).unwrap();
        editor
            .drag_zone(ShapeId(0), Zone::Interior, dx, dy)
            .unwrap();
        let s = editor.shapes().next().unwrap();
        let x = s.num("x").unwrap();
        let y = s.num("y").unwrap();
        let x_ok = (x - (base + dx)).abs() < 1e-9;
        let y_ok = (y - (base + dy)).abs() < 1e-9;
        assert!(x_ok || y_ok, "case {case}: neither constraint satisfied");
        // And the shared location forces x == y afterwards.
        assert_eq!(x, y, "case {case}");
    }
}
