//! Ad-hoc synchronization (§7.2 goal (c)) with soft-constraint ranking
//! (§3): edit output values directly — no drag — and let the system rank
//! every program update that could explain the edits.
//!
//! ```sh
//! cargo run --example ad_hoc_reconcile
//! ```

use sketch_n_sketch::editor::Editor;
use sketch_n_sketch::svg::{AttrRef, ShapeId};
use sketch_n_sketch::sync::OutputEdit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
        (def [x0 sep y0] [50 110 60])
        (def box (λ i (rect 'slateblue' (+ x0 (* i sep)) y0 60 60)))
        (svg (map box (zeroTo 3!)))
    "#;
    let mut editor = Editor::new(source)?;
    println!("three boxes at x = 50, 160, 270\n");

    // The user types a new x for the third box into an attribute inspector.
    let edits = [OutputEdit {
        shape: ShapeId(2),
        attr: AttrRef::Plain("x"),
        new_value: 330.0,
    }];
    println!("edit: box 2's x ← 330. Candidates, best first:");
    for r in editor.reconcile_edits(&edits) {
        println!(
            "  {}  → {:?} (|Δ| = {:.1})",
            r.update.subst, r.judgment, r.change_magnitude
        );
    }

    // Apply the best candidate: `sep` changes (it preserves the other two
    // boxes — the soft constraints), not `x0` (which would move everything).
    let best = editor.apply_output_edits(&edits)?;
    println!("\napplied {}", best.update.subst);
    println!(
        "program is now: {}",
        editor.code().lines().next().unwrap_or_default()
    );
    let xs: Vec<f64> = editor.shapes().map(|s| s.num("x").unwrap()).collect();
    println!("box xs: {xs:?}");

    // A *pair* of edits pins the interpretation down: moving boxes 0 and 2
    // by the same amount can only be the base position.
    let edits = [
        OutputEdit {
            shape: ShapeId(0),
            attr: AttrRef::Plain("x"),
            new_value: 80.0,
        },
        OutputEdit {
            shape: ShapeId(2),
            attr: AttrRef::Plain("x"),
            new_value: 360.0,
        },
    ];
    let best = editor.apply_output_edits(&edits)?;
    println!("\ntwo coordinated edits applied: {}", best.update.subst);
    println!(
        "program is now: {}",
        editor.code().lines().next().unwrap_or_default()
    );
    Ok(())
}
