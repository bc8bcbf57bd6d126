//! The paper's running example (§1–§2): the sine wave of boxes, its
//! value-trace equations, the four candidate updates of Figure 1D, and the
//! fair heuristic's rotation.
//!
//! ```sh
//! cargo run --example sine_wave_editing
//! ```

use sketch_n_sketch::editor::Editor;
use sketch_n_sketch::eval::FreezeMode;
use sketch_n_sketch::svg::{ShapeId, Zone};
use sketch_n_sketch::sync::{synthesize_single, SynthesisOptions};

const SINE_WAVE: &str = r#"
    (def [x0 y0 w h sep amp] [50 120 20 90 30 60])
    (def n 12!{3-30})
    (def boxi (λ i
      (let xi (+ x0 (* i sep))
      (let yi (- y0 (* amp (sin (* i (/ twoPi n)))))
        (rect 'lightblue' xi yi w h)))))
    (svg (map boxi (zeroTo n)))
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut editor = Editor::new(SINE_WAVE)?;
    println!("{} boxes on a sine wave\n", editor.shapes().len());

    // The run-time trace of the third box's x attribute (Equation 3).
    let box3 = editor.shapes().nth(2).unwrap();
    let x2 = box3.node.num_attr("x").unwrap().clone();
    println!("box 3: x = {}  with trace {}", box3.value(&x2), x2.t);

    // Figure 1D: all plausible updates for x' = 155, Prelude thawed.
    let program = editor.program().clone();
    let frozen =
        |l: sketch_n_sketch::lang::LocId| program.is_frozen(l, FreezeMode::nothing_frozen());
    let candidates = synthesize_single(
        &program.subst(),
        155.0,
        &x2.t,
        &frozen,
        SynthesisOptions::default(),
    );
    println!(
        "\nFigure 1D: {} candidate updates for 155 = trace:",
        candidates.len()
    );
    for c in &candidates {
        let (loc, v) = c.subst.iter().next().unwrap();
        println!(
            "  {} ↦ {}{}",
            program.display_loc(loc),
            sketch_n_sketch::lang::fmt_num(v),
            if program.is_prelude_loc(loc) {
                "   (a Prelude constant!)"
            } else {
                ""
            }
        );
    }

    // §2.3: the fair heuristic rotates location sets across the boxes.
    println!("\nfair heuristic assignments (Interior zones):");
    for i in 0..5 {
        let caption = editor.hover(ShapeId(i), Zone::Interior)?;
        println!("  box {i}: {}", caption.text);
    }

    // Drag box 1 (0-based) horizontally: the spacing changes.
    editor.drag_zone(ShapeId(1), Zone::Interior, 10.0, 0.0)?;
    println!("\nafter dragging box 1 by +10px, the program reads:");
    println!("{}", editor.code());

    // The slider controls n (hard to manipulate directly, §2.4).
    let slider = editor.sliders()[0].clone();
    editor.set_slider(slider.loc, 24.0)?;
    println!(
        "\nslider n → 24: canvas now has {} boxes",
        editor.shapes().len()
    );
    Ok(())
}
