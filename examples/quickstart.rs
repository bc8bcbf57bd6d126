//! Quickstart: the prodirect-manipulation loop in five steps.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sketch_n_sketch::editor::Editor;
use sketch_n_sketch::svg::{ShapeId, Zone};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write a program that draws a canvas.
    let source = r#"
        (def [x y w h] [60 40 120 80])
        (svg [(rect 'cornflowerblue' x y w h)
              (rect 'salmon' (+ x (* 1.5! w)) y w h)])
    "#;
    let mut editor = Editor::new(source)?;
    println!("program:\n{}\n", editor.code());
    println!("canvas:\n{}", editor.canvas_svg());

    // 2. Hover a zone: the editor says which constants a drag would change.
    let caption = editor.hover(ShapeId(0), Zone::Interior)?;
    println!("hovering first rect interior → {}", caption.text);

    // 3. Drag the first rectangle 40px right, 25px down. Live
    //    synchronization infers a program update in real time…
    editor.drag_zone(ShapeId(0), Zone::Interior, 40.0, 25.0)?;

    // 4. …and the *program text* is updated: x and y are now 100 and 65,
    //    and the second rectangle (defined relative to x) followed along.
    println!("\nafter dragging:\n{}", editor.code());
    let second_x = editor.shapes().nth(1).unwrap().num("x").unwrap();
    println!("second rect x = {second_x} (moved with the first — shared abstraction)");

    // 5. Undo, like any editor.
    editor.undo()?;
    println!("\nafter undo:\n{}", editor.code());
    Ok(())
}
