//! End-to-end reproduction of the paper's §2 walk-through on the
//! sine-wave-of-boxes program (Figure 1), spanning the whole crate family:
//! parse → evaluate with traces → extract canvas → synthesize candidate
//! updates → live-drag → unparse.

use sketch_n_sketch::editor::Editor;
use sketch_n_sketch::eval::{FreezeMode, Program};
use sketch_n_sketch::lang::LocId;
use sketch_n_sketch::svg::{Canvas, ShapeId, Zone};
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

fn program_and_canvas() -> (Program, Canvas) {
    let program = Program::parse(SINE_WAVE).unwrap();
    let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
    (program, canvas)
}

#[test]
fn equations_1_2_3_match_the_paper() {
    // §2.1: x-values 50, 80, 110 with traces
    //   (+ x0 (* l0 sep)), (+ x0 (* (+ l1 l0) sep)), (+ x0 (* (+ l1 (+ l1 l0)) sep)).
    let (program, canvas) = program_and_canvas();
    let xs: Vec<f64> = canvas.shapes().map(|s| s.num("x").unwrap()).collect();
    assert_eq!(&xs[..3], &[50.0, 80.0, 110.0]);

    let x2 = canvas
        .shape(ShapeId(2))
        .unwrap()
        .node
        .num_attr("x")
        .unwrap();
    let rendered = x2.t.to_string();
    // Structure: x0 + ((1 + (1 + 0)) * sep). Our traces name locations
    // l<N>; check the shape via the display form with canonical names.
    let pretty = {
        let mut s = rendered.clone();
        for loc in x2.t.locs() {
            s = s.replace(&loc.to_string(), &program.display_loc(loc));
        }
        s
    };
    assert_eq!(pretty, "(+ x0 (* (+ l10 (+ l10 l11)) sep))");
}

#[test]
fn four_candidates_with_exact_values() {
    // §2.2: dragging box 3 to x' = 155 admits exactly four local updates.
    let (program, canvas) = program_and_canvas();
    let box3 = canvas.shape(ShapeId(2)).unwrap();
    let x2 = box3.node.num_attr("x").unwrap();
    assert_eq!(box3.value(x2), 110.0);

    let mode = FreezeMode::nothing_frozen();
    let frozen = |l: LocId| program.is_frozen(l, mode);
    let rho0 = program.subst();
    let candidates = synthesize_single(&rho0, 155.0, &x2.t, &frozen, SynthesisOptions::default());
    assert_eq!(candidates.len(), 4);

    let mut by_name: Vec<(String, f64)> = candidates
        .iter()
        .map(|c| {
            let (l, v) = c.subst.iter().next().unwrap();
            (program.display_loc(l), v)
        })
        .collect();
    by_name.sort_by(|a, b| a.0.cmp(&b.0));
    // l10 is the Prelude's 1 (paper's l1), l11 the Prelude's 0 (paper's l0).
    assert_eq!(
        by_name,
        vec![
            ("l10".to_string(), 1.75),
            ("l11".to_string(), 1.5),
            ("sep".to_string(), 52.5),
            ("x0".to_string(), 95.0),
        ]
    );
}

#[test]
fn prelude_freezing_removes_the_bad_candidates() {
    // §2.2 "Frozen Constants": with the Prelude frozen only x0/sep remain.
    let (program, canvas) = program_and_canvas();
    let x2 = canvas
        .shape(ShapeId(2))
        .unwrap()
        .node
        .num_attr("x")
        .unwrap();
    let mode = FreezeMode::default();
    let frozen = |l: LocId| program.is_frozen(l, mode);
    let candidates = synthesize_single(
        &program.subst(),
        155.0,
        &x2.t,
        &frozen,
        SynthesisOptions::default(),
    );
    let names: Vec<String> = candidates
        .iter()
        .map(|c| program.display_loc(c.subst.iter().next().unwrap().0))
        .collect();
    assert_eq!(candidates.len(), 2);
    assert!(names.contains(&"x0".to_string()));
    assert!(names.contains(&"sep".to_string()));
}

#[test]
fn live_drag_of_third_box_updates_program_and_canvas() {
    let mut editor = Editor::new(SINE_WAVE).unwrap();
    // §2.3's rotation: boxes 0/1/2 get distinct location sets; dragging
    // box 2 horizontally reuses x0 (all sets exhausted, rotate back).
    editor
        .drag_zone(ShapeId(2), Zone::Interior, 45.0, 28.0)
        .unwrap();
    let code = editor.code();
    // x0 = 95 after the +45 drag (fair rotation: box2's x attr → x0).
    assert!(code.contains("95"), "updated program: {code}");
    // All twelve boxes still present, all translated.
    assert_eq!(editor.shapes().len(), 12);
    assert_eq!(editor.shapes().nth(2).unwrap().num("x").unwrap(), 155.0);
}

#[test]
fn slider_controls_number_of_boxes() {
    // §2.4: n is frozen with range {3-30}; the slider changes it.
    let mut editor = Editor::new(SINE_WAVE).unwrap();
    let sliders = editor.sliders();
    assert_eq!(sliders.len(), 1);
    assert_eq!((sliders[0].min, sliders[0].max), (3.0, 30.0));
    editor.set_slider(sliders[0].loc, 20.0).unwrap();
    assert_eq!(editor.shapes().len(), 20);
    // And n's freezing means no direct manipulation ever changes it.
    editor
        .drag_zone(ShapeId(0), Zone::Interior, 10.0, 10.0)
        .unwrap();
    assert_eq!(editor.shapes().len(), 20);
}

#[test]
fn committed_drag_round_trips_through_source() {
    // The updated program text re-parses to a program producing the same
    // canvas (the editor's code pane and canvas never diverge).
    let mut editor = Editor::new(SINE_WAVE).unwrap();
    editor
        .drag_zone(ShapeId(1), Zone::Interior, 10.0, -5.0)
        .unwrap();
    let reparsed = Program::parse(&editor.code()).unwrap();
    let canvas = Canvas::from_value(&reparsed.eval().unwrap()).unwrap();
    let a: Vec<f64> = editor
        .shapes()
        .flat_map(|s| {
            s.node
                .attr_nums()
                .into_iter()
                .map(|n| s.value(n))
                .collect::<Vec<_>>()
        })
        .collect();
    let b: Vec<f64> = canvas
        .shapes()
        .flat_map(|s| {
            s.node
                .attr_nums()
                .into_iter()
                .map(|n| s.value(n))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(a, b);
}
