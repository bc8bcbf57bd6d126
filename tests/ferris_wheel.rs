//! The §6.2 Ferris-wheel case study, scripted end to end: unambiguous
//! zones, shared-constant abstraction, the plausible-update failure mode
//! when dragging cars, undo, sliders, and the final programmatic edit.

use sketch_n_sketch::editor::{Editor, EditorConfig};
use sketch_n_sketch::svg::{AttrRef, ShapeId, Zone};
use sketch_n_sketch::sync::{judge, numeric_leaves, Judgment, UserUpdate};

const FERRIS: &str = r#"
    (def [cx cy spokeLen rCenter wCar rCap] [220 300 80 20 30 7])
    (def [numSpokes rotAngle] [5 0])
    (def ferrisWheel
      (let rim [(ring 'darkgray' 6 cx cy spokeLen)]
      (let center [(circle 'black' cx cy rCenter)]
      (let frame [(nStar 'none' 'darkgray' 3 numSpokes spokeLen 0 rotAngle cx cy)]
      (let spokePts (nPointsOnCircle numSpokes rotAngle cx cy spokeLen)
      (let cars (map (λ [x y] (squareCenter 'lightgray' x y wCar)) spokePts)
      (let hubcaps (map (λ [x y] (circle 'black' x y rCap)) spokePts)
        (concat [rim cars center frame hubcaps]))))))))
    (svg ferrisWheel)
"#;

/// Shape layout: 0 = rim ring, 1..=5 cars, 6 center, 7 frame star,
/// 8..=12 hubcaps.
const RIM: ShapeId = ShapeId(0);
const CAR0: ShapeId = ShapeId(1);
const CENTER: ShapeId = ShapeId(6);

#[test]
fn rim_zones_are_unambiguous_and_name_the_right_constants() {
    let editor = Editor::new(FERRIS).unwrap();
    // (rim, INTERIOR) ↦ ['cx' ↦ cx, 'cy' ↦ cy] — the only possible choice.
    let caption = editor.hover(RIM, Zone::Interior).unwrap();
    assert_eq!(caption.text, "Active: changes cx, cy");
    let analysis = editor.zone_analysis(RIM, Zone::Interior).unwrap();
    assert_eq!(analysis.candidates.len(), 1);
    // (rim, EDGE) ↦ ['r' ↦ spokeLen].
    let caption = editor.hover(RIM, Zone::RightEdge).unwrap();
    assert_eq!(caption.text, "Active: changes spokeLen");
}

#[test]
fn dragging_the_hub_moves_the_whole_wheel() {
    let mut editor = Editor::new(FERRIS).unwrap();
    let car_x_before = editor.shapes().nth(CAR0.0).unwrap().num("x").unwrap();
    editor
        .drag_zone(CENTER, Zone::Interior, 30.0, -20.0)
        .unwrap();
    // cx/cy changed in the program; every car follows.
    assert!(
        editor.code().contains("[250 280 80 20 30 7]"),
        "{}",
        editor.code()
    );
    let car_x_after = editor.shapes().nth(CAR0.0).unwrap().num("x").unwrap();
    assert!((car_x_after - car_x_before - 30.0).abs() < 1e-9);
}

#[test]
fn car_width_is_shared_by_all_cars() {
    let mut editor = Editor::new(FERRIS).unwrap();
    // (cars_i, RIGHTEDGE) ↦ ['width' ↦ wCar] for every car.
    for i in 1..=5 {
        assert_eq!(
            editor
                .assigned_loc(ShapeId(i), Zone::RightEdge, &AttrRef::Plain("width"))
                .map(|l| editor.program().display_loc(l)),
            Some("wCar".to_string())
        );
    }
    editor
        .drag_zone(ShapeId(3), Zone::RightEdge, 10.0, 0.0)
        .unwrap();
    for i in 1..=5 {
        assert_eq!(editor.shapes().nth(i).unwrap().num("width").unwrap(), 40.0);
    }
}

#[test]
fn dragging_a_car_changes_num_spokes_and_breaks_similarity() {
    // §6.2: the heuristics assign numSpokes to some car's INTERIOR; the
    // update is plausible but produces a structurally different output —
    // the case study's motivation for freezing + sliders.
    let editor = Editor::new(FERRIS).unwrap();
    let original = editor.program().eval().unwrap();
    let mut found_structure_change = false;
    for i in 1..=5 {
        let analysis = editor.zone_analysis(ShapeId(i), Zone::Interior).unwrap();
        let Some(c) = analysis.chosen_candidate() else {
            continue;
        };
        let names: Vec<String> = c
            .loc_set
            .iter()
            .map(|l| editor.program().display_loc(*l))
            .collect();
        if !names.iter().any(|n| n == "numSpokes") {
            continue;
        }
        // Fire the drag without committing, then judge the result.
        let live = editor.live();
        let result = live.drag(ShapeId(i), Zone::Interior, 9.0, 4.0).unwrap();
        let updated = editor.program().with_subst(&result.subst);
        let new_output = updated.eval().unwrap();
        let x = editor.shapes().nth(i).unwrap().num("x").unwrap();
        let leaves = numeric_leaves(&original);
        let index = leaves.iter().position(|&v| (v - x).abs() < 1e-9).unwrap();
        let j = judge(
            &original,
            &[UserUpdate {
                index,
                new_value: x + 9.0,
            }],
            &new_output,
        );
        if j == Judgment::NotSimilar {
            found_structure_change = true;
        }
    }
    assert!(
        found_structure_change,
        "no car drag changed numSpokes with a structure change"
    );
}

#[test]
fn freezing_and_sliders_fix_the_case_study() {
    // Phase 2 of §6.2: freeze numSpokes/rotAngle, annotate with ranges, and
    // control them via sliders instead.
    let after = FERRIS.replace(
        "(def [numSpokes rotAngle] [5 0])",
        "(def [numSpokes rotAngle] [5!{3-15} 0!{-3.14-3.14}])",
    );
    let mut editor = Editor::new(&after).unwrap();
    let sliders = editor.sliders();
    assert_eq!(sliders.len(), 2);
    assert_eq!(sliders[0].name, "numSpokes");
    assert_eq!(sliders[1].name, "rotAngle");
    // Sliding numSpokes to 7 produces 7 cars + 7 hubcaps + 3 others.
    editor.set_slider(sliders[0].loc, 7.0).unwrap();
    assert_eq!(editor.shapes().len(), 17);
    // Rotation via slider keeps the structure intact.
    editor.set_slider(sliders[1].loc, 1.0).unwrap();
    assert_eq!(editor.shapes().len(), 17);
    // And no car INTERIOR can touch the frozen parameters now.
    for i in 1..=7 {
        if let Some(a) = editor.zone_analysis(ShapeId(i), Zone::Interior) {
            if let Some(c) = a.chosen_candidate() {
                for l in &c.loc_set {
                    let name = editor.program().display_loc(*l);
                    assert_ne!(name, "numSpokes");
                    assert_ne!(name, "rotAngle");
                }
            }
        }
    }
}

#[test]
fn undo_restores_the_wheel_after_a_bad_drag() {
    let mut editor = Editor::new(FERRIS).unwrap();
    let before = editor.code();
    let shapes_before = editor.shapes().len();
    // Drag a car; whatever it changed, undo restores the program.
    editor
        .drag_zone(ShapeId(2), Zone::Interior, 9.0, 4.0)
        .unwrap();
    editor.undo().unwrap();
    assert_eq!(editor.code(), before);
    assert_eq!(editor.shapes().len(), shapes_before);
}

#[test]
fn programmatic_edit_colors_the_first_car() {
    // The final §6.2 step is a code edit (new control flow is never
    // synthesized): color car 0 pink.
    let mut editor = Editor::new(FERRIS).unwrap();
    let recolored = FERRIS.replace(
        "(let cars (map (λ [x y] (squareCenter 'lightgray' x y wCar)) spokePts)",
        "(let cars (mapi (λ [i [x y]] (squareCenter (if (= 0 i) 'pink' 'lightgray') x y wCar)) spokePts)",
    );
    editor.set_code(&recolored).unwrap();
    let fills: Vec<String> = (1..=5)
        .map(
            |i| match editor.shapes().nth(i).unwrap().node.attr("fill") {
                Some(sketch_n_sketch::svg::AttrValue::Str(s)) => s.to_string(),
                other => panic!("{other:?}"),
            },
        )
        .collect();
    assert_eq!(fills[0], "pink");
    assert!(fills[1..].iter().all(|f| f == "lightgray"));
}

#[test]
fn config_with_biased_heuristic_also_works() {
    let editor = Editor::with_config(
        FERRIS,
        EditorConfig {
            heuristic: sketch_n_sketch::sync::Heuristic::Biased,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(editor.shapes().len(), 13);
    assert!(editor.hover(RIM, Zone::Interior).unwrap().active);
}
