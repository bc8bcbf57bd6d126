//! Integration tests for the §6 workflows: the group-box pattern, the
//! helper-value design pattern (user-defined widgets), dealing with
//! ambiguities by freezing, and exporting.

use sketch_n_sketch::editor::{Editor, EditorConfig};
use sketch_n_sketch::eval::FreezeMode;
use sketch_n_sketch::svg::{ShapeId, Zone};

#[test]
fn group_box_controls_the_whole_design() {
    // §6.1 "Group Box Pattern": a transparent backing rect whose w/h every
    // other shape is defined against; its BOTRIGHTCORNER is predictably
    // assigned {w, h}.
    let src = r#"
        (def [x0 y0 w h] [50 50 300 200])
        (def groupBox (rect 'none' x0 y0 w h))
        (def dot1 (circle 'red' (+ x0 (/ w 4!)) (+ y0 (/ h 2!)) 10!))
        (def dot2 (circle 'blue' (+ x0 (* 3! (/ w 4!))) (+ y0 (/ h 2!)) 10!))
        (svg [groupBox dot1 dot2])
    "#;
    let mut editor = Editor::new(src).unwrap();
    let caption = editor.hover(ShapeId(0), Zone::BotRightCorner).unwrap();
    assert_eq!(caption.text, "Active: changes w, h");
    let x1_before = editor.shapes().nth(1).unwrap().num("cx").unwrap();
    editor
        .drag_zone(ShapeId(0), Zone::BotRightCorner, 100.0, 50.0)
        .unwrap();
    // Stretching the group box rescales the dots' positions.
    let x1_after = editor.shapes().nth(1).unwrap().num("cx").unwrap();
    assert!((x1_after - (x1_before + 25.0)).abs() < 1e-9);
    assert!(editor.code().contains("400 250"), "{}", editor.code());
}

#[test]
fn helper_value_pattern_custom_slider() {
    // §6.3: a user-defined slider is just shapes; dragging its ball's
    // INTERIOR updates the source value it was derived from.
    let src = r#"
        (def [n shapes] (numSlider 100! 300! 50! 0! 10! 'n = ' 4))
        (def bar (rect 'seagreen' 100 100 (* 30! n) 40!))
        (svg (append shapes [bar]))
    "#;
    let mut editor = Editor::new(src).unwrap();
    // Helper shapes carry HIDDEN; bar is the last shape.
    let n_shapes = editor.shapes().len();
    assert_eq!(n_shapes, 6);
    let ball = ShapeId(4); // line, text, two end dots, ball, bar.
    let caption = editor.hover(ball, Zone::Interior).unwrap();
    assert!(caption.active, "slider ball should be manipulable");
    // Dragging the ball right by 20px moves n by 20 * (10 / 200) = 1.
    editor.drag_zone(ball, Zone::Interior, 20.0, 0.0).unwrap();
    let bar_w = editor.shapes().nth(5).unwrap().num("width").unwrap();
    assert!((bar_w - 150.0).abs() < 1e-6, "bar width {bar_w}");
    // The canvas hides the helper shapes, the export certainly does.
    assert!(!editor.export_svg().contains("<text"));
}

#[test]
fn freezing_redirects_ambiguity() {
    // §6.1 "Dealing with Ambiguities": freezing x0/y0/delta forces the
    // logo's bottom point to control {w, h}.
    let src_unfrozen = r#"
        (def [x0 y0 w h] [50 50 200 200])
        (svg [(polygon 'black' 'none' 0 [[x0 (+ y0 h)] [(+ x0 w) (+ y0 h)] [x0 y0]])])
    "#;
    let editor = Editor::new(src_unfrozen).unwrap();
    let analysis = editor.zone_analysis(ShapeId(0), Zone::Point(1)).unwrap();
    assert!(analysis.candidates.len() > 1, "expected ambiguity");

    let src_frozen = r#"
        (def [x0 y0 w h] [50! 50! 200 200])
        (svg [(polygon 'black' 'none' 0 [[x0 (+ y0 h)] [(+ x0 w) (+ y0 h)] [x0 y0]])])
    "#;
    let mut editor = Editor::new(src_frozen).unwrap();
    let caption = editor.hover(ShapeId(0), Zone::Point(1)).unwrap();
    assert_eq!(caption.text, "Active: changes w, h");
    editor
        .drag_zone(ShapeId(0), Zone::Point(1), 40.0, -60.0)
        .unwrap();
    assert!(editor.code().contains("240"), "{}", editor.code());
    assert!(editor.code().contains("140"), "{}", editor.code());
}

#[test]
fn thaw_mode_flips_the_default() {
    let src = "(def [a b] [10 20?]) (svg [(rect 'red' a b 30! 30!)])";
    // Default: both a and b changeable.
    let editor = Editor::new(src).unwrap();
    assert!(editor.hover(ShapeId(0), Zone::Interior).unwrap().active);
    // All-frozen-except-thawed: only b remains.
    let editor = Editor::with_config(
        src,
        EditorConfig {
            freeze_mode: FreezeMode::all_except_thawed(),
            ..Default::default()
        },
    )
    .unwrap();
    let caption = editor.hover(ShapeId(0), Zone::Interior).unwrap();
    assert_eq!(caption.text, "Active: changes b");
}

#[test]
fn negative_star_lengths_are_reachable_by_dragging() {
    // §6.1 "Derived Shapes": dragging star POINT zones can push length
    // parameters negative, creating new patterns instead of crashing.
    let src = "(def [l1 l2] [50 20]) (svg [(nStar 'gold' 'black' 2 5! l1 l2 0! 200 200)])";
    let mut editor = Editor::new(src).unwrap();
    // Find a point zone that drags l1 or l2 and pull it far inward.
    let mut dragged = false;
    for i in 0..10 {
        let Some(a) = editor.zone_analysis(ShapeId(0), Zone::Point(i)) else {
            continue;
        };
        let Some(c) = a.chosen_candidate() else {
            continue;
        };
        let names: Vec<String> = c
            .loc_set
            .iter()
            .map(|l| editor.program().display_loc(*l))
            .collect();
        if names.iter().any(|n| n == "l1" || n == "l2") {
            editor
                .drag_zone(ShapeId(0), Zone::Point(i), -120.0, 0.0)
                .unwrap();
            dragged = true;
            break;
        }
    }
    assert!(dragged, "no point zone drags a length parameter");
    assert_eq!(editor.shapes().len(), 1, "the star still renders");
}

#[test]
fn color_numbers_round_trip_through_the_editor() {
    let mut editor =
        Editor::new("(def shade 420{0-500}) (svg [(rect shade 10 10 50 50)])").unwrap();
    // Both a range slider and the built-in color slider drive `shade`.
    assert_eq!(editor.sliders().len(), 1);
    assert!(editor.color_slider_loc(ShapeId(0)).is_some());
    editor.set_color(ShapeId(0), 90.0).unwrap();
    assert!(editor.code().contains("90"));
    assert!(editor.export_svg().contains("hsl(90,100%,50%)"));
}

#[test]
fn whole_line_drag_moves_both_endpoints() {
    let mut editor =
        Editor::new("(def [ax ay bx by] [10 20 110 120]) (svg [(line 'black' 3! ax ay bx by)])")
            .unwrap();
    editor
        .drag_zone(ShapeId(0), Zone::WholeEdge, 5.0, 6.0)
        .unwrap();
    let line = editor.shapes().next().unwrap();
    assert_eq!(line.num("x1"), Some(15.0));
    assert_eq!(line.num("y1"), Some(26.0));
    assert_eq!(line.num("x2"), Some(115.0));
    assert_eq!(line.num("y2"), Some(126.0));
}

#[test]
fn rotation_zone_spins_a_transformed_rect() {
    // The built-in rotation zones (§5.2.2's rotation discussion): a shape
    // carrying ['transform' ['rotate' deg cx cy]] exposes a Rotation zone
    // whose horizontal drags turn the shape.
    let src = r#"
        (def deg 20)
        (svg [(addAttr (rect 'tomato' 80! 80! 120! 60!)
                ['transform' ['rotate' deg 140! 110!]])])
    "#;
    let mut editor = Editor::new(src).unwrap();
    let caption = editor.hover(ShapeId(0), Zone::Rotation).unwrap();
    assert_eq!(caption.text, "Active: changes deg");
    editor
        .drag_zone(ShapeId(0), Zone::Rotation, 25.0, 0.0)
        .unwrap();
    assert!(editor.code().contains("(def deg 45)"), "{}", editor.code());
    assert!(editor.export_svg().contains("rotate(45 140 110)"));
}

#[test]
fn incremental_drag_solves_from_the_drag_start() {
    // Mouse-move events report *total* offsets; intermediate positions do
    // not accumulate error, and mouse-up commits the final one.
    let mut editor = Editor::new("(svg [(rect 'red' 10 20 30 40)])").unwrap();
    editor.start_drag(ShapeId(0), Zone::Interior).unwrap();
    for step in 1..=10 {
        editor.drag_to(step as f64, step as f64 * 2.0).unwrap();
    }
    editor.end_drag().unwrap();
    assert_eq!(editor.code(), "(svg [(rect 'red' 20 40 30 40)])");
}

#[test]
fn bezier_control_points_are_directly_manipulable() {
    let src = r#"
        (def [c1x c1y] [180 80])
        (svg [(path 'none' 'purple' 4 ['M' 80! 300! 'C' c1x c1y 320! 320! 420! 300!])])
    "#;
    let mut editor = Editor::new(src).unwrap();
    // Path data points: 0 = M point (frozen), 1 = first control point.
    let caption = editor.hover(ShapeId(0), Zone::Point(1)).unwrap();
    assert_eq!(caption.text, "Active: changes c1x, c1y");
    editor
        .drag_zone(ShapeId(0), Zone::Point(1), -30.0, 10.0)
        .unwrap();
    assert!(editor.code().contains("[150 90]"), "{}", editor.code());
}
