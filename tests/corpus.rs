//! Corpus-wide integration tests: every example must open in the editor,
//! render, prepare, survive a drag of its first active zone, and keep its
//! code pane and canvas in sync.

use sketch_n_sketch::editor::Editor;
use sketch_n_sketch::eval::Program;
use sketch_n_sketch::svg::Canvas;

#[test]
fn every_example_opens_and_prepares() {
    for ex in sketch_n_sketch::examples::ALL {
        let editor =
            Editor::new(ex.source).unwrap_or_else(|e| panic!("{} failed to open: {e}", ex.slug));
        let stats = editor.assignments().zone_stats();
        assert_eq!(
            stats.total,
            stats.inactive + stats.unambiguous + stats.ambiguous,
            "{}: inconsistent zone stats",
            ex.slug
        );
    }
}

#[test]
fn every_example_survives_a_drag_on_its_first_active_zone() {
    for ex in sketch_n_sketch::examples::ALL {
        let mut editor = Editor::new(ex.source).unwrap();
        let target = editor
            .assignments()
            .zones
            .iter()
            .find(|z| z.is_active())
            .map(|z| (z.shape, z.zone));
        let Some((shape, zone)) = target else {
            // Fully frozen examples have no active zones; fine.
            continue;
        };
        let before = editor.code();
        editor
            .drag_zone(shape, zone, 3.0, 2.0)
            .unwrap_or_else(|e| panic!("{}: drag failed: {e}", ex.slug));
        // The program changed (or the solver legitimately failed on every
        // part, leaving it unchanged — accept both, but it must still run).
        let _ = before;
        assert!(editor.shapes().len() > 0, "{}: canvas vanished", ex.slug);
        // Undo restores the original text when a change was made.
        if editor.undo().is_ok() {
            assert_eq!(editor.code(), before, "{}: undo mismatch", ex.slug);
        }
    }
}

#[test]
fn unparse_reparse_preserves_canvas() {
    for ex in sketch_n_sketch::examples::ALL {
        let p1 = Program::parse(ex.source).unwrap();
        let c1 = Canvas::from_value(&p1.eval().unwrap()).unwrap();
        let p2 = Program::parse(&p1.code())
            .unwrap_or_else(|e| panic!("{}: unparse does not reparse: {e}", ex.slug));
        let c2 = Canvas::from_value(&p2.eval().unwrap()).unwrap();
        assert_eq!(c1.shapes().len(), c2.shapes().len(), "{}", ex.slug);
        let nums = |c: &Canvas| c.nums().to_vec();
        assert_eq!(
            nums(&c1),
            nums(&c2),
            "{}: canvas changed across unparse",
            ex.slug
        );
    }
}

#[test]
fn sliders_across_the_corpus_clamp_and_rerun() {
    let mut slider_examples = 0;
    for ex in sketch_n_sketch::examples::ALL {
        let mut editor = Editor::new(ex.source).unwrap();
        let sliders = editor.sliders();
        if sliders.is_empty() {
            continue;
        }
        slider_examples += 1;
        for s in sliders {
            assert!(s.min <= s.value && s.value <= s.max, "{}: {s:?}", ex.slug);
            // Push past the max: must clamp, not crash.
            editor.set_slider(s.loc, s.max + 100.0).unwrap();
            let now = editor
                .sliders()
                .iter()
                .find(|t| t.loc == s.loc)
                .unwrap()
                .value;
            assert_eq!(now, s.max, "{}", ex.slug);
            editor.undo().unwrap();
        }
    }
    assert!(
        slider_examples >= 8,
        "only {slider_examples} slider examples"
    );
}

#[test]
fn export_produces_wellformed_svg() {
    for ex in sketch_n_sketch::examples::ALL {
        let editor = Editor::new(ex.source).unwrap();
        let svg = editor.export_svg();
        assert!(svg.starts_with("<svg xmlns="), "{}", ex.slug);
        assert!(svg.trim_end().ends_with("</svg>"), "{}", ex.slug);
        // Balanced tags for the kinds we emit most.
        for kind in ["rect", "circle", "line", "polygon", "path", "ellipse"] {
            let opens = svg.matches(&format!("<{kind}")).count();
            let closes = svg.matches(&format!("</{kind}>")).count() + svg.matches("/>").count();
            assert!(opens <= closes, "{}: unbalanced <{kind}>", ex.slug);
        }
        // Internal markers never leak.
        assert!(!svg.contains("HIDDEN"), "{}", ex.slug);
        assert!(!svg.contains("ZONES"), "{}", ex.slug);
    }
}

#[test]
fn both_heuristics_produce_valid_assignments_corpus_wide() {
    use sketch_n_sketch::editor::EditorConfig;
    use sketch_n_sketch::sync::Heuristic;
    for ex in sketch_n_sketch::examples::ALL {
        for heuristic in [Heuristic::Fair, Heuristic::Biased] {
            let editor = Editor::with_config(
                ex.source,
                EditorConfig {
                    heuristic,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{} ({heuristic:?}): {e}", ex.slug));
            for z in &editor.assignments().zones {
                // Candidate counts do not depend on the heuristic; the
                // chosen index must be in range; every chosen location must
                // come from some slot's candidate list.
                if let Some(c) = z.chosen_candidate() {
                    for l in &c.loc_set {
                        assert!(
                            z.slots.iter().any(|s| s.locs.contains(l)),
                            "{}: {:?} chose foreign location",
                            ex.slug,
                            z.zone
                        );
                    }
                } else {
                    assert!(z.candidates.is_empty());
                }
            }
        }
    }
}

#[test]
fn paper_headline_statistics_have_the_right_shape() {
    // §5.2.1's qualitative claims, on our corpus:
    //   (1) the vast majority of zones are Active;
    //   (2) ambiguous zones outnumber unambiguous ones;
    //   (3) the average ambiguity is a handful, not hundreds.
    let mut total = 0usize;
    let mut inactive = 0usize;
    let mut unambiguous = 0usize;
    let mut ambiguous = 0usize;
    let mut choices = 0usize;
    for ex in sketch_n_sketch::examples::ALL {
        let editor = Editor::new(ex.source).unwrap();
        let s = editor.assignments().zone_stats();
        total += s.total;
        inactive += s.inactive;
        unambiguous += s.unambiguous;
        ambiguous += s.ambiguous;
        choices += s.ambiguous_choices;
    }
    assert!(total > 2_000, "corpus too small: {total} zones");
    assert!(
        (inactive as f64) < 0.2 * total as f64,
        "too many inactive zones"
    );
    assert!(ambiguous > unambiguous, "ambiguity should dominate");
    let avg = choices as f64 / ambiguous as f64;
    assert!((2.0..=10.0).contains(&avg), "avg candidates {avg}");
}
