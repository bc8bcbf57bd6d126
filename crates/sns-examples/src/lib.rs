//! The example corpus: `little` programs mirroring the paper's example
//! suite (§6, Appendix D, and the Appendix G measurement tables).
//!
//! The original 68-program corpus ships with the Elm implementation; these
//! programs are rewritten from scratch against this crate family's Prelude,
//! covering the same feature axes — recursion and higher-order functions,
//! trigonometric traces, polygons/paths/Bézier curves, user-defined
//! widgets, group boxes, frozen and range-annotated constants — so that the
//! corpus-wide statistics of §5.2 retain their shape.
//!
//! # Examples
//!
//! ```
//! // Every example opens in the editor.
//! let ex = sns_examples::by_slug("wave_boxes").unwrap();
//! let editor = sns_editor::Editor::new(ex.source).unwrap();
//! assert_eq!(editor.shapes().len(), 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One example program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Example {
    /// Stable identifier (snake_case).
    pub slug: &'static str,
    /// Display name matching the paper's tables where applicable.
    pub name: &'static str,
    /// The `little` source code.
    pub source: &'static str,
}

macro_rules! examples {
    ($(($slug:ident, $name:literal)),* $(,)?) => {
        /// All examples, in a stable order.
        pub const ALL: &[Example] = &[
            $(Example {
                slug: stringify!($slug),
                name: $name,
                source: include_str!(concat!("../little/", stringify!($slug), ".little")),
            }),*
        ];
    };
}

examples![
    (wave_boxes, "Wave Boxes"),
    (wave_boxes_grid, "Wave Boxes Grid"),
    (three_boxes, "3 Boxes"),
    (n_boxes_slider, "N Boxes Sli"),
    (logo, "Logo"),
    (logo_sizes, "Logo Sizes"),
    (elm_logo, "Elm Logo"),
    (chicago_flag, "Chicago Flag"),
    (us13_flag, "US-13 Flag"),
    (french_sudan_flag, "French Sudan Flag"),
    (ferris_wheel, "Ferris Wheel"),
    (ferris_task_before, "Ferris Task Before"),
    (ferris_task_after, "Ferris Task After"),
    (sliders, "Sliders"),
    (buttons, "Buttons"),
    (widgets, "Widgets"),
    (xy_slider, "xySlider"),
    (color_picker, "Color Picker"),
    (tile_pattern, "Tile Pattern"),
    (grid_tile, "Grid Tile"),
    (bar_graph, "Bar Graph"),
    (pie_chart, "Pie Chart"),
    (solar_system, "Solar System"),
    (clique, "Clique"),
    (eye_icon, "Eye Icon"),
    (wikimedia_logo, "Wikimedia Logo"),
    (haskell_logo, "Haskell.org Logo"),
    (cover_logo, "Cover Logo"),
    (pop_pl_logo, "POP-PL Logo"),
    (lillicon_p, "Lillicon P"),
    (botanic_garden_logo, "Botanic Garden Logo"),
    (active_trans_logo, "Active Trans Logo"),
    (sailboat, "Sailboat"),
    (keyboard, "Keyboard"),
    (tessellation, "Tessellation"),
    (floral_logo, "Floral Logo"),
    (spiral, "Spiral Spiral-Graph"),
    (fractal_tree, "Fractal Tree"),
    (stick_figures, "Stick Figures"),
    (hilbert_curve, "Hilbert Curve Animation"),
    (rings, "Rings"),
    (polygons, "Polygons"),
    (stars, "Stars"),
    (triangles, "Triangles"),
    (rounded_rect, "Rounded Rect"),
    (thaw_freeze, "Thaw/Freeze"),
    (frank_lloyd_wright, "Frank Lloyd Wright"),
    (bezier_curves, "Bezier Curves"),
    (snowman, "Snowman"),
    (sample_rotations, "Sample Rotations"),
    (us50_flag, "US-50 Flag"),
    (interface_buttons, "Interface Buttons"),
    (misc_shapes, "Misc Shapes"),
    (paths, "Paths"),
    (battery_icon, "Battery Icon"),
];

/// Looks an example up by slug.
pub fn by_slug(slug: &str) -> Option<&'static Example> {
    ALL.iter().find(|e| e.slug == slug)
}

/// Total `little` lines of code across the corpus (comments and blank
/// lines excluded), mirroring the paper's "spanning 2,000 lines" metric.
pub fn corpus_loc() -> usize {
    ALL.iter()
        .flat_map(|e| e.source.lines())
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with(';')
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_editor::Editor;

    #[test]
    fn slugs_are_unique() {
        let mut slugs: Vec<&str> = ALL.iter().map(|e| e.slug).collect();
        slugs.sort();
        let n = slugs.len();
        slugs.dedup();
        assert_eq!(slugs.len(), n);
    }

    #[test]
    fn every_example_parses_evaluates_and_renders() {
        for ex in ALL {
            let editor = Editor::new(ex.source)
                .unwrap_or_else(|e| panic!("example `{}` failed: {e}", ex.slug));
            assert!(
                editor.shapes().len() > 0,
                "example `{}` produced an empty canvas",
                ex.slug
            );
            let svg = editor.export_svg();
            assert!(
                svg.starts_with("<svg"),
                "example `{}` rendered oddly",
                ex.slug
            );
        }
    }

    #[test]
    fn corpus_is_nontrivial() {
        assert!(ALL.len() >= 45, "corpus shrank to {}", ALL.len());
        assert!(corpus_loc() > 400, "corpus LoC = {}", corpus_loc());
    }

    #[test]
    fn lookup_by_slug() {
        assert!(by_slug("wave_boxes").is_some());
        assert!(by_slug("nope").is_none());
    }
}
