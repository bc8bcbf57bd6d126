//! Hover captions and constant highlighting (§5 "Implementation").
//!
//! When the user hovers over a zone, the editor shows whether it is
//! "Inactive" or "Active" and, for active zones, which constants will
//! change. Constants are highlighted yellow before manipulation, green
//! while being updated, red when the solver fails, and gray when they
//! contributed to an attribute but were not selected by the heuristics.

use std::fmt;

use sns_eval::Program;
use sns_lang::LocId;
use sns_sync::ZoneAnalysis;

/// Highlight colors for constants in the code pane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Highlight {
    /// Will change if the hovered zone is manipulated.
    Yellow,
    /// Currently being updated during a manipulation.
    Green,
    /// The solver failed to compute a solution for it.
    Red,
    /// Contributed to an attribute value but was not selected.
    Gray,
}

/// A hover caption for one zone.
#[derive(Debug, Clone, PartialEq)]
pub struct Caption {
    /// Whether the zone can be manipulated.
    pub active: bool,
    /// Human-readable caption, e.g. `"Active: changes x0, sep"`.
    pub text: String,
    /// The constants the zone would change (display names included).
    pub locs: Vec<(LocId, String)>,
}

/// Builds the hover caption for an analyzed zone.
pub fn caption_for(program: &Program, analysis: &ZoneAnalysis) -> Caption {
    let mut text = String::new();
    write_caption(&mut text, program, analysis).expect("writing to a String cannot fail");
    Caption {
        active: analysis.is_active(),
        text,
        locs: analysis.chosen_candidate().map_or_else(Vec::new, |c| {
            c.loc_set
                .iter()
                .map(|l| (*l, program.display_loc(*l)))
                .collect()
        }),
    }
}

/// Writes the caption text of [`caption_for`] into `out`, naming each
/// constant in place.
///
/// # Errors
///
/// Fails only when `out` does.
pub fn write_caption(
    out: &mut impl fmt::Write,
    program: &Program,
    analysis: &ZoneAnalysis,
) -> fmt::Result {
    let Some(c) = analysis.chosen_candidate() else {
        return out.write_str("Inactive");
    };
    out.write_str("Active: changes ")?;
    for (i, l) in c.loc_set.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        match program.loc_info(*l).and_then(|info| info.name.as_deref()) {
            Some(name) => out.write_str(name)?,
            None => write!(out, "{l}")?,
        }
    }
    Ok(())
}

/// Computes the idle (pre-manipulation) highlights for a zone: yellow for
/// selected constants, gray for constants that contributed to some
/// attribute's trace but were not selected.
pub fn idle_highlights(analysis: &ZoneAnalysis) -> Vec<(LocId, Highlight)> {
    let mut out = Vec::new();
    let chosen: Vec<LocId> = analysis
        .chosen_candidate()
        .map(|c| c.loc_set.iter().copied().collect())
        .unwrap_or_default();
    for l in &chosen {
        out.push((*l, Highlight::Yellow));
    }
    let mut contributed: Vec<LocId> = analysis
        .slots
        .iter()
        .flat_map(|s| s.locs.iter().copied())
        .filter(|l| !chosen.contains(l))
        .collect();
    contributed.sort();
    contributed.dedup();
    for l in contributed {
        out.push((l, Highlight::Gray));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_eval::{FreezeMode, Program};
    use sns_svg::{Canvas, ShapeId, Zone};
    use sns_sync::{analyze_canvas, Heuristic};

    fn analysis_for(src: &str, zone: Zone) -> (Program, ZoneAnalysis) {
        let program = Program::parse(src).unwrap();
        let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
        let mode = FreezeMode::default();
        let frozen = |l: LocId| program.is_frozen(l, mode);
        let a = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
        let z = a.zone(ShapeId(0), zone).unwrap().clone();
        (program, z)
    }

    #[test]
    fn active_caption_names_constants() {
        let (program, z) = analysis_for(
            "(def [cx cy] [100 100]) (svg [(circle 'red' cx cy 20)])",
            Zone::Interior,
        );
        let c = caption_for(&program, &z);
        assert!(c.active);
        assert_eq!(c.text, "Active: changes cx, cy");
    }

    #[test]
    fn inactive_caption() {
        let (program, z) = analysis_for("(svg [(rect 'red' 1! 2! 3! 4!)])", Zone::Interior);
        let c = caption_for(&program, &z);
        assert!(!c.active);
        assert_eq!(c.text, "Inactive");
    }

    #[test]
    fn gray_highlights_for_unselected_contributors() {
        // x's trace mentions both x0 and sep; only one is chosen.
        let src = r#"
            (def [x0 sep y0] [50 30 100])
            (svg [(rect 'red' (+ x0 sep) y0 10 10)])
        "#;
        let (_, z) = analysis_for(src, Zone::Interior);
        let hs = idle_highlights(&z);
        assert!(hs.iter().any(|(_, h)| *h == Highlight::Yellow));
        assert!(hs.iter().any(|(_, h)| *h == Highlight::Gray));
    }
}
