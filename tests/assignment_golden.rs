//! A golden of every corpus example's zone assignments under both
//! disambiguation heuristics: for each zone, in canvas order, its shape,
//! its zone, its candidate count and the location set the heuristic chose
//! (`-` for an inactive zone).
//!
//! The fixture (`tests/data/assignment_golden.txt`) is regenerated only
//! when a change to the assignments is intended. On a mismatch the test
//! writes what it saw next to the build's test scratch files and names
//! that path, so a drift can be diffed against the fixture.

use std::fmt::Write as _;

use sketch_n_sketch::eval::{FreezeMode, Program};
use sketch_n_sketch::lang::LocId;
use sketch_n_sketch::svg::Canvas;
use sketch_n_sketch::sync::{analyze_canvas, Heuristic};

const FIXTURE: &str = include_str!("data/assignment_golden.txt");

/// The golden text of one example: one block per heuristic, one line per
/// zone.
fn golden_of(slug: &str, source: &str) -> String {
    let mut out = String::new();
    let program = Program::parse(source).expect("parses");
    let canvas = Canvas::from_value(&program.eval().expect("evaluates")).expect("renders");
    let frozen = |l: LocId| program.is_frozen(l, FreezeMode::default());
    for heuristic in [Heuristic::Fair, Heuristic::Biased] {
        let _ = writeln!(out, "== {slug} {heuristic:?}");
        for z in &analyze_canvas(&canvas, &frozen, heuristic).zones {
            let chosen = match z.chosen_candidate() {
                Some(c) => {
                    let locs: Vec<String> = c.loc_set.iter().map(LocId::to_string).collect();
                    format!("{{{}}}", locs.join(" "))
                }
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{} {} candidates={} chosen={chosen}",
                z.shape,
                z.zone,
                z.candidates.len()
            );
        }
    }
    out
}

#[test]
fn corpus_assignments_match_the_golden_fixture() {
    let mut actual = String::new();
    for ex in sketch_n_sketch::examples::ALL {
        actual.push_str(&golden_of(ex.slug, ex.source));
    }
    if actual != FIXTURE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("assignment_golden.txt");
        std::fs::write(&path, &actual).expect("writes the actual golden");
        let first = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(actual.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "assignment golden drifted at line {}; actual output written to {}",
            first + 1,
            path.display()
        );
    }
}
