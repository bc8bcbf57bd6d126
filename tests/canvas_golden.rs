//! A byte-level golden of every corpus example's canvas, before and after
//! one commit on its first active zone: the rendered SVG under both
//! [`RenderOptions`], and each shape's id, kind, hidden flag, zones and
//! the bit patterns of its attribute numbers.
//!
//! The fixture (`tests/data/canvas_golden.txt`) is regenerated only when
//! an output change is intended. On a mismatch the test writes what it
//! saw next to the build's test scratch files and names that path, so a
//! drift can be diffed against the fixture.

use std::fmt::Write as _;

use sketch_n_sketch::eval::Program;
use sketch_n_sketch::svg::{Canvas, RenderOptions};
use sketch_n_sketch::sync::{LiveConfig, LiveSync};

const FIXTURE: &str = include_str!("data/canvas_golden.txt");

fn describe(out: &mut String, canvas: &Canvas) {
    let shown = canvas.to_svg(RenderOptions::default());
    let _ = writeln!(out, "svg hide_hidden=false\n{shown}");
    let hidden = canvas.to_svg(RenderOptions { hide_hidden: true });
    if hidden == shown {
        out.push_str("svg hide_hidden=true: as above\n");
    } else {
        let _ = writeln!(out, "svg hide_hidden=true\n{hidden}");
    }
    for s in canvas.shapes() {
        let zones: Vec<String> = s.zones().iter().map(|z| z.zone.to_string()).collect();
        let nums: Vec<String> = s
            .node
            .attr_nums()
            .iter()
            .map(|n| format!("{:016x}", s.value(n).to_bits()))
            .collect();
        let _ = writeln!(
            out,
            "{} {} hidden={} zones=[{}] nums=[{}]",
            s.id,
            s.node.kind,
            s.hidden(),
            zones.join(" "),
            nums.join(" ")
        );
    }
}

/// The golden text of one example: its canvas, the commit made, and the
/// canvas after it. The commit is a drag of `(3, 2)` on the first active
/// zone, committed on the fast tier when the session takes it.
fn golden_of(slug: &str, source: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {slug}");
    let program = Program::parse(source).expect("parses");
    let mut live = LiveSync::new(program, LiveConfig::default()).expect("prepares");
    describe(&mut out, live.canvas());
    let target = live
        .assignments()
        .zones
        .iter()
        .find(|z| z.is_active())
        .map(|z| (z.shape, z.zone));
    let Some((shape, zone)) = target else {
        out.push_str("-- no active zone\n");
        return out;
    };
    let step = match live.drag(shape, zone, 3.0, 2.0) {
        Err(e) => format!("refused: {e}"),
        Ok(drag) if live.commit_fast(&drag.subst) => "fast".to_string(),
        Ok(drag) => match live.commit(&drag.subst) {
            Ok(()) => "full".to_string(),
            Err(e) => format!("failed: {e}"),
        },
    };
    let _ = writeln!(out, "-- commit {shape} {zone}: {step}");
    describe(&mut out, live.canvas());
    out
}

#[test]
fn corpus_canvases_match_the_golden_fixture() {
    let mut actual = String::new();
    for ex in sketch_n_sketch::examples::ALL {
        actual.push_str(&golden_of(ex.slug, ex.source));
    }
    if actual != FIXTURE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("canvas_golden.txt");
        std::fs::write(&path, &actual).expect("writes the actual golden");
        let first = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(actual.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "canvas golden drifted at line {}; actual output written to {}",
            first + 1,
            path.display()
        );
    }
}
