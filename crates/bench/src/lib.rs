//! Measurement harness shared by the table binaries and Criterion benches.
//!
//! Every table and figure in the paper's evaluation has a regenerating
//! binary in `src/bin/` (see DESIGN.md's per-experiment index):
//!
//! | Experiment | Binary |
//! |---|---|
//! | Figure 1D | `fig1_candidates` |
//! | §5.2.1 Active Zones (+ App. G zone table) | `table_zones` |
//! | §5.2.2 Solving Equations (+ App. G fragments) | `table_solvability` |
//! | §5.2.3 Performance (+ App. G timings) | `table_performance` |
//! | App. G location table | `table_locations` |
//! | App. E/F user study | `user_study` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tables;

use std::sync::Arc;
use std::time::Instant;

use sns_eval::{FreezeMode, Program};
use sns_examples::Example;
use sns_lang::{LocId, Subst};
use sns_server::json::Json;
use sns_solver::Equation;
use sns_svg::Canvas;
use sns_sync::{
    analyze_canvas, location_stats, pre_equations, solvability, unique_pre_equations, Assignments,
    Heuristic, LiveConfig, LiveError, LiveSync, LocationStats, PreEquation, SolvabilityStats,
    ZoneStats,
};

/// Everything the tables need about one corpus example.
#[derive(Debug)]
pub struct Measurement {
    /// Display name (Appendix G row).
    pub name: &'static str,
    /// Slug.
    pub slug: &'static str,
    /// Lines of `little` code (comments/blanks excluded).
    pub loc: usize,
    /// Shape count.
    pub shapes: usize,
    /// §5.2.1 zone statistics.
    pub zones: ZoneStats,
    /// Appendix G location statistics.
    pub locations: LocationStats,
    /// §5.2.2 pre-equations (before deduplication).
    pub pre_eq_total: usize,
    /// Unique pre-equations, kept for solver timing.
    pub unique_eqs: Vec<PreEquation>,
    /// §5.2.2 solvability statistics on the unique pre-equations.
    pub solvability: SolvabilityStats,
    /// The program's substitution ρ0 (for solver timing).
    pub rho0: Subst,
}

/// Measures one example: run, prepare (fair heuristic, default freeze
/// mode), extract statistics.
///
/// # Panics
///
/// Panics if the example fails to run — corpus integrity is enforced by
/// the `sns-examples` tests.
pub fn measure(example: &Example) -> Measurement {
    let program = Program::parse(example.source).expect("corpus parses");
    let canvas =
        Canvas::from_value(&program.eval().expect("corpus evaluates")).expect("corpus renders");
    let mode = FreezeMode::default();
    let frozen = |l: LocId| program.is_frozen(l, mode);
    let assignments = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
    measure_prepared(example, &program, &canvas, &assignments)
}

fn measure_prepared(
    example: &Example,
    program: &Program,
    canvas: &Canvas,
    assignments: &Assignments,
) -> Measurement {
    let mode = FreezeMode::default();
    let frozen = |l: LocId| program.is_frozen(l, mode);
    let eqs = pre_equations(assignments);
    let unique = unique_pre_equations(&eqs);
    let rho0 = program.subst();
    let solv = solvability(&rho0, &unique);
    Measurement {
        name: example.name,
        slug: example.slug,
        loc: example
            .source
            .lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with(';')
            })
            .count(),
        shapes: canvas.shapes().len(),
        zones: assignments.zone_stats(),
        locations: location_stats(canvas, assignments, &frozen),
        pre_eq_total: eqs.len(),
        unique_eqs: unique,
        solvability: solv,
        rho0,
    }
}

/// Measures the whole corpus.
pub fn measure_corpus() -> Vec<Measurement> {
    sns_examples::ALL.iter().map(measure).collect()
}

/// Wall-clock timings of the §5.2.3 operations for one example.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Parse time (seconds).
    pub parse: f64,
    /// Eval time (seconds).
    pub eval: f64,
    /// Unparse time (seconds).
    pub unparse: f64,
    /// Prepare time: assignments + triggers (seconds).
    pub prepare: f64,
    /// Full "Run Code": parse + eval + canvas + prepare (seconds).
    pub run: f64,
}

/// Times one example `runs` times and returns each run's timings.
///
/// Each phase runs `runs` times in its own loop, over one parsed program
/// and one canvas, so no phase's timing sits between another phase's
/// allocations: the `i`-th timing holds the `i`-th run of each phase.
/// What a phase returns is dropped after its clock stops.
///
/// # Panics
///
/// Panics if the example fails to run.
pub fn time_example(example: &Example, runs: usize) -> Vec<Timing> {
    let program = Program::parse(example.source).expect("parse");
    let parse: Vec<f64> = (0..runs)
        .map(|_| timed(|| Program::parse(example.source).expect("parse")))
        .collect();
    let eval: Vec<f64> = (0..runs)
        .map(|_| timed(|| program.eval().expect("eval")))
        .collect();
    // A clone of a program never unparsed has no cached text to share.
    let unparse: Vec<f64> = (0..runs)
        .map(|_| {
            let fresh = program.clone();
            timed(|| fresh.code())
        })
        .collect();
    let canvas = Canvas::from_value(&program.eval().expect("eval")).expect("canvas");
    let mode = FreezeMode::default();
    let frozen = |l: LocId| program.is_frozen(l, mode);
    let prepare: Vec<f64> = (0..runs)
        .map(|_| {
            timed(|| {
                let assignments = analyze_canvas(&canvas, &frozen, Heuristic::Fair);
                let triggers = assignments
                    .zones
                    .iter()
                    .filter(|z| sns_sync::Trigger::compute(z).is_some())
                    .count();
                assert!(triggers <= assignments.zones.len());
                assignments
            })
        })
        .collect();
    (0..runs)
        .map(|i| Timing {
            parse: parse[i],
            eval: eval[i],
            unparse: unparse[i],
            prepare: prepare[i],
            run: parse[i] + eval[i] + prepare[i],
        })
        .collect()
}

/// Seconds `f` takes; what it returns is dropped once the clock stops.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    drop(out);
    secs
}

/// Representative slugs the micro-benches (`benches/*.rs`) run against.
pub const MICRO_BENCH_SLUGS: &[&str] = &[
    "three_boxes",
    "wave_boxes",
    "ferris_wheel",
    "keyboard",
    "tessellation",
];

/// Shared body of the parse/eval/prepare micro-benches: times each
/// representative example `runs` times and prints a min/med/avg/max row
/// for the [`Timing`] field selected by `field`.
pub fn print_timing_table(label: &str, runs: usize, field: fn(&Timing) -> f64) {
    println!("{label} ({runs} runs: min / med / avg / max)");
    for slug in MICRO_BENCH_SLUGS {
        let ex = sns_examples::by_slug(slug).expect("example exists");
        let times: Vec<f64> = time_example(ex, runs).iter().map(field).collect();
        let s = summarize(&times);
        println!(
            "  {:<16} {:>8} {:>8} {:>8} {:>8}",
            slug,
            ms(s.min),
            ms(s.med),
            ms(s.avg),
            ms(s.max)
        );
    }
}

/// Full-vs-incremental commit re-preparation timings for one example
/// (the `prepare_incremental` bench and the CI smoke gate).
#[derive(Debug, Clone)]
pub struct CommitTiming {
    /// Example slug.
    pub slug: &'static str,
    /// Display name.
    pub name: &'static str,
    /// Shape count (canvas size proxy).
    pub shapes: usize,
    /// Zone count (the unit `prepare` scales with).
    pub zones: usize,
    /// Median seconds per commit on the full re-evaluate + re-prepare path.
    pub full: f64,
    /// Median seconds per commit on the incremental path.
    pub incremental: f64,
    /// Median seconds to compile the incremental session's traces onto a
    /// fresh trace tape: the work a prepare does per canvas and a commit
    /// must not. Evaluation and analysis are not in it, so it is the
    /// reference a faster full prepare does not move.
    pub tape_rebuild: f64,
    /// The trace-tape work of the timed incremental commits.
    pub commit_tape_work: sns_sync::TapeWork,
    /// Whether the measured commits actually ran incrementally (a
    /// control-flow-safe zone existed); when false both columns measured
    /// the fallback and the speedup is ~1 by construction.
    pub fast_path: bool,
}

impl CommitTiming {
    /// Full-path time over incremental-path time.
    pub fn speedup(&self) -> f64 {
        if self.incremental > 0.0 {
            self.full / self.incremental
        } else {
            f64::INFINITY
        }
    }

    /// The share of their tapes the incremental commits' sweeps changed.
    pub fn swept_share(&self) -> f64 {
        let work = self.commit_tape_work;
        if work.swept_of > 0 {
            work.swept as f64 / work.swept_of as f64
        } else {
            0.0
        }
    }

    /// Tape-rebuild time over incremental-commit time: how many commits
    /// fit in the tape compile a commit skips.
    pub fn rebuild_ratio(&self) -> f64 {
        if self.incremental > 0.0 {
            self.tape_rebuild / self.incremental
        } else {
            f64::INFINITY
        }
    }
}

/// Seconds per compile of `live`'s canvas numbers and trigger parts onto
/// a fresh [`sns_eval::TraceTape`], as a prepare compiles them: each part
/// reads its attribute's canvas number, already on the tape.
fn time_tape_rebuilds(live: &LiveSync, rebuilds: usize) -> Vec<f64> {
    let rho0 = live.program().subst();
    let canvas = live.canvas();
    let triggers: Vec<_> = live
        .assignments()
        .zones
        .iter()
        .filter_map(|z| live.trigger(z.shape, z.zone))
        .collect();
    (0..rebuilds)
        .map(|_| {
            let t0 = Instant::now();
            let mut tape = sns_eval::TraceTape::builder(&rho0);
            let mut outputs = Vec::new();
            canvas.for_each_num(|num| outputs.push(tape.push(&num.t)));
            for trigger in &triggers {
                let shape = canvas.shape(trigger.shape);
                for part in &trigger.parts {
                    let num = shape.and_then(|s| sns_svg::resolve_attr(s.node, &part.attr));
                    std::hint::black_box(num.map(|num| tape.push(&num.t)));
                }
            }
            std::hint::black_box((tape.finish(), outputs));
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// The reference commit: the program under `subst`, re-evaluated and
/// prepared in full.
fn full_commit(live: &mut LiveSync, subst: &Subst) -> Result<(), LiveError> {
    live.replace_program(live.program().with_subst(subst))
}

/// Drives `commits` drag+`commit` cycles on one session and returns
/// seconds per commit. Drags alternate direction so values stay near the
/// original program's.
fn time_commits(
    live: &mut LiveSync,
    shape: sns_svg::ShapeId,
    zone: sns_svg::Zone,
    commits: usize,
    commit: fn(&mut LiveSync, &Subst) -> Result<(), LiveError>,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(commits);
    let mut sign = 1.0;
    for _ in 0..commits {
        let result = live.drag(shape, zone, sign * 2.0, sign).expect("drag");
        let t0 = Instant::now();
        commit(live, &result.subst).expect("commit");
        out.push(t0.elapsed().as_secs_f64());
        sign = -sign;
    }
    out
}

/// Measures one example's commit latency on both prepare paths.
///
/// # Panics
///
/// Panics if the example fails to run or has no active zone.
pub fn time_commit_paths(example: &Example, commits: usize) -> CommitTiming {
    let program = Program::parse(example.source).expect("corpus parses");
    let mut incremental =
        LiveSync::new(program.clone(), LiveConfig::default()).expect("corpus prepares");
    let mut full = LiveSync::new(program, LiveConfig::default()).expect("corpus prepares");

    let active: Vec<_> = incremental
        .assignments()
        .zones
        .iter()
        .filter(|z| z.is_active())
        .map(|z| (z.shape, z.zone))
        .collect();
    assert!(!active.is_empty(), "{}: no active zone", example.slug);
    // Prefer a zone whose updates provably cannot change control flow, so
    // the incremental session actually exercises the incremental path.
    let (shape, zone) = active
        .iter()
        .copied()
        .find(|&(s, z)| {
            incremental
                .drag(s, z, 2.0, 1.0)
                .map(|r| !r.subst.is_empty() && incremental.control_flow_safe(&r.subst))
                .unwrap_or(false)
        })
        .unwrap_or(active[0]);

    let shapes = incremental.canvas().shapes().len();
    let zones = incremental.assignments().zones.len();
    let before = incremental.tape_work();
    let incr_times = time_commits(&mut incremental, shape, zone, commits, LiveSync::commit);
    let after = incremental.tape_work();
    let rebuild_times = time_tape_rebuilds(&incremental, commits);
    let full_times = time_commits(&mut full, shape, zone, commits, full_commit);
    CommitTiming {
        slug: example.slug,
        name: example.name,
        shapes,
        zones,
        full: summarize(&full_times).med,
        incremental: summarize(&incr_times).med,
        tape_rebuild: summarize(&rebuild_times).med,
        commit_tape_work: sns_sync::TapeWork {
            compiled: after.compiled - before.compiled,
            swept: after.swept - before.swept,
            swept_of: after.swept_of - before.swept_of,
        },
        fast_path: incremental.stats().incremental_prepares >= commits as u64,
    }
}

/// Timings for one `set_code` edit class: the diff-classified path against
/// the unconditional full re-prepare. Both sides include the parse.
#[derive(Debug, Clone, Copy)]
pub struct SetCodeTiming {
    /// Workload label (JSON key).
    pub label: &'static str,
    /// How the diff classified the edit (sanity-checked by the gate).
    pub class: sns_sync::SetCodeClass,
    /// Median seconds per edit via [`sns_sync::LiveSync::set_program_diffed`].
    pub diffed: f64,
    /// Median seconds per edit via [`sns_sync::LiveSync::replace_program`].
    pub full: f64,
    /// Full-path time over diffed-path time: the median over edits of
    /// each edit's ratio, its two paths timed back to back, so a slow
    /// stretch of the host slows both sides of the pairs it spans.
    pub speedup: f64,
    /// Edits timed per path.
    pub edits: usize,
    /// What the timed edits added to the diffed session's counters.
    pub counted: sns_sync::LiveStats,
}

/// Times `edits` alternating `src_a`→`src_b`→`src_a`→… code replacements
/// on two sessions: one through the AST-diff path, one through the full
/// path. Each timed edit includes the parse (that is the user-visible
/// `set_code` latency).
///
/// # Panics
///
/// Panics if either source fails to run, or if the diff classification is
/// unstable across edits.
pub fn time_set_code(label: &'static str, src_a: &str, src_b: &str, edits: usize) -> SetCodeTiming {
    let session = || LiveSync::new(Program::parse(src_a).expect("parse"), LiveConfig::default());
    let mut diffed = session().expect("run");
    let mut full = session().expect("run");

    let mut class = None;
    let before = diffed.stats();
    let mut diffed_times = Vec::with_capacity(edits);
    let mut full_times = Vec::with_capacity(edits);
    for i in 0..edits {
        let target = if i % 2 == 0 { src_b } else { src_a };

        let t0 = Instant::now();
        let program = Program::parse(target).expect("parse");
        let c = diffed.set_program_diffed(program).expect("set_code");
        diffed_times.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            *class.get_or_insert(c),
            c,
            "{label}: unstable classification"
        );

        let t0 = Instant::now();
        let program = Program::parse(target).expect("parse");
        full.replace_program(program).expect("set_code");
        full_times.push(t0.elapsed().as_secs_f64());
    }
    let ratios: Vec<f64> = full_times
        .iter()
        .zip(&diffed_times)
        .map(|(f, d)| f / d)
        .collect();
    SetCodeTiming {
        label,
        class: class.expect("at least one edit"),
        diffed: summarize(&diffed_times).med,
        full: summarize(&full_times).med,
        speedup: summarize(&ratios).med,
        edits,
        counted: diffed.stats().since(&before),
    }
}

/// Sources for the `set_code` workloads: `base` is an unused definition
/// followed by a canvas of independent rects whose first x is
/// `(* 2 15)`, and each labelled edit of it is a workload: `literal`
/// nudges that rect's y (a literal no control flow observes); `subtree`
/// swaps that rect's operator (same literals, a drawn region, so the
/// canvas changes); `subtree_dead` swaps the unused definition's operator
/// (a region no zone depends on, so the canvas stays); `structural`
/// appends a shape.
pub fn set_code_workload_sources() -> (String, Vec<(&'static str, String)>) {
    let mut shapes = String::from("(rect 'c0' (* 2 15) 10 20 20) ");
    for j in 1..40 {
        shapes.push_str(&format!(
            "(rect 'c{j}' {} {} 18 18) ",
            40 + j * 22,
            60 + (j % 7) * 30
        ));
    }
    let dead = "(def unused (* 7 1313))";
    let base = format!("{dead}\n(svg [{shapes}])");
    let edits = vec![
        ("literal", base.replace("(* 2 15) 10 ", "(* 2 15) 11 ")),
        ("subtree", base.replace("(* 2 15)", "(+ 2 15)")),
        ("subtree_dead", base.replace("(* 7 1313)", "(+ 7 1313)")),
        (
            "structural",
            format!("{dead}\n(svg [{shapes}(rect 'extra' 900 200 12 12)])"),
        ),
    ];
    (base, edits)
}

/// Times `SolveOne` on each unique pre-equation (d = 1), returning seconds
/// per call.
pub fn time_solves(m: &Measurement) -> Vec<f64> {
    let mut out = Vec::with_capacity(m.unique_eqs.len());
    for eq in &m.unique_eqs {
        let equation = Equation::new(eq.n + 1.0, Arc::clone(&eq.trace));
        let t0 = Instant::now();
        let _ = sns_solver::solve(&m.rho0, eq.loc, &equation);
        out.push(t0.elapsed().as_secs_f64());
    }
    out
}

/// Min / median / average / max summary of a sample (the §5.2.3 row shape).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Minimum.
    pub min: f64,
    /// Median.
    pub med: f64,
    /// Average.
    pub avg: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarizes a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summary of empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Summary {
        min: sorted[0],
        med: sorted[sorted.len() / 2],
        avg: sorted.iter().sum::<f64>() / sorted.len() as f64,
        max: sorted[sorted.len() - 1],
    }
}

/// Formats seconds for table output: whole milliseconds from 1 ms up,
/// whole microseconds below, so sub-millisecond cells keep their
/// resolution.
pub fn ms(seconds: f64) -> String {
    let us = (seconds * 1e6).round();
    if us < 1000.0 {
        format!("{us:.0} µs")
    } else {
        format!("{:.0} ms", seconds * 1000.0)
    }
}

/// Member `key` of the JSON object `body` — a server reply or a `/stats`
/// document.
///
/// # Panics
///
/// Panics when `body` is not JSON or lacks `key`: a renamed server key
/// must fail the bench loudly rather than read as zero.
pub fn json_field(body: &str, key: &str) -> Json {
    let v = sns_server::json::parse(body).unwrap_or_else(|e| panic!("not JSON ({e}): {body}"));
    v.get(key)
        .cloned()
        .unwrap_or_else(|| panic!("no {key} in {body}"))
}

/// The string member `key` of `body`; panics as [`json_field`] does, or
/// when the member is not a string.
pub fn str_field(body: &str, key: &str) -> String {
    json_field(body, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key} is not a string in {body}"))
        .to_string()
}

/// The numeric member `key` of `body`; panics as [`json_field`] does, or
/// when the member is not a number.
pub fn num_field(body: &str, key: &str) -> f64 {
    json_field(body, key)
        .as_f64()
        .unwrap_or_else(|| panic!("{key} is not numeric in {body}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_wave_boxes() {
        let ex = sns_examples::by_slug("wave_boxes").unwrap();
        let m = measure(ex);
        assert_eq!(m.shapes, 12);
        assert_eq!(m.zones.total, 108);
        assert!(m.zones.active() > 0);
        assert!(!m.unique_eqs.is_empty());
    }

    #[test]
    fn commit_paths_time_both_routes() {
        let ex = sns_examples::by_slug("three_boxes").unwrap();
        let t = time_commit_paths(ex, 2);
        assert!(t.fast_path, "three_boxes drags should be control-flow safe");
        assert!(t.full > 0.0 && t.incremental > 0.0);
        assert!(t.zones > 0 && t.shapes > 0);
    }

    #[test]
    fn summarize_orders() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.med, s.max), (1.0, 2.0, 3.0));
        assert!((s.avg - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(0.0001), "100 µs");
        assert_eq!(ms(0.000_012_4), "12 µs");
        assert_eq!(ms(0.000_999_6), "1 ms");
        assert_eq!(ms(0.012), "12 ms");
    }

    #[test]
    fn json_fields_read_members() {
        let body = r#"{"id":"s1","requests":4,"reactor_conns":{"0":2}}"#;
        assert_eq!(str_field(body, "id"), "s1");
        assert_eq!(num_field(body, "requests"), 4.0);
        assert_eq!(
            num_field(&json_field(body, "reactor_conns").to_string(), "0"),
            2.0
        );
    }

    #[test]
    #[should_panic(expected = "no followers_connected in")]
    fn json_fields_reject_missing_keys() {
        num_field(r#"{"repl_followers_connected":1}"#, "followers_connected");
    }
}
