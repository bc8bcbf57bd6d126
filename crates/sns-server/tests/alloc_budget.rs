//! Allocation budgets for the `set_code` and commit paths and for a
//! canvas, counted exactly by a counting global allocator: what a timing
//! gate cannot resolve on a small, noisy host, a count resolves
//! deterministically.
//!
//! * Evaluating a program allocates per binding, cons cell, closure and
//!   operation trace, and nothing more: no name strings, argument vectors
//!   or trace argument vectors. The budgets are the counts measured when
//!   that was made so, plus 10%.
//! * The canvas body of a reply is written in one pass into one string:
//!   its allocations do not grow with the canvas's zone count.
//! * A fast-tier commit copies no AST: the undo point shares the
//!   program's expressions and copies its ρ₀ in one allocation, and the
//!   update rebinds ρ₀ and splices the code text. Its trace-tape sweep
//!   works in the tape's own buffers, and the swept numbers are stored
//!   into the canvas's value array, which allocates nothing. Its
//!   allocations do not grow with the program's size.
//! * A canvas holds each number once: building one allocates its SVG
//!   tree, its value array and one path per shape, and copies no node.
//!   The tree reads the program's output in place: it copies no list of
//!   it, and shares its strings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sns_eval::{Program, TraceTape};
use sns_lang::Subst;
use sns_server::session::Session;
use sns_svg::Canvas;

/// Counts the allocations (and reallocations) of the current thread, so
/// tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; counting touches only a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Post-change allocation counts of one evaluation, plus 10%. The
/// evaluator these replaced allocated 5 056, 24 424 and 15 342 times.
/// Moving environments, cons cells and closures from `Arc` to `Rc` left
/// the counts exactly as they were: an `Rc` allocates what an `Arc` did,
/// only its reference count is not atomic.
const EVAL_BUDGETS: [(&str, u64); 3] = [
    ("keyboard", 2_016 * 11 / 10),
    ("us13_flag", 9_458 * 11 / 10),
    ("us50_flag", 5_974 * 11 / 10),
];

#[test]
fn evaluation_stays_within_its_allocation_budget() {
    for (slug, budget) in EVAL_BUDGETS {
        let src = sns_examples::by_slug(slug).expect("corpus example").source;
        let program = Program::parse(src).expect("corpus parses");
        program.eval_traced().expect("corpus runs");
        let (n, outcome) = allocations(|| program.eval_traced());
        outcome.expect("corpus runs");
        eprintln!("{slug}: {n} allocations per evaluation (budget {budget})");
        assert!(n <= budget, "{slug}: {n} allocations > budget {budget}");
    }
}

/// Allocations one canvas body may make: the string it is written into
/// and that string's growth, which is logarithmic in its length.
const CANVAS_BUDGET: u64 = 16;

#[test]
fn the_canvas_body_allocates_o1_per_reply() {
    let mut counts = Vec::new();
    for ex in sns_examples::ALL {
        let session = Session::create(ex.slug.to_string(), ex.source).expect("corpus runs");
        let zones = session.editor().live().assignments().zones.len();
        let (n, body) = allocations(|| session.canvas_body());
        assert!(
            n <= CANVAS_BUDGET,
            "{}: {n} allocations for {zones} zones ({} bytes)",
            ex.slug,
            body.len()
        );
        counts.push((zones, n));
    }
    counts.sort_unstable();
    let (few, most) = (counts[0], counts[counts.len() - 1]);
    eprintln!("canvas body allocations: {few:?} .. {most:?} (zones, allocations)");
    assert!(most.0 >= 40 * few.0.max(1), "the corpus spans zone counts");
}

/// The programs of the livebench workloads (`drag_large` and
/// `edit_durable`).
const LIVEBENCH_PROGRAMS: [&str; 14] = [
    "us50_flag",
    "fractal_tree",
    "sliders",
    "keyboard",
    "tessellation",
    "us13_flag",
    "spiral",
    "wave_boxes",
    "ferris_wheel",
    "frank_lloyd_wright",
    "solar_system",
    "pie_chart",
    "pop_pl_logo",
    "bar_graph",
];

/// Allocations one fast-tier commit may make, whatever the program's
/// size: 10 on every one of these programs since the tape sweep writes in
/// place (12–13 while each sweep allocated a changed-node vector, a copy
/// of every tape value and an argument buffer). Copying the user AST for
/// the undo point and rewriting its literals took 66–135, rising with the
/// AST's size.
const COMMIT_BUDGET: u64 = 10;

#[test]
fn a_fast_tier_commit_allocates_o1() {
    let mut counts = Vec::new();
    for slug in LIVEBENCH_PROGRAMS {
        let src = sns_examples::by_slug(slug).expect("corpus example").source;
        let session = || Session::create(slug.to_string(), src).expect("corpus runs");
        let (mut session, mut twin) = (session(), session());
        let live = session.editor().live();
        let (shape, zone) = live
            .assignments()
            .zones
            .iter()
            .map(|z| (z.shape, z.zone))
            .find(|&(shape, zone)| live.drag_is_proof_only(shape, zone))
            .expect("a proof-only zone");
        session.drag(shape, zone, 3.0, -2.0).expect("drags");
        twin.drag(shape, zone, 3.0, -2.0).expect("drags");
        let before = session.editor().live_stats();
        let (n, committed) = allocations(|| session.commit());
        committed.expect("commits");
        let took = session.editor().live_stats().since(&before);
        assert_eq!(
            took.incremental_prepares, 1,
            "{slug}: not a fast-tier commit"
        );
        // The fast step alone, as the server's event loop runs it, does
        // no more.
        let (fast, took_it) = allocations(|| twin.commit_fast());
        assert!(took_it, "{slug}: the fast step declined");
        assert_eq!(twin.code(), session.code());
        let size = session.editor().program().user_expr().size();
        assert!(
            n.max(fast) <= COMMIT_BUDGET,
            "{slug}: {n} allocations for a commit ({fast} for its fast step) on {size} AST nodes"
        );
        counts.push((size, n));
    }
    counts.sort_unstable();
    let (few, most) = (counts[0], counts[counts.len() - 1]);
    eprintln!("commit allocations: {few:?} .. {most:?} (AST nodes, allocations)");
    assert!(most.0 >= 2 * few.0, "the programs span sizes");
}

/// The write step of a fast-tier commit, which stores the numbers a sweep
/// changed into the canvas's value array by index, allocates nothing.
#[test]
fn the_commit_write_step_allocates_nothing() {
    for slug in LIVEBENCH_PROGRAMS {
        let src = sns_examples::by_slug(slug).expect("corpus example").source;
        let program = Program::parse(src).expect("corpus parses");
        let mut canvas = Canvas::from_value(&program.eval().expect("corpus runs")).expect("SVG");
        let rho0 = program.rho0();
        let mut tape = TraceTape::builder(rho0);
        let mut outputs = Vec::new();
        canvas.for_each_num(|num| outputs.push(tape.push(&num.t)));
        let mut tape = tape.finish();
        // Move every user literal by a quarter: most numbers change.
        let update: Subst = rho0
            .iter()
            .filter(|&(l, _)| !program.is_prelude_loc(l))
            .map(|(l, v)| (l, v + 0.25))
            .collect();
        let sweep = tape.sweep(&update).expect("the tape sweeps");
        let before = canvas.nums().to_vec();
        let (n, ()) = allocations(|| canvas.write_nums(|i| sweep.get(outputs[i])));
        let written = before
            .iter()
            .zip(canvas.nums())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        eprintln!("{slug}: {written} numbers written, {n} allocations");
        assert!(written > 0, "{slug}: the sweep changed no canvas number");
        assert_eq!(n, 0, "{slug}: the write step allocated");
    }
}

/// Allocations a canvas may make beyond its SVG tree's and one path per
/// shape: its shape table and the path stack it is built with, which grow
/// logarithmically. On these programs a canvas takes its tree's count plus
/// its shapes plus 2–6 (us50_flag: 142 = 72 + 64 + 6). While every shape
/// kept a clone of its node, it took 1.4–1.5 times its tree's count
/// (us50_flag 1 349, fractal_tree 848, keyboard 683, bar_graph 178).
const CANVAS_TABLE_BUDGET: u64 = 16;

/// Allocations an SVG tree may make per shape, plus [`TREE_BUDGET`]: the
/// node's attribute vector and its child vector, and its share of the
/// value array's growth. The tree shares the output's strings (kind,
/// attribute names, string values) instead of copying them, so these
/// trees take 1.1–2.8 per shape (us50_flag 72 for 64 shapes, pie_chart
/// 22 for 8), and at most 1.7 per shape over [`TREE_BUDGET`]
/// (tessellation 64 for 28). While every name and string was copied into
/// a fresh `String`, they took 7.1–9.6 (us50_flag 464, sliders 288 for
/// 30); while the tree was also built from a copy of every list it read,
/// 13.3–22.0 (us50_flag 882).
const TREE_PER_SHAPE: u64 = 2;

/// See [`TREE_PER_SHAPE`]: the root `svg` node's own allocations and the
/// value array's first growth steps.
const TREE_BUDGET: u64 = 16;

#[test]
fn a_canvas_allocates_its_tree_and_one_path_per_shape() {
    let mut over = Vec::new();
    for slug in LIVEBENCH_PROGRAMS {
        let src = sns_examples::by_slug(slug).expect("corpus example").source;
        let value = Program::parse(src)
            .expect("corpus parses")
            .eval()
            .expect("corpus runs");
        let (tree, node) = allocations(|| sns_svg::node_from_value(&value, &mut Vec::new()));
        node.expect("an SVG tree");
        let (n, canvas) = allocations(|| sns_svg::Canvas::from_value(&value));
        let shapes = canvas.expect("a canvas").shapes().len() as u64;
        let budget = tree + shapes + CANVAS_TABLE_BUDGET;
        eprintln!("{slug}: {n} allocations for a canvas ({tree} for its tree, {shapes} shapes)");
        if n > budget {
            over.push(format!(
                "{slug}: {n} > {tree} for the tree + {shapes} shapes + {CANVAS_TABLE_BUDGET}"
            ));
        }
        let tree_budget = TREE_PER_SHAPE * shapes + TREE_BUDGET;
        if tree > tree_budget {
            over.push(format!(
                "{slug}: tree {tree} > {TREE_PER_SHAPE} × {shapes} shapes + {TREE_BUDGET}"
            ));
        }
    }
    assert!(over.is_empty(), "canvases over budget: {over:#?}");
}
