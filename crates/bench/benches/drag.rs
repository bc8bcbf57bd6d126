//! Micro-bench for the live-synchronization inner loop, ported from
//! Criterion to the in-repo harness (`cargo bench --bench drag`).
//!
//! One mouse-move event = fire the trigger (SolveOne per attribute) + the
//! tier proof that the update preserves control flow; no canvas is built.
//! The full path adds what the fast tier proves unnecessary: the updated
//! program re-evaluated from scratch into a canvas (the pre-fast-path
//! refusal check). Commit contrasts the incremental re-preparation against
//! a full prepare the same way.

use std::time::Instant;

use bench::{ms, summarize, time_commit_paths};
use sns_eval::Program;
use sns_examples::Example;
use sns_svg::Canvas;
use sns_sync::{LiveConfig, LiveSync};

const SLUGS: &[&str] = &["three_boxes", "wave_boxes", "ferris_wheel", "keyboard"];
const STEPS: usize = 50;
const COMMITS: usize = 20;

/// Seconds per drag step on an example's first active zone; with
/// `full_eval`, each step also evaluates its update in full.
fn time_drag_steps(example: &Example, steps: usize, full_eval: bool) -> Vec<f64> {
    let program = Program::parse(example.source).expect("corpus parses");
    let live = LiveSync::new(program, LiveConfig::default()).expect("corpus prepares");
    let (shape, zone) = live
        .assignments()
        .zones
        .iter()
        .find(|z| z.is_active())
        .map(|z| (z.shape, z.zone))
        .expect("an active zone");
    (0..steps)
        .map(|step| {
            let d = (step % 40) as f64;
            let t0 = Instant::now();
            let drag = live.drag(shape, zone, d, (d * 0.5) % 25.0).expect("drag");
            if full_eval {
                let value = live.program().with_subst(&drag.subst).eval().expect("eval");
                std::hint::black_box(Canvas::from_value(&value).expect("canvas"));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn main() {
    sns_eval::with_big_stack(|| {
        println!("drag step ({STEPS} moves: med tier proof vs med full re-eval)");
        for slug in SLUGS {
            let ex = sns_examples::by_slug(slug).expect("example exists");
            let fast = summarize(&time_drag_steps(ex, STEPS, false)).med;
            let full = summarize(&time_drag_steps(ex, STEPS, true)).med;
            println!(
                "  {:<16} {:>8} vs {:>8} ({:.1}x)",
                slug,
                ms(fast),
                ms(full),
                full / fast.max(f64::EPSILON)
            );
        }
        println!("commit ({COMMITS} commits: med incremental vs med full prepare)");
        for slug in SLUGS {
            let ex = sns_examples::by_slug(slug).expect("example exists");
            let t = time_commit_paths(ex, COMMITS);
            println!(
                "  {:<16} {:>8} vs {:>8} ({:.1}x, {})",
                slug,
                ms(t.incremental),
                ms(t.full),
                t.speedup(),
                if t.fast_path {
                    "incremental"
                } else {
                    "fallback"
                }
            );
        }
    });
}
