//! Micro-bench for the live-synchronization inner loop, ported from
//! Criterion to the in-repo harness (`cargo bench --bench drag`).
//!
//! One mouse-move event = fire the trigger (SolveOne per attribute) + the
//! tier proof that the update preserves control flow; no canvas is built.
//! The full path instead re-evaluates the updated program from scratch as
//! its refusal check (the pre-fast-path behaviour). Commit contrasts the
//! incremental re-preparation against a full prepare the same way.

use bench::{ms, summarize, time_commit_paths, time_drag_steps};

const SLUGS: &[&str] = &["three_boxes", "wave_boxes", "ferris_wheel", "keyboard"];
const STEPS: usize = 50;
const COMMITS: usize = 20;

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
