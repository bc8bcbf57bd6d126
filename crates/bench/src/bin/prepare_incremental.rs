//! Benchmarks commit re-preparation: the full re-evaluate + re-prepare
//! path against the incremental path (a trace-tape sweep written into the
//! canvas in place and committed to the tape), per corpus example — plus
//! `set_code` edits served by AST-diff classification.
//!
//! ```sh
//! cargo run --release -p bench --bin prepare_incremental [SLUG…]
//! ```
//!
//! With no arguments the whole 55-example corpus is measured at full
//! depth; with slugs, only those examples get the deep per-example table,
//! while `median_speedup_all` still sweeps the entire corpus at reduced
//! depth (it is a corpus-wide statistic, not a statistic of the
//! selection). Writes `BENCH_prepare.json` and exits non-zero when any
//! gate fails.

use bench::{
    ms, set_code_workload_sources, summarize, time_commit_paths, time_set_code, CommitTiming,
    SetCodeTiming,
};
use sns_sync::{LiveStats, SetCodeClass};

/// Commits timed per selected example per path.
const COMMITS: usize = 30;

/// Commits for the corpus-wide sweep behind `median_speedup_all` when a
/// slug selection narrows the deep table.
const QUICK_COMMITS: usize = 6;

/// `set_code` edits timed per workload per path.
const EDITS: usize = 20;

/// The "largest examples" window the gate and headline median use.
const LARGEST: usize = 10;

/// The gate on the largest examples' median of tape rebuild over
/// incremental commit.
const REBUILD_FLOOR: f64 = 1.0;

/// The gate on the largest examples' median share of the tape an
/// incremental commit's sweep changes.
const SWEPT_CEILING: f64 = 0.5;

/// The gate on the `subtree_dead` `set_code` speedup. Keeping every
/// analysis, trigger and the index when the re-evaluated canvas is
/// unchanged measured 3.1–3.8x (fourteen runs, 2-vCPU VM, pinned);
/// re-choosing and rebuilding them all measured 1.3–1.9x (eight runs).
const DEAD_FLOOR: f64 = 2.2;

fn main() {
    let slugs: Vec<String> = std::env::args().skip(1).collect();
    let ok = sns_eval::with_big_stack(move || run(&slugs));
    if !ok {
        std::process::exit(1);
    }
}

fn run(slugs: &[String]) -> bool {
    let selected: Vec<_> = if slugs.is_empty() {
        sns_examples::ALL.iter().collect()
    } else {
        slugs
            .iter()
            .map(|s| {
                sns_examples::by_slug(s).unwrap_or_else(|| panic!("no corpus example named `{s}`"))
            })
            .collect()
    };

    println!(
        "{:<24} {:>6} {:>6} {:>12} {:>12} {:>9} {:>12} {:>8} {:>6}  path",
        "Example",
        "shapes",
        "zones",
        "full/commit",
        "incr/commit",
        "speedup",
        "tape build",
        "rebuild",
        "swept"
    );
    let mut rows: Vec<CommitTiming> = Vec::with_capacity(selected.len());
    for ex in &selected {
        let t = time_commit_paths(ex, COMMITS);
        println!(
            "{:<24} {:>6} {:>6} {:>12} {:>12} {:>8.1}x {:>12} {:>7.2}x {:>6.3}  {}",
            t.name,
            t.shapes,
            t.zones,
            ms(t.full),
            ms(t.incremental),
            t.speedup(),
            ms(t.tape_rebuild),
            t.rebuild_ratio(),
            t.swept_share(),
            if t.fast_path {
                "incremental"
            } else {
                "fallback"
            },
        );
        rows.push(t);
    }

    // `median_speedup_all` is a whole-corpus statistic: when a slug
    // selection narrowed the deep table, sweep the remaining examples at
    // reduced depth rather than silently aliasing the selection median.
    let mut corpus: Vec<CommitTiming> = rows.clone();
    if !slugs.is_empty() {
        for ex in sns_examples::ALL.iter() {
            if rows.iter().any(|r| r.slug == ex.slug) {
                continue;
            }
            corpus.push(time_commit_paths(ex, QUICK_COMMITS));
        }
    }

    // The headline number: median speedup across the largest corpus
    // examples (by zone count — the unit full prepare scales with).
    let mut by_size = corpus.clone();
    by_size.sort_by_key(|t| std::cmp::Reverse(t.zones));
    let largest: Vec<&CommitTiming> = by_size.iter().take(LARGEST).collect();
    let largest_speedups: Vec<f64> = largest.iter().map(|t| t.speedup()).collect();
    let all_speedups: Vec<f64> = corpus.iter().map(|t| t.speedup()).collect();
    let largest_median = summarize(&largest_speedups).med;
    let rebuild_ratios: Vec<f64> = largest.iter().map(|t| t.rebuild_ratio()).collect();
    let rebuild_median = summarize(&rebuild_ratios).med;
    let swept_shares: Vec<f64> = largest.iter().map(|t| t.swept_share()).collect();
    let swept_median = summarize(&swept_shares).med;
    let overall_median = summarize(&all_speedups).med;
    let fast = corpus.iter().filter(|t| t.fast_path).count();

    let (base, edits) = set_code_workload_sources();
    let set_codes: Vec<SetCodeTiming> = edits
        .iter()
        .map(|(label, edited)| time_set_code(label, &base, edited, EDITS))
        .collect();

    println!();
    println!(
        "fast-path examples          {fast}/{} ({} fallback)",
        corpus.len(),
        corpus.len() - fast
    );
    println!(
        "median speedup (largest {})  {largest_median:.1}x",
        largest.len()
    );
    println!(
        "median speedup (all {})     {overall_median:.1}x",
        corpus.len()
    );
    println!(
        "median rebuild/commit (largest {})  {rebuild_median:.2}x",
        largest.len()
    );
    println!(
        "median swept share (largest {})     {swept_median:.3}",
        largest.len()
    );
    for t in &set_codes {
        println!(
            "set_code {:<12}       {} full / {} diffed = {:.1}x ({:?})",
            t.label,
            ms(t.full),
            ms(t.diffed),
            t.speedup,
            t.class,
        );
    }

    let mut json = String::from("{\n  \"bench\": \"prepare_incremental\",\n");
    json.push_str(&format!("  \"commits_per_example\": {COMMITS},\n"));
    json.push_str(&format!(
        "  \"median_speedup_largest_{}\": {largest_median:.2},\n",
        largest.len()
    ));
    json.push_str(&format!(
        "  \"median_speedup_all\": {overall_median:.2},\n  \"corpus_examples\": {},\n",
        corpus.len()
    ));
    json.push_str(&format!(
        "  \"median_rebuild_ratio_largest_{}\": {rebuild_median:.2},\n",
        largest.len()
    ));
    json.push_str(&format!(
        "  \"median_swept_share_largest_{}\": {swept_median:.3},\n",
        largest.len()
    ));
    json.push_str("  \"set_code_workload\": {\n");
    for (i, t) in set_codes.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"full_ms\": {:.4}, \"diffed_ms\": {:.4}, \"speedup\": {:.2}, \
             \"class\": \"{:?}\", \"full_prepares\": {}, \"partial_prepares\": {}}}{}\n",
            t.label,
            t.full * 1000.0,
            t.diffed * 1000.0,
            t.speedup,
            t.class,
            t.counted.full_prepares,
            t.counted.partial_prepares,
            if i + 1 == set_codes.len() { "" } else { "," },
        ));
    }
    json.push_str("  },\n  \"examples\": [\n");
    for (i, t) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"slug\": \"{}\", \"shapes\": {}, \"zones\": {}, \"full_ms\": {:.4}, \
             \"incremental_ms\": {:.4}, \"speedup\": {:.2}, \"tape_rebuild_ms\": {:.4}, \
             \"rebuild_ratio\": {:.2}, \"swept_share\": {:.3}, \"fast_path\": {}}}{}\n",
            t.slug,
            t.shapes,
            t.zones,
            t.full * 1000.0,
            t.incremental * 1000.0,
            t.speedup(),
            t.tape_rebuild * 1000.0,
            t.rebuild_ratio(),
            t.swept_share(),
            t.fast_path,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_prepare.json", &json).expect("write BENCH_prepare.json");
    eprintln!("wrote BENCH_prepare.json");

    gates(&largest, rebuild_median, swept_median, &set_codes)
}

/// Regression gates. Each failure is reported; any failure exits non-zero.
fn gates(
    largest: &[&CommitTiming],
    rebuild_median: f64,
    swept_median: f64,
    set_codes: &[SetCodeTiming],
) -> bool {
    let mut ok = true;

    // Incremental must beat full on the largest examples, and must
    // actually *be* incremental there — a fallback measures the full path
    // twice, making the speedup ~1 by construction, so timing alone would
    // miss a silently disabled fast path.
    let fallbacks: Vec<&str> = largest
        .iter()
        .filter(|t| !t.fast_path)
        .map(|t| t.slug)
        .collect();
    if !fallbacks.is_empty() {
        eprintln!("FAIL: fast path disabled on large examples: {fallbacks:?}");
        ok = false;
    }
    // A fast-tier commit sweeps the tape from the first changed leaf and
    // writes the changed values in place; it compiles nothing. Gated
    // against a tape compile of the same canvas, not against the full
    // prepare, so a faster evaluation or analysis cannot lower it.
    if rebuild_median < REBUILD_FLOOR {
        eprintln!(
            "FAIL: a tape rebuild is only {rebuild_median:.2}x an incremental commit \
             (floor {REBUILD_FLOOR}x)"
        );
        ok = false;
    }
    // The same by count, free of timing noise: a commit compiles no tape
    // node, and its sweep changes only the nodes downstream of the
    // update's leaves.
    let compiling: Vec<&str> = largest
        .iter()
        .filter(|t| t.commit_tape_work.compiled > 0)
        .map(|t| t.slug)
        .collect();
    if !compiling.is_empty() {
        eprintln!("FAIL: incremental commits compiled tape nodes on {compiling:?}");
        ok = false;
    }
    if swept_median > SWEPT_CEILING {
        eprintln!(
            "FAIL: incremental commits changed {swept_median:.3} of their tapes \
             (ceiling {SWEPT_CEILING})"
        );
        ok = false;
    }

    for t in set_codes {
        // What the timed edits must add to the session's counters: the
        // path each took, by count, free of timing noise.
        let n = t.edits as u64;
        let full = LiveStats {
            full_prepares: n,
            fallback_structural: n,
            ..LiveStats::default()
        };
        let (want_class, floor, want_counted) = match t.label {
            "literal" => (
                SetCodeClass::Literals,
                3.0,
                LiveStats {
                    incremental_prepares: n,
                    ..LiveStats::default()
                },
            ),
            // The swapped operator is drawn, so the canvas changes and
            // each edit prepares in full.
            "subtree" => (SetCodeClass::Reevaluated, 0.9, full),
            // No zone depends on the edited region, so the canvas is
            // unchanged and every analysis, trigger and the index stand.
            "subtree_dead" => (
                SetCodeClass::Reevaluated,
                DEAD_FLOOR,
                LiveStats {
                    partial_prepares: n,
                    ..LiveStats::default()
                },
            ),
            // A new shape: the full path on both sides; the floor only
            // guards against pathological overhead before it.
            _ => (SetCodeClass::Reevaluated, 0.5, full),
        };
        if t.class != want_class {
            eprintln!(
                "FAIL: set_code {} workload classified as {:?}, expected {:?}",
                t.label, t.class, want_class
            );
            ok = false;
        }
        if t.counted != want_counted {
            eprintln!(
                "FAIL: set_code {} workload counted {:?} over {n} edits, expected {:?}",
                t.label, t.counted, want_counted
            );
            ok = false;
        }
        // The median of per-edit paired ratios: each pair is timed back
        // to back, so host noise moves both sides of a pair together.
        if t.speedup < floor {
            eprintln!(
                "FAIL: set_code {} speedup {:.2}x < {floor}x",
                t.label, t.speedup
            );
            ok = false;
        }
    }
    ok
}
