//! Renders the bench trajectory ledger (`BENCH_HISTORY.jsonl`) and
//! gates on regressions.
//!
//! For every `(bench, metric)` series on record the report prints the
//! trajectory — each row's git sha, timestamp, and value — and the
//! latest value's delta against the best same-host value on record. For
//! the [gated](bench::ledger::GATED) metrics, a latest value more than
//! [`MAX_REGRESSION`](bench::ledger::MAX_REGRESSION) worse than the
//! best *prior* same-host baseline exits non-zero, so CI catches a
//! performance slide the moment it lands instead of after it compounds.
//!
//! ```text
//! cargo run --release -p bench --bin bench_report
//! ```
//!
//! Baselines only compare within one host label (`SNS_BENCH_HOST`, or
//! the kernel hostname): absolute throughput on a laptop says nothing
//! about a CI box. A series with no prior same-host row passes — the
//! first run on a box *establishes* its baseline. CI sets no
//! `SNS_BENCH_HOST`, so a CI row's label is its runner's kernel hostname;
//! a row only meets a baseline when an earlier row came from a machine of
//! that same name.

use std::collections::BTreeMap;

use bench::ledger::{self, Direction, Row, GATED, MAX_REGRESSION};

/// Fractional change of `latest` against `best`, oriented so positive =
/// worse.
fn regression(dir: Direction, best: f64, latest: f64) -> f64 {
    if best == 0.0 {
        return 0.0;
    }
    match dir {
        Direction::HigherIsBetter => (best - latest) / best,
        Direction::LowerIsBetter => (latest - best) / best,
    }
}

fn is_better(dir: Direction, a: f64, b: f64) -> bool {
    match dir {
        Direction::HigherIsBetter => a > b,
        Direction::LowerIsBetter => a < b,
    }
}

fn direction_of(bench: &str, metric: &str) -> Option<Direction> {
    GATED
        .iter()
        .find(|&&(b, m, _)| b == bench && m == metric)
        .map(|&(_, _, d)| d)
}

fn main() {
    let rows = match ledger::read_rows() {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!(
                "bench_report: cannot read {:?}: {e}",
                ledger::history_path()
            );
            std::process::exit(1);
        }
    };
    if rows.is_empty() {
        println!(
            "bench_report: no rows in {:?} — run the benches first",
            ledger::history_path()
        );
        return;
    }

    // Group into (bench, metric) → time-ordered series (file order is
    // append order is time order).
    let mut series: BTreeMap<(String, String), Vec<&Row>> = BTreeMap::new();
    for row in &rows {
        for (metric, _) in &row.metrics {
            series
                .entry((row.bench.clone(), metric.clone()))
                .or_default()
                .push(row);
        }
    }

    let host = ledger::host();
    println!("== bench trajectory ({} rows, host {host}) ==", rows.len());
    let mut failures = Vec::new();
    for ((bench, metric), points) in &series {
        let gated = direction_of(bench, metric);
        println!(
            "\n{bench} / {metric}{}",
            match gated {
                Some(Direction::HigherIsBetter) => "  [gated, higher is better]",
                Some(Direction::LowerIsBetter) => "  [gated, lower is better]",
                None => "",
            }
        );
        for row in points {
            let v = row.metric(metric).unwrap_or(f64::NAN);
            println!(
                "  {:<10} {}  {:<12} {v:>14.3}",
                row.git_sha, row.utc, row.host
            );
        }
        // Trajectory delta: latest same-host value vs the best same-host
        // value on record (including itself — a new best prints +0%).
        let local: Vec<f64> = points
            .iter()
            .filter(|r| r.host == host)
            .filter_map(|r| r.metric(metric))
            .collect();
        let Some(&latest) = local.last() else {
            println!("  (no rows for this host — nothing to compare)");
            continue;
        };
        // Direction for the printed delta: gated metrics know theirs;
        // ungated series default to higher-is-better purely for display.
        let dir = gated.unwrap_or(Direction::HigherIsBetter);
        let best = local
            .iter()
            .copied()
            .reduce(|a, b| if is_better(dir, a, b) { a } else { b })
            .expect("non-empty");
        let reg = regression(dir, best, latest);
        println!(
            "  latest {latest:.3} vs best {best:.3}: {}{:.1}% {}",
            if reg <= 0.0 { "+" } else { "-" },
            reg.abs() * 100.0,
            if reg <= 0.0 {
                "(at or above best)"
            } else {
                "(below best)"
            },
        );
        if let Some(dir) = gated {
            // The *gate* compares against the best prior row only: the
            // latest run must not be its own baseline.
            let prior = &local[..local.len() - 1];
            let Some(best_prior) =
                prior
                    .iter()
                    .copied()
                    .reduce(|a, b| if is_better(dir, a, b) { a } else { b })
            else {
                println!("  gate: no prior {host} baseline — pass (baseline established)");
                continue;
            };
            let reg = regression(dir, best_prior, latest);
            if reg > MAX_REGRESSION {
                println!(
                    "  gate: FAIL — {latest:.3} regresses {:.1}% vs best baseline {best_prior:.3} \
                     (max {:.0}%)",
                    reg * 100.0,
                    MAX_REGRESSION * 100.0
                );
                failures.push(format!(
                    "{bench}/{metric}: {latest:.3} vs baseline {best_prior:.3} ({:+.1}%)",
                    -reg * 100.0
                ));
            } else {
                println!(
                    "  gate: ok — within {:.0}% of best baseline {best_prior:.3}",
                    MAX_REGRESSION * 100.0
                );
            }
        }
    }

    if !failures.is_empty() {
        eprintln!("\nbench_report: {} gated regression(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nbench_report: all gated metrics within bounds");
}
