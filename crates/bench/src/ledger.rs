//! The bench trajectory ledger.
//!
//! Every bench binary appends one normalized JSONL row per run to
//! `BENCH_HISTORY.jsonl` at the repository root — git sha, UTC
//! timestamp, host, and the run's key metrics — so performance is a
//! *trajectory* across commits, not a single overwritten snapshot. The
//! `bench_report` binary renders the trajectory per metric and fails
//! (exit 1) when a [gated](GATED) metric regresses more than
//! [`MAX_REGRESSION`] against the best same-host baseline on record.
//!
//! Rows are append-only and self-describing:
//!
//! ```text
//! {"bench":"serve_throughput","git_sha":"f0d403f","utc":"2026-08-08T12:00:00Z",
//!  "host":"ci-4cpu","metrics":{"requests_per_sec":51234.0,"p99_ms":2.31}}
//! ```
//!
//! The ledger lives in the repo (not a build directory) so the history
//! survives `cargo clean` and rides along in commits; `SNS_BENCH_HISTORY`
//! overrides the path for tests and throwaway runs. Set it to a scratch
//! file for local measurements, so they do not dirty the committed
//! ledger.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Read, Write as _};
use std::path::PathBuf;
use std::process::Command;
use std::time::SystemTime;

use sns_server::json::{self, Json};

/// Fractional regression (vs the best same-host baseline) past which
/// `bench_report` fails a gated metric: 0.10 = 10%.
pub const MAX_REGRESSION: f64 = 0.10;

/// Whether a bigger number is an improvement or a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-shaped: regression is a *drop*.
    HigherIsBetter,
    /// Latency-shaped: regression is a *rise*.
    LowerIsBetter,
}

/// The gated `(bench, metric, direction)` triples `bench_report`
/// enforces. Deliberately few and deliberately the headline numbers —
/// noise-prone secondary metrics are recorded (trajectory) but not
/// gated.
pub const GATED: &[(&str, &str, Direction)] = &[
    (
        "serve_throughput",
        "requests_per_sec",
        Direction::HigherIsBetter,
    ),
    (
        "prepare_incremental",
        "speedup_largest_median",
        Direction::HigherIsBetter,
    ),
    (
        "recovery_replay",
        "replay_ms_post_max",
        Direction::LowerIsBetter,
    ),
];

/// One ledger row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Which bench binary produced the row.
    pub bench: String,
    /// Short git sha of the measured tree (`unknown` outside a checkout).
    pub git_sha: String,
    /// UTC timestamp, RFC 3339 to the second.
    pub utc: String,
    /// Host identity — regressions are only comparable on the same box.
    pub host: String,
    /// The run's key metrics, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    /// The named metric's value, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// The ledger path: `SNS_BENCH_HISTORY` when set, else
/// `BENCH_HISTORY.jsonl` at the repository root (resolved relative to
/// this crate, so it lands in the same place regardless of the cwd the
/// bench ran from).
pub fn history_path() -> PathBuf {
    if let Ok(p) = std::env::var("SNS_BENCH_HISTORY") {
        return PathBuf::from(p);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_HISTORY.jsonl")
}

/// The short git sha of HEAD, or `unknown` outside a checkout.
pub fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// This machine's identity for baseline matching: `SNS_BENCH_HOST` when
/// set, else the kernel hostname. CI sets no `SNS_BENCH_HOST`, so its rows
/// carry the runner's kernel hostname, which names the runner VM of that
/// job rather than a stable label.
pub fn host() -> String {
    if let Ok(h) = std::env::var("SNS_BENCH_HOST") {
        return h;
    }
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Now as RFC 3339 UTC to the second (std-only civil-date math).
pub fn utc_now() -> String {
    let secs = SystemTime::UNIX_EPOCH
        .elapsed()
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (days, tod) = (secs / 86_400, secs % 86_400);
    let (h, m, s) = (tod / 3600, (tod / 60) % 60, tod % 60);
    // Howard Hinnant's civil-from-days: epoch day → (y, m, d).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mth = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mth <= 2 { y + 1 } else { y };
    format!("{y:04}-{mth:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// Appends one row for `bench` to the ledger. Best-effort by design: a
/// bench must never fail because the trajectory file was unwritable, so
/// errors are printed and swallowed.
pub fn append(bench: &str, metrics: &[(&str, f64)]) {
    let row = Row {
        bench: bench.to_string(),
        git_sha: git_sha(),
        utc: utc_now(),
        host: host(),
        metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    };
    if let Err(e) = append_row(&row) {
        eprintln!(
            "bench ledger: could not append to {:?}: {e}",
            history_path()
        );
    } else {
        eprintln!("bench ledger: appended {bench} row to {:?}", history_path());
    }
}

fn append_row(row: &Row) -> io::Result<()> {
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"bench\":{},\"git_sha\":{},\"utc\":{},\"host\":{},\"metrics\":{{",
        Json::str(row.bench.clone()),
        Json::str(row.git_sha.clone()),
        Json::str(row.utc.clone()),
        Json::str(row.host.clone()),
    );
    for (i, (k, v)) in row.metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{}:{}", Json::str(k.clone()), Json::Num(*v));
    }
    line.push_str("}}\n");
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(history_path())?;
    file.write_all(line.as_bytes())
}

/// Reads every parseable row from the ledger, oldest first. Unparseable
/// lines are skipped (the ledger is append-only across versions, so old
/// or foreign rows must not poison the report).
pub fn read_rows() -> io::Result<Vec<Row>> {
    let mut text = String::new();
    match std::fs::File::open(history_path()) {
        Ok(mut f) => {
            f.read_to_string(&mut text)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = json::parse(line) else { continue };
        let field = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(bench), Some(git_sha), Some(utc)) =
            (field("bench"), field("git_sha"), field("utc"))
        else {
            continue;
        };
        let host = field("host").unwrap_or_else(|| "unknown".to_string());
        let metrics = match v.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect(),
            _ => Vec::new(),
        };
        out.push(Row {
            bench,
            git_sha,
            utc,
            host,
            metrics,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_now_is_rfc3339_shaped() {
        let t = utc_now();
        assert_eq!(t.len(), 20, "{t}");
        assert!(t.ends_with('Z') && t.contains('T'), "{t}");
        // Sanity on the civil-date math: the epoch itself.
        assert!(t.starts_with("20"), "{t}");
    }

    #[test]
    fn rows_roundtrip_through_the_ledger_file() {
        let dir = std::env::temp_dir().join(format!("sns-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        // Env vars are process-global; the test harness runs tests
        // concurrently, so take a crude lock by doing all env work here.
        std::env::set_var("SNS_BENCH_HISTORY", &path);
        append("unit_test_bench", &[("rps", 1234.5), ("p99_ms", 2.5)]);
        append("unit_test_bench", &[("rps", 1300.0), ("p99_ms", 2.25)]);
        let rows = read_rows().unwrap();
        std::env::remove_var("SNS_BENCH_HISTORY");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].bench, "unit_test_bench");
        assert_eq!(rows[0].metric("rps"), Some(1234.5));
        assert_eq!(rows[1].metric("p99_ms"), Some(2.25));
        assert!(!rows[0].git_sha.is_empty());
        assert_eq!(rows[0].host, host());
    }
}
