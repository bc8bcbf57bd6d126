//! Benchmarks crash recovery: how long `JournalBackend::open` takes to
//! rebuild session state from a long journal (every commit replayed
//! through the incremental-prepare machinery) versus a compacted one
//! (state loaded from the snapshot, sessions faulted in lazily).
//!
//! ```sh
//! cargo run --release -p bench --bin recovery_replay -- [SLUG...] \
//!     [--sessions N] [--commits N]
//! ```
//!
//! Writes `BENCH_recovery.json` and exits non-zero when recovery is
//! *incorrect* (a recovered session's code diverges from what was
//! committed) or *unbounded* (post-compaction, eager replay work should
//! be proportional to live state, not to operation history: the record
//! count must collapse and the replay must not get slower).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use sns_server::session::Session;
use sns_server::store::SessionStore;
use sns_server::{FsyncPolicy, JournalBackend, JournalConfig, SessionBackend};
use sns_svg::{ShapeId, Zone};

const DEFAULT_SLUGS: &[&str] = &["keyboard", "tessellation", "us50_flag"];
const DEFAULT_SESSIONS: usize = 6;
const DEFAULT_COMMITS: usize = 25;

struct BenchArgs {
    slugs: Vec<String>,
    sessions: usize,
    commits: usize,
}

fn parse_args() -> BenchArgs {
    let mut out = BenchArgs {
        slugs: Vec::new(),
        sessions: DEFAULT_SESSIONS,
        commits: DEFAULT_COMMITS,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sessions" => {
                out.sessions = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sessions N");
            }
            "--commits" => {
                out.commits = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--commits N");
            }
            slug => out.slugs.push(slug.to_string()),
        }
    }
    if out.slugs.is_empty() {
        out.slugs = DEFAULT_SLUGS.iter().map(|s| s.to_string()).collect();
    }
    out
}

/// `fsync never` keeps the build phase off the disk's latency; the journal
/// *content* is identical, and replay is what's being measured.
fn config(dir: &PathBuf) -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::Never,
        // No opportunistic compaction: the pre-compaction measurement
        // needs the full history on disk.
        compact_bytes: u64::MAX,
        compact_factor: u64::MAX,
        ..JournalConfig::new(dir)
    }
}

struct Row {
    slug: String,
    sessions: usize,
    commits: usize,
    records_pre: u64,
    bytes_pre: u64,
    replay_ms_pre: f64,
    records_post: u64,
    bytes_post: u64,
    replay_ms_post: f64,
}

fn run_example(slug: &str, sessions: usize, commits: usize) -> Row {
    let ex = sns_examples::by_slug(slug).unwrap_or_else(|| panic!("no corpus example `{slug}`"));
    let dir =
        std::env::temp_dir().join(format!("sns-bench-recovery-{slug}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Build: N sessions, M drag-commits each, all journaled.
    let mut expected: BTreeMap<String, String> = BTreeMap::new();
    {
        let (backend, _) = JournalBackend::open(config(&dir)).expect("open journal");
        let store = SessionStore::with_backend(sessions + 1, Arc::new(backend));
        for i in 0..sessions {
            let session = Session::create(store.fresh_id(), ex.source).expect("create");
            let id = session.id.clone();
            store.try_insert(session, None, 0, 0).expect("insert");
            let arc = store.get(&id).expect("resident");
            let mut s = arc.lock().expect("session lock");
            for step in 0..commits {
                // Total offsets from each drag's start; alternating zones
                // exercise different triggers. Inactive zones just skip.
                let dx = 1.0 + ((i + step) % 7) as f64;
                let zone = if step % 2 == 0 {
                    Zone::Interior
                } else {
                    Zone::BotRightCorner
                };
                if s.drag(ShapeId(step % 3), zone, dx, dx / 2.0).is_ok() {
                    s.commit().expect("commit");
                }
            }
            expected.insert(id, s.code());
        }
        // Dropped without ceremony: a crash, as far as the journal knows.
    }

    // ---- Measure: replay the full history (every commit re-prepared).
    let started = Instant::now();
    let (backend, recovered) = JournalBackend::open(config(&dir)).expect("reopen journal");
    let replay_ms_pre = started.elapsed().as_secs_f64() * 1e3;
    let g = backend.gauges();
    let (records_pre, bytes_pre) = (g.journal_records, g.journal_bytes);
    verify(slug, &expected, recovered.iter());

    // ---- Compact, then measure again: snapshot load + empty journal.
    backend.compact_now().expect("compact");
    drop(recovered);
    drop(backend);
    let started = Instant::now();
    let (backend, recovered) = JournalBackend::open(config(&dir)).expect("post-compaction open");
    let replay_ms_post = started.elapsed().as_secs_f64() * 1e3;
    let g = backend.gauges();
    let (records_post, bytes_post) = (g.journal_records, g.journal_bytes);
    // Post-compaction, sessions come back by fault-in; verify them too.
    assert!(
        recovered.is_empty(),
        "{slug}: a compacted journal should replay nothing eagerly"
    );
    let faulted: Vec<Session> = expected
        .keys()
        .map(|id| backend.fault_in(id).expect("fault-in"))
        .collect();
    verify(slug, &expected, faulted.iter());

    let _ = std::fs::remove_dir_all(&dir);
    Row {
        slug: slug.to_string(),
        sessions,
        commits,
        records_pre,
        bytes_pre,
        replay_ms_pre,
        records_post,
        bytes_post,
        replay_ms_post,
    }
}

fn verify<'a>(
    slug: &str,
    expected: &BTreeMap<String, String>,
    got: impl Iterator<Item = &'a Session>,
) {
    let mut seen = 0usize;
    for session in got {
        let want = expected
            .get(&session.id)
            .unwrap_or_else(|| panic!("{slug}: recovered unknown session {}", session.id));
        assert_eq!(
            &session.code(),
            want,
            "{slug}: session {} diverged after recovery",
            session.id
        );
        seen += 1;
    }
    assert_eq!(seen, expected.len(), "{slug}: sessions lost in recovery");
}

fn main() {
    let args = parse_args();
    let mut rows = Vec::new();
    for slug in &args.slugs {
        let row = run_example(slug, args.sessions, args.commits);
        eprintln!(
            "{:<16} {:>5} records {:>9.1} ms replay  →  {:>3} records {:>7.1} ms after compaction",
            row.slug, row.records_pre, row.replay_ms_pre, row.records_post, row.replay_ms_post
        );
        rows.push(row);
    }

    let mut json = String::from("{\n  \"examples\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"slug\": \"{}\", \"sessions\": {}, \"commits_per_session\": {}, \
             \"journal_records_pre\": {}, \"journal_bytes_pre\": {}, \"replay_ms_pre\": {:.2}, \
             \"journal_records_post\": {}, \"journal_bytes_post\": {}, \"replay_ms_post\": {:.2}}}{}",
            r.slug,
            r.sessions,
            r.commits,
            r.records_pre,
            r.bytes_pre,
            r.replay_ms_pre,
            r.records_post,
            r.bytes_post,
            r.replay_ms_post,
            if i + 1 < rows.len() { "," } else { "" },
        );
        json.push('\n');
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    eprintln!("wrote BENCH_recovery.json");

    // Gate: post-compaction recovery must be bounded by live state.
    let mut failed = false;
    for r in &rows {
        // Record count collapses from O(history) to (at most) nothing —
        // state lives in the snapshot, whose size is the live sessions'.
        if r.records_post >= r.sessions as u64 {
            eprintln!(
                "GATE FAIL {}: {} journal records after compaction (≥ {} live sessions)",
                r.slug, r.records_post, r.sessions
            );
            failed = true;
        }
        if r.replay_ms_post > r.replay_ms_pre {
            eprintln!(
                "GATE FAIL {}: compacted replay slower than full replay ({:.1} ms > {:.1} ms)",
                r.slug, r.replay_ms_post, r.replay_ms_pre
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
