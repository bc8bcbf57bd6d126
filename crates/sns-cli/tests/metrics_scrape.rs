//! End-to-end metrics scrape against the real `sns serve` binary: the
//! Prometheus exposition on `GET /metrics` parses, every metric the
//! server registers is documented in `docs/observability.md`, and the
//! `GET /stats` keys are exactly the `/metrics` names under the `/stats`
//! key rule — the drift gate: a metric missing from the docs or served
//! on only one surface fails CI here. The same file gates the log-event
//! table: its event column must name exactly the events the sources log.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use sns_server::json::{self, Json};

/// Reads the "listening on http://ADDR" line the server logs at startup.
fn wait_for_addr(child: &mut Child) -> (String, BufReader<std::process::ChildStderr>) {
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server stderr");
        assert!(n > 0, "server exited before announcing its address");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest
                .split_whitespace()
                .next()
                .expect("address after listening banner")
                .to_string();
            return (addr, reader);
        }
    }
}

fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: sns\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn scrape_parses_and_every_metric_is_documented() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sns"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--log-format",
            "json",
        ])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn sns serve");
    let (addr, _stderr) = wait_for_addr(&mut child);

    // Some traffic so counters and histograms carry real samples.
    let (status, body) = http(
        &addr,
        "POST",
        "/sessions",
        "{\"source\":\"(svg [(rect 'red' 1 2 3 4)])\"}",
    );
    assert_eq!(status, 201, "{body}");

    let (status, exposition) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let (status, stats) = http(&addr, "GET", "/stats", "");
    assert_eq!(status, 200, "{stats}");
    let _ = child.kill();
    let _ = child.wait();

    // Parse the exposition: comments declare metrics, samples carry a
    // name (optional labels) and a float value.
    let mut declared: Vec<String> = Vec::new();
    let mut types: Vec<(String, String)> = Vec::new();
    for line in exposition.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            assert!(kind == "HELP" || kind == "TYPE", "bad comment: {line}");
            let name = parts.next().expect("name in comment").to_string();
            if kind == "TYPE" && !declared.contains(&name) {
                let ty = parts.next().expect("type after name").to_string();
                types.push((name.clone(), ty));
                declared.push(name);
            }
            continue;
        }
        let (sample, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample without value: {line}"));
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable value: {line}"
        );
        let name = sample.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad sample name: {line}"
        );
    }
    assert!(
        declared.len() >= 30,
        "implausibly few metrics declared: {declared:?}"
    );

    // The doc-drift gate: every declared metric name appears verbatim in
    // docs/observability.md.
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
    let doc =
        std::fs::read_to_string(doc_path).unwrap_or_else(|e| panic!("cannot read {doc_path}: {e}"));
    let undocumented: Vec<&String> = declared
        .iter()
        .filter(|n| !doc.contains(n.as_str()))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metrics served on /metrics but missing from docs/observability.md: \
         {undocumented:?}"
    );

    // The /stats drift gate, both directions: every key on /stats comes
    // from a `# TYPE` name on /metrics by the key rule (strip `sns_` and
    // `_total`; a histogram yields `<name minus _us>_p50_ms`/`_p99_ms`),
    // and every declared name shows up on /stats.
    let Ok(Json::Obj(members)) = json::parse(&stats) else {
        panic!("/stats is not a JSON object: {stats}");
    };
    let mut served: Vec<String> = members.into_iter().map(|(k, _)| k).collect();
    let count = served.len();
    served.sort();
    served.dedup();
    assert_eq!(served.len(), count, "duplicate keys on /stats: {stats}");
    let mut expected: Vec<String> = types
        .iter()
        .flat_map(|(name, ty)| {
            let key = name.strip_prefix("sns_").unwrap_or(name);
            let key = key.strip_suffix("_total").unwrap_or(key);
            if ty == "histogram" {
                let base = key.strip_suffix("_us").unwrap_or(key);
                vec![format!("{base}_p50_ms"), format!("{base}_p99_ms")]
            } else {
                vec![key.to_string()]
            }
        })
        .collect();
    expected.sort();
    let only_stats: Vec<&String> = served.iter().filter(|k| !expected.contains(k)).collect();
    let only_metrics: Vec<&String> = expected.iter().filter(|k| !served.contains(k)).collect();
    assert!(
        only_stats.is_empty() && only_metrics.is_empty(),
        "/stats and /metrics disagree: keys only on /stats {only_stats:?}, \
         keys the /metrics names imply but /stats lacks {only_metrics:?}"
    );
}

/// The event names passed to `obs_log::{error,warn,info,debug}` in every
/// `.rs` file under `dir`. Each call's first argument must be a string
/// literal, or the gate could not see the event.
fn logged_events(dir: &Path, events: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            logged_events(&path, events);
            continue;
        }
        if path.extension().is_none_or(|x| x != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read source");
        for level in ["error", "warn", "info", "debug"] {
            let call = format!("obs_log::{level}(");
            for (at, _) in text.match_indices(&call) {
                let args = text[at + call.len()..].trim_start();
                let event = args
                    .strip_prefix('"')
                    .and_then(|rest| rest.split_once('"'))
                    .map(|(name, _)| name)
                    .unwrap_or_else(|| {
                        panic!("{}: {call} without a literal event name", path.display())
                    });
                events.insert(event.to_string());
            }
        }
    }
}

#[test]
fn log_event_table_matches_the_logged_events() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut logged = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            logged_events(&src, &mut logged);
        }
    }
    let doc = std::fs::read_to_string(root.join("docs/observability.md")).expect("read doc");
    let (_, section) = doc
        .split_once("## Log events")
        .expect("docs/observability.md has a Log events section");
    let section = section.split("\n## ").next().unwrap_or(section);
    let documented: BTreeSet<String> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split_once('`'))
        .map(|(event, _)| event.to_string())
        .collect();
    assert!(logged.len() >= 10, "implausibly few log events: {logged:?}");
    let undocumented: Vec<&String> = logged.difference(&documented).collect();
    let unlogged: Vec<&String> = documented.difference(&logged).collect();
    assert!(
        undocumented.is_empty() && unlogged.is_empty(),
        "docs/observability.md's log-event table disagrees with the sources: \
         logged but not documented {undocumented:?}, documented but never \
         logged {unlogged:?}"
    );
}
