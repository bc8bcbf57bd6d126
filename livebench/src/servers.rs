//! Starting and stopping in-process servers, and reading their counters.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use sns_server::{FsyncPolicy, Server, ServerConfig, ShutdownHandle};

use crate::client;

/// A server running on its own thread.
pub struct Running {
    /// The HTTP address.
    pub addr: SocketAddr,
    /// The replication listener, when one was configured.
    pub repl_addr: Option<SocketAddr>,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Binds `config` and starts serving.
    pub fn start(config: &ServerConfig) -> Result<Running, String> {
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let repl_addr = server.repl_addr();
        let handle = server.shutdown_handle();
        let thread = std::thread::Builder::new()
            .name("livebench-server".into())
            .stack_size(256 << 20)
            .spawn(move || server.run())
            .map_err(|e| e.to_string())?;
        Ok(Running {
            addr,
            repl_addr,
            handle,
            thread,
        })
    }

    /// Drains the server and waits until every reactor has exited (and,
    /// with a journal, until the data directory's lock is released).
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server run: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }

    /// A `/metrics` snapshot.
    pub fn metrics(&self) -> Result<Metrics, String> {
        let reply = client::once(self.addr, "GET", "/metrics", "").map_err(|e| e.to_string())?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        Ok(Metrics(reply.body))
    }
}

/// The default server configuration on an ephemeral loopback port.
pub fn memory_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

/// A journaling leader that streams to one synchronous follower.
pub fn leader_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Batch,
        repl_listen: Some("127.0.0.1:0".to_string()),
        replicate_to: 1,
        ..memory_config()
    }
}

/// A follower of the leader whose replication listener is `leader`.
pub fn follower_config(dir: &Path, leader: SocketAddr) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Batch,
        follow: Some(leader.to_string()),
        ..memory_config()
    }
}

/// A cold restart on an existing data directory.
pub fn reopen_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Batch,
        ..memory_config()
    }
}

/// A Prometheus text exposition.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub String);

impl Metrics {
    /// The sum over every series of `name` (all label sets).
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                let base = series.split('{').next()?;
                (base == name).then(|| value.parse::<f64>().ok()).flatten()
            })
            .sum()
    }

    /// The series of `name` carrying exactly `label` (e.g. `reason="escaped"`).
    pub fn labeled(&self, name: &str, label: &str) -> f64 {
        let prefix = format!("{name}{{{label}}} ");
        self.0
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .filter_map(|v| v.trim().parse::<f64>().ok())
            .sum()
    }
}

/// `after − before` for a counter.
pub fn delta(before: &Metrics, after: &Metrics, name: &str) -> f64 {
    after.sum(name) - before.sum(name)
}

/// The median of a histogram's observations between two snapshots, in
/// µs, interpolated linearly inside the bucket that holds it. The server's
/// histograms are log2-bucketed, so this is coarse: within a factor of two.
/// 0 when nothing was observed.
pub fn hist_p50_us(before: &Metrics, after: &Metrics, name: &str) -> f64 {
    let buckets = |m: &Metrics| -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        m.0.lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .filter_map(|rest| {
                let (le, count) = rest.split_once("\"} ")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, count.trim().parse().ok()?))
            })
            .collect()
    };
    let (b0, b1) = (buckets(before), buckets(after));
    let cum: Vec<(f64, f64)> = b1
        .iter()
        .map(|&(le, n)| (le, n - b0.iter().find(|b| b.0 == le).map_or(0.0, |b| b.1)))
        .collect();
    let total = cum.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    let (mut lo, mut below) = (0.0, 0.0);
    for (le, n) in cum {
        if n >= total / 2.0 {
            if le.is_infinite() {
                return lo;
            }
            return lo + (le - lo) * (total / 2.0 - below) / (n - below).max(1.0);
        }
        (lo, below) = (le, n);
    }
    lo
}

/// A scratch directory inside the working directory (the checkout the
/// benchmark runs in), removed by [`Scratch::drop`].
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    /// Creates `.livebench_tmp/<pid>`.
    pub fn new() -> Result<Scratch, String> {
        let root = PathBuf::from(".livebench_tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, not-yet-existing directory path.
    pub fn dir(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves `.livebench_tmp` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".livebench_tmp");
    }
}

/// Copies the regular files of `from` (one level deep — the journal's
/// layout) into the new directory `to`, skipping the lock file.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        if name == "sns-server.lock" || !entry.path().is_file() {
            continue;
        }
        std::fs::copy(entry.path(), to.join(&name)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
