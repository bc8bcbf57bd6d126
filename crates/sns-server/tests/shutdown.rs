//! A stopped server stops every thread it started. A synchronous
//! leader + follower pair is started and stopped in-process; afterwards
//! the follower's data directory and the leader's replication port bind
//! again, and the process is back to the threads it had before.
//!
//! This is its own test binary because it counts the process's threads:
//! tests running alongside it would move the count.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sns_server::{Server, ServerConfig, ShutdownHandle};

struct Node {
    addr: SocketAddr,
    repl: Option<SocketAddr>,
    shutdown: ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Node {
    fn start(config: &ServerConfig) -> Node {
        let server = Server::bind(config).expect("bind server");
        let addr = server.local_addr().expect("local addr");
        let repl = server.repl_addr();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Node {
            addr,
            repl,
            shutdown,
            thread,
        }
    }

    fn stop(self) {
        self.shutdown.shutdown();
        self.thread.join().expect("server thread").expect("run");
    }
}

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sns-shutdown-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        reactors: 1,
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// One request on a fresh connection; returns the status code.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: sns\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn a_stopped_pair_releases_its_threads_port_and_data_dir() {
    let before = threads();
    let (leader_dir, follower_dir) = (data_dir("leader"), data_dir("follower"));
    for _ in 0..3 {
        let leader = Node::start(&ServerConfig {
            repl_listen: Some("127.0.0.1:0".to_string()),
            replicate_to: 1,
            ..config(&leader_dir)
        });
        let repl = leader.repl.expect("replication listener");
        let follower = Node::start(&ServerConfig {
            follow: Some(repl.to_string()),
            ..config(&follower_dir)
        });
        // A synchronous create is acknowledged only once the follower has
        // connected and acked it, so both sides' threads are all up.
        let body = "{\"source\":\"(svg [(rect 'red' 10 20 30 40)])\"}";
        assert_eq!(http(leader.addr, "POST", "/sessions", body), 201);
        leader.stop();
        follower.stop();

        drop(Server::bind(&config(&follower_dir)).expect("the follower's data dir binds again"));
        drop(
            Server::bind(&ServerConfig {
                repl_listen: Some(repl.to_string()),
                ..config(&data_dir("rebind"))
            })
            .expect("the leader's replication port binds again"),
        );
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before, "threads left running after stop");
    for tag in ["leader", "follower", "rebind"] {
        let _ = std::fs::remove_dir_all(data_dir(tag));
    }
}
