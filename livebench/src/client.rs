//! A minimal keep-alive HTTP/1.1 client that times each exchange from the
//! request write to the last reply byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One completed exchange.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The reply body.
    pub body: String,
    /// Bytes received: head plus body.
    pub wire_bytes: usize,
    /// Client-observed latency: request write to last reply byte.
    pub ns: u64,
}

/// A keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    req: Vec<u8>,
}

/// Builds the request bytes the benchmark sends.
pub fn encode_request(method: &str, path: &str, body: &str, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: livebench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body.as_bytes());
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

impl Conn {
    /// Connects with Nagle off (one request per write, as an editor sends).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            req: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads the whole reply.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        encode_request(method, path, body, &mut self.req);
        self.buf.clear();
        let t0 = Instant::now();
        self.stream.write_all(&self.req)?;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(end) = find_head_end(&self.buf) {
                break end;
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::other("reply head is not UTF-8"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line in {head:?}")))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())
                    .flatten()
            })
            .ok_or_else(|| io::Error::other("reply without Content-Length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        let body = String::from_utf8(self.buf[head_end..head_end + length].to_vec())
            .map_err(|_| io::Error::other("reply body is not UTF-8"))?;
        Ok(Reply {
            status,
            body,
            wire_bytes: head_end + length,
            ns,
        })
    }

    /// The bytes of the last request sent (for in-process replays).
    pub fn last_request(&self) -> &[u8] {
        &self.req
    }
}

/// One request on a fresh connection (set-up and correctness probes).
pub fn once(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    Conn::connect(addr)?.request(method, path, body)
}
