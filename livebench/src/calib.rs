//! Host-speed calibration.
//!
//! A shared two-vCPU host changes speed from one second to the next, so a
//! raw latency mixes the program's cost with the host's mood. Every load
//! thread therefore runs a fixed kernel *between* its requests (never while
//! one is in flight) and each timing is rescaled by how fast the kernel ran
//! around it:
//!
//! ```text
//! normalized = raw × REF_KERNEL_US / median(kernel samples in the window)
//! ```
//!
//! The kernel hands a byte to an echo thread and back over a Unix socket
//! pair, [`ECHO_TRIPS`] times: thread wake-ups, context switches and small
//! syscalls, the work that dominates a loopback request. A first kernel
//! that only computed in L1 stayed flat while the host slowed the request
//! path by a third (see the README). The kernel is std-only, allocates
//! nothing per sample and calls no code of the system under test, so a
//! change to the program cannot move it.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::Instant;

/// The kernel's time on the reference host, in microseconds. Normalized
/// figures read "as if the host ran the kernel in exactly this long".
/// Fixed once; changing it rescales every normalized figure.
pub const REF_KERNEL_US: f64 = 25.0;

/// How long one normalization window lasts: timings in a window are scaled
/// by the median of the kernel samples taken in the same window.
pub const WINDOW_NS: u64 = 250_000_000;

/// Round trips to the echo thread per kernel sample.
pub const ECHO_TRIPS: usize = 3;

/// The calibration kernel's echo thread and the calibrating thread's end
/// of the socket pair to it. Dropping it stops the thread and waits for it.
pub struct Echo {
    ours: UnixStream,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    /// Starts the echo thread.
    pub fn start() -> std::io::Result<Echo> {
        let (ours, mut theirs) = UnixStream::pair()?;
        let thread = std::thread::Builder::new()
            .name("livebench-echo".into())
            .spawn(move || {
                let mut byte = [0u8; 1];
                while let Ok(1) = theirs.read(&mut byte) {
                    if theirs.write_all(&byte).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Echo {
            ours,
            thread: Some(thread),
        })
    }

    /// Runs the kernel once and returns its duration in nanoseconds.
    pub fn time_kernel(&mut self) -> u64 {
        let t0 = Instant::now();
        let mut byte = [7u8; 1];
        for _ in 0..ECHO_TRIPS {
            self.ours
                .write_all(&byte)
                .and_then(|()| self.ours.read_exact(&mut byte))
                .expect("calibration echo thread answers");
        }
        t0.elapsed().as_nanos() as u64
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.ours.shutdown(std::net::Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Kernel samples of one load thread, bucketed into windows of
/// [`WINDOW_NS`] measured from the thread's start.
pub struct Calibration {
    start: Instant,
    windows: Vec<Vec<u64>>,
    echo: Echo,
}

impl Calibration {
    /// Starts the echo thread and the window clock.
    pub fn new() -> Calibration {
        Calibration {
            start: Instant::now(),
            windows: Vec::new(),
            echo: Echo::start().expect("start the calibration echo thread"),
        }
    }

    /// The window the current instant falls in.
    pub fn window(&self) -> usize {
        (self.start.elapsed().as_nanos() as u64 / WINDOW_NS) as usize
    }

    /// Runs the kernel, records the sample in the current window, and
    /// returns its duration in nanoseconds (so callers can take it out of
    /// an enclosing wall-clock interval).
    pub fn sample(&mut self) -> u64 {
        let ns = self.echo.time_kernel();
        let w = self.window();
        if self.windows.len() <= w {
            self.windows.resize(w + 1, Vec::new());
        }
        self.windows[w].push(ns);
        ns
    }

    /// Every kernel sample, in nanoseconds.
    pub fn all_samples(&self) -> Vec<f64> {
        self.windows.iter().flatten().map(|&ns| ns as f64).collect()
    }

    /// Median kernel time over the whole run, in microseconds.
    pub fn median_us(&self) -> f64 {
        crate::stats::median(&self.all_samples()) / 1e3
    }

    /// The scale factor of every window, in order: the reference kernel
    /// time over the window's median kernel time. A window with fewer than
    /// three samples borrows the nearest earlier one, then the run median.
    pub fn factors(&self) -> Vec<f64> {
        let mut last = REF_KERNEL_US / self.median_us();
        self.windows
            .iter()
            .map(|samples| {
                if samples.len() >= 3 {
                    let xs: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
                    last = REF_KERNEL_US / (crate::stats::median(&xs) / 1e3);
                }
                last
            })
            .collect()
    }
}

/// Scales a raw duration taken in window `w` by that window's entry of
/// `factors` (from [`Calibration::factors`]); a window past the last one
/// borrows the last.
pub fn normalize(factors: &[f64], raw: f64, w: usize) -> f64 {
    factors
        .get(w)
        .or(factors.last())
        .map_or(f64::NAN, |f| raw * f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_kernel_times_and_stops() {
        let mut echo = Echo::start().unwrap();
        assert!(echo.time_kernel() > 0);
        drop(echo);
    }

    /// The same slowdown applied to an operation and to the kernel around
    /// it leaves the normalized value unchanged.
    #[test]
    fn uniform_slowdown_cancels() {
        let op_ns = 300_000.0;
        let kernel_ns = 20_000u64;
        let run = |slowdown: f64| {
            let mut cal = Calibration::new();
            cal.windows = vec![vec![(kernel_ns as f64 * slowdown) as u64; 9]];
            normalize(&cal.factors(), op_ns * slowdown, 0)
        };
        let base = run(1.0);
        for slowdown in [1.1, 1.5, 2.0, 3.0] {
            let scaled = run(slowdown);
            assert!(
                (scaled - base).abs() / base < 1e-9,
                "slowdown {slowdown}: {scaled} vs {base}"
            );
        }
        assert!((base - op_ns * REF_KERNEL_US / 20.0).abs() < 1e-6);
    }

    /// Windows normalize independently: a slow window's timings are scaled
    /// by that window's kernel, not by a fast one's.
    #[test]
    fn windows_scale_independently() {
        let mut cal = Calibration::new();
        cal.windows = vec![vec![10_000; 5], vec![20_000; 5], Vec::new()];
        let factors = cal.factors();
        let fast = normalize(&factors, 100.0, 0);
        let slow = normalize(&factors, 200.0, 1);
        assert!((fast - slow).abs() < 1e-9);
        // An empty window, and one past the end, borrow the previous one.
        assert!((normalize(&factors, 200.0, 2) - slow).abs() < 1e-9);
        assert!((normalize(&factors, 200.0, 9) - slow).abs() < 1e-9);
    }
}
