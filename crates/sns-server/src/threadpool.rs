//! A fixed-size worker pool over a *bounded* job queue.
//!
//! The reactor hands complete requests to this pool and keeps servicing
//! sockets; when the queue is full, [`ThreadPool::try_execute`] refuses
//! the job so the caller can shed load (a 503) instead of buffering
//! unboundedly. Workers get a generous stack because handling a request
//! evaluates `little` programs, and the interpreter recurses with list
//! length.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Stack size for every server thread that evaluates `little` programs or
/// solves over their traces: the pool's workers, the spawned reactors
/// (which answer proof-only drags inline), and the replication follower,
/// which replays sessions (virtual reservation, not resident).
pub(crate) const WORKER_STACK: usize = 64 * 1024 * 1024;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue is at capacity; the job was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSaturated;

struct PoolState {
    queue: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals workers that a job (or shutdown) is available.
    available: Condvar,
    capacity: usize,
}

/// A fixed-size thread pool with a bounded queue. Dropping it closes the
/// queue, lets workers drain the jobs already accepted, and joins them.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `size` workers (at least one) over a queue holding at most
    /// `queue_depth` waiting jobs (at least one).
    pub fn new(size: usize, queue_depth: usize) -> ThreadPool {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: queue_depth.max(1),
        });
        let workers = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sns-worker-{i}"))
                    .stack_size(WORKER_STACK)
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Enqueues a job for the next free worker, or refuses it when the
    /// queue is at capacity (backpressure — the caller sheds the load).
    ///
    /// # Errors
    ///
    /// [`PoolSaturated`] when `queue_depth` jobs are already waiting (or
    /// the pool is shutting down, in which case the caller is too).
    pub fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolSaturated> {
        let mut state = self.shared.state.lock().expect("pool queue lock");
        if state.closed || state.queue.len() >= self.shared.capacity {
            return Err(PoolSaturated);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool queue lock")
            .queue
            .len()
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("pool queue lock");
    loop {
        // Drain accepted jobs even once closed: in-flight requests always
        // finish, which is what the reactor's drain mode promises.
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            job();
            state = shared.state.lock().expect("pool queue lock");
        } else if state.closed {
            return;
        } else {
            state = shared.available.wait(state).expect("pool queue lock");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool queue lock").closed = true;
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    #[test]
    fn runs_jobs_on_all_workers() {
        let pool = ThreadPool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let c = Arc::clone(&counter);
            pool.try_execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        drop(pool); // Joins workers, so all accepted jobs have run.
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn zero_sizes_are_clamped() {
        let pool = ThreadPool::new(0, 0);
        let (tx, rx) = channel();
        pool.try_execute(move || tx.send(42).unwrap()).unwrap();
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn saturated_queue_refuses_jobs() {
        let pool = ThreadPool::new(1, 1);
        let (release_tx, release_rx) = channel::<()>();
        let (running_tx, running_rx) = channel::<()>();
        // Occupy the single worker until released.
        pool.try_execute(move || {
            running_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .unwrap();
        running_rx.recv().unwrap(); // Worker is now busy, queue empty.
        pool.try_execute(|| {}).unwrap(); // Fills the one queue slot.
        assert_eq!(pool.try_execute(|| {}), Err(PoolSaturated));
        assert_eq!(pool.queued(), 1);
        release_tx.send(()).unwrap();
        drop(pool); // Drains the queued job and joins.
    }
}
