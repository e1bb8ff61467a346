//! A fixed worker-thread pool with a channel job queue.
//!
//! `std`-only: N `std::thread` workers drain a shared `mpsc` queue.  Query
//! jobs from every connection funnel through the pool, so the degree of
//! query parallelism is a single deployment knob (`--workers`) independent
//! of the number of connections, and all workers share one prepared-query
//! cache through the service.
//!
//! Panic containment: a job that panics is caught **at the job boundary**
//! (both in the worker loop and inside [`WorkerPool::submit`]'s wrapper), so
//! a poisoned query can never take a worker — let alone the whole pool —
//! down with it.  The submitter receives the panic payload as a
//! [`ServiceError::JobPanicked`] instead of a hang or a misleading
//! "pool shut down".

use crate::error::ServiceError;
use ontodq_obs::{Histogram, SharedClock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool — see the module docs.
pub struct WorkerPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Jobs admitted but not yet finished (queued + running).
    pending: Arc<AtomicUsize>,
    /// High-watermark of `pending` over the pool's lifetime — the queue
    /// depth an operator should size `--max-queue` against.
    pending_peak: Arc<AtomicUsize>,
    /// Admission bound on `pending`; submissions beyond it are refused
    /// with a typed [`ServiceError::Overloaded`] instead of queueing
    /// without limit.
    bound: usize,
    /// Time jobs spend between admission and a worker picking them up.
    wait_histogram: Arc<Histogram>,
    /// The clock the wait histogram is measured on (monotonic by default;
    /// virtual under record/replay tests).
    clock: SharedClock,
}

/// Decrements the pending counter when the job finishes — or when the job
/// box is dropped unrun (channel closed, worker panic unwound past it), so
/// the admission count can never leak upward.
struct PendingGuard(Arc<AtomicUsize>);

impl Drop for PendingGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Render a caught panic payload as a message (the `&str`/`String` payloads
/// `panic!` produces; anything else becomes a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl WorkerPool {
    /// Spawn a pool of `size` workers (at least one) with no admission
    /// bound — every submission queues.
    pub fn new(size: usize) -> Self {
        Self::with_queue_bound(size, usize::MAX)
    }

    /// Spawn a pool of `size` workers (at least one) that refuses
    /// submissions once `bound` jobs are in flight (queued + running),
    /// reporting [`ServiceError::Overloaded`] so clients can back off
    /// instead of growing the queue without limit.
    pub fn with_queue_bound(size: usize, bound: usize) -> Self {
        let size = size.max(1);
        let bound = bound.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|index| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("ontodq-worker-{index}"))
                    .spawn(move || loop {
                        // Hold the queue lock only to pop; run the job after
                        // releasing it so workers drain in parallel.  A lock
                        // poisoned by a panicking *peer* only means the peer
                        // died mid-pop, which cannot corrupt the receiver —
                        // keep draining.
                        let job = match receiver
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .recv()
                        {
                            Ok(job) => job,
                            Err(_) => break, // all senders dropped: shut down
                        };
                        // A panicking job must not take the worker down with
                        // it: once every worker has died, all later submits
                        // would error out.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    })
                    // Invariant, not I/O: spawning fails only when the OS
                    // is out of threads at startup, where there is no
                    // server to degrade yet — aborting is the right call.
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            pending: Arc::new(AtomicUsize::new(0)),
            pending_peak: Arc::new(AtomicUsize::new(0)),
            bound,
            wait_histogram: Arc::new(Histogram::latency()),
            clock: ontodq_obs::monotonic(),
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently in flight (queued + running).
    pub fn queued(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// The highest in-flight count ever observed (queued + running) — the
    /// queue-depth high-watermark surfaced by `!health` and `!metrics`.
    pub(crate) fn queued_peak(&self) -> usize {
        self.pending_peak.load(Ordering::SeqCst)
    }

    /// The admission bound (`usize::MAX` when unbounded).
    pub(crate) fn queue_bound(&self) -> usize {
        self.bound
    }

    /// The queue-wait histogram: microseconds between a job's admission and
    /// a worker picking it up.  Owned by the pool; adopt it into a
    /// [`ontodq_obs::Registry`] to expose it via `!metrics`.
    pub(crate) fn wait_histogram(&self) -> Arc<Histogram> {
        Arc::clone(&self.wait_histogram)
    }

    /// Enqueue a fire-and-forget job.
    ///
    /// # Errors
    /// [`ServiceError::PoolClosed`] when the queue is gone (the pool is
    /// being dropped) — reported, never panicked, so a session thread racing
    /// a shutdown degrades gracefully.  [`ServiceError::Overloaded`] when
    /// the in-flight count has reached the admission bound.
    pub fn execute<F>(&self, job: F) -> Result<(), ServiceError>
    where
        F: FnOnce() + Send + 'static,
    {
        let sender = self.sender.as_ref().ok_or(ServiceError::PoolClosed)?;
        // Atomically claim an admission slot; `fetch_update` closes the
        // check-then-increment race so concurrent submitters can never
        // overshoot the bound.
        match self
            .pending
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                if n >= self.bound {
                    None
                } else {
                    Some(n + 1)
                }
            }) {
            Ok(previous) => {
                self.pending_peak.fetch_max(previous + 1, Ordering::SeqCst);
            }
            Err(queued) => {
                return Err(ServiceError::Overloaded {
                    queued,
                    bound: self.bound,
                });
            }
        }
        let guard = PendingGuard(Arc::clone(&self.pending));
        let admitted_at = self.clock.now_micros();
        let clock = Arc::clone(&self.clock);
        let wait = Arc::clone(&self.wait_histogram);
        let wrapped: Job = Box::new(move || {
            let _release_slot = guard;
            wait.observe(clock.now_micros().saturating_sub(admitted_at));
            job();
        });
        // A failed send drops the boxed job, whose guard releases the slot.
        sender.send(wrapped).map_err(|_| ServiceError::PoolClosed)
    }

    /// Enqueue `job` and return a receiver for its outcome; `recv()` on it
    /// blocks until a worker has run the job.
    ///
    /// The outcome is `Ok(T)` on success, `Err(ServiceError::JobPanicked)`
    /// when the job panicked (the worker survives), or
    /// `Err(ServiceError::PoolClosed)` when the job could not be enqueued at
    /// all.  The receiver always yields exactly one value — a submitter can
    /// never hang on a panicked job.
    pub fn submit<F, T>(&self, job: F) -> mpsc::Receiver<Result<T, ServiceError>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let job_tx = tx.clone();
        let enqueued = self.execute(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
                .map_err(|payload| ServiceError::JobPanicked(panic_message(payload.as_ref())));
            // The caller may have hung up; that only means nobody wants the
            // result.
            let _ = job_tx.send(outcome);
        });
        if let Err(e) = enqueued {
            let _ = tx.send(Err(e));
        }
        rx
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_results_come_back() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.size(), 4);
        let rx = pool.submit(|| 21 * 2);
        assert_eq!(rx.recv().unwrap().unwrap(), 42);
    }

    #[test]
    fn many_jobs_across_workers_all_complete() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let receivers: Vec<_> = (0..64)
            .map(|i| {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    i
                })
            })
            .collect();
        let mut sum = 0usize;
        for rx in receivers {
            sum += rx.recv().unwrap().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(sum, (0..64).sum());
    }

    #[test]
    fn zero_requested_workers_still_yields_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.submit(|| 1).recv().unwrap().unwrap(), 1);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool = WorkerPool::new(2);
        let rx = pool.submit(|| "done");
        assert_eq!(rx.recv().unwrap().unwrap(), "done");
        drop(pool); // must not hang
    }

    /// The regression this module's panic containment pins down: a
    /// panicking job must surface as a [`ServiceError::JobPanicked`] to its
    /// submitter — not kill the worker, not hang the caller, not poison the
    /// pool for later jobs.
    #[test]
    fn panicking_jobs_report_the_panic_and_keep_the_worker_alive() {
        let pool = WorkerPool::new(1);
        // The single worker survives more panics than there are workers…
        for round in 0..3 {
            let rx = pool.submit(move || -> usize { panic!("job {round} blew up") });
            // …and the submitter observes the payload, not a hang.
            match rx.recv().unwrap() {
                Err(ServiceError::JobPanicked(msg)) => {
                    assert!(msg.contains("blew up"), "unexpected payload: {msg}")
                }
                other => panic!("expected JobPanicked, got {other:?}"),
            }
        }
        // The pool still serves jobs afterwards.
        assert_eq!(pool.submit(|| 7).recv().unwrap().unwrap(), 7);
    }

    /// Panics carrying non-`&str` payloads (e.g. `panic_any`) are reported
    /// with a placeholder message, never re-thrown at the submitter.
    #[test]
    fn non_string_panic_payloads_are_contained_too() {
        let pool = WorkerPool::new(1);
        let rx = pool.submit(|| -> usize { std::panic::panic_any(42usize) });
        assert!(matches!(
            rx.recv().unwrap(),
            Err(ServiceError::JobPanicked(msg)) if msg.contains("non-string")
        ));
        assert_eq!(pool.submit(|| 1).recv().unwrap().unwrap(), 1);
    }

    /// Admission control: once `bound` jobs are in flight the pool refuses
    /// further submissions with a typed overload error, and accepts again
    /// as soon as a slot frees up — including slots held by panicked jobs.
    #[test]
    fn overload_is_reported_and_clears_when_slots_free() {
        let pool = WorkerPool::with_queue_bound(1, 2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        // Fill both slots: one running (blocked on the channel), one queued.
        let blockers: Vec<_> = (0..2)
            .map(|_| {
                let release_rx = Arc::clone(&release_rx);
                pool.submit(move || {
                    release_rx.lock().unwrap().recv().unwrap();
                })
            })
            .collect();
        // Wait until the worker has actually picked up the first job so the
        // in-flight count is stable at 2.
        while pool.queued() < 2 {
            std::thread::yield_now();
        }
        match pool.execute(|| {}) {
            Err(ServiceError::Overloaded { queued, bound }) => {
                assert_eq!(queued, 2);
                assert_eq!(bound, 2);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Release both blockers; the pool must accept work again.
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        for rx in blockers {
            rx.recv().unwrap().unwrap();
        }
        assert_eq!(pool.submit(|| 5).recv().unwrap().unwrap(), 5);
        // Panicked jobs release their slot too.
        let rx = pool.submit(|| -> usize { panic!("slot must still free") });
        assert!(matches!(
            rx.recv().unwrap(),
            Err(ServiceError::JobPanicked(_))
        ));
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        assert_eq!(pool.queued(), 0);
    }

    /// Interleaved good and panicking jobs across several workers: every
    /// good job completes, every bad one reports.
    #[test]
    fn mixed_workloads_are_fully_accounted_for() {
        let pool = WorkerPool::new(4);
        let receivers: Vec<_> = (0..32)
            .map(|i| {
                pool.submit(move || {
                    if i % 3 == 0 {
                        panic!("planned failure {i}");
                    }
                    i
                })
            })
            .collect();
        let (mut ok, mut panicked) = (0, 0);
        for rx in receivers {
            match rx.recv().unwrap() {
                Ok(_) => ok += 1,
                Err(ServiceError::JobPanicked(_)) => panicked += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(ok, 21);
        assert_eq!(panicked, 11);
    }
}
