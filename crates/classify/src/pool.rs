//! A small reusable worker pool for scoped fan-out.
//!
//! [`sharded::parallel_shards`](crate::sharded::parallel_shards) used to
//! spawn fresh OS threads inside a `std::thread::scope` on every call.
//! That is correct but expensive on a hot path: the dataplane tick
//! pipeline fans out once per tick, and a thread spawn + join per tick
//! dwarfs the classification work itself (see
//! `results/bench_classify.json`, where the sharded front-end lost to the
//! single-threaded batch path purely on spawn overhead).
//!
//! This module keeps one process-wide set of long-lived workers fed over
//! an mpsc channel. Scoped semantics — borrowing closures, guaranteed
//! completion before the caller resumes, panic propagation — are
//! preserved with the classic scoped-pool recipe:
//!
//! - each dispatch ships a lifetime-erased job (`transmute` of the boxed
//!   closure to `'static`); soundness comes from the completion latch:
//!   [`WorkerPool::run_chunks`] blocks until every job has run, so the
//!   borrows inside the job strictly outlive its execution;
//! - jobs run under `catch_unwind`; a panicking shard flips a flag that
//!   the dispatching thread re-raises after the latch opens, matching
//!   the old scope-join behavior;
//! - pool workers mark themselves with a thread-local so nested fan-out
//!   (a shard that itself calls `parallel_shards`) degrades to inline
//!   execution instead of deadlocking on the pool's own queue.
//!
//! Multiple threads may dispatch concurrently; their jobs interleave on
//! the shared workers and each dispatch waits only on its own latch.
//! No code panics while holding a latch or the queue lock (jobs run
//! outside it, under `catch_unwind`), so a poisoned lock still guards a
//! consistent value and is taken back with `PoisonError::into_inner`.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// A lifetime-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is one of the pool's workers — callers
/// use this to run nested fan-out inline rather than re-entering the
/// queue they are draining.
pub fn on_pool_worker() -> bool {
    IS_POOL_WORKER.with(|f| f.get())
}

/// Completion latch shared between one dispatch and its jobs.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn arrive(&self) {
        let mut left = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *left > 0 {
            left = self.done.wait(left).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The process-wide pool: long-lived workers draining a shared queue.
pub struct WorkerPool {
    tx: Sender<Job>,
    size: usize,
}

/// Send half of a raw result-slot pointer. Safe to ship across threads
/// because exactly one job writes each slot and the dispatcher only
/// reads it after the latch opens.
struct SlotPtr<R>(*mut Option<Vec<R>>);
unsafe impl<R: Send> Send for SlotPtr<R> {}

impl WorkerPool {
    fn with_workers(size: usize) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..size {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name("stellar-shard".into())
                .spawn(move || {
                    IS_POOL_WORKER.with(|f| f.set(true));
                    loop {
                        // Hold the queue lock only for the dequeue, never
                        // while running a job.
                        let job = {
                            let guard: std::sync::MutexGuard<'_, Receiver<Job>> =
                                rx.lock().unwrap_or_else(PoisonError::into_inner);
                            guard.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawning pool worker");
        }
        WorkerPool { tx, size }
    }

    /// The shared pool, sized to the machine's available parallelism.
    /// Workers are spawned on first use and live for the process.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::with_workers(crate::sharded::default_workers()))
    }

    /// Number of workers in the pool.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `f` over every element of every chunk on the pool, blocking
    /// until all chunks finish. Returns per-chunk result vectors in
    /// input order. Panics (after all jobs settle) if any shard
    /// panicked, mirroring a scoped join.
    pub fn run_chunks<T, R, F>(&self, chunks: Vec<Vec<T>>, f: &F) -> Vec<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = chunks.len();
        let mut slots: Vec<Option<Vec<R>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let latch = Arc::new(Latch::new(n));
        for (slot, chunk) in slots.iter_mut().zip(chunks) {
            let slot = SlotPtr(slot as *mut Option<Vec<R>>);
            let latch = Arc::clone(&latch);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let slot = slot;
                let out = catch_unwind(AssertUnwindSafe(|| {
                    chunk.into_iter().map(f).collect::<Vec<R>>()
                }));
                match out {
                    // SAFETY: each slot pointer is handed to exactly one
                    // job, and the dispatcher keeps `slots` alive (and
                    // unread) until the latch opens below.
                    Ok(v) => unsafe { *slot.0 = Some(v) },
                    Err(_) => latch.panicked.store(true, Ordering::SeqCst),
                }
                latch.arrive();
            });
            // SAFETY: erase the borrow lifetimes (`f`, the slot pointer)
            // to ship the job through the 'static channel. The latch
            // wait below guarantees the job has finished — and thus all
            // erased borrows are dead — before this frame returns.
            let job: Job = unsafe { std::mem::transmute(job) };
            self.tx.send(job).expect("pool workers alive");
        }
        latch.wait();
        if latch.panicked.load(Ordering::SeqCst) {
            panic!("classification shard panicked");
        }
        slots
            .into_iter()
            .map(|s| s.expect("completed job filled its slot"))
            .collect()
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_chunks_preserves_chunk_order() {
        let pool = WorkerPool::global();
        let chunks: Vec<Vec<u64>> = (0..8).map(|c| (c * 10..c * 10 + 5).collect()).collect();
        let out = pool.run_chunks(chunks.clone(), &|x| x + 1);
        let want: Vec<Vec<u64>> = chunks
            .iter()
            .map(|c| c.iter().map(|x| x + 1).collect())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn workers_are_marked_and_reused() {
        let pool = WorkerPool::global();
        assert!(!on_pool_worker());
        let flags = pool.run_chunks(vec![vec![()], vec![()]], &|()| on_pool_worker());
        assert_eq!(flags, vec![vec![true], vec![true]]);
    }

    #[test]
    fn concurrent_dispatches_do_not_cross_results() {
        let pool = WorkerPool::global();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0u64..4)
                .map(|t| {
                    scope.spawn(move || {
                        let chunks: Vec<Vec<u64>> = (0..6).map(|c| vec![t * 100 + c]).collect();
                        pool.run_chunks(chunks.clone(), &|x| x * 3)
                    })
                })
                .collect();
            for (t, h) in handles.into_iter().enumerate() {
                let got = h.join().unwrap();
                let want: Vec<Vec<u64>> = (0..6).map(|c| vec![(t as u64 * 100 + c) * 3]).collect();
                assert_eq!(got, want);
            }
        });
    }

    #[test]
    fn shard_panic_propagates_to_dispatcher() {
        let pool = WorkerPool::global();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks(vec![vec![1u8], vec![2u8]], &|x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(result.is_err());
        // The pool survives a panicking job and keeps serving.
        let ok = pool.run_chunks(vec![vec![7u8]], &|x| x);
        assert_eq!(ok, vec![vec![7]]);
    }
}
