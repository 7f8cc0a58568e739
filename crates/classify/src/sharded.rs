//! Sharded parallel front-end for the tick pipeline.
//!
//! The dataplane's natural unit of parallelism is the port group: every
//! member port owns an independent classifier (its egress policy), so
//! ticks for different ports never contend. [`parallel_shards`] fans a
//! vector of such independent shards out over the process-wide
//! [`WorkerPool`](crate::pool::WorkerPool), preserving input order in
//! the output.
//!
//! The pool keeps scoped-thread ergonomics — shards hold `&mut` to each
//! port without `'static` or `Arc` ceremony, and every shard completes
//! (with panics propagated) before the call returns — while reusing
//! long-lived workers instead of paying a thread spawn + join per call,
//! which used to dominate the per-tick cost.

use crate::pool::{on_pool_worker, WorkerPool};

/// Default worker count: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Default minimum per-tick work (see [`effective_workers`]) below which
/// fanning shards out to the pool costs more than it buys. Calibrated
/// from the scale sweep: at 4 ports × 16 rules the parallel path ran at
/// 0.48× sequential — pure dispatch overhead.
pub const DEFAULT_PARALLEL_MIN_WORK: u64 = 4096;

/// Caps `max_workers` by the work actually on offer this tick: below
/// `min_work` units the dispatch overhead dominates and the caller
/// should run sequentially (returns 1). `work` is the caller's own
/// estimate — the tick pipeline uses Σ over touched shards of
/// (1 + rules), i.e. roughly ports × rules.
pub fn effective_workers(max_workers: usize, work: u64, min_work: u64) -> usize {
    if work < min_work {
        1
    } else {
        max_workers.max(1)
    }
}

/// Runs `f` over every shard, using up to `max_workers` pool workers,
/// and returns the results in input order. With one shard (or one
/// worker) everything runs inline on the caller's thread — no dispatch
/// cost on the common small-topology path. Calls made *from* a pool
/// worker (nested fan-out) also run inline rather than deadlocking on
/// the queue that worker is draining.
pub fn parallel_shards<T, R, F>(shards: Vec<T>, max_workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = shards.len();
    if n <= 1 || max_workers <= 1 || on_pool_worker() {
        return shards.into_iter().map(f).collect();
    }
    let workers = max_workers.min(n);
    let chunk_len = n.div_ceil(workers);
    // Contiguous chunks, preserving order: chunk i holds shards
    // [i*chunk_len, (i+1)*chunk_len).
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut rest = shards;
    while !rest.is_empty() {
        let tail = rest.split_off(chunk_len.min(rest.len()));
        chunks.push(std::mem::replace(&mut rest, tail));
    }
    WorkerPool::global()
        .run_chunks(chunks, &f)
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_applies_cutoff() {
        assert_eq!(effective_workers(8, 100, 4096), 1);
        assert_eq!(effective_workers(8, 4096, 4096), 8);
        assert_eq!(effective_workers(8, 0, 0), 8);
        // Degenerate caller caps still yield a runnable count.
        assert_eq!(effective_workers(0, 10_000, 4096), 1);
    }

    #[test]
    fn parallel_shards_preserves_order() {
        for workers in [1, 2, 3, 16] {
            let out = parallel_shards((0..37u64).collect(), workers, |x| x * 2);
            assert_eq!(out, (0..37u64).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_shards_empty_and_single() {
        assert_eq!(
            parallel_shards(Vec::<u8>::new(), 4, |x| x),
            Vec::<u8>::new()
        );
        assert_eq!(parallel_shards(vec![5u8], 4, |x| x + 1), vec![6]);
    }
}
