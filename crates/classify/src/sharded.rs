//! Sharded parallel front-end for the tick pipeline.
//!
//! The dataplane's natural unit of parallelism is the port group: every
//! member port owns an independent classifier (its egress policy), so
//! ticks for different ports never contend. [`parallel_shards`] fans a
//! vector of such independent shards out over scoped threads
//! (`std::thread::scope`), preserving input order in the output. Shards
//! may hold `&mut` to each port without `'static` or `Arc` ceremony, and
//! every shard completes — with a panic re-raised in the caller — before
//! the call returns.

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

thread_local! {
    /// Set while this thread runs a chunk of some [`parallel_shards`]
    /// call, so a call made from inside a shard runs inline.
    static IN_SHARD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running a chunk until dropped — also
/// when the chunk panics, so a caller that catches the panic fans out
/// again on its next call.
struct InShard(bool);

impl InShard {
    fn enter() -> Self {
        InShard(IN_SHARD.replace(true))
    }
}

impl Drop for InShard {
    fn drop(&mut self) {
        IN_SHARD.set(self.0);
    }
}

/// The host's available parallelism, read once per process.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f` over every shard, on up to `max_workers` threads, and
/// returns the results in input order. The shards are cut into
/// contiguous chunks, one per thread; the caller runs the first chunk
/// itself and every other chunk gets a scoped thread, which runs inline
/// on the caller if it cannot be spawned. A panicking shard is re-raised
/// in the caller once every chunk has finished.
///
/// With one shard, one worker, or when called from inside a shard
/// (nested fan-out), everything runs inline on the caller's thread.
///
/// Thread bound: one call runs at most `available_parallelism()` chunks
/// — the caller plus that many minus one spawned threads — so it keeps
/// at most that many threads busy whatever `max_workers` asks for. A
/// shard that calls again runs inline instead of spawning, so nested
/// fan-out cannot multiply the bound, and every spawned thread is joined
/// before the call returns, so none outlives it.
pub fn parallel_shards<T, R, F>(shards: Vec<T>, max_workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = shards.len();
    if n <= 1 || max_workers <= 1 || IN_SHARD.get() {
        return shards.into_iter().map(f).collect();
    }
    fan_out(shards, max_workers.min(host_threads()), &f)
}

/// Runs `f` over `shards` in `chunks` contiguous chunks: the first on
/// the caller, each other on its own scoped thread.
fn fan_out<T, R, F>(shards: Vec<T>, chunks: usize, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = shards.len();
    let chunk_len = n.div_ceil(chunks.max(1));
    if chunk_len >= n {
        return run_chunk(shards, f);
    }
    // Chunk i holds shards [i * chunk_len, (i + 1) * chunk_len). The
    // spawned ones sit in slots a failed spawn leaves filled, so the
    // caller can run that chunk itself.
    let mut rest = shards.into_iter();
    let first: Vec<T> = rest.by_ref().take(chunk_len).collect();
    let mut slots: Vec<Mutex<Vec<T>>> = Vec::with_capacity(n.div_ceil(chunk_len) - 1);
    while !rest.as_slice().is_empty() {
        slots.push(Mutex::new(rest.by_ref().take(chunk_len).collect()));
    }
    thread::scope(|scope| {
        let spawned: Vec<_> = slots
            .iter()
            .map(|slot| {
                thread::Builder::new()
                    .name("stellar-shard".into())
                    .spawn_scoped(scope, move || run_chunk(take(slot), f))
                    .ok()
            })
            .collect();
        let mut out = run_chunk(first, f);
        out.reserve(n - out.len());
        for (slot, handle) in slots.iter().zip(spawned) {
            out.extend(match handle {
                Some(h) => h.join().unwrap_or_else(|panic| resume_unwind(panic)),
                None => run_chunk(take(slot), f),
            });
        }
        out
    })
}

/// Runs one chunk with the thread marked as inside a shard.
fn run_chunk<T, R>(chunk: Vec<T>, f: &impl Fn(T) -> R) -> Vec<R> {
    let _shard = InShard::enter();
    chunk.into_iter().map(f).collect()
}

/// Takes a chunk out of its slot. No code panics while holding a slot's
/// lock, so a poisoned one still guards a whole chunk.
fn take<T>(slot: &Mutex<Vec<T>>) -> Vec<T> {
    std::mem::take(&mut *slot.lock().unwrap_or_else(PoisonError::into_inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The distinct threads `chunks` chunks of eight shards ran on.
    fn threads_used(chunks: usize) -> HashSet<thread::ThreadId> {
        fan_out((0..8).collect(), chunks, &|_: u8| thread::current().id())
            .into_iter()
            .collect()
    }

    #[test]
    fn parallel_shards_preserves_order() {
        for workers in [1, 2, 3, 16] {
            let out = parallel_shards((0..37u64).collect(), workers, |x| x * 2);
            assert_eq!(out, (0..37u64).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_preserves_chunk_order() {
        for chunks in [1, 2, 3, 16] {
            let out = fan_out((0..37u64).collect(), chunks, &|x| x * 2);
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
        assert_eq!(fan_out(Vec::<u8>::new(), 4, &|x| x), Vec::<u8>::new());
    }

    #[test]
    fn the_caller_runs_the_first_chunk_and_each_other_gets_a_thread() {
        let me = thread::current().id();
        let ids = fan_out((0..8).collect(), 4, &|_: u8| thread::current().id());
        assert!(ids[..2].iter().all(|&id| id == me));
        assert!(ids[2..].iter().all(|&id| id != me));
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 4);
        assert_eq!(threads_used(1), HashSet::from([me]));
    }

    #[test]
    fn shard_panic_propagates_and_the_next_call_fans_out() {
        for bad in [1u8, 6] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                fan_out((0..8).collect(), 2, &|x: u8| {
                    assert_ne!(x, bad, "boom");
                    x
                })
            }));
            assert!(result.is_err(), "shard {bad}'s panic was swallowed");
            assert!(!IN_SHARD.get());
            assert_eq!(threads_used(2).len(), 2);
        }
    }

    #[test]
    fn a_call_from_inside_a_shard_runs_inline() {
        let nested = fan_out((0..4).collect(), 2, &|_: u8| {
            let outer = thread::current().id();
            let inner = parallel_shards((0..8).collect(), 4, |_: u8| thread::current().id());
            inner.iter().all(|&id| id == outer)
        });
        assert_eq!(nested, vec![true; 4]);
        assert!(!IN_SHARD.get());
    }
}
