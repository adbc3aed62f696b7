//! The scoped worker pool and the deterministic-merge parallel primitives.
//!
//! # Execution model
//!
//! Every `par_*` call is one structured fork/join region:
//!
//! 1. The index space `0..len` is cut into contiguous chunks (several per
//!    worker, so uneven per-item cost still balances).
//! 2. Worker threads are spawned with [`std::thread::scope`] — they borrow
//!    the caller's data directly, no `'static` or `Arc` required.
//! 3. The calling thread acts as the producer: it feeds chunks into a
//!    [`ChunkQueue`] (a [`Mutex`]-guarded deque with a [`Condvar`] for
//!    workers that outpace the producer) and then closes the queue.
//!    Idle workers steal the next unclaimed chunk — self-scheduling, the
//!    simplest form of work stealing.
//! 4. Each worker tags its chunk outputs with the chunk's start index;
//!    after the join, tags are sorted and outputs concatenated, so the
//!    merged result is **exactly** the sequential left-to-right result.
//!
//! A panic inside the mapped closure is caught on the worker, the queue is
//! cancelled, and the original payload is re-raised on the calling thread
//! once every worker has drained.
//!
//! # Thread-count resolution
//!
//! [`threads`] resolves, in order: the calling thread's [`set_threads`]
//! override, the `LPH_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. A resolved count of `1` (in
//! particular `LPH_THREADS=1`) makes every primitive run its plain
//! sequential loop on the calling thread — no pool, no catch boundary —
//! which is the mode to use under a debugger.
//!
//! # Observability
//!
//! When the global [`lph_trace`] recorder is enabled, every fork/join
//! region reports under the `pool/` namespace: `pool/regions` and
//! `pool/workers_spawned` counters, a `pool/chunks` counter with a
//! `pool/chunk_ns` wall-time histogram per executed chunk,
//! `pool/chunks_per_worker` (how evenly self-scheduling balanced the
//! load), `pool/queue_depth` observed at each enqueue, and `pool/waits`
//! counting Condvar sleeps by workers that outpaced the producer. All of
//! it is scheduling-dependent — which is exactly why the `pool/`
//! namespace is excluded from [`lph_trace::Snapshot`]'s deterministic
//! fingerprint. With the recorder disabled the instrumentation is a
//! relaxed atomic load per site.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::thread;

type PanicPayload = Box<dyn Any + Send + 'static>;

thread_local! {
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Overrides the worker count every `par_*` primitive uses **for the
/// calling thread**; `0` clears the override. Being thread-local,
/// concurrent tests (or nested pools) cannot race each other's settings.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.with(|o| o.set(n));
}

/// The worker count the `par_*` primitives will use: the calling thread's
/// [`set_threads`] override if set, else `LPH_THREADS` if set and positive,
/// else the machine's available parallelism.
pub fn threads() -> usize {
    resolve_threads(
        THREAD_OVERRIDE.with(Cell::get),
        std::env::var("LPH_THREADS").ok().as_deref(),
        thread::available_parallelism().map_or(1, usize::from),
    )
}

/// Pure resolution order: override, then environment, then hardware.
fn resolve_threads(overridden: usize, env: Option<&str>, available: usize) -> usize {
    if overridden > 0 {
        return overridden;
    }
    if let Some(n) = env.and_then(|v| v.trim().parse::<usize>().ok()) {
        if n > 0 {
            return n;
        }
    }
    available.max(1)
}

/// Chunk size targeting several chunks per worker for load balance.
fn chunk_len(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.saturating_mul(8).max(1)).max(1)
}

/// A closable chunk queue: `Mutex`-guarded deque plus a `Condvar` on which
/// workers wait whenever they outpace the producing (calling) thread.
struct ChunkQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    chunks: VecDeque<Range<usize>>,
    open: bool,
}

impl ChunkQueue {
    fn new() -> Self {
        ChunkQueue {
            state: Mutex::new(QueueState {
                chunks: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues a chunk; returns `false` if the queue was cancelled (the
    /// producer should stop feeding).
    fn push(&self, c: Range<usize>) -> bool {
        let mut s = self.state.lock().expect("queue lock");
        if !s.open {
            return false;
        }
        s.chunks.push_back(c);
        let depth = s.chunks.len();
        drop(s);
        // Outside the queue lock: the recorder has its own.
        lph_trace::observe("pool/queue_depth", depth as u64);
        self.ready.notify_one();
        true
    }

    /// Blocks until a chunk is available or the queue is closed and empty.
    fn pop(&self) -> Option<Range<usize>> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(c) = s.chunks.pop_front() {
                return Some(c);
            }
            if !s.open {
                return None;
            }
            lph_trace::add("pool/waits", 1);
            s = self.ready.wait(s).expect("queue lock");
        }
    }

    /// Marks the end of production; workers drain what remains.
    fn close(&self) {
        self.state.lock().expect("queue lock").open = false;
        self.ready.notify_all();
    }

    /// Closes *and* discards pending chunks (the panic path).
    fn cancel(&self) {
        let mut s = self.state.lock().expect("queue lock");
        s.open = false;
        s.chunks.clear();
        drop(s);
        self.ready.notify_all();
    }
}

/// The fork/join engine: runs `worker` over ascending index chunks on
/// `workers` threads and returns the `(chunk_start, output)` pairs sorted
/// by chunk start.
fn run_chunks<R, W>(workers: usize, len: usize, worker: W) -> Vec<(usize, R)>
where
    R: Send,
    W: Fn(Range<usize>) -> R + Sync,
{
    let _span = lph_trace::span("pool/region");
    lph_trace::add("pool/regions", 1);
    lph_trace::add("pool/workers_spawned", workers as u64);
    let step = chunk_len(len, workers);
    let queue = ChunkQueue::new();
    let panic_slot: Mutex<Option<PanicPayload>> = Mutex::new(None);
    let mut merged: Vec<(usize, R)> = Vec::new();

    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    while let Some(range) = queue.pop() {
                        let start = range.start;
                        let t0 = lph_trace::enabled().then(std::time::Instant::now);
                        match catch_unwind(AssertUnwindSafe(|| worker(range))) {
                            Ok(r) => {
                                if let Some(t0) = t0 {
                                    lph_trace::add("pool/chunks", 1);
                                    lph_trace::observe(
                                        "pool/chunk_ns",
                                        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                                    );
                                }
                                local.push((start, r));
                            }
                            Err(payload) => {
                                let mut slot = panic_slot.lock().expect("panic slot");
                                slot.get_or_insert(payload);
                                drop(slot);
                                queue.cancel();
                                break;
                            }
                        }
                    }
                    lph_trace::observe("pool/chunks_per_worker", local.len() as u64);
                    local
                })
            })
            .collect();

        // Produce chunks from the calling thread, then close the queue.
        let mut start = 0;
        while start < len {
            let end = (start + step).min(len);
            if !queue.push(start..end) {
                break;
            }
            start = end;
        }
        queue.close();

        for h in handles {
            merged.extend(
                h.join()
                    .expect("worker panicked outside the catch boundary"),
            );
        }
    });

    if let Some(payload) = panic_slot.into_inner().expect("panic slot") {
        resume_unwind(payload);
    }
    merged.sort_by_key(|&(start, _)| start);
    merged
}

/// The worker count for a region over `len` items, or `None` when the
/// call should run its plain sequential loop in place (one resolved
/// thread, or nothing to split).
fn region_workers(len: usize) -> Option<usize> {
    let workers = threads();
    (workers > 1 && len > 1).then(|| workers.min(len))
}

/// Maps `f` over `0..len`, returning the results in index order — exactly
/// `(0..len).map(f).collect()`, computed on [`threads`] workers.
pub fn par_map_index<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let Some(workers) = region_workers(len) else {
        return (0..len).map(f).collect();
    };
    let chunks = run_chunks(workers, len, |range| range.map(&f).collect::<Vec<U>>());
    collect_ordered(chunks, len)
}

/// Maps `f` over a slice, returning the results in input order — exactly
/// `items.iter().map(f).collect()`, computed on [`threads`] workers.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_index(items.len(), |i| f(&items[i]))
}

/// [`par_map`] that stays sequential below a batch-size threshold.
///
/// Latency-sensitive callers (the `lph-serve` request batcher) use this
/// instead of [`par_map`]: a fork/join region costs worker spawns and a
/// queue round-trip, which dominates tiny batches. Below `min_parallel`
/// items the call is exactly the sequential map on the calling thread; at
/// or above it, exactly [`par_map`] — either way the output order is the
/// input order.
pub fn par_map_threshold<T, U, F>(min_parallel: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if items.len() < min_parallel {
        items.iter().map(f).collect()
    } else {
        par_map(items, f)
    }
}

/// Filter-maps `f` over `0..len`, keeping survivors in index order —
/// exactly `(0..len).filter_map(f).collect()`. Memory stays proportional
/// to the *kept* results, which is what makes it the right shape for
/// sparse sweeps like connected-graph enumeration over all edge masks.
pub fn par_filter_map_index<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> Option<U> + Sync,
{
    let Some(workers) = region_workers(len) else {
        return (0..len).filter_map(f).collect();
    };
    let chunks = run_chunks(workers, len, |range| {
        range.filter_map(&f).collect::<Vec<U>>()
    });
    chunks.into_iter().flat_map(|(_, v)| v).collect()
}

/// Flat-maps `f` over a slice, concatenating the per-item vectors in input
/// order — exactly `items.iter().flat_map(f).collect()`.
pub fn par_flat_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Vec<U> + Sync,
{
    let Some(workers) = region_workers(items.len()) else {
        return items.iter().flat_map(f).collect();
    };
    let chunks = run_chunks(workers, items.len(), |range| {
        range.flat_map(|i| f(&items[i])).collect::<Vec<U>>()
    });
    chunks.into_iter().flat_map(|(_, v)| v).collect()
}

/// Flattens sorted `(start, chunk)` pairs, checking full index coverage.
fn collect_ordered<U>(chunks: Vec<(usize, Vec<U>)>, len: usize) -> Vec<U> {
    let mut out = Vec::with_capacity(len);
    for (start, chunk) in chunks {
        debug_assert_eq!(start, out.len(), "chunk merge out of order");
        out.extend(chunk);
    }
    debug_assert_eq!(out.len(), len, "chunk merge lost items");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` with the calling thread's worker count pinned to `workers`.
    fn with_threads<R>(workers: usize, f: impl FnOnce() -> R) -> R {
        set_threads(workers);
        let out = f();
        set_threads(0);
        out
    }

    #[test]
    fn resolution_precedence() {
        assert_eq!(resolve_threads(3, Some("8"), 16), 3, "override wins");
        assert_eq!(resolve_threads(0, Some("8"), 16), 8, "env next");
        assert_eq!(resolve_threads(0, Some(" 2 "), 16), 2, "env is trimmed");
        assert_eq!(resolve_threads(0, Some("0"), 16), 16, "zero env ignored");
        assert_eq!(resolve_threads(0, Some("no"), 16), 16, "bad env ignored");
        assert_eq!(resolve_threads(0, None, 16), 16, "hardware last");
        assert_eq!(resolve_threads(0, None, 0), 1, "at least one worker");
        assert_eq!(resolve_threads(0, Some("1"), 16), 1, "LPH_THREADS=1");
    }

    #[test]
    fn map_matches_sequential_for_every_worker_count() {
        let items: Vec<u64> = (0..997).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 4, 7, 64] {
            let par = with_threads(workers, || par_map(&items, |&x| x * x + 1));
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn filter_map_keeps_order() {
        let seq: Vec<usize> = (0..1000).filter(|i| i % 7 == 0).collect();
        for workers in [1, 2, 5] {
            let par = with_threads(workers, || {
                par_filter_map_index(1000, |i| (i % 7 == 0).then_some(i))
            });
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn threshold_map_matches_sequential_on_both_sides() {
        let items: Vec<u64> = (0..37).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        // Below the threshold (sequential path) and above it (pool path)
        // must produce identical output.
        assert_eq!(par_map_threshold(100, &items, |&x| x * 3), seq);
        assert_eq!(par_map_threshold(2, &items, |&x| x * 3), seq);
        assert_eq!(
            par_map_threshold(2, &Vec::<u64>::new(), |&x| x),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn flat_map_concatenates_in_order() {
        let items: Vec<usize> = (0..200).collect();
        let seq: Vec<usize> = items.iter().flat_map(|&i| vec![i; i % 3]).collect();
        let par = with_threads(4, || par_flat_map(&items, |&i| vec![i; i % 3]));
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        with_threads(4, || {
            assert_eq!(par_map(&Vec::<u8>::new(), |&x| x), Vec::<u8>::new());
            assert_eq!(par_map(&[9u8], |&x| x), vec![9]);
        });
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<usize> = (0..256).collect();
        let caught = with_threads(4, || {
            std::panic::catch_unwind(|| {
                par_map(&items, |&i| {
                    assert!(i != 97, "poisoned item {i}");
                    i
                })
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("poisoned item 97"), "payload kept: {msg}");
    }

    #[test]
    fn thread_override_is_thread_local() {
        set_threads(5);
        assert_eq!(threads(), 5);
        let other = thread::spawn(threads).join().expect("spawned thread");
        // The spawned thread sees its own (unset) override, not ours.
        assert_ne!(other, 0);
        set_threads(0);
    }
}
