//! Scoped-thread executor with deterministic chunked reduction.
//!
//! One caller runs work on more than one thread: the Fast/CAS matcher
//! (`dlb_partitioner::matching`). The Strict pipeline runs on one thread.
//! This module runs a kernel over a fixed chunking of the index space and
//! hands the per-chunk results back **in chunk order**:
//!
//! > **Chunked-reduction rule.** Chunk boundaries depend only on the
//! > problem size, never on the thread count, and per-chunk results are
//! > combined in ascending chunk order. Any reduction built this way —
//! > including floating-point sums, which are not associative — produces
//! > bit-identical results at every thread count, including one.
//!
//! # Execution model
//!
//! Every entry point is one call to a private `run`: the caller plus
//! `workers − 1` helpers from [`std::thread::scope`] claim the next item
//! from one `Mutex`-guarded iterator, and each item is the disjoint
//! `&mut` slot of the result vector its result goes into. The claim
//! order affects only *when* a chunk runs, never where its result lands,
//! so it is invisible to the reduction. With one participant nothing is
//! spawned and the chunks run on the caller, in chunk order — the same
//! path at every thread count. Participants are capped at the host width
//! ([`effective_concurrency`]), and several callers may run kernels at
//! once (the SPMD drivers run each simulated rank on its own thread);
//! each call owns its helpers.
//!
//! A panic in a chunk body stops further claims and its payload is
//! re-raised unchanged on the caller once every helper has returned.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

/// The part-weight fold grid: replicated part weights sum per chunk of
/// this many vertices and fold the chunk sums in chunk order
/// (`dlb_partitioner::refine::fold_weights`), and the distributed fold
/// follows the same grid, which keeps the two bitwise equal.
pub const DEFAULT_CHUNK: usize = 4096;

/// Resolves an effective worker count: `requested` if positive, else
/// [`std::thread::available_parallelism`], read once per process and
/// cached.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        host_parallelism()
    }
}

/// Cached [`std::thread::available_parallelism`]: the number of threads
/// the OS will actually run at once.
fn host_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Effective participant count for one call: chunk boundaries and combine
/// order never depend on it (only on the problem size), so running a
/// `threads`-thread request on fewer physical participants is invisible
/// to results — while *oversubscribing* the host only adds spawn and
/// handoff latency per kernel call. Cap at what the hardware can
/// actually run, and at the number of chunks.
#[inline]
fn effective_workers(threads: usize, n_chunks: usize) -> usize {
    effective_concurrency(threads).min(n_chunks)
}

/// The number of workers a `threads`-thread request can actually run at
/// once on this host: the request capped at the cached hardware
/// parallelism. Callers choosing between algorithms by concurrency —
/// e.g. a concurrent matcher whose relaxed ordering only pays off under
/// real parallelism — should key on this, not on the raw request.
#[inline]
pub fn effective_concurrency(threads: usize) -> usize {
    threads.max(1).min(host_parallelism())
}

/// Number of chunks covering `len` items at `chunk` items each.
#[inline]
pub(crate) fn num_chunks(len: usize, chunk: usize) -> usize {
    len.div_ceil(chunk.max(1))
}

/// The half-open item range of chunk `i`.
#[inline]
pub(crate) fn chunk_range(len: usize, chunk: usize, i: usize) -> Range<usize> {
    let chunk = chunk.max(1);
    let start = i * chunk;
    start..((start + chunk).min(len))
}

/// Runs `work(state, item)` once for every item of `items` on the caller
/// plus up to `workers − 1` scoped helpers (none for `workers <= 1`).
/// Each participant builds its `state` with `init` once and then claims
/// items one at a time from the shared iterator until it is exhausted.
///
/// A helper that fails to spawn just means fewer helpers. The first panic
/// stops further claims and is re-raised, payload unchanged, on the
/// caller after every helper has returned.
fn run<It, S>(
    workers: usize,
    items: It,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, It::Item) + Sync,
) where
    It: Iterator + Send,
{
    // `None` once a participant has panicked: nobody claims after that.
    // Neither lock is held across a call that can panic, so neither is
    // ever poisoned.
    const UNPOISONED: &str = "no panic while a run lock is held";
    let queue = Mutex::new(Some(items));
    let first_panic = Mutex::new(None);
    let participate = || {
        let body = || {
            let mut state = init();
            loop {
                // Its own statement, so the lock is released before `work`.
                let next = queue
                    .lock()
                    .expect(UNPOISONED)
                    .as_mut()
                    .and_then(Iterator::next);
                let Some(item) = next else { break };
                work(&mut state, item);
            }
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            *queue.lock().expect(UNPOISONED) = None;
            first_panic.lock().expect(UNPOISONED).get_or_insert(payload);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            if std::thread::Builder::new()
                .spawn_scoped(scope, participate)
                .is_err()
            {
                break;
            }
        }
        participate();
    });
    if let Some(payload) = first_panic.into_inner().expect(UNPOISONED) {
        resume_unwind(payload);
    }
}

/// Maps `f` over the fixed chunking of `0..len` and returns the chunk
/// results **in chunk order**, carrying a per-worker scratch state.
///
/// `init` builds one scratch value per participant (not per chunk), so
/// expensive per-thread buffers — a score accumulator, a dedup map — are
/// paid once per participant, not `num_chunks` times. `f(state, i,
/// range)` processes chunk `i` covering `range`.
///
/// # Panics
/// Propagates any panic raised by `f`.
pub fn map_chunks_with<S, T, I, F>(
    threads: usize,
    len: usize,
    chunk: usize,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, Range<usize>) -> T + Sync,
{
    let n_chunks = num_chunks(len, chunk);
    let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
    let workers = effective_workers(threads, n_chunks);
    run(
        workers,
        slots.iter_mut().enumerate(),
        init,
        |state, (i, slot)| {
            *slot = Some(f(state, i, chunk_range(len, chunk, i)));
        },
    );
    slots.into_iter().map(Option::unwrap).collect()
}

/// [`map_chunks_with`] without per-worker state.
#[cfg(test)]
fn map_chunks<T, F>(threads: usize, len: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    map_chunks_with(threads, len, chunk, || (), |(), i, range| f(i, range))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunking_is_exhaustive_and_disjoint() {
        for len in [0usize, 1, 5, 4096, 4097, 10_000] {
            for chunk in [1usize, 7, 4096] {
                let mut covered = vec![false; len];
                for i in 0..num_chunks(len, chunk) {
                    for v in chunk_range(len, chunk, i) {
                        assert!(!covered[v], "item {v} covered twice");
                        covered[v] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "len={len} chunk={chunk}");
            }
        }
    }

    #[test]
    fn float_sum_is_bit_identical_across_thread_counts() {
        // Values chosen so the sum is association-sensitive.
        let values: Vec<f64> = (0..50_000)
            .map(|i| 1.0 / (i as f64 + 1.0) * if i % 3 == 0 { 1e10 } else { 1e-10 })
            .collect();
        let sum_at = |threads: usize| {
            map_chunks(threads, values.len(), 1024, |_, range| {
                values[range].iter().fold(0.0, |a, &x| a + x)
            })
            .into_iter()
            .fold(0.0, |acc, x| acc + x)
        };
        let reference = sum_at(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                sum_at(threads).to_bits(),
                reference.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_chunks_returns_chunk_order() {
        let out = map_chunks(4, 1000, 16, |i, range| (i, range.start));
        for (i, &(idx, start)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(start, i * 16);
        }
    }

    #[test]
    fn worker_state_is_reused_not_rebuilt() {
        let inits = AtomicUsize::new(0);
        let threads = 3;
        let _ = map_chunks_with(
            threads,
            10_000,
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |state, i, _| {
                state.push(i);
                state.len()
            },
        );
        assert!(inits.load(Ordering::Relaxed) <= threads);
    }

    #[test]
    #[should_panic(expected = "chunk 3 exploded")]
    fn panics_propagate() {
        let _ = map_chunks(2, 100, 10, |i, _| {
            if i == 3 {
                panic!("chunk 3 exploded");
            }
            i
        });
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        // A panic must end only its own call: later calls run normally.
        let boom = std::panic::catch_unwind(|| {
            map_chunks(4, 100, 5, |i, _| {
                if i == 7 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(boom.is_err());
        let out = map_chunks(4, 100, 5, |i, _| i);
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_jobs_from_many_threads() {
        // The SPMD drivers run kernels from several rank threads at
        // once; every job must see exactly its own chunks.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let len = 5_000 + t * 17;
                    let out = map_chunks(3, len, 64, |_, range| range.len());
                    assert_eq!(out.iter().sum::<usize>(), len);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn resolve_threads_prefers_request_then_host() {
        // An explicit request always wins, even above the host width.
        assert_eq!(resolve_threads(5), 5);
        assert_eq!(resolve_threads(1), 1);
        // Auto is the host's parallelism.
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0), host);
    }

    /// Drives [`run`] directly with 4 participants: the public entry
    /// points cap participants at the host width, so on a small host they
    /// would never spawn the helpers this exercises.
    #[test]
    fn run_with_helpers_covers_every_item_once_and_reraises_panics() {
        // Every item exactly once, for each kind of window the entry
        // points hand out: result slots, strided windows (7 items of
        // stride 3) and per-chunk windows (stride 5).
        let mut slots = vec![0usize; 1000];
        run(
            4,
            slots.iter_mut().enumerate(),
            || (),
            |(), (i, slot)| *slot += i + 1,
        );
        assert!(slots.iter().enumerate().all(|(i, &s)| s == i + 1));
        for window_len in [7 * 3, 5] {
            let mut out = vec![0u8; 1000 * 3];
            let calls = AtomicUsize::new(0);
            run(
                4,
                out.chunks_mut(window_len),
                || (),
                |(), window| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    window.iter_mut().for_each(|x| *x += 1);
                },
            );
            assert!(out.iter().all(|&x| x == 1), "window length {window_len}");
            assert_eq!(calls.into_inner(), out.len().div_ceil(window_len));
        }

        // A panic reaches the caller as its own payload, not as "a scoped
        // thread panicked", and the next call runs normally.
        let payload = catch_unwind(|| {
            run(
                4,
                0..64,
                || (),
                |(), i| {
                    if i == 11 {
                        panic!("item 11 exploded");
                    }
                },
            )
        })
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 11 exploded"));
        let total = AtomicUsize::new(0);
        run(
            4,
            0..64,
            || (),
            |(), _| {
                total.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(total.into_inner(), 64);

        // The chunked-reduction rule holds however many participants
        // actually run.
        let values: Vec<f64> = (0..50_000)
            .map(|i| 1.0 / (i as f64 + 1.0) * if i % 3 == 0 { 1e10 } else { 1e-10 })
            .collect();
        let sum_at = |workers: usize| {
            let mut partials = vec![0.0f64; num_chunks(values.len(), 1024)];
            run(
                workers,
                partials.iter_mut().enumerate(),
                || (),
                |(), (i, p)| {
                    *p = values[chunk_range(values.len(), 1024, i)]
                        .iter()
                        .fold(0.0, |a, &x| a + x);
                },
            );
            partials.into_iter().fold(0.0, |acc, x| acc + x)
        };
        let reference = sum_at(1);
        for workers in [2, 3, 4, 8] {
            assert_eq!(
                sum_at(workers).to_bits(),
                reference.to_bits(),
                "workers={workers}"
            );
        }
    }
}
