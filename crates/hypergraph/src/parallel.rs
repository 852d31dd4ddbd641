//! Persistent work-stealing pool with deterministic chunked reduction.
//!
//! The multilevel pipeline's hot kernels (IPM candidate scoring, coarse
//! pin remapping, sigma/cut evaluation) are data-parallel over index
//! ranges. This module runs them over a fixed chunking of the index
//! space and hands the per-chunk results back **in chunk order**, which
//! gives the one property the partitioner needs from parallelism:
//!
//! > **Chunked-reduction rule.** Chunk boundaries depend only on the
//! > problem size, never on the thread count, and per-chunk results are
//! > combined in ascending chunk order. Any reduction built this way —
//! > including floating-point sums, which are not associative — produces
//! > bit-identical results at every thread count, including one.
//!
//! # Execution model
//!
//! Kernels run on a process-wide **persistent pool**: worker threads are
//! spawned lazily on first use and then parked between calls, so a
//! kernel invocation costs a mutex/condvar wake instead of `threads`
//! fresh `clone(2)` calls (the previous `std::thread::scope` executor
//! paid thread spawn + join on *every* call, which made every kernel
//! slower than serial on small inputs). The calling thread always
//! participates as worker 0, so a kernel completes even if every pool
//! worker is busy with other jobs — multiple jobs may be in flight at
//! once (the SPMD drivers run each simulated rank on its own thread and
//! all of them call kernels concurrently).
//!
//! Within a job, each participant owns a deque holding a contiguous
//! block of chunks: it pops from the front of its own deque and, when
//! empty, **steals from the back** of the fullest other deque. The claim
//! order affects only *when* a chunk runs, never how results are
//! combined, so work stealing is invisible to the reduction.
//!
//! Panics in a chunk body are caught per participant, poison the queue
//! (so other participants stop claiming), and the first payload is
//! re-raised on the calling thread.
//!
//! # Per-worker scratch
//!
//! Pool workers are persistent threads, so buffers cached in
//! thread-local storage survive across kernel calls. [`scratch_vec`]
//! hands out reusable `Vec<T>` buffers from a per-thread arena; a kernel
//! that routes its big per-worker accumulators through it allocates them
//! once per worker per process instead of once per call.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Default chunk size (in items) for the pipeline kernels: small enough
/// to balance uneven nets, large enough to amortize the claim.
pub const DEFAULT_CHUNK: usize = 4096;

/// Parses a `DLB_THREADS`-style value: a positive integer, else `None`.
fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The `DLB_THREADS` environment variable, read **once** per process and
/// cached: `resolve_threads` sits on hot paths (per level, per epoch),
/// and `std::env::var` takes a process-global lock on some platforms.
fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| std::env::var("DLB_THREADS").ok().as_deref().and_then(parse_threads))
}

/// Resolves an effective worker count: `requested` if positive, else the
/// `DLB_THREADS` environment variable if set to a positive integer, else
/// [`std::thread::available_parallelism`]. The environment variable and
/// the hardware parallelism are each read once per process and cached.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    host_parallelism()
}

/// Cached [`std::thread::available_parallelism`]: the number of threads
/// the OS will actually run at once.
fn host_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Effective participant count for one job: chunk boundaries and combine
/// order never depend on it (only on the problem size), so running a
/// `threads`-thread request on fewer physical participants is invisible
/// to results — while *oversubscribing* the host only adds wake/handoff
/// latency per kernel call (severe on small hosts: every extra
/// participant is a context switch the caller may have to wait out).
/// Cap at what the hardware can actually run.
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
pub fn num_chunks(len: usize, chunk: usize) -> usize {
    len.div_ceil(chunk.max(1))
}

/// The half-open item range of chunk `i`.
#[inline]
pub fn chunk_range(len: usize, chunk: usize, i: usize) -> Range<usize> {
    let chunk = chunk.max(1);
    let start = i * chunk;
    start..((start + chunk).min(len))
}

// ---------------------------------------------------------------------------
// Chunk deques
// ---------------------------------------------------------------------------

/// Per-participant chunk deques for one job.
///
/// Participant `p` starts owning the contiguous block
/// `[n·p/P, n·(p+1)/P)` of chunk indices, stored as a packed
/// `(head << 32) | tail` word: the owner pops from the front, thieves
/// steal from the back, both via CAS on the single word. Contiguous
/// blocks keep each participant streaming through adjacent chunks
/// (cache- and NUMA-friendlier than a shared counter) while steals
/// still level uneven chunks.
pub struct ChunkQueue {
    deques: Vec<AtomicU64>,
    poisoned: AtomicBool,
}

impl ChunkQueue {
    fn new(n_chunks: usize, participants: usize) -> Self {
        assert!(n_chunks <= u32::MAX as usize, "chunk count exceeds u32");
        let deques = (0..participants)
            .map(|p| {
                let head = (n_chunks * p / participants) as u64;
                let tail = (n_chunks * (p + 1) / participants) as u64;
                AtomicU64::new(head << 32 | tail)
            })
            .collect();
        ChunkQueue { deques, poisoned: AtomicBool::new(false) }
    }

    fn pop_front(&self, p: usize) -> Option<usize> {
        let d = &self.deques[p];
        let mut cur = d.load(Ordering::Acquire);
        loop {
            let (head, tail) = (cur >> 32, cur & 0xFFFF_FFFF);
            if head >= tail {
                return None;
            }
            match d.compare_exchange_weak(
                cur,
                (head + 1) << 32 | tail,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(head as usize),
                Err(actual) => cur = actual,
            }
        }
    }

    fn steal_back(&self, victim: usize) -> Option<usize> {
        let d = &self.deques[victim];
        let mut cur = d.load(Ordering::Acquire);
        loop {
            let (head, tail) = (cur >> 32, cur & 0xFFFF_FFFF);
            if head >= tail {
                return None;
            }
            match d.compare_exchange_weak(
                cur,
                head << 32 | (tail - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((tail - 1) as usize),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Claims the next chunk for participant `p`: its own deque first,
    /// then — steal-on-empty — the back of the victim with the most
    /// remaining chunks. Returns `None` when no work is left anywhere
    /// (or the job is poisoned by a panic).
    pub fn claim(&self, p: usize) -> Option<usize> {
        if self.poisoned.load(Ordering::Relaxed) {
            return None;
        }
        if let Some(i) = self.pop_front(p) {
            return Some(i);
        }
        loop {
            if self.poisoned.load(Ordering::Relaxed) {
                return None;
            }
            let mut best: Option<(usize, u64)> = None;
            for (q, d) in self.deques.iter().enumerate() {
                if q == p {
                    continue;
                }
                let cur = d.load(Ordering::Acquire);
                let remaining = (cur & 0xFFFF_FFFF).saturating_sub(cur >> 32);
                if remaining > 0 && best.is_none_or(|(_, r)| remaining > r) {
                    best = Some((q, remaining));
                }
            }
            match best {
                None => return None,
                // A steal can race to empty; rescan for another victim.
                Some((victim, _)) => {
                    if let Some(i) = self.steal_back(victim) {
                        return Some(i);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// A job body: `(participant_slot, queue)`. Trait-object type behind the
/// lifetime-erased pointer in [`JobCore`].
type JobBody = dyn Fn(usize, &ChunkQueue) + Sync;

/// One in-flight job. Shared between the caller and any pool workers
/// that joined it.
struct JobCore {
    queue: ChunkQueue,
    /// Lifetime-erased pointer to the caller's stack-held closure.
    ///
    /// Validity protocol: the caller keeps the closure alive until every
    /// helper that registered on this job has deregistered (it delists
    /// the job under the pool lock, then waits for `active == 0`), and
    /// helpers only register *while the job is listed*, under the same
    /// lock — so no helper can observe the pointer after it dies.
    body: *const JobBody,
    /// Next participant slot to hand to a joining helper; slot 0 is the
    /// caller. Once `>= participants` no further helper joins.
    next_slot: AtomicUsize,
    participants: usize,
    /// Helpers currently inside the body (registered under the pool
    /// lock, deregistered when done).
    active: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by any participant.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: the raw body pointer is only dereferenced under the validity
// protocol documented on `body`.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

struct PoolInner {
    /// Jobs that may still accept helpers.
    jobs: Vec<Arc<JobCore>>,
    spawned: usize,
    idle: usize,
}

struct Pool {
    inner: Mutex<PoolInner>,
    work: Condvar,
}

/// Hard cap on pool threads; far above any sane `threads` setting, it
/// only bounds pathological configs (the pool never shrinks).
const MAX_WORKERS: usize = 96;

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        inner: Mutex::new(PoolInner { jobs: Vec::new(), spawned: 0, idle: 0 }),
        work: Condvar::new(),
    })
}

/// Runs the body for one participant slot, catching panics into the job.
fn run_participant(job: &JobCore, slot: usize) {
    // SAFETY: see the validity protocol on `JobCore::body`.
    let body = unsafe { &*job.body };
    if let Err(payload) =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(slot, &job.queue)))
    {
        job.queue.poisoned.store(true, Ordering::Relaxed);
        let mut first = job.panic.lock().unwrap();
        if first.is_none() {
            *first = Some(payload);
        }
    }
}

fn worker_loop() {
    let pool = pool();
    let mut inner = pool.inner.lock().unwrap();
    loop {
        let job = inner
            .jobs
            .iter()
            .find(|j| j.next_slot.load(Ordering::Relaxed) < j.participants)
            .cloned();
        match job {
            Some(job) => {
                let slot = job.next_slot.fetch_add(1, Ordering::Relaxed);
                if slot >= job.participants {
                    // Raced with another worker for the last slot; the
                    // inflated counter just keeps further helpers away.
                    continue;
                }
                // Register while holding the pool lock: the caller can
                // only delist the job under this lock, and it waits for
                // `active == 0` after delisting, so the body stays alive
                // for the whole participation.
                *job.active.lock().unwrap() += 1;
                drop(inner);
                run_participant(&job, slot);
                {
                    let mut active = job.active.lock().unwrap();
                    *active -= 1;
                    if *active == 0 {
                        job.done.notify_all();
                    }
                }
                inner = pool.inner.lock().unwrap();
            }
            None => {
                inner.idle += 1;
                inner = pool.work.wait(inner).unwrap();
                inner.idle -= 1;
            }
        }
    }
}

/// Runs `body` across up to `participants` threads (the caller plus
/// pool workers) against a fresh [`ChunkQueue`] over `n_chunks` chunks.
/// Returns once every chunk is done and every helper has left the body;
/// re-raises the first panic any participant hit.
fn run_job(participants: usize, n_chunks: usize, body: &(dyn Fn(usize, &ChunkQueue) + Sync)) {
    debug_assert!(participants >= 2);
    let job = Arc::new(JobCore {
        queue: ChunkQueue::new(n_chunks, participants),
        // SAFETY: erase the borrow lifetime; validity is upheld by the
        // delist-then-quiesce protocol below (see `JobCore::body`).
        body: unsafe {
            std::mem::transmute::<*const (dyn Fn(usize, &ChunkQueue) + Sync), *const JobBody>(
                body as *const (dyn Fn(usize, &ChunkQueue) + Sync),
            )
        },
        next_slot: AtomicUsize::new(1),
        participants,
        active: Mutex::new(0),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });

    {
        let pool = pool();
        let mut inner = pool.inner.lock().unwrap();
        // Lazily grow the pool toward the helpers this job wants.
        let deficit = (participants - 1).saturating_sub(inner.idle);
        let spawnable = deficit.min(MAX_WORKERS.saturating_sub(inner.spawned));
        for _ in 0..spawnable {
            let name = format!("dlb-pool-{}", inner.spawned);
            // A failed spawn just means fewer helpers; the caller still
            // makes progress on its own.
            if std::thread::Builder::new().name(name).spawn(worker_loop).is_ok() {
                inner.spawned += 1;
            } else {
                break;
            }
        }
        inner.jobs.push(job.clone());
        drop(inner);
        pool.work.notify_all();
    }

    // The caller is participant 0; its panic (if any) is captured like a
    // helper's so the quiesce step below always runs.
    run_participant(&job, 0);

    // Retire: delist so no new helper can join, then wait out the ones
    // that did. Only after this may `body` (a stack borrow) die.
    {
        let mut inner = pool().inner.lock().unwrap();
        inner.jobs.retain(|j| !Arc::ptr_eq(j, &job));
    }
    {
        let mut active = job.active.lock().unwrap();
        while *active > 0 {
            active = job.done.wait(active).unwrap();
        }
    }

    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Chunked mapping APIs
// ---------------------------------------------------------------------------

/// Send/Sync-asserting wrapper for a raw output pointer shared across
/// participants; every write target is disjoint per chunk.
struct SharedOut<T>(*mut T);
unsafe impl<T: Send> Send for SharedOut<T> {}
unsafe impl<T: Send> Sync for SharedOut<T> {}

/// Maps `f` over the fixed chunking of `0..len` and returns the chunk
/// results **in chunk order**, carrying a per-worker scratch state.
///
/// `init` builds one scratch value per participant (per claim loop, not
/// per chunk), so expensive per-thread buffers — an IPM score
/// accumulator, a dedup map — are paid `threads` times, not
/// `num_chunks` times. `f(state, i, range)` processes chunk `i` covering
/// `range`.
///
/// With `threads <= 1` the chunks run inline on the caller's thread, in
/// chunk order, through the identical chunking — so a single-threaded
/// run is the reference ordering, not a special case.
///
/// # Panics
/// Propagates any panic raised by `f`.
pub fn map_chunks_with<S, T, I, F>(threads: usize, len: usize, chunk: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, Range<usize>) -> T + Sync,
{
    let n_chunks = num_chunks(len, chunk);
    if n_chunks == 0 {
        return Vec::new();
    }
    let workers = effective_workers(threads, n_chunks);
    if workers == 1 {
        let mut state = init();
        return (0..n_chunks)
            .map(|i| f(&mut state, i, chunk_range(len, chunk, i)))
            .collect();
    }

    let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
    {
        let out = SharedOut(slots.as_mut_ptr());
        // Capture the Sync wrapper, not its raw-pointer field (2021
        // closures capture disjoint fields by default).
        let out = &out;
        let body = |slot: usize, queue: &ChunkQueue| {
            let mut state = init();
            while let Some(i) = queue.claim(slot) {
                let value = f(&mut state, i, chunk_range(len, chunk, i));
                // SAFETY: the queue hands each chunk index to exactly one
                // participant, and `slots` outlives the job (run_job does
                // not return before all participants quiesce). Writing
                // over the pre-placed `None` drops nothing.
                unsafe { out.0.add(i).write(Some(value)) };
            }
        };
        run_job(workers, n_chunks, &body);
    }
    // An unwinding participant leaves its unclaimed slots `None`, but
    // run_job re-raises the panic before we get here.
    slots.into_iter().map(Option::unwrap).collect()
}

/// [`map_chunks_with`] without per-worker state.
pub fn map_chunks<T, F>(threads: usize, len: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    map_chunks_with(threads, len, chunk, || (), |(), i, range| f(i, range))
}

/// Fills a caller-owned buffer in parallel: chunk `i` covering items
/// `range` gets the exclusive window `out[range.start*stride ..
/// range.end*stride]` — `stride` output elements per item. The windows
/// tile `out` disjointly, so no per-chunk result vectors exist at all;
/// kernels that used to build a `Vec` per chunk and concatenate write
/// straight into their destination instead.
///
/// Chunk boundaries depend only on `len`/`chunk`, and each window is
/// written by whichever participant claims the chunk — the *values* are
/// position-determined, so the result is bit-identical at every thread
/// count (with `threads <= 1` the chunks run inline in order).
///
/// # Panics
/// Panics if `out.len() != len * stride`; propagates panics from `f`.
pub fn fill_chunks_with<T, S, I, F>(
    threads: usize,
    len: usize,
    chunk: usize,
    stride: usize,
    out: &mut [T],
    init: I,
    f: F,
) where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, Range<usize>, &mut [T]) + Sync,
{
    assert_eq!(out.len(), len * stride, "output buffer must hold len*stride elements");
    let n_chunks = num_chunks(len, chunk);
    if n_chunks == 0 {
        return;
    }
    let workers = effective_workers(threads, n_chunks);
    if workers == 1 {
        let mut state = init();
        for i in 0..n_chunks {
            let range = chunk_range(len, chunk, i);
            let window = &mut out[range.start * stride..range.end * stride];
            f(&mut state, i, range, window);
        }
        return;
    }
    let base = SharedOut(out.as_mut_ptr());
    let base = &base; // capture the Sync wrapper, not the raw field
    let body = |slot: usize, queue: &ChunkQueue| {
        let mut state = init();
        while let Some(i) = queue.claim(slot) {
            let range = chunk_range(len, chunk, i);
            // SAFETY: windows of distinct chunks are disjoint (chunks are
            // disjoint item ranges scaled by a constant stride), each
            // chunk is claimed exactly once, and `out` outlives the job.
            let window = unsafe {
                std::slice::from_raw_parts_mut(
                    base.0.add(range.start * stride),
                    (range.end - range.start) * stride,
                )
            };
            f(&mut state, i, range, window);
        }
    };
    run_job(workers, n_chunks, &body);
}

/// [`fill_chunks_with`] without per-worker state.
pub fn fill_chunks<T, F>(threads: usize, len: usize, chunk: usize, stride: usize, out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    fill_chunks_with(threads, len, chunk, stride, out, || (), |(), i, range, window| {
        f(i, range, window)
    })
}

/// Gives each **chunk** an exclusive `stride`-length window of `out`
/// (`out[i*stride..(i+1)*stride]` for chunk `i`) — the chunk-indexed
/// sibling of [`fill_chunks_with`], for per-chunk partial accumulators
/// (e.g. per-chunk part-weight vectors) that the caller then folds in
/// chunk order. `out.len()` must be `num_chunks * stride`.
pub fn fill_per_chunk<T, F>(threads: usize, len: usize, chunk: usize, stride: usize, out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    let n_chunks = num_chunks(len, chunk);
    assert_eq!(out.len(), n_chunks * stride, "output buffer must hold num_chunks*stride elements");
    if n_chunks == 0 {
        return;
    }
    let workers = effective_workers(threads, n_chunks);
    if workers == 1 {
        for i in 0..n_chunks {
            f(i, chunk_range(len, chunk, i), &mut out[i * stride..(i + 1) * stride]);
        }
        return;
    }
    let base = SharedOut(out.as_mut_ptr());
    let base = &base; // capture the Sync wrapper, not the raw field
    let body = |slot: usize, queue: &ChunkQueue| {
        while let Some(i) = queue.claim(slot) {
            // SAFETY: chunk-indexed windows are disjoint; each chunk is
            // claimed exactly once; `out` outlives the job.
            let window =
                unsafe { std::slice::from_raw_parts_mut(base.0.add(i * stride), stride) };
            f(i, chunk_range(len, chunk, i), window);
        }
    };
    run_job(workers, n_chunks, &body);
}

// ---------------------------------------------------------------------------
// Per-worker scratch arenas
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread arena of reusable buffers, keyed by element type. Pool
    /// workers are persistent, so entries survive across kernel calls.
    static ARENA: RefCell<HashMap<TypeId, Vec<Box<dyn Any>>>> = RefCell::new(HashMap::new());
}

/// A `Vec<T>` borrowed from the current thread's scratch arena; handed
/// back (emptied) on drop. Dereferences to `Vec<T>`.
pub struct ScratchVec<T: 'static> {
    vec: Option<Vec<T>>,
}

impl<T: 'static> Deref for ScratchVec<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        self.vec.as_ref().unwrap()
    }
}

impl<T: 'static> DerefMut for ScratchVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        self.vec.as_mut().unwrap()
    }
}

impl<T: 'static> Drop for ScratchVec<T> {
    fn drop(&mut self) {
        let mut vec = self.vec.take().unwrap();
        vec.clear();
        let _ = ARENA.try_with(|arena| {
            arena.borrow_mut().entry(TypeId::of::<T>()).or_default().push(Box::new(vec));
        });
    }
}

/// Borrows an **empty** `Vec<T>` from the current thread's scratch
/// arena, allocating one only if the arena has none of this type. The
/// capacity of previous uses is retained, so resizing it to a working
/// length is a fill, not an allocation, from the second call onward.
pub fn scratch_vec<T: 'static>() -> ScratchVec<T> {
    let vec = ARENA.with(|arena| {
        arena
            .borrow_mut()
            .get_mut(&TypeId::of::<T>())
            .and_then(|stack| stack.pop())
            .map(|boxed| *boxed.downcast::<Vec<T>>().expect("arena entry keyed by wrong type"))
    });
    ScratchVec { vec: Some(vec.unwrap_or_default()) }
}

/// [`scratch_vec`] pre-sized to `len` elements, every one reset to
/// `value` (the buffer arrives cleared, so no stale data survives).
pub fn scratch_vec_filled<T: Clone + 'static>(len: usize, value: T) -> ScratchVec<T> {
    let mut sv = scratch_vec::<T>();
    sv.resize(len, value);
    sv
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(sum_at(threads).to_bits(), reference.to_bits(), "threads={threads}");
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
        // A panic must poison only its own job: subsequent jobs on the
        // same persistent workers run normally.
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
    fn resolve_threads_prefers_request_then_cached_env() {
        // An explicit request always wins.
        assert_eq!(resolve_threads(5), 5);
        // The env fallback is read once per process and cached, so the
        // resolved auto value is stable for the process lifetime even if
        // the variable changes later.
        let auto = resolve_threads(0);
        assert!(auto >= 1);
        std::env::set_var("DLB_THREADS", "77");
        assert_eq!(resolve_threads(0), auto, "cached resolution must not re-read the env");
        std::env::remove_var("DLB_THREADS");
        assert_eq!(resolve_threads(0), auto);
    }

    #[test]
    fn env_value_parsing() {
        // The parse logic itself (cache aside): positive integers only.
        assert_eq!(parse_threads("3"), Some(3));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("not-a-number"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn chunk_queue_claims_each_chunk_once() {
        let q = ChunkQueue::new(1000, 4);
        let claimed: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for p in 0..4 {
                let q = &q;
                let claimed = &claimed;
                scope.spawn(move || {
                    while let Some(i) = q.claim(p) {
                        claimed[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for (i, c) in claimed.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    /// Drives the pool through [`run_job`] directly: the public entry
    /// points cap participants at the host width, so on a single-core
    /// machine they run inline and would never reach the pool, its
    /// worker spawning, or its panic protocol.
    #[test]
    fn pool_run_job_covers_every_chunk_and_survives_panics() {
        let n_chunks = 257;
        let hits: Vec<AtomicUsize> = (0..n_chunks).map(|_| AtomicUsize::new(0)).collect();
        run_job(4, n_chunks, &|slot, queue| {
            while let Some(i) = queue.claim(slot) {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i}");
        }

        // A panicking participant poisons its own job, the payload is
        // rethrown on the caller, and the pool serves later jobs.
        let boom = std::panic::catch_unwind(|| {
            run_job(3, 64, &|slot, queue| {
                while let Some(i) = queue.claim(slot) {
                    if i == 11 {
                        panic!("chunk 11 exploded");
                    }
                }
            })
        });
        assert!(boom.is_err());
        let total = AtomicUsize::new(0);
        run_job(3, 64, &|slot, queue| {
            while queue.claim(slot).is_some() {
                total.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn fill_chunks_strided_output() {
        // stride-3 windows: each item writes its index into 3 slots.
        let len = 2_000;
        let mut out = vec![0usize; len * 3];
        for threads in [1usize, 4] {
            out.iter_mut().for_each(|x| *x = usize::MAX);
            fill_chunks(threads, len, 64, 3, &mut out, |_, range, window| {
                for (off, item) in range.clone().enumerate() {
                    for s in 0..3 {
                        window[off * 3 + s] = item * 10 + s;
                    }
                }
            });
            for item in 0..len {
                for s in 0..3 {
                    assert_eq!(out[item * 3 + s], item * 10 + s, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn fill_per_chunk_partials_fold_identically() {
        let values: Vec<f64> = (0..30_000).map(|i| (i as f64).sin() * 1e3).collect();
        let total_at = |threads: usize| {
            let n = num_chunks(values.len(), 512);
            let mut partials = vec![0.0f64; n * 2];
            fill_per_chunk(threads, values.len(), 512, 2, &mut partials, |_, range, window| {
                for v in &values[range] {
                    window[(*v >= 0.0) as usize] += v;
                }
            });
            partials.chunks(2).fold([0.0f64; 2], |mut acc, w| {
                acc[0] += w[0];
                acc[1] += w[1];
                acc
            })
        };
        let reference = total_at(1);
        for threads in [2, 4, 8] {
            let got = total_at(threads);
            assert_eq!(got[0].to_bits(), reference[0].to_bits());
            assert_eq!(got[1].to_bits(), reference[1].to_bits());
        }
    }

    #[test]
    fn scratch_vec_retains_capacity_per_thread() {
        let cap = {
            let mut sv = scratch_vec::<u64>();
            sv.resize(10_000, 0);
            sv.capacity()
        };
        let sv = scratch_vec::<u64>();
        assert!(sv.is_empty(), "arena must hand back cleared buffers");
        assert!(sv.capacity() >= cap, "capacity must survive the round-trip");
        let filled = scratch_vec_filled::<u64>(100, 7);
        assert!(filled.iter().all(|&x| x == 7));
    }
}
