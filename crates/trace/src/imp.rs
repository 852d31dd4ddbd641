//! Recording: sessions, thread enrollment, span guards and counters.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::{AttrValue, Counter, Span, TraceReport};

/// Whether a session is currently active, globally.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Session generation, bumped at each session start; thread enrollment
/// is tagged with the generation it belongs to so stale thread-local
/// state from a previous session can never record into a new one.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// The recorder for the active session.
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
/// Serializes sessions: a second concurrent `session()` blocks here.
static SESSION_GATE: Mutex<()> = Mutex::new(());

const NUM_COUNTERS: usize = Counter::ALL.len();
#[allow(clippy::declare_interior_mutable_const)]
const COUNTER_ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; NUM_COUNTERS] = [COUNTER_ZERO; NUM_COUNTERS];

thread_local! {
    /// Generation this thread is enrolled in (0 = never enrolled;
    /// generations start at 1).
    static ENROLLED_GEN: Cell<u64> = const { Cell::new(0) };
    /// Parent adopted from a forking thread (used when the local span
    /// stack is empty, e.g. on rank 0 of an SPMD world).
    static ADOPTED_PARENT: Cell<Option<usize>> = const { Cell::new(None) };
    /// Stack of open span indices on this thread.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Generation of the session this thread's world runs under: the
    /// session's own thread and every rank — recording or muted — of a
    /// world an enrolled thread forks; 0 otherwise.
    static WORLD_GEN: Cell<u64> = const { Cell::new(0) };
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

/// True when a session is active *and* the current thread is enrolled
/// in it. Gates every record operation.
#[inline]
pub(crate) fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
        && ENROLLED_GEN.with(|g| g.get()) == GENERATION.load(Ordering::Relaxed)
}

/// True on every rank of an SPMD world that runs under the active
/// session — the recording rank and the muted ones alike — and on the
/// session's own thread. SPMD code gating *collective* trace operations
/// (where every rank must participate or none) must use this instead of
/// `enabled`, or muted ranks would skip the collective and deadlock
/// the world. A world forked outside the session answers `false` on all
/// its ranks however another thread's session comes and goes meanwhile.
#[inline]
pub fn session_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
        && WORLD_GEN.with(|g| g.get()) == GENERATION.load(Ordering::Relaxed)
}

/// Adds `n` to a deterministic counter. No-op unless `enabled`.
#[inline]
pub fn count(c: Counter, n: u64) {
    if n > 0 && enabled() {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Enrollment snapshot carried from a forking thread to the threads it
/// spawns (see `mpisim::run_spmd`).
#[derive(Debug, Clone, Copy)]
pub struct ForkCtx {
    generation: u64,
    parent: Option<usize>,
    enrolled: bool,
}

/// Captures the calling thread's enrollment and current span, to hand
/// to [`adopt`] on a spawned thread.
pub fn fork() -> ForkCtx {
    let generation = GENERATION.load(Ordering::Relaxed);
    let enrolled = ACTIVE.load(Ordering::Relaxed) && ENROLLED_GEN.with(|g| g.get()) == generation;
    let parent = if enrolled {
        STACK
            .with(|s| s.borrow().last().copied())
            .or_else(|| ADOPTED_PARENT.with(|p| p.get()))
    } else {
        None
    };
    ForkCtx {
        generation,
        parent,
        enrolled,
    }
}

/// Enrolls the calling thread under `ctx` if the forking thread was
/// enrolled and `record` is true (callers pass `rank == 0` so exactly
/// one rank of each SPMD world records). Spans opened while the local
/// stack is empty attach under the forking thread's current span.
pub fn adopt(ctx: ForkCtx, record: bool) {
    WORLD_GEN.with(|g| g.set(if ctx.enrolled { ctx.generation } else { 0 }));
    if ctx.enrolled && record && GENERATION.load(Ordering::Relaxed) == ctx.generation {
        ENROLLED_GEN.with(|g| g.set(ctx.generation));
        ADOPTED_PARENT.with(|p| p.set(ctx.parent));
    } else {
        ENROLLED_GEN.with(|g| g.set(0));
        ADOPTED_PARENT.with(|p| p.set(None));
    }
}

/// RAII guard for an open span; records the duration on drop.
pub struct SpanGuard {
    /// `Some((generation, span index))` when live; `None` when the
    /// guard was created disabled and is inert.
    slot: Option<(u64, usize)>,
    start: Instant,
}

/// Opens a span. Prefer the [`span!`](crate::span) macro, which also
/// attaches attributes.
pub fn span_start(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            slot: None,
            start: Instant::now(),
        };
    }
    let generation = GENERATION.load(Ordering::Relaxed);
    let mut rec = lock_recorder();
    let Some(rec) = rec.as_mut() else {
        return SpanGuard {
            slot: None,
            start: Instant::now(),
        };
    };
    let parent = STACK
        .with(|s| s.borrow().last().copied())
        .or_else(|| ADOPTED_PARENT.with(|p| p.get()));
    let idx = rec.spans.len();
    let start = Instant::now();
    rec.spans.push(Span {
        name,
        start_ns: start.duration_since(rec.epoch).as_nanos() as u64,
        dur_ns: 0,
        parent,
        children: Vec::new(),
        attrs: Vec::new(),
    });
    if let Some(p) = parent {
        rec.spans[p].children.push(idx);
    }
    STACK.with(|s| s.borrow_mut().push(idx));
    SpanGuard {
        slot: Some((generation, idx)),
        start,
    }
}

impl SpanGuard {
    /// Attaches an attribute to the span. Inert on a disabled guard.
    pub fn attr(&self, name: &'static str, value: impl Into<AttrValue>) {
        let Some((generation, idx)) = self.slot else {
            return;
        };
        if GENERATION.load(Ordering::Relaxed) != generation {
            return;
        }
        let mut rec = lock_recorder();
        if let Some(rec) = rec.as_mut() {
            if let Some(span) = rec.spans.get_mut(idx) {
                span.attrs.push((name, value.into()));
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((generation, idx)) = self.slot else {
            return;
        };
        if GENERATION.load(Ordering::Relaxed) != generation {
            return;
        }
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&idx) {
                s.pop();
            }
        });
        let mut rec = lock_recorder();
        if let Some(rec) = rec.as_mut() {
            if let Some(span) = rec.spans.get_mut(idx) {
                span.dur_ns = dur_ns;
            }
        }
    }
}

fn lock_recorder() -> MutexGuard<'static, Option<Recorder>> {
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// An active recording session. Obtain with [`session`]; consume with
/// [`TraceSession::finish`] to get the [`TraceReport`].
pub struct TraceSession {
    _gate: MutexGuard<'static, ()>,
}

/// Opens a recording session and enrolls the calling thread. Blocks if
/// another session is active anywhere in the process (sessions are
/// globally serialized).
pub fn session() -> TraceSession {
    let gate = SESSION_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    *lock_recorder() = Some(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    });
    ENROLLED_GEN.with(|g| g.set(generation));
    WORLD_GEN.with(|g| g.set(generation));
    ADOPTED_PARENT.with(|p| p.set(None));
    STACK.with(|s| s.borrow_mut().clear());
    ACTIVE.store(true, Ordering::Relaxed);
    TraceSession { _gate: gate }
}

impl TraceSession {
    /// Ends the session and returns everything recorded.
    pub fn finish(self) -> TraceReport {
        ACTIVE.store(false, Ordering::Relaxed);
        // Invalidate enrollment (and any outstanding guards) before
        // releasing the gate.
        GENERATION.fetch_add(1, Ordering::Relaxed);
        ENROLLED_GEN.with(|g| g.set(0));
        ADOPTED_PARENT.with(|p| p.set(None));
        STACK.with(|s| s.borrow_mut().clear());
        let rec = lock_recorder().take();
        let mut counters = std::collections::BTreeMap::new();
        for c in Counter::ALL {
            let v = COUNTERS[c as usize].swap(0, Ordering::Relaxed);
            if v > 0 {
                counters.insert(c.name(), v);
            }
        }
        TraceReport {
            spans: rec.map(|r| r.spans).unwrap_or_default(),
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_records_nested_spans_and_counters() {
        let session = session();
        {
            let outer = crate::span!("outer", k = 4usize);
            let _ = &outer;
            {
                let _inner = crate::span!("inner");
                count(Counter::FmPasses, 2);
            }
            {
                let _inner = crate::span!("inner");
            }
        }
        let report = session.finish();
        assert_eq!(report.spans.len(), 3);
        assert_eq!(report.spans[0].name, "outer");
        assert_eq!(report.spans[0].children, vec![1, 2]);
        assert_eq!(report.spans[1].parent, Some(0));
        assert_eq!(report.counter(Counter::FmPasses), 2);
        assert_eq!(report.spans[0].attrs, vec![("k", AttrValue::Int(4))]);
    }

    #[test]
    fn no_session_records_nothing() {
        {
            let _span = crate::span!("ghost");
            count(Counter::FmPasses, 1);
        }
        let session = session();
        let report = session.finish();
        assert!(report.spans.is_empty(), "spans leaked: {:?}", report.spans);
        assert!(report.counters.is_empty());
    }

    #[test]
    fn unenrolled_thread_does_not_record() {
        let session = session();
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _span = crate::span!("foreign");
                    count(Counter::Epochs, 7);
                })
                .join()
                .unwrap();
        });
        let report = session.finish();
        assert!(report.spans.is_empty());
        assert_eq!(report.counter(Counter::Epochs), 0);
    }

    #[test]
    fn forked_thread_adopts_parent_when_recording() {
        let session = session();
        {
            let _root = crate::span!("root");
            let ctx = fork();
            std::thread::scope(|scope| {
                scope
                    .spawn(move || {
                        adopt(ctx, true);
                        let _child = crate::span!("child");
                    })
                    .join()
                    .unwrap();
                scope
                    .spawn(move || {
                        adopt(ctx, false);
                        let _child = crate::span!("muted");
                    })
                    .join()
                    .unwrap();
            });
        }
        let report = session.finish();
        let names: Vec<&str> = report.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["root", "child"]);
        assert_eq!(report.spans[1].parent, Some(0));
    }

    /// `session_active` is a property of the world, not of the process:
    /// both ranks of a world forked under the session see it — the muted
    /// one too — and a world forked by a thread outside the session sees
    /// none, while that session is open.
    #[test]
    fn session_active_is_the_same_on_every_rank_of_a_world() {
        let outside = fork();
        let session = session();
        let inside = fork();
        let seen = |ctx: ForkCtx, record: bool| {
            std::thread::scope(|scope| {
                let rank = scope.spawn(move || {
                    adopt(ctx, record);
                    session_active()
                });
                rank.join().unwrap()
            })
        };
        assert!(session_active());
        assert_eq!([seen(inside, true), seen(inside, false)], [true, true]);
        assert_eq!([seen(outside, true), seen(outside, false)], [false, false]);
        session.finish();
        assert!(!session_active());
        assert!(
            !seen(inside, false),
            "the session the world ran under is over"
        );
    }

    #[test]
    fn coverage_and_signature() {
        let session = session();
        {
            let _root = crate::span!("partition");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _leaf = crate::span!("coarsen.level");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let report = session.finish();
        let cov = report.leaf_coverage("partition").unwrap();
        assert!(cov > 0.0 && cov <= 1.0, "coverage {cov}");
        assert_eq!(report.structure_signature(), "partition\n  coarsen.level\n");
        let json = report.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"coarsen.level\""));
    }
}
