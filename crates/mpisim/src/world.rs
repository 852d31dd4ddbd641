//! SPMD world launcher.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;

use crate::comm::{Comm, Envelope};

/// One rank's captured panic.
#[derive(Clone, Debug)]
pub(crate) struct RankPanic {
    /// The rank whose closure panicked.
    pub rank: usize,
    /// The panic payload rendered as a string.
    pub message: String,
}

/// Failure report of an SPMD launch: the originating rank's panic,
/// separated from the secondary panics it provoked.
///
/// When one rank dies mid-protocol its peers starve in `recv` and die
/// later on the deadlock-guard timeout. Joining in rank order would
/// surface whichever cascade happens to sit at the lowest rank; instead
/// all ranks are joined, panics are stamped with their real-time order,
/// and the earliest panic that is not a recognizable comm cascade
/// ("deadlock waiting" / "peer rank hung up") is reported as the origin.
#[derive(Clone, Debug)]
pub(crate) struct SpmdError {
    /// The root-cause failure.
    pub origin: RankPanic,
    /// Secondary failures attributed to the origin, in panic order.
    pub cascades: Vec<RankPanic>,
}

impl fmt::Display for SpmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} failed: {}",
            self.origin.rank, self.origin.message
        )?;
        if !self.cascades.is_empty() {
            let ranks: Vec<String> = self.cascades.iter().map(|p| p.rank.to_string()).collect();
            write!(
                f,
                " ({} rank(s) failed in cascade: {})",
                ranks.len(),
                ranks.join(", ")
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for SpmdError {}

/// Runs `f` as an SPMD program on `nranks` simulated ranks and returns
/// each rank's result in rank order.
///
/// Every rank runs on its own OS thread (oversubscription is fine — the
/// per-rank work in the partitioners is modest, mirroring strong scaling
/// on the paper's cluster). A panic on any rank propagates to the
/// caller, attributed to the originating rank (see `SpmdError`).
///
/// # Panics
/// Panics if `nranks == 0` or if any rank's closure panics.
pub fn run_spmd<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    match try_run_spmd(nranks, f) {
        Ok(values) => values,
        Err(e) => panic!("{e}"),
    }
}

/// Joins *all* ranks and reports the originating failure instead of
/// whichever panic a rank-order join happens to see first.
fn try_run_spmd<T, F>(nranks: usize, f: F) -> Result<Vec<T>, SpmdError>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(nranks > 0, "world must have at least one rank");

    let mut txs = Vec::with_capacity(nranks);
    let mut rxs = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (tx, rx) = channel::<Envelope>();
        txs.push(tx);
        rxs.push(rx);
    }

    let f = &f;
    let mut outcomes: Vec<Option<Result<T, (usize, String)>>> = (0..nranks).map(|_| None).collect();

    // If the launching thread is enrolled in a trace session, rank 0
    // inherits the enrollment (its spans nest under the caller's open
    // span); other ranks stay muted so counter values are invariant
    // across rank counts.
    let trace_ctx = dlb_trace::fork();

    // Panics are stamped with their real-time order: a cascade always
    // fires after the failure that starved it, so the stamp lets the
    // join pick the root cause no matter which rank it lands on.
    let panic_seq = AtomicUsize::new(0);
    let panic_seq = &panic_seq;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for (rank, rx) in rxs.into_iter().enumerate() {
            let txs = txs.clone();
            handles.push(scope.spawn(move || {
                dlb_trace::adopt(trace_ctx, rank == 0);
                let mut comm = Comm::new(rank, txs, rx);
                catch_unwind(AssertUnwindSafe(|| f(&mut comm))).map_err(|payload| {
                    (
                        panic_seq.fetch_add(1, Ordering::SeqCst),
                        panic_message(&*payload),
                    )
                })
            }));
        }
        for (rank, handle) in handles.into_iter().enumerate() {
            // The closure's panic was caught inside the thread; a join
            // error would mean the harness itself died.
            let outcome = handle
                .join()
                .unwrap_or_else(|payload| Err((usize::MAX, panic_message(&*payload))));
            outcomes[rank] = Some(outcome);
        }
    });

    let mut values: Vec<Option<T>> = Vec::with_capacity(nranks);
    let mut panics: Vec<(usize, RankPanic)> = Vec::new();
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome.expect("every rank was joined") {
            Ok(value) => values.push(Some(value)),
            Err((order, message)) => {
                values.push(None);
                panics.push((order, RankPanic { rank, message }));
            }
        }
    }
    if panics.is_empty() {
        return Ok(values.into_iter().map(Option::unwrap).collect());
    }
    panics.sort_by_key(|&(order, _)| order);
    // Root cause: the earliest panic that is not a recognizable comm
    // cascade. If every panic looks like a cascade (e.g. a true
    // deadlock), the earliest one wins.
    let origin_idx = panics
        .iter()
        .position(|(_, p)| !is_cascade(&p.message))
        .unwrap_or(0);
    let (_, origin) = panics.remove(origin_idx);
    let cascades = panics.into_iter().map(|(_, p)| p).collect();
    Err(SpmdError { origin, cascades })
}

/// Whether a panic message matches the comm layer's starvation panics,
/// which are symptoms of some other rank's failure rather than causes.
fn is_cascade(message: &str) -> bool {
    message.contains("deadlock waiting for message") || message.contains("peer rank hung up")
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let r = run_spmd(8, |c| c.rank() * c.rank());
        assert_eq!(r, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = run_spmd(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "rank 1 failed: deliberate")]
    fn rank_panic_propagates() {
        let _ = run_spmd(2, |c| {
            if c.rank() == 1 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn try_run_spmd_collects_results() {
        let r = try_run_spmd(4, |c| c.rank() + 10).unwrap();
        assert_eq!(r, vec![10, 11, 12, 13]);
    }

    /// Regression test for the panic-attribution bug: rank 2 dies first,
    /// ranks 0 and 1 starve in `recv` and die later on the cascading
    /// deadlock-guard timeout. The old rank-order join rethrew rank 0's
    /// timeout; attribution must surface rank 2's original panic.
    #[test]
    fn originating_panic_beats_cascading_timeout() {
        let err = try_run_spmd(3, |c| {
            if c.rank() == 2 {
                panic!("original failure on rank 2");
            }
            c.set_recv_timeout(std::time::Duration::from_millis(100));
            let _: u32 = c.recv(2, 1);
        })
        .unwrap_err();
        assert_eq!(err.origin.rank, 2);
        assert!(
            err.origin.message.contains("original failure"),
            "{}",
            err.origin.message
        );
        assert_eq!(err.cascades.len(), 2);
        assert!(err
            .cascades
            .iter()
            .all(|p| p.message.contains("deadlock waiting")));
        // The rendered error leads with the root cause, not the cascade.
        let rendered = err.to_string();
        assert!(
            rendered.starts_with("rank 2 failed: original failure"),
            "{rendered}"
        );
    }

    /// With every panic a recognizable cascade (a true deadlock), the
    /// earliest panic wins and nothing is misattributed.
    #[test]
    fn all_cascade_panics_fall_back_to_earliest() {
        let err = try_run_spmd(2, |c| {
            c.set_recv_timeout(std::time::Duration::from_millis(50));
            // Both ranks wait for a message nobody sends.
            let _: u8 = c.recv(1 - c.rank(), 9);
        })
        .unwrap_err();
        assert!(err.origin.message.contains("deadlock waiting"));
        assert_eq!(err.cascades.len(), 1);
    }
}
