//! Data migration: actually *moving* the data after a repartitioning
//! decision.
//!
//! The paper's host system, Zoltan, is a data-management service: after
//! the partitioner decides where every vertex should live, the
//! application's per-vertex payloads must travel to their new owners.
//! This module performs that exchange over the simulated SPMD machine —
//! a personalized all-to-all of the payloads whose owner changed — and
//! reports the realized migration volume, which equals what the
//! repartitioning hypergraph's migration nets charged (tested below:
//! model cost accounting and physical data movement agree).
//!
//! Parts are mapped to ranks round-robin when there are more parts than
//! ranks (`part % nranks`), matching how the experiment harness runs
//! k-way decompositions on fewer simulated ranks than parts.

use dlb_hypergraph::PartId;
use dlb_mpisim::Comm;

/// One migratable item: a global vertex id and its payload.
pub(crate) type Item<T> = (usize, T);

/// Maps a part to the rank that hosts it.
#[inline]
pub(crate) fn rank_of_part(part: PartId, nranks: usize) -> usize {
    part % nranks
}

/// Statistics of one migration exchange (per rank).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MigrationStats {
    /// Items this rank sent away.
    pub items_sent: usize,
    /// Items this rank received.
    pub items_received: usize,
    /// Total payload volume sent (as reported by the `size_of` closure).
    pub volume_sent: f64,
    /// Total payload volume received.
    pub volume_received: f64,
}

impl MigrationStats {
    /// Component-wise maximum over per-rank statistics — the bottleneck
    /// rank's view of the exchange, which is what bounds the migration
    /// phase's wall-clock in a synchronous application.
    ///
    /// Returns the default (all-zero) statistics for an empty slice.
    pub(crate) fn max_over_ranks(stats: &[MigrationStats]) -> MigrationStats {
        let mut max = MigrationStats::default();
        for s in stats {
            max.items_sent = max.items_sent.max(s.items_sent);
            max.items_received = max.items_received.max(s.items_received);
            max.volume_sent = max.volume_sent.max(s.volume_sent);
            max.volume_received = max.volume_received.max(s.volume_received);
        }
        max
    }
}

/// Moves payloads to their new owners.
///
/// * `items` — the payloads this rank currently hosts, keyed by global
///   vertex id (ownership must agree with `old_part` + `rank_of_part`).
/// * `old_part` / `new_part` — the full assignments (replicated, as
///   everywhere in this workspace).
/// * `size_of` — payload volume accounting (bytes, element counts, …).
///
/// Returns the items this rank hosts afterwards (its kept items plus
/// arrivals, sorted by vertex id for determinism) and the exchange
/// statistics.
///
/// # Panics
/// Panics if an item's current owner disagrees with `old_part`, or the
/// assignments disagree in length.
pub fn migrate_items<T: Send + 'static>(
    comm: &mut Comm,
    items: Vec<Item<T>>,
    old_part: &[PartId],
    new_part: &[PartId],
    size_of: impl Fn(&T) -> f64,
) -> (Vec<Item<T>>, MigrationStats) {
    assert_eq!(old_part.len(), new_part.len(), "assignment length mismatch");
    let nranks = comm.size();
    let me = comm.rank();

    let mut stats = MigrationStats::default();
    let mut keep: Vec<Item<T>> = Vec::new();
    let mut outgoing: Vec<Vec<Item<T>>> = (0..nranks).map(|_| Vec::new()).collect();
    for (v, payload) in items {
        assert!(v < old_part.len(), "item {v} out of range");
        assert_eq!(
            rank_of_part(old_part[v], nranks),
            me,
            "item {v} hosted on the wrong rank"
        );
        let dest = rank_of_part(new_part[v], nranks);
        if dest == me {
            keep.push((v, payload));
        } else {
            stats.items_sent += 1;
            stats.volume_sent += size_of(&payload);
            outgoing[dest].push((v, payload));
        }
    }

    let incoming = comm.alltoall(outgoing);
    for batch in incoming {
        stats.items_received += batch.len();
        for (_, payload) in &batch {
            stats.volume_received += size_of(payload);
        }
        keep.extend(batch);
    }
    keep.sort_by_key(|(v, _)| *v);
    (keep, stats)
}

/// Builds the initial distribution of payloads for a replicated
/// assignment: rank `r` hosts the items of every part mapped to it.
pub fn scatter_initial<T: Clone>(
    rank: usize,
    nranks: usize,
    part: &[PartId],
    payload_of: impl Fn(usize) -> T,
) -> Vec<Item<T>> {
    part.iter()
        .enumerate()
        .filter(|(_, &p)| rank_of_part(p, nranks) == rank)
        .map(|(v, _)| (v, payload_of(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_mpisim::run_spmd;

    fn exchange(
        nranks: usize,
        old: Vec<usize>,
        new: Vec<usize>,
    ) -> Vec<(Vec<Item<u64>>, MigrationStats)> {
        run_spmd(nranks, |comm| {
            let items = scatter_initial(comm.rank(), comm.size(), &old, |v| v as u64 * 10);
            migrate_items(comm, items, &old, &new, |_| 1.0)
        })
    }

    #[test]
    fn items_land_on_their_new_owners() {
        let old = vec![0, 0, 1, 1, 2, 2];
        let new = vec![1, 0, 1, 2, 0, 2];
        let results = exchange(3, old, new.clone());
        for (rank, (items, _)) in results.iter().enumerate() {
            for &(v, payload) in items {
                assert_eq!(rank_of_part(new[v], 3), rank, "vertex {v} on wrong rank");
                assert_eq!(payload, v as u64 * 10, "payload corrupted");
            }
        }
    }

    #[test]
    fn nothing_is_lost_or_duplicated() {
        let old = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let new = vec![3, 2, 1, 0, 0, 1, 2, 3];
        let results = exchange(4, old.clone(), new);
        let mut all: Vec<usize> = results
            .iter()
            .flat_map(|(items, _)| items.iter().map(|(v, _)| *v))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn stats_match_assignment_delta() {
        let old = vec![0, 0, 1, 1];
        let new = vec![1, 0, 0, 1]; // vertices 0 and 2 move
        let results = exchange(2, old, new);
        let sent: usize = results.iter().map(|(_, s)| s.items_sent).sum();
        let received: usize = results.iter().map(|(_, s)| s.items_received).sum();
        assert_eq!(sent, 2);
        assert_eq!(received, 2);
        let volume: f64 = results.iter().map(|(_, s)| s.volume_sent).sum();
        assert_eq!(volume, 2.0);
    }

    #[test]
    fn unchanged_assignment_moves_nothing() {
        let part = vec![0, 1, 0, 1, 0];
        let results = exchange(2, part.clone(), part);
        for (_, stats) in &results {
            assert_eq!(stats.items_sent, 0);
            assert_eq!(stats.items_received, 0);
        }
    }

    #[test]
    fn more_parts_than_ranks_round_robin() {
        // k=4 parts on 2 ranks: parts 0,2 on rank 0; parts 1,3 on rank 1.
        let old = vec![0, 1, 2, 3];
        let new = vec![2, 3, 0, 1]; // each vertex moves part but not rank
        let results = exchange(2, old, new);
        for (_, stats) in &results {
            assert_eq!(
                stats.items_sent, 0,
                "part changes within a rank move no data"
            );
        }
    }

    /// What one rank sends another receives: summed over all ranks, the
    /// send- and receive-side accounting must agree exactly, item count
    /// and volume alike.
    #[test]
    fn global_send_receive_symmetry() {
        let old = vec![0, 1, 2, 0, 1, 2, 0, 1, 2];
        let new = vec![1, 2, 0, 2, 0, 1, 0, 1, 2];
        let sizes: Vec<f64> = (0..9).map(|v| 3.0 + v as f64).collect();
        for nranks in [2usize, 3] {
            let results = run_spmd(nranks, |comm| {
                let items = scatter_initial(comm.rank(), comm.size(), &old, |v| sizes[v]);
                migrate_items(comm, items, &old, &new, |s| *s).1
            });
            let sent: usize = results.iter().map(|s| s.items_sent).sum();
            let received: usize = results.iter().map(|s| s.items_received).sum();
            assert_eq!(sent, received, "item symmetry at {nranks} ranks");
            let vol_sent: f64 = results.iter().map(|s| s.volume_sent).sum();
            let vol_received: f64 = results.iter().map(|s| s.volume_received).sum();
            assert_eq!(vol_sent, vol_received, "volume symmetry at {nranks} ranks");
            assert!(sent > 0, "scenario must move something at {nranks} ranks");
        }
    }

    #[test]
    fn max_over_ranks_takes_componentwise_maxima() {
        let a = MigrationStats {
            items_sent: 5,
            items_received: 1,
            volume_sent: 10.0,
            volume_received: 2.0,
        };
        let b = MigrationStats {
            items_sent: 2,
            items_received: 4,
            volume_sent: 3.0,
            volume_received: 9.0,
        };
        let m = MigrationStats::max_over_ranks(&[a, b]);
        assert_eq!(m.items_sent, 5);
        assert_eq!(m.items_received, 4);
        assert_eq!(m.volume_sent, 10.0);
        assert_eq!(m.volume_received, 9.0);
        assert_eq!(
            MigrationStats::max_over_ranks(&[]),
            MigrationStats::default()
        );
    }

    /// Physical migration volume equals the model's migration accounting.
    #[test]
    fn physical_volume_matches_model_accounting() {
        use dlb_hypergraph::metrics::migration_volume;
        let old = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let new = vec![0, 1, 1, 2, 2, 3, 3, 0];
        let sizes: Vec<f64> = (0..8).map(|v| 1.0 + v as f64).collect();
        // Run on k ranks so every part lives on its own rank — then rank
        // moves coincide with part moves exactly.
        let results = run_spmd(4, |comm| {
            let items = scatter_initial(comm.rank(), comm.size(), &old, |v| sizes[v]);
            migrate_items(comm, items, &old, &new, |s| *s)
        });
        let physical: f64 = results.iter().map(|(_, s)| s.volume_sent).sum();
        let model = migration_volume(&sizes, &old, &new);
        assert!(
            (physical - model).abs() < 1e-9,
            "physical {physical} vs model {model}"
        );
    }
}
