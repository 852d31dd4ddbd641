//! Failure recovery as forced repartitioning (DESIGN.md §12).
//!
//! A rank dying at an epoch boundary is, in the paper's model, nothing
//! exotic: the survivors must absorb the dead rank's vertices, and the
//! cheapest way to do that while respecting balance and communication is
//! *exactly* the repartitioning problem the model already solves — posed
//! onto `k − 1` parts with the orphans free. Concretely:
//!
//! * survivors keep their migration nets (tethered to their old parts,
//!   moving them costs their data size);
//! * the dead rank's vertices get **no** migration net
//!   ([`crate::model::RepartitionHypergraph::build_partial`] with
//!   `None`) — wherever they land is a restore from the failure-time
//!   checkpoint, paid once and unavoidably, so the model should not
//!   distort placement by charging it;
//! * one fixed-vertex partitioning call onto the `k − 1` surviving
//!   parts is the whole recovery.
//!
//! The *measured* recovery price is still charged in full: the epoch
//! driver executes the migration phase from the failure-time assignment
//! (full `k`-rank world, the dead rank pushing all its data out — the
//! simulation's stand-in for a checkpoint restore), so orphan placement
//! lands in the makespan's `t_mig` even though the model saw it as free.

use dlb_hypergraph::{metrics, Hypergraph, PartId};
use dlb_mpisim::Comm;

use crate::cost::CostBreakdown;
use crate::driver::RepartConfig;
use crate::model::RepartitionHypergraph;

/// The result of recovering from one rank failure.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// The recovered assignment in the shrunken label space
    /// (`0..k-1`) — what the simulation commits and runs on next.
    pub part: Vec<PartId>,
    /// The same assignment relabeled into the pre-failure `0..k` space
    /// with the dead label vacated — what the migration phase executes
    /// against the failure-time assignment.
    pub exec_part: Vec<PartId>,
    /// Vertices orphaned by the failure (old part == dead rank).
    pub orphans: usize,
    /// Cost of the recovery move, measured in the pre-failure space
    /// (includes the orphan restore in `migration`).
    pub cost: CostBreakdown,
    /// Load imbalance of the recovered assignment over `k - 1` parts.
    pub imbalance: f64,
    /// Vertices that changed parts (every orphan moves by definition).
    pub moved: usize,
}

/// Recovers from the failure of part/rank `dead` by repartitioning
/// `h` from the failure-time assignment `old_part` (labels `< k`) onto
/// the `k - 1` surviving parts. Survivor labels compact downwards
/// (`p > dead` becomes `p - 1`); the dead rank's vertices go free.
///
/// With `comm`, the fixed-vertex partitioner runs collectively (all
/// driver ranks must call this with identical inputs and agree on the
/// result); without, it runs serially. Either way the outcome is a pure
/// function of the inputs, so recoveries are exactly reproducible run
/// to run at any given world size (as everywhere in this repo, serial
/// and different rank counts may legitimately choose different — but
/// equally valid — partitions).
///
/// # Panics
/// Panics if `k < 2` (no surviving parts — unrecoverable), `dead >= k`,
/// or on assignment/length mismatches.
pub fn recover_from_failure(
    comm: Option<&mut Comm>,
    h: &Hypergraph,
    old_part: &[PartId],
    dead: PartId,
    k: usize,
    alpha: f64,
    cfg: &RepartConfig,
) -> RecoveryOutcome {
    assert!(k >= 2, "cannot recover: rank {dead} was the last surviving part");
    assert!(dead < k, "dead rank {dead} out of range for k = {k}");
    assert_eq!(old_part.len(), h.num_vertices(), "old partition length mismatch");
    let survivors = k - 1;

    // Survivors compact into 0..k-1; orphans are free.
    let partial: Vec<Option<PartId>> = old_part
        .iter()
        .map(|&p| if p == dead { None } else { Some(if p > dead { p - 1 } else { p }) })
        .collect();
    let orphans = partial.iter().filter(|p| p.is_none()).count();

    let model = RepartitionHypergraph::build_partial(h, &partial, survivors, alpha);
    let part = model.solve(comm, &cfg.hypergraph);

    // Back into the pre-failure label space for execution/accounting:
    // the dead label is vacated, never reassigned.
    let exec_part: Vec<PartId> =
        part.iter().map(|&q| if q >= dead { q + 1 } else { q }).collect();
    let cost = CostBreakdown::measure(h, old_part, &exec_part, k, alpha);
    let imbalance = metrics::imbalance(h, &part, survivors);
    let moved = metrics::moved_vertex_count(old_part, &exec_part);

    RecoveryOutcome { part, exec_part, orphans, cost, imbalance, moved }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::convert::column_net_model_unit;
    use dlb_hypergraph::GraphBuilder;

    fn grid(rows: usize, cols: usize, k: usize) -> (Hypergraph, Vec<PartId>) {
        let idx = |r: usize, c: usize| r * cols + c;
        let mut b = GraphBuilder::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.add_edge(idx(r, c), idx(r, c + 1), 1.0);
                }
                if r + 1 < rows {
                    b.add_edge(idx(r, c), idx(r + 1, c), 1.0);
                }
            }
        }
        let g = b.build();
        let h = column_net_model_unit(&g);
        let old: Vec<usize> = (0..rows * cols).map(|v| (v % cols) * k / cols).collect();
        (h, old)
    }

    #[test]
    fn recovery_absorbs_orphans_onto_survivors() {
        let (h, old) = grid(8, 8, 4);
        let out =
            recover_from_failure(None, &h, &old, 2, 4, 10.0, &RepartConfig::seeded(1));
        assert_eq!(out.orphans, old.iter().filter(|&&p| p == 2).count());
        assert!(out.orphans > 0);
        // Recovered labels live in the shrunken space...
        assert!(out.part.iter().all(|&p| p < 3));
        // ...and the exec labels in the old space never resurrect part 2.
        assert!(out.exec_part.iter().all(|&p| p < 4 && p != 2));
        // Every orphan moved; the balance over 3 parts is sane.
        assert!(out.moved >= out.orphans);
        assert!(out.imbalance < 1.5, "imbalance {}", out.imbalance);
        // The measured migration pays at least the orphan restore.
        let orphan_bytes: f64 =
            old.iter().enumerate().filter(|&(_, &p)| p == 2).map(|(v, _)| h.vertex_size(v)).sum();
        assert!(out.cost.migration >= orphan_bytes);
    }

    #[test]
    fn label_compaction_round_trips() {
        let (h, old) = grid(6, 6, 3);
        for dead in 0..3 {
            let out =
                recover_from_failure(None, &h, &old, dead, 3, 10.0, &RepartConfig::seeded(2));
            for (&q, &e) in out.part.iter().zip(&out.exec_part) {
                assert_eq!(e, if q >= dead { q + 1 } else { q });
            }
        }
    }

    #[test]
    fn collective_recovery_is_invariant_across_rank_counts() {
        use dlb_mpisim::run_spmd;
        let (h, old) = grid(8, 8, 4);
        let mut per_world: Vec<Vec<PartId>> = Vec::new();
        for ranks in [2usize, 4] {
            let results = run_spmd(ranks, |comm| {
                recover_from_failure(
                    Some(comm),
                    &h,
                    &old,
                    1,
                    4,
                    10.0,
                    &RepartConfig::seeded(3),
                )
                .part
            });
            // All ranks agree...
            for part in &results {
                assert_eq!(*part, results[0], "ranks = {ranks}");
            }
            per_world.push(results.into_iter().next().unwrap());
        }
        // ...and on this problem the 2- and 4-rank worlds also agree
        // (pinned as a regression guard; rank-count equality is not a
        // repo-wide invariant).
        assert_eq!(per_world[0], per_world[1]);
        assert!(per_world[0].iter().all(|&p| p < 3));
    }

    #[test]
    #[should_panic(expected = "last surviving part")]
    fn refuses_to_recover_past_the_last_part() {
        let (h, _) = grid(2, 2, 1);
        let old = vec![0; 4];
        let _ = recover_from_failure(None, &h, &old, 0, 1, 10.0, &RepartConfig::seeded(4));
    }
}
