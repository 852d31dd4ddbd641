//! Parallel multilevel hypergraph partitioning with fixed vertices
//! (Section 4, parallel formulation), SPMD over [`dlb_mpisim`].
//!
//! Each rank owns a block of vertices (1D distribution — see DESIGN.md §4
//! for why this simplification of Zoltan's 2D layout preserves the
//! paper's algorithmic behaviour). The crate's one V-cycle (entered
//! on a communicator, e.g. through [`dist::dist_multilevel`]) holds
//! every level either
//! replicated (the hypergraph structure on every rank) or, with
//! `cfg.dist.distributed`, block-distributed while it is large. Both
//! forms run the same per-vertex kernels — written once over the crate's
//! private storage view, together with the serial partitioner's
//! (DESIGN.md §9) — and differ in the storage, in what travels on the
//! wire, and in how the distributed form keeps its state exact. The
//! three phases communicate exactly where the paper's implementation
//! does:
//!
//! * **Coarsening** (`par::matching`): IPM runs in *rounds*. Each round,
//!   every rank selects candidate vertices among its owned unmatched
//!   vertices; candidates are sent to all ranks (all-gather); every rank
//!   concurrently computes its best owned match for each candidate
//!   (scores for constraint-infeasible pairs are computed but discarded
//!   at selection, as in Section 4.1); a global best match per candidate
//!   is selected by an all-reduce.
//! * **Coarse partitioning**: the coarsest hypergraph is replicated;
//!   each rank runs the best-of-`num_attempts` randomized greedy
//!   hypergraph growing from its own seed and refines it, and the best
//!   rank's partition wins (Section 4.2).
//! * **Refinement** (`par::refine`): a localized FM — each rank proposes
//!   moves for its owned boundary vertices against the current global
//!   state; proposals are exchanged and applied deterministically, and
//!   part weights stay synchronized (Section 4.3).
//!
//! There is no SPMD pipeline of its own: [`crate::partition_fixed_on`]
//! with a communicator runs the serial one — scheme, iterated V-cycles,
//! the multi-constraint epilogue, the warm start — and each of its
//! V-cycles holds its levels in one of the two forms above, so all
//! ranks return the identical partition vector.

pub mod dist;
pub(crate) mod disthg;
pub(crate) mod matching;
pub(crate) mod refine;

#[cfg(test)]
mod tests {
    use crate::{partition_fixed_on, Config, FixedAssignment, PartitionResult};
    use dlb_hypergraph::{metrics, Hypergraph};
    use dlb_mpisim::run_spmd;

    /// The pipeline on `ranks` ranks; every rank must return the same.
    fn spmd(
        ranks: usize,
        h: &Hypergraph,
        k: usize,
        fixed: &FixedAssignment,
        cfg: &Config,
    ) -> PartitionResult {
        let mut results = run_spmd(ranks, |comm| {
            partition_fixed_on(Some(comm), h, k, fixed, None, cfg)
        });
        for r in &results[1..] {
            assert_eq!(r.part, results[0].part, "ranks disagree");
        }
        results.pop().unwrap()
    }

    #[test]
    fn parallel_matches_constraints_and_balance() {
        let h = crate::tests::grid_hypergraph(12, 12);
        let mut fixed = FixedAssignment::free(144);
        fixed.fix(0, 0);
        fixed.fix(143, 3);
        let cfg = Config::seeded(21);
        let r = spmd(4, &h, 4, &fixed, &cfg);
        assert_eq!(r.part[0], 0);
        assert_eq!(r.part[143], 3);
        let imb = metrics::imbalance(&h, &r.part, 4);
        assert!(imb <= 1.0 + cfg.epsilon + 0.05, "imbalance {imb}");
    }

    /// A vertex fixed to a part the call does not have is refused on a
    /// communicator exactly as serially, before any collective — not
    /// relabeled onto the last side of a bisection.
    #[test]
    #[should_panic(expected = "fixed part 7 out of range for k=4")]
    fn spmd_refuses_a_fixed_part_out_of_range() {
        let h = crate::tests::random_hypergraph(40, 80, 4, 3);
        let mut fixed = FixedAssignment::free(40);
        fixed.fix(5, 7);
        spmd(2, &h, 4, &fixed, &Config::seeded(1));
    }

    /// One recursion serves both contexts, so every bisection of an SPMD
    /// run gets the serial side targets by construction. What they must
    /// add up to: on a two-constraint grid at odd k — unequal sides, so
    /// both the primary and the auxiliary targets are proportional —
    /// every final part lands under `targets_for`'s caps, serially and
    /// on 2 ranks.
    #[test]
    fn spmd_recursion_hands_the_serial_side_targets() {
        use dlb_hypergraph::VertexLoads;
        let mut h = crate::tests::grid_hypergraph(12, 12);
        h.set_loads(VertexLoads::from_columns(vec![
            vec![1.0; 144],
            (0..144).map(|v| (1 + v % 3) as f64).collect(),
        ]));
        let fixed = FixedAssignment::free(144);
        let cfg = Config::seeded(13);
        for k in [3usize, 5] {
            let serial = crate::partition_hypergraph_fixed(&h, k, &fixed, &cfg);
            let targets = crate::targets_for(&h, k, &cfg);
            for r in [serial, spmd(2, &h, k, &fixed, &cfg)] {
                let w = metrics::part_weights(&h, &r.part, k);
                let aux = metrics::aux_part_loads(&h, &r.part, k);
                assert!(targets.feasible(&w, &aux), "k = {k}: {w:?} {aux:?}");
            }
        }
    }

    #[test]
    fn parallel_single_rank_reduces_to_serial_quality() {
        let h = crate::tests::grid_hypergraph(10, 10);
        let r = spmd(1, &h, 2, &FixedAssignment::free(100), &Config::seeded(5));
        // A 10x10 grid bisection should find a cut near 10.
        assert!(r.cut <= 20.0, "cut {}", r.cut);
        assert!(r.imbalance <= 1.06);
    }

    #[test]
    fn parallel_quality_comparable_to_serial() {
        let h = crate::tests::random_hypergraph(300, 600, 4, 23);
        let cfg = Config::seeded(31);
        let serial = crate::partition_hypergraph(&h, 4, &cfg);
        let par = spmd(4, &h, 4, &FixedAssignment::free(300), &cfg);
        assert!(
            par.cut <= serial.cut * 1.6 + 16.0,
            "parallel cut {} vs serial {}",
            par.cut,
            serial.cut
        );
    }
}
