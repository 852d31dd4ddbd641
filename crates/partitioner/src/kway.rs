//! The V-cycle entries of the pipeline (`crate::vcycle`): one cycle from
//! scratch, which direct k-way runs once and recursive bisection once
//! per bisection, and the iterated, part-restricted cycles that polish
//! either — serially or on a communicator, whichever the context holds.
//!
//! Fixed-vertex constraints ride along the levels via
//! [`crate::coarsen::CoarseLevel::coarse_fixed`].

use dlb_hypergraph::{metrics, Hypergraph, PartId};

use crate::fixed::FixedAssignment;
use crate::vcycle::{self, Cx, Held};

/// Runs one multilevel V-cycle on `h` for `cx.targets` (any number of
/// parts), honoring `fixed`. Returns a complete assignment (on every
/// rank, when there are ranks).
pub(crate) fn multilevel(h: &Hypergraph, fixed: &FixedAssignment, cx: &mut Cx) -> Vec<PartId> {
    let k = cx.targets.k();
    if k == 1 || h.num_vertices() == 0 {
        return vec![0; h.num_vertices()];
    }
    let _span = match cx.comm.as_deref() {
        None => dlb_trace::span!("multilevel", vertices = h.num_vertices(), k = k),
        Some(comm) => dlb_trace::span!(
            "dist.multilevel",
            vertices = h.num_vertices(),
            k = k,
            ranks = comm.size(),
            distributed = cx.cfg.dist.distributed,
            gather_threshold = cx.cfg.dist.gather_threshold,
        ),
    };
    let input = Held::input(h, fixed, None, cx);
    vcycle::run(input, cx)
}

/// One *iterated* V-cycle: re-coarsens `h` with matching restricted to
/// the parts of `part` (so the partition stays exactly representable at
/// every level), then refines the projection on the way back up.
/// Returns the refined assignment; the caller decides whether to keep it.
pub(crate) fn vcycle_refine(
    h: &Hypergraph,
    fixed: &FixedAssignment,
    part: &[PartId],
    cx: &mut Cx,
) -> Vec<PartId> {
    let input = Held::input(h, fixed, Some(part), cx);
    vcycle::run(input, cx)
}

/// Runs the configured number of extra V-cycles on `part`, keeping each
/// cycle's result only when it improves the k-1 cut without worsening
/// balance beyond the cap.
pub(crate) fn iterate_vcycles(
    h: &Hypergraph,
    fixed: &FixedAssignment,
    mut part: Vec<PartId>,
    cx: &mut Cx,
) -> Vec<PartId> {
    let targets = cx.targets;
    if cx.cfg.num_vcycles <= 1 || h.num_vertices() == 0 || targets.k() < 2 {
        return part;
    }
    let k = targets.k();
    let mut best_cut = metrics::cutsize_connectivity(h, &part, k);
    for _ in 1..cx.cfg.num_vcycles {
        let span = dlb_trace::span!("vcycle.iterate");
        dlb_trace::count(dlb_trace::Counter::VcyclesRun, 1);
        let candidate = vcycle_refine(h, fixed, &part, cx);
        let cut = {
            let _span = dlb_trace::span!("evaluate");
            metrics::cutsize_connectivity(h, &candidate, k)
        };
        let w = metrics::part_weights(h, &candidate, k);
        let mut feasible = (0..k).all(|p| w[p] <= targets.cap(p) + 1e-9);
        if feasible && !targets.aux.is_empty() {
            let aux_loads = metrics::aux_part_loads(h, &candidate, k);
            feasible = targets.feasible(&w, &aux_loads);
        }
        let kept = cut < best_cut && feasible;
        span.attr("kept", kept);
        if kept {
            dlb_trace::count(dlb_trace::Counter::VcyclesKept, 1);
            best_cut = cut;
            part = candidate;
        }
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    /// Direct k-way partitioning with fixed vertices, one V-cycle.
    fn partition_kway(
        h: &Hypergraph,
        k: usize,
        fixed: &FixedAssignment,
        cfg: &Config,
    ) -> Vec<PartId> {
        let mut cfg = cfg.clone();
        cfg.scheme = crate::Scheme::DirectKway;
        crate::partition_hypergraph_fixed(h, k, fixed, &cfg).part
    }

    #[test]
    fn kway_direct_basics() {
        let h = crate::tests::grid_hypergraph(10, 10);
        let fixed = FixedAssignment::free(100);
        let part = partition_kway(&h, 5, &fixed, &Config::seeded(3));
        assert_eq!(part.len(), 100);
        assert!(part.iter().all(|&p| p < 5));
        let imb = metrics::imbalance(&h, &part, 5);
        assert!(imb <= 1.12, "imbalance {imb}");
    }

    #[test]
    fn kway_honors_fixed() {
        let h = crate::tests::grid_hypergraph(6, 6);
        let mut fixed = FixedAssignment::free(36);
        fixed.fix(0, 1);
        fixed.fix(35, 0);
        let part = partition_kway(&h, 2, &fixed, &Config::seeded(4));
        assert_eq!(part[0], 1);
        assert_eq!(part[35], 0);
    }

    #[test]
    fn extra_vcycles_never_hurt() {
        let h = crate::tests::random_hypergraph(250, 500, 5, 31);
        let fixed = FixedAssignment::free(250);
        let mut base_cfg = Config::seeded(2);
        base_cfg.scheme = crate::Scheme::DirectKway;
        let one = crate::partition_hypergraph_fixed(&h, 4, &fixed, &base_cfg);
        let mut cfg = base_cfg.clone();
        cfg.num_vcycles = 3;
        let three = crate::partition_hypergraph_fixed(&h, 4, &fixed, &cfg);
        assert!(
            three.cut <= one.cut + 1e-9,
            "3 V-cycles ({}) must not be worse than 1 ({})",
            three.cut,
            one.cut
        );
        assert!(three.imbalance <= 1.0 + cfg.epsilon + 0.05);
    }

    #[test]
    fn vcycle_respects_fixed_vertices() {
        let h = crate::tests::grid_hypergraph(8, 8);
        let mut fixed = FixedAssignment::free(64);
        fixed.fix(0, 1);
        fixed.fix(63, 0);
        let mut cfg = Config::seeded(4);
        cfg.num_vcycles = 3;
        let r = crate::partition_hypergraph_fixed(&h, 2, &fixed, &cfg);
        assert_eq!(r.part[0], 1);
        assert_eq!(r.part[63], 0);
    }

    #[test]
    fn multilevel_on_netless_hypergraph() {
        // No nets → no coarsening possible, initial partition must still
        // produce a balanced assignment.
        let h = Hypergraph::from_nets_unit(40, &[]);
        let fixed = FixedAssignment::free(40);
        let part = partition_kway(&h, 4, &fixed, &Config::seeded(5));
        let w = metrics::part_weights(&h, &part, 4);
        for p in 0..4 {
            assert!((w[p] - 10.0).abs() <= 2.0, "part {p} weight {}", w[p]);
        }
    }
}
