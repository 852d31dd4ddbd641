//! Direct k-way multilevel partitioning, and the serial entries into the
//! V-cycle (`crate::vcycle`) used by both k-way and recursive
//! bisection.
//!
//! Fixed-vertex constraints ride along the levels via
//! [`crate::coarsen::CoarseLevel::coarse_fixed`].

use dlb_hypergraph::{metrics, Hypergraph, PartId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::Config;
use crate::fixed::FixedAssignment;
use crate::refine::RefineScratch;
use crate::vcycle::{self, Cx, Held};

/// Runs one multilevel V-cycle on `h` for `cx.targets` (any number of
/// parts), honoring `fixed`. Returns a complete assignment.
pub(crate) fn multilevel(h: &Hypergraph, fixed: &FixedAssignment, cx: &mut Cx) -> Vec<PartId> {
    let k = cx.targets.k();
    if k == 1 || h.num_vertices() == 0 {
        return vec![0; h.num_vertices()];
    }
    let _span = dlb_trace::span!("multilevel", vertices = h.num_vertices(), k = k);
    vcycle::run(Held::serial(h, fixed, None), cx)
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
    vcycle::run(Held::serial(h, fixed, Some(part)), cx)
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

/// Direct k-way multilevel partitioning with fixed vertices.
pub(crate) fn partition_kway(
    h: &Hypergraph,
    k: usize,
    fixed: &FixedAssignment,
    cfg: &Config,
) -> Vec<PartId> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let targets = crate::config::targets_for(h, k, cfg);
    let mut scratch = RefineScratch::new();
    multilevel(h, fixed, &mut Cx::new(None, cfg, &targets, &mut rng, &mut scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics;

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
