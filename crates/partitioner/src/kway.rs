//! Direct k-way multilevel partitioning, and the shared V-cycle used by
//! both k-way and recursive bisection.
//!
//! The V-cycle is the classic multilevel scheme of Section 2.2: coarsen
//! until the hypergraph is small (or coarsening stalls), partition the
//! coarsest hypergraph, then project back level by level, refining at
//! each level. Fixed-vertex constraints ride along the hierarchy via
//! [`crate::coarsen::CoarseLevel::coarse_fixed`].

use dlb_hypergraph::{metrics, parallel, Hypergraph, PartId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::coarsen::{coarsen_to_mode, CoarseLevel, Hierarchy};
use crate::config::{Config, PartTargets};
use crate::fixed::FixedAssignment;
use crate::initial::initial_partition;
use crate::refine::{refine_threads, RefineScratch};

/// Runs one multilevel V-cycle on `h` for the given targets (any number
/// of parts), honoring `fixed`. Returns a complete assignment.
///
/// `threads` is the worker count for the data-parallel kernels (already
/// resolved by the caller); `scratch` is the refinement scratch reused
/// across every level. Bit-identical at every thread count.
pub(crate) fn multilevel(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    cfg: &Config,
    rng: &mut StdRng,
    threads: usize,
    scratch: &mut RefineScratch,
) -> Vec<PartId> {
    let k = targets.k();
    if k == 1 {
        return vec![0; h.num_vertices()];
    }
    if h.num_vertices() == 0 {
        return Vec::new();
    }
    let ml_span = dlb_trace::span!("multilevel", vertices = h.num_vertices(), k = k);

    let hierarchy = coarsen(h, targets, fixed, None, cfg, rng, threads);
    ml_span.attr("levels", hierarchy.levels.len());

    // Partition the coarsest hypergraph.
    let (coarsest_h, coarsest_fixed) = hierarchy.coarsest(h, fixed);
    dlb_trace::count(dlb_trace::Counter::CoarseVertices, coarsest_h.num_vertices() as u64);
    dlb_trace::count(dlb_trace::Counter::CoarseNets, coarsest_h.num_nets() as u64);
    dlb_trace::count(dlb_trace::Counter::CoarsePins, coarsest_h.num_pins() as u64);
    let part = initial_partition(coarsest_h, targets, coarsest_fixed, &cfg.initial, rng);
    uncoarsen(h, targets, fixed, hierarchy, part, cfg, rng, threads, scratch)
}

/// One *iterated* V-cycle: re-coarsens `h` with matching restricted to
/// the current parts (so the partition stays exactly representable at
/// every level), then refines the projection on the way back up.
/// Returns the refined assignment; the caller decides whether to keep it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn vcycle_refine(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    part: &[PartId],
    cfg: &Config,
    rng: &mut StdRng,
    threads: usize,
    scratch: &mut RefineScratch,
) -> Vec<PartId> {
    let hierarchy = coarsen(h, targets, fixed, Some(part), cfg, rng, threads);
    let coarsest_part = hierarchy.restrict_to_coarsest(part);
    uncoarsen(h, targets, fixed, hierarchy, coarsest_part, cfg, rng, threads, scratch)
}

/// The coarsening half of a V-cycle: down to `coarse_to_factor * k`
/// vertices (but no fewer than `min_coarse_vertices`), matching only
/// within the parts of `restrict` when one is given.
fn coarsen(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    restrict: Option<&[PartId]>,
    cfg: &Config,
    rng: &mut StdRng,
    threads: usize,
) -> Hierarchy {
    let coarse_target =
        (cfg.coarsening.coarse_to_factor * targets.k()).max(cfg.coarsening.min_coarse_vertices);
    coarsen_to_mode(
        h,
        fixed,
        restrict,
        coarse_target,
        &cfg.coarsening,
        rng,
        threads,
        cfg.determinism,
    )
}

/// The uncoarsening half of a V-cycle: refines `part` (a partition of
/// the coarsest hypergraph) there, then projects it to each finer level
/// and refines again. Consumes the hierarchy: a level's hypergraph is
/// dropped as soon as its partition has been projected through its
/// `fine_to_coarse`, so the finest refine — where the state is largest —
/// holds no coarse level at all.
#[allow(clippy::too_many_arguments)]
fn uncoarsen(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    mut hierarchy: Hierarchy,
    mut part: Vec<PartId>,
    cfg: &Config,
    rng: &mut StdRng,
    threads: usize,
    scratch: &mut RefineScratch,
) -> Vec<PartId> {
    loop {
        let _span = dlb_trace::span!("refine.level", level = hierarchy.levels.len());
        let (level_h, level_fixed) = hierarchy.coarsest(h, fixed);
        refine_threads(level_h, targets, level_fixed, &mut part, &cfg.refinement, rng, threads, scratch);
        let Some(CoarseLevel { fine_to_coarse, .. }) = hierarchy.levels.pop() else { return part };
        part = fine_to_coarse.iter().map(|&c| part[c]).collect();
    }
}

/// Runs the configured number of extra V-cycles on `part`, keeping each
/// cycle's result only when it improves the k-1 cut without worsening
/// balance beyond the cap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn iterate_vcycles(
    h: &Hypergraph,
    targets: &PartTargets,
    fixed: &FixedAssignment,
    mut part: Vec<PartId>,
    cfg: &Config,
    rng: &mut StdRng,
    threads: usize,
    scratch: &mut RefineScratch,
) -> Vec<PartId> {
    if cfg.num_vcycles <= 1 || h.num_vertices() == 0 || targets.k() < 2 {
        return part;
    }
    let k = targets.k();
    let metric = dlb_hypergraph::metrics::CutMetric::Connectivity;
    let mut best_cut = metrics::cutsize_par(h, &part, k, metric, threads);
    for _ in 1..cfg.num_vcycles {
        let span = dlb_trace::span!("vcycle.iterate");
        dlb_trace::count(dlb_trace::Counter::VcyclesRun, 1);
        let candidate = vcycle_refine(h, targets, fixed, &part, cfg, rng, threads, scratch);
        let cut = {
            let _span = dlb_trace::span!("evaluate");
            metrics::cutsize_par(h, &candidate, k, metric, threads)
        };
        let w = metrics::part_weights_par(h, &candidate, k, threads);
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
pub fn partition_kway(
    h: &Hypergraph,
    k: usize,
    fixed: &FixedAssignment,
    cfg: &Config,
) -> Vec<PartId> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let targets = crate::config::targets_for(h, k, cfg);
    let threads = parallel::resolve_threads(cfg.threads);
    let mut scratch = RefineScratch::new();
    multilevel(h, &targets, fixed, cfg, &mut rng, threads, &mut scratch)
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
