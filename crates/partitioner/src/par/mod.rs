//! Parallel multilevel hypergraph partitioning with fixed vertices
//! (Section 4, parallel formulation), SPMD over [`dlb_mpisim`].
//!
//! Each rank owns a block of vertices (1D distribution — see DESIGN.md §4
//! for why this simplification of Zoltan's 2D layout preserves the
//! paper's algorithmic behaviour). The crate's one V-cycle (entered
//! through [`dist::dist_multilevel`]) holds every level either
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
//!   each rank runs randomized greedy hypergraph growing with a
//!   different seed and the best partition wins (Section 4.2).
//! * **Refinement** (`par::refine`): a localized FM — each rank proposes
//!   moves for its owned boundary vertices against the current global
//!   state; proposals are exchanged and applied deterministically, and
//!   part weights stay synchronized (Section 4.3).
//!
//! K-way partitions run the serial path's recursive bisection
//! (`rb`, Section 4.4) with [`dist::dist_multilevel`] as the
//! bisector. All ranks return the identical partition vector.

pub mod dist;
mod disthg;
pub(crate) mod matching;
pub(crate) mod refine;

use dlb_hypergraph::Hypergraph;
use dlb_mpisim::Comm;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::Config;
use crate::fixed::FixedAssignment;
use crate::rb::recursive_bisection;
use crate::PartitionResult;

/// Parallel k-way partitioning with fixed vertices via recursive
/// bisection. Must be called collectively by every rank of `comm` with
/// identical arguments; every rank returns the same result.
///
/// This entry always bisects recursively, runs one V-cycle per
/// bisection and has no multi-constraint epilogue: it ignores
/// [`Config::scheme`] and [`Config::num_vcycles`]. On one rank it is
/// therefore a different pipeline from [`crate::partition_hypergraph_fixed`]
/// under the same `cfg` (which may be direct k-way with extra cycles),
/// not the same pipeline through a different driver.
pub(crate) fn parallel_partition_fixed(
    comm: &mut Comm,
    h: &Hypergraph,
    k: usize,
    fixed: &FixedAssignment,
    cfg: &Config,
) -> PartitionResult {
    assert!(k > 0, "k must be positive");
    assert_eq!(fixed.len(), h.num_vertices());
    let mut salt = 0u64;
    let part = recursive_bisection(h, k, fixed, cfg, &mut |h, targets, side_fixed| {
        salt += 1;
        // Every rank derives the same base seed for this bisection;
        // ranks decorrelate internally where the algorithm calls for
        // it.
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(salt)));
        dist::dist_multilevel(comm, h, targets, side_fixed, cfg, &mut rng)
    });
    debug_assert!(fixed.is_respected_by(&part));
    PartitionResult::evaluate(h, part, k)
}

/// Parallel k-way partitioning without fixed vertices.
pub fn parallel_partition(
    comm: &mut Comm,
    h: &Hypergraph,
    k: usize,
    cfg: &Config,
) -> PartitionResult {
    parallel_partition_fixed(comm, h, k, &FixedAssignment::free(h.num_vertices()), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics;
    use dlb_mpisim::run_spmd;

    #[test]
    fn parallel_matches_constraints_and_balance() {
        let h = crate::tests::grid_hypergraph(12, 12);
        let mut fixed = FixedAssignment::free(144);
        fixed.fix(0, 0);
        fixed.fix(143, 3);
        let cfg = Config::seeded(21);
        let results = run_spmd(4, |comm| {
            parallel_partition_fixed(comm, &h, 4, &fixed, &cfg)
        });
        // All ranks agree.
        for r in &results[1..] {
            assert_eq!(r.part, results[0].part);
        }
        let r = &results[0];
        assert_eq!(r.part[0], 0);
        assert_eq!(r.part[143], 3);
        let imb = metrics::imbalance(&h, &r.part, 4);
        assert!(imb <= 1.0 + cfg.epsilon + 0.05, "imbalance {imb}");
    }

    /// The serial and the SPMD recursion hand every bisection the same
    /// side targets: on a two-constraint grid at odd k — unequal sides,
    /// so both the primary and the auxiliary targets are proportional —
    /// each bisection, in order, gets the same share of every
    /// constraint's total and the same tolerances on both paths (the
    /// root, which both run on the same hypergraph, the same caps bit for
    /// bit), and every final part lands under `targets_for`'s caps.
    #[test]
    fn spmd_recursion_hands_the_serial_side_targets() {
        use crate::refine::RefineScratch;
        use crate::config::PartTargets;
        use dlb_hypergraph::VertexLoads;
        let mut h = crate::tests::grid_hypergraph(12, 12);
        h.set_loads(VertexLoads::from_columns(vec![
            vec![1.0; 144],
            (0..144).map(|v| (1 + v % 3) as f64).collect(),
        ]));
        let fixed = FixedAssignment::free(144);
        let cfg = Config::seeded(13);
        // What one bisection is handed: both sides' caps, and what they
        // are whatever sub-hypergraph the bisection got — each side's
        // share of both totals and both tolerances.
        let handed = |h: &Hypergraph, t: &PartTargets| {
            let (w, b) = (h.total_vertex_weight(), h.total_load(1));
            let caps: Vec<f64> = (0..2).flat_map(|p| [t.cap(p), t.aux_cap(1, p)]).collect();
            let shares: Vec<f64> =
                (0..2).flat_map(|p| [t.target[p] / w, t.aux[0].target[p] / b]).collect();
            (caps, shares, [t.epsilon, t.aux[0].epsilon])
        };
        for k in [3usize, 5] {
            let mut serial_seen = Vec::new();
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut scratch = RefineScratch::new();
            let serial = recursive_bisection(&h, k, &fixed, &cfg, &mut |h, t, f| {
                serial_seen.push(handed(h, t));
                let mut cx = crate::vcycle::Cx::new(None, &cfg, t, &mut rng, &mut scratch);
                crate::kway::multilevel(h, f, &mut cx)
            });
            let (spmd_seen, spmd) = run_spmd(2, |comm| {
                let mut seen = Vec::new();
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                let part = recursive_bisection(&h, k, &fixed, &cfg, &mut |h, t, f| {
                    seen.push(handed(h, t));
                    dist::dist_multilevel(comm, h, t, f, &cfg, &mut rng)
                });
                (seen, part)
            })
            .pop()
            .unwrap();
            assert_eq!(serial_seen.len(), k - 1, "k = {k}: one bisection per split");
            assert_eq!(spmd_seen.len(), serial_seen.len(), "k = {k}");
            assert_eq!(spmd_seen[0].0, serial_seen[0].0, "k = {k}: root caps");
            let root_share = k.div_ceil(2) as f64 / k as f64;
            assert!((serial_seen[0].1[0] - root_share).abs() < 1e-12, "k = {k}");
            for (i, (a, b)) in spmd_seen.iter().zip(&serial_seen).enumerate() {
                assert_eq!(a.2, b.2, "k = {k}, bisection {i}: tolerances");
                for (x, y) in a.1.iter().zip(&b.1) {
                    assert!((x - y).abs() < 1e-12, "k = {k}, bisection {i}: {:?} {:?}", a.1, b.1);
                }
            }

            let targets = crate::targets_for(&h, k, &cfg);
            for part in [&serial, &spmd] {
                let w = metrics::part_weights(&h, part, k);
                let aux = metrics::aux_part_loads(&h, part, k);
                assert!(targets.feasible(&w, &aux), "k = {k}: {w:?} {aux:?}");
            }
        }
    }

    #[test]
    fn parallel_single_rank_reduces_to_serial_quality() {
        let h = crate::tests::grid_hypergraph(10, 10);
        let cfg = Config::seeded(5);
        let results = run_spmd(1, |comm| parallel_partition(comm, &h, 2, &cfg));
        let r = &results[0];
        // A 10x10 grid bisection should find a cut near 10.
        assert!(r.cut <= 20.0, "cut {}", r.cut);
        assert!(r.imbalance <= 1.06);
    }

    #[test]
    fn parallel_quality_comparable_to_serial() {
        let h = crate::tests::random_hypergraph(300, 600, 4, 23);
        let cfg = Config::seeded(31);
        let serial = crate::partition_hypergraph(&h, 4, &cfg);
        let par = run_spmd(4, |comm| parallel_partition(comm, &h, 4, &cfg))
            .pop()
            .unwrap();
        assert!(
            par.cut <= serial.cut * 1.6 + 16.0,
            "parallel cut {} vs serial {}",
            par.cut,
            serial.cut
        );
    }
}
