//! Parallel multilevel hypergraph partitioning with fixed vertices
//! (Section 4, parallel formulation), SPMD over [`dlb_mpisim`].
//!
//! Each rank owns a block of vertices (1D distribution — see DESIGN.md §4
//! for why this simplification of Zoltan's 2D layout preserves the
//! paper's algorithmic behaviour). One V-cycle driver ([`dist`]) runs
//! every level either replicated (the hypergraph structure on every
//! rank) or, with `cfg.dist.distributed`, block-distributed while it is
//! large. The three phases communicate exactly where the paper's
//! implementation does:
//!
//! * **Coarsening** ([`matching`]): IPM runs in *rounds*. Each round,
//!   every rank selects candidate vertices among its owned unmatched
//!   vertices; candidates are sent to all ranks (all-gather); every rank
//!   concurrently computes its best owned match for each candidate
//!   (scores for constraint-infeasible pairs are computed but discarded
//!   at selection, as in Section 4.1); a global best match per candidate
//!   is selected by an all-reduce.
//! * **Coarse partitioning** ([`dist`]): the coarsest hypergraph is
//!   replicated; each rank runs randomized greedy hypergraph growing
//!   with a different seed and the best partition wins (Section 4.2).
//! * **Refinement** ([`refine`]): a localized FM — each rank proposes
//!   moves for its owned boundary vertices against the current global
//!   state; proposals are exchanged and applied deterministically, and
//!   part weights stay synchronized (Section 4.3).
//!
//! K-way partitions use the same recursive-bisection relabeling as the
//! serial path (Section 4.4). All ranks return the identical partition
//! vector.

pub mod dist;
pub mod matching;
pub mod refine;

use dlb_hypergraph::subset::induced_subhypergraph;
use dlb_hypergraph::{Hypergraph, PartId};
use dlb_mpisim::Comm;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{Config, PartTargets};
use crate::fixed::FixedAssignment;
use crate::PartitionResult;

/// Parallel k-way partitioning with fixed vertices via recursive
/// bisection. Must be called collectively by every rank of `comm` with
/// identical arguments; every rank returns the same result.
pub fn parallel_partition_fixed(
    comm: &mut Comm,
    h: &Hypergraph,
    k: usize,
    fixed: &FixedAssignment,
    cfg: &Config,
) -> PartitionResult {
    assert!(k > 0, "k must be positive");
    assert_eq!(fixed.len(), h.num_vertices());
    let depth = (k.max(2) as f64).log2().ceil().max(1.0);
    let eps = (1.0 + cfg.epsilon).powf(1.0 / depth) - 1.0;
    let aux_eps: Vec<f64> = (1..h.load_arity())
        .map(|c| (1.0 + cfg.epsilon_for(c)).powf(1.0 / depth) - 1.0)
        .collect();
    let mut salt = 0u64;
    let part = recurse(comm, h, k, fixed, cfg, eps, &aux_eps, &mut salt);
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

#[allow(clippy::too_many_arguments)]
fn recurse(
    comm: &mut Comm,
    h: &Hypergraph,
    k: usize,
    fixed: &FixedAssignment,
    cfg: &Config,
    eps: f64,
    aux_eps: &[f64],
    salt: &mut u64,
) -> Vec<PartId> {
    if k == 1 {
        return vec![0; h.num_vertices()];
    }
    if h.num_vertices() == 0 {
        return Vec::new();
    }

    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    *salt += 1;
    // Every rank derives the same base seed for this bisection; ranks
    // decorrelate internally where the algorithm calls for it.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(*salt)));

    let side_fixed = fixed.bisection_sides(k0);
    let mut targets = PartTargets::proportional(h.total_vertex_weight(), &[k0, k1], eps);
    // Auxiliary constraints ride along with side targets proportional to
    // the final part counts (the SPMD driver supports aux epsilons but
    // not per-part capacities). Never reached at arity 1.
    let arity = h.load_arity();
    if arity > 1 {
        let aux = (1..arity)
            .map(|c| {
                crate::config::AuxTargets::proportional(
                    h.total_load(c),
                    &[k0 as f64, k1 as f64],
                    aux_eps.get(c - 1).copied().unwrap_or(eps),
                )
            })
            .collect();
        targets = targets.with_aux(aux);
    }
    let sides = dist::dist_multilevel(comm, h, &targets, &side_fixed, cfg, &mut rng);

    let keep0: Vec<bool> = sides.iter().map(|&s| s == 0).collect();
    let keep1: Vec<bool> = sides.iter().map(|&s| s == 1).collect();
    let side0 = induced_subhypergraph(h, &keep0);
    let side1 = induced_subhypergraph(h, &keep1);
    let fixed0 = FixedAssignment::from_options(
        &side0.to_base.iter().map(|&v| fixed.get(v)).collect::<Vec<_>>(),
    );
    let fixed1 = FixedAssignment::from_options(
        &side1
            .to_base
            .iter()
            .map(|&v| fixed.get(v).map(|p| p - k0))
            .collect::<Vec<_>>(),
    );

    let part0 = recurse(comm, &side0.hypergraph, k0, &fixed0, cfg, eps, aux_eps, salt);
    let part1 = recurse(comm, &side1.hypergraph, k1, &fixed1, cfg, eps, aux_eps, salt);

    let mut part = vec![0usize; h.num_vertices()];
    for (new_v, &old_v) in side0.to_base.iter().enumerate() {
        part[old_v] = part0[new_v];
    }
    for (new_v, &old_v) in side1.to_base.iter().enumerate() {
        part[old_v] = k0 + part1[new_v];
    }
    part
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
