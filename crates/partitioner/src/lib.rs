//! Multilevel hypergraph partitioning **with fixed vertices**, serial and
//! parallel — the partitioning engine of Section 4 of the paper.
//!
//! The multilevel scheme has the classic three phases, each extended to
//! honor fixed-vertex constraints:
//!
//! * **Coarsening** ([`matching`], [`coarsen`]): inner-product matching
//!   (IPM, PaToH's *heavy-connectivity matching*) merges similar vertex
//!   pairs. Two vertices fixed to *different* parts never match; a pair
//!   with one fixed vertex produces a coarse vertex fixed to that part,
//!   so fixedness propagates exactly as in Section 4.1.
//! * **Coarse partitioning** ([`initial`]): randomized greedy hypergraph
//!   growing computes several candidate partitions (different seeds) and
//!   keeps the best; fixed coarse vertices are pre-assigned to their
//!   parts and never reconsidered (Section 4.2).
//! * **Refinement** ([`refine`]): a localized Fiduccia–Mattheyses pass
//!   over boundary vertices improves the connectivity-1 cut while
//!   maintaining balance; fixed vertices are never moved (Section 4.3).
//!
//! K-way partitions are produced by **recursive bisection** (`rb`) with
//! the fixed-part relabeling of Section 4.4 (parts `0..⌈k/2⌉` fix to side
//! 0, the rest to side 1), or by a **direct k-way** V-cycle (`kway`) —
//! Zoltan uses recursive bisection, so that is the default.
//!
//! The same pipeline runs SPMD over [`dlb_mpisim`] when
//! [`partition_fixed_on`] is handed a communicator: the [`par`] module
//! brings the kernels of levels held on its ranks — round-based
//! candidate matching with global best-match selection, replicated
//! coarse partitioning (each rank a different seed, best wins), and
//! rank-localized FM with synchronized part weights.
//!
//! # Example
//!
//! ```
//! use dlb_hypergraph::{Hypergraph, metrics};
//! use dlb_partitioner::{partition_hypergraph, Config};
//!
//! // Two triangles joined by one net.
//! let h = Hypergraph::from_nets_unit(
//!     6,
//!     &[vec![0,1,2], vec![3,4,5], vec![2,3]],
//! );
//! let result = partition_hypergraph(&h, 2, &Config::default());
//! assert!(metrics::imbalance(&h, &result.part, 2) <= 1.0 + 0.05 + 1e-9);
//! assert_eq!(result.cut, 1.0); // only the joining net is cut
//! ```

#![forbid(unsafe_code)]
// Index-heavy kernels iterate several parallel arrays at once; classic
// indexed loops read better there than zipped iterator chains.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod coarsen;
mod config;
mod fixed;
mod heap;
pub mod initial;
mod kway;
pub mod matching;
pub mod par;
mod rb;
pub mod refine;
mod vcycle;
mod view;

pub use config::{targets_for, Config, ConfigError, Determinism, RefinementConfig, Scheme};
pub use fixed::FixedAssignment;

use dlb_hypergraph::{metrics, Hypergraph, PartId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use vcycle::Cx;

/// The outcome of a partitioning call.
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// Part assignment per vertex, entries in `0..k`.
    pub part: Vec<PartId>,
    /// Connectivity-1 cut (Eq. (2)) of the assignment.
    pub cut: f64,
    /// Load imbalance `max_p W_p / W_avg`.
    pub imbalance: f64,
}

impl PartitionResult {
    /// Computes cut and imbalance for `part` on `h`.
    pub(crate) fn evaluate(h: &Hypergraph, part: Vec<PartId>, k: usize) -> Self {
        let cut = metrics::cutsize_connectivity(h, &part, k);
        let imbalance = metrics::imbalance(h, &part, k);
        PartitionResult {
            part,
            cut,
            imbalance,
        }
    }
}

/// Partitions `h` into `k` parts with no fixed vertices.
pub fn partition_hypergraph(h: &Hypergraph, k: usize, cfg: &Config) -> PartitionResult {
    partition_hypergraph_fixed(h, k, &FixedAssignment::free(h.num_vertices()), cfg)
}

/// Partitions `h` into `k` parts under a fixed-vertex constraint: every
/// vertex with `fixed.get(v) == Some(p)` ends in part `p`.
///
/// This is the operation the repartitioning model of Section 3 reduces
/// to: partition vertices are fixed to their parts, ordinary vertices are
/// free. It is [`partition_fixed_on`] with no communicator and no seed.
///
/// # Panics
/// Panics if `k == 0`, if `fixed` has the wrong length, or if a fixed
/// part id is `>= k`.
pub fn partition_hypergraph_fixed(
    h: &Hypergraph,
    k: usize,
    fixed: &FixedAssignment,
    cfg: &Config,
) -> PartitionResult {
    partition_fixed_on(None, h, k, fixed, None, cfg)
}

/// The partitioning pipeline, on a caller-chosen execution context:
/// collectively over `comm` (every rank calls with identical arguments
/// and gets the identical result), or serially when there is none. The
/// context decides only how each V-cycle holds its levels (DESIGN.md
/// §9); the pipeline is the same:
///
/// 1. from scratch, one V-cycle per [`Config::scheme`] — direct k-way,
///    or one per bisection — or, with a `seed_part` and
///    [`Config::warm_start`], the seed with the fixed vertices forced
///    onto their parts, polished by one flat FM pass;
/// 2. the remaining [`Config::num_vcycles`] part-restricted V-cycles,
///    each kept only when it improves the cut;
/// 3. from scratch with auxiliary constraints still unmet, one flat
///    k-way pass over the whole hypergraph.
///
/// Without `cfg.warm_start` the seed is ignored, so a disabled warm
/// start reproduces the cold pipeline bit for bit.
///
/// # Panics
/// Panics if `k == 0`, on length mismatches, or if a fixed or seed part
/// id is `>= k`.
pub fn partition_fixed_on(
    comm: Option<&mut dlb_mpisim::Comm>,
    h: &Hypergraph,
    k: usize,
    fixed: &FixedAssignment,
    seed_part: Option<&[PartId]>,
    cfg: &Config,
) -> PartitionResult {
    let n = h.num_vertices();
    assert!(k > 0, "k must be positive");
    assert_eq!(fixed.len(), n, "fixed assignment length mismatch");
    if let Some(seed) = seed_part {
        assert_eq!(seed.len(), n, "seed partition length mismatch");
        assert!(
            seed.iter().all(|&p| p < k),
            "seed part out of range for k={k}"
        );
    }
    if let Some(p) = fixed.max_part() {
        assert!(p < k, "fixed part {p} out of range for k={k}");
    }
    let seed_part = seed_part.filter(|_| cfg.warm_start);

    let root = match seed_part {
        None => dlb_trace::span!(
            "partition",
            vertices = n,
            nets = h.num_nets(),
            pins = h.num_pins(),
            k = k,
            scheme = match cfg.scheme {
                Scheme::RecursiveBisection => "rb",
                Scheme::DirectKway => "kway",
            },
        ),
        Some(_) => dlb_trace::span!(
            "partition.warm",
            vertices = n,
            nets = h.num_nets(),
            pins = h.num_pins(),
            k = k,
        ),
    };
    let targets = config::targets_for(h, k, cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut scratch = refine::RefineScratch::new();
    let mut cx = Cx::new(comm, cfg, &targets, &mut rng, &mut scratch);
    let mut part = match seed_part {
        Some(seed) => (0..n).map(|v| fixed.get(v).unwrap_or(seed[v])).collect(),
        None => match cfg.scheme {
            Scheme::RecursiveBisection => rb::partition_recursive(h, k, fixed, &mut cx),
            Scheme::DirectKway => kway::multilevel(h, fixed, &mut cx),
        },
    };
    // The polish draws from a stream of its own, the same for a warm and
    // a cold call at the same `cfg.seed`, and starts on an empty scratch:
    // the cold cycle's refine buffers would otherwise stay resident
    // through the next cycle's descent, the V-cycle's memory peak.
    *cx.rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_C1C1E);
    *cx.scratch = refine::RefineScratch::new();
    if seed_part.is_some() {
        // Restores balance (greedy rebalance runs inside the refiner)
        // and polishes the seed locally before the restricted cycles.
        part = vcycle::refine_input(h, fixed, part, &mut cx);
    }
    part = kway::iterate_vcycles(h, fixed, part, &mut cx);
    // Composed bisections meet each auxiliary constraint per side but
    // can still overshoot a final part; one flat k-way pass lets the
    // repair step fix that globally, with FM recovering the cut.
    // Never reached at arity 1.
    if seed_part.is_none() && !targets.aux.is_empty() {
        let w = metrics::part_weights(h, &part, k);
        let aux = metrics::aux_part_loads(h, &part, k);
        if !targets.feasible(&w, &aux) {
            part = vcycle::refine_input(h, fixed, part, &mut cx);
        }
    }
    debug_assert!(fixed.is_respected_by(&part));
    let result = {
        let _span = dlb_trace::span!("evaluate");
        PartitionResult::evaluate(h, part, k)
    };
    drop(root);
    result
}

/// Warm-started, refine-only partitioning: seeds from `seed_part` (the
/// previous epoch's assignment in the repartitioning loop) and improves
/// it with an FM pass plus part-restricted V-cycles, skipping the
/// coarsen→initial pipeline entirely — [`partition_fixed_on`] with no
/// communicator and `seed_part`.
///
/// Requires `cfg.warm_start`; when the knob is off the seed is ignored
/// and the call is [`partition_hypergraph_fixed`].
///
/// Fixed vertices are forced onto their parts before refinement (the
/// seed need not respect them); an imbalanced seed is repaired by the
/// refiner's greedy rebalance step. Deterministic under the same
/// contract as the full pipeline: `Strict` runs are bit-identical at
/// any thread count.
///
/// # Panics
/// Panics if `k == 0`, on length mismatches, if a fixed or seed part id
/// is `>= k`.
pub fn refine_partition_fixed(
    h: &Hypergraph,
    k: usize,
    fixed: &FixedAssignment,
    seed_part: &[PartId],
    cfg: &Config,
) -> PartitionResult {
    partition_fixed_on(None, h, k, fixed, Some(seed_part), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A 2D grid graph expressed as a hypergraph with one net per edge.
    pub(crate) fn grid_hypergraph(rows: usize, cols: usize) -> Hypergraph {
        let idx = |r: usize, c: usize| r * cols + c;
        let mut b = HypergraphBuilder::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.add_net(1.0, [idx(r, c), idx(r, c + 1)]);
                }
                if r + 1 < rows {
                    b.add_net(1.0, [idx(r, c), idx(r + 1, c)]);
                }
            }
        }
        b.build()
    }

    /// A random hypergraph for smoke tests.
    pub(crate) fn random_hypergraph(n: usize, m: usize, max_pins: usize, seed: u64) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = HypergraphBuilder::new(n);
        for _ in 0..m {
            let s = rng.gen_range(2..=max_pins.max(2));
            let pins: Vec<usize> = (0..s).map(|_| rng.gen_range(0..n)).collect();
            b.add_net(rng.gen_range(1..4) as f64, pins);
        }
        b.build()
    }

    #[test]
    fn bisect_two_cliques() {
        // Two 8-vertex cliques (as single nets of high cost) joined by a
        // cheap net: optimal bisection cuts only the joiner.
        let mut b = HypergraphBuilder::new(16);
        b.add_net(10.0, 0..8);
        b.add_net(10.0, 8..16);
        b.add_net(1.0, [7, 8]);
        // Give the partitioner edges inside the cliques to work with.
        for i in 0..7 {
            b.add_net(2.0, [i, i + 1]);
            b.add_net(2.0, [8 + i, 9 + i]);
        }
        let h = b.build();
        let r = partition_hypergraph(&h, 2, &Config::seeded(1));
        assert_eq!(r.cut, 1.0, "only the cheap joiner net should be cut");
        assert!(r.imbalance <= 1.05 + 1e-9);
    }

    #[test]
    fn grid_four_way_is_balanced_and_reasonable() {
        let h = grid_hypergraph(16, 16);
        let cfg = Config::seeded(7);
        let r = partition_hypergraph(&h, 4, &cfg);
        assert!(
            r.imbalance <= 1.0 + cfg.epsilon + 1e-9,
            "imbalance {}",
            r.imbalance
        );
        // The perfect 4-way cut of a 16x16 grid with quadrant blocks is 32;
        // a decent multilevel partitioner should be in that neighborhood.
        assert!(r.cut <= 64.0, "cut {} too high", r.cut);
    }

    #[test]
    fn fixed_vertices_are_respected() {
        let h = grid_hypergraph(8, 8);
        let mut fixed = FixedAssignment::free(64);
        fixed.fix(0, 0);
        fixed.fix(63, 3);
        fixed.fix(7, 1);
        fixed.fix(56, 2);
        let r = partition_hypergraph_fixed(&h, 4, &fixed, &Config::seeded(3));
        assert_eq!(r.part[0], 0);
        assert_eq!(r.part[63], 3);
        assert_eq!(r.part[7], 1);
        assert_eq!(r.part[56], 2);
    }

    #[test]
    fn many_fixed_vertices_still_respected() {
        let h = grid_hypergraph(10, 10);
        let mut rng = StdRng::seed_from_u64(9);
        let mut fixed = FixedAssignment::free(100);
        for v in 0..100 {
            if rng.gen_bool(0.3) {
                fixed.fix(v, rng.gen_range(0..4));
            }
        }
        let cfg = Config::seeded(11);
        let r = partition_hypergraph_fixed(&h, 4, &fixed, &cfg);
        for v in 0..100 {
            if let Some(p) = fixed.get(v) {
                assert_eq!(r.part[v], p, "vertex {v} escaped its fixed part");
            }
        }
    }

    #[test]
    fn k_equals_one_trivial() {
        let h = grid_hypergraph(4, 4);
        let r = partition_hypergraph(&h, 1, &Config::default());
        assert!(r.part.iter().all(|&p| p == 0));
        assert_eq!(r.cut, 0.0);
    }

    #[test]
    fn k_larger_than_vertices() {
        let h = grid_hypergraph(2, 2);
        let r = partition_hypergraph(&h, 8, &Config::seeded(2));
        assert_eq!(r.part.len(), 4);
        assert!(r.part.iter().all(|&p| p < 8));
    }

    #[test]
    fn uneven_k_respects_balance() {
        let h = grid_hypergraph(12, 12);
        let cfg = Config::seeded(5);
        let r = partition_hypergraph(&h, 3, &cfg);
        assert!(
            r.imbalance <= 1.0 + cfg.epsilon + 0.02,
            "imbalance {}",
            r.imbalance
        );
    }

    #[test]
    fn direct_kway_also_works() {
        let h = grid_hypergraph(12, 12);
        let mut cfg = Config::seeded(5);
        cfg.scheme = Scheme::DirectKway;
        let r = partition_hypergraph(&h, 4, &cfg);
        assert!(
            r.imbalance <= 1.0 + cfg.epsilon + 0.05,
            "imbalance {}",
            r.imbalance
        );
        assert!(r.cut > 0.0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let h = random_hypergraph(200, 400, 5, 17);
        let a = partition_hypergraph(&h, 4, &Config::seeded(42));
        let b = partition_hypergraph(&h, 4, &Config::seeded(42));
        assert_eq!(a.part, b.part);
    }

    #[test]
    fn warm_start_disabled_falls_back_to_full_pipeline() {
        let h = grid_hypergraph(10, 10);
        let cfg = Config::seeded(21); // warm_start: false
        let seed: Vec<usize> = (0..100).map(|v| v % 4).collect();
        let cold = partition_hypergraph(&h, 4, &cfg);
        let warm = refine_partition_fixed(&h, 4, &FixedAssignment::free(100), &seed, &cfg);
        assert_eq!(
            cold.part, warm.part,
            "disabled warm start must ignore the seed"
        );
    }

    #[test]
    fn warm_start_repairs_and_respects_constraints() {
        let h = grid_hypergraph(12, 12);
        let mut cfg = Config::seeded(23);
        cfg.warm_start = true;
        cfg.num_vcycles = 2;
        // A badly imbalanced seed that also violates the fixture.
        let seed: Vec<usize> = vec![0; 144];
        let mut fixed = FixedAssignment::free(144);
        fixed.fix(143, 3);
        let r = refine_partition_fixed(&h, 4, &fixed, &seed, &cfg);
        assert_eq!(r.part[143], 3, "fixed vertex escaped");
        assert!(
            r.imbalance <= 1.0 + cfg.epsilon + 1e-9,
            "warm start did not restore balance: {}",
            r.imbalance
        );
        assert!(r.cut > 0.0);
    }

    #[test]
    fn warm_start_is_deterministic() {
        let h = random_hypergraph(150, 300, 5, 31);
        let mut cfg = Config::seeded(42);
        cfg.warm_start = true;
        cfg.num_vcycles = 2;
        let seed: Vec<usize> = (0..150).map(|v| (v * 7) % 4).collect();
        let fixed = FixedAssignment::free(150);
        let a = refine_partition_fixed(&h, 4, &fixed, &seed, &cfg);
        let b = refine_partition_fixed(&h, 4, &fixed, &seed, &cfg);
        assert_eq!(a.part, b.part);
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        let mut h = grid_hypergraph(8, 8);
        // Make one corner heavy.
        h.set_vertex_weight(0, 20.0);
        let cfg = Config::seeded(13);
        let r = partition_hypergraph(&h, 2, &cfg);
        let w = metrics::part_weights(&h, &r.part, 2);
        let imb = metrics::imbalance_of_weights(&w);
        assert!(
            imb <= 1.0 + cfg.epsilon + 0.25,
            "imbalance {imb} (heavy vertex)"
        );
    }
}
