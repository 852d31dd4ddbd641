//! The four repartitioning algorithms compared in Section 5.

use std::time::{Duration, Instant};

use dlb_graphpart::{adaptive_repart, partition_kway, AdaptiveConfig, GraphConfig};
use dlb_hypergraph::{metrics, CsrGraph, Hypergraph, PartId};
use dlb_mpisim::Comm;
use dlb_partitioner::{partition_fixed_on, Config as HgConfig, FixedAssignment};

use crate::cost::CostBreakdown;
use crate::model::RepartitionHypergraph;
use crate::remap::remap_to_minimize_migration;

/// The four algorithms of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's new method: repartitioning hypergraph + partitioning
    /// with fixed vertices.
    ZoltanRepart,
    /// Hypergraph partitioning from scratch + maximal-matching remap.
    ZoltanScratch,
    /// Graph adaptive repartitioning (`AdaptiveRepart` analog, ITR = α).
    ParmetisRepart,
    /// Graph partitioning from scratch (`Partkway` analog) + remap.
    ParmetisScratch,
}

impl Algorithm {
    /// The four algorithms in the paper's bar order (left to right).
    pub const ALL: [Algorithm; 4] = [
        Algorithm::ZoltanRepart,
        Algorithm::ParmetisRepart,
        Algorithm::ZoltanScratch,
        Algorithm::ParmetisScratch,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::ZoltanRepart => "Zoltan-repart",
            Algorithm::ZoltanScratch => "Zoltan-scratch",
            Algorithm::ParmetisRepart => "ParMETIS-repart",
            Algorithm::ParmetisScratch => "ParMETIS-scratch",
        }
    }

    /// True for the hypergraph-based methods.
    pub(crate) fn is_hypergraph(self) -> bool {
        matches!(self, Algorithm::ZoltanRepart | Algorithm::ZoltanScratch)
    }
}

/// One epoch's repartitioning problem.
#[derive(Clone, Copy, Debug)]
pub struct RepartProblem<'a> {
    /// Epoch hypergraph `H^j` (communication costs unscaled).
    pub hypergraph: &'a Hypergraph,
    /// The same structure as a graph, for the graph-based baselines.
    pub graph: &'a CsrGraph,
    /// Previous/creation part per vertex.
    pub old_part: &'a [PartId],
    /// Number of parts.
    pub k: usize,
    /// Iterations in the upcoming epoch (the trade-off knob).
    pub alpha: f64,
}

/// Knobs shared by all four algorithms.
#[derive(Clone, Debug)]
pub struct RepartConfig {
    /// Hypergraph-partitioner knobs.
    pub hypergraph: HgConfig,
    /// Graph-partitioner knobs.
    pub graph: GraphConfig,
}

impl Default for RepartConfig {
    fn default() -> Self {
        RepartConfig::seeded(0)
    }
}

impl RepartConfig {
    /// Default knobs with a specific seed.
    pub fn seeded(seed: u64) -> Self {
        let epsilon = 0.05;
        let mut hypergraph = HgConfig::seeded(seed);
        hypergraph.epsilon = epsilon;
        // Direct k-way consistently beats recursive bisection on the
        // augmented repartitioning hypergraph (the migration tethers and
        // the k fixed seeds are all visible to one global V-cycle);
        // Zoltan's RB remains available via `cfg.hypergraph.scheme`;
        // `cargo bench --bench ablations` (crates/bench) compares the two.
        hypergraph.scheme = dlb_partitioner::Scheme::DirectKway;
        // A second, part-restricted V-cycle recovers most of the quality
        // gap to unconstrained partitioning at large α for ~40% more
        // partitioning time (figures in EXPERIMENTS.md, "Ablations").
        hypergraph.num_vcycles = 2;
        let mut graph = GraphConfig::seeded(seed);
        graph.epsilon = epsilon;
        RepartConfig { hypergraph, graph }
    }

    /// Sets ε on all engines.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.hypergraph.epsilon = epsilon;
        self.graph.epsilon = epsilon;
        self
    }

    /// Per-constraint tolerances for multi-constraint epochs:
    /// `epsilons[0]` is the primary ε (applied to every engine like
    /// [`RepartConfig::with_epsilon`]); the rest become the hypergraph
    /// engine's auxiliary tolerances
    /// ([`dlb_partitioner::Config::aux_epsilons`]). The graph baselines
    /// stay scalar — they only ever see constraint 0.
    pub fn with_epsilons(mut self, epsilons: &[f64]) -> Self {
        if let Some((&first, rest)) = epsilons.split_first() {
            self = self.with_epsilon(first);
            self.hypergraph.aux_epsilons = rest.to_vec();
        }
        self
    }
}

/// The outcome of one repartitioning call.
#[derive(Clone, Debug)]
pub struct RepartResult {
    /// The new assignment.
    pub new_part: Vec<PartId>,
    /// Communication + migration accounting.
    pub cost: CostBreakdown,
    /// Load imbalance of the new assignment (by vertex weight).
    pub imbalance: f64,
    /// Number of vertices that changed parts.
    pub moved: usize,
    /// Wall-clock repartitioning time.
    pub elapsed: Duration,
}

fn finish(problem: &RepartProblem, new_part: Vec<PartId>, start: Instant) -> RepartResult {
    let elapsed = start.elapsed();
    let cost = CostBreakdown::measure(
        problem.hypergraph,
        problem.old_part,
        &new_part,
        problem.k,
        problem.alpha,
    );
    let imbalance = metrics::imbalance(problem.hypergraph, &new_part, problem.k);
    let moved = metrics::moved_vertex_count(problem.old_part, &new_part);
    RepartResult {
        new_part,
        cost,
        imbalance,
        moved,
        elapsed,
    }
}

/// Runs one of the four algorithms on `problem` (serial).
pub fn repartition(
    problem: &RepartProblem,
    algorithm: Algorithm,
    cfg: &RepartConfig,
) -> RepartResult {
    repartition_on(None, problem, algorithm, cfg, None)
}

/// Runs one of the four algorithms collectively on an SPMD communicator.
///
/// The hypergraph methods run the genuinely parallel partitioner of
/// [`dlb_partitioner::par`]; the graph baselines execute their
/// deterministic serial algorithm redundantly on every rank (they are
/// communication-free by construction here — see DESIGN.md §4), so all
/// ranks return identical results either way.
pub fn repartition_parallel(
    comm: &mut Comm,
    problem: &RepartProblem,
    algorithm: Algorithm,
    cfg: &RepartConfig,
) -> RepartResult {
    repartition_on(Some(comm), problem, algorithm, cfg, None)
}

/// A repartitioning model the caller already holds — the incremental
/// path ([`crate::delta`]). It must be the lowering of the problem it is
/// passed with (the patch invariant guarantees bitwise equality with
/// [`RepartitionHypergraph::build`] on it, so a cold solve returns
/// exactly what [`repartition`] would).
#[derive(Clone, Copy)]
pub(crate) struct Prebuilt<'a> {
    pub model: &'a RepartitionHypergraph,
    /// Seed the partitioner from the previous assignment
    /// ([`RepartitionHypergraph::solve_warm`]) instead of running the
    /// full pipeline on the model.
    pub warm: bool,
}

/// The one body behind [`repartition`] and [`repartition_parallel`]:
/// `comm` selects serial or collective hypergraph partitioning;
/// `prebuilt` hands [`Algorithm::ZoltanRepart`] its model instead of
/// lowering `problem` again (the other three algorithms ignore it).
pub(crate) fn repartition_on(
    mut comm: Option<&mut Comm>,
    problem: &RepartProblem,
    algorithm: Algorithm,
    cfg: &RepartConfig,
    prebuilt: Option<Prebuilt<'_>>,
) -> RepartResult {
    validate(problem);
    let span = dlb_trace::span!(
        "repartition",
        algorithm = algorithm.name(),
        k = problem.k,
        alpha = problem.alpha,
    );
    if let Some(comm) = comm.as_deref() {
        span.attr("ranks", comm.size());
    }
    if let Some(p) = prebuilt {
        span.attr("warm", p.warm as usize);
    }
    let start = Instant::now();
    let new_part = match algorithm {
        Algorithm::ZoltanRepart => {
            let built;
            let model = match prebuilt {
                Some(p) => p.model,
                None => {
                    built = RepartitionHypergraph::build(
                        problem.hypergraph,
                        problem.old_part,
                        problem.k,
                        problem.alpha,
                    );
                    &built
                }
            };
            assert_eq!(
                model.num_computation_vertices,
                problem.hypergraph.num_vertices()
            );
            assert_eq!(model.k, problem.k);
            if prebuilt.is_some_and(|p| p.warm) {
                model.solve_warm(comm.as_deref_mut(), problem.old_part, &cfg.hypergraph)
            } else {
                model.solve(comm.as_deref_mut(), &cfg.hypergraph)
            }
        }
        Algorithm::ZoltanScratch => {
            let free = FixedAssignment::free(problem.hypergraph.num_vertices());
            let r = partition_fixed_on(
                comm.as_deref_mut(),
                problem.hypergraph,
                problem.k,
                &free,
                None,
                &cfg.hypergraph,
            );
            remap_to_minimize_migration(
                &r.part,
                problem.old_part,
                problem.hypergraph.vertex_sizes(),
                problem.k,
            )
        }
        Algorithm::ParmetisRepart => {
            let acfg = AdaptiveConfig {
                base: cfg.graph.clone(),
                alpha: problem.alpha,
            };
            adaptive_repart(problem.graph, problem.k, problem.old_part, &acfg).part
        }
        Algorithm::ParmetisScratch => {
            let r = partition_kway(problem.graph, problem.k, &cfg.graph);
            remap_to_minimize_migration(
                &r.part,
                problem.old_part,
                problem.graph.vertex_sizes(),
                problem.k,
            )
        }
    };
    // The graph baselines never touch the communicator; keep ranks in
    // lockstep for fair timing comparisons.
    if let (false, Some(comm)) = (algorithm.is_hypergraph(), comm) {
        comm.barrier();
    }
    finish(problem, new_part, start)
}

fn validate(problem: &RepartProblem) {
    assert!(problem.k > 0, "k must be positive");
    assert!(problem.alpha > 0.0, "alpha must be positive");
    assert_eq!(
        problem.hypergraph.num_vertices(),
        problem.graph.num_vertices()
    );
    assert_eq!(problem.old_part.len(), problem.hypergraph.num_vertices());
    assert!(problem.old_part.iter().all(|&p| p < problem.k));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::convert::column_net_model_unit;
    use dlb_hypergraph::GraphBuilder;

    fn grid_problem(rows: usize, cols: usize, k: usize) -> (CsrGraph, Hypergraph, Vec<PartId>) {
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
        // Old partition: column stripes of width cols/k (deliberately OK
        // but not optimal).
        let old: Vec<usize> = (0..rows * cols).map(|v| (v % cols) * k / cols).collect();
        (g, h, old)
    }

    #[test]
    fn all_four_algorithms_produce_valid_results() {
        let (g, h, old) = grid_problem(10, 10, 4);
        let problem = RepartProblem {
            hypergraph: &h,
            graph: &g,
            old_part: &old,
            k: 4,
            alpha: 10.0,
        };
        let cfg = RepartConfig::seeded(1);
        for alg in Algorithm::ALL {
            let r = repartition(&problem, alg, &cfg);
            assert_eq!(r.new_part.len(), 100, "{}", alg.name());
            assert!(r.new_part.iter().all(|&p| p < 4));
            assert!(
                r.imbalance <= 1.2,
                "{}: imbalance {}",
                alg.name(),
                r.imbalance
            );
            assert!(r.cost.comm > 0.0, "{}: a grid always has cut", alg.name());
        }
    }

    #[test]
    fn repart_methods_migrate_less_at_small_alpha() {
        let (g, h, old) = grid_problem(12, 12, 4);
        let problem = RepartProblem {
            hypergraph: &h,
            graph: &g,
            old_part: &old,
            k: 4,
            alpha: 1.0,
        };
        let cfg = RepartConfig::seeded(2);
        let zr = repartition(&problem, Algorithm::ZoltanRepart, &cfg);
        let zs = repartition(&problem, Algorithm::ZoltanScratch, &cfg);
        assert!(
            zr.cost.migration <= zs.cost.migration,
            "repart migration {} should not exceed scratch {}",
            zr.cost.migration,
            zs.cost.migration
        );
    }

    #[test]
    fn zoltan_repart_total_cost_beats_naive_scratch_at_alpha_one() {
        let (g, h, old) = grid_problem(12, 12, 4);
        let problem = RepartProblem {
            hypergraph: &h,
            graph: &g,
            old_part: &old,
            k: 4,
            alpha: 1.0,
        };
        let cfg = RepartConfig::seeded(3);
        let zr = repartition(&problem, Algorithm::ZoltanRepart, &cfg);
        let zs = repartition(&problem, Algorithm::ZoltanScratch, &cfg);
        assert!(
            zr.cost.total() <= zs.cost.total() * 1.1,
            "repart {} vs scratch {}",
            zr.cost.total(),
            zs.cost.total()
        );
    }

    #[test]
    fn large_alpha_approaches_pure_communication_optimization() {
        let (g, h, old) = grid_problem(12, 12, 4);
        let cfg = RepartConfig::seeded(4);
        let lo = repartition(
            &RepartProblem {
                hypergraph: &h,
                graph: &g,
                old_part: &old,
                k: 4,
                alpha: 1.0,
            },
            Algorithm::ZoltanRepart,
            &cfg,
        );
        let hi = repartition(
            &RepartProblem {
                hypergraph: &h,
                graph: &g,
                old_part: &old,
                k: 4,
                alpha: 1000.0,
            },
            Algorithm::ZoltanRepart,
            &cfg,
        );
        assert!(
            hi.cost.comm <= lo.cost.comm,
            "alpha=1000 comm {} should be <= alpha=1 comm {}",
            hi.cost.comm,
            lo.cost.comm
        );
    }

    #[test]
    fn moved_counts_are_consistent() {
        let (g, h, old) = grid_problem(8, 8, 2);
        let problem = RepartProblem {
            hypergraph: &h,
            graph: &g,
            old_part: &old,
            k: 2,
            alpha: 5.0,
        };
        let r = repartition(&problem, Algorithm::ZoltanRepart, &RepartConfig::seeded(5));
        let recount = old.iter().zip(&r.new_part).filter(|(a, b)| a != b).count();
        assert_eq!(r.moved, recount);
    }

    #[test]
    fn patched_cold_path_matches_repartition() {
        let (g, h, old) = grid_problem(10, 10, 4);
        let problem = RepartProblem {
            hypergraph: &h,
            graph: &g,
            old_part: &old,
            k: 4,
            alpha: 10.0,
        };
        let cfg = RepartConfig::seeded(7);
        let model = RepartitionHypergraph::build(&h, &old, 4, 10.0);
        let a = repartition(&problem, Algorithm::ZoltanRepart, &cfg);
        let prebuilt = |warm| {
            Some(Prebuilt {
                model: &model,
                warm,
            })
        };
        let b = repartition_on(
            None,
            &problem,
            Algorithm::ZoltanRepart,
            &cfg,
            prebuilt(false),
        );
        assert_eq!(
            a.new_part, b.new_part,
            "cold patched path must equal the standard driver"
        );
        // The warm path optimizes the same objective under the same
        // constraints, just from a warm seed.
        let w = repartition_on(
            None,
            &problem,
            Algorithm::ZoltanRepart,
            &cfg,
            prebuilt(true),
        );
        assert!(w.new_part.iter().all(|&p| p < 4));
        assert!(
            w.imbalance <= 1.0 + cfg.hypergraph.epsilon + 1e-9,
            "imbalance {}",
            w.imbalance
        );
    }

    #[test]
    fn parallel_driver_agrees_across_ranks() {
        use dlb_mpisim::run_spmd;
        let (g, h, old) = grid_problem(8, 8, 2);
        let cfg = RepartConfig::seeded(6);
        let results = run_spmd(3, |comm| {
            let problem = RepartProblem {
                hypergraph: &h,
                graph: &g,
                old_part: &old,
                k: 2,
                alpha: 10.0,
            };
            let r = repartition_parallel(comm, &problem, Algorithm::ZoltanRepart, &cfg);
            r.new_part
        });
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_nonpositive_alpha() {
        let (g, h, old) = grid_problem(4, 4, 2);
        let problem = RepartProblem {
            hypergraph: &h,
            graph: &g,
            old_part: &old,
            k: 2,
            alpha: 0.0,
        };
        let _ = repartition(&problem, Algorithm::ZoltanRepart, &RepartConfig::default());
    }
}
