//! End-to-end pipeline tests: dataset generation → static partition →
//! epoch stream → repartitioning with every algorithm → invariants.

use dlb::core::{repartition, Algorithm, RepartConfig, RepartProblem, Session};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::hypergraph::metrics;
use dlb::workloads::{Dataset, DatasetKind, EpochStream, Perturbation};

fn setup(kind: DatasetKind, k: usize, seed: u64) -> (EpochStream, usize) {
    let d = Dataset::generate(kind, 0.001, seed);
    let n = d.graph.num_vertices();
    let initial = partition_kway(&d.graph, k, &GraphConfig::seeded(seed)).part;
    (
        EpochStream::new(d.graph, Perturbation::structure(), k, initial, seed),
        n,
    )
}

#[test]
fn every_algorithm_survives_a_structural_epoch() {
    let k = 4;
    for alg in Algorithm::ALL {
        let (mut stream, _) = setup(DatasetKind::Cage14, k, 9);
        let snapshot = stream.next_epoch();
        let problem = RepartProblem {
            hypergraph: &snapshot.hypergraph,
            graph: &snapshot.graph,
            old_part: &snapshot.old_part,
            k,
            alpha: 10.0,
        };
        let r = repartition(&problem, alg, &RepartConfig::seeded(9));
        // Assignment is complete and in range.
        assert_eq!(
            r.new_part.len(),
            snapshot.graph.num_vertices(),
            "{}",
            alg.name()
        );
        assert!(r.new_part.iter().all(|&p| p < k), "{}", alg.name());
        // Cost accounting is self-consistent.
        let comm = metrics::cutsize_connectivity(&snapshot.hypergraph, &r.new_part, k);
        assert!((r.cost.comm - comm).abs() < 1e-9, "{}", alg.name());
        let mig = metrics::migration_volume(
            snapshot.hypergraph.vertex_sizes(),
            &snapshot.old_part,
            &r.new_part,
        );
        assert!((r.cost.migration - mig).abs() < 1e-9, "{}", alg.name());
        // Balance within a sane envelope.
        assert!(
            r.imbalance <= 1.25,
            "{}: imbalance {}",
            alg.name(),
            r.imbalance
        );
    }
}

#[test]
fn epoch_chain_keeps_identities_straight() {
    let k = 3;
    let (mut stream, base_n) = setup(DatasetKind::Auto, k, 4);
    let cfg = RepartConfig::seeded(4);
    let mut prev_assignment: Option<(Vec<usize>, Vec<usize>)> = None; // (to_base, part)
    for _ in 0..4 {
        let snapshot = stream.next_epoch();
        assert!(snapshot.graph.num_vertices() <= base_n);
        // Old parts must match what we committed last epoch (for
        // surviving vertices).
        if let Some((prev_to_base, prev_part)) = &prev_assignment {
            for (v, &b) in snapshot.to_base.iter().enumerate() {
                if let Some(pos) = prev_to_base.iter().position(|&x| x == b) {
                    assert_eq!(
                        snapshot.old_part[v], prev_part[pos],
                        "old part mismatch for base vertex {b}"
                    );
                }
            }
        }
        let problem = RepartProblem {
            hypergraph: &snapshot.hypergraph,
            graph: &snapshot.graph,
            old_part: &snapshot.old_part,
            k,
            alpha: 10.0,
        };
        let r = repartition(&problem, Algorithm::ZoltanRepart, &cfg);
        stream.commit_assignment(&snapshot, &r.new_part);
        prev_assignment = Some((snapshot.to_base.clone(), r.new_part));
    }
}

#[test]
fn simulation_is_deterministic_given_seed() {
    let run = || {
        let (mut stream, _) = setup(DatasetKind::Xyce680s, 4, 6);
        let s = Session::new(RepartConfig::seeded(6))
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(10.0)
            .epochs(3)
            .workload(&mut stream)
            .run()
            .unwrap();
        (s.mean_comm(), s.mean_migration(), s.mean_normalized_total())
    };
    assert_eq!(run(), run());
}

#[test]
fn all_five_datasets_flow_through_the_pipeline() {
    for kind in DatasetKind::ALL {
        let scale = match kind {
            DatasetKind::Lipid2D => 0.05,
            _ => 0.0005,
        };
        let d = Dataset::generate(kind, scale, 5);
        let k = 4;
        let initial = partition_kway(&d.graph, k, &GraphConfig::seeded(5)).part;
        let mut stream = EpochStream::new(d.graph, Perturbation::weights(), k, initial, 5);
        let s = Session::new(RepartConfig::seeded(5))
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(10.0)
            .epochs(2)
            .workload(&mut stream)
            .run()
            .unwrap();
        assert_eq!(s.reports.len(), 2, "{}", kind.name());
        assert!(
            s.max_imbalance() <= 1.35,
            "{}: {}",
            kind.name(),
            s.max_imbalance()
        );
    }
}

#[test]
fn weight_epochs_rebalance_after_refinement() {
    // After simulated mesh refinement, the repartitioners must restore
    // balance even though the old partition is badly overweight.
    let k = 4;
    let d = Dataset::generate(DatasetKind::Auto, 0.001, 8);
    let initial = partition_kway(&d.graph, k, &GraphConfig::seeded(8)).part;
    let mut stream = EpochStream::new(d.graph, Perturbation::weights(), k, initial, 8);
    for alg in [Algorithm::ZoltanRepart, Algorithm::ParmetisRepart] {
        let snapshot = stream.next_epoch();
        let before = metrics::imbalance(&snapshot.hypergraph, &snapshot.old_part, k);
        let problem = RepartProblem {
            hypergraph: &snapshot.hypergraph,
            graph: &snapshot.graph,
            old_part: &snapshot.old_part,
            k,
            alpha: 10.0,
        };
        let r = repartition(&problem, alg, &RepartConfig::seeded(8));
        assert!(
            r.imbalance <= before.max(1.12),
            "{}: imbalance {} (was {before})",
            alg.name(),
            r.imbalance
        );
        stream.commit_assignment(&snapshot, &r.new_part);
    }
}
