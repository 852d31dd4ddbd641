//! AMR end-to-end: the real adaptive workload through the full driver.
//!
//! The acceptance identity of the execution model: on every AMR epoch,
//! the *measured* volumes — ghost-exchange bytes from the per-net
//! communication ledger, migration bytes from payloads physically moved
//! over the simulated SPMD machine — must equal the repartitioning
//! hypergraph's model charges (connectivity-1 cut and migration-net
//! charge) **bitwise**. AMR weights, sizes, and net costs are
//! integer-valued `f64`s, so every sum is exact and the assertions use
//! `==`, not a tolerance.

use dlb::amr::{AmrConfig, AmrStream};
use dlb::core::{Algorithm, RepartConfig, Session, SimulationSummary};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::workloads::AmrSource;

fn amr_source(k: usize, seed: u64) -> AmrSource {
    let stream = AmrStream::new(AmrConfig::small(), k, seed);
    let low = stream.initial_lowering();
    let initial = partition_kway(&low.graph, k, &GraphConfig::seeded(seed)).part;
    AmrSource::new(stream, &initial)
}

fn run(k: usize, algorithm: Algorithm, alpha: f64, seed: u64) -> SimulationSummary {
    let mut source = amr_source(k, seed);
    Session::new(RepartConfig::seeded(seed))
        .algorithm(algorithm)
        .alpha(alpha)
        .epochs(4)
        .measured(true)
        .workload(&mut source)
        .run()
        .unwrap()
}

/// The acceptance criterion: measured migration equals the migration-net
/// charge, and measured traffic equals the connectivity-1 cut, on every
/// epoch, for every algorithm, at k ∈ {4, 8}.
#[test]
fn measured_volumes_equal_model_charges() {
    for k in [4usize, 8] {
        for algorithm in Algorithm::ALL {
            let summary = run(k, algorithm, 10.0, 7);
            assert_eq!(summary.reports.len(), 4, "{} k={k}", algorithm.name());
            for r in &summary.reports {
                let e = r.execution.expect("measured simulation");
                assert_eq!(
                    e.mig_volume,
                    r.cost.migration,
                    "epoch {} {} k={k}: measured migration vs migration-net charge",
                    r.epoch,
                    algorithm.name()
                );
                assert_eq!(
                    e.comm_volume,
                    r.cost.comm,
                    "epoch {} {} k={k}: measured traffic vs connectivity-1 cut",
                    r.epoch,
                    algorithm.name()
                );
            }
        }
    }
}

/// Sanity of the balanced execution: every algorithm keeps the AMR
/// workload inside a sane imbalance envelope and produces positive
/// makespans whose phases compose.
#[test]
fn all_algorithms_balance_the_adaptive_mesh() {
    for algorithm in Algorithm::ALL {
        let summary = run(4, algorithm, 100.0, 3);
        assert!(
            summary.max_imbalance() < 1.5,
            "{}: imbalance {}",
            algorithm.name(),
            summary.max_imbalance()
        );
        for r in &summary.reports {
            let e = r.execution.expect("measured simulation");
            assert!(e.t_comp > 0.0, "{}", algorithm.name());
            assert!(
                e.makespan() >= 100.0 * (e.t_comp + e.t_comm),
                "{}",
                algorithm.name()
            );
            assert!(r.num_vertices > 0);
        }
    }
}

/// The paper's trade-off on the real workload: at long epochs the
/// repartitioner's measured total cost `α·t_comm + t_mig` should not
/// exceed scratch partitioning's (5-seed aggregate; single seeds can
/// tie within noise).
#[test]
fn repart_total_cost_competitive_at_long_epochs() {
    let mut repart_total = 0.0;
    let mut scratch_total = 0.0;
    for seed in 20..25 {
        let cost = |s: &SimulationSummary| {
            s.reports
                .iter()
                .map(|r| {
                    let e = r.execution.expect("measured");
                    s.alpha * e.t_comm + e.t_mig
                })
                .sum::<f64>()
        };
        repart_total += cost(&run(4, Algorithm::ZoltanRepart, 100.0, seed));
        scratch_total += cost(&run(4, Algorithm::ZoltanScratch, 100.0, seed));
    }
    assert!(
        repart_total <= scratch_total * 1.05,
        "repart measured cost {repart_total} should not exceed scratch {scratch_total} by >5%"
    );
}
