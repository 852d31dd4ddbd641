//! Statistical "shape" tests: small-scale versions of the qualitative
//! claims in the paper's Section 5, averaged over several seeds so a
//! single unlucky instance cannot flip them. These are the invariants
//! EXPERIMENTS.md tracks at full experiment scale.

use dlb::core::{Algorithm, RepartConfig, Session, SimulationSummary};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::hypergraph::convert::column_net_model_unit;
use dlb::hypergraph::metrics;
use dlb::partitioner::{partition_hypergraph, Config as HgConfig};
use dlb::workloads::{Dataset, DatasetKind, EpochStream, PerturbKind, Perturbation};

fn simulate(
    stream: &mut EpochStream,
    epochs: usize,
    alg: Algorithm,
    alpha: f64,
    seed: u64,
) -> SimulationSummary {
    Session::new(RepartConfig::seeded(seed))
        .algorithm(alg)
        .alpha(alpha)
        .epochs(epochs)
        .workload(stream)
        .run()
        .unwrap()
}

fn mean_over_seeds(
    kind: DatasetKind,
    perturb: PerturbKind,
    k: usize,
    alpha: f64,
    alg: Algorithm,
    seeds: &[u64],
) -> (f64, f64) {
    let mut total = 0.0;
    let mut mig = 0.0;
    for &seed in seeds {
        let d = Dataset::generate(kind, 0.001, seed);
        let initial = partition_kway(&d.graph, k, &GraphConfig::seeded(seed)).part;
        let p = match perturb {
            PerturbKind::Structure => Perturbation::structure(),
            PerturbKind::Weights => Perturbation::weights(),
        };
        let mut stream = EpochStream::new(d.graph, p, k, initial, seed);
        let s = simulate(&mut stream, 3, alg, alpha, seed);
        total += s.mean_normalized_total();
        mig += s.mean_migration();
    }
    (total / seeds.len() as f64, mig / seeds.len() as f64)
}

const SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Paper, Section 5: "total cost using Zoltan-scratch ... is comparable
/// to Zoltan-repart only when α is greater than 100" — i.e. at α = 1 the
/// scratch methods lose badly on migration.
#[test]
fn scratch_pays_migration_at_alpha_one() {
    let (repart_total, repart_mig) = mean_over_seeds(
        DatasetKind::Auto,
        PerturbKind::Structure,
        4,
        1.0,
        Algorithm::ZoltanRepart,
        &SEEDS,
    );
    let (scratch_total, scratch_mig) = mean_over_seeds(
        DatasetKind::Auto,
        PerturbKind::Structure,
        4,
        1.0,
        Algorithm::ZoltanScratch,
        &SEEDS,
    );
    assert!(
        repart_mig < scratch_mig,
        "repart migration {repart_mig} should be below scratch {scratch_mig}"
    );
    assert!(
        repart_total < scratch_total,
        "repart total {repart_total} should beat scratch {scratch_total} at alpha=1"
    );
}

/// Paper, Section 5: "As α grows ... the partitioners find smaller
/// communication cost with increasing α" (and migration stops
/// mattering). At large α the repartitioner's *migration-per-alpha*
/// share of the total must be negligible.
#[test]
fn migration_share_vanishes_at_large_alpha() {
    let (total, mig) = mean_over_seeds(
        DatasetKind::Auto,
        PerturbKind::Structure,
        4,
        1000.0,
        Algorithm::ZoltanRepart,
        &SEEDS,
    );
    assert!(
        mig / 1000.0 <= 0.02 * total,
        "normalized migration {} should be <2% of total {total}",
        mig / 1000.0
    );
}

/// Paper, Section 2: hypergraphs model communication volume exactly;
/// graph partitioners optimize the edge-cut proxy. On identical inputs
/// the hypergraph partitioner should win on comm volume (averaged).
#[test]
fn hypergraph_beats_graph_on_communication_volume() {
    let mut hg_total = 0.0;
    let mut g_total = 0.0;
    for seed in [1u64, 2, 3, 4, 5, 6] {
        let d = Dataset::generate(DatasetKind::Auto, 0.001, seed);
        let h = column_net_model_unit(&d.graph);
        let k = 4;
        let hg = partition_hypergraph(&h, k, &HgConfig::seeded(seed));
        let g = partition_kway(&d.graph, k, &GraphConfig::seeded(seed));
        hg_total += hg.cut;
        g_total += metrics::cutsize_connectivity(&h, &g.part, k);
    }
    assert!(
        hg_total < g_total,
        "hypergraph comm volume {hg_total} should beat graph partitioner {g_total}"
    );
}

/// The repartitioners must never leave the load badly unbalanced, even
/// under simulated mesh refinement (7.5× weight growth).
#[test]
fn repartitioners_restore_balance_under_refinement() {
    for alg in [Algorithm::ZoltanRepart, Algorithm::ParmetisRepart] {
        for seed in SEEDS {
            let d = Dataset::generate(DatasetKind::Cage14, 0.0005, seed);
            let initial = partition_kway(&d.graph, 4, &GraphConfig::seeded(seed)).part;
            let mut stream = EpochStream::new(d.graph, Perturbation::weights(), 4, initial, seed);
            let s = simulate(&mut stream, 3, alg, 10.0, seed);
            assert!(
                s.max_imbalance() <= 1.25,
                "{} seed {seed}: imbalance {}",
                alg.name(),
                s.max_imbalance()
            );
        }
    }
}

/// α monotonicity: communication volume achieved by the model should not
/// get *worse* when α increases (averaged over seeds) — the objective
/// weighs comm more heavily, so the optimizer pushes harder on it.
#[test]
fn comm_improves_with_alpha() {
    let at = |alpha: f64| {
        let mut comm = 0.0;
        for &seed in &SEEDS {
            let d = Dataset::generate(DatasetKind::Auto, 0.001, seed);
            let initial = partition_kway(&d.graph, 4, &GraphConfig::seeded(seed)).part;
            let mut stream = EpochStream::new(d.graph, Perturbation::structure(), 4, initial, seed);
            let s = simulate(&mut stream, 3, Algorithm::ZoltanRepart, alpha, seed);
            comm += s.mean_comm();
        }
        comm / SEEDS.len() as f64
    };
    let lo = at(1.0);
    let hi = at(1000.0);
    assert!(
        hi <= lo * 1.05,
        "comm at alpha=1000 ({hi}) should be <= comm at alpha=1 ({lo}) within 5%"
    );
}
