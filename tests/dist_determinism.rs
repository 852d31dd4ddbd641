//! Regression test for the distributed-memory levels of the SPMD
//! V-cycle (DESIGN.md §9): with `cfg.hypergraph.dist.distributed` set,
//! the large levels are held block-distributed and must produce the
//! *bit-identical* partition — and therefore identical cost-model
//! values — as the same driver with every level replicated, at the same
//! rank count, on cage-style workloads, for k ∈ {4, 8} and both
//! dynamics (structure and weight perturbations).

use dlb::core::{repartition_parallel, Algorithm, RepartConfig, RepartProblem, RepartResult};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::mpisim::run_spmd;
use dlb::workloads::{Dataset, DatasetKind, EpochSnapshot, EpochStream, Perturbation};

const RANK_COUNTS: [usize; 3] = [1, 2, 4];

/// One perturbed cage-style epoch: the repartitioning problem every
/// driver below solves.
fn snapshot(k: usize, perturbation: Perturbation, seed: u64) -> EpochSnapshot {
    let d = Dataset::generate(DatasetKind::Cage14, 0.001, seed);
    let initial = partition_kway(&d.graph, k, &GraphConfig::seeded(seed)).part;
    let mut stream = EpochStream::new(d.graph, perturbation, k, initial, seed);
    stream.next_epoch()
}

/// Runs `algorithm` collectively on `ranks` simulated ranks, with the
/// distributed driver on or off, and returns rank 0's result.
fn run(
    snapshot: &EpochSnapshot,
    k: usize,
    algorithm: Algorithm,
    ranks: usize,
    distributed: bool,
) -> RepartResult {
    let problem = RepartProblem {
        hypergraph: &snapshot.hypergraph,
        graph: &snapshot.graph,
        old_part: &snapshot.old_part,
        k,
        alpha: 50.0,
    };
    let mut cfg = RepartConfig::seeded(11);
    cfg.hypergraph.dist.distributed = distributed;
    // Low threshold so several levels stay distributed at this scale.
    cfg.hypergraph.dist.gather_threshold = 256;
    let mut results = run_spmd(ranks, |comm| {
        repartition_parallel(comm, &problem, algorithm, &cfg)
    });
    for r in &results[1..] {
        assert_eq!(r.new_part, results[0].new_part, "ranks disagree internally");
    }
    results.swap_remove(0)
}

fn assert_equivalent(dist: &RepartResult, repl: &RepartResult, context: &str) {
    assert_eq!(
        dist.new_part, repl.new_part,
        "partition diverged: {context}"
    );
    // Identical partitions must yield bit-identical cost-model values.
    assert_eq!(
        dist.cost.comm, repl.cost.comm,
        "comm cost diverged: {context}"
    );
    assert_eq!(
        dist.cost.migration, repl.cost.migration,
        "migration cost diverged: {context}"
    );
    assert_eq!(
        dist.cost.total(),
        repl.cost.total(),
        "total cost diverged: {context}"
    );
    assert_eq!(dist.moved, repl.moved, "move count diverged: {context}");
    assert_eq!(
        dist.imbalance, repl.imbalance,
        "imbalance diverged: {context}"
    );
}

#[test]
fn distributed_repart_matches_replicated_for_both_dynamics() {
    for (name, perturbation) in [
        ("structure", Perturbation::structure()),
        ("weights", Perturbation::weights()),
    ] {
        for k in [4usize, 8] {
            let snap = snapshot(k, perturbation.clone(), 23);
            for ranks in RANK_COUNTS {
                let dist = run(&snap, k, Algorithm::ZoltanRepart, ranks, true);
                let repl = run(&snap, k, Algorithm::ZoltanRepart, ranks, false);
                assert_equivalent(&dist, &repl, &format!("dynamic={name} k={k} ranks={ranks}"));
            }
        }
    }
}

#[test]
fn distributed_scratch_matches_replicated() {
    let snap = snapshot(8, Perturbation::structure(), 31);
    for ranks in RANK_COUNTS {
        let dist = run(&snap, 8, Algorithm::ZoltanScratch, ranks, true);
        let repl = run(&snap, 8, Algorithm::ZoltanScratch, ranks, false);
        assert_equivalent(&dist, &repl, &format!("scratch ranks={ranks}"));
    }
}

/// The SPMD stack reaches the V-cycle through recursive bisection, so the
/// tests above only ever run it at k = 2. A direct k-way call exercises
/// what k = 2 cannot: the greedy rebalance choosing among several
/// overweight parts, ties included, identically on both storage forms.
#[test]
fn distributed_direct_kway_matches_replicated() {
    use dlb::hypergraph::PartTargets;
    use dlb::partitioner::par::dist::dist_multilevel;
    use dlb::partitioner::{Config, FixedAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let k = 8;
    let snap = snapshot(k, Perturbation::structure(), 23);
    let h = &snap.hypergraph;
    let fixed = FixedAssignment::free(h.num_vertices());
    // A tight tolerance and a low gather point: small distributed
    // levels arrive overweight in several parts at once.
    let targets = PartTargets::uniform(h.total_vertex_weight(), k, 0.01);
    for ranks in [1usize, 2, 3, 4] {
        let run = |distributed: bool| {
            let mut cfg = Config::seeded(11);
            cfg.dist.distributed = distributed;
            cfg.dist.gather_threshold = 48;
            run_spmd(ranks, |comm| {
                let mut rng = StdRng::seed_from_u64(5);
                dist_multilevel(comm, h, &targets, &fixed, &cfg, &mut rng)
            })
        };
        assert_eq!(
            run(true),
            run(false),
            "direct k-way diverged: ranks={ranks}"
        );
    }
}

/// Run-to-run reproducibility: the owner-computes driver must give the
/// same bits on a repeated invocation of the same problem — the
/// incremental ghost exchange and delta sigma events (DESIGN.md §17)
/// may not leak any scheduling nondeterminism into the result.
#[test]
fn distributed_repart_is_reproducible_run_to_run() {
    let snap = snapshot(4, Perturbation::structure(), 23);
    for ranks in RANK_COUNTS {
        let first = run(&snap, 4, Algorithm::ZoltanRepart, ranks, true);
        let second = run(&snap, 4, Algorithm::ZoltanRepart, ranks, true);
        assert_equivalent(&first, &second, &format!("repeat ranks={ranks}"));
    }
}

/// The capability replicated levels cannot offer at any rank count: an
/// instance whose single-rank residency exceeds a 4.5 MiB budget is
/// partitioned at 16 and 64 simulated ranks with every rank's total
/// residency (pins + metadata + per-vertex arrays) under the budget,
/// strictly less at 64 ranks than at 16. Minutes in release on one
/// core, so CI runs it with `--release -- --ignored`.
///
/// The residency read is `DistStats::total_resident_bytes`, which
/// counts distributed levels only: the level gathered whole onto every
/// rank and the levels coarsened from it are in no figure. At 64 ranks
/// coarsening stalls after two distributed levels and a 3985-vertex
/// level is gathered, so "64 below 16" compares 2 levels with 11.
#[test]
#[ignore = "64 simulated ranks; run in release"]
fn over_budget_instance_fits_every_rank_at_16_and_64_ranks() {
    use dlb::hypergraph::convert::column_net_model_unit;
    use dlb::hypergraph::PartTargets;
    use dlb::partitioner::par::dist::dist_multilevel_stats;
    use dlb::partitioner::{Config, FixedAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // 4.5 MiB: the instance holds its pins and incidence lists as
    // 32-bit ids, 5 053 118 B at one rank and 4 333 986 B on the
    // largest of 16 ranks.
    const BUDGET_BYTES: usize = 9 << 19;
    const SEED: u64 = 42;
    let h = column_net_model_unit(&Dataset::generate(DatasetKind::Cage14, 0.003, SEED).graph);
    let fixed = FixedAssignment::free(h.num_vertices());
    let targets = PartTargets::uniform(h.total_vertex_weight(), 8, 0.05);
    let mut cfg = Config::seeded(SEED);
    cfg.threads = 1;
    cfg.dist.distributed = true;
    // A small gather point keeps the redundant per-rank coarse solve
    // cheap: at 64 ranks on an oversubscribed host those solves
    // serialize, and they are the test's wall-clock floor.
    cfg.dist.gather_threshold = 256;

    // Max over ranks of the cycle's total residency.
    let max_rank_bytes = |ranks: usize| -> usize {
        let results = run_spmd(ranks, |comm| {
            // A rank can sit in the winner allreduce for minutes while
            // its peers' serialized coarse solves run; widen the
            // deadlock guard so it cannot misfire.
            comm.set_recv_timeout(std::time::Duration::from_secs(600));
            let mut rng = StdRng::seed_from_u64(SEED);
            dist_multilevel_stats(comm, &h, &targets, &fixed, &cfg, &mut rng)
        });
        for (part, stats) in &results {
            assert_eq!(*part, results[0].0, "ranks={ranks}: ranks disagree");
            assert!(
                stats.dist_levels > 0,
                "ranks={ranks}: nothing was distributed"
            );
        }
        results
            .iter()
            .map(|(_, s)| s.total_resident_bytes)
            .max()
            .unwrap()
    };

    // At one rank, owner-computes storage *is* the whole instance: its
    // residency is what every rank of a replicated run would hold.
    let replicated = max_rank_bytes(1);
    assert!(
        replicated > BUDGET_BYTES,
        "instance ({replicated} B) is not over the budget"
    );
    let (at16, at64) = (max_rank_bytes(16), max_rank_bytes(64));
    assert!(
        at16 <= BUDGET_BYTES,
        "16 ranks: {at16} B per rank exceeds the budget"
    );
    assert!(
        at64 < at16,
        "residency must shrink with the rank count: {at16} -> {at64}"
    );
}
