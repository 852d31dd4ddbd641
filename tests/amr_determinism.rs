//! Determinism of the AMR workload pipeline: one seed, one answer —
//! regardless of simulated rank count, thread count, or the distributed
//! pin storage. The epoch stream, the chosen partitions, and the
//! *measured* makespans (which run a nested k-rank migration world per
//! epoch) must all be bit-identical.

use dlb::amr::{AmrConfig, AmrStream};
use dlb::core::{Algorithm, RepartConfig, Session, SimulationSummary};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::mpisim::run_spmd;
use dlb::workloads::AmrSource;

const EPOCHS: usize = 3;
const K: usize = 4;

fn amr_source(seed: u64) -> AmrSource {
    let stream = AmrStream::new(AmrConfig::small(), K, seed);
    let low = stream.initial_lowering();
    let initial = partition_kway(&low.graph, K, &GraphConfig::seeded(seed)).part;
    AmrSource::new(stream, &initial)
}

/// Everything a run decides or measures, per epoch, bit-exact.
fn fingerprint(s: &SimulationSummary) -> Vec<(usize, usize, f64, f64, f64, f64)> {
    s.reports
        .iter()
        .map(|r| {
            let e = r.execution.expect("measured simulation");
            (
                r.num_vertices,
                r.moved,
                r.cost.comm,
                r.cost.migration,
                r.imbalance,
                e.makespan(),
            )
        })
        .collect()
}

fn serial_run(seed: u64, threads: usize) -> SimulationSummary {
    let mut cfg = RepartConfig::seeded(seed);
    cfg.hypergraph.threads = threads;
    let mut source = amr_source(seed);
    Session::new(cfg)
        .algorithm(Algorithm::ZoltanRepart)
        .alpha(50.0)
        .epochs(EPOCHS)
        .measured(true)
        .workload(&mut source)
        .run()
        .unwrap()
}

fn parallel_run(seed: u64, ranks: usize, distributed: bool) -> Vec<SimulationSummary> {
    let mut cfg = RepartConfig::seeded(seed);
    cfg.hypergraph.dist.distributed = distributed;
    // Low threshold so several levels stay distributed at this scale.
    cfg.hypergraph.dist.gather_threshold = 256;
    run_spmd(ranks, |comm| {
        let mut source = amr_source(seed);
        Session::new(cfg.clone())
            .algorithm(Algorithm::ZoltanRepart)
            .alpha(50.0)
            .epochs(EPOCHS)
            .measured(true)
            .workload(&mut source)
            .run_on(comm)
            .unwrap()
    })
}

/// Rerunning the identical configuration reproduces the identical
/// epoch stream and measurements.
#[test]
fn same_seed_same_answer() {
    let a = fingerprint(&serial_run(11, 1));
    let b = fingerprint(&serial_run(11, 1));
    assert_eq!(a, b);
    assert_ne!(
        fingerprint(&serial_run(12, 1)),
        a,
        "different seeds should explore different streams"
    );
}

/// Thread count must not change anything (the shared-memory pipeline's
/// deterministic-reduction guarantee, now through the AMR driver).
#[test]
fn thread_count_invariant() {
    let one = fingerprint(&serial_run(13, 1));
    let two = fingerprint(&serial_run(13, 2));
    assert_eq!(one, two, "threads=2 diverged from threads=1");
}

/// At every rank count: all ranks must agree on the whole run —
/// partitions, epoch stream, measured makespans (each rank runs its own
/// nested migration world, so agreement is a real property, not shared
/// state) — and rerunning the same configuration must reproduce it
/// bit-for-bit. (Different rank counts legitimately choose different
/// partitions: the SPMD driver seeds per-rank RNG streams.)
#[test]
fn ranks_agree_and_reproduce() {
    for ranks in [1usize, 2, 4] {
        let first = parallel_run(17, ranks, false);
        let reference = fingerprint(&first[0]);
        for (rank, s) in first.iter().enumerate() {
            assert_eq!(fingerprint(s), reference, "rank {rank}/{ranks} disagrees");
        }
        let again = parallel_run(17, ranks, false);
        for (rank, s) in again.iter().enumerate() {
            assert_eq!(
                fingerprint(s),
                reference,
                "rerun rank {rank}/{ranks} diverged"
            );
        }
    }
}

/// The distributed (memory-scalable) V-cycle path on the AMR workload:
/// bit-identical to the replicated SPMD driver at the same rank count,
/// measured makespans included.
#[test]
fn distributed_matches_replicated() {
    for ranks in [2usize, 4] {
        let replicated = fingerprint(&parallel_run(19, ranks, false)[0]);
        let summaries = parallel_run(19, ranks, true);
        for (rank, s) in summaries.iter().enumerate() {
            assert_eq!(
                fingerprint(s),
                replicated,
                "distributed rank {rank}/{ranks} diverged from the replicated run"
            );
        }
    }
}
