//! Scalability sweep: the paper's closing claim ("the experiments showed
//! that our implementation is scalable") probed on the simulated SPMD
//! machine.
//!
//! Runs the parallel Zoltan-repart pipeline on a fixed problem with an
//! increasing number of simulated ranks and reports, per world size:
//! wall-clock, per-rank point-to-point message counts, and the result's
//! quality. The quality differs between world sizes — each rank draws
//! its matching candidates from its own block of vertices, so the
//! outcome depends on the rank count — but every rank count must yield
//! a valid partition within the imbalance bound asserted below, and
//! message counts grow sub-quadratically (the candidate/all-reduce
//! protocol scales).
//!
//! All ranks share one host, so wall-clock measures protocol overhead,
//! not speedup — see DESIGN.md §4.
//!
//! Usage: `scalability [--scale S] [--k K] [--ranks 1,2,4,8]`

#![forbid(unsafe_code)]

use std::time::Instant;

use dlb_bench::Flags;
use dlb_bench::DATASET_SCALE;
use dlb_core::{repartition_parallel, Algorithm, RepartConfig, RepartProblem};
use dlb_graphpart::{partition_kway, GraphConfig};
use dlb_mpisim::run_spmd;
use dlb_workloads::{Dataset, DatasetKind, EpochStream, Perturbation};

fn main() {
    let mut flags = Flags::from_env("scalability [--scale S] [--k K] [--ranks 1,2,4,8]");
    let scale: f64 = flags.value_in("--scale", DATASET_SCALE).unwrap_or(0.005);
    let k: usize = flags.value_in("--k", 2..).unwrap_or(8);
    let ranks_list: Vec<usize> = flags
        .list("--ranks", 1..)
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    flags.finish();
    let seed = 42;

    let dataset = Dataset::generate(DatasetKind::Auto, scale, seed);
    let initial = partition_kway(&dataset.graph, k, &GraphConfig::seeded(seed)).part;
    let mut stream = EpochStream::new(dataset.graph, Perturbation::structure(), k, initial, seed);
    let snapshot = stream.next_epoch();
    println!(
        "scalability: auto-like, {} vertices, k={k}",
        snapshot.graph.num_vertices()
    );
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>12} {:>12}",
        "ranks", "time", "msgs/rank", "max msgs", "comm", "migration"
    );

    let cfg = RepartConfig::seeded(seed);
    for &ranks in &ranks_list {
        let start = Instant::now();
        let results = run_spmd(ranks, |comm| {
            let problem = RepartProblem {
                hypergraph: &snapshot.hypergraph,
                graph: &snapshot.graph,
                old_part: &snapshot.old_part,
                k,
                alpha: 100.0,
            };
            let r = repartition_parallel(comm, &problem, Algorithm::ZoltanRepart, &cfg);
            (r, comm.stats())
        });
        let elapsed = start.elapsed();
        let msgs: Vec<u64> = results.iter().map(|(_, s)| s.messages_sent).collect();
        let avg_msgs = msgs.iter().sum::<u64>() as f64 / ranks as f64;
        let max_msgs = msgs.iter().copied().max().unwrap_or(0);
        let r = &results[0].0;
        println!(
            "{:>6} {:>10.2}ms {:>14.0} {:>14} {:>12.1} {:>12.1}",
            ranks,
            elapsed.as_secs_f64() * 1e3,
            avg_msgs,
            max_msgs,
            r.cost.comm,
            r.cost.migration
        );
        // The quality varies with the world size; its validity must
        // not: every rank count produces a legal, balanced partition.
        assert!(
            r.imbalance <= 1.2,
            "ranks={ranks}: imbalance {}",
            r.imbalance
        );
    }
    println!("\nnote: single-host simulation — wall-clock shows protocol overhead,");
    println!("message counts show the communication scaling of the algorithm.");
}
