//! Parallel repartitioning on the simulated SPMD machine.
//!
//! The paper's partitioner is a parallel MPI code; this workspace runs
//! the same algorithm SPMD over simulated ranks (threads + channels —
//! see `dlb-mpisim`). This example repartitions a circuit-like dataset
//! on 4 simulated ranks, checks all ranks agree bit-for-bit, and prints
//! per-rank message counters so the communication pattern is visible.
//!
//! Run with: `cargo run --release --example parallel_spmd`

use dlb::core::{repartition_parallel, Algorithm, RepartConfig, RepartProblem};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::hypergraph::convert::column_net_model;
use dlb::mpisim::run_spmd;
use dlb::workloads::{Dataset, DatasetKind, EpochStream, Perturbation};

fn main() {
    let k = 8;
    let ranks = 4;
    let seed = 3;

    let dataset = Dataset::generate(DatasetKind::Xyce680s, 0.005, seed);
    let initial = partition_kway(&dataset.graph, k, &GraphConfig::seeded(seed)).part;
    let mut stream = EpochStream::new(dataset.graph, Perturbation::structure(), k, initial, seed);
    let snapshot = stream.next_epoch();
    println!(
        "epoch problem: {} vertices, {} nets; k={k} on {ranks} simulated ranks",
        snapshot.graph.num_vertices(),
        snapshot.hypergraph.num_nets()
    );

    let cfg = RepartConfig::seeded(seed);
    let results = run_spmd(ranks, |comm| {
        let graph = snapshot.graph.clone();
        let hypergraph = column_net_model(&graph, |v| graph.vertex_size(v));
        let problem = RepartProblem {
            hypergraph: &hypergraph,
            graph: &graph,
            old_part: &snapshot.old_part,
            k,
            alpha: 20.0,
        };
        let result = repartition_parallel(comm, &problem, Algorithm::ZoltanRepart, &cfg);
        (result, comm.stats())
    });

    let reference = &results[0].0.new_part;
    for (rank, (result, _)) in results.iter().enumerate() {
        assert_eq!(
            &result.new_part, reference,
            "rank {rank} disagrees with rank 0"
        );
    }
    println!("all {ranks} ranks computed the identical partition\n");

    println!(
        "{:<6} {:>16} {:>16}",
        "rank", "messages sent", "messages recvd"
    );
    for (rank, (_, stats)) in results.iter().enumerate() {
        println!(
            "{:<6} {:>16} {:>16}",
            rank, stats.messages_sent, stats.messages_received
        );
    }

    let r = &results[0].0;
    println!(
        "\nresult: comm {:.1}, migration {:.1}, total cost {:.1}, imbalance {:.3}",
        r.cost.comm,
        r.cost.migration,
        r.cost.total(),
        r.imbalance
    );
}
