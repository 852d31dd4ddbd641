//! The full dynamic load-balancing pipeline, end to end, on the SPMD
//! machine: decide (repartition) → act (migrate the data) → verify.
//!
//! Each simulated rank hosts the payloads of its parts. An epoch of
//! structural churn arrives; the repartitioning hypergraph decides the
//! new distribution; the migration service physically moves the payloads
//! whose owner changed; and the realized traffic is checked against the
//! cost the model charged — the two agree exactly, which is the point of
//! the paper's model.
//!
//! Run with: `cargo run --release --example migration_pipeline`

use dlb::core::{
    migrate_items, repartition_parallel, scatter_initial, Algorithm, RepartConfig, RepartProblem,
};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::mpisim::run_spmd;
use dlb::workloads::{Dataset, DatasetKind, EpochStream, Perturbation};

fn main() {
    let k = 8;
    let ranks = 4;
    let seed = 5;

    let dataset = Dataset::generate(DatasetKind::Cage14, 0.001, seed);
    let initial = partition_kway(&dataset.graph, k, &GraphConfig::seeded(seed)).part;
    let mut stream = EpochStream::new(dataset.graph, Perturbation::structure(), k, initial, seed);
    let snapshot = stream.next_epoch();
    let n = snapshot.graph.num_vertices();
    println!("epoch: {n} vertices, k={k}, {ranks} simulated ranks\n");

    let cfg = RepartConfig::seeded(seed);
    let results = run_spmd(ranks, |comm| {
        // 1. Each rank hosts the payloads of its parts (payload =
        //    vertex id echoed, sized by the vertex's data size).
        let sizes: Vec<f64> = (0..n).map(|v| snapshot.graph.vertex_size(v)).collect();
        let items = scatter_initial(comm.rank(), comm.size(), &snapshot.old_part, |v| {
            (v as u64, sizes[v])
        });
        let hosted_before = items.len();

        // 2. Decide: the repartitioning hypergraph, partitioned with
        //    fixed vertices, collectively.
        let problem = RepartProblem {
            hypergraph: &snapshot.hypergraph,
            graph: &snapshot.graph,
            old_part: &snapshot.old_part,
            k,
            alpha: 10.0,
        };
        let decision = repartition_parallel(comm, &problem, Algorithm::ZoltanRepart, &cfg);

        // 3. Act: move the payloads.
        let (after, stats) = migrate_items(
            comm,
            items,
            &snapshot.old_part,
            &decision.new_part,
            |&(_, size)| size,
        );

        // 4. Verify: every hosted payload is where the decision says.
        for &(v, _) in &after {
            assert_eq!(
                decision.new_part[v] % comm.size(),
                comm.rank(),
                "vertex {v} landed on the wrong rank"
            );
        }
        (hosted_before, after.len(), stats, decision.cost)
    });

    println!(
        "{:>5} {:>14} {:>13} {:>11} {:>11} {:>13}",
        "rank", "hosted before", "hosted after", "sent", "received", "volume sent"
    );
    let mut total_volume = 0.0;
    for (rank, (before, after, stats, _)) in results.iter().enumerate() {
        println!(
            "{:>5} {:>14} {:>13} {:>11} {:>11} {:>13.1}",
            rank, before, after, stats.items_sent, stats.items_received, stats.volume_sent
        );
        total_volume += stats.volume_sent;
    }
    let cost = &results[0].3;
    println!(
        "\nphysical migration volume: {total_volume:.1} (inter-rank)\n\
         model-charged migration:   {:.1} (inter-part; >= physical when\n\
         several parts share a rank, since part moves within a rank are free)",
        cost.migration
    );
    assert!(total_volume <= cost.migration + 1e-9);
}
