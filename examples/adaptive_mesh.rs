//! Adaptive mesh refinement over many epochs — the paper's motivating
//! scenario (Section 1: "a classic example is simulation based on
//! adaptive mesh refinement, in which the computational mesh changes
//! between time steps").
//!
//! Simulates a structural-analysis mesh (the `auto` regime) whose
//! subdomains are repeatedly refined (the paper's weight-perturbation
//! dynamic), and compares all four algorithms over the whole run.
//!
//! Run with: `cargo run --release --example adaptive_mesh`

use dlb::core::{Algorithm, RepartConfig, Session};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::workloads::{Dataset, DatasetKind, EpochStream, Perturbation};

fn main() {
    let k = 8;
    let alpha = 50.0;
    let epochs = 5;
    let seed = 7;

    println!("adaptive mesh refinement: auto-like mesh, k={k}, alpha={alpha}, {epochs} epochs\n");

    println!(
        "{:<17} {:>12} {:>12} {:>14} {:>10} {:>10}",
        "algorithm", "mean comm", "mean mig", "norm. total", "max imb", "time/epoch"
    );
    for alg in Algorithm::ALL {
        // Every algorithm gets an identically seeded world: same mesh,
        // same initial partition, same refinement sequence.
        let dataset = Dataset::generate(DatasetKind::Auto, 0.005, seed);
        let initial = partition_kway(&dataset.graph, k, &GraphConfig::seeded(seed)).part;
        let mut stream = EpochStream::new(dataset.graph, Perturbation::weights(), k, initial, seed);
        let summary = Session::new(RepartConfig::seeded(seed))
            .algorithm(alg)
            .alpha(alpha)
            .epochs(epochs)
            .workload(&mut stream)
            .run()
            .expect("valid session");
        println!(
            "{:<17} {:>12.1} {:>12.1} {:>14.1} {:>10.3} {:>8.1}ms",
            alg.name(),
            summary.mean_comm(),
            summary.mean_migration(),
            summary.mean_normalized_total(),
            summary.max_imbalance(),
            summary.mean_elapsed().as_secs_f64() * 1e3,
        );
    }

    println!("\nthe repartitioners (―repart) keep migration low; the scratch");
    println!("methods re-derive a fresh partition and pay to move the data.");
}
