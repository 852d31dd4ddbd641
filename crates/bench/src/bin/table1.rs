//! Regenerates Table 1: properties of the test datasets.
//!
//! Prints the paper's full-scale values next to the generated dataset's
//! measured values at the chosen scale, demonstrating that each
//! generator reproduces its dataset's regime (|V|, |E|, degree
//! distribution shape).
//!
//! Usage: `table1 [--scale S] [--seed N]` (default scale 0.01).

#![forbid(unsafe_code)]

use dlb_bench::Flags;
use dlb_bench::DATASET_SCALE;
use dlb_workloads::{Dataset, DatasetKind};

fn main() {
    let mut flags = Flags::from_env("table1 [--scale S] [--seed N]");
    let scale: f64 = flags.value_in("--scale", DATASET_SCALE).unwrap_or(0.01);
    let seed: u64 = flags.value("--seed").unwrap_or(42);
    flags.finish();

    println!("Table 1. Properties of the test datasets (generated at scale {scale})");
    println!(
        "{:<10} | {:>9} {:>10} {:>6} {:>6} {:>8} | {:>9} {:>10} {:>6} {:>6} {:>8} | Application",
        "Name", "|V|", "|E|", "min", "max", "avg", "|V|@1.0", "|E|@1.0", "min*", "max*", "avg*"
    );
    println!(
        "{:<10} | {:>44} | {:>44} | ",
        "",
        "-- generated ----------------------------",
        "-- paper (Table 1) ----------------------"
    );
    // Paper's min/max degrees at full scale, for the reference columns.
    let paper_min_max = [(1, 209), (396, 1984), (4, 37), (54, 503), (3, 41)];
    for (kind, (pmin, pmax)) in DatasetKind::ALL.into_iter().zip(paper_min_max) {
        let d = Dataset::generate(kind, scale, seed);
        let s = d.graph.degree_stats();
        println!(
            "{:<10} | {:>9} {:>10} {:>6} {:>6} {:>8.1} | {:>9} {:>10} {:>6} {:>6} {:>8.1} | {}",
            kind.name(),
            d.graph.num_vertices(),
            d.graph.num_edges(),
            s.min,
            s.max,
            s.avg,
            kind.full_vertices(),
            kind.full_edges(),
            pmin,
            pmax,
            kind.full_avg_degree(),
            kind.application(),
        );
    }
    println!();
    println!("Sparse datasets hold avg degree constant under scaling; the dense");
    println!("2DLipid holds its density (avg degree / |V|) constant instead.");
}
