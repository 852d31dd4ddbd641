//! A "real adaptive application" end to end — the paper's future-work
//! item ("we will test our algorithm and implementation on real adaptive
//! applications").
//!
//! A Jacobi heat-diffusion solver runs SPMD over the simulated machine:
//! every rank owns the cells of its parts, halo values travel through a
//! reusable [`CommPlan`] each iteration, and a hot region that wanders
//! across the mesh keeps changing where the computational load sits
//! (each epoch the cells inside it do extra smoothing work). Every epoch
//! the paper's repartitioner rebalances; cell state physically migrates
//! with [`migrate_items`]. At the end the distributed temperatures are
//! gathered and compared bit-for-bit against a serial reference — the
//! whole stack (model → partitioner → migration → halo exchange) has to
//! be correct for that to hold.
//!
//! Run with: `cargo run --release --example heat_simulation`

use dlb::core::{migrate_items, repartition, Algorithm, RepartConfig, RepartProblem};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::hypergraph::convert::column_net_model;
use dlb::hypergraph::{CsrGraph, GraphBuilder};
use dlb::mpisim::{run_spmd, CommPlan};

const ROWS: usize = 32;
const COLS: usize = 32;
const EPOCHS: usize = 3;
const ITERS_PER_EPOCH: usize = 10;
const K: usize = 4; // parts == ranks

fn grid() -> CsrGraph {
    let idx = |r: usize, c: usize| r * COLS + c;
    let mut b = GraphBuilder::new(ROWS * COLS);
    for r in 0..ROWS {
        for c in 0..COLS {
            if c + 1 < COLS {
                b.add_edge(idx(r, c), idx(r, c + 1), 1.0);
            }
            if r + 1 < ROWS {
                b.add_edge(idx(r, c), idx(r + 1, c), 1.0);
            }
        }
    }
    b.build()
}

/// The wandering hot region: epoch `e` heats a square whose extra work
/// (weight) and data growth (size) the load balancer must chase.
fn hot_region(epoch: usize, v: usize) -> bool {
    let (r, c) = (v / COLS, v % COLS);
    let r0 = (epoch * ROWS) / (EPOCHS + 1);
    let c0 = (epoch * COLS) / (EPOCHS + 1);
    r >= r0 && r < r0 + ROWS / 2 && c >= c0 && c < c0 + COLS / 2
}

/// One Jacobi sweep over the chosen cells: plain averaging, with a
/// second smoothing pass for hot cells (their "extra work").
fn jacobi_step(
    g: &CsrGraph,
    temps: &dyn Fn(usize) -> f64,
    hot: &dyn Fn(usize) -> bool,
    cells: &[usize],
) -> Vec<(usize, f64)> {
    cells
        .iter()
        .map(|&v| {
            let mut acc = temps(v);
            let mut count = 1.0;
            for &u in g.neighbors(v) {
                acc += temps(u);
                count += 1.0;
            }
            let mut t = acc / count;
            if hot(v) {
                // Extra work: damped second smoothing (deterministic).
                t = 0.5 * t + 0.5 * (acc - temps(v)) / (count - 1.0);
            }
            (v, t)
        })
        .collect()
}

/// Serial reference: the exact same physics on one address space.
fn serial_reference(g: &CsrGraph) -> Vec<f64> {
    let n = g.num_vertices();
    let mut temps: Vec<f64> = (0..n).map(|v| (v % 17) as f64).collect();
    for epoch in 0..EPOCHS {
        for _ in 0..ITERS_PER_EPOCH {
            let all: Vec<usize> = (0..n).collect();
            let snapshot = temps.clone();
            for (v, t) in jacobi_step(g, &|u| snapshot[u], &|u| hot_region(epoch, u), &all) {
                temps[v] = t;
            }
        }
    }
    temps
}

fn main() {
    let g = grid();
    let n = g.num_vertices();
    let reference = serial_reference(&g);

    // Static partition for epoch 0.
    let initial = partition_kway(&g, K, &GraphConfig::seeded(1)).part;
    let cfg = RepartConfig::seeded(1);

    let results = run_spmd(K, |comm| {
        let me = comm.rank();
        let mut part = initial.clone();
        // Rank-local state: owned cells and their temperatures.
        let mut owned: Vec<(usize, f64)> = (0..n)
            .filter(|&v| part[v] % comm.size() == me)
            .map(|v| (v, (v % 17) as f64))
            .collect();
        let mut report = Vec::new();

        for epoch in 0..EPOCHS {
            // --- Adapt: the hot region moved; update weights/sizes. ---
            let mut weighted = g.clone();
            for v in 0..n {
                let w = if hot_region(epoch, v) { 3.0 } else { 1.0 };
                weighted.set_vertex_weight(v, w);
                weighted.set_vertex_size(v, w);
            }
            let hypergraph = column_net_model(&weighted, |v| weighted.vertex_size(v));

            // --- Rebalance (every rank computes the same decision). ---
            let problem = RepartProblem {
                hypergraph: &hypergraph,
                graph: &weighted,
                old_part: &part,
                k: K,
                alpha: ITERS_PER_EPOCH as f64,
            };
            let decision = repartition(&problem, Algorithm::ZoltanRepart, &cfg);

            // --- Migrate cell state to the new owners. ---
            let (new_owned, stats) = migrate_items(comm, owned, &part, &decision.new_part, |_| 1.0);
            owned = new_owned;
            part = decision.new_part.clone();

            // --- Build this epoch's halo plan. ---
            // For each owned cell with a remote neighbor, send its value
            // to that neighbor's owner each iteration.
            let mut destinations = Vec::new();
            let mut halo_sources = Vec::new(); // owned cell per outgoing slot
            for &(v, _) in &owned {
                let mut sent_to = [false; K];
                for &u in g.neighbors(v) {
                    let owner = part[u] % comm.size();
                    if owner != me && !sent_to[owner] {
                        sent_to[owner] = true;
                        destinations.push(owner);
                        halo_sources.push(v);
                    }
                }
            }
            let plan = CommPlan::build(comm, &destinations);

            // --- Compute the epoch. ---
            let mut halo_volume = 0usize;
            for _ in 0..ITERS_PER_EPOCH {
                // Exchange halo values (cell id, temperature).
                let outgoing: Vec<(usize, f64)> = halo_sources
                    .iter()
                    .map(|&v| (v, owned.iter().find(|(x, _)| *x == v).unwrap().1))
                    .collect();
                let halo = plan.execute(comm, &outgoing);
                halo_volume += outgoing.len();

                // Temperatures visible to this rank: owned + halo.
                let mut visible = vec![f64::NAN; n];
                for &(v, t) in owned.iter().chain(&halo) {
                    visible[v] = t;
                }
                let cells: Vec<usize> = owned.iter().map(|(v, _)| *v).collect();
                let updated = jacobi_step(&g, &|u| visible[u], &|u| hot_region(epoch, u), &cells);
                for (slot, (_, t)) in owned.iter_mut().zip(&updated) {
                    slot.1 = *t;
                }
            }

            // Epoch accounting: modeled load, halo volume, migration.
            let work: f64 = owned
                .iter()
                .map(|&(v, _)| if hot_region(epoch, v) { 3.0 } else { 1.0 })
                .sum();
            let max_work = comm.allreduce(work, f64::max);
            let total_halo = comm.allreduce(halo_volume as f64, |a, b| a + b);
            let total_mig = comm.allreduce(stats.volume_sent, |a, b| a + b);
            if me == 0 {
                report.push((epoch, max_work, total_halo, total_mig, decision.imbalance));
            }
        }

        // Gather final temperatures at rank 0 for verification.
        let gathered = comm.gather(0, owned.clone());
        (report, gathered)
    });

    // --- Verify against the serial reference. ---
    let mut final_temps = vec![f64::NAN; n];
    for batch in results[0].1.as_ref().expect("rank 0 gathered") {
        for &(v, t) in batch {
            final_temps[v] = t;
        }
    }
    let max_err = reference
        .iter()
        .zip(&final_temps)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(
        max_err < 1e-9,
        "distributed result diverged: max err {max_err}"
    );

    println!(
        "heat simulation: {ROWS}x{COLS} grid, k={K}, {EPOCHS} epochs x {ITERS_PER_EPOCH} iters"
    );
    println!("distributed result matches the serial reference (max err {max_err:.2e})\n");
    println!(
        "{:>6} {:>12} {:>14} {:>12} {:>11}",
        "epoch", "max work", "halo volume", "migration", "imbalance"
    );
    for (epoch, max_work, halo, mig, imb) in &results[0].0 {
        println!("{epoch:>6} {max_work:>12.1} {halo:>14.1} {mig:>12.1} {imb:>11.3}");
    }
    let ideal: f64 = (0..n)
        .map(|v| if hot_region(0, v) { 3.0 } else { 1.0 })
        .sum::<f64>()
        / K as f64;
    println!("\nperfect balance would put max work at ~{ideal:.0} per rank;");
    println!("the repartitioner keeps chasing the hot region each epoch.");
}
