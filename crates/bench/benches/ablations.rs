//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **RB vs direct k-way** on the augmented repartitioning hypergraph
//!   (Section 4.4 vs the direct scheme; Zoltan ships RB, we default the
//!   repartitioning driver to k-way — this bench justifies that choice).
//! * **Scaled vs unscaled IPM** (PaToH's 1/(|n|−1) net scaling in the
//!   coarsening inner products).
//! * **Best-of-N coarse attempts** (1 vs 8).
//!
//! Each case prints its quality (objective, imbalance) to stderr and
//! its wall clock — one warmup, then mean / min / max over ten timed
//! runs — to stdout, so both dimensions are visible in
//! `cargo bench --bench ablations` output.

use std::time::{Duration, Instant};

use dlb_core::RepartitionHypergraph;
use dlb_graphpart::{partition_kway, GraphConfig};
use dlb_partitioner::{partition_hypergraph_fixed, Config, Scheme};
use dlb_workloads::{Dataset, DatasetKind, EpochStream, Perturbation};

struct Instance {
    model: RepartitionHypergraph,
    k: usize,
}

fn instance() -> Instance {
    let seed = 11;
    let dataset = Dataset::generate(DatasetKind::Auto, 0.002, seed);
    let k = 8;
    let initial = partition_kway(&dataset.graph, k, &GraphConfig::seeded(seed)).part;
    let mut stream = EpochStream::new(dataset.graph, Perturbation::structure(), k, initial, seed);
    let snapshot = stream.next_epoch();
    let model = RepartitionHypergraph::build(&snapshot.hypergraph, &snapshot.old_part, k, 10.0);
    Instance { model, k }
}

const SAMPLES: u32 = 10;

/// Reports one configuration: quality of the (warmup) run, then the
/// wall clock of `SAMPLES` further runs.
fn ablate(group: &str, label: &str, inst: &Instance, cfg: &Config) {
    let run = || partition_hypergraph_fixed(&inst.model.augmented, inst.k, &inst.model.fixed, cfg);
    let r = run();
    let obj = inst.model.objective(&inst.model.decode(&r.part));
    eprintln!(
        "[ablation quality] {label}: objective {obj:.1}, imbalance {:.3}",
        r.imbalance
    );
    let samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run());
            start.elapsed()
        })
        .collect();
    let mean = samples.iter().sum::<Duration>() / SAMPLES;
    let min = samples.iter().min().expect("SAMPLES > 0");
    let max = samples.iter().max().expect("SAMPLES > 0");
    println!("ablation/{group}/{label}: mean {mean:?} min {min:?} max {max:?} ({SAMPLES} samples)");
}

fn main() {
    let inst = instance();
    for (label, scheme) in [
        ("recursive_bisection", Scheme::RecursiveBisection),
        ("direct_kway", Scheme::DirectKway),
    ] {
        let mut cfg = Config::seeded(1);
        cfg.scheme = scheme;
        ablate("scheme", label, &inst, &cfg);
    }
    for (label, scaled) in [("scaled", true), ("unscaled", false)] {
        let mut cfg = Config::seeded(1);
        cfg.coarsening.scaled_ipm = scaled;
        ablate("ipm_scaling", label, &inst, &cfg);
    }
    for attempts in [1usize, 8] {
        let mut cfg = Config::seeded(1);
        cfg.initial.num_attempts = attempts;
        ablate("num_attempts", &format!("attempts_{attempts}"), &inst, &cfg);
    }
}
