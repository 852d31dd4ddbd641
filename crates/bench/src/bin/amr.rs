//! The AMR measured-makespan experiment.
//!
//! Runs the quadtree AMR workload (`dlb_amr`) through all four
//! algorithms at k ∈ {4, 8} across the paper's α grid, executing every
//! epoch under the default latency–bandwidth machine so each cell
//! carries a *measured* makespan next to its model cost, then runs the
//! paper's two synthetic dynamics (structure, weights) on the same grid
//! as baselines. Renders the makespan chart, writes `BENCH_amr.csv`
//! (full rows) and `BENCH_amr.json` (summary + assertions) to the
//! current directory.
//!
//! Exits non-zero if, for any k, Zoltan-repart's measured normalised
//! total `t_comm + t_mig/α` — the quantity the paper's Figures 2–8
//! plot, here in measured time instead of model units — summed over the
//! whole α grid exceeds Zoltan-scratch's. Normalising per iteration
//! weighs every α cell alike; the un-normalised `α·t_comm + t_mig`
//! would let the α = 1000 cell, where the paper itself reports the two
//! methods level, decide the sum. (Full makespans, compute phase
//! included, are reported alongside; compute is governed by the balance
//! constraint, not the objective, so it is excluded from the
//! comparison.)
//!
//! Usage: `amr [--scale S] [--seed N] [--epochs E] [--trials T] [--quick]`
//! (defaults: scale 0 = the default 16×16 base mesh, seed 42, epochs 4,
//! trials 2; `--quick` shrinks the mesh for CI smoke runs).

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use dlb_amr::AmrConfig;
use dlb_bench::chart::{render_makespan_chart, to_csv};
use dlb_bench::{run_sweep, Flags, Row, SweepConfig};
use dlb_core::Algorithm;
use dlb_workloads::{DatasetKind, PerturbKind};

/// Sum of `f` over the rows (one per α) of one algorithm at one k.
fn sum_over(rows: &[Row], k: usize, alg: Algorithm, f: impl Fn(&Row) -> f64) -> f64 {
    rows.iter()
        .filter(|r| r.k == k && r.algorithm == alg)
        .map(f)
        .sum()
}

fn main() {
    let mut flags =
        Flags::from_env("amr [--scale S] [--seed N] [--epochs E] [--trials T] [--quick]");
    // `dlb`'s range for the AMR workload: above 8 `for_scale` would clamp.
    let scale: u8 = flags.value_in("--scale", 0..=8).unwrap_or(0);
    let seed: u64 = flags.value("--seed").unwrap_or(42);
    let epochs: usize = flags.value_in("--epochs", 1..).unwrap_or(4);
    let trials: usize = flags.value_in("--trials", 1..).unwrap_or(2);
    let quick = flags.switch("--quick");
    flags.finish();

    let amr_cfg = if quick {
        AmrConfig::small()
    } else {
        AmrConfig::for_scale(scale)
    };
    let mut cfg = SweepConfig::amr(amr_cfg);
    cfg.seed = seed;
    cfg.epochs = epochs;
    cfg.trials = trials;
    let ks = cfg.ks.clone();
    let alphas = cfg.alphas.clone();

    eprintln!(
        "AMR sweep: base {}..{} mesh, k {:?}, alpha {:?}, {} trial(s) x {} epoch(s)",
        amr_cfg.base_level, amr_cfg.max_level, ks, alphas, trials, epochs
    );
    let amr_rows = run_sweep(&cfg, |row| {
        eprintln!(
            "  k={:<2} alpha={:<6} {:<17} total={:>10.1} makespan={:>9.3} ms",
            row.k,
            row.alpha,
            row.algorithm.name(),
            row.total_norm,
            row.makespan_ms
        );
    });

    // The paper's synthetic dynamics on the same (k, α) grid, as the
    // model-cost baseline the AMR numbers are read against.
    let mut baseline_rows: Vec<Row> = Vec::new();
    for perturb in [PerturbKind::Structure, PerturbKind::Weights] {
        let mut bcfg = SweepConfig::quick(DatasetKind::Auto, perturb, 0.0005);
        bcfg.ks = ks.clone();
        bcfg.alphas = alphas.clone();
        bcfg.seed = seed;
        eprintln!("baseline sweep: {:?} ...", perturb);
        baseline_rows.extend(run_sweep(&bcfg, |_| {}));
    }

    print!(
        "{}",
        render_makespan_chart("AMR measured makespan", &amr_rows)
    );

    let mut all_rows = amr_rows.clone();
    all_rows.extend(baseline_rows.iter().cloned());
    std::fs::write("BENCH_amr.csv", to_csv(&all_rows)).expect("write BENCH_amr.csv");

    // --- Aggregate the acceptance comparison: per k, the measured
    // normalised total `t_comm + t_mig/α` (and the full makespan, for
    // context) of repartitioning vs scratch, summed over the α grid. ---
    let cost_ms = |r: &Row| r.comm_ms + r.mig_ms / r.alpha;
    let mut comparisons = Vec::new();
    let mut repart_wins = true;
    for &k in &ks {
        let repart = sum_over(&amr_rows, k, Algorithm::ZoltanRepart, cost_ms);
        let scratch = sum_over(&amr_rows, k, Algorithm::ZoltanScratch, cost_ms);
        let repart_span = sum_over(&amr_rows, k, Algorithm::ZoltanRepart, |r| r.makespan_ms);
        let scratch_span = sum_over(&amr_rows, k, Algorithm::ZoltanScratch, |r| r.makespan_ms);
        eprintln!(
            "k={k}: Zoltan-repart normalised total {repart:.3} ms vs Zoltan-scratch \
             {scratch:.3} ms (makespan {repart_span:.1} vs {scratch_span:.1})"
        );
        repart_wins &= repart <= scratch;
        comparisons.push((k, repart, scratch, repart_span, scratch_span));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"amr\",");
    let _ = writeln!(json, "  \"base_level\": {},", amr_cfg.base_level);
    let _ = writeln!(json, "  \"max_level\": {},", amr_cfg.max_level);
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"epochs\": {epochs},");
    let _ = writeln!(json, "  \"trials\": {trials},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in all_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}/{}\", \"k\": {}, \"alpha\": {}, \"algorithm\": \"{}\", \
             \"comm\": {:.4}, \"mig_norm\": {:.4}, \"total_norm\": {:.4}, \
             \"makespan_ms\": {:.6}, \"comp_ms\": {:.6}, \"comm_ms\": {:.6}, \
             \"mig_ms\": {:.6}}}{}",
            r.dataset,
            r.perturb,
            r.k,
            r.alpha,
            r.algorithm.name(),
            r.comm,
            r.mig_norm,
            r.total_norm,
            r.makespan_ms,
            r.comp_ms,
            r.comm_ms,
            r.mig_ms,
            if i + 1 < all_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"zoltan_repart_vs_scratch\": [");
    for (i, (k, repart, scratch, repart_span, scratch_span)) in comparisons.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"k\": {k}, \"repart_total_norm_ms\": {repart:.6}, \
             \"scratch_total_norm_ms\": {scratch:.6}, \"repart_makespan_ms\": {repart_span:.6}, \
             \"scratch_makespan_ms\": {scratch_span:.6}}}{}",
            if i + 1 < comparisons.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"repart_no_worse_in_normalised_total\": {repart_wins}"
    );
    json.push_str("}\n");

    std::fs::write("BENCH_amr.json", &json).expect("write BENCH_amr.json");
    print!("{json}");

    assert!(
        amr_rows.iter().all(|r| r.makespan_ms > 0.0),
        "every AMR cell must carry a measured makespan"
    );
    assert!(
        repart_wins,
        "Zoltan-repart must not exceed Zoltan-scratch in measured normalised total \
         (t_comm + t_mig/alpha) summed over the alpha grid: {comparisons:?}"
    );
}
