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
//! Exits non-zero if, for any k, Zoltan-repart's summed measured total
//! cost `α·t_comm + t_mig` over the α ≥ 10 cells exceeds
//! Zoltan-scratch's — the workload-level counterpart of the paper's
//! claim that minimizing `α·comm + mig` directly pays off once epochs
//! are long enough to amortize the repartitioner. (Full makespans,
//! compute phase included, are reported alongside; compute is governed
//! by the balance constraint, not the objective, so it is excluded from
//! the comparison.)
//!
//! Usage: `amr [--scale S] [--seed N] [--epochs E] [--trials T] [--quick]`
//! (defaults: scale 0 = the default 16×16 base mesh, seed 42, epochs 4,
//! trials 2; `--quick` shrinks the mesh for CI smoke runs).

use std::fmt::Write as _;

use dlb_amr::AmrConfig;
use dlb_bench::chart::{render_makespan_chart, to_csv};
use dlb_bench::{run_sweep, Flags, Row, SweepConfig};
use dlb_core::Algorithm;
use dlb_workloads::{DatasetKind, PerturbKind};

/// Sum of `f` over the rows of one algorithm at one k, α ≥ `min_alpha`.
fn sum_over(
    rows: &[Row],
    k: usize,
    alg: Algorithm,
    min_alpha: f64,
    f: impl Fn(&Row) -> f64,
) -> f64 {
    rows.iter()
        .filter(|r| r.k == k && r.algorithm == alg && r.alpha >= min_alpha)
        .map(f)
        .sum()
}

fn main() {
    let mut flags =
        Flags::from_env("amr [--scale S] [--seed N] [--epochs E] [--trials T] [--quick]");
    let scale: u8 = flags.value("--scale").unwrap_or(0);
    let seed: u64 = flags.value("--seed").unwrap_or(42);
    let epochs: usize = flags.value("--epochs").unwrap_or(4);
    let trials: usize = flags.value("--trials").unwrap_or(2);
    let quick = flags.switch("--quick");
    flags.finish();

    let amr_cfg = if quick { AmrConfig::small() } else { AmrConfig::for_scale(scale) };
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

    print!("{}", render_makespan_chart("AMR measured makespan", &amr_rows));

    let mut all_rows = amr_rows.clone();
    all_rows.extend(baseline_rows.iter().cloned());
    std::fs::write("BENCH_amr.csv", to_csv(&all_rows)).expect("write BENCH_amr.csv");

    // --- Aggregate the acceptance comparison: per k, the summed
    // measured total cost `α·t_comm + t_mig` (and the full makespan,
    // for context) of repartitioning vs scratch over the long-epoch
    // (α ≥ 10) cells. ---
    let min_alpha = 10.0;
    let cost_ms = |r: &Row| r.alpha * r.comm_ms + r.mig_ms;
    let mut comparisons = Vec::new();
    let mut repart_wins = true;
    for &k in &ks {
        let repart = sum_over(&amr_rows, k, Algorithm::ZoltanRepart, min_alpha, cost_ms);
        let scratch = sum_over(&amr_rows, k, Algorithm::ZoltanScratch, min_alpha, cost_ms);
        let repart_span =
            sum_over(&amr_rows, k, Algorithm::ZoltanRepart, min_alpha, |r| r.makespan_ms);
        let scratch_span =
            sum_over(&amr_rows, k, Algorithm::ZoltanScratch, min_alpha, |r| r.makespan_ms);
        eprintln!(
            "k={k}: Zoltan-repart cost {repart:.3} ms vs Zoltan-scratch {scratch:.3} ms \
             (makespan {repart_span:.1} vs {scratch_span:.1})"
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
    let _ = writeln!(json, "  \"min_alpha\": {min_alpha},");
    let _ = writeln!(json, "  \"zoltan_repart_vs_scratch\": [");
    for (i, (k, repart, scratch, repart_span, scratch_span)) in comparisons.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"k\": {k}, \"repart_cost_ms\": {repart:.6}, \
             \"scratch_cost_ms\": {scratch:.6}, \"repart_makespan_ms\": {repart_span:.6}, \
             \"scratch_makespan_ms\": {scratch_span:.6}}}{}",
            if i + 1 < comparisons.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"repart_no_worse_at_long_epochs\": {repart_wins}");
    json.push_str("}\n");

    std::fs::write("BENCH_amr.json", &json).expect("write BENCH_amr.json");
    print!("{json}");

    assert!(
        amr_rows.iter().all(|r| r.makespan_ms > 0.0),
        "every AMR cell must carry a measured makespan"
    );
    assert!(
        repart_wins,
        "Zoltan-repart must not exceed Zoltan-scratch in summed measured cost \
         (alpha*t_comm + t_mig) at alpha >= {min_alpha}: {comparisons:?}"
    );
}
