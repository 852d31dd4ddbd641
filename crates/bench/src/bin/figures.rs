//! Regenerates Figures 2–8 of the paper.
//!
//! | Figure | Content |
//! |--------|---------|
//! | 2      | xyce680s normalized total cost, (a) structure (b) weights |
//! | 3      | 2DLipid, same |
//! | 4      | auto, same |
//! | 5      | apoa1-10, same |
//! | 6      | cage14, same |
//! | 7      | run time, xyce680s, perturbed structure |
//! | 8      | run time, (a) 2DLipid (b) auto, perturbed structure |
//!
//! Usage:
//! ```text
//! figures --fig N [--scale S] [--trials T] [--epochs E] [--quick]
//!         [--ks 16,32,64] [--alphas 1,10,100,1000] [--out DIR] [--ranks R]
//! ```
//!
//! Default scales are sized for a single host; `--quick` shrinks the
//! grid for smoke runs. Results print as ASCII charts and are written as
//! CSV under `--out` (default `results/`).

#![forbid(unsafe_code)]

use std::fs;
use std::ops::Bound;
use std::path::PathBuf;

use dlb_bench::chart::{render_cost_chart, render_runtime_chart, to_csv};
use dlb_bench::DATASET_SCALE;
use dlb_bench::{run_sweep, Flags, Row, SweepConfig, TimingMode};
use dlb_workloads::{DatasetKind, PerturbKind};

struct Args {
    fig: u8,
    scale: Option<f64>,
    trials: Option<usize>,
    epochs: Option<usize>,
    ks: Option<Vec<usize>>,
    alphas: Option<Vec<f64>>,
    quick: bool,
    out: PathBuf,
    ranks: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut flags = Flags::from_env(
        "figures --fig <2..8> [--scale S] [--trials T] [--epochs E] [--quick] [--ks ...] \
         [--alphas ...] [--out DIR] [--ranks R] [--seed N]",
    );
    let Some(fig) = flags.value_in("--fig", 2..=8) else {
        flags.fail("--fig is required")
    };
    let args = Args {
        fig,
        scale: flags.value_in("--scale", DATASET_SCALE),
        trials: flags.value_in("--trials", 1..),
        epochs: flags.value_in("--epochs", 1..),
        ks: flags.list("--ks", 2..),
        alphas: flags.list(
            "--alphas",
            (Bound::Excluded(0.0), Bound::Excluded(f64::INFINITY)),
        ),
        quick: flags.switch("--quick"),
        out: flags
            .value("--out")
            .unwrap_or_else(|| PathBuf::from("results")),
        ranks: flags.value_in("--ranks", 1..).unwrap_or(4),
        seed: flags.value("--seed").unwrap_or(42),
    };
    flags.finish();
    args
}

/// Default dataset scales chosen so a full figure runs in minutes on one
/// host while preserving each dataset's regime.
fn default_scale(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Xyce680s => 0.01, // ~6.8k vertices, sparse
        DatasetKind::Lipid2D => 0.15,  // ~0.7k vertices, dense (29% density)
        DatasetKind::Auto => 0.01,     // ~4.5k vertices, mesh
        DatasetKind::Apoa1_10 => 0.01, // ~0.9k vertices, high valence
        DatasetKind::Cage14 => 0.003,  // ~4.5k vertices
    }
}

fn figure_dataset(fig: u8) -> Vec<(DatasetKind, Vec<PerturbKind>)> {
    match fig {
        2 => vec![(
            DatasetKind::Xyce680s,
            vec![PerturbKind::Structure, PerturbKind::Weights],
        )],
        3 => vec![(
            DatasetKind::Lipid2D,
            vec![PerturbKind::Structure, PerturbKind::Weights],
        )],
        4 => vec![(
            DatasetKind::Auto,
            vec![PerturbKind::Structure, PerturbKind::Weights],
        )],
        5 => vec![(
            DatasetKind::Apoa1_10,
            vec![PerturbKind::Structure, PerturbKind::Weights],
        )],
        6 => vec![(
            DatasetKind::Cage14,
            vec![PerturbKind::Structure, PerturbKind::Weights],
        )],
        7 => vec![(DatasetKind::Xyce680s, vec![PerturbKind::Structure])],
        8 => vec![
            (DatasetKind::Lipid2D, vec![PerturbKind::Structure]),
            (DatasetKind::Auto, vec![PerturbKind::Structure]),
        ],
        other => unreachable!("--fig {other} passed the 2..=8 range check"),
    }
}

fn main() {
    let args = parse_args();
    let runtime_figure = args.fig >= 7;
    fs::create_dir_all(&args.out).expect("create output directory");

    let mut all_rows: Vec<Row> = Vec::new();
    let mut panel = 0usize; // panel letters run across datasets AND dynamics
    for (dataset, perturbs) in figure_dataset(args.fig) {
        for perturb in perturbs.iter() {
            let scale = args.scale.unwrap_or_else(|| default_scale(dataset));
            let mut cfg = if args.quick {
                SweepConfig::quick(dataset, *perturb, scale)
            } else {
                SweepConfig::paper_grid(dataset, *perturb, scale)
            };
            cfg.seed = args.seed;
            if let Some(t) = args.trials {
                cfg.trials = t;
            }
            if let Some(e) = args.epochs {
                cfg.epochs = e;
            }
            if let Some(ks) = &args.ks {
                cfg.ks = ks.clone();
            }
            if let Some(alphas) = &args.alphas {
                cfg.alphas = alphas.clone();
            }
            if runtime_figure {
                cfg.timing = TimingMode::Parallel {
                    max_ranks: args.ranks,
                };
                // Runtime figures fix alpha (cost is not the point).
                if args.alphas.is_none() {
                    cfg.alphas = vec![100.0];
                }
            }

            eprintln!(
                "figure {} panel ({}): {} / {} at scale {} (k={:?}, alpha={:?}, trials={}, epochs={})",
                args.fig,
                (b'a' + panel as u8) as char,
                dataset.name(),
                match perturb {
                    PerturbKind::Structure => "perturbed structure",
                    PerturbKind::Weights => "perturbed weights",
                },
                scale,
                cfg.ks,
                cfg.alphas,
                cfg.trials,
                cfg.epochs
            );

            let rows = run_sweep(&cfg, |row| {
                eprintln!(
                    "  k={:<3} alpha={:<6} {:<17} total={:>10.1} time={:>8.2}ms",
                    row.k,
                    row.alpha,
                    row.algorithm.name(),
                    row.total_norm,
                    row.time_ms
                );
            });

            let multi_panel = perturbs.len() > 1 || args.fig == 8;
            let title = format!(
                "Figure {}{}: {} ({})",
                args.fig,
                if multi_panel {
                    format!("({})", (b'a' + panel as u8) as char)
                } else {
                    String::new()
                },
                dataset.name(),
                match perturb {
                    PerturbKind::Structure => "perturbed structure",
                    PerturbKind::Weights => "perturbed weights",
                }
            );
            let chart = if runtime_figure {
                render_runtime_chart(&title, &rows)
            } else {
                render_cost_chart(&title, &rows)
            };
            println!("{chart}");
            all_rows.extend(rows);
            panel += 1;
        }
    }

    let csv_path = args.out.join(format!("figure{}.csv", args.fig));
    fs::write(&csv_path, to_csv(&all_rows)).expect("write CSV");
    eprintln!("wrote {}", csv_path.display());
}
