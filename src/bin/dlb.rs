//! `dlb` — command-line partitioner / repartitioner.
//!
//! ```text
//! dlb partition   -k K [options] INPUT             # static partitioning
//! dlb repartition -k K --old PARTFILE [options] INPUT
//! dlb simulate    -k K --workload amr|structure|weights [options]
//!
//! INPUT formats (by extension):
//!   .mtx           MatrixMarket coordinate (symmetric graph)
//!   .hg            PaToH-like hypergraph text (see dlb_hypergraph::io)
//!
//! Options:
//!   -k K              number of parts (required, >= 2)
//!   --alpha A         iterations per epoch (repartition/simulate; default 100)
//!   --algorithm NAME  zoltan-repart | zoltan-scratch | parmetis-repart |
//!                     parmetis-scratch (repartition/simulate; default
//!                     zoltan-repart)
//!   --epsilon E       allowed imbalance (default 0.05). Repeatable with
//!                     --constraints: the c-th occurrence is constraint
//!                     c's tolerance; constraints without their own flag
//!                     inherit the first (primary) value
//!   --constraints N   number of balance constraints (default 1).
//!                     N=2 with --workload amr lowers two-constraint
//!                     load vectors (flops and state bytes) so the
//!                     partitioner balances both at once
//!   --seed N          RNG seed (default 0)
//!   --ranks N         run the SPMD parallel partitioner on N simulated
//!                     ranks (default 1 = serial)
//!   --distributed     with --ranks: owner-computes pin storage and
//!                     block-distributed per-vertex arrays across ranks
//!                     (memory-scalable V-cycle; results are
//!                     bit-identical to a run without it)
//!   --trace FILE      record a phase-level trace of the run and write it
//!                     as chrome://tracing JSON (open in about:tracing or
//!                     https://ui.perfetto.dev)
//!   --out FILE        output partition file (default: stdout)
//!   --workload W      simulate only: amr (the quadtree AMR simulator),
//!                     structure, or weights (the paper's synthetic
//!                     perturbations of the auto dataset)
//!   --epochs E        simulate only: epochs to run (default 4)
//!   --scale S         simulate only: amr — levels added to the default
//!                     mesh (integer, default 0); structure/weights —
//!                     dataset scale in (0, 1] (default 0.001)
//!   --world-plan SPEC simulate only: the schedule of the rank set,
//!                     SPEC = "directive,..." with directives
//!                     joinR@E (rank R joins at epoch E), leaveR@E
//!                     (rank R departs; its vertices migrate out) and
//!                     failR@E (rank R dies: an unannounced departure,
//!                     counted as a recovery). Each boundary's net
//!                     change is one resize onto the new world, with
//!                     the measured cost model choosing
//!                     repartition-vs-scratch per resize. Example:
//!                     --world-plan join4@2,leave0@3,fail1@3
//!   --incremental     simulate only: pull structural deltas from the
//!                     workload, patch the repartitioning model in
//!                     place, and warm-start the partitioner on
//!                     low-drift epochs; a from-scratch baseline run
//!                     follows and the competitive ratio is printed
//!   --drift-threshold T  with --incremental: warm-start epochs whose
//!                     touched fraction is < T (default 0.6; 0 keeps
//!                     every epoch on the full-rebuild path, which
//!                     reproduces the non-incremental outputs exactly)
//!
//! The simulate options compose freely, with one exception (exit 2):
//! --incremental with --constraints > 1 (the delta patcher maintains
//! scalar weights).
//! ```
//!
//! `partition`/`repartition` write one part id per line, one line per
//! vertex, with a summary (cut / communication volume, migration,
//! imbalance) on stderr. `simulate` generates its workload internally,
//! repartitions every epoch, *executes* each epoch under the default
//! latency–bandwidth machine model, and prints per-epoch model costs
//! next to measured makespans.
//!
//! Invalid parameter combinations (`-k 1`, `--ranks 0`, malformed
//! numbers, `--alpha 0`, `--epochs 0`, a `--scale` outside the
//! workload's range, a negative or NaN `--drift-threshold`), a valued
//! flag with no value after it, and a flag the
//! subcommand does not read (`--out` on `simulate`, `--epochs` on
//! `partition`) are rejected up front with a message on stderr and exit
//! code 2, before any driver runs.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::{BufReader, Write};
use std::process::exit;
use std::sync::Once;

use dlb::amr::{AmrConfig, AmrStream};
use dlb::core::{
    repartition, repartition_parallel, Algorithm, RepartConfig, RepartProblem, Session,
    SimulationSummary, WorldPlan, DEFAULT_DRIFT_THRESHOLD,
};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::hypergraph::convert::{clique_expansion, column_net_model};
use dlb::hypergraph::io::{read_hypergraph, read_matrix_market_graph};
use dlb::hypergraph::{CsrGraph, Hypergraph};
use dlb::mpisim::run_spmd;
use dlb::partitioner::{partition_fixed_on, Config as HgConfig, FixedAssignment};
use dlb::workloads::{AmrSource, Dataset, DatasetKind, EpochSource, EpochStream, Perturbation};

fn usage() -> ! {
    eprintln!(
        "usage:\n  dlb partition   -k K [--epsilon E] [--seed N] \
         [--ranks N [--distributed]] [--trace FILE] [--out FILE] INPUT\n  \
         dlb repartition -k K --old PARTFILE [--alpha A] [--algorithm NAME] \
         [--epsilon E] [--seed N] [--ranks N [--distributed]] \
         [--trace FILE] [--out FILE] INPUT\n  \
         dlb simulate    -k K --workload amr|structure|weights [--epochs E] [--alpha A] \
         [--algorithm NAME] [--scale S] [--seed N] \
         [--constraints N [--epsilon E]...] \
         [--ranks N [--distributed]] [--world-plan SPEC] \
         [--incremental [--drift-threshold T]] [--trace FILE]"
    );
    exit(2);
}

/// Rejects an invalid parameter with a message on stderr and exit code 2.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

struct Cli {
    command: String,
    input: Option<String>,
    k: usize,
    alpha: f64,
    algorithm: Algorithm,
    epsilons: Vec<f64>,
    constraints: usize,
    seed: u64,
    ranks: usize,
    distributed: bool,
    trace: Option<String>,
    out: Option<String>,
    old: Option<String>,
    workload: Option<String>,
    epochs: usize,
    scale: Option<f64>,
    world_plan: Option<WorldPlan>,
    incremental: bool,
    drift_threshold: Option<f64>,
}

/// The value of the valued flag `flag`, which `argv[*i]` must hold and
/// parse as; moves `*i` past it. The one way a flag's value is read, so a
/// missing value is as much an error for a path as for a number.
fn parse_value<T: std::str::FromStr>(argv: &[String], i: &mut usize, flag: &str) -> T {
    let value = argv
        .get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail(format!("{flag} expects a valid value")));
    *i += 1;
    value
}

const COMMANDS: &[&str] = &["partition", "repartition", "simulate"];

/// The subcommands that read `flag`. A flag given to any other one is an
/// error, never silently ignored; an unknown flag prints the usage.
fn read_by(flag: &str) -> &'static [&'static str] {
    match flag {
        "-k" | "--epsilon" | "--constraints" | "--seed" | "--ranks" | "--distributed"
        | "--trace" => COMMANDS,
        "--out" => &["partition", "repartition"],
        "--old" => &["repartition"],
        "--alpha" | "--algorithm" => &["repartition", "simulate"],
        "--workload" | "--epochs" | "--scale" | "--world-plan" | "--incremental"
        | "--drift-threshold" => &["simulate"],
        _ => usage(),
    }
}

fn parse_cli() -> Cli {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().cloned().unwrap_or_else(|| usage());
    if !COMMANDS.contains(&command.as_str()) {
        usage();
    }
    let mut k = None;
    let mut alpha = 100.0;
    let mut algorithm = Algorithm::ZoltanRepart;
    let mut epsilons: Vec<f64> = Vec::new();
    let mut constraints = 1usize;
    let mut seed = 0u64;
    let mut ranks = 1usize;
    let mut distributed = false;
    let mut trace = None;
    let mut out = None;
    let mut old = None;
    let mut input = None;
    let mut workload = None;
    let mut epochs = 4usize;
    let mut scale = None;
    let mut world_plan = None;
    let mut incremental = false;
    let mut drift_threshold = None;
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        i += 1;
        if !flag.starts_with('-') {
            if command == "simulate" {
                fail(format!(
                    "simulate generates its workload and reads no input file ({flag})"
                ));
            }
            input = Some(flag.to_string());
            continue;
        }
        let readers = read_by(flag);
        if !readers.contains(&command.as_str()) {
            fail(format!(
                "{flag} applies to {} only, not {command}",
                readers.join(" and ")
            ));
        }
        match flag {
            "-k" => k = Some(parse_value(&argv, &mut i, flag)),
            "--alpha" => alpha = parse_value(&argv, &mut i, flag),
            "--algorithm" => {
                algorithm = match parse_value::<String>(&argv, &mut i, flag).as_str() {
                    "zoltan-repart" => Algorithm::ZoltanRepart,
                    "zoltan-scratch" => Algorithm::ZoltanScratch,
                    "parmetis-repart" => Algorithm::ParmetisRepart,
                    "parmetis-scratch" => Algorithm::ParmetisScratch,
                    other => fail(format!("unknown algorithm {other:?}")),
                }
            }
            "--epsilon" => epsilons.push(parse_value(&argv, &mut i, flag)),
            "--constraints" => constraints = parse_value(&argv, &mut i, flag),
            "--seed" => seed = parse_value(&argv, &mut i, flag),
            "--ranks" => {
                ranks = parse_value(&argv, &mut i, flag);
                if ranks == 0 {
                    fail("--ranks must be at least 1");
                }
            }
            "--distributed" => distributed = true,
            "--trace" => trace = Some(parse_value(&argv, &mut i, flag)),
            "--out" => out = Some(parse_value(&argv, &mut i, flag)),
            "--old" => old = Some(parse_value(&argv, &mut i, flag)),
            "--workload" => workload = Some(parse_value(&argv, &mut i, flag)),
            "--epochs" => epochs = parse_value(&argv, &mut i, flag),
            "--scale" => scale = Some(parse_value(&argv, &mut i, flag)),
            "--incremental" => incremental = true,
            "--drift-threshold" => drift_threshold = Some(parse_value(&argv, &mut i, flag)),
            "--world-plan" => {
                let spec: String = parse_value(&argv, &mut i, flag);
                world_plan = Some(
                    WorldPlan::parse(&spec)
                        .unwrap_or_else(|e| fail(format!("bad --world-plan: {e}"))),
                );
            }
            _ => unreachable!("read_by admitted the flag {flag}"),
        }
    }
    Cli {
        command,
        input,
        k: k.unwrap_or_else(|| usage()),
        alpha,
        algorithm,
        epsilons,
        constraints,
        seed,
        ranks,
        distributed,
        trace,
        out,
        old,
        workload,
        epochs,
        scale,
        world_plan,
        incremental,
        drift_threshold,
    }
}

/// Resolves `--constraints` and the repeatable `--epsilon` flags into
/// one tolerance per constraint: occurrence `c` of `--epsilon` is
/// constraint `c`'s tolerance, and constraints without their own flag
/// inherit the primary (first) value. Rejects `--constraints 0` and
/// more `--epsilon` flags than constraints with exit code 2.
fn effective_epsilons(cli: &Cli) -> Vec<f64> {
    if cli.constraints == 0 {
        fail("--constraints must be at least 1");
    }
    if cli.epsilons.len() > cli.constraints {
        fail(format!(
            "{} --epsilon flags for {} constraint(s); pass --constraints {} or drop one",
            cli.epsilons.len(),
            cli.constraints,
            cli.epsilons.len()
        ));
    }
    let primary = cli.epsilons.first().copied().unwrap_or(0.05);
    let mut eps = vec![primary; cli.constraints];
    eps[..cli.epsilons.len()].copy_from_slice(&cli.epsilons);
    eps
}

/// Assembles the partitioner config from the flags and checks it with
/// [`HgConfig::validate`]. Rejects `k < 2`, bad ε, etc. with exit code 2
/// *before* any driver runs (the drivers would otherwise panic deep
/// inside the SPMD machinery).
fn validated_hg_config(cli: &Cli) -> HgConfig {
    let epsilons = effective_epsilons(cli);
    let mut cfg = HgConfig {
        epsilon: epsilons[0],
        aux_epsilons: epsilons[1..].to_vec(),
        seed: cli.seed,
        ..HgConfig::default()
    };
    cfg.dist.distributed = cli.distributed;
    cfg.validate(cli.k).unwrap_or_else(|e| fail(e));
    cfg
}

/// The repartitioner's config for the validated partitioner knobs: the
/// seeded repartitioning defaults with `hg`'s tolerances and
/// distribution.
fn repart_config(hg: HgConfig) -> RepartConfig {
    let epsilons: Vec<f64> = std::iter::once(hg.epsilon).chain(hg.aux_epsilons).collect();
    let mut cfg = RepartConfig::seeded(hg.seed).with_epsilons(&epsilons);
    cfg.hypergraph.dist = hg.dist;
    cfg
}

/// Rejects a numeric flag outside the range its reader accepts, with exit
/// code 2 — the drivers would otherwise panic on it or silently coerce
/// it. `--scale`'s range depends on the workload; an unknown workload is
/// left for `make_sim_source` to report.
fn validate_ranges(cli: &Cli) {
    if !(cli.alpha > 0.0 && cli.alpha.is_finite()) {
        fail(format!(
            "--alpha must be positive and finite, got {}",
            cli.alpha
        ));
    }
    if cli.epochs == 0 {
        fail("--epochs must be at least 1");
    }
    if let Some(t) = cli
        .drift_threshold
        .filter(|t| !(t.is_finite() && *t >= 0.0))
    {
        fail(format!(
            "--drift-threshold must be finite and non-negative, got {t}"
        ));
    }
    let Some(scale) = cli.scale else { return };
    match cli.workload.as_deref() {
        Some("amr") if !(scale.fract() == 0.0 && (0.0..=8.0).contains(&scale)) => fail(format!(
            "--scale for amr must be an integer in 0..=8, got {scale}"
        )),
        Some("structure" | "weights") if !(scale > 0.0 && scale <= 1.0) => fail(format!(
            "--scale for structure/weights must be in (0, 1], got {scale}"
        )),
        _ => {}
    }
}

/// Runs `f` inside a trace session when `--trace` was given, writing the
/// report in chrome://tracing JSON format afterwards.
fn with_trace<T>(path: Option<&str>, f: impl FnOnce() -> T) -> T {
    let Some(path) = path else { return f() };
    let session = dlb::trace::session();
    let result = f();
    let report = session.finish();
    std::fs::write(path, report.to_chrome_json()).unwrap_or_else(|e| {
        eprintln!("cannot write trace {path}: {e}");
        exit(1);
    });
    eprintln!(
        "trace: {} spans, {} counters -> {path}",
        report.spans.len(),
        report.counters.len()
    );
    result
}

/// Loads the input as (hypergraph, graph): `.mtx` gives a graph (column-
/// net hypergraph derived); `.hg` gives a hypergraph (clique-expansion
/// graph derived for the graph-based algorithms).
fn load(input: &str) -> (Hypergraph, CsrGraph) {
    let file = File::open(input).unwrap_or_else(|e| {
        eprintln!("cannot open {input}: {e}");
        exit(1);
    });
    let reader = BufReader::new(file);
    if input.ends_with(".mtx") {
        let graph = read_matrix_market_graph(reader).unwrap_or_else(|e| {
            eprintln!("cannot parse {input}: {e}");
            exit(1);
        });
        let hypergraph = column_net_model(&graph, |v| graph.vertex_size(v));
        (hypergraph, graph)
    } else if input.ends_with(".hg") {
        let hypergraph = read_hypergraph(reader).unwrap_or_else(|e| {
            eprintln!("cannot parse {input}: {e}");
            exit(1);
        });
        let graph = clique_expansion(&hypergraph);
        (hypergraph, graph)
    } else {
        eprintln!("unknown input extension (want .mtx or .hg): {input}");
        exit(1);
    }
}

fn read_partition(path: &str, n: usize, k: usize) -> Vec<usize> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let parts: Vec<usize> = text
        .split_whitespace()
        .map(|t| {
            t.parse().unwrap_or_else(|_| {
                eprintln!("bad part id {t:?} in {path}");
                exit(1);
            })
        })
        .collect();
    if parts.len() != n {
        eprintln!("{path} has {} entries; input has {n} vertices", parts.len());
        exit(1);
    }
    if parts.iter().any(|&p| p >= k) {
        eprintln!("{path} references part >= k={k}");
        exit(1);
    }
    parts
}

fn write_partition(out: &Option<String>, part: &[usize]) {
    let body: String = part.iter().map(|p| format!("{p}\n")).collect();
    match out {
        Some(path) => std::fs::write(path, body).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }),
        None => {
            let mut stdout = std::io::stdout().lock();
            stdout.write_all(body.as_bytes()).expect("stdout");
        }
    }
}

/// Builds the simulate subcommand's epoch source: the workload's base
/// problem plus the static initial partition. Deterministic in the CLI
/// parameters, so every SPMD rank builds an identical copy, and the
/// workload banner goes to stderr through `banner` — once per command,
/// however many ranks and runs build a copy.
fn make_sim_source(cli: &Cli, banner: &Once) -> Box<dyn EpochSource> {
    match cli.workload.as_deref() {
        Some("amr") => {
            let mut amr_cfg = AmrConfig::for_scale(cli.scale.unwrap_or(0.0) as u8);
            amr_cfg.multi_constraint = cli.constraints == 2;
            if let Err(e) = amr_cfg.validate() {
                eprintln!("bad AMR config: {e}");
                exit(1);
            }
            let stream = AmrStream::new(amr_cfg, cli.k, cli.seed);
            let low = stream.initial_lowering();
            banner.call_once(|| {
                eprintln!(
                    "amr: base {}..{} mesh, {} initial cells",
                    amr_cfg.base_level,
                    amr_cfg.max_level,
                    low.cells.len()
                )
            });
            let init = partition_kway(&low.graph, cli.k, &GraphConfig::seeded(cli.seed)).part;
            Box::new(AmrSource::new(stream, &init))
        }
        Some(name @ ("structure" | "weights")) => {
            let perturbation = if name == "structure" {
                Perturbation::structure()
            } else {
                Perturbation::weights()
            };
            let dataset =
                Dataset::generate(DatasetKind::Auto, cli.scale.unwrap_or(0.001), cli.seed);
            banner.call_once(|| {
                eprintln!(
                    "{name}: auto dataset, {} vertices",
                    dataset.graph.num_vertices()
                )
            });
            let init = partition_kway(&dataset.graph, cli.k, &GraphConfig::seeded(cli.seed)).part;
            Box::new(EpochStream::new(
                dataset.graph,
                perturbation,
                cli.k,
                init,
                cli.seed,
            ))
        }
        other => {
            eprintln!("simulate requires --workload amr|structure|weights, got {other:?}");
            usage();
        }
    }
}

fn print_simulation(summary: &SimulationSummary, alpha: f64) {
    println!(
        "epoch  vertices  comm        mig         total       moved   imbal   makespan_ms (comp+comm)*a + mig"
    );
    for r in &summary.reports {
        let e = r.execution.as_ref().expect("measured simulation");
        println!(
            "{:>5}  {:>8}  {:>10.1}  {:>10.1}  {:>10.1}  {:>6}  {:>6.4}  {:>11.4} = ({:.4}+{:.4})*{} + {:.4}",
            r.epoch,
            r.num_vertices,
            r.cost.comm,
            r.cost.migration,
            r.cost.total(),
            r.moved,
            r.imbalance,
            e.makespan() * 1e3,
            e.t_comp * 1e3,
            e.t_comm * 1e3,
            alpha,
            e.t_mig * 1e3
        );
        if let Some(rec) = &r.resize {
            println!(
                "       resized {} -> {} parts (+{:?} -{:?} failed {:?}) via {}: repart {:.1} vs scratch {:.1}, migration {:.1}, t_mig {:.4} ms",
                rec.k_before,
                rec.k_after,
                rec.joined,
                rec.departed,
                rec.failed,
                rec.choice.name(),
                rec.repart_cost,
                rec.scratch_cost,
                rec.migration,
                rec.t_mig * 1e3
            );
        }
    }
    let (comp, comm, mig) = summary.mean_phase_times().expect("measured simulation");
    println!(
        "mean: makespan {:.4} ms (comp {:.4}, comm {:.4}, mig {:.4} ms), model total {:.1}",
        summary.mean_makespan().expect("measured simulation") * 1e3,
        comp * 1e3,
        comm * 1e3,
        mig * 1e3,
        summary.reports.iter().map(|r| r.cost.total()).sum::<f64>()
            / summary.reports.len().max(1) as f64
    );
}

fn run_simulate(cli: &Cli, cfg: RepartConfig) {
    if cli.constraints > 1 {
        match cli.workload.as_deref() {
            Some("amr") if cli.constraints == 2 => {}
            Some("amr") => fail(format!(
                "--workload amr lowers exactly 2 constraints (flops, state bytes); \
                 got --constraints {}",
                cli.constraints
            )),
            _ => fail("--constraints > 1 requires --workload amr"),
        }
        if cli.incremental {
            fail(
                "--constraints > 1 is not supported with --incremental \
                  (the delta patcher maintains scalar weights)",
            );
        }
    }
    if cli.drift_threshold.is_some() && !cli.incremental {
        fail("--drift-threshold requires --incremental");
    }
    let banner = Once::new();
    let build = |incremental: bool| {
        let mut session = Session::new(cfg.clone())
            .algorithm(cli.algorithm)
            .alpha(cli.alpha)
            .epochs(cli.epochs)
            .ranks(cli.ranks)
            .measured(true)
            .workload_factory(|_rank| make_sim_source(cli, &banner));
        if incremental {
            session = session
                .incremental(true)
                .drift_threshold(cli.drift_threshold.unwrap_or(DEFAULT_DRIFT_THRESHOLD));
        }
        if let Some(plan) = &cli.world_plan {
            session = session.world_plan(plan.clone());
        }
        session
    };
    let summary = with_trace(cli.trace.as_deref(), || build(cli.incremental).run())
        .unwrap_or_else(|e| fail(e));
    eprintln!(
        "{}{} on {} epochs, k={}, alpha={}",
        cli.algorithm.name(),
        if cli.incremental {
            " (incremental)"
        } else {
            ""
        },
        summary.reports.len(),
        cli.k,
        cli.alpha
    );
    print_simulation(&summary, cli.alpha);
    if cli.incremental {
        // The competitive ratio needs the from-scratch baseline on an
        // identically seeded fresh workload.
        eprintln!("baseline: full rebuild + V-cycle every epoch (same seed)");
        let baseline = build(false).run().unwrap_or_else(|e| fail(e));
        let cr = summary
            .competitive_ratio_vs(&baseline)
            .expect("both simulate runs are measured over the same epochs");
        match cr.ratio() {
            Some(ratio) => println!(
                "incremental cost volume {:.1} vs scratch {:.1} over {} epochs: competitive ratio {:.4}",
                cr.policy_cost, cr.baseline_cost, cr.epochs, ratio
            ),
            None => println!(
                "incremental cost volume {:.1}; baseline accrued no cost (nothing to compete against)",
                cr.policy_cost
            ),
        }
    }
}

fn main() {
    let cli = parse_cli();
    let hg_cfg = validated_hg_config(&cli);
    validate_ranges(&cli);
    if cli.command == "simulate" {
        run_simulate(&cli, repart_config(hg_cfg));
        return;
    }
    if cli.constraints > 1 {
        fail("--constraints > 1 requires simulate --workload amr (file inputs are scalar)");
    }
    let input = cli.input.clone().unwrap_or_else(|| usage());
    let (hypergraph, graph) = load(&input);
    eprintln!(
        "loaded {}: {} vertices, {} nets / {} edges",
        input,
        hypergraph.num_vertices(),
        hypergraph.num_nets(),
        graph.num_edges()
    );

    match cli.command.as_str() {
        "partition" => {
            let cfg = hg_cfg;
            let free = FixedAssignment::free(hypergraph.num_vertices());
            let solve = |comm: Option<&mut dlb::mpisim::Comm>| {
                partition_fixed_on(comm, &hypergraph, cli.k, &free, None, &cfg)
            };
            let r = with_trace(cli.trace.as_deref(), || {
                if cli.ranks > 1 || cli.distributed {
                    run_spmd(cli.ranks, |comm| solve(Some(comm)))
                        .pop()
                        .expect("at least one rank")
                } else {
                    solve(None)
                }
            });
            eprintln!(
                "k={}: comm volume {:.1}, imbalance {:.4}",
                cli.k, r.cut, r.imbalance
            );
            write_partition(&cli.out, &r.part);
        }
        "repartition" => {
            let old_path = cli.old.clone().unwrap_or_else(|| {
                eprintln!("repartition requires --old PARTFILE");
                usage();
            });
            let old = read_partition(&old_path, hypergraph.num_vertices(), cli.k);
            let problem = RepartProblem {
                hypergraph: &hypergraph,
                graph: &graph,
                old_part: &old,
                k: cli.k,
                alpha: cli.alpha,
            };
            let cfg = repart_config(hg_cfg);
            let r = with_trace(cli.trace.as_deref(), || {
                if cli.ranks > 1 || cli.distributed {
                    run_spmd(cli.ranks, |comm| {
                        repartition_parallel(comm, &problem, cli.algorithm, &cfg)
                    })
                    .pop()
                    .expect("at least one rank")
                } else {
                    repartition(&problem, cli.algorithm, &cfg)
                }
            });
            eprintln!(
                "{}: comm {:.1}, migration {:.1}, total {:.1} (alpha={}), moved {}, imbalance {:.4}",
                cli.algorithm.name(),
                r.cost.comm,
                r.cost.migration,
                r.cost.total(),
                cli.alpha,
                r.moved,
                r.imbalance
            );
            write_partition(&cli.out, &r.new_part);
        }
        other => unreachable!("parse_cli admitted the command {other:?}"),
    }
}
