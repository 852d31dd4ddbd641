//! The parameter sweep behind Figures 2–8, plus the AMR
//! measured-makespan sweep (`BENCH_amr.json`).

use dlb_amr::{AmrConfig, AmrStream};
use dlb_core::{Algorithm, RepartConfig, Session, SimulationSummary};
use dlb_graphpart::{partition_kway, GraphConfig};
use dlb_mpisim::{run_spmd, CommStats};
use dlb_workloads::{
    AmrSource, Dataset, DatasetKind, EpochSource, EpochStream, PerturbKind, Perturbation,
};

/// Whether repartitioners run serially or SPMD (for the runtime figures).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingMode {
    /// Serial execution; timings reflect single-thread algorithmic work.
    Serial,
    /// SPMD over simulated ranks (`min(k, max_ranks)` — the host has far
    /// fewer cores than the paper's 64-node cluster, so timings measure
    /// algorithmic + communication-protocol work, not strong scaling).
    Parallel {
        /// Cap on simulated ranks.
        max_ranks: usize,
    },
}

/// What application the sweep balances.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// A synthetic dataset regime under one of the paper's two
    /// perturbations (Section 5).
    Perturbed {
        /// Dataset regime.
        dataset: DatasetKind,
        /// Dynamic (structure or weights).
        perturb: PerturbKind,
    },
    /// The quadtree AMR simulator of `dlb_amr` — a real adaptive mesh
    /// whose structure, weights, *and* payloads all change every epoch.
    Amr(AmrConfig),
}

impl Workload {
    /// The `dataset` column value for this workload's rows.
    pub(crate) fn dataset_name(&self) -> &'static str {
        match self {
            Workload::Perturbed { dataset, .. } => dataset.name(),
            Workload::Amr(_) => "amr",
        }
    }

    /// The `perturb` column value for this workload's rows.
    pub(crate) fn perturb_name(&self) -> &'static str {
        match self {
            Workload::Perturbed { perturb, .. } => perturb_name(*perturb),
            Workload::Amr(_) => "adaptive",
        }
    }
}

/// One sweep: a workload across k × α × algorithms.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The application being balanced.
    pub workload: Workload,
    /// Part counts (the paper: 16, 32, 64).
    pub ks: Vec<usize>,
    /// Epoch lengths α (the paper: 1, 10, 100, 1000).
    pub alphas: Vec<f64>,
    /// Trials averaged per configuration (the paper: 20).
    pub trials: usize,
    /// Epochs simulated per trial.
    pub epochs: usize,
    /// Dataset scale in `(0, 1]` (`Workload::Perturbed` only — the AMR
    /// workload sizes itself through its [`AmrConfig`]).
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Serial or SPMD execution.
    pub timing: TimingMode,
    /// When set, every epoch's partition is *executed* under the default
    /// machine model ([`dlb_core::NetworkModel`]) and rows carry measured
    /// makespans; `false` keeps the model-cost-only sweep.
    pub measured: bool,
}

impl SweepConfig {
    /// The paper's grid at a laptop-friendly scale: k ∈ {16,32,64},
    /// α ∈ {1,10,100,1000}, few trials/epochs.
    pub fn paper_grid(dataset: DatasetKind, perturb: PerturbKind, scale: f64) -> Self {
        SweepConfig {
            workload: Workload::Perturbed { dataset, perturb },
            ks: vec![16, 32, 64],
            alphas: vec![1.0, 10.0, 100.0, 1000.0],
            trials: 3,
            epochs: 3,
            scale,
            seed: 42,
            timing: TimingMode::Serial,
            measured: false,
        }
    }

    /// A minutes-scale smoke grid for CI.
    pub fn quick(dataset: DatasetKind, perturb: PerturbKind, scale: f64) -> Self {
        SweepConfig {
            ks: vec![8],
            alphas: vec![1.0, 100.0],
            trials: 1,
            epochs: 2,
            ..SweepConfig::paper_grid(dataset, perturb, scale)
        }
    }

    /// The AMR measured-makespan sweep: the quadtree mesh at `amr`'s
    /// scale, k ∈ {4, 8}, the paper's α grid, every epoch executed under
    /// the default [`dlb_core::NetworkModel`].
    pub fn amr(amr: AmrConfig) -> Self {
        SweepConfig {
            workload: Workload::Amr(amr),
            ks: vec![4, 8],
            alphas: vec![1.0, 10.0, 100.0, 1000.0],
            trials: 2,
            epochs: 4,
            scale: 1.0,
            seed: 42,
            timing: TimingMode::Serial,
            measured: true,
        }
    }
}

/// One averaged measurement: a single bar of a figure.
#[derive(Clone, Debug)]
pub struct Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// `"structure"` or `"weights"`.
    pub perturb: &'static str,
    /// Parts.
    pub k: usize,
    /// Epoch length.
    pub alpha: f64,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Mean communication volume per epoch (bottom bar segment).
    pub comm: f64,
    /// Mean normalized migration `mig/α` per epoch (top bar segment).
    pub mig_norm: f64,
    /// Mean normalized total (`comm + mig/α`).
    pub total_norm: f64,
    /// Mean repartitioning wall-clock per epoch, in milliseconds.
    pub time_ms: f64,
    /// Worst imbalance observed.
    pub max_imbalance: f64,
    /// Mean simulator messages per epoch, summed over ranks
    /// (`0` under [`TimingMode::Serial`]).
    pub msgs_per_epoch: f64,
    /// Mean simulator payload bytes per epoch, summed over ranks
    /// (`0` under [`TimingMode::Serial`]).
    pub bytes_per_epoch: f64,
    /// Mean measured epoch makespan `α·(t_comp + t_comm) + t_mig`, in
    /// milliseconds (`0` when the sweep runs without a network model).
    pub makespan_ms: f64,
    /// Mean measured compute phase per iteration, milliseconds.
    pub comp_ms: f64,
    /// Mean measured communication phase per iteration, milliseconds.
    pub comm_ms: f64,
    /// Mean measured migration phase per epoch, milliseconds.
    pub mig_ms: f64,
}

fn perturbation(kind: PerturbKind) -> Perturbation {
    match kind {
        PerturbKind::Structure => Perturbation::structure(),
        PerturbKind::Weights => Perturbation::weights(),
    }
}

fn perturb_name(kind: PerturbKind) -> &'static str {
    match kind {
        PerturbKind::Structure => "structure",
        PerturbKind::Weights => "weights",
    }
}

/// Builds a fresh epoch source for one trial: the workload's base
/// problem plus the static initial partition of epoch 1 (same start for
/// every algorithm). Deterministic in `(cfg, k, trial_seed)`, so each
/// SPMD rank can construct its own identical copy.
fn make_source(cfg: &SweepConfig, k: usize, trial_seed: u64) -> Box<dyn EpochSource> {
    match cfg.workload {
        Workload::Perturbed { dataset, perturb } => {
            let dataset = Dataset::generate(dataset, cfg.scale, trial_seed);
            let initial = partition_kway(&dataset.graph, k, &GraphConfig::seeded(trial_seed)).part;
            Box::new(EpochStream::new(
                dataset.graph,
                perturbation(perturb),
                k,
                initial,
                trial_seed,
            ))
        }
        Workload::Amr(amr) => {
            let stream = AmrStream::new(amr, k, trial_seed);
            let low = stream.initial_lowering();
            let initial = partition_kway(&low.graph, k, &GraphConfig::seeded(trial_seed)).part;
            Box::new(AmrSource::new(stream, &initial))
        }
    }
}

/// Runs one trial: fresh source, then `epochs` repartitions. Returns the
/// simulation summary plus the communication traffic (messages/bytes
/// sent, summed over all ranks; zero in serial mode, which performs no
/// simulated communication).
fn run_trial(
    cfg: &SweepConfig,
    k: usize,
    alpha: f64,
    algorithm: Algorithm,
    trial: usize,
) -> (SimulationSummary, CommStats) {
    let trial_seed = cfg.seed ^ (trial as u64).wrapping_mul(0x0123_4567_89AB_CDEF) ^ 0xFEED;
    let repart_cfg = RepartConfig::seeded(trial_seed);
    match cfg.timing {
        TimingMode::Serial => {
            let mut source = make_source(cfg, k, trial_seed);
            let summary = Session::new(repart_cfg)
                .algorithm(algorithm)
                .alpha(alpha)
                .epochs(cfg.epochs)
                .measured(cfg.measured)
                .workload(&mut source)
                .run()
                .expect("valid sweep session");
            (summary, CommStats::default())
        }
        TimingMode::Parallel { max_ranks } => {
            let ranks = k.min(max_ranks).max(1);
            let results = run_spmd(ranks, |comm| {
                let mut source = make_source(cfg, k, trial_seed);
                let summary = Session::new(repart_cfg.clone())
                    .algorithm(algorithm)
                    .alpha(alpha)
                    .epochs(cfg.epochs)
                    .measured(cfg.measured)
                    .workload(&mut source)
                    .run_on(comm)
                    .expect("valid sweep session");
                (summary, comm.stats())
            });
            let mut traffic = CommStats::default();
            let mut summary = None;
            for (s, stats) in results {
                traffic.messages_sent += stats.messages_sent;
                traffic.messages_received += stats.messages_received;
                traffic.bytes_sent += stats.bytes_sent;
                traffic.bytes_received += stats.bytes_received;
                summary = Some(s);
            }
            (summary.expect("at least one rank"), traffic)
        }
    }
}

/// Runs one sweep cell (a k × α × algorithm bar): all its trials,
/// averaged.
fn run_cell(cfg: &SweepConfig, k: usize, alpha: f64, algorithm: Algorithm) -> Row {
    let mut comm = 0.0;
    let mut mig_norm = 0.0;
    let mut total = 0.0;
    let mut time_ms = 0.0;
    let mut max_imb: f64 = 1.0;
    let mut msgs = 0.0;
    let mut bytes = 0.0;
    let mut makespan_ms = 0.0;
    let mut comp_ms = 0.0;
    let mut comm_ms = 0.0;
    let mut mig_ms = 0.0;
    let epochs = cfg.epochs.max(1) as f64;
    for trial in 0..cfg.trials.max(1) {
        let (summary, traffic) = run_trial(cfg, k, alpha, algorithm, trial);
        comm += summary.mean_comm();
        mig_norm += summary.mean_normalized_migration();
        total += summary.mean_normalized_total();
        time_ms += summary.mean_elapsed().as_secs_f64() * 1e3;
        max_imb = max_imb.max(summary.max_imbalance());
        msgs += traffic.messages_sent as f64 / epochs;
        bytes += traffic.bytes_sent as f64 / epochs;
        makespan_ms += summary.mean_makespan().unwrap_or(0.0) * 1e3;
        if let Some((tc, tm, tg)) = summary.mean_phase_times() {
            comp_ms += tc * 1e3;
            comm_ms += tm * 1e3;
            mig_ms += tg * 1e3;
        }
    }
    let t = cfg.trials.max(1) as f64;
    Row {
        dataset: cfg.workload.dataset_name(),
        perturb: cfg.workload.perturb_name(),
        k,
        alpha,
        algorithm,
        comm: comm / t,
        mig_norm: mig_norm / t,
        total_norm: total / t,
        time_ms: time_ms / t,
        max_imbalance: max_imb,
        msgs_per_epoch: msgs / t,
        bytes_per_epoch: bytes / t,
        makespan_ms: makespan_ms / t,
        comp_ms: comp_ms / t,
        comm_ms: comm_ms / t,
        mig_ms: mig_ms / t,
    }
}

/// Runs the full sweep, k → α → algorithm, invoking `progress` as each
/// bar completes.
pub fn run_sweep(cfg: &SweepConfig, mut progress: impl FnMut(&Row)) -> Vec<Row> {
    let mut rows = Vec::new();
    for &k in &cfg.ks {
        for &alpha in &cfg.alphas {
            for algorithm in Algorithm::ALL {
                let row = run_cell(cfg, k, alpha, algorithm);
                progress(&row);
                rows.push(row);
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_full_grid() {
        let mut cfg = SweepConfig::quick(DatasetKind::Auto, PerturbKind::Structure, 0.0005);
        cfg.ks = vec![4];
        cfg.alphas = vec![1.0];
        let rows = run_sweep(&cfg, |_| {});
        assert_eq!(rows.len(), 4, "one row per algorithm");
        for row in &rows {
            assert!(row.total_norm > 0.0);
            assert!((row.total_norm - (row.comm + row.mig_norm)).abs() < 1e-9);
            assert!(row.time_ms >= 0.0);
            assert_eq!(row.msgs_per_epoch, 0.0, "serial mode performs no comm");
            assert_eq!(row.bytes_per_epoch, 0.0);
        }
    }

    #[test]
    fn parallel_timing_mode_runs() {
        let mut cfg = SweepConfig::quick(DatasetKind::Xyce680s, PerturbKind::Structure, 0.0005);
        cfg.ks = vec![4];
        cfg.alphas = vec![10.0];
        cfg.timing = TimingMode::Parallel { max_ranks: 2 };
        let rows = run_sweep(&cfg, |_| {});
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.total_norm > 0.0, "{:?}", row.algorithm);
            assert!(row.time_ms > 0.0);
            // Every algorithm at least synchronizes per epoch; the SPMD
            // hypergraph methods also move real payload bytes (the graph
            // baselines run replicated, exchanging only zero-sized
            // barrier tokens).
            assert!(row.msgs_per_epoch > 0.0, "SPMD epochs exchange messages");
            let is_spmd = matches!(
                row.algorithm,
                Algorithm::ZoltanRepart | Algorithm::ZoltanScratch
            );
            if is_spmd {
                assert!(row.bytes_per_epoch > 0.0, "SPMD epochs move payload bytes");
            }
        }
    }

    #[test]
    fn amr_sweep_measures_makespans() {
        let mut cfg = SweepConfig::amr(AmrConfig::small());
        cfg.ks = vec![4];
        cfg.alphas = vec![10.0];
        cfg.trials = 1;
        cfg.epochs = 2;
        let rows = run_sweep(&cfg, |_| {});
        assert_eq!(rows.len(), 4, "one row per algorithm");
        for row in &rows {
            assert_eq!(row.dataset, "amr");
            assert_eq!(row.perturb, "adaptive");
            assert!(row.total_norm > 0.0, "{:?}", row.algorithm);
            assert!(row.makespan_ms > 0.0, "measured sweep must clock epochs");
            assert!(row.comp_ms > 0.0);
            let recomposed = 10.0 * (row.comp_ms + row.comm_ms) + row.mig_ms;
            assert!(
                (row.makespan_ms - recomposed).abs() < 1e-9,
                "makespan must decompose into phases"
            );
        }
        // Unmeasured sweeps report zero makespans.
        cfg.measured = false;
        let rows = run_sweep(&cfg, |_| {});
        assert!(rows
            .iter()
            .all(|r| r.makespan_ms == 0.0 && r.comp_ms == 0.0));
    }

    #[test]
    fn scratch_methods_pay_migration_at_alpha_one() {
        let mut cfg = SweepConfig::quick(DatasetKind::Auto, PerturbKind::Structure, 0.001);
        cfg.ks = vec![4];
        cfg.alphas = vec![1.0];
        cfg.trials = 2;
        let rows = run_sweep(&cfg, |_| {});
        let get = |alg: Algorithm| rows.iter().find(|r| r.algorithm == alg).unwrap();
        let zr = get(Algorithm::ZoltanRepart);
        let zs = get(Algorithm::ZoltanScratch);
        assert!(
            zr.mig_norm <= zs.mig_norm + 1e-9,
            "repart migration {} should not exceed scratch {}",
            zr.mig_norm,
            zs.mig_norm
        );
    }
}
