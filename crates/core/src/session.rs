//! The entry point for multi-epoch simulations: [`Session`] is the only
//! way into the epoch loop.
//!
//! ```
//! use dlb_core::{Algorithm, RepartConfig, Session};
//! use dlb_workloads::{Dataset, DatasetKind, EpochStream, Perturbation};
//! use dlb_graphpart::{partition_kway, GraphConfig};
//!
//! let d = Dataset::generate(DatasetKind::Auto, 0.0005, 7);
//! let init = partition_kway(&d.graph, 2, &GraphConfig::seeded(7)).part;
//! let mut stream = EpochStream::new(d.graph, Perturbation::structure(), 2, init, 7);
//! let summary = Session::new(RepartConfig::seeded(7))
//!     .algorithm(Algorithm::ZoltanRepart)
//!     .alpha(10.0)
//!     .epochs(2)
//!     .workload(&mut stream)
//!     .run()
//!     .unwrap();
//! assert_eq!(summary.reports.len(), 2);
//! ```
//!
//! A session is **serial** by default. `.ranks(n)` (or a config with
//! `dist.distributed` set) runs the repartitioner collectively on a
//! simulated SPMD world; because each rank must then drive its own
//! identically seeded source, multi-rank sessions take a
//! [`workload_factory`](Session::workload_factory) instead of a borrowed
//! source. `.measured(true)` (or [`network`](Session::network)) turns on
//! the measured execution model, [`fault_plan`](Session::fault_plan) and
//! [`world_plan`](Session::world_plan) schedule rank failures and
//! planned resizes, [`incremental`](Session::incremental) switches to
//! delta-driven model patching with warm-started V-cycles (see
//! [`crate::delta`]), and [`trace_to`](Session::trace_to) /
//! [`run_traced`](Session::run_traced) wrap the run in a [`dlb_trace`]
//! session.
//!
//! Every epoch kind — plain, recovery, resize — is one fixed-vertex
//! solve of a (partial) repartitioning model on whichever execution
//! context the session runs on, so the knobs compose freely: plans,
//! multi-constraint loads and `dist.distributed` work at any rank
//! count, and plans work with incremental sessions. The one refusal is
//! incremental × SPMD ([`SessionError::IncrementalNeedsSerial`]): the
//! warm start is a serial refinement of the previous assignment, and
//! the SPMD partitioner has no counterpart to seed. A plan that cannot
//! run on the workload's world (a fault rank outside it, a world plan
//! that would empty it) is an error too, not a panic:
//! [`SessionError::InvalidPlan`], returned before the first epoch.

use std::fmt;
use std::path::PathBuf;

use dlb_mpisim::{run_spmd, Comm, FaultPlan};
use dlb_partitioner::Determinism;
use dlb_workloads::EpochSource;

use crate::driver::{Algorithm, RepartConfig};
use crate::elastic::WorldPlan;
use crate::epoch::{run_epochs, EpochParams, IncrementalPolicy, SimulationSummary};
use crate::exec::NetworkModel;

/// Default drift threshold for [`Session::incremental`] runs: epochs
/// whose delta touches less than this fraction of the mesh warm-start;
/// heavier drift triggers a full V-cycle on the patched model. The
/// touched fraction counts the *dirty closure* — changed cells plus
/// every survivor whose neighborhood was rewired — which on the AMR
/// workload lands mostly in 0.3–0.7, so the default sits inside that
/// band: moderate epochs warm-start, heavy ones rebuild.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.6;

/// Why a [`Session`] refused to run (or failed to finish).
#[derive(Debug)]
pub enum SessionError {
    /// Neither [`Session::workload`] nor [`Session::workload_factory`]
    /// was called.
    NoWorkload,
    /// A multi-rank session was configured with a borrowed workload;
    /// every rank needs its own source, so use
    /// [`Session::workload_factory`].
    RanksNeedFactory {
        /// The configured rank count.
        ranks: usize,
    },
    /// `ranks == 0` — an SPMD world needs at least one rank.
    ZeroRanks,
    /// [`Session::incremental`] was combined with a multi-rank or
    /// distributed configuration. Low-drift epochs warm-start the
    /// serial refiner from the previous assignment; the SPMD
    /// partitioner has no warm start, so incremental sessions must run
    /// on one rank.
    IncrementalNeedsSerial,
    /// The [`fault_plan`](Session::fault_plan) names a rank outside the
    /// workload's world (and outside the world plan's joins), or the
    /// [`world_plan`](Session::world_plan) does not validate against it
    /// (e.g. it would empty the world). Carries the plan message;
    /// reported before the first epoch runs.
    InvalidPlan(String),
    /// Tracing was requested on [`Session::run_on`]; a per-rank trace
    /// session would deadlock the collective, so open the trace around
    /// the whole SPMD world instead (e.g. via [`Session::ranks`]).
    TraceInsideSpmd,
    /// The trace file could not be written.
    TraceIo {
        /// Destination path.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NoWorkload => {
                write!(f, "session has no workload (call .workload() or .workload_factory())")
            }
            SessionError::RanksNeedFactory { ranks } => write!(
                f,
                "a {ranks}-rank session needs a per-rank source: use .workload_factory()"
            ),
            SessionError::ZeroRanks => write!(f, "ranks must be at least 1"),
            SessionError::IncrementalNeedsSerial => write!(
                f,
                "incremental repartitioning is serial-only (there is no SPMD warm start): \
                 drop .ranks()/.run_on() or .incremental()"
            ),
            SessionError::InvalidPlan(message) => write!(f, "{message}"),
            SessionError::TraceInsideSpmd => write!(
                f,
                "cannot open a trace session per rank; trace the world opener instead"
            ),
            SessionError::TraceIo { path, error } => {
                write!(f, "cannot write trace to {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Per-rank workload constructor for multi-rank sessions: `rank ->
/// source`. Every rank must build an identically seeded source so the
/// collective repartitioner sees one consistent problem.
type SourceFactory<'a> = Box<dyn Fn(usize) -> Box<dyn EpochSource + 'a> + Sync + 'a>;

/// Builder for one multi-epoch simulation run. See the [module
/// docs](self) for the full picture.
pub struct Session<'a> {
    cfg: RepartConfig,
    algorithm: Algorithm,
    alpha: f64,
    epochs: usize,
    ranks: usize,
    network: Option<NetworkModel>,
    faults: Option<FaultPlan>,
    world: Option<WorldPlan>,
    incremental: bool,
    drift_threshold: f64,
    source: Option<&'a mut dyn EpochSource>,
    factory: Option<SourceFactory<'a>>,
    trace_path: Option<PathBuf>,
}

impl<'a> Session<'a> {
    /// A serial, unmeasured, untraced session over `cfg`, defaulting to
    /// [`Algorithm::ZoltanRepart`], `alpha = 100`, one epoch, one rank.
    pub fn new(cfg: RepartConfig) -> Self {
        Session {
            cfg,
            algorithm: Algorithm::ZoltanRepart,
            alpha: 100.0,
            epochs: 1,
            ranks: 1,
            network: None,
            faults: None,
            world: None,
            incremental: false,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
            source: None,
            factory: None,
            trace_path: None,
        }
    }

    /// Selects the repartitioning algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets α, the iterations per epoch (the comm/migration trade-off).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the number of epochs to simulate.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Runs the repartitioner collectively on `ranks` simulated SPMD
    /// ranks (1 = serial). Multi-rank sessions require
    /// [`workload_factory`](Session::workload_factory).
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }

    /// Selects the determinism contract for the epoch partitioner:
    /// [`Determinism::Strict`] (the default) runs on one thread with
    /// bit-identical results, [`Determinism::Fast`] matches concurrently
    /// on the configured `hypergraph.threads`. Multi-rank sessions
    /// always run Strict regardless of this setting (the SPMD
    /// collectives require rank-identical state).
    pub fn determinism(mut self, determinism: Determinism) -> Self {
        self.cfg.hypergraph.determinism = determinism;
        self
    }

    /// Turns the measured execution model on (with
    /// [`NetworkModel::default`]) or off.
    pub fn measured(mut self, on: bool) -> Self {
        self.network = if on {
            Some(self.network.unwrap_or_default())
        } else {
            None
        };
        self
    }

    /// Measures every epoch under a specific machine model (implies
    /// `measured(true)`).
    pub fn network(mut self, net: NetworkModel) -> Self {
        self.network = Some(net);
        self
    }

    /// Switches to incremental repartitioning: the epoch loop pulls
    /// structural deltas ([`dlb_workloads::EpochSource::next_delta`]),
    /// patches the repartitioning model in place ([`crate::delta`]),
    /// and warm-starts the partitioner when the epoch's drift is below
    /// the [`drift_threshold`](Session::drift_threshold). Sources
    /// without native delta support transparently fall back to full
    /// snapshots. Epochs with a boundary event (a recovery or a resize)
    /// re-lower and solve cold; the patcher picks the new world size up
    /// at the next delta. Serial-only: the SPMD partitioner has no warm
    /// start.
    pub fn incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Sets the drift threshold for [`incremental`](Session::incremental)
    /// sessions (default [`DEFAULT_DRIFT_THRESHOLD`]). An epoch
    /// warm-starts when its touched fraction is strictly below this, so
    /// `0.0` reproduces the full-rebuild pipeline's outputs exactly.
    pub fn drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = threshold;
        self
    }

    /// Installs a deterministic [`FaultPlan`]: scheduled rank failures
    /// are recovered at epoch boundaries by repartitioning onto the
    /// survivors, and message drop/delay probabilities are injected
    /// into the measured migration exchanges (DESIGN.md §12). Plan rank
    /// ids refer to the workload's `k` logical parts, so results are
    /// identical at any [`ranks`](Session::ranks) setting.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs a [`WorldPlan`]: scheduled rank arrivals and departures
    /// are applied as elastic resizes at epoch boundaries — growing
    /// onto the joining spares or shrinking onto the survivors via a
    /// fixed-vertex repartition, with the cost model arbitrating
    /// repartition-vs-scratch per resize (DESIGN.md §15). Like fault
    /// plans, the schedule speaks logical part ids, so results are
    /// identical at any [`ranks`](Session::ranks) setting.
    pub fn world_plan(mut self, plan: WorldPlan) -> Self {
        self.world = Some(plan);
        self
    }

    /// Drives the session from a borrowed source (serial sessions only;
    /// the source is mutated as assignments are committed).
    pub fn workload<S: EpochSource>(mut self, source: &'a mut S) -> Self {
        self.source = Some(source);
        self
    }

    /// Supplies a per-rank source constructor (`rank -> source`) for
    /// multi-rank sessions. Every rank must construct an identically
    /// seeded source. Also usable for serial sessions (rank 0 only).
    pub fn workload_factory<F, S>(mut self, f: F) -> Self
    where
        F: Fn(usize) -> S + Sync + 'a,
        S: EpochSource + 'a,
    {
        self.factory = Some(Box::new(move |rank| Box::new(f(rank))));
        self
    }

    /// Wraps the run in a [`dlb_trace`] session and writes the report in
    /// chrome://tracing format to `path` when the run finishes.
    pub fn trace_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Runs the session.
    pub fn run(self) -> Result<SimulationSummary, SessionError> {
        if self.trace_path.is_some() {
            return Ok(self.run_traced()?.0);
        }
        self.validate()?.execute()
    }

    /// Runs the session inside a fresh [`dlb_trace`] session and returns
    /// the report alongside the summary (writing it to the
    /// [`trace_to`](Session::trace_to) path, if one was set).
    pub fn run_traced(self) -> Result<(SimulationSummary, dlb_trace::TraceReport), SessionError> {
        let mut session = self.validate()?;
        let trace_path = session.trace_path.take();
        let trace = dlb_trace::session();
        let outcome = session.execute();
        let report = trace.finish();
        let summary = outcome?;
        if let Some(path) = trace_path {
            std::fs::write(&path, report.to_chrome_json())
                .map_err(|error| SessionError::TraceIo { path, error })?;
        }
        Ok((summary, report))
    }

    /// Runs the session collectively on an existing communicator (for
    /// callers already inside an SPMD world). Requires a borrowed
    /// [`workload`](Session::workload); `ranks` is taken from `comm`.
    pub fn run_on(mut self, comm: &mut Comm) -> Result<SimulationSummary, SessionError> {
        if self.trace_path.is_some() {
            return Err(SessionError::TraceInsideSpmd);
        }
        if self.incremental {
            return Err(SessionError::IncrementalNeedsSerial);
        }
        let source = self.source.take().ok_or(SessionError::NoWorkload)?;
        run_epochs(Some(comm), source, &self.params())
    }

    fn validate(self) -> Result<Self, SessionError> {
        if self.ranks == 0 {
            return Err(SessionError::ZeroRanks);
        }
        if self.source.is_none() && self.factory.is_none() {
            return Err(SessionError::NoWorkload);
        }
        if self.ranks > 1 && self.factory.is_none() {
            return Err(SessionError::RanksNeedFactory { ranks: self.ranks });
        }
        if self.incremental && (self.ranks > 1 || self.cfg.hypergraph.dist.distributed) {
            return Err(SessionError::IncrementalNeedsSerial);
        }
        Ok(self)
    }

    fn params(&self) -> EpochParams<'_> {
        EpochParams {
            num_epochs: self.epochs,
            algorithm: self.algorithm,
            alpha: self.alpha,
            cfg: &self.cfg,
            network: self.network.as_ref(),
            faults: self.faults.as_ref(),
            world: self.world.as_ref(),
            incremental: self
                .incremental
                .then_some(IncrementalPolicy { drift_threshold: self.drift_threshold }),
        }
    }

    fn execute(mut self) -> Result<SimulationSummary, SessionError> {
        let factory = self.factory.take();
        let source = self.source.take();
        let params = self.params();
        // The SPMD drivers (including the distributed one, which is
        // collective even at one rank) move sources across threads, so
        // they require a factory; a borrowed source runs the serial
        // driver.
        let Some(factory) = factory else {
            let source = source.ok_or(SessionError::NoWorkload)?;
            return run_epochs(None, source, &params);
        };
        if self.ranks > 1 || self.cfg.hypergraph.dist.distributed {
            let summaries = run_spmd(self.ranks, |comm| {
                let mut source = factory(comm.rank());
                run_epochs(Some(comm), &mut *source, &params)
            });
            return summaries.into_iter().next().expect("at least one rank");
        }
        run_epochs(None, &mut *factory(0), &params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graphpart::{partition_kway, GraphConfig};
    use dlb_workloads::{Dataset, DatasetKind, EpochStream, Perturbation};

    fn make_stream(k: usize, seed: u64) -> EpochStream {
        let d = Dataset::generate(DatasetKind::Auto, 0.0005, seed);
        let init = partition_kway(&d.graph, k, &GraphConfig::seeded(seed)).part;
        EpochStream::new(d.graph, Perturbation::structure(), k, init, seed)
    }

    #[test]
    fn serial_session_runs() {
        let mut stream = make_stream(2, 3);
        let s = Session::new(RepartConfig::seeded(3))
            .alpha(10.0)
            .epochs(2)
            .workload(&mut stream)
            .run()
            .unwrap();
        assert_eq!(s.reports.len(), 2);
        assert!(s.reports.iter().all(|r| r.execution.is_none()));
    }

    #[test]
    fn measured_session_populates_executions() {
        let mut stream = make_stream(2, 4);
        let s = Session::new(RepartConfig::seeded(4))
            .alpha(10.0)
            .epochs(2)
            .measured(true)
            .workload(&mut stream)
            .run()
            .unwrap();
        assert!(s.reports.iter().all(|r| r.execution.is_some()));
        assert!(s.mean_makespan().unwrap() > 0.0);
    }

    #[test]
    fn multirank_session_matches_serial() {
        let serial = Session::new(RepartConfig::seeded(5))
            .alpha(10.0)
            .epochs(2)
            .workload_factory(|_| make_stream(2, 5))
            .run()
            .unwrap();
        let parallel = Session::new(RepartConfig::seeded(5))
            .alpha(10.0)
            .epochs(2)
            .ranks(2)
            .workload_factory(|_| make_stream(2, 5))
            .run()
            .unwrap();
        // Both drive the same source; the collective partitioner may
        // differ from the serial one, but costs must be well-formed and
        // the epoch counts identical.
        assert_eq!(serial.reports.len(), parallel.reports.len());
        assert!(parallel.mean_normalized_total() > 0.0);
    }

    #[test]
    fn session_validation_errors() {
        let err = Session::new(RepartConfig::default()).run().unwrap_err();
        assert!(matches!(err, SessionError::NoWorkload), "{err}");

        let mut stream = make_stream(2, 6);
        let err = Session::new(RepartConfig::default())
            .ranks(2)
            .workload(&mut stream)
            .run()
            .unwrap_err();
        assert!(matches!(err, SessionError::RanksNeedFactory { ranks: 2 }), "{err}");

        let err = Session::new(RepartConfig::default())
            .ranks(0)
            .workload_factory(|_| make_stream(2, 6))
            .run()
            .unwrap_err();
        assert!(matches!(err, SessionError::ZeroRanks), "{err}");
    }

    #[test]
    fn incremental_needs_serial() {
        let err = Session::new(RepartConfig::default())
            .incremental(true)
            .ranks(2)
            .workload_factory(|_| make_stream(2, 6))
            .run()
            .unwrap_err();
        assert!(matches!(err, SessionError::IncrementalNeedsSerial), "{err}");

        let mut cfg = RepartConfig::default();
        cfg.hypergraph.dist.distributed = true;
        let err = Session::new(cfg)
            .incremental(true)
            .workload_factory(|_| make_stream(2, 6))
            .run()
            .unwrap_err();
        assert!(matches!(err, SessionError::IncrementalNeedsSerial), "{err}");
    }

    #[test]
    fn incremental_session_runs_on_fallback_sources() {
        // EpochStream has no native deltas; the default full-snapshot
        // fallback must keep incremental sessions working unchanged.
        let mut stream = make_stream(2, 12);
        let inc = Session::new(RepartConfig::seeded(12))
            .alpha(10.0)
            .epochs(2)
            .incremental(true)
            .workload(&mut stream)
            .run()
            .unwrap();
        let mut stream = make_stream(2, 12);
        let full = Session::new(RepartConfig::seeded(12))
            .alpha(10.0)
            .epochs(2)
            .workload(&mut stream)
            .run()
            .unwrap();
        for (a, b) in inc.reports.iter().zip(&full.reports) {
            assert_eq!(a.cost.comm, b.cost.comm);
            assert_eq!(a.cost.migration, b.cost.migration);
            assert_eq!(a.moved, b.moved);
        }
    }

    #[test]
    fn incremental_amr_session_counts_delta_epochs() {
        let k = 4;
        let amr = dlb_amr::AmrConfig::small();
        let stream = dlb_amr::AmrStream::new(amr, k, 41);
        let low = stream.initial_lowering();
        let init: Vec<_> = (0..low.graph.num_vertices()).map(|v| v % k).collect();
        let mut source = dlb_workloads::AmrSource::new(stream, &init);
        let trace = dlb_trace::session();
        let s = Session::new(RepartConfig::seeded(41))
            .alpha(10.0)
            .epochs(4)
            .incremental(true)
            .drift_threshold(1.0)
            .workload(&mut source)
            .run()
            .unwrap();
        let report = trace.finish();
        assert_eq!(s.reports.len(), 4);
        // Epoch 1 primes from the full snapshot; with the threshold
        // at 1.0 every later epoch warm-starts from its delta.
        assert_eq!(report.counter(dlb_trace::Counter::DeltaEpochs), 3);
        assert_eq!(report.counter(dlb_trace::Counter::FullRebuilds), 1);
        assert!(report.counter(dlb_trace::Counter::CellsPatched) > 0);
        assert!(report.find("delta.patch").is_some());
        assert!(report.find("partition.warm").is_some());
    }

    #[test]
    fn traced_session_returns_report() {
        let (s, report) = Session::new(RepartConfig::seeded(8))
            .alpha(10.0)
            .epochs(1)
            .workload_factory(|_| make_stream(2, 8))
            .run_traced()
            .unwrap();
        assert_eq!(s.reports.len(), 1);
        assert_eq!(report.counter(dlb_trace::Counter::Epochs), 1);
        assert!(report.find("repartition").is_some());
    }

    #[test]
    fn single_rank_distributed_session_runs_via_factory() {
        let mut cfg = RepartConfig::seeded(9);
        cfg.hypergraph.dist.distributed = true;
        let s = Session::new(cfg)
            .alpha(10.0)
            .epochs(1)
            .workload_factory(|_| make_stream(2, 9))
            .run()
            .unwrap();
        assert_eq!(s.reports.len(), 1);
    }
}
