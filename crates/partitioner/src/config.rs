//! Partitioner configuration.

/// How the k-way partition is produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scheme {
    /// Repeated bisection with fixed-part relabeling (Section 4.4).
    /// Zoltan's approach; the default.
    #[default]
    RecursiveBisection,
    /// Direct k-way multilevel V-cycle.
    DirectKway,
}

/// Reproducibility contract of the serial partitioner's matcher.
///
/// Under [`Determinism::Strict`] the whole pipeline runs on one thread —
/// greedy matching selection, contraction, FM, the metrics — so the
/// partition is **bit-identical run to run, whatever
/// [`Config::threads`] says**. Under [`Determinism::Fast`] the matcher
/// pairs vertices concurrently on [`Config::threads`] threads
/// with CAS on a shared mate array (deterministic tie-breaking by vertex
/// id within each candidate list), dropping the serial selection
/// barrier; the outcome depends on thread scheduling, so runs are not
/// bitwise-reproducible, but quality is bounded instead: the cut stays
/// within 10% of a Strict run (asserted by `tests/determinism_modes.rs`)
/// and the imbalance cap ε is enforced exactly as in Strict.
///
/// `Fast` with an effective thread count of 1 dispatches to the exact
/// Strict code path, so `Fast` at one thread *equals* Strict. The SPMD
/// (multi-rank) drivers always run the Strict kernels — their
/// collectives rely on rank-identical intermediate state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Determinism {
    /// One thread, bit-identical results (the default).
    #[default]
    Strict,
    /// Scheduling-dependent results with bounded quality: matching runs
    /// concurrently on `Config::threads` threads.
    Fast,
}

/// Coarsening-phase parameters (Section 4.1).
///
/// The rest of the phase is fixed: the stop rule's shrink threshold and
/// level cap are `coarsen::MIN_REDUCTION` and `coarsen::MAX_LEVELS`, and
/// the matcher skips nets over `matching::MAX_NET_SIZE_FOR_MATCHING`
/// pins.
#[derive(Clone, Debug)]
pub struct CoarseningConfig {
    /// Stop coarsening once the hypergraph has at most
    /// `coarse_to_factor * k` vertices (the paper suggests `2k`; a larger
    /// factor gives the coarse partitioner more room).
    pub coarse_to_factor: usize,
    /// Hard floor on coarse size regardless of `k`.
    pub min_coarse_vertices: usize,
    /// Scale each net's contribution to the inner product by
    /// `1/(|n|-1)` (PaToH-style heavy connectivity). Ablation toggle.
    pub scaled_ipm: bool,
    /// Parallel matching only: restrict each rank's candidates to
    /// rank-local partners, skipping the global candidate broadcast and
    /// best-match reduction. This is the speedup the paper proposes as
    /// future work ("using local IPM instead of global IPM") — faster,
    /// possibly slightly lower quality. Ignored by the serial matcher.
    pub local_ipm: bool,
}

impl Default for CoarseningConfig {
    fn default() -> Self {
        CoarseningConfig {
            coarse_to_factor: 20,
            min_coarse_vertices: 80,
            scaled_ipm: true,
            local_ipm: false,
        }
    }
}

/// Coarse-partitioning parameters (Section 4.2).
#[derive(Clone, Debug)]
pub struct InitialConfig {
    /// Number of randomized greedy-hypergraph-growing attempts; the best
    /// (by cut, tie-broken by balance) wins. The parallel partitioner
    /// uses one attempt per rank instead.
    pub num_attempts: usize,
}

impl Default for InitialConfig {
    fn default() -> Self {
        InitialConfig { num_attempts: 8 }
    }
}

/// Refinement-phase parameters (Section 4.3).
///
/// FM optimizes the connectivity-1 objective of Eq. (2) — the paper's
/// communication volume — and only that: the gains are written for it.
/// (`dlb_hypergraph::metrics::CutMetric` remains as an *evaluation*
/// metric.) A pass ends after `refine::MAX_NEGATIVE_STREAK` consecutive
/// non-improving moves.
#[derive(Clone, Debug)]
pub struct RefinementConfig {
    /// Maximum FM pass-pairs per level; passes stop early when a pass
    /// yields no improvement.
    pub max_passes: usize,
}

impl Default for RefinementConfig {
    fn default() -> Self {
        RefinementConfig { max_passes: 4 }
    }
}

/// Distributed-memory execution parameters (DESIGN.md §9).
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Hold the levels of the parallel V-cycle above
    /// `gather_threshold` in memory-scalable distributed form: pin
    /// storage is block-distributed across ranks (owner/ghost layout)
    /// instead of replicated. Off means no level is ever distributed
    /// (an infinite threshold). Results are bit-identical either way at
    /// any rank count.
    pub distributed: bool,
    /// Once the (distributed) hypergraph has at most this many
    /// vertices, it is gathered onto every rank and the remaining
    /// levels run the replicated code paths. Coarse hypergraphs are
    /// small, so this trades negligible memory for cheaper, local
    /// coarse-level work.
    pub gather_threshold: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig { distributed: false, gather_threshold: 1024 }
    }
}

/// Top-level partitioner configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Allowed imbalance ε of Eq. (1): every part must satisfy
    /// `W_p ≤ (1+ε) W_avg`. With multi-constraint loads this is the
    /// primary (constraint-0) tolerance.
    pub epsilon: f64,
    /// Tolerances for the auxiliary load constraints `1..arity`
    /// (`aux_epsilons[c-1]` for constraint `c`). Empty in the scalar
    /// pipeline. Constraints beyond this list fall back to `epsilon`.
    pub aux_epsilons: Vec<f64>,
    /// Per-part capacity vectors for heterogeneous ranks:
    /// `part_capacities[p][c]` is part `p`'s capacity share of
    /// constraint `c`. Targets become proportional to the capacity
    /// column instead of uniform. `None` (the default) keeps uniform
    /// targets.
    pub part_capacities: Option<Vec<Vec<f64>>>,
    /// RNG seed; equal seeds give identical partitions.
    pub seed: u64,
    /// K-way scheme.
    pub scheme: Scheme,
    /// Coarsening parameters.
    pub coarsening: CoarseningConfig,
    /// Coarse-partitioning parameters.
    pub initial: InitialConfig,
    /// Refinement parameters.
    pub refinement: RefinementConfig,
    /// Total V-cycles. The first builds the partition from scratch;
    /// each additional cycle re-coarsens *within* the current parts
    /// (keeping the partition representable at every level) and refines
    /// the projection — PaToH/Zoltan's iterated-V-cycle quality knob.
    /// The result of an extra cycle is kept only if it improves the cut.
    pub num_vcycles: usize,
    /// Worker threads for the Fast matcher, the one kernel that runs on
    /// more than one thread. `0` means auto: the `DLB_THREADS`
    /// environment variable if set, else
    /// [`std::thread::available_parallelism`]. Strict runs on one thread
    /// whatever this is, so no Strict partition depends on it.
    pub threads: usize,
    /// Reproducibility contract for the shared-memory kernels (see
    /// [`Determinism`]). `Strict` — the default — runs on one thread
    /// with bit-identical results; `Fast` trades that for concurrent
    /// matching on `threads` threads with quality bounds.
    pub determinism: Determinism,
    /// Allow [`crate::refine_partition_fixed`] to seed from a caller
    /// partition and run refine-only (part-restricted) V-cycles instead
    /// of the full coarsen→initial→refine pipeline. When `false` the
    /// warm entry falls back to the full pipeline, so a disabled knob
    /// reproduces today's behavior bit for bit.
    pub warm_start: bool,
    /// Distributed-memory execution parameters.
    pub dist: DistConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            epsilon: 0.05,
            aux_epsilons: Vec::new(),
            part_capacities: None,
            seed: 0,
            scheme: Scheme::default(),
            coarsening: CoarseningConfig::default(),
            initial: InitialConfig::default(),
            refinement: RefinementConfig::default(),
            num_vcycles: 1,
            threads: 0,
            determinism: Determinism::default(),
            warm_start: false,
            dist: DistConfig::default(),
        }
    }
}

impl Config {
    /// The default configuration with a specific seed.
    pub fn seeded(seed: u64) -> Self {
        Config { seed, ..Config::default() }
    }

    /// The tolerance of constraint `c` (0 = primary). Constraints with
    /// no explicit auxiliary epsilon inherit the primary `epsilon`.
    pub fn epsilon_for(&self, c: usize) -> f64 {
        if c == 0 {
            self.epsilon
        } else {
            self.aux_epsilons.get(c - 1).copied().unwrap_or(self.epsilon)
        }
    }

    /// A validating builder over the default configuration. Prefer this
    /// at API boundaries (CLI, services): invalid knob combinations come
    /// back as a [`ConfigError`] instead of a panic deep inside the
    /// partitioning drivers.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder { cfg: Config::default(), k: None }
    }
}

/// A rejected [`ConfigBuilder`] knob combination.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `k < 2`: partitioning into fewer than two parts is a no-op the
    /// drivers are not meant for.
    InvalidK(usize),
    /// `gather_threshold == 0`: the distributed driver could then never
    /// gather, and degenerate coarse hypergraphs would stay distributed.
    ZeroGatherThreshold,
    /// `epsilon` must be positive and finite (Eq. (1) is vacuous or
    /// unsatisfiable otherwise).
    InvalidEpsilon(f64),
    /// `num_attempts == 0`: coarse partitioning needs at least one
    /// greedy-growing attempt.
    ZeroAttempts,
    /// `num_vcycles == 0`: the first V-cycle builds the partition, so at
    /// least one is required.
    ZeroVcycles,
    /// Constraint-arity mismatch: capacity rows disagree in length, or
    /// the capacity row count does not match the part count `k`.
    ArityMismatch {
        /// The arity (or part count) the rest of the configuration
        /// implies.
        expected: usize,
        /// The conflicting count actually supplied.
        got: usize,
    },
    /// A per-part capacity entry is zero, negative, or non-finite — no
    /// load could ever be placed under it.
    NonPositiveCapacity(f64),
    /// The number of epsilons (1 primary + auxiliaries) differs from the
    /// constraint arity implied by the capacity vectors.
    EpsilonCountMismatch {
        /// Epsilons supplied (primary + auxiliary).
        epsilons: usize,
        /// Constraint arity of the capacity vectors.
        arity: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidK(k) => write!(f, "k must be at least 2, got {k}"),
            ConfigError::ZeroGatherThreshold => {
                write!(f, "gather-threshold must be at least 1")
            }
            ConfigError::InvalidEpsilon(e) => {
                write!(f, "epsilon must be positive and finite, got {e}")
            }
            ConfigError::ZeroAttempts => write!(f, "initial attempts must be at least 1"),
            ConfigError::ZeroVcycles => write!(f, "num_vcycles must be at least 1"),
            ConfigError::ArityMismatch { expected, got } => {
                write!(f, "constraint arity mismatch: expected {expected}, got {got}")
            }
            ConfigError::NonPositiveCapacity(c) => {
                write!(f, "part capacities must be positive and finite, got {c}")
            }
            ConfigError::EpsilonCountMismatch { epsilons, arity } => {
                write!(
                    f,
                    "epsilon count ({epsilons}) must equal the constraint arity ({arity}) \
                     of the part capacities"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`Config`] (see [`Config::builder`]).
///
/// Unifies the top-level knobs, the [`DistConfig`] sub-config, and the
/// Fast matcher's `threads`/`DLB_THREADS` worker count behind one checked
/// constructor:
///
/// ```
/// use dlb_partitioner::config::{Config, ConfigError};
///
/// let cfg = Config::builder().k(4).epsilon(0.03).gather_threshold(256).build().unwrap();
/// assert_eq!(cfg.dist.gather_threshold, 256);
/// assert_eq!(Config::builder().k(1).build().unwrap_err(), ConfigError::InvalidK(1));
/// assert_eq!(
///     Config::builder().gather_threshold(0).build().unwrap_err(),
///     ConfigError::ZeroGatherThreshold
/// );
/// ```
#[derive(Clone, Debug)]
pub struct ConfigBuilder {
    cfg: Config,
    k: Option<usize>,
}

impl ConfigBuilder {
    /// Part count this configuration will be used with; validated
    /// (`k >= 2`) but not stored — the partitioning calls still take `k`
    /// explicitly.
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Allowed imbalance ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.cfg.epsilon = epsilon;
        self
    }

    /// Per-constraint imbalance tolerances: `epsilons[0]` is the primary
    /// ε, the rest become [`Config::aux_epsilons`]. An empty slice
    /// leaves the configuration unchanged.
    pub fn epsilons(mut self, epsilons: &[f64]) -> Self {
        if let Some((&first, rest)) = epsilons.split_first() {
            self.cfg.epsilon = first;
            self.cfg.aux_epsilons = rest.to_vec();
        }
        self
    }

    /// Per-part capacity vectors (`capacities[p][c]`) for heterogeneous
    /// ranks ([`Config::part_capacities`]).
    pub fn part_capacities(mut self, capacities: Vec<Vec<f64>>) -> Self {
        self.cfg.part_capacities = Some(capacities);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Total V-cycles (see [`Config::num_vcycles`]).
    pub fn num_vcycles(mut self, num_vcycles: usize) -> Self {
        self.cfg.num_vcycles = num_vcycles;
        self
    }

    /// Worker threads for the Fast matcher ([`Config::threads`]; `0` =
    /// auto: `DLB_THREADS`, then [`std::thread::available_parallelism`]).
    /// Strict ignores it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Reproducibility contract ([`Config::determinism`]).
    pub fn determinism(mut self, determinism: Determinism) -> Self {
        self.cfg.determinism = determinism;
        self
    }

    /// Route through the memory-scalable distributed driver
    /// ([`DistConfig::distributed`]).
    pub fn distributed(mut self, on: bool) -> Self {
        self.cfg.dist.distributed = on;
        self
    }

    /// Replication threshold of the distributed driver
    /// ([`DistConfig::gather_threshold`]).
    pub fn gather_threshold(mut self, gather_threshold: usize) -> Self {
        self.cfg.dist.gather_threshold = gather_threshold;
        self
    }

    /// Validates the assembled configuration.
    pub fn build(self) -> Result<Config, ConfigError> {
        if let Some(k) = self.k {
            if k < 2 {
                return Err(ConfigError::InvalidK(k));
            }
        }
        if self.cfg.dist.gather_threshold == 0 {
            return Err(ConfigError::ZeroGatherThreshold);
        }
        if !(self.cfg.epsilon.is_finite() && self.cfg.epsilon > 0.0) {
            return Err(ConfigError::InvalidEpsilon(self.cfg.epsilon));
        }
        if self.cfg.initial.num_attempts == 0 {
            return Err(ConfigError::ZeroAttempts);
        }
        if self.cfg.num_vcycles == 0 {
            return Err(ConfigError::ZeroVcycles);
        }
        for &e in &self.cfg.aux_epsilons {
            if !(e.is_finite() && e > 0.0) {
                return Err(ConfigError::InvalidEpsilon(e));
            }
        }
        if let Some(caps) = &self.cfg.part_capacities {
            if caps.is_empty() {
                return Err(ConfigError::ArityMismatch { expected: self.k.unwrap_or(2), got: 0 });
            }
            let arity = caps[0].len();
            if arity == 0 {
                return Err(ConfigError::ArityMismatch { expected: 1, got: 0 });
            }
            for row in caps {
                if row.len() != arity {
                    return Err(ConfigError::ArityMismatch { expected: arity, got: row.len() });
                }
                for &c in row {
                    if !(c.is_finite() && c > 0.0) {
                        return Err(ConfigError::NonPositiveCapacity(c));
                    }
                }
            }
            if let Some(k) = self.k {
                if caps.len() != k {
                    return Err(ConfigError::ArityMismatch { expected: k, got: caps.len() });
                }
            }
            let epsilons = 1 + self.cfg.aux_epsilons.len();
            if epsilons != arity {
                return Err(ConfigError::EpsilonCountMismatch { epsilons, arity });
            }
        }
        Ok(self.cfg)
    }
}

pub use dlb_hypergraph::balance::{AuxTargets, PartTargets};

/// Assembles the k-way balance targets `cfg` implies for `h`.
///
/// * Scalar hypergraph, no capacities: exactly
///   `PartTargets::uniform(h.total_vertex_weight(), k, cfg.epsilon)` —
///   the classic pipeline's targets, bit for bit.
/// * Multi-constraint hypergraph: one [`AuxTargets`] per auxiliary load
///   constraint of `h`, with tolerance [`Config::epsilon_for`].
/// * With [`Config::part_capacities`]: targets become proportional to
///   the capacity column of each constraint (`target_c[p] =
///   total_c · caps[p][c] / Σ_q caps[q][c]`). A constraint beyond the
///   capacity arity falls back to the primary capacity column.
///
/// # Panics
/// Panics if capacities are present with a row count other than `k`
/// (use [`Config::builder`] to surface this as a [`ConfigError`]).
pub fn targets_for(h: &dlb_hypergraph::Hypergraph, k: usize, cfg: &Config) -> PartTargets {
    let arity = h.load_arity();
    let col = |caps: &[Vec<f64>], c: usize| -> Vec<f64> {
        caps.iter().map(|row| row.get(c).copied().unwrap_or(row[0])).collect()
    };
    let mut targets = match &cfg.part_capacities {
        None => PartTargets::uniform(h.total_vertex_weight(), k, cfg.epsilon),
        Some(caps) => {
            assert_eq!(caps.len(), k, "part_capacities must have one row per part");
            PartTargets::proportional_f64(h.total_vertex_weight(), &col(caps, 0), cfg.epsilon)
        }
    };
    if arity > 1 {
        let aux = (1..arity)
            .map(|c| {
                let eps = cfg.epsilon_for(c);
                match &cfg.part_capacities {
                    None => AuxTargets::uniform(h.total_load(c), k, eps),
                    Some(caps) => AuxTargets::proportional(h.total_load(c), &col(caps, c), eps),
                }
            })
            .collect();
        targets = targets.with_aux(aux);
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = Config::default();
        assert_eq!(c.scheme, Scheme::RecursiveBisection);
        assert!((crate::coarsen::MIN_REDUCTION - 0.10).abs() < 1e-12);
        assert!(c.epsilon > 0.0);
    }

    #[test]
    fn seeded_only_changes_seed() {
        let c = Config::seeded(99);
        assert_eq!(c.seed, 99);
        assert_eq!(c.epsilon, Config::default().epsilon);
    }

    #[test]
    fn builder_accepts_valid_combinations() {
        let c = Config::builder()
            .k(8)
            .epsilon(0.03)
            .seed(7)
            .threads(2)
            .distributed(true)
            .gather_threshold(256)
            .build()
            .unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.threads, 2);
        assert!(c.dist.distributed);
        assert_eq!(c.dist.gather_threshold, 256);
    }

    #[test]
    fn builder_rejects_invalid_knobs() {
        assert_eq!(Config::builder().k(0).build().unwrap_err(), ConfigError::InvalidK(0));
        assert_eq!(Config::builder().k(1).build().unwrap_err(), ConfigError::InvalidK(1));
        assert_eq!(
            Config::builder().gather_threshold(0).build().unwrap_err(),
            ConfigError::ZeroGatherThreshold
        );
        assert_eq!(
            Config::builder().epsilon(0.0).build().unwrap_err(),
            ConfigError::InvalidEpsilon(0.0)
        );
        assert!(matches!(
            Config::builder().epsilon(f64::NAN).build().unwrap_err(),
            ConfigError::InvalidEpsilon(e) if e.is_nan()
        ));
        assert_eq!(
            Config::builder().num_vcycles(0).build().unwrap_err(),
            ConfigError::ZeroVcycles
        );
    }

    #[test]
    fn determinism_defaults_to_strict() {
        assert_eq!(Config::default().determinism, Determinism::Strict);
        let c = Config::builder().determinism(Determinism::Fast).build().unwrap();
        assert_eq!(c.determinism, Determinism::Fast);
    }

    #[test]
    fn builder_accepts_multi_constraint_knobs() {
        let c = Config::builder()
            .k(2)
            .epsilons(&[0.05, 0.10])
            .part_capacities(vec![vec![2.0, 16.0], vec![1.0, 8.0]])
            .build()
            .unwrap();
        assert_eq!(c.epsilon, 0.05);
        assert_eq!(c.aux_epsilons, vec![0.10]);
        assert_eq!(c.epsilon_for(0), 0.05);
        assert_eq!(c.epsilon_for(1), 0.10);
        assert_eq!(c.epsilon_for(9), 0.05); // falls back to primary
        assert_eq!(c.part_capacities.unwrap().len(), 2);
    }

    #[test]
    fn builder_rejects_multi_constraint_mismatches() {
        // Ragged capacity rows.
        assert_eq!(
            Config::builder()
                .epsilons(&[0.05, 0.05])
                .part_capacities(vec![vec![1.0, 1.0], vec![1.0]])
                .build()
                .unwrap_err(),
            ConfigError::ArityMismatch { expected: 2, got: 1 }
        );
        // Row count must match k.
        assert_eq!(
            Config::builder()
                .k(3)
                .part_capacities(vec![vec![1.0], vec![1.0]])
                .build()
                .unwrap_err(),
            ConfigError::ArityMismatch { expected: 3, got: 2 }
        );
        // Non-positive capacity.
        assert_eq!(
            Config::builder()
                .k(2)
                .part_capacities(vec![vec![1.0], vec![0.0]])
                .build()
                .unwrap_err(),
            ConfigError::NonPositiveCapacity(0.0)
        );
        // Epsilon count must equal capacity arity.
        assert_eq!(
            Config::builder()
                .k(2)
                .epsilons(&[0.05])
                .part_capacities(vec![vec![1.0, 2.0], vec![1.0, 2.0]])
                .build()
                .unwrap_err(),
            ConfigError::EpsilonCountMismatch { epsilons: 1, arity: 2 }
        );
        // Bad auxiliary epsilon.
        assert_eq!(
            Config::builder().epsilons(&[0.05, -0.1]).build().unwrap_err(),
            ConfigError::InvalidEpsilon(-0.1)
        );
    }

    #[test]
    fn error_messages_are_actionable() {
        assert!(ConfigError::InvalidK(1).to_string().contains("at least 2"));
        assert!(ConfigError::ZeroGatherThreshold.to_string().contains("at least 1"));
    }
}
