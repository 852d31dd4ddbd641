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
}

impl Default for CoarseningConfig {
    fn default() -> Self {
        CoarseningConfig {
            coarse_to_factor: 20,
            min_coarse_vertices: 80,
            scaled_ipm: true,
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
/// A pass ends after `refine::MAX_NEGATIVE_STREAK` consecutive
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
        DistConfig {
            distributed: false,
            gather_threshold: 1024,
        }
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
    /// RNG seed; equal seeds give identical partitions.
    pub seed: u64,
    /// K-way scheme of the cold V-cycle, read on every execution context
    /// ([`crate::partition_fixed_on`] runs one pipeline serially and on a
    /// communicator).
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
    /// SPMD calls run the same cycles, with the restriction as one more
    /// admit test of the candidate rounds.
    pub num_vcycles: usize,
    /// Worker threads for the Fast matcher, the one kernel that runs on
    /// more than one thread. `0` means auto:
    /// [`std::thread::available_parallelism`]. Strict runs on one thread
    /// whatever this is, so no Strict partition depends on it.
    pub threads: usize,
    /// Reproducibility contract for the shared-memory kernels (see
    /// [`Determinism`]). `Strict` — the default — runs on one thread
    /// with bit-identical results; `Fast` trades that for concurrent
    /// matching on `threads` threads with quality bounds.
    pub determinism: Determinism,
    /// Allow [`crate::refine_partition_fixed`] (and
    /// [`crate::partition_fixed_on`] with a seed, on any execution
    /// context) to seed from a caller
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
        Config {
            seed,
            ..Config::default()
        }
    }

    /// The tolerance of constraint `c` (0 = primary). Constraints with
    /// no explicit auxiliary epsilon inherit the primary `epsilon`.
    pub(crate) fn epsilon_for(&self, c: usize) -> f64 {
        if c == 0 {
            self.epsilon
        } else {
            self.aux_epsilons
                .get(c - 1)
                .copied()
                .unwrap_or(self.epsilon)
        }
    }

    /// Checks the knobs for use with `k` parts. Call it at API
    /// boundaries (CLI, services): an invalid combination comes back as
    /// a [`ConfigError`] instead of a panic deep inside the partitioning
    /// drivers.
    ///
    /// ```
    /// use dlb_partitioner::{Config, ConfigError};
    ///
    /// let mut cfg = Config { epsilon: 0.03, ..Config::default() };
    /// cfg.dist.gather_threshold = 256;
    /// assert_eq!(cfg.validate(4), Ok(()));
    /// assert_eq!(cfg.validate(1), Err(ConfigError::InvalidK(1)));
    /// cfg.dist.gather_threshold = 0;
    /// assert_eq!(cfg.validate(4), Err(ConfigError::ZeroGatherThreshold));
    /// ```
    pub fn validate(&self, k: usize) -> Result<(), ConfigError> {
        if k < 2 {
            return Err(ConfigError::InvalidK(k));
        }
        if self.dist.gather_threshold == 0 {
            return Err(ConfigError::ZeroGatherThreshold);
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(ConfigError::InvalidEpsilon(self.epsilon));
        }
        if self.initial.num_attempts == 0 {
            return Err(ConfigError::ZeroAttempts);
        }
        if self.num_vcycles == 0 {
            return Err(ConfigError::ZeroVcycles);
        }
        for &e in &self.aux_epsilons {
            if !(e.is_finite() && e > 0.0) {
                return Err(ConfigError::InvalidEpsilon(e));
            }
        }
        Ok(())
    }
}

/// A knob combination [`Config::validate`] rejects.
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
        }
    }
}

impl std::error::Error for ConfigError {}

pub(crate) use dlb_hypergraph::{AuxTargets, PartTargets};

/// Assembles the k-way balance targets `cfg` implies for `h`: uniform
/// primary targets at `cfg.epsilon` — for a scalar hypergraph exactly
/// `PartTargets::uniform(h.total_vertex_weight(), k, cfg.epsilon)` —
/// plus, on a multi-constraint hypergraph, uniform [`AuxTargets`] for
/// each auxiliary load constraint at `Config::epsilon_for`.
pub fn targets_for(h: &dlb_hypergraph::Hypergraph, k: usize, cfg: &Config) -> PartTargets {
    let aux = (1..h.load_arity())
        .map(|c| AuxTargets::uniform(h.total_load(c), k, cfg.epsilon_for(c)))
        .collect();
    PartTargets::uniform(h.total_vertex_weight(), k, cfg.epsilon).with_aux(aux)
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
        let mut c = Config {
            epsilon: 0.03,
            seed: 7,
            threads: 2,
            ..Config::default()
        };
        c.dist.distributed = true;
        c.dist.gather_threshold = 256;
        assert_eq!(c.validate(8), Ok(()));
    }

    #[test]
    fn builder_rejects_invalid_knobs() {
        let ok = Config::default();
        assert_eq!(ok.validate(0), Err(ConfigError::InvalidK(0)));
        assert_eq!(ok.validate(1), Err(ConfigError::InvalidK(1)));
        let mut c = Config::default();
        c.dist.gather_threshold = 0;
        assert_eq!(c.validate(2), Err(ConfigError::ZeroGatherThreshold));
        let c = Config {
            epsilon: 0.0,
            ..Config::default()
        };
        assert_eq!(c.validate(2), Err(ConfigError::InvalidEpsilon(0.0)));
        let c = Config {
            epsilon: f64::NAN,
            ..Config::default()
        };
        assert!(matches!(c.validate(2), Err(ConfigError::InvalidEpsilon(e)) if e.is_nan()));
        let c = Config {
            num_vcycles: 0,
            ..Config::default()
        };
        assert_eq!(c.validate(2), Err(ConfigError::ZeroVcycles));
        let mut c = Config::default();
        c.initial.num_attempts = 0;
        assert_eq!(c.validate(2), Err(ConfigError::ZeroAttempts));
    }

    #[test]
    fn determinism_defaults_to_strict() {
        assert_eq!(Config::default().determinism, Determinism::Strict);
        let c = Config {
            determinism: Determinism::Fast,
            ..Config::default()
        };
        assert_eq!(c.validate(2), Ok(()));
    }

    #[test]
    fn builder_accepts_multi_constraint_knobs() {
        let c = Config {
            epsilon: 0.05,
            aux_epsilons: vec![0.10],
            ..Config::default()
        };
        assert_eq!(c.validate(2), Ok(()));
        assert_eq!(c.epsilon_for(0), 0.05);
        assert_eq!(c.epsilon_for(1), 0.10);
        assert_eq!(c.epsilon_for(9), 0.05); // falls back to primary
    }

    #[test]
    fn builder_rejects_multi_constraint_mismatches() {
        // Bad auxiliary epsilon.
        let c = Config {
            aux_epsilons: vec![-0.1],
            ..Config::default()
        };
        assert_eq!(c.validate(2), Err(ConfigError::InvalidEpsilon(-0.1)));
    }

    #[test]
    fn error_messages_are_actionable() {
        assert!(ConfigError::InvalidK(1).to_string().contains("at least 2"));
        assert!(ConfigError::ZeroGatherThreshold
            .to_string()
            .contains("at least 1"));
    }
}
