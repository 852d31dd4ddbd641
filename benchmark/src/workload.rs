//! The five workloads: what each one runs, and how its input is made
//! from the seed.

use std::time::Instant;

use dlb_amr::{AmrConfig, AmrStream};
use dlb_core::RepartConfig;
use dlb_graphpart::{partition_kway, GraphConfig};
use dlb_hypergraph::{CsrGraph, Hypergraph, PartId};
use dlb_partitioner::{Config, Determinism, Scheme};
use dlb_workloads::{AmrSource, Dataset, DatasetKind, EpochSource, EpochStream, Perturbation};

use crate::fingerprint::InputFingerprint;

/// Parts, imbalance tolerance and iterations per epoch, shared by all
/// workloads. α = 10 is the middle of the paper's grid, where both cost
/// terms matter.
pub const K: usize = 8;
pub const EPSILON: f64 = 0.05;
pub const ALPHA: f64 = 10.0;
/// Edge factor of the RMAT generator (as in `perf`'s RMAT section).
const RMAT_EDGE_FACTOR: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AmrEpochs,
    AmrIncremental,
    CageRepart,
    CageDist2,
    RmatStatic,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::AmrEpochs,
        Workload::AmrIncremental,
        Workload::CageRepart,
        Workload::CageDist2,
        Workload::RmatStatic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AmrEpochs => "amr_epochs",
            Workload::AmrIncremental => "amr_incremental",
            Workload::CageRepart => "cage_repart",
            Workload::CageDist2 => "cage_dist2",
            Workload::RmatStatic => "rmat_static",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::AmrEpochs => {
                "quadtree AMR stream, full re-lowering per epoch: sparse nets, coarsening dominates, FM second"
            }
            Workload::AmrIncremental => {
                "same AMR stream through deltas and warm starts: flat refine/rebalance dominates, no cold coarsening"
            }
            Workload::CageRepart => {
                "cage14 epoch stream, dense nets where coarsening stalls: FM does the work (gain-cache target)"
            }
            Workload::CageDist2 => {
                "the cage_repart stream at half the size on 2 simulated ranks: only workload running mpisim/disthg/par::dist"
            }
            Workload::RmatStatic => {
                "static partition of a power-law RMAT hypergraph beyond cache: matching+contraction, guards peak RSS"
            }
        }
    }

    /// A cycle is `instances` independent inputs, made from sub-seeds
    /// of `--seed`, each run for `ops` operations (epochs of a fresh
    /// source, or static partition calls): `(instances, ops)`.
    ///
    /// What an epoch costs depends on the input the seed makes: the AMR
    /// mesh on where the refinement features fall (one stream's wall
    /// per op is twice another's), a cage epoch on whether its
    /// perturbation needs the extra FM work (one in four takes half as
    /// long again). A cycle of those workloads therefore holds enough
    /// ops that their mean is steady from seed to seed. RMAT is
    /// statistically uniform, and its seconds-long memory-bound op is
    /// the one a busy neighbour on the host slows most, so its cycle is
    /// a single op and the run repeats it.
    pub fn shape(self, quick: bool) -> (usize, usize) {
        if quick {
            return (1, 2);
        }
        match self {
            Workload::AmrEpochs => (5, 3),
            Workload::AmrIncremental => (6, 16),
            Workload::CageRepart => (1, 3),
            Workload::CageDist2 => (1, 8),
            Workload::RmatStatic => (1, 1),
        }
    }

    /// Seconds of op time one cycle takes on the 2-core reference host.
    /// A run makes the whole number of cycles that comes nearest to
    /// `--seconds` (at least one): a count fixed by the flag, not by how
    /// fast the first cycle happened to run, so every run of a workload
    /// times the same ops the same number of times.
    pub fn cycle_seconds(self) -> f64 {
        match self {
            Workload::AmrEpochs => 20.0,
            Workload::AmrIncremental => 17.0,
            Workload::CageRepart => 16.0,
            Workload::CageDist2 => 10.0,
            Workload::RmatStatic => 6.8,
        }
    }

    /// The seed of instance `j`: instance 0 of seed 42 is the
    /// fingerprinted input.
    pub fn instance_seed(seed: u64, j: usize) -> u64 {
        seed.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9))
    }

    /// Simulated ranks the op loop runs on.
    pub fn ranks(self) -> usize {
        if self == Workload::CageDist2 {
            2
        } else {
            1
        }
    }

    /// The recorded shape and hash of the first op's hypergraph at seed
    /// 42, full size. A run at that seed that sees anything else aborts
    /// with "workload changed", so a generator edit cannot silently
    /// move a baseline.
    pub fn recorded_input(self) -> InputFingerprint {
        let (vertices, nets, pins, hash) = match self {
            Workload::AmrEpochs => (124_258, 124_258, 622_666, 0xc478_2fa3_3938_5a0b),
            Workload::AmrIncremental => (8_077, 8_077, 40_739, 0x68d0_1ea7_5ebc_a927),
            Workload::CageRepart => (22_587, 22_587, 336_743, 0x4949_73d7_5f85_fe2e),
            Workload::CageDist2 => (11_294, 11_294, 168_632, 0x7958_14ac_0392_606f),
            Workload::RmatStatic => (524_288, 234_144, 4_297_980, 0x464c_12e7_e055_f998),
        };
        InputFingerprint {
            vertices,
            nets,
            pins,
            hash,
        }
    }
}

/// The seed whose inputs are fingerprinted.
pub const DEFAULT_SEED: u64 = 42;

/// Epoch-driver configuration: direct k-way, 2 V-cycles, one thread,
/// Strict — so every number repeats and the only concurrency is what
/// the program itself spawns.
pub fn repart_config(w: Workload, seed: u64) -> RepartConfig {
    let mut cfg = RepartConfig::seeded(seed).with_epsilon(EPSILON);
    cfg.hypergraph.threads = 1;
    cfg.hypergraph.determinism = Determinism::Strict;
    cfg.hypergraph.dist.distributed = w == Workload::CageDist2;
    cfg
}

/// `perf`'s RMAT throughput profile: the quality-tuned defaults would
/// multiply the wall ~25x without changing what the workload stresses.
pub fn rmat_config(seed: u64) -> Config {
    let mut cfg = Config::seeded(seed);
    cfg.epsilon = EPSILON;
    cfg.scheme = Scheme::DirectKway;
    cfg.initial.num_attempts = 2;
    cfg.refinement.max_passes = 2;
    cfg.threads = 1;
    cfg.determinism = Determinism::Strict;
    cfg
}

/// A workload's input, ready for the first op.
pub enum Input {
    /// A primed AMR source; consumed by one cycle.
    Amr(AmrSource),
    /// The cage14 base graph and its initial partition; every cycle (and
    /// every rank) builds its own `EpochStream` from them.
    Cage {
        graph: CsrGraph,
        init: Vec<PartId>,
    },
    Rmat(Hypergraph),
}

impl Input {
    /// Whether a cycle can start from this input as it stands. A cycle
    /// advances an AMR source, so the next one needs a new set-up.
    pub fn is_fresh(&self) -> bool {
        match self {
            Input::Amr(source) => source.epochs_emitted() == 0,
            Input::Cage { .. } | Input::Rmat(_) => true,
        }
    }

    pub fn cage_stream(graph: &CsrGraph, init: &[PartId], seed: u64) -> EpochStream {
        EpochStream::new(
            graph.clone(),
            Perturbation::structure(),
            K,
            init.to_vec(),
            seed,
        )
    }
}

/// One timed set-up.
pub struct Setup {
    pub input: Input,
    pub setup_s: f64,
    /// Share of `setup_s` spent in `graphpart::partition_kway` (0 for
    /// `rmat_static`, which has no initial partition).
    pub initial_kway_s: f64,
}

/// Generates the input, the initial partition and the source.
pub fn setup(w: Workload, seed: u64, quick: bool) -> Setup {
    let start = Instant::now();
    let mut initial_kway_s = 0.0;
    let mut kway = |g: &CsrGraph| {
        let t = Instant::now();
        let part = partition_kway(g, K, &GraphConfig::seeded(seed)).part;
        initial_kway_s = t.elapsed().as_secs_f64();
        part
    };
    let input = match w {
        Workload::AmrEpochs | Workload::AmrIncremental => {
            let scale = match (quick, w) {
                (true, _) => 0,
                (false, Workload::AmrEpochs) => 3,
                (false, _) => 1,
            };
            let stream = AmrStream::new(AmrConfig::for_scale(scale), K, seed);
            let init = kway(&stream.initial_lowering().graph);
            Input::Amr(AmrSource::new(stream, &init))
        }
        Workload::CageRepart | Workload::CageDist2 => {
            // `cage_dist2` runs at half the size: its ops are short
            // enough that a run holds sixteen of them.
            let scale = match (quick, w) {
                (true, _) => 0.002,
                (false, Workload::CageRepart) => 0.02,
                (false, _) => 0.01,
            };
            let graph = Dataset::generate(DatasetKind::Cage14, scale, seed).graph;
            let init = kway(&graph);
            Input::Cage { graph, init }
        }
        Workload::RmatStatic => {
            let scale = if quick { 12 } else { 19 };
            Input::Rmat(dlb_bench::rmat_hypergraph(scale, RMAT_EDGE_FACTOR, seed))
        }
    };
    Setup {
        input,
        setup_s: start.elapsed().as_secs_f64(),
        initial_kway_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn amr_input_is_spent_by_an_epoch() {
        let mut s = setup(Workload::AmrEpochs, 7, true);
        assert!(s.input.is_fresh());
        assert!(s.initial_kway_s > 0.0 && s.initial_kway_s <= s.setup_s);
        if let Input::Amr(source) = &mut s.input {
            source.next_epoch();
        }
        assert!(!s.input.is_fresh());
    }
}
