//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 5).
//!
//! * [`run_sweep`] — the parameter-sweep runner behind Figures 2–8:
//!   datasets × perturbations × k × α × the four algorithms, averaged
//!   over trials.
//! * [`chart`] — text renderers: the paper's grouped stacked bars
//!   (communication bottom, migration top) as horizontal ASCII bars, and
//!   CSV output for downstream plotting.
//! * [`rmat_hypergraph`] — the power-law RMAT hypergraph generator the repo
//!   benchmark's `rmat_static` workload partitions.
//! * [`Flags`] — the strict flag parser the binaries share (bad input
//!   exits 2).
//! * Binaries: `table1` prints Table 1 (paper values vs generated
//!   datasets); `figures` regenerates any of Figures 2–8; `amr` runs the
//!   measured-makespan AMR sweep and writes `BENCH_amr.json`;
//!   `scalability` probes message counts over simulated rank counts.
//! * `benches/ablations.rs` — the design-choice ablations of DESIGN.md
//!   §7 (`cargo bench --bench ablations`).
//!
//! Nothing here gates performance: wall-clock and per-layer figures
//! come from the repo benchmark (`benchmark/`, BENCHMARK.json).
//!
//! Absolute numbers differ from the paper (synthetic datasets, simulated
//! ranks on one host) — the *shapes* are the reproduction target; see
//! EXPERIMENTS.md for the side-by-side reading.

#![forbid(unsafe_code)]
// Index-heavy kernels iterate several parallel arrays at once; classic
// indexed loops read better there than zipped iterator chains.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod chart;
mod experiment;
mod flags;
mod rmat;

pub use experiment::{run_sweep, Row, SweepConfig, TimingMode};
pub use flags::{Flags, DATASET_SCALE};
pub use rmat::rmat_hypergraph;
