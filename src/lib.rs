//! Umbrella crate for the dynamic-load-balancing workspace.
//!
//! Re-exports the public API of every workspace crate under one roof so
//! that examples and downstream users can depend on a single crate:
//!
//! * [`hypergraph`] — data structures and metrics,
//! * [`mpisim`] — the simulated SPMD message-passing substrate,
//! * [`partitioner`] — multilevel hypergraph partitioning with fixed vertices,
//! * [`graphpart`] — the ParMETIS-like graph partitioner baseline,
//! * [`core`] — the repartitioning model and algorithm drivers,
//! * [`workloads`] — synthetic datasets and dynamic perturbations,
//! * [`amr`] — the quadtree AMR application simulator,
//! * [`trace`] — phase-level tracing and deterministic metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dlb_amr as amr;
pub use dlb_core as core;
pub use dlb_graphpart as graphpart;
pub use dlb_hypergraph as hypergraph;
pub use dlb_mpisim as mpisim;
pub use dlb_partitioner as partitioner;
pub use dlb_trace as trace;
pub use dlb_workloads as workloads;
