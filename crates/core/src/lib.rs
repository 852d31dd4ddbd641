//! The repartitioning hypergraph model for dynamic load balancing — the
//! primary contribution of the paper (Section 3), plus the four-algorithm
//! comparison harness of Section 5.
//!
//! # The model
//!
//! An adaptive application alternates *epochs* of computation with
//! load-balance operations. Minimizing total execution time
//! `t_tot = α(t_comp + t_comm) + t_mig + t_repart` reduces (with balanced
//! computation and a fast repartitioner) to minimizing
//! `α·t_comm + t_mig`. The paper's insight: encode **both** terms in one
//! hypergraph and minimize them *directly* with hypergraph partitioning:
//!
//! * take the epoch hypergraph `H^j` and scale every communication net's
//!   cost by `α`;
//! * add one zero-weight **partition vertex** `u_i` per part, *fixed* to
//!   part `i`;
//! * add one **migration net** `{v, u_p}` per vertex `v`, where `p` is
//!   `v`'s part at the end of epoch `j−1` (or where `v` was created),
//!   with cost equal to `v`'s data size.
//!
//! Under the connectivity-1 metric, a vertex that stays home leaves its
//! migration net uncut (cost 0); a vertex that moves cuts it with
//! connectivity 2 (cost = its data size). So the k-1 cut of the
//! augmented hypergraph is **exactly** `α·(communication volume) +
//! (migration volume)` — see [`RepartitionHypergraph`] and the
//! identity test that reproduces the paper's worked example (cost 26).
//!
//! # The harness
//!
//! [`repartition`] runs the four algorithms compared in Section 5
//! (Zoltan-repart, Zoltan-scratch, ParMETIS-repart, ParMETIS-scratch —
//! the latter two via the reimplemented graph partitioner in
//! [`dlb_graphpart`]), [`remap_to_minimize_migration`] provides the
//! maximal-matching part relabeling used by the scratch methods,
//! [`CostBreakdown`] the cost accounting, and [`Session`] the
//! multi-epoch simulation loop over [`dlb_workloads`] streams.

#![forbid(unsafe_code)]
// Index-heavy kernels iterate several parallel arrays at once; classic
// indexed loops read better there than zipped iterator chains.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cost;
mod delta;
mod driver;
mod elastic;
mod epoch;
mod exec;
mod membership;
mod migrate;
mod model;
mod remap;
mod session;
mod spec;

pub use cost::CostBreakdown;
pub use delta::ModelPatcher;
pub use driver::repartition_parallel;
pub use driver::{repartition, Algorithm, RepartConfig, RepartProblem, RepartResult};
pub use elastic::{AuditLedger, AuditedSource, WorldPlan};
pub use epoch::SimulationSummary;
pub use exec::{measure_epoch, NetworkModel};
pub use migrate::{migrate_items, scatter_initial};
pub use model::RepartitionHypergraph;
pub use remap::remap_to_minimize_migration;
pub use session::{Session, SessionError, DEFAULT_DRIFT_THRESHOLD};
