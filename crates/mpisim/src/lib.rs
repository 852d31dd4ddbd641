//! A simulated SPMD message-passing substrate.
//!
//! The paper's parallel partitioner runs on MPI over a 64-node cluster.
//! Rust MPI bindings are thin, so this crate substitutes a faithful
//! *simulated* message-passing machine: each MPI rank becomes an OS
//! thread, point-to-point messages travel over typed channels, and the
//! usual collectives (barrier, broadcast, gather, all-gather, reduce,
//! all-reduce, scan, all-to-all) are built on top of the point-to-point
//! layer exactly as an MPI implementation would build them. As with
//! MPI's point-to-point delivery, every message arrives: the channels
//! never drop or delay one, so there is no retransmit path.
//!
//! The substitution preserves what matters for reproducing the paper: the
//! partitioning algorithms are rank-symmetric SPMD programs whose quality
//! and communication *pattern* depend only on the messages exchanged and
//! the per-rank decisions, not on the physical wire. Because every
//! algorithm in the workspace runs on the same substrate, relative
//! runtime comparisons between the hypergraph and graph partitioners
//! remain meaningful.
//!
//! Repeated sparse exchanges reuse a prebuilt [`CommPlan`]; its
//! `send_counts`/`send_positions` accessors additionally support the
//! *incremental* idiom (ship only a dirty subset of the planned items
//! per round) that the distributed hypergraph's ghost halos are built
//! on — see `par::disthg` in `dlb-partitioner` and DESIGN.md §17.
//!
//! # Example
//!
//! ```
//! use dlb_mpisim::run_spmd;
//!
//! let results = run_spmd(4, |comm| {
//!     let sum: u64 = comm.allreduce(comm.rank() as u64, |a, b| a + b);
//!     sum
//! });
//! assert_eq!(results, vec![6, 6, 6, 6]);
//! ```

#![forbid(unsafe_code)]
// Index-heavy kernels iterate several parallel arrays at once; classic
// indexed loops read better there than zipped iterator chains.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod comm;
mod dist;
mod plan;
mod world;

pub use comm::{Comm, CommStats};
pub use dist::BlockDist;
pub use plan::CommPlan;
pub use world::run_spmd;
