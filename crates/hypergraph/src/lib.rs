//! Hypergraph and graph data structures for dynamic load balancing.
//!
//! This crate is the data-structure substrate of the IPDPS'07 reproduction
//! *"Hypergraph-based Dynamic Load Balancing for Adaptive Scientific
//! Computations"*. It provides:
//!
//! * [`Hypergraph`] — a compressed (CSR-like) hypergraph carrying three
//!   distinct per-element quantities: typed per-vertex *loads*
//!   ([`VertexLoads`], a fixed-arity resource vector whose primary
//!   constraint is the computational weight and whose further constraints
//!   are additional balanced resources such as memory bytes), per-vertex
//!   *sizes* (migration data volume, the cost of a vertex's migration
//!   net), and per-net *costs* (communication data volume, the k-1 cut
//!   coefficient) — plus the pin transpose needed by partitioners. A
//!   k-way partition is *feasible* only when **every** load constraint is
//!   within its imbalance tolerance ([`PartTargets`]); arity 1
//!   reduces bitwise to the classic scalar-weight pipeline.
//! * [`CsrGraph`] — a symmetric weighted graph in compressed sparse row
//!   form, used by the ParMETIS-like baseline partitioner.
//! * [`metrics`] — partition-quality metrics: the connectivity-1 (*k-1*)
//!   cut of Eq. (2) of the paper, the cut-net metric, edge cut, part
//!   weights, imbalance, and migration volume.
//! * [`convert`] — graph ⇄ hypergraph model conversions (column-net model,
//!   edge-net model, clique expansion).
//! * [`subset`] — induced sub(hyper)graphs, used by the structural
//!   perturbation workload generator.
//! * [`io`] — simple text formats (PaToH-like hypergraph files and a
//!   MatrixMarket pattern reader).
//!
//! # Conventions
//!
//! Vertices, nets and parts are dense `usize` indices starting at zero.
//! A *k*-way partition is a `&[usize]` of length `num_vertices` with
//! entries in `0..k`. Weights, sizes and costs are `f64` because the
//! paper's weight-perturbation experiment scales them by factors drawn
//! from `U(1.5, 7.5)`.

#![forbid(unsafe_code)]
// Index-heavy kernels iterate several parallel arrays at once; classic
// indexed loops read better there than zipped iterator chains.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod balance;
pub mod convert;
mod graph;
mod hypergraph;
pub mod io;
mod loads;
pub mod metrics;
pub mod parallel;
pub mod subset;

pub use balance::{AuxTargets, PartTargets};
pub use graph::{CsrGraph, GraphBuilder};
pub use hypergraph::{Hypergraph, HypergraphBuilder};
pub use loads::VertexLoads;

/// A partition identifier. Parts are dense indices `0..k`.
pub type PartId = usize;
