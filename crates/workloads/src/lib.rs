//! Synthetic datasets and dynamic perturbations for the repartitioning
//! experiments (Section 5 of the paper).
//!
//! The paper evaluates on five real matrices/graphs (Table 1). Those
//! datasets are not redistributable here, so [`Dataset`] provides
//! parameterized generators that reproduce each dataset's *regime* —
//! vertex/edge counts (scalable), degree distribution shape (min/max/avg
//! degree), and locality — which are the properties that drive the
//! paper's results (density separates hypergraph vs graph runtimes;
//! locality governs cut structure). See DESIGN.md §4 for the
//! substitution argument.
//!
//! [`Perturbation`] implements the paper's two synthetic dynamics verbatim:
//!
//! * **Structural perturbation** — each iteration deletes a *different*
//!   random subset of the original vertices (with incident edges), so
//!   data both disappears and (re)appears; the headline configuration
//!   makes half of the parts lose or gain 25% of the total vertex count.
//! * **Weight perturbation (simulated mesh refinement)** — each
//!   iteration picks 10% of the parts and scales the weight *and* size
//!   of every vertex in them by a random factor in `[1.5, 7.5]`.
//!
//! [`EpochStream`] packages either dynamic as a stream of
//! [`EpochSnapshot`]s ready for the repartitioning driver, and
//! [`EpochSource`] abstracts over epoch generators: the synthetic
//! [`EpochStream`] and the *real* adaptive workload of [`dlb_amr`]
//! (quadtree AMR, adapted by [`AmrSource`]) drive the same protocol.

#![forbid(unsafe_code)]
// Index-heavy kernels iterate several parallel arrays at once; classic
// indexed loops read better there than zipped iterator chains.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod datasets;
mod epoch;
mod nonsymmetric;
mod perturb;
mod source;

pub use datasets::{Dataset, DatasetKind};
pub use epoch::{EpochSnapshot, EpochStream};
pub use nonsymmetric::{directed_circuit, directed_comm_volume};
pub use perturb::{PerturbKind, Perturbation};
pub use source::{
    AmrSource, DeltaNet, DeltaReweight, DeltaVertex, EpochDelta, EpochSource, EpochUpdate,
};
