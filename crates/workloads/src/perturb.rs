//! The paper's two synthetic dynamics (Section 5).

/// Which dynamic to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerturbKind {
    /// Biased random structural perturbation: each iteration deletes a
    /// different random subset of the base vertices (with incident
    /// edges) drawn from a randomly chosen half of the parts, so data
    /// both disappears and (re)appears.
    Structure,
    /// Weight scaling on a *static* structure: each iteration selects a
    /// fraction of the parts and scales the weight *and* size of every
    /// vertex in them by a random factor (relative to the original
    /// values). This is the paper's stand-in for mesh refinement — the
    /// graph never changes, only weights do. For a genuinely adaptive
    /// workload whose mesh refines and coarsens (and whose costs can be
    /// *measured*, not just modeled), use the quadtree AMR simulator in
    /// `crates/amr` via [`crate::source::AmrSource`].
    Weights,
}

/// Structure: fraction of the *total* vertex count deleted each epoch
/// (paper: 0.25).
pub(crate) const DELETE_FRACTION: f64 = 0.25;
/// Structure: fraction of parts the deletions are drawn from (paper: 0.5).
pub(crate) const STRUCTURE_PARTS_FRACTION: f64 = 0.5;
/// Weights: fraction of parts refined each epoch (paper: 0.1).
pub(crate) const WEIGHT_PARTS_FRACTION: f64 = 0.1;
/// Weights: scaling factor range relative to original (paper: 1.5..7.5).
pub(crate) const FACTOR_RANGE: (f64, f64) = (1.5, 7.5);

/// One of the paper's two dynamics at the headline configuration it
/// reports: structure — half the parts lose/gain 25% of the total
/// vertices; weights — 10% of parts scaled into `[1.5, 7.5]`.
#[derive(Clone, Debug)]
pub struct Perturbation {
    /// Which dynamic.
    pub kind: PerturbKind,
}

impl Perturbation {
    /// The paper's structural-perturbation configuration.
    pub fn structure() -> Self {
        Perturbation {
            kind: PerturbKind::Structure,
        }
    }

    /// The paper's weight-perturbation (simulated AMR) configuration.
    pub fn weights() -> Self {
        Perturbation {
            kind: PerturbKind::Weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        assert_eq!(Perturbation::structure().kind, PerturbKind::Structure);
        assert_eq!(Perturbation::weights().kind, PerturbKind::Weights);
        assert_eq!(DELETE_FRACTION, 0.25);
        assert_eq!(STRUCTURE_PARTS_FRACTION, 0.5);
        assert_eq!(WEIGHT_PARTS_FRACTION, 0.1);
        assert_eq!(FACTOR_RANGE, (1.5, 7.5));
    }
}
