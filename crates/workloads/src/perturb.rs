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

/// Perturbation parameters. Defaults are the headline configuration the
/// paper reports: structure — half the parts lose/gain 25% of the total
/// vertices; weights — 10% of parts scaled into `[1.5, 7.5]`.
#[derive(Clone, Debug)]
pub struct Perturbation {
    /// Which dynamic.
    pub kind: PerturbKind,
    /// Structure: fraction of the *total* vertex count deleted each
    /// epoch (paper: 0.25).
    pub delete_fraction: f64,
    /// Structure: fraction of parts the deletions are drawn from
    /// (paper: 0.5).
    pub structure_parts_fraction: f64,
    /// Weights: fraction of parts refined each epoch (paper: 0.1).
    pub weight_parts_fraction: f64,
    /// Weights: scaling factor range relative to original (paper:
    /// 1.5..7.5).
    pub factor_range: (f64, f64),
}

impl Perturbation {
    /// The paper's structural-perturbation configuration.
    pub fn structure() -> Self {
        Perturbation {
            kind: PerturbKind::Structure,
            delete_fraction: 0.25,
            structure_parts_fraction: 0.5,
            weight_parts_fraction: 0.1,
            factor_range: (1.5, 7.5),
        }
    }

    /// The paper's weight-perturbation (simulated AMR) configuration.
    pub fn weights() -> Self {
        Perturbation {
            kind: PerturbKind::Weights,
            ..Perturbation::structure()
        }
    }

    /// Validates parameter ranges.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.delete_fraction) {
            return Err("delete_fraction must be in [0, 1)".into());
        }
        if !(0.0..=1.0).contains(&self.structure_parts_fraction)
            || !(0.0..=1.0).contains(&self.weight_parts_fraction)
        {
            return Err("parts fractions must be in [0, 1]".into());
        }
        if self.factor_range.0 > self.factor_range.1 || self.factor_range.0 <= 0.0 {
            return Err("factor_range must be a positive, ordered interval".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let s = Perturbation::structure();
        assert_eq!(s.kind, PerturbKind::Structure);
        assert_eq!(s.delete_fraction, 0.25);
        assert_eq!(s.structure_parts_fraction, 0.5);
        let w = Perturbation::weights();
        assert_eq!(w.kind, PerturbKind::Weights);
        assert_eq!(w.weight_parts_fraction, 0.1);
        assert_eq!(w.factor_range, (1.5, 7.5));
        s.validate().unwrap();
        w.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let mut p = Perturbation::structure();
        p.delete_fraction = 1.5;
        assert!(p.validate().is_err());
        let mut p = Perturbation::weights();
        p.factor_range = (2.0, 1.0);
        assert!(p.validate().is_err());
    }
}
