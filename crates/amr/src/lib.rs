//! # dlb-amr — a real adaptive workload for the load balancer
//!
//! The paper's repartitioners are evaluated elsewhere in this repo on
//! synthetic perturbations of static graphs. This crate supplies the
//! workload the paper is actually about: an adaptive scientific
//! computation whose mesh changes every epoch.
//!
//! It simulates a deterministic 2D quadtree AMR mesh on the unit
//! square. Moving Gaussian [`Feature`]s drive an error indicator; each
//! epoch the mesh refines where the indicator is high and coarsens
//! where it has dropped, always restoring the standard 2:1 face-balance
//! invariant. Each epoch's leaf set is lowered ([`lower()`]) to the face
//! adjacency graph and its column-net hypergraph — vertex weight = time
//! sub-cycling work `2^(level − base)`, vertex size = migration payload
//! in bytes, net cost = ghost-exchange volume — and emitted through
//! [`AmrStream`] with per-vertex previous/creation parts, ready for the
//! repartitioning drivers in `dlb-core`.
//!
//! Everything is a deterministic function of ([`AmrConfig`], `k`,
//! seed): feature trajectories are closed-form after one seeded draw,
//! leaves live in a `BTreeSet` under a canonical [`Cell`] order, and
//! all lowered weights are integer-valued `f64`s so cost sums are exact
//! under any summation order.

#![forbid(unsafe_code)]

pub mod cell;
pub mod feature;
pub mod lower;
pub mod mesh;
pub mod stream;

pub use cell::{Cell, Direction};
pub use feature::{indicator, seeded_features, Feature};
pub use lower::{lower, LoweredMesh};
pub use mesh::QuadMesh;
pub use stream::{AmrDelta, AmrDeltaCell, AmrEpoch, AmrStream};

/// Parameters of the AMR simulation and its lowering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AmrConfig {
    /// Coarsest refinement level; the mesh never coarsens below the
    /// uniform `2^base × 2^base` grid.
    pub base_level: u8,
    /// Finest refinement level allowed.
    pub max_level: u8,
    /// Number of moving Gaussian features.
    pub num_features: usize,
    /// Gaussian width of each feature.
    pub sigma: f64,
    /// Feature speed in domain units per epoch.
    pub speed: f64,
    /// Refine a leaf whose center indicator exceeds this.
    pub refine_threshold: f64,
    /// Coarsen a quartet whose centers are all below this.
    pub coarsen_threshold: f64,
    /// Migration payload per cell in bytes (vertex size and net cost).
    pub state_bytes: f64,
    /// Emit two-constraint load vectors from [`lower()`]: constraint 0
    /// stays the sub-cycling flops weight `2^(level − base)`, constraint
    /// 1 is the cell's resident state in bytes (`state_bytes`). Off by
    /// default — the scalar lowering is bitwise unchanged, and flops
    /// remain the only balance constraint.
    pub multi_constraint: bool,
}

impl Default for AmrConfig {
    fn default() -> Self {
        AmrConfig {
            base_level: 4,
            max_level: 7,
            num_features: 2,
            sigma: 0.08,
            speed: 0.06,
            refine_threshold: 0.4,
            coarsen_threshold: 0.1,
            state_bytes: 40.0,
            multi_constraint: false,
        }
    }
}

impl AmrConfig {
    /// A smaller instance for quick tests and smoke runs.
    pub fn small() -> Self {
        AmrConfig { base_level: 3, max_level: 5, ..Self::default() }
    }

    /// Scales the default mesh resolution: `scale` adds that many levels
    /// to both base and max (clamped to the addressable range).
    pub fn for_scale(scale: u8) -> Self {
        let d = Self::default();
        AmrConfig {
            base_level: (d.base_level + scale).min(12),
            max_level: (d.max_level + scale).min(15),
            ..d
        }
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.base_level > self.max_level {
            return Err(format!(
                "base_level {} exceeds max_level {}",
                self.base_level, self.max_level
            ));
        }
        if self.max_level > 20 {
            return Err(format!("max_level {} exceeds addressable 20", self.max_level));
        }
        if self.num_features == 0 {
            return Err("num_features must be positive".into());
        }
        // NaN must fail every check, so each test names the accepting
        // range and rejects its complement plus NaN explicitly.
        if self.sigma <= 0.0 || self.sigma.is_nan() {
            return Err(format!("sigma must be positive, got {}", self.sigma));
        }
        if self.speed < 0.0 || self.speed.is_nan() {
            return Err(format!("speed must be non-negative, got {}", self.speed));
        }
        if self.refine_threshold <= self.coarsen_threshold
            || self.refine_threshold.is_nan()
            || self.coarsen_threshold.is_nan()
        {
            return Err(format!(
                "refine_threshold {} must exceed coarsen_threshold {}",
                self.refine_threshold, self.coarsen_threshold
            ));
        }
        if self.state_bytes <= 0.0 || self.state_bytes.is_nan() || self.state_bytes.fract() != 0.0 {
            return Err(format!(
                "state_bytes must be a positive integer-valued f64, got {}",
                self.state_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        AmrConfig::default().validate().unwrap();
        AmrConfig::small().validate().unwrap();
        AmrConfig::for_scale(2).validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let bad = AmrConfig { base_level: 8, max_level: 5, ..AmrConfig::default() };
        assert!(bad.validate().is_err());
        let bad = AmrConfig { refine_threshold: 0.1, coarsen_threshold: 0.4, ..AmrConfig::default() };
        assert!(bad.validate().is_err());
        let bad = AmrConfig { state_bytes: 40.5, ..AmrConfig::default() };
        assert!(bad.validate().is_err());
        let bad = AmrConfig { num_features: 0, ..AmrConfig::default() };
        assert!(bad.validate().is_err());
    }
}
