//! # dlb-amr — a real adaptive workload for the load balancer
//!
//! The paper's repartitioners are evaluated elsewhere in this repo on
//! synthetic perturbations of static graphs. This crate supplies the
//! workload the paper is actually about: an adaptive scientific
//! computation whose mesh changes every epoch.
//!
//! It simulates a deterministic 2D quadtree AMR mesh on the unit
//! square. Moving Gaussian `Feature`s drive an error indicator; each
//! epoch the mesh refines where the indicator is high and coarsens
//! where it has dropped, always restoring the standard 2:1 face-balance
//! invariant. Each epoch's leaf set is lowered (`lower()`) to the face
//! adjacency graph and its column-net hypergraph — vertex weight = time
//! sub-cycling work `2^(level − base)`, vertex size = migration payload
//! in bytes, net cost = ghost-exchange volume — and emitted through
//! [`AmrStream`] with per-vertex previous/creation parts, ready for the
//! repartitioning drivers in `dlb-core`.
//!
//! Everything is a deterministic function of ([`AmrConfig`], `k`,
//! seed): feature trajectories are closed-form after one seeded draw,
//! every ordered output follows the canonical [`Cell`] order (the
//! hashed leaf index behind `QuadMesh` is only ever probed), and all
//! lowered weights are integer-valued `f64`s so cost sums are exact
//! under any summation order.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod cell;
mod feature;
mod lower;
mod mesh;
#[cfg(test)]
mod reference;
mod stream;

pub use cell::{Cell, CellMap};
pub use stream::AmrStream;

/// Parameters of the AMR simulation and its lowering.
///
/// The feature dynamics and the refinement thresholds are fixed
/// (`stream.rs`: two features of width 0.08 moving 0.06 per epoch,
/// refine above 0.4, coarsen below 0.1), and so is the 40-byte
/// migration payload per cell (`lower.rs`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AmrConfig {
    /// Coarsest refinement level; the mesh never coarsens below the
    /// uniform `2^base × 2^base` grid.
    pub base_level: u8,
    /// Finest refinement level allowed.
    pub max_level: u8,
    /// Emit two-constraint load vectors from `lower()`: constraint 0
    /// stays the sub-cycling flops weight `2^(level − base)`, constraint
    /// 1 is the cell's resident state in bytes (its migration payload). Off by
    /// default — the scalar lowering is bitwise unchanged, and flops
    /// remain the only balance constraint.
    pub multi_constraint: bool,
}

impl Default for AmrConfig {
    fn default() -> Self {
        AmrConfig {
            base_level: 4,
            max_level: 7,
            multi_constraint: false,
        }
    }
}

impl AmrConfig {
    /// A smaller instance for quick tests and smoke runs.
    pub fn small() -> Self {
        AmrConfig {
            base_level: 3,
            max_level: 5,
            ..Self::default()
        }
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
            return Err(format!(
                "max_level {} exceeds addressable 20",
                self.max_level
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
        let bad = AmrConfig {
            base_level: 8,
            max_level: 5,
            ..AmrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = AmrConfig {
            base_level: 21,
            max_level: 21,
            ..AmrConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
