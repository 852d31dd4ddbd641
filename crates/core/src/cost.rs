//! Cost accounting for repartitioning outcomes.
//!
//! The paper's objective (Section 1–3) is `t_tot ≈ α·t_comm + t_mig`.
//! Figures 2–6 report the *normalized* total cost
//! `t_comm + t_mig / α` (total divided by α), split into its
//! communication (bottom bar) and migration (top bar) components.

use dlb_hypergraph::{metrics, Hypergraph, PartId};

/// The two cost components of a repartitioning decision, plus α.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostBreakdown {
    /// Application communication volume per iteration: the k-1 cut of
    /// the epoch hypergraph under the new assignment (unscaled).
    pub comm: f64,
    /// Data migration volume: `Σ size(v)` over moved vertices.
    pub migration: f64,
    /// Iterations per epoch (the trade-off knob).
    pub alpha: f64,
}

impl CostBreakdown {
    /// Measures both components for a move from `old_part` to
    /// `new_part` on epoch hypergraph `h`.
    pub fn measure(
        h: &Hypergraph,
        old_part: &[PartId],
        new_part: &[PartId],
        k: usize,
        alpha: f64,
    ) -> Self {
        CostBreakdown {
            comm: metrics::cutsize_connectivity(h, new_part, k),
            migration: metrics::migration_volume(h.vertex_sizes(), old_part, new_part),
            alpha,
        }
    }

    /// Total cost `α·comm + migration`.
    pub fn total(&self) -> f64 {
        self.alpha * self.comm + self.migration
    }

    /// Normalized total cost `comm + migration/α`, the quantity plotted
    /// in Figures 2–6.
    pub(crate) fn normalized_total(&self) -> f64 {
        self.comm + self.migration / self.alpha
    }

    /// The migration component of the normalized total (`migration/α`,
    /// the top bar segment).
    pub(crate) fn normalized_migration(&self) -> f64 {
        self.migration / self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let c = CostBreakdown {
            comm: 4.0,
            migration: 6.0,
            alpha: 5.0,
        };
        assert_eq!(c.total(), 26.0);
        assert_eq!(c.normalized_total(), 4.0 + 1.2);
        assert_eq!(c.normalized_migration(), 1.2);
    }

    #[test]
    fn measure_matches_metrics() {
        let h = Hypergraph::from_nets_unit(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let old = vec![0, 0, 1, 1];
        let mut new = old.clone();
        new[1] = 1;
        let c = CostBreakdown::measure(&h, &old, &new, 2, 10.0);
        // Nets {0,1} cut; {1,2}, {2,3} internal to part 1.
        assert_eq!(c.comm, 1.0);
        assert_eq!(c.migration, 1.0);
        assert_eq!(c.total(), 11.0);
    }

    #[test]
    fn zero_migration_when_static() {
        let h = Hypergraph::from_nets_unit(2, &[vec![0, 1]]);
        let part = vec![0, 1];
        let c = CostBreakdown::measure(&h, &part, &part, 2, 1.0);
        assert_eq!(c.migration, 0.0);
        assert_eq!(c.total(), c.comm);
    }
}
