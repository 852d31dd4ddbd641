//! Per-part weight targets and balance caps.
//!
//! Both partitioners (hypergraph and graph) constrain part weights by
//! Eq. (1) of the paper: `W_p ≤ W_avg (1+ε)`. Recursive bisection
//! generalizes this to *proportional* targets — when `k` is odd, a side
//! receiving `⌈k/2⌉` of the final parts targets that fraction of the
//! total weight — so targets are absolute weights rather than `1/k`
//! shares.
//!
//! With multi-constraint loads ([`crate::loads::VertexLoads`]) the same
//! inequality applies to *every* constraint: the primary (constraint-0)
//! targets live in [`PartTargets::target`]/[`PartTargets::epsilon`] as
//! before, and each further constraint `c` carries its own
//! [`AuxTargets`] in [`PartTargets::aux`] (index `c − 1`). A partition
//! is *feasible* iff every constraint of every part is within its cap.
//! The scalar pipeline (arity 1) keeps `aux` empty, so nothing changes
//! for it — not even a float operation.

/// Targets and tolerance of one auxiliary balance constraint
/// (constraint `c ≥ 1` of the load vectors).
#[derive(Clone, Debug)]
pub struct AuxTargets {
    /// Target load per part for this constraint.
    pub target: Vec<f64>,
    /// Allowed relative overshoot for this constraint.
    pub epsilon: f64,
}

impl AuxTargets {
    /// Uniform targets: `total / k` per part.
    pub fn uniform(total: f64, k: usize, epsilon: f64) -> Self {
        AuxTargets {
            target: vec![total / k as f64; k],
            epsilon,
        }
    }

    /// Proportional targets from real-valued shares (e.g. the part
    /// counts of a recursive bisection's two sides): `total * shares[p]
    /// / Σ shares`.
    pub fn proportional(total: f64, shares: &[f64], epsilon: f64) -> Self {
        let sum: f64 = shares.iter().sum();
        assert!(sum > 0.0, "shares must be positive");
        AuxTargets {
            target: shares.iter().map(|&s| total * s / sum).collect(),
            epsilon,
        }
    }

    /// The hard cap for part `p`: `target[p] * (1 + ε)`.
    #[inline]
    pub fn cap(&self, p: usize) -> f64 {
        self.target[p] * (1.0 + self.epsilon)
    }

    /// The largest relative overshoot of any part (0 when every part is
    /// at or under target).
    pub fn violation(&self, weights: &[f64]) -> f64 {
        weights
            .iter()
            .zip(&self.target)
            .map(|(&w, &t)| if t > 0.0 { w / t - 1.0 } else { 0.0 })
            .fold(0.0, f64::max)
    }
}

/// Per-part target weights plus the allowed overshoot ε, for the
/// primary constraint and (optionally) auxiliary load constraints.
#[derive(Clone, Debug)]
pub struct PartTargets {
    /// Target weight per part; `Σ target` should equal the total vertex
    /// weight.
    pub target: Vec<f64>,
    /// Allowed relative overshoot: part `p` may weigh up to
    /// `target[p] * (1 + epsilon)`.
    pub epsilon: f64,
    /// Targets for auxiliary constraints `1..arity`; empty in the
    /// scalar (arity-1) pipeline.
    pub aux: Vec<AuxTargets>,
}

impl PartTargets {
    /// Uniform targets: `total / k` per part.
    pub fn uniform(total: f64, k: usize, epsilon: f64) -> Self {
        PartTargets {
            target: vec![total / k as f64; k],
            epsilon,
            aux: Vec::new(),
        }
    }

    /// Proportional targets: `total * shares[p] / Σ shares`.
    pub fn proportional(total: f64, shares: &[usize], epsilon: f64) -> Self {
        let sum: usize = shares.iter().sum();
        assert!(sum > 0, "shares must be positive");
        PartTargets {
            target: shares
                .iter()
                .map(|&s| total * s as f64 / sum as f64)
                .collect(),
            epsilon,
            aux: Vec::new(),
        }
    }

    /// Attaches auxiliary constraint targets (builder style).
    pub fn with_aux(mut self, aux: Vec<AuxTargets>) -> Self {
        for a in &aux {
            assert_eq!(
                a.target.len(),
                self.target.len(),
                "aux targets must cover every part"
            );
        }
        self.aux = aux;
        self
    }

    /// Number of parts.
    pub fn k(&self) -> usize {
        self.target.len()
    }

    /// Number of balance constraints (1 + auxiliary constraints).
    #[inline]
    pub fn arity(&self) -> usize {
        1 + self.aux.len()
    }

    /// The hard cap for part `p`: `target[p] * (1 + ε)`.
    #[inline]
    pub fn cap(&self, p: usize) -> f64 {
        self.target[p] * (1.0 + self.epsilon)
    }

    /// The hard cap of auxiliary constraint `c` (1-based constraint
    /// index, so `c ∈ 1..arity`) for part `p`.
    #[inline]
    pub fn aux_cap(&self, c: usize, p: usize) -> f64 {
        self.aux[c - 1].cap(p)
    }

    /// The largest relative overshoot of any part, `max_p W_p/target_p − 1`
    /// (0 when every part is at or under target).
    pub fn violation(&self, weights: &[f64]) -> f64 {
        weights
            .iter()
            .zip(&self.target)
            .map(|(&w, &t)| if t > 0.0 { w / t - 1.0 } else { 0.0 })
            .fold(0.0, f64::max)
    }

    /// True iff every part is within its cap on **every** constraint.
    /// `weights` holds the primary part weights, `aux_weights[c-1]` the
    /// part loads of auxiliary constraint `c` (same layout as `aux`).
    pub fn feasible(&self, weights: &[f64], aux_weights: &[Vec<f64>]) -> bool {
        assert_eq!(
            aux_weights.len(),
            self.aux.len(),
            "one weight row per aux constraint"
        );
        let slack = 1e-9;
        if weights
            .iter()
            .enumerate()
            .any(|(p, &w)| w > self.cap(p) + slack)
        {
            return false;
        }
        for (a, ws) in self.aux.iter().zip(aux_weights) {
            if ws.iter().enumerate().any(|(p, &w)| w > a.cap(p) + slack) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_targets() {
        let t = PartTargets::uniform(100.0, 4, 0.05);
        assert_eq!(t.k(), 4);
        assert_eq!(t.target, vec![25.0; 4]);
        assert!((t.cap(0) - 26.25).abs() < 1e-12);
        assert_eq!(t.arity(), 1);
        assert_eq!(t.arity(), 1);
    }

    #[test]
    fn proportional_targets() {
        let t = PartTargets::proportional(90.0, &[2, 1], 0.1);
        assert_eq!(t.target, vec![60.0, 30.0]);
    }

    #[test]
    fn violation_zero_when_under_target() {
        let t = PartTargets::uniform(100.0, 2, 0.05);
        assert_eq!(t.violation(&[50.0, 50.0]), 0.0);
        assert!((t.violation(&[60.0, 40.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shares must be positive")]
    fn zero_shares_panic() {
        let _ = PartTargets::proportional(1.0, &[0, 0], 0.05);
    }

    #[test]
    fn aux_targets_and_feasibility() {
        let t = PartTargets::uniform(100.0, 2, 0.05)
            .with_aux(vec![AuxTargets::uniform(800.0, 2, 0.10)]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.arity(), 2);
        assert!((t.aux_cap(1, 0) - 440.0).abs() < 1e-12);
        assert!(t.feasible(&[52.0, 48.0], &[vec![420.0, 380.0]]));
        // Primary fine, aux violated.
        assert!(!t.feasible(&[52.0, 48.0], &[vec![500.0, 300.0]]));
        // Aux fine, primary violated.
        assert!(!t.feasible(&[60.0, 40.0], &[vec![400.0, 400.0]]));
    }

    #[test]
    fn aux_proportional_capacity_shares() {
        let a = AuxTargets::proportional(120.0, &[3.0, 1.0], 0.0);
        assert_eq!(a.target, vec![90.0, 30.0]);
        assert!((a.violation(&[99.0, 21.0]) - 0.1).abs() < 1e-12);
    }
}
