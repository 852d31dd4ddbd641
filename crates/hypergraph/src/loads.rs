//! Typed multi-constraint vertex loads.
//!
//! Production placement balances several resources at once — CPU work,
//! memory footprint, bandwidth — so a vertex carries a small fixed-arity
//! *load vector* rather than a single scalar weight. [`VertexLoads`]
//! stores those vectors in structure-of-arrays (column-major) layout:
//! constraint `c`'s values for all `n` vertices are the contiguous slice
//! `data[c*n .. (c+1)*n]`. Constraint `0` is the *primary* load — the
//! computational weight every existing scalar code path reads — which
//! makes arity 1 a zero-cost fast path: the backing vector is exactly
//! the old `Vec<f64>` of weights, element for element.

use std::fmt;

/// A fixed-arity resource-vector assignment for `n` vertices.
///
/// Invariants: `arity >= 1`, `data.len() == arity * n`, every entry is
/// finite and non-negative (enforced by the mutating methods; bulk
/// constructors assert).
#[derive(Clone, PartialEq)]
pub struct VertexLoads {
    arity: usize,
    n: usize,
    /// Column-major: `data[c * n + v]` is constraint `c` of vertex `v`.
    data: Vec<f64>,
}

impl VertexLoads {
    /// Arity-1 loads of `1.0` for every vertex (the default weights).
    pub(crate) fn ones(n: usize) -> Self {
        VertexLoads {
            arity: 1,
            n,
            data: vec![1.0; n],
        }
    }

    /// Wraps a scalar weight vector as arity-1 loads (zero-copy).
    ///
    /// # Panics
    /// Panics on a negative or non-finite entry.
    pub fn from_scalar(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "loads must be finite and non-negative"
        );
        let n = weights.len();
        VertexLoads {
            arity: 1,
            n,
            data: weights,
        }
    }

    /// Builds loads from one column per constraint (`columns[c][v]`).
    ///
    /// # Panics
    /// Panics if `columns` is empty, the columns disagree in length, or
    /// any entry is negative or non-finite.
    pub fn from_columns(columns: Vec<Vec<f64>>) -> Self {
        assert!(!columns.is_empty(), "need at least one constraint column");
        let n = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == n),
            "constraint columns must agree in length"
        );
        let arity = columns.len();
        let mut data = Vec::with_capacity(arity * n);
        for col in columns {
            assert!(
                col.iter().all(|w| w.is_finite() && *w >= 0.0),
                "loads must be finite and non-negative"
            );
            data.extend(col);
        }
        VertexLoads { arity, n, data }
    }

    /// Number of balance constraints carried per vertex.
    #[inline]
    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// Number of vertices.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Constraint `c` of vertex `v`.
    #[inline]
    pub(crate) fn get(&self, v: usize, c: usize) -> f64 {
        self.data[c * self.n + v]
    }

    /// Sets constraint `c` of vertex `v`.
    ///
    /// # Panics
    /// Panics on a negative or non-finite value.
    #[inline]
    pub(crate) fn set(&mut self, v: usize, c: usize, w: f64) {
        assert!(
            w.is_finite() && w >= 0.0,
            "loads must be finite and non-negative"
        );
        self.data[c * self.n + v] = w;
    }

    /// The primary (constraint-0) load column — the scalar weights every
    /// single-constraint code path reads.
    #[inline]
    pub fn scalar(&self) -> &[f64] {
        &self.data[..self.n]
    }

    /// The load column of constraint `c`.
    #[inline]
    pub fn constraint(&self, c: usize) -> &[f64] {
        &self.data[c * self.n..(c + 1) * self.n]
    }

    /// Sum of constraint `c` over all vertices.
    pub(crate) fn total(&self, c: usize) -> f64 {
        self.constraint(c).iter().sum()
    }

    /// Per-constraint totals, indexed by constraint.
    #[cfg(test)]
    pub(crate) fn totals(&self) -> Vec<f64> {
        (0..self.arity).map(|c| self.total(c)).collect()
    }

    /// Checks the representation invariants (used by
    /// `Hypergraph::validate`).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.arity == 0 {
            return Err("load arity must be at least 1".into());
        }
        if self.data.len() != self.arity * self.n {
            return Err("load storage must be arity * num_vertices entries".into());
        }
        if self.data.iter().any(|&x| x < 0.0 || !x.is_finite()) {
            return Err("loads must be finite and non-negative".into());
        }
        Ok(())
    }
}

impl fmt::Debug for VertexLoads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VertexLoads")
            .field("arity", &self.arity)
            .field("len", &self.n)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_is_identity() {
        let w = vec![1.0, 2.5, 0.0, 4.0];
        let loads = VertexLoads::from_scalar(w.clone());
        assert_eq!(loads.arity(), 1);
        assert_eq!(loads.len(), 4);
        assert_eq!(loads.scalar(), &w[..]);
        assert_eq!(loads.constraint(0), &w[..]);
        assert_eq!(loads.total(0), 7.5);
    }

    #[test]
    fn columns_layout_is_soa() {
        let loads = VertexLoads::from_columns(vec![vec![1.0, 2.0], vec![10.0, 20.0]]);
        assert_eq!(loads.arity(), 2);
        assert_eq!(loads.get(0, 0), 1.0);
        assert_eq!(loads.get(1, 0), 2.0);
        assert_eq!(loads.get(0, 1), 10.0);
        assert_eq!(loads.get(1, 1), 20.0);
        assert_eq!(loads.scalar(), &[1.0, 2.0]);
        assert_eq!(loads.constraint(1), &[10.0, 20.0]);
        assert_eq!(loads.totals(), vec![3.0, 30.0]);
    }

    #[test]
    fn set_and_get() {
        let mut loads = VertexLoads::from_columns(vec![vec![0.0; 3]; 2]);
        loads.set(1, 1, 5.0);
        assert_eq!(loads.get(1, 1), 5.0);
        assert_eq!(loads.get(1, 0), 0.0);
        loads.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_load_rejected() {
        let mut loads = VertexLoads::ones(2);
        loads.set(0, 0, -1.0);
    }

    #[test]
    #[should_panic(expected = "agree in length")]
    fn ragged_columns_rejected() {
        let _ = VertexLoads::from_columns(vec![vec![1.0, 2.0], vec![1.0]]);
    }
}
