//! Fixed-vertex assignments.
//!
//! A [`FixedAssignment`] records, for each vertex, whether the vertex is
//! *fixed* to a specific part (it must end there) or *free*. The
//! repartitioning model of Section 3 fixes exactly the `k` partition
//! vertices; the partitioner honors arbitrary mixes of fixed and free
//! vertices, matching the three matching scenarios of Section 4.1.

use dlb_hypergraph::PartId;

const FREE: i64 = -1;

/// The matching constraint of Section 4.1 on two fixed parts (`None` =
/// free): vertices may merge unless they are fixed to different parts.
/// [`FixedAssignment::compatible`] for callers that hold the parts, not
/// the assignment.
#[inline]
pub(crate) fn compatible_parts(a: Option<PartId>, b: Option<PartId>) -> bool {
    a.is_none() || b.is_none() || a == b
}

/// Per-vertex fixed-part constraint. `None` means free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixedAssignment {
    fixed: Vec<i64>,
}

impl FixedAssignment {
    /// All `n` vertices free.
    pub fn free(n: usize) -> Self {
        FixedAssignment {
            fixed: vec![FREE; n],
        }
    }

    /// Builds from per-vertex options.
    pub fn from_options(opts: &[Option<PartId>]) -> Self {
        FixedAssignment {
            fixed: opts.iter().map(|o| o.map_or(FREE, |p| p as i64)).collect(),
        }
    }

    /// Number of vertices covered.
    pub(crate) fn len(&self) -> usize {
        self.fixed.len()
    }

    /// The part vertex `v` is fixed to, if any.
    #[inline]
    pub fn get(&self, v: usize) -> Option<PartId> {
        let f = self.fixed[v];
        (f >= 0).then_some(f as PartId)
    }

    /// True if `v` is fixed.
    #[inline]
    pub fn is_fixed(&self, v: usize) -> bool {
        self.fixed[v] >= 0
    }

    /// Fixes `v` to part `p`.
    pub fn fix(&mut self, v: usize, p: PartId) {
        self.fixed[v] = p as i64;
    }

    /// Number of fixed vertices.
    pub fn num_fixed(&self) -> usize {
        self.fixed.iter().filter(|&&f| f >= 0).count()
    }

    /// Largest fixed part id, if any vertex is fixed.
    pub(crate) fn max_part(&self) -> Option<PartId> {
        self.fixed
            .iter()
            .filter(|&&f| f >= 0)
            .max()
            .map(|&f| f as PartId)
    }

    /// The matching constraint of Section 4.1: two vertices may merge
    /// unless they are fixed to different parts.
    #[inline]
    pub(crate) fn compatible(&self, u: usize, v: usize) -> bool {
        // `v`'s entry is read only when `u` is fixed: a free vertex's
        // scan of its candidates reads nothing per candidate.
        let fu = self.fixed[u];
        fu < 0 || {
            let fv = self.fixed[v];
            fv < 0 || fu == fv
        }
    }

    /// The fixed part of a coarse vertex formed by merging `u` and `v`
    /// (caller must have checked `Self::compatible`): fixed wins over
    /// free; both-fixed must agree.
    #[cfg(test)]
    pub(crate) fn merged(&self, u: usize, v: usize) -> Option<PartId> {
        self.get(u).or_else(|| self.get(v))
    }

    /// True if `part` assigns every fixed vertex to its fixed part.
    pub fn is_respected_by(&self, part: &[PartId]) -> bool {
        part.len() == self.fixed.len()
            && (0..self.fixed.len()).all(|v| self.get(v).is_none_or(|p| part[v] == p))
    }

    /// Remaps fixed parts for one bisection step (Section 4.4): parts
    /// `0..split` fix to side 0, parts `split..` to side 1.
    pub(crate) fn bisection_sides(&self, split: PartId) -> FixedAssignment {
        FixedAssignment {
            fixed: self
                .fixed
                .iter()
                .map(|&f| {
                    if f < 0 {
                        FREE
                    } else if (f as PartId) < split {
                        0
                    } else {
                        1
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_and_fix() {
        let mut f = FixedAssignment::free(3);
        assert_eq!(f.num_fixed(), 0);
        assert!(!f.is_fixed(1));
        f.fix(1, 2);
        assert_eq!(f.get(1), Some(2));
        assert_eq!(f.num_fixed(), 1);
        assert_eq!(f.max_part(), Some(2));
        assert_eq!(f.get(0), None);
    }

    #[test]
    fn compatibility_matrix() {
        let mut f = FixedAssignment::free(4);
        f.fix(0, 1);
        f.fix(1, 1);
        f.fix(2, 2);
        // same part: ok; different parts: no; fixed-free: ok.
        assert!(f.compatible(0, 1));
        assert!(!f.compatible(0, 2));
        assert!(f.compatible(0, 3));
        assert!(f.compatible(3, 3));
    }

    #[test]
    fn merged_propagates_fixedness() {
        let mut f = FixedAssignment::free(3);
        f.fix(0, 2);
        assert_eq!(f.merged(0, 1), Some(2));
        assert_eq!(f.merged(1, 0), Some(2));
        assert_eq!(f.merged(1, 2), None);
    }

    #[test]
    fn respected_by() {
        let mut f = FixedAssignment::free(3);
        f.fix(2, 1);
        assert!(f.is_respected_by(&[0, 0, 1]));
        assert!(!f.is_respected_by(&[0, 0, 0]));
        assert!(!f.is_respected_by(&[0, 0])); // wrong length
    }

    #[test]
    fn bisection_sides_relabels() {
        let f = FixedAssignment::from_options(&[Some(0), Some(1), Some(2), Some(3), None]);
        let sides = f.bisection_sides(2);
        assert_eq!(sides.get(0), Some(0));
        assert_eq!(sides.get(1), Some(0));
        assert_eq!(sides.get(2), Some(1));
        assert_eq!(sides.get(3), Some(1));
        assert_eq!(sides.get(4), None);
    }

    #[test]
    fn from_options_roundtrip() {
        let opts = vec![None, Some(3), None];
        let f = FixedAssignment::from_options(&opts);
        assert_eq!(f.get(0), None);
        assert_eq!(f.get(1), Some(3));
        assert_eq!(f.len(), 3);
    }
}
