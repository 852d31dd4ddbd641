//! Block distribution of a global index space across ranks.
//!
//! The parallel partitioner distributes vertex *ownership* by contiguous
//! blocks (a 1D distribution; see DESIGN.md §4 for why this simplification
//! of Zoltan's 2D layout preserves the paper's algorithmic behaviour).

/// A contiguous block distribution of `n` items over `p` ranks.
///
/// The first `n % p` ranks own one extra item, so block sizes differ by at
/// most one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockDist {
    n: usize,
    p: usize,
}

impl BlockDist {
    /// Creates a distribution of `n` items over `p > 0` ranks.
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p > 0, "need at least one rank");
        BlockDist { n, p }
    }

    /// Total number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the index space is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The half-open index range owned by `rank`.
    pub fn range(&self, rank: usize) -> std::ops::Range<usize> {
        assert!(rank < self.p, "rank out of range");
        let base = self.n / self.p;
        let extra = self.n % self.p;
        let start = rank * base + rank.min(extra);
        let len = base + usize::from(rank < extra);
        start..start + len
    }

    /// Number of items owned by `rank`.
    #[cfg(test)]
    pub(crate) fn count(&self, rank: usize) -> usize {
        self.range(rank).len()
    }

    /// The rank that owns global index `i`.
    pub fn owner(&self, i: usize) -> usize {
        assert!(i < self.n, "index out of range");
        let base = self.n / self.p;
        let extra = self.n % self.p;
        let boundary = extra * (base + 1);
        if i < boundary {
            i / (base + 1)
        } else {
            extra + (i - boundary) / base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_index_space() {
        for n in [0usize, 1, 7, 10, 64, 100] {
            for p in [1usize, 2, 3, 7, 16] {
                let d = BlockDist::new(n, p);
                let mut next = 0;
                for r in 0..p {
                    let range = d.range(r);
                    assert_eq!(range.start, next, "n={n} p={p} r={r}");
                    next = range.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn owner_agrees_with_range() {
        for n in [1usize, 9, 31, 100] {
            for p in [1usize, 2, 5, 8] {
                let d = BlockDist::new(n, p);
                for i in 0..n {
                    let r = d.owner(i);
                    assert!(d.range(r).contains(&i), "n={n} p={p} i={i} r={r}");
                }
            }
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        let d = BlockDist::new(10, 4);
        let counts: Vec<usize> = (0..4).map(|r| d.count(r)).collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
    }

    #[test]
    fn more_ranks_than_items() {
        let d = BlockDist::new(2, 5);
        assert_eq!(d.count(0), 1);
        assert_eq!(d.count(1), 1);
        assert_eq!(d.count(4), 0);
        assert_eq!(d.owner(1), 1);
    }
}
