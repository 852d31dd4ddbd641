//! World membership: the bookkeeping of a rank set that changes size.
//!
//! A [`crate::elastic::WorldPlan`] speaks *original* rank ids — stable
//! names that survive however many ranks have already failed, left, or
//! joined. Partitions live in the *compacted* label space `0..k` of the
//! ranks currently alive. This type is the single source of truth for
//! the mapping between the two: a vector of original ids in
//! current-label order, so `members[label] = original id` and removal is
//! exactly the `p > dead → p - 1` compaction the recovery path has
//! always used.

/// Live original rank ids, indexed by current (compacted) part label.
pub(crate) struct WorldMembership {
    members: Vec<usize>,
}

impl WorldMembership {
    /// A fresh world of `k` ranks with original ids `0..k`.
    pub(crate) fn launch(k: usize) -> Self {
        WorldMembership {
            members: (0..k).collect(),
        }
    }

    /// Number of ranks currently alive.
    pub(crate) fn k(&self) -> usize {
        self.members.len()
    }

    /// Whether original rank `orig` is currently alive.
    pub(crate) fn is_live(&self, orig: usize) -> bool {
        self.members.contains(&orig)
    }

    /// Current compacted label of original rank `orig`, if alive.
    fn label_of(&self, orig: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == orig)
    }

    /// Adds original rank `orig` at the end of the label space (label
    /// `k`). Returns the new label.
    ///
    /// # Panics
    /// Panics if `orig` is already alive — a rank must leave (or fail)
    /// before it can rejoin.
    fn add(&mut self, orig: usize) -> usize {
        assert!(
            !self.is_live(orig),
            "rank {orig} is already in the world {:?}",
            self.members
        );
        self.members.push(orig);
        self.members.len() - 1
    }

    /// Applies one resize: every rank in `leaving` departs (all removals
    /// happen against the *pre-resize* labels, then compact in one
    /// pass), then every rank in `joining` arrives in the given order,
    /// taking the labels `k_after_leaves..`. Returns the pre-resize
    /// labels of the leavers, sorted ascending.
    ///
    /// # Panics
    /// Panics if a leaver is not alive, a joiner already is, or the
    /// resize would empty the world.
    pub(crate) fn resize(&mut self, leaving: &[usize], joining: &[usize]) -> Vec<usize> {
        let mut left_labels: Vec<usize> = leaving
            .iter()
            .map(|&orig| {
                self.label_of(orig).unwrap_or_else(|| {
                    panic!(
                        "departing rank {orig} is not in the world {:?}",
                        self.members
                    )
                })
            })
            .collect();
        left_labels.sort_unstable();
        left_labels
            .windows(2)
            .for_each(|w| assert_ne!(w[0], w[1], "duplicate departure"));
        // Retain survivors in order (one-pass compaction), then append
        // the joiners.
        self.members.retain(|m| !leaving.contains(m));
        for &orig in joining {
            self.add(orig);
        }
        assert!(!self.members.is_empty(), "resize emptied the world");
        left_labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_is_identity() {
        let w = WorldMembership::launch(4);
        assert_eq!(w.k(), 4);
        for r in 0..4 {
            assert_eq!(w.label_of(r), Some(r));
        }
        assert!(!w.is_live(4));
    }

    #[test]
    fn remove_compacts_labels() {
        let mut w = WorldMembership::launch(4);
        assert_eq!(w.resize(&[1], &[]), vec![1]);
        assert_eq!(w.k(), 3);
        assert_eq!(w.label_of(0), Some(0));
        assert_eq!(w.label_of(2), Some(1));
        assert_eq!(w.label_of(3), Some(2));
        assert_eq!(w.label_of(1), None);
    }

    #[test]
    fn add_appends_and_rejoining_is_allowed_after_departure() {
        let mut w = WorldMembership::launch(2);
        assert_eq!(w.add(5), 2);
        assert_eq!(w.members, [0, 1, 5]);
        w.resize(&[5], &[]);
        assert_eq!(w.add(5), 2, "a departed rank may rejoin");
    }

    #[test]
    fn resize_reports_pre_resize_labels_sorted() {
        let mut w = WorldMembership::launch(4);
        let left = w.resize(&[3, 0], &[7, 4]);
        assert_eq!(left, vec![0, 3]);
        assert_eq!(w.members, [1, 2, 7, 4]);
        assert_eq!(w.label_of(7), Some(2));
    }

    #[test]
    #[should_panic(expected = "already in the world")]
    fn double_add_panics() {
        let mut w = WorldMembership::launch(2);
        w.add(1);
    }

    #[test]
    #[should_panic(expected = "not in the world")]
    fn removing_a_dead_rank_panics() {
        let mut w = WorldMembership::launch(2);
        w.resize(&[1], &[]);
        w.resize(&[1], &[]);
    }

    #[test]
    #[should_panic(expected = "emptied the world")]
    fn resize_to_zero_panics() {
        let mut w = WorldMembership::launch(2);
        w.resize(&[0, 1], &[]);
    }
}
