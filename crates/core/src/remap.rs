//! Part-label remapping for the scratch methods.
//!
//! Partitioning from scratch produces arbitrary part labels; before
//! migrating, labels are permuted to maximize overlap with the old
//! assignment (Section 5: "for the scratch methods, we used a maximal
//! matching heuristic in Zoltan to map partition numbers to reduce
//! migration cost"). The heuristic: build the k×k overlap matrix
//! `O[new][old] = Σ size(v)` over vertices with that (new, old) label
//! pair, then greedily match the heaviest entries one-to-one.

use dlb_hypergraph::PartId;

/// Relabels `new_part` (in place semantics via return) so that migration
/// volume against `old_part` is (heuristically) minimized. `sizes` gives
/// each vertex's migration size.
///
/// Returns the relabeled assignment.
///
/// # Panics
/// Panics on length mismatches or labels `>= k`.
pub fn remap_to_minimize_migration(
    new_part: &[PartId],
    old_part: &[PartId],
    sizes: &[f64],
    k: usize,
) -> Vec<PartId> {
    let partial: Vec<Option<PartId>> = old_part.iter().map(|&p| Some(p)).collect();
    remap_to_minimize_migration_partial(new_part, &partial, sizes, k)
}

/// [`remap_to_minimize_migration`] for a *partial* old assignment:
/// vertices with `None` have no old home in the current label space
/// (failure orphans; vertices whose part just departed in an elastic
/// resize) and pay their migration wherever they land, so they
/// contribute nothing to the overlap matrix and never sway the
/// permutation.
///
/// # Panics
/// Panics on length mismatches or labels `>= k`.
pub(crate) fn remap_to_minimize_migration_partial(
    new_part: &[PartId],
    old_part: &[Option<PartId>],
    sizes: &[f64],
    k: usize,
) -> Vec<PartId> {
    assert_eq!(new_part.len(), old_part.len());
    assert_eq!(new_part.len(), sizes.len());

    // Overlap matrix over the anchored vertices only.
    let mut overlap = vec![0.0f64; k * k];
    for ((&np, &op), &s) in new_part.iter().zip(old_part).zip(sizes) {
        assert!(np < k, "part label out of range");
        let Some(op) = op else { continue };
        assert!(op < k, "part label out of range");
        overlap[np * k + op] += s;
    }

    // Greedy maximal-weight matching: heaviest entries first.
    let mut entries: Vec<(f64, usize, usize)> = Vec::with_capacity(k * k);
    for np in 0..k {
        for op in 0..k {
            let w = overlap[np * k + op];
            if w > 0.0 {
                entries.push((w, np, op));
            }
        }
    }
    entries.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });

    let mut new_to_old: Vec<Option<PartId>> = vec![None; k];
    let mut old_taken = vec![false; k];
    for (_, np, op) in entries {
        if new_to_old[np].is_none() && !old_taken[op] {
            new_to_old[np] = Some(op);
            old_taken[op] = true;
        }
    }
    // Unmatched new labels take the remaining old labels in order.
    let mut spare = (0..k).filter(|&op| !old_taken[op]);
    for slot in new_to_old.iter_mut() {
        if slot.is_none() {
            *slot = Some(spare.next().expect("label counts match"));
        }
    }

    let remapped: Vec<PartId> = new_part
        .iter()
        .map(|&np| new_to_old[np].expect("every label mapped"))
        .collect();

    // Greedy matching is a heuristic; guard against the rare case where
    // it loses to the labels as delivered. Free vertices migrate under
    // any labeling, so they cancel out of the comparison.
    let migration = |labels: &[PartId]| -> f64 {
        labels
            .iter()
            .zip(old_part)
            .zip(sizes)
            .filter(|((&a, &b), _)| b.is_some_and(|b| a != b))
            .map(|(_, &s)| s)
            .sum()
    };
    if migration(&remapped) <= migration(new_part) {
        remapped
    } else {
        new_part.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::metrics::migration_volume;

    #[test]
    fn identity_when_labels_already_agree() {
        let old = vec![0, 0, 1, 1, 2, 2];
        let new = old.clone();
        let sizes = vec![1.0; 6];
        let remapped = remap_to_minimize_migration(&new, &old, &sizes, 3);
        assert_eq!(remapped, old);
    }

    #[test]
    fn undoes_a_pure_permutation() {
        let old = vec![0, 0, 1, 1, 2, 2];
        // New labels are a rotation of old: remapping should recover old
        // exactly (zero migration).
        let new: Vec<usize> = old.iter().map(|&p| (p + 1) % 3).collect();
        let sizes = vec![1.0; 6];
        let remapped = remap_to_minimize_migration(&new, &old, &sizes, 3);
        assert_eq!(migration_volume(&sizes, &old, &remapped), 0.0);
    }

    #[test]
    fn remapping_never_increases_migration() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let n = 60;
            let k = rng.gen_range(2..8);
            let old: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            let new: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            let sizes: Vec<f64> = (0..n).map(|_| rng.gen_range(1..5) as f64).collect();
            let before = migration_volume(&sizes, &old, &new);
            let remapped = remap_to_minimize_migration(&new, &old, &sizes, k);
            let after = migration_volume(&sizes, &old, &remapped);
            assert!(
                after <= before + 1e-9,
                "remap made migration worse: {before} -> {after}"
            );
        }
    }

    #[test]
    fn remap_preserves_partition_structure() {
        // Remapping is a relabeling: vertices with equal new labels keep
        // equal labels.
        let old = vec![0, 1, 0, 1];
        let new = vec![1, 1, 0, 0];
        let sizes = vec![1.0, 2.0, 3.0, 4.0];
        let remapped = remap_to_minimize_migration(&new, &old, &sizes, 2);
        assert_eq!(remapped[0], remapped[1]);
        assert_eq!(remapped[2], remapped[3]);
        assert_ne!(remapped[0], remapped[2]);
    }

    #[test]
    fn weighs_by_size_not_count() {
        // One huge vertex outweighs three small ones.
        let old = vec![0, 1, 1, 1];
        let new = vec![0, 1, 1, 0]; // label 0 holds the huge v3
        let sizes = vec![1.0, 1.0, 1.0, 100.0];
        let remapped = remap_to_minimize_migration(&new, &old, &sizes, 2);
        // New label 0 should map to old 1 (overlap 100) leaving label 1 → 0?
        // overlap[0][0]=1, overlap[0][1]=100, overlap[1][1]=2.
        // Greedy: (100, new0, old1) first → new0→1, then new1→0.
        assert_eq!(remapped, vec![1, 0, 0, 1]);
        let m = migration_volume(&sizes, &old, &remapped);
        assert_eq!(m, 1.0 + 1.0 + 1.0); // everything but the huge vertex
    }

    /// Exercises the fallback guard: greedy matching can lose to the
    /// labels as delivered. Overlaps O[0][1]=10, O[0][0]=9, O[1][1]=8:
    /// greedy takes (new 0 → old 1) first, forcing (new 1 → old 0) and a
    /// migration of 9 + 8 = 17, while the delivered labels only migrate
    /// vertex 0 (size 10). The guard must return the delivered labels.
    #[test]
    fn fallback_keeps_delivered_labels_when_greedy_loses() {
        let old = vec![1, 0, 1];
        let new = vec![0, 0, 1];
        let sizes = vec![10.0, 9.0, 8.0];
        let remapped = remap_to_minimize_migration(&new, &old, &sizes, 2);
        assert_eq!(
            remapped, new,
            "guard must fall back to the delivered labels"
        );
        assert_eq!(migration_volume(&sizes, &old, &remapped), 10.0);
    }

    #[test]
    fn partial_remap_ignores_free_vertices() {
        // v3 is free (its old part left the world): however heavy, it
        // must not drag new label 1 anywhere.
        let old = vec![Some(0), Some(0), Some(1), None];
        let new = vec![0, 0, 1, 1];
        let sizes = vec![1.0, 1.0, 1.0, 1000.0];
        let remapped = remap_to_minimize_migration_partial(&new, &old, &sizes, 2);
        assert_eq!(remapped, vec![0, 0, 1, 1]);
    }

    #[test]
    fn handles_empty_parts() {
        let old = vec![0, 0];
        let new = vec![2, 2]; // parts 0,1 empty in new
        let sizes = vec![1.0, 1.0];
        let remapped = remap_to_minimize_migration(&new, &old, &sizes, 3);
        assert_eq!(remapped, vec![0, 0]);
    }
}
