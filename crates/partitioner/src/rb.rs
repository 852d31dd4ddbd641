//! Recursive bisection with fixed vertices (Section 4.4).
//!
//! K-way partitioning by repeated two-way splits. At each bisection the
//! fixed-vertex information is relabeled exactly as the paper describes:
//! vertices fixed to parts `0..⌈k/2⌉` are fixed to side 0, vertices fixed
//! to parts `⌈k/2⌉..k` to side 1 — then the two sides recurse with their
//! own (shifted) fixed parts. Side weight targets are proportional to the
//! number of final parts each side will receive, and the imbalance budget
//! ε is spread geometrically across the `⌈log₂ k⌉` bisection levels so
//! the final k-way partition meets the overall Eq. (1) bound.

use dlb_hypergraph::subset::induced_subhypergraph;
use dlb_hypergraph::{Hypergraph, PartId};

use crate::config::{AuxTargets, PartTargets};
use crate::fixed::FixedAssignment;
use crate::kway::multilevel;
use crate::vcycle::Cx;

/// Per-bisection imbalance tolerance so that `depth` nested bisections
/// compound to at most the overall `epsilon`.
fn per_level_epsilon(epsilon: f64, k: usize) -> f64 {
    let depth = (k.max(2) as f64).log2().ceil().max(1.0);
    (1.0 + epsilon).powf(1.0 / depth) - 1.0
}

/// The per-bisection tolerance of every constraint, the same at every
/// bisection of the recursion.
struct SideTargets {
    /// Per-bisection primary tolerance.
    eps: f64,
    /// Per-bisection tolerance of auxiliary constraint `c` at index
    /// `c - 1`; constraints beyond the list fall back to `eps`.
    aux_eps: Vec<f64>,
}

/// Partitions `h` into `k` parts by recursive bisection, honoring
/// `fixed`, on `cx`'s execution context: every bisection is one two-way
/// V-cycle ([`multilevel`]) drawing from `cx`'s one stream, in pre-order.
///
/// Part `p` targets the `1/k` share of the total weight: each side of a
/// bisection targets the share of the final parts it will receive.
/// Auxiliary load constraints of `h` get their own side targets with
/// per-level tolerances derived from [`crate::Config::epsilon_for`].
pub(crate) fn partition_recursive(
    h: &Hypergraph,
    k: usize,
    fixed: &FixedAssignment,
    cx: &mut Cx,
) -> Vec<PartId> {
    let cfg = cx.cfg;
    let side = SideTargets {
        eps: per_level_epsilon(cfg.epsilon, k),
        aux_eps: (1..h.load_arity())
            .map(|c| per_level_epsilon(cfg.epsilon_for(c), k))
            .collect(),
    };
    recurse(h, k, fixed, &side, cx)
}

fn recurse(
    h: &Hypergraph,
    k: usize,
    fixed: &FixedAssignment,
    side: &SideTargets,
    cx: &mut Cx,
) -> Vec<PartId> {
    if k == 1 {
        return vec![0; h.num_vertices()];
    }
    if h.num_vertices() == 0 {
        return Vec::new();
    }

    let k0 = k.div_ceil(2);

    // Bisect with side targets proportional to the number of final parts
    // each side receives.
    let side_fixed = fixed.bisection_sides(k0);
    let mut targets = PartTargets::proportional(h.total_vertex_weight(), &[k0, k - k0], side.eps);
    let arity = h.load_arity();
    if arity > 1 {
        let shares = [k0 as f64, (k - k0) as f64];
        let aux = (1..arity)
            .map(|c| {
                let eps = side.aux_eps.get(c - 1).copied().unwrap_or(side.eps);
                AuxTargets::proportional(h.total_load(c), &shares, eps)
            })
            .collect();
        targets = targets.with_aux(aux);
    }
    let sides = multilevel(h, &side_fixed, &mut cx.with_targets(&targets));
    debug_assert_eq!(sides.len(), h.num_vertices());

    // Split into the two induced sub-hypergraphs. Cut nets survive on
    // each side restricted to that side's pins (if at least two remain),
    // the standard way recursive bisection keeps accounting for them.
    let span = dlb_trace::span!("rb.split", vertices = h.num_vertices(), k = k);
    let keep0: Vec<bool> = sides.iter().map(|&s| s == 0).collect();
    let keep1: Vec<bool> = sides.iter().map(|&s| s == 1).collect();
    let side0 = induced_subhypergraph(h, &keep0);
    let side1 = induced_subhypergraph(h, &keep1);
    drop(span);

    let fixed0 = FixedAssignment::from_options(
        &side0
            .to_base
            .iter()
            .map(|&v| fixed.get(v))
            .collect::<Vec<_>>(),
    );
    let fixed1 = FixedAssignment::from_options(
        &side1
            .to_base
            .iter()
            .map(|&v| fixed.get(v).map(|p| p - k0))
            .collect::<Vec<_>>(),
    );

    let part0 = recurse(&side0.hypergraph, k0, &fixed0, side, cx);
    let part1 = recurse(&side1.hypergraph, k - k0, &fixed1, side, cx);

    let mut part = vec![0usize; h.num_vertices()];
    for (new_v, &old_v) in side0.to_base.iter().enumerate() {
        part[old_v] = part0[new_v];
    }
    for (new_v, &old_v) in side1.to_base.iter().enumerate() {
        part[old_v] = k0 + part1[new_v];
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use dlb_hypergraph::metrics;

    /// Recursive bisection with fixed vertices, one V-cycle.
    fn partition_recursive(
        h: &Hypergraph,
        k: usize,
        fixed: &FixedAssignment,
        cfg: &Config,
    ) -> Vec<PartId> {
        crate::partition_hypergraph_fixed(h, k, fixed, cfg).part
    }

    #[test]
    fn per_level_epsilon_compounds_correctly() {
        let eps = per_level_epsilon(0.05, 8);
        // Three levels: (1+eps)^3 == 1.05.
        assert!(((1.0 + eps).powi(3) - 1.05).abs() < 1e-12);
    }

    #[test]
    fn rb_eight_way_on_grid() {
        let h = crate::tests::grid_hypergraph(16, 16);
        let fixed = FixedAssignment::free(256);
        let cfg = Config::seeded(9);
        let part = partition_recursive(&h, 8, &fixed, &cfg);
        assert!(part.iter().all(|&p| p < 8));
        let imb = metrics::imbalance(&h, &part, 8);
        assert!(imb <= 1.0 + cfg.epsilon + 0.02, "imbalance {imb}");
        // All eight parts are nonempty.
        let w = metrics::part_weights(&h, &part, 8);
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn rb_fixed_relabeling_lands_vertices_in_exact_parts() {
        let h = crate::tests::grid_hypergraph(8, 8);
        let mut fixed = FixedAssignment::free(64);
        for p in 0..4 {
            fixed.fix(p * 16, p); // fix one vertex into each final part
        }
        let part = partition_recursive(&h, 4, &fixed, &Config::seeded(10));
        for p in 0..4 {
            assert_eq!(part[p * 16], p, "fixed vertex for part {p}");
        }
    }

    #[test]
    fn rb_odd_k() {
        let h = crate::tests::grid_hypergraph(9, 9);
        let fixed = FixedAssignment::free(81);
        let part = partition_recursive(&h, 3, &fixed, &Config::seeded(11));
        let w = metrics::part_weights(&h, &part, 3);
        let imb = metrics::imbalance_of_weights(&w);
        assert!(imb <= 1.12, "imbalance {imb} for k=3: {w:?}");
    }

    #[test]
    fn rb_k_exceeding_vertices_assigns_in_range() {
        let h = crate::tests::grid_hypergraph(2, 3);
        let fixed = FixedAssignment::free(6);
        let part = partition_recursive(&h, 4, &fixed, &Config::seeded(12));
        assert_eq!(part.len(), 6);
        assert!(part.iter().all(|&p| p < 4));
    }
}
