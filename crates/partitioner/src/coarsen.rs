//! Coarse-hypergraph construction (Section 4.1).
//!
//! Given a matching, merge each matched pair into one coarse vertex
//! (weights and sizes sum; fixedness propagates per the three scenarios
//! of Section 4.1), translate every net's pins to coarse ids, drop nets
//! reduced below two pins (they can never be cut), and collapse identical
//! nets into one net with the summed cost — the standard multilevel
//! hygiene that keeps coarse hypergraphs faithful *and* small.

use std::collections::HashMap;

use dlb_hypergraph::{parallel, Hypergraph, HypergraphBuilder, PartId};
use rand::rngs::StdRng;

use crate::config::{CoarseningConfig, Determinism};
use crate::fixed::FixedAssignment;
use crate::matching::{ipm_matching_mode, Matching};

/// Coarsening is unsuccessful — and stops — when a level shrinks the
/// vertex count by less than this fraction (the paper's "typically 10%"
/// threshold, Section 4.1).
pub(crate) const MIN_REDUCTION: f64 = 0.10;

/// Safety cap on the number of coarsening levels. Every level shrinks
/// by at least [`MIN_REDUCTION`], so 40 levels are out of reach for any
/// input that fits in memory; the cap only bounds the loop.
pub(crate) const MAX_LEVELS: usize = 40;

/// The coarsening stop rule (Section 4.1), shared by the serial and the
/// SPMD driver: no further level once the `before` vertices of the
/// current one are down to `target`, after [`MAX_LEVELS`] levels, or —
/// asked again with the `matched_pairs` its matching found — when
/// contracting them would shrink the level by less than
/// [`MIN_REDUCTION`].
pub(crate) fn coarsening_stops(
    levels: usize,
    before: usize,
    target: usize,
    matched_pairs: Option<usize>,
) -> bool {
    before <= target
        || levels >= MAX_LEVELS
        || matched_pairs.is_some_and(|pairs| (pairs as f64) < before as f64 * MIN_REDUCTION)
}

/// One coarsening level: the coarse hypergraph, the fine→coarse vertex
/// map, and the coarse fixed assignment.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The coarse hypergraph.
    pub coarse: Hypergraph,
    /// `fine_to_coarse[fine_v] = coarse_v`.
    pub fine_to_coarse: Vec<usize>,
    /// Fixed constraint translated to coarse vertices.
    pub coarse_fixed: FixedAssignment,
}

impl CoarseLevel {
    /// Pushes a partition of this level's fine vertices down to its
    /// coarse vertices (siblings must agree, as they do under a matching
    /// restricted to that partition).
    fn coarsen_part(&self, fine_part: &[PartId]) -> Vec<PartId> {
        let mut coarse_part = vec![0usize; self.coarse.num_vertices()];
        for (v, &c) in self.fine_to_coarse.iter().enumerate() {
            coarse_part[c] = fine_part[v];
        }
        coarse_part
    }
}

/// Contracts `h` along `matching`. With `threads > 1` the pin remapping
/// (translate, sort, dedup per net) runs across workers over fixed net
/// chunks; the duplicate-net merge then consumes the per-chunk results
/// in net order, so the coarse hypergraph is identical to the serial
/// construction at any thread count.
pub fn contract_threads(
    h: &Hypergraph,
    matching: &Matching,
    fixed: &FixedAssignment,
    threads: usize,
) -> CoarseLevel {
    let n = h.num_vertices();
    debug_assert!(matching.validate(fixed).is_ok());

    // Assign coarse ids: the smaller endpoint of each pair (or a
    // singleton) gets the next id, in fine-vertex order for determinism.
    let mut fine_to_coarse = vec![usize::MAX; n];
    let mut next = 0usize;
    for v in 0..n {
        let m = matching.mate[v];
        if m >= v {
            fine_to_coarse[v] = next;
            if m != v {
                fine_to_coarse[m] = next;
            }
            next += 1;
        }
    }
    let nc = next;

    // Coarse attributes and fixedness.
    let mut cw = vec![0.0f64; nc];
    let mut cs = vec![0.0f64; nc];
    let mut cfixed_opts: Vec<Option<usize>> = vec![None; nc];
    for v in 0..n {
        let c = fine_to_coarse[v];
        cw[c] += h.vertex_weight(v);
        cs[c] += h.vertex_size(v);
        if let Some(p) = fixed.get(v) {
            debug_assert!(cfixed_opts[c].is_none_or(|q| q == p));
            cfixed_opts[c] = Some(p);
        }
    }

    // Translate nets, dropping sub-2-pin nets and collapsing duplicates.
    let mut b = HypergraphBuilder::new(nc);
    for (c, (&w, &s)) in cw.iter().zip(&cs).enumerate() {
        b.set_vertex_weight(c, w);
        b.set_vertex_size(c, s);
    }
    // Auxiliary load constraints sum per coarse vertex in the same fine
    // order as the primary column. The scalar pipeline (arity 1) never
    // enters this block, so its coarse weights stay bit-identical.
    let arity = h.load_arity();
    if arity > 1 {
        let mut columns = Vec::with_capacity(arity);
        columns.push(cw.clone());
        for c in 1..arity {
            let col = h.loads().constraint(c);
            let mut cc = vec![0.0f64; nc];
            for v in 0..n {
                cc[fine_to_coarse[v]] += col[v];
            }
            columns.push(cc);
        }
        b.set_loads(dlb_hypergraph::VertexLoads::from_columns(columns));
    }
    let mut dedup: HashMap<Box<[usize]>, usize> = HashMap::new();
    let mut collapsed_costs: Vec<f64> = Vec::new();
    let mut collapsed_pins: Vec<Box<[usize]>> = Vec::new();
    // Effective (not requested) concurrency: the chunked remap is
    // result-identical to the serial loop, so on a host that can only
    // run one thread the serial loop wins — no per-chunk result
    // buffers, no pool dispatch.
    if parallel::effective_concurrency(threads) > 1 {
        // Remap + sort + dedup each net's pins across workers, then merge
        // the surviving nets into the dedup map in net order — the same
        // insertion order as the serial loop, so collapsed net ids and
        // summed costs come out identical.
        let remapped = remap_nets_parallel(h, &fine_to_coarse, threads);
        for (key, cost) in remapped.into_iter().flatten() {
            match dedup.get(&key) {
                Some(&idx) => collapsed_costs[idx] += cost,
                None => {
                    dedup.insert(key.clone(), collapsed_costs.len());
                    collapsed_costs.push(cost);
                    collapsed_pins.push(key);
                }
            }
        }
    } else {
        let mut pins: Vec<usize> = Vec::new();
        for j in 0..h.num_nets() {
            pins.clear();
            pins.extend(h.net(j).iter().map(|&v| fine_to_coarse[v]));
            pins.sort_unstable();
            pins.dedup();
            if pins.len() < 2 {
                continue;
            }
            let key: Box<[usize]> = pins.as_slice().into();
            match dedup.get(&key) {
                Some(&idx) => collapsed_costs[idx] += h.net_cost(j),
                None => {
                    dedup.insert(key.clone(), collapsed_costs.len());
                    collapsed_costs.push(h.net_cost(j));
                    collapsed_pins.push(key);
                }
            }
        }
    }
    for (pins, cost) in collapsed_pins.iter().zip(&collapsed_costs) {
        b.add_net(*cost, pins.iter().copied());
    }

    CoarseLevel {
        coarse: b.build(),
        fine_to_coarse,
        coarse_fixed: FixedAssignment::from_options(&cfixed_opts),
    }
}

/// The parallel remap stage of [`contract_threads`]: translate, sort,
/// dedup each net's pins over fixed net chunks, dropping sub-2-pin
/// nets. Chunk boundaries depend only on the net count and the caller
/// consumes chunk results in net order, so the output is independent of
/// the worker count.
fn remap_nets_parallel(
    h: &Hypergraph,
    fine_to_coarse: &[usize],
    threads: usize,
) -> Vec<Vec<(Box<[usize]>, f64)>> {
    parallel::map_chunks_with(
        threads,
        h.num_nets(),
        parallel::DEFAULT_CHUNK,
        // Arena-backed per-worker remap buffer (reused across calls
        // and levels on persistent pool workers).
        parallel::scratch_vec::<usize>,
        |pins, _, range| {
            let mut kept: Vec<(Box<[usize]>, f64)> = Vec::with_capacity(range.len());
            for j in range {
                pins.clear();
                pins.extend(h.net(j).iter().map(|&v| fine_to_coarse[v]));
                pins.sort_unstable();
                pins.dedup();
                if pins.len() >= 2 {
                    kept.push((pins.as_slice().into(), h.net_cost(j)));
                }
            }
            kept
        },
    )
}

/// A full coarsening hierarchy, finest first. `levels[i]` maps level `i`'s
/// hypergraph down to level `i+1`'s; the coarsest hypergraph is
/// `levels.last().coarse` (or the original if no level was built).
#[derive(Debug, Default)]
pub struct Hierarchy {
    /// Levels from finest contraction to coarsest.
    pub levels: Vec<CoarseLevel>,
}

impl Hierarchy {
    /// The coarsest hypergraph and its fixed assignment: the last
    /// level's, or the hierarchy's input `(h, fixed)` if no level was
    /// built.
    pub fn coarsest<'a>(
        &'a self,
        h: &'a Hypergraph,
        fixed: &'a FixedAssignment,
    ) -> (&'a Hypergraph, &'a FixedAssignment) {
        match self.levels.last() {
            Some(level) => (&level.coarse, &level.coarse_fixed),
            None => (h, fixed),
        }
    }

    /// Projects a partition of the coarsest hypergraph up to the finest
    /// (original) vertices, without refinement.
    pub fn project_to_finest(&self, coarsest_part: &[usize]) -> Vec<usize> {
        let mut part = coarsest_part.to_vec();
        for level in self.levels.iter().rev() {
            let mut finer = vec![0usize; level.fine_to_coarse.len()];
            for (v, &c) in level.fine_to_coarse.iter().enumerate() {
                finer[v] = part[c];
            }
            part = finer;
        }
        part
    }

    /// Pushes a partition of the finest vertices down to the coarsest
    /// hypergraph. Only meaningful for a hierarchy coarsened with that
    /// partition as its `restrict` (siblings then always agree).
    pub fn restrict_to_coarsest(&self, finest_part: &[usize]) -> Vec<usize> {
        self.levels.iter().fold(finest_part.to_vec(), |part, level| level.coarsen_part(&part))
    }
}

/// Repeatedly matches and contracts `h` until it has at most
/// `target_vertices` vertices, a level shrinks by less than 10 %, or
/// the level cap is hit (the stop rule, `coarsening_stops`).
pub fn coarsen_to(
    h: &Hypergraph,
    fixed: &FixedAssignment,
    target_vertices: usize,
    cfg: &CoarseningConfig,
    rng: &mut StdRng,
) -> Hierarchy {
    coarsen_to_mode(h, fixed, None, target_vertices, cfg, rng, 1, Determinism::Strict)
}

/// [`coarsen_to`] with an explicit worker-thread count and
/// [`Determinism`] mode for matching and contraction, and an optional
/// `restrict` partition: only vertices of the same part may match, so
/// the partition stays exactly representable at every level (the
/// iterated V-cycle). `Strict` keeps hierarchies bit-identical at any
/// thread count; `Fast` (with `threads > 1`) matches concurrently, so
/// the hierarchy depends on scheduling — contraction itself stays a
/// deterministic function of whatever matching it is given.
#[allow(clippy::too_many_arguments)]
pub fn coarsen_to_mode(
    h: &Hypergraph,
    fixed: &FixedAssignment,
    restrict: Option<&[PartId]>,
    target_vertices: usize,
    cfg: &CoarseningConfig,
    rng: &mut StdRng,
    threads: usize,
    determinism: Determinism,
) -> Hierarchy {
    let mut hierarchy = Hierarchy::default();
    // The restriction at the current (coarsest so far) level.
    let mut restrict = restrict.map(<[PartId]>::to_vec);

    loop {
        let (current, current_fixed) = hierarchy.coarsest(h, fixed);
        let before = current.num_vertices();
        if coarsening_stops(hierarchy.levels.len(), before, target_vertices, None) {
            break;
        }
        let span = dlb_trace::span!(
            "coarsen.level",
            level = hierarchy.levels.len(),
            vertices = current.num_vertices(),
            nets = current.num_nets(),
            pins = current.num_pins(),
        );
        let matching = ipm_matching_mode(
            current,
            current_fixed,
            restrict.as_deref(),
            cfg,
            rng,
            threads,
            determinism,
        );
        let pairs = Some(matching.num_pairs);
        if coarsening_stops(hierarchy.levels.len(), before, target_vertices, pairs) {
            break;
        }
        let level = contract_threads(current, &matching, current_fixed, threads);
        span.attr("matches", matching.num_pairs);
        span.attr("coarse_vertices", level.coarse.num_vertices());
        dlb_trace::count(dlb_trace::Counter::CoarsenLevels, 1);
        if let Some(part) = restrict.as_mut() {
            *part = level.coarsen_part(part);
        }
        hierarchy.levels.push(level);
    }
    hierarchy
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pair_matching(n: usize, pairs: &[(usize, usize)]) -> Matching {
        let mut mate: Vec<usize> = (0..n).collect();
        for &(u, v) in pairs {
            mate[u] = v;
            mate[v] = u;
        }
        Matching { mate, num_pairs: pairs.len() }
    }

    /// The chunked remap stage yields exactly the serial translate /
    /// sort / dedup / drop result in net order at every worker count —
    /// exercised directly so it is covered even on hosts where
    /// `effective_concurrency` routes [`contract_threads`] to the
    /// serial loop.
    #[test]
    fn parallel_net_remap_matches_serial() {
        let h = crate::tests::random_hypergraph(120, 300, 5, 77);
        let m = {
            let mut mate: Vec<usize> = (0..120).collect();
            for v in (0..120).step_by(2) {
                mate[v] = v + 1;
                mate[v + 1] = v;
            }
            Matching { mate, num_pairs: 60 }
        };
        let fixed = FixedAssignment::free(120);
        let lvl = contract_threads(&h, &m, &fixed, 1);

        let mut serial: Vec<(Box<[usize]>, f64)> = Vec::new();
        let mut pins: Vec<usize> = Vec::new();
        for j in 0..h.num_nets() {
            pins.clear();
            pins.extend(h.net(j).iter().map(|&v| lvl.fine_to_coarse[v]));
            pins.sort_unstable();
            pins.dedup();
            if pins.len() >= 2 {
                serial.push((pins.as_slice().into(), h.net_cost(j)));
            }
        }
        for threads in [2usize, 4, 16] {
            let par: Vec<(Box<[usize]>, f64)> =
                remap_nets_parallel(&h, &lvl.fine_to_coarse, threads)
                    .into_iter()
                    .flatten()
                    .collect();
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn contract_merges_weights_and_sizes() {
        let mut h = Hypergraph::from_nets_unit(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        h.set_vertex_weight(0, 2.0);
        h.set_vertex_size(1, 3.0);
        let m = pair_matching(4, &[(0, 1), (2, 3)]);
        let fixed = FixedAssignment::free(4);
        let lvl = contract_threads(&h, &m, &fixed, 1);
        assert_eq!(lvl.coarse.num_vertices(), 2);
        assert_eq!(lvl.coarse.vertex_weight(0), 3.0); // 2 + 1
        assert_eq!(lvl.coarse.vertex_size(0), 4.0); // 1 + 3
        lvl.coarse.validate().unwrap();
    }

    #[test]
    fn contract_drops_internal_nets_and_keeps_cut_nets() {
        let h = Hypergraph::from_nets_unit(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let m = pair_matching(4, &[(0, 1), (2, 3)]);
        let lvl = contract_threads(&h, &m, &FixedAssignment::free(4), 1);
        // Nets {0,1} and {2,3} become single-pin and vanish; {1,2} survives.
        assert_eq!(lvl.coarse.num_nets(), 1);
        assert_eq!(lvl.coarse.net(0), &[0, 1]);
    }

    #[test]
    fn contract_collapses_identical_nets() {
        let h = Hypergraph::from_nets(
            6,
            &[vec![0, 2], vec![1, 3], vec![4, 5]],
            vec![1.0, 2.0, 5.0],
        );
        // Merge 0+1 and 2+3: nets {0,2} and {1,3} both become {c0, c1}.
        let m = pair_matching(6, &[(0, 1), (2, 3)]);
        let lvl = contract_threads(&h, &m, &FixedAssignment::free(6), 1);
        assert_eq!(lvl.coarse.num_nets(), 2);
        // The collapsed net carries the summed cost 3.0.
        let costs: Vec<f64> = (0..2).map(|j| lvl.coarse.net_cost(j)).collect();
        assert!(costs.contains(&3.0));
        assert!(costs.contains(&5.0));
    }

    #[test]
    fn fixedness_propagates() {
        let h = Hypergraph::from_nets_unit(4, &[vec![0, 1], vec![2, 3]]);
        let mut fixed = FixedAssignment::free(4);
        fixed.fix(1, 2);
        let m = pair_matching(4, &[(0, 1)]);
        let lvl = contract_threads(&h, &m, &fixed, 1);
        // Coarse vertex of {0,1} is fixed to 2; coarse singletons 2,3 free.
        let c01 = lvl.fine_to_coarse[0];
        assert_eq!(lvl.coarse_fixed.get(c01), Some(2));
        assert_eq!(lvl.coarse_fixed.num_fixed(), 1);
    }

    #[test]
    fn coarsen_to_reaches_target() {
        let h = crate::tests::grid_hypergraph(12, 12);
        let fixed = FixedAssignment::free(144);
        let mut rng = StdRng::seed_from_u64(5);
        let hier = coarsen_to(&h, &fixed, 20, &CoarseningConfig::default(), &mut rng);
        assert!(!hier.levels.is_empty());
        let coarsest = &hier.levels.last().unwrap().coarse;
        assert!(coarsest.num_vertices() <= 40, "coarsest {}", coarsest.num_vertices());
        // Weight conservation through the whole hierarchy.
        assert!((coarsest.total_vertex_weight() - 144.0).abs() < 1e-9);
    }

    #[test]
    fn projection_roundtrip() {
        let h = crate::tests::grid_hypergraph(8, 8);
        let fixed = FixedAssignment::free(64);
        let mut rng = StdRng::seed_from_u64(6);
        let hier = coarsen_to(&h, &fixed, 10, &CoarseningConfig::default(), &mut rng);
        let coarsest = hier
            .levels
            .last()
            .map(|l| l.coarse.clone())
            .unwrap_or_else(|| h.clone());
        // Assign coarse vertices alternately and project.
        let cpart: Vec<usize> = (0..coarsest.num_vertices()).map(|v| v % 2).collect();
        let fpart = hier.project_to_finest(&cpart);
        assert_eq!(fpart.len(), 64);
        // Every fine vertex inherits its coarse vertex's part.
        let mut cur: Vec<usize> = fpart.clone();
        for lvl in &hier.levels {
            let mut coarse_seen: Vec<Option<usize>> = vec![None; lvl.coarse.num_vertices()];
            for (v, &c) in lvl.fine_to_coarse.iter().enumerate() {
                match coarse_seen[c] {
                    None => coarse_seen[c] = Some(cur[v]),
                    Some(p) => assert_eq!(p, cur[v], "siblings disagree"),
                }
            }
            cur = coarse_seen.into_iter().map(Option::unwrap).collect();
        }
        assert_eq!(cur, cpart);
    }

    #[test]
    fn stops_on_unsuccessful_coarsening() {
        // A hypergraph with no nets can never match: zero levels.
        let h = Hypergraph::from_nets_unit(50, &[]);
        let fixed = FixedAssignment::free(50);
        let mut rng = StdRng::seed_from_u64(7);
        let hier = coarsen_to(&h, &fixed, 10, &CoarseningConfig::default(), &mut rng);
        assert!(hier.levels.is_empty());
    }
}
