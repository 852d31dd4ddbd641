//! The delta subsystem's patch invariant, property-style: a
//! [`ModelPatcher`] fed structural deltas must produce epochs that are
//! **bitwise** equal — graph, column-net hypergraph, `old_part`, and
//! the augmented repartitioning model — to a fresh lowering of the same
//! mesh. Exercised two ways: randomized refine/coarsen/reweight
//! sequences against a ground-truth mesh mirror (both weight schemes),
//! and the real AMR source's native deltas against a twin that
//! re-lowers from scratch.

use std::collections::{BTreeMap, BTreeSet};

use dlb::amr::{AmrConfig, AmrStream};
use dlb::core::{ModelPatcher, RepartitionHypergraph};
use dlb::graphpart::{partition_kway, GraphConfig};
use dlb::hypergraph::convert::column_net_model;
use dlb::hypergraph::{CsrGraph, GraphBuilder, PartId};
use dlb::workloads::{
    AmrSource, DeltaNet, DeltaReweight, DeltaVertex, EpochDelta, EpochSnapshot, EpochSource,
    EpochUpdate,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 4;
const ALPHA: f64 = 10.0;

/// Ground-truth dynamic mesh: base-id-keyed weights, sizes, symmetric
/// adjacency, and committed parts. Every epoch it is lowered from
/// scratch, the canonical answer the patcher must reproduce bit for
/// bit.
struct GroundTruth {
    weight: BTreeMap<usize, f64>,
    size: BTreeMap<usize, f64>,
    adj: BTreeMap<usize, BTreeSet<usize>>,
    part: BTreeMap<usize, PartId>,
    next_base: usize,
    /// Unit scheme keeps every weight/size at 1; the weighted scheme
    /// draws integer-valued weights and sizes (net cost = size, the
    /// column-net convention delta-capable sources must follow).
    weighted: bool,
}

impl GroundTruth {
    /// A ring of `n` unit cells (always connected, never empties).
    fn ring(n: usize, weighted: bool, rng: &mut StdRng) -> Self {
        let mut gt = GroundTruth {
            weight: BTreeMap::new(),
            size: BTreeMap::new(),
            adj: BTreeMap::new(),
            part: BTreeMap::new(),
            next_base: n,
            weighted,
        };
        for b in 0..n {
            gt.weight.insert(b, gt.draw_weight(rng));
            gt.size.insert(b, gt.draw_size(rng));
            gt.part.insert(b, rng.gen_range(0..K));
            gt.adj.insert(b, BTreeSet::new());
        }
        for b in 0..n {
            let next = (b + 1) % n;
            gt.adj.get_mut(&b).unwrap().insert(next);
            gt.adj.get_mut(&next).unwrap().insert(b);
        }
        gt
    }

    fn draw_weight(&self, rng: &mut StdRng) -> f64 {
        if self.weighted {
            rng.gen_range(1..=8u32) as f64
        } else {
            1.0
        }
    }

    fn draw_size(&self, rng: &mut StdRng) -> f64 {
        if self.weighted {
            rng.gen_range(1..=4u32) as f64 * 8.0
        } else {
            1.0
        }
    }

    fn alive(&self) -> Vec<usize> {
        self.adj.keys().copied().collect()
    }

    /// Lowers the current mesh from scratch: graph (unit edges, one per
    /// adjacent pair), column-net hypergraph (cost = owner size), and
    /// old parts, all in canonical (sorted base id) order.
    fn fresh_snapshot(&self) -> EpochSnapshot {
        let to_base = self.alive();
        let index: BTreeMap<usize, usize> =
            to_base.iter().enumerate().map(|(v, &b)| (b, v)).collect();
        let mut gb = GraphBuilder::new(to_base.len());
        for (v, b) in to_base.iter().enumerate() {
            gb.set_vertex_weight(v, self.weight[b]);
            gb.set_vertex_size(v, self.size[b]);
            for nb in &self.adj[b] {
                let u = index[nb];
                if u > v {
                    gb.add_edge(v, u, 1.0);
                }
            }
        }
        let graph = gb.build();
        let hypergraph = column_net_model(&graph, |v| graph.vertex_size(v));
        let old_part = to_base.iter().map(|b| self.part[b]).collect();
        EpochSnapshot {
            graph,
            hypergraph,
            to_base,
            old_part,
        }
    }

    /// One epoch of random churn: coarsen (remove) a few cells, refine
    /// (add) a few attached to survivors, reweight some survivors in
    /// the weighted scheme. Returns the delta describing it.
    fn churn(&mut self, rng: &mut StdRng) -> EpochDelta {
        let mut dirty: BTreeSet<usize> = BTreeSet::new();

        // Coarsen: drop up to 3 random cells, keeping at least 8 so the
        // mesh never degenerates.
        let mut removed = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize) {
            let alive = self.alive();
            if alive.len() <= 8 {
                break;
            }
            let b = alive[rng.gen_range(0..alive.len())];
            for nb in self.adj.remove(&b).unwrap() {
                self.adj.get_mut(&nb).unwrap().remove(&b);
                dirty.insert(nb);
            }
            self.weight.remove(&b);
            self.size.remove(&b);
            self.part.remove(&b);
            dirty.remove(&b);
            removed.push(b);
        }
        removed.sort_unstable();

        // Refine: add up to 3 new cells, each wired to 1..=3 survivors
        // (possibly including cells added earlier this epoch).
        let mut added = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize) {
            let b = self.next_base;
            self.next_base += 1;
            let w = self.draw_weight(rng);
            let s = self.draw_size(rng);
            let p = rng.gen_range(0..K);
            self.weight.insert(b, w);
            self.size.insert(b, s);
            self.part.insert(b, p);
            self.adj.insert(b, BTreeSet::new());
            let candidates: Vec<usize> = self.alive().into_iter().filter(|&c| c != b).collect();
            for _ in 0..rng.gen_range(1..=3usize) {
                let nb = candidates[rng.gen_range(0..candidates.len())];
                self.adj.get_mut(&b).unwrap().insert(nb);
                self.adj.get_mut(&nb).unwrap().insert(b);
                dirty.insert(nb);
            }
            dirty.insert(b);
            added.push(DeltaVertex {
                base: b,
                weight: w,
                size: s,
                old_part: p,
            });
        }

        // Reweight: in the weighted scheme, redraw a few survivors.
        let mut reweighted = Vec::new();
        if self.weighted {
            let survivors: Vec<usize> = self
                .alive()
                .into_iter()
                .filter(|b| !added.iter().any(|a| a.base == *b))
                .collect();
            // Last write wins, matching the mirrored state.
            let mut redrawn: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
            for _ in 0..rng.gen_range(0..=3usize) {
                let b = survivors[rng.gen_range(0..survivors.len())];
                let w = self.draw_weight(rng);
                let s = self.draw_size(rng);
                self.weight.insert(b, w);
                self.size.insert(b, s);
                redrawn.insert(b, (w, s));
            }
            reweighted = redrawn
                .into_iter()
                .map(|(base, (weight, size))| DeltaReweight { base, weight, size })
                .collect();
        }

        let nets = dirty
            .iter()
            .map(|&b| DeltaNet {
                base: b,
                neighbors: self.adj[&b].iter().copied().collect(),
            })
            .collect();
        EpochDelta {
            to_base: self.alive(),
            removed,
            added,
            reweighted,
            nets,
        }
    }

    /// Commits a decided assignment, mirroring `commit_assignment`.
    fn commit(&mut self, to_base: &[usize], part: &[PartId]) {
        for (&b, &p) in to_base.iter().zip(part) {
            self.part.insert(b, p);
        }
    }
}

fn assert_bitwise(epoch: usize, patched: &EpochSnapshot, fresh: &EpochSnapshot) {
    assert_eq!(patched.to_base, fresh.to_base, "epoch {epoch}: to_base");
    assert_eq!(patched.graph, fresh.graph, "epoch {epoch}: graph");
    assert_eq!(
        patched.hypergraph, fresh.hypergraph,
        "epoch {epoch}: hypergraph"
    );
    assert_eq!(patched.old_part, fresh.old_part, "epoch {epoch}: old_part");
}

fn randomized_churn_suite(weighted: bool) {
    for seed in [3u64, 11, 29] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gt = GroundTruth::ring(24, weighted, &mut rng);
        let mut patcher = ModelPatcher::new();
        patcher.prime(&gt.fresh_snapshot());
        for epoch in 1..=10 {
            let delta = gt.churn(&mut rng);
            let patched = patcher.apply(&delta, K, ALPHA);
            let fresh = gt.fresh_snapshot();
            assert_bitwise(epoch, &patched.snapshot, &fresh);
            let model = RepartitionHypergraph::build(&fresh.hypergraph, &fresh.old_part, K, ALPHA);
            assert_eq!(
                patched.model.augmented, model.augmented,
                "seed {seed} epoch {epoch}: augmented model (weighted={weighted})"
            );
            // Commit a nontrivial pseudo-random assignment so migration
            // anchors move every epoch.
            let part: Vec<PartId> = fresh
                .old_part
                .iter()
                .enumerate()
                .map(|(v, &p)| (p + v + epoch) % K)
                .collect();
            gt.commit(&fresh.to_base, &part);
            patcher.commit(&fresh.to_base, &part);
        }
    }
}

#[test]
fn randomized_patching_is_bitwise_with_unit_weights() {
    randomized_churn_suite(false);
}

#[test]
fn randomized_patching_is_bitwise_with_varying_weights() {
    randomized_churn_suite(true);
}

#[test]
fn amr_native_deltas_match_scratch_lowering_bitwise() {
    // Twin AMR sources from the same seed: one drives the patcher via
    // next_delta, the other re-lowers every epoch via next_epoch.
    for seed in [3u64, 11, 29] {
        let make = || {
            let stream = AmrStream::new(AmrConfig::small(), K, seed);
            let low = stream.initial_lowering();
            let init = partition_kway(&low.graph, K, &GraphConfig::seeded(seed)).part;
            AmrSource::new(stream, &init)
        };
        let mut delta_source = make();
        let mut scratch_source = make();
        let mut patcher = ModelPatcher::new();
        for epoch in 0..6 {
            let fresh = scratch_source.next_epoch();
            let patched = match delta_source.next_delta() {
                EpochUpdate::Full(snap) => {
                    assert_eq!(epoch, 0, "AMR falls back to a snapshot only on epoch 0");
                    patcher.prime(&snap);
                    snap
                }
                EpochUpdate::Delta(d) => patcher.apply(&d, K, ALPHA).snapshot,
            };
            assert_bitwise(epoch, &patched, &fresh);
            let model = RepartitionHypergraph::build(&fresh.hypergraph, &fresh.old_part, K, ALPHA);
            let repatched =
                RepartitionHypergraph::build(&patched.hypergraph, &patched.old_part, K, ALPHA);
            assert_eq!(
                repatched.augmented, model.augmented,
                "seed {seed} epoch {epoch}"
            );
            let part: Vec<PartId> = fresh
                .old_part
                .iter()
                .enumerate()
                .map(|(v, &p)| (p + v) % K)
                .collect();
            delta_source.commit_assignment(&patched, &part);
            scratch_source.commit_assignment(&fresh, &part);
            patcher.commit(&patched.to_base, &part);
        }
    }
}

#[test]
fn amr_base_ids_stay_stable_for_refined_cells() {
    // Satellite (b): the registry must hand out stable ids — a cell
    // named by a delta keeps the same base id in later epochs' to_base.
    let stream = AmrStream::new(AmrConfig::small(), K, 7);
    let low = stream.initial_lowering();
    let init = partition_kway(&low.graph, K, &GraphConfig::seeded(7)).part;
    let mut source = AmrSource::new(stream, &init);
    let first = match source.next_delta() {
        EpochUpdate::Full(snap) => snap,
        EpochUpdate::Delta(_) => unreachable!("epoch 0 is a full snapshot"),
    };
    let part: Vec<PartId> = first.old_part.clone();
    source.commit_assignment(&first, &part);
    let mut known: BTreeMap<usize, dlb::amr::Cell> = BTreeMap::new();
    for b in &first.to_base {
        known.insert(*b, source.cell_of(*b).expect("snapshot ids are registered"));
    }
    for _ in 0..3 {
        let delta = match source.next_delta() {
            EpochUpdate::Delta(d) => d,
            EpochUpdate::Full(_) => unreachable!("AMR emits native deltas after epoch 0"),
        };
        for a in &delta.added {
            let cell = source
                .cell_of(a.base)
                .expect("added cells get registered ids");
            assert_eq!(source.base_id_of(cell), Some(a.base), "registry round-trip");
            known.insert(a.base, cell);
        }
        for b in &delta.to_base {
            let cell = source.cell_of(*b).expect("listed ids resolve");
            if let Some(prev) = known.get(b) {
                assert_eq!(
                    *prev, cell,
                    "base id {b} was reassigned to a different cell"
                );
            }
        }
        // commit_assignment only reads `to_base`, so an empty lowering
        // suffices to carry the id list.
        let part: Vec<PartId> = delta.to_base.iter().map(|_| 0).collect();
        let empty: CsrGraph = GraphBuilder::new(0).build();
        let snap_like = EpochSnapshot {
            hypergraph: column_net_model(&empty, |_| 0.0),
            graph: empty,
            to_base: delta.to_base.clone(),
            old_part: part.clone(),
        };
        source.commit_assignment(&snap_like, &part);
    }
}
