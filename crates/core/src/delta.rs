//! In-place patching of the repartitioning model from epoch deltas.
//!
//! The non-incremental pipeline rebuilds everything from scratch each
//! epoch: the source re-lowers its mesh to an [`EpochSnapshot`] and the
//! driver lowers that to a fresh [`RepartitionHypergraph`]. When an
//! adaptive mesh touches only a small fraction of its cells per epoch
//! that is almost all redundant work. This module keeps a mutable
//! base-id-indexed mirror of the epoch topology and splices each
//! [`EpochDelta`] into it, then rematerializes the CSR structures in a
//! single pass over the patched state.
//!
//! # The patch invariant
//!
//! A patched epoch is **bit-identical** to a fresh lowering of the same
//! mesh: the rebuilt [`dlb_hypergraph::CsrGraph`],
//! [`dlb_hypergraph::Hypergraph`], `old_part`, and the
//! [`RepartitionHypergraph`] compare equal (`==`) to what the
//! full-snapshot path would have produced. This holds because every CSR
//! builder in this repo is a pure function of its content — edges are
//! canonicalized and sorted, pins are emitted as `[owner,
//! neighbors-ascending]` — so equal adjacency in, bitwise-equal arrays
//! out. The invariant is what lets the drift policy in [`crate::epoch`]
//! switch freely between patch-and-refine and full rebuilds without
//! ever changing *results*, only wall time. It is enforced by the
//! randomized property suite in `tests/delta_patching.rs`.
//!
//! # Source contract
//!
//! [`ModelPatcher::apply`] assumes the delta-capable source follows the
//! repo's column-net lowering convention: unit edge weights and net
//! cost equal to the owner's vertex size. Sources that cannot promise
//! this (weighted-edge datasets) must keep the default full-snapshot
//! fallback of [`dlb_workloads::EpochSource::next_delta`] — the patcher
//! then only ever sees [`ModelPatcher::prime`], which copies costs
//! verbatim and makes no such assumption.

use dlb_hypergraph::{GraphBuilder, HypergraphBuilder, PartId};
use dlb_trace::Counter;
use dlb_workloads::{EpochDelta, EpochSnapshot};

use crate::model::RepartitionHypergraph;

/// The output of one [`ModelPatcher::apply`]: a snapshot
/// indistinguishable from a fresh lowering, the repartitioning model
/// lowered from it, and how much of the epoch the delta touched.
#[derive(Clone, Debug)]
pub struct PatchedEpoch {
    /// The patched epoch, bit-identical to a fresh lowering.
    pub snapshot: EpochSnapshot,
    /// The repartitioning model for this epoch, bit-identical to
    /// [`RepartitionHypergraph::build`] on `snapshot`.
    pub model: RepartitionHypergraph,
    /// Number of cells the delta touched: removed + added + reweighted
    /// + surviving cells whose net was spliced.
    pub touched: usize,
    /// `touched` over the patched epoch's vertex count — the drift
    /// measure the epoch driver compares against its threshold.
    pub touched_fraction: f64,
}

/// Mutable mirror of an epoch's topology, indexed by **base id**, that
/// [`EpochDelta`]s are spliced into.
///
/// Lifecycle: [`prime`](Self::prime) on every full snapshot (the first
/// epoch, or whenever a source falls back), [`apply`](Self::apply) per
/// delta, and [`commit`](Self::commit) after each epoch's assignment is
/// decided so the next epoch's migration nets anchor correctly.
#[derive(Clone, Debug, Default)]
pub struct ModelPatcher {
    /// Vertex weight per base id (valid while `alive`).
    weight: Vec<f64>,
    /// Vertex size per base id.
    size: Vec<f64>,
    /// Communication-net cost per base id. Primed verbatim from the
    /// snapshot; set to the vertex size on add/reweight (the
    /// delta-capable source contract).
    net_cost: Vec<f64>,
    /// Adjacency per base id, as base ids. Unordered; canonicalized
    /// when the CSR structures are rematerialized.
    neighbors: Vec<Vec<usize>>,
    /// Last committed (or creation) part per base id.
    part: Vec<PartId>,
    /// Whether the base id names a live cell of the current epoch.
    alive: Vec<bool>,
    /// Number of live cells, kept so `apply` can cheaply check that the
    /// delta's vertex list accounts for every live cell.
    num_alive: usize,
    primed: bool,
}

impl ModelPatcher {
    /// An empty patcher; must be [`prime`](Self::prime)d before
    /// [`apply`](Self::apply).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, base: usize) {
        if base >= self.alive.len() {
            let len = base + 1;
            self.weight.resize(len, 0.0);
            self.size.resize(len, 0.0);
            self.net_cost.resize(len, 0.0);
            self.neighbors.resize(len, Vec::new());
            self.part.resize(len, 0);
            self.alive.resize(len, false);
        }
    }

    /// Loads a full snapshot, replacing all previous state. Requires
    /// the snapshot's hypergraph to be in column-net form (one net per
    /// vertex, owner first) — the form every source in this repo emits.
    pub fn prime(&mut self, snapshot: &EpochSnapshot) {
        self.weight.clear();
        self.size.clear();
        self.net_cost.clear();
        self.neighbors.clear();
        self.part.clear();
        self.alive.clear();

        let h = &snapshot.hypergraph;
        let n = snapshot.to_base.len();
        assert_eq!(
            h.num_vertices(),
            n,
            "snapshot hypergraph/to_base length mismatch"
        );
        assert_eq!(
            h.num_nets(),
            n,
            "delta patching requires a column-net hypergraph (one net per vertex)"
        );
        for v in 0..n {
            let pins = h.net(v);
            assert_eq!(
                pins[0] as usize, v,
                "column-net {v} does not lead with its owner"
            );
            let base = snapshot.to_base[v];
            self.ensure(base);
            assert!(!self.alive[base], "duplicate base id {base} in snapshot");
            self.alive[base] = true;
            self.weight[base] = h.vertex_weight(v);
            self.size[base] = h.vertex_size(v);
            self.net_cost[base] = h.net_cost(v);
            self.neighbors[base] = pins[1..]
                .iter()
                .map(|&u| snapshot.to_base[u as usize])
                .collect();
            self.part[base] = snapshot.old_part[v];
        }
        self.num_alive = n;
        self.primed = true;
    }

    /// Splices a delta into the mirrored topology and rematerializes
    /// the epoch: graph, column-net hypergraph, `old_part`, and the
    /// augmented repartitioning model, all bit-identical to a fresh
    /// lowering of the same mesh (see the module docs for why).
    ///
    /// # Panics
    ///
    /// Panics if the patcher is unprimed or the delta is inconsistent
    /// with the mirrored state (removing a dead cell, adding a live
    /// one, listing a vertex the splice left dead, or not accounting
    /// for every live cell).
    pub fn apply(&mut self, delta: &EpochDelta, k: usize, alpha: f64) -> PatchedEpoch {
        assert!(self.primed, "ModelPatcher::apply called before prime");
        let span = dlb_trace::span!(
            "delta.patch",
            removed = delta.removed.len(),
            added = delta.added.len(),
            nets = delta.nets.len(),
        );

        for &b in &delta.removed {
            assert!(
                b < self.alive.len() && self.alive[b],
                "delta removes dead base id {b}"
            );
            self.alive[b] = false;
            self.num_alive -= 1;
        }
        for a in &delta.added {
            self.ensure(a.base);
            assert!(!self.alive[a.base], "delta adds live base id {}", a.base);
            assert!(a.old_part < k, "added base id {} has old part >= k", a.base);
            self.alive[a.base] = true;
            self.num_alive += 1;
            self.weight[a.base] = a.weight;
            self.size[a.base] = a.size;
            self.net_cost[a.base] = a.size;
            self.part[a.base] = a.old_part;
        }
        for r in &delta.reweighted {
            assert!(
                r.base < self.alive.len() && self.alive[r.base],
                "delta reweights dead base id {}",
                r.base
            );
            self.weight[r.base] = r.weight;
            self.size[r.base] = r.size;
            self.net_cost[r.base] = r.size;
        }
        let mut spliced_survivors = 0usize;
        for net in &delta.nets {
            assert!(
                net.base < self.alive.len() && self.alive[net.base],
                "delta splices net of dead base id {}",
                net.base
            );
            if !delta.added.iter().any(|a| a.base == net.base) {
                spliced_survivors += 1;
            }
            self.neighbors[net.base].clear();
            self.neighbors[net.base].extend_from_slice(&net.neighbors);
        }
        let touched =
            delta.removed.len() + delta.added.len() + delta.reweighted.len() + spliced_survivors;
        dlb_trace::count(Counter::CellsPatched, touched as u64);

        // Rematerialize the CSR structures along the delta's canonical
        // vertex order. Base → epoch-vertex index first.
        let n = delta.to_base.len();
        assert_eq!(
            n, self.num_alive,
            "delta vertex list does not cover every live cell"
        );
        let mut index = vec![usize::MAX; self.alive.len()];
        for (v, &b) in delta.to_base.iter().enumerate() {
            assert!(
                b < self.alive.len() && self.alive[b],
                "delta lists dead base id {b}"
            );
            assert_eq!(
                index[b],
                usize::MAX,
                "duplicate base id {b} in delta vertex list"
            );
            index[b] = v;
        }

        let mut gb = GraphBuilder::new(n);
        let mut sorted_neighbors: Vec<Vec<usize>> = Vec::with_capacity(n);
        for v in 0..n {
            let b = delta.to_base[v];
            gb.set_vertex_weight(v, self.weight[b]);
            gb.set_vertex_size(v, self.size[b]);
            let mut ns: Vec<usize> = self.neighbors[b]
                .iter()
                .map(|&nb| {
                    assert!(
                        nb < index.len() && index[nb] != usize::MAX,
                        "base id {b} keeps a stale neighbor {nb}"
                    );
                    index[nb]
                })
                .collect();
            ns.sort_unstable();
            debug_assert!(
                ns.windows(2).all(|w| w[0] != w[1]),
                "duplicate neighbor in net of base id {b}"
            );
            for &u in &ns {
                // Each undirected face once, exactly as the fresh
                // lowering scans it; unit weight per the contract.
                if u > v {
                    gb.add_edge(v, u, 1.0);
                }
            }
            sorted_neighbors.push(ns);
        }
        #[cfg(debug_assertions)]
        for v in 0..n {
            for &u in &sorted_neighbors[v] {
                debug_assert!(
                    sorted_neighbors[u].binary_search(&v).is_ok(),
                    "asymmetric adjacency between epoch vertices {v} and {u}"
                );
            }
        }
        let graph = gb.build();

        let mut hb = HypergraphBuilder::new(n);
        for v in 0..n {
            let b = delta.to_base[v];
            hb.set_vertex_weight(v, self.weight[b]);
            hb.set_vertex_size(v, self.size[b]);
            hb.add_net(
                self.net_cost[b],
                std::iter::once(v).chain(sorted_neighbors[v].iter().copied()),
            );
        }
        let hypergraph = hb.build();

        let old_part: Vec<PartId> = delta.to_base.iter().map(|&b| self.part[b]).collect();
        let model = RepartitionHypergraph::build(&hypergraph, &old_part, k, alpha);
        let snapshot = EpochSnapshot {
            graph,
            hypergraph,
            to_base: delta.to_base.clone(),
            old_part,
        };
        drop(span);
        PatchedEpoch {
            snapshot,
            model,
            touched,
            touched_fraction: touched as f64 / n.max(1) as f64,
        }
    }

    /// Records the epoch's decided assignment so the next delta's
    /// migration nets anchor to it — the patcher-side mirror of
    /// [`dlb_workloads::EpochSource::commit_assignment`].
    pub fn commit(&mut self, to_base: &[usize], part: &[PartId]) {
        assert_eq!(to_base.len(), part.len(), "commit length mismatch");
        for (&b, &p) in to_base.iter().zip(part) {
            assert!(
                b < self.alive.len() && self.alive[b],
                "commit names dead base id {b}"
            );
            self.part[b] = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_hypergraph::convert::column_net_model;
    use dlb_hypergraph::CsrGraph;
    use dlb_workloads::{
        AmrSource, DeltaNet, DeltaReweight, DeltaVertex, EpochSource, EpochUpdate,
    };

    fn snapshot_from_graph(g: &CsrGraph, old_part: Vec<PartId>) -> EpochSnapshot {
        let h = column_net_model(g, |v| g.vertex_size(v));
        EpochSnapshot {
            graph: g.clone(),
            hypergraph: h,
            to_base: (0..g.num_vertices()).collect(),
            old_part,
        }
    }

    /// A 4-path 0-1-2-3 with unit weights/sizes.
    fn path4() -> CsrGraph {
        let mut gb = GraphBuilder::new(4);
        gb.add_edge(0, 1, 1.0);
        gb.add_edge(1, 2, 1.0);
        gb.add_edge(2, 3, 1.0);
        gb.build()
    }

    #[test]
    fn identity_delta_reproduces_the_primed_snapshot() {
        let g = path4();
        let snap = snapshot_from_graph(&g, vec![0, 0, 1, 1]);
        let mut p = ModelPatcher::new();
        p.prime(&snap);
        let delta = EpochDelta {
            to_base: snap.to_base.clone(),
            removed: vec![],
            added: vec![],
            reweighted: vec![],
            nets: vec![],
        };
        let out = p.apply(&delta, 2, 8.0);
        assert_eq!(out.snapshot.graph, snap.graph);
        assert_eq!(out.snapshot.hypergraph, snap.hypergraph);
        assert_eq!(out.snapshot.old_part, snap.old_part);
        assert_eq!(out.touched, 0);
        assert_eq!(out.touched_fraction, 0.0);
        let fresh = RepartitionHypergraph::build(&snap.hypergraph, &snap.old_part, 2, 8.0);
        assert_eq!(out.model.augmented, fresh.augmented);
    }

    #[test]
    fn add_remove_reweight_matches_fresh_lowering() {
        let g = path4();
        let snap = snapshot_from_graph(&g, vec![0, 0, 1, 1]);
        let mut p = ModelPatcher::new();
        p.prime(&snap);

        // Remove base 3, add base 4 attached to 0 and 2, reweight 1.
        let delta = EpochDelta {
            to_base: vec![0, 1, 2, 4],
            removed: vec![3],
            added: vec![DeltaVertex {
                base: 4,
                weight: 2.0,
                size: 3.0,
                old_part: 1,
            }],
            reweighted: vec![DeltaReweight {
                base: 1,
                weight: 5.0,
                size: 7.0,
            }],
            nets: vec![
                DeltaNet {
                    base: 4,
                    neighbors: vec![0, 2],
                },
                DeltaNet {
                    base: 0,
                    neighbors: vec![1, 4],
                },
                DeltaNet {
                    base: 2,
                    neighbors: vec![1, 4],
                },
            ],
        };
        let out = p.apply(&delta, 2, 8.0);
        // touched = 1 removed + 1 added + 1 reweighted + 2 spliced survivors.
        assert_eq!(out.touched, 5);

        let mut gb = GraphBuilder::new(4);
        gb.set_vertex_weight(1, 5.0);
        gb.set_vertex_size(1, 7.0);
        gb.set_vertex_weight(3, 2.0);
        gb.set_vertex_size(3, 3.0);
        gb.add_edge(0, 1, 1.0);
        gb.add_edge(1, 2, 1.0);
        gb.add_edge(0, 3, 1.0);
        gb.add_edge(2, 3, 1.0);
        let fresh_g = gb.build();
        assert_eq!(out.snapshot.graph, fresh_g);
        let fresh_h = column_net_model(&fresh_g, |v| fresh_g.vertex_size(v));
        assert_eq!(out.snapshot.hypergraph, fresh_h);
        assert_eq!(out.snapshot.old_part, vec![0, 0, 1, 1]);
        let fresh_m = RepartitionHypergraph::build(&fresh_h, &out.snapshot.old_part, 2, 8.0);
        assert_eq!(out.model.augmented, fresh_m.augmented);
    }

    #[test]
    fn commit_moves_the_migration_anchor() {
        let g = path4();
        let snap = snapshot_from_graph(&g, vec![0, 0, 1, 1]);
        let mut p = ModelPatcher::new();
        p.prime(&snap);
        p.commit(&snap.to_base, &[1, 1, 0, 0]);
        let delta = EpochDelta {
            to_base: snap.to_base.clone(),
            removed: vec![],
            added: vec![],
            reweighted: vec![],
            nets: vec![],
        };
        let out = p.apply(&delta, 2, 8.0);
        assert_eq!(out.snapshot.old_part, vec![1, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "before prime")]
    fn apply_before_prime_panics() {
        let delta = EpochDelta {
            to_base: vec![],
            removed: vec![],
            added: vec![],
            reweighted: vec![],
            nets: vec![],
        };
        ModelPatcher::new().apply(&delta, 2, 8.0);
    }

    #[test]
    fn amr_deltas_patch_bitwise_for_a_few_epochs() {
        // Twin AMR sources: one drives the patcher via deltas, the
        // other re-lowers from scratch. Every artifact must agree
        // bitwise, including with a non-trivial committed assignment.
        let k = 4;
        let cfg = dlb_amr::AmrConfig::small();
        let stream_a = dlb_amr::AmrStream::new(cfg, k, 97);
        let stream_b = dlb_amr::AmrStream::new(cfg, k, 97);
        let init_low = stream_a.initial_lowering();
        let init: Vec<PartId> = (0..init_low.graph.num_vertices()).map(|v| v % k).collect();
        let mut a = AmrSource::new(stream_a, &init);
        let mut b = AmrSource::new(stream_b, &init);

        let mut patcher = ModelPatcher::new();
        for epoch in 0..5 {
            let fresh = b.next_epoch();
            let patched = match a.next_delta() {
                EpochUpdate::Full(snap) => {
                    assert_eq!(epoch, 0, "AMR source should fall back only on epoch 0");
                    patcher.prime(&snap);
                    snap
                }
                EpochUpdate::Delta(d) => {
                    assert!(epoch > 0);
                    patcher.apply(&d, k, 10.0).snapshot
                }
            };
            assert_eq!(patched.graph, fresh.graph, "epoch {epoch} graph mismatch");
            assert_eq!(
                patched.hypergraph, fresh.hypergraph,
                "epoch {epoch} hypergraph mismatch"
            );
            assert_eq!(
                patched.to_base, fresh.to_base,
                "epoch {epoch} to_base mismatch"
            );
            assert_eq!(
                patched.old_part, fresh.old_part,
                "epoch {epoch} old_part mismatch"
            );

            let part: Vec<PartId> = patched
                .old_part
                .iter()
                .enumerate()
                .map(|(v, &p)| (p + v) % k)
                .collect();
            a.commit_assignment(&patched, &part);
            b.commit_assignment(&fresh, &part);
            patcher.commit(&patched.to_base, &part);
        }
    }
}
