//! Coarse-hypergraph construction (Section 4.1).
//!
//! Given a matching, merge each matched pair into one coarse vertex
//! (weights and sizes sum; fixedness propagates per the three scenarios
//! of Section 4.1), translate every net's pins to coarse ids, drop nets
//! reduced below two pins (they can never be cut), and collapse identical
//! nets into one net with the summed cost — the standard multilevel
//! hygiene that keeps coarse hypergraphs faithful *and* small.
//!
//! A level is contracted into flat arrays (`FlatNets`): no net is ever a
//! heap object of its own. Identical nets are found by a fingerprint of
//! the pin list with a full compare on fingerprint equality
//! (`NetCollapser`), and the finished arrays go straight into
//! [`Hypergraph::from_csr`] (DESIGN.md §7). Contraction runs on one
//! thread: `contract` is one serial pass, the same on a serial and a
//! replicated level, and `par::dist` feeds the same collapser shard by
//! shard on a distributed one.

use dlb_hypergraph::{Hypergraph, PartId, VertexLoads};
use rand::rngs::StdRng;

use crate::config::{CoarseningConfig, Config, PartTargets};
use crate::fixed::FixedAssignment;
use crate::matching::Matching;
use crate::refine::RefineScratch;
use crate::vcycle::{self, Cx, Held};

/// Coarsening is unsuccessful — and stops — when a level shrinks the
/// vertex count by less than this fraction (the paper's "typically 10%"
/// threshold, Section 4.1).
pub(crate) const MIN_REDUCTION: f64 = 0.10;

/// Safety cap on the number of coarsening levels. Every level shrinks
/// by at least [`MIN_REDUCTION`], so 40 levels are out of reach for any
/// input that fits in memory; the cap only bounds the loop.
pub(crate) const MAX_LEVELS: usize = 40;

/// The coarsening stop rule (Section 4.1) of the one V-cycle
/// (`vcycle::descend`): no further level once the `before` vertices of the
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
    pub(crate) fn coarsen_part(&self, fine_part: &[PartId]) -> Vec<PartId> {
        let mut coarse_part = vec![0usize; self.coarse.num_vertices()];
        for (v, &c) in self.fine_to_coarse.iter().enumerate() {
            coarse_part[c] = fine_part[v];
        }
        coarse_part
    }
}

/// Nets in flat CSR form: the pins of net `j` are
/// `pins[xpins[j]..xpins[j + 1]]`, ascending and without repeats, and
/// `costs[j]` is its cost — the arrays [`Hypergraph::from_csr`] takes.
#[derive(Debug, PartialEq)]
pub(crate) struct FlatNets {
    pub(crate) xpins: Vec<usize>,
    pub(crate) pins: Vec<u32>,
    pub(crate) costs: Vec<f64>,
}

impl FlatNets {
    fn with_capacity(nets: usize, pins: usize) -> Self {
        let mut xpins = Vec::with_capacity(nets + 1);
        xpins.push(0);
        FlatNets {
            xpins,
            pins: Vec::with_capacity(pins),
            costs: Vec::with_capacity(nets),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.costs.len()
    }

    fn net(&self, j: usize) -> &[u32] {
        &self.pins[self.xpins[j]..self.xpins[j + 1]]
    }

    /// `(cost, pins)` of every net, in net order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (f64, &[u32])> {
        self.costs
            .iter()
            .zip(self.xpins.windows(2))
            .map(|(&c, w)| (c, &self.pins[w[0]..w[1]]))
    }

    /// Start of the open tail: the pins behind the last committed net.
    fn tail_start(&self) -> usize {
        self.xpins[self.len()]
    }

    /// Writes `pins` (any order, repeats allowed) behind the last net and
    /// sorts and dedups them there, in place. Fewer than two distinct
    /// pins: the tail is removed again and `false` returned. Otherwise
    /// it stays open until [`commit`](Self::commit) makes it a net or
    /// [`discard`](Self::discard) drops it.
    fn stage(&mut self, pins: impl IntoIterator<Item = u32>) -> bool {
        let start = self.tail_start();
        debug_assert_eq!(self.pins.len(), start, "a staged tail is still open");
        self.pins.extend(pins);
        self.pins[start..].sort_unstable();
        let mut kept = start;
        for read in start..self.pins.len() {
            if kept == start || self.pins[kept - 1] != self.pins[read] {
                self.pins[kept] = self.pins[read];
                kept += 1;
            }
        }
        self.pins
            .truncate(if kept - start < 2 { start } else { kept });
        self.pins.len() > start
    }

    fn commit(&mut self, cost: f64) {
        self.xpins.push(self.pins.len());
        self.costs.push(cost);
    }

    fn discard(&mut self) {
        let start = self.tail_start();
        self.pins.truncate(start);
    }
}

/// Fingerprint of an ascending pin list: a multiplicative fold of its
/// length and pins. Fixed constants, no per-process seed, so a run
/// probes the same slots every time. It only decides *where* the
/// collapse looks; whether two nets are identical is always decided by
/// comparing their pins.
fn pin_fingerprint(pins: &[u32]) -> u64 {
    // 2^64 / golden ratio, odd: a multiply by it spreads every input bit
    // into the high bits, which is where `NetCollapser` takes its slot.
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
    pins.iter().fold(pins.len() as u64, |h, &p| {
        (h.rotate_left(5) ^ p as u64).wrapping_mul(MULTIPLIER)
    })
}

/// One slot of the collapse table: a kept net and the low half of its
/// fingerprint (the high bits chose the slot), so a probe touches the
/// net's pins only when the halves agree. Eight bytes, not sixteen: the
/// table is what the collapse misses the cache on.
#[derive(Clone, Copy)]
struct Slot {
    tag: u32,
    net: u32,
}

/// The `net` of a slot nothing was stored in yet.
const NO_NET: u32 = u32::MAX;

/// Net index `net` as a slot stores it: a checked conversion, which
/// panics sooner than truncate or collide with [`NO_NET`].
fn slot_net(net: usize) -> u32 {
    u32::try_from(net)
        .ok()
        .filter(|&stored| stored != NO_NET)
        .expect("the collapse table indexes fewer than 2^32 - 1 nets")
}

/// Drops sub-2-pin nets and collapses identical ones, the one kernel
/// behind replicated and distributed contraction. Nets come out in
/// first-occurrence order with ascending pins, and a collapsed net's
/// cost is summed in push order — so feeding the same nets in the same
/// order gives the same bits, however they were produced.
///
/// The table is open addressing with linear probing over net indices
/// (32 bits behind [`slot_net`]'s check), sized once to at least twice
/// the number of nets that can be pushed, so it never fills or grows.
pub(crate) struct NetCollapser {
    nets: FlatNets,
    table: Vec<Slot>,
    /// `fingerprint >> shift` is a slot index.
    shift: u32,
    fingerprint: fn(&[u32]) -> u64,
}

impl NetCollapser {
    /// A collapser for at most `max_nets` pushes holding at most
    /// `max_pins` pins at any time.
    pub(crate) fn new(max_nets: usize, max_pins: usize) -> Self {
        Self::with_fingerprint(max_nets, max_pins, pin_fingerprint)
    }

    fn with_fingerprint(max_nets: usize, max_pins: usize, fingerprint: fn(&[u32]) -> u64) -> Self {
        let slots = (2 * max_nets).next_power_of_two().max(2);
        NetCollapser {
            nets: FlatNets::with_capacity(max_nets, max_pins),
            table: vec![
                Slot {
                    tag: 0,
                    net: NO_NET
                };
                slots
            ],
            shift: u64::BITS - slots.trailing_zeros(),
            fingerprint,
        }
    }

    /// Adds a net given by its pins in any order, repeats allowed.
    /// Returns the index of the collapsed net it became or joined
    /// (`index == len()` before the call means it is a new one), or
    /// `None` if fewer than two distinct pins remain and it was dropped.
    /// Already-normalised input — a shard's — costs one linear pass more
    /// than a copy.
    pub(crate) fn push(&mut self, cost: f64, pins: impl IntoIterator<Item = u32>) -> Option<usize> {
        if !self.nets.stage(pins) {
            return None;
        }
        let tail = &self.nets.pins[self.nets.tail_start()..];
        let fingerprint = (self.fingerprint)(tail);
        let tag = fingerprint as u32;
        let mask = self.table.len() - 1;
        let mut slot = (fingerprint >> self.shift) as usize;
        loop {
            let seen = self.table[slot];
            if seen.net == NO_NET {
                let net = self.nets.len();
                assert!(
                    2 * net < self.table.len(),
                    "more nets pushed than the table is sized for"
                );
                self.table[slot] = Slot {
                    tag,
                    net: slot_net(net),
                };
                self.nets.commit(cost);
                return Some(net);
            }
            let net = seen.net as usize;
            if seen.tag == tag && self.nets.net(net) == tail {
                self.nets.costs[net] += cost;
                self.nets.discard();
                return Some(net);
            }
            slot = (slot + 1) & mask;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.nets.len()
    }

    /// The collapsed nets, storage trimmed to what they occupy.
    pub(crate) fn finish(self) -> FlatNets {
        let mut nets = self.nets;
        nets.xpins.shrink_to_fit();
        nets.pins.shrink_to_fit();
        nets.costs.shrink_to_fit();
        nets
    }
}

/// Contracts `h` along `matching`: one pass over the fine vertices for
/// the coarse ids and attributes, then every net remapped, in net order,
/// through one `NetCollapser`.
pub(crate) fn contract(
    h: &Hypergraph,
    matching: &Matching,
    fixed: &FixedAssignment,
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
    // Auxiliary load constraints sum per coarse vertex in the same fine
    // order as the primary column. The scalar pipeline (arity 1) wraps
    // its weight column as it is, so its coarse weights stay
    // bit-identical.
    let arity = h.load_arity();
    let loads = if arity > 1 {
        let mut columns = Vec::with_capacity(arity);
        columns.push(cw);
        for c in 1..arity {
            let col = h.loads().constraint(c);
            let mut cc = vec![0.0f64; nc];
            for v in 0..n {
                cc[fine_to_coarse[v]] += col[v];
            }
            columns.push(cc);
        }
        VertexLoads::from_columns(columns)
    } else {
        VertexLoads::from_scalar(cw)
    };

    // Translate nets, dropping sub-2-pin nets and collapsing duplicates.
    // A coarse id is below `nc <= n`, which `h` holds as 32-bit ids, so
    // each `as u32` is exact.
    let mut nets = NetCollapser::new(h.num_nets(), h.num_pins());
    for j in 0..h.num_nets() {
        nets.push(
            h.net_cost(j),
            h.net(j).iter().map(|&v| fine_to_coarse[v as usize] as u32),
        );
    }
    dlb_trace::count(dlb_trace::Counter::ContractNetsIn, h.num_nets() as u64);
    dlb_trace::count(dlb_trace::Counter::ContractNetsOut, nets.len() as u64);
    let FlatNets { xpins, pins, costs } = nets.finish();

    CoarseLevel {
        coarse: Hypergraph::from_csr(nc, xpins, pins, costs, loads, cs)
            .expect("collapsed nets are a well-formed CSR over the coarse ids"),
        fine_to_coarse,
        coarse_fixed: FixedAssignment::from_options(&cfixed_opts),
    }
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
}

/// Repeatedly matches and contracts `h` until it has at most
/// `target_vertices` vertices, a level shrinks by less than 10 %, or
/// the level cap is hit (the stop rule, `coarsening_stops`): the
/// descent of the serial V-cycle alone, on one thread.
pub fn coarsen_to(
    h: &Hypergraph,
    fixed: &FixedAssignment,
    target_vertices: usize,
    cfg: &CoarseningConfig,
    rng: &mut StdRng,
) -> Hierarchy {
    let cfg = Config {
        coarsening: cfg.clone(),
        ..Config::default()
    };
    // The descent balances nothing and refines nothing.
    let (targets, mut scratch) = (PartTargets::uniform(0.0, 1, 0.0), RefineScratch::new());
    let mut cx = Cx::new(None, &cfg, &targets, rng, &mut scratch);
    cx.coarse_target = target_vertices;
    let stack = vcycle::descend(Held::input(h, fixed, None, &mut cx), &mut cx);
    Hierarchy {
        levels: stack.into_iter().filter_map(Held::into_coarse).collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dlb_hypergraph::HypergraphBuilder;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn pair_matching(n: usize, pairs: &[(usize, usize)]) -> Matching {
        let mut mate: Vec<usize> = (0..n).collect();
        for &(u, v) in pairs {
            mate[u] = v;
            mate[v] = u;
        }
        Matching {
            mate,
            num_pairs: pairs.len(),
        }
    }

    /// The construction this module had before the flat collapse — a
    /// `HashMap` keyed by boxed pin lists feeding a `HypergraphBuilder` —
    /// kept as the oracle the flat one must equal net for net.
    fn contract_reference(
        h: &Hypergraph,
        matching: &Matching,
        fixed: &FixedAssignment,
    ) -> CoarseLevel {
        let n = h.num_vertices();
        let mut fine_to_coarse = vec![usize::MAX; n];
        let mut nc = 0usize;
        for v in 0..n {
            let m = matching.mate[v];
            if m >= v {
                fine_to_coarse[v] = nc;
                fine_to_coarse[m] = nc;
                nc += 1;
            }
        }
        let arity = h.load_arity();
        let mut columns = vec![vec![0.0f64; nc]; arity];
        let mut cs = vec![0.0f64; nc];
        let mut cfixed_opts: Vec<Option<usize>> = vec![None; nc];
        for v in 0..n {
            let c = fine_to_coarse[v];
            for (i, col) in columns.iter_mut().enumerate() {
                col[c] += h.vertex_load(v, i);
            }
            cs[c] += h.vertex_size(v);
            if let Some(p) = fixed.get(v) {
                cfixed_opts[c] = Some(p);
            }
        }
        let mut b = HypergraphBuilder::new(nc);
        for (c, &s) in cs.iter().enumerate() {
            b.set_vertex_size(c, s);
        }
        b.set_loads(VertexLoads::from_columns(columns));
        let mut dedup: HashMap<Box<[usize]>, usize> = HashMap::new();
        let mut collapsed_costs: Vec<f64> = Vec::new();
        let mut collapsed_pins: Vec<Box<[usize]>> = Vec::new();
        let mut pins: Vec<usize> = Vec::new();
        for j in 0..h.num_nets() {
            pins.clear();
            pins.extend(h.net(j).iter().map(|&v| fine_to_coarse[v as usize]));
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
        for (pins, cost) in collapsed_pins.iter().zip(&collapsed_costs) {
            b.add_net(*cost, pins.iter().copied());
        }
        CoarseLevel {
            coarse: b.build(),
            fine_to_coarse,
            coarse_fixed: FixedAssignment::from_options(&cfixed_opts),
        }
    }

    /// A level to contract.
    pub(crate) struct Case {
        pub(crate) name: String,
        pub(crate) h: Hypergraph,
        pub(crate) matching: Matching,
        pub(crate) fixed: FixedAssignment,
    }

    fn case(name: &str, n: usize, nets: &[Vec<usize>], pairs: &[(usize, usize)]) -> Case {
        Case {
            name: name.into(),
            h: Hypergraph::from_nets_unit(n, nets),
            matching: pair_matching(n, pairs),
            fixed: FixedAssignment::free(n),
        }
    }

    /// A duplicate-heavy random level: few vertices under many small
    /// nets (sizes 0..=`max_pins`, so empty and single-pin nets occur),
    /// ~25 % of the vertices fixed among four parts, a random matching
    /// that respects them, arity-2 loads, and net costs that are small
    /// integers or — `fractional` — drawn from 0.5..4.0, where a sum
    /// taken in another order differs in its last bits.
    pub(crate) fn random_case(
        seed: u64,
        n: usize,
        nets: usize,
        max_pins: usize,
        fractional: bool,
    ) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = HypergraphBuilder::new(n);
        for _ in 0..nets {
            let size = rng.gen_range(0..=max_pins);
            let pins: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
            let cost = if fractional {
                rng.gen_range(0.5f64..4.0)
            } else {
                rng.gen_range(1..4) as f64
            };
            b.add_net(cost, pins);
        }
        b.set_loads(VertexLoads::from_columns(vec![
            (0..n).map(|_| rng.gen_range(0.25f64..3.0)).collect(),
            (0..n).map(|_| rng.gen_range(0..9) as f64).collect(),
        ]));
        for v in 0..n {
            b.set_vertex_size(v, rng.gen_range(0.5f64..2.0));
        }
        let mut fixed = FixedAssignment::free(n);
        for v in 0..n {
            if rng.gen_bool(0.25) {
                fixed.fix(v, rng.gen_range(0..4));
            }
        }
        let mut mate: Vec<usize> = (0..n).collect();
        let mut num_pairs = 0;
        for _ in 0..n {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v && mate[u] == u && mate[v] == v && fixed.compatible(u, v) {
                mate[u] = v;
                mate[v] = u;
                num_pairs += 1;
            }
        }
        Case {
            name: format!("random seed {seed} n {n} nets {nets} fractional {fractional}"),
            h: b.build(),
            matching: Matching { mate, num_pairs },
            fixed,
        }
    }

    fn cases() -> Vec<Case> {
        let mut cases = vec![
            case("no nets", 6, &[], &[(0, 3), (1, 2)]),
            case("no vertices", 0, &[], &[]),
            case(
                "empty and single-pin nets",
                4,
                &[vec![], vec![2], vec![], vec![0]],
                &[(0, 1)],
            ),
            case(
                "every net identical",
                8,
                &vec![vec![6, 1, 4]; 40],
                &[(0, 1), (2, 3)],
            ),
            case(
                "every net internal to a pair",
                8,
                &[vec![0, 1], vec![2, 3], vec![1, 0], vec![4, 5], vec![6, 7]],
                &[(0, 1), (2, 3), (4, 5), (6, 7)],
            ),
            case(
                "one net holds every vertex",
                9,
                &[(0..9).collect()],
                &[(0, 8), (3, 4)],
            ),
            case(
                "equal only after the remap",
                6,
                &[
                    vec![0, 2],
                    vec![1, 3],
                    vec![4, 5],
                    vec![3, 0],
                    vec![2, 1, 0],
                ],
                &[(0, 1), (2, 3), (4, 5)],
            ),
        ];
        // Fractional costs on the hand-made shapes too.
        for c in &mut cases {
            for j in 0..c.h.num_nets() {
                c.h.set_net_cost(j, 0.1 + 0.7 * j as f64);
            }
        }
        for seed in 0..6u64 {
            cases.push(random_case(seed, 40, 400, 4, seed % 2 == 0));
            cases.push(random_case(100 + seed, 150, 300, 7, seed % 2 == 1));
        }
        // Thousands of nets over few vertices: duplicates far apart in net
        // order.
        cases.push(random_case(7, 300, 8_692, 3, true));
        cases
    }

    /// The flat collapse equals the map-based reference on the whole
    /// `CoarseLevel` — coarse hypergraph (net order, pin order, loads,
    /// sizes, and costs, which are positive and finite, so `==` on them
    /// is equality of bits), `fine_to_coarse`, coarse fixed assignment.
    #[test]
    fn flat_collapse_equals_the_map_based_reference() {
        let cases = cases();
        for c in &cases {
            c.matching.validate(&c.fixed).unwrap();
            let want = contract_reference(&c.h, &c.matching, &c.fixed);
            want.coarse.validate().unwrap();
            let got = contract(&c.h, &c.matching, &c.fixed);
            assert!(got.coarse == want.coarse, "{}: coarse differs", c.name);
            assert_eq!(got.fine_to_coarse, want.fine_to_coarse, "{}", c.name);
            assert_eq!(got.coarse_fixed, want.coarse_fixed, "{}", c.name);
        }
        // What the adversarial shapes are there to produce.
        let by_name = |name: &str| {
            let c = cases.iter().find(|c| c.name == name).unwrap();
            contract(&c.h, &c.matching, &c.fixed).coarse
        };
        assert_eq!(by_name("every net identical").num_nets(), 1);
        assert_eq!(by_name("every net internal to a pair").num_nets(), 0);
        assert_eq!(by_name("empty and single-pin nets").num_nets(), 0);
        assert_eq!(by_name("one net holds every vertex").net_size(0), 7);
        let remapped = by_name("equal only after the remap");
        assert_eq!((remapped.num_nets(), remapped.net(0)), (1, &[0u32, 1][..]));
    }

    /// Correctness never rests on the fingerprint: with every net
    /// hashing to the same value (one probe chain through the whole
    /// table, every comparison decided by the pins) the collapse is the
    /// same, net for net, as with the real fingerprint.
    #[test]
    fn collapse_survives_a_constant_fingerprint() {
        for c in cases().into_iter().filter(|c| c.h.num_nets() <= 400) {
            let want = contract_reference(&c.h, &c.matching, &c.fixed);
            let mut real = NetCollapser::new(c.h.num_nets(), c.h.num_pins());
            let mut constant =
                NetCollapser::with_fingerprint(c.h.num_nets(), c.h.num_pins(), |_| 0x5eed);
            for j in 0..c.h.num_nets() {
                let remapped = || {
                    c.h.net(j)
                        .iter()
                        .map(|&v| want.fine_to_coarse[v as usize] as u32)
                };
                assert_eq!(
                    real.push(c.h.net_cost(j), remapped()),
                    constant.push(c.h.net_cost(j), remapped()),
                    "{}: net {j}",
                    c.name
                );
            }
            let (real, constant) = (real.finish(), constant.finish());
            assert_eq!(constant, real, "{}", c.name);
            let (xpins, pins) = want.coarse.pin_csr();
            assert_eq!(
                (&constant.xpins[..], &constant.pins[..]),
                (xpins, pins),
                "{}",
                c.name
            );
            assert_eq!(constant.costs, want.coarse.net_costs(), "{}", c.name);
        }
    }

    /// `push` says which collapsed net a net became or joined, in
    /// first-occurrence order, and the table holds exactly the number of
    /// nets it was sized for — also when that number is zero.
    #[test]
    fn collapser_indices_and_sizing() {
        let mut c = NetCollapser::new(5, 16);
        assert_eq!(c.push(1.0, [3, 1]), Some(0));
        assert_eq!(c.push(1.0, [7, 7]), None, "one distinct pin");
        assert_eq!(c.push(1.0, [1, 2, 3]), Some(1));
        assert_eq!(c.push(0.5, [1, 3, 3, 1]), Some(0), "joins the first net");
        assert_eq!(c.push(1.0, []), None);
        assert_eq!(c.len(), 2);
        let nets = c.finish();
        let want = [(1.5, &[1u32, 3][..]), (1.0, &[1, 2, 3][..])];
        assert_eq!(nets.iter().collect::<Vec<_>>(), want);

        let mut none = NetCollapser::new(0, 0);
        assert_eq!(none.push(1.0, [4]), None);
        assert_eq!(none.finish().xpins, [0]);

        for max_nets in [1usize, 2, 3, 4, 5, 8, 9] {
            let mut c = NetCollapser::new(max_nets, 2 * max_nets);
            for j in 0..max_nets as u32 {
                assert_eq!(
                    c.push(1.0, [j, j + 1]),
                    Some(j as usize),
                    "sized for {max_nets}"
                );
            }
            assert_eq!(c.push(1.0, [1, 0]), Some(0), "a duplicate needs no slot");
        }
    }

    /// Net indices never truncate on their way into a 32-bit slot: the
    /// largest storable one is just below the empty-slot mark, and
    /// anything from the mark up panics.
    #[test]
    fn slot_indices_are_checked_at_the_32_bit_boundary() {
        assert_eq!(slot_net(0), 0);
        assert_eq!(slot_net(u32::MAX as usize - 1), u32::MAX - 1);
        for too_big in [u32::MAX as usize, u32::MAX as usize + 1, usize::MAX] {
            let refused = std::panic::catch_unwind(|| slot_net(too_big));
            assert!(refused.is_err(), "{too_big} must not be stored");
        }
    }

    #[test]
    #[should_panic(expected = "sized for")]
    fn collapser_refuses_more_nets_than_it_was_sized_for() {
        // Sized for 2 nets the table has 4 slots; the third distinct net
        // would take it past half full.
        let mut c = NetCollapser::new(2, 16);
        for j in 0..3 {
            c.push(1.0, [j, j + 1]);
        }
    }

    #[test]
    fn contract_merges_weights_and_sizes() {
        let mut h = Hypergraph::from_nets_unit(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        h.set_vertex_weight(0, 2.0);
        h.set_vertex_size(1, 3.0);
        let m = pair_matching(4, &[(0, 1), (2, 3)]);
        let fixed = FixedAssignment::free(4);
        let lvl = contract(&h, &m, &fixed);
        assert_eq!(lvl.coarse.num_vertices(), 2);
        assert_eq!(lvl.coarse.vertex_weight(0), 3.0); // 2 + 1
        assert_eq!(lvl.coarse.vertex_size(0), 4.0); // 1 + 3
        lvl.coarse.validate().unwrap();
    }

    #[test]
    fn contract_drops_internal_nets_and_keeps_cut_nets() {
        let h = Hypergraph::from_nets_unit(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let m = pair_matching(4, &[(0, 1), (2, 3)]);
        let lvl = contract(&h, &m, &FixedAssignment::free(4));
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
        let lvl = contract(&h, &m, &FixedAssignment::free(6));
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
        let lvl = contract(&h, &m, &fixed);
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
        assert!(
            coarsest.num_vertices() <= 40,
            "coarsest {}",
            coarsest.num_vertices()
        );
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
