//! The compressed hypergraph representation.
//!
//! A hypergraph `H = (V, N)` is stored twice, CSR-style:
//!
//! * **net → pins**: `xpins`/`pins` arrays, so the pins of net `j` are
//!   `pins[xpins[j]..xpins[j+1]]`;
//! * **vertex → nets** (the *pin transpose*): `xnets`/`vnets` arrays, so
//!   the nets incident to vertex `v` are `vnets[xnets[v]..xnets[v+1]]`.
//!
//! The two pin-sized arrays hold 32-bit ids: `pins` is `Vec<u32>` of
//! vertex ids and `vnets` is `Vec<u32>` of net ids, so [`Hypergraph::net`],
//! [`Hypergraph::vertex_nets`] and [`Hypergraph::pin_csr`] hand out
//! `&[u32]` and a caller indexes with `as usize`. The width is checked
//! once per hypergraph, not per pin: [`Hypergraph::from_csr`] refuses a
//! vertex or net count above `u32::MAX` before it allocates anything
//! per vertex, and [`HypergraphBuilder::new`] panics on such a vertex
//! count. After that check and the pin range check every `as u32` is
//! exact. The offsets `xpins`/`xnets` stay `usize`: they count pins, not
//! ids, and a hypergraph may hold more than `u32::MAX` pins.
//!
//! Each vertex carries a [`VertexLoads`] resource vector whose primary
//! (constraint-0) entry is the *weight* `w_i` (computational load used by
//! the balance constraint, Eq. (1) of the paper; further constraints are
//! additional balanced resources such as memory bytes) and a *size* (the
//! amount of data that must move if the vertex migrates — the cost of its
//! migration net in the repartitioning model of Section 3). Each net
//! carries a *cost* `c_j` (communication data volume, the coefficient in
//! the k-1 cut, Eq. (2)).

use std::fmt;

use crate::loads::VertexLoads;

/// A hypergraph with vertex weights, vertex sizes, and net costs.
///
/// Immutable after construction except for weights, sizes and costs,
/// which the dynamic workloads mutate between epochs. The pin structure
/// itself never changes; epoch-to-epoch structural change is expressed by
/// building a new `Hypergraph` (see [`crate::subset`]).
#[derive(Clone, PartialEq)]
pub struct Hypergraph {
    num_vertices: usize,
    xpins: Vec<usize>,
    pins: Vec<u32>,
    xnets: Vec<usize>,
    vnets: Vec<u32>,
    loads: VertexLoads,
    vsize: Vec<f64>,
    ncost: Vec<f64>,
}

impl Hypergraph {
    /// Builds a hypergraph from a pin list.
    ///
    /// `nets[j]` is the pin list of net `j`; `ncost[j]` its cost. Vertex
    /// weights and sizes default to `1.0`. Pins must be `< num_vertices`;
    /// duplicate pins within a net are removed.
    ///
    /// # Panics
    /// Panics if a pin index is out of range.
    pub fn from_nets(num_vertices: usize, nets: &[Vec<usize>], ncost: Vec<f64>) -> Self {
        assert_eq!(nets.len(), ncost.len(), "one cost per net");
        let mut builder = HypergraphBuilder::new(num_vertices);
        for (net, &c) in nets.iter().zip(&ncost) {
            builder.add_net(c, net.iter().copied());
        }
        builder.build()
    }

    /// Builds a hypergraph with unit net costs.
    pub fn from_nets_unit(num_vertices: usize, nets: &[Vec<usize>]) -> Self {
        Self::from_nets(num_vertices, nets, vec![1.0; nets.len()])
    }

    /// Builds a hypergraph from finished net → pins arrays, taking them
    /// as they are: the pins of net `j` are `pins[xpins[j]..xpins[j+1]]`
    /// with cost `ncost[j]`. This is the one place the pin transpose is
    /// computed ([`HypergraphBuilder::build`] ends here too).
    ///
    /// A vertex or net count above `u32::MAX` is refused first, before
    /// anything is allocated per vertex: pins and incidence lists are
    /// stored as 32-bit ids (see the module docs).
    ///
    /// The shape of the arrays is always checked, in `O(pins)`: an
    /// `xpins` that does not start at 0, decreases, ends elsewhere than
    /// `pins.len()` or has other than `ncost.len() + 1` entries, a pin
    /// `>= num_vertices`, or load/size arrays of another length than
    /// `num_vertices` is an error in [`Hypergraph::validate`]'s style.
    /// Pins must be distinct within a net; that, like the value ranges
    /// `validate` checks, is only debug-asserted.
    pub fn from_csr(
        num_vertices: usize,
        xpins: Vec<usize>,
        pins: Vec<u32>,
        ncost: Vec<f64>,
        loads: VertexLoads,
        vsize: Vec<f64>,
    ) -> Result<Hypergraph, String> {
        check_id_width(num_vertices, ncost.len())?;
        if xpins.len() != ncost.len() + 1 {
            return Err("xpins length must be num_nets + 1".into());
        }
        if xpins[0] != 0 || xpins[ncost.len()] != pins.len() {
            return Err("xpins must start at 0 and end at the pin count".into());
        }
        if xpins.windows(2).any(|w| w[0] > w[1]) {
            return Err("xpins must be non-decreasing".into());
        }
        if loads.len() != num_vertices || vsize.len() != num_vertices {
            return Err("load/size arrays must have num_vertices entries".into());
        }
        // Build the transpose by counting sort over pins; the counting
        // pass is also the range check.
        let mut xnets = vec![0usize; num_vertices + 1];
        for &p in &pins {
            let p = p as usize;
            if p >= num_vertices {
                return Err(format!("out-of-range pin {p}"));
            }
            xnets[p + 1] += 1;
        }
        for v in 0..num_vertices {
            xnets[v + 1] += xnets[v];
        }
        let mut vnets = vec![0u32; pins.len()];
        let mut cursor = xnets.clone();
        for j in 0..ncost.len() {
            for &p in &pins[xpins[j]..xpins[j + 1]] {
                let p = p as usize;
                vnets[cursor[p]] = j as u32;
                cursor[p] += 1;
            }
        }
        let h = Hypergraph {
            num_vertices,
            xpins,
            pins,
            xnets,
            vnets,
            loads,
            vsize,
            ncost,
        };
        debug_assert_eq!(h.validate(), Ok(()));
        Ok(h)
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of nets `|N|`.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.xpins.len() - 1
    }

    /// Total number of pins (sum of net sizes).
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// The pins (vertices) of net `j`, as 32-bit vertex ids.
    #[inline]
    pub fn net(&self, j: usize) -> &[u32] {
        &self.pins[self.xpins[j]..self.xpins[j + 1]]
    }

    /// The size (number of pins) of net `j`.
    #[inline]
    pub fn net_size(&self, j: usize) -> usize {
        self.xpins[j + 1] - self.xpins[j]
    }

    /// The nets incident to vertex `v`, as 32-bit net ids.
    #[inline]
    pub fn vertex_nets(&self, v: usize) -> &[u32] {
        &self.vnets[self.xnets[v]..self.xnets[v + 1]]
    }

    /// The degree (number of incident nets) of vertex `v`.
    #[inline]
    pub(crate) fn vertex_degree(&self, v: usize) -> usize {
        self.xnets[v + 1] - self.xnets[v]
    }

    /// Computational weight of vertex `v` — the primary (constraint-0)
    /// load of the balance constraint.
    #[inline]
    pub fn vertex_weight(&self, v: usize) -> f64 {
        self.loads.scalar()[v]
    }

    /// Load of vertex `v` under balance constraint `c`.
    #[inline]
    pub fn vertex_load(&self, v: usize, c: usize) -> f64 {
        self.loads.get(v, c)
    }

    /// Number of balance constraints every vertex carries (1 = the
    /// classic scalar-weight pipeline).
    #[inline]
    pub fn load_arity(&self) -> usize {
        self.loads.arity()
    }

    /// Migration data size of vertex `v` (cost of its migration net).
    #[inline]
    pub fn vertex_size(&self, v: usize) -> f64 {
        self.vsize[v]
    }

    /// Communication cost of net `j` (coefficient in the k-1 cut).
    #[inline]
    pub fn net_cost(&self, j: usize) -> f64 {
        self.ncost[j]
    }

    /// The typed per-vertex load vectors.
    #[inline]
    pub fn loads(&self) -> &VertexLoads {
        &self.loads
    }

    /// All vertex sizes.
    #[inline]
    pub fn vertex_sizes(&self) -> &[f64] {
        &self.vsize
    }

    /// All net costs.
    #[inline]
    pub fn net_costs(&self) -> &[f64] {
        &self.ncost
    }

    /// Sum of all vertex weights (primary loads).
    pub fn total_vertex_weight(&self) -> f64 {
        self.loads.scalar().iter().sum()
    }

    /// Sum of constraint `c` over all vertices.
    pub fn total_load(&self, c: usize) -> f64 {
        self.loads.total(c)
    }

    /// Sets the weight (primary load) of vertex `v`.
    pub fn set_vertex_weight(&mut self, v: usize, w: f64) {
        assert!(w >= 0.0, "vertex weight must be non-negative");
        self.loads.set(v, 0, w);
    }

    /// Sets the migration size of vertex `v`.
    pub fn set_vertex_size(&mut self, v: usize, s: f64) {
        assert!(s >= 0.0, "vertex size must be non-negative");
        self.vsize[v] = s;
    }

    /// Sets the cost of net `j`.
    pub fn set_net_cost(&mut self, j: usize, c: f64) {
        assert!(c >= 0.0, "net cost must be non-negative");
        self.ncost[j] = c;
    }

    /// Replaces the per-vertex load vectors (any arity).
    ///
    /// # Panics
    /// Panics if `loads` does not cover exactly `num_vertices` vertices.
    pub fn set_loads(&mut self, loads: VertexLoads) {
        assert_eq!(loads.len(), self.num_vertices, "one load vector per vertex");
        self.loads = loads;
    }

    /// Replaces all vertex sizes.
    pub fn set_vertex_sizes(&mut self, s: Vec<f64>) {
        assert_eq!(s.len(), self.num_vertices);
        self.vsize = s;
    }

    /// Checks structural invariants; returns a description of the first
    /// violation, if any. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if self.xpins.len() != self.ncost.len() + 1 {
            return Err("xpins length must be num_nets + 1".into());
        }
        if self.xnets.len() != self.num_vertices + 1 {
            return Err("xnets length must be num_vertices + 1".into());
        }
        if self.loads.len() != self.num_vertices || self.vsize.len() != self.num_vertices {
            return Err("load/size arrays must have num_vertices entries".into());
        }
        self.loads.validate()?;
        if self.pins.len() != self.vnets.len() {
            return Err("pin count must equal transpose pin count".into());
        }
        if self.xpins.windows(2).any(|w| w[0] > w[1]) {
            return Err("xpins must be non-decreasing".into());
        }
        if self.xnets.windows(2).any(|w| w[0] > w[1]) {
            return Err("xnets must be non-decreasing".into());
        }
        for j in 0..self.num_nets() {
            let net = self.net(j);
            for &p in net {
                if p as usize >= self.num_vertices {
                    return Err(format!("net {j} has out-of-range pin {p}"));
                }
            }
            let mut sorted = net.to_vec();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("net {j} has duplicate pins"));
            }
        }
        // Transpose consistency: vertex v lists net j iff net j lists v.
        let mut count = vec![0usize; self.num_vertices];
        for &p in &self.pins {
            count[p as usize] += 1;
        }
        for v in 0..self.num_vertices {
            if self.vertex_degree(v) != count[v] {
                return Err(format!("vertex {v} transpose degree mismatch"));
            }
            for &j in self.vertex_nets(v) {
                if !self.net(j as usize).contains(&(v as u32)) {
                    return Err(format!("vertex {v} lists net {j} but net lacks the pin"));
                }
            }
        }
        if self
            .vsize
            .iter()
            .chain(&self.ncost)
            .any(|&x| x < 0.0 || !x.is_finite())
        {
            return Err("sizes and costs must be finite and non-negative".into());
        }
        Ok(())
    }

    /// Raw CSR access for partitioner internals: `(xpins, pins)`.
    pub fn pin_csr(&self) -> (&[usize], &[u32]) {
        (&self.xpins, &self.pins)
    }
}

/// The one width check of a hypergraph: every vertex id and net id must
/// fit the `u32` that `pins` and `vnets` store it as.
fn check_id_width(num_vertices: usize, num_nets: usize) -> Result<(), String> {
    const LIMIT: usize = u32::MAX as usize;
    if num_vertices > LIMIT {
        return Err(format!(
            "{num_vertices} vertices exceed the 32-bit id limit of {LIMIT}"
        ));
    }
    if num_nets > LIMIT {
        return Err(format!(
            "{num_nets} nets exceed the 32-bit id limit of {LIMIT}"
        ));
    }
    Ok(())
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hypergraph")
            .field("num_vertices", &self.num_vertices)
            .field("num_nets", &self.num_nets())
            .field("num_pins", &self.num_pins())
            .finish()
    }
}

/// Incremental hypergraph constructor.
///
/// ```
/// use dlb_hypergraph::HypergraphBuilder;
/// let mut b = HypergraphBuilder::new(4);
/// b.add_net(1.0, [0, 1, 2]);
/// b.add_net(2.5, [2, 3]);
/// b.set_vertex_weight(3, 4.0);
/// let h = b.build();
/// assert_eq!(h.num_nets(), 2);
/// assert_eq!(h.net(1), &[2, 3]);
/// assert_eq!(h.vertex_weight(3), 4.0);
/// ```
pub struct HypergraphBuilder {
    num_vertices: usize,
    xpins: Vec<usize>,
    pins: Vec<u32>,
    ncost: Vec<f64>,
    loads: VertexLoads,
    vsize: Vec<f64>,
    seen: Vec<u64>,
    stamp: u64,
}

impl HypergraphBuilder {
    /// Creates a builder for a hypergraph on `num_vertices` vertices with
    /// unit weights and sizes.
    ///
    /// # Panics
    /// Panics if `num_vertices` exceeds `u32::MAX`, the largest vertex
    /// count 32-bit pins can name.
    pub fn new(num_vertices: usize) -> Self {
        if let Err(e) = check_id_width(num_vertices, 0) {
            panic!("{e}");
        }
        HypergraphBuilder {
            num_vertices,
            xpins: vec![0],
            pins: Vec::new(),
            ncost: Vec::new(),
            loads: VertexLoads::ones(num_vertices),
            vsize: vec![1.0; num_vertices],
            seen: vec![0; num_vertices],
            stamp: 0,
        }
    }

    /// Adds a net with the given cost and pins; duplicate pins are
    /// silently dropped. Returns the net index.
    ///
    /// # Panics
    /// Panics on an out-of-range pin or a negative cost.
    pub fn add_net(&mut self, cost: f64, net: impl IntoIterator<Item = usize>) -> usize {
        assert!(cost >= 0.0, "net cost must be non-negative");
        self.stamp += 1;
        for v in net {
            assert!(v < self.num_vertices, "pin {v} out of range");
            if self.seen[v] != self.stamp {
                self.seen[v] = self.stamp;
                // Exact: `v < num_vertices <= u32::MAX`.
                self.pins.push(v as u32);
            }
        }
        self.xpins.push(self.pins.len());
        self.ncost.push(cost);
        self.ncost.len() - 1
    }

    /// Sets the computational weight (primary load) of a vertex
    /// (default `1.0`).
    pub fn set_vertex_weight(&mut self, v: usize, w: f64) {
        assert!(w >= 0.0);
        self.loads.set(v, 0, w);
    }

    /// Replaces the per-vertex load vectors (any arity).
    ///
    /// # Panics
    /// Panics if `loads` does not cover exactly `num_vertices` vertices.
    pub fn set_loads(&mut self, loads: VertexLoads) {
        assert_eq!(loads.len(), self.num_vertices, "one load vector per vertex");
        self.loads = loads;
    }

    /// Sets the migration size of a vertex (default `1.0`).
    pub fn set_vertex_size(&mut self, v: usize, s: f64) {
        assert!(s >= 0.0);
        self.vsize[v] = s;
    }

    /// Number of nets added so far.
    #[cfg(test)]
    pub(crate) fn num_nets(&self) -> usize {
        self.ncost.len()
    }

    /// Finalizes the hypergraph, computing the pin transpose.
    pub fn build(self) -> Hypergraph {
        let HypergraphBuilder {
            num_vertices,
            xpins,
            pins,
            ncost,
            loads,
            vsize,
            ..
        } = self;
        Hypergraph::from_csr(num_vertices, xpins, pins, ncost, loads, vsize)
            .expect("add_net and set_loads keep the arrays well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        // Nets: {0,1,2}, {1,3}, {2,3,4}, {4}
        Hypergraph::from_nets(
            5,
            &[vec![0, 1, 2], vec![1, 3], vec![2, 3, 4], vec![4]],
            vec![1.0, 2.0, 3.0, 4.0],
        )
    }

    #[test]
    fn construction_and_accessors() {
        let h = sample();
        assert_eq!(h.num_vertices(), 5);
        assert_eq!(h.num_nets(), 4);
        assert_eq!(h.num_pins(), 9);
        assert_eq!(h.net(0), &[0, 1, 2]);
        assert_eq!(h.net(3), &[4]);
        assert_eq!(h.net_size(2), 3);
        assert_eq!(h.net_cost(1), 2.0);
        assert_eq!(h.vertex_weight(0), 1.0);
        h.validate().unwrap();
    }

    #[test]
    fn transpose_is_consistent() {
        let h = sample();
        assert_eq!(h.vertex_nets(1), &[0, 1]);
        assert_eq!(h.vertex_nets(4), &[2, 3]);
        assert_eq!(h.vertex_degree(3), 2);
        assert_eq!(h.vertex_degree(0), 1);
    }

    #[test]
    fn duplicate_pins_are_dropped() {
        let h = Hypergraph::from_nets(3, &[vec![0, 1, 1, 2, 0]], vec![1.0]);
        assert_eq!(h.net(0), &[0, 1, 2]);
        h.validate().unwrap();
    }

    #[test]
    fn weight_mutation() {
        let mut h = sample();
        h.set_vertex_weight(2, 7.5);
        h.set_vertex_size(2, 3.25);
        h.set_net_cost(0, 9.0);
        assert_eq!(h.vertex_weight(2), 7.5);
        assert_eq!(h.vertex_size(2), 3.25);
        assert_eq!(h.net_cost(0), 9.0);
        assert_eq!(h.total_vertex_weight(), 4.0 + 7.5);
    }

    #[test]
    fn scaled_net_costs() {
        let mut h = sample();
        for j in 0..h.num_nets() {
            h.set_net_cost(j, 10.0 * h.net_cost(j));
        }
        assert_eq!(h.net_cost(0), 10.0);
        assert_eq!(h.net_cost(3), 40.0);
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::from_nets_unit(0, &[]);
        assert_eq!(h.num_vertices(), 0);
        assert_eq!(h.num_nets(), 0);
        h.validate().unwrap();
    }

    #[test]
    fn single_pin_net_allowed() {
        let h = Hypergraph::from_nets_unit(2, &[vec![1]]);
        assert_eq!(h.net_size(0), 1);
        h.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pin_panics() {
        let mut b = HypergraphBuilder::new(2);
        b.add_net(1.0, [0, 5]);
    }

    #[test]
    fn from_csr_equals_the_builder() {
        let h = sample();
        let (xpins, pins) = h.pin_csr();
        let again = Hypergraph::from_csr(
            5,
            xpins.to_vec(),
            pins.to_vec(),
            h.net_costs().to_vec(),
            h.loads().clone(),
            h.vertex_sizes().to_vec(),
        )
        .unwrap();
        assert!(again == h);
        let empty =
            Hypergraph::from_csr(0, vec![0], vec![], vec![], VertexLoads::ones(0), vec![]).unwrap();
        assert!(empty == Hypergraph::from_nets_unit(0, &[]));
    }

    #[test]
    fn from_csr_rejects_malformed_arrays() {
        // Two nets {0,1} and {1,2} on three vertices, then one defect each.
        let build = |n: usize, xpins: &[usize], pins: &[u32], costs: usize, attrs: usize| {
            Hypergraph::from_csr(
                n,
                xpins.to_vec(),
                pins.to_vec(),
                vec![1.0; costs],
                VertexLoads::ones(attrs),
                vec![1.0; attrs],
            )
        };
        build(3, &[0, 2, 4], &[0, 1, 1, 2], 2, 3).unwrap();
        let bad = [
            (build(3, &[0, 2, 4], &[0, 1, 1, 2], 3, 3), "num_nets + 1"),
            (build(3, &[], &[], 0, 3), "num_nets + 1"),
            (build(3, &[1, 2, 4], &[0, 1, 1, 2], 2, 3), "start at 0"),
            (
                build(3, &[0, 2, 3], &[0, 1, 1, 2], 2, 3),
                "end at the pin count",
            ),
            (
                build(3, &[0, 2, 5], &[0, 1, 1, 2], 2, 3),
                "end at the pin count",
            ),
            (
                build(3, &[0, 3, 2, 4], &[0, 1, 1, 2], 3, 3),
                "non-decreasing",
            ),
            (
                build(3, &[0, 2, 4], &[0, 1, 1, 3], 2, 3),
                "out-of-range pin 3",
            ),
            (
                build(3, &[0, 2, 4], &[0, 1, 1, u32::MAX], 2, 3),
                "out-of-range pin",
            ),
            (
                build(3, &[0, 2, 4], &[0, 1, 1, 2], 2, 2),
                "num_vertices entries",
            ),
        ];
        for (result, expected) in bad {
            let err = result.expect_err(expected);
            assert!(
                err.contains(expected),
                "{err:?} should mention {expected:?}"
            );
        }
    }

    #[test]
    fn from_csr_refuses_ids_wider_than_32_bits() {
        // Empty arrays: the width is checked before the shape and
        // before the 2^32-entry transpose offsets are allocated.
        let wide = u32::MAX as usize + 1;
        let err = Hypergraph::from_csr(wide, vec![0], vec![], vec![], VertexLoads::ones(0), vec![])
            .expect_err("2^32 vertices do not fit 32-bit pins");
        assert!(err.contains("32-bit id limit of 4294967295"), "{err}");
        // A net count that wide needs 2^32 costs to pass `from_csr`;
        // the check it runs first is tested directly.
        let err = check_id_width(3, wide).expect_err("2^32 nets do not fit");
        assert!(err.contains("nets exceed the 32-bit id limit"), "{err}");
        assert_eq!(check_id_width(u32::MAX as usize, u32::MAX as usize), Ok(()));
    }

    #[test]
    #[should_panic(expected = "exceed the 32-bit id limit of 4294967295")]
    fn builder_refuses_more_vertices_than_32_bits_name() {
        HypergraphBuilder::new(u32::MAX as usize + 1);
    }

    #[test]
    fn multi_constraint_loads_roundtrip() {
        let mut h = sample();
        assert_eq!(h.load_arity(), 1);
        let loads = VertexLoads::from_columns(vec![vec![1.0, 2.0, 3.0, 4.0, 5.0], vec![40.0; 5]]);
        h.set_loads(loads);
        assert_eq!(h.load_arity(), 2);
        assert_eq!(h.vertex_weight(2), 3.0, "constraint 0 is the scalar weight");
        assert_eq!(h.vertex_load(2, 1), 40.0);
        assert_eq!(h.total_vertex_weight(), 15.0);
        assert_eq!(h.total_load(1), 200.0);
        h.set_vertex_weight(2, 9.0);
        assert_eq!(h.loads().get(2, 0), 9.0);
        let mut loads = h.loads().clone();
        loads.set(0, 1, 80.0);
        h.set_loads(loads);
        assert_eq!(h.loads().constraint(1), &[80.0, 40.0, 40.0, 40.0, 40.0]);
        h.validate().unwrap();
    }

    #[test]
    fn builder_accepts_multi_constraint_loads() {
        let mut b = HypergraphBuilder::new(3);
        b.add_net(1.0, [0, 1, 2]);
        b.set_loads(VertexLoads::from_columns(vec![
            vec![1.0, 1.0, 2.0],
            vec![8.0, 0.0, 4.0],
        ]));
        let h = b.build();
        assert_eq!(h.load_arity(), 2);
        assert_eq!(h.vertex_load(0, 1), 8.0);
        h.validate().unwrap();
    }

    #[test]
    fn builder_net_indices_are_sequential() {
        let mut b = HypergraphBuilder::new(3);
        assert_eq!(b.add_net(1.0, [0]), 0);
        assert_eq!(b.add_net(1.0, [1, 2]), 1);
        assert_eq!(b.num_nets(), 2);
    }
}
