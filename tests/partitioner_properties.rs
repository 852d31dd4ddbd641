//! Property-based tests of the fixed-vertex multilevel partitioner
//! (Section 4): for randomized hypergraphs and randomized fixed-vertex
//! constraints, the partitioner must (1) respect every constraint,
//! (2) produce a complete in-range assignment, and (3) stay deterministic
//! for a given seed.
//!
//! Cases are drawn from a seeded `StdRng` so every run exercises the
//! same instances (no external property-testing dependency is available
//! offline).

use dlb::hypergraph::{Hypergraph, HypergraphBuilder};
use dlb::partitioner::{partition_hypergraph_fixed, Config, FixedAssignment, Scheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// Draws one random instance: a hypergraph on `n ∈ [8, 60)` vertices
/// with `[n/2, 2n)` nets of 2–4 pins each, `k ∈ [2, 5)`, an optional
/// fixed part for ~25% of vertices, and a partitioner seed.
fn random_problem(rng: &mut StdRng) -> (Hypergraph, usize, FixedAssignment, u64) {
    let k = rng.gen_range(2usize..5);
    let n = rng.gen_range(8usize..60);
    let num_nets = rng.gen_range(n / 2..2 * n);
    let mut b = HypergraphBuilder::new(n);
    for _ in 0..num_nets {
        let arity = rng.gen_range(2usize..5);
        let pins: Vec<usize> = (0..arity).map(|_| rng.gen_range(0..n)).collect();
        let cost = rng.gen_range(0.5f64..4.0);
        b.add_net(cost, pins);
    }
    let fixed: Vec<Option<usize>> = (0..n)
        .map(|_| rng.gen_bool(0.25).then(|| rng.gen_range(0..k)))
        .collect();
    let seed = rng.gen::<u64>();
    (b.build(), k, FixedAssignment::from_options(&fixed), seed)
}

/// Recursive bisection honors every fixed vertex and assigns every
/// vertex to a valid part.
#[test]
fn rb_respects_fixed() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let (h, k, fixed, seed) = random_problem(&mut rng);
        let cfg = Config::seeded(seed);
        let r = partition_hypergraph_fixed(&h, k, &fixed, &cfg);
        assert_eq!(r.part.len(), h.num_vertices(), "case {case}");
        assert!(r.part.iter().all(|&p| p < k), "case {case}");
        assert!(
            fixed.is_respected_by(&r.part),
            "case {case}: fixed constraint violated"
        );
        // Reported cut matches a recomputation.
        let cut = dlb::hypergraph::metrics::cutsize_connectivity(&h, &r.part, k);
        assert!((r.cut - cut).abs() < 1e-9, "case {case}");
    }
}

/// Direct k-way honors the same contract.
#[test]
fn kway_respects_fixed() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let (h, k, fixed, seed) = random_problem(&mut rng);
        let mut cfg = Config::seeded(seed);
        cfg.scheme = Scheme::DirectKway;
        let r = partition_hypergraph_fixed(&h, k, &fixed, &cfg);
        assert!(fixed.is_respected_by(&r.part), "case {case}");
        assert!(r.part.iter().all(|&p| p < k), "case {case}");
    }
}

/// Same seed ⇒ identical partition; the partitioner is a pure function
/// of (hypergraph, k, fixed, config).
#[test]
fn deterministic() {
    let mut rng = StdRng::seed_from_u64(0xDE7);
    for case in 0..CASES {
        let (h, k, fixed, seed) = random_problem(&mut rng);
        let cfg = Config::seeded(seed);
        let a = partition_hypergraph_fixed(&h, k, &fixed, &cfg);
        let b = partition_hypergraph_fixed(&h, k, &fixed, &cfg);
        assert_eq!(a.part, b.part, "case {case}");
    }
}

/// On unit-weight hypergraphs with no fixed vertices, balance holds
/// within the configured tolerance plus integrality slack.
#[test]
fn balance_bound() {
    let mut rng = StdRng::seed_from_u64(0xBA1);
    for case in 0..CASES {
        let (h, k, _fixed, seed) = random_problem(&mut rng);
        let cfg = Config::seeded(seed);
        let free = FixedAssignment::free(h.num_vertices());
        let r = partition_hypergraph_fixed(&h, k, &free, &cfg);
        let avg = h.num_vertices() as f64 / k as f64;
        // One vertex of slack per part on top of ε covers integrality on
        // small instances.
        let bound = (1.0 + cfg.epsilon) + 1.5 / avg;
        assert!(
            r.imbalance <= bound + 1e-9,
            "case {case}: imbalance {} > bound {bound} (n={}, k={k})",
            r.imbalance,
            h.num_vertices()
        );
    }
}

mod refinement {
    use super::*;
    use dlb::hypergraph::metrics::cutsize_connectivity;
    use dlb::hypergraph::PartTargets;
    use dlb::partitioner::refine::refine;
    use dlb::partitioner::RefinementConfig;

    /// FM refinement never increases the cut, never violates the caps it
    /// was given a feasible start under, and never moves a fixed vertex.
    #[test]
    fn refine_is_safe() {
        let mut case_rng = StdRng::seed_from_u64(0x5AFE);
        for case in 0..CASES {
            let (h, k, fixed, seed) = random_problem(&mut case_rng);
            // Feasible-ish start: round-robin by vertex id, fixed pins
            // honored.
            let n = h.num_vertices();
            let mut part: Vec<usize> = (0..n).map(|v| v % k).collect();
            for (v, slot) in part.iter_mut().enumerate() {
                if let Some(p) = fixed.get(v) {
                    *slot = p;
                }
            }
            let before = cutsize_connectivity(&h, &part, k);
            let targets = PartTargets::uniform(h.total_vertex_weight(), k, 0.10);
            // Non-worsening is only guaranteed from a cap-feasible start;
            // otherwise the rebalance step rightly trades cut for balance.
            let start_weights = dlb::hypergraph::metrics::part_weights(&h, &part, k);
            let start_feasible = (0..k).all(|p| start_weights[p] <= targets.cap(p) + 1e-9);
            let mut rng = StdRng::seed_from_u64(seed);
            let snapshot = part.clone();
            refine(
                &h,
                &targets,
                &fixed,
                &mut part,
                &RefinementConfig::default(),
                &mut rng,
            );
            let after = cutsize_connectivity(&h, &part, k);
            if start_feasible {
                assert!(
                    after <= before + 1e-9,
                    "case {case}: refine worsened cut {before} -> {after}"
                );
            }
            for v in 0..n {
                if fixed.is_fixed(v) {
                    assert_eq!(part[v], snapshot[v], "case {case}: fixed vertex {v} moved");
                }
            }
        }
    }
}

/// Heavily fixed instances: when most vertices are pinned, the
/// partitioner must still terminate and satisfy all pins (the balance
/// constraint may be unsatisfiable — that is allowed).
#[test]
fn mostly_fixed_instances_terminate() {
    let mut rng = StdRng::seed_from_u64(77);
    for trial in 0..10 {
        let n = 40;
        let k = 4;
        let mut b = HypergraphBuilder::new(n);
        for _ in 0..60 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                b.add_net(1.0, [u, v]);
            }
        }
        let h = b.build();
        let mut fixed = FixedAssignment::free(n);
        for v in 0..n {
            if rng.gen_bool(0.9) {
                fixed.fix(v, rng.gen_range(0..k));
            }
        }
        let r = partition_hypergraph_fixed(&h, k, &fixed, &Config::seeded(trial));
        assert!(fixed.is_respected_by(&r.part), "trial {trial}");
    }
}
