//! The Strict/Fast determinism contract (DESIGN.md §13).
//!
//! * `Determinism::Strict` (the default): bit-identical partitions at
//!   every thread count, for both schemes.
//! * `Determinism::Fast`: drops the matching-order barrier when more
//!   than one thread is in play. No bitwise promise across thread
//!   counts — instead a quality contract: cut within
//!   [`FAST_CUT_FACTOR`] of the Strict result and imbalance within ε,
//!   across seeds and thread counts.
//! * Fast at one effective thread dispatches to the exact Strict code
//!   path, so it *is* bit-identical to Strict there.

use dlb_hypergraph::{metrics, Hypergraph, HypergraphBuilder};
use dlb_partitioner::{partition_hypergraph_fixed, Config, Determinism, FixedAssignment, Scheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 4;

/// Quality bound of the Fast-mode contract: a Fast run's cut must stay
/// within this factor of the Strict cut on the same input (`1.1` =
/// within 10%).
const FAST_CUT_FACTOR: f64 = 1.1;

fn workload(seed: u64) -> (Hypergraph, FixedAssignment) {
    let n = 600;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new(n);
    for _ in 0..1200 {
        let s = rng.gen_range(2..6);
        let pins: Vec<usize> = (0..s).map(|_| rng.gen_range(0..n)).collect();
        b.add_net(rng.gen_range(1..5) as f64, pins);
    }
    let h = b.build();
    let mut fixed = FixedAssignment::free(n);
    for v in 0..n {
        if rng.gen_bool(0.15) {
            fixed.fix(v, rng.gen_range(0..K));
        }
    }
    (h, fixed)
}

fn partition_at(
    threads: usize,
    scheme: Scheme,
    determinism: Determinism,
    h: &Hypergraph,
    fixed: &FixedAssignment,
) -> Vec<usize> {
    let mut cfg = Config::seeded(7);
    cfg.scheme = scheme;
    cfg.num_vcycles = 2;
    cfg.threads = threads;
    cfg.determinism = determinism;
    partition_hypergraph_fixed(h, K, fixed, &cfg).part
}

#[test]
fn strict_is_bit_identical_at_every_thread_count() {
    for scheme in [Scheme::RecursiveBisection, Scheme::DirectKway] {
        let (h, fixed) = workload(99);
        let reference = partition_at(1, scheme, Determinism::Strict, &h, &fixed);
        for threads in [2, 8] {
            let part = partition_at(threads, scheme, Determinism::Strict, &h, &fixed);
            assert_eq!(
                part, reference,
                "Strict diverged at threads={threads} (scheme {scheme:?})"
            );
        }
    }
}

#[test]
fn fast_at_one_thread_equals_strict() {
    for scheme in [Scheme::RecursiveBisection, Scheme::DirectKway] {
        let (h, fixed) = workload(42);
        let strict = partition_at(1, scheme, Determinism::Strict, &h, &fixed);
        let fast = partition_at(1, scheme, Determinism::Fast, &h, &fixed);
        assert_eq!(
            fast, strict,
            "Fast at 1 thread must take the Strict path (scheme {scheme:?})"
        );
    }
}

#[test]
fn fast_meets_the_quality_contract_across_seeds() {
    let cfg = Config::seeded(7);
    for seed in [1u64, 2, 3, 4, 5] {
        let (h, fixed) = workload(seed);
        let strict = partition_at(1, Scheme::DirectKway, Determinism::Strict, &h, &fixed);
        let strict_cut = metrics::cutsize_connectivity(&h, &strict, K);
        for threads in [2, 4, 8] {
            let part = partition_at(threads, Scheme::DirectKway, Determinism::Fast, &h, &fixed);
            let cut = metrics::cutsize_connectivity(&h, &part, K);
            assert!(
                cut <= strict_cut * FAST_CUT_FACTOR + 1e-9,
                "seed {seed}, threads {threads}: Fast cut {cut} vs Strict {strict_cut} \
                 exceeds the {FAST_CUT_FACTOR:.2}x bound"
            );
            let imb = metrics::imbalance(&h, &part, K);
            assert!(
                imb <= 1.0 + cfg.epsilon + 1e-9,
                "seed {seed}, threads {threads}: Fast imbalance {imb} exceeds 1 + epsilon"
            );
        }
    }
}

#[test]
fn fast_respects_fixed_vertices() {
    let (h, fixed) = workload(17);
    for threads in [2, 8] {
        let part = partition_at(threads, Scheme::DirectKway, Determinism::Fast, &h, &fixed);
        for (v, &pv) in part.iter().enumerate() {
            if let Some(p) = fixed.get(v) {
                assert_eq!(pv, p, "fixed vertex {v} moved at threads={threads}");
            }
        }
    }
}
