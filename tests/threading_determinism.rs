//! Regression test for the chunked-reduction determinism guarantee: the
//! full partitioner must produce the *identical* partition vector at
//! every thread count, for both schemes, on a fixed-seed workload.

use dlb_hypergraph::HypergraphBuilder;
use dlb_partitioner::{partition_hypergraph_fixed, Config, FixedAssignment, Scheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn workload(seed: u64) -> (dlb_hypergraph::Hypergraph, FixedAssignment) {
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
            fixed.fix(v, rng.gen_range(0..4));
        }
    }
    (h, fixed)
}

fn partition_at(
    threads: usize,
    scheme: Scheme,
    h: &dlb_hypergraph::Hypergraph,
    fixed: &FixedAssignment,
) -> Vec<usize> {
    let mut cfg = Config::seeded(7);
    cfg.scheme = scheme;
    cfg.num_vcycles = 2; // exercise the iterated V-cycle path too
    cfg.threads = threads;
    partition_hypergraph_fixed(h, 4, fixed, &cfg).part
}

#[test]
fn partition_is_identical_at_every_thread_count() {
    for scheme in [Scheme::RecursiveBisection, Scheme::DirectKway] {
        let (h, fixed) = workload(99);
        let reference = partition_at(1, scheme, &h, &fixed);
        for threads in [2, 8] {
            let part = partition_at(threads, scheme, &h, &fixed);
            assert_eq!(
                part, reference,
                "partition diverged at threads={threads} (scheme {scheme:?})"
            );
        }
    }
}
