//! Multi-constraint load vectors (DESIGN.md §16).
//!
//! Two contracts are pinned here:
//!
//! 1. **Arity-1 is free.** A hypergraph whose loads are installed as an
//!    explicit arity-1 [`VertexLoads`] partitions bit-identically — same
//!    partition vector, same costs, same trace counters — to one whose
//!    weights went in through the classic per-vertex scalar path, at
//!    every thread count, rank count, scheme, and warm-start setting.
//!    The repair counters stay at zero: the scalar pipeline never
//!    reaches the multi-constraint machinery.
//!
//! 2. **Repair recovers what FM cannot.** On a two-constraint instance
//!    whose cut-optimal bisection violates the auxiliary constraint,
//!    plain FM stalls (every move has negative cut gain), and the
//!    greedy rebalancing repair pass must engage to reach feasibility
//!    on every constraint.
//!
//! 3. **One epoch path.** A two-constraint AMR session reports the same
//!    epochs whether the SPMD V-cycle holds its large levels replicated
//!    or block-distributed, at ranks 1, 2 and 4.

use dlb::hypergraph::{metrics, Hypergraph, HypergraphBuilder, VertexLoads};
use dlb::mpisim::run_spmd;
use dlb::partitioner::{
    partition_fixed_on, partition_hypergraph, refine_partition_fixed, targets_for, Config,
    FixedAssignment, Scheme,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random weighted hypergraph, built twice: once with weights set
/// through the classic scalar path, once with the identical column
/// installed as an explicit arity-1 `VertexLoads`.
fn scalar_and_arity1(seed: u64) -> (Hypergraph, Hypergraph) {
    let n = 240;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new(n);
    for _ in 0..480 {
        let s = rng.gen_range(2..6);
        let pins: Vec<usize> = (0..s).map(|_| rng.gen_range(0..n)).collect();
        b.add_net(rng.gen_range(1..4) as f64, pins);
    }
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0f64..5.0)).collect();
    let mut scalar = b.build();
    for (v, &w) in weights.iter().enumerate() {
        scalar.set_vertex_weight(v, w);
    }
    let mut typed = scalar.clone();
    typed.set_loads(VertexLoads::from_scalar(weights));
    (scalar, typed)
}

/// The partitioner must be bitwise-indifferent to *how* an arity-1 load
/// column was installed, across thread counts, schemes, warm starts —
/// and must never touch the repair machinery on scalar inputs.
#[test]
fn arity1_vertex_loads_are_bitwise_identical_to_scalar_weights() {
    let (scalar, typed) = scalar_and_arity1(0x1D);
    assert_eq!(typed.load_arity(), 1);
    for scheme in [Scheme::RecursiveBisection, Scheme::DirectKway] {
        for warm in [false, true] {
            for threads in [1usize, 2, 8] {
                let mut cfg = Config::seeded(7);
                cfg.scheme = scheme;
                cfg.threads = threads;
                cfg.warm_start = warm;
                let run = |h: &Hypergraph| {
                    let session = dlb::trace::session();
                    let r = if warm {
                        // Warm path: seed from a deliberately skewed
                        // block partition both runs share.
                        let seed_part: Vec<usize> = (0..h.num_vertices())
                            .map(|v| usize::from(v >= 60))
                            .collect();
                        let fixed = FixedAssignment::free(h.num_vertices());
                        refine_partition_fixed(h, 2, &fixed, &seed_part, &cfg)
                    } else {
                        partition_hypergraph(h, 4, &cfg)
                    };
                    (r, session.finish())
                };
                let (a, ta) = run(&scalar);
                let (b, tb) = run(&typed);
                let tag = format!("scheme {scheme:?} warm {warm} threads {threads}");
                assert_eq!(a.part, b.part, "partition diverged: {tag}");
                assert_eq!(a.cut.to_bits(), b.cut.to_bits(), "cut diverged: {tag}");
                assert_eq!(
                    a.imbalance.to_bits(),
                    b.imbalance.to_bits(),
                    "imbalance diverged: {tag}"
                );
                assert_eq!(ta.counters, tb.counters, "trace counters diverged: {tag}");
                assert_eq!(
                    ta.counter(dlb::trace::Counter::RepairInvocations),
                    0,
                    "scalar run entered the repair pass: {tag}"
                );
            }
        }
    }
}

/// The SPMD partitioner honors the same indifference at every world
/// size.
#[test]
fn arity1_vertex_loads_are_bitwise_identical_under_spmd() {
    let (scalar, typed) = scalar_and_arity1(0x2E);
    let cfg = Config::seeded(11);
    for ranks in [1usize, 2, 4] {
        let run = |h: &Hypergraph| {
            let free = FixedAssignment::free(h.num_vertices());
            run_spmd(ranks, |comm| {
                partition_fixed_on(Some(comm), h, 4, &free, None, &cfg)
            })
            .pop()
            .unwrap()
        };
        let a = run(&scalar);
        let b = run(&typed);
        assert_eq!(a.part, b.part, "SPMD partition diverged at ranks={ranks}");
        assert_eq!(
            a.cut.to_bits(),
            b.cut.to_bits(),
            "SPMD cut diverged at ranks={ranks}"
        );
    }
}

/// Two tight 4-cliques joined by nothing: the cut-optimal bisection is
/// the clique split, which is perfectly balanced on constraint 0 but
/// infeasible on constraint 1 (one clique carries 5× the auxiliary
/// load). Every single-vertex move from the clique split has negative
/// cut gain, so plain FM stalls there.
fn fm_stall_instance() -> Hypergraph {
    let mut b = HypergraphBuilder::new(8);
    for group in [[0usize, 1, 2, 3], [4, 5, 6, 7]] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_net(4.0, [group[i], group[j]]);
            }
        }
    }
    let mut h = b.build();
    // Constraint 0 (uniform) is satisfied by any 4–4 split; constraint 1
    // piles onto the first clique: totals 20 vs 4, cap 12.6 at ε = 0.05.
    // Feasibility needs two heavy vertices moved across the clique cut.
    let flops = vec![1.0; 8];
    let bytes: Vec<f64> = (0..8).map(|v| if v < 4 { 5.0 } else { 1.0 }).collect();
    h.set_loads(VertexLoads::from_columns(vec![flops, bytes]));
    h
}

/// Tolerances for [`fm_stall_instance`]: the primary constraint gets a
/// slack budget (ε = 0.5, cap 6.0) so the repair pass's strict-descent
/// moves — one vertex at a time, each shrinking the worst relative
/// violation — can walk from the clique split to a byte-feasible
/// assignment without ever tripping the flop cap. At ε = 0.05 on both,
/// the only fix is a heavy-for-light *swap*, which single-move descent
/// cannot express.
fn fm_stall_config(seed: u64) -> Config {
    Config {
        epsilon: 0.5,
        aux_epsilons: vec![0.05],
        ..Config::seeded(seed)
    }
}

/// With only the primary constraint, the clique-split seed is already
/// optimal and balanced: FM keeps it unchanged. This is the "FM alone
/// stalls" half of the repair contract.
#[test]
fn fm_alone_keeps_the_aux_infeasible_clique_split() {
    let h = fm_stall_instance();
    let mut scalar = h.clone();
    scalar.set_loads(VertexLoads::from_scalar(vec![1.0; 8]));
    let mut cfg = Config::seeded(3);
    cfg.warm_start = true;
    let seed_part: Vec<usize> = (0..8).map(|v| usize::from(v >= 4)).collect();
    let fixed = FixedAssignment::free(8);
    let r = refine_partition_fixed(&scalar, 2, &fixed, &seed_part, &cfg);
    assert_eq!(
        r.part, seed_part,
        "scalar FM should not move off the optimal split"
    );
}

/// The same seed under the two-constraint loads: FM cannot fix the
/// auxiliary violation (all fixing moves have negative gain), so the
/// greedy repair pass must engage — and the result must be feasible on
/// *every* constraint.
#[test]
fn greedy_repair_recovers_feasibility_where_fm_stalls() {
    let h = fm_stall_instance();
    let mut cfg = fm_stall_config(3);
    cfg.warm_start = true;
    let seed_part: Vec<usize> = (0..8).map(|v| usize::from(v >= 4)).collect();
    let fixed = FixedAssignment::free(8);

    let session = dlb::trace::session();
    let r = refine_partition_fixed(&h, 2, &fixed, &seed_part, &cfg);
    let report = session.finish();

    let targets = targets_for(&h, 2, &cfg);
    let w = metrics::part_weights(&h, &r.part, 2);
    let aux = metrics::aux_part_loads(&h, &r.part, 2);
    assert!(
        targets.feasible(&w, &aux),
        "partition infeasible: primary {w:?}, aux {aux:?}, part {:?}",
        r.part
    );
    assert!(
        report.counter(dlb::trace::Counter::RepairInvocations) >= 1,
        "repair pass never engaged"
    );
    assert!(
        report.counter(dlb::trace::Counter::RepairMovesApplied) >= 1,
        "repair pass applied no moves"
    );
}

/// The full cold pipeline on the same instance also lands on a
/// two-constraint-feasible partition (however it gets there).
#[test]
fn cold_pipeline_is_feasible_on_both_constraints() {
    let h = fm_stall_instance();
    for scheme in [Scheme::RecursiveBisection, Scheme::DirectKway] {
        let mut cfg = fm_stall_config(17);
        cfg.scheme = scheme;
        let r = partition_hypergraph(&h, 2, &cfg);
        let targets = targets_for(&h, 2, &cfg);
        let w = metrics::part_weights(&h, &r.part, 2);
        let aux = metrics::aux_part_loads(&h, &r.part, 2);
        assert!(
            targets.feasible(&w, &aux),
            "{scheme:?}: primary {w:?}, aux {aux:?}, part {:?}",
            r.part
        );
    }
}

/// The same two contracts on the real flops-vs-bytes divergence: the
/// two-constraint AMR lowering (flops grow with the refinement level,
/// bytes are uniform per cell). The cold pipeline must land feasible on
/// both constraints, and a warm start from a seed that piles half the
/// cells onto part 0 — the byte constraint is violated at entry — must
/// engage the repair pass and end feasible.
#[test]
fn amr_two_constraint_lowering_is_feasible_cold_and_after_a_skewed_warm_start() {
    use dlb::amr::{AmrConfig, AmrStream};
    const K: usize = 8;
    const SEED: u64 = 42;
    let amr_cfg = AmrConfig {
        multi_constraint: true,
        ..AmrConfig::default()
    };
    let h = AmrStream::new(amr_cfg, K, SEED)
        .initial_lowering()
        .hypergraph;
    assert_eq!(h.load_arity(), 2);
    let n = h.num_vertices();
    let mut cfg = Config {
        aux_epsilons: vec![0.10],
        threads: 1,
        ..Config::seeded(SEED)
    };
    let targets = targets_for(&h, K, &cfg);
    let feasible = |part: &[usize]| {
        targets.feasible(
            &metrics::part_weights(&h, part, K),
            &metrics::aux_part_loads(&h, part, K),
        )
    };

    let cold = partition_hypergraph(&h, K, &cfg);
    assert!(
        feasible(&cold.part),
        "cold partition violates a constraint: {:?}",
        metrics::imbalance_per_constraint(&h, &cold.part, K)
    );

    cfg.warm_start = true;
    let seed_part: Vec<usize> = (0..n)
        .map(|v| if v < n / 2 { 0 } else { v * K / n })
        .collect();
    assert!(
        !feasible(&seed_part),
        "the skewed seed must start infeasible"
    );
    let session = dlb::trace::session();
    let warm = refine_partition_fixed(&h, K, &FixedAssignment::free(n), &seed_part, &cfg);
    let report = session.finish();
    assert!(
        feasible(&warm.part),
        "warm-started refinement left a constraint violated"
    );
    assert!(
        report.counter(dlb::trace::Counter::RepairInvocations) >= 1,
        "aux-skewed warm start never engaged the repair pass"
    );
}

/// Multi-constraint epochs take the one epoch path on every execution
/// context: with the fine levels block-distributed, a two-constraint
/// AMR session reports exactly what the replicated run reports, at
/// ranks 1, 2 and 4. (A one-rank [`Session`] without `dist.distributed`
/// is the serial driver, so the worlds are entered by hand to get the
/// one-rank replicated twin.)
///
/// [`Session`]: dlb::core::Session
#[test]
fn two_constraint_amr_session_is_identical_distributed_and_replicated() {
    use dlb::amr::{AmrConfig, AmrStream};
    use dlb::core::{RepartConfig, Session};
    use dlb::workloads::AmrSource;
    const K: usize = 4;
    const SEED: u64 = 42;
    const GATHER_THRESHOLD: usize = 64;
    let source = || {
        let amr_cfg = AmrConfig {
            multi_constraint: true,
            ..AmrConfig::small()
        };
        let stream = AmrStream::new(amr_cfg, K, SEED);
        let low = stream.initial_lowering();
        assert_eq!(low.hypergraph.load_arity(), 2);
        assert!(
            low.hypergraph.num_vertices() > GATHER_THRESHOLD,
            "nothing would be distributed"
        );
        let init: Vec<usize> = (0..low.graph.num_vertices()).map(|v| v % K).collect();
        AmrSource::new(stream, &init)
    };
    let run = |ranks: usize, distributed: bool| {
        let mut cfg = RepartConfig::seeded(SEED).with_epsilons(&[0.05, 0.10]);
        cfg.hypergraph.dist.distributed = distributed;
        cfg.hypergraph.dist.gather_threshold = GATHER_THRESHOLD;
        run_spmd(ranks, |comm| {
            Session::new(cfg.clone())
                .alpha(10.0)
                .epochs(3)
                .measured(true)
                .workload(&mut source())
                .run_on(comm)
                .unwrap()
        })
        .pop()
        .unwrap()
    };
    for ranks in [1usize, 2, 4] {
        let [replicated, distributed] = [false, true].map(|on| {
            run(ranks, on)
                .reports
                .iter()
                .map(|r| {
                    let makespan = r.execution.as_ref().expect("measured run").makespan();
                    (
                        r.cost.comm,
                        r.cost.migration,
                        r.moved,
                        r.imbalance,
                        makespan,
                    )
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(distributed, replicated, "ranks = {ranks}");
        assert_eq!(distributed.len(), 3);
    }
}
