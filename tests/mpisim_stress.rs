//! Stress tests for the simulated SPMD machine: randomized schedules of
//! mixed collectives and point-to-point traffic must complete without
//! deadlock and produce rank-consistent results — the property every
//! partitioner phase leans on.

use dlb::mpisim::{run_spmd, BlockDist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn randomized_collective_schedules_agree() {
    for seed in 0..5u64 {
        for ranks in [1usize, 2, 3, 5, 8] {
            let results = run_spmd(ranks, |comm| {
                // Every rank derives the same op schedule from the seed.
                let mut schedule = StdRng::seed_from_u64(seed);
                let mut acc: u64 = comm.rank() as u64;
                let mut digest: Vec<u64> = Vec::new();
                for _ in 0..30 {
                    match schedule.gen_range(0..5) {
                        0 => {
                            acc = comm.allreduce(acc, |a, b| a.wrapping_add(b));
                            digest.push(acc);
                        }
                        1 => {
                            let all = comm.allgather(acc);
                            acc = all
                                .iter()
                                .fold(0u64, |x, y| x.wrapping_mul(31).wrapping_add(*y));
                            digest.push(acc);
                        }
                        2 => {
                            let root = schedule.gen_range(0..comm.size());
                            acc = comm.broadcast(root, acc.wrapping_add(7));
                            digest.push(acc);
                        }
                        3 => {
                            comm.barrier();
                        }
                        _ => {
                            acc = comm.scan(acc | 1, |a, b| a.wrapping_add(b));
                            // Scan results differ per rank by design; fold
                            // them back together so digests stay comparable.
                            acc = comm.allreduce(acc, |a, b| a ^ b);
                            digest.push(acc);
                        }
                    }
                }
                digest
            });
            for r in &results[1..] {
                assert_eq!(
                    *r, results[0],
                    "seed {seed}, ranks {ranks}: collective results diverged"
                );
            }
        }
    }
}

#[test]
fn heavy_point_to_point_all_pairs() {
    // Every rank sends a distinct payload to every other rank with
    // multiple tags, interleaved; everything must arrive exactly once.
    let ranks = 6;
    let results = run_spmd(ranks, |comm| {
        let me = comm.rank();
        for to in 0..comm.size() {
            if to != me {
                for tag in 0..4u64 {
                    comm.send(to, tag, (me, tag));
                }
            }
        }
        let mut received: Vec<(usize, u64)> = Vec::new();
        // Receive in a scrambled but deterministic order.
        for tag in (0..4u64).rev() {
            for from in 0..comm.size() {
                if from != me {
                    received.push(comm.recv::<(usize, u64)>(from, tag));
                }
            }
        }
        received.sort_unstable();
        received
    });
    for (rank, received) in results.iter().enumerate() {
        assert_eq!(received.len(), (ranks - 1) * 4);
        for &(from, tag) in received {
            assert_ne!(from, rank);
            assert!(tag < 4);
        }
    }
}

#[test]
fn alltoall_with_vectors_of_varying_size() {
    let results = run_spmd(4, |comm| {
        let outgoing: Vec<Vec<u32>> = (0..comm.size())
            .map(|to| vec![comm.rank() as u32; to + 1])
            .collect();
        comm.alltoall(outgoing)
    });
    for (rank, incoming) in results.iter().enumerate() {
        for (from, batch) in incoming.iter().enumerate() {
            assert_eq!(batch.len(), rank + 1, "rank {rank} from {from}");
            assert!(batch.iter().all(|&x| x == from as u32));
        }
    }
}

#[test]
fn block_dist_composes_with_alltoall_redistribution() {
    // Redistribute a block-distributed array to the reversed distribution
    // via alltoall and verify every element survives.
    let n = 103;
    let ranks = 5;
    let results = run_spmd(ranks, |comm| {
        let dist = BlockDist::new(n, comm.size());
        let my_range = dist.range(comm.rank());
        // New owner of i = owner of (n-1-i).
        let mut outgoing: Vec<Vec<(usize, u64)>> = (0..comm.size()).map(|_| Vec::new()).collect();
        for i in my_range {
            let dest = dist.owner(n - 1 - i);
            outgoing[dest].push((i, (i * i) as u64));
        }
        let incoming = comm.alltoall(outgoing);
        let mut items: Vec<(usize, u64)> = incoming.into_iter().flatten().collect();
        items.sort_unstable();
        items
    });
    let mut all: Vec<(usize, u64)> = results.into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(all.len(), n);
    for (i, &(idx, sq)) in all.iter().enumerate() {
        assert_eq!(idx, i);
        assert_eq!(sq, (i * i) as u64);
    }
}
