//! Unstructured communication plans — Zoltan's `Comm` package.
//!
//! Scientific applications exchange halo data along irregular patterns
//! that stay fixed for many iterations. A [`CommPlan`] is built once
//! from this rank's send list (destination per outgoing item), discovers
//! the matching receive counts collectively, and can then execute the
//! exchange repeatedly — or be [inverted](CommPlan::invert) to send
//! replies backwards along the same pattern.

use crate::comm::Comm;

/// A reusable irregular-exchange plan.
#[derive(Clone, Debug)]
pub struct CommPlan {
    /// Destination rank of each outgoing item, grouped: `sends[r]` is
    /// the number of items this rank sends to rank `r`.
    send_counts: Vec<usize>,
    /// `recv_counts[r]` = items this rank receives from rank `r`.
    recv_counts: Vec<usize>,
    /// Outgoing item order: positions into the user's item buffer,
    /// grouped by destination rank.
    send_order: Vec<usize>,
}

impl CommPlan {
    /// Builds a plan (collective). `destinations[i]` is the rank that
    /// item `i` of this rank's buffer must reach.
    ///
    /// # Panics
    /// Panics if a destination is out of range.
    pub fn build(comm: &mut Comm, destinations: &[usize]) -> CommPlan {
        let nranks = comm.size();
        let mut send_counts = vec![0usize; nranks];
        for &d in destinations {
            assert!(d < nranks, "destination rank {d} out of range");
            send_counts[d] += 1;
        }
        // Group item positions by destination.
        let mut offsets: Vec<usize> = Vec::with_capacity(nranks + 1);
        offsets.push(0);
        for r in 0..nranks {
            offsets.push(offsets[r] + send_counts[r]);
        }
        let mut cursor = offsets.clone();
        let mut send_order = vec![0usize; destinations.len()];
        for (i, &d) in destinations.iter().enumerate() {
            send_order[cursor[d]] = i;
            cursor[d] += 1;
        }
        // Discover receive counts: transpose the count matrix.
        let recv_counts = comm.alltoall(send_counts.clone());
        CommPlan {
            send_counts,
            recv_counts,
            send_order,
        }
    }

    /// Items sent to each destination rank (`send_counts()[r]` items go
    /// to rank `r`). Together with [`CommPlan::send_positions`] this
    /// exposes the per-destination grouping, letting callers address a
    /// *subset* of the planned items (a dirty-bitmap push) through a raw
    /// [`Comm::alltoallv`](crate::Comm::alltoallv) instead of
    /// re-executing the full plan.
    pub fn send_counts(&self) -> &[usize] {
        &self.send_counts
    }

    /// Items received from each source rank (`recv_counts()[r]` items
    /// arrive from rank `r`), in the same grouping that
    /// [`CommPlan::execute`] returns.
    pub fn recv_counts(&self) -> &[usize] {
        &self.recv_counts
    }

    /// Total items this rank will receive.
    pub(crate) fn num_receives(&self) -> usize {
        self.recv_counts.iter().sum()
    }

    /// Positions into the user's item buffer in the order items travel:
    /// grouped by destination rank. Received replies along the
    /// [inverse](CommPlan::invert) plan arrive in this order, so
    /// `reply[j]` answers the item at original position
    /// `send_positions()[j]`.
    pub fn send_positions(&self) -> &[usize] {
        &self.send_order
    }

    /// Executes the exchange (collective): `items` must align with the
    /// `destinations` the plan was built from. Returns received items
    /// grouped by source rank order. Payload bytes are charged into
    /// [`crate::CommStats`] as `len * size_of::<T>()` item bytes at the
    /// send site (via [`Comm::alltoallv`]); receivers credit the same.
    ///
    /// # Panics
    /// Panics if `items` has the wrong length.
    pub fn execute<T: Clone + Send + 'static>(&self, comm: &mut Comm, items: &[T]) -> Vec<T> {
        assert_eq!(items.len(), self.send_order.len(), "item count mismatch");
        let nranks = comm.size();
        let mut outgoing: Vec<Vec<T>> = (0..nranks).map(|_| Vec::new()).collect();
        let mut pos = 0usize;
        for (r, &count) in self.send_counts.iter().enumerate() {
            outgoing[r].reserve(count);
            for _ in 0..count {
                outgoing[r].push(items[self.send_order[pos]].clone());
                pos += 1;
            }
        }
        let incoming = comm.alltoallv(outgoing);
        for (r, batch) in incoming.iter().enumerate() {
            assert_eq!(
                batch.len(),
                self.recv_counts[r],
                "plan receive count mismatch"
            );
        }
        incoming.into_iter().flatten().collect()
    }

    /// The inverse plan: sends one reply item per received item back to
    /// its source (collective only in that both sides must call
    /// [`CommPlan::execute`] symmetrically; inversion itself is local).
    pub fn invert(&self) -> CommPlan {
        // Replies go back grouped by source rank, in received order.
        let nranks = self.recv_counts.len();
        let mut send_order = Vec::with_capacity(self.num_receives());
        let mut pos = 0usize;
        for r in 0..nranks {
            for _ in 0..self.recv_counts[r] {
                send_order.push(pos);
                pos += 1;
            }
        }
        CommPlan {
            send_counts: self.recv_counts.clone(),
            recv_counts: self.send_counts.clone(),
            send_order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spmd;

    #[test]
    fn plan_roundtrip_delivers_everything() {
        let results = run_spmd(3, |comm| {
            // Rank r sends item "r*10 + i" to rank i for i in 0..3.
            let destinations: Vec<usize> = (0..comm.size()).collect();
            let items: Vec<usize> = (0..comm.size()).map(|i| comm.rank() * 10 + i).collect();
            let plan = CommPlan::build(comm, &destinations);
            assert_eq!(plan.num_receives(), comm.size());
            plan.execute(comm, &items)
        });
        for (rank, received) in results.iter().enumerate() {
            let expected: Vec<usize> = (0..3).map(|r| r * 10 + rank).collect();
            assert_eq!(*received, expected);
        }
    }

    #[test]
    fn plan_is_reusable() {
        let results = run_spmd(2, |comm| {
            let destinations = vec![1 - comm.rank(), 1 - comm.rank()];
            let plan = CommPlan::build(comm, &destinations);
            let a = plan.execute(comm, &[comm.rank() * 2, comm.rank() * 2 + 1]);
            let b = plan.execute(comm, &[100 + comm.rank(), 200 + comm.rank()]);
            (a, b)
        });
        assert_eq!(results[0].0, vec![2, 3]);
        assert_eq!(results[0].1, vec![101, 201]);
        assert_eq!(results[1].0, vec![0, 1]);
        assert_eq!(results[1].1, vec![100, 200]);
    }

    #[test]
    fn inverse_plan_sends_replies_home() {
        let results = run_spmd(3, |comm| {
            // Scatter queries: rank r asks every rank (incl. itself).
            let destinations: Vec<usize> = (0..comm.size()).collect();
            let queries: Vec<usize> = vec![comm.rank(); comm.size()];
            let plan = CommPlan::build(comm, &destinations);
            let received = plan.execute(comm, &queries);
            // Reply with query * 10.
            let replies: Vec<usize> = received.iter().map(|q| q * 10).collect();
            let inverse = plan.invert();
            inverse.execute(comm, &replies)
        });
        for (rank, replies) in results.iter().enumerate() {
            assert_eq!(*replies, vec![rank * 10; 3], "rank {rank}");
        }
    }

    #[test]
    fn empty_and_skewed_patterns() {
        let results = run_spmd(4, |comm| {
            // Only rank 0 sends; everything goes to rank 3.
            let destinations: Vec<usize> = if comm.rank() == 0 { vec![3; 5] } else { vec![] };
            let items: Vec<u8> = if comm.rank() == 0 { vec![9; 5] } else { vec![] };
            let plan = CommPlan::build(comm, &destinations);
            plan.execute(comm, &items).len()
        });
        assert_eq!(results, vec![0, 0, 0, 5]);
    }

    #[test]
    fn grouped_send_order_preserves_items() {
        let results = run_spmd(2, |comm| {
            // Interleaved destinations exercise the grouping logic.
            let destinations = vec![1, 0, 1, 0, 1];
            let items = vec![10, 20, 30, 40, 50];
            let plan = CommPlan::build(comm, &destinations);
            let mut got = plan.execute(comm, &items);
            got.sort_unstable();
            got
        });
        // Each rank receives its own items (20,40 to rank 0 from both
        // ranks, etc.): rank 0 gets {20,40} twice, rank 1 {10,30,50} twice.
        assert_eq!(results[0], vec![20, 20, 40, 40]);
        assert_eq!(results[1], vec![10, 10, 30, 30, 50, 50]);
    }

    /// Query/reply round-trip through `invert`, re-aligned to the
    /// original item positions via `send_positions`. Exercised at 1, 2,
    /// and 4 ranks with interleaved destinations (incl. self-sends).
    #[test]
    fn invert_roundtrip_realigns_to_original_positions() {
        for ranks in [1usize, 2, 4] {
            let results = run_spmd(ranks, |comm| {
                // Item i asks rank (rank + i) % size to multiply it by 10;
                // destinations interleave self and remote ranks.
                let n_items = 2 * comm.size() + 1;
                let destinations: Vec<usize> = (0..n_items)
                    .map(|i| (comm.rank() + i) % comm.size())
                    .collect();
                let queries: Vec<u64> = (0..n_items)
                    .map(|i| (comm.rank() * 100 + i) as u64)
                    .collect();
                let plan = CommPlan::build(comm, &destinations);
                let received = plan.execute(comm, &queries);
                let replies: Vec<u64> = received.iter().map(|q| q * 10).collect();
                let inverse = plan.invert();
                assert_eq!(inverse.send_positions().len(), plan.num_receives());
                assert_eq!(inverse.num_receives(), plan.send_positions().len());
                let back = inverse.execute(comm, &replies);
                // Replies arrive in send order; scatter them home.
                let mut answers = vec![0u64; n_items];
                for (j, &pos) in plan.send_positions().iter().enumerate() {
                    answers[pos] = back[j];
                }
                (queries, answers)
            });
            for (queries, answers) in results {
                let expected: Vec<u64> = queries.iter().map(|q| q * 10).collect();
                assert_eq!(answers, expected, "ranks={ranks}");
            }
        }
    }

    /// The incremental-halo idiom: the plan is built once for the full
    /// pattern, then a round pushes only a *dirty subset* of the planned
    /// items as `(within-group index, value)` pairs addressed through
    /// `send_counts`/`send_positions`, and receivers patch their
    /// full-exchange buffer in place using `recv_counts` offsets. The
    /// patched buffer must equal a full re-execution of the plan.
    #[test]
    fn dirty_subset_push_matches_full_reexecution() {
        for ranks in [1usize, 2, 4] {
            let results = run_spmd(ranks, |comm| {
                let n_items = 2 * comm.size() + 3;
                let destinations: Vec<usize> = (0..n_items)
                    .map(|i| (comm.rank() + i) % comm.size())
                    .collect();
                let mut items: Vec<u64> = (0..n_items)
                    .map(|i| (comm.rank() * 100 + i) as u64)
                    .collect();
                let plan = CommPlan::build(comm, &destinations);
                let mut mirror = plan.execute(comm, &items); // initial full exchange

                // Mutate a sparse subset of the outgoing items.
                let mut dirty = vec![false; n_items];
                for i in (0..n_items).step_by(3) {
                    items[i] += 1000;
                    dirty[i] = true;
                }

                // Push only the dirty items, tagged with their index
                // within the destination group.
                let mut outgoing: Vec<Vec<(u32, u64)>> =
                    (0..comm.size()).map(|_| Vec::new()).collect();
                let mut pos = 0usize;
                for (r, &count) in plan.send_counts().iter().enumerate() {
                    for j in 0..count {
                        let item = plan.send_positions()[pos];
                        if dirty[item] {
                            outgoing[r].push((j as u32, items[item]));
                        }
                        pos += 1;
                    }
                }
                let mut offsets = vec![0usize; comm.size() + 1];
                for r in 0..comm.size() {
                    offsets[r + 1] = offsets[r] + plan.recv_counts()[r];
                }
                for (r, batch) in comm.alltoallv(outgoing).into_iter().enumerate() {
                    for (j, v) in batch {
                        mirror[offsets[r] + j as usize] = v;
                    }
                }
                let full = plan.execute(comm, &items);
                (mirror, full)
            });
            for (mirror, full) in results {
                assert_eq!(mirror, full, "ranks={ranks}");
            }
        }
    }

    /// A dirty push with nothing dirty is still collective-safe and
    /// leaves the mirror untouched.
    #[test]
    fn empty_dirty_subset_push_is_a_safe_noop() {
        let results = run_spmd(3, |comm| {
            let destinations: Vec<usize> = (0..comm.size()).collect();
            let items: Vec<u64> = vec![comm.rank() as u64; comm.size()];
            let plan = CommPlan::build(comm, &destinations);
            let mirror = plan.execute(comm, &items);
            let outgoing: Vec<Vec<(u32, u64)>> = (0..comm.size()).map(|_| Vec::new()).collect();
            let received: usize = comm.alltoallv(outgoing).into_iter().map(|b| b.len()).sum();
            (mirror.clone(), received, mirror)
        });
        for (before, received, after) in results {
            assert_eq!(received, 0);
            assert_eq!(before, after);
        }
    }

    /// `invert` on degenerate plans: empty everywhere, pure self-sends,
    /// and all-remote fan-in, at 1/2/4 ranks.
    #[test]
    fn invert_handles_empty_self_and_all_remote_plans() {
        for ranks in [1usize, 2, 4] {
            // Empty plan: no rank sends anything.
            let results = run_spmd(ranks, |comm| {
                let plan = CommPlan::build(comm, &[]);
                let inverse = plan.invert();
                let out = inverse.execute(comm, &Vec::<u8>::new());
                (
                    plan.num_receives(),
                    inverse.send_positions().len(),
                    out.len(),
                )
            });
            assert_eq!(results, vec![(0, 0, 0); ranks]);

            // Self-sends only: round-trip stays rank-local.
            let results = run_spmd(ranks, |comm| {
                let destinations = vec![comm.rank(); 3];
                let items: Vec<usize> = (0..3).map(|i| comm.rank() * 10 + i).collect();
                let plan = CommPlan::build(comm, &destinations);
                let received = plan.execute(comm, &items);
                plan.invert().execute(comm, &received)
            });
            for (rank, got) in results.iter().enumerate() {
                let expected: Vec<usize> = (0..3).map(|i| rank * 10 + i).collect();
                assert_eq!(*got, expected, "ranks={ranks}");
            }

            // All-remote: every item goes to the next rank; replies must
            // come all the way back around.
            let results = run_spmd(ranks, |comm| {
                let next = (comm.rank() + 1) % comm.size();
                let destinations = vec![next; 4];
                let items = vec![comm.rank() as u32; 4];
                let plan = CommPlan::build(comm, &destinations);
                let received = plan.execute(comm, &items);
                let replies: Vec<u32> = received.iter().map(|v| v + 1).collect();
                plan.invert().execute(comm, &replies)
            });
            for (rank, got) in results.iter().enumerate() {
                assert_eq!(*got, vec![rank as u32 + 1; 4], "ranks={ranks}");
            }
        }
    }
}
