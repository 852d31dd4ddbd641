//! Point-to-point messaging and collectives for one simulated rank.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How long a blocking receive waits before declaring the program
/// deadlocked. Simulated ranks share one machine, so any legitimate
/// message arrives quickly; a long silence means mismatched send/recv
/// calls, and failing with context beats hanging the test suite.
/// Override per rank with [`Comm::set_recv_timeout`].
const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(60);

pub(crate) struct Envelope {
    pub from: usize,
    pub tag: u64,
    /// Payload bytes as charged at the send site. Carrying the size on
    /// the message is the accounting hook that keeps both sides of
    /// [`CommStats`] in the same units: the receiver credits exactly
    /// what the sender debited.
    pub bytes: u64,
    pub payload: Box<dyn Any + Send>,
}

/// Message counters for one rank, useful for asserting communication
/// patterns in tests and for reporting experiment statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point messages sent (collectives count their internal
    /// messages).
    pub messages_sent: u64,
    /// Point-to-point messages received.
    pub messages_received: u64,
    /// Payload bytes sent, measured once at the send site and carried
    /// on the message: the shallow `size_of::<T>()` for plain
    /// point-to-point messages and collectives, or the deep
    /// `len * size_of::<T>()` item bytes for batch calls
    /// ([`Comm::alltoallv`] and [`crate::CommPlan::execute`] on top of
    /// it). One unit system end to end — the receive side credits
    /// exactly the bytes the sender charged.
    pub bytes_sent: u64,
    /// Payload bytes received (same accounting as `bytes_sent`).
    pub bytes_received: u64,
}

/// Out-of-order messages parked until a matching receive: keyed by
/// (source, tag), each entry a queue of (payload bytes, payload).
type Stash = HashMap<(usize, u64), VecDeque<(u64, Box<dyn Any + Send>)>>;

/// The communicator handle owned by one simulated rank.
///
/// Mirrors the subset of MPI that the parallel partitioners need. All
/// collectives must be called by every rank in the same order (the usual
/// SPMD contract); an internal sequence number keeps consecutive
/// collectives from stealing each other's messages.
pub struct Comm {
    rank: usize,
    size: usize,
    txs: Vec<Sender<Envelope>>,
    rx: Receiver<Envelope>,
    stash: Stash,
    coll_seq: u64,
    stats: CommStats,
    recv_timeout: Duration,
}

/// Tags at or above this value are reserved for collectives.
const COLL_TAG_BASE: u64 = 1 << 48;

impl Comm {
    pub(crate) fn new(rank: usize, txs: Vec<Sender<Envelope>>, rx: Receiver<Envelope>) -> Self {
        Comm {
            rank,
            size: txs.len(),
            txs,
            rx,
            stash: HashMap::new(),
            coll_seq: 0,
            stats: CommStats::default(),
            recv_timeout: DEFAULT_RECV_TIMEOUT,
        }
    }

    /// Overrides the blocking-receive timeout for this rank: tests that
    /// expect a deadlock shorten it, and long-running worlds widen it.
    pub fn set_recv_timeout(&mut self, timeout: Duration) {
        self.recv_timeout = timeout;
    }

    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Message counters so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Sends `value` to rank `to` with a user `tag` (< 2^48).
    ///
    /// Non-blocking: the channel is unbounded, matching MPI's buffered
    /// eager protocol for small messages.
    ///
    /// # Panics
    /// Panics if rank `to`'s thread has exited (its receiver is gone).
    pub fn send<T: Send + 'static>(&mut self, to: usize, tag: u64, value: T) {
        assert!(tag < COLL_TAG_BASE, "user tags must be below 2^48");
        self.send_raw(to, tag, value);
    }

    fn send_raw<T: Send + 'static>(&mut self, to: usize, tag: u64, value: T) {
        let bytes = std::mem::size_of::<T>() as u64;
        self.send_raw_sized(to, tag, value, bytes);
    }

    /// The single send path. `bytes` is the payload size charged to
    /// [`CommStats`] and carried on the envelope; plain sends pass the
    /// shallow `size_of::<T>()`, batch calls pass deep item bytes.
    fn send_raw_sized<T: Send + 'static>(&mut self, to: usize, tag: u64, value: T, bytes: u64) {
        assert!(to < self.size, "destination rank {to} out of range");
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes;
        let envelope = Envelope {
            from: self.rank,
            tag,
            bytes,
            payload: Box::new(value),
        };
        if self.txs[to].send(envelope).is_err() {
            panic!("rank {}: peer rank hung up (rank {to})", self.rank);
        }
    }

    /// Receives a `T` sent by rank `from` with `tag`, blocking until it
    /// arrives. Panics (deadlock guard) after the receive timeout or if
    /// the message has a different payload type.
    pub fn recv<T: Send + 'static>(&mut self, from: usize, tag: u64) -> T {
        assert!(tag < COLL_TAG_BASE, "user tags must be below 2^48");
        self.recv_raw(from, tag)
    }

    fn recv_raw<T: Send + 'static>(&mut self, from: usize, tag: u64) -> T {
        let rank = self.rank;
        let key = (from, tag);
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            if let Some((bytes, payload)) = self.stash.get_mut(&key).and_then(VecDeque::pop_front) {
                self.stats.messages_received += 1;
                self.stats.bytes_received += bytes;
                return match payload.downcast::<T>() {
                    Ok(value) => *value,
                    Err(_) => panic!(
                        "rank {rank}: message from {from} tag {tag} has unexpected payload type"
                    ),
                };
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(wait) {
                Ok(env) => {
                    self.stash
                        .entry((env.from, env.tag))
                        .or_default()
                        .push_back((env.bytes, env.payload));
                }
                Err(RecvTimeoutError::Timeout) => {
                    panic!("rank {rank}: deadlock waiting for message from {from} tag {tag}")
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("rank {rank}: peer rank hung up (rank {from})")
                }
            }
        }
    }

    fn next_coll_tag(&mut self) -> u64 {
        self.coll_seq += 1;
        COLL_TAG_BASE + self.coll_seq
    }

    /// Synchronizes all ranks (flat gather-to-0 then release).
    pub fn barrier(&mut self) {
        let tag = self.next_coll_tag();
        if self.rank == 0 {
            for from in 1..self.size {
                let () = self.recv_raw(from, tag);
            }
            for to in 1..self.size {
                self.send_raw(to, tag, ());
            }
        } else {
            self.send_raw(0, tag, ());
            let () = self.recv_raw(0, tag);
        }
    }

    /// Broadcasts `value` from `root` to all ranks. Non-root ranks pass
    /// their (ignored) local value too, keeping the call SPMD-symmetric.
    pub fn broadcast<T: Clone + Send + 'static>(&mut self, root: usize, value: T) -> T {
        assert!(root < self.size);
        let tag = self.next_coll_tag();
        if self.rank == root {
            for to in 0..self.size {
                if to != root {
                    self.send_raw(to, tag, value.clone());
                }
            }
            value
        } else {
            self.recv_raw(root, tag)
        }
    }

    /// Gathers one value per rank at `root`; returns `Some(values)` (rank
    /// order) on the root and `None` elsewhere.
    pub fn gather<T: Send + 'static>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        assert!(root < self.size);
        let tag = self.next_coll_tag();
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
            out[root] = Some(value);
            for from in 0..self.size {
                if from != root {
                    out[from] = Some(self.recv_raw(from, tag));
                }
            }
            Some(out.into_iter().map(Option::unwrap).collect())
        } else {
            self.send_raw(root, tag, value);
            None
        }
    }

    /// Gathers one value per rank on every rank (gather + broadcast).
    pub fn allgather<T: Clone + Send + 'static>(&mut self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.broadcast(0, gathered.unwrap_or_default())
    }

    /// Reduces one value per rank at `root` with associative `op`;
    /// returns `Some(result)` on the root.
    pub(crate) fn reduce<T, F>(&mut self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.gather(root, value)
            .map(|vals| vals.into_iter().reduce(&op).expect("world is non-empty"))
    }

    /// All-reduce: every rank receives `op` folded over all ranks' values
    /// in rank order.
    pub fn allreduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce(0, value, op);
        self.broadcast(0, reduced).expect("root reduced")
    }

    /// Element-wise all-reduce over equally sized vectors.
    ///
    /// # Panics
    /// Panics if ranks contribute vectors of different lengths.
    pub fn allreduce_vec<T, F>(&mut self, value: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.allreduce(value, |a, b| {
            assert_eq!(a.len(), b.len(), "allreduce_vec length mismatch");
            a.iter().zip(&b).map(|(x, y)| op(x, y)).collect()
        })
    }

    /// Sum all-reduce for `f64`.
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Inclusive prefix scan: rank `r` receives `op` folded over ranks
    /// `0..=r`.
    pub fn scan<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let all = self.allgather(value);
        all.into_iter()
            .take(self.rank + 1)
            .reduce(&op)
            .expect("scan includes own value")
    }

    /// Personalized all-to-all: `outgoing[r]` is delivered to rank `r`;
    /// the return value holds one entry per source rank (rank order).
    pub fn alltoall<T: Send + 'static>(&mut self, outgoing: Vec<T>) -> Vec<T> {
        assert_eq!(
            outgoing.len(),
            self.size,
            "one payload per destination rank"
        );
        let tag = self.next_coll_tag();
        let mut incoming: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
        for (to, value) in outgoing.into_iter().enumerate() {
            if to == self.rank {
                incoming[to] = Some(value);
            } else {
                self.send_raw(to, tag, value);
            }
        }
        for from in 0..self.size {
            if from != self.rank {
                incoming[from] = Some(self.recv_raw(from, tag));
            }
        }
        incoming.into_iter().map(Option::unwrap).collect()
    }

    /// Ordered pipeline fold over block-distributed items (collective).
    ///
    /// Reproduces, bit for bit, the serial accumulator loop
    /// `for i in 0..n { add(i, &mut acc) }` when the items `0..n` are
    /// block-distributed so that rank order equals ascending global item
    /// order (the [`crate::BlockDist`] layout): a token travels rank
    /// `0 → 1 → … → size-1`, each rank applies `add` for its
    /// `my_start..my_start + my_len` items in ascending order, and the
    /// final accumulator is broadcast from the last rank. Ranks that own
    /// zero items just forward the token.
    ///
    /// With `chunk = Some(c)`, the fold instead reproduces a *chunked*
    /// serial reference: per-chunk partials on the global `c`-grid
    /// (chunk `j` covers items `j*c..(j+1)*c`), each closed chunk folded
    /// into the accumulator element-wise in chunk order. This matches
    /// the partial-then-fold shape that threaded reductions use, so the
    /// distributed result is bitwise identical to theirs even though
    /// floating-point addition is not associative. Chunk boundaries need
    /// not align with ownership boundaries: an open partial rides on the
    /// token. With `chunk = None` the items accumulate directly.
    ///
    /// The cost is one `O(accum)` point-to-point hop per rank plus a
    /// broadcast — the latency of a linear chain, bought for exact
    /// reproducibility of the fold order.
    pub fn fold_blocked<F>(
        &mut self,
        accum_len: usize,
        my_start: usize,
        my_len: usize,
        chunk: Option<usize>,
        mut add: F,
    ) -> Vec<f64>
    where
        F: FnMut(usize, &mut [f64]),
    {
        const NO_CHUNK: u64 = u64::MAX;
        let tag = self.next_coll_tag();
        let (mut acc, mut open, mut open_chunk) = if self.rank == 0 {
            (vec![0.0f64; accum_len], vec![0.0f64; accum_len], NO_CHUNK)
        } else {
            self.recv_raw::<(Vec<f64>, Vec<f64>, u64)>(self.rank - 1, tag)
        };
        match chunk {
            Some(c) => {
                assert!(c > 0, "chunk size must be positive");
                for v in my_start..my_start + my_len {
                    let j = (v / c) as u64;
                    if j != open_chunk {
                        if open_chunk != NO_CHUNK {
                            for p in 0..accum_len {
                                acc[p] += open[p];
                                open[p] = 0.0;
                            }
                        }
                        open_chunk = j;
                    }
                    add(v, &mut open);
                }
            }
            None => {
                for v in my_start..my_start + my_len {
                    add(v, &mut acc);
                }
            }
        }
        if self.rank + 1 < self.size {
            self.send_raw(self.rank + 1, tag, (acc, open, open_chunk));
            self.broadcast(self.size - 1, Vec::new())
        } else {
            if open_chunk != NO_CHUNK {
                for p in 0..accum_len {
                    acc[p] += open[p];
                }
            }
            self.broadcast(self.size - 1, acc)
        }
    }

    /// Variable-count personalized all-to-all (MPI `Alltoallv`):
    /// `outgoing[r]` is a batch of `T` items delivered to rank `r`.
    ///
    /// Unlike routing a `Vec<Vec<T>>` through [`Comm::alltoall`] (which
    /// would charge only the shallow size of each `Vec` header), each
    /// off-rank batch is sized as its `len * size_of::<T>()` item bytes
    /// at the send site; the receiver credits the same amount (the size
    /// travels on the message). Self-delivery is free.
    pub fn alltoallv<T: Send + 'static>(&mut self, outgoing: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(outgoing.len(), self.size, "one batch per destination rank");
        let item = std::mem::size_of::<T>() as u64;
        let tag = self.next_coll_tag();
        let mut incoming: Vec<Option<Vec<T>>> = (0..self.size).map(|_| None).collect();
        for (to, batch) in outgoing.into_iter().enumerate() {
            if to == self.rank {
                incoming[to] = Some(batch);
            } else {
                let bytes = batch.len() as u64 * item;
                self.send_raw_sized(to, tag, batch, bytes);
            }
        }
        for from in 0..self.size {
            if from != self.rank {
                incoming[from] = Some(self.recv_raw(from, tag));
            }
        }
        incoming.into_iter().map(Option::unwrap).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::run_spmd;

    #[test]
    fn point_to_point_ring() {
        let results = run_spmd(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, comm.rank());
            comm.recv::<usize>(prev, 7)
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, "first".to_string());
                comm.send(1, 2, "second".to_string());
                String::new()
            } else {
                // Receive tag 2 before tag 1; tag-1 message must be stashed.
                let b = comm.recv::<String>(0, 2);
                let a = comm.recv::<String>(0, 1);
                format!("{a} {b}")
            }
        });
        assert_eq!(results[1], "first second");
    }

    #[test]
    fn broadcast_from_every_root() {
        for root in 0..3 {
            let results = run_spmd(3, move |comm| {
                let v = if comm.rank() == root { 42u32 } else { 0 };
                comm.broadcast(root, v)
            });
            assert_eq!(results, vec![42; 3]);
        }
    }

    #[test]
    fn gather_preserves_rank_order() {
        let results = run_spmd(4, |comm| comm.gather(2, comm.rank() * 10));
        assert_eq!(results[2], Some(vec![0, 10, 20, 30]));
        assert_eq!(results[0], None);
    }

    #[test]
    fn allgather_everywhere() {
        let results = run_spmd(3, |comm| comm.allgather(comm.rank() as i64 - 1));
        for r in results {
            assert_eq!(r, vec![-1, 0, 1]);
        }
    }

    #[test]
    fn allreduce_max() {
        let results = run_spmd(5, |comm| comm.allreduce(comm.rank(), |a, b| a.max(b)));
        assert_eq!(results, vec![4; 5]);
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let results = run_spmd(3, |comm| {
            let v = vec![comm.rank() as f64, 1.0];
            comm.allreduce_vec(v, |a, b| a + b)
        });
        for r in results {
            assert_eq!(r, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn scan_is_inclusive_prefix() {
        let results = run_spmd(4, |comm| comm.scan(1u64, |a, b| a + b));
        assert_eq!(results, vec![1, 2, 3, 4]);
    }

    #[test]
    fn alltoall_transposes() {
        let results = run_spmd(3, |comm| {
            let outgoing: Vec<String> = (0..comm.size())
                .map(|to| format!("{}->{}", comm.rank(), to))
                .collect();
            comm.alltoall(outgoing)
        });
        assert_eq!(results[1], vec!["0->1", "1->1", "2->1"]);
        assert_eq!(results[2], vec!["0->2", "1->2", "2->2"]);
    }

    #[test]
    fn barrier_completes() {
        let results = run_spmd(6, |comm| {
            for _ in 0..10 {
                comm.barrier();
            }
            comm.rank()
        });
        assert_eq!(results.len(), 6);
    }

    #[test]
    fn collectives_do_not_cross_talk() {
        // Two different collectives back to back with the same shape must
        // not steal each other's messages.
        let results = run_spmd(4, |comm| {
            let a = comm.allreduce(1u64, |x, y| x + y);
            let b = comm.allreduce(2u64, |x, y| x + y);
            (a, b)
        });
        for (a, b) in results {
            assert_eq!((a, b), (4, 8));
        }
    }

    #[test]
    fn stats_count_messages() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, 5u8);
            } else {
                let _ = comm.recv::<u8>(0, 3);
            }
            comm.stats()
        });
        assert_eq!(results[0].messages_sent, 1);
        assert_eq!(results[1].messages_received, 1);
    }

    #[test]
    fn stats_count_bytes() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, 5u64);
            } else {
                let _ = comm.recv::<u64>(0, 3);
            }
            comm.stats()
        });
        assert_eq!(results[0].bytes_sent, 8);
        assert_eq!(results[1].bytes_received, 8);
    }

    #[test]
    fn alltoallv_counts_item_bytes() {
        let results = run_spmd(2, |comm| {
            // Rank r sends r+1 items to the peer and keeps 10 for itself.
            let peer = 1 - comm.rank();
            let mut outgoing: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
            outgoing[peer] = vec![7u32; comm.rank() + 1];
            outgoing[comm.rank()] = vec![9u32; 10];
            let incoming = comm.alltoallv(outgoing);
            (incoming[peer].len(), comm.stats())
        });
        // Self-delivered items cost nothing; off-rank batches cost pure
        // item bytes (no Vec-header term), and the receive side credits
        // exactly what the sender charged.
        assert_eq!(results[0].0, 2);
        assert_eq!(results[0].1.bytes_sent, 4);
        assert_eq!(results[0].1.bytes_received, 8);
        assert_eq!(results[1].0, 1);
        assert_eq!(results[1].1.bytes_sent, 8);
        assert_eq!(results[1].1.bytes_received, 4);
    }

    #[test]
    fn recv_bytes_mirror_send_site_charge() {
        // A plain send charges shallow size; the receiver must credit
        // the same (previously it re-measured the *expected* type).
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, [0u8; 24]);
            } else {
                let _ = comm.recv::<[u8; 24]>(0, 3);
            }
            comm.stats()
        });
        assert_eq!(results[0].bytes_sent, 24);
        assert_eq!(results[1].bytes_received, 24);
    }

    #[test]
    #[should_panic(expected = "rank 0: deadlock waiting for message from 1 tag 5")]
    fn recv_times_out_with_short_timeout() {
        run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.set_recv_timeout(std::time::Duration::from_millis(20));
                comm.recv::<u8>(1, 5);
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 1: message from 0 tag 2 has unexpected payload type")]
    fn recv_reports_type_mismatch() {
        run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 2, 42u32);
            } else {
                comm.recv::<String>(0, 2);
            }
        });
    }

    /// `fold_blocked` with a chunk grid must reproduce the serial
    /// partial-then-fold reference bitwise, at every rank count —
    /// including worlds with more ranks than items.
    #[test]
    fn fold_blocked_matches_chunked_serial_reference() {
        let n = 103usize;
        let k = 4usize;
        let chunk = 16usize;
        // Values chosen so addition order matters in f64.
        let val = |v: usize| 0.1 + (v as f64) * 1e-3 + ((v * v % 7) as f64) * 1e9;
        let bucket = |v: usize| (v * 2654435761) % 4;
        // Serial reference: per-chunk partials folded in chunk order.
        let mut expected = vec![0.0f64; k];
        let mut c = 0;
        while c * chunk < n {
            let mut partial = vec![0.0f64; k];
            for v in c * chunk..((c + 1) * chunk).min(n) {
                partial[bucket(v)] += val(v);
            }
            for p in 0..k {
                expected[p] += partial[p];
            }
            c += 1;
        }
        for ranks in [1usize, 2, 3, 8, 128] {
            let results = run_spmd(ranks, move |comm| {
                let dist = crate::BlockDist::new(n, comm.size());
                let range = dist.range(comm.rank());
                comm.fold_blocked(k, range.start, range.len(), Some(chunk), |v, acc| {
                    acc[bucket(v)] += val(v);
                })
            });
            for got in results {
                assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "ranks={ranks}"
                );
            }
        }
    }

    /// `fold_blocked` without a chunk grid reproduces the direct serial
    /// accumulator loop bitwise.
    #[test]
    fn fold_blocked_direct_matches_serial_loop() {
        let n = 57usize;
        let k = 3usize;
        let val = |v: usize| (v as f64).sqrt() * 1e6 + 0.3;
        let bucket = |v: usize| v % 3;
        let mut expected = vec![0.0f64; k];
        for v in 0..n {
            expected[bucket(v)] += val(v);
        }
        for ranks in [1usize, 2, 5, 64] {
            let results = run_spmd(ranks, move |comm| {
                let dist = crate::BlockDist::new(n, comm.size());
                let range = dist.range(comm.rank());
                comm.fold_blocked(k, range.start, range.len(), None, |v, acc| {
                    acc[bucket(v)] += val(v);
                })
            });
            for got in results {
                assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "ranks={ranks}"
                );
            }
        }
    }

    #[test]
    fn fold_blocked_empty_world_items() {
        // Zero items: every rank forwards an untouched token.
        let results = run_spmd(3, |comm| {
            comm.fold_blocked(2, 0, 0, Some(8), |_, _| panic!())
        });
        for got in results {
            assert_eq!(got, vec![0.0, 0.0]);
        }
    }

    #[test]
    fn single_rank_world() {
        let results = run_spmd(1, |comm| {
            comm.barrier();
            let v = comm.allgather(9usize);
            let s = comm.allreduce_sum(2.5);
            (v, s)
        });
        assert_eq!(results[0], (vec![9], 2.5));
    }
}
