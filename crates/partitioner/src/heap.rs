//! Addressable binary max-heaps: priority queues whose keys change in
//! place.
//!
//! [`Heaps`] holds any number of heaps over one id space `0..n`. An
//! entry is an id with an `f64` key; a heap's top is its highest key by
//! `total_cmp`, the lowest id among equal keys. One position array,
//! shared by all the heaps, finds an id's entry, so an id is held at most
//! once — in one heap, which the caller names on every call (it is a
//! function of the id there: a vertex's part) — and [`Heaps::set`] can
//! insert it, raise it or lower it in `O(log n)` without leaving a stale
//! duplicate behind. That is what `std`'s heap with lazy deletion cannot
//! do, and what two of the users need: `refine::rebalance`, whose
//! per-part queues must hold exactly the current bound of every
//! candidate, and `initial::greedy_growing`, whose frontier raises an
//! affinity for every net it meets. The third, FM (`refine::fm_pass`),
//! never changes a key — it wants the membership test, the same pop
//! order and [`Heaps::fill`], which seeds a heap in one heapify, and so
//! needs no second queue type. This is the crate's only priority queue.

/// Position of an id no heap holds.
const ABSENT: u32 = u32::MAX;

/// Several addressable max-heaps over the ids `0..n` (module docs).
pub(crate) struct Heaps {
    /// Each heap as an implicit binary tree of `(key, id)` entries: no
    /// entry orders before its parent.
    heaps: Vec<Vec<(f64, usize)>>,
    /// Index of an id's entry in the heap that holds it, or [`ABSENT`].
    pos: Vec<u32>,
}

/// Whether entry `a` pops before entry `b`.
#[inline]
fn before(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)).is_gt()
}

impl Heaps {
    /// `count` empty heaps over the ids `0..n`.
    pub(crate) fn new(count: usize, n: usize) -> Self {
        assert!(n < ABSENT as usize, "heap positions are 32-bit");
        Heaps {
            heaps: vec![Vec::new(); count],
            pos: vec![ABSENT; n],
        }
    }

    /// Whether any of the heaps holds `id`.
    #[inline]
    pub(crate) fn contains(&self, id: usize) -> bool {
        self.pos[id] != ABSENT
    }

    /// The key `id` has in heap `h`, if it is there (it must not be in
    /// another heap).
    #[inline]
    pub(crate) fn key(&self, h: usize, id: usize) -> Option<f64> {
        let at = self.pos[id];
        (at != ABSENT).then(|| {
            debug_assert_eq!(
                self.heaps[h][at as usize].1, id,
                "id {id} is in another heap"
            );
            self.heaps[h][at as usize].0
        })
    }

    /// Gives `id` the key `key` in heap `h`: inserted if no heap holds it,
    /// moved up or down if `h` does (it must not be in another heap).
    pub(crate) fn set(&mut self, h: usize, id: usize, key: f64) {
        debug_assert!(!key.is_nan(), "NaN key for id {id}");
        let heap = &mut self.heaps[h];
        let at = match self.pos[id] {
            ABSENT => {
                heap.push((key, id));
                heap.len() - 1
            }
            at => {
                debug_assert_eq!(heap[at as usize].1, id, "id {id} is in another heap");
                at as usize
            }
        };
        settle(heap, &mut self.pos, at, (key, id));
    }

    /// Fills the empty heap `h` with `entries`, `(id, key)` pairs of ids
    /// no heap holds, in one bottom-up heapify: `O(len)` where a `set`
    /// per entry is `O(len log len)`. What pops afterwards does not
    /// depend on the order of `entries`: the top is always the first
    /// held entry in pop order, and no two entries tie (ids differ), so
    /// the pops are those of a `set` per entry in any order.
    pub(crate) fn fill(&mut self, h: usize, entries: impl IntoIterator<Item = (usize, f64)>) {
        let heap = &mut self.heaps[h];
        debug_assert!(heap.is_empty(), "heap {h} is not empty");
        for (id, key) in entries {
            debug_assert!(!key.is_nan(), "NaN key for id {id}");
            debug_assert_eq!(self.pos[id], ABSENT, "id {id} is held already");
            self.pos[id] = heap.len() as u32;
            heap.push((key, id));
        }
        for at in (0..heap.len() / 2).rev() {
            let entry = heap[at];
            sift_down(heap, &mut self.pos, at, entry);
        }
    }

    /// Takes `id` out of heap `h`, which must hold it.
    pub(crate) fn remove(&mut self, h: usize, id: usize) {
        let heap = &mut self.heaps[h];
        let at = self.pos[id] as usize;
        debug_assert!(
            self.pos[id] != ABSENT && heap[at].1 == id,
            "id {id} is not in heap {h}"
        );
        self.pos[id] = ABSENT;
        let last = heap.pop().expect("the heap holds the id");
        // The last entry takes the hole.
        if at < heap.len() {
            settle(heap, &mut self.pos, at, last);
        }
    }

    /// The top of heap `h` as `(id, key)`.
    #[inline]
    pub(crate) fn peek(&self, h: usize) -> Option<(usize, f64)> {
        self.heaps[h].first().map(|&(key, id)| (id, key))
    }

    /// Removes and returns the top of heap `h` as `(id, key)`.
    pub(crate) fn pop(&mut self, h: usize) -> Option<(usize, f64)> {
        let top = self.peek(h)?;
        self.remove(h, top.0);
        Some(top)
    }

    /// Number of entries heap `h` holds.
    #[inline]
    pub(crate) fn len(&self, h: usize) -> usize {
        self.heaps[h].len()
    }

    /// Empties every heap and makes the id space `0..n`, keeping the
    /// allocations.
    pub(crate) fn reset(&mut self, n: usize) {
        assert!(n < ABSENT as usize, "heap positions are 32-bit");
        for h in 0..self.heaps.len() {
            self.clear(h);
        }
        self.pos.resize(n, ABSENT);
    }

    /// Empties heap `h`, in time proportional to what it holds.
    pub(crate) fn clear(&mut self, h: usize) {
        for (_, id) in self.heaps[h].drain(..) {
            self.pos[id] = ABSENT;
        }
    }
}

/// Puts `entry` into the hole at `at` and lets it find its level: an
/// entry that cannot rise stays put or sinks.
fn settle(heap: &mut [(f64, usize)], pos: &mut [u32], at: usize, entry: (f64, usize)) {
    if sift_up(heap, pos, at, entry) == at {
        sift_down(heap, pos, at, entry);
    }
}

/// Settles `entry` at `at` or above: parents it pops before move down
/// into the hole. Returns where it landed.
fn sift_up(
    heap: &mut [(f64, usize)],
    pos: &mut [u32],
    mut at: usize,
    entry: (f64, usize),
) -> usize {
    while at > 0 {
        let parent = (at - 1) / 2;
        if !before(entry, heap[parent]) {
            break;
        }
        heap[at] = heap[parent];
        pos[heap[at].1] = at as u32;
        at = parent;
    }
    heap[at] = entry;
    pos[entry.1] = at as u32;
    at
}

/// Settles `entry` at `at` or below: the first-popping child moves up
/// into the hole while it pops before `entry`.
fn sift_down(heap: &mut [(f64, usize)], pos: &mut [u32], mut at: usize, entry: (f64, usize)) {
    loop {
        let mut child = 2 * at + 1;
        if child >= heap.len() {
            break;
        }
        if child + 1 < heap.len() && before(heap[child + 1], heap[child]) {
            child += 1;
        }
        if !before(heap[child], entry) {
            break;
        }
        heap[at] = heap[child];
        pos[heap[at].1] = at as u32;
        at = child;
    }
    heap[at] = entry;
    pos[entry.1] = at as u32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The heap invariants: every entry is where `pos` says, no entry
    /// pops before its parent, and `pos` names nothing else.
    fn check(heaps: &Heaps) {
        let mut held = 0;
        for heap in &heaps.heaps {
            for (at, &entry) in heap.iter().enumerate() {
                assert_eq!(heaps.pos[entry.1] as usize, at);
                assert!(at == 0 || !before(entry, heap[(at - 1) / 2]));
            }
            held += heap.len();
        }
        assert_eq!(heaps.pos.iter().filter(|&&at| at != ABSENT).count(), held);
    }

    /// The model: every held `(key, id)`, sorted into pop order on demand.
    fn pop_order(model: &[(f64, usize)]) -> Vec<(usize, f64)> {
        let mut sorted = model.to_vec();
        sorted.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        sorted.into_iter().map(|(key, id)| (id, key)).collect()
    }

    #[test]
    fn random_operations_match_a_sorted_vector() {
        let mut rng = StdRng::seed_from_u64(0x4EA9);
        for round in 0..40 {
            let n = rng.gen_range(1usize..60);
            let mut heaps = Heaps::new(1, n);
            let mut model: Vec<(f64, usize)> = Vec::new();
            for _ in 0..400 {
                let id = rng.gen_range(0..n);
                let held = model.iter().position(|e| e.1 == id);
                assert_eq!(heaps.contains(id), held.is_some());
                assert_eq!(heaps.key(0, id), held.map(|i| model[i].0));
                match rng.gen_range(0..6) {
                    // Insert, raise or lower; few distinct keys, so ties
                    // are common. Odd rounds also draw negative keys.
                    0..=2 => {
                        let key =
                            f64::from(rng.gen_range(0i32..8) - if round % 2 == 1 { 4 } else { 0 });
                        heaps.set(0, id, key);
                        match held {
                            Some(i) => model[i].0 = key,
                            None => model.push((key, id)),
                        }
                    }
                    3 => {
                        if let Some(i) = held {
                            heaps.remove(0, id);
                            model.swap_remove(i);
                        }
                    }
                    4 => {
                        let top = pop_order(&model).first().copied();
                        assert_eq!(heaps.peek(0), top);
                        assert_eq!(heaps.pop(0), top);
                        model.retain(|e| Some(e.1) != top.map(|t| t.0));
                    }
                    _ => assert_eq!(heaps.peek(0), pop_order(&model).first().copied()),
                }
                check(&heaps);
            }
            // Drain: the whole remaining order, not just each top.
            let rest: Vec<(usize, f64)> = std::iter::from_fn(|| heaps.pop(0)).collect();
            assert_eq!(rest, pop_order(&model));
            assert!((0..n).all(|id| !heaps.contains(id)));
        }
    }

    #[test]
    fn equal_keys_pop_by_ascending_id() {
        let mut heaps = Heaps::new(1, 50);
        for id in [17usize, 3, 42, 8, 29, 0, 49, 11] {
            heaps.set(0, id, 2.5);
        }
        heaps.set(0, 30, 7.0);
        heaps.set(0, 5, -1.0);
        // Lowered into the tie, raised out of it and back.
        heaps.set(0, 30, 2.5);
        heaps.set(0, 8, 9.0);
        heaps.set(0, 8, 2.5);
        let ids: Vec<usize> = std::iter::from_fn(|| heaps.pop(0))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids, [0, 3, 8, 11, 17, 29, 30, 42, 49, 5]);
    }

    /// `fill` then pops equals a `set` per entry in shuffled order then
    /// pops, ties on the key included, and leaves a heap the other
    /// operations keep working on.
    #[test]
    fn fill_pops_what_sets_pop() {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(0xF111);
        for round in 0..60 {
            let n = rng.gen_range(1usize..80);
            let mut entries: Vec<(usize, f64)> = Vec::new();
            for id in 0..n {
                if rng.gen_bool(0.7) {
                    entries.push((id, f64::from(rng.gen_range(-3i32..4))));
                }
            }
            let mut filled = Heaps::new(2, n);
            filled.fill(1, entries.iter().copied());
            check(&filled);
            entries.shuffle(&mut rng);
            let mut set = Heaps::new(2, n);
            for &(id, key) in &entries {
                set.set(1, id, key);
            }
            if round % 2 == 1 && !entries.is_empty() {
                // Keep using the filled heap: re-key, remove, insert.
                let (id, _) = entries[0];
                for heaps in [&mut filled, &mut set] {
                    heaps.set(1, id, 10.0);
                    heaps.remove(1, entries[entries.len() / 2].0);
                }
                check(&filled);
            }
            let pops = |heaps: &mut Heaps| std::iter::from_fn(|| heaps.pop(1)).collect::<Vec<_>>();
            assert_eq!(pops(&mut filled), pops(&mut set), "round {round}");
        }
    }

    /// Heaps sharing the position array: an id is in the heap it was put
    /// in, leaves it by `remove`, and can then enter another; clearing
    /// one heap leaves the others' entries addressable.
    #[test]
    fn heaps_share_one_position_array() {
        let mut rng = StdRng::seed_from_u64(0x5A4E);
        let (n, count) = (40usize, 3usize);
        let mut heaps = Heaps::new(count, n);
        let mut model: Vec<Vec<(f64, usize)>> = vec![Vec::new(); count];
        let mut home: Vec<Option<usize>> = vec![None; n];
        for step in 0..1500 {
            let id = rng.gen_range(0..n);
            let key = f64::from(rng.gen_range(0i32..6));
            match home[id] {
                // Re-key where it is, or move to another heap.
                Some(h) if rng.gen_bool(0.5) => {
                    heaps.set(h, id, key);
                    model[h].iter_mut().find(|e| e.1 == id).unwrap().0 = key;
                }
                Some(h) => {
                    heaps.remove(h, id);
                    model[h].retain(|e| e.1 != id);
                    let to = (h + 1 + rng.gen_range(0..count - 1)) % count;
                    heaps.set(to, id, key);
                    model[to].push((key, id));
                    home[id] = Some(to);
                }
                None => {
                    let h = rng.gen_range(0..count);
                    heaps.set(h, id, key);
                    model[h].push((key, id));
                    home[id] = Some(h);
                }
            }
            if step % 400 == 399 {
                heaps.clear(1);
                for (_, id) in model[1].drain(..) {
                    home[id] = None;
                }
            }
            check(&heaps);
            for h in 0..count {
                assert_eq!(heaps.peek(h), pop_order(&model[h]).first().copied());
            }
        }
        for h in 0..count {
            let rest: Vec<(usize, f64)> = std::iter::from_fn(|| heaps.pop(h)).collect();
            assert_eq!(rest, pop_order(&model[h]));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN key")]
    fn a_nan_key_is_refused() {
        Heaps::new(1, 4).set(0, 2, f64::NAN);
    }
}
