//! The indexed max-heap of vertex gains behind every FM loop.
//!
//! Fiduccia–Mattheyses keeps each unlocked vertex's gain in a priority
//! structure that is updated *in place* when a neighbor moves. This heap
//! does that with a per-vertex position array: a gain change sifts the
//! vertex's single entry, a vertex that leaves the candidate set is
//! removed, and every pop returns a live vertex. Keys are `(gain, vertex)`,
//! so ties on gain pop the higher vertex id first — the order the refiners
//! have always used, which keeps their move sequences deterministic.

/// Position of a vertex that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// Indexed binary max-heap over `(gain, vertex)` keys for vertices
/// `0..n`, holding at most one entry per vertex.
pub(crate) struct GainHeap {
    /// Heap-ordered entries: each is `>=` both of its children.
    heap: Vec<(i64, u32)>,
    /// `pos[u]` is `u`'s index in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl GainHeap {
    /// An empty heap for vertices `0..n`.
    pub(crate) fn new(n: usize) -> GainHeap {
        GainHeap {
            heap: Vec::new(),
            pos: vec![ABSENT; n],
        }
    }

    /// Number of vertices in the heap.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Insert `u` with `gain`, or move its entry to `gain` if present.
    pub(crate) fn upsert(&mut self, u: u32, gain: i64) {
        match self.pos[u as usize] {
            ABSENT => {
                self.heap.push((gain, u));
                self.sift_up(self.heap.len() - 1);
            }
            i => {
                let i = i as usize;
                let old = self.heap[i].0;
                self.heap[i].0 = gain;
                if gain > old {
                    self.sift_up(i);
                } else if gain < old {
                    self.sift_down(i);
                }
            }
        }
    }

    /// Drop `u`'s entry, if any.
    pub(crate) fn remove(&mut self, u: u32) {
        let i = self.pos[u as usize];
        if i == ABSENT {
            return;
        }
        self.pos[u as usize] = ABSENT;
        let last = self.heap.pop().expect("a present vertex has an entry");
        let i = i as usize;
        if i < self.heap.len() {
            // The former last entry fills the hole; it may belong above
            // or below it.
            let removed = self.heap[i];
            self.heap[i] = last;
            if last > removed {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    /// Remove and return the entry with the largest `(gain, vertex)`.
    pub(crate) fn pop(&mut self) -> Option<(i64, u32)> {
        let top = *self.heap.first()?;
        self.pos[top.1 as usize] = ABSENT;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Empty the heap in `O(len)`, keeping its buffers for the next pass.
    pub(crate) fn clear(&mut self) {
        for (_, u) in self.heap.drain(..) {
            self.pos[u as usize] = ABSENT;
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if p >= item {
                break;
            }
            self.heap[i] = p;
            self.pos[p.1 as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let item = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let c = if right < len && self.heap[right] > self.heap[left] {
                right
            } else {
                left
            };
            let child = self.heap[c];
            if child <= item {
                break;
            }
            self.heap[i] = child;
            self.pos[child.1 as usize] = i as u32;
            i = c;
        }
        self.heap[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_par::proplite::run_cases;
    use std::collections::BTreeSet;

    /// Random upsert/remove/pop/clear sequences against a `BTreeSet` model
    /// of the live `(gain, vertex)` keys. Small gain ranges force ties, so
    /// the vertex tiebreak is exercised on every case.
    #[test]
    fn matches_an_ordered_set_model() {
        run_cases(64, 0x6A1, |gen| {
            let n = gen.usize_in(1, 200);
            let span = gen.usize_in(1, 40) as i64;
            let mut heap = GainHeap::new(n);
            let mut model: BTreeSet<(i64, u32)> = BTreeSet::new();
            let mut gain_of: Vec<Option<i64>> = vec![None; n];
            for _ in 0..gen.usize_in(1, 2000) {
                let u = gen.usize_in(0, n) as u32;
                match gen.usize_in(0, 10) {
                    0..=4 => {
                        let g = gen.usize_in(0, 2 * span as usize) as i64 - span;
                        if let Some(old) = gain_of[u as usize].replace(g) {
                            model.remove(&(old, u));
                        }
                        model.insert((g, u));
                        heap.upsert(u, g);
                    }
                    5 | 6 => {
                        if let Some(old) = gain_of[u as usize].take() {
                            model.remove(&(old, u));
                        }
                        heap.remove(u);
                    }
                    7 | 8 => {
                        let want = model.pop_last();
                        if let Some((_, v)) = want {
                            gain_of[v as usize] = None;
                        }
                        assert_eq!(heap.pop(), want, "case seed {}", gen.seed);
                    }
                    _ => {
                        if gen.usize_in(0, 20) == 0 {
                            heap.clear();
                            model.clear();
                            gain_of.fill(None);
                        }
                    }
                }
                assert_eq!(heap.len(), model.len(), "case seed {}", gen.seed);
            }
            // Draining pops the model in descending order.
            while let Some(want) = model.pop_last() {
                assert_eq!(heap.pop(), Some(want), "case seed {}", gen.seed);
            }
            assert_eq!(heap.pop(), None);
            assert!(heap.pos.iter().all(|&p| p == ABSENT));
        });
    }
}
