//! The send queue of the all-sources payloads ([`crate::bfs_collection`],
//! [`crate::apsp_weighted`]): every node keeps one slot per instance and sends
//! its pending slots one per round, smallest key first.
//!
//! A slot's key falls whenever a relaxation lowers it, far more often than the
//! node sends (on gnp-512 the weighted payload lowers about twice per send, and
//! a node has ≈ 180 keys pending). So the queue never removes a key it
//! replaced: it is a 4-ary min-heap in one flat `Vec` with lazy deletion. The
//! payload says which keys are live — the key its slot still holds, unsent —
//! and [`SendQueue::settle`] drops dead ones when they surface, so the top is
//! live between calls. Keys carry their slot's index in their low-order
//! fields, so the pop order is the `(key, index)` order a sorted set would
//! give, ties between two live copies of one key included.

/// Children per heap node.
const ARITY: usize = 4;

/// Dead keys tolerated beyond the live ones before [`SendQueue::settle`]
/// compacts: the heap may hold `2 × pending + SLACK` keys.
const SLACK: usize = 64;

/// The largest buffer, in keys, a drained queue keeps: a node's queue drains
/// and refills with every wave that passes it, and freeing a small buffer each
/// time costs an allocation per refill (an emptied `BTreeSet` kept its one
/// 192-byte leaf the same way).
const KEPT: usize = 16;

/// A min-heap of send keys with lazy deletion (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct SendQueue<K> {
    heap: Vec<K>,
    /// Slots with a live key in `heap`.
    pending: usize,
}

impl<K: Ord + Copy> SendQueue<K> {
    /// The empty queue; it allocates on its first push.
    pub(crate) const fn new() -> Self {
        Self {
            heap: Vec::new(),
            pending: 0,
        }
    }

    /// Whether no slot is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Queues `key` for a slot that had nothing pending.
    pub(crate) fn push(&mut self, key: K) {
        self.pending += 1;
        self.insert(key);
    }

    /// Queues `key` for a slot that was pending under another key, which is
    /// dead from now on.
    pub(crate) fn supersede(&mut self, key: K) {
        self.insert(key);
    }

    /// The smallest key, live after every [`SendQueue::settle`].
    pub(crate) fn peek(&self) -> Option<K> {
        self.heap.first().copied()
    }

    /// Removes the top key, which is live: its slot was just sent. Call
    /// [`SendQueue::settle`] before the next [`SendQueue::peek`].
    pub(crate) fn pop(&mut self) -> K {
        self.pending -= 1;
        self.remove_top().expect("pop on a queue with a live key")
    }

    /// Drops dead keys: all of them once the heap holds more than
    /// `2 × pending + SLACK` keys, then every dead key on top. `live(key)` says
    /// whether `key`'s slot still holds it unsent. A drained queue frees a
    /// buffer of more than [`KEPT`] keys.
    pub(crate) fn settle(&mut self, live: impl Fn(K) -> bool) {
        if self.pending == 0 {
            if self.heap.capacity() > KEPT {
                self.heap = Vec::new();
            }
            self.heap.clear();
            return;
        }
        if self.heap.len() > 2 * self.pending + SLACK {
            // A sorted array is a heap; dedup leaves one key per pending slot.
            self.heap.retain(|&k| live(k));
            self.heap.sort_unstable();
            self.heap.dedup();
            debug_assert_eq!(self.heap.len(), self.pending);
        }
        while let Some(top) = self.peek() {
            if live(top) {
                break;
            }
            self.remove_top();
        }
    }

    /// The live keys, sorted and once each: what a sorted set of the pending
    /// sends would hold. Panics unless there is one per pending slot and the
    /// dead ones are within the compaction bound, as after every
    /// [`SendQueue::settle`].
    #[cfg(test)]
    pub(crate) fn live_keys(&self, live: impl Fn(K) -> bool) -> Vec<K> {
        let mut keys: Vec<K> = self.heap.iter().copied().filter(|&k| live(k)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), self.pending, "one live key per pending slot");
        assert!(self.heap.len() <= 2 * self.pending + SLACK, "compacted");
        keys
    }

    fn insert(&mut self, key: K) {
        let mut i = self.heap.len();
        self.heap.push(key);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent] <= key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = key;
    }

    fn remove_top(&mut self) -> Option<K> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last);
        };
        let len = self.heap.len();
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let end = (first + ARITY).min(len);
            let mut child = first;
            for c in first + 1..end {
                if self.heap[c] < self.heap[child] {
                    child = c;
                }
            }
            if last <= self.heap[child] {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = last;
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Drives a queue and a sorted-set reference through `ops`, with the
    /// payloads' discipline: a slot holds at most one live key, lowering it
    /// supersedes the old one, and the queue settles after every step.
    fn check(ops: &[(u8, u32, u64)]) -> Result<(), TestCaseError> {
        let mut queue = SendQueue::new();
        let mut want: BTreeSet<(u64, u32)> = BTreeSet::new();
        // Slot → its live key.
        let mut slots: BTreeMap<u32, u64> = BTreeMap::new();
        for &(op, index, key) in ops {
            if op < 2 {
                match slots.insert(index, key) {
                    Some(old) => {
                        want.remove(&(old, index));
                        queue.supersede((key, index));
                    }
                    None => queue.push((key, index)),
                }
                want.insert((key, index));
            } else if let Some(top) = want.pop_first() {
                prop_assert_eq!(queue.pop(), top);
                slots.remove(&top.1);
            }
            let live = |(key, index): (u64, u32)| slots.get(&index) == Some(&key);
            queue.settle(live);
            prop_assert_eq!(queue.peek(), want.first().copied());
            prop_assert_eq!(queue.is_empty(), want.is_empty());
            prop_assert_eq!(
                queue.live_keys(live),
                want.iter().copied().collect::<Vec<_>>()
            );
            prop_assert!(queue.heap.len() <= 2 * want.len() + SLACK);
        }
        // Drain: the same pops to the end, then at most a small buffer.
        while let Some(top) = want.pop_first() {
            prop_assert_eq!(queue.pop(), top);
            slots.remove(&top.1);
            queue.settle(|(key, index)| slots.get(&index) == Some(&key));
            prop_assert_eq!(queue.peek(), want.first().copied());
        }
        prop_assert!(queue.is_empty());
        prop_assert!(queue.heap.capacity() <= KEPT);
        Ok(())
    }

    proptest! {
        /// Pushes, supersedes (a lower or a higher key, or the same key
        /// again) and pops, against a `BTreeSet`: the same top after every
        /// step and the same pop order, with ties across indices, keys near
        /// `u64::MAX`, runs long enough to compact, and the drain.
        #[test]
        fn pops_in_sorted_set_order(
            ops in prop::collection::vec((0u8..3, 0u32..12, 0u8..2, 0u64..8), 0..600),
        ) {
            let ops: Vec<(u8, u32, u64)> = ops
                .into_iter()
                .map(|(op, index, high, d)| (op, index, if high == 1 { u64::MAX - d } else { d }))
                .collect();
            check(&ops)?;
        }

        /// Few slots lowered again and again: dead keys pile up past the
        /// compaction threshold before anything is sent.
        #[test]
        fn compacts_under_many_supersedes(
            ops in prop::collection::vec((0u8..2, 0u32..3, 0u64..=u64::MAX), 100..400),
        ) {
            check(&ops)?;
        }
    }
}
