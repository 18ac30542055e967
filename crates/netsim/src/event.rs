//! A stable min-heap of timed events.
//!
//! Events at the same instant fire in insertion order — this tiebreak is
//! what makes the whole simulation deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An ordered queue of `(SimTime, T)` events.
///
/// The heap orders small `(at, seq, slot)` keys; the events sit still in
/// `slots`, so a heap operation moves 24 bytes however large `T` is.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Where the keys point; `None` marks a slot on the free list.
    slots: Vec<Option<T>>,
    free: Vec<usize>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedule `item` at instant `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let slot = self.free.pop().unwrap_or(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push(None);
        }
        self.slots[slot] = Some(item);
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// Instant of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        self.free.push(slot);
        let item = self.slots[slot].take().expect("a queued key owns its slot");
        Some((at, item))
    }

    /// Pop the earliest event only if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), "c");
        q.push(SimTime::from_millis(1), "a");
        q.push(SimTime::from_millis(2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn stable_for_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn stable_for_equal_times_through_reused_slots() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 0);
        q.push(t, 1);
        q.push(t, 2);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        // These two take the freed slots, the later one the lower slot.
        q.push(t, 3);
        q.push(t, 4);
        assert_eq!(q.len(), 3);
        for i in 2..5 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        assert!(q.pop_due(SimTime::from_millis(9)).is_none());
        assert!(q.pop_due(SimTime::from_millis(10)).is_some());
        assert!(q.is_empty());
    }
}
