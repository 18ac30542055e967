//! "Shortcuts" algorithm: per-subflow expected-position pointers.
//!
//! The paper's key observation (§4.3): when a subflow is ready to send,
//! the connection allocates a *batch* of contiguous data sequence numbers
//! to it, so each subflow's arrivals are in-order at the data level within
//! the batch. The receiver therefore "augments each subflow's data
//! structures with a pointer to the connection-level out-of-order queue
//! where it expects the next segment of that subflow to arrive. If the
//! pointer is wrong, we revert to scanning the whole out-of-order queue."
//! The shortcut hits for ~80% of packets and makes insertion O(1).
//!
//! The queue is a slab-backed doubly-linked list (stable node handles with
//! generation counters, so recycled slots can't be mistaken for live ones).

use std::collections::HashMap;

use bytes::Bytes;

use super::Slot;

const NIL: usize = usize::MAX;

struct Node {
    dsn: u64,
    data: Bytes,
    prev: usize,
    next: usize,
    gen: u32,
    alive: bool,
}

impl Node {
    fn end(&self) -> u64 {
        self.dsn + self.data.len() as u64
    }
}

/// A linked list with a per-subflow insertion shortcut.
pub(super) struct List {
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// subflow -> (node index, generation) after which the next segment
    /// from that subflow is expected to land.
    cursors: HashMap<usize, (usize, u32)>,
}

impl List {
    pub(super) fn new() -> List {
        List {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cursors: HashMap::new(),
        }
    }

    /// The node to link `[dsn, dsn + len)` after: the subflow's cursor when
    /// the piece fits right behind it (one op, a hit), else a scan from the
    /// tail.
    pub(super) fn locate(&self, dsn: u64, len: usize, subflow: usize) -> Slot {
        let (after, ops, hit) = match self.cursors.get(&subflow) {
            Some(&(idx, gen))
                if idx < self.nodes.len()
                    && self.nodes[idx].gen == gen
                    && self.fits_after(idx, dsn, len) =>
            {
                (idx, 1, true)
            }
            _ => {
                let (mut t, mut ops) = (self.tail, 1);
                while t != NIL && self.nodes[t].dsn > dsn {
                    t = self.nodes[t].prev;
                    ops += 1;
                }
                (t, ops, false)
            }
        };
        let next = if after == NIL {
            self.head
        } else {
            self.nodes[after].next
        };
        Slot {
            prev_end: (after != NIL).then(|| self.nodes[after].end()),
            next_start: (next != NIL).then(|| self.nodes[next].dsn),
            at: after as u64,
            ops,
            hit,
        }
    }

    /// Does `[dsn, dsn + len)` go directly after live node `idx`, keeping
    /// the list sorted and non-overlapping?
    fn fits_after(&self, idx: usize, dsn: u64, len: usize) -> bool {
        let n = &self.nodes[idx];
        n.alive && n.end() <= dsn && (n.next == NIL || dsn + len as u64 <= self.nodes[n.next].dsn)
    }

    /// Link a new node after `after` (NIL = at the head) and point the
    /// subflow's cursor at it.
    pub(super) fn place(&mut self, after: usize, dsn: u64, data: Bytes, subflow: usize) {
        let node = |gen| Node {
            dsn,
            data,
            prev: after,
            next: NIL,
            gen,
            alive: true,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node(self.nodes[i].gen.wrapping_add(1));
                i
            }
            None => {
                self.nodes.push(node(0));
                self.nodes.len() - 1
            }
        };
        let next = if after == NIL {
            std::mem::replace(&mut self.head, idx)
        } else {
            std::mem::replace(&mut self.nodes[after].next, idx)
        };
        self.nodes[idx].next = next;
        if next == NIL {
            self.tail = idx;
        } else {
            self.nodes[next].prev = idx;
        }
        self.cursors.insert(subflow, (idx, self.nodes[idx].gen));
    }

    pub(super) fn front(&self) -> Option<(u64, &Bytes)> {
        let head = self.nodes.get(self.head)?;
        Some((head.dsn, &head.data))
    }

    pub(super) fn pop_front(&mut self) -> Option<Bytes> {
        let h = self.head;
        let node = self.nodes.get_mut(h)?;
        node.alive = false;
        let data = std::mem::replace(&mut node.data, Bytes::new());
        self.head = node.next;
        match self.nodes.get_mut(self.head) {
            Some(next) => next.prev = NIL,
            None => self.tail = NIL,
        }
        self.free.push(h);
        Some(data)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{make_queue, OooQueue};
    use super::*;
    use crate::config::ReorderAlgo;

    fn b(n: usize) -> Bytes {
        Bytes::from(vec![0u8; n])
    }

    fn queue() -> OooQueue {
        make_queue(ReorderAlgo::Shortcuts)
    }

    #[test]
    fn contiguous_batch_hits_shortcut() {
        let mut q = queue();
        q.insert(100, b(10), 0); // miss (empty queue scan, cheap)
        for i in 1..50u64 {
            q.insert(100 + i * 10, b(10), 0);
        }
        assert_eq!(q.shortcut_hits(), 49);
        assert_eq!(q.len(), 50);
    }

    #[test]
    fn interleaved_subflows_each_hit_their_cursor() {
        let mut q = queue();
        // sf0 at 0.., sf1 at 10_000.., alternating arrivals.
        q.insert(0, b(10), 0);
        q.insert(10_000, b(10), 1);
        for i in 1..100u64 {
            q.insert(i * 10, b(10), 0);
            q.insert(10_000 + i * 10, b(10), 1);
        }
        // Each subflow's cursor stays valid despite the other's inserts.
        assert!(q.shortcut_hits() >= 198, "hits = {}", q.shortcut_hits());
    }

    #[test]
    fn stale_cursor_detected_after_pop() {
        let mut q = queue();
        q.insert(0, b(10), 0);
        // Pop recycles the node slot.
        assert!(q.pop_ready(0).is_some());
        q.insert(100, b(10), 1); // reuses slot with bumped generation
                                 // sf0's cursor points at the recycled slot; the generation check
                                 // must force a scan rather than corrupt the list.
        q.insert(50, b(10), 0);
        assert_eq!(q.len(), 2);
        let a = q.pop_ready(50).unwrap();
        assert_eq!(a.0, 50);
        let c = q.pop_ready(100).unwrap();
        assert_eq!(c.0, 100);
    }

    #[test]
    fn overlap_trimmed_on_shortcut_path() {
        let mut q = queue();
        q.insert(0, b(10), 0);
        q.insert(5, b(10), 0); // overlaps its own previous segment
        assert_eq!(q.buffered_bytes(), 15);
        let (_, d1) = q.pop_ready(0).unwrap();
        assert_eq!(d1.len(), 10);
        let (dsn, d2) = q.pop_ready(10).unwrap();
        assert_eq!(dsn, 10);
        assert_eq!(d2.len(), 5);
    }
}
