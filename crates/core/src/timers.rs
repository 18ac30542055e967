//! Deadline tracking for many connections.
//!
//! A listener multiplexes many connections; scanning every one of them for
//! `poll_at` on each event would make every event O(connections). Instead
//! each connection's current deadline lives in a lazy min-heap:
//! re-scheduling pushes a new entry without removing the old, and stale
//! entries (whose deadline no longer matches the connection's current one)
//! are discarded as they surface. Every mutation leaves a live entry on
//! top, so the earliest deadline is a peek.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mptcp_netsim::SimTime;

/// Lazy min-heap of per-connection deadlines.
#[derive(Default)]
pub(crate) struct DeadlineHeap {
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// The authoritative current deadline per connection; heap entries
    /// that disagree are stale.
    current: Vec<Option<SimTime>>,
}

impl DeadlineHeap {
    /// Every entry was pushed by `schedule`, which sized `current` first.
    fn live(&self, deadline: SimTime, conn: usize) -> bool {
        self.current[conn] == Some(deadline)
    }

    /// Record `conn`'s deadline (or clear it with `None`). An unchanged
    /// deadline costs nothing: its entry is already in the heap.
    pub(crate) fn schedule(&mut self, conn: usize, deadline: Option<SimTime>) {
        if conn >= self.current.len() {
            self.current.resize(conn + 1, None);
        }
        if self.current[conn] == deadline {
            return;
        }
        self.current[conn] = deadline;
        if let Some(d) = deadline {
            self.heap.push(Reverse((d, conn)));
        }
        // `conn`'s old entry may have been on top.
        while let Some(&Reverse((d, c))) = self.heap.peek() {
            if self.live(d, c) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Earliest live deadline, if any.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((d, _))| d)
    }

    /// Hand every connection whose deadline is `<= now` to `due`, clearing
    /// its deadline (the caller re-schedules after re-polling it).
    pub(crate) fn pop_due(&mut self, now: SimTime, mut due: impl FnMut(usize)) {
        while let Some(&Reverse((d, conn))) = self.heap.peek() {
            let live = self.live(d, conn);
            if live && d > now {
                break;
            }
            self.heap.pop();
            if live {
                self.current[conn] = None;
                due(conn);
            }
        }
    }

    /// No entry left, live or stale.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop_due(h: &mut DeadlineHeap, now: SimTime) -> Vec<usize> {
        let mut due = Vec::new();
        h.pop_due(now, |conn| due.push(conn));
        due
    }

    #[test]
    fn stale_entries_are_skipped() {
        let mut h = DeadlineHeap::default();
        h.schedule(0, Some(SimTime(100)));
        h.schedule(1, Some(SimTime(50)));
        // Conn 1 re-schedules later; the 50ns entry is now stale.
        h.schedule(1, Some(SimTime(200)));
        assert_eq!(h.next_deadline(), Some(SimTime(100)));

        assert_eq!(pop_due(&mut h, SimTime(150)), vec![0]);
        assert_eq!(h.next_deadline(), Some(SimTime(200)));
    }

    #[test]
    fn cleared_deadlines_never_fire() {
        let mut h = DeadlineHeap::default();
        h.schedule(3, Some(SimTime(10)));
        h.schedule(3, None);
        assert!(pop_due(&mut h, SimTime(1_000)).is_empty());
        assert_eq!(h.next_deadline(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn due_connections_pop_once() {
        let mut h = DeadlineHeap::default();
        h.schedule(0, Some(SimTime(10)));
        h.schedule(1, Some(SimTime(20)));
        // Re-scheduling an unchanged deadline adds no second entry.
        h.schedule(1, Some(SimTime(20)));
        let mut due = pop_due(&mut h, SimTime(25));
        due.sort_unstable();
        assert_eq!(due, vec![0, 1]);
        assert!(h.is_empty());
        assert!(pop_due(&mut h, SimTime(25)).is_empty());
    }
}
