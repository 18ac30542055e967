//! Bounded per-connection egress queues.
//!
//! The state machines generate segments on `poll`; the kernel accepts them
//! on `send_to`. Between the two sits a small bounded queue so that a slow
//! or briefly unwritable socket exerts backpressure on the *connection*
//! (the loop simply stops polling it) instead of growing an unbounded
//! buffer or dropping segments the state machine believes are in flight.
//! Congestion control already bounds how much a connection wants in the
//! air, so a modest cap is enough to keep the pipe busy.

use std::collections::VecDeque;
use std::net::SocketAddr;

use mptcp_packet::PooledBuf;
use mptcp_telemetry::{CounterId, GaugeId};

use crate::paths::{PathSet, SendOutcome};
use crate::stats::RuntimeStats;

/// A framed datagram waiting for the kernel. The buffer is pooled: a
/// segment is encoded exactly once, survives `WouldBlock` retries in
/// place, and its buffer recycles when the entry leaves the queue.
struct Pending {
    path: usize,
    peer: SocketAddr,
    datagram: PooledBuf,
}

/// FIFO of framed datagrams with a hard capacity.
pub struct Egress {
    q: VecDeque<Pending>,
    cap: usize,
}

impl Egress {
    /// A queue that holds at most `cap` datagrams.
    pub fn new(cap: usize) -> Egress {
        Egress {
            q: VecDeque::with_capacity(cap),
            cap: cap.max(1),
        }
    }

    /// Whether another datagram may be enqueued.
    pub fn has_room(&self) -> bool {
        self.q.len() < self.cap
    }

    /// Queued datagrams.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// The path the oldest queued datagram waits for: where the last
    /// [`flush`](Self::flush) stopped, if it left anything behind.
    pub fn blocked_on(&self) -> Option<usize> {
        self.q.front().map(|p| p.path)
    }

    /// Give back the queue's storage (it holds `cap` entries from the
    /// start). For a connection that has finished: the few segments its
    /// sockets still emit on the way through TIME_WAIT regrow a small one.
    pub fn release(&mut self) {
        self.q.shrink_to_fit();
    }

    /// Enqueue one framed datagram. Callers must check [`Egress::has_room`]
    /// first; pushing into a full queue is a logic error upstream (the loop
    /// should have stopped polling the connection).
    pub fn push(&mut self, path: usize, peer: SocketAddr, datagram: PooledBuf) {
        debug_assert!(self.has_room(), "egress pushed past capacity");
        self.q.push_back(Pending {
            path,
            peer,
            datagram,
        });
    }

    /// Write queued datagrams to their paths until the queue empties or the
    /// kernel pushes back. Returns how many were handed to the kernel.
    pub fn flush(&mut self, paths: &mut PathSet, stats: &mut RuntimeStats) -> usize {
        // Record the pre-flush depth so the gauge's high-water mark shows
        // peak queue occupancy, not the (usually empty) post-flush state.
        stats
            .rec
            .gauge_set(GaugeId::RtEgressQueueDepth, self.q.len() as u64);
        let mut sent = 0;
        while let Some(p) = self.q.front() {
            match paths.send(p.path, p.peer, &p.datagram) {
                SendOutcome::Sent => {
                    self.q.pop_front();
                    sent += 1;
                    stats.rec.count(CounterId::RtDatagramsTx);
                }
                SendOutcome::Dropped => {
                    // Blocked path or hard error: the datagram is gone, as
                    // it would be on a dead link. Loss recovery owns it now.
                    self.q.pop_front();
                }
                SendOutcome::Busy => break,
            }
        }
        stats
            .rec
            .gauge_set(GaugeId::RtEgressQueueDepth, self.q.len() as u64);
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_packet::BufPool;

    fn frame(pool: &BufPool, fill: u8, len: usize) -> PooledBuf {
        let mut b = pool.checkout();
        b.resize(len, fill);
        b
    }

    #[test]
    fn capacity_gates_room() {
        let pool = BufPool::new(64, 8);
        let mut e = Egress::new(2);
        let peer: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(e.has_room());
        e.push(0, peer, frame(&pool, 1, 1));
        e.push(0, peer, frame(&pool, 2, 1));
        assert!(!e.has_room());
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn flush_drains_in_order_and_recycles_buffers() {
        let mut paths = PathSet::bind(&["127.0.0.1:0".parse().unwrap()]).unwrap();
        let sink = PathSet::bind(&["127.0.0.1:0".parse().unwrap()]).unwrap();
        let peer = sink.local_addr(0).unwrap();
        let pool = paths.pool();
        let mut stats = RuntimeStats::new();
        let mut e = Egress::new(8);
        e.push(0, peer, frame(&pool, 0, 32));
        e.push(0, peer, frame(&pool, 0, 32));
        assert_eq!(pool.stats().outstanding, 2);
        let sent = e.flush(&mut paths, &mut stats);
        assert_eq!(sent, 2);
        assert!(e.is_empty());
        assert_eq!(stats.rec.counter(CounterId::RtDatagramsTx), 2);
        assert_eq!(pool.stats().outstanding, 0, "flushed buffers recycled");
    }
}
