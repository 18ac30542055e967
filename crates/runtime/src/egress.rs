//! Bounded per-connection egress queues.
//!
//! The state machines generate segments on `poll`; the kernel accepts them
//! in runs, one `sendmsg(2)` each (`PathSet::send`). Between the two sits
//! a small bounded queue so that a slow
//! or briefly unwritable socket exerts backpressure on the *connection*
//! (the loop simply stops polling it) instead of growing an unbounded
//! buffer or dropping segments the state machine believes are in flight.
//! Congestion control already bounds how much a connection wants in the
//! air, so a modest cap is enough to keep the pipe busy.

use std::collections::VecDeque;
use std::net::SocketAddr;

use mptcp_packet::PooledBuf;
use mptcp_telemetry::{CounterId, GaugeId};

use crate::paths::{PathSet, SendOutcome, MAX_RUN_BYTES};
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
    ///
    /// The queue leaves in runs, oldest first: the longest prefix that
    /// shares a path and a peer, whose frames all have the first one's size
    /// but the last, which may be shorter: at most 64 datagrams (one, on a
    /// path whose kernel refused to segment) and 65 507 bytes. The kernel
    /// takes a run whole or not at all.
    pub fn flush(&mut self, paths: &mut PathSet, stats: &mut RuntimeStats) -> usize {
        // Record the pre-flush depth so the gauge's high-water mark shows
        // peak queue occupancy, not the (usually empty) post-flush state.
        stats
            .rec
            .gauge_set(GaugeId::RtEgressQueueDepth, self.q.len() as u64);
        let mut sent = 0;
        while let Some(first) = self.q.front() {
            let (path, peer) = (first.path, first.peer);
            let n = self.run_len(paths.run_limit(path));
            let frames = self.q.iter().take(n).map(|p| &p.datagram[..]);
            match paths.send(path, peer, frames, stats) {
                SendOutcome::Sent => {
                    self.q.drain(..n);
                    sent += n;
                    stats.rec.count_n(CounterId::RtDatagramsTx, n as u64);
                }
                SendOutcome::Dropped => {
                    // Blocked path or hard error: the run is gone, as it
                    // would be on a dead link. Loss recovery owns it now.
                    self.q.drain(..n);
                }
                SendOutcome::Busy => break,
                // The path now sends runs of one: form them and go on.
                SendOutcome::Unsegmented => {}
            }
        }
        stats
            .rec
            .gauge_set(GaugeId::RtEgressQueueDepth, self.q.len() as u64);
        sent
    }

    /// How many queued datagrams, from the oldest, make the next run of at
    /// most `limit`.
    fn run_len(&self, limit: usize) -> usize {
        let first = &self.q[0];
        let size = first.datagram.len();
        let mut bytes = size;
        let mut n = 1;
        for p in self.q.iter().skip(1).take(limit - 1) {
            let len = p.datagram.len();
            if p.path != first.path || p.peer != first.peer || len > size {
                break;
            }
            bytes += len;
            if bytes > MAX_RUN_BYTES {
                break;
            }
            n += 1;
            if len < size {
                break;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_packet::BufPool;
    use std::io;
    use std::net::UdpSocket;
    use std::time::Duration;

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

    /// A plain socket, without `UDP_GRO`: each read is one datagram, so
    /// it sees the datagrams the kernel cut the runs into.
    fn sink() -> UdpSocket {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    }

    /// The next `n` datagrams at `s` and who sent each, then proof that
    /// nothing else came.
    fn received(s: &UdpSocket, n: usize) -> Vec<(Vec<u8>, SocketAddr)> {
        let mut buf = [0u8; 2048];
        let got = (0..n)
            .map(|_| {
                let (len, from) = s.recv_from(&mut buf).unwrap();
                (buf[..len].to_vec(), from)
            })
            .collect();
        s.set_nonblocking(true).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let more = s.recv(&mut buf).map_err(|e| e.kind());
        assert_eq!(more, Err(io::ErrorKind::WouldBlock), "no extra datagram");
        got
    }

    #[test]
    fn a_flush_of_equal_frames_is_one_send_of_as_many_datagrams() {
        let mut paths = PathSet::bind(&["127.0.0.1:0".parse().unwrap()]).unwrap();
        let sink = sink();
        let peer = sink.local_addr().unwrap();
        let pool = paths.pool();
        let mut stats = RuntimeStats::new();
        let mut e = Egress::new(16);
        for i in 0..10 {
            e.push(0, peer, frame(&pool, i, 100));
        }
        assert_eq!(e.flush(&mut paths, &mut stats), 10);
        assert_eq!(stats.rec.counter(CounterId::RtDatagramsTx), 10);
        assert_eq!(stats.rec.counter(CounterId::RtSendCalls), 1);
        let got = received(&sink, 10);
        for (i, (d, _)) in got.iter().enumerate() {
            assert_eq!(
                d,
                &vec![i as u8; 100],
                "datagram {i}: in order, byte for byte"
            );
        }
    }

    /// A run ends where the path, the peer or the size changes; a shorter
    /// frame rides at the end of its run and ends it.
    #[test]
    fn runs_split_on_path_peer_and_size() {
        let any = "127.0.0.1:0".parse().unwrap();
        let mut paths = PathSet::bind(&[any, any]).unwrap();
        let (s1, s2) = (sink(), sink());
        let (p1, p2) = (s1.local_addr().unwrap(), s2.local_addr().unwrap());
        let pool = paths.pool();
        let mut e = Egress::new(16);
        let queue = [
            (0, p1, 100),
            (0, p1, 100),
            (0, p1, 100),
            (0, p1, 60), // rides the first run
            (0, p1, 100),
            (0, p1, 100),
            (0, p2, 100), // another peer
            (1, p2, 100), // another path
            (1, p2, 100),
            (1, p2, 120), // a larger frame
        ];
        for (i, &(path, peer, len)) in queue.iter().enumerate() {
            e.push(path, peer, frame(&pool, i as u8, len));
        }
        let mut stats = RuntimeStats::new();
        assert_eq!(e.flush(&mut paths, &mut stats), 10);
        assert_eq!(stats.rec.counter(CounterId::RtSendCalls), 5);
        assert_eq!(stats.rec.counter(CounterId::RtDatagramsTx), 10);

        let local = [paths.local_addr(0).unwrap(), paths.local_addr(1).unwrap()];
        let expect = |peer: SocketAddr| -> Vec<(Vec<u8>, SocketAddr)> {
            let at = queue.iter().enumerate().filter(|(_, q)| q.1 == peer);
            at.map(|(i, &(path, _, len))| (vec![i as u8; len], local[path]))
                .collect()
        };
        assert_eq!(received(&s1, 6), expect(p1));
        assert_eq!(received(&s2, 4), expect(p2));
    }

    /// Sixty-four datagrams, or 64 KiB, end a run.
    #[test]
    fn runs_stop_at_the_kernels_limits() {
        let mut paths = PathSet::bind(&["127.0.0.1:0".parse().unwrap()]).unwrap();
        let sink = sink();
        let peer = sink.local_addr().unwrap();
        let pool = paths.pool();
        let mut stats = RuntimeStats::new();
        let mut e = Egress::new(128);
        for (n, len) in [(70, 32), (56, 1200)] {
            for i in 0..n {
                e.push(0, peer, frame(&pool, i, len));
            }
            let calls = stats.rec.counter(CounterId::RtSendCalls);
            assert_eq!(e.flush(&mut paths, &mut stats), n as usize);
            // 64 + 6 datagrams; 54 (64 800 bytes) + 2.
            assert_eq!(stats.rec.counter(CounterId::RtSendCalls) - calls, 2);
            let got = received(&sink, n as usize);
            assert!(got.iter().all(|(d, _)| d.len() == len));
        }
    }

    #[test]
    fn a_blocked_path_drops_the_whole_run_and_sends_nothing() {
        let mut paths = PathSet::bind(&["127.0.0.1:0".parse().unwrap()]).unwrap();
        let sink = sink();
        let peer = sink.local_addr().unwrap();
        let pool = paths.pool();
        let mut stats = RuntimeStats::new();
        let mut e = Egress::new(8);
        for i in 0..5 {
            e.push(0, peer, frame(&pool, i, 100));
        }
        paths.set_blocked(0, true);
        assert_eq!(e.flush(&mut paths, &mut stats), 0);
        assert!(e.is_empty(), "the run is gone, as on a dead link");
        assert_eq!(stats.rec.counter(CounterId::RtDatagramsTx), 0);
        assert_eq!(stats.rec.counter(CounterId::RtSendCalls), 0);
        assert_eq!(pool.stats().outstanding, 0);
        received(&sink, 0);
    }
}
