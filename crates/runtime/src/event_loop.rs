//! The loop core both runtimes drive.
//!
//! A client and a server differ in *which* connections an iteration
//! touches, not in how it moves datagrams. That part lives here once:
//! account for a late wake-up, drain every path into one ingress batch,
//! drive a connection and pump it into its bounded egress queue, flush,
//! block until a socket is ready or the next deadline is due.

use std::io;
use std::net::SocketAddr;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

use mptcp::MptcpConnection;
use mptcp_netsim::SimTime;
use mptcp_packet::{BufPool, TcpSegment};
use mptcp_telemetry::CounterId;

use crate::clock::WallClock;
use crate::egress::Egress;
use crate::paths::{PathSet, Wake};
use crate::profile::{lap_into, LoopProfiler, Phase};
use crate::proto::ConnApp;
use crate::stats::RuntimeStats;
use crate::LoopConfig;

/// Per-connection egress queue capacity, in datagrams. When full, the
/// connection is not polled until the kernel drains the queue.
pub(crate) const EGRESS_CAP: usize = 256;

/// Datagrams drained per path per iteration before other work runs.
const RECV_BATCH: usize = 64;

/// What both runtimes' waits sleep through before they look at a socket:
/// the loop's interrupt moderation, there for steadiness rather than speed.
/// A peer that answers within microseconds wakes a thread whose processor
/// has only just halted, and what that costs depends on where the scheduler
/// put the two threads and on the rest of the machine; held off, the wait
/// is ended by a timer and what the peer sent meanwhile is there when the
/// loop looks. The price is this much latency, and no more, on every round
/// trip that finds the loop idle: the thread that drives a loop runs with
/// 1 ns of timer slack, not the kernel's default 50 µs (DESIGN.md §10).
pub(crate) const WAKE_HOLD: Duration = Duration::from_micros(250);

/// Clock, sockets, buffers and instrumentation of one event loop, plus the
/// totals of the iteration in progress.
pub(crate) struct EventLoop {
    pub(crate) clock: WallClock,
    pub(crate) paths: PathSet,
    /// Datagram buffers, shared with `paths`' ingress side.
    pool: BufPool,
    pub(crate) stats: RuntimeStats,
    cfg: LoopConfig,
    /// This iteration's datagrams; the owner feeds them to its state
    /// machine and clears the batch.
    pub(crate) ingress: Vec<TcpSegment>,
    /// The deadline the previous iteration promised to honor; compared
    /// against the next wake-up to measure tick skew.
    promised: Option<SimTime>,
    pub(crate) profiler: LoopProfiler,
    /// Drive / poll-encode / flush time: they interleave per connection,
    /// so they accumulate and are recorded once per iteration.
    acc: [u64; 3],
    /// Datagrams received plus segments polled, and datagrams sent.
    moved: usize,
    tx: usize,
}

/// A connection is done once the data-level close completed both ways and
/// all it emitted has reached the kernel. Waiting for every subflow socket
/// to finish dying would hold completion hostage to TIME_WAIT and to a
/// blackholed path's FIN retransmissions.
pub(crate) fn close_done(conn: &MptcpConnection, egress: &Egress) -> bool {
    egress.is_empty() && (conn.fully_closed() || (conn.send_closed() && conn.at_eof()))
}

impl EventLoop {
    /// Bind one UDP socket per address and start the clock.
    pub(crate) fn bind(addrs: &[SocketAddr], cfg: LoopConfig) -> io::Result<EventLoop> {
        assert!(!addrs.is_empty(), "at least one path");
        let paths = PathSet::bind(addrs)?;
        Ok(EventLoop {
            clock: WallClock::new(),
            pool: paths.pool(),
            paths,
            stats: RuntimeStats::new(),
            cfg,
            ingress: Vec::new(),
            promised: None,
            profiler: LoopProfiler::new(cfg.profile),
            acc: [0; 3],
            moved: 0,
            tx: 0,
        })
    }

    /// Start an iteration: count it and record how late the wake-up was
    /// against the deadline the last iteration promised.
    pub(crate) fn begin(&mut self) -> SimTime {
        (self.acc, self.moved, self.tx) = ([0; 3], 0, 0);
        for i in 0..self.paths.len() {
            self.paths.watch_writable(i, false);
        }
        let now = self.clock.now();
        self.stats.rec.count(CounterId::RtLoopIterations);
        if let Some(d) = self.promised.take() {
            if d > SimTime::ZERO && now > d {
                self.stats.record_late_tick(now.0 - d.0);
            }
        }
        now
    }

    /// Drain every path into `ingress`. Returns the profiler lap that
    /// times what the owner does with the batch.
    pub(crate) fn drain(&mut self) -> Option<Instant> {
        let lap = self.profiler.start();
        let mut rx = 0;
        for i in 0..self.paths.len() {
            rx += self
                .paths
                .drain(i, RECV_BATCH, &mut self.stats, &mut self.ingress);
        }
        if rx > 0 {
            self.stats.rec.count(CounterId::RtRecvBatches);
        }
        self.moved += rx;
        self.profiler.lap(lap, Phase::RecvDrain)
    }

    /// Poll `conn` into `egress` until either is exhausted. Returns the
    /// segments polled.
    fn pump(&mut self, conn: &mut MptcpConnection, egress: &mut Egress, now: SimTime) -> usize {
        let mut polled = 0;
        loop {
            if !egress.has_room() {
                // Queue still full after the last flush: the kernel is the
                // bottleneck, so leave the connection unpolled (that is the
                // backpressure) and try again next iteration.
                self.stats.rec.count(CounterId::RtEgressBackpressure);
                break;
            }
            let Some(seg) = conn.poll(now) else { break };
            polled += 1;
            if let Some(route) = self.paths.route(seg.tuple) {
                // Encode once, into a pooled buffer; the frame stays
                // encoded across `WouldBlock` retries and the buffer
                // recycles once the kernel takes it.
                let mut frame = self.pool.checkout();
                crate::wire::encode_datagram_into(&seg, &mut frame);
                egress.push(route.path, route.peer, frame);
            }
            // Segments without a route can only belong to a subflow whose
            // path was never registered; dropping them is indistinguishable
            // from loss and recovery handles it.
        }
        polled
    }

    /// One connection's share of an iteration: let the app make progress,
    /// pump the connection's output into `egress`, flush to the kernel.
    pub(crate) fn service(
        &mut self,
        conn: &mut MptcpConnection,
        app: &mut dyn ConnApp,
        egress: &mut Egress,
        now: SimTime,
    ) {
        let mut t = self.profiler.start();
        app.drive(conn, now);
        lap_into(&mut t, &mut self.acc[0]);
        self.moved += self.pump(conn, egress, now);
        lap_into(&mut t, &mut self.acc[1]);
        self.tx += egress.flush(&mut self.paths, &mut self.stats);
        self.watch_backlog(egress);
        lap_into(&mut t, &mut self.acc[2]);
    }

    /// A flush that left datagrams behind stopped at a path whose kernel
    /// buffer is full: the wait that follows this iteration ends when that
    /// path takes datagrams again, not at the next timer.
    fn watch_backlog(&mut self, egress: &Egress) {
        if let Some(path) = egress.blocked_on() {
            self.paths.watch_writable(path, true);
        }
    }

    /// Finish an iteration; the next wake-up is due by `promised`. Returns
    /// whether any datagram or segment moved.
    pub(crate) fn end(&mut self, promised: Option<SimTime>) -> bool {
        if self.tx > 0 {
            self.stats.rec.count(CounterId::RtSendBatches);
        }
        self.profiler.record(Phase::Drive, self.acc[0]);
        self.profiler.record(Phase::PollEncode, self.acc[1]);
        self.profiler.record(Phase::Flush, self.acc[2]);
        self.stats.sync_pool(self.pool.stats());
        self.promised = promised;
        self.moved + self.tx > 0
    }

    /// Block until a path socket is readable, a path with queued egress is
    /// writable, one of the owner's `extra` descriptors is ready, or the
    /// promised deadline is due — never longer than `max_wait`, so the
    /// caller's own loop gets its turn, and never shorter than `hold`
    /// unless the deadline is. A deadline already past returns without a
    /// system call.
    pub(crate) fn idle_wait(
        &mut self,
        extra: impl Iterator<Item = (RawFd, i16)>,
        hold: Duration,
    ) -> Wake {
        let now = self.clock.now();
        let left = self
            .promised
            .map(|d| Duration::from_nanos(d.0.saturating_sub(now.0)));
        if left == Some(Duration::ZERO) {
            return Wake::Deadline;
        }
        let t = self.profiler.start();
        let wake = self.paths.wait(extra, hold, left, self.cfg.max_wait);
        self.profiler.lap(t, Phase::Idle);
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp::{MptcpConfig, MptcpListener};
    use mptcp_netsim::SimRng;

    fn loopback() -> [SocketAddr; 1] {
        ["127.0.0.1:0".parse().unwrap()]
    }

    /// A full egress queue stops the poll loop, is counted, and costs
    /// nothing but time: polling resumes after the flush and every byte
    /// still arrives.
    #[test]
    fn pump_stops_at_a_full_queue_and_resumes_after_flush() {
        const CAP: usize = 2;
        const LEN: usize = 64 * 1024;
        let mut client = EventLoop::bind(&loopback(), LoopConfig::default()).unwrap();
        let mut server = EventLoop::bind(&loopback(), LoopConfig::default()).unwrap();
        let server_addr = server.paths.local_addr(0).unwrap();
        let tuple = crate::virtual_tuple(
            0,
            client.paths.local_addr(0).unwrap().port(),
            server_addr.port(),
        );
        client.paths.learn(tuple, 0, server_addr);

        let cfg = MptcpConfig::default();
        let mut conn =
            MptcpConnection::client(cfg.clone(), tuple, client.clock.now(), SimRng::new(1));
        let mut listener = MptcpListener::new(cfg, 2);
        let mut narrow = Egress::new(CAP);
        let mut wide = Egress::new(EGRESS_CAP);

        let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
        let mut written = 0;
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while got.len() < LEN {
            assert!(
                Instant::now() < deadline,
                "stalled at {} of {LEN}",
                got.len()
            );
            let now = client.begin();
            client.drain();
            conn.handle_segments(now, &client.ingress);
            client.ingress.clear();
            written += conn.write(&data[written..]).accepted();
            let polled = client.pump(&mut conn, &mut narrow, now);
            assert!(polled <= CAP && narrow.len() <= CAP, "cap respected");
            narrow.flush(&mut client.paths, &mut client.stats);
            client.end(conn.poll_at(now));

            let now = server.begin();
            server.drain();
            let mut touched = Vec::new();
            listener.handle_segments(now, &server.ingress, &mut touched);
            server.ingress.clear();
            for idx in 0..listener.len() {
                let peer = listener.conn_mut(idx);
                while let Some(b) = peer.read(usize::MAX).into_data() {
                    got.extend_from_slice(&b);
                }
                server.pump(peer, &mut wide, now);
            }
            if wide.flush(&mut server.paths, &mut server.stats) == 0 {
                unheld(&mut server);
            }
        }
        assert!(got == data, "every byte arrived, in order");
        let backpressure = |l: &EventLoop| l.stats.rec.counter(CounterId::RtEgressBackpressure);
        assert!(backpressure(&client) > 0, "full queue counted");
        assert_eq!(backpressure(&server), 0, "roomy queue never counted");
    }

    /// A loop that would block for ten seconds if nothing woke it, and
    /// times its waits.
    fn patient() -> EventLoop {
        let cfg = LoopConfig {
            max_wait: Duration::from_secs(10),
            profile: true,
        };
        EventLoop::bind(&loopback(), cfg).unwrap()
    }

    /// A wait with no hold: what ends it is all these tests ask.
    fn unheld(l: &mut EventLoop) -> Wake {
        l.idle_wait(std::iter::empty(), Duration::ZERO)
    }

    fn waits(l: &EventLoop) -> u64 {
        l.profiler.hist(Phase::Idle).unwrap().samples()
    }

    /// What a flush that met `Busy` leaves queued ends the wait as soon as
    /// the path takes datagrams again — not at the next timer, not at the
    /// cap — and the flush after it goes through.
    #[test]
    fn a_backlogged_queue_is_flushed_on_the_writable_wakeup() {
        let mut client = patient();
        let sink = patient();
        let peer = sink.paths.local_addr(0).unwrap();
        let mut egress = Egress::new(EGRESS_CAP);
        let mut frame = client.pool.checkout();
        frame.extend_from_slice(b"left behind");
        egress.push(0, peer, frame);

        client.begin();
        client.watch_backlog(&egress);
        client.end(None);
        assert_eq!(unheld(&mut client), Wake::Writable);
        assert_eq!(egress.flush(&mut client.paths, &mut client.stats), 1);

        // The interest lasts one iteration: with the queue empty, the same
        // loop waits for its deadline again.
        let now = client.begin();
        client.watch_backlog(&egress);
        client.end(Some(SimTime(now.0 + 5_000_000)));
        assert_eq!(unheld(&mut client), Wake::Deadline);
    }

    /// A hold is slept through even with a datagram already queued — what
    /// else the peer sends gets that long to arrive — and is part of the
    /// timeout, not added to it: a nearer deadline cuts it short.
    #[test]
    fn a_hold_comes_first_and_counts_against_the_deadline() {
        const HOLD: Duration = Duration::from_millis(2);
        let mut l = patient();
        let sender = std::net::UdpSocket::bind(loopback()[0]).unwrap();
        sender
            .send_to(b"x", l.paths.local_addr(0).unwrap())
            .unwrap();
        let before = l.begin();
        l.end(None);
        assert_eq!(l.idle_wait(std::iter::empty(), HOLD), Wake::Readable);
        let waited = Duration::from_nanos(l.clock.now().0 - before.0);
        assert!(waited >= HOLD, "{waited:?}");

        let now = l.begin();
        l.drain();
        l.end(Some(SimTime(now.0 + 1_000_000)));
        let forever = Duration::from_secs(3600);
        assert_eq!(l.idle_wait(std::iter::empty(), forever), Wake::Deadline);
    }

    #[test]
    fn idle_wait_says_what_ended_it() {
        // Readiness is level-triggered: a datagram that arrived before the
        // call ends it at once, whatever the cap.
        let mut l = patient();
        let sender = std::net::UdpSocket::bind(loopback()[0]).unwrap();
        sender
            .send_to(b"x", l.paths.local_addr(0).unwrap())
            .unwrap();
        l.begin();
        l.end(None);
        assert_eq!(unheld(&mut l), Wake::Readable);
        l.begin();
        l.drain();
        assert_eq!(l.stats.rec.counter(CounterId::RtDecodeErrors), 1);

        // Nothing to read and a timer 5 ms out: the timer ends it.
        let now = l.begin();
        l.end(Some(SimTime(now.0 + 5_000_000)));
        assert_eq!(unheld(&mut l), Wake::Deadline);
        assert!(l.clock.now().0 >= now.0 + 5_000_000, "not before it is due");
        assert_eq!(waits(&l), 2);

        // A deadline already due (or the core's "poll me now" sentinel)
        // returns without blocking: no wait is timed.
        for due in [now, SimTime::ZERO] {
            l.begin();
            l.end(Some(due));
            assert_eq!(unheld(&mut l), Wake::Deadline);
        }
        assert_eq!(waits(&l), 2);

        // No timer at all: the cap hands control back.
        let cfg = LoopConfig {
            max_wait: Duration::from_millis(5),
            profile: false,
        };
        let mut short = EventLoop::bind(&loopback(), cfg).unwrap();
        short.begin();
        short.end(None);
        assert_eq!(unheld(&mut short), Wake::Cap);
    }
}
