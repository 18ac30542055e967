//! Real UDP sockets and the virtual-tuple route table.
//!
//! Each MPTCP path is one non-blocking [`UdpSocket`] — one real four-tuple
//! per subflow, mirroring how a deployed MPTCP uses distinct interface
//! addresses. The route table maps each *outgoing* virtual four-tuple (the
//! identity the state machines stamp on segments they emit) to the path
//! index and real peer address that reach the other end.
//!
//! Routes are learned from ingress: every datagram that decodes cleanly on
//! path `k` from real address `A` carrying virtual tuple `T` proves that
//! replies for `T.reversed()` belong on `(k, A)`. The client seeds routes
//! when it opens subflows (it chooses the virtual tuples); the server
//! learns everything, so it needs no prior knowledge of client addresses
//! and transparently follows a peer whose real address changes.
//!
//! The set also owns the loop's one blocking call, `PathSet::wait`:
//! `ppoll(2)`, declared here rather than taken from a crate, as is the
//! `prctl(2)` that makes its timers exact. Both are Linux's, so that is
//! where this crate builds.

use std::collections::HashMap;
use std::ffi::{c_int, c_long, c_ulong, c_void};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

use mptcp_packet::{BufPool, FourTuple, TcpSegment};
use mptcp_telemetry::CounterId;

use crate::stats::RuntimeStats;
use crate::wire;

/// Where segments for one outgoing virtual tuple go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Index into the path set.
    pub path: usize,
    /// Real UDP address of the peer on that path.
    pub peer: SocketAddr,
}

struct PathSock {
    sock: UdpSocket,
    /// Fault-injection hook: a blocked path silently drops egress and
    /// ignores (but still drains) ingress, emulating a blackholed link
    /// without touching kernel state.
    blocked: bool,
}

/// Outcome of one datagram send attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Handed to the kernel.
    Sent,
    /// Dropped because the path is administratively blocked.
    Dropped,
    /// Kernel send buffer full; retry later.
    Busy,
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

pub(crate) const POLLIN: i16 = 0x1;
pub(crate) const POLLOUT: i16 = 0x4;

/// `struct timespec` as `ppoll` takes it on Linux: two `long`s.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const PR_SET_TIMERSLACK: c_int = 29; // prctl(2): the calling thread's timer slack

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Why [`PathSet::wait`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wake {
    /// A socket has something to read: a datagram, an admin request or
    /// connection attempt, or an error the next read will collect.
    Readable,
    /// A path with queued egress accepts datagrams again.
    Writable,
    /// The protocol's next timer is due.
    Deadline,
    /// The cap ran out or a signal arrived: the caller's loop gets its turn.
    Cap,
}

/// The set of real sockets plus the virtual-tuple route table.
pub struct PathSet {
    paths: Vec<PathSock>,
    /// What [`wait`](Self::wait) hands the kernel: one entry per path,
    /// built at bind, then the caller's own for the length of one call.
    /// Kept, so a wait allocates nothing.
    fds: Vec<PollFd>,
    routes: HashMap<FourTuple, Route>,
    buf: Vec<u8>,
    /// Recycled datagram buffers, shared with the egress side via
    /// [`PathSet::pool`]. Once warm, neither direction allocates
    /// per segment.
    pool: BufPool,
}

impl PathSet {
    /// Bind one non-blocking UDP socket per address.
    pub fn bind(addrs: &[SocketAddr]) -> io::Result<PathSet> {
        let mut paths = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let sock = UdpSocket::bind(addr)?;
            sock.set_nonblocking(true)?;
            paths.push(PathSock {
                sock,
                blocked: false,
            });
        }
        let fds = paths.iter().map(|p| pollfd(p.sock.as_raw_fd(), POLLIN));
        Ok(PathSet {
            fds: fds.collect(),
            paths,
            routes: HashMap::new(),
            buf: vec![0u8; 65536],
            pool: BufPool::new(2048, 64),
        })
    }

    /// A handle to the datagram buffer pool (cheap clone; shares storage
    /// and statistics with this path set).
    pub fn pool(&self) -> BufPool {
        self.pool.clone()
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when the set has no paths.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Real local address of path `i` (useful after binding port 0).
    pub fn local_addr(&self, i: usize) -> io::Result<SocketAddr> {
        self.paths[i].sock.local_addr()
    }

    /// Administratively block or unblock a path (fault injection).
    pub fn set_blocked(&mut self, i: usize, blocked: bool) {
        self.paths[i].blocked = blocked;
    }

    /// Whether path `i` is administratively blocked.
    pub fn is_blocked(&self, i: usize) -> bool {
        self.paths[i].blocked
    }

    /// Number of learned routes that egress via path `i`.
    pub fn routes_on(&self, i: usize) -> usize {
        self.routes.values().filter(|r| r.path == i).count()
    }

    /// Install or update a route for an outgoing virtual tuple.
    pub fn learn(&mut self, out_tuple: FourTuple, path: usize, peer: SocketAddr) {
        self.routes.insert(out_tuple, Route { path, peer });
    }

    /// Route for an outgoing virtual tuple, if known.
    pub fn route(&self, out_tuple: FourTuple) -> Option<Route> {
        self.routes.get(&out_tuple).copied()
    }

    /// Drain up to `max` datagrams from path `i` into `out`.
    ///
    /// Each datagram is verified ([`wire::decode_datagram_view`]) before it is
    /// surfaced; failures bump `RtDecodeErrors` and vanish. Every clean
    /// segment also refreshes the reverse route. Blocked paths still drain
    /// the kernel buffer (so queues do not rot) but discard everything.
    pub fn drain(
        &mut self,
        i: usize,
        max: usize,
        stats: &mut RuntimeStats,
        out: &mut Vec<TcpSegment>,
    ) -> usize {
        let mut received = 0;
        for _ in 0..max {
            let (len, from) = match self.paths[i].sock.recv_from(&mut self.buf) {
                Ok(r) => r,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            };
            if self.paths[i].blocked {
                continue;
            }
            // Copy the datagram once into a pooled buffer and decode with
            // the payload *viewed* out of it: the pooled storage stays
            // pinned until the last payload view drops, then recycles.
            let mut pb = self.pool.checkout();
            pb.extend_from_slice(&self.buf[..len]);
            let datagram = pb.freeze();
            match wire::decode_datagram_view(&datagram) {
                Ok(seg) => {
                    self.routes.insert(
                        seg.tuple.reversed(),
                        Route {
                            path: i,
                            peer: from,
                        },
                    );
                    received += 1;
                    stats.rec.count(CounterId::RtDatagramsRx);
                    out.push(seg);
                }
                Err(_) => stats.rec.count(CounterId::RtDecodeErrors),
            }
        }
        received
    }

    /// Attempt to send one already-framed datagram on path `i`.
    pub fn send(&mut self, i: usize, peer: SocketAddr, datagram: &[u8]) -> SendOutcome {
        if self.paths[i].blocked {
            return SendOutcome::Dropped;
        }
        match self.paths[i].sock.send_to(datagram, peer) {
            Ok(_) => SendOutcome::Sent,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => SendOutcome::Busy,
            // Transient errors (e.g. ECONNREFUSED surfaced from ICMP on
            // some platforms) are treated like loss: the retransmit
            // machinery recovers or the failure detector takes the path.
            Err(_) => SendOutcome::Dropped,
        }
    }

    /// Whether [`wait`](Self::wait) also ends when path `i` is writable:
    /// on while a flush that met [`SendOutcome::Busy`] there has left
    /// datagrams queued.
    pub(crate) fn watch_writable(&mut self, i: usize, on: bool) {
        let events = &mut self.fds[i].events;
        *events = if on { *events | POLLOUT } else { POLLIN };
    }

    /// Sleep through `hold` (the loop's interrupt moderation), then block
    /// until a path socket is readable, a watched path is writable, an
    /// `extra` descriptor is ready for the events beside it, or the shorter
    /// of `deadline` (time left to the protocol's next timer) and `cap` runs
    /// out; the hold is part of that time, not added to it. Level-triggered:
    /// what arrived before the call, or during the hold, ends it as soon as
    /// the hold is over. Leaves the calling thread's timer slack at 1 ns.
    pub(crate) fn wait(
        &mut self,
        extra: impl Iterator<Item = (RawFd, i16)>,
        hold: Duration,
        deadline: Option<Duration>,
        cap: Duration,
    ) -> Wake {
        let (timeout, expiry) = match deadline {
            Some(d) if d <= cap => (d, Wake::Deadline),
            _ => (cap, Wake::Cap),
        };
        let hold = hold.min(timeout);
        self.fds.truncate(self.paths.len());
        self.fds
            .extend(extra.map(|(fd, events)| pollfd(fd, events)));
        // The hold is the same call over no descriptor at all.
        let stages = [(0, hold), (self.fds.len(), timeout - hold)];
        let mut ready = 0;
        // SAFETY: `prctl` with PR_SET_TIMERSLACK takes one unsigned long
        // and touches no memory of ours. For `ppoll`, pointer and length
        // are those of `self.fds` (or a length of zero, and then no element
        // is touched), whose elements have `struct pollfd`'s layout and
        // which this exclusive borrow keeps alive and unaliased for the
        // call; the kernel writes only their `revents`. `ts` is a valid
        // `timespec`, only read; a null mask leaves signals as they are. A
        // descriptor closed since it was listed is not an error: it reads
        // back POLLNVAL.
        unsafe {
            // The default 50 us would stretch every hold. Slack is the
            // thread's, so it is set here, where the loop's thread blocks;
            // were the call to fail, the default would cost only latency.
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
            for (nfds, span) in stages.into_iter().skip(usize::from(hold.is_zero())) {
                // Nanoseconds, where poll(2)'s milliseconds would spin
                // through a sub-millisecond deadline or overshoot it.
                let ts = Timespec {
                    tv_sec: c_long::try_from(span.as_secs()).unwrap_or(c_long::MAX),
                    tv_nsec: span.subsec_nanos() as c_long,
                };
                ready = ppoll(
                    self.fds.as_mut_ptr(),
                    nfds as c_ulong,
                    &ts,
                    std::ptr::null(),
                );
                if ready < 0 {
                    break;
                }
            }
        }
        match ready {
            0 => expiry,
            // EINTR, or an error (ENOMEM) with no better answer.
            n if n < 0 => Wake::Cap,
            // Errors and hang-ups count: the read they provoke collects them.
            _ if self.fds.iter().any(|f| f.revents & !POLLOUT != 0) => Wake::Readable,
            _ => Wake::Writable,
        }
    }
}

fn pollfd(fd: RawFd, events: i16) -> PollFd {
    PollFd {
        fd,
        events,
        revents: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mptcp_packet::{Endpoint, SeqNum, TcpFlags};

    /// A one-byte data segment on `tuple`, framed as a datagram.
    fn datagram(tuple: FourTuple) -> Vec<u8> {
        let mut s = TcpSegment::new(tuple, SeqNum(1), SeqNum(0), TcpFlags::ACK);
        s.payload = Bytes::from_static(b"x");
        let mut out = Vec::new();
        wire::encode_datagram_into(&s, &mut out);
        out
    }

    fn any_loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn routes_learned_from_ingress() {
        let mut a = PathSet::bind(&[any_loopback()]).unwrap();
        let mut b = PathSet::bind(&[any_loopback()]).unwrap();
        let tuple = FourTuple {
            src: Endpoint::new(0x0a000102, 7),
            dst: Endpoint::new(0x0a000101, 8),
        };
        let dgram = datagram(tuple);
        let b_addr = b.local_addr(0).unwrap();
        assert_eq!(a.send(0, b_addr, &dgram), SendOutcome::Sent);

        let mut stats = RuntimeStats::new();
        let mut got = Vec::new();
        // Non-blocking loopback delivery is fast but not instant.
        for _ in 0..200 {
            if b.drain(0, 16, &mut stats, &mut got) > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got.len(), 1);
        let route = b.route(tuple.reversed()).expect("reverse route learned");
        assert_eq!(route.path, 0);
        assert_eq!(route.peer, a.local_addr(0).unwrap());
    }

    #[test]
    fn blocked_path_drops_both_directions() {
        let mut a = PathSet::bind(&[any_loopback()]).unwrap();
        let mut b = PathSet::bind(&[any_loopback()]).unwrap();
        let tuple = FourTuple {
            src: Endpoint::new(1, 1),
            dst: Endpoint::new(2, 2),
        };
        let dgram = datagram(tuple);
        let b_addr = b.local_addr(0).unwrap();

        a.set_blocked(0, true);
        assert_eq!(a.send(0, b_addr, &dgram), SendOutcome::Dropped);

        a.set_blocked(0, false);
        assert_eq!(a.send(0, b_addr, &dgram), SendOutcome::Sent);
        b.set_blocked(0, true);
        let mut stats = RuntimeStats::new();
        let mut got = Vec::new();
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.drain(0, 16, &mut stats, &mut got);
        assert!(got.is_empty(), "blocked ingress is discarded");
    }

    /// The slack is the thread's own, so it is read back on the thread
    /// that waited. `/proc/thread-self` has no `timerslack_ns`, but the
    /// thread's id names a directory that has one.
    #[test]
    fn wait_leaves_the_thread_with_exact_timers() {
        let slack = std::thread::spawn(|| {
            let mut set = PathSet::bind(&[any_loopback()]).unwrap();
            let deadline = Some(Duration::from_millis(1));
            set.wait(std::iter::empty(), Duration::ZERO, deadline, Duration::MAX);
            let me = std::fs::read_link("/proc/thread-self").unwrap();
            let tid = me.file_name().unwrap().to_str().unwrap().to_owned();
            std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns")).unwrap()
        })
        .join()
        .unwrap();
        assert_eq!(slack.trim(), "1");
    }

    #[test]
    fn corrupt_datagrams_counted_not_surfaced() {
        let mut a = PathSet::bind(&[any_loopback()]).unwrap();
        let mut b = PathSet::bind(&[any_loopback()]).unwrap();
        let tuple = FourTuple {
            src: Endpoint::new(1, 1),
            dst: Endpoint::new(2, 2),
        };
        let mut dgram = datagram(tuple);
        let last = dgram.len() - 1;
        dgram[last] ^= 0xff;
        a.send(0, b.local_addr(0).unwrap(), &dgram);
        let mut stats = RuntimeStats::new();
        let mut got = Vec::new();
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.drain(0, 16, &mut stats, &mut got);
        assert!(got.is_empty());
        assert_eq!(
            stats.rec.counter(CounterId::RtDecodeErrors),
            1,
            "corruption is visible in telemetry"
        );
    }
}
