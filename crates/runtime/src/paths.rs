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
//! Datagrams cross the kernel in batches, and no byte of any datagram
//! changes for it. A send hands the kernel a *run* — frames for one peer,
//! all of one size but the last — in one `sendmsg(2)`, with a `UDP_SEGMENT`
//! control message that has the kernel cut the run back into those
//! datagrams (UDP GSO, Linux 4.18). Every path socket asks for `UDP_GRO`
//! (Linux 5.0), so one `recvmsg(2)` may return many datagrams of one size
//! back to back, with the size in a control message; `drain` splits the
//! read and decodes and verifies each datagram on its own. A path whose
//! kernel refuses to segment — an older kernel, or a frame that with its
//! headers exceeds the route's MTU, as the runtime's ~1.53 KB frames do on
//! 1500-byte Ethernet — sends runs of one from then on; a kernel without
//! `UDP_GRO` returns one datagram per read and sends no size.
//!
//! The set also owns the loop's one blocking call, `PathSet::wait`:
//! `ppoll(2)`. It, the `prctl(2)` that makes its timers exact, and the
//! socket calls above are declared here rather than taken from a crate.
//! All are Linux's, so that is where this crate builds.

use std::collections::HashMap;
use std::ffi::{c_int, c_long, c_ulong, c_void};
use std::io;
use std::mem::size_of;
use std::net::{SocketAddr, SocketAddrV6, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::ptr::null_mut;
use std::time::Duration;

use mptcp_packet::{BufPool, FourTuple, TcpSegment};
use mptcp_telemetry::CounterId;

use crate::stats::RuntimeStats;
use crate::wire;

/// Most datagrams one send carries: the kernel's `UDP_MAX_SEGMENTS`.
pub(crate) const MAX_RUN: usize = 64;

/// Most bytes one send carries: the largest UDP payload of an IPv4
/// packet (65 535 less 20 bytes of IP header and 8 of UDP header).
pub(crate) const MAX_RUN_BYTES: usize = 65_507;

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
    /// Whether runs of more than one datagram go out segmented by the
    /// kernel; off for good once the kernel refused it on this path.
    gso: bool,
}

/// Outcome of one send: a run of datagrams, all of which the kernel takes
/// or none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Handed to the kernel.
    Sent,
    /// Dropped because the path is administratively blocked, or lost to
    /// a hard error.
    Dropped,
    /// Kernel send buffer full; retry later.
    Busy,
    /// The kernel refused to segment the run and sent nothing: the path
    /// sends runs of one from now on.
    Unsegmented,
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

/// `struct iovec`.
#[derive(Clone, Copy)]
#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

/// `struct msghdr` on Linux.
#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: c_int,
}

/// A `struct cmsghdr` and its data. `len` counts both but not the padding
/// that rounds the whole up to a multiple of `size_t`. A path socket asks
/// for one control message, `UDP_GRO`'s, so one of these holds a read's.
#[repr(C)]
struct Cmsg<T> {
    len: usize,
    level: c_int,
    ty: c_int,
    data: T,
}

/// `struct sockaddr_in` or `struct sockaddr_in6`, as `family` says. Both
/// start with the family and the port (big-endian); the IPv6 one sets the
/// size. After the port, IPv4 has its address and eight zero bytes, IPv6
/// its flow label, address and scope id.
#[repr(C)]
struct SockAddr {
    family: u16,
    port: [u8; 2],
    rest: [u8; 24],
}

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOL_UDP: c_int = 17;
const UDP_SEGMENT: c_int = 103;
const UDP_GRO: c_int = 104;
const EIO: i32 = 5;
const EINVAL: i32 = 22;

const PR_SET_TIMERSLACK: c_int = 29; // prctl(2): the calling thread's timer slack

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
    fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
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
    /// Where reads land: room for the largest UDP payload, which is what
    /// one read of datagrams coalesced by `UDP_GRO` can be.
    buf: Vec<u8>,
    /// Recycled datagram buffers, shared with the egress side via
    /// [`PathSet::pool`]. Once warm, neither direction allocates
    /// per segment.
    pool: BufPool,
}

impl PathSet {
    /// Bind one non-blocking UDP socket per address, each asking the
    /// kernel for coalesced reads (`UDP_GRO`).
    pub fn bind(addrs: &[SocketAddr]) -> io::Result<PathSet> {
        let mut paths = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let sock = UdpSocket::bind(addr)?;
            sock.set_nonblocking(true)?;
            let on: c_int = 1;
            // SAFETY: the value is a live `int` the kernel only reads, and
            // its size is passed with it. A kernel without `UDP_GRO`
            // refuses and reads stay one datagram each, so the result is
            // not needed.
            unsafe {
                setsockopt(
                    sock.as_raw_fd(),
                    SOL_UDP,
                    UDP_GRO,
                    (&on as *const c_int).cast(),
                    size_of::<c_int>() as u32,
                );
            }
            paths.push(PathSock {
                sock,
                blocked: false,
                gso: true,
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

    /// Drain up to `max` datagrams from path `i` into `out`; a read that
    /// brings more than are left is taken whole.
    ///
    /// Each datagram — a read coalesced by `UDP_GRO` holds many — is
    /// copied into a pooled buffer and verified
    /// ([`wire::decode_datagram_view`]) on its own before it is surfaced;
    /// failures bump `RtDecodeErrors` and vanish. Every clean segment also
    /// refreshes the reverse route. Blocked paths still drain the kernel
    /// buffer (so queues do not rot) but discard everything.
    pub fn drain(
        &mut self,
        i: usize,
        max: usize,
        stats: &mut RuntimeStats,
        out: &mut Vec<TcpSegment>,
    ) -> usize {
        let (mut read, mut received) = (0, 0);
        while read < max {
            let Some((len, from, size)) = self.recv(i, stats) else {
                break;
            };
            // A read without a size is one datagram, possibly empty.
            let size = size.unwrap_or(len).max(1);
            for start in (0..len.max(1)).step_by(size) {
                read += 1;
                if self.paths[i].blocked {
                    continue;
                }
                // Copy the datagram once into a pooled buffer and decode
                // with the payload *viewed* out of it: the pooled storage
                // stays pinned until the last payload view drops, then
                // recycles.
                let mut pb = self.pool.checkout();
                pb.extend_from_slice(&self.buf[start..len.min(start + size)]);
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
        }
        received
    }

    /// One `recvmsg(2)` on path `i` into the read buffer: how many bytes,
    /// from whom, and the size of each datagram in them if `UDP_GRO`
    /// coalesced them. `None` once the socket is empty, or on an error.
    fn recv(
        &mut self,
        i: usize,
        stats: &mut RuntimeStats,
    ) -> Option<(usize, SocketAddr, Option<usize>)> {
        let mut from = SockAddr {
            family: 0,
            port: [0; 2],
            rest: [0; 24],
        };
        let mut control = Cmsg {
            len: 0,
            level: 0,
            ty: 0,
            data: 0 as c_int,
        };
        let mut iov = IoVec {
            base: self.buf.as_mut_ptr().cast(),
            len: self.buf.len(),
        };
        let mut msg = MsgHdr {
            name: (&mut from as *mut SockAddr).cast(),
            namelen: size_of::<SockAddr>() as u32,
            iov: &mut iov,
            iovlen: 1,
            control: (&mut control as *mut Cmsg<c_int>).cast(),
            controllen: size_of::<Cmsg<c_int>>(),
            flags: 0,
        };
        stats.rec.count(CounterId::RtRecvCalls);
        // SAFETY: `msg` and everything it points at are locals or `self.buf`,
        // alive and unaliased for the call; each length is that of the
        // storage beside it, so the kernel writes the datagrams, the
        // sender's address and the control messages within those bounds.
        let n = unsafe { recvmsg(self.paths[i].sock.as_raw_fd(), &mut msg, 0) };
        let len = usize::try_from(n).ok()?;
        let gro = msg.controllen > 0 && control.level == SOL_UDP && control.ty == UDP_GRO;
        let size = usize::try_from(control.data).ok().filter(|&s| gro && s > 0);
        Some((len, from.get()?, size))
    }

    /// How many datagrams one send on path `i` may carry: [`MAX_RUN`], or
    /// one once its kernel has refused to segment a run.
    pub(crate) fn run_limit(&self, i: usize) -> usize {
        if self.paths[i].gso {
            MAX_RUN
        } else {
            1
        }
    }

    /// Send a run of framed datagrams to `peer` on path `i` in one
    /// `sendmsg(2)`: an `iovec` per frame and, if there is more than one,
    /// a `UDP_SEGMENT` control message that has the kernel cut the run
    /// back into datagrams of the first frame's size. Every frame but the
    /// last must have that size, and the run must fit
    /// [`run_limit`](Self::run_limit) and [`MAX_RUN_BYTES`]. One datagram
    /// is a run of one: the same call without the control message.
    pub(crate) fn send<'a>(
        &mut self,
        i: usize,
        peer: SocketAddr,
        frames: impl IntoIterator<Item = &'a [u8]>,
        stats: &mut RuntimeStats,
    ) -> SendOutcome {
        let path = &mut self.paths[i];
        if path.blocked {
            return SendOutcome::Dropped;
        }
        let mut iov = [IoVec {
            base: null_mut(),
            len: 0,
        }; MAX_RUN];
        let mut n = 0usize;
        for (v, frame) in iov.iter_mut().zip(frames) {
            v.base = frame.as_ptr().cast_mut().cast();
            v.len = frame.len();
            n += 1;
        }
        let (size, last) = (iov[0].len, n.saturating_sub(1));
        debug_assert!(
            (n == 1 || (n > 1 && path.gso))
                && iov[..last].iter().all(|v| v.len == size)
                && iov[last].len <= size
                && iov[..n].iter().map(|v| v.len).sum::<usize>() <= MAX_RUN_BYTES.max(size),
            "not a run: {n} frames"
        );
        let segmented = n > 1;
        let mut segment = Cmsg {
            len: size_of::<Cmsg<()>>() + size_of::<u16>(),
            level: SOL_UDP,
            ty: UDP_SEGMENT,
            data: size as u16,
        };
        let (mut to, namelen) = SockAddr::new(peer);
        let msg = MsgHdr {
            name: (&mut to as *mut SockAddr).cast(),
            namelen,
            iov: iov.as_mut_ptr(),
            iovlen: n,
            control: if segmented {
                (&mut segment as *mut Cmsg<u16>).cast()
            } else {
                null_mut()
            },
            controllen: if segmented { size_of::<Cmsg<u16>>() } else { 0 },
            flags: 0,
        };
        stats.rec.count(CounterId::RtSendCalls);
        // SAFETY: `msg` points at locals that outlive the call — the
        // address, `n` initialised `iovec`s and the control message, each
        // with its true length — and each `iovec` at a frame borrowed for
        // the call. The kernel only reads all of it.
        if unsafe { sendmsg(path.sock.as_raw_fd(), &msg, 0) } >= 0 {
            return SendOutcome::Sent;
        }
        let err = io::Error::last_os_error();
        match err.raw_os_error() {
            _ if err.kind() == io::ErrorKind::WouldBlock => SendOutcome::Busy,
            Some(EINVAL | EIO) if segmented => {
                path.gso = false;
                SendOutcome::Unsegmented
            }
            // Transient errors (e.g. ECONNREFUSED surfaced from ICMP on
            // some platforms) are treated like loss: the retransmit
            // machinery recovers or the failure detector takes the path.
            _ => SendOutcome::Dropped,
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

impl SockAddr {
    /// `addr` as the kernel takes it, with the length of its family's
    /// structure.
    fn new(addr: SocketAddr) -> (SockAddr, u32) {
        let mut rest = [0; 24];
        let port = addr.port().to_be_bytes();
        match addr {
            SocketAddr::V4(a) => {
                rest[..4].copy_from_slice(&a.ip().octets());
                let family = AF_INET;
                (SockAddr { family, port, rest }, 16)
            }
            SocketAddr::V6(a) => {
                rest[..4].copy_from_slice(&a.flowinfo().to_ne_bytes());
                rest[4..20].copy_from_slice(&a.ip().octets());
                rest[20..].copy_from_slice(&a.scope_id().to_ne_bytes());
                let family = AF_INET6;
                (SockAddr { family, port, rest }, 28)
            }
        }
    }

    /// The address the kernel wrote, if it is an internet one.
    fn get(&self) -> Option<SocketAddr> {
        let port = u16::from_be_bytes(self.port);
        let word = |at: usize| u32::from_ne_bytes(self.rest[at..at + 4].try_into().unwrap());
        match self.family {
            AF_INET => {
                let ip: [u8; 4] = self.rest[..4].try_into().unwrap();
                Some(SocketAddr::from((ip, port)))
            }
            AF_INET6 => {
                let ip: [u8; 16] = self.rest[4..20].try_into().unwrap();
                let v6 = SocketAddrV6::new(ip.into(), port, word(0), word(20));
                Some(SocketAddr::V6(v6))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mptcp_packet::{Endpoint, SeqNum, TcpFlags};

    /// A one-byte data segment on `tuple`, framed as a datagram.
    fn datagram(tuple: FourTuple) -> Vec<u8> {
        datagram_at(tuple, 1)
    }

    /// The same, carrying sequence number `seq`: datagrams of one size
    /// that tell each other apart.
    fn datagram_at(tuple: FourTuple, seq: u32) -> Vec<u8> {
        let mut s = TcpSegment::new(tuple, SeqNum(seq), SeqNum(0), TcpFlags::ACK);
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
        let mut stats = RuntimeStats::new();
        assert_eq!(
            a.send(0, b_addr, [&dgram[..]], &mut stats),
            SendOutcome::Sent
        );

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
        let mut stats = RuntimeStats::new();

        a.set_blocked(0, true);
        assert_eq!(
            a.send(0, b_addr, [&dgram[..]], &mut stats),
            SendOutcome::Dropped
        );

        a.set_blocked(0, false);
        assert_eq!(
            a.send(0, b_addr, [&dgram[..]], &mut stats),
            SendOutcome::Sent
        );
        b.set_blocked(0, true);
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
        let mut stats = RuntimeStats::new();
        a.send(0, b.local_addr(0).unwrap(), [&dgram[..]], &mut stats);
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

    /// One send of four datagrams, the second corrupted, arrives as one
    /// read coalesced by `UDP_GRO`; `drain` verifies each datagram on its
    /// own, so only the bad one is lost.
    #[test]
    fn a_corrupt_datagram_in_a_coalesced_read_spares_its_neighbours() {
        let mut a = PathSet::bind(&[any_loopback()]).unwrap();
        let mut b = PathSet::bind(&[any_loopback()]).unwrap();
        let tuple = FourTuple {
            src: Endpoint::new(1, 1),
            dst: Endpoint::new(2, 2),
        };
        let mut frames: Vec<Vec<u8>> = (1..=4).map(|seq| datagram_at(tuple, seq)).collect();
        let last = frames[1].len() - 1;
        frames[1][last] ^= 0xff;
        let mut tx = RuntimeStats::new();
        let run = frames.iter().map(Vec::as_slice);
        let sent = a.send(0, b.local_addr(0).unwrap(), run, &mut tx);
        assert_eq!(sent, SendOutcome::Sent);
        assert_eq!(tx.rec.counter(CounterId::RtSendCalls), 1);

        let second = Some(Duration::from_secs(1));
        let woke = b.wait(std::iter::empty(), Duration::ZERO, second, Duration::MAX);
        assert_eq!(woke, Wake::Readable);
        let mut stats = RuntimeStats::new();
        let mut got = Vec::new();
        assert_eq!(b.drain(0, 64, &mut stats, &mut got), 3);
        let seqs: Vec<u32> = got.iter().map(|s| s.seq.0).collect();
        assert_eq!(seqs, [1, 3, 4], "the neighbours are delivered, in order");
        assert_eq!(stats.rec.counter(CounterId::RtDecodeErrors), 1);
        assert_eq!(stats.rec.counter(CounterId::RtDatagramsRx), 3);
        assert_eq!(
            stats.rec.counter(CounterId::RtRecvCalls),
            2,
            "one read carried all four; the next found the socket empty"
        );
    }

    /// A socket that may not segment (`SO_NO_CHECK`: GSO needs the UDP
    /// checksum) refuses a run with `EINVAL`, as a kernel before 4.18 or a
    /// frame too large for the route's MTU does. The path then sends runs
    /// of one, which it takes.
    #[test]
    fn a_refused_run_leaves_the_path_sending_runs_of_one() {
        let mut a = PathSet::bind(&[any_loopback()]).unwrap();
        let mut b = PathSet::bind(&[any_loopback()]).unwrap();
        const SOL_SOCKET: c_int = 1;
        const SO_NO_CHECK: c_int = 11;
        let on: c_int = 1;
        // SAFETY: as in `bind`: a live `int`, only read, and its size.
        let set = unsafe {
            setsockopt(
                a.paths[0].sock.as_raw_fd(),
                SOL_SOCKET,
                SO_NO_CHECK,
                (&on as *const c_int).cast(),
                size_of::<c_int>() as u32,
            )
        };
        assert_eq!(set, 0);
        let tuple = FourTuple {
            src: Endpoint::new(1, 1),
            dst: Endpoint::new(2, 2),
        };
        let frames: Vec<Vec<u8>> = (1..=3).map(|seq| datagram_at(tuple, seq)).collect();
        let peer = b.local_addr(0).unwrap();
        let mut tx = RuntimeStats::new();
        assert_eq!(a.run_limit(0), MAX_RUN);
        let run = frames.iter().map(Vec::as_slice);
        assert_eq!(a.send(0, peer, run, &mut tx), SendOutcome::Unsegmented);
        assert_eq!(a.run_limit(0), 1, "the path gave segmentation up");
        for f in &frames {
            assert_eq!(a.send(0, peer, [&f[..]], &mut tx), SendOutcome::Sent);
        }
        assert_eq!(tx.rec.counter(CounterId::RtSendCalls), 4);

        let mut stats = RuntimeStats::new();
        let mut got = Vec::new();
        for _ in 0..200 {
            b.drain(0, 64, &mut stats, &mut got);
            if got.len() == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let seqs: Vec<u32> = got.iter().map(|s| s.seq.0).collect();
        assert_eq!(seqs, [1, 2, 3], "the refused run left nothing behind");
    }
}
