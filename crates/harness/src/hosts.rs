//! Simulated hosts: transport + application workload.
//!
//! [`ClientHost`] owns the transport under test and a [`ClientApp`]
//! workload; [`ServerHost`] wraps an [`mptcp::MptcpListener`] — which also
//! accepts plain-TCP clients via fallback, so one server implementation
//! serves every baseline — plus a [`ServerApp`].

use mptcp::{MptcpConfig, MptcpConnection, MptcpListener};
use mptcp_netsim::time::min_deadline;
use mptcp_netsim::{Duration, Host, Outbox, SimRng, SimTime};
use mptcp_packet::SeqNum;
use mptcp_packet::{Endpoint, FourTuple, TcpSegment};
use mptcp_tcpstack::TcpSocket;

use crate::metrics::Sampler;
use crate::scenario::TransportKind;
use crate::transport::Transport;

/// Block size for the Figure 7 latency workload.
pub const BLOCK: usize = 8192;
/// Bytes of "HTTP request" in the closed-loop workload.
pub const HTTP_REQUEST_LEN: usize = 100;

/// Largest single application write.
const WRITE_MAX: usize = 64 * 1024;

/// A [`ServerApp::SlowSink`] reads on its own grid of this period, not
/// on every poll, so how a caller steps the simulator cannot move a read.
const SLOW_READ_TICK: Duration = Duration::from_millis(20);

/// What the applications write. The apps retry a refused write on every
/// host poll and every delivered segment, so the bytes they offer live in
/// statics: building a fresh buffer per attempt cost more than the stack.
static BULK_BYTES: [u8; WRITE_MAX] = [0x5a; WRITE_MAX];
static RESPONSE_BYTES: [u8; WRITE_MAX] = [0x52; WRITE_MAX];
static REQUEST_BYTES: [u8; HTTP_REQUEST_LEN] = [0x47; HTTP_REQUEST_LEN];

/// What the client application does.
pub enum ClientApp {
    /// Send `total` bytes, then optionally close.
    Bulk {
        /// Total bytes to send.
        total: usize,
        /// Bytes accepted by the transport so far.
        written: usize,
        /// Send DATA_FIN/FIN after the last byte.
        close_when_done: bool,
    },
    /// Send 8 KB blocks continuously, timestamping each (Figure 7).
    Blocks,
    /// Closed-loop request/response: send a small request, read a
    /// `file_size`-byte response to EOF, reconnect, repeat (Figure 11).
    HttpLoop {
        /// Request sent on the current connection?
        requested: bool,
        /// Completed responses.
        completed: u64,
    },
    /// Only receive (server pushes).
    Sink,
}

/// How new client transports are minted (for reconnecting workloads).
pub struct ConnFactory {
    /// The transport each new connection uses.
    pub kind: TransportKind,
    /// Primary local address.
    pub local: Endpoint,
    /// Server address for the initial subflow.
    pub server: Endpoint,
    /// RNG for keys and ISNs.
    pub rng: SimRng,
}

impl ConnFactory {
    fn make(&mut self, now: SimTime) -> Transport {
        let src_port = self.local.port;
        self.local.port = self.local.port.wrapping_add(1).max(1024);
        let tuple = FourTuple {
            src: Endpoint::new(self.local.addr, src_port),
            dst: self.server,
        };
        match &self.kind {
            TransportKind::Mptcp(cfg) => Transport::Mptcp(MptcpConnection::client(
                cfg.clone(),
                tuple,
                now,
                self.rng.fork(),
            )),
            TransportKind::Tcp(tcp) | TransportKind::BondedTcp(tcp) => Transport::Tcp(
                TcpSocket::client(tcp.clone(), tuple, SeqNum(self.rng.next_u32()), now, vec![]),
            ),
        }
    }
}

/// A client host: one live transport plus a workload.
pub struct ClientHost {
    /// The transport under test.
    pub transport: Transport,
    /// The workload.
    pub app: ClientApp,
    factory: ConnFactory,
    /// Block-send timestamps (Figure 7).
    pub block_sent: Vec<SimTime>,
    /// Total application bytes accepted by the transport.
    pub app_bytes_sent: u64,
    /// Total application bytes read from the transport.
    pub app_bytes_received: u64,
    /// Periodic sender-memory sampler (Figure 5a).
    pub mem_sampler: Sampler,
}

impl ClientHost {
    /// Build a client; the first transport connects immediately.
    pub fn new(mut factory: ConnFactory, app: ClientApp, now: SimTime) -> ClientHost {
        let transport = factory.make(now);
        ClientHost {
            transport,
            app,
            factory,
            block_sent: Vec::new(),
            app_bytes_sent: 0,
            app_bytes_received: 0,
            mem_sampler: Sampler::new(Duration::from_millis(10)),
        }
    }

    /// Completed HTTP requests (Figure 11 numerator).
    pub fn http_completed(&self) -> u64 {
        match &self.app {
            ClientApp::HttpLoop { completed, .. } => *completed,
            _ => 0,
        }
    }

    /// Bulk transfer finished (all bytes accepted)?
    pub fn bulk_done(&self) -> bool {
        match &self.app {
            ClientApp::Bulk { total, written, .. } => written >= total,
            _ => false,
        }
    }

    fn note_sent(sent: &mut u64, stamps: &mut Vec<SimTime>, n: usize, now: SimTime) {
        let before = *sent;
        *sent += n as u64;
        // Stamp every block boundary crossed by this write (Figure 7:
        // "timestamps each block's transmission").
        let first = before / BLOCK as u64;
        let last = *sent / BLOCK as u64;
        for _ in first..last {
            stamps.push(now);
        }
    }

    fn drive_app(&mut self, now: SimTime, out: &mut Outbox) {
        if !self.transport.is_established() {
            return;
        }
        match &mut self.app {
            ClientApp::Bulk {
                total,
                written,
                close_when_done,
            } => {
                while *written < *total {
                    let want = (*total - *written).min(WRITE_MAX);
                    // WouldBlock: retry on the next drive. Closed: the
                    // failure path below (`transport.failed`) decides.
                    let Ok(n) = self.transport.write(&BULK_BYTES[..want]) else {
                        break;
                    };
                    *written += n;
                    let close = *written >= *total && *close_when_done;
                    Self::note_sent(&mut self.app_bytes_sent, &mut self.block_sent, n, now);
                    if close {
                        self.transport.close();
                    }
                }
            }
            ClientApp::Blocks => loop {
                let buf = [0xb1u8; BLOCK];
                let Ok(n) = self.transport.write(&buf) else {
                    break;
                };
                Self::note_sent(&mut self.app_bytes_sent, &mut self.block_sent, n, now);
            },
            ClientApp::HttpLoop {
                requested,
                completed,
            } => {
                if !*requested && self.transport.write(&REQUEST_BYTES) == Ok(HTTP_REQUEST_LEN) {
                    *requested = true;
                }
                while let Some(b) = self.transport.read(usize::MAX) {
                    self.app_bytes_received += b.len() as u64;
                }
                if *requested && self.transport.at_eof() {
                    *completed += 1;
                    // Send what the close owes before the transport goes:
                    // the DATA_FIN, and the DATA_ACK that frees the response.
                    self.transport.close();
                    while let Some(s) = self.transport.poll(now) {
                        out.send(s);
                    }
                    // Closed loop: immediately reconnect.
                    self.transport = self.factory.make(now);
                    *requested = false;
                }
            }
            ClientApp::Sink => {
                while let Some(b) = self.transport.read(usize::MAX) {
                    self.app_bytes_received += b.len() as u64;
                }
            }
        }

        // HTTP loop aborts dead connections and retries.
        if self.transport.failed() {
            if let ClientApp::HttpLoop { requested, .. } = &mut self.app {
                self.transport = self.factory.make(now);
                *requested = false;
            }
        }
    }

    /// Let the application act, then drain the transport — and again for
    /// as long as the application still makes progress afterwards: what a
    /// `poll` does inside the transport (falling back to plain TCP on a
    /// data-level timeout, say) can unblock a write that nothing else
    /// would ever come back for.
    fn pump(&mut self, now: SimTime, out: &mut Outbox) {
        self.drive_app(now, out);
        // The sampler sees what the application has just written, at every
        // call into the host; it adds no wake-up of its own.
        let transport = &self.transport;
        self.mem_sampler
            .maybe_sample(now, || transport.sender_memory() as f64);
        loop {
            while let Some(s) = self.transport.poll(now) {
                out.send(s);
            }
            let before = (self.app_bytes_sent, self.app_bytes_received);
            self.drive_app(now, out);
            if (self.app_bytes_sent, self.app_bytes_received) == before {
                break;
            }
        }
    }
}

impl Host for ClientHost {
    fn handle_segment(&mut self, now: SimTime, seg: TcpSegment, out: &mut Outbox) {
        self.transport.handle_segment(now, &seg);
        self.pump(now, out);
    }

    fn poll(&mut self, now: SimTime, out: &mut Outbox) {
        self.pump(now, out);
    }

    fn poll_at(&self, now: SimTime) -> Option<SimTime> {
        self.transport.poll_at(now)
    }

    fn addr_event(&mut self, now: SimTime, addr: u32, up: bool, out: &mut Outbox) {
        if let Some(conn) = self.transport.as_mptcp() {
            if up {
                conn.local_addr_up(addr, now);
            } else {
                conn.local_addr_down(addr, now);
            }
        }
        // Flush the REMOVE_ADDR (and any migrated data) immediately so it
        // rides the surviving path in this same simulation instant.
        self.pump(now, out);
    }
}

/// What the server application does with each connection.
pub enum ServerApp {
    /// Read and discard everything as fast as possible.
    Sink,
    /// Like `Sink`, but read at most `rate` bytes/sec (a slow reader),
    /// every 20 ms.
    SlowSink {
        /// Read budget per second.
        rate: u64,
        /// The last read tick: budget accumulator bookkeeping.
        last: SimTime,
        credit: f64,
    },
    /// On request: respond with `file_size` bytes, then close (Fig 11).
    HttpResponder {
        /// Response size.
        file_size: usize,
    },
}

/// Per-connection server-side bookkeeping.
#[derive(Clone, Default)]
struct ConnProgress {
    got_request: bool,
    response_written: usize,
    closed: bool,
}

/// A server host: listener + application.
pub struct ServerHost {
    /// The listening endpoint (accepts MPTCP and plain TCP alike).
    pub listener: MptcpListener,
    /// Application behaviour.
    pub app: ServerApp,
    /// `HttpResponder` state, indexed like `listener.conns`.
    progress: Vec<ConnProgress>,
    /// Sink modes: connections that may hold unread data, ascending. A
    /// segment puts its connection here; reading it dry takes it out, so a
    /// rate-limited reader's tick visits only what it left behind.
    unread: Vec<usize>,
    /// Total application bytes read across connections.
    pub app_bytes_received: u64,
    /// Block receive timestamps (Figure 7).
    pub block_received: Vec<SimTime>,
    /// Responses fully written (Figure 11 sanity).
    pub responses_started: u64,
    /// Receiver-memory sampler (Figure 5b).
    pub mem_sampler: Sampler,
    /// Scratch for `listener.poll`, kept so its allocation is reused.
    polled: Vec<TcpSegment>,
}

impl ServerHost {
    /// New server host.
    pub fn new(cfg: MptcpConfig, app: ServerApp, seed: u64) -> ServerHost {
        ServerHost {
            listener: MptcpListener::new(cfg, seed),
            app,
            progress: Vec::new(),
            unread: Vec::new(),
            app_bytes_received: 0,
            block_received: Vec::new(),
            responses_started: 0,
            mem_sampler: Sampler::new(Duration::from_millis(10)),
            polled: Vec::new(),
        }
    }

    /// Sum of receiver-held memory across connections.
    pub fn receiver_memory(&self) -> usize {
        receiver_memory(&self.listener)
    }

    fn note_received(&mut self, n: usize, now: SimTime) {
        let before = self.app_bytes_received;
        self.app_bytes_received += n as u64;
        let first = before / BLOCK as u64;
        let last = self.app_bytes_received / BLOCK as u64;
        for _ in first..last {
            self.block_received.push(now);
        }
    }

    /// Poll the listener into `out`. Every call into the host ends here,
    /// so this is where the memory sampler runs; it sums every connection
    /// ever accepted, so only when a sample is due.
    fn emit(&mut self, now: SimTime, out: &mut Outbox) {
        let listener = &self.listener;
        self.mem_sampler
            .maybe_sample(now, || receiver_memory(listener) as f64);
        self.listener.poll(now, &mut self.polled);
        for s in self.polled.drain(..) {
            out.send(s);
        }
    }

    /// Let the application make progress; `fed` is the connection a segment
    /// just reached, if that is what woke the host.
    fn drive_app(&mut self, now: SimTime, fed: Option<usize>) {
        if let ServerApp::HttpResponder { file_size } = self.app {
            // A response advances only when its own connection hears from
            // the peer (the request, then ACKs freeing send buffer).
            if let Some(idx) = fed {
                self.respond(idx, file_size);
            }
            return;
        }
        if let Some(idx) = fed {
            if let Err(at) = self.unread.binary_search(&idx) {
                self.unread.insert(at, idx);
            }
        }
        // Refill the slow-sink read budget outside the per-conn loop, once
        // per tick passed; between ticks it does not read.
        let mut budget = match &mut self.app {
            ServerApp::SlowSink { rate, last, credit } => {
                let ticks = (now.since(*last).as_nanos() / SLOW_READ_TICK.as_nanos()) as u32;
                if ticks == 0 {
                    return;
                }
                *last += SLOW_READ_TICK * ticks;
                *credit += (*rate as f64) * (SLOW_READ_TICK * ticks).as_secs_f64();
                *credit as usize
            }
            _ => usize::MAX,
        };
        // Drain within budget, lowest index first.
        let mut dry = 0;
        while budget > 0 && dry < self.unread.len() {
            let idx = self.unread[dry];
            match self.listener.conn_mut(idx).read(budget).into_data() {
                Some(b) => {
                    let n = b.len();
                    if budget != usize::MAX {
                        budget -= n;
                    }
                    self.note_received(n, now);
                }
                None => dry += 1,
            }
        }
        self.unread.drain(..dry);
        // Persist the unspent slow-sink credit.
        if let ServerApp::SlowSink { credit, .. } = &mut self.app {
            *credit = budget as f64;
        }
    }

    /// `HttpResponder` on connection `idx`: once the request is in, write
    /// the response as the send buffer allows, then close.
    fn respond(&mut self, idx: usize, file_size: usize) {
        if self.progress.len() <= idx {
            self.progress.resize(idx + 1, ConnProgress::default());
        }
        let prog = &mut self.progress[idx];
        if prog.closed {
            return;
        }
        let conn = self.listener.conn_mut(idx);
        if !prog.got_request {
            if conn.read(usize::MAX).into_data().is_none() {
                return;
            }
            prog.got_request = true;
            self.responses_started += 1;
        }
        while prog.response_written < file_size {
            let want = (file_size - prog.response_written).min(WRITE_MAX);
            let n = conn.write(&RESPONSE_BYTES[..want]).accepted();
            if n == 0 {
                break;
            }
            prog.response_written += n;
        }
        if prog.response_written >= file_size {
            conn.close();
            prog.closed = true;
        }
    }
}

fn receiver_memory(listener: &MptcpListener) -> usize {
    listener.conns.iter().map(|c| c.receiver_memory()).sum()
}

impl Host for ServerHost {
    fn handle_segment(&mut self, now: SimTime, seg: TcpSegment, out: &mut Outbox) {
        let fed = self.listener.handle_segment(now, &seg);
        self.drive_app(now, fed);
        self.emit(now, out);
    }

    fn poll(&mut self, now: SimTime, out: &mut Outbox) {
        self.drive_app(now, None);
        self.emit(now, out);
    }

    fn addr_event(&mut self, now: SimTime, addr: u32, up: bool, out: &mut Outbox) {
        for idx in 0..self.listener.len() {
            let conn = self.listener.conn_mut(idx);
            if up {
                conn.local_addr_up(addr, now);
            } else {
                conn.local_addr_down(addr, now);
            }
        }
        self.emit(now, out);
    }

    fn poll_at(&self, now: SimTime) -> Option<SimTime> {
        let base = self.listener.poll_at(now);
        // A rate-limited reader must wake itself to keep draining (and to
        // send window updates) even when the network is quiescent: at its
        // next read tick.
        match &self.app {
            ServerApp::SlowSink { last, .. } => min_deadline(base, Some(*last + SLOW_READ_TICK)),
            _ => base,
        }
    }
}

/// Either kind of host, so one simulation can mix them.
// Hosts are few and long-lived; boxing the big variant buys nothing.
#[allow(clippy::large_enum_variant)]
pub enum Node {
    /// A client.
    Client(ClientHost),
    /// A server.
    Server(ServerHost),
}

impl Host for Node {
    fn handle_segment(&mut self, now: SimTime, seg: TcpSegment, out: &mut Outbox) {
        match self {
            Node::Client(c) => c.handle_segment(now, seg, out),
            Node::Server(s) => s.handle_segment(now, seg, out),
        }
    }

    fn poll(&mut self, now: SimTime, out: &mut Outbox) {
        match self {
            Node::Client(c) => c.poll(now, out),
            Node::Server(s) => s.poll(now, out),
        }
    }

    fn poll_at(&self, now: SimTime) -> Option<SimTime> {
        match self {
            Node::Client(c) => c.poll_at(now),
            Node::Server(s) => s.poll_at(now),
        }
    }

    fn addr_event(&mut self, now: SimTime, addr: u32, up: bool, out: &mut Outbox) {
        match self {
            Node::Client(c) => c.addr_event(now, addr, up, out),
            Node::Server(s) => s.addr_event(now, addr, up, out),
        }
    }
}

impl Node {
    /// The client, if this node is one.
    pub fn as_client(&self) -> Option<&ClientHost> {
        match self {
            Node::Client(c) => Some(c),
            _ => None,
        }
    }

    /// The client, mutably.
    pub fn as_client_mut(&mut self) -> Option<&mut ClientHost> {
        match self {
            Node::Client(c) => Some(c),
            _ => None,
        }
    }

    /// The server, if this node is one.
    pub fn as_server(&self) -> Option<&ServerHost> {
        match self {
            Node::Server(s) => Some(s),
            _ => None,
        }
    }

    /// The server, mutably.
    pub fn as_server_mut(&mut self) -> Option<&mut ServerHost> {
        match self {
            Node::Server(s) => Some(s),
            _ => None,
        }
    }
}
