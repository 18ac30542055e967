//! Endpoint pairs joined by the in-memory [`Pipe`]: an
//! `MptcpConnection` ↔ `MptcpListener` pair (the `mem_bulk` workload and
//! the connection-setup probe) and a bare `TcpSocket` pair (the ladder
//! rung below it). Both run on a virtual clock, so wall time is the CPU
//! cost of the protocol code and nothing else.

use mptcp::{MptcpConfig, MptcpConnection, MptcpListener, ReadOutcome, WriteOutcome};
use mptcp_netsim::{Duration, SimRng, SimTime};
use mptcp_packet::{Endpoint, FourTuple, SeqNum, TcpSegment};
use mptcp_tcpstack::{TcpConfig, TcpSocket};

use crate::pipe::{earliest, matches_stream, Pipe, To};
use crate::trace::{Span, Spans};

/// One-way delay of the pipe.
pub const PIPE_DELAY: Duration = Duration::from_micros(100);
/// Application write and read size.
const APP_CHUNK: usize = 64 * 1024;
/// Virtual time after which a transfer that has not finished is stuck
/// (a loss-free 100 µs pipe moves any size used here in well under this).
const VIRTUAL_DEADLINE: SimTime = SimTime::from_secs(600);

/// Path `i`'s addresses: client `10.0.(i+1).2`, server `10.0.(i+1).1`.
fn tuple(path: usize, client_port: u16) -> FourTuple {
    let net = 0x0a00_0000 | ((path as u32 + 1) << 8);
    FourTuple {
        src: Endpoint::new(net | 2, client_port),
        dst: Endpoint::new(net | 1, 80),
    }
}

/// The next application write of a `total`-byte stream that repeats
/// `block`, `written` bytes in: at most [`APP_CHUNK`], up to the block's end.
fn next_write(block: &[u8], written: u64, total: u64) -> &[u8] {
    let at = (written % block.len() as u64) as usize;
    let n = APP_CHUNK
        .min(block.len() - at)
        .min((total - written).min(usize::MAX as u64) as usize);
    &block[at..at + n]
}

/// An established MPTCP connection and the listener that accepted it.
pub struct MptcpPair {
    pub client: MptcpConnection,
    listener: MptcpListener,
    /// Index of this pair's connection in the listener.
    server: usize,
    pub pipe: Pipe,
    now: SimTime,
    ingress: Vec<TcpSegment>,
    touched: Vec<usize>,
}

impl MptcpPair {
    /// A pair against a listener of its own.
    pub fn connect(
        cfg: MptcpConfig,
        seed: u64,
        subflows: usize,
        spans: &mut Spans,
    ) -> Result<MptcpPair, String> {
        let listener = MptcpListener::new(cfg.clone(), seed ^ 0x5e4);
        MptcpPair::connect_to(listener, cfg, seed, 4000, subflows, spans)
    }

    /// MP_CAPABLE handshake on path 0, then one MP_JOIN per further path,
    /// returning once every subflow is usable on both ends. The listener
    /// may already hold connections; `client_port` (and the `subflows - 1`
    /// ports after it) must be new to it.
    pub fn connect_to(
        listener: MptcpListener,
        cfg: MptcpConfig,
        seed: u64,
        client_port: u16,
        subflows: usize,
        spans: &mut Spans,
    ) -> Result<MptcpPair, String> {
        let now = SimTime::from_millis(1);
        let mut pair = MptcpPair {
            client: MptcpConnection::client(cfg, tuple(0, client_port), now, SimRng::new(seed)),
            server: listener.len(),
            listener,
            pipe: Pipe::new(PIPE_DELAY),
            now,
            ingress: Vec::new(),
            touched: Vec::new(),
        };
        pair.run_until(spans, "MP_CAPABLE handshake", |p| {
            p.client.is_established()
                && p.listener
                    .conns
                    .get(p.server)
                    .is_some_and(|c| c.is_established())
        })?;
        for i in 1..subflows {
            let t = tuple(i, client_port + i as u16);
            pair.client
                .open_subflow(t.src, t.dst, pair.now)
                .map_err(|e| format!("open_subflow on path {i}: {e}"))?;
        }
        pair.run_until(spans, "MP_JOIN handshakes", |p| {
            let usable = |c: &MptcpConnection| c.subflows().iter().filter(|s| s.usable()).count();
            usable(&p.client) == subflows && usable(p.accepted()) == subflows
        })?;
        if pair.client.is_fallback() || pair.accepted().is_fallback() {
            return Err("connection fell back to plain TCP".into());
        }
        Ok(pair)
    }

    /// The listener's end of this pair.
    pub fn accepted(&self) -> &MptcpConnection {
        &self.listener.conns[self.server]
    }

    /// Hand the listener back, for the next pair to connect to.
    pub fn into_listener(self) -> MptcpListener {
        self.listener
    }

    /// Move every due frame and everything both ends want to send.
    /// Returns whether anything moved.
    fn exchange(&mut self, spans: &mut Spans) -> Result<bool, String> {
        let mut moved = false;
        self.pipe
            .deliver(To::Server, self.now, &mut self.ingress, spans)?;
        if !self.ingress.is_empty() {
            moved = true;
            spans.enter(Span::MptcpHandle);
            self.listener
                .handle_segments(self.now, &self.ingress, &mut self.touched);
            spans.exit(Span::MptcpHandle);
            self.touched.clear();
            self.pipe.recycle(&mut self.ingress);
        }
        self.pipe
            .deliver(To::Client, self.now, &mut self.ingress, spans)?;
        if !self.ingress.is_empty() {
            moved = true;
            spans.enter(Span::MptcpHandle);
            self.client.handle_segments(self.now, &self.ingress);
            spans.exit(Span::MptcpHandle);
            self.pipe.recycle(&mut self.ingress);
        }
        loop {
            spans.enter(Span::MptcpPoll);
            let seg = self.client.poll(self.now);
            spans.exit(Span::MptcpPoll);
            let Some(seg) = seg else { break };
            self.pipe.send(To::Server, self.now, &seg, spans);
            moved = true;
        }
        // Only this pair's connection: earlier ones on a shared listener
        // finished their close handshake before the listener was handed on.
        while let Some(conn) = self.listener.conns.get_mut(self.server) {
            spans.enter(Span::MptcpPoll);
            let seg = conn.poll(self.now);
            spans.exit(Span::MptcpPoll);
            let Some(seg) = seg else { break };
            self.pipe.send(To::Client, self.now, &seg, spans);
            moved = true;
        }
        Ok(moved)
    }

    /// Jump the virtual clock to the next frame arrival or timer.
    fn advance(&mut self, spans: &mut Spans, what: &str) -> Result<(), String> {
        spans.enter(Span::MptcpPollAt);
        let timers = [
            self.client.poll_at(self.now),
            self.listener
                .conns
                .get(self.server)
                .and_then(|c| c.poll_at(self.now)),
        ];
        spans.exit(Span::MptcpPollAt);
        let next = earliest(timers.into_iter().chain([self.pipe.next_delivery()]))
            .ok_or_else(|| format!("{what}: stalled with nothing in flight and no timer armed"))?;
        self.now = self.now.max(next);
        if self.now > VIRTUAL_DEADLINE {
            return Err(format!(
                "{what}: not finished after {VIRTUAL_DEADLINE:?} of virtual time"
            ));
        }
        if let Some(reason) = self.client.abort_reason() {
            return Err(format!("{what}: client aborted: {reason}"));
        }
        Ok(())
    }

    fn run_until(
        &mut self,
        spans: &mut Spans,
        what: &str,
        done: impl Fn(&MptcpPair) -> bool,
    ) -> Result<(), String> {
        while !done(self) {
            if !self.exchange(spans)? {
                self.advance(spans, what)?;
            }
        }
        Ok(())
    }

    /// Send `total` bytes of the stream made by repeating `block` from the
    /// client, read them at the server, and compare every byte.
    pub fn transfer(&mut self, block: &[u8], total: u64, spans: &mut Spans) -> Result<(), String> {
        let (mut written, mut received) = (0u64, 0u64);
        while received < total {
            let mut moved = false;
            while written < total {
                let chunk = next_write(block, written, total);
                spans.enter(Span::MptcpWrite);
                let outcome = self.client.write(chunk);
                spans.exit(Span::MptcpWrite);
                match outcome {
                    WriteOutcome::Accepted(0) | WriteOutcome::WouldBlock => break,
                    WriteOutcome::Accepted(n) => {
                        written += n as u64;
                        moved = true;
                    }
                    WriteOutcome::FellBack(_) => return Err("fell back to plain TCP".into()),
                    WriteOutcome::Closed => return Err("send side closed mid-transfer".into()),
                }
            }
            moved |= self.exchange(spans)?;
            loop {
                spans.enter(Span::MptcpRead);
                let outcome = self.listener.conns[self.server].read(APP_CHUNK);
                spans.exit(Span::MptcpRead);
                match outcome {
                    ReadOutcome::Data(data) => {
                        spans.enter(Span::Verify);
                        let ok = matches_stream(block, received, &data);
                        spans.exit(Span::Verify);
                        if !ok {
                            return Err(format!(
                                "payload mismatch within {} bytes of offset {received}",
                                data.len()
                            ));
                        }
                        received += data.len() as u64;
                        moved = true;
                    }
                    ReadOutcome::WouldBlock => break,
                    ReadOutcome::Eof | ReadOutcome::Closed => {
                        return Err(format!("stream ended after {received} of {total} bytes"))
                    }
                }
            }
            if !moved {
                self.advance(spans, "transfer")?;
            }
        }
        if received != total {
            return Err(format!(
                "received {received} bytes, expected exactly {total}"
            ));
        }
        Ok(())
    }

    /// DATA_FIN both ways, until each side has seen the other's.
    pub fn close(&mut self, spans: &mut Spans) -> Result<(), String> {
        self.client.close();
        self.run_until(spans, "client DATA_FIN", |p| p.accepted().at_eof())?;
        self.listener.conns[self.server].close();
        self.run_until(spans, "close handshake", |p| {
            p.client.at_eof() && p.client.send_closed() && p.accepted().send_closed()
        })
    }
}

/// A plain `TcpSocket` pair over the same pipe and bytes: the rung below
/// the MPTCP pair.
pub struct TcpPair {
    client: TcpSocket,
    server: TcpSocket,
    pipe: Pipe,
    now: SimTime,
    ingress: Vec<TcpSegment>,
}

impl TcpPair {
    pub fn connect(cfg: TcpConfig, seed: u64, spans: &mut Spans) -> Result<TcpPair, String> {
        let mut rng = SimRng::new(seed);
        let now = SimTime::from_millis(1);
        let mut pipe = Pipe::new(PIPE_DELAY);
        let mut client = TcpSocket::client(
            cfg.clone(),
            tuple(0, 4000),
            SeqNum(rng.next_u32()),
            now,
            vec![],
        );
        let syn = client.poll(now).ok_or("client socket emitted no SYN")?;
        pipe.send(To::Server, now, &syn, spans);
        let now = now + PIPE_DELAY;
        let mut ingress = Vec::new();
        pipe.deliver(To::Server, now, &mut ingress, spans)?;
        let server = TcpSocket::accept(cfg, &ingress[0], SeqNum(rng.next_u32()), now, vec![]);
        pipe.recycle(&mut ingress);
        let mut pair = TcpPair {
            client,
            server,
            pipe,
            now,
            ingress,
        };
        while !(pair.client.is_established() && pair.server.is_established()) {
            if !pair.exchange(spans)? {
                pair.advance("TCP handshake")?;
            }
        }
        Ok(pair)
    }

    fn exchange(&mut self, spans: &mut Spans) -> Result<bool, String> {
        let mut moved = false;
        for (to, sock) in [
            (To::Server, &mut self.server),
            (To::Client, &mut self.client),
        ] {
            self.pipe.deliver(to, self.now, &mut self.ingress, spans)?;
            for seg in &self.ingress {
                spans.enter(Span::TcpHandle);
                sock.handle_segment(self.now, seg);
                spans.exit(Span::TcpHandle);
                moved = true;
            }
            self.pipe.recycle(&mut self.ingress);
        }
        for (to, sock) in [
            (To::Server, &mut self.client),
            (To::Client, &mut self.server),
        ] {
            loop {
                spans.enter(Span::TcpPoll);
                let seg = sock.poll(self.now);
                spans.exit(Span::TcpPoll);
                let Some(seg) = seg else { break };
                self.pipe.send(to, self.now, &seg, spans);
                moved = true;
            }
        }
        Ok(moved)
    }

    fn advance(&mut self, what: &str) -> Result<(), String> {
        let next = earliest([
            self.client.poll_at(self.now),
            self.server.poll_at(self.now),
            self.pipe.next_delivery(),
        ])
        .ok_or_else(|| format!("{what}: stalled with nothing in flight and no timer armed"))?;
        self.now = self.now.max(next);
        if self.now > VIRTUAL_DEADLINE || self.client.is_error() || self.server.is_error() {
            return Err(format!("{what}: failed at {:?} of virtual time", self.now));
        }
        Ok(())
    }

    /// As [`MptcpPair::transfer`], over one TCP connection.
    pub fn transfer(&mut self, block: &[u8], total: u64, spans: &mut Spans) -> Result<(), String> {
        let (mut written, mut received) = (0u64, 0u64);
        while received < total {
            let mut moved = false;
            while written < total {
                let chunk = next_write(block, written, total);
                let accepted = self.client.send(chunk);
                if accepted == 0 {
                    break;
                }
                written += accepted as u64;
                moved = true;
            }
            moved |= self.exchange(spans)?;
            while let Some(data) = self.server.read(APP_CHUNK) {
                if !matches_stream(block, received, &data) {
                    return Err(format!(
                        "payload mismatch within {} bytes of offset {received}",
                        data.len()
                    ));
                }
                received += data.len() as u64;
                moved = true;
            }
            if !moved {
                self.advance("TCP transfer")?;
            }
        }
        Ok(())
    }

    /// Segments that crossed the pipe, both directions.
    pub fn segments(&self) -> u64 {
        self.pipe.segments
    }
}
