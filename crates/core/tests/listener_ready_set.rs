//! The listener's ready set against a brute-force walk.
//!
//! [`MptcpListener::poll`] visits only the connections that were woken or
//! whose deadline expired, and [`MptcpListener::poll_at`] reads the head of
//! a heap. Both are shortcuts for "ask every connection", so that is what
//! they are checked against: two listeners built alike are fed the same
//! segments and the same application calls in a random interleaving with
//! clock jumps, one driven through `poll`/`conn_mut`, the other by walking
//! `conns` in index order on every step. After every step the two must
//! have emitted the same segments, and the heap head must equal the
//! minimum over every live connection's own `poll_at`.

use std::collections::VecDeque;

use mptcp::{MptcpConfig, MptcpConnection, MptcpListener};
use mptcp_netsim::{Duration, SimRng, SimTime};
use mptcp_packet::{Endpoint, FourTuple, TcpSegment};

const SERVER: Endpoint = Endpoint {
    addr: 0x0a00_0001,
    port: 80,
};
const CLIENT_BASE: u32 = 0x0b00_0000;

/// Peer `k` owns two addresses: the initial subflow's and a join's.
fn client_addr(k: usize, path: u32) -> u32 {
    CLIENT_BASE + 2 * k as u32 + path
}

struct Peer {
    conn: MptcpConnection,
    to_server: VecDeque<TcpSegment>,
    from_server: VecDeque<TcpSegment>,
    /// Index the listeners gave this peer's connection.
    accepted: Option<usize>,
    joined: bool,
    closed: bool,
    /// Four-tuples whose SYN the wire has carried.
    syns: Vec<FourTuple>,
}

struct World {
    rng: SimRng,
    now: SimTime,
    peers: Vec<Peer>,
    /// Driven through `conn_mut` and `poll`.
    ready: MptcpListener,
    /// Driven through `conns[i]` and a walk over all of `conns`.
    walk: MptcpListener,
    /// Segments `ready.poll` emitted, over the whole run.
    emitted: usize,
}

/// The old listener: every connection that has not fully closed, drained
/// in index order.
fn walk_poll(l: &mut MptcpListener, now: SimTime, out: &mut Vec<TcpSegment>) {
    for conn in l.conns.iter_mut().filter(|c| !c.fully_closed()) {
        while let Some(seg) = conn.poll(now) {
            out.push(seg);
        }
    }
}

fn walk_poll_at(l: &MptcpListener, now: SimTime) -> Option<SimTime> {
    l.conns
        .iter()
        .filter(|c| !c.fully_closed())
        .filter_map(|c| c.poll_at(now))
        .min()
}

impl World {
    fn new(k: usize, seed: u64) -> World {
        let cfg = MptcpConfig::default();
        let mut rng = SimRng::new(seed);
        let now = SimTime::from_millis(1);
        let peers = (0..k)
            .map(|i| Peer {
                conn: MptcpConnection::client(
                    cfg.clone(),
                    FourTuple {
                        src: Endpoint::new(client_addr(i, 0), 5000),
                        dst: SERVER,
                    },
                    now,
                    rng.fork(),
                ),
                to_server: VecDeque::new(),
                from_server: VecDeque::new(),
                accepted: None,
                joined: false,
                closed: false,
                syns: Vec::new(),
            })
            .collect();
        World {
            rng,
            now,
            peers,
            ready: MptcpListener::new(cfg.clone(), seed ^ 0x5e4),
            walk: MptcpListener::new(cfg, seed ^ 0x5e4),
            emitted: 0,
        }
    }

    /// A lossy wire, except for SYNs.
    fn lost(&mut self, seg: &TcpSegment) -> bool {
        !seg.flags.syn && self.rng.chance(0.04)
    }

    fn flush_client(&mut self, k: usize) {
        while let Some(seg) = self.peers[k].conn.poll(self.now) {
            let peer = &mut self.peers[k];
            if seg.flags.syn {
                // Each SYN crosses once, in order: a copy that outlived its
                // connection would open a new one on the listener that
                // retires and be a stray to the one that is only walked.
                if peer.syns.contains(&seg.tuple) {
                    continue;
                }
                peer.syns.push(seg.tuple);
            }
            if !self.lost(&seg) {
                self.peers[k].to_server.push_back(seg);
            }
        }
    }

    fn deliver_to_server(&mut self, k: usize) {
        let n = (self.rng.range(1, 5) as usize).min(self.peers[k].to_server.len());
        let batch: Vec<TcpSegment> = self.peers[k].to_server.drain(..n).collect();
        let Some(first) = batch.first() else { return };
        let first_is_syn = first.flags.syn;
        let idx = if batch.len() == 1 {
            self.walk.handle_segment(self.now, first);
            self.ready.handle_segment(self.now, first)
        } else {
            let mut touched = Vec::new();
            self.walk.handle_segments(self.now, &batch, &mut touched);
            touched.clear();
            self.ready.handle_segments(self.now, &batch, &mut touched);
            touched.first().copied()
        };
        if first_is_syn && self.peers[k].accepted.is_none() {
            self.peers[k].accepted = idx;
        }
    }

    fn deliver_to_client(&mut self, k: usize) {
        if let Some(seg) = self.peers[k].from_server.pop_front() {
            self.peers[k].conn.handle_segment(self.now, &seg);
        }
    }

    /// One application call on the server's end of peer `k`, made on both
    /// listeners; the two connections must answer alike.
    fn server_app(&mut self, k: usize, closing: bool) {
        let Some(idx) = self.peers[k].accepted else {
            return;
        };
        match self.rng.range(0, if closing { 4 } else { 3 }) {
            0 => {
                let max = self.rng.range(1, 30_000) as usize;
                let a = self.ready.conn_mut(idx).read(max).into_data();
                let b = self.walk.conns[idx].read(max).into_data();
                assert_eq!(a, b, "read on connection {idx}");
            }
            1 | 2 => {
                let data = vec![0x52; self.rng.range(1, 20_000) as usize];
                let a = self.ready.conn_mut(idx).write(&data).accepted();
                let b = self.walk.conns[idx].write(&data).accepted();
                assert_eq!(a, b, "write on connection {idx}");
            }
            _ => {
                self.ready.conn_mut(idx).close();
                self.walk.conns[idx].close();
            }
        }
    }

    fn client_app(&mut self, k: usize, closing: bool) {
        let now = self.now;
        let pick = self.rng.range(0, if closing { 5 } else { 4 });
        let len = self.rng.range(1, 20_000) as usize;
        let peer = &mut self.peers[k];
        match pick {
            0 => while peer.conn.read(usize::MAX).into_data().is_some() {},
            1 | 2 => {
                peer.conn.write(&vec![0x47; len]);
            }
            3 => {
                let open = peer.conn.is_established() && !peer.conn.is_fallback();
                if !peer.joined && !peer.closed && open {
                    peer.joined = peer
                        .conn
                        .open_subflow(Endpoint::new(client_addr(k, 1), 5001), SERVER, now)
                        .is_ok();
                }
            }
            _ => {
                peer.conn.close();
                peer.closed = true;
            }
        }
    }

    fn jump(&mut self) {
        let by = match self.rng.range(0, 10) {
            0..=5 => Duration::from_micros(self.rng.range(100, 50_000)),
            6..=8 => Duration::from_millis(self.rng.range(200, 3_000)),
            // Far past several deadlines at once, TIME_WAIT included.
            _ => Duration::from_secs(self.rng.range(9, 40)),
        };
        self.now += by;
    }

    fn step(&mut self, closing: bool) {
        let k = self.rng.range(0, self.peers.len() as u64) as usize;
        match self.rng.range(0, 100) {
            0..=27 => self.flush_client(k),
            28..=54 => self.deliver_to_server(k),
            55..=71 => self.deliver_to_client(k),
            72..=81 => self.server_app(k, closing),
            82..=91 => self.client_app(k, closing),
            _ => self.jump(),
        }
        self.check();
    }

    fn check(&mut self) {
        let now = self.now;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.ready.poll(now, &mut a);
        walk_poll(&mut self.walk, now, &mut b);
        assert_eq!(a, b, "emitted at {now:?}");
        assert_eq!(
            self.ready.poll_at(now),
            walk_poll_at(&self.ready, now),
            "poll_at at {now:?} against the listener's own connections"
        );
        assert_eq!(
            self.ready.poll_at(now),
            walk_poll_at(&self.walk, now),
            "poll_at at {now:?} against the walked listener"
        );
        self.emitted += a.len();
        for seg in a {
            if self.lost(&seg) {
                continue;
            }
            let k = ((seg.tuple.dst.addr - CLIENT_BASE) / 2) as usize;
            self.peers[k].from_server.push_back(seg);
        }
    }
}

#[test]
fn poll_and_poll_at_match_a_walk_over_every_connection() {
    const STEPS: usize = 1_500;
    let (mut emitted, mut retired, mut joined) = (0, 0, 0);
    for seed in 0..48u64 {
        // K = 1..=32, each size met at least once.
        let k = 1 + (seed as usize * 11) % 32;
        let mut w = World::new(k, 0xd00d + seed);
        for step in 0..STEPS * k.min(8) {
            // Closes only in the second half, so transfers get under way.
            w.step(step > STEPS * k.min(8) / 2);
        }
        emitted += w.emitted;
        retired += w.ready.conns.iter().filter(|c| c.fully_closed()).count();
        joined += w.peers.iter().filter(|p| p.joined).count();
    }
    // The interleavings reached what the structure is there for.
    assert!(emitted > 10_000, "only {emitted} segments emitted");
    assert!(retired > 10, "only {retired} connections ran to retirement");
    assert!(joined > 10, "only {joined} joins opened");
}
