//! Golden over what a [`ServerHost`] puts on the wire.
//!
//! The listener decides *which* connections a host turn polls and in what
//! order; any change there that is not behaviour-preserving moves a
//! segment to another instant, reorders two segments of one instant, or
//! drops one. Every path of each scenario carries a pass-through tap that
//! folds `(instant, addresses, encoded bytes)` of every server→client
//! segment, in emission order, into one hash. Three shapes:
//!
//! * a closed-loop HTTP fleet (many short connections, server closes first);
//! * three staggered bulk connections — one of them plain TCP — into one
//!   rate-limited reader, run past the end of TIME_WAIT;
//! * a 2×2 full mesh, whose joins add four-tuples to a live connection.

use std::sync::{Arc, Mutex};

use mptcp::{Mechanisms, MptcpConfig, PathManagerCfg, PmPolicy};
use mptcp_harness::experiments::common::tcp_cfg;
use mptcp_harness::hosts::{ClientApp, ClientHost, ConnFactory, Node, ServerApp, ServerHost};
use mptcp_harness::{Scenario, TransportKind};
use mptcp_netsim::{Dir, Duration, LinkCfg, MbVerdict, Middlebox, Path, Sim, SimRng, SimTime};
use mptcp_packet::{Endpoint, TcpSegment};

/// FNV-1a over everything the server sent, plus the segment count.
#[derive(Default)]
struct Stream {
    hash: u64,
    segments: u64,
    scratch: Vec<u8>,
}

impl Stream {
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn absorb(&mut self, now: SimTime, seg: &TcpSegment) {
        if self.segments == 0 {
            self.hash = 0xcbf2_9ce4_8422_2325;
        }
        self.segments += 1;
        self.fold(&now.0.to_le_bytes());
        self.fold(&seg.tuple.src.addr.to_le_bytes());
        self.fold(&seg.tuple.dst.addr.to_le_bytes());
        let mut wire = std::mem::take(&mut self.scratch);
        wire.clear();
        seg.encode_into(0, &mut wire)
            .expect("the stack emits segments that fit the option space");
        self.fold(&wire);
        self.scratch = wire;
    }
}

/// Pass-through middlebox that records the server→client direction.
struct Tap(Arc<Mutex<Stream>>);

impl Middlebox for Tap {
    fn process(&mut self, now: SimTime, dir: Dir, seg: TcpSegment, _: &mut SimRng) -> MbVerdict {
        if dir == Dir::Rev {
            self.0.lock().expect("tap poisoned").absorb(now, &seg);
        }
        MbVerdict::pass(seg)
    }

    fn name(&self) -> &'static str {
        "tap"
    }
}

fn tapped(link: LinkCfg, stream: &Arc<Mutex<Stream>>) -> Path {
    Path::symmetric(link).with_middlebox(Box::new(Tap(Arc::clone(stream))))
}

fn summary(stream: &Arc<Mutex<Stream>>) -> (u64, u64) {
    let s = stream.lock().expect("tap poisoned");
    (s.segments, s.hash)
}

fn fleet_cfg() -> MptcpConfig {
    MptcpConfig::builder()
        .buffers(512 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(false)
        .build()
        .expect("fleet config is valid")
}

#[test]
fn http_fleet_server_stream_is_pinned() {
    let stream = Arc::new(Mutex::new(Stream::default()));
    let link = LinkCfg {
        rate_bps: 100_000_000,
        delay: Duration::from_micros(100),
        queue_bytes: 256 * 1500,
        loss: 0.0,
    };
    let mut sc = Scenario::http_fleet(
        TransportKind::Mptcp(fleet_cfg()),
        10,
        30_000,
        || tapped(link, &stream),
        7,
    );
    sc.run_for(Duration::from_millis(50));
    let completed: Vec<u64> = sc
        .clients
        .iter()
        .map(|&id| sc.sim.hosts[id].as_client().unwrap().http_completed())
        .collect();
    assert_eq!(completed, [16, 16, 16, 16, 16, 16, 16, 16, 16, 16]);
    assert_eq!(sc.server().listener.len(), 170);
    assert_eq!(summary(&stream), (3900, 4991398618588910579));
}

#[test]
fn staggered_bulk_into_a_slow_reader_is_pinned() {
    assert_eq!(
        staggered_bulk_into_a_slow_reader(None),
        (757, 12422985223323976061)
    );
}

/// Sampling a run must not perturb it: the slow reader reads on its own
/// clock, not on every poll, so stepping the simulator in 10 ms slices
/// puts the same stream on the wire as one run to the end.
#[test]
fn a_slow_reader_run_in_steps_sends_the_same_stream() {
    assert_eq!(
        staggered_bulk_into_a_slow_reader(Some(Duration::from_millis(10))),
        staggered_bulk_into_a_slow_reader(None)
    );
}

/// Three staggered bulk connections into one 400 KB/s reader, run to 14 s
/// in one call or in `steps`; the server's `(segments, FNV-1a)`.
fn staggered_bulk_into_a_slow_reader(steps: Option<Duration>) -> (u64, u64) {
    const SERVER: u32 = 0x0a00_0065;
    const TOTAL: usize = 300_000;
    let stream = Arc::new(Mutex::new(Stream::default()));
    let cfg = MptcpConfig::builder()
        .buffers(128 * 1024)
        .tcp(tcp_cfg(128 * 1024, false))
        .mechanisms(Mechanisms::M1_2)
        .build()
        .expect("bulk config is valid");

    let mut sim: Sim<Node> = Sim::new(5);
    let server = sim.add_host(Node::Server(ServerHost::new(
        cfg.clone(),
        ServerApp::SlowSink {
            rate: 400_000,
            last: SimTime::ZERO,
            credit: 0.0,
        },
        5 ^ 0x5e4,
    )));
    sim.bind_addr(SERVER, server);

    let mut clients = Vec::new();
    for (k, start_ms) in [0u64, 130, 410].into_iter().enumerate() {
        sim.run_until(SimTime::from_millis(start_ms));
        let addr = 0x0b00_0000 + k as u32;
        sim.connect(addr, SERVER, tapped(LinkCfg::wifi(), &stream));
        let factory = ConnFactory {
            // The middle client is plain TCP: the listener's fallback arm.
            kind: match k {
                1 => TransportKind::Tcp(cfg.tcp().clone()),
                _ => TransportKind::Mptcp(cfg.clone()),
            },
            local: Endpoint::new(addr, 10_000),
            server: Endpoint::new(SERVER, 80),
            rng: SimRng::new(50 + k as u64),
        };
        let app = ClientApp::Bulk {
            total: TOTAL,
            written: 0,
            close_when_done: true,
        };
        let id = sim.add_host(Node::Client(ClientHost::new(factory, app, sim.now)));
        sim.bind_addr(addr, id);
        clients.push(id);
    }
    // Past the transfers (~2.3 s at the reader's rate) and past TIME_WAIT.
    let end = SimTime::from_secs(14);
    if let Some(step) = steps {
        while sim.now + step < end {
            sim.run_until(sim.now + step);
        }
    }
    sim.run_until(end);

    for &id in &clients {
        assert!(sim.hosts[id].as_client().unwrap().bulk_done());
    }
    let host = sim.hosts[server].as_server().unwrap();
    assert_eq!(host.app_bytes_received, 3 * TOTAL as u64);
    assert_eq!(host.listener.len(), 3);
    summary(&stream)
}

#[test]
fn mesh_2x2_server_stream_is_pinned() {
    const TOTAL: usize = 1_000_000;
    let stream = Arc::new(Mutex::new(Stream::default()));
    let cfg = MptcpConfig::builder()
        .buffers(512 * 1024)
        .tcp(tcp_cfg(512 * 1024, false))
        .mechanisms(Mechanisms::M1_2)
        .checksum(false)
        .path_manager(PathManagerCfg::new(PmPolicy::Fullmesh))
        .build()
        .expect("mesh config is valid");
    let mut sc = Scenario::mesh(
        cfg,
        ClientApp::Bulk {
            total: TOTAL,
            written: 0,
            close_when_done: true,
        },
        ServerApp::Sink,
        2,
        2,
        || tapped(LinkCfg::wifi(), &stream),
        22,
    );
    sc.run_for(Duration::from_secs(5));

    assert_eq!(sc.server().app_bytes_received, TOTAL as u64);
    assert_eq!(sc.server().listener.len(), 1);
    assert_eq!(sc.server().listener.conns[0].subflows().len(), 4);
    assert_eq!(summary(&stream), (848, 7273261275631567893));
}
