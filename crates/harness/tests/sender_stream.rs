//! Golden over both directions of the wire, on the sender paths
//! `server_stream.rs` never reaches.
//!
//! That file pins what a *server* emits while the clients mostly receive.
//! Here one client pushes a bulk stream and something happens to it
//! mid-transfer, so the data-level sender — window edge, DATA_ACK
//! handling, reinjection queue, M1/M2, fallback drain — decides most
//! segments. Every path carries a pass-through tap that folds
//! `(instant, direction, addresses, encoded bytes)` of every segment, in
//! emission order, into one hash. Five shapes:
//!
//! * WiFi+3G at a 100 KB buffer: receive-window limited, M1 and M2 fire;
//! * the WiFi path blacked out for 3 s: suspect → fail → reinject →
//!   probe → recover;
//! * the peer resets the 3G subflow mid-transfer: chunks riding a dead
//!   subflow are reinjected;
//! * the redundant scheduler with a join that completes mid-stream: the
//!   newcomer is owed copies of everything outstanding;
//! * a payload-rewriting box on a lone checksummed subflow: fallback, and
//!   the unsent data continues as plain TCP.

use std::sync::{Arc, Mutex};

use mptcp::telemetry::{CounterId, FallbackCause};
use mptcp::{Mechanisms, MptcpConfig, MptcpConnection, SchedulerKind};
use mptcp_harness::hosts::{ClientApp, ServerApp};
use mptcp_harness::{Scenario, TransportKind};
use mptcp_middlebox::PayloadModifier;
use mptcp_netsim::{Dir, Duration, LinkCfg, MbVerdict, Middlebox, Path, SimRng, SimTime};
use mptcp_packet::TcpSegment;

/// FNV-1a over everything either end sent, plus the segment count.
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

    fn absorb(&mut self, now: SimTime, dir: Dir, seg: &TcpSegment) {
        if self.segments == 0 {
            self.hash = 0xcbf2_9ce4_8422_2325;
        }
        self.segments += 1;
        self.fold(&now.0.to_le_bytes());
        self.fold(&[u8::from(dir == Dir::Rev)]);
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

/// Pass-through middlebox that records both directions.
struct Tap(Arc<Mutex<Stream>>);

impl Middlebox for Tap {
    fn process(&mut self, now: SimTime, dir: Dir, seg: TcpSegment, _: &mut SimRng) -> MbVerdict {
        self.0.lock().expect("tap poisoned").absorb(now, dir, &seg);
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

fn cfg(buf: usize, checksum: bool, sched: SchedulerKind) -> MptcpConfig {
    MptcpConfig::builder()
        .buffers(buf)
        .mechanisms(Mechanisms::M1_2)
        .checksum(checksum)
        .scheduler(sched)
        .build()
        .expect("sender config is valid")
}

fn bulk(cfg: MptcpConfig, total: usize, paths: Vec<Path>, seed: u64) -> Scenario {
    Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total,
            written: 0,
            close_when_done: true,
        },
        ServerApp::Sink,
        paths,
        seed,
    )
}

fn wifi_3g(stream: &Arc<Mutex<Stream>>) -> Vec<Path> {
    vec![
        tapped(LinkCfg::wifi(), stream),
        tapped(LinkCfg::threeg(), stream),
    ]
}

fn client(sc: &mut Scenario) -> &mut MptcpConnection {
    sc.client_mut()
        .transport
        .as_mptcp()
        .expect("the client speaks mptcp")
}

#[test]
fn rwnd_limited_wifi_3g_is_pinned() {
    const TOTAL: usize = 3_000_000;
    let stream = Arc::new(Mutex::new(Stream::default()));
    let mut sc = bulk(
        cfg(100 * 1024, false, SchedulerKind::MinRtt),
        TOTAL,
        wifi_3g(&stream),
        31,
    );
    sc.run_for(Duration::from_secs(8));

    assert_eq!(sc.server().app_bytes_received, TOTAL as u64);
    let t = sc.client().transport.telemetry();
    assert_eq!(t.counter(CounterId::M1Reinjections), 54);
    assert_eq!(t.counter(CounterId::M2Penalizations), 16);
    assert_eq!(summary(&stream), (4302, 8907363830962914173));
}

#[test]
fn mid_transfer_blackout_is_pinned() {
    const TOTAL: usize = 6_000_000;
    let stream = Arc::new(Mutex::new(Stream::default()));
    let mut sc = bulk(
        cfg(256 * 1024, false, SchedulerKind::MinRtt),
        TOTAL,
        wifi_3g(&stream),
        32,
    );
    sc.sim
        .faults
        .blackout(0, SimTime::from_secs(1), Duration::from_secs(3));
    sc.run_for(Duration::from_secs(14));

    assert_eq!(sc.server().app_bytes_received, TOTAL as u64);
    let t = sc.client().transport.telemetry();
    assert_eq!(t.counter(CounterId::PathSuspects), 1);
    assert_eq!(t.counter(CounterId::PathFailures), 1);
    assert_eq!(t.counter(CounterId::PathRecoveries), 1);
    // Both data-level timeouts fall in the blackout and find the
    // reinjection queue's whole 128-chunk allowance waiting on the dark
    // path; the DATA_FIN is acknowledged when it arrives.
    assert_eq!(t.counter(CounterId::DataRtos), 2);
    assert_eq!(client(&mut sc).stats.reinjections, 189);
    assert_eq!(summary(&stream), (9730, 15571249275434596215));
}

#[test]
fn peer_reset_of_a_subflow_is_pinned() {
    const TOTAL: usize = 3_000_000;
    let stream = Arc::new(Mutex::new(Stream::default()));
    let mut sc = bulk(
        cfg(256 * 1024, false, SchedulerKind::MinRtt),
        TOTAL,
        wifi_3g(&stream),
        33,
    );
    sc.run_for(Duration::from_secs(1));
    // The server resets the 3G subflow: its RST finds the client with
    // chunks in flight there.
    sc.server_mut().listener.conn_mut(0).subflows_mut()[1]
        .sock
        .abort();
    sc.run_for(Duration::from_secs(9));

    assert_eq!(sc.server().app_bytes_received, TOTAL as u64);
    let conn = client(&mut sc);
    assert!(conn.subflows()[1].dead);
    assert_eq!(conn.stats.reinjections, 61);
    assert_eq!(summary(&stream), (4311, 5431604886813212856));
}

#[test]
fn redundant_join_mid_stream_is_pinned() {
    const TOTAL: usize = 1_000_000;
    let stream = Arc::new(Mutex::new(Stream::default()));
    let mut sc = bulk(
        cfg(256 * 1024, false, SchedulerKind::Redundant),
        TOTAL,
        wifi_3g(&stream),
        34,
    );
    sc.run_for(Duration::from_secs(8));

    assert_eq!(sc.server().app_bytes_received, TOTAL as u64);
    let dup = sc.server().listener.conns[0]
        .telemetry()
        .counter(CounterId::DupDataBytes);
    // All but the first 58 400 bytes arrive twice: the join finds 104
    // chunks outstanding and is handed a copy of each.
    assert_eq!(dup, 941_600);
    assert_eq!(client(&mut sc).stats.bytes_scheduled, 1_941_600);
    assert_eq!(summary(&stream), (2743, 16206625945891045815));
}

#[test]
fn checksum_failure_on_a_lone_subflow_is_pinned() {
    const TOTAL: usize = 1_000_000;
    let stream = Arc::new(Mutex::new(Stream::default()));
    // The application's bytes are all 0x5a, so the box rewrites every data
    // segment from the first; the tap sits behind it, on the receiver's
    // side. The whole stream fits the send buffer and is written (and
    // closed) up front; the slow link keeps a third of it unmapped until
    // the server's MP_FAIL tells the client to give up on MPTCP.
    let path = Path::symmetric(LinkCfg::threeg())
        .with_middlebox(Box::new(PayloadModifier::new(&[0x5a; 8], &[0x21; 10])))
        .with_middlebox(Box::new(Tap(Arc::clone(&stream))));
    let mut sc = bulk(
        cfg(1024 * 1024, true, SchedulerKind::MinRtt),
        TOTAL,
        vec![path],
        35,
    );
    sc.run_for(Duration::from_secs(7));

    let server = sc.server().listener.conns[0].telemetry();
    assert_eq!(server.fallback_causes(), [FallbackCause::ChecksumFail]);
    assert_eq!(
        sc.client().transport.telemetry().fallback_causes(),
        [FallbackCause::MpFail]
    );
    assert!(client(&mut sc).send_closed());
    assert!(sc.server().listener.conns[0].at_eof());
    // Each rewrite grows its segment by two bytes.
    assert_eq!(sc.server().app_bytes_received, 1_001_374);
    assert_eq!(summary(&stream), (1378, 15286185336302862325));
}
