//! End-to-end loopback tests: two event loops (one per thread, as two
//! independent runtimes) speaking real MPTCP-over-UDP through the kernel.
//!
//! These are the deployability acceptance tests: the same state machines
//! the simulator exercises must move a checksummed multi-MiB payload over
//! real sockets, across two paths at once, and survive losing one of them
//! mid-transfer.

use std::net::{SocketAddr, UdpSocket};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mptcp::{AbortReason, FailureDetection, MptcpConfig, TcpConfig};
use mptcp_packet::{SeqNum, TcpFlags, TcpSegment};
use mptcp_runtime::wire::{decode_datagram_view, encode_datagram_into};
use mptcp_runtime::{
    ClientRuntime, ConnApp, FetchClient, FetchServer, LoopConfig, RuntimeError, ServerRuntime,
};
use mptcp_telemetry::CounterId;

const SEED: u64 = 20120425;

fn loopback(n: usize) -> Vec<SocketAddr> {
    (0..n).map(|_| "127.0.0.1:0".parse().unwrap()).collect()
}

/// What the server thread observed, collected after it finishes.
struct ServerReport {
    served: u64,
    subflow_bytes_out: Vec<u64>,
    path_failures: u64,
    reinjections: u64,
}

fn spawn_server(
    cfg: MptcpConfig,
    n_paths: usize,
) -> (Vec<SocketAddr>, thread::JoinHandle<ServerReport>) {
    spawn_server_until(cfg, n_paths, |_| true)
}

/// As [`spawn_server`], but the server thread goes on turning after its
/// connection is served until `also` holds too, within the same 60 s.
fn spawn_server_until(
    cfg: MptcpConfig,
    n_paths: usize,
    also: fn(&ServerRuntime) -> bool,
) -> (Vec<SocketAddr>, thread::JoinHandle<ServerReport>) {
    let mut server = ServerRuntime::bind(
        cfg,
        SEED + 1,
        &loopback(n_paths),
        Box::new(|| Box::new(FetchServer::new())),
        LoopConfig::default(),
    )
    .expect("bind server paths");
    let addrs: Vec<SocketAddr> = (0..n_paths)
        .map(|i| server.local_addr(i).unwrap())
        .collect();
    let handle = thread::spawn(move || {
        let hard = Instant::now() + Duration::from_secs(60);
        let ok = server.run_until_served(1, Duration::from_secs(60)).is_ok();
        while ok && !also(&server) && Instant::now() < hard {
            server.turn();
        }
        let conn = &server.listener().conns[0];
        ServerReport {
            served: if ok { server.served() } else { 0 },
            subflow_bytes_out: conn
                .subflows()
                .iter()
                .map(|s| s.sock.stats.bytes_out)
                .collect(),
            path_failures: conn.telemetry().counter(CounterId::PathFailures),
            reinjections: conn.stats.reinjections,
        }
    });
    (addrs, handle)
}

#[test]
fn two_path_transfer_is_byte_identical() {
    const SIZE: u64 = 4 * 1024 * 1024;
    let (addrs, server) = spawn_server(MptcpConfig::default(), 2);

    let mut client = ClientRuntime::connect(
        MptcpConfig::default(),
        SEED,
        &loopback(2),
        &addrs,
        FetchClient::new(SIZE, 7),
        LoopConfig::default(),
    )
    .expect("bind client paths");
    client
        .run(Duration::from_secs(60))
        .expect("transfer completes");

    assert!(
        client.app().ok(),
        "payload must verify byte-identical: received {} of {}, mismatch at {:?}",
        client.app().received(),
        SIZE,
        client.app().mismatch_at()
    );

    // Both subflows moved data, on both ends.
    let subs = client.conn().subflows();
    assert_eq!(subs.len(), 2, "MP_JOIN must add the second subflow");
    for (i, s) in subs.iter().enumerate() {
        assert!(
            s.sock.stats.segs_in > 0,
            "client subflow {i} never received a segment"
        );
    }
    let report = server.join().expect("server thread");
    assert_eq!(report.served, 1);
    assert_eq!(report.subflow_bytes_out.len(), 2);
    for (i, &b) in report.subflow_bytes_out.iter().enumerate() {
        assert!(b > 0, "server subflow {i} carried no payload");
    }

    // The loop's own telemetry saw real traffic and no decode errors.
    let rec = &client.stats().rec;
    assert!(rec.counter(CounterId::RtDatagramsRx) > 0);
    assert!(rec.counter(CounterId::RtDatagramsTx) > 0);
    assert_eq!(rec.counter(CounterId::RtDecodeErrors), 0);
}

/// `run()` returns once the close handshake is done at the data level —
/// not after a fixed linger, and not before the server has seen it too.
#[test]
fn run_returns_as_soon_as_the_close_is_done_both_ways() {
    const SIZE: u64 = 256 * 1024;
    let (addrs, server) = spawn_server(MptcpConfig::default(), 2);
    let mut client = ClientRuntime::connect(
        MptcpConfig::default(),
        SEED,
        &loopback(2),
        &addrs,
        FetchClient::new(SIZE, 3),
        LoopConfig::default(),
    )
    .expect("bind client paths");

    let hard = Instant::now() + Duration::from_secs(60);
    while !client.app().finished() {
        client.turn();
        assert!(Instant::now() < hard, "transfer stalled");
    }
    let finished = Instant::now();
    client
        .run(Duration::from_secs(60))
        .expect("close completes");
    let tail = finished.elapsed();

    assert!(client.app().ok(), "payload verified");
    assert!(
        tail < Duration::from_millis(250),
        "run() lingered {tail:?} after the app finished"
    );
    let report = server.join().expect("server thread");
    assert_eq!(report.served, 1, "server saw the close complete");
}

#[test]
fn transfer_survives_mid_stream_path_blackout() {
    const SIZE: u64 = 3 * 1024 * 1024;
    // Fast failure detection so the test converges in seconds: loopback
    // RTTs are microseconds, so RTO == min_rto and three back-offs take
    // 50+100+200 ms before the path is declared Failed and its in-flight
    // data is reinjected on the survivor.
    let tcp = TcpConfig {
        min_rto: Duration::from_millis(50),
        ..TcpConfig::default()
    };
    let cfg = MptcpConfig::builder()
        .tcp(tcp)
        .failure_detection(FailureDetection {
            suspect_after_rtos: 2,
            fail_after_rtos: 3,
            progress_timeout: Duration::from_millis(800),
            probe_interval: Duration::from_millis(200),
            abort_deadline: Duration::from_secs(30),
        })
        .build()
        .expect("valid config");
    // The server's failure detector takes the blacked-out path only after
    // its back-offs have run, which a fast transfer and close can outpace:
    // its thread waits for that too, not only for the connection.
    let failed = |s: &ServerRuntime| {
        s.listener().conns[0]
            .telemetry()
            .counter(CounterId::PathFailures)
            > 0
    };
    let (addrs, server) = spawn_server_until(cfg.clone(), 2, failed);

    let mut client = ClientRuntime::connect(
        cfg,
        SEED,
        &loopback(2),
        &addrs,
        FetchClient::new(SIZE, 11),
        LoopConfig::default(),
    )
    .expect("bind client paths");

    // Drive by hand so the blackout lands mid-stream: after the first MiB
    // arrives, path 1 goes dark in both directions at the client.
    let hard = Instant::now() + Duration::from_secs(60);
    let mut blacked_out = false;
    while !client.app().finished() {
        if !blacked_out && client.app().received() > 1024 * 1024 {
            client.block_path(1, true);
            blacked_out = true;
        }
        client.turn();
        assert!(
            client.conn().abort_reason().is_none(),
            "connection must survive a single-path blackout"
        );
        assert!(
            Instant::now() < hard,
            "transfer stalled after blackout: {} of {} received",
            client.app().received(),
            SIZE
        );
    }
    assert!(blacked_out, "transfer finished before the blackout landed");
    assert!(
        client.app().ok(),
        "payload must verify after blackout: received {} of {}, mismatch at {:?}",
        client.app().received(),
        SIZE,
        client.app().mismatch_at()
    );

    // Linger briefly so the server can finish its close handshake.
    let linger = Instant::now() + Duration::from_millis(500);
    while Instant::now() < linger {
        client.turn();
    }

    let report = server.join().expect("server thread");
    assert_eq!(report.served, 1, "server must see the connection complete");
    assert!(
        report.path_failures >= 1,
        "the sender must have declared the blacked-out path Failed"
    );
    assert!(
        report.reinjections > 0,
        "in-flight data from the dead path must have been reinjected"
    );
}

/// A client whose every subflow dies gets a typed abort from `run` at once,
/// not a timeout after waiting its budget out. The peer here is a bare UDP
/// socket that answers the SYN with an RST acknowledging it: the only
/// subflow is refused, so the handshake fails.
#[test]
fn a_client_whose_subflows_all_die_aborts_instead_of_timing_out() {
    let refuser = UdpSocket::bind("127.0.0.1:0").expect("bind the refusing peer");
    let addr = refuser.local_addr().unwrap();
    let peer = thread::spawn(move || {
        refuser
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = vec![0u8; 2048];
        let (n, from) = refuser.recv_from(&mut buf).expect("the SYN");
        let syn = decode_datagram_view(&Bytes::copy_from_slice(&buf[..n])).expect("a segment");
        assert!(syn.flags.syn && !syn.flags.ack);
        let mut rst = TcpSegment::new(syn.tuple.reversed(), SeqNum(0), syn.seq + 1, TcpFlags::RST);
        rst.flags.ack = true;
        let mut out = Vec::new();
        encode_datagram_into(&rst, &mut out);
        refuser.send_to(&out, from).unwrap();
    });
    let mut client = ClientRuntime::connect(
        MptcpConfig::default(),
        SEED,
        &loopback(1),
        &[addr],
        FetchClient::new(1 << 16, SEED),
        LoopConfig::default(),
    )
    .expect("bind client path");
    let started = Instant::now();
    let outcome = client.run(Duration::from_secs(5));
    peer.join().expect("peer thread");
    assert!(
        matches!(
            outcome,
            Err(RuntimeError::Aborted(AbortReason::HandshakeFailed))
        ),
        "{outcome:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "{:?}",
        started.elapsed()
    );
}

/// Twenty 64 KiB fetches in a row against one server, both loops turned
/// from this thread. When a client's app finishes (its body verified and
/// the stream ended), neither end of that connection has had a data-level
/// timeout: a DATA_FIN that fell off a full segment would be resent only
/// by the server's data-level timer, 400 ms later.
#[test]
fn sequential_fetches_end_without_a_data_level_timeout() {
    const SIZE: u64 = 64 * 1024;
    const FETCHES: u64 = 20;
    let mut server = ServerRuntime::bind(
        MptcpConfig::default(),
        SEED + 1,
        &loopback(2),
        Box::new(|| Box::new(FetchServer::new())),
        LoopConfig::default(),
    )
    .expect("bind server paths");
    let addrs: Vec<SocketAddr> = (0..2).map(|i| server.local_addr(i).unwrap()).collect();
    // Finished clients stay bound: the listener still routes their
    // four-tuples, so no later fetch may reuse one of their ports.
    let mut finished = Vec::new();
    for fetch in 0..FETCHES {
        let mut client = ClientRuntime::connect(
            MptcpConfig::default(),
            SEED + fetch,
            &loopback(2),
            &addrs,
            FetchClient::new(SIZE, fetch),
            LoopConfig::default(),
        )
        .expect("bind client paths");
        let hard = Instant::now() + Duration::from_secs(30);
        while !client.app().finished() {
            if !(client.step() | server.step()) {
                thread::sleep(Duration::from_micros(100));
            }
            assert!(Instant::now() < hard, "fetch {fetch} stalled");
        }
        assert!(client.app().ok(), "fetch {fetch} did not verify");
        assert_eq!(server.accepted() as u64, fetch + 1);
        let served = server.listener().conns.last().expect("accepted");
        let rtos = [client.conn(), served].map(|c| c.telemetry().counter(CounterId::DataRtos));
        assert_eq!(
            rtos,
            [0, 0],
            "fetch {fetch}: data-level RTOs (client, server)"
        );
        finished.push(client);
    }
}
