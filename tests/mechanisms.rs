//! Behavioural assertions on the paper's receive-buffer mechanisms:
//! Figure 4's pathology and its fixes, Figure 5's memory at M1,2's
//! goodput, Figure 6(a)'s weak-cellular rescue.

use mptcp_harness::experiments::common::UNTRACED;
use mptcp_harness::experiments::common::{run_bulk, wifi_3g_paths, BulkResult, Policy, Variant};
use mptcp_harness::experiments::fig6_scenarios::Panel;
use mptcp_netsim::{CaptureConfig, Duration, LinkCfg, Path};
use mptcp_tcpstack::TcpConfig;
use mptcp_telemetry::TraceConfig;

const SEED: u64 = 31;
const WARM: Duration = Duration::from_secs(2);
const MEAS: Duration = Duration::from_secs(8);

/// An untraced bulk run under the default policy.
fn bulk(v: Variant, buf: usize, paths: Vec<Path>, warm: Duration, meas: Duration) -> BulkResult {
    run_bulk(v, buf, paths, warm, meas, SEED, Policy::default(), UNTRACED).bulk
}

fn wifi_tcp(buf: usize) -> f64 {
    bulk(
        Variant::Tcp,
        buf,
        vec![Path::symmetric(LinkCfg::wifi())],
        WARM,
        MEAS,
    )
    .goodput_mbps
}

#[test]
fn regular_mptcp_underperforms_tcp_when_underbuffered() {
    // The paper's headline pathology (Fig 4a): with a small shared buffer,
    // packets stuck on 3G stall the fast WiFi path.
    let buf = 150_000;
    let regular = bulk(Variant::MptcpRegular, buf, wifi_3g_paths(), WARM, MEAS);
    let tcp = wifi_tcp(buf);
    assert!(
        regular.goodput_mbps < tcp,
        "regular MPTCP {:.2} should trail TCP-over-WiFi {:.2} at {buf}B",
        regular.goodput_mbps,
        tcp
    );
}

#[test]
fn mechanisms_rescue_underbuffered_mptcp() {
    // Fig 4(c): M1+M2 lift underbuffered MPTCP well above regular MPTCP.
    let buf = 100_000;
    let regular = bulk(Variant::MptcpRegular, buf, wifi_3g_paths(), WARM, MEAS);
    let fixed = bulk(Variant::MptcpM12, buf, wifi_3g_paths(), WARM, MEAS);
    assert!(
        fixed.goodput_mbps > regular.goodput_mbps * 1.1,
        "M1,2 {:.2} vs regular {:.2}",
        fixed.goodput_mbps,
        regular.goodput_mbps
    );
}

#[test]
fn mechanisms_reach_the_aggregate_with_enough_buffer() {
    // Fig 4's shape at 400 KB: M1+M2 deliver most of the 8 + 2 Mbps link
    // sum (the paper plots ~9.5), while regular MPTCP with the same
    // buffer still trails TCP over WiFi alone.
    let buf = 400_000;
    let fixed = bulk(Variant::MptcpM12, buf, wifi_3g_paths(), WARM, MEAS);
    assert!(
        fixed.goodput_mbps >= 8.5,
        "M1,2 {:.2} Mbps of the 10 Mbps link sum at {buf}B",
        fixed.goodput_mbps
    );
    let regular = bulk(Variant::MptcpRegular, buf, wifi_3g_paths(), WARM, MEAS);
    let tcp = wifi_tcp(buf);
    assert!(
        regular.goodput_mbps < tcp,
        "regular MPTCP {:.2} should trail TCP-over-WiFi {:.2} at {buf}B",
        regular.goodput_mbps,
        tcp
    );
}

#[test]
fn subflows_send_full_sized_segments() {
    // Sender-side silly-window avoidance, seen on the wire: a subflow
    // whose usable window is a sliver waits for it to widen instead of
    // answering every ACK with a fragment that pays a full header.
    let r = run_bulk(
        Variant::MptcpM12,
        200_000,
        wifi_3g_paths(),
        WARM,
        MEAS,
        SEED,
        Policy::default(),
        (TraceConfig::disabled(), CaptureConfig::enabled()),
    );
    assert_eq!(r.capture.dropped_records, 0, "capture ring overflowed");
    let mss = TcpConfig::default().mss;
    let data: Vec<usize> = r
        .capture
        .records
        .iter()
        .filter(|p| p.fwd && p.payload_len > 0)
        .map(|p| p.payload_len)
        .collect();
    let full = data.iter().filter(|&&len| len >= mss - 40).count();
    assert!(
        full * 100 >= data.len() * 95,
        "{full} of {} client data segments carry >= {} bytes",
        data.len(),
        mss - 40
    );
}

#[test]
fn m1_throughput_exceeds_goodput() {
    // Fig 4(b): opportunistic retransmission alone wastes capacity on
    // duplicates — visible as throughput > goodput.
    let buf = 150_000;
    let m1 = bulk(Variant::MptcpM1, buf, wifi_3g_paths(), WARM, MEAS);
    assert!(
        m1.throughput_mbps >= m1.goodput_mbps,
        "throughput {:.2} < goodput {:.2}?",
        m1.throughput_mbps,
        m1.goodput_mbps
    );
}

#[test]
fn weak_cellular_link_rescued_by_mechanisms() {
    // Fig 6(a): WiFi + 50 Kbps 3G with 2 s of bufferbloat. Regular MPTCP
    // collapses (every 3G loss stalls the window for seconds); M1+M2
    // multiply throughput several-fold (paper: ~10x at 200 KB).
    let buf = 200_000;
    let paths = || Panel::WeakCellular.paths();
    let warm = Duration::from_secs(3);
    let meas = Duration::from_secs(15);
    let regular = bulk(Variant::MptcpRegular, buf, paths(), warm, meas);
    let fixed = bulk(Variant::MptcpM12, buf, paths(), warm, meas);
    assert!(
        fixed.goodput_mbps > regular.goodput_mbps * 2.0,
        "M1,2 {:.3} vs regular {:.3}: expected multi-x rescue",
        fixed.goodput_mbps,
        regular.goodput_mbps
    );
}

#[test]
fn symmetric_paths_do_not_need_mechanisms() {
    // Fig 6(c): on equal paths, underbuffered regular MPTCP ≈ MPTCP+M1,2
    // (sticking to one path is optimal anyway). The parity property is
    // rate-independent; 3 × 100 Mbps keeps the debug-mode test fast
    // (the full-rate sweep lives in `repro fig6c`).
    let buf = 500_000;
    // WAN-ish symmetric paths (queue comparable to BDP, 20 ms base RTT)
    // so per-path queueing noise does not dwarf the propagation delay —
    // the regime the figure describes, scaled to 100 Mbps for test speed.
    let link = LinkCfg::with_buffer_time(
        100_000_000,
        Duration::from_millis(10),
        Duration::from_millis(10),
    );
    let paths = || {
        vec![
            Path::symmetric(link),
            Path::symmetric(link),
            Path::symmetric(link),
        ]
    };
    let warm = Duration::from_secs(1);
    let meas = Duration::from_secs(3);
    let regular = bulk(Variant::MptcpRegular, buf, paths(), warm, meas);
    let fixed = bulk(Variant::MptcpM12, buf, paths(), warm, meas);
    let ratio = fixed.goodput_mbps / regular.goodput_mbps.max(1e-9);
    assert!(
        (0.6..=1.7).contains(&ratio),
        "regular {:.1} vs M1,2 {:.1} should be comparable",
        regular.goodput_mbps,
        fixed.goodput_mbps
    );
}

#[test]
fn reinjection_after_subflow_death_delivers_on_survivor() {
    // Break-before-make: when a path dies mid-transfer, the DSNs stranded
    // in its flight window are reinjected and delivered on the survivor.
    use mptcp::telemetry::EventKind;
    use mptcp::{Mechanisms, MptcpConfig};
    use mptcp_harness::{ClientApp, Scenario, ServerApp, TransportKind};
    use mptcp_netsim::{FaultKind, SimTime};

    const TOTAL: usize = 2_000_000;
    let cfg = MptcpConfig::builder()
        .buffers(256 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .build()
        .expect("config is valid");
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total: TOTAL,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        wifi_3g_paths(),
        SEED,
    );
    // Kill the WiFi path — the scheduler's preferred one, so it carries
    // in-flight data — permanently, one second in.
    sc.sim
        .faults
        .at(SimTime::from_secs(1), 0, FaultKind::LinkDown);
    let deadline = SimTime::from_secs(60);
    while sc.sim.now < deadline && sc.server().app_bytes_received < TOTAL as u64 {
        sc.run_for(Duration::from_secs(1));
    }
    assert_eq!(
        sc.server().app_bytes_received,
        TOTAL as u64,
        "bytes stranded on the dead path were not delivered on the survivor"
    );

    let client = sc.client_mut();
    let conn = client.transport.as_mptcp().expect("mptcp client");
    let reinjections = conn.stats.reinjections;
    let telemetry = client.transport.telemetry();
    let reinjected_at_failure: u64 = telemetry
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::PathFailed {
                subflow: 0,
                reinjected,
            } => Some(reinjected),
            _ => None,
        })
        .sum();
    assert!(reinjected_at_failure > 0, "path death reinjected nothing");
    assert!(
        reinjections >= reinjected_at_failure,
        "stats.reinjections {reinjections} < {reinjected_at_failure} chunks reinjected at failure"
    );
}

#[test]
fn m3_grows_the_receivers_buffer() {
    // Fig 5: M3 sizes the receiver's buffer from the bytes arriving per
    // RTT, so a receiver whose subflows only ACK (and never take an srtt)
    // must still grow it past its 64 KiB start.
    use mptcp_harness::{ClientApp, Scenario, ServerApp};
    let mut sc = Scenario::new(
        Variant::MptcpM123.kind(1_000_000),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        wifi_3g_paths(),
        SEED,
    );
    sc.run_for(Duration::from_secs(6));
    let cap = sc.server().listener.conns[0].rcv_buf_capacity();
    assert!(cap > 65_536, "server receive buffer stuck at {cap} B");
}

#[test]
fn autotuning_keeps_memory_below_configured_max() {
    // Fig 5 at 1 MB, measured as `repro fig5` measures it: M3 keeps M1,2's
    // goodput on less memory at both ends, and autotuned single-path TCP
    // holds less than MPTCP at the sender. A one-path connection fails the
    // goodput bound.
    use mptcp_harness::experiments::fig5_memory::run_tcp_autotuned;
    let (buf, warm, meas, seed) = (
        1_000_000,
        Duration::from_secs(3),
        Duration::from_secs(15),
        20120425,
    );
    let mptcp = |v| {
        run_bulk(
            v,
            buf,
            wifi_3g_paths(),
            warm,
            meas,
            seed,
            Policy::default(),
            UNTRACED,
        )
        .bulk
    };
    let (m12, m123) = (mptcp(Variant::MptcpM12), mptcp(Variant::MptcpM123));
    assert!(
        m123.goodput_mbps >= 0.95 * m12.goodput_mbps,
        "M1,2,3 {:.2} Mbit/s against M1,2 {:.2}",
        m123.goodput_mbps,
        m12.goodput_mbps
    );
    for (end, with, without) in [
        ("sender", m123.sender_mem, m12.sender_mem),
        ("receiver", m123.receiver_mem, m12.receiver_mem),
    ] {
        assert!(
            with < without,
            "{end} memory: M1,2,3 {with:.0} B, M1,2 {without:.0} B"
        );
    }
    for link in [LinkCfg::wifi(), LinkCfg::threeg()] {
        let tcp = run_tcp_autotuned(buf, link, warm, meas, seed);
        assert!(
            tcp.sender_mem < buf as f64 && tcp.sender_mem < m123.sender_mem,
            "TCP sender memory {:.0} B against the {buf} B cap and M1,2,3's {:.0} B",
            tcp.sender_mem,
            m123.sender_mem
        );
    }
}

#[test]
fn builder_order_leaves_subflow_capping_and_tracing_alone() {
    // M4 and the time-series trace act inside the subflow sockets. Whether
    // `.tcp(..)` comes before or after `.mechanisms(..)` and `.trace(..)`,
    // the config must run the same subflows on Fig 5's bufferbloated
    // WiFi+3G paths: the same cwnd caps, the same subflow trace records.
    use mptcp::telemetry::{CounterId, TraceRecord};
    use mptcp::{Mechanisms, MptcpConfig};
    use mptcp_harness::{ClientApp, Scenario, ServerApp, TransportKind};

    let tcp = MptcpConfig::default().tcp().clone();
    let tcp_last = MptcpConfig::builder()
        .buffers(1_000_000)
        .mechanisms(Mechanisms::ALL)
        .trace(TraceConfig::enabled())
        .tcp(tcp.clone());
    let tcp_first = MptcpConfig::builder()
        .tcp(tcp)
        .buffers(1_000_000)
        .mechanisms(Mechanisms::ALL)
        .trace(TraceConfig::enabled());
    let runs: Vec<(u64, usize)> = [tcp_last, tcp_first]
        .into_iter()
        .map(|builder| {
            let cfg = builder.build().expect("config is valid");
            let mut sc = Scenario::new(
                TransportKind::Mptcp(cfg),
                ClientApp::Bulk {
                    total: usize::MAX / 2,
                    written: 0,
                    close_when_done: false,
                },
                ServerApp::Sink,
                wifi_3g_paths(),
                SEED,
            );
            sc.run_for(Duration::from_secs(6));
            let transport = &sc.client().transport;
            let caps = transport.telemetry().counter(CounterId::M4CwndCaps);
            let trace = transport.trace_snapshot();
            let subflow_samples = trace
                .records
                .iter()
                .filter(|r| matches!(r, TraceRecord::SubflowSample { .. }))
                .count();
            (caps, subflow_samples)
        })
        .collect();
    assert!(
        runs[1].0 > 0 && runs[1].1 > 0,
        "tcp first: M4 must cap and subflows must trace, got {:?}",
        runs[1]
    );
    assert_eq!(
        runs[0], runs[1],
        "(M4 caps, subflow trace records): tcp last vs tcp first"
    );
}
