//! End-to-end transfers through the full simulator: MPTCP, plain TCP and
//! bonded TCP on clean paths.

use mptcp::{Mechanisms, MptcpConfig};
use mptcp_harness::hosts::{ClientApp, ServerApp};
use mptcp_harness::scenario::{Scenario, TransportKind};
use mptcp_harness::transport::Transport;
use mptcp_netsim::{Duration, LinkCfg, Path};
use mptcp_tcpstack::TcpConfig;

const SEED: u64 = 7;

fn bulk(total: usize) -> ClientApp {
    ClientApp::Bulk {
        total,
        written: 0,
        close_when_done: true,
    }
}

fn two_clean_paths() -> Vec<Path> {
    vec![
        Path::symmetric(LinkCfg::wifi()),
        Path::symmetric(LinkCfg::threeg()),
    ]
}

#[test]
fn mptcp_transfer_completes_over_two_paths() {
    let cfg = MptcpConfig::builder()
        .buffers(256 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .build()
        .expect("config is valid");
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        bulk(500_000),
        ServerApp::Sink,
        two_clean_paths(),
        SEED,
    );
    sc.run_for(Duration::from_secs(20));
    assert_eq!(sc.server().app_bytes_received, 500_000);
    // Both subflows carried data.
    let client = sc.client();
    let Transport::Mptcp(conn) = &client.transport else {
        panic!("expected mptcp")
    };
    assert!(!conn.is_fallback());
    let per: Vec<u64> = conn
        .subflows()
        .iter()
        .map(|s| s.sock.stats.bytes_acked)
        .collect();
    assert_eq!(per.len(), 2);
    assert!(per.iter().all(|&b| b > 20_000), "{per:?}");
}

#[test]
fn tcp_baseline_completes() {
    let mut sc = Scenario::new(
        TransportKind::Tcp(TcpConfig::with_buffers(256 * 1024)),
        bulk(300_000),
        ServerApp::Sink,
        vec![Path::symmetric(LinkCfg::wifi())],
        SEED,
    );
    sc.run_for(Duration::from_secs(10));
    assert_eq!(sc.server().app_bytes_received, 300_000);
}

#[test]
fn bonded_tcp_completes_on_symmetric_paths() {
    // Per-packet round-robin over two identical clean links: reordering is
    // mild and TCP copes (the Figure 11 bonding baseline).
    let paths = vec![
        Path::symmetric(LinkCfg::fast_ethernet()),
        Path::symmetric(LinkCfg::fast_ethernet()),
    ];
    let mut sc = Scenario::new(
        TransportKind::BondedTcp(TcpConfig::with_buffers(512 * 1024)),
        bulk(1_000_000),
        ServerApp::Sink,
        paths,
        SEED,
    );
    sc.run_for(Duration::from_secs(5));
    assert_eq!(sc.server().app_bytes_received, 1_000_000);
}

#[test]
fn mptcp_aggregates_more_than_single_path() {
    // The Figure 9 scenario (capped 2 Mbps WiFi + 2 Mbps 3G, 500 KB
    // buffers): MPTCP must beat TCP on either single interface — the
    // paper's core value proposition.
    let capped_wifi = LinkCfg::with_buffer_time(
        2_000_000,
        Duration::from_millis(10),
        Duration::from_millis(80),
    );
    let cfg = MptcpConfig::builder()
        .buffers(500_000)
        .mechanisms(Mechanisms::M1_2)
        .build()
        .expect("config is valid");
    let mut m = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        vec![
            Path::symmetric(capped_wifi),
            Path::symmetric(LinkCfg::threeg()),
        ],
        SEED,
    );
    m.run_for(Duration::from_secs(20));
    let mptcp_bytes = m.server().app_bytes_received;

    let mut t = Scenario::new(
        TransportKind::Tcp(TcpConfig::with_buffers(500_000)),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        vec![Path::symmetric(capped_wifi)],
        SEED,
    );
    t.run_for(Duration::from_secs(20));
    let tcp_bytes = t.server().app_bytes_received;

    assert!(
        mptcp_bytes > tcp_bytes,
        "mptcp {mptcp_bytes} should beat single-path tcp {tcp_bytes}"
    );
}

#[test]
fn http_fleet_serves_requests() {
    let tcp = TcpConfig::with_buffers(256 * 1024);
    let mut sc = Scenario::http_fleet(
        TransportKind::Tcp(tcp),
        2,
        20_000,
        || Path::symmetric(LinkCfg::fast_ethernet()),
        SEED,
    );
    sc.run_for(Duration::from_millis(1200));
    let done: u64 = sc
        .clients
        .iter()
        .map(|&id| sc.sim.hosts[id].as_client().unwrap().http_completed())
        .sum();
    assert!(done > 10, "closed loop served only {done} requests");
}

#[test]
fn http_fleet_mptcp_uses_two_subflows() {
    let cfg = MptcpConfig::builder()
        .buffers(256 * 1024)
        .checksum(false)
        .build()
        .expect("valid config");
    let mut sc = Scenario::http_fleet(
        TransportKind::Mptcp(cfg),
        2,
        150_000,
        || Path::symmetric(LinkCfg::fast_ethernet()),
        SEED,
    );
    sc.run_for(Duration::from_millis(1500));
    let done: u64 = sc
        .clients
        .iter()
        .map(|&id| sc.sim.hosts[id].as_client().unwrap().http_completed())
        .sum();
    assert!(done > 2, "mptcp closed loop served only {done}");
}
