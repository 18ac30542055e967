//! Figure 11's shape at `repro fig11 --quick` scale: four closed-loop
//! clients on 2×100 Mbit/s links, the fleet of
//! `experiments::fig11_http`, measured over a shorter window so a debug
//! build runs it in seconds. On short responses MPTCP keeps up with plain
//! TCP: the paper has it losing a little below ~30 KB to its second
//! subflow's set-up, and a close that costs a round trip after the data
//! loses far more than that. The crossover from 100 KB up is not asserted:
//! the fleet still runs on one path (EXPERIMENTS.md, deviation 6).

use mptcp::{Mechanisms, MptcpConfig, TcpConfig};
use mptcp_harness::{Scenario, TransportKind};
use mptcp_netsim::{Duration, LinkCfg, Path};

/// Requests per second the fleet completes between `warm` and
/// `warm + window`.
fn requests_per_sec(kind: TransportKind, file_size: usize) -> f64 {
    let (warm, window) = (Duration::from_millis(100), Duration::from_millis(100));
    let link = LinkCfg {
        rate_bps: 100_000_000,
        delay: Duration::from_micros(100),
        queue_bytes: 256 * 1500,
        loss: 0.0,
    };
    let mut sc = Scenario::http_fleet(kind, 4, file_size, || Path::symmetric(link), 20120425);
    let completed = |sc: &Scenario| -> u64 {
        let clients = sc.clients.iter().map(|&id| sc.sim.hosts[id].as_client());
        clients.map(|c| c.expect("a client").http_completed()).sum()
    };
    sc.run_for(warm);
    let before = completed(&sc);
    sc.run_for(window);
    (completed(&sc) - before) as f64 / window.as_secs_f64()
}

#[test]
fn mptcp_keeps_up_with_tcp_on_short_responses() {
    let mptcp = MptcpConfig::builder()
        .buffers(512 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(false)
        .build()
        .expect("fig11 config is valid");
    let tcp = TcpConfig::with_buffers(512 * 1024);
    for file_size in [4_096, 30_000] {
        let m = requests_per_sec(TransportKind::Mptcp(mptcp.clone()), file_size);
        let t = requests_per_sec(TransportKind::Tcp(tcp.clone()), file_size);
        assert!(
            m >= 0.95 * t,
            "{} KB: MPTCP {m:.0} req/s against TCP {t:.0} req/s",
            file_size / 1000
        );
    }
}
