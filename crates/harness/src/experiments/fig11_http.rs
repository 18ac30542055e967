//! Figure 11: apachebench-style requests/sec vs transfer size.
//!
//! Closed-loop clients each issue a request and read a `file_size`-byte
//! response to EOF, send what their close owes, then immediately
//! reconnect — over two parallel links — comparing regular TCP (one
//! link), TCP with per-packet round-robin bonding (both links), and MPTCP
//! (one subflow per link). The server writes each response and closes in
//! one go, so its DATA_FIN rides the response's last mapping and EOF
//! arrives with the last byte.
//!
//! Expected shape: MPTCP loses below ~30 KB (second-subflow setup cost
//! dominates), roughly doubles TCP above ~100 KB, and edges out bonding
//! for the largest files. Measured here: MPTCP level with TCP at every
//! size, because the fleet never gets its second subflow (EXPERIMENTS.md,
//! deviation 6); `tests/fig11_shape.rs` holds it to ≥ 0.95× TCP at 4 and
//! 30 KB.
//!
//! Scale note: the paper used 100 clients on 2×1 Gbps with a real Apache.
//! The default here is a smaller fleet on 2×100 Mbps so a full sweep runs
//! in seconds; `clients`/`link_mbps` knobs restore the paper's scale.

use mptcp::{Mechanisms, MptcpConfig};
use mptcp_netsim::{Duration, LinkCfg, Path};
use mptcp_tcpstack::TcpConfig;

use super::common::Policy;
use crate::report::Figure;
use crate::scenario::{Scenario, TransportKind};

/// Sweep configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Per-link rate in Mbps.
    pub link_mbps: u64,
    /// Simulated duration per point.
    pub duration: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            clients: 10,
            link_mbps: 100,
            duration: Duration::from_secs(5),
        }
    }
}

fn link(cfg: &Config) -> LinkCfg {
    LinkCfg {
        rate_bps: cfg.link_mbps * 1_000_000,
        delay: Duration::from_micros(100),
        queue_bytes: 256 * 1500,
        loss: 0.0,
    }
}

fn run_one(kind: TransportKind, cfg: &Config, file_size: usize, seed: u64) -> f64 {
    let l = link(cfg);
    let mut sc = Scenario::http_fleet(kind, cfg.clients, file_size, || Path::symmetric(l), seed);
    // Warm up connections briefly, then measure.
    sc.run_for(Duration::from_millis(500));
    let done0: u64 = sc
        .clients
        .iter()
        .map(|&id| sc.sim.hosts[id].as_client().unwrap().http_completed())
        .sum();
    let t0 = sc.sim.now;
    sc.run_for(cfg.duration);
    let done1: u64 = sc
        .clients
        .iter()
        .map(|&id| sc.sim.hosts[id].as_client().unwrap().http_completed())
        .sum();
    (done1 - done0) as f64 / (sc.sim.now - t0).as_secs_f64()
}

/// Run the sweep over `sizes` for all three transports, the MPTCP column
/// under `policy`: requests per second at each size.
pub fn sweep(cfg: Config, sizes: &[usize], seed: u64, policy: Policy) -> Figure {
    let mut fig = Figure::new("Figure 11: HTTP requests/sec vs transfer size (closed loop)")
        .column("size KB", 0)
        .column("MPTCP", 0)
        .column("bonding TCP", 0)
        .column("regular TCP", 0);
    let tcp = TcpConfig::with_buffers(512 * 1024);
    let mptcp = MptcpConfig::builder()
        .buffers(512 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(false)
        .cc(policy.cc)
        .scheduler(policy.sched)
        .build()
        .expect("fig11 config is valid");
    for &file_size in sizes {
        let kinds = [
            TransportKind::Mptcp(mptcp.clone()),
            TransportKind::BondedTcp(tcp.clone()),
            TransportKind::Tcp(tcp.clone()),
        ];
        let mut row = vec![(file_size / 1000).into()];
        row.extend(kinds.map(|kind| run_one(kind, &cfg, file_size, seed).into()));
        fig.row(row);
    }
    fig.notes.push(format!(
        "({} clients, 2 x {} Mbps links, {}s per point)",
        cfg.clients,
        cfg.link_mbps,
        cfg.duration.as_secs()
    ));
    fig.notes.extend(policy.note());
    fig
}

/// [`sweep`] over the paper's axis, 4 to 300 KB, with the default fleet;
/// four sizes and a four-client fleet for 2 s per point when `quick`.
pub fn figure(quick: bool, seed: u64, policy: Policy) -> Figure {
    if quick {
        let cfg = Config {
            clients: 4,
            duration: Duration::from_secs(2),
            ..Config::default()
        };
        return sweep(cfg, &[4_096, 30_000, 100_000, 300_000], seed, policy);
    }
    let sizes = [
        4_096, 16_384, 30_000, 65_536, 100_000, 150_000, 200_000, 300_000,
    ];
    sweep(Config::default(), &sizes, seed, policy)
}
