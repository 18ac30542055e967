//! Figure 8: receiver CPU load for the four out-of-order queue algorithms.
//!
//! A client bulk-sends over two 1 Gbps paths with 2 or 8 subflows; the
//! server's connection-level reorder queue counts its operations (node
//! visits / comparisons). CPU utilization is modelled as
//!
//! ```text
//! util% = pkts/s · (T_pkt + T_opt·[mptcp] + ops_per_pkt · T_op) / 10⁹ · 100
//! ```
//!
//! with per-packet and per-op costs calibrated so the TCP baseline sits in
//! the paper's ~15–18% band (2006 Xeon-class constants; see EXPERIMENTS.md).
//! The reproduction target is the *ordering and ratios*: Regular ≫ Tree >
//! Shortcuts > AllShortcuts, all above TCP, with the gap growing from 2 to
//! 8 subflows.

use mptcp::{Mechanisms, MptcpConfig, ReorderAlgo};

use super::common::Policy;
use mptcp_netsim::{Duration, LinkCfg, Path};
use mptcp_packet::Endpoint;

use crate::hosts::{ClientApp, ServerApp};
use crate::report::{Figure, Value};
use crate::scenario::{Endpoints, Scenario, TransportKind};

/// Modelled fixed per-packet receive cost (ns).
pub const T_PKT_NS: f64 = 900.0;
/// Extra per-packet MPTCP option processing (ns).
pub const T_OPT_NS: f64 = 350.0;
/// Cost per reorder-queue operation (ns).
pub const T_OP_NS: f64 = 120.0;

/// Run one (algorithm, subflow-count) cell: its bar, and the packet rate
/// (per second) its goodput implies on the wire.
fn run_cell(algo: ReorderAlgo, nsub: usize, seed: u64, policy: Policy) -> (Vec<Value>, f64) {
    let cfg = MptcpConfig::builder()
        .buffers(8 * 1024 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .reorder(algo)
        .checksum(false)
        .cc(policy.cc)
        .scheduler(policy.sched)
        .build()
        .expect("fig8 config is valid");
    let paths = vec![
        Path::symmetric(LinkCfg::gigabit()),
        Path::symmetric(LinkCfg::gigabit()),
    ];
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        paths,
        seed,
    );
    // Establish the base 2 subflows, then add extras on alternating paths.
    sc.run_for(Duration::from_millis(200));
    {
        let now = sc.sim.now;
        let conn = sc.client_mut().transport.as_mptcp().unwrap();
        for i in 2..nsub {
            let side = i % 2;
            let _ = conn.open_subflow(
                Endpoint::new(Endpoints::CLIENT[side], 30_000 + i as u16),
                Endpoint::new(Endpoints::SERVER[side], Endpoints::PORT),
                now,
            );
        }
    }
    sc.run_for(Duration::from_millis(300));

    // Measurement window.
    let (ops0, _ins0, _hits0, pkts0, bytes0) = snapshot(&mut sc);
    let t0 = sc.sim.now;
    sc.run_for(Duration::from_secs(2));
    let win = (sc.sim.now - t0).as_secs_f64();
    let (ops1, ins1, hits1, pkts1, bytes1) = snapshot(&mut sc);

    let pkts = (pkts1 - pkts0) as f64;
    let ops = (ops1 - ops0) as f64;
    let pkts_per_sec = pkts / win;
    let ops_per_pkt = if pkts > 0.0 { ops / pkts } else { 0.0 };
    let util = pkts_per_sec * (T_PKT_NS + T_OPT_NS + ops_per_pkt * T_OP_NS) / 1e9 * 100.0;
    let hit_rate = if ins1 > 0 {
        hits1 as f64 / ins1 as f64
    } else {
        0.0
    };
    let goodput_mbps = crate::metrics::Rates::mbps(bytes1 - bytes0, sc.sim.now - t0);
    let bar = vec![
        format!("{algo:?}").into(),
        nsub.into(),
        util.into(),
        ops_per_pkt.into(),
        (hit_rate * 100.0).into(),
        goodput_mbps.into(),
    ];
    (bar, goodput_mbps * 1e6 / 8.0 / 1460.0)
}

fn snapshot(sc: &mut Scenario) -> (u64, u64, u64, u64, u64) {
    let bytes = sc.server().app_bytes_received;
    let server = sc.server();
    let conn = &server.listener.conns[0];
    let pkts: u64 = conn.subflows().iter().map(|s| s.sock.stats.segs_in).sum();
    let ooo = conn.reorder_queue();
    (ooo.ops(), ooo.inserts(), ooo.shortcut_hits(), pkts, bytes)
}

/// The whole figure: all algorithms × {2, 8} subflows, then the TCP
/// baseline bar — the same packet rate with no reorder queue and no
/// options, which has no shortcut pointers and whose goodput is not
/// measured.
pub fn figure(seed: u64, policy: Policy) -> Figure {
    let mut fig = Figure::new("Figure 8: receiver CPU load by reorder algorithm (2 x 1 Gbps)")
        .column("algorithm", 0)
        .column("subflows", 0)
        .column("CPU %", 1)
        .column("ops/packet", 2)
        .column("hit rate %", 0)
        .column("goodput Mbps", 0);
    let mut pkt_rate_estimate = 0.0f64;
    for nsub in [2usize, 8] {
        for algo in [
            ReorderAlgo::Regular,
            ReorderAlgo::Tree,
            ReorderAlgo::Shortcuts,
            ReorderAlgo::AllShortcuts,
        ] {
            let (bar, pkt_rate) = run_cell(algo, nsub, seed, policy);
            // Estimate the wire packet rate from goodput for the baseline.
            pkt_rate_estimate = pkt_rate_estimate.max(pkt_rate);
            fig.row(bar);
        }
    }
    let tcp_util = pkt_rate_estimate * T_PKT_NS / 1e9 * 100.0;
    fig.row(vec![
        "TCP".into(),
        2usize.into(),
        tcp_util.into(),
        0.0.into(),
        Value::Unmeasured,
        Value::Unmeasured,
    ]);
    fig.notes.extend(policy.note());
    fig
}
