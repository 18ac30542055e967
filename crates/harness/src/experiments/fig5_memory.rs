//! Figure 5: sender/receiver memory vs configured maximum receive buffer.
//!
//! With autotuning (M3) the stack grows buffers only as needed; with
//! capping (M4) it additionally refuses to fill bufferbloated 3G queues.
//! Expected shape: MPTCP+M1,2,3 memory grows with the configured cap
//! toward ~500 KB; adding M4 roughly halves it at large configurations;
//! TCP-over-WiFi stays smallest, TCP-over-3G in between. Receiver memory
//! is a substantial fraction of the sender's (multipath reordering), near
//! zero for single-path TCP.

use mptcp_netsim::{Duration, LinkCfg, Path};

use super::common::{
    measure_bulk, run_bulk, tcp_cfg, wifi_3g_paths, BulkResult, Policy, Variant, UNTRACED,
};
use crate::hosts::{ClientApp, ServerApp};
use crate::report::{Figure, Value};
use crate::scenario::{Scenario, TransportKind};

/// The memory sweep with autotuning enabled everywhere, over 100 KB to
/// 1 MB of configured buffer (three points when `quick`): each variant's
/// mean sender and receiver memory, and its goodput — memory alone cannot
/// tell a one-path connection from a multipath one.
pub fn figure(quick: bool, seed: u64, policy: Policy) -> Figure {
    let bufs: &[usize] = if quick {
        &[200_000, 600_000, 1_000_000]
    } else {
        &[100_000, 200_000, 400_000, 600_000, 800_000, 1_000_000]
    };
    let warm = Duration::from_secs(3);
    let meas = Duration::from_secs(15);
    let mptcp = [
        ("MPTCP+M1,2,3,4", Variant::MptcpAll),
        ("MPTCP+M1,2,3", Variant::MptcpM123),
    ];
    // Autotuned TCP baselines.
    let tcp = [
        ("TCP over WiFi", LinkCfg::wifi()),
        ("TCP over 3G", LinkCfg::threeg()),
    ];
    let mut fig =
        Figure::new("Figure 5: memory used vs configured receive buffer (autotuning), mean bytes")
            .column("buf KB", 0);
    for label in mptcp.iter().map(|m| m.0).chain(tcp.iter().map(|t| t.0)) {
        fig = fig
            .column(format!("{label} sender"), 0)
            .column(format!("{label} receiver"), 0)
            .column(format!("{label} Mbit/s"), 2);
    }
    for &buf in bufs {
        let mptcp = mptcp.map(|(_, v)| {
            run_bulk(v, buf, wifi_3g_paths(), warm, meas, seed, policy, UNTRACED).bulk
        });
        let tcp = tcp.map(|(_, link)| run_tcp_autotuned(buf, link, warm, meas, seed));
        let mut row: Vec<Value> = vec![(buf / 1000).into()];
        for r in mptcp.iter().chain(&tcp) {
            row.extend([
                r.sender_mem.into(),
                r.receiver_mem.into(),
                r.goodput_mbps.into(),
            ]);
        }
        fig.row(row);
    }
    fig.notes.extend(policy.note());
    fig
}

/// One plain-TCP bulk run over `link` with autotuned buffers, measured
/// like [`run_bulk`].
pub fn run_tcp_autotuned(
    buf: usize,
    link: LinkCfg,
    warm: Duration,
    meas: Duration,
    seed: u64,
) -> BulkResult {
    let mut sc = Scenario::new(
        TransportKind::Tcp(tcp_cfg(buf, true)),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        vec![Path::symmetric(link)],
        seed,
    );
    measure_bulk(&mut sc, warm, meas).bulk
}
