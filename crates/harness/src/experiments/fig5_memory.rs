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

use super::common::{run_bulk, wifi_3g_paths, Policy, Variant, UNTRACED};

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Configured max buffer (bytes).
    pub buf: usize,
    /// (variant label, mean sender memory, mean receiver memory).
    pub results: Vec<(&'static str, f64, f64)>,
}

/// Run the memory sweep with autotuning enabled everywhere.
pub fn sweep(bufs: &[usize], seed: u64, policy: Policy) -> Vec<Row> {
    let warm = Duration::from_secs(3);
    let meas = Duration::from_secs(15);
    bufs.iter()
        .map(|&buf| {
            let mut results = Vec::new();
            for (label, v) in [
                ("MPTCP+M1,2,3,4", Variant::MptcpAll),
                ("MPTCP+M1,2,3", Variant::MptcpM123),
            ] {
                let r = run_bulk(v, buf, wifi_3g_paths(), warm, meas, seed, policy, UNTRACED).bulk;
                results.push((label, r.sender_mem, r.receiver_mem));
            }
            // Autotuned TCP baselines.
            for (label, link) in [
                ("TCP over WiFi", LinkCfg::wifi()),
                ("TCP over 3G", LinkCfg::threeg()),
            ] {
                let r = run_tcp_autotuned(buf, link, warm, meas, seed);
                results.push((label, r.0, r.1));
            }
            Row { buf, results }
        })
        .collect()
}

fn run_tcp_autotuned(
    buf: usize,
    link: LinkCfg,
    warm: Duration,
    meas: Duration,
    seed: u64,
) -> (f64, f64) {
    use crate::hosts::{ClientApp, ServerApp};
    use crate::scenario::{Scenario, TransportKind};
    let cfg = super::common::tcp_cfg(buf, true);
    let mut sc = Scenario::new(
        TransportKind::Tcp(cfg),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        vec![Path::symmetric(link)],
        seed,
    );
    sc.run_for(warm);
    let t0 = sc.sim.now;
    sc.run_for(meas);
    let smem = sc.client().mem_sampler.mean_after(t0);
    let rmem = sc.server().mem_sampler.mean_after(t0);
    (smem, rmem)
}

/// Default x-axis: 100 KB – 1 MB.
pub fn default_bufs() -> Vec<usize> {
    vec![100_000, 200_000, 400_000, 600_000, 800_000, 1_000_000]
}
