//! Figure 9: MPTCP over "real" 3G and WiFi, goodput vs buffer size.
//!
//! The paper used a commercial Belgian 3G network (TCP max ~2 Mbps) and a
//! WiFi AP rate-capped to 2 Mbps (FON-style shared hotspot). We emulate
//! both: 3G at 2 Mbps / 150 ms / 2 s buffer, WiFi capped at 2 Mbps /
//! 20 ms / 80 ms buffer. Expected shape: with 100 KB buffers MPTCP beats
//! single-path TCP by ~25%; at 500 KB it approaches 2× (both pipes full);
//! it never does worse than TCP.

use mptcp_netsim::{Duration, LinkCfg, Path};

use super::common::{run_bulk, Policy, Variant, UNTRACED};

/// Capped-WiFi link: 2 Mbps, 20 ms RTT, 80 ms buffer.
pub fn capped_wifi() -> LinkCfg {
    LinkCfg::with_buffer_time(
        2_000_000,
        Duration::from_millis(10),
        Duration::from_millis(80),
    )
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Buffer size (bytes).
    pub buf: usize,
    /// (label, goodput Mbps).
    pub results: Vec<(&'static str, f64)>,
}

/// Sweep the paper's buffer axis: 50, 100, 200, 500 KB. `policy` drives
/// the MPTCP row; the TCP baselines are single-path and unaffected.
pub fn sweep(bufs: &[usize], seed: u64, policy: Policy) -> Vec<Row> {
    let warm = Duration::from_secs(4);
    let meas = Duration::from_secs(25);
    bufs.iter()
        .map(|&buf| {
            let mut results = Vec::new();
            let mptcp_paths = vec![
                Path::symmetric(capped_wifi()),
                Path::symmetric(LinkCfg::threeg()),
            ];
            let r = run_bulk(
                Variant::MptcpM12,
                buf,
                mptcp_paths,
                warm,
                meas,
                seed,
                policy,
                UNTRACED,
            )
            .bulk;
            results.push(("MPTCP", r.goodput_mbps));
            let r = run_bulk(
                Variant::Tcp,
                buf,
                vec![Path::symmetric(capped_wifi())],
                warm,
                meas,
                seed,
                Policy::default(),
                UNTRACED,
            )
            .bulk;
            results.push(("TCP over WiFi", r.goodput_mbps));
            let r = run_bulk(
                Variant::Tcp,
                buf,
                vec![Path::symmetric(LinkCfg::threeg())],
                warm,
                meas,
                seed,
                Policy::default(),
                UNTRACED,
            )
            .bulk;
            results.push(("TCP over 3G", r.goodput_mbps));
            Row { buf, results }
        })
        .collect()
}

/// The paper's x-axis.
pub fn default_bufs() -> Vec<usize> {
    vec![50_000, 100_000, 200_000, 500_000]
}
