//! Figure 4: throughput vs receive-buffer size over emulated WiFi + 3G.
//!
//! Paper setup: WiFi 8 Mbps / 20 ms RTT / 80 ms buffer; 3G 2 Mbps /
//! 150 ms RTT / 2 s buffer. Sweep the (symmetric) send/receive buffer and
//! compare TCP on each interface, regular MPTCP, MPTCP+M1 (goodput *and*
//! throughput — M1's duplicate transmissions show up as the gap), and
//! MPTCP+M1,2.
//!
//! Expected shape: regular MPTCP *underperforms TCP-over-WiFi* below
//! ~400 KB (the paper's headline pathology), +M1 roughly matches it, and
//! +M1,2 matches or beats it everywhere while approaching the 10 Mbps
//! aggregate as buffers grow.

use mptcp_netsim::{Duration, LinkCfg, Path};

use super::common::{
    run_bulk, wifi_3g_paths, BulkResult, Policy, Variant, MEASURE, UNTRACED, WARMUP,
};

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Configured buffer (bytes).
    pub buf: usize,
    /// Per-variant results, in the order of [`variants`].
    pub results: Vec<(Variant, BulkResult)>,
}

/// The variants Figure 4 plots.
pub fn variants() -> Vec<Variant> {
    vec![
        Variant::Tcp,          // over WiFi (path 0)
        Variant::MptcpRegular, // panel (a)
        Variant::MptcpM1,      // panel (b)
        Variant::MptcpM12,     // panel (c)
    ]
}

/// TCP over the 3G interface (needs a path list starting with 3G).
pub fn run_tcp_3g(buf: usize, seed: u64) -> BulkResult {
    run_bulk(
        Variant::Tcp,
        buf,
        vec![Path::symmetric(LinkCfg::threeg())],
        WARMUP,
        MEASURE,
        seed,
        Policy::default(),
        UNTRACED,
    )
    .bulk
}

/// Run the full sweep. `bufs` in bytes (paper: 0–1000 KB).
pub fn sweep(bufs: &[usize], seed: u64, policy: Policy) -> Vec<Row> {
    bufs.iter()
        .map(|&buf| {
            let results = variants()
                .into_iter()
                .map(|v| {
                    let paths = match v {
                        Variant::Tcp => vec![Path::symmetric(LinkCfg::wifi())],
                        _ => wifi_3g_paths(),
                    };
                    (
                        v,
                        run_bulk(v, buf, paths, WARMUP, MEASURE, seed, policy, UNTRACED).bulk,
                    )
                })
                .collect();
            Row { buf, results }
        })
        .collect()
}

/// The paper's x-axis: ~8 points from 50 KB to 1 MB.
pub fn default_bufs() -> Vec<usize> {
    vec![
        50_000, 100_000, 200_000, 300_000, 400_000, 600_000, 800_000, 1_000_000,
    ]
}

/// Shorter windows for tests.
pub fn quick(buf: usize, v: Variant, seed: u64) -> BulkResult {
    let paths = match v {
        Variant::Tcp => vec![Path::symmetric(LinkCfg::wifi())],
        _ => wifi_3g_paths(),
    };
    run_bulk(
        v,
        buf,
        paths,
        Duration::from_secs(2),
        Duration::from_secs(8),
        seed,
        Policy::default(),
        UNTRACED,
    )
    .bulk
}
