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

use mptcp_netsim::{LinkCfg, Path};

use super::common::{
    run_bulk, wifi_3g_paths, BulkResult, Policy, Variant, MEASURE, UNTRACED, WARMUP,
};
use crate::report::Figure;

/// The variants Figure 4 plots.
const VARIANTS: [Variant; 4] = [
    Variant::Tcp,          // over WiFi (path 0)
    Variant::MptcpRegular, // panel (a)
    Variant::MptcpM1,      // panel (b)
    Variant::MptcpM12,     // panel (c)
];

/// TCP over the 3G interface.
fn run_tcp_3g(buf: usize, seed: u64) -> BulkResult {
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

/// Sweep the paper's buffer axis, 50 KB to 1 MB (four points when
/// `quick`): each variant's goodput and M1's throughput, with TCP over 3G
/// and the tightest buffer's MPTCP+M1,2 telemetry as notes.
pub fn figure(quick: bool, seed: u64, policy: Policy) -> Figure {
    let bufs: &[usize] = if quick {
        &[100_000, 200_000, 400_000, 1_000_000]
    } else {
        &[
            50_000, 100_000, 200_000, 300_000, 400_000, 600_000, 800_000, 1_000_000,
        ]
    };
    let mut fig =
        Figure::new("Figure 4: throughput vs receive buffer (WiFi 8M/20ms + 3G 2M/150ms), Mbps")
            .column("buf KB", 0);
    for v in VARIANTS {
        fig = fig.column(v.label(), 2);
    }
    fig = fig.column("M1 thruput", 2);
    let mut telemetry = None;
    for &buf in bufs {
        let mut row = vec![(buf / 1000).into()];
        let mut m1_thru = 0.0;
        for v in VARIANTS {
            let paths = match v {
                Variant::Tcp => vec![Path::symmetric(LinkCfg::wifi())],
                _ => wifi_3g_paths(),
            };
            let r = run_bulk(v, buf, paths, WARMUP, MEASURE, seed, policy, UNTRACED).bulk;
            row.push(r.goodput_mbps.into());
            if v == Variant::MptcpM1 {
                m1_thru = r.throughput_mbps;
            }
            // The tightest buffer is where M1/M2 earn their keep.
            if v == Variant::MptcpM12 && telemetry.is_none() {
                let table = r.telemetry.render_table();
                let kb = buf / 1000;
                telemetry = Some(format!(
                    "MPTCP+M1,2 telemetry at {kb} KB:\n{}",
                    table.trim_end()
                ));
            }
        }
        row.push(m1_thru.into());
        fig.row(row);
    }
    let tcp3g = run_tcp_3g(500_000, seed).goodput_mbps;
    fig.notes
        .push(format!("(TCP over 3G at 500 KB: {tcp3g:.2} Mbps)"));
    fig.notes.extend(telemetry);
    fig.notes.extend(policy.note());
    fig
}
