//! Figure 7: application-level latency PDF (8 KB blocks, 200 KB buffers,
//! WiFi + 3G).
//!
//! The app stamps each 8 KB block when it enters the send buffer and when
//! it is fully read at the receiver. Expected shape: regular MPTCP has a
//! long tail (blocks stuck behind the 3G path); MPTCP+M1,2 concentrates
//! mass at low delay; and — the paper's counterintuitive punchline —
//! plain TCP over WiFi is *slower* than MPTCP+M1,2 because 200 KB of send
//! buffer is overkill for an 8 Mbps path, so blocks queue at the sender.

use mptcp_netsim::{Duration, LinkCfg, Path};

use crate::hosts::{ClientApp, ServerApp};
use crate::metrics::AppDelayStats;
use crate::scenario::{Scenario, TransportKind};

use super::common::{wifi_3g_paths, Policy, Variant};

/// One curve of the PDF plot.
#[derive(Clone, Debug)]
pub struct Curve {
    /// Legend label.
    pub label: &'static str,
    /// Delay statistics.
    pub stats: AppDelayStats,
}

fn run_blocks(kind: TransportKind, paths: Vec<Path>, dur: Duration, seed: u64) -> AppDelayStats {
    let mut sc = Scenario::new(kind, ClientApp::Blocks, ServerApp::Sink, paths, seed);
    sc.run_for(dur);
    let sent = &sc.client().block_sent;
    let received = &sc.server().block_received;
    // Skip the first second's blocks (slow-start warmup).
    let skip = sent
        .iter()
        .take_while(|t| **t < mptcp_netsim::SimTime::from_secs(1))
        .count();
    AppDelayStats::from_stamps(
        &sent[skip.min(sent.len())..],
        &received[skip.min(received.len())..],
    )
}

/// Run all four Figure 7 curves with `buf`-byte buffers.
pub fn run(buf: usize, dur: Duration, seed: u64, policy: Policy) -> Vec<Curve> {
    let mut out = Vec::new();
    for (label, v) in [
        ("MPTCP + M1,2", Variant::MptcpM12),
        ("regular MPTCP", Variant::MptcpRegular),
    ] {
        out.push(Curve {
            label,
            stats: run_blocks(v.kind_with(buf, policy), wifi_3g_paths(), dur, seed),
        });
    }
    for (label, link) in [
        ("TCP over WiFi", LinkCfg::wifi()),
        ("TCP over 3G", LinkCfg::threeg()),
    ] {
        out.push(Curve {
            label,
            stats: run_blocks(
                Variant::Tcp.kind(buf),
                vec![Path::symmetric(link)],
                dur,
                seed,
            ),
        });
    }
    out
}
