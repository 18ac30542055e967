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
use crate::report::Figure;
use crate::scenario::{Scenario, TransportKind};

use super::common::{wifi_3g_paths, Policy, Variant};

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

/// All four Figure 7 curves with 200 KB buffers over 30 s (10 s when
/// `quick`): each curve's delay summary, then its PDF.
pub fn figures(quick: bool, seed: u64, policy: Policy) -> [Figure; 2] {
    let (buf, dur) = (200_000, Duration::from_secs(if quick { 10 } else { 30 }));
    let mut curves = Vec::new();
    for (label, v) in [
        ("MPTCP + M1,2", Variant::MptcpM12),
        ("regular MPTCP", Variant::MptcpRegular),
    ] {
        let kind = v.kind_with(buf, policy);
        curves.push((label, run_blocks(kind, wifi_3g_paths(), dur, seed)));
    }
    for (label, link) in [
        ("TCP over WiFi", LinkCfg::wifi()),
        ("TCP over 3G", LinkCfg::threeg()),
    ] {
        let paths = vec![Path::symmetric(link)];
        curves.push((label, run_blocks(Variant::Tcp.kind(buf), paths, dur, seed)));
    }
    let mut summary = Figure::new("Figure 7: application-delay PDF (8 KB blocks, 200 KB buffers)")
        .column("curve", 0);
    for label in ["mean ms", "p50 ms", "p95 ms", "p99 ms"] {
        summary = summary.column(label, 1);
    }
    let mut pdf =
        Figure::new("Figure 7: application-delay PDF (50 ms bins, % of blocks)").column("bin", 0);
    for ms in (0..450).step_by(50) {
        pdf = pdf.column(ms.to_string(), 1);
    }
    let ms = |d: Duration| (d.as_secs_f64() * 1e3).into();
    for (label, stats) in &curves {
        let q = |p| ms(stats.quantile(p));
        summary.row(vec![
            (*label).into(),
            ms(stats.mean()),
            q(0.5),
            q(0.95),
            q(0.99),
        ]);
        let bins = stats.pdf(Duration::from_millis(50), Duration::from_millis(400));
        let row = std::iter::once((*label).into()).chain(bins.into_iter().map(|(_, p)| p.into()));
        pdf.row(row.collect());
    }
    summary.notes.extend(policy.note());
    [summary, pdf]
}
