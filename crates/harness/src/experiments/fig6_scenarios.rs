//! Figure 6: the receive-buffer optimizations across three topologies.
//!
//! (a) WiFi + a *very* lossy/slow 3G link (50 Kbps, 2 s of buffer): with
//!     ~200 KB buffers, M1+M2 improve MPTCP throughput roughly tenfold
//!     because a loss on 3G otherwise stalls the whole connection behind
//!     a multi-second retransmission.
//! (b) 1 Gbps + 100 Mbps (inter-datacenter asymmetry): MPTCP+M1,2 fills
//!     both with ~250 KB of buffer; regular MPTCP needs megabytes before
//!     it even matches TCP on the faster interface.
//! (c) Three symmetric 1 Gbps links: when paths are equal, underbuffered
//!     MPTCP naturally sticks to one path, so regular ≈ M1,2 everywhere.

use mptcp_netsim::{Duration, LinkCfg, Path};

use super::common::{run_bulk, Policy, Variant, UNTRACED};
use crate::report::Figure;

/// A WAN-ish link: 10 ms one-way, one base-RTT of buffer.
fn wan(rate_bps: u64) -> LinkCfg {
    LinkCfg::with_buffer_time(
        rate_bps,
        Duration::from_millis(10),
        Duration::from_millis(20),
    )
}

/// Which Figure 6 panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Panel {
    /// WiFi + weak 3G.
    WeakCellular,
    /// 1 Gbps + 100 Mbps.
    Asymmetric,
    /// Three 1 Gbps links.
    Symmetric3,
}

impl Panel {
    /// Paths for the panel's MPTCP run.
    pub fn paths(&self) -> Vec<Path> {
        match self {
            Panel::WeakCellular => vec![
                Path::symmetric(LinkCfg::wifi()),
                Path::symmetric(LinkCfg::threeg_weak()),
            ],
            // Inter-datacenter framing (the paper's own description of
            // panel b): 10 ms of propagation with a BDP-scale buffer, so
            // queueing noise does not dwarf the base RTT.
            Panel::Asymmetric => vec![
                Path::symmetric(wan(1_000_000_000)),
                Path::symmetric(wan(100_000_000)),
            ],
            Panel::Symmetric3 => vec![
                Path::symmetric(wan(1_000_000_000)),
                Path::symmetric(wan(1_000_000_000)),
                Path::symmetric(wan(1_000_000_000)),
            ],
        }
    }

    /// TCP baselines: (label, single path).
    pub fn baselines(&self) -> Vec<(&'static str, Path)> {
        match self {
            Panel::WeakCellular => vec![
                ("TCP over WiFi", Path::symmetric(LinkCfg::wifi())),
                ("TCP over 3G", Path::symmetric(LinkCfg::threeg_weak())),
            ],
            Panel::Asymmetric => vec![
                ("TCP over 1Gbps itf", Path::symmetric(wan(1_000_000_000))),
                ("TCP over 100Mbps itf", Path::symmetric(wan(100_000_000))),
            ],
            Panel::Symmetric3 => vec![("TCP over 1Gbps itf", Path::symmetric(wan(1_000_000_000)))],
        }
    }

    /// Buffer sweep matching the paper's axes (its first three points
    /// when `quick`).
    fn bufs(&self, quick: bool) -> Vec<usize> {
        let mut bufs = match self {
            Panel::WeakCellular => vec![100_000, 200_000, 500_000, 1_000_000, 2_000_000],
            _ => vec![
                250_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000,
            ],
        };
        if quick {
            bufs.truncate(3);
        }
        bufs
    }

    /// Measurement window (high-rate panels need less simulated time).
    pub fn windows(&self) -> (Duration, Duration) {
        match self {
            Panel::WeakCellular => (Duration::from_secs(5), Duration::from_secs(30)),
            _ => (Duration::from_secs(1), Duration::from_secs(3)),
        }
    }
}

/// Run one panel's buffer sweep: goodput of MPTCP+M1,2, regular MPTCP
/// and the panel's TCP baselines.
pub fn figure(panel: Panel, quick: bool, seed: u64, policy: Policy) -> Figure {
    let (warm, meas) = panel.windows();
    let mptcp = [
        ("MPTCP+M1,2", Variant::MptcpM12),
        ("regular MPTCP", Variant::MptcpRegular),
    ];
    let mut fig = Figure::new(format!("Figure 6 {panel:?}: goodput vs buffer size, Mbps"))
        .column("buf KB", 0);
    for label in mptcp
        .iter()
        .map(|m| m.0)
        .chain(panel.baselines().iter().map(|b| b.0))
    {
        fig = fig.column(label, 2);
    }
    for buf in panel.bufs(quick) {
        let mut row = vec![(buf / 1000).into()];
        for (_, v) in mptcp {
            let r = run_bulk(v, buf, panel.paths(), warm, meas, seed, policy, UNTRACED).bulk;
            row.push(r.goodput_mbps.into());
        }
        for (_, path) in panel.baselines() {
            let paths = vec![path];
            let r = run_bulk(Variant::Tcp, buf, paths, warm, meas, seed, policy, UNTRACED).bulk;
            row.push(r.goodput_mbps.into());
        }
        fig.row(row);
    }
    fig.notes.extend(policy.note());
    fig
}
