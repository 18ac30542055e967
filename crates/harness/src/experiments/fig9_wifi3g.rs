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
use crate::report::Figure;

/// Capped-WiFi link: 2 Mbps, 20 ms RTT, 80 ms buffer.
pub fn capped_wifi() -> LinkCfg {
    LinkCfg::with_buffer_time(
        2_000_000,
        Duration::from_millis(10),
        Duration::from_millis(80),
    )
}

/// Sweep the paper's buffer axis, 50 to 500 KB (100 and 500 KB when
/// `quick`). `policy` drives the MPTCP column; the TCP baselines are
/// single-path and unaffected.
pub fn figure(quick: bool, seed: u64, policy: Policy) -> Figure {
    let bufs: &[usize] = if quick {
        &[100_000, 500_000]
    } else {
        &[50_000, 100_000, 200_000, 500_000]
    };
    let (warm, meas) = (Duration::from_secs(4), Duration::from_secs(25));
    let runs = [
        ("MPTCP", Variant::MptcpM12, capped_wifi(), policy),
        (
            "TCP over WiFi",
            Variant::Tcp,
            capped_wifi(),
            Policy::default(),
        ),
        (
            "TCP over 3G",
            Variant::Tcp,
            LinkCfg::threeg(),
            Policy::default(),
        ),
    ];
    let mut fig = Figure::new(
        "Figure 9: MPTCP over real-like 3G and capped WiFi (both 2 Mbps), goodput Mbps",
    )
    .column("buf KB", 0);
    for (label, ..) in &runs {
        fig = fig.column(*label, 2);
    }
    for &buf in bufs {
        let mut row = vec![(buf / 1000).into()];
        for (_, v, link, policy) in &runs {
            let mut paths = vec![Path::symmetric(*link)];
            if *v == Variant::MptcpM12 {
                paths.push(Path::symmetric(LinkCfg::threeg()));
            }
            let r = run_bulk(*v, buf, paths, warm, meas, seed, *policy, UNTRACED).bulk;
            row.push(r.goodput_mbps.into());
        }
        fig.row(row);
    }
    fig.notes.extend(policy.note());
    fig
}
