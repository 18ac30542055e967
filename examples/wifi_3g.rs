//! The mobile scenario (paper §4.2/§5.1): sweep the receive buffer over
//! WiFi + 3G and watch the mechanisms earn their keep.
//!
//! ```sh
//! cargo run --release --example wifi_3g
//! ```

use mptcp_harness::experiments::common::{run_bulk, wifi_3g_paths, Policy, Variant, UNTRACED};
use mptcp_harness::Figure;
use mptcp_netsim::{Duration, LinkCfg, Path};

fn main() {
    let warm = Duration::from_secs(2);
    let meas = Duration::from_secs(12);
    let variants = [
        ("TCP (WiFi)", Variant::Tcp),
        ("regular MPTCP", Variant::MptcpRegular),
        ("MPTCP+M1", Variant::MptcpM1),
        ("MPTCP+M1,2", Variant::MptcpM12),
    ];
    let mut fig = Figure::new(
        "Receive-buffer sweep over WiFi 8 Mbps/20 ms + 3G 2 Mbps/150 ms, goodput Mbps \
         (compare with the paper's Figure 4)",
    )
    .column("buf KB", 0);
    for (label, _) in variants {
        fig = fig.column(label, 2);
    }
    for buf in [100_000usize, 200_000, 400_000, 800_000] {
        let mut row = vec![(buf / 1000).into()];
        for (_, v) in variants {
            let paths = match v {
                Variant::Tcp => vec![Path::symmetric(LinkCfg::wifi())],
                _ => wifi_3g_paths(),
            };
            let r = run_bulk(v, buf, paths, warm, meas, 1, Policy::default(), UNTRACED);
            row.push(r.bulk.goodput_mbps.into());
        }
        fig.row(row);
    }
    print!("{fig}");
    println!("\nExpected shape: regular MPTCP trails TCP over WiFi at every buffer");
    println!("shown, and M1 alone does not close the gap (it re-sends, but the slow");
    println!("subflow keeps its window). M1+M2 beats TCP from 100 KB on and carries");
    println!("about 9 of the 10 Mbps link sum at 400 KB.");
}
