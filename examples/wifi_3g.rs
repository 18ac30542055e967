//! The mobile scenario (paper §4.2/§5.1): sweep the receive buffer over
//! WiFi + 3G and watch the mechanisms earn their keep.
//!
//! ```sh
//! cargo run --release --example wifi_3g
//! ```

use mptcp_harness::experiments::common::{run_bulk, wifi_3g_paths, Policy, Variant, UNTRACED};
use mptcp_netsim::{Duration, LinkCfg, Path};

fn main() {
    println!("Receive-buffer sweep over WiFi 8 Mbps/20 ms + 3G 2 Mbps/150 ms");
    println!("(goodput in Mbps; compare with the paper's Figure 4)\n");
    let warm = Duration::from_secs(2);
    let meas = Duration::from_secs(12);
    println!(
        "{:>8} {:>14} {:>16} {:>12} {:>12}",
        "buf KB", "TCP (WiFi)", "regular MPTCP", "MPTCP+M1", "MPTCP+M1,2"
    );
    for buf in [100_000usize, 200_000, 400_000, 800_000] {
        let run = |v, paths| run_bulk(v, buf, paths, warm, meas, 1, Policy::default(), UNTRACED);
        let tcp = run(Variant::Tcp, vec![Path::symmetric(LinkCfg::wifi())]).bulk;
        let reg = run(Variant::MptcpRegular, wifi_3g_paths()).bulk;
        let m1 = run(Variant::MptcpM1, wifi_3g_paths()).bulk;
        let m12 = run(Variant::MptcpM12, wifi_3g_paths()).bulk;
        println!(
            "{:>8} {:>14.2} {:>16.2} {:>12.2} {:>12.2}",
            buf / 1000,
            tcp.goodput_mbps,
            reg.goodput_mbps,
            m1.goodput_mbps,
            m12.goodput_mbps
        );
    }
    println!("\nExpected shape: regular MPTCP trails TCP over WiFi at every buffer");
    println!("shown, and M1 alone does not close the gap (it re-sends, but the slow");
    println!("subflow keeps its window). M1+M2 beats TCP from 100 KB on and carries");
    println!("about 9 of the 10 Mbps link sum at 400 KB.");
}
