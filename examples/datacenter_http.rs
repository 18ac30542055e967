//! Closed-loop HTTP serving over two parallel links (paper §5.3): the
//! apachebench comparison between regular TCP, round-robin bonding and
//! MPTCP, at one small and one large transfer size.
//!
//! ```sh
//! cargo run --release --example datacenter_http
//! ```

use mptcp_harness::experiments::common::Policy;
use mptcp_harness::experiments::fig11_http::{sweep, Config};
use mptcp_netsim::Duration;

fn main() {
    let cfg = Config {
        clients: 6,
        link_mbps: 100,
        duration: Duration::from_secs(3),
    };
    println!(
        "Closed-loop HTTP: {} clients, 2 x {} Mbps links, {}s per point\n",
        cfg.clients,
        cfg.link_mbps,
        cfg.duration.as_secs()
    );
    let sizes = [8_192usize, 30_000, 100_000, 300_000];
    let rows = sweep(cfg, &sizes, 2, Policy::default());
    println!(
        "{:>9} {:>12} {:>14} {:>14}",
        "size KB", "MPTCP", "bonding TCP", "regular TCP"
    );
    for row in rows {
        print!("{:>9}", row.file_size / 1000);
        for (_, rps) in &row.results {
            print!(" {:>11.0}/s", rps);
        }
        println!();
    }
    println!("\nExpected shape: TCP wins tiny files (no extra handshake),");
    println!("MPTCP pulls ahead as transfers grow past ~100 KB.");
}
