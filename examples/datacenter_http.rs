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
    let sizes = [8_192usize, 30_000, 100_000, 300_000];
    print!("{}", sweep(cfg, &sizes, 2, Policy::default()));
    println!("\nExpected shape: TCP wins tiny files (no extra handshake),");
    println!("MPTCP pulls ahead as transfers grow past ~100 KB.");
}
