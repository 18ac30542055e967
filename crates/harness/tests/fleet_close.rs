//! What a closed-loop HTTP fleet leaves on its server.
//!
//! A client reconnects the moment it reads EOF. The connection it leaves
//! behind has to have acknowledged the whole response first, or the
//! server keeps those bytes for as long as it keeps the connection:
//! thousands of responses over a run. Only the response a client is still
//! reading may be unacknowledged when the run stops.

use std::collections::HashMap;

use mptcp::{Mechanisms, MptcpConfig};
use mptcp_harness::{Scenario, TransportKind};
use mptcp_netsim::{Duration, LinkCfg, Path};

#[test]
fn a_fleet_server_holds_at_most_one_unacknowledged_response_per_client() {
    let cfg = MptcpConfig::builder()
        .buffers(512 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(false)
        .build()
        .expect("fig11 config is valid");
    let link = LinkCfg {
        rate_bps: 100_000_000,
        delay: Duration::from_micros(100),
        queue_bytes: 256 * 1500,
        loss: 0.0,
    };
    let mut sc = Scenario::http_fleet(
        TransportKind::Mptcp(cfg),
        10,
        30_000,
        || Path::symmetric(link),
        3,
    );
    sc.run_for(Duration::from_millis(200));
    let completed: u64 = sc
        .clients
        .iter()
        .map(|&id| sc.sim.hosts[id].as_client().unwrap().http_completed())
        .sum();
    assert!(completed > 100, "only {completed} responses completed");
    // Server connections still holding response bytes, by client address.
    let mut holding: HashMap<u32, usize> = HashMap::new();
    for conn in &sc.server().listener.conns {
        if conn.sender_memory() > 0 {
            let client = conn.subflows()[0].sock.tuple().dst.addr;
            *holding.entry(client).or_default() += 1;
        }
    }
    let worst = holding.values().max().copied().unwrap_or(0);
    assert!(
        worst <= 1,
        "a client left {worst} unacknowledged responses behind ({holding:?})"
    );
}
