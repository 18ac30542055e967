//! Quickstart: an MPTCP bulk transfer over emulated WiFi + 3G, compared
//! with plain TCP on each interface.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mptcp::{Mechanisms, MptcpConfig};
use mptcp_harness::experiments::common::{run_bulk, Policy, Variant, UNTRACED};
use mptcp_harness::hosts::{ClientApp, Node, ServerApp};
use mptcp_harness::scenario::{Scenario, TransportKind};
use mptcp_netsim::{Duration, LinkCfg, Path, Sim};

fn main() {
    println!("MPTCP quickstart: 10 MB over WiFi (8 Mbps) + 3G (2 Mbps)\n");

    // --- The level-of-detail view: build a scenario by hand. -----------
    let cfg = MptcpConfig::builder()
        .buffers(512 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .build()
        .expect("config is valid");
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total: 10_000_000,
            written: 0,
            close_when_done: true,
        },
        ServerApp::Sink,
        vec![
            Path::symmetric(LinkCfg::wifi()),
            Path::symmetric(LinkCfg::threeg()),
        ],
        42,
    );
    // Time the transfer to the server's read of its last byte, with 60 s
    // as the deadline.
    let t0 = sc.sim.now;
    let server = sc.server;
    let received = |sim: &Sim<Node>| sim.hosts[server].as_server().unwrap().app_bytes_received;
    sc.sim.run_while(t0 + Duration::from_secs(60), |sim| {
        received(sim) < 10_000_000
    });
    let bytes = sc.server().app_bytes_received;
    let secs = (sc.sim.now - t0).as_secs_f64();
    println!(
        "MPTCP (M1,2):   {:>6.2} Mbps   ({} bytes in {:.1} s)",
        bytes as f64 * 8.0 / secs / 1e6,
        bytes,
        secs
    );
    if let mptcp_harness::transport::Transport::Mptcp(conn) = &sc.client().transport {
        for (i, sf) in conn.subflows().iter().enumerate() {
            println!(
                "  subflow {i}: {} bytes acked, srtt {:?}",
                sf.sock.stats.bytes_acked,
                sf.sock.srtt()
            );
        }
    }

    // --- The one-liner view: the harness's bulk runner. ----------------
    for (label, variant, paths) in [
        (
            "TCP over WiFi",
            Variant::Tcp,
            vec![Path::symmetric(LinkCfg::wifi())],
        ),
        (
            "TCP over 3G  ",
            Variant::Tcp,
            vec![Path::symmetric(LinkCfg::threeg())],
        ),
    ] {
        let r = run_bulk(
            variant,
            512 * 1024,
            paths,
            Duration::from_secs(2),
            Duration::from_secs(15),
            42,
            Policy::default(),
            UNTRACED,
        )
        .bulk;
        println!("{label}:  {:>6.2} Mbps", r.goodput_mbps);
    }
}
