//! Fallback behaviour through the full simulator with real middlebox
//! models in the path — §3.1, §3.3.6 and §4.1.

use mptcp::telemetry::CounterId;
use mptcp::{Mechanisms, MptcpConfig};
use mptcp_harness::hosts::{ClientApp, ServerApp};
use mptcp_harness::scenario::{Scenario, TransportKind};
use mptcp_harness::transport::Transport;
use mptcp_middlebox::{OptionStripper, PayloadModifier, SegmentCoalescer, StripMode};
use mptcp_netsim::{Duration, LinkCfg, Path, SimTime};

const SEED: u64 = 43;
const TRANSFER: usize = 150_000;

fn link() -> LinkCfg {
    LinkCfg {
        rate_bps: 10_000_000,
        delay: Duration::from_millis(10),
        queue_bytes: 64 * 1500,
        loss: 0.0,
    }
}

fn mptcp_cfg() -> MptcpConfig {
    MptcpConfig::builder()
        .buffers(256 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .build()
        .expect("config is valid")
}

fn scenario(paths: Vec<Path>) -> Scenario {
    Scenario::new(
        TransportKind::Mptcp(mptcp_cfg()),
        ClientApp::Bulk {
            total: TRANSFER,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        paths,
        SEED,
    )
}

fn conn(sc: &Scenario) -> &mptcp::MptcpConnection {
    match &sc.client().transport {
        Transport::Mptcp(c) => c,
        _ => panic!("expected mptcp"),
    }
}

#[test]
fn data_option_stripping_falls_back_and_delivers() {
    // Negotiation succeeds, but a route change puts a DSS-eating box in
    // the path: both ends must detect and continue as plain TCP.
    let p = Path::symmetric(link())
        .with_middlebox(Box::new(OptionStripper::mptcp(StripMode::DataOnly)));
    let mut sc = scenario(vec![p]);
    sc.run_for(Duration::from_secs(20));
    assert_eq!(sc.server().app_bytes_received, TRANSFER as u64);
    assert!(conn(&sc).is_fallback());
}

/// A fallen-back connection is still held to the buffers it was configured
/// with: a 50 MB bulk write into a 50 KB/s reader behind `mode`'s option
/// stripper, sampled every second for 10 s.
fn fallback_keeps_the_configured_buffers(mode: StripMode) {
    const CAP: usize = 256 * 1024;
    let p = Path::symmetric(link()).with_middlebox(Box::new(OptionStripper::mptcp(mode)));
    let mut sc = Scenario::new(
        TransportKind::Mptcp(mptcp_cfg()),
        ClientApp::Bulk {
            total: 50_000_000,
            written: 0,
            close_when_done: false,
        },
        ServerApp::SlowSink {
            rate: 50_000,
            last: SimTime::ZERO,
            credit: 0.0,
        },
        vec![p],
        7,
    );
    for second in 1..=10 {
        sc.run_for(Duration::from_secs(1));
        let c = conn(&sc);
        // Fallen back, everything the sender holds is in subflow 0's queue.
        let queued = c.subflows()[0].sock.bytes_queued();
        let sender = c.sender_memory();
        let receiver = sc.server().receiver_memory();
        assert!(
            sender <= CAP && (sender == queued || !c.is_fallback()) && receiver <= CAP,
            "{mode:?} at {second} s: sender_memory {sender} (subflow 0 queues {queued}), \
             receiver_memory {receiver}, cap {CAP}"
        );
    }
    assert!(conn(&sc).is_fallback(), "{mode:?}: never fell back");
}

#[test]
fn fallback_after_syn_stripping_keeps_the_configured_buffers() {
    fallback_keeps_the_configured_buffers(StripMode::SynOnly);
}

#[test]
fn fallback_mid_stream_keeps_the_configured_buffers() {
    fallback_keeps_the_configured_buffers(StripMode::DataOnly);
}

#[test]
fn checksum_failure_on_one_path_resets_only_that_subflow() {
    // §3.3.6: "if we detect a DSM-checksum failure on only one subflow,
    // that subflow is reset and the transfer continues on another".
    // Path 0 is clean; path 1 hosts a payload-modifying ALG.
    let clean = Path::symmetric(link());
    let dirty = Path::symmetric(link()).with_middlebox(Box::new(PayloadModifier::new(
        b"\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a",
        b"\x21\x21\x21\x21\x21\x21",
    )));
    let mut sc = scenario(vec![clean, dirty]);
    sc.run_for(Duration::from_secs(20));
    assert_eq!(sc.server().app_bytes_received, TRANSFER as u64);
    let c = conn(&sc);
    assert!(!c.is_fallback(), "clean subflow keeps MPTCP alive");
    // The server-side connection reset the corrupted subflow.
    let server = sc.server().listener.conns[0].telemetry();
    assert!(
        server.counter(CounterId::SubflowResets) >= 1
            || server.counter(CounterId::ChecksumFailures) >= 1,
        "server telemetry:\n{}",
        server.render_table()
    );
}

#[test]
fn coalescer_degrades_but_does_not_stall() {
    // §3.3.5: a normalizer merges segments and loses one DSS mapping; the
    // receiver drops unmapped bytes and the sender re-injects them.
    let p = Path::symmetric(link()).with_middlebox(Box::new(SegmentCoalescer::new(
        Duration::from_micros(500),
        4096,
    )));
    let mut sc = scenario(vec![p]);
    sc.run_for(Duration::from_secs(25));
    assert_eq!(
        sc.server().app_bytes_received,
        TRANSFER as u64,
        "transfer must complete despite lost mappings"
    );
    let server_conn = &sc.server().listener.conns[0];
    // Unmapped bytes were actually seen (the hazard was exercised).
    let unmapped: u64 = server_conn
        .subflows()
        .iter()
        .map(|s| s.tracker.unmapped_total)
        .sum();
    assert!(unmapped > 0, "coalescer should have eaten some mappings");
}

#[test]
fn dead_path_does_not_kill_connection() {
    // Robustness goal: second path is a black hole from the start; the
    // connection must still complete on the first.
    let clean = Path::symmetric(link());
    let mut dead_link = link();
    dead_link.loss = 1.0;
    let dead = Path::symmetric(dead_link);
    let mut sc = scenario(vec![clean, dead]);
    sc.run_for(Duration::from_secs(30));
    assert_eq!(sc.server().app_bytes_received, TRANSFER as u64);
    assert!(!conn(&sc).is_fallback());
}
