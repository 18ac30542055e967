//! Demonstrations of §3's design arguments: the shared receive pool
//! avoids the per-subflow deadlock, DATA_ACKs ride flow-control-exempt
//! pure ACKs, and relative mappings compose with hostile middlebox chains.

use mptcp::{Mechanisms, MptcpConfig};
use mptcp_harness::hosts::{ClientApp, ServerApp};
use mptcp_harness::scenario::{Scenario, TransportKind};
use mptcp_harness::transport::Transport;
use mptcp_middlebox::{SegmentSplitter, SeqRewriter};
use mptcp_netsim::{Duration, LinkCfg, Path, SimTime};

const SEED: u64 = 61;

fn link() -> LinkCfg {
    LinkCfg {
        rate_bps: 10_000_000,
        delay: Duration::from_millis(10),
        queue_bytes: 64 * 1500,
        loss: 0.0,
    }
}

#[test]
fn slow_reader_pauses_but_never_deadlocks() {
    // §3.3.1/§3.3.3: the receive window pauses the sender when the app is
    // slow, and reopens when it reads — DATA_ACKs and window updates ride
    // pure ACKs that flow control cannot block, so no deadlock cycle can
    // form even with data queued on both subflows.
    let total = 120_000;
    let cfg = MptcpConfig::builder()
        .buffers(32 * 1024) // tiny shared pool
        .mechanisms(Mechanisms::M1_2)
        .build()
        .expect("config is valid");
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total,
            written: 0,
            close_when_done: false,
        },
        ServerApp::SlowSink {
            rate: 40_000, // bytes/sec: far slower than the paths
            last: SimTime::ZERO,
            credit: 0.0,
        },
        vec![Path::symmetric(link()), Path::symmetric(link())],
        SEED,
    );
    // 120 KB at 40 KB/s needs ~3 s; give slack for handshakes and pauses.
    sc.run_for(Duration::from_secs(10));
    assert_eq!(
        sc.server().app_bytes_received,
        total as u64,
        "slow reader must throttle, not deadlock"
    );
}

#[test]
fn subflow_stall_does_not_deadlock_shared_pool() {
    // The §3.3.1 deadlock scenario: data for the head of the stream was
    // sent on a subflow that dies; the rest of the window arrived on the
    // other subflow and fills the buffer. With per-subflow buffers this
    // deadlocks; with the shared pool + re-injection it must recover.
    let total = 200_000;
    let cfg = MptcpConfig::builder()
        .buffers(64 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .build()
        .expect("config is valid");
    let clean = Path::symmetric(link());
    // The second path delivers the SYN exchange then starts dropping
    // everything (random loss = 1 would break the join handshake, so give
    // it heavy but not total loss: stalls and dies, as in §3.3.1 step 3).
    let mut flaky_link = link();
    flaky_link.loss = 0.9;
    let flaky = Path::symmetric(flaky_link);
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        vec![clean, flaky],
        SEED,
    );
    sc.run_for(Duration::from_secs(60));
    assert_eq!(sc.server().app_bytes_received, total as u64);
}

#[test]
fn relative_mappings_survive_rewriter_plus_splitter_chain() {
    // §3.3.4's combined hazard: a sequence randomizer AND a TSO splitter
    // on the same path. Absolute-seq mappings would break twice over;
    // relative, length-delimited mappings shrug.
    let total = 100_000;
    let p = Path::symmetric(link())
        .with_middlebox(Box::new(SeqRewriter::new()))
        .with_middlebox(Box::new(SegmentSplitter::new(512)));
    let cfg = MptcpConfig::builder()
        .buffers(256 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .build()
        .expect("config is valid");
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        vec![p],
        SEED,
    );
    sc.run_for(Duration::from_secs(20));
    assert_eq!(sc.server().app_bytes_received, total as u64);
    let c = match &sc.client().transport {
        Transport::Mptcp(c) => c,
        _ => unreachable!(),
    };
    assert!(!c.is_fallback(), "MPTCP should survive, not fall back");
}

#[test]
fn connection_level_memory_accounting_matches_claims() {
    // §4.2: "the receiver will spend at least two thirds of the memory the
    // sender spends" under multipath reordering — qualitatively, receiver
    // memory must be substantial (not near-zero as in single-path TCP).
    let cfg = MptcpConfig::builder()
        .buffers(500_000)
        .mechanisms(Mechanisms::NONE)
        .build()
        .expect("config is valid");
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        vec![
            Path::symmetric(LinkCfg::wifi()),
            Path::symmetric(LinkCfg::threeg()),
        ],
        SEED,
    );
    sc.run_for(Duration::from_secs(10));
    let t0 = sc.sim.now;
    sc.run_for(Duration::from_secs(10));
    let send_mem = sc.client().mem_sampler.mean_after(t0);
    let recv_mem = sc.server().mem_sampler.mean_after(t0);
    assert!(send_mem > 10_000.0, "sender holds data until DATA_ACK");
    assert!(
        recv_mem > 1_000.0,
        "multipath reordering must show up as receiver memory ({recv_mem:.0})"
    );
}
