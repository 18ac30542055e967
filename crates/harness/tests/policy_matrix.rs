//! Satellite coverage for the pluggable policy architecture: every
//! (congestion control × scheduler) pair must complete a fixed transfer
//! with exactly-once delivery, and the default LIA+minRTT pair must
//! reproduce its pinned goodput (the run is deterministic, so the
//! tolerance here — 1% — is generous).

use mptcp::telemetry::CounterId;
use mptcp::{CcAlgorithm, SchedulerKind};
use mptcp_harness::experiments::chaos;
use mptcp_harness::experiments::common::{run_bulk, Policy, Variant, UNTRACED};
use mptcp_harness::experiments::fig9_wifi3g::capped_wifi;
use mptcp_harness::hosts::{ClientApp, ServerApp};
use mptcp_harness::scenario::Scenario;
use mptcp_netsim::{Duration, LinkCfg, Path, SimTime};

/// The Figure 9 path pair: capped WiFi (2 Mbps / 20 ms) + 3G (2 Mbps /
/// 300 ms), wildly different RTTs so scheduling decisions matter.
fn matrix_paths() -> Vec<Path> {
    vec![
        Path::symmetric(capped_wifi()),
        Path::symmetric(LinkCfg::threeg()),
    ]
}

/// Every cc × scheduler pair must move a fixed-size transfer to
/// completion with the server application reading exactly the bytes the
/// client wrote — no loss, no duplicate delivery (the redundant
/// scheduler's wire-level copies must be invisible to the application).
#[test]
fn every_policy_pair_delivers_exactly_once() {
    const TOTAL: usize = 1_000_000;
    for cc in CcAlgorithm::ALL {
        for sched in SchedulerKind::ALL {
            let policy = Policy::new(cc, sched);
            let kind = Variant::MptcpM12.kind_with(200_000, policy);
            let mut sc = Scenario::new(
                kind,
                ClientApp::Bulk {
                    total: TOTAL,
                    written: 0,
                    close_when_done: false,
                },
                ServerApp::Sink,
                matrix_paths(),
                7,
            );
            let deadline = SimTime::from_secs(60);
            while sc.sim.now < deadline && sc.server().app_bytes_received < TOTAL as u64 {
                sc.run_for(Duration::from_secs(1));
            }
            let delivered = sc.server().app_bytes_received;
            assert_eq!(
                delivered,
                TOTAL as u64,
                "{}: delivered {delivered} of {TOTAL} bytes \
                 (less = loss/deadlock, more = duplicate delivery)",
                policy.label()
            );
            let fell_back = sc
                .client_mut()
                .transport
                .as_mptcp()
                .map(|c| c.is_fallback())
                .unwrap_or(true);
            assert!(!fell_back, "{}: fell back to plain TCP", policy.label());
        }
    }
}

/// The default policy's goodput on the Figure 9 path pair, pinned: any
/// change to what LIA+minRTT puts on the wire moves it. PR 6's `Scheduler`
/// extraction held the inlined loop's 2.328039 Mbps byte-for-byte; PR 18's
/// sender-side silly-window avoidance (`TcpSocket::can_send_new`) moved it
/// to 3.781968, because subflows stopped answering every small ACK with a
/// sub-MSS fragment that spent 60 header bytes of a 2 Mbps link on ~100
/// payload bytes.
#[test]
fn default_policy_goodput_is_pinned() {
    const PINNED_MBPS: f64 = 3.781968;
    let r = run_bulk(
        Variant::MptcpM12,
        200_000,
        matrix_paths(),
        Duration::from_secs(3),
        Duration::from_secs(10),
        7,
        Policy::default(),
        UNTRACED,
    )
    .bulk;
    let rel = (r.goodput_mbps - PINNED_MBPS).abs() / PINNED_MBPS;
    assert!(
        rel < 0.01,
        "LIA+minRTT goodput {:.6} Mbps deviates {:.2}% from the pinned \
         {PINNED_MBPS} Mbps",
        r.goodput_mbps,
        rel * 100.0
    );
}

/// With the redundant scheduler every chunk rides both paths, so a 3 s
/// WiFi blackout must not stall the DATA_ACK clock: the 3G copies keep
/// `snd_una` moving and the data-level RTO never fires. (Under minRTT the
/// same blackout strands chunks on the dark path until failure detection
/// reinjects them.)
#[test]
fn redundant_scheduler_rides_out_blackout_without_data_rtos() {
    let out = chaos::blackout(7, Policy::new(CcAlgorithm::Lia, SchedulerKind::Redundant));
    assert!(
        out.delivered_during > 0,
        "no bytes delivered during the blackout"
    );
    assert_eq!(
        out.telemetry.counter(CounterId::DataRtos),
        0,
        "data-level RTO fired despite redundant copies on the live path"
    );
    assert_eq!(
        out.telemetry.counter(CounterId::DataAckStalls),
        0,
        "DATA_ACK stall recorded despite redundant copies on the live path"
    );
}
