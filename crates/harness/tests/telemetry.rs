//! End-to-end tests for the telemetry subsystem: the paper's mechanisms
//! and fallback paths must be observable from the outside through
//! [`mptcp::telemetry::TelemetrySnapshot`] — in `BulkResult`, in
//! `ConnStats`, and in the JSON report.

use mptcp::telemetry::{CounterId, FallbackCause, GaugeId};
use mptcp::{Mechanisms, MptcpConfig};
use mptcp_harness::experiments::common::{run_bulk, wifi_3g_paths, Policy, Variant};
use mptcp_harness::experiments::common::{UNTRACED, WARMUP};
use mptcp_harness::{ClientApp, RunReport, Scenario, ServerApp, TransportKind};
use mptcp_middlebox::PayloadModifier;
use mptcp_netsim::{Duration, LinkCfg, Path};

const SEED: u64 = 20120425;

/// A WiFi+3G run with a tight receive buffer is exactly the regime where
/// M1 (opportunistic retransmission) and M2 (penalization) fire: the slow
/// 3G subflow blocks the shared window and gets penalized (§4.2).
#[test]
fn rwnd_limited_run_records_m1_and_m2() {
    let r = run_bulk(
        Variant::MptcpM12,
        200_000,
        wifi_3g_paths(),
        WARMUP,
        Duration::from_secs(5),
        SEED,
        Policy::default(),
        UNTRACED,
    )
    .bulk;
    let t = &r.telemetry;
    assert!(
        t.counter(CounterId::M1Reinjections) > 0,
        "no M1 reinjections recorded:\n{}",
        t.render_table()
    );
    assert!(
        t.counter(CounterId::M2Penalizations) > 0,
        "no M2 penalizations recorded:\n{}",
        t.render_table()
    );
    assert!(t.counter(CounterId::SchedulerPicks) > 0);
    assert_eq!(t.gauge(GaugeId::Subflows).max, 2);
    // M1/M2 fired, so the event ring must hold the matching events.
    assert!(t.events_total > 0);

    // The same counters flow into the machine-readable report.
    let json = RunReport::new("test", Variant::MptcpM12.label(), r.telemetry.clone())
        .metric("goodput_mbps", r.goodput_mbps)
        .to_json();
    assert!(json.contains("\"m1_reinjections\":"), "{json}");
    assert!(json.contains("\"m2_penalizations\":"), "{json}");
    assert!(json.contains("\"goodput_mbps\":"), "{json}");
}

/// A content-rewriting middlebox (FTP-ALG model) breaks the DSS checksum;
/// per §3.3.6 the connection must fall back to regular TCP, and telemetry
/// must name the cause.
#[test]
fn checksum_corruption_records_fallback_cause() {
    let cfg = MptcpConfig::builder()
        .buffers(256 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(true)
        .build()
        .expect("valid config");
    let mangled_path = || {
        Path::symmetric(LinkCfg {
            rate_bps: 10_000_000,
            delay: Duration::from_millis(10),
            queue_bytes: 64 * 1500,
            loss: 0.0,
        })
        .with_middlebox(Box::new(PayloadModifier::new(
            b"\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a",
            b"\x21\x21\x21\x21\x21\x21\x21\x21\x21\x21",
        )))
    };
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total: 200_000,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        vec![mangled_path(), mangled_path()],
        SEED,
    );
    sc.run_for(Duration::from_secs(30));

    // The receiver detects the mangled payload; its telemetry must carry
    // both the raw counter and the recorded fallback cause.
    let server = sc.server().listener.conns[0].telemetry();
    assert!(
        server.counter(CounterId::ChecksumFailures) > 0,
        "no checksum failures recorded:\n{}",
        server.render_table()
    );
    assert!(server.counter(CounterId::Fallbacks) > 0);
    let causes = server.fallback_causes();
    assert!(
        causes.contains(&FallbackCause::ChecksumFail),
        "fallback causes: {causes:?}"
    );

    // The sender fell back too (MP_FAIL or local detection) and the
    // transfer still completed — fallback, not corruption or stall.
    let client = sc.client().transport.telemetry();
    assert!(
        client.counter(CounterId::Fallbacks) > 0,
        "client never fell back:\n{}",
        client.render_table()
    );
    assert!(sc.server().app_bytes_received >= 200_000);
}
