//! End-to-end tests for the time-series tracing layer: the trace, the
//! MPTCP-aware packet capture, and the zero-cost-when-disabled contract,
//! all observed from outside the stack.

use mptcp::telemetry::{EventKind, TraceConfig};
use mptcp_harness::experiments::common::{run_bulk, wifi_3g_paths, Policy, Variant};
use mptcp_harness::experiments::trace::{run, timeline_dat, TraceScenario};
use mptcp_netsim::{CaptureConfig, Duration};

const SEED: u64 = 20120425;

/// §3.3.6: once the DSS checksum catches a payload-rewriting middlebox,
/// the connection falls back to regular TCP and stops emitting MPTCP
/// options. The capture must agree with the trace: the last
/// option-carrying packet precedes the fallback span.
#[test]
fn fallback_trace_options_end_before_fallback_span() {
    let art = run(TraceScenario::Fallback, SEED, Policy::default());
    let trace = &art.run.trace;
    let capture = &art.run.capture;

    let fallback_at = trace
        .spans()
        .filter(|(_, _, k)| matches!(k, EventKind::Fallback { .. }))
        .map(|(at, _, _)| at)
        .max()
        .expect("no fallback span recorded");

    let last_option_at = capture
        .records
        .iter()
        .filter(|r| r.has_mptcp())
        .map(|r| r.at_ns)
        .max()
        .expect("capture saw no MPTCP options at all");

    assert!(
        last_option_at <= fallback_at,
        "MPTCP option on the wire at {last_option_at} ns, after fallback at {fallback_at} ns"
    );

    // Nothing overflowed, and the artifacts carry the series.
    assert_eq!(trace.dropped_samples, 0);
    assert_eq!(capture.dropped_records, 0);
    assert!(art.run.bulk.fell_back, "client never fell back");
}

/// The zero-cost contract at the harness level: a run with tracing and
/// capture disabled records no samples and no packets — the disabled
/// tracer holds no buffer (allocation-freedom of the write path is
/// asserted in the telemetry unit tests).
#[test]
fn disabled_tracing_records_nothing() {
    let r = run_bulk(
        Variant::MptcpM12,
        100_000,
        wifi_3g_paths(),
        Duration::from_secs(1),
        Duration::from_secs(2),
        SEED,
        Policy::default(),
        (TraceConfig::disabled(), CaptureConfig::disabled()),
    );
    assert!(r.bulk.goodput_mbps > 0.0, "run carried no data");
    assert!(r.trace.is_empty(), "disabled tracer produced records");
    assert_eq!(r.trace.total, 0);
    assert_eq!(r.capture.total, 0);
    assert!(r.capture.records.is_empty());
}

/// An enabled fig-9-style run yields per-subflow cwnd/srtt series for both
/// subflows, at least one M2 penalty span, and a timeline whose blocks are
/// separated for gnuplot `index` selection.
#[test]
fn traced_rwnd_limited_run_has_series_and_penalty_spans() {
    let r = run_bulk(
        Variant::MptcpM12,
        100_000,
        wifi_3g_paths(),
        Duration::from_secs(2),
        Duration::from_secs(6),
        SEED,
        Policy::default(),
        (TraceConfig::enabled(), CaptureConfig::enabled()),
    );
    assert_eq!(r.trace.subflow_ids(), vec![0, 1]);
    assert!(
        r.trace
            .spans()
            .any(|(_, _, k)| matches!(k, EventKind::M2Penalize { .. })),
        "no M2 penalty span in an rwnd-limited run"
    );
    assert!(r.capture.records.iter().any(|c| c.has_mptcp()));
    let dat = timeline_dat(&r.trace);
    // conn block + one block per subflow + span block.
    assert_eq!(dat.matches("\n\n\n").count(), 3, "timeline block count");
}
