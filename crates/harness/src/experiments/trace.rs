//! `repro trace <scenario>`: traced bulk runs that emit the time-domain
//! artifacts behind the paper's figures — per-subflow cwnd/srtt/rwnd
//! timelines, the MPTCP-aware packet capture, and a gnuplot-ready data
//! file.
//!
//! Three scenarios are wired up:
//!
//! * `fig4` — the rcvbuf-limited WiFi+3G regime of Figure 4: a tight
//!   shared receive buffer makes the slow 3G subflow block the window, so
//!   the timeline shows M1 reinjections and M2 penalties interrupting the
//!   3G cwnd series while goodput recovers;
//! * `fig9` — the capped-WiFi + 3G setup of Figure 9 (both pipes ~2 Mbps,
//!   wildly different RTTs) with the paper's recommended MPTCP+M1,2;
//! * `fallback` — a payload-rewriting middlebox breaks the DSS checksum
//!   and the capture shows MPTCP options disappearing at the fallback
//!   span (§3.3.6).
//!
//! The heavy artifacts (trace JSONL/CSV, capture JSONL, timeline `.dat`)
//! are rendered here as strings; file placement stays in the `repro`
//! binary. The JSON [`RunReport`] only embeds the trace bookkeeping.

use mptcp::telemetry::{TraceConfig, TraceRecord, TraceSnapshot, SPAN_CONN_LEVEL};
use mptcp::{Mechanisms, MptcpConfig};
use mptcp_middlebox::PayloadModifier;
use mptcp_netsim::{CaptureConfig, Duration, LinkCfg, PacketCapture, Path};

use super::common::{measure_bulk, run_bulk, wifi_3g_paths};
use super::common::{Policy, TracedBulkResult, Variant};
use super::fig9_wifi3g::capped_wifi;
use crate::hosts::{ClientApp, ServerApp};
use crate::report::RunReport;
use crate::scenario::{Scenario, TransportKind};

/// The scenarios `repro trace` knows how to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceScenario {
    /// Rcvbuf-limited WiFi+3G (Figure 4's time-domain pathology).
    Fig4,
    /// Capped WiFi + 3G, MPTCP+M1,2 (Figure 9).
    Fig9,
    /// Checksum-corrupting middlebox forcing fallback (§3.3.6).
    Fallback,
}

impl TraceScenario {
    /// All scenarios, in documentation order.
    pub fn all() -> [TraceScenario; 3] {
        [
            TraceScenario::Fig4,
            TraceScenario::Fig9,
            TraceScenario::Fallback,
        ]
    }

    /// Parse a CLI scenario name.
    pub fn parse(name: &str) -> Option<TraceScenario> {
        match name {
            "fig4" => Some(TraceScenario::Fig4),
            "fig9" => Some(TraceScenario::Fig9),
            "fallback" => Some(TraceScenario::Fallback),
            _ => None,
        }
    }

    /// Stable name used for CLI parsing and output file stems.
    pub fn name(&self) -> &'static str {
        match self {
            TraceScenario::Fig4 => "fig4",
            TraceScenario::Fig9 => "fig9",
            TraceScenario::Fallback => "fallback",
        }
    }

    /// One-line description for `repro` usage text.
    pub fn describe(&self) -> &'static str {
        match self {
            TraceScenario::Fig4 => "rcvbuf-limited WiFi+3G, MPTCP+M1,2 @ 100 KB",
            TraceScenario::Fig9 => "capped WiFi (2 Mbps) + 3G, MPTCP+M1,2 @ 100 KB",
            TraceScenario::Fallback => "checksum-corrupting middlebox, fallback to TCP",
        }
    }
}

/// Everything one traced scenario run produces.
#[derive(Clone, Debug)]
pub struct TraceArtifacts {
    /// Which scenario ran.
    pub scenario: TraceScenario,
    /// Rates, telemetry, trace snapshot, and packet capture.
    pub run: TracedBulkResult,
    /// JSON report with the trace bookkeeping attached.
    pub report: RunReport,
}

/// Buffer small enough that the shared window stays the bottleneck, so
/// the M1/M2 machinery (and its spans) shows up in the timeline.
const TRACE_BUF: usize = 100_000;

/// Run one traced scenario with default-capacity tracing and capture.
pub fn run(scenario: TraceScenario, seed: u64, policy: Policy) -> TraceArtifacts {
    let (trace, capture) = (TraceConfig::enabled(), CaptureConfig::enabled());
    let (label, run) = match scenario {
        TraceScenario::Fig4 => (
            "MPTCP+M1,2 @ 100 KB, WiFi+3G",
            run_bulk(
                Variant::MptcpM12,
                TRACE_BUF,
                wifi_3g_paths(),
                Duration::from_secs(3),
                Duration::from_secs(20),
                seed,
                policy,
                (trace, capture),
            ),
        ),
        TraceScenario::Fig9 => (
            "MPTCP+M1,2 @ 100 KB, capped WiFi+3G",
            run_bulk(
                Variant::MptcpM12,
                TRACE_BUF,
                vec![
                    Path::symmetric(capped_wifi()),
                    Path::symmetric(LinkCfg::threeg()),
                ],
                Duration::from_secs(4),
                Duration::from_secs(25),
                seed,
                policy,
                (trace, capture),
            ),
        ),
        TraceScenario::Fallback => (
            "MPTCP+M1,2 + checksum-mangling middlebox",
            run_fallback(seed, policy, trace, capture),
        ),
    };
    let report = RunReport::new("trace", label, run.bulk.telemetry.clone())
        .policy(policy.cc.name(), policy.sched.name(), policy.pm.name())
        .metric("goodput_mbps", run.bulk.goodput_mbps)
        .metric("throughput_mbps", run.bulk.throughput_mbps)
        .metric("capture_records", run.capture.records.len() as f64)
        .metric("capture_dropped", run.capture.dropped_records as f64)
        .trace(&run.trace);
    TraceArtifacts {
        scenario,
        run,
        report,
    }
}

/// The fallback scenario from the telemetry integration tests: a
/// payload-rewriting middlebox (FTP-ALG model) on both paths breaks the
/// DSS checksum mid-transfer. Built by hand because it needs `checksum =
/// true` and middleboxes, which [`Variant::kind`] does not model.
fn run_fallback(
    seed: u64,
    policy: Policy,
    trace: TraceConfig,
    capture: CaptureConfig,
) -> TracedBulkResult {
    let cfg = MptcpConfig::builder()
        .buffers(256 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(true)
        .cc(policy.cc)
        .scheduler(policy.sched)
        .trace(trace)
        .build()
        .expect("fallback-trace config is valid");
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
        seed,
    );
    sc.sim.capture = PacketCapture::new(capture);
    measure_bulk(&mut sc, Duration::ZERO, Duration::from_secs(30))
}

/// Render a gnuplot-ready timeline: blank-line-separated blocks selected
/// with `index N`.
///
/// * block 0 — connection samples: `t_s goodput_mbps rwnd reorder_bytes
///   rcv_buf_cap` (goodput is the data-ACKed delta between consecutive
///   samples);
/// * blocks 1..=S — one per subflow: `t_s cwnd ssthresh srtt_ms
///   in_flight`;
/// * last block — spans: `t_s subflow kind` (`-` for connection-level).
pub fn timeline_dat(snap: &TraceSnapshot) -> String {
    let mut out = String::from(
        "# MPTCP trace timeline; gnuplot blocks via `index N`\n\
         # block 0 (conn): t_s goodput_mbps rwnd reorder_bytes rcv_buf_cap\n",
    );
    let mut prev: Option<(u64, u64)> = None;
    for rec in &snap.records {
        if let TraceRecord::ConnSample {
            at_ns,
            rwnd,
            data_snd_una,
            reorder_bytes,
            rcv_buf_cap,
            ..
        } = *rec
        {
            let goodput = match prev {
                Some((t_prev, una_prev)) if at_ns > t_prev => {
                    data_snd_una.saturating_sub(una_prev) as f64 * 8.0 * 1e3
                        / (at_ns - t_prev) as f64
                }
                _ => 0.0,
            };
            prev = Some((at_ns, data_snd_una));
            out.push_str(&format!(
                "{:.6} {goodput:.4} {rwnd} {reorder_bytes} {rcv_buf_cap}\n",
                at_ns as f64 / 1e9
            ));
        }
    }
    let subflows = snap.subflow_ids();
    for (i, &sf) in subflows.iter().enumerate() {
        out.push_str(&format!(
            "\n\n# block {} (subflow {sf}): t_s cwnd ssthresh srtt_ms in_flight\n",
            i + 1
        ));
        for rec in &snap.records {
            if let TraceRecord::SubflowSample {
                at_ns,
                subflow,
                cwnd,
                ssthresh,
                srtt_us,
                in_flight,
                ..
            } = *rec
            {
                if subflow == sf {
                    out.push_str(&format!(
                        "{:.6} {cwnd} {ssthresh} {:.3} {in_flight}\n",
                        at_ns as f64 / 1e9,
                        srtt_us as f64 / 1e3
                    ));
                }
            }
        }
    }
    out.push_str(&format!(
        "\n\n# block {} (spans): t_s subflow kind\n",
        subflows.len() + 1
    ));
    for (at_ns, sf, kind) in snap.spans() {
        let sf = if sf == SPAN_CONN_LEVEL {
            "-".to_string()
        } else {
            sf.to_string()
        };
        out.push_str(&format!("{:.6} {sf} {}\n", at_ns as f64 / 1e9, kind.name()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp::telemetry::EventKind;

    #[test]
    fn scenario_names_round_trip() {
        for s in TraceScenario::all() {
            assert_eq!(TraceScenario::parse(s.name()), Some(s));
        }
        assert_eq!(TraceScenario::parse("fig999"), None);
    }

    #[test]
    fn timeline_blocks_are_index_selectable() {
        let snap = TraceSnapshot {
            records: vec![
                TraceRecord::ConnSample {
                    at_ns: 1_000_000_000,
                    rwnd: 50_000,
                    data_snd_nxt: 10_000,
                    data_snd_una: 8_000,
                    data_rcv_nxt: 8_000,
                    reorder_segs: 2,
                    reorder_bytes: 2920,
                    snd_buf_cap: 100_000,
                    rcv_buf_cap: 100_000,
                },
                TraceRecord::ConnSample {
                    at_ns: 2_000_000_000,
                    rwnd: 40_000,
                    data_snd_nxt: 20_000,
                    data_snd_una: 18_000,
                    data_rcv_nxt: 18_000,
                    reorder_segs: 0,
                    reorder_bytes: 0,
                    snd_buf_cap: 100_000,
                    rcv_buf_cap: 100_000,
                },
                TraceRecord::SubflowSample {
                    at_ns: 1_500_000_000,
                    subflow: 0,
                    cwnd: 14600,
                    ssthresh: 65535,
                    srtt_us: 20_000,
                    in_flight: 2920,
                    snd_nxt: 100,
                    rcv_nxt: 1,
                },
                TraceRecord::Span {
                    at_ns: 1_600_000_000,
                    subflow: 1,
                    kind: EventKind::M2Penalize {
                        subflow: 1,
                        before: 20,
                        after: 10,
                    },
                },
            ],
            total: 4,
            dropped_samples: 0,
        };
        let dat = timeline_dat(&snap);
        // Two double-blank separators → three gnuplot blocks.
        assert_eq!(dat.matches("\n\n\n").count(), 2, "{dat}");
        // Goodput between the two conn samples: 10 KB in 1 s = 0.08 Mbps.
        assert!(dat.contains("2.000000 0.0800"), "{dat}");
        assert!(dat.contains("1.500000 14600 65535 20.000 2920"), "{dat}");
        assert!(dat.contains("1.600000 1 m2_penalize"), "{dat}");
    }
}
