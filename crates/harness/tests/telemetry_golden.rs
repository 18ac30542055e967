//! Golden over every telemetry artifact the harness renders.
//!
//! Output bytes are the contract of reports, trace JSONL, pcap JSONL
//! and the counter table, so each artifact of three deterministic runs —
//! the `fig9` and `fallback` trace scenarios and the chaos blackout cell —
//! is pinned by length and FNV-1a digest; the counter tables, being small,
//! are pinned as text. A serializer or emitter change that moves one byte
//! fails here and prints the whole table of actual values.
//! (`RuntimeStats::json_fields()` has its own goldens in `mptcp-runtime`.)

use mptcp::telemetry::TraceWriter;
use mptcp_harness::experiments::common::Policy;
use mptcp_harness::experiments::{chaos, trace};
use mptcp_harness::{to_json_lines, RunReport};

const SEED: u64 = 20120425;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(artifact, length, digest)` rows of one run.
type Rows = Vec<(&'static str, usize, u64)>;

fn row(rows: &mut Rows, name: &'static str, text: &str) {
    rows.push((name, text.len(), fnv1a(text.as_bytes())));
}

fn check(what: &str, got: &Rows, want: &[(&str, usize, u64)]) {
    let same = got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g == w);
    let table: Vec<String> = got
        .iter()
        .map(|(n, len, h)| format!("    (\"{n}\", {len}, {h:#018x}),"))
        .collect();
    assert!(
        same,
        "{what}: artifact bytes moved; actual rows:\n{}",
        table.join("\n")
    );
}

fn trace_rows(art: &trace::TraceArtifacts) -> Rows {
    let mut rows = Rows::new();
    row(&mut rows, "report.json", &art.report.to_json());
    row(
        &mut rows,
        "report_lines.json",
        &to_json_lines(std::slice::from_ref(&art.report)),
    );
    row(
        &mut rows,
        "trace.jsonl",
        &TraceWriter::to_jsonl(&art.run.trace),
    );
    row(&mut rows, "pcap.jsonl", &art.run.capture.to_jsonl());
    row(
        &mut rows,
        "table.txt",
        &art.run.bulk.telemetry.render_table(),
    );
    rows
}

const FIG9_TABLE: &str = concat!(
    "  m1_reinjections         25\n",
    "  m2_penalizations        6\n",
    "  scheduler_picks         9060\n",
    "  scheduler_stalls        9047\n",
    "  add_addrs_received      1\n",
    "  pm_subflows_opened      1\n",
    "  tcp_fast_retransmits    12\n",
    "  tcp_retransmitted_segs  30\n",
    "  snd_buf_cap (max)       100000\n",
    "  rcv_buf_cap (max)       100000\n",
    "  subflows (max)          2\n",
    "  send_queue_bytes (max)  100000\n",
);

const FALLBACK_TABLE: &str = concat!(
    "  scheduler_picks     10\n",
    "  scheduler_stalls    2\n",
    "  fallbacks           1\n",
    "  add_addrs_received  1\n",
    "  snd_buf_cap (max)   262144\n",
    "  rcv_buf_cap (max)   262144\n",
    "  subflows (max)      1\n",
    "  fallback_causes     mp_fail\n",
);

const BLACKOUT_TABLE: &str = concat!(
    "  m1_reinjections         181\n",
    "  m2_penalizations        4\n",
    "  scheduler_picks         6164\n",
    "  scheduler_stalls        6087\n",
    "  data_rtos               2\n",
    "  data_ack_stalls         2\n",
    "  add_addrs_received      1\n",
    "  pm_subflows_opened      1\n",
    "  path_suspects           1\n",
    "  path_failures           1\n",
    "  path_recoveries         1\n",
    "  tcp_rtos                4\n",
    "  tcp_fast_retransmits    2\n",
    "  tcp_retransmitted_segs  105\n",
    "  snd_buf_cap (max)       262144\n",
    "  rcv_buf_cap (max)       262144\n",
    "  subflows (max)          2\n",
    "  send_queue_bytes (max)  262144\n",
);

#[test]
fn fig9_trace_artifacts_are_pinned() {
    let art = trace::run(trace::TraceScenario::Fig9, SEED, Policy::default());
    check(
        "fig9",
        &trace_rows(&art),
        &[
            ("report.json", 4501, 0x361f8a19423fcfa9),
            ("report_lines.json", 4505, 0x1faad3bef90f718f),
            ("trace.jsonl", 3800873, 0x08de340665fc861b),
            ("pcap.jsonl", 5075358, 0x8d5f6043f59f1341),
            ("table.txt", 360, 0xaa50ea8c5389dbea),
        ],
    );
    assert_eq!(art.run.bulk.telemetry.render_table(), FIG9_TABLE);
}

#[test]
fn fallback_trace_artifacts_are_pinned() {
    let art = trace::run(trace::TraceScenario::Fallback, SEED, Policy::default());
    check(
        "fallback",
        &trace_rows(&art),
        &[
            ("report.json", 739, 0xfc5e10dcb2ce1958),
            ("report_lines.json", 743, 0x39ee9443f1b09e26),
            ("trace.jsonl", 31100, 0x72b582e1f1133f6b),
            ("pcap.jsonl", 63217, 0xb88460b0f252bbfe),
            ("table.txt", 209, 0x04c62b6197a20cf0),
        ],
    );
    assert_eq!(art.run.bulk.telemetry.render_table(), FALLBACK_TABLE);
}

/// The chaos blackout cell, with the report `repro chaos` writes for it.
#[test]
fn chaos_blackout_artifacts_are_pinned() {
    let b = chaos::blackout(SEED, Policy::default());
    let report = RunReport::new("chaos", "blackout 3s, WiFi+3G", b.telemetry.clone())
        .metric("delivered_during_blackout", b.delivered_during as f64)
        .metric("path_failures", b.path_failures as f64)
        .metric("path_recoveries", b.path_recoveries as f64)
        .metric("reinjections", b.reinjections as f64)
        .trace(&b.trace);
    let mut rows = Rows::new();
    row(&mut rows, "report.json", &report.to_json());
    row(&mut rows, "trace.jsonl", &TraceWriter::to_jsonl(&b.trace));
    row(&mut rows, "faults.json", &b.fault_telemetry.to_json());
    row(&mut rows, "table.txt", &b.telemetry.render_table());
    check(
        "chaos blackout",
        &rows,
        &[
            ("report.json", 17600, 0xcfaa7d688630e014),
            ("trace.jsonl", 2146213, 0x7cc81ca3f184d770),
            ("faults.json", 150, 0xd0ab9ee28e6d38ef),
            ("table.txt", 529, 0xa0fec376c61dad42),
        ],
    );
    assert_eq!(b.telemetry.render_table(), BLACKOUT_TABLE);
    assert_eq!(
        b.fault_telemetry.to_json(),
        concat!(
            "{\"counters\":{\"faults_injected\":2},\"gauges\":{},",
            "\"events_total\":1,\"events_dropped\":0,\"events\":[",
            "{\"at_ns\":1000000000,\"kind\":\"blackout_injected\",\"path\":0}]}"
        )
    );
}
