//! The benchmark's metric and workload tables: the one place a name, its
//! unit and its direction are written down. `BENCHMARK.json` is generated
//! from these (`benchmark manifest`) and a test holds the two together.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "mem_bulk",
        why: "MPTCP pair over an in-memory pipe, virtual clock, real codec: protocol CPU per byte with no syscalls, sleeps or simulator; runtime and netsim changes must not move it",
    },
    WorkloadDef {
        name: "wire_bulk",
        why: "4 MiB fetches over loopback UDP with library-default configs: the event loop does most of the work here and none in mem_bulk, so the gap between the two is the runtime's",
    },
    WorkloadDef {
        name: "wire_fetch",
        why: "sequential 64 KiB fetches, a fresh client each: the runtime under connection churn, where a wake-up costs latency; handshake, token table and path manager dominate, the codec does little",
    },
    WorkloadDef {
        name: "sim_wifi3g",
        why: "the paper's WiFi+3G bulk scenario in netsim: reordering, M1/M2 and rwnd-limited scheduler stalls, the mptcp slow path that mem_bulk's loss-free in-order pipe never touches",
    },
    WorkloadDef {
        name: "sim_http",
        why: "Fig 11's closed-loop HTTP fleet in netsim: the same layers used for many short connections instead of one long one, where cost grows with connections already served",
    },
];

pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "goodput_mbps",
        unit: "Mbit/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of single layers, printed by a traced run. A metric whose
/// layer the workload does not run reads 0 there, which is also the
/// prediction a later change to that layer is held to on that workload.
pub const PER_LAYER: &[LayerDef] = &[
    // bench: the run itself.
    layer("bench.ops", "count", Higher),
    layer("bench.op_p90_ms", "ms", Lower),
    layer("bench.op_tail_ms", "ms", Lower),
    layer("bench.op_tail_per_mille", "count", Higher),
    layer("bench.fail_ratio", "ratio", Lower),
    layer("bench.cpu_s_per_gib", "s/GiB", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.trace_self_time_coverage", "ratio", Higher),
    // packet.
    layer("packet.encode_ns_per_seg", "ns", Lower),
    layer("packet.decode_ns_per_seg", "ns", Lower),
    layer("packet.checksum_gbps", "GB/s", Higher),
    layer("packet.allocs_per_seg", "count", Lower),
    // tcpstack.
    layer("tcpstack.pair_goodput_mbps", "Mbit/s", Higher),
    layer("tcpstack.poll_ns_per_seg", "ns", Lower),
    layer("tcpstack.handle_ns_per_seg", "ns", Lower),
    layer("tcpstack.retransmitted_segs", "count", Lower),
    layer("tcpstack.rtos", "count", Lower),
    layer("tcpstack.fast_retransmits", "count", Lower),
    // mptcp.
    layer("mptcp.write_ns_per_call", "ns", Lower),
    layer("mptcp.poll_ns_per_seg", "ns", Lower),
    layer("mptcp.handle_ns_per_seg", "ns", Lower),
    layer("mptcp.read_ns_per_call", "ns", Lower),
    layer("mptcp.poll_at_ns_per_call", "ns", Lower),
    layer("mptcp.segs_per_mib", "count", Lower),
    layer("mptcp.allocs_per_seg", "count", Lower),
    layer("mptcp.alloc_bytes_per_mib", "B", Lower),
    layer("mptcp.pair_goodput_mbps", "Mbit/s", Higher),
    layer("mptcp.overhead_vs_tcp", "ratio", Lower),
    layer("mptcp.checksum_cost_ratio", "ratio", Lower),
    layer("mptcp.sched_picks", "count", Higher),
    layer("mptcp.sched_stall_ratio", "ratio", Lower),
    layer("mptcp.m1_reinjections", "count", Lower),
    layer("mptcp.m2_penalizations", "count", Lower),
    layer("mptcp.reinjected_byte_ratio", "ratio", Lower),
    layer("mptcp.sim_goodput_mbps", "Mbit/s", Higher),
    layer("mptcp.conn_setup_us", "us", Lower),
    layer("mptcp.reorder_inorder_msegs", "Mseg/s", Higher),
    layer("mptcp.reorder_adversarial_msegs", "Mseg/s", Higher),
    // netsim.
    layer("netsim.ns_per_packet", "ns", Lower),
    layer("netsim.sim_speedup", "ratio", Higher),
    layer("netsim.queue_drops", "count", Lower),
    layer("netsim.random_drops", "count", Lower),
    // harness.
    layer("harness.http_requests", "count", Higher),
    layer("harness.http_wall_ms_per_request", "ms", Lower),
    layer("harness.http_q4_q1_ratio", "ratio", Lower),
    layer("harness.retained_kib_per_conn", "KiB", Lower),
    // runtime.
    layer("runtime.client_busy_share", "ratio", Higher),
    layer("runtime.client_idle_share", "ratio", Lower),
    layer("runtime.server_busy_share", "ratio", Higher),
    layer("runtime.server_idle_share", "ratio", Lower),
    layer("runtime.empty_step_ratio", "ratio", Lower),
    layer("runtime.steps_per_mib", "count", Lower),
    layer("runtime.datagrams_per_step", "count", Higher),
    layer("runtime.client_step_us_p50", "us", Lower),
    layer("runtime.client_step_us_p99", "us", Lower),
    layer("runtime.late_tick_ratio", "ratio", Lower),
    layer("runtime.tick_skew_p99_us", "us", Lower),
    layer("runtime.datagram_loss_ratio", "ratio", Lower),
    layer("runtime.egress_backpressure", "count", Lower),
    layer("runtime.pool_miss_ratio", "ratio", Lower),
    layer("runtime.phase_recv_drain_share", "ratio", Lower),
    layer("runtime.phase_demux_share", "ratio", Lower),
    layer("runtime.phase_drive_share", "ratio", Lower),
    layer("runtime.phase_poll_encode_share", "ratio", Lower),
    layer("runtime.phase_flush_share", "ratio", Lower),
    layer("runtime.phase_idle_share", "ratio", Lower),
    layer("runtime.connect_us", "us", Lower),
    layer("runtime.fetch_ttfb_ms_p50", "ms", Lower),
    layer("runtime.fetch_p99_ms", "ms", Lower),
    layer("runtime.steps_per_fetch", "count", Lower),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

/// Values for one table, set by name, printed in table order with 0 for
/// anything not set.
pub struct Report {
    names: Vec<(&'static str, &'static str)>,
    values: Vec<Option<f64>>,
}

impl Report {
    pub fn end_to_end() -> Report {
        Report::over(END_TO_END.iter().map(|m| (m.name, m.unit)))
    }

    pub fn per_layer() -> Report {
        Report::over(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    }

    fn over(defs: impl Iterator<Item = (&'static str, &'static str)>) -> Report {
        let names: Vec<_> = defs.collect();
        Report {
            values: vec![None; names.len()],
            names,
        }
    }

    /// Set `name`; a name missing from the table is a bug in the caller.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        self.values[i] = Some(if value.is_finite() { value } else { 0.0 });
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over the whole table.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.names
                .iter()
                .zip(&self.values)
                .map(|((name, unit), v)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(v.unwrap_or(0.0))),
                            ("unit", Json::str(*unit)),
                        ]),
                    )
                }),
        )
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let block = |out: &mut String, key: &str, rows: Vec<Json>, last: bool| {
        out.push_str(&format!("  \"{key}\": [\n"));
        for (i, row) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!("    {row}{comma}\n"));
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    };
    block(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
            .collect(),
        false,
    );
    block(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                ])
            })
            .collect(),
        false,
    );
    block(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                ])
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = workload_names()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn table_sizes_and_bounds_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s has the largest bound");
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark manifest`"
        );
        assert!(committed.len() <= 64 * 1024);

        // And it parses, with exactly the contract's keys.
        let doc = Json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(listed("workloads"), workload_names().collect::<Vec<_>>());
        assert_eq!(
            listed("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn report_prints_the_whole_table_in_order() {
        let mut r = Report::end_to_end();
        r.set("setup_s", 0.25);
        r.set("goodput_mbps", f64::NAN);
        let doc = r.to_json();
        let fields = doc.as_obj().unwrap();
        assert_eq!(fields.len(), END_TO_END.len());
        assert_eq!(fields[0].0, END_TO_END[0].name);
        assert_eq!(
            doc.get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            doc.get("goodput_mbps")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0),
            "a value that is not a number prints as 0"
        );
        assert_eq!(
            doc.get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_names_are_rejected() {
        Report::per_layer().set("runtime.no_such_thing", 1.0);
    }
}
