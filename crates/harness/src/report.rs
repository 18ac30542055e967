//! Plain-text/CSV/JSON rendering of experiment rows, for piping into
//! plotting tools (`repro figN | tee` covers the human-readable side; these
//! helpers produce machine-readable series and per-run JSON reports that
//! embed the transport's [`TelemetrySnapshot`]).

use mptcp::telemetry::json::Writer;
use mptcp::telemetry::{TelemetrySnapshot, TraceSnapshot};

/// A labelled series of (x, y) points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

/// Render aligned series as CSV: `x,label1,label2,...` — one row per x.
///
/// Series are aligned by index; shorter series pad with empty cells.
pub fn to_csv(x_name: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(x_name);
    for s in series {
        out.push(',');
        out.push_str(&escape(&s.label));
    }
    out.push('\n');
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|p| p.0))
            .unwrap_or(f64::NAN);
        out.push_str(&format!("{x}"));
        for s in series {
            out.push(',');
            if let Some(p) = s.points.get(i) {
                out.push_str(&format!("{}", p.1));
            }
        }
        out.push('\n');
    }
    out
}

fn escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Compact bookkeeping of a run's time-series trace, embedded in the JSON
/// report instead of the full record stream (which goes to its own JSONL
/// file — see `experiments::trace`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Records retained in the snapshot.
    pub records: u64,
    /// Records ever offered to the tracers.
    pub total: u64,
    /// Records overwritten by the bounded rings.
    pub dropped_samples: u64,
    /// Discrete span events among the retained records.
    pub spans: u64,
    /// Distinct subflows with sample series.
    pub subflows: u64,
}

impl From<&TraceSnapshot> for TraceSummary {
    fn from(snap: &TraceSnapshot) -> TraceSummary {
        TraceSummary {
            records: snap.records.len() as u64,
            total: snap.total,
            dropped_samples: snap.dropped_samples,
            spans: snap.spans().count() as u64,
            subflows: snap.subflow_ids().len() as u64,
        }
    }
}

/// One run of one experiment cell, ready for JSON emission: scalar metrics
/// plus the full telemetry snapshot captured at the end of the run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Experiment name, e.g. `"fig4"`.
    pub experiment: String,
    /// Variant/cell label, e.g. `"MPTCP+M1,2 @ 200 KiB"`.
    pub label: String,
    /// `(cc, scheduler, path-manager)` policy names, when the run had one.
    pub policy: Option<(String, String, String)>,
    /// Scalar metrics in emission order, e.g. `("goodput_mbps", 8.4)`.
    pub metrics: Vec<(String, f64)>,
    /// Transport telemetry at the end of the run.
    pub telemetry: TelemetrySnapshot,
    /// Trace bookkeeping, when the run was traced.
    pub trace: Option<TraceSummary>,
}

impl RunReport {
    /// Start a report for one experiment cell.
    pub fn new(
        experiment: impl Into<String>,
        label: impl Into<String>,
        telemetry: TelemetrySnapshot,
    ) -> Self {
        RunReport {
            experiment: experiment.into(),
            label: label.into(),
            policy: None,
            metrics: Vec::new(),
            telemetry,
            trace: None,
        }
    }

    /// Record the congestion-control + scheduler + path-manager policy
    /// (builder style).
    pub fn policy(
        mut self,
        cc: impl Into<String>,
        sched: impl Into<String>,
        pm: impl Into<String>,
    ) -> Self {
        self.policy = Some((cc.into(), sched.into(), pm.into()));
        self
    }

    /// Append a scalar metric (builder style).
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Attach the trace bookkeeping of a traced run (builder style).
    pub fn trace(mut self, snap: &TraceSnapshot) -> Self {
        self.trace = Some(TraceSummary::from(snap));
        self
    }

    /// Serialize as a single JSON object. Non-finite metric values render
    /// as `null` so the output stays valid JSON.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.key("experiment").string(&self.experiment);
        w.key("label").string(&self.label);
        if let Some((cc, sched, pm)) = &self.policy {
            w.key("policy").begin_object();
            w.key("cc").string(cc).key("sched").string(sched);
            w.key("pm").string(pm).end_object();
        }
        w.key("metrics").begin_object();
        for (name, value) in &self.metrics {
            w.key(name).float(*value);
        }
        w.end_object().key("telemetry");
        self.telemetry.write_json(&mut w);
        if let Some(t) = &self.trace {
            w.key("trace").begin_object();
            w.key("records").raw(t.records).key("total").raw(t.total);
            w.key("dropped_samples").raw(t.dropped_samples);
            w.key("spans").raw(t.spans).key("subflows").raw(t.subflows);
            w.end_object();
        }
        w.end_object();
        w.finish()
    }
}

/// Render a batch of run reports as a JSON array (one experiment's cells).
pub fn to_json_lines(reports: &[RunReport]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&r.to_json());
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_layout() {
        let series = vec![
            Series {
                label: "a".into(),
                points: vec![(1.0, 10.0), (2.0, 20.0)],
            },
            Series {
                label: "b,c".into(),
                points: vec![(1.0, 11.0)],
            },
        ];
        let csv = to_csv("x", &series);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,\"b,c\"");
        assert_eq!(lines[1], "1,10,11");
        assert_eq!(lines[2], "2,20,");
    }

    #[test]
    fn empty_series() {
        assert_eq!(to_csv("x", &[]), "x\n");
    }

    #[test]
    fn run_report_json() {
        let report = RunReport::new("fig4", "MPTCP+M1,2", TelemetrySnapshot::default())
            .metric("goodput_mbps", 8.5)
            .metric("bad", f64::NAN);
        let json = report.to_json();
        assert!(json.starts_with("{\"experiment\":\"fig4\""));
        assert!(json.contains("\"goodput_mbps\":8.5"));
        assert!(json.contains("\"bad\":null"));
        assert!(json.contains("\"telemetry\":{"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn run_report_embeds_policy() {
        let json = RunReport::new("fig9", "MPTCP", TelemetrySnapshot::default())
            .policy("olia", "redundant", "fullmesh")
            .metric("goodput_mbps", 2.0)
            .to_json();
        assert!(
            json.contains(
                "\"policy\":{\"cc\":\"olia\",\"sched\":\"redundant\",\"pm\":\"fullmesh\"}"
            ),
            "{json}"
        );
        assert!(json.contains("\"goodput_mbps\":2"), "{json}");
        // Unset policy omits the key.
        let json = RunReport::new("x", "y", TelemetrySnapshot::default()).to_json();
        assert!(!json.contains("\"policy\""), "{json}");
    }

    #[test]
    fn run_report_embeds_trace_summary() {
        let json = RunReport::new("trace", "fig9", TelemetrySnapshot::default())
            .trace(&TraceSnapshot::default())
            .to_json();
        assert!(
            json.contains("\"trace\":{\"records\":0,\"total\":0,\"dropped_samples\":0"),
            "{json}"
        );
        // Untraced reports omit the key entirely.
        let json = RunReport::new("x", "y", TelemetrySnapshot::default()).to_json();
        assert!(!json.contains("\"trace\""), "{json}");
    }

    #[test]
    fn json_string_escaping() {
        let json = RunReport::new("a\"b\\c\n", "y", TelemetrySnapshot::default()).to_json();
        assert!(
            json.starts_with("{\"experiment\":\"a\\\"b\\\\c\\n\","),
            "{json}"
        );
    }

    #[test]
    fn json_lines_batch() {
        let reports = vec![
            RunReport::new("x", "a", TelemetrySnapshot::default()),
            RunReport::new("x", "b", TelemetrySnapshot::default()),
        ];
        let out = to_json_lines(&reports);
        assert!(out.starts_with('['));
        assert!(out.ends_with(']'));
        assert_eq!(out.matches("\"experiment\"").count(), 2);
    }
}
