//! How experiment results leave the harness: every paper figure as a
//! [`Figure`] (a table as data) that one renderer prints as Markdown, and
//! per-run JSON reports that embed the transport's [`TelemetrySnapshot`].

use std::fmt;

use mptcp::telemetry::json::Writer;
use mptcp::telemetry::{TelemetrySnapshot, TraceSnapshot};

/// One cell of a [`Figure`] row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A number, printed at its column's precision.
    Num(f64),
    /// A label or a categorical outcome, printed as it is.
    Text(String),
    /// A quantity the row does not measure, printed `—`.
    Unmeasured,
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Text(s)
    }
}

/// A labelled column of a [`Figure`].
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    /// Header text, with the unit where the title does not give it.
    pub label: String,
    /// Decimals a [`Value::Num`] in this column prints with.
    pub precision: usize,
}

/// One table of a paper figure, as data: what `repro figN` prints and
/// EXPERIMENTS.md quotes.
///
/// Its [`Display`](fmt::Display) is the one renderer: the title as a
/// Markdown heading, the table, then each note as a paragraph.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Figure {
    /// Heading, e.g. `"Figure 9: ..."`.
    pub title: String,
    /// Columns, left to right.
    pub columns: Vec<Column>,
    /// Rows, each with one value per column.
    pub rows: Vec<Vec<Value>>,
    /// Paragraphs printed under the table.
    pub notes: Vec<String>,
}

impl Figure {
    /// A figure with a title and nothing else yet.
    pub fn new(title: impl Into<String>) -> Figure {
        Figure {
            title: title.into(),
            ..Figure::default()
        }
    }

    /// Append a column whose numbers print with `precision` decimals
    /// (builder style).
    pub fn column(mut self, label: impl Into<String>, precision: usize) -> Figure {
        let label = label.into();
        self.columns.push(Column { label, precision });
        self
    }

    /// Append a row, one value per column; panics on any other count.
    pub fn row(&mut self, values: Vec<Value>) {
        assert_eq!(values.len(), self.columns.len(), "{}", self.title);
        self.rows.push(values);
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n### {}\n", self.title)?;
        for c in &self.columns {
            write!(f, "| {} ", c.label)?;
        }
        writeln!(f, "|\n|{}", "---|".repeat(self.columns.len()))?;
        for row in &self.rows {
            for (value, c) in row.iter().zip(&self.columns) {
                match value {
                    Value::Num(x) => write!(f, "| {x:.*} ", c.precision)?,
                    Value::Text(t) => write!(f, "| {t} ")?,
                    Value::Unmeasured => write!(f, "| — ")?,
                }
            }
            writeln!(f, "|")?;
        }
        for note in &self.notes {
            writeln!(f, "\n{note}")?;
        }
        Ok(())
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
    fn figure_renders_a_markdown_table() {
        let mut fig = Figure::new("Figure 0: a test")
            .column("buf KB", 0)
            .column("goodput", 2)
            .column("verdict", 0);
        fig.row(vec![50usize.into(), 7.718.into(), "ok".into()]);
        fig.row(vec![
            100usize.into(),
            Value::Unmeasured,
            "STALLED 32%".into(),
        ]);
        fig.notes.push("(a note)".into());
        assert_eq!(
            fig.to_string(),
            "\n### Figure 0: a test\n\n\
             | buf KB | goodput | verdict |\n\
             |---|---|---|\n\
             | 50 | 7.72 | ok |\n\
             | 100 | — | STALLED 32% |\n\
             \n(a note)\n"
        );
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
