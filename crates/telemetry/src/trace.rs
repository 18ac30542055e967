//! Time-series tracing: timestamped samples of per-subflow and
//! connection-level state, plus discrete span events, all on the simulated
//! clock.
//!
//! The counters and event ring in the crate root answer *whether* a
//! mechanism fired; this module answers *when*, and what the windows looked
//! like around it — the `tcptrace`/`ss -i` view the paper's time-domain
//! figures (rcvbuf-limited goodput over time, WiFi+3G interaction) are
//! drawn from. Three record kinds share one ring:
//!
//! * [`TraceRecord::SubflowSample`] — cwnd, ssthresh, srtt, in-flight and
//!   subflow sequence state, taken on every congestion-control event and
//!   on a configurable interval;
//! * [`TraceRecord::ConnSample`] — advertised rwnd, data-level send/recv
//!   edges, reorder-queue occupancy, and the M3-autotuned buffer caps;
//! * [`TraceRecord::Span`] — a discrete event (M1 reinjection, M2 penalty,
//!   M4 cap, fallback, scheduler stall...) reusing [`EventKind`], anchored
//!   to the subflow series it interrupts.
//!
//! The ring is the trace half of a layer's [`Recorder`](crate::Recorder),
//! which writes the spans itself ([`Recorder::note`](crate::Recorder::note))
//! and takes samples through [`Recorder::sample`](crate::Recorder::sample).
//! Tracing is zero-cost when disabled: a [`Ring`](crate::Ring) of capacity
//! 0 never allocates and storing into it is a single branch. When enabled
//! it is bounded: the ring overwrites the oldest records and reports
//! `dropped_samples` — no silent truncation, no unbounded growth.

use crate::json::Writer;
use crate::EventKind;

/// Subflow id stamped on connection-level [`TraceRecord::Span`]s (no
/// single subflow series is interrupted).
pub const SPAN_CONN_LEVEL: u32 = u32::MAX;

/// Configuration of a recorder's trace ring. Carried inside the stack's
/// config so a connection and its subflow sockets agree on gating and
/// capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When false nothing is ever buffered or allocated.
    pub enabled: bool,
    /// Ring capacity in records (per recorder). Must be nonzero when
    /// enabled; validated by the stack's config builder.
    pub capacity: usize,
    /// Interval for periodic samples between congestion-control events,
    /// in simulated nanoseconds.
    pub sample_interval_ns: u64,
}

/// Default trace-ring capacity: ample for the paper's 25-second
/// scenarios at ACK-rate sampling without dropping records.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Default periodic sampling interval (10 ms of simulated time).
pub const DEFAULT_SAMPLE_INTERVAL_NS: u64 = 10_000_000;

impl TraceConfig {
    /// Tracing off — the zero-cost default.
    pub const fn disabled() -> TraceConfig {
        TraceConfig {
            enabled: false,
            capacity: 0,
            sample_interval_ns: DEFAULT_SAMPLE_INTERVAL_NS,
        }
    }

    /// Tracing on with default capacity and interval.
    pub const fn enabled() -> TraceConfig {
        TraceConfig {
            enabled: true,
            capacity: DEFAULT_TRACE_CAPACITY,
            sample_interval_ns: DEFAULT_SAMPLE_INTERVAL_NS,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::disabled()
    }
}

/// One timestamped trace record. All variants are `Copy` so the ring never
/// allocates per record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceRecord {
    /// Per-subflow TCP state, taken on congestion-control events and on
    /// the sampling interval.
    SubflowSample {
        /// Simulated-clock nanoseconds.
        at_ns: u64,
        /// Owning subflow index.
        subflow: u32,
        /// Congestion window in bytes.
        cwnd: u32,
        /// Slow-start threshold in bytes.
        ssthresh: u32,
        /// Smoothed RTT in microseconds (0 before the first sample).
        srtt_us: u64,
        /// Bytes in flight at the subflow level.
        in_flight: u32,
        /// Subflow-level next send sequence number.
        snd_nxt: u32,
        /// Subflow-level next expected receive sequence number.
        rcv_nxt: u32,
    },
    /// Connection-level state, taken on the sampling interval.
    ConnSample {
        /// Simulated-clock nanoseconds.
        at_ns: u64,
        /// Advertised connection-level receive window in bytes.
        rwnd: u32,
        /// Next data sequence number to assign.
        data_snd_nxt: u64,
        /// Oldest un-DATA-ACKed data sequence number.
        data_snd_una: u64,
        /// Next expected data sequence number at the receiver.
        data_rcv_nxt: u64,
        /// Out-of-order queue depth in segments.
        reorder_segs: u64,
        /// Out-of-order queue occupancy in bytes.
        reorder_bytes: u64,
        /// Connection-level send buffer capacity (M3-autotuned).
        snd_buf_cap: u64,
        /// Connection-level receive buffer capacity (M3-autotuned).
        rcv_buf_cap: u64,
    },
    /// A discrete event interrupting the series. `subflow` names the
    /// series it belongs to ([`SPAN_CONN_LEVEL`] for connection-level
    /// events like fallback or scheduler stalls).
    Span {
        /// Simulated-clock nanoseconds.
        at_ns: u64,
        /// Subflow the event interrupts, or [`SPAN_CONN_LEVEL`].
        subflow: u32,
        /// What happened (shared with the event ring).
        kind: EventKind,
    },
}

impl TraceRecord {
    /// Timestamp of the record in simulated nanoseconds.
    pub fn at_ns(&self) -> u64 {
        match *self {
            TraceRecord::SubflowSample { at_ns, .. }
            | TraceRecord::ConnSample { at_ns, .. }
            | TraceRecord::Span { at_ns, .. } => at_ns,
        }
    }

    /// Stable snake_case record-type name used in JSONL output.
    pub fn type_name(&self) -> &'static str {
        match self {
            TraceRecord::SubflowSample { .. } => "subflow_sample",
            TraceRecord::ConnSample { .. } => "conn_sample",
            TraceRecord::Span { .. } => "span",
        }
    }

    /// A sample's columns as `(name, value)` pairs in output order — the
    /// one list its JSON members are rendered from.
    /// Empty for spans, whose payload belongs to the [`EventKind`].
    fn sample_fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            TraceRecord::SubflowSample {
                at_ns: _,
                subflow,
                cwnd,
                ssthresh,
                srtt_us,
                in_flight,
                snd_nxt,
                rcv_nxt,
            } => vec![
                ("subflow", subflow.into()),
                ("cwnd", cwnd.into()),
                ("ssthresh", ssthresh.into()),
                ("srtt_us", srtt_us),
                ("in_flight", in_flight.into()),
                ("snd_nxt", snd_nxt.into()),
                ("rcv_nxt", rcv_nxt.into()),
            ],
            TraceRecord::ConnSample {
                at_ns: _,
                rwnd,
                data_snd_nxt,
                data_snd_una,
                data_rcv_nxt,
                reorder_segs,
                reorder_bytes,
                snd_buf_cap,
                rcv_buf_cap,
            } => vec![
                ("rwnd", rwnd.into()),
                ("data_snd_nxt", data_snd_nxt),
                ("data_snd_una", data_snd_una),
                ("data_rcv_nxt", data_rcv_nxt),
                ("reorder_segs", reorder_segs),
                ("reorder_bytes", reorder_bytes),
                ("snd_buf_cap", snd_buf_cap),
                ("rcv_buf_cap", rcv_buf_cap),
            ],
            TraceRecord::Span { .. } => Vec::new(),
        }
    }

    /// Render as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object().key("type").string(self.type_name());
        w.key("at_ns").raw(self.at_ns());
        if let TraceRecord::Span { subflow, kind, .. } = *self {
            w.key("kind").string(kind.name()).key("subflow");
            if subflow == SPAN_CONN_LEVEL {
                w.raw("null");
            } else {
                w.raw(subflow);
            }
            kind.write_payload(&mut w);
        }
        for (name, value) in self.sample_fields() {
            w.key(name).raw(value);
        }
        w.end_object();
        w.finish()
    }
}

/// Immutable copy of one or more recorders' trace rings, time-sorted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Retained records, ordered by `at_ns`.
    pub records: Vec<TraceRecord>,
    /// Records ever offered across the merged rings.
    pub total: u64,
    /// Records overwritten before this snapshot was taken.
    pub dropped_samples: u64,
}

impl TraceSnapshot {
    /// Merge several snapshots (e.g. the connection's trace ring plus
    /// every subflow socket's) into one time-sorted timeline.
    pub fn merge(parts: Vec<TraceSnapshot>) -> TraceSnapshot {
        let mut records = Vec::with_capacity(parts.iter().map(|p| p.records.len()).sum());
        let mut total = 0;
        let mut dropped = 0;
        for p in parts {
            total += p.total;
            dropped += p.dropped_samples;
            records.extend(p.records);
        }
        records.sort_by_key(|r| r.at_ns());
        TraceSnapshot {
            records,
            total,
            dropped_samples: dropped,
        }
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0 && self.records.is_empty()
    }

    /// The span records, in time order.
    pub fn spans(&self) -> impl Iterator<Item = (u64, u32, EventKind)> + '_ {
        self.records.iter().filter_map(|r| match *r {
            TraceRecord::Span {
                at_ns,
                subflow,
                kind,
            } => Some((at_ns, subflow, kind)),
            _ => None,
        })
    }

    /// Distinct subflow ids appearing in subflow samples, ascending.
    pub fn subflow_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .records
            .iter()
            .filter_map(|r| match *r {
                TraceRecord::SubflowSample { subflow, .. } => Some(subflow),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Renders a [`TraceSnapshot`] as JSONL text. File placement is the
/// caller's business; this crate stays IO-free.
pub struct TraceWriter;

impl TraceWriter {
    /// One JSON object per line, time-ordered, with a trailing summary
    /// line carrying the bookkeeping (`{"type":"trace_summary",...}`).
    pub fn to_jsonl(snap: &TraceSnapshot) -> String {
        let mut out = String::new();
        for r in &snap.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        let mut w = Writer::new();
        w.begin_object().key("type").string("trace_summary");
        w.key("records").raw(snap.records.len());
        w.key("total").raw(snap.total);
        w.key("dropped_samples").raw(snap.dropped_samples);
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FallbackCause, Recorder};

    fn traced(capacity: usize, sample_interval_ns: u64) -> Recorder {
        Recorder::traced(
            1,
            TraceConfig {
                enabled: true,
                capacity,
                sample_interval_ns,
            },
        )
    }

    fn sf_sample(at_ns: u64) -> TraceRecord {
        TraceRecord::SubflowSample {
            at_ns,
            subflow: 0,
            cwnd: 14600,
            ssthresh: 65535,
            srtt_us: 20_000,
            in_flight: 2920,
            snd_nxt: 1000,
            rcv_nxt: 1,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_allocates_nothing() {
        let mut t = Recorder::new();
        for i in 0..1000 {
            t.sample(sf_sample(i));
        }
        assert!(!t.tracing());
        assert_eq!(t.trace_snapshot(), TraceSnapshot::default());
        assert!(!t.sample_due(1_000_000_000));
        // So does an enabled config with no capacity.
        assert!(!traced(0, 1).tracing());
    }

    #[test]
    fn ring_bounds_and_counts_dropped_samples() {
        let mut t = traced(3, 1);
        for i in 0..5 {
            t.sample(sf_sample(i));
        }
        let s = t.trace_snapshot();
        assert_eq!(s.total, 5);
        assert_eq!(s.dropped_samples, 2);
        let times: Vec<u64> = s.records.iter().map(|r| r.at_ns()).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn sample_due_honors_interval() {
        let mut t = traced(8, 100);
        assert!(t.sample_due(0));
        assert!(!t.sample_due(50));
        assert!(t.sample_due(100));
        assert!(!t.sample_due(150));
        assert!(t.sample_due(500));
    }

    #[test]
    fn merge_sorts_by_time_and_sums_bookkeeping() {
        let mut a = traced(8, 1);
        let mut b = traced(8, 1);
        a.sample(sf_sample(30));
        b.sample(sf_sample(10));
        b.sample(TraceRecord::Span {
            at_ns: 20,
            subflow: SPAN_CONN_LEVEL,
            kind: EventKind::Fallback {
                cause: FallbackCause::ChecksumFail,
            },
        });
        let m = TraceSnapshot::merge(vec![a.trace_snapshot(), b.trace_snapshot()]);
        let times: Vec<u64> = m.records.iter().map(|r| r.at_ns()).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert_eq!(m.total, 3);
        assert_eq!(m.spans().count(), 1);
    }

    #[test]
    fn jsonl_has_one_object_per_line_plus_summary() {
        let mut t = traced(8, 1);
        t.sample(sf_sample(5));
        t.sample(TraceRecord::ConnSample {
            at_ns: 7,
            rwnd: 1,
            data_snd_nxt: 2,
            data_snd_una: 3,
            data_rcv_nxt: 4,
            reorder_segs: 5,
            reorder_bytes: 6,
            snd_buf_cap: 7,
            rcv_buf_cap: 8,
        });
        let jsonl = TraceWriter::to_jsonl(&t.trace_snapshot());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"subflow_sample\""));
        assert!(lines[0].contains("\"cwnd\":14600"));
        assert!(lines[1].contains("\"data_rcv_nxt\":4"));
        assert!(lines[2].contains("\"dropped_samples\":0"));
    }

    #[test]
    fn span_json_carries_kind_fields_and_null_subflow() {
        let rec = TraceRecord::Span {
            at_ns: 9,
            subflow: SPAN_CONN_LEVEL,
            kind: EventKind::M2Penalize {
                subflow: 1,
                before: 20,
                after: 10,
            },
        };
        let j = rec.to_json();
        assert!(j.contains("\"kind\":\"m2_penalize\""));
        assert!(j.contains("\"subflow\":null"));
        assert!(j.contains("\"before\":20"));
    }
}
