//! Pcap-like per-link packet capture with MPTCP option decoding.
//!
//! When enabled, [`Sim`](crate::sim::Sim) records one [`CaptureRecord`]
//! per routed segment: timestamp, path and direction, TCP header summary,
//! decoded MPTCP options, and the segment's fate — delivered, dropped by a
//! drop-tail queue or random loss, or swallowed by a middlebox. Segments a
//! middlebox rewrote (payload or options differ from what the sender
//! emitted) carry a `mutated` annotation, so a trace shows *what the
//! network did to the traffic*, not just what the endpoints saw.
//!
//! Like the trace ring in `mptcp_telemetry`, capture is zero-cost when
//! disabled (one branch, no allocation) and bounded when enabled: the same
//! [`Ring`] plus a `dropped_records` counter.

use mptcp_packet::{MptcpOption, TcpSegment};
use mptcp_telemetry::json::Writer;
use mptcp_telemetry::Ring;

use crate::path::Dir;

/// Configuration for a [`PacketCapture`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Master switch; when false nothing is buffered or allocated.
    pub enabled: bool,
    /// Ring capacity in records.
    pub capacity: usize,
}

/// Default capture ring capacity — sized for the paper's 25-second
/// two-path scenarios (~130k packets on two 2 Mbps paths, counting pure
/// ACKs) without drops.
pub const DEFAULT_CAPTURE_CAPACITY: usize = 262_144;

impl CaptureConfig {
    /// Capture off — the zero-cost default.
    pub const fn disabled() -> CaptureConfig {
        CaptureConfig {
            enabled: false,
            capacity: 0,
        }
    }

    /// Capture on with the default ring capacity.
    pub const fn enabled() -> CaptureConfig {
        CaptureConfig {
            enabled: true,
            capacity: DEFAULT_CAPTURE_CAPACITY,
        }
    }
}

impl Default for CaptureConfig {
    fn default() -> CaptureConfig {
        CaptureConfig::disabled()
    }
}

/// What happened to a captured segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketFate {
    /// Transmitted and scheduled for delivery.
    Delivered,
    /// Dropped by the link's drop-tail queue.
    QueueDrop,
    /// Dropped by the link's configured random loss.
    RandomDrop,
    /// Swallowed by a middlebox in the path chain.
    MboxDrop,
    /// Silently discarded because a fault held the link down.
    FaultDrop,
}

impl PacketFate {
    /// Stable snake_case name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            PacketFate::Delivered => "delivered",
            PacketFate::QueueDrop => "queue_drop",
            PacketFate::RandomDrop => "random_drop",
            PacketFate::MboxDrop => "mbox_drop",
            PacketFate::FaultDrop => "fault_drop",
        }
    }
}

/// One captured segment. Allocation (flag string, decoded options) only
/// happens when capture is enabled, so the disabled path stays free.
#[derive(Clone, Debug, PartialEq)]
pub struct CaptureRecord {
    /// Simulated-clock nanoseconds at the instant the segment hit the path.
    pub at_ns: u64,
    /// Path index within the simulation.
    pub path: usize,
    /// Traffic direction through the path.
    pub fwd: bool,
    /// Source address and port.
    pub src: (u32, u16),
    /// Destination address and port.
    pub dst: (u32, u16),
    /// Subflow-level sequence number.
    pub seq: u32,
    /// Subflow-level acknowledgment number.
    pub ack: u32,
    /// Flag summary, e.g. `"SA"`, `"A"`, `"FA"`, `"R"`.
    pub flags: String,
    /// Payload bytes.
    pub payload_len: usize,
    /// Wire bytes including TCP/IP headers and options.
    pub wire_len: usize,
    /// Decoded MPTCP option summaries, e.g. `"dss(ack=42,map=7+1460)"`.
    pub mptcp: Vec<String>,
    /// A middlebox rewrote the segment (payload or options changed).
    pub mutated: bool,
    /// What became of the segment.
    pub fate: PacketFate,
}

impl CaptureRecord {
    /// True if the segment carried at least one MPTCP option.
    pub fn has_mptcp(&self) -> bool {
        !self.mptcp.is_empty()
    }

    /// Render as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object().key("type").string("packet");
        w.key("at_ns").raw(self.at_ns).key("path").raw(self.path);
        w.key("dir").string(if self.fwd { "fwd" } else { "rev" });
        w.key("src")
            .string(&format!("{}:{}", self.src.0, self.src.1));
        w.key("dst")
            .string(&format!("{}:{}", self.dst.0, self.dst.1));
        w.key("seq").raw(self.seq).key("ack").raw(self.ack);
        w.key("flags").string(&self.flags);
        w.key("payload_len").raw(self.payload_len);
        w.key("wire_len").raw(self.wire_len);
        w.key("mptcp").begin_array();
        for o in &self.mptcp {
            w.string(o);
        }
        w.end_array().key("mutated").raw(self.mutated);
        w.key("fate").string(self.fate.name()).end_object();
        w.finish()
    }
}

/// Summarize one decoded MPTCP option for a capture record.
pub fn summarize_option(opt: &MptcpOption) -> String {
    match opt {
        MptcpOption::MpCapable { receiver_key, .. } => {
            if receiver_key.is_some() {
                "mp_capable(echo)".to_string()
            } else {
                "mp_capable".to_string()
            }
        }
        MptcpOption::MpJoinSyn { addr_id, .. } => format!("mp_join_syn(id={addr_id})"),
        MptcpOption::MpJoinSynAck { .. } => "mp_join_synack".to_string(),
        MptcpOption::MpJoinAck { .. } => "mp_join_ack".to_string(),
        MptcpOption::Dss {
            data_ack,
            mapping,
            data_fin,
        } => {
            let mut parts = Vec::new();
            if let Some(a) = data_ack {
                parts.push(format!("ack={a}"));
            }
            if let Some(m) = mapping {
                parts.push(format!("map={}+{}", m.dsn, m.len));
                if m.checksum.is_some() {
                    parts.push("ck".to_string());
                }
            }
            if *data_fin {
                parts.push("fin".to_string());
            }
            format!("dss({})", parts.join(","))
        }
        MptcpOption::AddAddr(a) => format!("add_addr(id={},addr={})", a.addr_id, a.addr),
        MptcpOption::RemoveAddr { addr_ids } => {
            let ids: Vec<String> = addr_ids.iter().map(|i| i.to_string()).collect();
            format!("remove_addr(id={})", ids.join("+"))
        }
        MptcpOption::MpPrio { backup, .. } => format!("mp_prio(backup={backup})"),
        MptcpOption::MpFail { dsn } => format!("mp_fail(dsn={dsn})"),
        MptcpOption::FastClose { .. } => "fastclose".to_string(),
    }
}

/// Build the flag summary string (`S`, `A`, `F`, `R`, `P` in that order).
fn flag_string(seg: &TcpSegment) -> String {
    let mut s = String::new();
    if seg.flags.syn {
        s.push('S');
    }
    if seg.flags.ack {
        s.push('A');
    }
    if seg.flags.fin {
        s.push('F');
    }
    if seg.flags.rst {
        s.push('R');
    }
    if seg.flags.psh {
        s.push('P');
    }
    s
}

/// Bounded per-simulation packet capture.
#[derive(Debug)]
pub struct PacketCapture {
    ring: Ring<CaptureRecord>,
}

impl PacketCapture {
    /// A capture honoring `cfg` (disabled config ⇒ permanent no-op).
    pub fn new(cfg: CaptureConfig) -> PacketCapture {
        PacketCapture {
            ring: Ring::new(if cfg.enabled { cfg.capacity } else { 0 }),
        }
    }

    /// Is this capture recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.ring.is_enabled()
    }

    /// Record one segment observation (no-op when disabled; all decoding
    /// happens behind the gate).
    pub fn observe(
        &mut self,
        at_ns: u64,
        path: usize,
        dir: Dir,
        seg: &TcpSegment,
        mutated: bool,
        fate: PacketFate,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.ring.push(CaptureRecord {
            at_ns,
            path,
            fwd: dir == Dir::Fwd,
            src: (seg.tuple.src.addr, seg.tuple.src.port),
            dst: (seg.tuple.dst.addr, seg.tuple.dst.port),
            seq: seg.seq.0,
            ack: seg.ack.0,
            flags: flag_string(seg),
            payload_len: seg.payload.len(),
            wire_len: seg.wire_len(),
            mptcp: seg.mptcp_options().map(summarize_option).collect(),
            mutated,
            fate,
        });
    }

    /// Records ever offered, including overwritten ones.
    pub fn total(&self) -> u64 {
        self.ring.total()
    }

    /// Records overwritten to make room.
    pub fn dropped_records(&self) -> u64 {
        self.ring.dropped()
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// An immutable copy of the retained records and bookkeeping.
    pub fn snapshot(&self) -> CaptureSnapshot {
        CaptureSnapshot {
            records: self.ring.iter().cloned().collect(),
            total: self.total(),
            dropped_records: self.dropped_records(),
        }
    }
}

/// Immutable copy of a [`PacketCapture`]'s state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaptureSnapshot {
    /// Retained records, oldest first.
    pub records: Vec<CaptureRecord>,
    /// Records ever offered.
    pub total: u64,
    /// Records overwritten before this snapshot.
    pub dropped_records: u64,
}

impl CaptureSnapshot {
    /// One JSON object per line plus a trailing summary line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        let mut w = Writer::new();
        w.begin_object().key("type").string("capture_summary");
        w.key("records").raw(self.records.len());
        w.key("total").raw(self.total);
        w.key("dropped_records").raw(self.dropped_records);
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mptcp_packet::{DssMapping, Endpoint, FourTuple, SeqNum, TcpFlags, TcpOption};

    fn seg_with_dss() -> TcpSegment {
        let mut s = TcpSegment::new(
            FourTuple {
                src: Endpoint::new(1, 10),
                dst: Endpoint::new(2, 20),
            },
            SeqNum(100),
            SeqNum(200),
            TcpFlags::ACK,
        );
        s.options.push(TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: Some(42),
            mapping: Some(DssMapping {
                dsn: 7,
                subflow_seq: 1,
                len: 1460,
                checksum: Some(0xbeef),
            }),
            data_fin: false,
        }));
        s.payload = Bytes::from_static(b"data");
        s
    }

    #[test]
    fn disabled_capture_is_inert() {
        let mut c = PacketCapture::new(CaptureConfig::disabled());
        c.observe(
            0,
            0,
            Dir::Fwd,
            &seg_with_dss(),
            false,
            PacketFate::Delivered,
        );
        assert_eq!(c.total(), 0);
        assert_eq!(c.capacity(), 0);
        assert!(c.snapshot().records.is_empty());
    }

    #[test]
    fn records_decode_mptcp_options() {
        let mut c = PacketCapture::new(CaptureConfig {
            enabled: true,
            capacity: 8,
        });
        c.observe(5, 1, Dir::Rev, &seg_with_dss(), true, PacketFate::Delivered);
        let s = c.snapshot();
        assert_eq!(s.records.len(), 1);
        let r = &s.records[0];
        assert!(r.has_mptcp());
        assert_eq!(r.mptcp[0], "dss(ack=42,map=7+1460,ck)");
        assert!(r.mutated);
        assert_eq!(r.flags, "A");
        let j = r.to_json();
        assert!(j.contains("\"dir\":\"rev\""));
        assert!(j.contains("\"fate\":\"delivered\""));
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut c = PacketCapture::new(CaptureConfig {
            enabled: true,
            capacity: 2,
        });
        for i in 0..5 {
            c.observe(
                i,
                0,
                Dir::Fwd,
                &seg_with_dss(),
                false,
                PacketFate::Delivered,
            );
        }
        let s = c.snapshot();
        assert_eq!(s.total, 5);
        assert_eq!(s.dropped_records, 3);
        let times: Vec<u64> = s.records.iter().map(|r| r.at_ns).collect();
        assert_eq!(times, vec![3, 4]);
        assert!(s.to_jsonl().contains("\"dropped_records\":3"));
    }
}
