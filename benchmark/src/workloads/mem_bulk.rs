//! `mem_bulk`: an `MptcpConnection` ↔ `MptcpListener` pair over the
//! in-memory pipe. One operation is a whole connection: MP_CAPABLE,
//! MP_JOIN for the second subflow, a bulk transfer client → server with
//! every byte compared, DATA_FIN both ways. The clock is virtual, so each
//! operation does exactly the same work and its wall time is protocol and
//! codec CPU only.

use mptcp::telemetry::TelemetrySnapshot;
use mptcp::MptcpConfig;

use super::{ratio, report_conn_counters, Done, Params, TracedTotals, Workload};
use crate::mem::MptcpPair;
use crate::metrics::Report;
use crate::pipe::seeded_block;
use crate::trace::{Span, Spans};

/// Payload of one operation.
const TRANSFER_BYTES: u64 = 32 << 20;
/// Payload of the warm-up transfer in set-up.
const WARMUP_BYTES: u64 = 16 << 20;
/// The seeded block the stream repeats.
const BLOCK_BYTES: usize = 1 << 20;
const SUBFLOWS: usize = 2;

/// 4 MiB buffers so the window never limits a 100 µs pipe; DSS checksum
/// on or off (off only for the checksum-cost probe).
pub fn pair_config(checksum: bool) -> MptcpConfig {
    MptcpConfig::builder()
        .buffers(4 << 20)
        .checksum(checksum)
        .build()
        .expect("mem_bulk config is valid")
}

pub struct MemBulk {
    seed: u64,
    block: Vec<u8>,
    bytes: u64,
    /// Segments through the pipe and client telemetry of the latest
    /// operation (every operation does identical work).
    last: Option<(u64, TelemetrySnapshot)>,
}

impl MemBulk {
    fn connection(&mut self, bytes: u64, spans: &mut Spans) -> Result<(), String> {
        let mut pair = MptcpPair::connect(pair_config(true), self.seed, SUBFLOWS, spans)?;
        pair.transfer(&self.block, bytes, spans)?;
        pair.close(spans)?;
        self.last = Some((pair.pipe.segments, pair.client.telemetry()));
        Ok(())
    }
}

impl Workload for MemBulk {
    const DETERMINISTIC: bool = true;
    const RSS_AFTER_OPS: u64 = 30;

    fn setup(params: Params) -> Result<MemBulk, String> {
        let mut w = MemBulk {
            seed: params.seed,
            block: seeded_block(params.seed, BLOCK_BYTES),
            bytes: params.scale.of(TRANSFER_BYTES, 256 << 10),
            last: None,
        };
        let warmup = params.scale.of(WARMUP_BYTES, 64 << 10);
        w.connection(warmup, &mut Spans::new())?;
        Ok(w)
    }

    fn op(&mut self, _index: u64, spans: &mut Spans) -> Result<Done, String> {
        self.connection(self.bytes, spans)?;
        Ok(Done {
            bytes: self.bytes,
            latency_ns: None,
        })
    }

    fn finish(self, spans: &Spans, traced: &TracedTotals, report: &mut Report) {
        let segs = spans.totals(Span::PacketEncode).count;
        let per_call = |s: Span| spans.ns_per(s, spans.totals(s).count);
        report.set("packet.encode_ns_per_seg", per_call(Span::PacketEncode));
        report.set("packet.decode_ns_per_seg", per_call(Span::PacketDecode));
        report.set("mptcp.write_ns_per_call", per_call(Span::MptcpWrite));
        report.set("mptcp.read_ns_per_call", per_call(Span::MptcpRead));
        report.set("mptcp.poll_at_ns_per_call", per_call(Span::MptcpPollAt));
        report.set("mptcp.poll_ns_per_seg", spans.ns_per(Span::MptcpPoll, segs));
        report.set(
            "mptcp.handle_ns_per_seg",
            spans.ns_per(Span::MptcpHandle, segs),
        );
        report.set(
            "mptcp.allocs_per_seg",
            ratio(traced.allocs as f64, segs as f64),
        );
        report.set(
            "mptcp.alloc_bytes_per_mib",
            ratio(
                traced.alloc_bytes as f64,
                traced.bytes as f64 / (1 << 20) as f64,
            ),
        );
        if let Some((segments, telemetry)) = &self.last {
            report.set(
                "mptcp.segs_per_mib",
                ratio(*segments as f64, self.bytes as f64 / (1 << 20) as f64),
            );
            report_conn_counters(report, telemetry);
        }
    }
}
