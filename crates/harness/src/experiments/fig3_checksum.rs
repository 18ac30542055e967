//! Figure 3: goodput vs MSS at 10 Gbps with DSM checksums on/off.
//!
//! The paper's Xeon servers were per-packet-cost-bound at small MSS and
//! checksum-bound at jumbo MSS (checksum offload covers the TCP checksum
//! but the DSM checksum must be computed in software, §3.3.6 — costing
//! ~30% at 8–9 KB MSS). We *measure* our real implementation costs on the
//! current machine — the per-packet segment-processing time of the stack
//! and the per-byte DSS checksum throughput — and model:
//!
//! ```text
//! goodput(mss) = min(10 Gbps, 8·mss / (T_pkt + [checksum]·2·mss·T_byte))
//! ```
//!
//! (×2: the sender computes and the receiver verifies.)

use std::time::Instant;

use bytes::Bytes;
use mptcp_netsim::SimTime;
use mptcp_packet::{checksum, Endpoint, FourTuple, SeqNum};
use mptcp_tcpstack::{TcpConfig, TcpSocket};

use crate::report::Figure;

/// Calibration constants for the cost model.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Fixed per-packet processing cost, seconds.
    pub t_pkt: f64,
    /// Per-byte data-touching cost (copies, cache), seconds.
    pub t_copy: f64,
    /// Per-byte ones-complement checksum cost, seconds.
    pub t_byte: f64,
}

impl Calibration {
    /// Constants fitted to the paper's 2012 Xeon curves (Figure 3:
    /// ~2 Gbps at MSS 1500, ~9.5 vs ~6.5 Gbps at MSS 9000).
    pub const PAPER_ERA: Calibration = Calibration {
        t_pkt: 5.68e-6,
        t_copy: 0.21e-9,
        t_byte: 0.194e-9,
    };
}

/// Measure the DSS checksum's per-byte cost on this machine.
pub fn measure_checksum_cost() -> f64 {
    let payload = vec![0xabu8; 64 * 1024];
    // Warm up.
    for _ in 0..16 {
        std::hint::black_box(checksum::dss_checksum(1, 1, 0xffff, &payload));
    }
    let reps = 256;
    let t = Instant::now();
    for i in 0..reps {
        std::hint::black_box(checksum::dss_checksum(i, 1, 0xffff, &payload));
    }
    t.elapsed().as_secs_f64() / (reps as f64 * payload.len() as f64)
}

/// Measure the fixed per-packet cost of our stack: a receiver socket
/// processing one full-MSS segment plus emitting its ACK.
pub fn measure_packet_cost() -> f64 {
    let tuple = FourTuple {
        src: Endpoint::new(1, 1),
        dst: Endpoint::new(2, 2),
    };
    let now = SimTime::ZERO;
    let mut client = TcpSocket::client(TcpConfig::default(), tuple, SeqNum(1), now, vec![]);
    let syn = client.poll(now).unwrap();
    let mut server = TcpSocket::accept(TcpConfig::default(), &syn, SeqNum(500), now, vec![]);
    let synack = server.poll(now).unwrap();
    client.handle_segment(now, &synack);
    while let Some(s) = client.poll(now) {
        server.handle_segment(now, &s);
    }
    // Steady-state: feed segments, drain acks and reads.
    let payload = Bytes::from(vec![0u8; 1460]);
    let reps = 3000u32;
    client.send(&vec![0u8; 64 * 1024]); // prime some state
    let mut seq = client.poll(now).map(|s| s.seq).unwrap_or(SeqNum(2));
    let t = Instant::now();
    for _ in 0..reps {
        let mut seg =
            mptcp_packet::TcpSegment::new(tuple, seq, SeqNum(501), mptcp_packet::TcpFlags::ACK);
        seg.payload = payload.clone();
        seq += 1460;
        server.handle_segment(now, &seg);
        std::hint::black_box(server.poll(now));
        std::hint::black_box(server.read(usize::MAX));
    }
    t.elapsed().as_secs_f64() / f64::from(reps)
}

/// Calibrate the constants on the current machine.
pub fn calibrate() -> Calibration {
    Calibration {
        t_pkt: measure_packet_cost(),
        t_copy: 0.0, // folded into the measured per-packet stack cost
        t_byte: measure_checksum_cost(),
    }
}

/// One view of the curves: goodput with and without DSM checksums over
/// the paper's MSS axis, 1500 to 9000 (jumbo) bytes, under `cal`.
fn figure(view: &str, cal: Calibration) -> Figure {
    const LINE_RATE_GBPS: f64 = 10.0;
    let mut fig = Figure::new(format!(
        "Figure 3: goodput vs MSS, DSM checksum on/off (10 Gbps), {view}"
    ))
    .column("MSS", 0)
    .column("no-cksum Gbps", 2)
    .column("cksum Gbps", 2)
    .column("loss %", 1);
    for mss in [1500usize, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000] {
        let base = cal.t_pkt + mss as f64 * cal.t_copy;
        let no_ck = ((8.0 * mss as f64 / base) / 1e9).min(LINE_RATE_GBPS);
        let with_ck = (8.0 * mss as f64 / (base + 2.0 * mss as f64 * cal.t_byte)) / 1e9;
        let with_ck = with_ck.min(LINE_RATE_GBPS);
        let loss = 100.0 * (1.0 - with_ck / no_ck.max(1e-9));
        fig.row(vec![mss.into(), no_ck.into(), with_ck.into(), loss.into()]);
    }
    fig
}

/// Both views of Figure 3: the paper-era calibration, and the constants
/// measured on this machine.
pub fn figures() -> [Figure; 2] {
    let measured = calibrate();
    let mut this_machine = figure("this machine (measured)", measured);
    this_machine.notes.push(format!(
        "this machine: per-packet {:.0} ns, checksum {:.3} ns/byte — modern CPUs \
         checksum at >10 GB/s, so the 2012 bottleneck vanishes here.",
        measured.t_pkt * 1e9,
        measured.t_byte * 1e9
    ));
    [
        figure("paper-era Xeon calibration", Calibration::PAPER_ERA),
        this_machine,
    ]
}
