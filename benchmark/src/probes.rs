//! Single-layer probes, run at the end of every traced run.
//!
//! A workload only sees a layer through the layers above it. Each probe
//! here drives one layer directly, with nothing else in the way, so the
//! ladder `packet` → `tcpstack` pair → MPTCP pair → wire has a number on
//! every rung and the gap between two rungs names the layer that owns it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mptcp::reorder::make_queue;
use mptcp::{MptcpListener, ReorderAlgo};
use mptcp_netsim::{Host, LinkCfg, Outbox, Path, Sim, SimTime};
use mptcp_packet::{checksum, Endpoint, FourTuple, SeqNum, TcpFlags, TcpSegment};
use mptcp_tcpstack::TcpConfig;

use crate::alloc;
use crate::mem::{MptcpPair, TcpPair};
use crate::metrics::Report;
use crate::pipe::{seeded_block, Pipe, To};
use crate::trace::{Span, Spans};
use crate::workloads::mem_bulk::pair_config;
use crate::workloads::{ratio, Scale};

/// Units per second: `f` is called until `budget` has passed, in batches
/// that double until one takes at least a millisecond.
fn rate(units_per_call: f64, budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let (mut calls, mut batch) = (0u64, 1u64);
    while started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        calls += batch;
        if t.elapsed() < Duration::from_millis(1) {
            batch *= 2;
        }
    }
    units_per_call * calls as f64 / started.elapsed().as_secs_f64()
}

fn mbps(bytes: u64, wall: Duration) -> f64 {
    bytes as f64 * 8.0 / wall.as_secs_f64() / 1e6
}

pub fn run(report: &mut Report, seed: u64, scale: Scale) -> Result<(), String> {
    let budget = Duration::from_millis(scale.of(150, 5));
    let block = seeded_block(seed, 1 << 20);
    packet(report, &block, budget, scale);
    let tcp = tcp_pair(report, &block, seed, scale)?;
    mptcp_pair(report, &block, seed, scale, tcp)?;
    conn_setup(report, &block, seed, scale)?;
    reorder(report, budget);
    netsim(report, seed, scale);
    Ok(())
}

fn packet(report: &mut Report, block: &[u8], budget: Duration, scale: Scale) {
    let mss = &block[..1460];
    let bytes_per_s = rate(mss.len() as f64, budget, || {
        black_box(checksum::ones_complement_add(0, black_box(mss)));
    });
    report.set("packet.checksum_gbps", bytes_per_s / 1e9);

    // One full-sized data segment through the pipe's codec cycle, as the
    // in-memory workloads and (minus the frame header) the wire do it.
    let mut seg = TcpSegment::new(
        FourTuple {
            src: Endpoint::new(0x0a00_0102, 4000),
            dst: Endpoint::new(0x0a00_0101, 80),
        },
        SeqNum(1),
        SeqNum(1),
        TcpFlags::ACK,
    );
    seg.window = 1 << 20;
    seg.payload = Bytes::copy_from_slice(mss);
    let mut pipe = Pipe::new(Duration::ZERO);
    let mut spans = Spans::new();
    let mut out = Vec::new();
    let now = SimTime::from_millis(1);
    let mut cycle = |pipe: &mut Pipe| {
        pipe.send(To::Server, now, &seg, &mut spans);
        pipe.deliver(To::Server, now, &mut out, &mut spans)
            .expect("the pipe does not corrupt");
        pipe.recycle(&mut out);
    };
    // Warm the pool and the spare-segment list before counting.
    for _ in 0..64 {
        cycle(&mut pipe);
    }
    let cycles = scale.of(100_000, 1000);
    let (before, _) = alloc::counted();
    alloc::set_counting(true);
    for _ in 0..cycles {
        cycle(&mut pipe);
    }
    alloc::set_counting(false);
    let (after, _) = alloc::counted();
    report.set(
        "packet.allocs_per_seg",
        ratio((after - before) as f64, cycles as f64),
    );
}

/// Rung (a): a `TcpSocket` pair over the pipe. Returns its goodput.
fn tcp_pair(report: &mut Report, block: &[u8], seed: u64, scale: Scale) -> Result<f64, String> {
    let bytes = scale.of(32 << 20, 256 << 10);
    let cfg = TcpConfig::with_buffers(4 << 20);

    let mut spans = Spans::new();
    let mut pair = TcpPair::connect(cfg.clone(), seed, &mut spans)?;
    let t = Instant::now();
    pair.transfer(block, bytes, &mut spans)?;
    let goodput = mbps(bytes, t.elapsed());
    report.set("tcpstack.pair_goodput_mbps", goodput);

    // The same transfer again with spans on, for the per-segment costs.
    spans.set_enabled(true);
    let mut pair = TcpPair::connect(cfg, seed, &mut spans)?;
    pair.transfer(block, bytes / 2, &mut spans)?;
    let segs = pair.segments();
    report.set(
        "tcpstack.poll_ns_per_seg",
        spans.ns_per(Span::TcpPoll, segs),
    );
    report.set(
        "tcpstack.handle_ns_per_seg",
        spans.ns_per(Span::TcpHandle, segs),
    );
    Ok(goodput)
}

/// Rung (b): the MPTCP pair, DSS checksum on and off (Fig 3 asked of this
/// stack with no simulator and no syscalls).
fn mptcp_pair(
    report: &mut Report,
    block: &[u8],
    seed: u64,
    scale: Scale,
    tcp_goodput: f64,
) -> Result<(), String> {
    let bytes = scale.of(32 << 20, 256 << 10);
    let mut goodput = [0.0; 2];
    for (slot, checksum) in goodput.iter_mut().zip([true, false]) {
        let mut spans = Spans::new();
        let mut pair = MptcpPair::connect(pair_config(checksum), seed, 2, &mut spans)?;
        let t = Instant::now();
        pair.transfer(block, bytes, &mut spans)?;
        *slot = mbps(bytes, t.elapsed());
    }
    let [on, off] = goodput;
    report.set("mptcp.pair_goodput_mbps", on);
    report.set("mptcp.checksum_cost_ratio", ratio(off, on));
    report.set("mptcp.overhead_vs_tcp", ratio(tcp_goodput, on));
    Ok(())
}

/// MP_CAPABLE + MP_JOIN + a request-sized write + DATA_FIN, many
/// connections against one listener, so the token table and the tuple map
/// grow as they would on a server. The write is there because a client
/// that closes before any data has confirmed MPTCP to it never gets its
/// DATA_FIN acknowledged on about one seed in three (see the README).
fn conn_setup(report: &mut Report, block: &[u8], seed: u64, scale: Scale) -> Result<(), String> {
    const REQUEST_BYTES: u64 = 100;
    let connections = scale.of(2000, 20);
    let cfg = pair_config(true);
    let mut spans = Spans::new();
    let mut listener = MptcpListener::new(cfg.clone(), seed ^ 0x5e4);
    let t = Instant::now();
    for i in 0..connections {
        let port = 4000 + 2 * i as u16;
        let mut pair = MptcpPair::connect_to(
            listener,
            cfg.clone(),
            seed.wrapping_add(i),
            port,
            2,
            &mut spans,
        )?;
        pair.transfer(block, REQUEST_BYTES, &mut spans)?;
        pair.close(&mut spans)?;
        listener = pair.into_listener();
    }
    report.set(
        "mptcp.conn_setup_us",
        t.elapsed().as_secs_f64() * 1e6 / connections as f64,
    );
    Ok(())
}

/// The connection-level reorder queue, with the calls `repro perf` makes.
fn reorder(report: &mut Report, budget: Duration) {
    const RUN: u64 = 64;
    let chunk = Bytes::from(vec![0u8; 1460]);

    // In order: batched contiguous runs, drained as they complete.
    let mut q = make_queue(ReorderAlgo::AllShortcuts);
    let mut rcv = 0u64;
    let mut batch: Vec<(u64, Bytes, usize)> = Vec::with_capacity(RUN as usize);
    let inorder = rate(RUN as f64, budget, || {
        for i in 0..RUN {
            batch.push((rcv + i * 1460, chunk.clone(), 0));
        }
        q.insert_batch(&mut batch);
        while let Some((d, b)) = q.pop_ready(rcv) {
            rcv = d + b.len() as u64;
        }
        black_box(rcv);
    });
    report.set("mptcp.reorder_inorder_msegs", inorder / 1e6);

    // Adversarial: the second subflow's half arrives first, so every
    // insert lands out of order, then the gap fills back to front.
    let mut q = make_queue(ReorderAlgo::AllShortcuts);
    let mut base = 0u64;
    let adversarial = rate(RUN as f64, budget, || {
        for k in 0..RUN / 2 {
            q.insert(base + (RUN / 2 + k) * 1460, chunk.clone(), 1);
        }
        for k in (0..RUN / 2).rev() {
            q.insert(base + k * 1460, chunk.clone(), 0);
        }
        let mut rcv = base;
        while let Some((d, b)) = q.pop_ready(rcv) {
            rcv = d + b.len() as u64;
        }
        base = rcv;
        black_box(base);
    });
    report.set("mptcp.reorder_adversarial_msegs", adversarial / 1e6);
}

const SOURCE_ADDR: u32 = 0x0a00_0001;
const SINK_ADDR: u32 = 0x0a00_0002;

/// A host that keeps one link full, or swallows what arrives.
enum Trivial {
    Source {
        template: TcpSegment,
        /// Next instant the link has room for another packet.
        next_at: SimTime,
        interval: Duration,
    },
    Sink {
        received: u64,
    },
}

impl Host for Trivial {
    fn handle_segment(&mut self, _now: SimTime, _seg: TcpSegment, _out: &mut Outbox) {
        if let Trivial::Sink { received } = self {
            *received += 1;
        }
    }

    fn poll(&mut self, now: SimTime, out: &mut Outbox) {
        if let Trivial::Source {
            template,
            next_at,
            interval,
        } = self
        {
            if now >= *next_at {
                out.send(template.clone());
                *next_at = now + *interval;
            }
        }
    }

    fn poll_at(&self, _now: SimTime) -> Option<SimTime> {
        match self {
            Trivial::Source { next_at, .. } => Some(*next_at),
            Trivial::Sink { .. } => None,
        }
    }
}

/// The simulator alone: two hosts with no transport, one path kept at
/// line rate. Wall time per packet is the event loop, the route lookup,
/// the link model and the delivery queue.
fn netsim(report: &mut Report, seed: u64, scale: Scale) {
    let link = LinkCfg::gigabit();
    let mut template = TcpSegment::new(
        FourTuple {
            src: Endpoint::new(SOURCE_ADDR, 1),
            dst: Endpoint::new(SINK_ADDR, 1),
        },
        SeqNum(0),
        SeqNum(0),
        TcpFlags::ACK,
    );
    template.payload = Bytes::from(vec![0u8; 1460]);
    let interval = link.serialization(template.wire_len());

    let mut sim: Sim<Trivial> = Sim::new(seed);
    let source = sim.add_host(Trivial::Source {
        template,
        next_at: SimTime::ZERO,
        interval,
    });
    let sink = sim.add_host(Trivial::Sink { received: 0 });
    sim.bind_addr(SOURCE_ADDR, source);
    sim.bind_addr(SINK_ADDR, sink);
    sim.connect(SOURCE_ADDR, SINK_ADDR, Path::symmetric(link));

    let packets = scale.of(200_000, 2000);
    let t = Instant::now();
    sim.run_until(SimTime::ZERO + interval * packets as u32);
    let wall = t.elapsed();
    let Trivial::Sink { received } = sim.hosts[sink] else {
        unreachable!("host {sink} was added as the sink");
    };
    report.set(
        "netsim.ns_per_packet",
        ratio(wall.as_nanos() as f64, received as f64),
    );
}
