//! Figure 10: connection-establishment latency (SYN → SYN/ACK) measured
//! in real wall-clock time on this machine.
//!
//! For regular TCP the server just builds a control block; for MPTCP it
//! must hash the client's key, generate its own key, and verify the token
//! is unique among established connections (§5.2). We measure our actual
//! implementation: [`mptcp::TokenTable::generate`] with the table
//! pre-filled with 0 / 100 / 1000 connections — in the linear-scan mode
//! that reproduces the paper's growth, and in hash-set mode (the obvious
//! modern fix). The key-pool ablation measures the §5.2 suggestion.

use std::time::Instant;

use mptcp::{KeyPool, MptcpConfig, MptcpListener, TokenTable};
use mptcp_netsim::{SimRng, SimTime};
use mptcp_packet::{Endpoint, FourTuple, MptcpOption, SeqNum, TcpFlags, TcpOption, TcpSegment};
use mptcp_tcpstack::TcpConfig;
use mptcp_telemetry::LogHistogram;

use crate::report::Figure;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Row {
    /// Label ("regular TCP", "MPTCP", "MPTCP - 100 conn", ...).
    pub label: String,
    /// Latency samples in nanoseconds.
    pub samples_ns: Vec<u64>,
    /// Log-bucketed view of the same samples, for sort-free quantiles.
    hist: LogHistogram,
}

impl Row {
    /// A row over raw nanosecond latency samples.
    pub fn new(label: String, samples_ns: Vec<u64>) -> Row {
        let mut hist = LogHistogram::new();
        for &ns in &samples_ns {
            hist.record(ns);
        }
        Row {
            label,
            samples_ns,
            hist,
        }
    }

    /// Median latency in microseconds (log-bucketed, ≤ ~3% error).
    pub fn median_us(&self) -> f64 {
        self.hist.quantile(0.5) as f64 / 1000.0
    }
}

fn mp_syn(rng: &mut SimRng) -> TcpSegment {
    let mut syn = TcpSegment::new(
        FourTuple {
            src: Endpoint::new(0x0a000001, (rng.next_u32() % 50000) as u16 + 1024),
            dst: Endpoint::new(0x0a000063, 80),
        },
        SeqNum(rng.next_u32()),
        SeqNum(0),
        TcpFlags::SYN,
    );
    syn.options.push(TcpOption::Mptcp(MptcpOption::MpCapable {
        version: 0,
        checksum_required: true,
        sender_key: rng.next_u64(),
        receiver_key: None,
    }));
    syn
}

/// Time the full server-side SYN→SYN/ACK path of our MPTCP listener with
/// `existing` established connections in the token table.
pub fn measure_mptcp(trials: usize, existing: usize, scan_lookup: bool, seed: u64) -> Row {
    let mut rng = SimRng::new(seed);
    let mut listener = MptcpListener::new(MptcpConfig::default(), seed);
    listener.tokens.scan_lookup = scan_lookup;
    for _ in 0..existing {
        let _ = listener.tokens.generate(&mut rng);
    }
    let mut samples = Vec::with_capacity(trials);
    for _ in 0..trials {
        let syn = mp_syn(&mut rng);
        let t = Instant::now();
        let idx = listener
            .handle_segment(SimTime::ZERO, &syn)
            .expect("accepted");
        // Poll only the new connection: the cost under test is key
        // generation + token uniqueness + SYN/ACK construction, not
        // unrelated connections.
        let synack = listener.conn_mut(idx).poll(SimTime::ZERO);
        samples.push(t.elapsed().as_nanos() as u64);
        debug_assert!(synack.is_some_and(|s| s.flags.syn && s.flags.ack));
    }
    let label = if existing == 0 {
        "MPTCP".to_string()
    } else {
        format!("MPTCP - {existing} conn")
    };
    Row::new(label, samples)
}

/// Time the plain-TCP accept path (control block + SYN/ACK build).
pub fn measure_tcp(trials: usize, seed: u64) -> Row {
    let mut rng = SimRng::new(seed);
    let mut samples = Vec::with_capacity(trials);
    for _ in 0..trials {
        let mut syn = mp_syn(&mut rng);
        syn.options.retain(|o| !o.is_mptcp());
        let t = Instant::now();
        let mut sock = mptcp_tcpstack::TcpSocket::accept(
            TcpConfig::default(),
            &syn,
            SeqNum(rng.next_u32()),
            SimTime::ZERO,
            vec![],
        );
        let synack = sock.poll(SimTime::ZERO);
        samples.push(t.elapsed().as_nanos() as u64);
        debug_assert!(synack.is_some());
    }
    Row::new("regular TCP".to_string(), samples)
}

/// Time key acquisition with a precomputed pool (§5.2 optimization).
pub fn measure_keypool(trials: usize, seed: u64) -> Row {
    let mut rng = SimRng::new(seed);
    let mut table = TokenTable::new();
    let mut pool = KeyPool::new(trials + 1);
    pool.refill(&mut rng);
    let mut samples = Vec::with_capacity(trials);
    for _ in 0..trials {
        let t = Instant::now();
        let ks = pool.take(&mut table, &mut rng);
        samples.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(ks);
    }
    Row::new("MPTCP + key pool (keygen only)".to_string(), samples)
}

/// The full Figure 10 set, 20 000 trials per configuration (2 000 when
/// `quick`): each one's median SYN→SYN/ACK latency, after an untimed pass
/// of the first MPTCP configuration warms the caches and the heap.
pub fn figure(quick: bool, seed: u64) -> Figure {
    let trials = if quick { 2_000 } else { 20_000 };
    measure_mptcp(trials, 0, true, seed);
    let mut rows = vec![measure_tcp(trials, seed)];
    for existing in [0usize, 100, 1000] {
        rows.push(measure_mptcp(trials, existing, true, seed));
    }
    rows.push(measure_keypool(trials, seed));
    let mut fig = Figure::new("Figure 10: SYN->SYN/ACK latency (wall clock, this machine)")
        .column("configuration", 0)
        .column("median us", 2);
    for r in rows {
        fig.row(vec![r.label.as_str().into(), r.median_us().into()]);
    }
    fig
}
