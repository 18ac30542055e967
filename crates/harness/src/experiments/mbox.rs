//! The §3/§4.1 middlebox matrix: which designs survive which middleboxes.
//!
//! For every middlebox model we run a 200 KB transfer under three designs:
//!
//! * **MPTCP** — two subflows, one per path, full protocol.
//! * **strawman** — the §3 strawman: a *single* TCP sequence space striped
//!   packet-by-packet across both paths (modelled as TCP over per-packet
//!   round-robin bonding, with an independent middlebox instance per
//!   path). Hole-intolerant boxes and ACK-policing proxies sit on each
//!   path and see a gappy stream — the study's reason the strawman is
//!   undeployable.
//! * **TCP** — single path, as a control.
//!
//! Outcomes: `Ok` (transfer completed as MPTCP), `FellBack` (completed as
//! regular TCP after fallback), `Stalled(pct)` (made partial progress).

use mptcp::{Mechanisms, MptcpConfig};
use mptcp_middlebox::proxy::UnseenAckPolicy;
use mptcp_middlebox::{
    HoleDropper, Nat, OptionStripper, PayloadModifier, ProactiveAcker, SegmentCoalescer,
    SegmentSplitter, SeqRewriter, StripMode, SynDropper,
};
use mptcp_netsim::{Duration, LinkCfg, Middlebox, Path, Sim};
use mptcp_tcpstack::TcpConfig;

use super::common::Policy;
use crate::hosts::{ClientApp, Node, ServerApp};
use crate::report::Figure;
use crate::scenario::{Scenario, TransportKind};

/// The transfer designs compared (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Design {
    /// Full MPTCP, one subflow per path.
    Mptcp,
    /// Single sequence space striped across paths.
    Strawman,
    /// Single-path TCP control.
    Tcp,
}

/// Outcome of one (middlebox, design) cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Transfer completed with MPTCP signalling intact.
    Ok,
    /// Transfer completed after falling back to regular TCP.
    FellBack,
    /// Transfer stalled; payload delivered fraction in percent.
    Stalled(f64),
}

impl Outcome {
    /// Did all the data arrive?
    pub fn completed(&self) -> bool {
        !matches!(self, Outcome::Stalled(_))
    }
}

/// The middlebox models of §4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MboxKind {
    /// Clean path (control row).
    None,
    /// NAT with SYN-gated mappings.
    Nat,
    /// Initial-sequence-number rewriting.
    SeqRewrite,
    /// MPTCP options stripped from SYNs.
    StripSyn,
    /// MPTCP options stripped from SYN/ACKs only.
    StripSynAck,
    /// MPTCP options stripped from data segments.
    StripData,
    /// SYNs bearing unknown options silently dropped.
    SynDrop,
    /// TSO-style segment splitting.
    Split,
    /// Normalizer-style segment coalescing.
    Coalesce,
    /// Proxy acking data pro-actively and correcting unseen ACKs.
    ProxyAck,
    /// Data after a sequence hole not forwarded.
    HoleDrop,
    /// FTP-ALG payload rewriting with length change.
    PayloadRewrite,
}

impl MboxKind {
    /// All rows of the matrix.
    pub fn all() -> Vec<MboxKind> {
        vec![
            MboxKind::None,
            MboxKind::Nat,
            MboxKind::SeqRewrite,
            MboxKind::StripSyn,
            MboxKind::StripSynAck,
            MboxKind::StripData,
            MboxKind::SynDrop,
            MboxKind::Split,
            MboxKind::Coalesce,
            MboxKind::ProxyAck,
            MboxKind::HoleDrop,
            MboxKind::PayloadRewrite,
        ]
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            MboxKind::None => "clean path",
            MboxKind::Nat => "NAT",
            MboxKind::SeqRewrite => "seq rewriter",
            MboxKind::StripSyn => "opt-strip (SYN)",
            MboxKind::StripSynAck => "opt-strip (SYN/ACK)",
            MboxKind::StripData => "opt-strip (data)",
            MboxKind::SynDrop => "SYN dropper",
            MboxKind::Split => "segment splitter",
            MboxKind::Coalesce => "segment coalescer",
            MboxKind::ProxyAck => "pro-active acker",
            MboxKind::HoleDrop => "hole dropper",
            MboxKind::PayloadRewrite => "payload ALG",
        }
    }

    /// Instantiate the element (fresh per path). `client_addr` is the
    /// address of the path's client side: the NAT model translates ports
    /// only (public address = client address), which exercises mapping
    /// state and SYN-gating without needing extra return routes in the
    /// simulator.
    pub fn make(&self, client_addr: u32) -> Option<Box<dyn Middlebox>> {
        match self {
            MboxKind::None => None,
            MboxKind::Nat => Some(Box::new(Nat::new(client_addr))),
            MboxKind::SeqRewrite => Some(Box::new(SeqRewriter::new())),
            MboxKind::StripSyn => Some(Box::new(OptionStripper::mptcp(StripMode::SynOnly))),
            MboxKind::StripSynAck => Some(Box::new(OptionStripper::mptcp(StripMode::SynAckOnly))),
            MboxKind::StripData => Some(Box::new(OptionStripper::mptcp(StripMode::DataOnly))),
            MboxKind::SynDrop => Some(Box::new(SynDropper::mptcp())),
            MboxKind::Split => Some(Box::new(SegmentSplitter::new(700))),
            MboxKind::Coalesce => Some(Box::new(SegmentCoalescer::new(
                Duration::from_micros(500),
                4096,
            ))),
            MboxKind::ProxyAck => Some(Box::new(ProactiveAcker::new(
                true,
                UnseenAckPolicy::Correct,
            ))),
            MboxKind::HoleDrop => Some(Box::new(HoleDropper::new())),
            MboxKind::PayloadRewrite => Some(Box::new(PayloadModifier::new(
                b"\x5a\x5a\x5a\x5a\x5a\x5a\x5a\x5a",
                b"\x21\x21\x21\x21\x21\x21\x21\x21\x21\x21",
            ))),
        }
    }
}

/// One matrix cell result.
#[derive(Clone, Debug)]
pub struct Cell {
    /// What happened.
    pub outcome: Outcome,
    /// Goodput in Mbps over the transfer (over the whole 30 s if it stalled).
    pub goodput_mbps: f64,
}

const TRANSFER: usize = 200_000;

fn make_path(mbox: MboxKind, client_addr: u32) -> Path {
    let mut p = Path::symmetric(LinkCfg {
        rate_bps: 10_000_000,
        delay: Duration::from_millis(10),
        queue_bytes: 64 * 1500,
        loss: 0.0,
    });
    if let Some(el) = mbox.make(client_addr) {
        p = p.with_middlebox(el);
    }
    p
}

/// Run one cell: a 200 KB transfer with a 30 s deadline.
pub fn run_cell(mbox: MboxKind, design: Design, seed: u64, policy: Policy) -> Cell {
    let buf = 256 * 1024;
    let (kind, paths) = match design {
        Design::Mptcp => {
            let cfg = MptcpConfig::builder()
                .buffers(buf)
                .mechanisms(Mechanisms::M1_2)
                .checksum(true) // the ALG detector must be armed
                .cc(policy.cc)
                .scheduler(policy.sched)
                .build()
                .expect("middlebox config is valid");
            (
                TransportKind::Mptcp(cfg),
                vec![
                    make_path(mbox, crate::scenario::Endpoints::CLIENT[0]),
                    make_path(mbox, crate::scenario::Endpoints::CLIENT[1]),
                ],
            )
        }
        // The strawman stripes one connection over both paths, so both
        // middlebox instances see its (gappy) stream.
        Design::Strawman => (
            TransportKind::BondedTcp(TcpConfig::with_buffers(buf)),
            vec![
                make_path(mbox, crate::scenario::Endpoints::CLIENT[0]),
                make_path(mbox, crate::scenario::Endpoints::CLIENT[0]),
            ],
        ),
        Design::Tcp => (
            TransportKind::Tcp(TcpConfig::with_buffers(buf)),
            vec![make_path(mbox, crate::scenario::Endpoints::CLIENT[0])],
        ),
    };
    let mut sc = Scenario::new(
        kind,
        ClientApp::Bulk {
            total: TRANSFER,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        paths,
        seed,
    );
    // Time the transfer to its last byte; judge the outcome at the deadline
    // (a mid-stream fallback may be detected after the last delivery).
    let start = sc.sim.now;
    let deadline = start + Duration::from_secs(30);
    let server = sc.server;
    let received = |sim: &Sim<Node>| sim.hosts[server].as_server().unwrap().app_bytes_received;
    sc.sim
        .run_while(deadline, |sim| received(sim) < TRANSFER as u64);
    let elapsed = sc.sim.now - start;
    sc.sim.run_until(deadline);
    let delivered = sc.server().app_bytes_received;
    let fell_back = match &sc.client().transport {
        crate::transport::Transport::Mptcp(c) => c.is_fallback(),
        _ => false,
    };
    let outcome = if delivered >= TRANSFER as u64 {
        if design == Design::Mptcp && fell_back {
            Outcome::FellBack
        } else {
            Outcome::Ok
        }
    } else {
        Outcome::Stalled(100.0 * delivered as f64 / TRANSFER as f64)
    };
    Cell {
        outcome,
        goodput_mbps: crate::metrics::Rates::mbps(delivered, elapsed),
    }
}

/// The full matrix: every middlebox against MPTCP, the strawman and TCP.
pub fn figure(seed: u64, policy: Policy) -> Figure {
    let mut fig = Figure::new("S3/S4.1: middlebox x design survival matrix (200 KB transfer)")
        .column("middlebox", 0)
        .column("MPTCP", 0)
        .column("strawman (striped)", 0)
        .column("TCP", 0);
    for mbox in MboxKind::all() {
        let mut row = vec![mbox.label().into()];
        for design in [Design::Mptcp, Design::Strawman, Design::Tcp] {
            let cell = run_cell(mbox, design, seed, policy);
            row.push(
                match cell.outcome {
                    Outcome::Ok => format!("ok {:.1} Mbps", cell.goodput_mbps),
                    Outcome::FellBack => format!("fell back {:.1} Mbps", cell.goodput_mbps),
                    Outcome::Stalled(p) => format!("STALLED {p:.0}%"),
                }
                .into(),
            );
        }
        fig.row(row);
    }
    fig.notes.extend(policy.note());
    fig
}
