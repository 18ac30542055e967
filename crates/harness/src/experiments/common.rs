//! Shared experiment plumbing: bulk-transfer runs and measurement windows.

use mptcp::telemetry::{TraceConfig, TraceSnapshot};
use mptcp::{
    CcAlgorithm, Mechanisms, MptcpConfig, PathManagerCfg, PmPolicy, ReorderAlgo, SchedulerKind,
};
use mptcp_netsim::{CaptureConfig, CaptureSnapshot, Duration, PacketCapture, Path};
use mptcp_tcpstack::TcpConfig;

use crate::hosts::{ClientApp, ServerApp};
use crate::metrics::Rates;
use crate::scenario::{Scenario, TransportKind};

/// The (congestion-control, scheduler, path-manager) policy triple a run
/// uses.
///
/// Every experiment accepts one of these; the default — coupled LIA with
/// the lowest-RTT scheduler and the kernel-style default path manager —
/// is the paper's deployable configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Policy {
    /// Congestion-control algorithm installed on every subflow.
    pub cc: CcAlgorithm,
    /// Packet scheduler driving chunk placement.
    pub sched: SchedulerKind,
    /// Path-manager policy driving subflow establishment.
    pub pm: PmPolicy,
}

impl Policy {
    /// A policy from explicit cc + scheduler parts (default path manager).
    pub fn new(cc: CcAlgorithm, sched: SchedulerKind) -> Policy {
        Policy {
            cc,
            sched,
            pm: PmPolicy::default(),
        }
    }

    /// `"lia+minrtt+default"`-style label for reports and table headers.
    pub fn label(&self) -> String {
        format!("{}+{}+{}", self.cc, self.sched, self.pm)
    }

    /// The note a run under a non-default policy carries, so sweeps are
    /// self-labelling; `None` for the default.
    pub fn note(&self) -> Option<String> {
        (*self != Policy::default()).then(|| {
            format!(
                "(policy: cc={}, scheduler={}, pm={})",
                self.cc, self.sched, self.pm
            )
        })
    }
}

/// The transport variants the figures compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Regular TCP over path 0.
    Tcp,
    /// Regular MPTCP: no receive-buffer mechanisms.
    MptcpRegular,
    /// MPTCP + opportunistic retransmission.
    MptcpM1,
    /// MPTCP + M1 + penalization (the paper's recommended config).
    MptcpM12,
    /// MPTCP + M1,2,3 (autotuning).
    MptcpM123,
    /// MPTCP + all mechanisms (adds cwnd capping).
    MptcpAll,
    /// TCP with per-packet round-robin link bonding.
    BondedTcp,
}

impl Variant {
    /// Human-readable label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Tcp => "TCP",
            Variant::MptcpRegular => "regular MPTCP",
            Variant::MptcpM1 => "MPTCP+M1",
            Variant::MptcpM12 => "MPTCP+M1,2",
            Variant::MptcpM123 => "MPTCP+M1,2,3",
            Variant::MptcpAll => "MPTCP+M1,2,3,4",
            Variant::BondedTcp => "bonding TCP",
        }
    }

    /// Build the transport kind with symmetric `buf` send/receive buffers
    /// and the default (LIA + minRTT) policy.
    pub fn kind(&self, buf: usize) -> TransportKind {
        self.kind_with(buf, Policy::default())
    }

    /// [`Variant::kind`] with an explicit congestion-control + scheduler
    /// policy. TCP variants ignore the policy (single path, Reno).
    pub fn kind_with(&self, buf: usize, policy: Policy) -> TransportKind {
        match self {
            Variant::Tcp => TransportKind::Tcp(tcp_cfg(buf, false)),
            Variant::BondedTcp => TransportKind::BondedTcp(tcp_cfg(buf, false)),
            v => {
                let mech = match v {
                    Variant::MptcpRegular => Mechanisms::NONE,
                    Variant::MptcpM1 => Mechanisms::M1,
                    Variant::MptcpM12 => Mechanisms::M1_2,
                    Variant::MptcpM123 => Mechanisms::M1_2_3,
                    _ => Mechanisms::ALL,
                };
                let cfg = MptcpConfig::builder()
                    .buffers(buf)
                    .mechanisms(mech)
                    .reorder(ReorderAlgo::Shortcuts)
                    // The paper's emulated-link studies disable checksum cost.
                    .checksum(false)
                    .cc(policy.cc)
                    .scheduler(policy.sched)
                    .path_manager(PathManagerCfg::new(policy.pm))
                    .build()
                    .expect("experiment config is valid");
                TransportKind::Mptcp(cfg)
            }
        }
    }
}

/// A TCP config with symmetric buffers.
pub fn tcp_cfg(buf: usize, autotune: bool) -> TcpConfig {
    let mut c = TcpConfig::with_buffers(buf);
    c.autotune = autotune;
    c
}

/// Result of one bulk run.
#[derive(Clone, Debug)]
pub struct BulkResult {
    /// Application-level goodput in Mbps over the measurement window.
    pub goodput_mbps: f64,
    /// Scheduled (wire payload incl. re-injections) throughput in Mbps.
    pub throughput_mbps: f64,
    /// Mean sender memory over the window, bytes.
    pub sender_mem: f64,
    /// Mean receiver memory over the window, bytes.
    pub receiver_mem: f64,
    /// Did the transport fall back to plain TCP?
    pub fell_back: bool,
    /// Client-side transport telemetry at the end of the run (M1–M4,
    /// fallback causes, reorder/scheduler internals).
    pub telemetry: mptcp::telemetry::TelemetrySnapshot,
}

/// A [`BulkResult`] plus the time-series artifacts of a traced run.
#[derive(Clone, Debug)]
pub struct TracedBulkResult {
    /// The scalar rates and telemetry of the run.
    pub bulk: BulkResult,
    /// Client-side time-series trace (conn + subflow samples, spans).
    pub trace: TraceSnapshot,
    /// Per-link packet capture with MPTCP options decoded.
    pub capture: CaptureSnapshot,
}

/// Neither a time-series trace nor a packet capture: what the figures'
/// bulk runs ask [`run_bulk`] for.
pub const UNTRACED: (TraceConfig, CaptureConfig) =
    (TraceConfig::disabled(), CaptureConfig::disabled());

/// Run a continuous bulk transfer (client → server) under `policy` for
/// `warmup + measure`, returning rates over the measurement window only,
/// with time-series tracing and packet capture as `traced` asks
/// ([`UNTRACED`] costs nothing).
#[allow(clippy::too_many_arguments)]
pub fn run_bulk(
    variant: Variant,
    buf: usize,
    paths: Vec<Path>,
    warmup: Duration,
    measure: Duration,
    seed: u64,
    policy: Policy,
    (trace, capture): (TraceConfig, CaptureConfig),
) -> TracedBulkResult {
    let mut kind = variant.kind_with(buf, policy);
    match &mut kind {
        TransportKind::Mptcp(cfg) => {
            let traced = cfg.clone().into_builder().trace(trace);
            *cfg = traced.build().expect("trace is valid");
        }
        TransportKind::Tcp(tcp) | TransportKind::BondedTcp(tcp) => tcp.trace = trace,
    }
    let mut sc = Scenario::new(
        kind,
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        paths,
        seed,
    );
    sc.sim.capture = PacketCapture::new(capture);
    measure_bulk(&mut sc, warmup, measure)
}

/// Run `sc` for `warmup`, then for `measure`, and collect the rates and
/// memory means of the measurement window plus the client's telemetry,
/// trace and the simulator's capture at the end.
pub(crate) fn measure_bulk(
    sc: &mut Scenario,
    warmup: Duration,
    measure: Duration,
) -> TracedBulkResult {
    sc.run_for(warmup);
    let delivered0 = sc.server().app_bytes_received;
    let scheduled0 = scheduled_bytes(sc);
    let t0 = sc.sim.now;
    sc.run_for(measure);
    let elapsed = sc.sim.now - t0;
    let delivered = sc.server().app_bytes_received - delivered0;
    let scheduled = scheduled_bytes(sc) - scheduled0;
    let client = sc.client();
    TracedBulkResult {
        bulk: BulkResult {
            goodput_mbps: Rates::mbps(delivered, elapsed),
            throughput_mbps: Rates::mbps(scheduled, elapsed),
            sender_mem: client.mem_sampler.mean_after(t0),
            receiver_mem: sc.server().mem_sampler.mean_after(t0),
            fell_back: match &client.transport {
                crate::transport::Transport::Mptcp(c) => c.is_fallback(),
                _ => false,
            },
            telemetry: client.transport.telemetry(),
        },
        trace: client.transport.trace_snapshot(),
        capture: sc.sim.capture.snapshot(),
    }
}

pub(crate) fn scheduled_bytes(sc: &mut Scenario) -> u64 {
    match &mut sc.client_mut().transport {
        crate::transport::Transport::Mptcp(c) => c.stats.bytes_scheduled,
        crate::transport::Transport::Tcp(s) => s.stats.bytes_out,
    }
}

/// The paper's emulated WiFi+3G path pair (Figs 4, 5, 7).
pub fn wifi_3g_paths() -> Vec<Path> {
    vec![
        Path::symmetric(mptcp_netsim::LinkCfg::wifi()),
        Path::symmetric(mptcp_netsim::LinkCfg::threeg()),
    ]
}

/// Standard measurement windows.
pub const WARMUP: Duration = Duration::from_secs(3);
/// Default measurement duration.
pub const MEASURE: Duration = Duration::from_secs(20);
