//! The five workloads. Each is a closed loop from one client: the next
//! operation starts only after the previous one completed and was checked.

pub mod mem_bulk;
pub mod sim;
pub mod wire;

use crate::metrics::Report;
use crate::trace::Spans;

/// Work sizes. `Smoke` is 1/100 of `Full`, for the package's own test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` at full scale, a hundredth of it (at least `floor`) in a
    /// smoke run.
    pub fn of(self, full: u64, floor: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 100).max(floor),
        }
    }
}

/// What a workload is built from.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Feeds payloads and the RNG seeds handed to the library, nothing
    /// else.
    pub seed: u64,
    pub scale: Scale,
    /// Traced run: the workload may switch on the library's own
    /// profiling hooks where they exist.
    pub traced: bool,
}

/// One completed, verified operation.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    /// Application payload bytes delivered and checked.
    pub bytes: u64,
    /// The operation's latency as its user sees it, when that is shorter
    /// than the whole call (a fetch is done when its last byte verified,
    /// before the connection finished closing). `None`: the whole call.
    pub latency_ns: Option<u64>,
}

/// What the runner measured around the traced operations, for metrics
/// that need a denominator from outside the workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct TracedTotals {
    pub bytes: u64,
    pub wall_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

pub trait Workload: Sized {
    /// Whether every operation does exactly the same work (virtual or
    /// simulated clock, same seed). Such a workload's timings are reported
    /// as the floor over the window's operations
    /// ([`crate::stats::floor_mean`]); a real-clock workload's as the
    /// median, because there the spread between operations is the
    /// system's own behaviour, not interference.
    const DETERMINISTIC: bool;

    /// Peak resident memory is read once this many operations have run
    /// (or at the end of a window that holds fewer), so that it measures
    /// a fixed amount of work: a server that keeps state per connection
    /// would otherwise report more memory simply for having been faster.
    const RSS_AFTER_OPS: u64;

    /// Build everything operations need and run the warm-up. The runner
    /// times this call as set-up.
    fn setup(params: Params) -> Result<Self, String>;

    /// One operation; `index` counts from 0 within the run.
    fn op(&mut self, index: u64, spans: &mut Spans) -> Result<Done, String>;

    /// Stop whatever set-up started, then report this workload's layer
    /// metrics (traced runs only read them).
    fn finish(self, spans: &Spans, traced: &TracedTotals, report: &mut Report);
}

/// `num / den`, or 0 when there was nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Subflow-socket telemetry added up over `conns`.
pub fn subflow_telemetry(conns: &[mptcp::MptcpConnection]) -> mptcp_telemetry::Recorder {
    let mut sum = mptcp_telemetry::Recorder::new();
    for sf in conns.iter().flat_map(|c| c.subflows()) {
        sum.absorb(&sf.sock.telemetry);
    }
    sum
}

/// The sender-side TCP counters, each divided by `per` (1 for the exact
/// counts of one operation).
pub fn report_tcp_counters(report: &mut Report, t: &mptcp_telemetry::TelemetrySnapshot, per: f64) {
    use mptcp_telemetry::CounterId as C;
    for (name, id) in [
        ("tcpstack.retransmitted_segs", C::TcpRetransmittedSegs),
        ("tcpstack.rtos", C::TcpRtos),
        ("tcpstack.fast_retransmits", C::TcpFastRetransmits),
    ] {
        report.set(name, ratio(t.counter(id) as f64, per));
    }
}

/// The sender-side counters a workload with one MPTCP connection per
/// operation reads off that connection's telemetry snapshot.
pub fn report_conn_counters(report: &mut Report, t: &mptcp_telemetry::TelemetrySnapshot) {
    use mptcp_telemetry::CounterId as C;
    let picks = t.counter(C::SchedulerPicks) as f64;
    let stalls = t.counter(C::SchedulerStalls) as f64;
    report.set("mptcp.sched_picks", picks);
    report.set("mptcp.sched_stall_ratio", ratio(stalls, stalls + picks));
    report.set("mptcp.m1_reinjections", t.counter(C::M1Reinjections) as f64);
    report.set(
        "mptcp.m2_penalizations",
        t.counter(C::M2Penalizations) as f64,
    );
    report_tcp_counters(report, t, 1.0);
}
