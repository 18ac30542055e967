//! `repro chaos`: fault-injection runs exercising path-failure detection
//! and break-before-make recovery (the robustness story behind §3.4's
//! mobility machinery).
//!
//! Three parts, each returning violations instead of panicking so the
//! `repro` binary can render everything before deciding the exit code:
//!
//! * [`blackout`] — the headline demo: the scheduler-preferred WiFi path
//!   goes silently dark for 3 s mid-transfer. The connection must keep
//!   delivering on 3G (break-before-make: the stranded DSNs are
//!   reinjected), declare the path Suspect → Failed, and promote it back
//!   to Active once the link returns;
//! * [`all_paths`] — every path goes dark past the abort deadline. The
//!   connection must abort with the typed
//!   [`AbortReason::AllPathsFailed`] instead of hanging;
//! * [`sweep_run`] — a seeded randomized schedule of blackholes, loss
//!   bursts, delay spikes and bandwidth drops. Invariants: every byte is
//!   delivered exactly once, the run finishes (no deadlock), and the
//!   connection never aborts under recoverable faults.

use mptcp::telemetry::{CounterId, EventKind, TelemetrySnapshot, TraceConfig, TraceSnapshot};
use mptcp::{AbortReason, FailureDetection, Mechanisms, MptcpConfig, PathManagerCfg, PathState};
use mptcp_netsim::{AppliedFault, Duration, FaultKind, SimRng, SimTime};

use super::common::{wifi_3g_paths, Policy};
use crate::hosts::{ClientApp, ServerApp};
use crate::scenario::{Scenario, TransportKind};

/// Shared client configuration: generous buffers so the blackout strands
/// real in-flight data, M1+M2 (the paper's recommended set), no checksum
/// cost.
fn chaos_cfg(trace: bool, policy: Policy) -> MptcpConfig {
    let mut b = MptcpConfig::builder()
        .buffers(256 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(false)
        .cc(policy.cc)
        .scheduler(policy.sched)
        .path_manager(PathManagerCfg::new(policy.pm));
    if trace {
        b = b.trace(TraceConfig::enabled());
    }
    b.build().expect("chaos config is valid")
}

/// A continuous client → server bulk scenario over WiFi+3G.
fn bulk_scenario(cfg: MptcpConfig, total: usize, seed: u64) -> Scenario {
    Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        wifi_3g_paths(),
        seed,
    )
}

/// What the single-path blackout run produced.
pub struct BlackoutOutcome {
    /// Server bytes before the blackout window opened.
    pub delivered_before: u64,
    /// Server bytes delivered *during* the 3 s blackout (survival proof:
    /// they rode the 3G path).
    pub delivered_during: u64,
    /// Server bytes delivered after the link came back.
    pub delivered_after: u64,
    /// `CounterId::PathFailures` at the end.
    pub path_failures: u64,
    /// `CounterId::PathRecoveries` at the end.
    pub path_recoveries: u64,
    /// `ConnStats::reinjections` at the end (break-before-make evidence).
    pub reinjections: u64,
    /// Final scheduler-visible state of the blacked-out subflow.
    pub final_state: PathState,
    /// Abort reason, which must stay `None` here.
    pub abort: Option<AbortReason>,
    /// Client transport telemetry (PathSuspect/PathFailed/PathRecovered).
    pub telemetry: TelemetrySnapshot,
    /// Fault-schedule telemetry (`faults_injected`, `blackout_injected`).
    pub fault_telemetry: TelemetrySnapshot,
    /// Faults and restores that fired, in order.
    pub faults: Vec<AppliedFault>,
    /// Client time-series trace (the `path_*` spans land here too).
    pub trace: TraceSnapshot,
    /// Invariant violations (empty on a healthy run).
    pub violations: Vec<String>,
}

/// Blackout the WiFi path (path 0 — the scheduler's preferred low-RTT
/// path) from t=1 s for 3 s under a continuous bulk transfer.
pub fn blackout(seed: u64, policy: Policy) -> BlackoutOutcome {
    let mut sc = bulk_scenario(chaos_cfg(true, policy), usize::MAX / 2, seed);
    sc.sim
        .faults
        .blackout(0, SimTime::from_secs(1), Duration::from_secs(3));

    sc.run_for(Duration::from_secs(1));
    let delivered_before = sc.server().app_bytes_received;
    sc.run_for(Duration::from_secs(3));
    let delivered_during = sc.server().app_bytes_received - delivered_before;
    // Recovery window: probes are on exponential backoff, so give the
    // restored link several seconds to be re-validated.
    sc.run_for(Duration::from_secs(8));
    let delivered_after = sc.server().app_bytes_received - delivered_before - delivered_during;

    let (reinjections, final_state, abort, telemetry, trace) = {
        let client = sc.client_mut();
        let conn = client.transport.as_mptcp().expect("mptcp client");
        (
            conn.stats.reinjections,
            conn.path_state(0),
            conn.abort_reason(),
            client.transport.telemetry(),
            client.transport.trace_snapshot(),
        )
    };
    let path_failures = telemetry.counter(CounterId::PathFailures);
    let path_recoveries = telemetry.counter(CounterId::PathRecoveries);
    let fault_telemetry = sc.sim.faults.telemetry();
    let faults = sc.sim.faults.applied().to_vec();

    let mut violations = Vec::new();
    if delivered_during == 0 {
        violations.push("no bytes delivered during the blackout (surviving path idle)".into());
    }
    if path_failures == 0 {
        violations.push("blacked-out path was never declared Failed".into());
    }
    if path_recoveries == 0 {
        violations.push("path never recovered after the link came back".into());
    }
    if reinjections == 0 {
        violations.push("no break-before-make reinjection of stranded DSNs".into());
    }
    if let Some(r) = abort {
        violations.push(format!("unexpected abort: {r}"));
    }
    if final_state != PathState::Active {
        violations.push(format!("final path state {final_state:?}, expected Active"));
    }
    if telemetry.counter(CounterId::PathSuspects) == 0 {
        violations.push("blacked-out path was never declared Suspect".into());
    }
    if !telemetry
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::PathRecovered { subflow: 0 }))
    {
        violations.push("no PathRecovered event for subflow 0".into());
    }
    if !fault_telemetry
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::BlackoutInjected { path: 0 }))
    {
        violations.push("fault schedule recorded no BlackoutInjected event".into());
    }

    BlackoutOutcome {
        delivered_before,
        delivered_during,
        delivered_after,
        path_failures,
        path_recoveries,
        reinjections,
        final_state,
        abort,
        telemetry,
        fault_telemetry,
        faults,
        trace,
        violations,
    }
}

/// What the all-paths blackout run produced.
pub struct AllPathsOutcome {
    /// The abort deadline configured for the run.
    pub abort_deadline: Duration,
    /// The typed abort reason (must be `AllPathsFailed`).
    pub abort: Option<AbortReason>,
    /// Simulated second the `ConnAborted` event fired, if it did.
    pub aborted_at_s: Option<f64>,
    /// `CounterId::PathFailures` at the end.
    pub path_failures: u64,
    /// Client transport telemetry.
    pub telemetry: TelemetrySnapshot,
    /// Invariant violations (empty on a healthy run).
    pub violations: Vec<String>,
}

/// Take every path down (open-ended, no restore) one second into a bulk
/// transfer; the connection must abort with a typed reason — never hang.
pub fn all_paths(seed: u64, policy: Policy) -> AllPathsOutcome {
    let abort_deadline = Duration::from_secs(5);
    let cfg = chaos_cfg(false, policy)
        .into_builder()
        .failure_detection(FailureDetection {
            abort_deadline,
            ..FailureDetection::default()
        })
        .build()
        .expect("chaos config is valid");
    let mut sc = bulk_scenario(cfg, usize::MAX / 2, seed);
    let from = SimTime::from_secs(1);
    sc.sim.faults.at(from, 0, FaultKind::LinkDown);
    sc.sim.faults.at(from, 1, FaultKind::LinkDown);
    sc.run_for(Duration::from_secs(30));

    let (abort, telemetry) = {
        let client = sc.client_mut();
        let conn = client.transport.as_mptcp().expect("mptcp client");
        (conn.abort_reason(), client.transport.telemetry())
    };
    let path_failures = telemetry.counter(CounterId::PathFailures);
    let aborted_at_s = telemetry.events.iter().find_map(|e| {
        matches!(e.kind, EventKind::ConnAborted { .. }).then_some(e.at_ns as f64 / 1e9)
    });

    let mut violations = Vec::new();
    if abort != Some(AbortReason::AllPathsFailed) {
        violations.push(format!(
            "expected AllPathsFailed abort, got {abort:?} (a hang looks like None)"
        ));
    }
    match aborted_at_s {
        None => violations.push("no ConnAborted telemetry event".into()),
        // Detection needs a few RTOs before the deadline clock even
        // starts; well past deadline + backoff slack means a stall.
        Some(t) if t > 20.0 => violations.push(format!("abort far too late, at {t:.1} s")),
        Some(_) => {}
    }
    if path_failures < 2 {
        violations.push(format!("only {path_failures} of 2 paths declared Failed"));
    }

    AllPathsOutcome {
        abort_deadline,
        abort,
        aborted_at_s,
        path_failures,
        telemetry,
        violations,
    }
}

/// One randomized-schedule run of the invariant sweep.
pub struct SweepRun {
    /// The seed (drives both the simulator and the fault schedule).
    pub seed: u64,
    /// Bytes the client set out to send.
    pub total: u64,
    /// Bytes the server's application read.
    pub delivered: u64,
    /// Faults + restores that fired.
    pub faults: Vec<AppliedFault>,
    /// Abort reason (must be `None`: every injected fault is recoverable).
    pub abort: Option<AbortReason>,
    /// Simulated seconds the run took.
    pub elapsed_s: f64,
    /// Invariant violations (empty on a healthy run).
    pub violations: Vec<String>,
}

/// Bytes each sweep run transfers.
const SWEEP_TOTAL: usize = 6_000_000;
/// Simulated-time budget; running out of it is the deadlock invariant.
const SWEEP_DEADLINE: SimTime = SimTime::from_secs(120);

/// Queue a seeded random schedule of recoverable faults: blackholes, loss
/// bursts, delay spikes and bandwidth drops, each window well under the
/// abort deadline so a correct implementation always rides them out.
fn random_schedule(sc: &mut Scenario, seed: u64) {
    let mut rng = SimRng::new(seed ^ 0xfa17_5eed);
    for _ in 0..6 {
        let path = rng.range(0, 2) as usize;
        let at = SimTime::from_millis(rng.range(500, 6_000));
        let duration = Duration::from_millis(rng.range(300, 2_500));
        let kind = match rng.range(0, 4) {
            0 => FaultKind::Blackhole { duration },
            1 => FaultKind::LossBurst {
                loss: 0.05 + rng.next_f64() * 0.25,
                duration,
            },
            2 => FaultKind::DelaySpike {
                extra: Duration::from_millis(rng.range(50, 400)),
                duration,
            },
            _ => FaultKind::BandwidthDrop {
                factor: 0.1 + rng.next_f64() * 0.4,
                duration,
            },
        };
        sc.sim.faults.at(at, path, kind);
    }
}

/// Run one seeded randomized-fault transfer and check the invariants.
pub fn sweep_run(seed: u64, policy: Policy) -> SweepRun {
    let mut sc = bulk_scenario(chaos_cfg(false, policy), SWEEP_TOTAL, seed);
    random_schedule(&mut sc, seed);

    let mut delivered = 0u64;
    let mut abort = None;
    while sc.sim.now < SWEEP_DEADLINE {
        sc.run_for(Duration::from_secs(1));
        delivered = sc.server().app_bytes_received;
        abort = sc
            .client_mut()
            .transport
            .as_mptcp()
            .and_then(|c| c.abort_reason());
        if delivered >= SWEEP_TOTAL as u64 || abort.is_some() {
            break;
        }
    }
    let elapsed_s = sc.sim.now.0 as f64 / 1e9;
    let faults = sc.sim.faults.applied().to_vec();

    let mut violations = Vec::new();
    match delivered.cmp(&(SWEEP_TOTAL as u64)) {
        std::cmp::Ordering::Less => violations.push(format!(
            "delivered {delivered} of {SWEEP_TOTAL} bytes (deadlock or loss)"
        )),
        std::cmp::Ordering::Greater => violations.push(format!(
            "delivered {delivered} > {SWEEP_TOTAL} bytes written: duplicate delivery"
        )),
        std::cmp::Ordering::Equal => {}
    }
    if let Some(r) = abort {
        violations.push(format!("aborted under recoverable faults: {r}"));
    }

    SweepRun {
        seed,
        total: SWEEP_TOTAL as u64,
        delivered,
        faults,
        abort,
        elapsed_s,
        violations,
    }
}

/// Run the whole chaos suite: blackout demo, all-paths abort, and
/// `sweep_n` randomized seeds derived from `seed`.
pub struct ChaosArtifacts {
    /// The single-path blackout demo.
    pub blackout: BlackoutOutcome,
    /// The all-paths abort check.
    pub all_paths: AllPathsOutcome,
    /// The randomized invariant sweep.
    pub sweep: Vec<SweepRun>,
}

impl ChaosArtifacts {
    /// Every violation across the suite, prefixed by its origin.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .blackout
            .violations
            .iter()
            .map(|v| format!("blackout: {v}"))
            .collect();
        out.extend(
            self.all_paths
                .violations
                .iter()
                .map(|v| format!("all-paths: {v}")),
        );
        for run in &self.sweep {
            out.extend(
                run.violations
                    .iter()
                    .map(|v| format!("sweep seed {}: {v}", run.seed)),
            );
        }
        out
    }
}

/// Run everything.
pub fn run(seed: u64, sweep_n: u64, policy: Policy) -> ChaosArtifacts {
    ChaosArtifacts {
        blackout: blackout(seed, policy),
        all_paths: all_paths(seed, policy),
        sweep: (0..sweep_n)
            .map(|i| sweep_run(seed ^ (i * 7919), policy))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 20120425;

    #[test]
    fn blackout_survives_and_recovers() {
        let out = blackout(SEED, Policy::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.delivered_during > 0);
        // The path_* spans must also be visible in the time-series trace.
        assert!(
            out.trace
                .spans()
                .any(|(_, _, k)| matches!(k, EventKind::PathFailed { .. })),
            "no PathFailed span in the trace"
        );
    }

    #[test]
    fn all_paths_down_aborts_with_typed_reason() {
        let out = all_paths(SEED, Policy::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.abort, Some(AbortReason::AllPathsFailed));
    }

    #[test]
    fn randomized_sweep_holds_invariants() {
        let run = sweep_run(SEED, Policy::default());
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(!run.faults.is_empty(), "schedule injected nothing");
    }
}
