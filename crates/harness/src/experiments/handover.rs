//! `repro handover`: WiFi → cellular migration over a pre-opened backup
//! subflow (§3.4's mobility story, driven by the path manager).
//!
//! The client's PM registry marks its cellular interface
//! `SUBFLOW|BACKUP`; the server signals its second address via ADD_ADDR.
//! The resulting backup subflow is established *before* anything goes
//! wrong but carries no data (the scheduler's last-resort tier). When the
//! WiFi interface is withdrawn mid-stream (`FaultKind::AddrDown` — the
//! host *knows* its interface died, unlike a silent blackout), the
//! connection must:
//!
//! * send REMOVE_ADDR for the lost address on the surviving path,
//! * close the WiFi subflow and reinject its stranded chunks,
//! * promote the backup subflow (MP_PRIO) so the scheduler uses it,
//!
//! all in the same instant — so the application-visible byte stream never
//! stalls longer than one minimum RTO, and no retransmission timer fires
//! on the surviving path. Contrast with [`super::chaos::blackout`], where
//! the same migration costs a multi-second failure-detection delay.

use mptcp::telemetry::{CounterId, EventKind, TelemetrySnapshot, TraceConfig, TraceSnapshot};
use mptcp::{
    AbortReason, EndpointFlags, Mechanisms, MptcpConfig, PathManagerCfg, PmEndpoint, PmPolicy,
};
use mptcp_netsim::{Duration, FaultKind, SimTime};

use super::common::{wifi_3g_paths, Policy};
use crate::hosts::{ClientApp, ServerApp};
use crate::scenario::{Endpoints, Scenario, TransportKind};

/// When the WiFi interface is withdrawn.
const SWITCH_AT: SimTime = SimTime::from_secs(3);
/// Total simulated run length.
const RUN_FOR: Duration = Duration::from_secs(8);
/// The app-visible stall budget: one minimum RTO. A handover that relies
/// on any timer would blow this; the PM-driven path migrates in zero time.
const STALL_BUDGET: Duration = Duration::from_millis(200);

/// What the handover run produced.
pub struct HandoverOutcome {
    /// When the WiFi address was withdrawn, seconds.
    pub switch_at_s: f64,
    /// Server bytes delivered before the switch.
    pub delivered_before: u64,
    /// Server bytes delivered after the switch (cellular-only proof).
    pub delivered_after: u64,
    /// Longest gap between consecutive 8 KB delivery stamps in the window
    /// around the switch, milliseconds.
    pub max_gap_ms: f64,
    /// The budget `max_gap_ms` is judged against, milliseconds.
    pub stall_budget_ms: f64,
    /// Was the backup subflow established (and flagged backup) before the
    /// switch?
    pub backup_preopened: bool,
    /// Subflow-level bytes acked on the backup at the pre-switch sample —
    /// zero proves the scheduler kept it in the last-resort tier.
    pub backup_bytes_before: u64,
    /// REMOVE_ADDR options sent for the lost address.
    pub remove_addrs_sent: u64,
    /// MP_PRIO promotions the PM issued.
    pub promotions: u64,
    /// Abort reason, which must stay `None`.
    pub abort: Option<AbortReason>,
    /// Client transport telemetry.
    pub telemetry: TelemetrySnapshot,
    /// Client time-series trace (the PM decision spans land here).
    pub trace: TraceSnapshot,
    /// Invariant violations (empty on a clean handover).
    pub violations: Vec<String>,
}

/// Run the handover scenario with the default policy.
pub fn run(seed: u64, policy: Policy) -> HandoverOutcome {
    let cfg = MptcpConfig::builder()
        .buffers(256 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(false)
        .cc(policy.cc)
        .scheduler(policy.sched)
        .path_manager(PathManagerCfg::new(policy.pm).endpoint(PmEndpoint::new(
            Endpoints::CLIENT[1],
            EndpointFlags::SUBFLOW | EndpointFlags::BACKUP,
        )))
        .trace(TraceConfig::enabled())
        .build()
        .expect("handover config is valid");
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        wifi_3g_paths(),
        seed,
    );
    sc.sim.faults.at(
        SWITCH_AT,
        0,
        FaultKind::AddrDown {
            addr: Endpoints::CLIENT[0],
        },
    );

    // Sample just before the switch: the backup must already be up.
    sc.run_for(Duration::from_millis(2_900));
    let (backup_preopened, backup_bytes_before) = {
        let conn = sc.client_mut().transport.as_mptcp().expect("mptcp client");
        let sfs = conn.subflows();
        let up = sfs.len() >= 2 && !sfs[1].dead && sfs[1].backup;
        let bytes = sfs.get(1).map_or(0, |s| s.sock.stats.bytes_acked);
        (up, bytes)
    };
    let delivered_before = sc.server().app_bytes_received;

    sc.run_for(RUN_FOR - Duration::from_millis(2_900));
    let delivered_after = sc.server().app_bytes_received - delivered_before;

    // Longest delivery gap in (switch - 1 s, switch + 2 s): a migration
    // that leans on a timer shows up as a hole right after the switch.
    let w0 = SimTime::from_secs(2);
    let w1 = SimTime::from_secs(5);
    let mut prev = w0;
    let mut max_gap = Duration::ZERO;
    for &t in sc.server().block_received.iter() {
        if t < w0 || t > w1 {
            continue;
        }
        max_gap = max_gap.max(t - prev);
        prev = t;
    }
    max_gap = max_gap.max(w1 - prev);

    let (abort, telemetry, trace) = {
        let client = sc.client_mut();
        let conn = client.transport.as_mptcp().expect("mptcp client");
        let abort = conn.abort_reason();
        (
            abort,
            client.transport.telemetry(),
            client.transport.trace_snapshot(),
        )
    };
    let remove_addrs_sent = telemetry.counter(CounterId::RemoveAddrsSent);
    let promotions = telemetry.counter(CounterId::PmBackupPromotions);

    let mut violations = Vec::new();
    if !backup_preopened {
        violations.push("backup subflow was not established before the switch".into());
    }
    if delivered_after == 0 {
        violations.push("nothing delivered after the switch (migration failed)".into());
    }
    if max_gap > STALL_BUDGET {
        violations.push(format!(
            "app-visible stall of {:.0} ms exceeds the {:.0} ms budget",
            max_gap.as_secs_f64() * 1e3,
            STALL_BUDGET.as_secs_f64() * 1e3
        ));
    }
    if remove_addrs_sent == 0 {
        violations.push("no REMOVE_ADDR sent for the lost address".into());
    }
    if promotions == 0 {
        violations.push("backup subflow was never promoted (no MP_PRIO)".into());
    }
    // The surviving path's timers must never fire: migration is
    // event-driven, not timeout-driven.
    let switch_ns = SWITCH_AT.0;
    for (at, sf, kind) in trace.spans() {
        match kind {
            EventKind::TcpRto { subflow: 1, .. } if at >= switch_ns => {
                violations.push(format!(
                    "TCP RTO on the surviving subflow at {:.2} s",
                    at as f64 / 1e9
                ));
            }
            EventKind::DataRto { .. } if at >= switch_ns => {
                violations.push(format!("data-level RTO at {:.2} s", at as f64 / 1e9));
            }
            _ => {}
        }
        let _ = sf;
    }
    if !trace
        .spans()
        .any(|(_, _, k)| matches!(k, EventKind::PmBackupPromoted { .. }))
    {
        violations.push("no PmBackupPromoted span in the trace".into());
    }
    if let Some(r) = abort {
        violations.push(format!("unexpected abort: {r}"));
    }
    // SignalOnly would never open the backup; surface a config footgun
    // early rather than as a cryptic stall.
    if policy.pm == PmPolicy::SignalOnly {
        violations.push("handover requires a join-capable pm policy (not signal)".into());
    }

    HandoverOutcome {
        switch_at_s: SWITCH_AT.0 as f64 / 1e9,
        delivered_before,
        delivered_after,
        max_gap_ms: max_gap.as_secs_f64() * 1e3,
        stall_budget_ms: STALL_BUDGET.as_secs_f64() * 1e3,
        backup_preopened,
        backup_bytes_before,
        remove_addrs_sent,
        promotions,
        abort,
        telemetry,
        trace,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 20120425;

    #[test]
    fn handover_migrates_without_stall() {
        let out = run(SEED, Policy::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.backup_preopened);
        assert!(out.delivered_before > 0 && out.delivered_after > 0);
        assert_eq!(out.telemetry.counter(CounterId::PmBackupPromotions), 1);
        assert!(out.max_gap_ms <= out.stall_budget_ms);
    }

    #[test]
    fn handover_emits_pm_decision_spans() {
        let out = run(SEED ^ 1, Policy::default());
        let mut saw_open = false;
        let mut saw_promote = false;
        let mut saw_remove = false;
        for (_, _, k) in out.trace.spans() {
            match k {
                EventKind::PmOpenSubflow { backup: 1, .. } => saw_open = true,
                EventKind::PmBackupPromoted { .. } => saw_promote = true,
                EventKind::RemoveAddr { .. } => saw_remove = true,
                _ => {}
            }
        }
        assert!(saw_open, "no PmOpenSubflow(backup) span");
        assert!(saw_promote, "no PmBackupPromoted span");
        assert!(saw_remove, "no RemoveAddr span");
    }

    #[test]
    fn backup_carries_no_data_before_switch() {
        let out = run(SEED ^ 2, Policy::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(
            out.backup_bytes_before, 0,
            "scheduler striped data onto the backup before the switch"
        );
    }
}
