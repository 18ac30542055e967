//! Fault injection: timed network events on the simulator clock.
//!
//! A [`FaultSchedule`] holds [`FaultEvent`]s — blackouts, silent
//! blackholes, loss bursts, delay spikes, bandwidth drops, mid-connection
//! middlebox insertion/removal — that the [`Sim`](crate::sim::Sim) applies
//! to its paths exactly when their timestamps come due. Faults fire from
//! the same event loop as deliveries and timers, so a seeded run replays
//! the same failure timeline every time.
//!
//! Windowed faults (everything carrying a `duration`) save the affected
//! link configuration when they fire and schedule their own restore event;
//! `LinkDown`/`LinkUp` are the unpaired primitives for open-ended
//! blackouts. Overlapping windows on the same path restore in firing
//! order, so schedules should avoid overlapping the same path unless that
//! interleaving is the point.

use mptcp_telemetry::{CounterId, EventKind, Recorder, TelemetrySnapshot};

use crate::link::LinkCfg;
use crate::path::{Middlebox, Path};
use crate::sim::PathId;
use crate::time::{min_deadline, Duration, SimTime};

/// What a fault does to a path when it fires.
pub enum FaultKind {
    /// Take both directions down: a silent blackout (packets vanish, no
    /// RST) until a matching [`FaultKind::LinkUp`].
    LinkDown,
    /// Bring a downed path back up.
    LinkUp,
    /// Silent blackhole for `duration`, then self-restore. Identical to a
    /// `LinkDown`/`LinkUp` pair with the restore managed by the schedule.
    Blackhole { duration: Duration },
    /// Force both directions to random-drop with probability `loss` for
    /// `duration`, then restore the configured loss rates.
    LossBurst { loss: f64, duration: Duration },
    /// Add `extra` one-way propagation delay in both directions for
    /// `duration` (a handover or deep-fade spike).
    DelaySpike { extra: Duration, duration: Duration },
    /// Scale both directions' rate by `factor` (usually < 1) for
    /// `duration`, with a 1 bps floor.
    BandwidthDrop { factor: f64, duration: Duration },
    /// Splice a middlebox into the front of the path's chain
    /// mid-connection (e.g. a NAT reboot bringing up a stricter box).
    InsertMiddlebox(Box<dyn Middlebox>),
    /// Remove every chain element whose `name()` matches.
    RemoveMiddlebox { name: &'static str },
    /// An interface loss: take the path down (like
    /// [`FaultKind::LinkDown`]) *and* notify the host owning `addr` via
    /// [`Host::addr_event`](crate::sim::Host::addr_event), so its
    /// transport can withdraw the address (REMOVE_ADDR) and migrate.
    AddrDown { addr: u32 },
    /// The interface returns: path back up, owner notified.
    AddrUp { addr: u32 },
}

impl FaultKind {
    /// Stable snake_case name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown => "link_down",
            FaultKind::LinkUp => "link_up",
            FaultKind::Blackhole { .. } => "blackhole",
            FaultKind::LossBurst { .. } => "loss_burst",
            FaultKind::DelaySpike { .. } => "delay_spike",
            FaultKind::BandwidthDrop { .. } => "bandwidth_drop",
            FaultKind::InsertMiddlebox(_) => "insert_middlebox",
            FaultKind::RemoveMiddlebox { .. } => "remove_middlebox",
            FaultKind::AddrDown { .. } => "addr_down",
            FaultKind::AddrUp { .. } => "addr_up",
        }
    }
}

/// One scheduled fault.
pub struct FaultEvent {
    /// Simulated instant the fault fires.
    pub at: SimTime,
    /// The path it applies to.
    pub path: PathId,
    /// What happens.
    pub kind: FaultKind,
}

/// Record of a fault (or scheduled restore) that already fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppliedFault {
    /// When it fired.
    pub at: SimTime,
    /// The path it hit.
    pub path: PathId,
    /// [`FaultKind::name`] of the event (`"restore"` for window ends).
    pub name: &'static str,
}

/// How to undo a windowed fault when its duration elapses.
enum Restore {
    /// Bring the path back up (ends a [`FaultKind::Blackhole`]).
    LinkUp,
    /// Re-install the saved link configurations.
    Cfgs { fwd: LinkCfg, rev: LinkCfg },
}

/// A time-ordered set of faults plus the bookkeeping of applying them.
#[derive(Default)]
pub struct FaultSchedule {
    pending: Vec<FaultEvent>,
    restores: Vec<(SimTime, PathId, Restore)>,
    applied: Vec<AppliedFault>,
    /// `(addr, up)` notifications for the sim to hand to address owners.
    addr_events: Vec<(u32, bool)>,
    telemetry: Recorder,
}

impl FaultSchedule {
    /// An empty schedule (the default for every [`Sim`](crate::sim::Sim)).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Queue a fault event.
    pub fn push(&mut self, ev: FaultEvent) {
        self.pending.push(ev);
    }

    /// Queue `kind` on `path` at time `at`.
    pub fn at(&mut self, at: SimTime, path: PathId, kind: FaultKind) {
        self.push(FaultEvent { at, path, kind });
    }

    /// Convenience: blackout `path` from `from` for `duration` (a
    /// `LinkDown` plus its `LinkUp`).
    pub fn blackout(&mut self, path: PathId, from: SimTime, duration: Duration) {
        self.at(from, path, FaultKind::LinkDown);
        self.at(from + duration, path, FaultKind::LinkUp);
    }

    /// True when no fault or restore remains scheduled.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty() && self.restores.is_empty()
    }

    /// Earliest instant anything in the schedule needs to fire.
    pub fn next_at(&self) -> Option<SimTime> {
        let mut next = self.pending.iter().map(|e| e.at).min();
        next = min_deadline(next, self.restores.iter().map(|(t, _, _)| *t).min());
        next
    }

    /// Apply every fault and restore due at or before `now`. Restores run
    /// first so a window ending exactly when another fault begins hands
    /// the new fault a clean path.
    pub fn apply_due(&mut self, now: SimTime, paths: &mut [Path]) {
        let mut i = 0;
        while i < self.restores.len() {
            if self.restores[i].0 <= now {
                let (_, pid, restore) = self.restores.swap_remove(i);
                match restore {
                    Restore::LinkUp => {
                        paths[pid].fwd.up = true;
                        paths[pid].rev.up = true;
                    }
                    Restore::Cfgs { fwd, rev } => {
                        paths[pid].fwd.cfg = fwd;
                        paths[pid].rev.cfg = rev;
                    }
                }
                self.applied.push(AppliedFault {
                    at: now,
                    path: pid,
                    name: "restore",
                });
            } else {
                i += 1;
            }
        }
        while let Some(ev) = self.pop_due(now) {
            self.apply(now, ev, paths);
        }
    }

    /// Extract the earliest due event, ties broken by insertion order.
    fn pop_due(&mut self, now: SimTime) -> Option<FaultEvent> {
        let mut best: Option<usize> = None;
        for (i, ev) in self.pending.iter().enumerate() {
            if ev.at <= now && best.is_none_or(|b| ev.at < self.pending[b].at) {
                best = Some(i);
            }
        }
        best.map(|i| self.pending.remove(i))
    }

    fn apply(&mut self, now: SimTime, ev: FaultEvent, paths: &mut [Path]) {
        let pid = ev.path;
        let name = ev.kind.name();
        let path = &mut paths[pid];
        match ev.kind {
            FaultKind::LinkDown => {
                path.fwd.up = false;
                path.rev.up = false;
                self.telemetry
                    .note(now.0, EventKind::BlackoutInjected { path: pid as u32 });
            }
            FaultKind::LinkUp => {
                path.fwd.up = true;
                path.rev.up = true;
            }
            FaultKind::Blackhole { duration } => {
                path.fwd.up = false;
                path.rev.up = false;
                self.restores.push((now + duration, pid, Restore::LinkUp));
                self.telemetry
                    .note(now.0, EventKind::BlackoutInjected { path: pid as u32 });
            }
            FaultKind::LossBurst { loss, duration } => {
                self.save_cfgs(now + duration, pid, path);
                path.fwd.cfg.loss = loss;
                path.rev.cfg.loss = loss;
            }
            FaultKind::DelaySpike { extra, duration } => {
                self.save_cfgs(now + duration, pid, path);
                path.fwd.cfg.delay += extra;
                path.rev.cfg.delay += extra;
            }
            FaultKind::BandwidthDrop { factor, duration } => {
                self.save_cfgs(now + duration, pid, path);
                for link in [&mut path.fwd, &mut path.rev] {
                    link.cfg.rate_bps = ((link.cfg.rate_bps as f64 * factor) as u64).max(1);
                }
            }
            FaultKind::InsertMiddlebox(mb) => {
                path.chain.insert(0, mb);
            }
            FaultKind::RemoveMiddlebox { name } => {
                path.chain.retain(|mb| mb.name() != name);
            }
            FaultKind::AddrDown { addr } => {
                path.fwd.up = false;
                path.rev.up = false;
                self.addr_events.push((addr, false));
                self.telemetry
                    .note(now.0, EventKind::BlackoutInjected { path: pid as u32 });
            }
            FaultKind::AddrUp { addr } => {
                path.fwd.up = true;
                path.rev.up = true;
                self.addr_events.push((addr, true));
            }
        }
        self.telemetry.count(CounterId::FaultsInjected);
        self.applied.push(AppliedFault {
            at: now,
            path: pid,
            name,
        });
    }

    fn save_cfgs(&mut self, restore_at: SimTime, pid: PathId, path: &Path) {
        self.restores.push((
            restore_at,
            pid,
            Restore::Cfgs {
                fwd: path.fwd.cfg,
                rev: path.rev.cfg,
            },
        ));
    }

    /// Every fault and restore that has fired, in firing order.
    pub fn applied(&self) -> &[AppliedFault] {
        &self.applied
    }

    /// Drain `(addr, up)` notifications produced by fired
    /// [`FaultKind::AddrDown`]/[`FaultKind::AddrUp`] events. The sim
    /// dispatches them to the owning hosts right after faults apply.
    pub fn take_addr_events(&mut self) -> Vec<(u32, bool)> {
        std::mem::take(&mut self.addr_events)
    }

    /// Telemetry recorded by firing faults (`faults_injected`,
    /// `blackout_injected` events).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkCfg;

    fn path() -> Path {
        Path::symmetric(LinkCfg::wifi())
    }

    #[test]
    fn blackout_downs_and_restores() {
        let mut paths = vec![path()];
        let mut sched = FaultSchedule::new();
        sched.blackout(0, SimTime::from_secs(1), Duration::from_secs(3));
        assert_eq!(sched.next_at(), Some(SimTime::from_secs(1)));

        sched.apply_due(SimTime::from_millis(500), &mut paths);
        assert!(paths[0].fwd.up);

        sched.apply_due(SimTime::from_secs(1), &mut paths);
        assert!(!paths[0].fwd.up);
        assert!(!paths[0].rev.up);
        assert_eq!(sched.next_at(), Some(SimTime::from_secs(4)));

        sched.apply_due(SimTime::from_secs(4), &mut paths);
        assert!(paths[0].fwd.up);
        assert!(sched.is_empty());
        let names: Vec<&str> = sched.applied().iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["link_down", "link_up"]);
        let t = sched.telemetry();
        assert_eq!(
            t.counter(mptcp_telemetry::CounterId::FaultsInjected),
            2 // down + up
        );
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::BlackoutInjected { path: 0 })));
    }

    #[test]
    fn blackhole_self_restores() {
        let mut paths = vec![path()];
        let mut sched = FaultSchedule::new();
        sched.at(
            SimTime::ZERO,
            0,
            FaultKind::Blackhole {
                duration: Duration::from_secs(2),
            },
        );
        sched.apply_due(SimTime::ZERO, &mut paths);
        assert!(!paths[0].fwd.up);
        assert_eq!(sched.next_at(), Some(SimTime::from_secs(2)));
        sched.apply_due(SimTime::from_secs(2), &mut paths);
        assert!(paths[0].fwd.up);
        assert!(sched.is_empty());
    }

    #[test]
    fn windowed_cfg_faults_restore_originals() {
        let mut paths = vec![path()];
        let orig = paths[0].fwd.cfg;
        let mut sched = FaultSchedule::new();
        sched.at(
            SimTime::ZERO,
            0,
            FaultKind::LossBurst {
                loss: 0.5,
                duration: Duration::from_secs(1),
            },
        );
        sched.at(
            SimTime::from_secs(2),
            0,
            FaultKind::DelaySpike {
                extra: Duration::from_millis(200),
                duration: Duration::from_secs(1),
            },
        );
        sched.at(
            SimTime::from_secs(4),
            0,
            FaultKind::BandwidthDrop {
                factor: 0.25,
                duration: Duration::from_secs(1),
            },
        );

        sched.apply_due(SimTime::ZERO, &mut paths);
        assert_eq!(paths[0].fwd.cfg.loss, 0.5);
        sched.apply_due(SimTime::from_secs(1), &mut paths);
        assert_eq!(paths[0].fwd.cfg.loss, orig.loss);

        sched.apply_due(SimTime::from_secs(2), &mut paths);
        assert_eq!(
            paths[0].rev.cfg.delay,
            orig.delay + Duration::from_millis(200)
        );
        sched.apply_due(SimTime::from_secs(3), &mut paths);
        assert_eq!(paths[0].rev.cfg.delay, orig.delay);

        sched.apply_due(SimTime::from_secs(4), &mut paths);
        assert_eq!(paths[0].fwd.cfg.rate_bps, orig.rate_bps / 4);
        sched.apply_due(SimTime::from_secs(5), &mut paths);
        assert_eq!(paths[0].fwd.cfg.rate_bps, orig.rate_bps);
        assert!(sched.is_empty());
    }

    #[test]
    fn same_instant_faults_fire_in_insertion_order() {
        let mut paths = vec![path()];
        let mut sched = FaultSchedule::new();
        // Down then immediately up again: net effect is an up link, which
        // only holds if insertion order is respected.
        sched.at(SimTime::from_secs(1), 0, FaultKind::LinkDown);
        sched.at(SimTime::from_secs(1), 0, FaultKind::LinkUp);
        sched.apply_due(SimTime::from_secs(1), &mut paths);
        assert!(paths[0].fwd.up);
        let names: Vec<&str> = sched.applied().iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["link_down", "link_up"]);
    }

    #[test]
    fn addr_faults_down_path_and_queue_host_events() {
        let mut paths = vec![path()];
        let mut sched = FaultSchedule::new();
        sched.at(
            SimTime::from_secs(1),
            0,
            FaultKind::AddrDown { addr: 0x0a00_0001 },
        );
        sched.at(
            SimTime::from_secs(3),
            0,
            FaultKind::AddrUp { addr: 0x0a00_0001 },
        );

        sched.apply_due(SimTime::from_secs(1), &mut paths);
        assert!(!paths[0].fwd.up);
        assert!(!paths[0].rev.up);
        assert_eq!(sched.take_addr_events(), vec![(0x0a00_0001, false)]);
        // Drained: a second take yields nothing.
        assert!(sched.take_addr_events().is_empty());

        sched.apply_due(SimTime::from_secs(3), &mut paths);
        assert!(paths[0].fwd.up);
        assert_eq!(sched.take_addr_events(), vec![(0x0a00_0001, true)]);

        let names: Vec<&str> = sched.applied().iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["addr_down", "addr_up"]);
    }

    #[test]
    fn middlebox_insert_and_remove() {
        struct Noop;
        impl Middlebox for Noop {
            fn process(
                &mut self,
                _now: SimTime,
                _dir: crate::path::Dir,
                seg: mptcp_packet::TcpSegment,
                _rng: &mut crate::rng::SimRng,
            ) -> crate::path::MbVerdict {
                crate::path::MbVerdict::pass(seg)
            }
            fn name(&self) -> &'static str {
                "noop"
            }
        }
        let mut paths = vec![path()];
        let mut sched = FaultSchedule::new();
        sched.at(
            SimTime::from_secs(1),
            0,
            FaultKind::InsertMiddlebox(Box::new(Noop)),
        );
        sched.at(
            SimTime::from_secs(2),
            0,
            FaultKind::RemoveMiddlebox { name: "noop" },
        );
        sched.apply_due(SimTime::from_secs(1), &mut paths);
        assert_eq!(paths[0].chain.len(), 1);
        sched.apply_due(SimTime::from_secs(2), &mut paths);
        assert!(paths[0].chain.is_empty());
    }
}
