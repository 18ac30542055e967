//! Path health: which subflows the scheduler may trust (§3.4, §4.2).
//!
//! A plain machine, like [`crate::pm`]: the connection feeds it one
//! [`PathObs`] per subflow per tick — numbers read off the subflow socket —
//! and executes the [`Verdict`] it gets back. The machine owns every timer
//! of the detector, so there is one [`PathHealth::deadline`] for `poll_at`
//! and one [`PathHealth::clear`] for abort and fallback.
//!
//! Two signals demote a path: the socket's consecutive-RTO count, and a
//! no-progress timer (the socket's acked-byte count frozen with data
//! outstanding; catches paths whose ACKs a middlebox forges).
//! `Active -> Suspect` at `suspect_after_rtos` or one `progress_timeout`,
//! `-> Failed` at `fail_after_rtos` or two; back to `Active` the moment
//! the socket sees a fresh ACK. Demoted paths are probed on a backoff
//! schedule, and when every live path has been `Failed` for
//! `abort_deadline` the connection is told to abort instead of hanging.

use mptcp_netsim::{Duration, SimTime};

use crate::config::FailureDetection;

/// Scheduler-visible health of a subflow's path. Thresholds live in
/// [`FailureDetection`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PathState {
    /// Healthy; preferred by the scheduler.
    #[default]
    Active,
    /// Failure suspected; scheduled only when no Active subflow has room.
    Suspect,
    /// Declared dead: never scheduled, its in-flight DSNs were reinjected
    /// on survivors (break-before-make); probed for recovery.
    Failed,
}

/// What one subflow's socket looks like at a tick.
#[derive(Clone, Copy, Debug)]
pub struct PathObs {
    /// Its handshake is complete and it has not been reset or torn down.
    pub live: bool,
    /// Retransmission timeouts since the last fresh ACK.
    pub rtos: u32,
    /// Bytes acknowledged at the subflow level so far.
    pub acked: u64,
    /// Has it unacknowledged data outstanding?
    pub in_flight: bool,
}

/// A path changed state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Change {
    /// `Active -> Suspect`, at `rtos` consecutive timeouts.
    Suspect {
        /// The socket's consecutive-RTO count at the demotion.
        rtos: u32,
    },
    /// `-> Failed`: reinject what rides the path, never schedule onto it.
    Fail,
    /// `-> Active`: the path answered.
    Recover,
}

/// What the connection must do about one path after an observation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// The state transition that fired, if any.
    pub change: Option<Change>,
    /// A reachability probe is due: force a retransmit or a bare ACK so a
    /// healed path has traffic to answer.
    pub probe: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct Path {
    state: PathState,
    /// Live at its last observation.
    live: bool,
    /// `acked` when progress was last observed.
    progress_bytes: u64,
    /// When `progress_bytes` last advanced (or data first went
    /// outstanding); the no-progress signal measures from here.
    progress_at: Option<SimTime>,
    /// Next probe due, while demoted.
    probe_at: Option<SimTime>,
    /// Consecutive unanswered probes; exponent for the probe backoff.
    probes_unanswered: u32,
}

/// The failure detector of one connection.
pub struct PathHealth {
    cfg: FailureDetection,
    paths: Vec<Path>,
    /// Since when every live path has been Failed.
    all_failed_since: Option<SimTime>,
}

impl PathHealth {
    /// A detector with no paths yet.
    pub fn new(cfg: FailureDetection) -> PathHealth {
        PathHealth {
            cfg,
            // Sized here: a join must not allocate mid-transfer.
            paths: Vec::with_capacity(4),
            all_failed_since: None,
        }
    }

    /// Track one more path (the connection opened or accepted a subflow);
    /// paths are numbered in the order they are added.
    pub fn add_path(&mut self) {
        self.paths.push(Path::default());
    }

    /// The verdict on path `idx`.
    pub fn state(&self, idx: usize) -> PathState {
        self.paths[idx].state
    }

    /// Path `idx` is gone for good: nothing about it is due any more.
    pub fn retire(&mut self, idx: usize) {
        let p = &mut self.paths[idx];
        p.live = false;
        p.progress_at = None;
        p.probe_at = None;
    }

    /// Stop detecting (abort, fallback): every verdict and timer is void.
    pub fn clear(&mut self) {
        self.paths.fill(Path::default());
        self.all_failed_since = None;
    }

    /// Feed this tick's observation of path `idx`. Paths are observed in
    /// index order, each at most once per tick, then [`Self::end_round`].
    pub fn observe(&mut self, now: SimTime, idx: usize, obs: PathObs) -> Verdict {
        let fd = self.cfg;
        let p = &mut self.paths[idx];
        p.live = obs.live;
        if !p.live {
            p.probe_at = None;
            return Verdict::default();
        }
        // An advancing ack counter (or an empty pipe) is proof of life.
        if !obs.in_flight {
            p.progress_bytes = obs.acked;
            p.progress_at = None;
        } else if obs.acked != p.progress_bytes || p.progress_at.is_none() {
            p.progress_bytes = obs.acked;
            p.progress_at = Some(now);
        }
        let stalled_for = p.progress_at.map_or(Duration::ZERO, |t| now.since(t));
        let stalled = stalled_for >= fd.progress_timeout;
        let hard_stalled = stalled_for >= fd.progress_timeout * 2;
        let failing = obs.rtos >= fd.fail_after_rtos || hard_stalled;
        let healthy = obs.rtos == 0 && !stalled;

        let change = match p.state {
            PathState::Active | PathState::Suspect if failing => Some(Change::Fail),
            PathState::Active if obs.rtos >= fd.suspect_after_rtos || stalled => {
                Some(Change::Suspect { rtos: obs.rtos })
            }
            PathState::Suspect | PathState::Failed if healthy => Some(Change::Recover),
            _ => None,
        };
        match change {
            Some(Change::Suspect { .. }) => {
                p.state = PathState::Suspect;
                p.probes_unanswered = 0;
                p.probe_at = Some(now + fd.probe_interval);
            }
            Some(Change::Fail) => {
                p.state = PathState::Failed;
                if p.probe_at.is_none() {
                    p.probes_unanswered = 0;
                    p.probe_at = Some(now + fd.probe_interval);
                }
            }
            Some(Change::Recover) => {
                p.state = PathState::Active;
                p.probes_unanswered = 0;
                p.probe_at = None;
            }
            None => {}
        }
        // Exponential backoff while the path stays silent, capped at 8x.
        let probe = p.probe_at.is_some_and(|at| at <= now);
        if probe {
            p.probes_unanswered += 1;
            let backoff = 1u32 << p.probes_unanswered.min(3);
            p.probe_at = Some(now + fd.probe_interval * backoff);
        }
        Verdict { change, probe }
    }

    /// Close a tick after every path was observed. `true`: every live
    /// path has now been Failed for the abort deadline — abort the
    /// connection (and [`Self::clear`]).
    pub fn end_round(&mut self, now: SimTime) -> bool {
        let mut live = self.paths.iter().filter(|p| p.live);
        let all_failed = live.next().is_some_and(|p| p.state == PathState::Failed)
            && live.all(|p| p.state == PathState::Failed);
        if !all_failed {
            self.all_failed_since = None;
            return false;
        }
        let since = *self.all_failed_since.get_or_insert(now);
        now.since(since) >= self.cfg.abort_deadline
    }

    /// The earliest instant a tick could change anything: a probe, a
    /// pending no-progress transition, or the abort deadline. Right after
    /// a tick at `now` it is never at or before `now`.
    pub fn deadline(&self, now: SimTime) -> Option<SimTime> {
        let fd = &self.cfg;
        let abort = self.all_failed_since.map(|t| t + fd.abort_deadline);
        let per_path = self.paths.iter().flat_map(|p| {
            // Only the two transitions still ahead (demote at one timeout,
            // hard-fail at two) warrant a wakeup; one already behind `now`
            // fired on an earlier tick.
            let progress = p.progress_at.and_then(|t| {
                let (demote, hard_fail) = (t + fd.progress_timeout, t + fd.progress_timeout * 2);
                [demote, hard_fail].into_iter().find(|&d| d > now)
            });
            [p.probe_at, progress]
        });
        per_path.chain([abort]).flatten().min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FD: FailureDetection = FailureDetection {
        suspect_after_rtos: 2,
        fail_after_rtos: 3,
        progress_timeout: Duration::from_secs(4),
        probe_interval: Duration::from_millis(500),
        abort_deadline: Duration::from_secs(10),
    };

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// An established subflow with data outstanding.
    fn busy(rtos: u32, acked: u64) -> PathObs {
        PathObs {
            live: true,
            rtos,
            acked,
            in_flight: true,
        }
    }

    fn detector(paths: usize) -> PathHealth {
        let mut h = PathHealth::new(FD);
        for _ in 0..paths {
            h.add_path();
        }
        h
    }

    #[test]
    fn rto_counts_walk_the_state_table() {
        let mut h = detector(1);
        let change = |h: &mut PathHealth, t, rtos| h.observe(ms(t), 0, busy(rtos, 0)).change;
        assert_eq!(change(&mut h, 0, 0), None);
        assert_eq!(change(&mut h, 10, 1), None);
        assert_eq!(h.state(0), PathState::Active);
        assert_eq!(change(&mut h, 20, 2), Some(Change::Suspect { rtos: 2 }));
        assert_eq!(change(&mut h, 30, 2), None, "a verdict fires once");
        assert_eq!(change(&mut h, 40, 3), Some(Change::Fail));
        assert_eq!(h.state(0), PathState::Failed);
        assert_eq!(change(&mut h, 50, 4), None);
        // A fresh ACK zeroes the count: straight back to Active.
        assert_eq!(change(&mut h, 60, 0), Some(Change::Recover));
        assert_eq!(h.state(0), PathState::Active);
        // No probe is owed any more; the frozen ack counter still is.
        assert_eq!(h.deadline(ms(60)), Some(ms(0) + FD.progress_timeout));

        // Active may skip Suspect; Suspect recovers without failing.
        assert_eq!(change(&mut h, 70, 3), Some(Change::Fail));
        assert_eq!(change(&mut h, 80, 0), Some(Change::Recover));
        assert_eq!(change(&mut h, 90, 2), Some(Change::Suspect { rtos: 2 }));
        assert_eq!(change(&mut h, 100, 0), Some(Change::Recover));
    }

    #[test]
    fn frozen_ack_counter_demotes_without_any_rto() {
        let mut h = detector(1);
        assert_eq!(h.observe(ms(0), 0, busy(0, 1000)), Verdict::default());
        assert_eq!(h.deadline(ms(0)), Some(ms(4000)));
        // Progress restarts the clock.
        assert_eq!(h.observe(ms(3000), 0, busy(0, 2000)), Verdict::default());
        assert_eq!(h.deadline(ms(3000)), Some(ms(7000)));
        let v = h.observe(ms(7000), 0, busy(0, 2000));
        assert_eq!(v.change, Some(Change::Suspect { rtos: 0 }));
        // The second transition is still ahead, behind the first probe.
        assert_eq!(h.deadline(ms(7000)), Some(ms(7500)));
        let v = h.observe(ms(11_000), 0, busy(0, 2000));
        assert_eq!(v.change, Some(Change::Fail));
        // An empty pipe is proof of life, and forgets the stall.
        let idle = PathObs {
            in_flight: false,
            ..busy(0, 2000)
        };
        assert_eq!(h.observe(ms(11_010), 0, idle).change, Some(Change::Recover));
        assert_eq!(h.deadline(ms(11_010)), None);
    }

    #[test]
    fn probe_backoff_doubles_and_is_capped_at_eight_times() {
        // The no-progress signal out of the way: only probes are due.
        let mut h = PathHealth::new(FailureDetection {
            progress_timeout: Duration::from_secs(3600),
            ..FD
        });
        h.add_path();
        h.observe(ms(0), 0, busy(2, 0));
        let mut at = ms(0) + FD.probe_interval;
        let mut gaps = Vec::new();
        let just_before = |at: SimTime| SimTime(at.0 - 1_000_000);
        for _ in 0..6 {
            assert_eq!(h.deadline(ms(0)), Some(at));
            assert!(!h.observe(just_before(at), 0, busy(2, 0)).probe);
            assert!(h.observe(at, 0, busy(2, 0)).probe);
            assert!(
                !h.observe(at, 0, busy(2, 0)).probe,
                "one probe per due time"
            );
            let next = h.deadline(at).expect("the probe re-arms");
            gaps.push(next.since(at).as_nanos() / FD.probe_interval.as_nanos());
            at = next;
        }
        assert_eq!(gaps, [2, 4, 8, 8, 8, 8]);
        // Failing keeps the schedule it inherited from Suspect.
        let v = h.observe(just_before(at), 0, busy(3, 0));
        assert_eq!((v.change, v.probe), (Some(Change::Fail), false));
        assert_eq!(h.deadline(just_before(at)), Some(at));
    }

    #[test]
    fn a_late_tick_fires_each_elapsed_transition_once() {
        // Asleep across both no-progress deadlines and several probe
        // intervals: one tick, one transition, no probe storm, and nothing
        // left due at or before `now`.
        let mut h = detector(1);
        h.observe(ms(0), 0, busy(0, 0));
        let late = ms(60_000);
        let v = h.observe(late, 0, busy(0, 0));
        assert_eq!(v.change, Some(Change::Fail));
        assert!(!v.probe);
        assert!(!h.end_round(late));
        assert_eq!(h.observe(late, 0, busy(0, 0)), Verdict::default());
        assert!(h.deadline(late).is_some_and(|d| d > late));

        // A probe overdue by many intervals is sent once and re-armed from
        // the tick, not from the missed deadline.
        let later = late + FD.probe_interval * 10;
        let v = h.observe(later, 0, busy(0, 0));
        assert_eq!((v.change, v.probe), (None, true));
        assert_eq!(h.deadline(later), Some(later + FD.probe_interval * 2));
    }

    #[test]
    fn abort_only_after_every_live_path_failed_for_the_deadline() {
        let mut h = detector(3);
        let dead = PathObs {
            live: false,
            ..busy(9, 0)
        };
        let tick = |h: &mut PathHealth, t, rtos1| {
            h.observe(ms(t), 0, busy(3, 0));
            h.observe(ms(t), 1, busy(rtos1, t));
            h.observe(ms(t), 2, dead);
            h.end_round(ms(t))
        };
        // One path still standing: no countdown.
        assert!(!tick(&mut h, 0, 0));
        assert!(!tick(&mut h, 20_000, 0));
        // Both live paths Failed: the countdown starts now.
        assert!(!tick(&mut h, 21_000, 3));
        assert!(h.deadline(ms(21_000)).is_some_and(|d| d <= ms(31_000)));
        assert!(!tick(&mut h, 30_999, 3));
        // A recovery in between resets it.
        assert!(!tick(&mut h, 31_000, 0));
        assert!(!tick(&mut h, 32_000, 3));
        assert!(!tick(&mut h, 41_999, 3));
        assert!(tick(&mut h, 42_000, 3));
        h.clear();
        assert_eq!(h.deadline(ms(42_000)), None);
        assert_eq!(h.state(0), PathState::Active);

        // No live path at all is not "all failed".
        let mut h = detector(1);
        h.observe(ms(0), 0, dead);
        assert!(!h.end_round(ms(0)));
        assert!(!h.end_round(ms(60_000)));
    }

    #[test]
    fn deadline_is_never_stale_after_a_tick() {
        // A scripted blackout and recovery, ticked at awkward instants.
        let mut h = detector(2);
        let mut rtos = 0;
        for step in 0..400u64 {
            let now = ms(step * 137);
            if step % 7 == 0 && (50..200).contains(&step) {
                rtos += 1;
            }
            if step == 200 {
                rtos = 0;
            }
            let acked = if (50..200).contains(&step) { 50 } else { step };
            let v = h.observe(now, 0, busy(rtos, acked));
            h.observe(now, 1, busy(0, step));
            assert!(!h.end_round(now));
            assert!(
                h.deadline(now).is_none_or(|d| d > now),
                "step {step}: {v:?} left {:?} due at {now:?}",
                h.deadline(now)
            );
        }
        assert_eq!(h.state(0), PathState::Active);
    }

    #[test]
    fn a_retired_or_unestablished_path_asks_for_nothing() {
        let mut h = detector(2);
        h.observe(ms(0), 0, busy(2, 0));
        h.observe(ms(0), 1, busy(2, 0));
        assert!(h.deadline(ms(0)).is_some());
        h.retire(0);
        let closing = PathObs {
            live: false,
            ..busy(2, 0)
        };
        assert_eq!(h.observe(ms(10), 1, closing), Verdict::default());
        // Path 1's no-progress clock is still running; its probe is not.
        assert_eq!(h.deadline(ms(10)), Some(ms(4000)));
        h.retire(1);
        assert_eq!(h.deadline(ms(10)), None);
    }
}
