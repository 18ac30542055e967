//! Packet schedulers: which subflow carries the next chunk.
//!
//! The paper bakes a single lowest-RTT scheduler into §4.2; this module
//! extracts that decision into the [`Scheduler`] enum, one variant per
//! policy holding the state that policy keeps, so path selection becomes a
//! sweep axis (`MptcpConfig::builder().scheduler(..)`,
//! `repro <exp> --sched <name>`). The connection remains responsible for
//! everything around the decision — path-state tiering (Active → backup →
//! Suspect, never Failed), the reinjection queue, M1/M2 mechanisms, chunk
//! cutting and DSS mapping, and stall/pick telemetry. A scheduler sees
//! only an eligibility-filtered snapshot of the paths ([`SchedCtx`]) and
//! answers with a [`SchedDecision`].
//!
//! # Contract
//!
//! * `pick` is called once per chunk placement attempt; `ctx.paths` holds
//!   only eligible (usable, tier-selected) paths in subflow-index order
//!   and is never empty.
//! * Decisions name subflows by [`PathSnapshot::id`].
//!   [`SchedDecision::Pick`] must name a path with
//!   [`PathSnapshot::has_room`]; so must [`SchedDecision::PickAll`]'s
//!   first element, the *primary* (it owns retransmit accounting for the
//!   chunk and gates how much new data is cut). The remaining `PickAll`
//!   entries are redundant copies and need only send-buffer space
//!   (`send_space > 0`): the subflow queues the copy and paces it out by
//!   its own cwnd, which is what makes duplication possible at all when
//!   every congestion window is full. The connection skips a copy whose
//!   buffer cannot actually take the cut chunk.
//! * [`SchedDecision::Stall`] means no path can take data right now; the
//!   connection records stall telemetry and waits for ACKs.
//! * [`SchedDecision::Defer`] means a path *could* take data but the
//!   scheduler prefers to wait for a better one (BLEST); the connection
//!   records a defer (not a stall) and retries on the next poll.
//! * Schedulers may keep state across calls (e.g. the round-robin
//!   cursor) but must not assume every `pick` results in a placement:
//!   the connection may discard a decision when the reinjection queue
//!   entry it was made for turns out to be stale.

use core::fmt;
use core::str::FromStr;

use mptcp_netsim::Duration;

/// One eligible subflow's state, snapshotted for a scheduling decision.
#[derive(Clone, Copy, Debug)]
pub struct PathSnapshot {
    /// Subflow index in the connection (stable across the connection's
    /// lifetime; decisions name this).
    pub id: usize,
    /// Smoothed RTT (a 1 ms floor stands in until the first sample).
    pub srtt: Duration,
    /// Congestion window (bytes).
    pub cwnd: u32,
    /// Maximum segment size (bytes).
    pub mss: usize,
    /// Congestion-window headroom: bytes the subflow could queue now.
    pub headroom: usize,
    /// Free space in the subflow's send buffer.
    pub send_space: usize,
}

impl PathSnapshot {
    /// Can this path accept a chunk right now?
    pub fn has_room(&self) -> bool {
        self.headroom > 0 && self.send_space > 0
    }
}

/// Everything a scheduler may consult for one decision.
#[derive(Clone, Copy, Debug)]
pub struct SchedCtx<'a> {
    /// Eligible paths (tier-filtered by the connection), subflow-index
    /// order. Never empty.
    pub paths: &'a [PathSnapshot],
    /// Connection-level send window room (bytes beyond `snd_nxt`).
    pub send_window_free: u64,
    /// Application bytes waiting to be scheduled.
    pub pending_bytes: usize,
    /// This decision places a reinjected chunk (fixed DSN) rather than
    /// new data.
    pub is_reinject: bool,
    /// Subflow to avoid if possible (the path a reinjected chunk is
    /// already stuck on).
    pub avoid: Option<usize>,
}

/// A scheduler's answer for one chunk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedDecision {
    /// Place the chunk on this subflow.
    Pick(usize),
    /// Place a copy of the chunk on every listed subflow (redundant
    /// scheduling); the first entry is the primary owner.
    PickAll(Vec<usize>),
    /// A path has room, but wait for a better one instead (BLEST).
    Defer,
    /// No eligible path can take data.
    Stall,
}

/// The registry of built-in schedulers.
///
/// Parses from and prints as the canonical lowercase names used by the
/// CLI (`repro <exp> --sched <name>`), the config builder and JSON
/// reports: `"minrtt"`, `"rr"`, `"redundant"`, `"blest"`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Lowest-RTT-first (the paper's §4.2 scheduler; the default).
    #[default]
    MinRtt,
    /// Cycle through eligible paths regardless of RTT.
    RoundRobin,
    /// Duplicate every chunk on every eligible path (latency armor; the
    /// receiver's dup-discard makes the copies harmless).
    Redundant,
    /// BLEST-style blocking estimation: skip a slow path when using it
    /// would block the connection-level send window.
    Blest,
}

impl SchedulerKind {
    /// All schedulers, in sweep order.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::MinRtt,
        SchedulerKind::RoundRobin,
        SchedulerKind::Redundant,
        SchedulerKind::Blest,
    ];

    /// Canonical lowercase name (CLI flag value and report key).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::MinRtt => "minrtt",
            SchedulerKind::RoundRobin => "rr",
            SchedulerKind::Redundant => "redundant",
            SchedulerKind::Blest => "blest",
        }
    }

    /// Instantiate the scheduler.
    pub fn build(self) -> Scheduler {
        match self {
            SchedulerKind::MinRtt => Scheduler::MinRtt,
            SchedulerKind::RoundRobin => Scheduler::RoundRobin { last: None },
            SchedulerKind::Redundant => Scheduler::Redundant,
            SchedulerKind::Blest => Scheduler::Blest,
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchedulerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "minrtt" | "min-rtt" | "lowest-rtt" => Ok(SchedulerKind::MinRtt),
            "rr" | "round-robin" | "roundrobin" => Ok(SchedulerKind::RoundRobin),
            "redundant" | "dup" => Ok(SchedulerKind::Redundant),
            "blest" => Ok(SchedulerKind::Blest),
            other => Err(format!(
                "unknown scheduler `{other}` \
                 (expected one of: minrtt, rr, redundant, blest)"
            )),
        }
    }
}

/// The lowest-RTT path with room, preferring one that isn't `avoid`
/// (index order breaks ties, matching the paper's original inlined loop).
fn fastest_with_room(paths: &[PathSnapshot], avoid: Option<usize>) -> Option<&PathSnapshot> {
    let fastest = |skip: Option<usize>| {
        let open = paths.iter().filter(|p| p.has_room() && Some(p.id) != skip);
        open.min_by_key(|p| p.srtt)
    };
    avoid
        .and_then(|stuck| fastest(Some(stuck)))
        .or_else(|| fastest(None))
}

/// BLEST's safety multiplier on the blocking estimate (the paper's lambda,
/// adapted upward on observed blocking; we keep it fixed).
const BLEST_LAMBDA: f64 = 1.0;

/// Which subflow should carry the next chunk of data: one built-in policy
/// and the state it keeps across calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// Lowest-RTT-first: the paper's §4.2 scheduler, byte-identical to the
    /// loop it was extracted from.
    MinRtt,
    /// Cycle through eligible paths, skipping ones without room.
    RoundRobin {
        /// Id of the last subflow picked: the rotation resumes after it,
        /// so it is stable even as the eligible set changes.
        last: Option<usize>,
    },
    /// Duplicate every chunk on every eligible path.
    ///
    /// The copies carry the same DSN, so the connection-level receiver
    /// delivers the first to arrive and discards the rest (`DupDataBytes`
    /// telemetry) — trading goodput efficiency for latency and loss armor.
    ///
    /// The *primary* (lowest-RTT path with cwnd headroom) gates admission:
    /// no new chunk is cut unless some path can transmit right now. The
    /// copies deliberately ignore cwnd headroom and only require send-buffer
    /// space — in the saturated steady state at most one congestion window
    /// has headroom at any instant, so a headroom-gated duplicate would
    /// never happen and the scheduler would silently degrade to
    /// first-with-room. Queued copies are paced out by each subflow's own
    /// cwnd; a path whose buffer backs up (e.g. during a blackout) drops out
    /// of duplication naturally once `send_space` hits zero.
    Redundant,
    /// BLEST-style blocking estimation (Ferlin et al., IFIP Networking 2016).
    ///
    /// Lowest-RTT-first, but before spilling onto a slower path while the
    /// fast path is cwnd-limited, estimate how many bytes the fast path will
    /// push during one slow-path RTT (`blest_blocking_estimate`). If the
    /// connection-level send window cannot hold that estimate *plus* the
    /// chunk, sending on the slow path would block the window behind a slow
    /// delivery (head-of-line risk) — defer instead and let the fast path
    /// drain. Reinjections never defer: they are loss recovery.
    Blest,
}

impl Scheduler {
    /// Decide where the next chunk goes. See the module docs for the full
    /// contract.
    pub fn pick(&mut self, ctx: &SchedCtx<'_>) -> SchedDecision {
        match self {
            Scheduler::MinRtt => match fastest_with_room(ctx.paths, ctx.avoid) {
                Some(p) => SchedDecision::Pick(p.id),
                None => SchedDecision::Stall,
            },
            Scheduler::RoundRobin { last } => {
                let n = ctx.paths.len();
                // Rotate to just past the last pick (paths are in id order).
                let start = last.map_or(0, |last| {
                    ctx.paths.iter().position(|p| p.id > last).unwrap_or(0)
                });
                let mut open = (0..n)
                    .map(|k| &ctx.paths[(start + k) % n])
                    .filter(|p| p.has_room());
                // A path that is `avoid` only when no other has room.
                let found = open
                    .clone()
                    .find(|p| ctx.avoid != Some(p.id))
                    .or_else(|| open.next());
                match found {
                    Some(p) => {
                        *last = Some(p.id);
                        SchedDecision::Pick(p.id)
                    }
                    None => SchedDecision::Stall,
                }
            }
            Scheduler::Redundant => {
                let Some(primary) = fastest_with_room(ctx.paths, ctx.avoid) else {
                    return SchedDecision::Stall;
                };
                // Re-duplicating onto `avoid` (the path a reinjected chunk is
                // already stuck on) helps nobody: a copy is already there.
                let takes_copy = |p: &&PathSnapshot| {
                    p.id != primary.id && p.send_space > 0 && ctx.avoid != Some(p.id)
                };
                let mut copies: Vec<&PathSnapshot> = ctx.paths.iter().filter(takes_copy).collect();
                if copies.is_empty() {
                    return SchedDecision::Pick(primary.id);
                }
                copies.sort_by_key(|p| p.srtt);
                let targets = std::iter::once(primary).chain(copies).map(|p| p.id);
                SchedDecision::PickAll(targets.collect())
            }
            Scheduler::Blest => {
                let Some(candidate) = fastest_with_room(ctx.paths, ctx.avoid) else {
                    return SchedDecision::Stall;
                };
                let fastest = ctx
                    .paths
                    .iter()
                    .min_by_key(|p| p.srtt)
                    .expect("never empty");
                if candidate.id == fastest.id || ctx.is_reinject {
                    return SchedDecision::Pick(candidate.id);
                }
                // The fast path is full; how much will it send while one
                // chunk crosses the slow path once?
                let est = blest_blocking_estimate(
                    fastest.cwnd,
                    fastest.mss,
                    fastest.srtt,
                    candidate.srtt,
                );
                let chunk = candidate.mss.min(ctx.pending_bytes.max(1)) as f64;
                if (ctx.send_window_free as f64) >= est * BLEST_LAMBDA + chunk {
                    SchedDecision::Pick(candidate.id)
                } else {
                    SchedDecision::Defer
                }
            }
        }
    }
}

/// Bytes the fast path is expected to send during one slow-path RTT.
///
/// With `n = rtt_slow / rtt_fast` (floored at 1), the fast path drains
/// its window `n` times and grows by roughly half an MSS per RTT in
/// congestion avoidance:
///
/// ```text
/// estimate = (cwnd_fast + mss_fast * (n - 1) / 2) * n
/// ```
///
/// This is BLEST's `X * lambda` term with windows in bytes.
pub fn blest_blocking_estimate(
    fast_cwnd: u32,
    fast_mss: usize,
    rtt_fast: Duration,
    rtt_slow: Duration,
) -> f64 {
    let f = rtt_fast.as_secs_f64().max(1e-6);
    let s = rtt_slow.as_secs_f64().max(1e-6);
    let n = (s / f).max(1.0);
    (f64::from(fast_cwnd) + fast_mss as f64 * (n - 1.0) / 2.0) * n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(id: usize, srtt_ms: u64, headroom: usize) -> PathSnapshot {
        PathSnapshot {
            id,
            srtt: Duration::from_millis(srtt_ms),
            cwnd: 10_000,
            mss: 1000,
            headroom,
            send_space: if headroom > 0 { 10_000 } else { 0 },
        }
    }

    fn ctx<'a>(paths: &'a [PathSnapshot]) -> SchedCtx<'a> {
        SchedCtx {
            paths,
            send_window_free: 1 << 20,
            pending_bytes: 100_000,
            is_reinject: false,
            avoid: None,
        }
    }

    #[test]
    fn minrtt_prefers_lowest_rtt_with_room() {
        let paths = [path(0, 100, 5000), path(1, 10, 5000)];
        assert_eq!(Scheduler::MinRtt.pick(&ctx(&paths)), SchedDecision::Pick(1));
        // Fast path full: falls through to the slow one.
        let paths = [path(0, 100, 5000), path(1, 10, 0)];
        assert_eq!(Scheduler::MinRtt.pick(&ctx(&paths)), SchedDecision::Pick(0));
    }

    #[test]
    fn minrtt_stalls_when_everything_full() {
        let paths = [path(0, 100, 0), path(1, 10, 0)];
        assert_eq!(Scheduler::MinRtt.pick(&ctx(&paths)), SchedDecision::Stall);
    }

    #[test]
    fn minrtt_avoids_stuck_path_for_reinjects() {
        let paths = [path(0, 10, 5000), path(1, 100, 5000)];
        let mut c = ctx(&paths);
        c.is_reinject = true;
        c.avoid = Some(0);
        assert_eq!(Scheduler::MinRtt.pick(&c), SchedDecision::Pick(1));
        // ...but falls back to the stuck path when it's the only option.
        let paths = [path(0, 10, 5000), path(1, 100, 0)];
        let mut c = ctx(&paths);
        c.avoid = Some(0);
        assert_eq!(Scheduler::MinRtt.pick(&c), SchedDecision::Pick(0));
    }

    #[test]
    fn round_robin_cycles() {
        let paths = [path(0, 10, 5000), path(1, 100, 5000), path(2, 50, 5000)];
        let mut rr = SchedulerKind::RoundRobin.build();
        let picks: Vec<_> = (0..6).map(|_| rr.pick(&ctx(&paths))).collect();
        assert_eq!(
            picks,
            vec![
                SchedDecision::Pick(0),
                SchedDecision::Pick(1),
                SchedDecision::Pick(2),
                SchedDecision::Pick(0),
                SchedDecision::Pick(1),
                SchedDecision::Pick(2),
            ]
        );
    }

    #[test]
    fn round_robin_skips_full_paths_and_survives_set_changes() {
        let a = [path(0, 10, 5000), path(1, 100, 0), path(2, 50, 5000)];
        let mut rr = SchedulerKind::RoundRobin.build();
        assert_eq!(rr.pick(&ctx(&a)), SchedDecision::Pick(0));
        assert_eq!(rr.pick(&ctx(&a)), SchedDecision::Pick(2));
        // Path 1 regains room; rotation resumes after id 2 -> wraps to 0.
        let b = [path(0, 10, 5000), path(1, 100, 5000), path(2, 50, 5000)];
        assert_eq!(rr.pick(&ctx(&b)), SchedDecision::Pick(0));
        assert_eq!(rr.pick(&ctx(&b)), SchedDecision::Pick(1));
        // Eligible set shrinks: cursor id 1 -> next is 2.
        let c = [path(0, 10, 0), path(2, 50, 5000)];
        assert_eq!(rr.pick(&ctx(&c)), SchedDecision::Pick(2));
    }

    #[test]
    fn redundant_duplicates_on_all_queueable_paths() {
        let paths = [path(0, 100, 5000), path(1, 10, 5000), path(2, 50, 0)];
        // Primary (first) is the lowest-RTT path with cwnd headroom; a
        // path with neither headroom nor buffer space gets no copy.
        assert_eq!(
            Scheduler::Redundant.pick(&ctx(&paths)),
            SchedDecision::PickAll(vec![1, 0])
        );
        // cwnd-saturated paths still take copies as long as the send
        // buffer can queue them — otherwise steady-state duplication
        // would never happen (at most one cwnd has headroom at a time).
        let mut saturated = path(1, 10, 0);
        saturated.send_space = 8_000;
        let paths = [path(0, 100, 5000), saturated];
        assert_eq!(
            Scheduler::Redundant.pick(&ctx(&paths)),
            SchedDecision::PickAll(vec![0, 1])
        );
        // No buffer space anywhere else: plain pick.
        let paths = [path(0, 100, 5000), path(1, 10, 0)];
        assert_eq!(
            Scheduler::Redundant.pick(&ctx(&paths)),
            SchedDecision::Pick(0)
        );
        // Admission is still headroom-gated: no primary, no chunk.
        let mut full = path(0, 100, 0);
        full.send_space = 8_000;
        let paths = [full, path(1, 10, 0)];
        assert_eq!(
            Scheduler::Redundant.pick(&ctx(&paths)),
            SchedDecision::Stall
        );
    }

    #[test]
    fn redundant_reinject_skips_stuck_path() {
        let paths = [path(0, 10, 5000), path(1, 100, 5000)];
        let mut c = ctx(&paths);
        c.is_reinject = true;
        c.avoid = Some(0);
        assert_eq!(Scheduler::Redundant.pick(&c), SchedDecision::Pick(1));
    }

    #[test]
    fn blest_estimate_hand_computed() {
        // n = 30ms/10ms = 3: (10_000 + 1000 * (3-1)/2) * 3 = 33_000.
        let est = blest_blocking_estimate(
            10_000,
            1000,
            Duration::from_millis(10),
            Duration::from_millis(30),
        );
        assert!((est - 33_000.0).abs() < 1e-6, "est = {est}");
        // Equal RTTs: n = 1, estimate is exactly one fast window.
        let est = blest_blocking_estimate(
            10_000,
            1000,
            Duration::from_millis(20),
            Duration::from_millis(20),
        );
        assert!((est - 10_000.0).abs() < 1e-6, "est = {est}");
    }

    #[test]
    fn blest_uses_fast_path_unconditionally() {
        let paths = [path(0, 10, 5000), path(1, 100, 5000)];
        let mut c = ctx(&paths);
        c.send_window_free = 1; // tight window is irrelevant on the fast path
        assert_eq!(Scheduler::Blest.pick(&c), SchedDecision::Pick(0));
    }

    #[test]
    fn blest_defers_slow_path_when_window_tight() {
        // Fast path (10 ms) is full; slow path (100 ms) has room. The
        // fast path will push ~10 windows during one slow RTT; with a
        // small send window the slow chunk would block delivery.
        let paths = [path(0, 10, 0), path(1, 100, 5000)];
        let mut c = ctx(&paths);
        c.send_window_free = 20_000; // << estimate (~145_000)
        assert_eq!(Scheduler::Blest.pick(&c), SchedDecision::Defer);
        // A roomy window takes the slow path happily.
        c.send_window_free = 1 << 20;
        assert_eq!(Scheduler::Blest.pick(&c), SchedDecision::Pick(1));
    }

    #[test]
    fn blest_never_defers_reinjections() {
        let paths = [path(0, 10, 0), path(1, 100, 5000)];
        let mut c = ctx(&paths);
        c.send_window_free = 1;
        c.is_reinject = true;
        assert_eq!(Scheduler::Blest.pick(&c), SchedDecision::Pick(1));
    }

    #[test]
    fn scheduler_kind_names_round_trip() {
        let built = [
            Scheduler::MinRtt,
            Scheduler::RoundRobin { last: None },
            Scheduler::Redundant,
            Scheduler::Blest,
        ];
        for (kind, built) in SchedulerKind::ALL.into_iter().zip(built) {
            let parsed: SchedulerKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(format!("{kind}"), kind.name());
            assert_eq!(kind.build(), built);
        }
        assert_eq!(
            "round-robin".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::RoundRobin
        );
        assert!("ecf".parse::<SchedulerKind>().is_err());
    }
}
