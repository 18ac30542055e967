//! Loss recovery and the sender's timers.
//!
//! [`Recovery`] decides *what is sent again and when*: NewReno fast
//! retransmit and recovery on duplicate ACKs (RFC 6582, without SACK),
//! go-back-N from `snd_una` after a timeout, paced by the congestion
//! window, the retransmission timer with its exponential backoff
//! (RFC 6298 §5), and the persist timer behind zero-window probes. It is
//! a plain machine: the socket tells it what happened — a new ACK, a
//! duplicate ACK, a timer firing, a segment sent — in sequence numbers
//! and instants, and it answers with what to do — which sequence number
//! to send again, how the congestion window should respond, give up. It
//! holds no queue and builds no segment.

use mptcp_netsim::time::min_deadline;
use mptcp_netsim::{Duration, SimTime};
use mptcp_packet::SeqNum;

/// Duplicate ACKs that start fast retransmit.
const DUP_ACK_THRESHOLD: u32 = 3;
/// The timer may fire this many times in a row; the next firing gives up.
const MAX_CONSECUTIVE_RTOS: u32 = 15;
/// Cap on the backoff multiplier (the product is capped by `max_rto` too).
const MAX_BACKOFF: u32 = 512;
/// Caps on the persist timer's multiplier and on its interval.
const PERSIST_MAX_BACKOFF: u32 = 64;
const PERSIST_MAX: Duration = Duration::from_secs(60);

/// How the congestion window should take an ACK of new data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckResponse {
    /// Grow: go-back-N after a timeout is slow start on the retransmitted
    /// window, application-limited or not.
    Grow,
    /// Grow if the flow was actually cwnd-limited (congestion-window
    /// validation is the socket's call: it knows the flight).
    GrowIfCwndLimited,
    /// The ACK covers everything outstanding when fast recovery began:
    /// deflate.
    ExitRecovery,
    /// A partial ACK during fast recovery: the next hole is queued for
    /// retransmission, the window is left alone.
    PartialAck,
}

/// What to send again next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Retransmit {
    /// Where the segment starts.
    pub seq: SeqNum,
    /// The next segment of the post-timeout walk from `snd_una`, rather
    /// than one a duplicate ACK, a partial ACK or a path probe named.
    pub go_back_n: bool,
}

/// What the timer's firing comes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerAction {
    /// Backed off and re-armed; retransmit.
    Retry,
    /// Too many firings in a row: the peer is gone.
    GiveUp,
}

/// Loss-recovery and timer state of one connection's sending side.
#[derive(Debug)]
pub struct Recovery {
    max_rto: Duration,
    dup_acks: u32,
    /// In NewReno fast recovery until `recover` is acknowledged.
    fast_recovery: bool,
    /// `snd_nxt` when the current recovery (either kind) began.
    recover: SeqNum,
    /// A segment named for retransmission ahead of anything else.
    hole: Option<SeqNum>,
    /// Post-timeout go-back-N: retransmit `[snd_una, recover)`.
    go_back_n: bool,
    /// Next sequence number of the go-back-N walk.
    retx_nxt: SeqNum,
    deadline: Option<SimTime>,
    backoff: u32,
    consecutive_rtos: u32,
    /// Zero-window probing: runs while the peer's window is shut on
    /// queued data, with a backoff of its own.
    persist_deadline: Option<SimTime>,
    persist_backoff: u32,
}

impl Recovery {
    /// A quiet machine for a connection whose first sequence number is
    /// `iss`, its timeout never above `max_rto`.
    pub fn new(iss: SeqNum, max_rto: Duration) -> Recovery {
        Recovery {
            max_rto,
            dup_acks: 0,
            fast_recovery: false,
            recover: iss,
            hole: None,
            go_back_n: false,
            retx_nxt: iss,
            deadline: None,
            backoff: 1,
            consecutive_rtos: 0,
            persist_deadline: None,
            persist_backoff: 1,
        }
    }

    /// The timeout the timer is armed with, given the estimator's `base`.
    /// The backoff multiplier is applied after the estimator's clamp, so
    /// the product is capped too — otherwise a dead path's timeout walks
    /// out to `max_rto * 512`.
    pub fn timeout(&self, base: Duration) -> Duration {
        (base * self.backoff).min(self.max_rto)
    }

    /// When the retransmission timer fires, if armed.
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// The earlier of the retransmission and persist deadlines.
    pub fn poll_at(&self) -> Option<SimTime> {
        min_deadline(self.deadline, self.persist_deadline)
    }

    /// The current backoff multiplier.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Timer firings since the last ACK of new data.
    pub fn consecutive_rtos(&self) -> u32 {
        self.consecutive_rtos
    }

    /// (Re)start the timer: something that must be acknowledged left.
    pub fn arm(&mut self, now: SimTime, base: Duration) {
        self.deadline = Some(now + self.timeout(base));
    }

    /// Start the timer unless it is already running.
    pub fn ensure_armed(&mut self, now: SimTime, base: Duration) {
        if self.deadline.is_none() {
            self.arm(now, base);
        }
    }

    /// Stop both timers (the connection is gone).
    pub fn stop(&mut self) {
        self.deadline = None;
        self.persist_deadline = None;
    }

    /// The handshake completed: the SYN's timer and its backoff are done.
    pub fn on_established(&mut self) {
        self.deadline = None;
        self.backoff = 1;
        self.consecutive_rtos = 0;
    }

    /// The timer fired. `flight` is `(snd_una, snd_nxt)` when data or a
    /// FIN is outstanding — the walk restarts from `snd_una`, and the
    /// caller collapses the congestion window — and `None` when a
    /// handshake segment timed out.
    pub fn on_timer(
        &mut self,
        now: SimTime,
        base: Duration,
        flight: Option<(SeqNum, SeqNum)>,
    ) -> TimerAction {
        self.consecutive_rtos += 1;
        if self.consecutive_rtos > MAX_CONSECUTIVE_RTOS {
            self.deadline = None;
            return TimerAction::GiveUp;
        }
        self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
        if let Some((snd_una, snd_nxt)) = flight {
            // Go-back-N: retransmit the whole outstanding window (if
            // there is one), paced by the (collapsed) congestion window,
            // instead of one segment per timeout.
            self.fast_recovery = false;
            self.dup_acks = 0;
            self.hole = None;
            self.go_back_n = snd_una.before(snd_nxt);
            self.recover = snd_nxt;
            self.retx_nxt = snd_una;
        }
        self.arm(now, base);
        TimerAction::Retry
    }

    fn persist_interval(&self, base: Duration) -> Duration {
        (base * self.persist_backoff).min(PERSIST_MAX)
    }

    /// An ACK was processed; `blocked` when it leaves the peer's window
    /// at zero with data waiting. Starts the persist timer at the first
    /// such ACK and stops it (and its backoff) at the first that is not.
    pub fn on_peer_window(&mut self, now: SimTime, base: Duration, blocked: bool) {
        if blocked && self.persist_deadline.is_some() {
            return; // already probing
        }
        self.persist_backoff = 1;
        self.persist_deadline = blocked.then(|| now + self.persist_interval(base));
    }

    /// Has the persist timer expired? If so it is backed off and
    /// restarted, and a zero-window probe is due.
    pub fn persist_due(&mut self, now: SimTime, base: Duration) -> bool {
        let due = self.persist_deadline.is_some_and(|t| t <= now);
        if due {
            self.persist_backoff = (self.persist_backoff * 2).min(PERSIST_MAX_BACKOFF);
            self.persist_deadline = Some(now + self.persist_interval(base));
        }
        due
    }

    /// `ack` acknowledged new data and is the new `snd_una`. Resets the
    /// backoff and restarts the timer (stops it when nothing is left
    /// outstanding below `snd_nxt`).
    pub fn on_new_ack(
        &mut self,
        now: SimTime,
        ack: SeqNum,
        snd_nxt: SeqNum,
        base: Duration,
    ) -> AckResponse {
        self.backoff = 1;
        self.consecutive_rtos = 0;
        // Also deflates the fast-recovery send window: see `send_window`.
        self.dup_acks = 0;
        if ack == snd_nxt {
            self.deadline = None;
        } else {
            self.arm(now, base);
        }

        let covered = ack.after_eq(self.recover);
        if self.go_back_n {
            self.retx_nxt = self.retx_nxt.max(ack);
            self.go_back_n = !covered;
            AckResponse::Grow
        } else if self.fast_recovery {
            self.fast_recovery = !covered;
            if covered {
                AckResponse::ExitRecovery
            } else {
                // NewReno: the next hole starts at the new `snd_una`.
                self.hole = Some(ack);
                AckResponse::PartialAck
            }
        } else {
            AckResponse::GrowIfCwndLimited
        }
    }

    /// A duplicate ACK for `snd_una` arrived with data outstanding up to
    /// `snd_nxt`. `true` when it is the one that starts fast retransmit:
    /// the caller applies the congestion window's response.
    pub fn on_dup_ack(&mut self, snd_una: SeqNum, snd_nxt: SeqNum) -> bool {
        self.dup_acks += 1;
        if self.dup_acks != DUP_ACK_THRESHOLD || self.fast_recovery {
            return false;
        }
        self.fast_recovery = true;
        self.recover = snd_nxt;
        self.hole = Some(snd_una);
        true
    }

    /// Is the connection in fast or post-timeout recovery?
    pub fn in_loss_recovery(&self) -> bool {
        self.fast_recovery || self.go_back_n
    }

    /// Send window: `cwnd` normally; during fast recovery, pipe
    /// conservation — `ssthresh` plus one MSS per duplicate ACK (each
    /// signals a segment that left the network).
    pub fn send_window(&self, cwnd: u32, ssthresh: u32, mss: u32) -> u32 {
        if self.fast_recovery {
            ssthresh.saturating_add(self.dup_acks * mss)
        } else {
            cwnd
        }
    }

    /// Retransmit from `seq` at the next opportunity, ahead of everything
    /// else (a path probe).
    pub fn retransmit_now(&mut self, seq: SeqNum) {
        self.hole = Some(seq);
    }

    /// Would [`Recovery::next_retransmit`] name a segment?
    pub fn has_retransmit(&self, snd_una: SeqNum, cwnd: u32) -> bool {
        self.hole.is_some() || self.walk(snd_una, cwnd).is_some()
    }

    /// Where the go-back-N walk stands, if the window lets it move: it
    /// goes no further than `recover` and keeps no more than `cwnd`
    /// retransmitted bytes above `snd_una`.
    fn walk(&self, snd_una: SeqNum, cwnd: u32) -> Option<SeqNum> {
        let at = self.retx_nxt.max(snd_una);
        (self.go_back_n && self.retx_nxt.before(self.recover) && at - snd_una < cwnd).then_some(at)
    }

    /// The next retransmission due, if any. A named hole goes first and
    /// is forgotten once handed out; the go-back-N walk waits for
    /// [`Recovery::retransmitted`] to move on.
    pub fn next_retransmit(&mut self, snd_una: SeqNum, cwnd: u32) -> Option<Retransmit> {
        let go_back_n = self.hole.is_none();
        let seq = self.hole.take().or_else(|| self.walk(snd_una, cwnd))?;
        Some(Retransmit { seq, go_back_n })
    }

    /// The segment `rtx` named went out and ends at `end`.
    pub fn retransmitted(&mut self, rtx: Retransmit, end: SeqNum) {
        if rtx.go_back_n {
            self.retx_nxt = end;
        }
    }

    /// There was nothing at `rtx` to send (it was acknowledged or never
    /// queued): a go-back-N walk that finds nothing is over.
    pub fn nothing_at(&mut self, rtx: Retransmit) {
        if rtx.go_back_n {
            self.go_back_n = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1000;
    const BASE: Duration = Duration::from_millis(200);
    const T0: SimTime = SimTime::ZERO;

    fn machine() -> Recovery {
        Recovery::new(SeqNum(0), Duration::from_secs(60))
    }

    fn seq(n: u32) -> SeqNum {
        SeqNum(n * MSS)
    }

    fn hole(seq: SeqNum) -> Retransmit {
        Retransmit {
            seq,
            go_back_n: false,
        }
    }

    fn walk(seq: SeqNum) -> Retransmit {
        Retransmit {
            seq,
            go_back_n: true,
        }
    }

    #[test]
    fn third_duplicate_ack_enters_fast_recovery_once() {
        let mut r = machine();
        let (una, nxt) = (seq(2), seq(12));
        assert!(!r.on_dup_ack(una, nxt));
        assert!(!r.on_dup_ack(una, nxt));
        assert!(!r.in_loss_recovery());
        assert_eq!(r.send_window(10_000, 5_000, MSS), 10_000);
        assert!(r.on_dup_ack(una, nxt), "the third starts fast retransmit");
        assert!(r.in_loss_recovery());
        assert_eq!(r.next_retransmit(una, 8_000), Some(hole(una)));
        assert_eq!(r.next_retransmit(una, 8_000), None, "the hole goes once");
        // Later duplicates inflate the window by one MSS each and start
        // nothing.
        assert!(!r.on_dup_ack(una, nxt));
        assert!(!r.on_dup_ack(una, nxt));
        assert_eq!(r.send_window(8_000, 5_000, MSS), 5_000 + 5 * MSS);
        assert_eq!(r.next_retransmit(una, 8_000), None);
    }

    #[test]
    fn partial_ack_names_the_next_hole_and_full_ack_exits() {
        let mut r = machine();
        let (una, nxt) = (seq(2), seq(12));
        for _ in 0..5 {
            r.on_dup_ack(una, nxt);
        }
        r.next_retransmit(una, 8_000);
        // New data sent during recovery does not move `recover`.
        let nxt_now = seq(14);
        let resp = r.on_new_ack(T0, seq(6), nxt_now, BASE);
        assert_eq!(resp, AckResponse::PartialAck);
        assert!(r.in_loss_recovery());
        assert_eq!(
            r.send_window(8_000, 5_000, MSS),
            5_000,
            "a partial ACK deflates what the duplicates inflated"
        );
        let next = r.next_retransmit(seq(6), 8_000);
        assert_eq!(next, Some(hole(seq(6))));
        // One short of `recover` is still partial; `recover` itself exits.
        assert_eq!(
            r.on_new_ack(T0, seq(11), nxt_now, BASE),
            AckResponse::PartialAck
        );
        assert_eq!(
            r.on_new_ack(T0, seq(12), nxt_now, BASE),
            AckResponse::ExitRecovery
        );
        assert!(!r.in_loss_recovery());
        assert_eq!(r.send_window(5_000, 5_000, MSS), 5_000);
        assert_eq!(
            r.on_new_ack(T0, seq(13), nxt_now, BASE),
            AckResponse::GrowIfCwndLimited
        );
    }

    #[test]
    fn timeout_walks_from_snd_una_no_further_than_cwnd_allows() {
        let mut r = machine();
        let (una, nxt) = (seq(0), seq(10));
        // A fast recovery in progress is abandoned.
        for _ in 0..3 {
            r.on_dup_ack(una, nxt);
        }
        r.arm(T0, BASE);
        let action = r.on_timer(T0 + BASE, BASE, Some((una, nxt)));
        assert_eq!(action, TimerAction::Retry);
        assert!(r.in_loss_recovery());
        assert_eq!(r.send_window(MSS, 5_000, MSS), MSS, "no inflation left");

        // cwnd = 1 MSS: one segment, then wait for its ACK.
        let first = r.next_retransmit(una, MSS).expect("walk starts");
        assert_eq!(first, walk(una));
        r.retransmitted(first, seq(1));
        assert!(!r.has_retransmit(una, MSS));
        assert_eq!(r.next_retransmit(una, MSS), None);

        // The ACK grows the window whatever the flight (slow start over
        // the retransmitted window); cwnd = 2 MSS lets two more out.
        assert_eq!(r.on_new_ack(T0, seq(1), nxt, BASE), AckResponse::Grow);
        for expect in [seq(1), seq(2)] {
            assert!(r.has_retransmit(seq(1), 2 * MSS));
            let rtx = r.next_retransmit(seq(1), 2 * MSS).expect("window open");
            assert_eq!(rtx, walk(expect));
            r.retransmitted(rtx, expect + MSS);
        }
        assert_eq!(r.next_retransmit(seq(1), 2 * MSS), None);

        // A cumulative ACK beyond the walk (the receiver had the rest)
        // drags it along; one that covers `recover` ends it.
        assert_eq!(r.on_new_ack(T0, seq(7), nxt, BASE), AckResponse::Grow);
        let rtx = r.next_retransmit(seq(7), 4 * MSS);
        assert_eq!(rtx, Some(walk(seq(7))));
        assert_eq!(r.on_new_ack(T0, seq(10), seq(12), BASE), AckResponse::Grow);
        assert!(!r.in_loss_recovery());
        assert_eq!(r.next_retransmit(seq(10), 4 * MSS), None);
    }

    #[test]
    fn walk_that_finds_nothing_is_over() {
        let mut r = machine();
        r.on_timer(T0, BASE, Some((seq(0), seq(3))));
        let rtx = r.next_retransmit(seq(0), MSS).expect("walk starts");
        r.nothing_at(rtx);
        assert!(!r.in_loss_recovery());
        assert_eq!(r.next_retransmit(seq(0), MSS), None);
    }

    #[test]
    fn a_probe_goes_ahead_of_the_walk_and_does_not_move_it() {
        let mut r = machine();
        r.on_timer(T0, BASE, Some((seq(0), seq(3))));
        r.retransmit_now(seq(0));
        let probe = r.next_retransmit(seq(0), MSS).expect("probe first");
        assert_eq!(probe, hole(seq(0)));
        r.retransmitted(probe, seq(1));
        let next = r.next_retransmit(seq(0), MSS);
        assert_eq!(next, Some(walk(seq(0))));
    }

    #[test]
    fn backoff_doubles_to_512_under_the_max_rto_cap() {
        let max_rto = Duration::from_secs(60);
        let mut r = Recovery::new(SeqNum(0), max_rto);
        let mut now = T0;
        r.arm(now, BASE);
        assert_eq!(r.deadline(), Some(T0 + BASE));
        let mut want = 1;
        for _ in 0..12 {
            assert_eq!(r.backoff(), want);
            now = r.deadline().expect("armed");
            assert_eq!(r.on_timer(now, BASE, None), TimerAction::Retry);
            want = (want * 2).min(512);
            let timeout = (BASE * want).min(max_rto);
            assert_eq!(r.timeout(BASE), timeout);
            assert_eq!(r.deadline(), Some(now + timeout));
        }
        assert_eq!(r.backoff(), 512);
        assert_eq!(r.timeout(BASE), max_rto, "200 ms x 512 is over the cap");
    }

    #[test]
    fn persist_timer_backs_off_to_64_and_stops_when_the_window_opens() {
        let mut r = machine();
        assert!(!r.persist_due(T0, BASE), "not armed");
        r.on_peer_window(T0, BASE, true);
        assert_eq!(r.poll_at(), Some(T0 + BASE));
        // Further zero-window ACKs leave the running timer alone.
        r.on_peer_window(T0 + BASE / 2, BASE, true);
        assert_eq!(r.poll_at(), Some(T0 + BASE));
        let mut now = T0;
        let mut want = 1;
        for _ in 0..9 {
            let due = r.poll_at().expect("armed");
            assert!(!r.persist_due(now, BASE), "not before its time");
            now = due;
            assert!(r.persist_due(now, BASE));
            want = (want * 2).min(64);
            let interval = (BASE * want).min(Duration::from_secs(60));
            assert_eq!(r.poll_at(), Some(now + interval));
        }
        assert_eq!(want, 64);
        // The retransmission timer, when earlier, is what `poll_at` shows.
        r.arm(now, BASE);
        assert_eq!(r.poll_at(), Some(now + BASE));
        r.on_peer_window(now, BASE, false);
        r.stop();
        assert_eq!(r.poll_at(), None);
        // A new closure starts from the base interval again.
        r.on_peer_window(now, BASE, true);
        assert_eq!(r.poll_at(), Some(now + BASE));
    }

    #[test]
    fn sixteenth_consecutive_timeout_gives_up() {
        let mut r = machine();
        r.arm(T0, BASE);
        for n in 1..=15 {
            assert_eq!(r.on_timer(T0, BASE, None), TimerAction::Retry);
            assert_eq!(r.consecutive_rtos(), n);
        }
        assert_eq!(r.on_timer(T0, BASE, None), TimerAction::GiveUp);
        assert_eq!(r.deadline(), None);
    }

    #[test]
    fn new_ack_resets_backoff_and_streak_and_restarts_the_timer() {
        let mut r = machine();
        let (una, nxt) = (seq(0), seq(4));
        r.arm(T0, BASE);
        for _ in 0..3 {
            r.on_timer(T0, BASE, Some((una, nxt)));
        }
        assert_eq!((r.backoff(), r.consecutive_rtos()), (8, 3));
        let now = SimTime::from_secs(5);
        r.on_new_ack(now, seq(1), nxt, BASE);
        assert_eq!((r.backoff(), r.consecutive_rtos()), (1, 0));
        assert_eq!(r.deadline(), Some(now + BASE), "data still outstanding");
        r.on_new_ack(now, nxt, nxt, BASE);
        assert_eq!(r.deadline(), None, "everything acknowledged");

        r.ensure_armed(now, BASE);
        r.ensure_armed(now + BASE, BASE);
        assert_eq!(r.deadline(), Some(now + BASE), "a running timer is kept");
        r.on_established();
        assert_eq!(r.deadline(), None);
    }
}
