//! Data-level reliability and flow control on the sending side (§3.3).
//!
//! A plain machine, like [`crate::pm`]: it owns the data sequence space
//! the connection sends in — what the application wrote and nobody has
//! mapped yet, every chunk handed to a subflow and not yet DATA_ACKed
//! (§3.3.5: "even if a segment is ACKed at the subflow level, its data is
//! kept in memory until we receive a DATA ACK"), the queue of chunks owed a
//! second trip, the peer's window edge, the DATA_FIN and the data-level
//! retransmission timer. Which subflow a chunk rides, and when, is the
//! connection's business; subflows appear here only as the index recorded
//! against each chunk.

use std::collections::vec_deque::Drain;
use std::collections::{BTreeSet, VecDeque};

use bytes::Bytes;
use mptcp_netsim::{Duration, SimTime};

use crate::dsn::infer_full_dsn;
use crate::mapping::split_front;

/// A chunk handed to a subflow, retained until DATA_ACKed.
struct SentChunk {
    /// Data sequence number of its first byte.
    dsn: u64,
    data: Bytes,
    /// The subflow that carries it (its latest copy).
    subflow: usize,
}

/// Send side of one connection's data sequence space.
pub struct DataSender {
    /// Next data sequence number to assign.
    snd_nxt: u64,
    /// Oldest un-DATA-ACKed data sequence number.
    snd_una: u64,
    /// Right edge of the peer's receive window (monotonic max of
    /// DATA_ACK + window, §3.3.2).
    right_edge: u64,
    /// Application data not yet mapped onto a subflow.
    pending: VecDeque<Bytes>,
    pending_bytes: usize,
    /// Chunks on subflows awaiting DATA_ACK: contiguous from `snd_una`, in
    /// DSN order (cut at the back, acknowledged off the front), so a deque
    /// searched by bisection does what a map would without its nodes.
    sent: VecDeque<SentChunk>,
    sent_bytes: usize,
    /// DSNs of retained chunks to send again (subflow death, path failure,
    /// data-level timeout, a redundant join), lowest first: the chunk
    /// nearest the head of the peer's window is the one holding it shut.
    /// Always a subset of `sent`'s keys.
    reinject: BTreeSet<u64>,
    /// Send buffer capacity (M3-autotuned).
    buf_cap: usize,
    fin_queued: bool,
    /// DSN assigned to the DATA_FIN once emitted.
    fin_dsn: Option<u64>,
    rto_deadline: Option<SimTime>,
    rto_backoff: u32,
    /// M1 duplicate suppression: the DSN last retransmitted
    /// opportunistically, and when.
    last_opp: Option<(u64, SimTime)>,
}

impl DataSender {
    /// A sender whose first byte gets sequence number `start`, buffering
    /// at most `buf_cap` bytes.
    pub fn new(start: u64, buf_cap: usize) -> DataSender {
        DataSender {
            snd_nxt: start,
            snd_una: start,
            right_edge: start,
            pending: VecDeque::new(),
            pending_bytes: 0,
            sent: VecDeque::new(),
            sent_bytes: 0,
            reinject: BTreeSet::new(),
            buf_cap,
            fin_queued: false,
            fin_dsn: None,
            rto_deadline: None,
            rto_backoff: 1,
            last_opp: None,
        }
    }

    /// Next data sequence number to assign.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Oldest data sequence number not yet DATA_ACKed.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Sequence space sent and not yet DATA_ACKed (a DATA_FIN counts one).
    pub fn outstanding(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Room left before the peer's advertised right edge (§3.3.1: never
    /// send beyond DATA_ACK + window).
    pub fn window_room(&self) -> u64 {
        self.right_edge.saturating_sub(self.snd_nxt)
    }

    /// Bytes held: unmapped plus retained-until-DATA_ACK (Figure 5a).
    pub fn memory(&self) -> usize {
        self.pending_bytes + self.sent_bytes
    }

    /// Application bytes waiting to be mapped.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Chunks queued for another trip.
    pub fn reinject_queued(&self) -> usize {
        self.reinject.len()
    }

    /// Current buffer capacity.
    pub fn capacity(&self) -> usize {
        self.buf_cap
    }

    /// M3: set the capacity to `cap`, below what is held if need be.
    /// Returns whether it grew.
    pub fn resize(&mut self, cap: usize) -> bool {
        let grew = cap > self.buf_cap;
        self.buf_cap = cap;
        grew
    }

    /// Accept as much of `data` as the buffer has room for; returns the
    /// byte count taken.
    pub fn write(&mut self, data: &[u8]) -> usize {
        let take = data.len().min(self.buf_cap.saturating_sub(self.memory()));
        if take > 0 {
            self.pending
                .push_back(Bytes::copy_from_slice(&data[..take]));
            self.pending_bytes += take;
        }
        take
    }

    /// A segment advertised `window`. It is relative to the DATA_ACK it
    /// travelled with (`wire_ack`, truncated to 32 bits); the edge only
    /// ever moves right (§3.3.2). A segment without one anchors at the
    /// current cumulative ack while `anchor_bare` — safe, `snd_una` is
    /// never ahead of the peer's real ack point — and is ignored otherwise.
    pub fn on_window(&mut self, wire_ack: Option<u64>, anchor_bare: bool, window: u32) {
        let base = match wire_ack {
            Some(a) => infer_full_dsn(self.snd_una, a),
            None if anchor_bare => self.snd_una,
            None => return,
        };
        self.right_edge = self.right_edge.max(base.wrapping_add(u64::from(window)));
    }

    /// A DATA_ACK arrived (`wire_ack`, truncated to 32 bits): free what it
    /// covers and restart the data-level timer. A chunk straddling the ack
    /// keeps its unacknowledged tail — a mid-chunk DATA_ACK (a
    /// content-length-changing middlebox causes these) must not discard
    /// bytes the receiver never got.
    pub fn on_data_ack(&mut self, wire_ack: u64) {
        let ack = infer_full_dsn(self.snd_una.max(1), wire_ack).min(self.snd_nxt);
        if ack <= self.snd_una {
            return;
        }
        while let Some(first) = self.sent.front_mut().filter(|c| c.dsn < ack) {
            let covered = ((ack - first.dsn) as usize).min(first.data.len());
            self.sent_bytes -= covered;
            if covered < first.data.len() {
                first.data = first.data.slice(covered..);
                first.dsn = ack;
            } else {
                self.sent.pop_front();
            }
        }
        while self.reinject.first().is_some_and(|&dsn| dsn < ack) {
            self.reinject.pop_first();
        }
        if self.sent.is_empty() && self.pending.is_empty() {
            // Everything written is delivered: an idle connection keeps no
            // deque sized for its last burst (a server holds thousands).
            self.sent = VecDeque::new();
        }
        self.snd_una = ack;
        self.rto_backoff = 1;
        self.rto_deadline = None; // re-armed on the next tick if needed
    }

    /// Up to `max` bytes off the oldest pending write, as a view of it.
    fn pop_pending(&mut self, max: usize) -> Bytes {
        let front = self.pending.front_mut().expect("pending_bytes > 0");
        if front.len() > max {
            return split_front(front, max);
        }
        self.pending.pop_front().expect("front exists")
    }

    /// Cut the next chunk of new data — at most `mss`, the window room and
    /// what is pending — and record it as riding `subflow`. Chunks are the
    /// mapping granularity: every later copy re-uses these boundaries, so
    /// a middlebox never sees inconsistent content. A chunk inside one
    /// application write is a view of that write; only one that straddles
    /// two is copied together. The last chunk of a closed stream takes the
    /// DATA_FIN's sequence number with it: every copy of that chunk
    /// carries the DATA_FIN (RFC 8684 §3.3.3).
    pub fn cut_chunk(&mut self, mss: usize, subflow: usize) -> (u64, Bytes) {
        let take = mss.min(self.window_room() as usize).min(self.pending_bytes);
        let mut data = self.pop_pending(take);
        if data.len() < take {
            let mut joined = Vec::with_capacity(take);
            joined.extend_from_slice(&data);
            while joined.len() < take {
                joined.extend_from_slice(&self.pop_pending(take - joined.len()));
            }
            data = Bytes::from(joined);
        }
        self.pending_bytes -= take;
        let dsn = self.snd_nxt;
        self.snd_nxt += take as u64;
        self.sent_bytes += take;
        self.sent.push_back(SentChunk {
            dsn,
            data: data.clone(),
            subflow,
        });
        if self.fin_queued && self.pending_bytes == 0 {
            self.take_fin_dsn();
        }
        (dsn, data)
    }

    /// Where in `sent` the chunk that starts at `dsn` is.
    fn sent_at(&self, dsn: u64) -> Option<usize> {
        let at = self.sent.partition_point(|c| c.dsn < dsn);
        (self.sent.get(at)?.dsn == dsn).then_some(at)
    }

    /// Queue for another trip every retained chunk `wanted(dsn, subflow)`
    /// selects and that is not queued already, until `limit` were added.
    /// Returns how many were.
    pub fn reinject_where(
        &mut self,
        limit: u64,
        mut wanted: impl FnMut(u64, usize) -> bool,
    ) -> u64 {
        let mut added = 0;
        for chunk in &self.sent {
            if added >= limit {
                break;
            }
            if wanted(chunk.dsn, chunk.subflow) && self.reinject.insert(chunk.dsn) {
                added += 1;
            }
        }
        added
    }

    /// The chunk next in line for another trip and the subflow it is
    /// stuck on (the one to avoid).
    pub fn reinject_head(&self) -> Option<(u64, usize)> {
        let dsn = *self.reinject.first()?;
        Some((dsn, self.sent[self.sent_at(dsn)?].subflow))
    }

    /// Take the head of the reinjection queue, now riding `subflow`.
    pub fn take_reinject(&mut self, subflow: usize) -> Option<(u64, Bytes)> {
        let dsn = self.reinject.pop_first()?;
        let at = self.sent_at(dsn).expect("queued chunks are retained");
        let chunk = &mut self.sent[at];
        chunk.subflow = subflow;
        Some((dsn, chunk.data.clone()))
    }

    /// The subflow carrying the chunk at the head of the peer's window —
    /// M1/M2's culprit when the window is shut. `None` with nothing
    /// outstanding.
    pub fn head_owner(&self) -> Option<usize> {
        // Retained chunks are contiguous from `snd_una`: the head is in front.
        self.sent.front().map(|c| c.subflow)
    }

    /// M1: hand out the head-of-window chunk for an opportunistic copy on
    /// `subflow`, unless the same chunk was handed out less than `within`
    /// ago.
    pub fn retransmit_head(
        &mut self,
        now: SimTime,
        subflow: usize,
        within: Duration,
    ) -> Option<(u64, Bytes)> {
        let dsn = self.snd_una;
        if self
            .last_opp
            .is_some_and(|(d, t)| d == dsn && now.since(t) < within)
        {
            return None;
        }
        let chunk = self.sent.front_mut()?;
        debug_assert_eq!(chunk.dsn, dsn, "retained chunks start at snd_una");
        chunk.subflow = subflow;
        let data = chunk.data.clone();
        self.last_opp = Some((dsn, now));
        Some((dsn, data))
    }

    /// The application closed its sending direction.
    pub fn close(&mut self) {
        self.fin_queued = true;
    }

    /// Was [`close`](Self::close) called?
    pub fn closing(&self) -> bool {
        self.fin_queued
    }

    /// Number the DATA_FIN of a close that came after the last cut (one
    /// before it rides that chunk), once every byte is DATA_ACKed: it is
    /// signalled on its own. `true` the one time it does.
    pub fn assign_fin(&mut self) -> bool {
        let due = self.fin_queued
            && self.fin_dsn.is_none()
            && self.pending.is_empty()
            && self.snd_una == self.snd_nxt;
        if due {
            self.take_fin_dsn();
        }
        due
    }

    /// The DATA_FIN takes the next sequence number.
    fn take_fin_dsn(&mut self) {
        self.fin_dsn = Some(self.snd_nxt);
        self.snd_nxt += 1;
        // Closed: nothing is written again, and a listener keeps the
        // connection object long after. `on_data_ack` gives back `sent`;
        // this is the write queue's room for its fullest moment.
        self.pending = VecDeque::new();
    }

    /// The DATA_FIN's sequence number, once assigned.
    pub fn fin_dsn(&self) -> Option<u64> {
        self.fin_dsn
    }

    /// Has the peer DATA_ACKed our DATA_FIN?
    pub fn fin_acked(&self) -> bool {
        self.fin_dsn.is_some_and(|f| self.snd_una > f)
    }

    /// When the timer fires, if armed.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// The timer's current interval: `base` (twice the healthiest
    /// subflow's RTO) times the backoff.
    pub fn rto_interval(&self, base: Duration) -> Duration {
        base * self.rto_backoff
    }

    /// Something is outstanding and the timer is not running.
    pub fn rto_unarmed(&self) -> bool {
        self.snd_una < self.snd_nxt && self.rto_deadline.is_none()
    }

    /// Start the timer from `now`.
    pub fn arm_rto(&mut self, now: SimTime, base: Duration) {
        self.rto_deadline = Some(now + self.rto_interval(base));
    }

    /// The timer fired: double the interval (up to 64x) and run it again.
    pub fn back_off_rto(&mut self, now: SimTime, base: Duration) {
        self.rto_backoff = (self.rto_backoff * 2).min(64);
        self.arm_rto(now, base);
    }

    /// The connection is over: nothing is due any more.
    pub fn stop_rto(&mut self) {
        self.rto_deadline = None;
    }

    /// The connection continues as plain TCP: data already on a subflow is
    /// that subflow's to deliver, so the retained chunks, the reinjection
    /// queue and the timer are void. Returns the data not yet mapped, to
    /// be written to the surviving subflow as it is.
    pub fn abandon(&mut self) -> Drain<'_, Bytes> {
        self.sent.clear();
        self.sent_bytes = 0;
        self.reinject.clear();
        self.rto_deadline = None;
        self.pending_bytes = 0;
        self.pending.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first few thousand bytes straddle 2^32, so truncated DATA_ACKs
    /// have to be expanded the right way round.
    const START: u64 = 0x1_0000_0000 - 1200;
    const MSS: usize = 1000;

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// A sender with `window` bytes of peer window and `len` patterned
    /// bytes written.
    fn sender(window: u32, len: usize) -> DataSender {
        let mut tx = DataSender::new(START, 64 * 1024);
        tx.on_window(None, true, window);
        let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
        assert_eq!(tx.write(&data), len);
        tx
    }

    /// Cut everything the window allows, alternating subflows 0 and 1.
    fn cut_all(tx: &mut DataSender) -> Vec<(u64, Bytes)> {
        let mut out = Vec::new();
        while tx.window_room() > 0 && tx.pending_bytes() > 0 {
            out.push(tx.cut_chunk(MSS, out.len() % 2));
        }
        out
    }

    /// Drain the reinjection queue onto subflow 9.
    fn reinjected(tx: &mut DataSender) -> Vec<u64> {
        std::iter::from_fn(|| tx.take_reinject(9))
            .map(|(dsn, _)| dsn - START)
            .collect()
    }

    #[test]
    fn chunks_stop_at_mss_window_and_pending() {
        let mut tx = sender(2500, 4000);
        let chunks = cut_all(&mut tx);
        let lens: Vec<usize> = chunks.iter().map(|(_, b)| b.len()).collect();
        assert_eq!(lens, [1000, 1000, 500], "the third is cut at the edge");
        assert_eq!(chunks[2].0, START + 2000);
        assert_eq!(&chunks[2].1[..2], &[2000u64 as u8, 2001u64 as u8]);
        assert_eq!((tx.window_room(), tx.pending_bytes()), (0, 1500));
        assert_eq!(tx.memory(), 4000, "mapped or not, all of it is held");
        // The buffer is full at capacity, not before.
        assert_eq!(tx.write(&[0; 70_000]), 64 * 1024 - 4000);
        assert_eq!(tx.write(b"x"), 0);
    }

    #[test]
    fn a_mid_chunk_data_ack_keeps_the_unacked_tail() {
        let mut tx = sender(10_000, 3000);
        cut_all(&mut tx);
        tx.reinject_where(u64::MAX, |_, _| true);
        // The ack lands 300 bytes into the second chunk.
        assert_eq!((START + 1300) & 0xffff_ffff, 100);
        tx.on_data_ack(100);
        assert_eq!(tx.snd_una(), START + 1300);
        assert_eq!(tx.memory(), 1700);
        assert_eq!(tx.head_owner(), Some(1), "the tail stays on its subflow");
        // The tail is a chunk of its own now: M1 resends exactly it.
        let (dsn, tail) = tx
            .retransmit_head(ms(0), 0, Duration::from_millis(10))
            .expect("head chunk");
        assert_eq!((dsn, tail.len()), (START + 1300, 700));
        assert_eq!(tail[0], 1300u64 as u8);
        // What the ack covered left the queue; the old key went with it.
        assert_eq!(reinjected(&mut tx), [2000]);
        // Stale and beyond-the-edge acks change nothing.
        tx.on_data_ack(START + 1000);
        tx.on_data_ack(START + 50_000);
        assert_eq!(tx.snd_una(), START + 3000, "clamped to what was sent");
        assert_eq!(tx.memory(), 0);
    }

    #[test]
    fn the_right_edge_only_moves_right() {
        let mut tx = sender(1000, 5000);
        assert_eq!(tx.window_room(), 1000);
        cut_all(&mut tx);
        assert_eq!(tx.window_room(), 0);
        // An older ack with a smaller window arrives late: no retreat.
        tx.on_window(Some(START), false, 400);
        assert_eq!(tx.window_room(), 0);
        // A bare segment is a forged or fallen-back one once confirmed.
        tx.on_window(None, false, 60_000);
        assert_eq!(tx.window_room(), 0);
        // Ack 1000 with a 1500 window: the edge is ack + window.
        tx.on_window(Some(START + 1000), false, 1500);
        assert_eq!(tx.window_room(), 1500);
        tx.on_data_ack(START + 1000);
        tx.on_window(Some(START + 1000), false, 200);
        assert_eq!(
            tx.window_room(),
            1500,
            "a shrunken window does not pull it back"
        );
    }

    #[test]
    fn reinjection_is_lowest_dsn_first_whatever_queued_it() {
        let mut tx = sender(20_000, 8000);
        cut_all(&mut tx); // 0,2,4,6 k on subflow 0; 1,3,5,7 k on subflow 1
        assert_eq!(tx.reinject_head(), None);
        // A data-level timeout queues the head chunk and what rides an
        // idle subflow, at most two here.
        let una = tx.snd_una();
        assert_eq!(tx.reinject_where(2, |dsn, sf| dsn == una || sf == 1), 2);
        // Then subflow 0 dies: everything it carried, the head included.
        assert_eq!(tx.reinject_where(u64::MAX, |_, sf| sf == 0), 3);
        assert_eq!(tx.reinject_queued(), 5);
        assert_eq!(tx.reinject_head(), Some((START, 0)));
        let (dsn, data) = tx.take_reinject(1).expect("head");
        assert_eq!((dsn, data.len()), (START, MSS));
        assert_eq!(tx.head_owner(), Some(1), "the chunk moved with its copy");
        assert_eq!(tx.reinject_head(), Some((START + 1000, 1)));
        assert_eq!(reinjected(&mut tx), [1000, 2000, 4000, 6000]);
        assert_eq!(tx.reinject_where(u64::MAX, |_, _| true), 8);
        assert_eq!(tx.reinject_where(u64::MAX, |_, _| true), 0, "never twice");
    }

    #[test]
    fn m1_hands_out_the_head_once_per_interval() {
        let mut tx = sender(20_000, 2000);
        assert_eq!(tx.head_owner(), None, "nothing outstanding");
        assert!(tx.retransmit_head(ms(0), 1, Duration::ZERO).is_none());
        cut_all(&mut tx);
        let rtt = Duration::from_millis(20);
        assert!(tx.retransmit_head(ms(100), 1, rtt).is_some());
        assert_eq!(tx.head_owner(), Some(1));
        assert!(tx.retransmit_head(ms(119), 0, rtt).is_none());
        assert!(tx.retransmit_head(ms(120), 0, rtt).is_some());
        // A new head is not the chunk that was just resent.
        tx.on_data_ack(START + 1000);
        assert!(tx.retransmit_head(ms(121), 0, rtt).is_some());
    }

    #[test]
    fn a_close_before_the_last_cut_numbers_the_data_fin_with_it() {
        let mut tx = sender(20_000, 1500);
        tx.close();
        assert!(tx.closing());
        tx.cut_chunk(MSS, 0);
        assert_eq!(tx.fin_dsn(), None, "data still unmapped");
        let (dsn, last) = tx.cut_chunk(MSS, 1);
        assert_eq!(
            tx.fin_dsn(),
            Some(dsn + last.len() as u64),
            "numbered with the last cut, right after it"
        );
        assert_eq!(
            tx.outstanding(),
            1501,
            "the DATA_FIN takes a sequence number"
        );
        assert!(!tx.assign_fin(), "no second DATA_FIN after the DATA_ACK");
        tx.on_data_ack(START + 1500);
        assert!(!tx.assign_fin());
        assert!(
            !tx.fin_acked(),
            "an ack of the data is not an ack of the FIN"
        );
        tx.on_data_ack(START + 1501);
        assert!(tx.fin_acked());
    }

    #[test]
    fn a_close_after_everything_is_mapped_waits_for_the_data_ack() {
        let mut tx = sender(20_000, 1500);
        cut_all(&mut tx);
        tx.close();
        assert_eq!(tx.fin_dsn(), None, "no chunk left to ride");
        assert!(!tx.assign_fin(), "data still unacknowledged");
        tx.on_data_ack(START + 1500);
        assert!(tx.assign_fin());
        assert_eq!(tx.fin_dsn(), Some(START + 1500));
        assert_eq!(tx.outstanding(), 1, "the DATA_FIN takes a sequence number");
        assert!(!tx.assign_fin(), "assigned once");
        assert!(!tx.fin_acked());
        tx.on_data_ack(START + 1501);
        assert!(tx.fin_acked());
    }

    #[test]
    fn the_timer_backs_off_until_a_data_ack_resets_it() {
        let base = Duration::from_millis(400);
        let mut tx = sender(20_000, 3000);
        assert!(!tx.rto_unarmed(), "nothing outstanding, nothing to time");
        cut_all(&mut tx);
        assert!(tx.rto_unarmed());
        tx.arm_rto(ms(0), base);
        assert_eq!(tx.rto_deadline(), Some(ms(400)));
        tx.back_off_rto(ms(400), base);
        tx.back_off_rto(ms(1200), base);
        assert_eq!(tx.rto_deadline(), Some(ms(1200 + 1600)));
        for _ in 0..10 {
            tx.back_off_rto(ms(0), base);
        }
        assert_eq!(tx.rto_interval(base), base * 64, "capped");
        tx.on_data_ack(START + 1000);
        assert!(tx.rto_unarmed(), "progress stops the timer until re-armed");
        assert_eq!(tx.rto_interval(base), base);
    }

    #[test]
    fn fallback_voids_the_retained_chunks_and_returns_the_unmapped_rest() {
        let mut tx = sender(1500, 4000);
        tx.write(&[7; 100]);
        cut_all(&mut tx);
        tx.reinject_where(u64::MAX, |_, _| true);
        tx.arm_rto(ms(0), Duration::from_millis(400));
        let rest: Vec<u8> = tx.abandon().flat_map(|b| b.to_vec()).collect();
        assert_eq!(rest.len(), 2600);
        assert_eq!(rest[0], 1500u64 as u8);
        assert_eq!(&rest[2500..], &[7; 100]);
        assert_eq!(tx.memory(), 0);
        assert_eq!(tx.reinject_head(), None);
        assert_eq!(tx.rto_deadline(), None);
    }
}
