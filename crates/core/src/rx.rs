//! The data-level receive path (§3.3.1, §4.3): mapped runs in, one
//! in-order byte stream out.
//!
//! A plain machine, like [`crate::pm`]: the connection translates subflow
//! bytes through the DSS mappings and hands the result here as
//! `(dsn, bytes)` pieces; this owns everything after that — duplicate
//! trimming against `rcv_nxt`, the reorder queue, in-order delivery to the
//! application's read queue, DATA_FIN, and the shared receive window.

use std::collections::VecDeque;

use bytes::Bytes;
use mptcp_netsim::SimTime;
use mptcp_telemetry::{CounterId, EventKind, GaugeId, Recorder};

use crate::config::ReorderAlgo;
use crate::mapping::split_front;
use crate::reorder::{make_queue, OooQueue};

/// Receive side of one connection's data sequence space.
pub struct DataReceiver {
    /// Next expected data sequence number: the cumulative DATA_ACK.
    rcv_nxt: u64,
    /// The connection-level out-of-order queue (Figure 8 algorithms).
    ooo: OooQueue,
    /// In-order data the application has not read yet.
    app_rx: VecDeque<Bytes>,
    app_rx_bytes: usize,
    /// Receive buffer capacity (M3-autotuned).
    buf_cap: usize,
    /// DSN of the peer's DATA_FIN, if announced.
    fin_dsn: Option<u64>,
    /// Peer's stream fully received and its DATA_FIN consumed.
    eof: bool,
    /// Scratch: the mapped pieces of one subflow drain, delivered as a run
    /// so the reorder queue pays one walk per run. Empty between calls;
    /// kept for its capacity.
    run: Vec<(u64, Bytes)>,
    /// Scratch: out-of-order pieces awaiting one batched queue insert.
    /// Empty between calls; kept for its capacity.
    staged: Vec<(u64, Bytes, usize)>,
}

impl DataReceiver {
    /// A receiver holding at most `buf_cap` bytes, reordering with `algo`.
    pub fn new(algo: ReorderAlgo, buf_cap: usize) -> DataReceiver {
        DataReceiver {
            rcv_nxt: 0,
            ooo: make_queue(algo),
            app_rx: VecDeque::new(),
            app_rx_bytes: 0,
            buf_cap,
            fin_dsn: None,
            eof: false,
            run: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// The peer's first data sequence number is known (from its key).
    pub fn start_at(&mut self, dsn: u64) {
        self.rcv_nxt = dsn;
    }

    /// Next expected data sequence number — what a DATA_ACK carries.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// The reorder queue, for its occupancy and operation counts.
    pub fn queue(&self) -> &OooQueue {
        &self.ooo
    }

    /// Bytes held: reorder queue plus unread in-order data.
    pub fn memory(&self) -> usize {
        self.ooo.buffered_bytes() + self.app_rx_bytes
    }

    /// The window to advertise on every subflow: one shared pool, so
    /// capacity minus everything held (§3.3.1).
    pub fn window(&self) -> u32 {
        self.buf_cap.saturating_sub(self.memory()) as u32
    }

    /// Current buffer capacity.
    pub fn capacity(&self) -> usize {
        self.buf_cap
    }

    /// M3: raise the capacity to `cap`. Returns whether it grew.
    pub fn grow_to(&mut self, cap: usize) -> bool {
        let grew = cap > self.buf_cap;
        self.buf_cap = self.buf_cap.max(cap);
        grew
    }

    /// The peer's DATA_FIN was consumed: nothing more will arrive.
    pub fn eof(&self) -> bool {
        self.eof
    }

    /// Is in-order data waiting to be read?
    pub fn readable(&self) -> bool {
        !self.app_rx.is_empty()
    }

    /// Take up to `max` bytes of in-order data.
    pub fn read(&mut self, max: usize) -> Option<Bytes> {
        let front = self.app_rx.front_mut()?;
        let out = if front.len() <= max {
            self.app_rx.pop_front()?
        } else {
            split_front(front, max)
        };
        self.app_rx_bytes -= out.len();
        Some(out)
    }

    /// Append bytes to the in-order stream as they are (in-sequence data,
    /// or a fallen-back connection's raw subflow stream).
    pub fn deliver(&mut self, data: Bytes) {
        self.app_rx_bytes += data.len();
        self.app_rx.push_back(data);
    }

    /// The peer announced its DATA_FIN: right after the mapping that
    /// carried it (`Some(end)`), or at the current edge.
    pub fn on_data_fin(&mut self, mapped_end: Option<u64>) {
        self.fin_dsn = mapped_end.or(self.fin_dsn).or(Some(self.rcv_nxt));
    }

    /// Consume the DATA_FIN once everything before it has arrived; it
    /// occupies one sequence number.
    pub fn check_fin(&mut self) {
        if !self.eof && self.fin_dsn == Some(self.rcv_nxt) {
            self.eof = true;
            self.rcv_nxt += 1;
        }
    }

    /// Stage one mapped piece of the current subflow drain.
    pub fn stage(&mut self, dsn: u64, data: Bytes) {
        self.run.push((dsn, data));
    }

    /// Deliver the staged run, which arrived on `subflow`: duplicates are
    /// trimmed against `rcv_nxt` (counted as `DupDataBytes`), in-order
    /// pieces are delivered and pull what they unblock out of the reorder
    /// queue, out-of-order pieces go in with one batched insert. The batch
    /// is flushed before any in-order piece drains the queue, so `rcv_nxt`
    /// and the duplicate count evolve piece by piece.
    pub fn flush(&mut self, now: SimTime, subflow: usize, rec: &mut Recorder) {
        if self.run.is_empty() {
            return;
        }
        let mut run = std::mem::take(&mut self.run);
        for (dsn, data) in run.drain(..) {
            let end = dsn + data.len() as u64;
            let dup = end.min(self.rcv_nxt).saturating_sub(dsn);
            let (dsn, data) = if dup > 0 {
                rec.count_n(CounterId::DupDataBytes, dup);
                (dsn + dup, data.slice(dup as usize..))
            } else {
                (dsn, data)
            };
            if end <= self.rcv_nxt {
                continue;
            }
            if dsn > self.rcv_nxt {
                self.staged.push((dsn, data, subflow));
                continue;
            }
            // In order: anything staged so far must land in the queue
            // first so the drain below can see it.
            self.flush_staged(now, rec);
            self.rcv_nxt = end;
            self.deliver(data);
            let mut popped = false;
            while let Some((d, b)) = self.ooo.pop_ready(self.rcv_nxt) {
                debug_assert_eq!(d, self.rcv_nxt);
                self.rcv_nxt = d + b.len() as u64;
                self.deliver(b);
                popped = true;
            }
            if popped {
                rec.gauge_set(GaugeId::OfoQueueSegs, self.ooo.len() as u64);
                rec.gauge_set(GaugeId::OfoQueueBytes, self.ooo.buffered_bytes() as u64);
            }
        }
        self.flush_staged(now, rec);
        self.run = run; // drained; keep the capacity
    }

    /// One queue walk for the staged pieces, then the high-water event and
    /// gauges against the post-insert queue.
    fn flush_staged(&mut self, now: SimTime, rec: &mut Recorder) {
        if self.staged.is_empty() {
            return;
        }
        self.ooo.insert_batch(&mut self.staged);
        let segs = self.ooo.len() as u64;
        let bytes = self.ooo.buffered_bytes() as u64;
        if segs > rec.gauge(GaugeId::OfoQueueSegs).max {
            rec.note(now.0, EventKind::ReorderHighWater { segs, bytes });
        }
        rec.gauge_set(GaugeId::OfoQueueSegs, segs);
        rec.gauge_set(GaugeId::OfoQueueBytes, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimTime = SimTime::ZERO;

    fn receiver(cap: usize) -> (DataReceiver, Recorder) {
        let mut rx = DataReceiver::new(ReorderAlgo::AllShortcuts, cap);
        rx.start_at(1000);
        (rx, Recorder::new())
    }

    /// `len` bytes whose values name their own data sequence numbers.
    fn piece(dsn: u64, len: usize) -> Bytes {
        (dsn..dsn + len as u64).map(|d| d as u8).collect()
    }

    /// One subflow drain: stage every piece, flush once.
    fn drain(rx: &mut DataReceiver, rec: &mut Recorder, subflow: usize, pieces: &[(u64, usize)]) {
        for &(dsn, len) in pieces {
            rx.stage(dsn, piece(dsn, len));
        }
        rx.flush(T, subflow, rec);
        rx.check_fin();
    }

    fn read_all(rx: &mut DataReceiver) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(b) = rx.read(7) {
            out.extend_from_slice(&b);
        }
        out
    }

    #[test]
    fn interleaved_runs_from_two_subflows_come_out_in_order() {
        let (mut rx, mut rec) = receiver(10_000);
        // Subflow 1 is ahead of subflow 0: its run waits in the queue.
        drain(
            &mut rx,
            &mut rec,
            1,
            &[(1200, 100), (1300, 100), (1500, 100)],
        );
        assert_eq!(rx.rcv_nxt(), 1000);
        assert!(!rx.readable());
        assert_eq!(rx.queue().len(), 3);
        assert_eq!(rec.gauge(GaugeId::OfoQueueSegs).max, 3);
        // Subflow 0 fills the head; 1200..1400 follow it out of the queue.
        drain(&mut rx, &mut rec, 0, &[(1000, 100), (1100, 100)]);
        assert_eq!(rx.rcv_nxt(), 1400);
        assert_eq!(rx.queue().len(), 1);
        // A run that is in order in its middle: 1400 unblocks 1500, and
        // the piece staged before it (1700) is queued first.
        drain(
            &mut rx,
            &mut rec,
            0,
            &[(1700, 50), (1400, 100), (1600, 100)],
        );
        assert_eq!(rx.rcv_nxt(), 1750);
        assert!(rx.queue().is_empty());
        assert_eq!(read_all(&mut rx), piece(1000, 750).to_vec());
        assert_eq!(rec.counter(CounterId::DupDataBytes), 0);
    }

    #[test]
    fn duplicates_and_straddlers_are_trimmed_against_rcv_nxt() {
        let (mut rx, mut rec) = receiver(10_000);
        drain(&mut rx, &mut rec, 0, &[(1000, 300)]);
        // Entirely old: all 100 bytes are duplicate.
        drain(&mut rx, &mut rec, 1, &[(1100, 100)]);
        assert_eq!(rec.counter(CounterId::DupDataBytes), 100);
        // Straddles the edge: 50 old bytes trimmed, 70 new delivered.
        drain(&mut rx, &mut rec, 1, &[(1250, 120)]);
        assert_eq!(rec.counter(CounterId::DupDataBytes), 150);
        assert_eq!(rx.rcv_nxt(), 1370);
        // Ends exactly at the edge: old. Starts exactly at it: new.
        drain(&mut rx, &mut rec, 1, &[(1360, 10), (1370, 10)]);
        assert_eq!(rec.counter(CounterId::DupDataBytes), 160);
        assert_eq!(rx.rcv_nxt(), 1380);
        // A copy of a queued piece is the queue's to drop, not a trim.
        drain(&mut rx, &mut rec, 0, &[(1500, 10)]);
        drain(&mut rx, &mut rec, 1, &[(1500, 10)]);
        assert_eq!(rec.counter(CounterId::DupDataBytes), 160);
        assert_eq!(rx.queue().buffered_bytes(), 10);
        assert_eq!(read_all(&mut rx), piece(1000, 380).to_vec());
    }

    #[test]
    fn data_fin_with_a_mapping_waits_for_the_bytes_before_it() {
        let (mut rx, mut rec) = receiver(10_000);
        rx.on_data_fin(Some(1200));
        drain(&mut rx, &mut rec, 0, &[(1100, 100)]);
        assert!(!rx.eof());
        drain(&mut rx, &mut rec, 0, &[(1000, 100)]);
        assert!(rx.eof());
        assert_eq!(rx.rcv_nxt(), 1201, "the DATA_FIN takes a sequence number");
        // A retransmitted DATA_FIN changes nothing.
        rx.on_data_fin(Some(1200));
        rx.check_fin();
        assert_eq!(rx.rcv_nxt(), 1201);
        assert_eq!(read_all(&mut rx).len(), 200);
    }

    #[test]
    fn data_fin_without_a_mapping_lands_at_the_current_edge() {
        let (mut rx, mut rec) = receiver(10_000);
        drain(&mut rx, &mut rec, 0, &[(1000, 64)]);
        rx.on_data_fin(None);
        rx.on_data_fin(None);
        rx.check_fin();
        assert!(rx.eof());
        assert_eq!(rx.rcv_nxt(), 1065);
    }

    #[test]
    fn window_is_capacity_minus_everything_held() {
        let (mut rx, mut rec) = receiver(1000);
        assert_eq!(rx.window(), 1000);
        drain(&mut rx, &mut rec, 0, &[(1000, 300), (1500, 200)]);
        assert_eq!(rx.memory(), 500);
        assert_eq!(rx.window(), 500);
        // Reading frees the in-order part only.
        assert_eq!(rx.read(100).map(|b| b.len()), Some(100));
        assert_eq!(rx.window(), 600);
        assert_eq!(read_all(&mut rx).len(), 200);
        assert_eq!(rx.window(), 800);
        // Held beyond a (never shrinking) capacity: zero, not a wrap.
        drain(&mut rx, &mut rec, 0, &[(1700, 900)]);
        assert_eq!(rx.window(), 0);
        assert!(!rx.grow_to(500));
        assert!(rx.grow_to(2000));
        assert_eq!(rx.window(), 900);
    }
}
