//! The receive queue: in-order assembly plus subflow-level reordering.
//!
//! Incoming payload is keyed by its offset in the subflow byte stream
//! (sequence relative to IRS+1). In-order bytes append to the assembled
//! stream the owner reads; out-of-order bytes wait in a BTree keyed by
//! offset. Note this is *subflow*-level reordering only — the interesting
//! connection-level out-of-order queue (Figure 8's four algorithms) lives
//! in the `mptcp` crate.

use std::collections::BTreeMap;

use bytes::Bytes;
use mptcp_netsim::{Duration, SimTime};

use crate::autotune::autotuned;

/// Reassembly buffer for one TCP receive stream.
pub struct RecvQueue {
    /// In-order data not yet read by the owner.
    assembled: std::collections::VecDeque<Bytes>,
    assembled_bytes: usize,
    /// Offset (bytes since start of stream) of the next in-order byte.
    next_offset: u64,
    /// Offset of the first unread byte (next_offset - assembled_bytes).
    read_offset: u64,
    /// Out-of-order segments keyed by stream offset.
    ooo: BTreeMap<u64, Bytes>,
    ooo_bytes: usize,
    /// Current buffer capacity (autotuning may grow it).
    capacity: usize,
    /// Receive autotuning: the round trip, smoothed by 1/8 ...
    rtt: Option<Duration>,
    /// ... what the last one brought in ...
    per_rtt: usize,
    /// ... and when the current one began, with `next_offset` then.
    round: (SimTime, u64),
}

impl RecvQueue {
    /// Create with an initial capacity.
    pub fn new(capacity: usize) -> RecvQueue {
        RecvQueue {
            assembled: std::collections::VecDeque::new(),
            assembled_bytes: 0,
            next_offset: 0,
            read_offset: 0,
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            capacity,
            rtt: None,
            per_rtt: 0,
            round: (SimTime::ZERO, 0),
        }
    }

    /// Bytes buffered (assembled unread + out-of-order).
    pub fn buffered(&self) -> usize {
        self.assembled_bytes + self.ooo_bytes
    }

    /// Bytes held only in the out-of-order queue.
    pub fn ooo_bytes(&self) -> usize {
        self.ooo_bytes
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Receive autotuning (Dynamic Right-Sizing), with an RTT sample if
    /// one was taken: once a round trip has passed since the round began,
    /// grow (never shrink) the capacity toward twice what it brought in,
    /// within `max`.
    pub(crate) fn autotune(&mut self, now: SimTime, rtt: Option<Duration>, max: usize) {
        if let Some(s) = rtt {
            self.rtt = Some(self.rtt.map_or(s, |r| (r * 7 + s) / 8));
        }
        let (began, base) = self.round;
        if self.rtt.is_some_and(|rtt| now.since(began) >= rtt) {
            self.round = (now, self.next_offset);
            self.per_rtt = (self.next_offset - base) as usize;
            self.capacity = self.capacity.max(autotuned(self.per_rtt, max));
        }
    }

    /// The bytes the last round trip brought in, and that round trip.
    pub(crate) fn rate(&self) -> Option<(usize, Duration)> {
        Some((self.per_rtt, self.rtt?))
    }

    /// Offset one past the last in-order byte received.
    pub fn end(&self) -> u64 {
        self.next_offset
    }

    /// Receive window to advertise: free space in the buffer.
    pub fn window(&self) -> u32 {
        self.capacity.saturating_sub(self.buffered()) as u32
    }

    /// Insert payload whose first byte sits at stream `offset`.
    ///
    /// Returns the number of *new* in-order bytes made available (the
    /// amount `rcv_nxt` advanced). Data beyond the window has already been
    /// clipped by the socket; overlaps and duplicates are tolerated here.
    pub fn insert(&mut self, offset: u64, data: Bytes) -> u64 {
        if data.is_empty() {
            return 0;
        }
        let end = offset + data.len() as u64;
        if end <= self.next_offset {
            return 0; // entirely duplicate
        }
        // Clip the already-received prefix.
        let (offset, data) = if offset < self.next_offset {
            let cut = (self.next_offset - offset) as usize;
            (self.next_offset, data.slice(cut..))
        } else {
            (offset, data)
        };

        if offset > self.next_offset {
            // Out of order: stash, trimming overlap with existing entries.
            self.stash_ooo(offset, data);
            return 0;
        }

        // In order: append, then drain any now-contiguous stashed data.
        let before = self.next_offset;
        self.append(data);
        self.drain_ooo();
        self.next_offset - before
    }

    fn append(&mut self, data: Bytes) {
        self.next_offset += data.len() as u64;
        self.assembled_bytes += data.len();
        self.assembled.push_back(data);
    }

    fn stash_ooo(&mut self, mut offset: u64, mut data: Bytes) {
        // Trim against the predecessor.
        if let Some((&pstart, pdata)) = self.ooo.range(..=offset).next_back() {
            let pend = pstart + pdata.len() as u64;
            if pend >= offset + data.len() as u64 {
                return; // fully covered
            }
            if pend > offset {
                let cut = (pend - offset) as usize;
                data = data.slice(cut..);
                offset = pend;
            }
        }
        // Trim successors covered by this segment.
        let mut absorbed = Vec::new();
        for (&s, d) in self.ooo.range(offset..) {
            if s >= offset + data.len() as u64 {
                break;
            }
            absorbed.push((s, d.len()));
        }
        for (s, len) in absorbed {
            let sdata = self.ooo.remove(&s).unwrap();
            self.ooo_bytes -= len;
            let send = s + len as u64;
            let dend = offset + data.len() as u64;
            if send > dend {
                // Successor extends beyond: keep its tail.
                let keep = sdata.slice((dend - s) as usize..);
                self.ooo_bytes += keep.len();
                self.ooo.insert(dend, keep);
                break;
            }
        }
        self.ooo_bytes += data.len();
        self.ooo.insert(offset, data);
    }

    fn drain_ooo(&mut self) {
        while let Some((&start, _)) = self.ooo.first_key_value() {
            if start > self.next_offset {
                break;
            }
            let (start, data) = self.ooo.pop_first().unwrap();
            self.ooo_bytes -= data.len();
            if start + data.len() as u64 <= self.next_offset {
                continue; // fully duplicate
            }
            let cut = (self.next_offset - start) as usize;
            self.append(data.slice(cut..));
        }
    }

    /// Read up to `max` in-order bytes.
    pub fn read(&mut self, max: usize) -> Option<Bytes> {
        let front = self.assembled.front_mut()?;
        let out = if front.len() <= max {
            self.assembled.pop_front().unwrap()
        } else {
            let head = front.slice(..max);
            *front = front.slice(max..);
            head
        };
        self.assembled_bytes -= out.len();
        self.read_offset += out.len() as u64;
        Some(out)
    }

    /// Read like [`RecvQueue::read`], also reporting the stream offset of
    /// the first returned byte (used by MPTCP to match DSS mappings).
    pub fn read_with_offset(&mut self, max: usize) -> Option<(u64, Bytes)> {
        let off = self.read_offset;
        self.read(max).map(|b| (off, b))
    }

    /// First contiguous out-of-order range, for SACK generation.
    pub fn first_sack_block(&self) -> Option<(u64, u64)> {
        let (&start, data) = self.ooo.first_key_value()?;
        Some((start, start + data.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    #[test]
    fn in_order_delivery() {
        let mut q = RecvQueue::new(1000);
        assert_eq!(q.insert(0, b("abc")), 3);
        assert_eq!(q.insert(3, b("def")), 3);
        assert_eq!(&q.read(100).unwrap()[..], b"abc");
        assert_eq!(&q.read(100).unwrap()[..], b"def");
        assert!(q.read(100).is_none());
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut q = RecvQueue::new(1000);
        assert_eq!(q.insert(3, b("def")), 0);
        assert_eq!(q.ooo_bytes(), 3);
        assert_eq!(q.insert(0, b("abc")), 6); // fills the hole, drains ooo
        assert_eq!(q.ooo_bytes(), 0);
        assert_eq!(&q.read(100).unwrap()[..], b"abc");
        assert_eq!(&q.read(100).unwrap()[..], b"def");
    }

    #[test]
    fn duplicates_ignored() {
        let mut q = RecvQueue::new(1000);
        q.insert(0, b("abcdef"));
        assert_eq!(q.insert(0, b("abc")), 0);
        assert_eq!(q.insert(2, b("cdef")), 0);
        assert_eq!(q.buffered(), 6);
    }

    #[test]
    fn partial_overlap_trimmed() {
        let mut q = RecvQueue::new(1000);
        q.insert(0, b("abcd"));
        // Overlaps 2 bytes, extends 2 new.
        assert_eq!(q.insert(2, b("cdEF")), 2);
        let mut all = Vec::new();
        while let Some(x) = q.read(100) {
            all.extend_from_slice(&x);
        }
        assert_eq!(&all, b"abcdEF");
    }

    #[test]
    fn ooo_overlaps_merge() {
        let mut q = RecvQueue::new(1000);
        q.insert(10, b("KLM"));
        q.insert(8, b("IJKL")); // overlaps predecessor territory
        q.insert(12, b("MNO")); // overlaps successor
        assert_eq!(q.insert(0, b("ABCDEFGH")), 15);
        let mut all = Vec::new();
        while let Some(x) = q.read(100) {
            all.extend_from_slice(&x);
        }
        assert_eq!(all.len(), 15);
        assert_eq!(&all[8..], b"IJKLMNO");
    }

    #[test]
    fn window_reflects_occupancy() {
        let mut q = RecvQueue::new(10);
        assert_eq!(q.window(), 10);
        q.insert(0, b("abcdef"));
        assert_eq!(q.window(), 4);
        q.read(3);
        assert_eq!(q.window(), 7);
        // OOO data also consumes window.
        q.insert(8, b("xy"));
        assert_eq!(q.window(), 5);
    }

    #[test]
    fn read_with_offset_tracks_stream_position() {
        let mut q = RecvQueue::new(1000);
        q.insert(0, b("hello world"));
        let (off, data) = q.read_with_offset(5).unwrap();
        assert_eq!(off, 0);
        assert_eq!(&data[..], b"hello");
        let (off, data) = q.read_with_offset(100).unwrap();
        assert_eq!(off, 5);
        assert_eq!(&data[..], b" world");
    }

    #[test]
    fn sack_block_reports_first_hole_end() {
        let mut q = RecvQueue::new(1000);
        assert!(q.first_sack_block().is_none());
        q.insert(10, b("XYZ"));
        assert_eq!(q.first_sack_block(), Some((10, 13)));
    }

    #[test]
    fn capacity_never_shrinks() {
        let (rtt, ms) = (Some(Duration::from_millis(10)), SimTime::from_millis);
        let mut q = RecvQueue::new(100_000);
        q.autotune(ms(0), rtt, 1 << 20);
        q.insert(0, Bytes::from(vec![0u8; 90_000]));
        q.autotune(ms(10), rtt, 1 << 20);
        assert_eq!(q.capacity(), 180_000);
        assert_eq!(q.rate(), Some((90_000, Duration::from_millis(10))));
        // A quiet round trip leaves it where it was.
        q.autotune(ms(20), rtt, 1 << 20);
        assert_eq!(q.capacity(), 180_000);
        assert_eq!(q.rate(), Some((0, Duration::from_millis(10))));
    }

    #[test]
    fn a_round_lasts_the_smoothed_rtt() {
        let (ms, data) = (SimTime::from_millis, |n| Bytes::from(vec![0u8; n]));
        let mut q = RecvQueue::new(1 << 20);
        q.insert(0, data(1_000));
        q.autotune(ms(0), None, 1 << 20);
        assert_eq!(q.rate(), None, "no round before an RTT");
        q.autotune(ms(10), Some(Duration::from_millis(100)), 1 << 20);
        q.insert(1_000, data(8_000));
        q.autotune(ms(60), None, 1 << 20);
        assert_eq!(q.rate(), Some((0, Duration::from_millis(100))));
        q.autotune(ms(110), None, 1 << 20);
        assert_eq!(q.rate(), Some((9_000, Duration::from_millis(100))));
        // A 180 ms sample moves the smoothed RTT to 110 ms.
        q.insert(9_000, data(3_000));
        q.autotune(ms(215), Some(Duration::from_millis(180)), 1 << 20);
        assert_eq!(q.rate(), Some((9_000, Duration::from_millis(110))));
        q.insert(12_000, data(8_000));
        q.autotune(ms(220), None, 1 << 20);
        assert_eq!(q.rate(), Some((11_000, Duration::from_millis(110))));
    }
}
