//! The chunked send queue.
//!
//! Data is enqueued as *chunks*: a payload plus the TCP option that must
//! accompany it on the wire. For plain TCP there is none and adjacent
//! chunks merge; for MPTCP each chunk carries its DSS mapping.
//! Two invariants make MPTCP's middlebox story work (§3.3.3–3.3.5):
//!
//! 1. A segment never spans two chunks that carry options, so a mapping is
//!    always transmitted with (some of) the bytes it maps.
//! 2. Retransmissions rebuild segments from the chunk queue, so a
//!    retransmitted mapping is byte-identical to the original — middleboxes
//!    that "re-assert original content" on inconsistent retransmissions
//!    (footnote 5) see nothing amiss.

use bytes::Bytes;
use mptcp_packet::{SeqNum, TcpOption};

/// One queued chunk.
#[derive(Clone, Debug)]
struct Chunk {
    /// Sequence number of the first payload byte.
    seq: SeqNum,
    payload: Bytes,
    option: Option<TcpOption>,
}

impl Chunk {
    fn end(&self) -> SeqNum {
        self.seq + self.payload.len() as u32
    }
}

/// A segment's worth of data pulled out of the queue.
#[derive(Clone, Debug)]
pub struct SegmentData {
    /// Sequence number of the first byte.
    pub seq: SeqNum,
    /// Payload slice (zero-copy).
    pub payload: Bytes,
    /// Option of the chunk this segment was cut from.
    pub option: Option<TcpOption>,
}

/// The send queue: a run of chunks covering `[una, end)` sequence space.
pub struct SendQueue {
    chunks: std::collections::VecDeque<Chunk>,
    /// Lowest unacknowledged sequence number.
    una: SeqNum,
    /// Next sequence number to be assigned to enqueued data.
    end: SeqNum,
    /// Cap on merging plain (option-less) chunks, to bound clone costs.
    max_merge: usize,
}

impl SendQueue {
    /// Create a queue starting at sequence `start` (typically ISS+1).
    pub fn new(start: SeqNum) -> SendQueue {
        SendQueue {
            chunks: std::collections::VecDeque::new(),
            una: start,
            end: start,
            max_merge: 64 * 1024,
        }
    }

    /// Bytes currently buffered (unacked + unsent).
    pub fn buffered(&self) -> usize {
        (self.end - self.una) as usize
    }

    /// Sequence number one past the last enqueued byte.
    pub fn end_seq(&self) -> SeqNum {
        self.end
    }

    /// Enqueue a chunk; returns the sequence number it was assigned.
    pub fn enqueue(&mut self, payload: Bytes, option: Option<TcpOption>) -> SeqNum {
        let seq = self.end;
        self.end += payload.len() as u32;
        // Merge option-less data into the previous option-less chunk so bulk
        // TCP traffic produces full-MSS segments.
        if option.is_none() {
            if let Some(last) = self.chunks.back_mut() {
                if last.option.is_none() && last.payload.len() + payload.len() <= self.max_merge {
                    let mut merged = Vec::with_capacity(last.payload.len() + payload.len());
                    merged.extend_from_slice(&last.payload);
                    merged.extend_from_slice(&payload);
                    last.payload = Bytes::from(merged);
                    return seq;
                }
            }
        }
        self.chunks.push_back(Chunk {
            seq,
            payload,
            option,
        });
        seq
    }

    /// Acknowledge everything before `ack`; returns bytes freed.
    pub fn ack_to(&mut self, ack: SeqNum) -> usize {
        if !ack.after(self.una) {
            return 0;
        }
        let ack = ack.min(self.end);
        let freed = (ack - self.una) as usize;
        self.una = ack;
        while let Some(front) = self.chunks.front() {
            if front.end().before_eq(ack) {
                self.chunks.pop_front();
            } else {
                break;
            }
        }
        // Trim a partially-acked front chunk. Its option stays attached to
        // the remainder: a duplicate DSS mapping is harmless (§3.3.4).
        if let Some(front) = self.chunks.front_mut() {
            if front.seq.before(ack) {
                let cut = (ack - front.seq) as usize;
                front.payload = front.payload.slice(cut..);
                front.seq = ack;
            }
        }
        freed
    }

    /// The socket closed its sending direction. A queue empty by then (an
    /// MPTCP subflow's: it is closed once its last byte is DATA_ACKed) stays
    /// empty, while a listener keeps the socket object long after: give
    /// back the chunk list's room for the largest window it ever held.
    pub fn release_if_empty(&mut self) {
        if self.chunks.is_empty() {
            self.chunks.shrink_to_fit();
        }
    }

    /// The chunk holding `from` and the offset of `from` inside it. Chunks
    /// are contiguous and sorted by sequence number, so this is a binary
    /// search; `None` when `from` is outside `[una, end)`.
    fn locate(&self, from: SeqNum) -> Option<(&Chunk, usize)> {
        if !from.in_window(self.una, self.end - self.una) {
            return None;
        }
        let idx = self.chunks.partition_point(|c| c.end().before_eq(from));
        let chunk = self.chunks.get(idx)?;
        Some((chunk, (from - chunk.seq) as usize))
    }

    /// Extract up to `max_len` bytes starting at `from`, without crossing a
    /// chunk boundary. Returns `None` when `from` is at or past the end.
    pub fn segment_at(&self, from: SeqNum, max_len: usize) -> Option<SegmentData> {
        let (chunk, off) = self.locate(from)?;
        let take = (chunk.payload.len() - off).min(max_len);
        Some(SegmentData {
            seq: from,
            payload: chunk.payload.slice(off..off + take),
            option: chunk.option.clone(),
        })
    }

    /// Payload length [`SendQueue::segment_at`] would return, without
    /// building the segment.
    pub fn segment_len_at(&self, from: SeqNum, max_len: usize) -> Option<usize> {
        let (chunk, off) = self.locate(from)?;
        Some((chunk.payload.len() - off).min(max_len))
    }

    /// True when `seq` still has unsent-or-unacked data after it.
    pub fn has_data_at(&self, seq: SeqNum) -> bool {
        seq.before(self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> SendQueue {
        SendQueue::new(SeqNum(1000))
    }

    fn opt() -> Option<TcpOption> {
        Some(TcpOption::WindowScale(1))
    }

    #[test]
    fn enqueue_assigns_sequence() {
        let mut s = q();
        assert_eq!(s.enqueue(Bytes::from_static(b"abc"), None), SeqNum(1000));
        assert_eq!(s.enqueue(Bytes::from_static(b"defg"), None), SeqNum(1003));
        assert_eq!(s.buffered(), 7);
        assert_eq!(s.end_seq(), SeqNum(1007));
    }

    #[test]
    fn plain_chunks_merge() {
        let mut s = q();
        s.enqueue(Bytes::from_static(b"aaa"), None);
        s.enqueue(Bytes::from_static(b"bbb"), None);
        // One merged chunk: a segment can span both writes.
        let seg = s.segment_at(SeqNum(1000), 100).unwrap();
        assert_eq!(&seg.payload[..], b"aaabbb");
    }

    #[test]
    fn option_chunks_do_not_merge() {
        let mut s = q();
        s.enqueue(Bytes::from_static(b"aaa"), opt());
        s.enqueue(Bytes::from_static(b"bbb"), opt());
        let seg = s.segment_at(SeqNum(1000), 100).unwrap();
        assert_eq!(&seg.payload[..], b"aaa"); // stops at chunk boundary
        let seg2 = s.segment_at(SeqNum(1003), 100).unwrap();
        assert_eq!(&seg2.payload[..], b"bbb");
    }

    #[test]
    fn segment_respects_mss() {
        let mut s = q();
        s.enqueue(Bytes::from(vec![0u8; 5000]), None);
        let seg = s.segment_at(SeqNum(1000), 1460).unwrap();
        assert_eq!(seg.payload.len(), 1460);
        let seg = s.segment_at(SeqNum(1000 + 4000), 1460).unwrap();
        assert_eq!(seg.payload.len(), 1000);
    }

    #[test]
    fn split_segments_carry_chunk_options() {
        // TSO behaviour: every segment cut from a chunk carries its options.
        let mut s = q();
        s.enqueue(Bytes::from(vec![1u8; 3000]), opt());
        let a = s.segment_at(SeqNum(1000), 1460).unwrap();
        let b = s.segment_at(SeqNum(2460), 1460).unwrap();
        assert_eq!(a.option, opt());
        assert_eq!(b.option, opt());
    }

    #[test]
    fn ack_frees_and_trims() {
        let mut s = q();
        s.enqueue(Bytes::from_static(b"hello"), opt());
        s.enqueue(Bytes::from_static(b"world"), opt());
        assert_eq!(s.ack_to(SeqNum(1003)), 3);
        assert_eq!(s.buffered(), 7);
        // Partial chunk trimmed but options retained for the remainder.
        let seg = s.segment_at(SeqNum(1003), 100).unwrap();
        assert_eq!(&seg.payload[..], b"lo");
        assert_eq!(seg.option, opt());
        assert_eq!(s.ack_to(SeqNum(1010)), 7);
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn stale_and_overshooting_acks() {
        let mut s = q();
        s.enqueue(Bytes::from_static(b"abc"), None);
        assert_eq!(s.ack_to(SeqNum(999)), 0); // old ack ignored
        assert_eq!(s.ack_to(SeqNum(2000)), 3); // clamped to end
        assert_eq!(s.una, SeqNum(1003));
    }

    /// The scan `segment_at` used before the binary search; kept here as
    /// the reference it is compared against.
    fn linear_segment_at(s: &SendQueue, from: SeqNum, max_len: usize) -> Option<(Bytes, bool)> {
        if !from.in_window(s.una, s.end - s.una) {
            return None;
        }
        let chunk = s
            .chunks
            .iter()
            .find(|c| from.after_eq(c.seq) && from.before(c.end()))?;
        let off = (from - chunk.seq) as usize;
        let take = (chunk.payload.len() - off).min(max_len);
        Some((chunk.payload.slice(off..off + take), chunk.option.is_some()))
    }

    #[test]
    fn binary_search_lookup_equals_linear_scan() {
        let mut rng = mptcp_netsim::SimRng::new(0x5eed);
        for round in 0..200 {
            // Start near the wrap on some rounds: ordering is circular.
            let start = if round % 4 == 0 {
                u32::MAX - rng.range(0, 5000) as u32
            } else {
                rng.next_u32()
            };
            let mut s = SendQueue::new(SeqNum(start));
            let mut byte = 0u8;
            for _ in 0..rng.range(0, 40) {
                let len = rng.range(1, 3000) as usize;
                byte = byte.wrapping_add(1);
                let options = if rng.chance(0.7) { opt() } else { None };
                s.enqueue(Bytes::from(vec![byte; len]), options);
            }
            // A partial ACK leaves a trimmed front chunk.
            let buffered = s.buffered() as u64;
            s.ack_to(s.una + rng.range(0, buffered + 1) as u32);

            // Every chunk edge and its neighbours, `una`, `end`, beyond
            // both, plus random interior points.
            let mut probes = vec![s.una - 1, s.una, s.end - 1, s.end, s.end + 1, s.end + 9999];
            for c in &s.chunks {
                probes.extend([c.seq - 1, c.seq, c.seq + 1, c.end() - 1, c.end()]);
            }
            for _ in 0..50 {
                probes.push(s.una + rng.range(0, s.buffered() as u64 + 10) as u32);
            }
            for from in probes {
                let max_len = rng.range(1, 2000) as usize;
                let want = linear_segment_at(&s, from, max_len);
                let got = s.segment_at(from, max_len);
                assert_eq!(
                    got.as_ref()
                        .map(|d| (d.seq, d.payload.clone(), d.option.is_some())),
                    want.clone().map(|(p, o)| (from, p, o)),
                    "round {round}, from {from:?}, max_len {max_len}"
                );
                assert_eq!(
                    s.segment_len_at(from, max_len),
                    want.map(|(p, _)| p.len()),
                    "round {round}, from {from:?}, max_len {max_len}"
                );
            }
        }
    }

    #[test]
    fn segment_past_end_is_none() {
        let mut s = q();
        s.enqueue(Bytes::from_static(b"ab"), None);
        assert!(s.segment_at(SeqNum(1002), 10).is_none());
        assert!(s.segment_at(s.una, 10).is_some());
        s.ack_to(SeqNum(1002));
        assert!(s.segment_at(s.una, 10).is_none());
    }
}
