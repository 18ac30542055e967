//! Segment splitting (TSO) and coalescing (traffic normalizers).
//!
//! Splitters model TCP Segmentation Offload NICs: the paper tested 12 TSO
//! NICs and all of them copy a TCP option from the large segment onto
//! *every* split segment (§3.3.4) — which is why the DSS mapping must be
//! self-describing (offset + length) rather than per-packet.
//!
//! Coalescers model traffic normalizers \[8\] that merge contiguous
//! segments. TCP's 40-byte option space can only hold one full DSS
//! mapping, so the merged segment keeps the first and loses the second —
//! the receiver then sees bytes with no mapping and the sender must
//! retransmit them (§3.3.5).

use bytes::Bytes;
use mptcp_netsim::{Dir, Duration, MbVerdict, Middlebox, SimRng, SimTime};
use mptcp_packet::{options, TcpSegment};
use mptcp_telemetry::{CounterId, Recorder};

/// Re-segments large payloads into `mss`-sized pieces, copying options to
/// every piece (TSO behaviour).
pub struct SegmentSplitter {
    mss: usize,
    /// Segments that were split.
    pub splits: u64,
}

impl SegmentSplitter {
    /// Split payloads larger than `mss`.
    pub fn new(mss: usize) -> SegmentSplitter {
        SegmentSplitter { mss, splits: 0 }
    }
}

impl Middlebox for SegmentSplitter {
    fn process(
        &mut self,
        _now: SimTime,
        _dir: Dir,
        seg: TcpSegment,
        _rng: &mut SimRng,
    ) -> MbVerdict {
        if seg.payload.len() <= self.mss {
            return MbVerdict::pass(seg);
        }
        self.splits += 1;
        let mut out = Vec::new();
        let mut off = 0usize;
        while off < seg.payload.len() {
            let take = (seg.payload.len() - off).min(self.mss);
            let mut piece = seg.clone();
            piece.seq = seg.seq + off as u32;
            piece.payload = seg.payload.slice(off..off + take);
            // FIN (if any) belongs to the last piece only.
            piece.flags.fin = seg.flags.fin && off + take == seg.payload.len();
            out.push(piece);
            off += take;
        }
        MbVerdict {
            forward: out,
            backward: Vec::new(),
        }
    }

    fn name(&self) -> &'static str {
        "segment-splitter"
    }

    fn record_telemetry(&self, rec: &mut Recorder) {
        rec.count_n(CounterId::MboxResegmentations, self.splits);
    }
}

/// Holds one data segment per direction briefly and merges a contiguous
/// successor into it, keeping only the options that still fit (the first
/// segment's). Models a normalizing proxy.
pub struct SegmentCoalescer {
    hold: Duration,
    max_merged: usize,
    held: [Option<(SimTime, TcpSegment)>; 2],
    /// Merges performed.
    pub merges: u64,
}

impl SegmentCoalescer {
    /// Coalesce contiguous segments arriving within `hold` of each other,
    /// up to `max_merged` bytes.
    pub fn new(hold: Duration, max_merged: usize) -> SegmentCoalescer {
        SegmentCoalescer {
            hold,
            max_merged,
            held: [None, None],
            merges: 0,
        }
    }

    fn slot(dir: Dir) -> usize {
        match dir {
            Dir::Fwd => 0,
            Dir::Rev => 1,
        }
    }
}

impl Middlebox for SegmentCoalescer {
    fn process(&mut self, now: SimTime, dir: Dir, seg: TcpSegment, _rng: &mut SimRng) -> MbVerdict {
        let slot = Self::slot(dir);

        // Control segments flush the held data ahead of themselves.
        if seg.payload.is_empty() || seg.flags.syn || seg.flags.rst || seg.flags.fin {
            let mut fwd = Vec::new();
            if let Some((_, held)) = self.held[slot].take() {
                fwd.push(held);
            }
            fwd.push(seg);
            return MbVerdict {
                forward: fwd,
                backward: Vec::new(),
            };
        }

        match self.held[slot].take() {
            None => {
                self.held[slot] = Some((now + self.hold, seg));
                MbVerdict {
                    forward: Vec::new(),
                    backward: Vec::new(),
                }
            }
            Some((deadline, mut held)) => {
                let contiguous = held.seq_end() == seg.seq
                    && held.tuple == seg.tuple
                    && held.payload.len() + seg.payload.len() <= self.max_merged;
                if contiguous {
                    // Merge: keep the held segment's options; the newcomer's
                    // DSS mapping is lost (option space, §3.3.5). Check that
                    // the merged options actually still fit.
                    let mut merged = Vec::with_capacity(held.payload.len() + seg.payload.len());
                    merged.extend_from_slice(&held.payload);
                    merged.extend_from_slice(&seg.payload);
                    held.payload = Bytes::from(merged);
                    held.ack = seg.ack; // latest ack info
                    debug_assert!(options::encode_options(&held.options).is_ok());
                    self.merges += 1;
                    self.held[slot] = Some((deadline, held));
                    MbVerdict {
                        forward: Vec::new(),
                        backward: Vec::new(),
                    }
                } else {
                    // Not mergeable: release the held one, hold the new one.
                    self.held[slot] = Some((now + self.hold, seg));
                    MbVerdict {
                        forward: vec![held],
                        backward: Vec::new(),
                    }
                }
            }
        }
    }

    fn poll(&mut self, now: SimTime) -> Vec<(Dir, TcpSegment)> {
        let mut out = Vec::new();
        for (i, dir) in [(0, Dir::Fwd), (1, Dir::Rev)] {
            if let Some((deadline, _)) = &self.held[i] {
                if *deadline <= now {
                    let (_, seg) = self.held[i].take().unwrap();
                    out.push((dir, seg));
                }
            }
        }
        out
    }

    fn poll_at(&self) -> Option<SimTime> {
        self.held
            .iter()
            .filter_map(|h| h.as_ref().map(|(t, _)| *t))
            .min()
    }

    fn name(&self) -> &'static str {
        "segment-coalescer"
    }

    fn record_telemetry(&self, rec: &mut Recorder) {
        rec.count_n(CounterId::MboxResegmentations, self.merges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::data_seg;
    use mptcp_packet::{DssMapping, MptcpOption, SeqNum, TcpOption};

    fn dss(dsn: u64, ssn: u32, len: u16) -> TcpOption {
        TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: None,
            mapping: Some(DssMapping {
                dsn,
                subflow_seq: ssn,
                len,
                checksum: None,
            }),
            data_fin: false,
        })
    }

    #[test]
    fn splitter_copies_options_to_all_pieces() {
        let mut mb = SegmentSplitter::new(4);
        let mut rng = SimRng::new(1);
        let mut seg = data_seg(100, b"0123456789");
        seg.options.push(dss(1000, 1, 10));
        let v = mb.process(SimTime::ZERO, Dir::Fwd, seg, &mut rng);
        assert_eq!(v.forward.len(), 3);
        assert_eq!(v.forward[0].seq, SeqNum(100));
        assert_eq!(v.forward[1].seq, SeqNum(104));
        assert_eq!(v.forward[2].seq, SeqNum(108));
        assert_eq!(&v.forward[2].payload[..], b"89");
        // The exact TSO hazard: the same DSS rides on every piece.
        for piece in &v.forward {
            assert_eq!(piece.options, vec![dss(1000, 1, 10)]);
        }
    }

    #[test]
    fn splitter_keeps_fin_on_last_piece() {
        let mut mb = SegmentSplitter::new(4);
        let mut rng = SimRng::new(1);
        let mut seg = data_seg(0, b"abcdefgh");
        seg.flags.fin = true;
        let v = mb.process(SimTime::ZERO, Dir::Fwd, seg, &mut rng);
        assert!(!v.forward[0].flags.fin);
        assert!(v.forward[1].flags.fin);
    }

    #[test]
    fn small_segment_passes_untouched() {
        let mut mb = SegmentSplitter::new(1460);
        let mut rng = SimRng::new(1);
        let v = mb.process(SimTime::ZERO, Dir::Fwd, data_seg(0, b"tiny"), &mut rng);
        assert_eq!(v.forward.len(), 1);
        assert_eq!(mb.splits, 0);
    }

    #[test]
    fn coalescer_merges_and_drops_second_mapping() {
        let mut mb = SegmentCoalescer::new(Duration::from_millis(1), 3000);
        let mut rng = SimRng::new(1);
        let mut a = data_seg(100, b"aaaa");
        a.options.push(dss(1, 1, 4));
        let mut b = data_seg(104, b"bbbb");
        b.options.push(dss(5, 5, 4));
        let v = mb.process(SimTime::ZERO, Dir::Fwd, a, &mut rng);
        assert!(v.forward.is_empty(), "first is held");
        let v = mb.process(SimTime::ZERO, Dir::Fwd, b, &mut rng);
        assert!(v.forward.is_empty(), "merged and still held");
        assert_eq!(mb.merges, 1);
        // Timer releases the merged segment.
        let t = mb.poll_at().unwrap();
        let rel = mb.poll(t);
        assert_eq!(rel.len(), 1);
        let merged = &rel[0].1;
        assert_eq!(&merged.payload[..], b"aaaabbbb");
        // Only the first mapping survives: 4 of the 8 bytes are unmapped.
        assert_eq!(merged.options, vec![dss(1, 1, 4)]);
    }

    #[test]
    fn coalescer_releases_noncontiguous() {
        let mut mb = SegmentCoalescer::new(Duration::from_millis(1), 3000);
        let mut rng = SimRng::new(1);
        let v = mb.process(SimTime::ZERO, Dir::Fwd, data_seg(100, b"aaaa"), &mut rng);
        assert!(v.forward.is_empty());
        // Gap: the held segment is released, the new one held.
        let v = mb.process(SimTime::ZERO, Dir::Fwd, data_seg(200, b"cccc"), &mut rng);
        assert_eq!(v.forward.len(), 1);
        assert_eq!(v.forward[0].seq, SeqNum(100));
    }

    #[test]
    fn coalescer_flushes_before_control_segments() {
        let mut mb = SegmentCoalescer::new(Duration::from_secs(1), 3000);
        let mut rng = SimRng::new(1);
        mb.process(SimTime::ZERO, Dir::Fwd, data_seg(100, b"aaaa"), &mut rng);
        let mut fin = data_seg(104, b"");
        fin.flags.fin = true;
        let v = mb.process(SimTime::ZERO, Dir::Fwd, fin, &mut rng);
        assert_eq!(v.forward.len(), 2);
        assert_eq!(v.forward[0].seq, SeqNum(100));
        assert!(v.forward[1].flags.fin);
    }

    #[test]
    fn directions_do_not_interfere() {
        let mut mb = SegmentCoalescer::new(Duration::from_secs(1), 3000);
        let mut rng = SimRng::new(1);
        mb.process(SimTime::ZERO, Dir::Fwd, data_seg(100, b"fwd1"), &mut rng);
        let v = mb.process(SimTime::ZERO, Dir::Rev, data_seg(500, b"rev1"), &mut rng);
        assert!(v.forward.is_empty(), "reverse has its own hold slot");
        assert_eq!(mb.poll(SimTime::from_secs(2)).len(), 2);
    }
}
