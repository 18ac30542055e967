//! Bidirectional paths and the middlebox trait.
//!
//! A [`Path`] is a forward link, a reverse link, and a chain of
//! [`Middlebox`] elements shared between the two directions (a NAT must see
//! both directions to translate consistently). Forward traffic traverses
//! the chain front-to-back, reverse traffic back-to-front, mirroring a
//! physical box sitting in the middle of the path.

use mptcp_packet::TcpSegment;
use mptcp_telemetry::{CounterId, Recorder};

use crate::link::Link;
use crate::rng::SimRng;
use crate::time::SimTime;

/// Traffic direction through a path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Client → server (the direction the path was created in).
    Fwd,
    /// Server → client.
    Rev,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Fwd => Dir::Rev,
            Dir::Rev => Dir::Fwd,
        }
    }
}

/// What a middlebox did with a segment.
pub struct MbVerdict {
    /// Segments to keep moving in the original direction (possibly
    /// modified, split, or coalesced; empty = absorbed/dropped).
    pub forward: Vec<TcpSegment>,
    /// Segments to send back toward the original sender (e.g. a proxy's
    /// pro-active ACK). These skip the rest of the chain.
    pub backward: Vec<TcpSegment>,
}

impl MbVerdict {
    /// Pass the segment through unchanged.
    pub fn pass(seg: TcpSegment) -> MbVerdict {
        MbVerdict {
            forward: vec![seg],
            backward: Vec::new(),
        }
    }

    /// Silently drop the segment.
    pub fn drop() -> MbVerdict {
        MbVerdict {
            forward: Vec::new(),
            backward: Vec::new(),
        }
    }
}

/// A Click-style middlebox element (§4.1 of the paper).
///
/// Implementations live in the `mptcp-middlebox` crate: NAT, sequence
/// rewriting, option stripping, segment split/coalesce, pro-active ACKing,
/// payload modification.
pub trait Middlebox: Send {
    /// Process one segment travelling in `dir`.
    fn process(&mut self, now: SimTime, dir: Dir, seg: TcpSegment, rng: &mut SimRng) -> MbVerdict;

    /// Release any segments the box was holding (e.g. a coalescer's timer).
    fn poll(&mut self, _now: SimTime) -> Vec<(Dir, TcpSegment)> {
        Vec::new()
    }

    /// Next instant at which [`Middlebox::poll`] should run.
    fn poll_at(&self) -> Option<SimTime> {
        None
    }

    /// Human-readable name for traces and reports.
    fn name(&self) -> &'static str;

    /// Fold this element's interference counters into `rec`. The default
    /// records nothing; boxes that strip options, rewrite payloads, etc.
    /// override it so a path can report what it did to the traffic.
    fn record_telemetry(&self, _rec: &mut Recorder) {}
}

/// A bidirectional path between two hosts.
pub struct Path {
    /// Client→server link.
    pub fwd: Link,
    /// Server→client link.
    pub rev: Link,
    /// Middlebox chain, ordered from the client side.
    pub chain: Vec<Box<dyn Middlebox>>,
}

impl Path {
    /// A clean path with symmetric links and no middleboxes.
    pub fn symmetric(cfg: crate::link::LinkCfg) -> Path {
        Path {
            fwd: Link::new(cfg),
            rev: Link::new(cfg),
            chain: Vec::new(),
        }
    }

    /// A path with distinct forward/reverse links.
    pub fn asymmetric(fwd: crate::link::LinkCfg, rev: crate::link::LinkCfg) -> Path {
        Path {
            fwd: Link::new(fwd),
            rev: Link::new(rev),
            chain: Vec::new(),
        }
    }

    /// Attach a middlebox to the end of the chain (closest to the server).
    pub fn with_middlebox(mut self, mb: Box<dyn Middlebox>) -> Path {
        self.chain.push(mb);
        self
    }

    /// The link carrying traffic in `dir`.
    pub fn link_mut(&mut self, dir: Dir) -> &mut Link {
        match dir {
            Dir::Fwd => &mut self.fwd,
            Dir::Rev => &mut self.rev,
        }
    }

    /// The link carrying traffic in direction `dir`.
    pub fn link(&self, dir: Dir) -> &Link {
        match dir {
            Dir::Fwd => &self.fwd,
            Dir::Rev => &self.rev,
        }
    }

    /// Run `seg` through the middlebox chain in direction `dir`.
    ///
    /// Returns `(survivors, backwash)`: segments that emerged at the far end
    /// of the chain, and segments the chain sent back toward the origin.
    pub fn apply_chain(
        &mut self,
        now: SimTime,
        dir: Dir,
        seg: TcpSegment,
        rng: &mut SimRng,
    ) -> (Vec<TcpSegment>, Vec<TcpSegment>) {
        let mut inflight = vec![seg];
        let mut backwash = Vec::new();
        let n = self.chain.len();
        for k in 0..n {
            let i = match dir {
                Dir::Fwd => k,
                Dir::Rev => n - 1 - k,
            };
            let mut next = Vec::new();
            for s in inflight {
                let v = self.chain[i].process(now, dir, s, rng);
                next.extend(v.forward);
                backwash.extend(v.backward);
            }
            inflight = next;
            if inflight.is_empty() {
                break;
            }
        }
        (inflight, backwash)
    }

    /// Earliest poll deadline across the chain.
    pub fn poll_at(&self) -> Option<SimTime> {
        self.chain.iter().filter_map(|m| m.poll_at()).min()
    }

    /// Poll every element, collecting released segments.
    pub fn poll(&mut self, now: SimTime) -> Vec<(Dir, TcpSegment)> {
        let mut out = Vec::new();
        for m in &mut self.chain {
            out.extend(m.poll(now));
        }
        out
    }

    /// A telemetry snapshot of this path: link drop counters in both
    /// directions plus whatever each middlebox reports.
    pub fn telemetry(&self) -> mptcp_telemetry::TelemetrySnapshot {
        let mut rec = Recorder::new();
        for link in [&self.fwd, &self.rev] {
            rec.count_n(CounterId::LinkQueueDrops, link.stats.queue_drops);
            rec.count_n(CounterId::LinkRandomDrops, link.stats.random_drops);
            rec.count_n(CounterId::LinkFaultDrops, link.stats.fault_drops);
        }
        for mb in &self.chain {
            mb.record_telemetry(&mut rec);
        }
        rec.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkCfg;
    use bytes::Bytes;
    use mptcp_packet::{Endpoint, FourTuple, SeqNum, TcpFlags};

    fn seg() -> TcpSegment {
        let mut s = TcpSegment::new(
            FourTuple {
                src: Endpoint::new(1, 10),
                dst: Endpoint::new(2, 20),
            },
            SeqNum(1),
            SeqNum(0),
            TcpFlags::ACK,
        );
        s.payload = Bytes::from_static(b"data");
        s
    }

    /// A test middlebox that stamps payloads and reflects a copy backward.
    struct Tagger {
        tag: &'static [u8],
    }
    impl Middlebox for Tagger {
        fn process(
            &mut self,
            _now: SimTime,
            _dir: Dir,
            mut seg: TcpSegment,
            _rng: &mut SimRng,
        ) -> MbVerdict {
            let mut p = seg.payload.to_vec();
            p.extend_from_slice(self.tag);
            seg.payload = Bytes::from(p);
            MbVerdict::pass(seg)
        }
        fn name(&self) -> &'static str {
            "tagger"
        }
    }

    #[test]
    fn chain_order_respects_direction() {
        let mut p = Path::symmetric(LinkCfg::gigabit())
            .with_middlebox(Box::new(Tagger { tag: b"A" }))
            .with_middlebox(Box::new(Tagger { tag: b"B" }));
        let mut rng = SimRng::new(1);
        let (fwd, _) = p.apply_chain(SimTime::ZERO, Dir::Fwd, seg(), &mut rng);
        assert_eq!(&fwd[0].payload[..], b"dataAB");
        let (rev, _) = p.apply_chain(SimTime::ZERO, Dir::Rev, seg(), &mut rng);
        assert_eq!(&rev[0].payload[..], b"dataBA");
    }

    struct Blackhole;
    impl Middlebox for Blackhole {
        fn process(
            &mut self,
            _now: SimTime,
            _dir: Dir,
            _seg: TcpSegment,
            _rng: &mut SimRng,
        ) -> MbVerdict {
            MbVerdict::drop()
        }
        fn name(&self) -> &'static str {
            "blackhole"
        }
    }

    #[test]
    fn dropping_element_stops_chain() {
        let mut p = Path::symmetric(LinkCfg::gigabit())
            .with_middlebox(Box::new(Blackhole))
            .with_middlebox(Box::new(Tagger { tag: b"X" }));
        let mut rng = SimRng::new(1);
        let (fwd, back) = p.apply_chain(SimTime::ZERO, Dir::Fwd, seg(), &mut rng);
        assert!(fwd.is_empty());
        assert!(back.is_empty());
    }

    #[test]
    fn dir_flip() {
        assert_eq!(Dir::Fwd.flip(), Dir::Rev);
        assert_eq!(Dir::Rev.flip(), Dir::Fwd);
    }
}
