//! An in-memory wire between two sans-IO endpoints.
//!
//! The pipe owns a virtual clock's view of the network: a fixed one-way
//! delay, no loss, no reordering. Every segment still crosses the real
//! codec — `TcpSegment::encode_into` into a pooled buffer on the way in,
//! `decode_verified_view_into` on the way out — so the pair measured over
//! it pays what the wire path pays per segment, minus syscalls and sleeps.

use std::collections::VecDeque;

use bytes::Bytes;
use mptcp_netsim::{Duration, SimTime};
use mptcp_packet::{BufPool, Endpoint, FourTuple, SeqNum, TcpFlags, TcpSegment};

use crate::trace::{Span, Spans};

/// Window-scale shift the codec applies (the runtime's wire uses the same
/// value: 1 KiB granularity, 64 MiB range).
const WSCALE: u8 = 10;

/// Which endpoint a frame is travelling to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum To {
    Server = 0,
    Client = 1,
}

struct Frame {
    at: SimTime,
    src: u32,
    dst: u32,
    bytes: Bytes,
}

pub struct Pipe {
    pool: BufPool,
    delay: Duration,
    queues: [VecDeque<Frame>; 2],
    /// Decoded segments handed back by [`Pipe::recycle`], reused so that
    /// steady-state decode allocates nothing.
    spare: Vec<TcpSegment>,
    /// Segments that entered the pipe, both directions.
    pub segments: u64,
}

impl Pipe {
    pub fn new(delay: Duration) -> Pipe {
        Pipe {
            pool: BufPool::new(2048, 4096),
            delay,
            queues: [VecDeque::new(), VecDeque::new()],
            spare: Vec::new(),
            segments: 0,
        }
    }

    /// Encode `seg` and queue it for delivery one delay from `now`.
    pub fn send(&mut self, to: To, now: SimTime, seg: &TcpSegment, spans: &mut Spans) {
        spans.enter(Span::PacketEncode);
        let mut buf = self.pool.checkout();
        seg.encode_into(WSCALE, &mut buf)
            .expect("state machines never emit more than 40 bytes of options");
        let bytes = buf.freeze();
        spans.exit(Span::PacketEncode);
        self.segments += 1;
        self.queues[to as usize].push_back(Frame {
            at: now + self.delay,
            src: seg.tuple.src.addr,
            dst: seg.tuple.dst.addr,
            bytes,
        });
    }

    /// Decode every frame due at `now` for `to` onto the end of `out`.
    /// A frame that fails verification is a codec bug here (the pipe never
    /// corrupts), so it is reported, not dropped.
    pub fn deliver(
        &mut self,
        to: To,
        now: SimTime,
        out: &mut Vec<TcpSegment>,
        spans: &mut Spans,
    ) -> Result<(), String> {
        let q = &mut self.queues[to as usize];
        while q.front().is_some_and(|f| f.at <= now) {
            let frame = q.pop_front().expect("front was just checked");
            let mut seg = self.spare.pop().unwrap_or_else(blank_segment);
            spans.enter(Span::PacketDecode);
            let decoded = TcpSegment::decode_verified_view_into(
                &frame.bytes,
                frame.src,
                frame.dst,
                WSCALE,
                &mut seg,
            );
            spans.exit(Span::PacketDecode);
            decoded.map_err(|e| format!("segment failed verification in the pipe: {e}"))?;
            out.push(seg);
        }
        Ok(())
    }

    /// Take back delivered segments, releasing their payload views so the
    /// pooled frames behind them can be reused.
    pub fn recycle(&mut self, segs: &mut Vec<TcpSegment>) {
        for mut seg in segs.drain(..) {
            seg.payload = Bytes::new();
            self.spare.push(seg);
        }
    }

    /// When the next queued frame arrives.
    pub fn next_delivery(&self) -> Option<SimTime> {
        self.queues
            .iter()
            .filter_map(|q| q.front().map(|f| f.at))
            .min()
    }
}

fn blank_segment() -> TcpSegment {
    let nowhere = Endpoint::new(0, 0);
    TcpSegment::new(
        FourTuple {
            src: nowhere,
            dst: nowhere,
        },
        SeqNum(0),
        SeqNum(0),
        TcpFlags::ACK,
    )
}

/// The earliest of several optional deadlines.
pub fn earliest(deadlines: impl IntoIterator<Item = Option<SimTime>>) -> Option<SimTime> {
    deadlines.into_iter().flatten().min()
}

/// A seeded pseudo-random block (xorshift64*), the payload every in-memory
/// transfer sends and checks against.
pub fn seeded_block(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        out.extend_from_slice(&state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Does `data`, received at stream offset `offset`, match the stream made
/// by repeating `block`?
pub fn matches_stream(block: &[u8], offset: u64, data: &[u8]) -> bool {
    let mut at = (offset % block.len() as u64) as usize;
    let mut rest = data;
    while !rest.is_empty() {
        let n = rest.len().min(block.len() - at);
        if rest[..n] != block[at..at + n] {
            return false;
        }
        rest = &rest[n..];
        at = (at + n) % block.len();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_depends_on_seed_only() {
        assert_eq!(seeded_block(7, 1000), seeded_block(7, 1000));
        assert_ne!(seeded_block(7, 1000), seeded_block(8, 1000));
        assert_eq!(seeded_block(7, 1001).len(), 1001);
    }

    #[test]
    fn stream_match_wraps_around_the_block() {
        let block = seeded_block(1, 100);
        let mut stream = block.clone();
        stream.extend_from_slice(&block);
        stream.extend_from_slice(&block);
        assert!(matches_stream(&block, 0, &stream));
        assert!(matches_stream(&block, 90, &stream[90..250]));
        assert!(matches_stream(&block, 190, &stream[190..]));
        assert!(!matches_stream(&block, 91, &stream[90..250]));
        let mut bad = stream[90..250].to_vec();
        bad[159] ^= 1;
        assert!(!matches_stream(&block, 90, &bad));
    }

    #[test]
    fn frames_arrive_after_the_delay_in_order_and_intact() {
        let mut pipe = Pipe::new(Duration::from_micros(100));
        let mut spans = Spans::new();
        let t0 = SimTime::from_millis(1);
        let tuple = FourTuple {
            src: Endpoint::new(0x0a00_0102, 4000),
            dst: Endpoint::new(0x0a00_0101, 80),
        };
        for i in 0..3u32 {
            let mut seg = TcpSegment::new(tuple, SeqNum(i), SeqNum(9), TcpFlags::ACK);
            seg.window = 1 << 20;
            seg.payload = Bytes::from(vec![i as u8; 10]);
            pipe.send(To::Server, t0, &seg, &mut spans);
        }
        let mut got = Vec::new();
        pipe.deliver(To::Server, t0, &mut got, &mut spans).unwrap();
        assert!(got.is_empty(), "nothing is due before the delay");
        assert_eq!(pipe.next_delivery(), Some(t0 + Duration::from_micros(100)));
        pipe.deliver(
            To::Client,
            t0 + Duration::from_micros(100),
            &mut got,
            &mut spans,
        )
        .unwrap();
        assert!(got.is_empty(), "frames travel one way");
        pipe.deliver(
            To::Server,
            t0 + Duration::from_micros(100),
            &mut got,
            &mut spans,
        )
        .unwrap();
        assert_eq!(got.len(), 3);
        for (i, seg) in got.iter().enumerate() {
            assert_eq!(seg.seq, SeqNum(i as u32));
            assert_eq!(seg.tuple, tuple);
            assert_eq!(seg.window, 1 << 20);
            assert_eq!(&seg.payload[..], &[i as u8; 10][..]);
        }
        pipe.recycle(&mut got);
        assert_eq!(pipe.segments, 3);
        assert_eq!(pipe.next_delivery(), None);
    }
}
