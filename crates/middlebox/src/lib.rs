//! Click-style middlebox models (§4.1 of the paper).
//!
//! The paper validated MPTCP against Click elements modelling the
//! middlebox behaviours found in the IMC'11 Internet study \[9\]:
//!
//! | Element                | Study finding it models                     |
//! |------------------------|---------------------------------------------|
//! | [`Nat`]                | NATs rewrite addresses/ports (ubiquitous)    |
//! | [`SeqRewriter`]        | 10% of paths rewrite initial sequence numbers (18% on port 80) |
//! | [`OptionStripper`]     | 6% of paths remove unknown options from SYNs (14% on port 80); some strip from all packets |
//! | [`SegmentSplitter`]    | TSO NICs / proxies resegment, copying options onto every split |
//! | [`SegmentCoalescer`]   | traffic normalizers coalesce segments, losing one DSS mapping |
//! | [`ProactiveAcker`]     | 26% of paths mangle ACKs for unseen data — proxies that ack in advance |
//! | [`PayloadModifier`]    | application-level gateways rewrite payloads and fix up lengths/seqs |
//! | [`HoleDropper`]        | 5% of paths (11% on port 80) refuse to pass data after a sequence hole |
//! | [`SynDropper`]         | paths that silently drop SYNs carrying unknown options |
//!
//! Each element implements [`mptcp_netsim::Middlebox`] and can be chained
//! onto a [`mptcp_netsim::Path`].

pub mod alg;
pub mod nat;
pub mod options;
pub mod proxy;
pub mod segmentation;
pub mod seqrewrite;

pub use alg::PayloadModifier;
pub use nat::Nat;
pub use options::{OptionStripper, StripMode, SynDropper};
pub use proxy::{HoleDropper, ProactiveAcker};
pub use segmentation::{SegmentCoalescer, SegmentSplitter};
pub use seqrewrite::SeqRewriter;

#[cfg(test)]
pub(crate) mod testutil {
    use bytes::Bytes;
    use mptcp_packet::{Endpoint, FourTuple, SeqNum, TcpFlags, TcpSegment};

    pub const CLIENT: u32 = 0x0a000001;
    pub const SERVER: u32 = 0x0a000002;

    pub fn tuple() -> FourTuple {
        FourTuple {
            src: Endpoint::new(CLIENT, 4000),
            dst: Endpoint::new(SERVER, 80),
        }
    }

    pub fn data_seg(seq: u32, payload: &'static [u8]) -> TcpSegment {
        let mut s = TcpSegment::new(tuple(), SeqNum(seq), SeqNum(1), TcpFlags::ACK);
        s.payload = Bytes::from_static(payload);
        s
    }

    pub fn syn_seg(seq: u32) -> TcpSegment {
        TcpSegment::new(tuple(), SeqNum(seq), SeqNum(0), TcpFlags::SYN)
    }
}
