//! UDP datagram framing for encapsulated TCP segments.
//!
//! One datagram carries exactly one encoded [`TcpSegment`]. The TCP header
//! holds ports but not IP addresses, and the window field travels
//! pre-scaled, so a 13-byte encapsulation header carries what the segment
//! bytes alone cannot:
//!
//! ```text
//! offset  len  field
//! 0       4    magic  b"MPU1"
//! 4       1    window-scale shift applied by the sender's encoder
//! 5       4    virtual source IPv4 address (big-endian)
//! 9       4    virtual destination IPv4 address (big-endian)
//! 13      -    TCP header + options + payload (TcpSegment::encode_into)
//! ```
//!
//! The virtual addresses name the MPTCP four-tuple — the identity the state
//! machines demux on — while the real UDP source address tells the receiver
//! where to send replies. Decoupling the two is what lets the same
//! connection logic run over loopback, LAN, or anything else UDP crosses,
//! and lets the receiver's route table follow a peer whose real address
//! changes (e.g. NAT rebinding) without disturbing the connection.
//!
//! The receiver verifies the TCP checksum over the virtual pseudo-header
//! ([`TcpSegment::decode_verified_view`]) before any segment reaches a state
//! machine, so a corrupt or truncated datagram is counted and dropped, never
//! parsed into nonsense.

use bytes::Bytes;
use mptcp_packet::{TcpSegment, WireDecodeError};

/// Frame magic: identifies (and versions) the encapsulation.
pub const MAGIC: [u8; 4] = *b"MPU1";

/// Encapsulation header length.
pub const FRAME_HEADER_LEN: usize = 13;

/// Window-scale shift applied on the wire. The 16-bit window field then
/// represents up to `65535 << 10` = 64 MiB, comfortably above any buffer
/// this runtime configures, at a granularity of 1 KiB (windows round down;
/// the loss is conservative).
pub const WIRE_WSCALE: u8 = 10;

/// Why an incoming datagram was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the encapsulation header.
    TooShort,
    /// Bad magic: not ours, or an incompatible framing version.
    BadMagic,
    /// The embedded TCP segment failed structural or checksum verification.
    Segment(WireDecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "datagram shorter than frame header"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::Segment(e) => write!(f, "embedded segment: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode `seg` as a self-contained datagram appended to `out`.
///
/// Single-pass: the frame header and the TCP bytes are written directly
/// into `out` (typically a pooled buffer), with no intermediate vector.
///
/// Panics only if the segment's options exceed TCP's 40-byte option space,
/// which the state machines never produce.
pub fn encode_datagram_into(seg: &TcpSegment, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_WSCALE);
    out.extend_from_slice(&seg.tuple.src.addr.to_be_bytes());
    out.extend_from_slice(&seg.tuple.dst.addr.to_be_bytes());
    seg.encode_into(WIRE_WSCALE, out)
        .expect("state machines never emit >40 bytes of options");
}

/// Shared framing checks: magic, length, virtual addresses.
fn parse_frame_header(bytes: &[u8]) -> Result<(u8, u32, u32), FrameError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameError::TooShort);
    }
    if bytes[0..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let wscale = bytes[4];
    let src = u32::from_be_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]);
    let dst = u32::from_be_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]);
    Ok((wscale, src, dst))
}

/// Decode and verify one datagram with the payload *viewed*, not copied:
/// the returned segment's payload is a zero-copy slice of `bytes` (and
/// keeps the underlying storage — e.g. a pooled buffer — alive until the
/// payload is dropped).
pub fn decode_datagram_view(bytes: &Bytes) -> Result<TcpSegment, FrameError> {
    let (wscale, src, dst) = parse_frame_header(bytes)?;
    let tcp = bytes.slice(FRAME_HEADER_LEN..);
    TcpSegment::decode_verified_view(&tcp, src, dst, wscale).map_err(FrameError::Segment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mptcp_packet::{Endpoint, FourTuple, SeqNum, TcpFlags};

    fn sample() -> TcpSegment {
        let mut seg = TcpSegment::new(
            FourTuple {
                src: Endpoint::new(0x0a000102, 45000),
                dst: Endpoint::new(0x0a000101, 9000),
            },
            SeqNum(1000),
            SeqNum(2000),
            TcpFlags::ACK,
        );
        seg.window = 128 << WIRE_WSCALE;
        seg.payload = Bytes::from_static(b"hello over udp");
        seg
    }

    /// `seg` framed into a fresh datagram.
    fn datagram(seg: &TcpSegment) -> Vec<u8> {
        let mut out = Vec::new();
        encode_datagram_into(seg, &mut out);
        out
    }

    fn decode(bytes: &[u8]) -> Result<TcpSegment, FrameError> {
        decode_datagram_view(&Bytes::copy_from_slice(bytes))
    }

    #[test]
    fn view_roundtrip_shares_storage() {
        let seg = sample();
        let wire = Bytes::from(datagram(&seg));
        let back = decode_datagram_view(&wire).expect("roundtrips");
        assert_eq!(back, seg);
        // The payload is a window into the datagram, not a copy.
        let tail = &wire[wire.len() - seg.payload.len()..];
        assert_eq!(back.payload.as_ref().as_ptr(), tail.as_ptr());
    }

    #[test]
    fn encode_into_appends_after_existing_bytes() {
        let seg = sample();
        let mut buf = vec![0xEE; 3];
        encode_datagram_into(&seg, &mut buf);
        assert_eq!(&buf[..3], &[0xEE; 3]);
        assert_eq!(&buf[3..], &datagram(&seg)[..]);
    }

    #[test]
    fn rejects_short_and_foreign_datagrams() {
        assert_eq!(decode(&[]), Err(FrameError::TooShort));
        assert_eq!(decode(&[0u8; 12]), Err(FrameError::TooShort));
        let mut wire = datagram(&sample());
        wire[0] ^= 0xff;
        assert_eq!(decode(&wire), Err(FrameError::BadMagic));
    }

    #[test]
    fn rejects_corrupted_payload() {
        let mut wire = datagram(&sample());
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert!(matches!(decode(&wire), Err(FrameError::Segment(_))));
    }

    #[test]
    fn rejects_truncated_segment() {
        let wire = datagram(&sample());
        assert!(decode(&wire[..FRAME_HEADER_LEN + 10]).is_err());
    }
}
