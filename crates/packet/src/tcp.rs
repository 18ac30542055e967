//! TCP segment representation and byte-level codec.
//!
//! Segments travel through the simulator in structured form (like Click
//! packets), but every field a middlebox can touch — addresses, ports,
//! sequence numbers, options, payload — is mutable, reflecting the paper's
//! lesson that "the entire TCP header and the payload must be considered as
//! mutable fields" (§7). [`TcpSegment::encode_into`]/[`TcpSegment::decode_verified_view`]
//! provide the real wire format for codec tests and checksum computation.

use bytes::Bytes;

use crate::options::{self, TcpOption};
use crate::seq::SeqNum;

/// One endpoint: IPv4 address (as u32) and port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: u32,
    /// TCP port.
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    pub const fn new(addr: u32, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let a = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}:{}", a[0], a[1], a[2], a[3], self.port)
    }
}

/// The classic five-tuple minus protocol: src/dst endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FourTuple {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
}

impl FourTuple {
    /// The tuple as seen by the other direction.
    pub fn reversed(&self) -> FourTuple {
        FourTuple {
            src: self.dst,
            dst: self.src,
        }
    }
}

/// TCP header flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpFlags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN.
    pub fin: bool,
    /// RST.
    pub rst: bool,
    /// PSH.
    pub psh: bool,
}

impl TcpFlags {
    /// SYN only.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// ACK only.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// RST.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };

    fn to_bits(self) -> u8 {
        (u8::from(self.fin))
            | (u8::from(self.syn) << 1)
            | (u8::from(self.rst) << 2)
            | (u8::from(self.psh) << 3)
            | (u8::from(self.ack) << 4)
    }

    fn from_bits(bits: u8) -> TcpFlags {
        TcpFlags {
            fin: bits & 0x01 != 0,
            syn: bits & 0x02 != 0,
            rst: bits & 0x04 != 0,
            psh: bits & 0x08 != 0,
            ack: bits & 0x10 != 0,
        }
    }
}

/// A TCP segment in flight.
#[derive(Clone, Debug, PartialEq)]
pub struct TcpSegment {
    /// Source/destination endpoints (mutable: NATs rewrite these).
    pub tuple: FourTuple,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: SeqNum,
    /// Acknowledgment number (valid when `flags.ack`).
    pub ack: SeqNum,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window, already scaled to bytes.
    ///
    /// We carry the scaled value so the stack logic reads naturally; the
    /// codec applies/removes the window-scale shift at the wire boundary.
    pub window: u32,
    /// TCP options.
    pub options: Vec<TcpOption>,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Why [`TcpSegment::decode_verified_view`] rejected a buffer of wire bytes.
///
/// Real-I/O receive paths (the UDP encapsulation runtime) need to tell a
/// datagram cut short in flight from one actively corrupted: the former is
/// countable noise, the latter is the §7 lesson about mutable headers
/// showing up on a live network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireDecodeError {
    /// Fewer bytes than a TCP header, or fewer than the data offset claims.
    Truncated,
    /// The header is self-inconsistent (data offset below the minimum).
    Malformed,
    /// The TCP checksum over the pseudo-header and segment did not verify:
    /// at least one bit changed between encode and decode.
    BadChecksum,
}

impl std::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            WireDecodeError::Truncated => "segment truncated",
            WireDecodeError::Malformed => "TCP header malformed",
            WireDecodeError::BadChecksum => "TCP checksum mismatch",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for WireDecodeError {}

/// Fixed TCP header size without options.
pub const TCP_HEADER_LEN: usize = 20;
/// IPv4 header size assumed for wire-length accounting.
pub const IPV4_HEADER_LEN: usize = 20;

impl TcpSegment {
    /// A bare segment with no options or payload.
    pub fn new(tuple: FourTuple, seq: SeqNum, ack: SeqNum, flags: TcpFlags) -> Self {
        TcpSegment {
            tuple,
            seq,
            ack,
            flags,
            window: 0,
            options: Vec::new(),
            payload: Bytes::new(),
        }
    }

    /// Amount of sequence space this segment occupies (payload + SYN + FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }

    /// Sequence number one past the end of the segment.
    pub fn seq_end(&self) -> SeqNum {
        self.seq + self.seq_len()
    }

    /// Total on-the-wire size including IPv4 + TCP headers and options.
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN
            + TCP_HEADER_LEN
            + options::options_wire_len(&self.options)
            + self.payload.len()
    }

    /// The first MPTCP option on this segment, if any.
    pub fn mptcp_option(&self) -> Option<&crate::MptcpOption> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mptcp(m) => Some(m),
            _ => None,
        })
    }

    /// All MPTCP options on this segment.
    pub fn mptcp_options(&self) -> impl Iterator<Item = &crate::MptcpOption> {
        self.options.iter().filter_map(|o| match o {
            TcpOption::Mptcp(m) => Some(m),
            _ => None,
        })
    }

    /// Encode to wire bytes (TCP header + options + payload; no IP header)
    /// by *appending* to `out` — typically a pooled buffer (anything
    /// dereferencing to `Vec<u8>`), so the hot path never allocates a fresh
    /// `Vec` per segment.
    ///
    /// `wscale_shift` is the window scale negotiated for this direction: the
    /// codec stores `window >> shift` in the 16-bit field, as the wire does.
    /// On error `out` is truncated back to its original length.
    pub fn encode_into(
        &self,
        wscale_shift: u8,
        out: &mut Vec<u8>,
    ) -> Result<(), options::OptionSpaceExceeded> {
        let base = out.len();
        out.extend_from_slice(&self.tuple.src.port.to_be_bytes());
        out.extend_from_slice(&self.tuple.dst.port.to_be_bytes());
        out.extend_from_slice(&self.seq.0.to_be_bytes());
        out.extend_from_slice(&self.ack.0.to_be_bytes());
        out.push(0); // data offset, patched once the options are in
        out.push(self.flags.to_bits());
        let wire_window = (self.window >> wscale_shift).min(u32::from(u16::MAX)) as u16;
        out.extend_from_slice(&wire_window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
        if let Err(e) = options::encode_options_into(&self.options, out) {
            out.truncate(base);
            return Err(e);
        }
        let data_offset_words = (out.len() - base) / 4;
        out[base + 12] = (data_offset_words as u8) << 4;
        out.extend_from_slice(&self.payload);

        // TCP checksum over pseudo-header + segment.
        let seg = &out[base..];
        let mut sum = 0u32;
        sum = crate::checksum::add_u32(sum, self.tuple.src.addr);
        sum = crate::checksum::add_u32(sum, self.tuple.dst.addr);
        sum = crate::checksum::add_u16(sum, 6); // protocol TCP
        sum = crate::checksum::add_u16(sum, seg.len() as u16);
        sum = crate::checksum::ones_complement_add(sum, seg);
        let ck = crate::checksum::fold(sum);
        out[base + 16..base + 18].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }

    /// Decode wire bytes produced by [`TcpSegment::encode_into`] into an
    /// existing segment, reusing its `options` Vec and taking the payload as
    /// a zero-copy slice of `bytes` (which keeps the backing buffer, e.g. a
    /// pooled receive buffer, alive for as long as the payload flows through
    /// the reorder queue and up to the application). With a recycled `seg`
    /// and pooled `bytes`, steady-state decode performs no heap allocation.
    ///
    /// `src_addr`/`dst_addr` come from the (conceptual) IP header;
    /// `wscale_shift` re-expands the 16-bit window field. This decoder
    /// trusts its input; a real receive path uses the verified ones below.
    ///
    /// Returns `false` (leaving `seg` in an unspecified but valid state)
    /// when the bytes don't parse.
    pub fn decode_view_into(
        bytes: &Bytes,
        src_addr: u32,
        dst_addr: u32,
        wscale_shift: u8,
        seg: &mut TcpSegment,
    ) -> bool {
        let Some((header, data_offset)) = parse_header(bytes, src_addr, dst_addr, wscale_shift)
        else {
            return false;
        };
        seg.tuple = header.tuple;
        seg.seq = header.seq;
        seg.ack = header.ack;
        seg.flags = header.flags;
        seg.window = header.window;
        options::decode_options_into(&bytes[TCP_HEADER_LEN..data_offset], &mut seg.options);
        seg.payload = bytes.slice(data_offset..);
        true
    }

    /// Checksum-verified zero-copy decode into a fresh segment. Any
    /// truncation or bit flip between [`TcpSegment::encode_into`] and here
    /// is rejected: truncation is caught structurally or by the
    /// pseudo-header length term, and a flip of any single bit always
    /// changes the ones-complement sum.
    pub fn decode_verified_view(
        bytes: &Bytes,
        src_addr: u32,
        dst_addr: u32,
        wscale_shift: u8,
    ) -> Result<TcpSegment, WireDecodeError> {
        verify_wire(bytes, src_addr, dst_addr)?;
        let (mut seg, data_offset) = parse_header(bytes, src_addr, dst_addr, wscale_shift)
            .ok_or(WireDecodeError::Malformed)?;
        options::decode_options_into(&bytes[TCP_HEADER_LEN..data_offset], &mut seg.options);
        seg.payload = bytes.slice(data_offset..);
        Ok(seg)
    }

    /// Checksum-verified decode into a reusable segment: the fully
    /// allocation-free receive path ([`TcpSegment::decode_view_into`] with
    /// [`TcpSegment::decode_verified_view`]'s integrity guarantee).
    pub fn decode_verified_view_into(
        bytes: &Bytes,
        src_addr: u32,
        dst_addr: u32,
        wscale_shift: u8,
        seg: &mut TcpSegment,
    ) -> Result<(), WireDecodeError> {
        verify_wire(bytes, src_addr, dst_addr)?;
        if TcpSegment::decode_view_into(bytes, src_addr, dst_addr, wscale_shift, seg) {
            Ok(())
        } else {
            Err(WireDecodeError::Malformed)
        }
    }
}

/// Structural + checksum validation shared by the verified decoders.
fn verify_wire(bytes: &[u8], src_addr: u32, dst_addr: u32) -> Result<(), WireDecodeError> {
    if bytes.len() < TCP_HEADER_LEN {
        return Err(WireDecodeError::Truncated);
    }
    let data_offset = ((bytes[12] >> 4) as usize) * 4;
    if data_offset < TCP_HEADER_LEN {
        return Err(WireDecodeError::Malformed);
    }
    if bytes.len() < data_offset {
        return Err(WireDecodeError::Truncated);
    }
    let mut sum = 0u32;
    sum = crate::checksum::add_u32(sum, src_addr);
    sum = crate::checksum::add_u32(sum, dst_addr);
    sum = crate::checksum::add_u16(sum, 6); // protocol TCP
    sum = crate::checksum::add_u16(sum, bytes.len() as u16);
    sum = crate::checksum::ones_complement_add(sum, bytes);
    if crate::checksum::fold(sum) != 0 {
        return Err(WireDecodeError::BadChecksum);
    }
    Ok(())
}

/// Parse the fixed 20-byte header, returning a payload-less segment and the
/// data offset. Shared by the fresh-segment and reusable-segment decoders.
fn parse_header(
    bytes: &[u8],
    src_addr: u32,
    dst_addr: u32,
    wscale_shift: u8,
) -> Option<(TcpSegment, usize)> {
    if bytes.len() < TCP_HEADER_LEN {
        return None;
    }
    let src_port = u16::from_be_bytes([bytes[0], bytes[1]]);
    let dst_port = u16::from_be_bytes([bytes[2], bytes[3]]);
    let seq = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let ack = u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let data_offset = ((bytes[12] >> 4) as usize) * 4;
    if data_offset < TCP_HEADER_LEN || bytes.len() < data_offset {
        return None;
    }
    let flags = TcpFlags::from_bits(bytes[13]);
    let window = u32::from(u16::from_be_bytes([bytes[14], bytes[15]])) << wscale_shift;
    let header = TcpSegment {
        tuple: FourTuple {
            src: Endpoint::new(src_addr, src_port),
            dst: Endpoint::new(dst_addr, dst_port),
        },
        seq: SeqNum(seq),
        ack: SeqNum(ack),
        flags,
        window,
        options: Vec::new(),
        payload: Bytes::new(),
    };
    Some((header, data_offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MptcpOption;

    fn tuple() -> FourTuple {
        FourTuple {
            src: Endpoint::new(0x0a000001, 4242),
            dst: Endpoint::new(0x0a000002, 80),
        }
    }

    /// `seg` encoded into a fresh buffer, as shared storage for the decoders.
    fn wire(seg: &TcpSegment, wscale_shift: u8) -> Bytes {
        let mut out = Vec::new();
        seg.encode_into(wscale_shift, &mut out).unwrap();
        Bytes::from(out)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut seg = TcpSegment::new(tuple(), SeqNum(1000), SeqNum(2000), TcpFlags::ACK);
        seg.window = 65535;
        seg.payload = Bytes::from_static(b"hello, multipath world");
        seg.options = vec![TcpOption::Timestamps { val: 1, ecr: 2 }];
        let wire = wire(&seg, 0);
        let back = TcpSegment::decode_verified_view(&wire, 0x0a000001, 0x0a000002, 0).unwrap();
        assert_eq!(back, seg);
    }

    #[test]
    fn window_scaling_applied_at_wire() {
        let mut seg = TcpSegment::new(tuple(), SeqNum(0), SeqNum(0), TcpFlags::ACK);
        seg.window = 1 << 20; // 1 MiB: needs scaling to fit 16 bits
        let wire = wire(&seg, 7);
        let back = TcpSegment::decode_verified_view(&wire, 0x0a000001, 0x0a000002, 7).unwrap();
        assert_eq!(back.window, 1 << 20);
        // Without the scale shift applied by the receiver, the window reads
        // 128x smaller — exactly the RFC 1323 firewall hazard from §7.
        let naive = TcpSegment::decode_verified_view(&wire, 0x0a000001, 0x0a000002, 0).unwrap();
        assert_eq!(naive.window, (1 << 20) >> 7);
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        let mut seg = TcpSegment::new(tuple(), SeqNum(5), SeqNum(0), TcpFlags::SYN);
        assert_eq!(seg.seq_len(), 1);
        seg.flags.fin = true;
        seg.payload = Bytes::from_static(b"xyz");
        assert_eq!(seg.seq_len(), 5);
        assert_eq!(seg.seq_end(), SeqNum(10));
    }

    #[test]
    fn mptcp_option_accessor() {
        let mut seg = TcpSegment::new(tuple(), SeqNum(0), SeqNum(0), TcpFlags::SYN);
        assert!(seg.mptcp_option().is_none());
        seg.options.push(TcpOption::Mss(1460));
        seg.options.push(TcpOption::Mptcp(MptcpOption::MpCapable {
            version: 0,
            checksum_required: true,
            sender_key: 7,
            receiver_key: None,
        }));
        assert!(matches!(
            seg.mptcp_option(),
            Some(MptcpOption::MpCapable { sender_key: 7, .. })
        ));
    }

    #[test]
    fn decode_rejects_short_or_corrupt() {
        let seg = TcpSegment::new(tuple(), SeqNum(0), SeqNum(0), TcpFlags::ACK);
        let mut out = seg.clone();
        let short = Bytes::from_static(&[0u8; 10]);
        assert!(!TcpSegment::decode_view_into(&short, 0, 0, 0, &mut out));
        assert_eq!(
            TcpSegment::decode_verified_view(&short, 0, 0, 0),
            Err(WireDecodeError::Truncated)
        );
        let mut wire = wire(&seg, 0).to_vec();
        wire[12] = 0x20; // data offset 2 words = 8 bytes < the fixed header
        let wire = Bytes::from(wire);
        assert!(!TcpSegment::decode_view_into(&wire, 0, 0, 0, &mut out));
        assert_eq!(
            TcpSegment::decode_verified_view(&wire, 0, 0, 0),
            Err(WireDecodeError::Malformed)
        );
    }

    #[test]
    fn wire_len_accounts_headers_and_padding() {
        let mut seg = TcpSegment::new(tuple(), SeqNum(0), SeqNum(0), TcpFlags::ACK);
        assert_eq!(seg.wire_len(), 40);
        seg.options.push(TcpOption::WindowScale(2)); // 3 bytes -> padded to 4
        assert_eq!(seg.wire_len(), 44);
        seg.payload = Bytes::from_static(&[0; 100]);
        assert_eq!(seg.wire_len(), 144);
    }

    #[test]
    fn encode_into_appends_after_existing_bytes() {
        let mut seg = TcpSegment::new(tuple(), SeqNum(77), SeqNum(88), TcpFlags::ACK);
        seg.window = 4096;
        seg.payload = Bytes::from_static(b"payload bytes");
        seg.options = vec![TcpOption::Timestamps { val: 3, ecr: 4 }];
        let wire = wire(&seg, 2);
        let mut buf = vec![0xAA, 0xBB]; // pre-existing bytes must survive
        seg.encode_into(2, &mut buf).unwrap();
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        assert_eq!(&buf[2..], &wire[..]);
    }

    #[test]
    fn encode_into_truncates_on_option_overflow() {
        let dss = TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: Some(1),
            mapping: Some(crate::DssMapping {
                dsn: 2,
                subflow_seq: 3,
                len: 4,
                checksum: Some(5),
            }),
            data_fin: false,
        });
        let mut seg = TcpSegment::new(tuple(), SeqNum(0), SeqNum(0), TcpFlags::ACK);
        seg.options = vec![dss.clone(), dss];
        let mut buf = vec![1, 2, 3];
        assert!(seg.encode_into(0, &mut buf).is_err());
        assert_eq!(buf, vec![1, 2, 3], "failed encode leaves buffer intact");
    }

    #[test]
    fn view_decoders_agree_without_copying() {
        let mut seg = TcpSegment::new(tuple(), SeqNum(9), SeqNum(10), TcpFlags::ACK);
        seg.payload = Bytes::from_static(b"zero copy me");
        seg.options = vec![TcpOption::Timestamps { val: 1, ecr: 2 }];
        let wire = wire(&seg, 0);

        let viewed = TcpSegment::decode_verified_view(&wire, 0x0a000001, 0x0a000002, 0).unwrap();
        assert_eq!(viewed, seg);

        // The view's payload is a slice of the wire buffer, not a copy.
        let off = wire.len() - seg.payload.len();
        assert_eq!(
            viewed.payload.as_ref().as_ptr(),
            wire[off..].as_ptr(),
            "payload aliases the datagram storage"
        );

        // Reusable-segment decode matches too, and reuses the options Vec.
        let mut reused = TcpSegment::new(tuple(), SeqNum(0), SeqNum(0), TcpFlags::RST);
        reused.options.reserve(8);
        let cap = reused.options.capacity();
        assert!(TcpSegment::decode_view_into(
            &wire,
            0x0a000001,
            0x0a000002,
            0,
            &mut reused
        ));
        assert_eq!(reused, seg);
        assert_eq!(reused.options.capacity(), cap);
        assert!(!TcpSegment::decode_view_into(
            &wire.slice(..10),
            0x0a000001,
            0x0a000002,
            0,
            &mut reused
        ));
    }

    #[test]
    fn tuple_reversal() {
        let t = tuple();
        assert_eq!(t.reversed().reversed(), t);
        assert_eq!(t.reversed().src, t.dst);
    }
}
